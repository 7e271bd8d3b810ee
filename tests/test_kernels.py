"""Numerical kernel tests: eigendecomposition, solves through a factor, CSV round trips."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import netctl
import support
from netctl import kernels
from netctl import (
    DimensionMismatch,
    SymMatrix,
    load_matrix_csv,
    save_matrix_csv,
    spanning_bottleneck,
    sym_eig,
)
from netctl.kernels import inverse_from_factor, solve_triangular

W2 = np.array([[1.25, 0.25], [0.25, 0.25]])


def random_symmetric(rng, order):
    m = rng.standard_normal((order, order))
    return SymMatrix((m + m.T) / 2)


def random_spd(rng, order):
    m = rng.standard_normal((order, order))
    return SymMatrix(m @ m.T + order * np.eye(order))


class TestSymMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            SymMatrix(np.zeros((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            SymMatrix(np.array([[1.0, 0.5], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        """A nan or inf entry raises on construction; _adopt stays unchecked."""
        for where in ((0, 0), (0, 1)):
            a = np.eye(2)
            a[where] = bad
            with pytest.raises(ValueError, match="non-finite"):
                SymMatrix(a)
        adopted = SymMatrix._adopt(np.full((2, 2), bad))
        assert adopted.array.shape == (2, 2)

    def test_symmetrizes_roundoff(self):
        m = np.array([[1.0, 0.5 + 1e-14], [0.5, 1.0]])
        s = SymMatrix(m)
        assert s.array[0, 1] == s.array[1, 0]
        assert s.array.tobytes() == (0.5 * (m + m.T)).tobytes()

    def test_adopted_arrays_equal_their_transposes(self):
        """Every adopting path hands over an exactly symmetric array: W and the
        target block (with and without W), a principal block and an inverse
        from a block's factor."""
        sysr = netctl.ConsensusSystem(netctl.random_geometric(150, 0.2, 4), [0, 7], [3, 70, 140])
        bundle = netctl.compute_gramian(sysr, 90)
        block = bundle.W.submatrix([1, 2, 70, 149])
        for m in (
            bundle.W,
            bundle.target,
            netctl.compute_gramian(sysr, 90, with_w=False).target,
            block,
            inverse_from_factor(netctl.gramian.block_factor(sysr, [1, 2, 70, 149], 90)),
        ):
            a = m.array
            assert a.tobytes() == np.ascontiguousarray(a.T).tobytes()
            assert not a.flags.writeable

    def test_array_is_read_only(self):
        s = SymMatrix(np.eye(2))
        with pytest.raises(ValueError):
            s.array[0, 0] = 7.0

    def test_submatrix(self):
        s = SymMatrix(W2)
        np.testing.assert_allclose(s.submatrix([1]).array, [[0.25]])

    def test_singular_matrix_is_not_spd(self):
        """The SPD verdict reads the kept eigenvalues: lambda_min 0 is not positive."""
        s = SymMatrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert not s.spd and s.values[0] <= 1e-12
        assert SymMatrix(W2).spd

    def test_kept_factorizations_are_read_only(self):
        s = SymMatrix(W2)
        for kept in (s.values, s.eig.values, s.eig.vectors):
            with pytest.raises(ValueError):
                kept[0] = 7.0
        assert s.values is s.values and s.eig is s.eig


class TestSymEig:
    def test_worked_2x2(self):
        pairs = sym_eig(SymMatrix(W2))
        np.testing.assert_allclose(
            pairs.values, [0.190983, 1.309017], atol=1e-6
        )

    def test_identity(self):
        pairs = sym_eig(SymMatrix(np.eye(3)))
        np.testing.assert_allclose(pairs.values, [1, 1, 1])

    def test_diagonal(self):
        pairs = sym_eig(SymMatrix(np.diag([2.0, 5.0])))
        np.testing.assert_allclose(pairs.values, [2, 5])
        np.testing.assert_allclose(np.abs(pairs.vectors), np.eye(2), atol=1e-15)
        # sign canonicalization: the big entry of each eigenvector is >= 0
        assert pairs.vectors[0, 0] >= 0 and pairs.vectors[1, 1] >= 0

    @settings(max_examples=40, deadline=None)
    @given(order=st.integers(1, 20), seed=st.integers(0, 10**6))
    def test_reconstruction(self, order, seed):
        """V diag(lambda) V^T reproduces the input matrix."""
        m = random_symmetric(np.random.default_rng(seed), order)
        pairs = sym_eig(m)
        rebuilt = (pairs.vectors * pairs.values) @ pairs.vectors.T
        scale = max(1.0, abs(pairs.lambda_max))
        assert np.max(np.abs(rebuilt - m.array)) <= 1e-8 * scale
        assert np.all(np.diff(pairs.values) >= 0)
        gram = pairs.vectors.T @ pairs.vectors
        assert np.max(np.abs(gram - np.eye(order))) <= 1e-9
        for j in range(order):
            col = pairs.vectors[:, j]
            assert col[np.argmax(np.abs(col))] >= 0


class TestDominantEigenvector:
    @settings(max_examples=40, deadline=None)
    @given(order=st.integers(1, 80), seed=st.integers(0, 10**6))
    def test_matches_sym_eig_on_nonnegative_matrices(self, order, seed):
        """Up to the eigenvalue gap: the Ritz residual is within order * eps * lambda_max."""
        m = np.abs(np.random.default_rng(seed).standard_normal((order, order)))
        m = SymMatrix(m @ m.T)
        pairs = sym_eig(m)
        y = kernels.dominant_eigenvector(m)
        gap = pairs.lambda_max - (pairs.values[-2] if order > 1 else 0.0)
        assert np.linalg.norm(y) == pytest.approx(1.0, rel=1e-14)
        assert y[np.argmax(np.abs(y))] >= 0
        err = np.max(np.abs(y - pairs.dominant))
        assert err <= 1e-13 * max(1.0, pairs.lambda_max / gap) * max(order, 10)

    def test_gramians_with_every_node_a_target(self):
        """The vector metrics_report gives when the target block is W."""
        for n, kf in ((50, 200), (120, 30), (120, 600)):
            system = netctl.ConsensusSystem(netctl.random_geometric(n, 0.25, 7), [0], range(n))
            w = netctl.compute_gramian(system, kf).W
            assert np.max(np.abs(kernels.dominant_eigenvector(w) - sym_eig(w).dominant)) < 1e-13

    def test_zero_matrix(self):
        y = kernels.dominant_eigenvector(np.zeros((3, 3)))
        np.testing.assert_allclose(y, np.full(3, 3**-0.5))


def upper_factor(m):
    """U with U^T U = M, from scipy's Cholesky factorization."""
    return scipy.linalg.cholesky(np.asarray(m.array if isinstance(m, SymMatrix) else m))


def factor_solve(m, b):
    """x with M x = b through the upper factor U: U^T z = b, then U x = z."""
    u = upper_factor(m)
    return solve_triangular(u, solve_triangular(u.T, b, True), False)


class TestSpdSolve:
    """Solves with an SPD matrix as two triangular solves with its upper factor."""

    def test_worked_solve(self):
        x = factor_solve(SymMatrix(W2), np.array([1.0, 1.0]))
        np.testing.assert_allclose(x, [0.0, 4.0], atol=1e-12)

    def test_identity_solve(self):
        b = np.array([3.0, -1.0, 2.0])
        np.testing.assert_allclose(factor_solve(SymMatrix(np.eye(3)), b), b)

    def test_solve_matches_inverse(self):
        rng = np.random.default_rng(3)
        for order in (2, 5, 11, 20):
            m = random_spd(rng, order)
            b = rng.standard_normal(order)
            x = factor_solve(m, b)
            y = inverse_from_factor(upper_factor(m)).array @ b
            assert np.linalg.norm(x - y) <= 1e-8 * max(1.0, np.linalg.norm(y))
            assert np.linalg.norm(m.array @ x - b) <= 1e-9 * np.linalg.norm(b)


def conditioning_ladder():
    """(cond, SPD matrix of order 8 with that 2-norm condition) for 1e2 .. 1e10."""
    rng = np.random.default_rng(12)
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    for exponent in range(2, 11, 2):
        cond = 10.0**exponent
        values = np.logspace(0, -exponent, 8)
        yield cond, SymMatrix((q * values) @ q.T)


def scipy_cho_solve(m, b):
    return scipy.linalg.cho_solve(scipy.linalg.cho_factor(m.array), b)


class TestAgainstScipyCholesky:
    """Solves and inverses through the upper factor against scipy.linalg.cho_solve."""

    def test_hilbert_6(self):
        m = SymMatrix(scipy.linalg.hilbert(6))
        cond = np.linalg.cond(m.array)
        b = np.arange(1.0, 7.0)
        ref = scipy_cho_solve(m, b)
        assert np.linalg.norm(factor_solve(m, b) - ref) <= cond * 2**-52 * np.linalg.norm(ref)
        inv_ref = scipy_cho_solve(m, np.eye(6))
        err = np.max(np.abs(inverse_from_factor(upper_factor(m)).array - inv_ref))
        assert err <= cond * 2**-52 * np.max(np.abs(inv_ref))

    def test_conditioning_ladder(self):
        b = np.linspace(-1.0, 2.0, 8)
        for cond, m in conditioning_ladder():
            ref = scipy_cho_solve(m, b)
            x = factor_solve(m, b)
            assert np.linalg.norm(x - ref) <= cond * 2**-52 * np.linalg.norm(ref)
            inv_ref = scipy_cho_solve(m, np.eye(8))
            err = np.max(np.abs(inverse_from_factor(upper_factor(m)).array - inv_ref))
            assert err <= cond * 2**-52 * np.max(np.abs(inv_ref))

    def test_blocked_substitution(self):
        """Orders past one substitution block split in halves and still agree."""
        rng = np.random.default_rng(13)
        for order in (33, 70):
            m = random_spd(rng, order)
            b = rng.standard_normal((order, 3))
            u = upper_factor(m)
            for t, lower in ((u, False), (u.T, True)):
                np.testing.assert_allclose(
                    solve_triangular(t, b, lower),
                    scipy.linalg.solve_triangular(t, b, lower=lower), rtol=1e-12,
                )
            np.testing.assert_allclose(factor_solve(m, b), scipy_cho_solve(m, b), rtol=1e-12)
            np.testing.assert_allclose(
                inverse_from_factor(u).array, scipy_cho_solve(m, np.eye(order)),
                rtol=1e-10, atol=1e-14,
            )


def test_import_loads_no_scipy():
    """The runtime needs numpy only: importing netctl pulls in no scipy module."""
    code = "import sys, netctl; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    src = os.path.dirname(os.path.dirname(netctl.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.strip() == "[]"


class TestExplicitInverse:
    """inverse_from_factor: M^-1 = U^-1 U^-T from the upper factor of M."""

    def test_worked_inverse(self):
        inv = inverse_from_factor(upper_factor(W2))
        np.testing.assert_allclose(inv.array, [[1, -1], [-1, 5]], atol=1e-12)

    def test_identity(self):
        np.testing.assert_allclose(inverse_from_factor(np.eye(4)).array, np.eye(4))

    def test_diagonal(self):
        inv = inverse_from_factor(np.diag([2.0, 4.0]) ** 0.5)
        np.testing.assert_allclose(inv.array, np.diag([0.5, 0.25]))

    def test_residual_bound(self):
        rng = np.random.default_rng(11)
        m = random_spd(rng, 14)
        prod = m.array @ inverse_from_factor(upper_factor(m)).array
        assert np.max(np.abs(prod - np.eye(14))) <= 1e-8

    def test_bit_symmetric_as_formed(self):
        """R equals its transpose bit for bit with no symmetrizing step: orders 1
        to 70, and the inverse of a block of every node of a network."""
        rng = np.random.default_rng(70)
        factors = [np.triu(rng.standard_normal((k, k))) + k * np.eye(k) for k in range(1, 71)]
        system = support.random_ergodic_system([5, 70], 60, 60, num_sources=30)
        factors.append(netctl.gramian.block_factor(system, range(60), 60))
        for u in factors:
            r = inverse_from_factor(u).array
            assert np.isfinite(r).all()
            assert r.tobytes() == np.ascontiguousarray(r.T).tobytes(), u.shape

    def test_hilbert_6(self):
        # cond about 1.5e7
        inv = inverse_from_factor(upper_factor(scipy.linalg.hilbert(6))).array
        exact = scipy.linalg.invhilbert(6)
        assert np.array_equal(inv, inv.T)
        assert np.max(np.abs(inv - exact)) <= 1e-6 * np.max(np.abs(exact))

    def test_rotated_near_singular(self):
        c, s = np.cos(0.3), np.sin(0.3)
        rot = np.array([[c, -s], [s, c]])
        m = rot @ np.diag([1.0, 1e-9]) @ rot.T
        inv = inverse_from_factor(upper_factor(0.5 * (m + m.T))).array
        exact = rot @ np.diag([1.0, 1e9]) @ rot.T
        assert np.array_equal(inv, inv.T)
        assert np.max(np.abs(inv - exact)) <= 1e-6 * 1e9


class TestConnectivity:
    """The graph of entries below t is connected iff spanning_bottleneck < t."""

    def test_pair(self):
        assert spanning_bottleneck(np.array([[0.0, -1.0], [-1.0, 0.0]])) == -1.0

    def test_isolated_vertex(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = -1.0
        assert spanning_bottleneck(w) == 0.0

    def test_single_vertex(self):
        assert spanning_bottleneck(np.zeros((1, 1))) == -np.inf
        assert spanning_bottleneck(np.zeros((0, 0))) == -np.inf

    def test_matches_bipartition_enumeration(self):
        """Bit-equal to max over bipartitions of the smallest crossing entry."""
        rng = np.random.default_rng(17)
        for trial in range(300):
            k = 2 + trial % 9
            if trial % 3 == 0:  # few distinct values: many tied entries
                w = rng.integers(-3, 4, size=(k, k)).astype(float)
            else:
                w = rng.standard_normal((k, k)) * 10.0 ** rng.integers(-3, 4)
            w = np.triu(w, 1) + np.triu(w, 1).T + np.diag(rng.standard_normal(k))
            assert spanning_bottleneck(w) == support.bipartition_bottleneck(w), trial


def test_matrix_csv_roundtrip(tmp_path):
    """17 significant digits round-trip doubles exactly."""
    rng = np.random.default_rng(5)
    m = rng.standard_normal((4, 3)) * np.pi
    path = tmp_path / "m.csv"
    save_matrix_csv(path, m)
    back = load_matrix_csv(path)
    assert back.shape == m.shape
    assert np.array_equal(back, m)
    # no header line
    assert len(path.read_text().strip().splitlines()) == 4


def test_matrix_csv_single_row(tmp_path):
    path = tmp_path / "row.csv"
    save_matrix_csv(path, np.array([[1.0, 2.0, 3.0]]))
    assert load_matrix_csv(path).shape == (1, 3)


def test_matrix_csv_single_column(tmp_path):
    """A k-line one-value-per-line file is a column, not a row."""
    path = tmp_path / "col.csv"
    save_matrix_csv(path, np.array([[2.0], [0.0], [7.0]]))
    back = load_matrix_csv(path)
    assert back.shape == (3, 1)
    assert np.array_equal(back, [[2.0], [0.0], [7.0]])
