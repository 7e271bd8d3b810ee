"""Gramian accumulation, impulse cross-checks, horizons, Perron asymptotics."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import support
from netctl import (
    ConsensusSystem,
    NotErgodic,
    WeightedDigraph,
    asymptotic_decomposition,
    audit_theorem1,
    compute_gramian,
    gramian_submatrix,
    left_perron,
    min_positive_horizon,
    optimal_target_input,
    random_geometric,
    target_control_energy,
    verify_optimal_input,
)
from netctl import gramian, kernels, metrics

# Horizons on both sides of one and two panel boundaries (PANEL_STEPS = 64).
PANEL_HORIZONS = (63, 64, 65, 131)


@pytest.fixture(scope="module")
def sys2():
    return support.two_node_system()


@pytest.fixture(scope="module")
def chain():
    return support.three_chain_system()


class TestComputeGramian:
    def test_horizon_one(self, sys2):
        np.testing.assert_array_equal(
            compute_gramian(sys2, 1).W.array, [[1, 0], [0, 0]]
        )

    def test_horizon_two(self, sys2):
        np.testing.assert_allclose(
            compute_gramian(sys2, 2).W.array, [[1.25, 0.25], [0.25, 0.25]]
        )

    def test_horizon_three(self, sys2):
        np.testing.assert_allclose(
            compute_gramian(sys2, 3).W.array, [[1.5, 0.5], [0.5, 0.5]]
        )

    def test_horizon_validation(self, sys2):
        with pytest.raises(ValueError):
            compute_gramian(sys2, 0)

    @pytest.mark.parametrize("kf", [40.7, 1.5, True, np.True_, float("nan"), float("inf"), "3"])
    def test_non_whole_horizon_rejected(self, kf):
        """A horizon is a whole number: nothing truncates 40.7 to 40 or reads True as 1."""
        sysr = support.two_node_system()
        for call in (
            lambda: sysr.gramian(kf),
            lambda: compute_gramian(sysr, kf),
            lambda: target_control_energy(sysr, kf, [1.0, 2.0]),
        ):
            with pytest.raises(ValueError, match="horizon must be an integer"):
                call()

    def test_whole_float_horizon_accepted(self):
        sysr = support.two_node_system()
        assert sysr.gramian(40.0).kf == 40
        assert target_control_energy(sysr, 40.0, [1.0, 2.0]) == target_control_energy(
            support.two_node_system(), 40, [1.0, 2.0]
        )

    def test_incremental_consistency(self, chain):
        """W(kf+1) - W(kf) is the kf-th impulse outer product."""
        a, b = chain.A, chain.B
        for kf in (1, 3, 7):
            step = np.linalg.matrix_power(a, kf) @ b
            diff = compute_gramian(chain, kf + 1).W.array - compute_gramian(chain, kf).W.array
            np.testing.assert_allclose(diff, step @ step.T, atol=1e-13)

    def test_diagonal_monotone_and_nonnegative(self):
        for trial in range(10):
            sysr = support.random_ergodic_system([41, trial])
            prev = np.zeros(sysr.n)
            for kf in range(1, 9):
                w = compute_gramian(sysr, kf).W.array
                assert w.min() >= -1e-12
                d = np.diag(w)
                assert np.all(d >= prev - 1e-13)
                prev = d

    def test_matches_naive_sum(self):
        for trial in range(20):
            sysr = support.random_ergodic_system([42, trial])
            kf = 1 + trial % 12
            w = compute_gramian(sysr, kf).W.array
            oracle = support.naive_gramian(sysr.A, sysr.B, kf)
            scale = max(1.0, np.max(np.abs(oracle)))
            assert np.max(np.abs(w - oracle)) <= 1e-12 * scale
        # n >= PANEL_STEPS * m, so the panels are full width; with every node
        # a source (m = n = 8) a panel holds one step
        for m, n in ((1, 200), (3, 200), (8, 8)):
            sysr = support.random_ergodic_system([42, 100 + m], n, n, num_sources=m)
            for kf in PANEL_HORIZONS:
                w = compute_gramian(sysr, kf).W.array
                oracle = support.naive_gramian(sysr.A, sysr.B, kf)
                assert np.max(np.abs(w - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    def test_build_memory_stays_within_a_few_gramians(self):
        """Every node a source and a target: no kf-long array, no wide panel."""
        g = random_geometric(100, 0.3, 3)
        sysr = ConsensusSystem(g, range(100), range(100))
        kf = 65
        tracemalloc.start()
        try:
            compute_gramian(sysr, kf)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * sysr.n**2 * 8


    def test_build_accumulates_in_place(self):
        """n = 400: W, one panel and one block product; no n x n product or copy of W."""
        sysr = ConsensusSystem(random_geometric(400, 0.1, 7), [0], [1])
        assert support.traced_peak(compute_gramian, sysr, 400) < 1.3 * sysr.n**2 * 8

    @pytest.mark.parametrize("n", [127, 128, 129, 300])
    def test_blocks_are_the_whole_product(self, n):
        """Around one block edge and over several blocks W is the symmetric panel sum."""
        sysr = support.random_ergodic_system([43, n], n, n, num_sources=2)
        w = compute_gramian(sysr, 70).W.array
        assert np.array_equal(w, w.T)
        oracle = support.naive_gramian(sysr.A, sysr.B, 70)
        assert np.max(np.abs(w - oracle)) <= 1e-12 * np.max(np.abs(oracle))


def _readme_system() -> ConsensusSystem:
    """The README network: gen --n 50 --radius 0.25 --seed 7 --targets 40,45."""
    return ConsensusSystem(random_geometric(50, 0.25, 7), [0], [40, 45])


def _part_cases():
    """(system, kf): README network, two sources, every node a target, 20 sweep_small-style."""
    g = random_geometric(60, 0.3, 5)
    yield _readme_system(), 200
    yield ConsensusSystem(g, [0, 17], [3, 30, 59]), 150
    yield ConsensusSystem(g, [0], range(60)), 90
    for i in range(20):
        sysr = support.random_ergodic_system([44, i], 3, 10, num_sources=1, num_targets=2)
        yield sysr, min_positive_horizon(sysr, sysr.targets) + 20


class TestBundleParts:
    """A build without W yields the same diag W, target block and Markov blocks."""

    @pytest.mark.parametrize("case", range(23))
    def test_parts_match_w(self, case):
        sysr, kf = list(_part_cases())[case]
        full = compute_gramian(sysr, kf)
        lean = compute_gramian(sysr, kf, with_w=False)
        w = full.W.array
        assert (lean.W is None) == (sysr.p < sysr.n)
        ids = list(sysr.targets)
        block = w[np.ix_(ids, ids)]
        for bundle in (lean, full):
            assert np.max(np.abs(bundle.diag - np.diag(w))) <= 1e-15 * np.max(np.diag(w))
            gap = np.max(np.abs(bundle.target.array - block))
            assert gap <= 1e-15 * np.max(np.abs(block))
            assert gramian_submatrix(bundle, sysr.targets) is bundle.target
        if lean.markov is not None:
            assert np.array_equal(lean.markov, full.markov)
        else:
            assert full.markov is None

    def test_other_blocks_need_w(self):
        sysr = _readme_system()
        lean = compute_gramian(sysr, 200, with_w=False)
        with pytest.raises(ValueError):
            gramian_submatrix(lean, [0, 40])

    def test_asking_for_w_replaces_the_kept_parts(self):
        """A bundle without W serves later calls at kf until W is asked for."""
        sysr = _readme_system()
        lean = sysr.gramian(200, with_w=False)
        assert sysr.gramian(200, with_w=False) is lean
        full = sysr.gramian(200)
        assert full is not lean and full.W is not None
        assert sysr.gramian(200, with_w=False) is full


class TestCommandMemory:
    """The metrics commands hold no n x n array; the system is built before tracing."""

    N = 400

    @pytest.fixture
    def sysr(self):
        return ConsensusSystem(random_geometric(self.N, 0.1, 7), [0], [1, 150, 399])

    def test_node_energies(self, sysr):
        assert support.traced_peak(metrics.node_energies, sysr, 400) < 0.25 * self.N**2 * 8

    def test_metrics_report_and_input(self, sysr):
        def run():
            metrics.metrics_report(sysr, 400)
            optimal_target_input(sysr, 400, [1.0, -1.0, 2.0])

        assert support.traced_peak(run) < 0.25 * self.N**2 * 8

    def test_verify_optimal_input(self, sysr):
        peak = support.traced_peak(verify_optimal_input, sysr, 400, [1.0, -1.0, 2.0])
        assert peak < 0.25 * self.N**2 * 8

    def test_every_node_a_target(self):
        """The target block is W itself, and its eigenvectors are never formed."""
        sysr = ConsensusSystem(random_geometric(self.N, 0.1, 7), [0], range(self.N))
        assert support.traced_peak(metrics.metrics_report, sysr, 400) < 1.3 * self.N**2 * 8


def _markov_oracle(system, kf):
    powers = (np.linalg.matrix_power(system.A, k) for k in range(kf))
    return np.array([system.C @ a_k @ system.B for a_k in powers])


def _count_panels(monkeypatch) -> list:
    """Wrap gramian._panels; the returned list receives each call's arguments."""
    calls = []
    panels = gramian._panels

    def counted(*args):
        calls.append(args)
        return panels(*args)

    monkeypatch.setattr(gramian, "_panels", counted)
    return calls


class _CountingOp(np.ndarray):
    """An operator array that counts the matrix products taken with it."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            self.products += 1
        plain = (np.asarray(x) if isinstance(x, _CountingOp) else x for x in inputs)
        return getattr(ufunc, method)(*plain, **kwargs)


def _sweep(x0, op, kf, width):
    """(panel starts, every step as one array) of gramian._panels."""
    starts, steps = [], []
    for k, panel in gramian._panels(x0, op, kf, width):
        assert len(panel) == min(width, kf - k)
        starts.append(k)
        steps.extend(panel.copy())  # the buffer is reused by the next panel
    return starts, np.array(steps)


class TestPanels:
    """The one propagator: panel[j] = x0 op^(k + j), panels of at most width steps."""

    @pytest.mark.parametrize("width", [1, 7, 64])
    @pytest.mark.parametrize("kf", [1, *PANEL_HORIZONS])
    def test_every_direction_matches_matrix_powers(self, kf, width):
        """Forward B^T (A^T)^k, adjoint v C A^k and the boolean reach pattern."""
        sysr = support.random_ergodic_system([61, kf], 6, 9, num_sources=2, num_targets=3)
        a, b, c = sysr.A, sysr.B, sysr.C
        powers = [np.linalg.matrix_power(a, k) for k in range(kf)]
        v = np.linspace(-1.0, 2.0, sysr.p)
        for x0, op, expected in (
            (b.T, a.T, [(a_k @ b).T for a_k in powers]),
            (v @ c, a, [v @ c @ a_k for a_k in powers]),
        ):
            starts, got = _sweep(x0, op, kf, width)
            assert starts == list(range(0, kf, width))
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-15)
        # the powers of a converge to positive rows: no entry underflows to zero here
        _, got = _sweep((b > 0).T, (a > 0).T, kf, width)
        assert got.dtype == bool
        np.testing.assert_array_equal(got, [(a_k @ b > 0).T for a_k in powers])

    @pytest.mark.parametrize("width", [1, 7, 64])
    @pytest.mark.parametrize("kf", [1, *PANEL_HORIZONS])
    def test_takes_kf_minus_one_products(self, kf, width):
        sysr = support.random_ergodic_system([62, kf], 6, 9, num_sources=2)
        op = np.array(sysr.A.T).view(_CountingOp)
        op.products = 0
        _sweep(sysr.B.T, op, kf, width)
        assert op.products == kf - 1

    def test_every_sweep_reads_it_once(self, monkeypatch):
        """The build, the folded factor, the declined schedule and k* each sweep once."""
        sysr = ConsensusSystem(random_geometric(8, 0.6, 5), [0], range(8))
        kf = 65  # kf * p * m > n^2: no Markov blocks kept
        calls = _count_panels(monkeypatch)

        def sweeps(fn, *args):
            before = len(calls)
            fn(*args)
            return len(calls) - before

        assert sweeps(sysr.gramian, kf, False) == 1
        assert sweeps(gramian.block_factor, sysr, sysr.targets, kf) == 1
        assert sweeps(optimal_target_input, sysr, kf, np.linspace(1.0, 2.0, 8)) == 1
        assert sweeps(min_positive_horizon, sysr, sysr.targets) == 1


class TestMarkovBlocks:
    @pytest.mark.parametrize("m", [1, 3])
    def test_kept_blocks_match_powers(self, m):
        """Below n^2 entries the build keeps C A^k B for every k < kf."""
        sysr = support.random_ergodic_system(
            [50, m], 200, 200, num_sources=m, num_targets=2
        )
        for kf in PANEL_HORIZONS:
            assert kf * sysr.p * sysr.m < sysr.n**2
            bundle = compute_gramian(sysr, kf)
            kept = bundle.markov
            assert kept.shape == (kf, sysr.p, sysr.m) and not kept.flags.writeable
            oracle = _markov_oracle(sysr, kf)
            np.testing.assert_allclose(kept, oracle, rtol=1e-12, atol=1e-15)

    def test_declined_blocks_give_the_same_schedule(self, monkeypatch):
        """With every node a target the goal is propagated instead of the blocks."""
        g = random_geometric(8, 0.6, 5)
        sysr = ConsensusSystem(g, [0], range(8))
        kf = 65
        assert kf * sysr.p * sysr.m >= sysr.n**2
        gramian.block_factor(sysr, sysr.targets, kf)
        calls = _count_panels(monkeypatch)
        goal = np.linspace(1.0, 2.0, 8)
        seq = optimal_target_input(sysr, kf, goal)
        # one adjoint sweep: the factor is kept, the blocks are not
        assert len(calls) == 1 and calls[0][1] is sysr.A
        blocks = _markov_oracle(sysr, kf)
        # v = Q^-1 goal through the R of a QR of the oracle's own Markov rows
        r = np.linalg.qr(blocks.transpose(0, 2, 1).reshape(-1, sysr.p), mode="r")
        v = np.linalg.solve(r, np.linalg.solve(r.T, goal))
        expected = np.array([blk.T @ v for blk in blocks[::-1]])
        # each step sums block entries times v, so roundoff scales with |v|_1
        assert np.max(np.abs(seq.u - expected)) <= 1e-13 * np.abs(v).sum()
        optimal_target_input(sysr, kf, goal)
        assert len(calls) == 2

    def test_declined_schedule_memory_stays_within_a_few_gramians(self):
        """Every node a source and a target: no (kf, p, m) array of blocks."""
        g = random_geometric(100, 0.3, 3)
        sysr = ConsensusSystem(g, range(100), range(100))
        kf = 20
        assert kf * sysr.p * sysr.m >= sysr.n**2
        sysr.gramian(kf)
        goal = np.linspace(1.0, 2.0, 100)
        tracemalloc.start()
        try:
            optimal_target_input(sysr, kf, goal)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * sysr.n**2 * 8


def _exact_inverse(system, ids, kf) -> np.ndarray:
    """The inverse of the block on ids at kf for system's float64 A, from 60-digit sums."""
    mpmath = pytest.importorskip("mpmath")
    rows = list(ids)
    with mpmath.workdps(60):
        a, x = mpmath.matrix(system.A.tolist()), mpmath.matrix(system.B.tolist())
        q = mpmath.zeros(len(rows), len(rows))
        for _ in range(kf):
            sub = mpmath.matrix([[x[r, c] for c in range(x.cols)] for r in rows])
            q += sub * sub.T
            x = a * x
        return np.array((q**-1).tolist(), dtype=float)


def _ladder():
    """Whole-network blocks, one source, cond(Q) from 1e4 to 1e12.

    Averaging paths a few steps past k*, then sweep_small-style blocks at
    k* + 20, with the indices of their systems in the seed's corpus.
    """
    for n, extra in ((5, 1), (6, 2), (7, 2), (8, 3), (10, 4), (11, 8), (12, 8), (12, 1)):
        system = ConsensusSystem(support.averaging_path(n), [0], range(n))
        yield system, min_positive_horizon(system, range(n)) + extra
    for seed, index in ((0, 9), (0, 5), (1, 3), (0, 11), (0, 6)):
        base, _ = support.sweep_small_systems(seed, index + 1)[index]
        system = ConsensusSystem(base.graph, base.sources[:1], base.targets)
        yield system, min_positive_horizon(system, range(system.n)) + 20


def _off_target_cases():
    """(system, node set, kf): a set that is not the targets, and the whole network."""
    base = support.random_ergodic_system([91, 3], 12, 12, num_sources=3, num_targets=2)
    rest = [v for v in range(base.n) if v not in base.targets]
    kf = min_positive_horizon(base, range(base.n)) + 12
    return [(base, tuple(rest[:5]), kf), (base, tuple(range(base.n)), kf)]


class TestBlockFactor:
    """gramian.block_factor on any node set, and the inverse the audits read from it."""

    def test_inverse_matches_60_digits_on_a_conditioning_ladder(self):
        """R = U^-1 U^-T is within n sqrt(cond(Q)) u of the exact inverse, entrywise
        relative to max|R|, and never further off than scipy.linalg.inv(Q).

        n sqrt(cond(Q)) u is the loss of a solve through U; the ladder reads at
        most 2% of it (cond(Q) = 3e8: 3.2e-13), where inv(Q) is off by 4e-9.
        """
        conds = []
        for system, kf in _ladder():
            ids = tuple(range(system.n))
            exact = _exact_inverse(system, ids, kf)
            scale, cond = np.max(np.abs(exact)), np.linalg.cond(exact)
            r = kernels.inverse_from_factor(gramian.block_factor(system, ids, kf)).array
            q = gramian_submatrix(system.gramian(kf), ids).array
            err = np.max(np.abs(r - exact)) / scale
            err_q = np.max(np.abs(scipy.linalg.inv(q) - exact)) / scale
            assert err <= system.n * np.sqrt(cond) * 2.0**-53, (system, kf, cond, err)
            assert err <= err_q, (system, kf, cond, err, err_q)
            conds.append(cond)
        assert 1e4 <= min(conds) < 1e5 and 1e11 < max(conds) < 1e12

    @pytest.mark.parametrize("case", range(2))
    def test_factor_off_the_targets(self, case, monkeypatch):
        """U^T U is the block; the same U whether or not the build kept the target
        blocks; kept by the bundle; and the one-QR route on a system whose
        targets are the set agrees with the folded one."""
        base, ids, kf = _off_target_cases()[case]
        factors = []
        for kept in (True, False):
            monkeypatch.setattr(gramian, "_kept", lambda entries, n, kept=kept: kept)
            system = ConsensusSystem(base.graph, base.sources, base.targets)
            u = gramian.block_factor(system, ids, kf)
            assert gramian.block_factor(system, ids, kf) is u
            assert gramian.block_factor(system, list(reversed(ids)), kf) is u
            q = gramian_submatrix(system.gramian(kf), ids)
            assert q.spd
            assert u.shape == (len(ids), len(ids)) and not u.flags.writeable
            assert np.array_equal(u, np.triu(u)) and (u.diagonal() >= 0.0).all()
            assert np.max(np.abs(u.T @ u - q.array)) <= 1e-13 * np.max(np.abs(q.array))
            factors.append(u)
        assert np.array_equal(*factors)
        # kept blocks on a system whose targets are ids: one QR of them
        monkeypatch.setattr(gramian, "_kept", lambda entries, n: True)
        own = ConsensusSystem(base.graph, base.sources, ids)
        one_qr = gramian.block_factor(own, ids, kf)
        assert own.gramian(kf, with_w=False).markov is not None
        assert np.max(np.abs(one_qr - factors[0])) <= 1e-12 * np.max(np.abs(one_qr))

    @pytest.mark.parametrize("every_target", [False, True])
    def test_theorem1_on_every_node_block_memory(self, every_target):
        """T1 with its inverse on a block of every node: under 6 n^2 floats past the build.

        The block (a copy of W unless every node is a target) and its
        eigenvectors are freed before the factor is folded; then the factor,
        the fold's stack and the inverse's triangular solve are alive.
        """
        base = support.random_ergodic_system([5, 40], 80, 80, num_sources=40)
        targets = range(base.n) if every_target else base.targets
        system = ConsensusSystem(base.graph, base.sources, targets)
        kf = min_positive_horizon(system, range(system.n)) + 20
        system.gramian(kf)
        peak = support.traced_peak(audit_theorem1, system, range(system.n), kf)
        checks = {c.id: c for c in audit_theorem1(system, range(system.n), kf).checks}
        assert checks["T1.4"].horizon_adequate and checks["T1.4"].holds
        assert peak < 6 * system.n**2 * 8


class TestSubmatrix:
    def test_single_node(self, sys2):
        q = gramian_submatrix(compute_gramian(sys2, 2), [1])
        np.testing.assert_allclose(q.array, [[0.25]])

    def test_full_selection(self, sys2):
        bundle = compute_gramian(sys2, 2)
        q = gramian_submatrix(bundle, [0, 1])
        np.testing.assert_array_equal(q.array, bundle.W.array)

    def test_source_at_horizon_one(self, sys2):
        q = gramian_submatrix(compute_gramian(sys2, 1), [0])
        np.testing.assert_array_equal(q.array, [[1.0]])

    def test_empty_rejected(self, sys2):
        with pytest.raises(ValueError):
            gramian_submatrix(compute_gramian(sys2, 2), [])


class TestImpulseResponse:
    def test_source_to_source(self, sys2):
        np.testing.assert_allclose(support.impulse_response(sys2, 0, 0, 3), [1, 0.5, 0.5])

    def test_source_to_other(self, sys2):
        np.testing.assert_allclose(support.impulse_response(sys2, 0, 1, 3), [0, 0.5, 0.5])

    def test_single_step_identity(self, chain):
        np.testing.assert_array_equal(support.impulse_response(chain, 0, 0, 1), [1.0])

    def test_nonnegative(self):
        sysr = support.random_ergodic_system([43, 0])
        z = sysr.sources[0]
        for l in range(sysr.n):
            assert support.impulse_response(sysr, z, l, 9).min() >= 0.0

    def test_rejects_non_source(self, chain):
        with pytest.raises(ValueError):
            support.impulse_response(chain, 2, 0, 3)


class TestGramianFromImpulses:
    def test_worked_full(self, sys2):
        q = support.gramian_from_impulses(sys2, [0, 1], 2)
        np.testing.assert_allclose(q, [[1.25, 0.25], [0.25, 0.25]])

    def test_worked_single(self, sys2):
        np.testing.assert_allclose(support.gramian_from_impulses(sys2, [1], 2), [[0.25]])

    def test_sources_at_horizon_one(self):
        sysr = support.random_ergodic_system([44, 1], num_sources=2)
        q = support.gramian_from_impulses(sysr, sysr.sources, 1)
        np.testing.assert_array_equal(q, np.eye(sysr.m))

    def test_cross_check_route(self):
        """Impulse assembly equals direct accumulation on random systems."""
        for trial in range(15):
            sysr = support.random_ergodic_system([45, trial])
            kf = 2 + trial % 9
            ids = list(range(0, sysr.n, 2))
            via_w = gramian_submatrix(compute_gramian(sysr, kf), ids).array
            via_h = support.gramian_from_impulses(sysr, ids, kf)
            scale = max(1.0, np.max(np.abs(via_w)))
            assert np.max(np.abs(via_w - via_h)) <= 1e-10 * scale


class TestMinPositiveHorizon:
    def test_two_node(self, sys2):
        assert min_positive_horizon(sys2, [0, 1]) == 2
        assert min_positive_horizon(sys2, [0]) == 1

    def test_chain_far_node(self, chain):
        assert min_positive_horizon(chain, [2]) == 3

    def test_matches_brute_force(self):
        for trial in range(12):
            sysr = support.random_ergodic_system([46, trial])
            block = list(range(sysr.n))
            k_lib = min_positive_horizon(sysr, block)
            assert k_lib == support.brute_reach_horizon(sysr.A, sysr.sources, block)

    def test_block_positive_at_horizon(self):
        for trial in range(8):
            sysr = support.random_ergodic_system([47, trial])
            ids = list(range(sysr.n))
            k = min_positive_horizon(sysr, ids)
            assert gramian_submatrix(compute_gramian(sysr, k), ids).array.min() > 0


class TestLeftPerron:
    def test_doubly_stochastic_uniform(self, sys2):
        np.testing.assert_allclose(left_perron(sys2), [0.5, 0.5], atol=1e-12)

    def test_chain_exact(self, chain):
        np.testing.assert_allclose(left_perron(chain), [2 / 7, 3 / 7, 2 / 7], atol=1e-12)

    def test_stationarity_residual(self):
        for trial in range(10):
            sysr = support.random_ergodic_system([48, trial])
            w = left_perron(sysr)
            assert np.max(np.abs(w @ sysr.A - w)) <= 1e-10
            assert w.min() > 0
            assert abs(w.sum() - 1.0) <= 1e-12

    def test_direct_solve_residual_on_geometric_network(self):
        g = random_geometric(200, 0.15, 7)
        sysr = ConsensusSystem(g, [0], [1])
        w = left_perron(sysr)
        assert np.max(np.abs(w @ sysr.A - w)) <= 1e-14
        assert w.min() > 0


class TestAsymptoticDecomposition:
    def test_worked_two_step(self, sys2):
        dec = asymptotic_decomposition(sys2, [0, 1], 2)
        assert dec.perron_weight == pytest.approx(0.25, abs=1e-15)
        assert dec.rank_one_coefficient == pytest.approx(0.5, abs=1e-15)
        np.testing.assert_allclose(
            dec.residual, [[0.75, -0.25], [-0.25, -0.25]], atol=1e-12
        )
        assert not dec.residual.flags.writeable
        assert dec.residual_bound == pytest.approx(0.75, abs=1e-12)

    def test_single_step_definitional(self, sys2):
        dec = asymptotic_decomposition(sys2, [0, 1], 1)
        w1 = compute_gramian(sys2, 1).W.array
        np.testing.assert_allclose(dec.residual, w1 - 0.25, atol=1e-15)

    def test_residual_bounded_as_horizon_doubles(self, chain):
        b50 = asymptotic_decomposition(chain, [0, 1, 2], 50).residual_bound
        b100 = asymptotic_decomposition(chain, [0, 1, 2], 100).residual_bound
        assert b100 <= 1.05 * b50

    def test_bundle_horizon_mismatch(self):
        """A bundle kept for another horizon is replaced, not answered from."""
        sysr = support.two_node_system()
        sysr.gramian(3)
        dec = asymptotic_decomposition(sysr, [0], 2)
        fresh = asymptotic_decomposition(support.two_node_system(), [0], 2)
        assert dec.kf == sysr.gramian(2).kf == 2
        np.testing.assert_array_equal(dec.residual, fresh.residual)


class TestConsensusSystem:
    def test_rejects_periodic(self):
        g = WeightedDigraph(2, [(1, 0, 1.0), (0, 1, 1.0)])
        with pytest.raises(NotErgodic):
            ConsensusSystem(g, [0], [1])

    def test_rejects_disconnected(self):
        g = WeightedDigraph(2, [(0, 0, 1.0), (1, 1, 1.0)])
        with pytest.raises(NotErgodic):
            ConsensusSystem(g, [0], [1])

    def test_rejects_empty_node_sets(self):
        g = WeightedDigraph(2, [(0, 0, 0.5), (1, 0, 0.5), (0, 1, 0.5), (1, 1, 0.5)])
        with pytest.raises(ValueError):
            ConsensusSystem(g, [], [1])
        with pytest.raises(ValueError):
            ConsensusSystem(g, [0], [])

    def test_selector_shapes(self):
        sysr = support.random_ergodic_system([49, 0])
        assert sysr.B.shape == (sysr.n, sysr.m)
        assert sysr.C.shape == (sysr.p, sysr.n)
        np.testing.assert_array_equal(sysr.B.sum(axis=0), np.ones(sysr.m))
        np.testing.assert_array_equal(sysr.C.sum(axis=1), np.ones(sysr.p))
        assert np.all(sysr.A @ np.ones(sysr.n) == pytest.approx(1.0))
