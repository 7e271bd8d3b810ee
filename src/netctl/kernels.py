"""Dense symmetric-matrix primitives with explicit numerical contracts.

Everything here operates on small dense float64 matrices and needs numpy
only. Eigensolves are delegated to LAPACK through numpy.linalg;
solve_triangular, behind every solve with and inverse of a Gramian block
through its QR factor (gramian.block_factor), is a blocked substitution
whose off-diagonal updates are matrix products. The wrappers pin down
ordering, sign conventions and failure behavior so callers get
deterministic, checkable results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch

# Acceptable asymmetry on construction, relative to max(1, max |entry|).
SYMMETRY_TOL = 1e-10
# A matrix counts as positive definite when lambda_min > SPD_RTOL * max(lambda_max, 1).
SPD_RTOL = 1e-12

CSV_FORMAT = "%.17g"
# Triangular systems up to this order are solved row by row; larger ones split in two.
SUBSTITUTION_BLOCK = 32
# Krylov basis size and restart limit of dominant_eigenvector.
LANCZOS_STEPS = 32
LANCZOS_CYCLES = 100


class SymMatrix:
    """Symmetric float64 matrix. Storage is symmetrized once on construction.

    Construction from outside data rejects a non-finite entry and inputs
    whose asymmetry exceeds SYMMETRY_TOL relative to the largest entry
    magnitude. The matrix is immutable, so its eigenvalues and
    eigendecomposition are computed on first use and kept.
    """

    __slots__ = ("_a", "_values", "_eig")

    def __init__(self, data):
        a = np.array(data, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise ValueError("matrix has a non-finite entry")
        scale = max(1.0, float(-a.min()), float(a.max())) if a.size else 1.0
        skew = _symmetrize_in_place(a)
        if skew > SYMMETRY_TOL * scale:
            raise ValueError(
                f"matrix is not symmetric: max |a - a.T| = {skew:.3e} "
                f"exceeds {SYMMETRY_TOL:.0e} * {scale:.3e}"
            )
        self._keep(a)

    @classmethod
    def _adopt(cls, a: np.ndarray) -> "SymMatrix":
        """A SymMatrix that takes over a (no copy, no check); a is frozen.

        a must be a square float64 array equal to its transpose bit for bit,
        as the package's own builders make it.
        """
        m = cls.__new__(cls)
        m._keep(a)
        return m

    def _keep(self, a: np.ndarray) -> None:
        a.setflags(write=False)
        self._a = a
        self._values = self._eig = None

    @property
    def order(self) -> int:
        return self._a.shape[0]

    @property
    def array(self) -> np.ndarray:
        """Read-only view of the underlying (order, order) array."""
        return self._a

    @property
    def values(self) -> np.ndarray:
        """Ascending eigenvalues by eigvalsh (read-only), computed once."""
        if self._values is None:
            self._values = np.linalg.eigvalsh(self._a)
            self._values.setflags(write=False)
        return self._values

    @property
    def eig(self) -> "EigenPairs":
        """Eigendecomposition by sym_eig (read-only arrays), computed once."""
        if self._eig is None:
            self._eig = sym_eig(self)
        return self._eig

    @property
    def spd(self) -> bool:
        """Positive definite: lambda_min > SPD_RTOL * max(lambda_max, 1)."""
        return float(self.values[0]) > SPD_RTOL * max(float(self.values[-1]), 1.0)

    def submatrix(self, ids) -> "SymMatrix":
        """Principal submatrix on the given row/column indices (in order)."""
        idx = np.asarray(ids, dtype=int)
        return SymMatrix._adopt(self._a[np.ix_(idx, idx)])

    def __repr__(self):
        return f"SymMatrix(order={self.order})"


def _symmetrize_in_place(a: np.ndarray) -> float:
    """Set a to 0.5 * (a + a.T) in place; return max |a - a.T| before.

    Block by block through one block-sized buffer; floating-point addition
    commutes, so the result is bit-identical to 0.5 * (a + a.T).
    """
    block = 128
    skews = [0.0]
    scratch = np.empty(min(block, a.shape[0]) ** 2)
    for i in range(0, a.shape[0], block):
        for j in range(i, a.shape[0], block):
            upper, lower = a[i : i + block, j : j + block], a[j : j + block, i : i + block]
            buf = scratch[: upper.size].reshape(upper.shape)
            np.abs(np.subtract(upper, lower.T, out=buf), out=buf)
            skews.append(np.max(buf))
            np.multiply(np.add(upper, lower.T, out=buf), 0.5, out=buf)
            upper[...] = buf
            lower[...] = buf.T
    return float(np.max(skews))


@dataclass(frozen=True)
class EigenPairs:
    """Full eigendecomposition of a symmetric matrix.

    values are ascending; vectors holds orthonormal eigenvectors as columns,
    each sign-normalized so its largest-magnitude entry is nonnegative.
    """

    values: np.ndarray
    vectors: np.ndarray

    @property
    def lambda_min(self) -> float:
        return float(self.values[0])

    @property
    def lambda_max(self) -> float:
        return float(self.values[-1])

    @property
    def dominant(self) -> np.ndarray:
        """Unit eigenvector for the largest eigenvalue."""
        return self.vectors[:, -1]


def _as_sym(m) -> SymMatrix:
    return m if isinstance(m, SymMatrix) else SymMatrix(m)


def _canonical_signs(vectors: np.ndarray) -> np.ndarray:
    v = vectors.copy()
    for j in range(v.shape[1]):
        k = int(np.argmax(np.abs(v[:, j])))
        if v[k, j] < 0.0:
            v[:, j] = -v[:, j]
    return v


def sym_eig(m) -> EigenPairs:
    """Eigendecomposition of a symmetric matrix with canonical ordering.

    Eigenvalues come back ascending and each eigenvector is flipped, if
    needed, so that its entry of largest magnitude is nonnegative. Raises
    ConvergenceFailure if the underlying LAPACK iteration does not converge.
    """
    a = _as_sym(m).array
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"symmetric eigensolve failed: {exc}") from exc
    vectors = _canonical_signs(vectors)
    values.setflags(write=False)
    vectors.setflags(write=False)
    return EigenPairs(values=values, vectors=vectors)


def dominant_eigenvector(m) -> np.ndarray:
    """Unit eigenvector of the largest eigenvalue of an entrywise nonnegative symmetric matrix.

    Restarted Lanczos with full reorthogonalization: each cycle spans a
    Krylov basis of up to LANCZOS_STEPS orthonormal vectors from the last Ritz
    vector (first the all-ones direction, which no nonnegative Perron
    vector is orthogonal to) and takes the dominant Ritz vector y of the
    projected matrix, until |M y - theta y| is within order * eps * |theta|,
    the rounding of one product M y. Only the basis is held next to M,
    where sym_eig would return order^2 eigenvector entries. The sign is
    sym_eig's: the largest-magnitude entry is nonnegative. Raises
    ConvergenceFailure after LANCZOS_CYCLES cycles.
    """
    a = _as_sym(m).array
    n = a.shape[0]
    tol = n * np.finfo(float).eps
    basis = np.empty((min(LANCZOS_STEPS, n), n))
    y = np.full(n, 1.0 / np.sqrt(n))
    for _ in range(LANCZOS_CYCLES):
        basis[0] = y
        size = 1
        while size < basis.shape[0]:
            v = a @ basis[size - 1]
            scale = float(np.linalg.norm(v))
            for _ in range(2):  # twice is enough to keep the basis orthonormal
                v -= basis[:size].T @ (basis[:size] @ v)
            norm = float(np.linalg.norm(v))
            if norm <= tol * scale:
                break  # the basis spans an invariant subspace
            basis[size] = v / norm
            size += 1
        span = basis[:size]
        theta, s = np.linalg.eigh(span @ (a @ span.T))
        y = s[:, -1] @ span
        y /= np.linalg.norm(y)
        if np.linalg.norm(a @ y - theta[-1] * y) <= tol * abs(theta[-1]):
            return _canonical_signs(y[:, None])[:, 0]
    raise ConvergenceFailure(
        f"dominant eigenvector not found in {LANCZOS_CYCLES} Lanczos cycles"
    )


def solve_triangular(t: np.ndarray, b: np.ndarray, lower: bool) -> np.ndarray:
    """x with t x = b for a lower (or upper) triangular t, by substitution.

    Blocks of order SUBSTITUTION_BLOCK or less go row by row; a larger
    system is split in halves, the half solved first updates the other
    half's right-hand side with one matrix product.
    """
    k = t.shape[0]
    if k > SUBSTITUTION_BLOCK:
        h = k // 2
        if lower:
            top = solve_triangular(t[:h, :h], b[:h], True)
            bottom = solve_triangular(t[h:, h:], b[h:] - t[h:, :h] @ top, True)
        else:
            bottom = solve_triangular(t[h:, h:], b[h:], False)
            top = solve_triangular(t[:h, :h], b[:h] - t[:h, h:] @ bottom, False)
        return np.concatenate([top, bottom])
    x = np.empty_like(b)
    for i in range(k) if lower else range(k - 1, -1, -1):
        done = slice(0, i) if lower else slice(i + 1, k)
        x[i] = (b[i] - t[i, done] @ x[done]) / t[i, i]
    return x


def inverse_from_factor(u: np.ndarray) -> SymMatrix:
    """(U^T U)^-1 = U^-1 U^-T for an upper-triangular U with a nonzero diagonal, symmetrized."""
    v = solve_triangular(u, np.eye(u.shape[0]), lower=False)
    r = v @ v.T
    del v  # freed before the symmetrization's block buffer
    _symmetrize_in_place(r)
    return SymMatrix._adopt(r)


def spanning_bottleneck(w) -> float:
    """Largest edge of a minimum spanning tree over the off-diagonal entries.

    w is a symmetric array of finite weights, read as a complete graph; the
    diagonal is ignored. By the cut property the result equals the max over
    bipartitions (S, S^c) of min w[S, S^c], and the graph whose edges are the
    entries below t is connected iff the result is below t. Order 0 or 1
    gives -inf. Prim's algorithm on the dense matrix, O(k^2).
    """
    a = np.asarray(w, dtype=float)
    k = a.shape[0]
    if k < 2:
        return -np.inf
    # rest[:m] are the nodes outside the tree, reach[:m] their cheapest edge into it
    rest = np.arange(1, k)
    reach = a[0, 1:].copy()
    worst = -np.inf
    for m in range(k - 1, 0, -1):
        j = int(np.argmin(reach[:m]))
        worst, v = max(worst, reach[j]), rest[j]
        reach[j], rest[j] = reach[m - 1], rest[m - 1]  # the last one outside fills slot j
        np.minimum(reach[: m - 1], a[v, rest[: m - 1]], out=reach[: m - 1])
    return float(worst)


def save_matrix_csv(path, matrix) -> None:
    """Write a dense matrix as CSV, one row per line, 17 significant digits."""
    a = np.atleast_2d(np.asarray(matrix, dtype=float))
    np.savetxt(path, a, fmt=CSV_FORMAT, delimiter=",")


def load_matrix_csv(path) -> np.ndarray:
    """Read a dense matrix written by save_matrix_csv. Always returns 2-D.

    ndmin=2 keeps a k-line single-column file as a (k, 1) column, so the
    save/load pair round-trips shapes faithfully.
    """
    return np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)
