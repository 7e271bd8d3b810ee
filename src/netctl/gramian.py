"""Controllability Gramians of discrete-time consensus systems.

The system is x[k+1] = A x[k] + B u[k], y[k] = C x[k] with A the
row-stochastic update matrix of an ergodic graph, B a 0-1 column selector for
the source nodes and C a 0-1 row selector for the target nodes. The finite
horizon Gramian is the sum over k < k_f of (A^k B)(A^k B)^T.

Every sweep over the horizon steps through one propagator, _panels, which
yields the powers x0 op^k in panels: compute_gramian and _folded_factor
sweep B^T with A^T, the schedules of metrics without Markov blocks v C
with A, and min_positive_horizon the 0-1 patterns of B^T and A^T.

compute_gramian makes one pass over the horizon in panels of PANEL_STEPS
steps X_k^T (fewer when that would pass n rows, so a panel is never larger
than W). It adds each panel's product with its own transpose to W's lower
triangle in place, in GRAM_BLOCK-square blocks, so that no temporary is
larger than a block; the upper triangle is mirrored once at the end.
Blocked summation of kf terms in panels of b bounds the rounding error by
about (b + kf/b) u against kf u for adding one term at a time, which b = 64
keeps small up to kf of a few thousand; much wider panels lose digits
again. The same pass yields what the target metrics read: W's diagonal
(from the diagonal blocks' products), the target block (the same sums over
the panels' target columns), the target rows C A^k B, the Markov blocks of
the optimal input schedules, and their least entry. W itself is formed
only when a caller asks for it.

block_factor gives each Gramian block the one factor that every solve with
it and every inverse of it reads: the R of a thin QR of the block's
stacked Markov rows, U with U^T U = Q. A solve through U loses about
sqrt(cond(Q)) u where one with Q itself loses about cond(Q) u.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceFailure, NotErgodic
from .kernels import SymMatrix
from .netgraph import WeightedDigraph, _whole, ergodicity, node_set

# Horizon steps per panel of compute_gramian: one product P P^T per panel.
PANEL_STEPS = 64
# Side of the square blocks of W that compute_gramian updates in place.
GRAM_BLOCK = 64
# Least count of Markov rows that _folded_factor adds to the factor per QR.
FOLD_ROWS = 32


class ConsensusSystem:
    """Ergodic consensus model with fixed source and target node sets.

    Attributes A (n x n), B (n x m) and C (p x n) are read-only float arrays;
    sources and targets are ascending node tuples. gramian(kf) keeps the
    bundle of the last horizon asked for, perron() the left Perron vector.
    """

    def __init__(self, graph: WeightedDigraph, sources, targets):
        self.graph = graph
        self.sources = node_set(sources, graph.n)
        self.targets = node_set(targets, graph.n)
        if not self.sources:
            raise ValueError("sources must be nonempty")
        if not self.targets:
            raise ValueError("targets must be nonempty")
        report = ergodicity(graph)
        if not (report.irreducible and report.aperiodic):
            raise NotErgodic(
                f"graph is not ergodic (irreducible={report.irreducible}, "
                f"aperiodic={report.aperiodic}, period={report.period})"
            )
        self.A = graph.stochastic_matrix()
        b = np.zeros((graph.n, len(self.sources)))
        for col, node in enumerate(self.sources):
            b[node, col] = 1.0
        b.setflags(write=False)
        self.B = b
        c = np.zeros((len(self.targets), graph.n))
        for row, node in enumerate(self.targets):
            c[row, node] = 1.0
        c.setflags(write=False)
        self.C = c
        self._bundle = None
        self._perron = None

    def perron(self) -> np.ndarray:
        """Left Perron vector of A by left_perron, solved on first use and kept (read-only)."""
        if self._perron is None:
            self._perron = left_perron(self)
            self._perron.setflags(write=False)
        return self._perron

    def gramian(self, kf: int, with_w: bool = True) -> GramianBundle:
        """The Gramian bundle at horizon kf, built by compute_gramian on first use.

        with_w=False asks only for diag W, the target block and the Markov
        blocks: the kept bundle at kf serves it with or without W, and a
        build for it forms no W. A kept bundle without W that is asked for
        W is replaced by one full build.
        """
        kf = _check_horizon(kf)
        kept = self._bundle
        if kept is None or kept.kf != kf or (with_w and kept.W is None):
            # both references dropped before the build: one Gramian per system is alive
            kept = self._bundle = None
            self._bundle = compute_gramian(self, kf, with_w=with_w)
        return self._bundle

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def m(self) -> int:
        return len(self.sources)

    @property
    def p(self) -> int:
        return len(self.targets)

    def __repr__(self):
        return (
            f"ConsensusSystem(n={self.n}, sources={self.sources}, "
            f"targets={self.targets})"
        )


@dataclass(frozen=True)
class GramianBundle:
    """One pass over a horizon: the parts of the Gramian that metrics and audits read.

    diag is W's diagonal (read-only), target the principal block on the
    target nodes `targets`, W the whole Gramian or None when the build was
    not asked for it (when every node is a target, target is W), markov_min
    the least entry of the Markov blocks C A^k B, k < kf. The bundle holds
    arrays only, so dropping it frees them at once.

    Principal blocks (with their eigenpairs) and block inverses are kept
    on first use, and the target Markov blocks from the Gramian's
    own build, unless they are as large as W: W's eigenvectors alone would
    take 8 MB at n = 1000, so an n x n block is made afresh on each use
    instead. The factors of block_factor are kept whatever their size.
    """

    kf: int
    W: SymMatrix | None
    diag: np.ndarray
    targets: tuple
    target: SymMatrix
    markov_min: float
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def memo(self, key, make=None, *args):
        """The value kept under key, made by make(*args) on first use.

        The value is a SymMatrix or an array; without make, None if not kept.
        """
        if key in self._memo or make is None:
            return self._memo.get(key)
        value = make(*args)
        array = value.array if isinstance(value, SymMatrix) else value
        if _kept(array.size, len(self.diag)):
            self._memo[key] = value
        return value


def _kept(entries: int, n: int) -> bool:
    """Whether a bundle keeps a float array of this many entries next to W."""
    return entries < n * n


def _check_horizon(kf) -> int:
    kf = _whole(kf, "horizon")
    if kf < 1:
        raise ValueError(f"horizon must be at least 1, got {kf}")
    return kf


def compute_gramian(system: ConsensusSystem, kf: int, with_w: bool = True) -> GramianBundle:
    """Accumulate the horizon-kf controllability Gramian's parts, one panel at a time.

    Each panel adds to W's lower triangle, diag W and the target block
    (module docstring); the upper triangles are mirrored once at the end.
    With with_w=False the blocks off W's diagonal are never formed, nor is
    W, unless every node is a target (then the target block is W). The
    panels' target columns are the Markov blocks C A^k B: their least entry
    is kept as markov_min and, when the bundle keeps arrays of kf * p * m
    entries, the blocks under ("markov", targets) as one (kf, p, m) array.
    """
    kf = _check_horizon(kf)
    n, m, p = system.n, system.m, system.p
    rows = list(system.targets)
    every = p == n  # the target block is W itself
    markov = np.empty((kf, p, m)) if _kept(kf * p * m, n) else None
    diag = np.zeros(n)
    w = np.zeros((n, n)) if with_w or every else None
    wt = None if every else np.zeros((p, p))
    least = np.inf
    for start, panel in _panels(system.B.T, system.A.T, kf, min(PANEL_STEPS, kf, n // m)):
        flat = panel.reshape(-1, n)
        _add_lower_gram(w, flat, diag)
        if wt is not None:
            _add_lower_gram(wt, flat[:, rows])
        if markov is not None:
            markov[start : start + len(panel)] = panel[:, :, rows].transpose(0, 2, 1)
        # per-node minima first: indexing the panel's target columns would copy them
        least = min(least, float(panel.min(axis=(0, 1))[rows].min()))
    del panel, flat  # the mirror and the symmetry check need only block-sized buffers
    whole = None if w is None else _mirrored(w)
    diag.setflags(write=False)
    bundle = GramianBundle(
        kf=kf, W=whole, diag=diag, targets=system.targets,
        target=whole if every else _mirrored(wt), markov_min=least,
    )
    if markov is not None:
        bundle.memo(("markov", system.targets), lambda: markov)
    return bundle


def _panels(x0: np.ndarray, op: np.ndarray, kf: int, width: int):
    """Yield (k, panel) for k = 0, width, 2 width, ... < kf, with panel[j] = x0 op^(k+j).

    A panel has min(width, kf - k) steps. Every panel is one reused buffer,
    valid until the next is asked for; the sweep takes kf - 1 products.
    """
    panel = np.empty((min(width, kf), *x0.shape), dtype=x0.dtype)
    panel[0] = x0
    for k in range(0, kf, width):
        steps = min(width, kf - k)
        if k:
            panel[0] = panel[-1] @ op
        for j in range(1, steps):
            np.matmul(panel[j - 1], op, out=panel[j])
        yield k, panel[:steps]


def _add_lower_gram(w, flat: np.ndarray, diag=None) -> None:
    """Add flat^T flat to the GRAM_BLOCK-square blocks of w on and below its diagonal.

    A diagonal block is one product of a contiguous copy of a column block
    of flat with its own transpose (a BLAS syrk), every block below it one
    product with that copy, so no temporary is larger than one block. When
    given, diag receives the diagonals of the diagonal blocks' products, the
    same sums that reach w's diagonal; w may then be None.
    """
    b = GRAM_BLOCK
    for lo in range(0, flat.shape[1], b):
        fc = np.ascontiguousarray(flat[:, lo : lo + b])
        square = fc.T @ fc
        if diag is not None:
            diag[lo : lo + b] += square.diagonal()
        if w is not None:
            w[lo : lo + b, lo : lo + b] += square
            del square  # one block product alive at a time
            for top in range(lo + b, w.shape[0], b):
                w[top : top + b, lo : lo + b] += flat[:, top : top + b].T @ fc
        fc = square = None  # freed before the next block's copy


def _mirrored(w: np.ndarray) -> SymMatrix:
    """The SymMatrix of w after its lower triangle is copied to the upper, block by block."""
    b = GRAM_BLOCK
    for lo in range(0, w.shape[0], b):
        for top in range(lo + b, w.shape[0], b):
            w[lo : lo + b, top : top + b] = w[top : top + b, lo : lo + b].T
    return SymMatrix._adopt(w)


def gramian_submatrix(bundle: GramianBundle, node_ids) -> SymMatrix:
    """Principal Gramian block on the given nodes (ascending order).

    The target block is the bundle's own; any other needs W and is kept via
    memo.
    """
    ids = node_set(node_ids, len(bundle.diag))
    if not ids:
        raise ValueError("node set must be nonempty")
    if ids == bundle.targets:
        return bundle.target
    if bundle.W is None:
        raise ValueError("the bundle was built without W; ask system.gramian(kf) for it")
    return bundle.memo(("block", ids), bundle.W.submatrix, ids)


def block_factor(system: ConsensusSystem, node_ids, kf: int) -> np.ndarray:
    """U: the upper-triangular factor of the Gramian block on node_ids at kf, kept by its bundle.

    U is the R of a thin QR of M^T, where M = [S A^(kf-1) B, ..., S B] holds
    the block's Markov rows (S the 0-1 row selector of the nodes), with its
    diagonal made nonnegative, so U^T U = M M^T, the block, to rounding.
    From one QR of the Markov blocks when the build kept them (the targets
    only), else by _folded_factor; made on first use (the bundle is built
    without W if none is kept), kept under ("factor", ids) whatever its
    size, and returned read-only. Callers have found the block nonsingular
    first, so M has at least as many columns as there are nodes.
    """
    ids = node_set(node_ids, system.n)
    bundle = system.gramian(kf, with_w=False)
    key = ("factor", ids)
    u = bundle.memo(key)
    if u is None:
        blocks = bundle.memo(("markov", ids))
        if blocks is None:
            u = _folded_factor(system, ids, bundle.kf)
        else:
            # a view when m = 1
            u = _upper_factor(blocks.transpose(0, 2, 1).reshape(-1, len(ids)))
        u.setflags(write=False)
        bundle._memo[key] = u  # not through memo: kept even when as large as W
    return u


def _folded_factor(system: ConsensusSystem, ids: tuple, kf: int) -> np.ndarray:
    """block_factor's U with no (kf, p, m) stack of Markov blocks, for p = len(ids).

    Copies the columns ids of each _panels panel of X_k^T, the rows
    (S A^k B)^T, into one stack of p + max(FOLD_ROWS, p // 2) rows; a panel
    has at most PANEL_STEPS steps and no more rows than fit below the
    factor. A full stack is replaced by the R of its QR, which is the
    factor of every row so far. So no array is larger than the build's
    panel or the stack: at p = n, the stack, its copy inside np.linalg.qr
    and the new factor take 4n^2 floats, not 5n^2 as a 2p-row stack would.
    """
    n, m, p = system.n, system.m, len(ids)
    cols = list(ids)
    stack = np.zeros((p + max(FOLD_ROWS, p // 2), p))
    filled = p  # the first p rows hold the factor of the rows folded so far
    width = min(PANEL_STEPS, kf, max(1, (len(stack) - p) // m))
    for _, panel in _panels(system.B.T, system.A.T, kf, width):
        rows = panel.reshape(-1, n)
        done = 0
        while done < len(rows):
            take = min(len(rows) - done, len(stack) - filled)
            # mode="clip" writes straight into the stack; the indices are all valid
            np.take(rows[done : done + take], cols, axis=1, out=stack[filled : filled + take],
                    mode="clip")
            done, filled = done + take, filled + take
            if filled == len(stack):
                stack[:p] = _upper_factor(stack)
                filled = p
    # a full stack was just folded: its first p rows are the factor
    return stack[:p].copy() if filled == p else _upper_factor(stack[:filled])


def _upper_factor(rows: np.ndarray) -> np.ndarray:
    """R of a thin QR of rows (at least as many as columns).

    Each row of R is scaled by +1 or -1 so that its diagonal is nonnegative.
    """
    r = np.linalg.qr(rows, mode="r")
    r *= np.where(r.diagonal() < 0.0, -1.0, 1.0)[:, None]
    return r


def min_positive_horizon(system: ConsensusSystem, node_ids) -> int:
    """Smallest horizon k* making every source-to-node response positive.

    k* is the least k such that A^(k-1) has a strictly positive entry at
    (l, z) for every listed node l and source z. Ergodicity bounds k* by
    (n-1)^2 + 2, so the search always terminates.
    """
    ids = node_set(node_ids, system.n)
    if not ids:
        raise ValueError("node set must be nonempty")
    rows = list(ids)
    pattern = (system.A > 0.0).T
    # one step per panel, so no product is taken past k*
    for k, panel in _panels((system.B > 0.0).T, pattern, (system.n - 1) ** 2 + 2, 1):
        if panel[0][:, rows].all():
            return k + 1
    raise AssertionError("positivity bound exceeded; graph cannot be ergodic")


def left_perron(system: ConsensusSystem) -> np.ndarray:
    """Left Perron vector of A: w > 0, sum(w) = 1, w^T A = w^T.

    One direct solve of (I - A^T) w = 0 with its last equation replaced by
    sum(w) = 1. For an ergodic A the null space of I - A^T is one-dimensional
    and spanned by a positive vector, so the system is nonsingular.
    """
    lhs = -system.A.T
    lhs.flat[:: system.n + 1] += 1.0  # I - A^T without an identity matrix
    lhs[-1] = 1.0
    rhs = np.zeros(system.n)
    rhs[-1] = 1.0
    w = np.linalg.solve(lhs, rhs)
    if float(w.min()) <= 0.0:
        raise ConvergenceFailure("stationary vector has a non-positive entry")
    return w


@dataclass(frozen=True)
class AsymptoticDecomposition:
    """Split of a Gramian block into its rank-one growth term and remainder.

    The block on node set V satisfies W(V, kf) = coeff * ones + H where
    coeff = kf * sum of squared stationary weights over the sources, and the
    entries of H stay bounded as kf grows. residual is H as a read-only array.
    """

    kf: int
    perron_weight: float
    rank_one_coefficient: float
    residual: np.ndarray
    residual_bound: float


def asymptotic_decomposition(system: ConsensusSystem, node_ids, kf: int) -> AsymptoticDecomposition:
    """Decompose the Gramian block on node_ids at horizon kf."""
    # solved before the Gramian, so its n x n system never meets W
    w = system.perron()
    bundle = system.gramian(kf)
    kf = bundle.kf
    q = gramian_submatrix(bundle, node_ids).array
    weight = float(np.sum(w[list(system.sources)] ** 2))
    coeff = kf * weight
    h = q - coeff * np.ones_like(q)
    h.setflags(write=False)
    return AsymptoticDecomposition(
        kf=kf,
        perron_weight=weight,
        rank_one_coefficient=coeff,
        residual=h,
        residual_bound=float(np.max(np.abs(h))),
    )
