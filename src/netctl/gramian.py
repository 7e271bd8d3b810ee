"""Controllability Gramians of discrete-time consensus systems.

The system is x[k+1] = A x[k] + B u[k], y[k] = C x[k] with A the
row-stochastic update matrix of an ergodic graph, B a 0-1 column selector for
the source nodes and C a 0-1 row selector for the target nodes. The finite
horizon Gramian is the sum over k < k_f of (A^k B)(A^k B)^T.

compute_gramian makes one pass over the horizon. It stacks PANEL_STEPS
consecutive X_k = A^k B into a panel (fewer when that would pass n columns,
so a panel is never larger than W) and adds the panel's product with its
own transpose, one BLAS-3 call per panel. Blocked summation of kf terms in
panels of b bounds the rounding error by about (b + kf/b) u against kf u for
adding one term at a time, which b = 64 keeps small up to kf of a few
thousand; much wider panels lose digits again. The same panels carry the
target rows C A^k B, the Markov blocks of the optimal input schedules.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceFailure, NotErgodic
from .kernels import SymMatrix
from .netgraph import WeightedDigraph, ergodicity, node_set

# Horizon steps per panel of compute_gramian: one product P P^T per panel.
PANEL_STEPS = 64


class ConsensusSystem:
    """Ergodic consensus model with fixed source and target node sets.

    Attributes A (n x n), B (n x m) and C (p x n) are read-only float arrays;
    sources and targets are ascending node tuples. gramian(kf) keeps the
    bundle of the last horizon asked for.
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

    def gramian(self, kf: int) -> GramianBundle:
        """The Gramian bundle at horizon kf, built by compute_gramian on first use."""
        kf = _check_horizon(kf)
        if self._bundle is None or self._bundle.kf != kf:
            self._bundle = None  # dropped before the build: one Gramian per system is alive
            self._bundle = compute_gramian(self, kf)
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
    """A Gramian with its horizon, and what metrics and audits read off it.

    Principal blocks (with their eigenpairs and factors) and block inverses
    are kept on first use, and the target Markov blocks from the Gramian's
    own build, unless they are as large as W: W's eigenvectors alone would
    take 8 MB at n = 1000, so an n x n block is made afresh on each use
    instead.
    """

    kf: int
    W: SymMatrix
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def memo(self, key, make=None, *args):
        """The value kept under key, made by make(*args) on first use.

        The value is a SymMatrix or an array; without make, None if not kept.
        """
        if key in self._memo or make is None:
            return self._memo.get(key)
        value = make(*args)
        array = value.array if isinstance(value, SymMatrix) else value
        if _kept(array.size, self.W.order):
            self._memo[key] = value
        return value


def _kept(entries: int, n: int) -> bool:
    """Whether a bundle keeps a float array of this many entries next to W."""
    return entries < n * n


def _check_horizon(kf) -> int:
    kf = int(kf)
    if kf < 1:
        raise ValueError(f"horizon must be at least 1, got {kf}")
    return kf


def compute_gramian(system: ConsensusSystem, kf: int) -> GramianBundle:
    """Accumulate the horizon-kf controllability Gramian in panels.

    Propagates X_k = A^k B one step at a time into a panel of up to
    PANEL_STEPS steps, and of at most n columns, and adds each panel P as one
    product P P^T, panels in horizon order. When the bundle keeps arrays of
    kf * p * m entries, the target rows of the panels also give the Markov
    blocks C A^k B, kept under ("markov", targets) as one (kf, p, m) array.
    """
    kf = _check_horizon(kf)
    n, m, p = system.n, system.m, system.p
    rows = list(system.targets)
    markov = np.empty((kf, p, m)) if _kept(kf * p * m, n) else None
    width = min(PANEL_STEPS, kf, n // m)
    # panel[j] holds X_k^T, so each step is one row-major product
    panel = np.empty((width, m, n))
    w = np.zeros((n, n))
    x = system.B.T.copy()
    at = system.A.T
    for start in range(0, kf, width):
        steps = min(width, kf - start)
        for j in range(steps):
            panel[j] = x
            x = x @ at
        flat = panel[:steps].reshape(steps * m, n)
        w += flat.T @ flat
        if markov is not None:
            markov[start : start + steps] = panel[:steps, :, rows].transpose(0, 2, 1)
    bundle = GramianBundle(kf=kf, W=SymMatrix(w))
    if markov is not None:
        bundle.memo(("markov", system.targets), lambda: markov)
    return bundle


def gramian_submatrix(bundle: GramianBundle, node_ids) -> SymMatrix:
    """Principal Gramian block on the given nodes (ascending order), via memo."""
    ids = node_set(node_ids, bundle.W.order)
    if not ids:
        raise ValueError("node set must be nonempty")
    return bundle.memo(("block", ids), bundle.W.submatrix, ids)


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
    pattern = system.A > 0.0
    reach = system.B > 0.0
    bound = (system.n - 1) ** 2 + 2
    for k in range(bound):
        if reach[rows].all():
            return k + 1
        reach = (pattern @ reach) > 0
    raise AssertionError("positivity bound exceeded; graph cannot be ergodic")


def left_perron(system: ConsensusSystem) -> np.ndarray:
    """Left Perron vector of A: w > 0, sum(w) = 1, w^T A = w^T.

    One direct solve of (I - A^T) w = 0 with its last equation replaced by
    sum(w) = 1. For an ergodic A the null space of I - A^T is one-dimensional
    and spanned by a positive vector, so the system is nonsingular.
    """
    lhs = np.eye(system.n) - system.A.T
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
    bundle = system.gramian(kf)
    kf = bundle.kf
    q = gramian_submatrix(bundle, node_ids).array
    w = left_perron(system)
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
