"""Target-control energy and security metrics.

All quantities derive from the Gramian block on the target set: the minimum
input energy that moves the targets to a goal, the least-energy ("least
secure") goal direction, per-projection and per-node energies, and the
security floor obtained from the full-network Gramian. Only that floor reads
W itself; every other metric reads the bundle's target block, diag W and
Markov blocks, so it never has W formed.

A goal's energy y^T Q^-1 y and its optimal input come from the target
block's factor U, gramian.block_factor on the targets, the R of a thin QR
of the target Markov rows (U^T U = Q): the energy is |U^-T y|^2. That
loses about sqrt(cond(Q)) u against about cond(Q) u for a solve with Q
itself. On the benchmark's n = kf = 1000 network (cond(Q) = 2.9e7) the
energy is within 1.3e-14 of a 50-digit solve, where a solve with Q was
off by 2e-9 to 4e-9. Whether the targets are controllable at all is still
judged on Q's eigenvalues (SymMatrix.spd). An optimal schedule is the
solved goal times the Markov blocks the build kept, or else one adjoint
sweep of it through gramian._panels.

W sums squares of the nonnegative entries of A^k B, so a diagonal entry of
W is 0.0 exactly when no path reaches its node within the horizon; any
positive entry, however small, is a finite energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gramian, kernels
from .errors import (
    DegenerateProjection,
    DimensionMismatch,
    NodeUnreachable,
    NotControllable,
)
from .gramian import ConsensusSystem, GramianBundle, block_factor
from .netgraph import node_set

# A projection is degenerate when its quadratic form is below this times lambda_max.
DEGENERATE_RTOL = 1e-14


@dataclass(frozen=True)
class ControllabilityWitness:
    """Outcome of the target-controllability test with its spectral witness."""

    controllable: bool
    lambda_min: float
    lambda_max: float

    def __bool__(self) -> bool:
        return self.controllable


@dataclass(frozen=True)
class InputSequence:
    """Input schedule u[0..kf-1], each row one time step, with its energy."""

    kf: int
    u: np.ndarray
    energy: float


@dataclass(frozen=True)
class MetricsReport:
    """Summary of target-control security metrics at one horizon."""

    kf: int
    controllable: bool
    lambda_min: float
    lambda_max: float
    E_min: float
    y_min: np.ndarray
    F_min: float
    j_min: int
    node_energies: np.ndarray

    def to_json_dict(self) -> dict:
        """JSON-safe dict; non-finite energies serialize as null."""

        def scrub(x: float):
            return float(x) if math.isfinite(x) else None

        return {
            "kf": self.kf,
            "controllable": self.controllable,
            "lambda_min": float(self.lambda_min),
            "lambda_max": float(self.lambda_max),
            "E_min": scrub(self.E_min),
            "y_min": [float(v) for v in self.y_min],
            "F_min": scrub(self.F_min),
            "j_min": int(self.j_min),
            "node_energies": [scrub(v) for v in self.node_energies],
        }


def _parts(system: ConsensusSystem, kf: int) -> GramianBundle:
    """The system's bundle at kf, built without W if none is kept."""
    return system.gramian(kf, with_w=False)


def target_gramian(system: ConsensusSystem, kf: int) -> kernels.SymMatrix:
    """Gramian block on the system's target set."""
    return _parts(system, kf).target


def target_controllable(system: ConsensusSystem, kf: int) -> ControllabilityWitness:
    """Whether the target Gramian block is invertible at this horizon."""
    q = target_gramian(system, kf)
    return ControllabilityWitness(q.spd, float(q.values[0]), float(q.values[-1]))


def _controllable_block(system, kf) -> kernels.SymMatrix:
    q = target_gramian(system, kf)
    if not q.spd:
        raise NotControllable(
            f"target block singular at horizon {kf} (lambda_min={q.values[0]:.3e})"
        )
    return q


def _goal_vector(system: ConsensusSystem, ybar) -> np.ndarray:
    y = np.asarray(ybar, dtype=float).reshape(-1)
    if y.shape[0] != system.p:
        raise DimensionMismatch(f"goal vector of length {y.shape[0]} for {system.p} targets")
    if not np.isfinite(y).all():
        raise ValueError("goal vector has a non-finite entry")
    return y


def _whitened(system: ConsensusSystem, kf: int, y: np.ndarray):
    """(U, U^-T y) for the target factor U; raises NotControllable first if Q is singular."""
    _controllable_block(system, kf)
    u = block_factor(system, system.targets, kf)
    return u, kernels.solve_triangular(u.T, y, lower=True)


def target_control_energy(system: ConsensusSystem, kf: int, ybar) -> float:
    """Minimum input energy that places the target outputs at ybar at time kf.

    y^T Q^-1 y as |U^-T y|^2, one triangular solve with the target factor U
    (module docstring: accuracy).
    """
    y = _goal_vector(system, ybar)
    _, z = _whitened(system, kf, y)
    return float(z @ z)


def _schedule(system: ConsensusSystem, kf: int, v: np.ndarray) -> np.ndarray:
    """Input schedule whose step i is (C A^(kf-1-i) B)^T v.

    v is one goal (p,) or a stack (s, p), giving (kf, m) or (kf, s, m), from
    the Markov blocks compute_gramian kept, or else from the _panels sweep
    of v C A^k.
    """
    bundle = _parts(system, kf)
    if bundle.markov is not None:
        return (v @ bundle.markov)[::-1]
    steps = np.empty((bundle.kf, *v.shape[:-1], system.m))
    for k, panel in gramian._panels(v @ system.C, system.A, bundle.kf, gramian.PANEL_STEPS):
        steps[k : k + len(panel)] = panel @ system.B
    return steps[::-1]


def optimal_target_input(system: ConsensusSystem, kf: int, ybar) -> InputSequence:
    """Least-energy input schedule driving the target outputs to ybar.

    Step i is (C A^(kf-1-i) B)^T v with v = U^-1 U^-T ybar = Q^-1 ybar, two
    triangular solves with the target factor U; its energy equals
    target_control_energy(system, kf, ybar) to the same accuracy
    (module docstring).
    """
    y = _goal_vector(system, ybar)
    factor, z = _whitened(system, kf, y)
    u = _schedule(system, kf, kernels.solve_triangular(factor, z, lower=False))
    return InputSequence(kf=kf, u=u, energy=float(np.sum(u * u)))


def target_security(system: ConsensusSystem, kf: int) -> tuple[float, np.ndarray]:
    """Least goal energy over unit goals, with the goal attaining it.

    Returns (E_min, y_min): E_min is the reciprocal of the largest target
    Gramian eigenvalue and y_min the corresponding unit eigenvector,
    sign-normalized.
    """
    _, lam_max, y = _extreme_pairs(system, _controllable_block(system, kf))
    return 1.0 / lam_max, y.copy()


def _extreme_pairs(system: ConsensusSystem, q: kernels.SymMatrix):
    """(lambda_min, lambda_max, unit eigenvector of lambda_max) of the target block q.

    From q's eigendecomposition; when every node is a target, q is W, whose
    eigenvectors would be a second n x n array, so the values come from
    eigvalsh and the vector from kernels.dominant_eigenvector.
    """
    if system.p < system.n:
        pairs = q.eig
        return pairs.lambda_min, pairs.lambda_max, pairs.dominant
    return float(q.values[0]), float(q.values[-1]), kernels.dominant_eigenvector(q)


def _degenerate(q: kernels.SymMatrix, forms):
    """Whether forms alpha^T Q alpha carry no reachable energy (elementwise)."""
    return forms <= DEGENERATE_RTOL * float(q.values[-1])


def _projection_form(system, kf, alpha) -> tuple[np.ndarray, float]:
    """alpha as a vector and its nondegenerate target-Gramian form alpha^T Q alpha."""
    a = _goal_vector(system, alpha)
    q = target_gramian(system, kf)
    form = float(a @ q.array @ a)
    if _degenerate(q, form):
        raise DegenerateProjection(f"projection carries no reachable energy (form={form:.3e})")
    return a, form


def projection_energy(system: ConsensusSystem, kf: int, alpha) -> float:
    """Energy to move the scalar projection alpha . y by one unit."""
    return 1.0 / _projection_form(system, kf, alpha)[1]


def optimal_projection_input(system: ConsensusSystem, kf: int, alpha) -> InputSequence:
    """Least-energy input schedule moving the projection alpha . y to one."""
    a, form = _projection_form(system, kf, alpha)
    u = _schedule(system, kf, a) / form
    return InputSequence(kf=kf, u=u, energy=float(np.sum(u * u)))


def projection_security(system: ConsensusSystem, kf: int) -> tuple[float, int]:
    """Least projection energy over unit-1-norm projections.

    The minimum is attained at a coordinate direction: returns (F_min, j_min)
    where j_min is the first index of a largest target-Gramian diagonal entry
    and F_min its reciprocal (inf if the whole diagonal is zero).
    """
    q = target_gramian(system, kf).array
    diag = np.diag(q)
    j = int(np.argmax(diag))
    top = float(diag[j])
    return (1.0 / top if top > 0.0 else math.inf), j


def node_energy(system: ConsensusSystem, kf: int, node: int) -> float:
    """Energy to move a single node's state by one unit at time kf."""
    (c,) = node_set([node], system.n)
    val = float(_parts(system, kf).diag[c])
    if val <= 0.0:
        raise NodeUnreachable(f"node {c} unreachable within horizon {kf}")
    return 1.0 / val


def node_energies(system: ConsensusSystem, kf: int) -> np.ndarray:
    """Vector of per-node energies; unreachable nodes get inf."""
    diag = _parts(system, kf).diag
    out = np.full(system.n, math.inf)
    ok = diag > 0.0
    out[ok] = 1.0 / diag[ok]
    return out


def cutset_energy(system: ConsensusSystem, kf: int, cutset) -> float:
    """Least per-node energy over the cutset's reachable nodes."""
    ids = node_set(cutset, system.n)
    if not ids:
        raise ValueError("cutset must be nonempty")
    diag = _parts(system, kf).diag[list(ids)]
    top = float(diag.max())
    if top <= 0.0:
        raise NodeUnreachable(f"no cutset node reachable within horizon {kf}")
    return 1.0 / top


def full_target_security(system: ConsensusSystem, kf: int) -> float:
    """Least goal energy when every node is a target: 1 / lambda_max of W.

    Defined whether or not the full Gramian is invertible.
    """
    return 1.0 / float(system.gramian(kf).W.values[-1])


def metrics_report(system: ConsensusSystem, kf: int) -> MetricsReport:
    """Assemble the standard metrics summary at one horizon."""
    q = target_gramian(system, kf)
    lam_min, lam_max, y_min = _extreme_pairs(system, q)
    e_min = 1.0 / lam_max if lam_max > 0.0 else math.inf
    f_min, j_min = projection_security(system, kf)
    return MetricsReport(
        kf=_parts(system, kf).kf,
        controllable=q.spd,
        lambda_min=lam_min,
        lambda_max=lam_max,
        E_min=e_min,
        y_min=y_min.copy(),
        F_min=f_min,
        j_min=j_min,
        node_energies=node_energies(system, kf),
    )
