"""Target-control energy and security metrics.

All quantities derive from the Gramian block on the target set: the minimum
input energy that moves the targets to a goal, the least-energy ("least
secure") goal direction, per-projection and per-node energies, and the
security floor obtained from the full-network Gramian.

W sums squares of the nonnegative entries of A^k B, so a diagonal entry of
W is 0.0 exactly when no path reaches its node within the horizon; any
positive entry, however small, is a finite energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import (
    DegenerateProjection,
    DimensionMismatch,
    NodeUnreachable,
    NotControllable,
)
from .gramian import ConsensusSystem, GramianBundle, bundle_for, gramian_submatrix
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


def target_gramian(
    system: ConsensusSystem, kf: int, bundle: GramianBundle | None = None
) -> kernels.SymMatrix:
    """Gramian block on the system's target set."""
    return gramian_submatrix(bundle_for(system, kf, bundle), system.targets)


def target_controllable(
    system: ConsensusSystem, kf: int, bundle: GramianBundle | None = None
) -> ControllabilityWitness:
    """Whether the target Gramian block is invertible at this horizon."""
    q = target_gramian(system, kf, bundle)
    return ControllabilityWitness(q.spd, float(q.values[0]), float(q.values[-1]))


def _controllable_block(system, kf, bundle) -> kernels.SymMatrix:
    q = target_gramian(system, kf, bundle)
    if not q.spd:
        raise NotControllable(
            f"target block singular at horizon {kf} (lambda_min={q.values[0]:.3e})"
        )
    return q


def _goal_vector(system: ConsensusSystem, ybar) -> np.ndarray:
    y = np.asarray(ybar, dtype=float).reshape(-1)
    if y.shape[0] != system.p:
        raise DimensionMismatch(
            f"goal vector of length {y.shape[0]} for {system.p} targets"
        )
    return y


def target_control_energy(
    system: ConsensusSystem, kf: int, ybar, bundle: GramianBundle | None = None
) -> float:
    """Minimum input energy that places the target outputs at ybar at time kf."""
    y = _goal_vector(system, ybar)
    q = _controllable_block(system, kf, bundle)
    return float(y @ kernels.solve_spd(q, y))


def _markov_blocks(system: ConsensusSystem, kf: int) -> np.ndarray:
    """C A^k B for k = 0..kf-1 as a (kf, p, m) array, propagating C A^k.

    compute_gramian keeps the same blocks from its own pass when they are
    smaller than W; this runs only when they are not.
    """
    blocks = np.empty((kf, system.p, system.m))
    y = system.C.copy()
    for k in range(kf):
        blocks[k] = y @ system.B
        y = y @ system.A
    return blocks


def _schedule(system: ConsensusSystem, bundle: GramianBundle, v) -> np.ndarray:
    """Input schedule whose step i is (C A^(kf-1-i) B)^T v."""
    blocks = bundle.memo(("markov", system.targets), _markov_blocks, system, bundle.kf)
    return (v @ blocks)[::-1]


def optimal_target_input(
    system: ConsensusSystem, kf: int, ybar, bundle: GramianBundle | None = None
) -> InputSequence:
    """Least-energy input schedule driving the target outputs to ybar.

    Step i is (C A^(kf-1-i) B)^T v with v the target-Gramian solve of ybar;
    its energy equals target_control_energy(system, kf, ybar).
    """
    y = _goal_vector(system, ybar)
    bundle = bundle_for(system, kf, bundle)
    v = kernels.solve_spd(_controllable_block(system, kf, bundle), y)
    u = _schedule(system, bundle, v)
    return InputSequence(kf=kf, u=u, energy=float(np.sum(u * u)))


def target_security(
    system: ConsensusSystem, kf: int, bundle: GramianBundle | None = None
) -> tuple[float, np.ndarray]:
    """Least goal energy over unit goals, with the goal attaining it.

    Returns (E_min, y_min): E_min is the reciprocal of the largest target
    Gramian eigenvalue and y_min the corresponding unit eigenvector,
    sign-normalized.
    """
    pairs = _controllable_block(system, kf, bundle).eig
    return 1.0 / pairs.lambda_max, pairs.dominant.copy()


def _projection_form(system, kf, alpha, bundle) -> tuple[np.ndarray, float]:
    """alpha as a vector and its nondegenerate target-Gramian form alpha^T Q alpha."""
    a = _goal_vector(system, alpha)
    q = target_gramian(system, kf, bundle)
    form = float(a @ q.array @ a)
    if form <= DEGENERATE_RTOL * float(q.values[-1]):
        raise DegenerateProjection(
            f"projection carries no reachable energy (form={form:.3e})"
        )
    return a, form


def projection_energy(
    system: ConsensusSystem, kf: int, alpha, bundle: GramianBundle | None = None
) -> float:
    """Energy to move the scalar projection alpha . y by one unit."""
    return 1.0 / _projection_form(system, kf, alpha, bundle)[1]


def optimal_projection_input(
    system: ConsensusSystem, kf: int, alpha, bundle: GramianBundle | None = None
) -> InputSequence:
    """Least-energy input schedule moving the projection alpha . y to one."""
    bundle = bundle_for(system, kf, bundle)
    a, form = _projection_form(system, kf, alpha, bundle)
    u = _schedule(system, bundle, a) / form
    return InputSequence(kf=kf, u=u, energy=float(np.sum(u * u)))


def projection_security(
    system: ConsensusSystem, kf: int, bundle: GramianBundle | None = None
) -> tuple[float, int]:
    """Least projection energy over unit-1-norm projections.

    The minimum is attained at a coordinate direction: returns (F_min, j_min)
    where j_min is the first index of a largest target-Gramian diagonal entry
    and F_min its reciprocal (inf if the whole diagonal is zero).
    """
    q = target_gramian(system, kf, bundle).array
    diag = np.diag(q)
    j = int(np.argmax(diag))
    top = float(diag[j])
    return (1.0 / top if top > 0.0 else math.inf), j


def node_energy(
    system: ConsensusSystem, kf: int, node: int, bundle: GramianBundle | None = None
) -> float:
    """Energy to move a single node's state by one unit at time kf."""
    (c,) = node_set([node], system.n)
    val = float(bundle_for(system, kf, bundle).W.array[c, c])
    if val <= 0.0:
        raise NodeUnreachable(f"node {c} unreachable within horizon {kf}")
    return 1.0 / val


def node_energies(
    system: ConsensusSystem, kf: int, bundle: GramianBundle | None = None
) -> np.ndarray:
    """Vector of per-node energies; unreachable nodes get inf."""
    diag = np.diag(bundle_for(system, kf, bundle).W.array)
    out = np.full(system.n, math.inf)
    ok = diag > 0.0
    out[ok] = 1.0 / diag[ok]
    return out


def cutset_energy(
    system: ConsensusSystem, kf: int, cutset, bundle: GramianBundle | None = None
) -> float:
    """Least per-node energy over the cutset's reachable nodes."""
    ids = node_set(cutset, system.n)
    if not ids:
        raise ValueError("cutset must be nonempty")
    diag = bundle_for(system, kf, bundle).W.array[list(ids), list(ids)]
    top = float(diag.max())
    if top <= 0.0:
        raise NodeUnreachable(f"no cutset node reachable within horizon {kf}")
    return 1.0 / top


def full_target_security(
    system: ConsensusSystem, kf: int, bundle: GramianBundle | None = None
) -> float:
    """Least goal energy when every node is a target: 1 / lambda_max of W.

    Defined whether or not the full Gramian is invertible.
    """
    return 1.0 / float(bundle_for(system, kf, bundle).W.values[-1])


def metrics_report(
    system: ConsensusSystem, kf: int, bundle: GramianBundle | None = None
) -> MetricsReport:
    """Assemble the standard metrics summary at one horizon."""
    bundle = bundle_for(system, kf, bundle)
    q = target_gramian(system, kf, bundle)
    pairs = q.eig
    lam_max = pairs.lambda_max
    e_min = 1.0 / lam_max if lam_max > 0.0 else math.inf
    f_min, j_min = projection_security(system, kf, bundle)
    return MetricsReport(
        kf=bundle.kf,
        controllable=q.spd,
        lambda_min=pairs.lambda_min,
        lambda_max=lam_max,
        E_min=e_min,
        y_min=pairs.dominant.copy(),
        F_min=f_min,
        j_min=j_min,
        node_energies=node_energies(system, kf, bundle),
    )
