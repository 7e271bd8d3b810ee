"""Forward simulation and end-to-end validation of optimal inputs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .gramian import ConsensusSystem
from .metrics import InputSequence, optimal_target_input, target_control_energy


@dataclass(frozen=True)
class Trajectory:
    """States x[0..kf] (rows) and target outputs y[0..kf] (rows)."""

    states: np.ndarray
    outputs: np.ndarray

    @property
    def kf(self) -> int:
        return self.states.shape[0] - 1


def _as_input_array(system: ConsensusSystem, inputs) -> np.ndarray:
    if isinstance(inputs, InputSequence):
        u = inputs.u
    else:
        u = np.asarray(inputs, dtype=float)
        if u.ndim == 1:
            u = u.reshape(-1, 1)
    if u.ndim != 2 or u.shape[1] != system.m:
        raise DimensionMismatch(
            f"inputs must be (kf, {system.m}), got shape {np.shape(u)}"
        )
    return u


def _run(system: ConsensusSystem, x: np.ndarray, u: np.ndarray, states=None) -> np.ndarray:
    """Step x[k+1] = A x[k] + B u[k] over the rows of u; return x[kf].

    When states, a (kf+1, n) array, is given it receives x[0..kf] as rows.
    """
    if states is not None:
        states[0] = x
    for k in range(u.shape[0]):
        x = system.A @ x + system.B @ u[k]
        if states is not None:
            states[k + 1] = x
    return x


def simulate(system: ConsensusSystem, x0, inputs) -> Trajectory:
    """Run x[k+1] = A x[k] + B u[k] from x0 under the given input schedule.

    inputs may be an InputSequence or a (kf, m) array. Returns the full state
    and output histories, including the initial condition.
    """
    x = np.asarray(x0, dtype=float).reshape(-1)
    if x.shape[0] != system.n:
        raise DimensionMismatch(
            f"initial state of length {x.shape[0]} for n={system.n}"
        )
    u = _as_input_array(system, inputs)
    states = np.empty((u.shape[0] + 1, system.n))
    _run(system, x, u, states)
    outputs = states @ system.C.T
    states.setflags(write=False)
    outputs.setflags(write=False)
    return Trajectory(states=states, outputs=outputs)


@dataclass(frozen=True)
class VerificationResult:
    """Closed-loop check that the optimal input really attains its goal."""

    achieved: np.ndarray
    goal_error: float
    energy: float
    energy_error: float


def verify_optimal_input(system: ConsensusSystem, kf: int, ybar) -> VerificationResult:
    """Simulate the optimal input from rest and compare against its contract.

    goal_error is the relative gap between the simulated target outputs at kf
    and ybar; energy_error compares the schedule's energy with the
    target-control energy |U^-T ybar|^2 computed directly from the same
    target factor U (metrics: both within about sqrt(cond(Q)) u of the exact
    energy). Only the current state is kept while stepping; C selects the
    targets, so their entries of the final state are the outputs at kf.
    """
    y = np.asarray(ybar, dtype=float).reshape(-1)
    seq = optimal_target_input(system, kf, y)
    achieved = _run(system, np.zeros(system.n), seq.u)[list(system.targets)]
    achieved.setflags(write=False)
    goal_error = float(np.linalg.norm(achieved - y)) / max(
        1.0, float(np.linalg.norm(y))
    )
    direct = target_control_energy(system, kf, y)
    energy = float(np.sum(seq.u * seq.u))
    energy_error = abs(energy - direct) / max(1.0, direct)
    return VerificationResult(
        achieved=achieved,
        goal_error=goal_error,
        energy=energy,
        energy_error=energy_error,
    )
