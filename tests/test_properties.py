"""Relations the model guarantees, as properties of random ergodic systems.

The Gramian is a sum over sources, so the target block of a source set is
the sum of the blocks of any split of it into disjoint parts. Growing the
horizon by one step can only lower an energy: the optimal kf-step input,
delayed by one step, still reaches its goal at kf + 1, so the optimum
there costs no more; and Q(kf + 1) - Q(kf) is positive semidefinite, so
E_min and F_min do not rise either.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from netctl import (
    ConsensusSystem,
    metrics_report,
    min_positive_horizon,
    optimal_target_input,
    simulate,
    target_control_energy,
    target_controllable,
    target_gramian,
)

SEEDS = st.integers(0, 2**32 - 1)
# float64 unit roundoff
UNIT = 2.0**-53


@settings(max_examples=30, deadline=None)
@given(seed=SEEDS, kf=st.integers(1, 40), split=st.integers(1, 3))
def test_source_additivity(seed, kf, split):
    """Q(S + T) = Q(S) + Q(T) on the targets for disjoint source sets S and T."""
    base = support.random_ergodic_system([81, seed], 4, 8, num_sources=4)
    sources = list(base.sources)
    parts = [sorted(sources[:split]), sorted(sources[split:]), sorted(sources)]
    blocks = [
        target_gramian(ConsensusSystem(base.graph, s, base.targets), kf).array for s in parts
    ]
    scale = np.max(np.abs(blocks[2]))
    assert np.max(np.abs(blocks[0] + blocks[1] - blocks[2])) <= 1e-13 * scale


@settings(max_examples=30, deadline=None)
@given(seed=SEEDS, extra=st.integers(0, 30))
def test_horizon_monotonicity(seed, extra):
    """Goal energies, E_min and F_min do not rise from kf to kf + 1."""
    system = support.random_ergodic_system([82, seed], 3, 7)
    kf = min_positive_horizon(system, system.targets) + extra
    now, later = metrics_report(system, kf), metrics_report(system, kf + 1)
    assert later.E_min <= now.E_min * (1.0 + 1e-12)
    assert later.F_min <= now.F_min * (1.0 + 1e-12)
    witness = target_controllable(system, kf)
    if not (witness and target_controllable(system, kf + 1)):
        return
    goal = np.random.default_rng([82, seed]).standard_normal(system.p)
    seq = optimal_target_input(system, kf, goal)
    delayed = np.vstack([np.zeros((1, system.m)), seq.u])
    reached = simulate(system, np.zeros(system.n), delayed).outputs[-1]
    # the goal is met to about cond(Q) u (two triangular solves with Q's factor)
    cond = witness.lambda_max / witness.lambda_min
    assert np.linalg.norm(reached - goal) <= 100 * UNIT * cond * np.linalg.norm(goal)
    energy = target_control_energy(system, kf + 1, goal)
    assert energy <= seq.energy * (1.0 + 1e-9)
