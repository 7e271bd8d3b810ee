"""Relations the model guarantees, as properties of random ergodic systems.

The Gramian is a sum over sources, so the target block of a source set is
the sum of the blocks of any split of it into disjoint parts. Growing the
horizon by one step can only lower an energy: the optimal kf-step input,
delayed by one step, still reaches its goal at kf + 1, so the optimum
there costs no more; and Q(kf + 1) - Q(kf) is positive semidefinite, so
E_min and F_min do not rise either. Node ids are labels: renaming the
nodes renames the rows and columns of every Gramian block and changes no
energy, horizon or audit verdict. A goal energy y^T Q^-1 y is a quadratic
form, so scaling the goal by t scales its energy by t^2.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from netctl import (
    ConsensusSystem,
    NotControllable,
    WeightedDigraph,
    audit_corollary1,
    audit_theorem1,
    audit_theorem2,
    compute_gramian,
    metrics_report,
    min_positive_horizon,
    min_separating_cutset,
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


def _verdicts(make):
    """(id, holds, horizon_adequate) of each check, or the error's name."""
    try:
        return [(c.id, c.holds, c.horizon_adequate) for c in make().checks]
    except NotControllable as exc:
        return type(exc).__name__


def _energies(system, kf, goals):
    try:
        return np.array([target_control_energy(system, kf, y) for y in goals])
    except NotControllable:
        return None


@settings(max_examples=20, deadline=None)
@given(seed=SEEDS, extra=st.integers(0, 29))
def test_relabeling(seed, extra):
    """Renaming node i to perm[i] renames diag W and the target block, and keeps
    k*, goal energies, the size of the least separating cutset (its
    tie-break may pick other ids) and every T1, C1 and T2 verdict.

    The renamed build sums in another order, so its Markov rows differ by
    rounding; an energy moves by up to about sqrt(cond(Q)) u from that, so
    energies agree to 1e-12 relative where Q is well conditioned.
    """
    base = support.random_ergodic_system([83, seed], 4, 9)
    n = base.n
    perm = np.random.default_rng([83, seed]).permutation(n)
    graph = WeightedDigraph(n, [(perm[u], perm[v], w) for u, v, w in base.graph.edges])
    moved = ConsensusSystem(graph, perm[list(base.sources)], perm[list(base.targets)])
    # moved.targets ascend, so target j of base is target order[j] of moved
    order = np.argsort(np.argsort(perm[list(base.targets)]))
    kstar = min_positive_horizon(base, base.targets)
    assert min_positive_horizon(moved, moved.targets) == kstar
    cut = min_separating_cutset(base.graph, base.sources, base.targets)
    assert len(min_separating_cutset(graph, moved.sources, moved.targets)) == len(cut)
    kf = kstar + extra
    ours, theirs = compute_gramian(base, kf), compute_gramian(moved, kf)
    scale = float(np.max(ours.diag))
    assert np.max(np.abs(theirs.diag[perm] - ours.diag)) <= 1e-13 * scale
    block = theirs.target.array[np.ix_(order, order)]
    assert np.max(np.abs(block - ours.target.array)) <= 1e-13 * scale
    goals = np.random.default_rng([84, seed]).standard_normal((3, base.p))
    energies = _energies(base, kf, goals)
    renamed = _energies(moved, kf, goals[:, np.argsort(order)])
    assert (energies is None) == (renamed is None)
    if energies is not None:
        witness = target_controllable(base, kf)
        tol = 1e-12 + 100 * UNIT * np.sqrt(witness.lambda_max / witness.lambda_min)
        assert np.max(np.abs(renamed - energies) / energies) <= tol
    for audit in (audit_theorem1, audit_corollary1):
        assert _verdicts(lambda: audit(base, base.targets, kf)) == _verdicts(
            lambda: audit(moved, moved.targets, kf)
        )
    assert _verdicts(lambda: audit_theorem2(base, kf)) == _verdicts(
        lambda: audit_theorem2(moved, kf)
    )


@settings(max_examples=30, deadline=None)
@given(seed=SEEDS, extra=st.integers(0, 29), t=st.floats(1e-3, 1e3))
def test_goal_scaling(seed, extra, t):
    """E(t y) = t^2 E(y), to the rounding of a triangular solve."""
    system = support.random_ergodic_system([85, seed], 3, 9)
    kf = min_positive_horizon(system, system.targets) + extra
    goal = np.random.default_rng([85, seed]).standard_normal(system.p)
    energies = _energies(system, kf, [goal, t * goal])
    if energies is not None:
        assert abs(energies[1] - t * t * energies[0]) <= 1e-12 * t * t * energies[0]
