"""Simulation tests: worked trajectories, invariances, closed-loop optimality."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import support
from netctl import (
    ConsensusSystem,
    DimensionMismatch,
    optimal_target_input,
    random_geometric,
    simulate,
    target_control_energy,
    target_controllable,
    verify_optimal_input,
)


@pytest.fixture(scope="module")
def sys2():
    return support.two_node_system()


class TestSimulate:
    def test_worked_two_steps(self, sys2):
        traj = simulate(sys2, [0, 0], np.array([[2.0], [0.0]]))
        np.testing.assert_allclose(traj.states[1], [2, 0], atol=1e-15)
        np.testing.assert_allclose(traj.states[2], [1, 1], atol=1e-15)
        assert traj.kf == 2

    def test_consensus_fixed_point(self, sys2):
        traj = simulate(sys2, [1, 1], np.zeros((6, 1)))
        np.testing.assert_array_equal(traj.states, np.ones((7, 2)))

    def test_zero_everything(self, sys2):
        traj = simulate(sys2, [0, 0], np.zeros((4, 1)))
        np.testing.assert_array_equal(traj.states, np.zeros((5, 2)))

    def test_outputs_track_targets(self):
        sysr = support.random_ergodic_system([71, 0])
        rng = np.random.default_rng(1)
        traj = simulate(sysr, rng.standard_normal(sysr.n), rng.standard_normal((5, sysr.m)))
        np.testing.assert_array_equal(traj.outputs, traj.states[:, list(sysr.targets)])

    def test_accepts_input_sequence(self, sys2):
        seq = optimal_target_input(sys2, 2, [1, 1])
        traj = simulate(sys2, np.zeros(2), seq)
        np.testing.assert_allclose(traj.outputs[-1], [1, 1], atol=1e-12)

    def test_dimension_mismatch(self, sys2):
        with pytest.raises(DimensionMismatch):
            simulate(sys2, [0, 0, 0], np.zeros((2, 1)))
        with pytest.raises(DimensionMismatch):
            simulate(sys2, [0, 0], np.zeros((2, 3)))

    def test_zero_input_contraction(self):
        """With no input the state range can only shrink (convex mixing)."""
        sysr = support.random_ergodic_system([72, 3])
        rng = np.random.default_rng(4)
        traj = simulate(sysr, rng.standard_normal(sysr.n), np.zeros((10, sysr.m)))
        highs = traj.states.max(axis=1)
        lows = traj.states.min(axis=1)
        assert np.all(np.diff(highs) <= 1e-12)
        assert np.all(np.diff(lows) >= -1e-12)

    @settings(max_examples=25, deadline=None)
    @given(
        x0=arrays(np.float64, (4,), elements=st.floats(-5, 5)),
        u=arrays(np.float64, (3, 2), elements=st.floats(-5, 5)),
    )
    def test_superposition(self, x0, u):
        sysr = support.random_ergodic_system([73, 0], n_low=4, n_high=4, num_sources=2)
        both = simulate(sysr, x0, u).states
        free = simulate(sysr, x0, np.zeros_like(u)).states
        forced = simulate(sysr, np.zeros(4), u).states
        scale = max(1.0, np.max(np.abs(both)))
        assert np.max(np.abs(both - free - forced)) <= 1e-12 * scale


class TestVerifyOptimalInput:
    def test_worked_instance(self, sys2):
        res = verify_optimal_input(sys2, 2, [1, 1])
        np.testing.assert_allclose(res.achieved, [1, 1], atol=1e-12)
        assert res.goal_error <= 1e-12
        assert res.energy == pytest.approx(4, rel=1e-12)

    def test_zero_goal(self, sys2):
        res = verify_optimal_input(sys2, 2, [0, 0])
        np.testing.assert_array_equal(res.achieved, [0, 0])
        assert res.energy == 0

    def test_random_instances(self):
        done = 0
        trial = 0
        while done < 15:
            sysr = support.random_ergodic_system([74, trial])
            trial += 1
            kf = 5 + trial % 7
            if not target_controllable(sysr, kf):
                continue
            goal = np.cos(np.arange(sysr.p) * 2.0 + 1.0)
            res = verify_optimal_input(sysr, kf, goal)
            assert res.goal_error <= 1e-8
            assert res.energy_error <= 1e-9
            done += 1

    def test_no_cheaper_input_exists(self):
        """Random goal-preserving perturbations never reduce the energy."""
        sysr = support.two_node_system()
        kf = 4
        goal = np.array([0.7, -0.2])
        seq = optimal_target_input(sysr, kf, goal)
        direct = target_control_energy(sysr, kf, goal)
        g = support.stacked_input_map(sysr, kf)
        projector = np.eye(g.shape[1]) - np.linalg.pinv(g) @ g
        rng = np.random.default_rng(9)
        flat = seq.u.reshape(-1)
        for _ in range(1000):
            alt = flat + projector @ rng.standard_normal(g.shape[1])
            np.testing.assert_allclose(g @ alt, goal, atol=1e-9)
            assert float(alt @ alt) >= direct * (1 - 1e-9)

    def test_achieved_is_the_simulated_output(self):
        """The final state's target entries are the bits of simulate's last output row."""
        sysr = ConsensusSystem(random_geometric(100, 0.15, 7), [0, 5], [40, 60, 99])
        goal = [1.0, -2.0, 0.5]
        traj = simulate(sysr, np.zeros(sysr.n), optimal_target_input(sysr, 150, goal))
        assert np.array_equal(verify_optimal_input(sysr, 150, goal).achieved, traj.outputs[-1])

    def test_memory_does_not_grow_with_states(self):
        """From kf = 50 to 800 the peak grows by the schedule, not by 750 states.

        optimal_target_input makes the (kf, m) schedule and its square, so the
        peak may grow by two schedules; beyond that by less than one state.
        """
        g = random_geometric(200, 0.15, 7)
        peaks = {}
        for kf in (50, 800):
            sysr = ConsensusSystem(g, [0], [5, 9])
            sysr.gramian(kf)
            peaks[kf] = support.traced_peak(verify_optimal_input, sysr, kf, [1.0, -1.0])
        schedules = 2 * (800 - 50) * sysr.m
        assert peaks[800] - peaks[50] < (schedules + sysr.n) * 8
