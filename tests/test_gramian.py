"""Gramian accumulation, impulse cross-checks, horizons, Perron asymptotics."""

import tracemalloc

import numpy as np
import pytest

import support
from netctl import (
    ConsensusSystem,
    NotErgodic,
    WeightedDigraph,
    asymptotic_decomposition,
    compute_gramian,
    gramian_submatrix,
    left_perron,
    min_positive_horizon,
    optimal_target_input,
    random_geometric,
    solve_spd,
)
from netctl import metrics

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


def _not_kept():
    raise AssertionError("the build did not keep the Markov blocks")


def _markov_oracle(system, kf):
    powers = (np.linalg.matrix_power(system.A, k) for k in range(kf))
    return np.array([system.C @ a_k @ system.B for a_k in powers])


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
            kept = bundle.memo(("markov", sysr.targets), _not_kept)
            assert kept.shape == (kf, sysr.p, sysr.m)
            oracle = _markov_oracle(sysr, kf)
            np.testing.assert_allclose(kept, oracle, rtol=1e-12, atol=1e-15)

    def test_declined_blocks_give_the_same_schedule(self, monkeypatch):
        """With every node a target the goal is propagated instead of the blocks."""
        g = random_geometric(8, 0.6, 5)
        sysr = ConsensusSystem(g, [0], range(8))
        kf = 65
        assert kf * sysr.p * sysr.m >= sysr.n**2
        calls = []

        def counted(*args):
            calls.append(args)
            return propagated(*args)

        propagated = metrics._propagated_schedule
        monkeypatch.setattr(metrics, "_propagated_schedule", counted)
        goal = np.linspace(1.0, 2.0, 8)
        seq = optimal_target_input(sysr, kf, goal)
        assert len(calls) == 1
        v = solve_spd(sysr.gramian(kf).W, goal)
        expected = np.array([blk.T @ v for blk in _markov_oracle(sysr, kf)[::-1]])
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
