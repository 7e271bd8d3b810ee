"""Security metric tests: energies, optimal inputs, witnesses, report shape."""

import itertools
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from netctl import (
    ConsensusSystem,
    DegenerateProjection,
    DimensionMismatch,
    NodeUnreachable,
    NotControllable,
    audit_corollary1,
    audit_cutset,
    audit_theorem1,
    audit_theorem2,
    compute_gramian,
    cutset_energy,
    full_target_security,
    metrics_report,
    node_energies,
    node_energy,
    optimal_projection_input,
    optimal_target_input,
    projection_energy,
    projection_security,
    random_geometric,
    simulate,
    target_control_energy,
    target_controllable,
    target_security,
)
from netctl import gramian


@pytest.fixture(scope="module")
def sys2():
    return support.two_node_system()


@pytest.fixture(scope="module")
def chain():
    return support.three_chain_system()


class TestControllable:
    def test_two_node_horizon_two(self, sys2):
        w = target_controllable(sys2, 2)
        assert w
        assert w.lambda_min == pytest.approx(0.190983, abs=1e-6)

    def test_two_node_horizon_one(self, sys2):
        assert not target_controllable(sys2, 1)

    def test_source_targets_horizon_one(self):
        sysr = support.two_node_system()
        sysr = type(sysr)(sysr.graph, [0], [0])
        assert target_controllable(sysr, 1)


class TestEnergy:
    def test_aligned_goal(self, sys2):
        assert target_control_energy(sys2, 2, [1, 1]) == pytest.approx(4, rel=1e-12)

    def test_opposed_goal(self, sys2):
        assert target_control_energy(sys2, 2, [1, -1]) == pytest.approx(8, rel=1e-12)

    def test_zero_goal(self, sys2):
        assert target_control_energy(sys2, 2, [0, 0]) == pytest.approx(0, abs=1e-15)

    def test_even_in_goal(self, sys2):
        y = np.array([0.3, 1.7])
        assert target_control_energy(sys2, 2, y) == pytest.approx(
            target_control_energy(sys2, 2, -y), rel=1e-12
        )

    def test_singular_raises(self, sys2):
        with pytest.raises(NotControllable):
            target_control_energy(sys2, 1, [1, 1])

    def test_dimension_check(self, sys2):
        with pytest.raises(DimensionMismatch):
            target_control_energy(sys2, 2, [1, 1, 1])

    def test_least_squares_oracle(self):
        """Energy matches the minimum-norm stacked solve on tiny instances."""
        checked = 0
        for trial in itertools.count():
            sysr = support.random_ergodic_system([61, trial], num_sources=1)
            kf = 2 + trial % 5
            if sysr.m * kf > 6 or not target_controllable(sysr, kf):
                continue
            rng = np.random.default_rng([62, trial])
            goal = rng.standard_normal(sysr.p)
            direct = target_control_energy(sysr, kf, goal)
            oracle = support.least_squares_energy(sysr, kf, goal)
            assert direct == pytest.approx(oracle, rel=1e-8)
            checked += 1
            if checked == 20:
                break


class TestOptimalInput:
    def test_worked_schedule(self, sys2):
        seq = optimal_target_input(sys2, 2, [1, 1])
        np.testing.assert_allclose(seq.u, [[2], [0]], atol=1e-12)
        assert seq.energy == pytest.approx(4, rel=1e-12)

    def test_zero_goal_zero_schedule(self, sys2):
        seq = optimal_target_input(sys2, 2, [0, 0])
        np.testing.assert_array_equal(seq.u, np.zeros((2, 1)))

    def test_energy_field_consistent(self):
        for trial in range(10):
            sysr = support.random_ergodic_system([63, trial])
            kf = 4 + trial
            if not target_controllable(sysr, kf):
                continue
            goal = np.sin(np.arange(sysr.p) + 1.0)
            seq = optimal_target_input(sysr, kf, goal)
            assert seq.energy == pytest.approx(float(np.sum(seq.u**2)), rel=1e-12)
            assert seq.energy == pytest.approx(
                target_control_energy(sysr, kf, goal), rel=1e-9
            )


class TestSecurity:
    def test_worked_values(self, sys2):
        e_min, y_min = target_security(sys2, 2)
        assert e_min == pytest.approx(0.763932, abs=1e-6)
        direction = np.array([1.0, 0.236068])
        np.testing.assert_allclose(
            y_min, direction / np.linalg.norm(direction), atol=1e-6
        )

    def test_single_target(self, chain):
        e_min, y_min = target_security(chain, 5)
        w55 = compute_gramian(chain, 5).W.array[2, 2]
        assert e_min == pytest.approx(1.0 / w55, rel=1e-12)
        np.testing.assert_array_equal(y_min, [1.0])

    def test_definitional_identity(self):
        for trial in range(8):
            sysr = support.random_ergodic_system([64, trial])
            kf = 6 + trial
            if not target_controllable(sysr, kf):
                continue
            e_min, _ = target_security(sysr, kf)
            lam = target_controllable(sysr, kf).lambda_max
            assert e_min * lam == pytest.approx(1.0, rel=1e-12)


class TestProjection:
    def test_uniform_projection(self, sys2):
        assert projection_energy(sys2, 2, [0.5, 0.5]) == pytest.approx(2, rel=1e-12)

    def test_coordinate_projection(self, sys2):
        assert projection_energy(sys2, 2, [1, 0]) == pytest.approx(0.8, rel=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(t=st.floats(min_value=0.1, max_value=10).filter(lambda v: abs(v) > 1e-3))
    def test_homogeneity(self, t):
        sys2 = support.two_node_system()
        base = projection_energy(sys2, 2, [0.4, 0.8])
        scaled = projection_energy(sys2, 2, [0.4 * t, 0.8 * t])
        assert scaled == pytest.approx(base / t**2, rel=1e-9)

    def test_degenerate_raises(self, chain):
        # target node 2 carries no energy at horizon 1
        with pytest.raises(DegenerateProjection):
            projection_energy(chain, 1, [1.0])

    def test_security_attained_at_vertex(self, sys2):
        f_min, j_min = projection_security(sys2, 2)
        assert f_min == pytest.approx(0.8, rel=1e-12)
        assert j_min == 0

    def test_security_is_one_norm_minimum(self):
        """Grid search over the unit 1-norm sphere never beats F_min."""
        for trial in range(6):
            sysr = support.random_ergodic_system([65, trial], num_targets=3)
            kf = 6
            f_min, _ = projection_security(sysr, kf)
            if not math.isfinite(f_min):
                continue
            grid = np.linspace(-1, 1, 9)
            for a0 in grid:
                for a1 in grid:
                    rest = 1.0 - abs(a0) - abs(a1)
                    if rest < 0:
                        continue
                    for s in (-1.0, 1.0):
                        alpha = np.array([a0, a1, s * rest])
                        try:
                            f = projection_energy(sysr, kf, alpha)
                        except DegenerateProjection:
                            continue
                        assert f >= f_min * (1 - 1e-9)

    def test_tie_break_smallest_index(self, sys2):
        # symmetric diagonal at kf=1 for a two-source variant
        symmetric = type(sys2)(sys2.graph, [0, 1], [0, 1])
        f_min, j_min = projection_security(symmetric, 1)
        assert f_min == pytest.approx(1.0)
        assert j_min == 0

    def test_optimal_projection_energy_matches(self, sys2):
        alpha = np.array([0.25, 0.75])
        seq = optimal_projection_input(sys2, 2, alpha)
        assert seq.energy == pytest.approx(
            projection_energy(sys2, 2, alpha), rel=1e-9
        )


class TestNodeEnergies:
    def test_worked_values(self, sys2):
        assert node_energy(sys2, 2, 0) == pytest.approx(0.8, rel=1e-12)
        assert node_energy(sys2, 2, 1) == pytest.approx(4, rel=1e-12)

    def test_source_unit_energy(self, chain):
        assert node_energy(chain, 1, 0) == pytest.approx(1, rel=1e-12)

    def test_unreachable(self, chain):
        with pytest.raises(NodeUnreachable):
            node_energy(chain, 1, 2)

    def test_vector_with_inf(self, chain):
        e = node_energies(chain, 1)
        assert e[0] == pytest.approx(1.0)
        assert math.isinf(e[2])

    def test_cutset_worked(self, sys2):
        assert cutset_energy(sys2, 2, [0, 1]) == pytest.approx(0.8, rel=1e-12)

    def test_cutset_singleton(self, chain):
        assert cutset_energy(chain, 4, [1]) == pytest.approx(
            node_energy(chain, 4, 1), rel=1e-12
        )

    def test_cutset_source_horizon_one(self, chain):
        assert cutset_energy(chain, 1, [0]) == pytest.approx(1, rel=1e-12)

    def test_cutset_all_unreachable(self, chain):
        with pytest.raises(NodeUnreachable):
            cutset_energy(chain, 1, [2])

    @pytest.mark.parametrize("kf", [20, 22])
    def test_far_end_of_path_is_reachable(self, kf):
        """A diagonal of W is zero only without a path; a tiny one is an energy.

        On a 20-node averaging path the far end's W_ll is 1.7e-18 at kf = 20.
        """
        n = 20
        system = ConsensusSystem(support.averaging_path(n), [0], [n - 1])
        w_ll = support.naive_gramian(system.A, system.B, kf)[n - 1, n - 1]
        assert 0.0 < w_ll < 1e-14
        assert node_energies(system, kf)[n - 1] == pytest.approx(1.0 / w_ll, rel=1e-12)
        assert node_energy(system, kf, n - 1) == pytest.approx(1.0 / w_ll, rel=1e-12)


class TestFullSecurity:
    def test_two_node(self, sys2):
        assert full_target_security(sys2, 2) == pytest.approx(0.763932, abs=1e-6)

    def test_horizon_one(self, sys2):
        assert full_target_security(sys2, 1) == pytest.approx(1, rel=1e-12)

    def test_dominates_any_target_choice(self):
        for trial in range(8):
            sysr = support.random_ergodic_system([66, trial])
            kf = 5
            e_full = full_target_security(sysr, kf)
            lam_t = target_controllable(sysr, kf).lambda_max
            if lam_t <= 0:
                continue
            assert e_full <= (1.0 / lam_t) * (1 + 1e-12)


class TestReport:
    def test_json_field_names(self, sys2):
        d = metrics_report(sys2, 2).to_json_dict()
        assert list(d) == [
            "kf",
            "controllable",
            "lambda_min",
            "lambda_max",
            "E_min",
            "y_min",
            "F_min",
            "j_min",
            "node_energies",
        ]

    def test_report_invariants(self):
        for trial in range(8):
            sysr = support.random_ergodic_system([67, trial])
            rep = metrics_report(sysr, 7)
            if not rep.controllable:
                continue
            assert rep.E_min * rep.lambda_max == pytest.approx(1.0, rel=1e-12)
            assert rep.E_min <= rep.F_min * (1 + 1e-12)

    def test_unreachable_serializes_null(self, chain):
        d = metrics_report(chain, 1).to_json_dict()
        assert d["node_energies"][2] is None
        assert d["controllable"] is False


class TestBundleHorizon:
    """A system's kept bundle answers only for its own horizon."""

    def test_shared_bundle_at_its_horizon(self):
        sys2 = support.two_node_system()
        bundle = sys2.gramian(5)
        assert target_control_energy(sys2, 5, [1.0, 2.0]) == pytest.approx(5.0)
        seq = optimal_target_input(sys2, 5, [1.0, 2.0])
        assert sys2.gramian(5) is bundle
        final = simulate(sys2, np.zeros(2), seq).outputs[-1]
        np.testing.assert_allclose(final, [1.0, 2.0], atol=1e-12)

    CALLS = {
        "target_control_energy": lambda s: target_control_energy(s, 5, [1.0, 2.0]),
        "optimal_target_input": lambda s: optimal_target_input(s, 5, [1.0, 2.0]),
        "target_controllable": lambda s: target_controllable(s, 5),
        "target_security": lambda s: target_security(s, 5),
        "projection_energy": lambda s: projection_energy(s, 5, [1.0, 0.0]),
        "optimal_projection_input": lambda s: optimal_projection_input(s, 5, [1.0, 0.0]),
        "projection_security": lambda s: projection_security(s, 5),
        "node_energy": lambda s: node_energy(s, 5, 1),
        "node_energies": lambda s: node_energies(s, 5),
        "cutset_energy": lambda s: cutset_energy(s, 5, [0]),
        "full_target_security": lambda s: full_target_security(s, 5),
        "metrics_report": lambda s: metrics_report(s, 5),
        "audit_theorem1": lambda s: audit_theorem1(s, [0, 1], 5),
        "audit_corollary1": lambda s: audit_corollary1(s, [0, 1], 5),
        "audit_theorem2": lambda s: audit_theorem2(s, 5, samples=3),
        "audit_cutset": lambda s: audit_cutset(s, 5, [0], samples=3),
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_other_horizon_rejected(self, name, monkeypatch):
        """The bundle kept at kf = 2 is replaced by one build at kf = 5.

        The result equals a fresh system's bit for bit, and a second call at
        kf = 5 builds nothing.
        """
        sys2 = support.two_node_system()
        sys2.gramian(2)
        builds = []
        build = gramian.compute_gramian

        def counting_build(system, kf, **parts):
            builds.append(kf)
            return build(system, kf, **parts)

        monkeypatch.setattr(gramian, "compute_gramian", counting_build)
        result = pickle.dumps(self.CALLS[name](sys2))
        assert builds == [5]
        assert pickle.dumps(self.CALLS[name](sys2)) == result
        assert builds == [5]
        assert pickle.dumps(self.CALLS[name](support.two_node_system())) == result


class TestFactorEnergies:
    """Energies and optimal inputs read the QR factor U of the target Markov rows."""

    @pytest.mark.parametrize("route", ["kept", "folded"])
    def test_exact_energies_on_averaging_paths(self, route, monkeypatch):
        """Far targets on a path near k*: cond(Q) 3e4 to 5e7, energies within 1e-14.

        A solve with Q's own Cholesky factor was off by up to 1.4e-11 here.
        """
        if route == "folded":
            monkeypatch.setattr(gramian, "_kept", lambda entries, n: False)
        for n, p in itertools.product((10, 11, 12), (3, 4, 5)):
            graph = support.averaging_path(n)
            targets = range(n - p, n)
            kstar = gramian.min_positive_horizon(ConsensusSystem(graph, [0], targets), targets)
            goal = np.linspace(1.0, 2.0, p) * np.resize([1.0, -1.0], p)
            for kf in (kstar, kstar + 2, kstar + 5):
                system = ConsensusSystem(graph, [0], targets)
                exact = support.exact_energy(system, kf, goal)
                energy = target_control_energy(system, kf, goal)
                schedule = optimal_target_input(system, kf, goal).energy
                blocks = system.gramian(kf, with_w=False).markov
                assert (route == "kept") == (blocks is not None)
                for value in (energy, schedule):
                    err = float(abs(Fraction(value) - exact) / exact)
                    assert err <= 1e-14, (n, p, kf, err)

    def test_energy_matches_50_digits_at_n_1000(self):
        """The benchmark's n = kf = 1000 network (cond(Q) = 2.9e7): within 1e-13."""
        mpmath = pytest.importorskip("mpmath")
        graph = random_geometric(1000, 0.08, 7)
        system = ConsensusSystem(graph, [0], [18, 49, 93, 117])  # its four farthest nodes
        kf = 1000
        goal = np.array([0.3, -1.2, 0.8, 2.0])
        energy = target_control_energy(system, kf, goal)
        rows = system.gramian(kf, with_w=False).markov[:, :, 0].T
        with mpmath.workdps(50):
            m = mpmath.matrix([[mpmath.mpf(float(v)) for v in row] for row in rows])
            y = mpmath.matrix([mpmath.mpf(float(v)) for v in goal])
            exact = (y.T * mpmath.lu_solve(m * m.T, y))[0]
            assert abs(mpmath.mpf(energy) - exact) <= 1e-13 * exact

    @pytest.mark.parametrize("key", range(7))
    def test_kept_and_folded_factors_agree(self, key, monkeypatch):
        """U from one QR of the kept blocks equals U folded from a fresh propagation.

        Keys 3 and 4 fold more rows than one stack holds, over several
        panels; keys 5 and 6 make every node a source, so one step's rows
        are split between two folds.
        """
        if key < 5:
            base = support.random_ergodic_system(
                [88, key], 6, 40, num_sources=1 + key % 3, num_targets=2 + key % 3
            )
            sources, targets = base.sources, base.targets
            kf = gramian.min_positive_horizon(base, targets) + 10 * key + 3
        else:
            base = support.random_ergodic_system([88, key + 1], 40, 40)
            sources, targets, kf = range(40), range(40), 3 + key
        factors = []
        for kept in (True, False):
            monkeypatch.setattr(gramian, "_kept", lambda entries, n, kept=kept: kept)
            system = ConsensusSystem(base.graph, sources, targets)
            u = gramian.block_factor(system, targets, kf)
            blocks = system.gramian(kf, with_w=False).markov
            assert (blocks is not None) == kept
            assert gramian.block_factor(system, targets, kf) is u
            factors.append(u)
        q = system.gramian(kf, with_w=False).target
        for u in factors:
            assert u.shape == (system.p, system.p) and not u.flags.writeable
            assert np.array_equal(u, np.triu(u)) and (u.diagonal() >= 0.0).all()
            assert np.max(np.abs(u.T @ u - q.array)) <= 1e-13 * np.max(np.abs(q.array))
        assert q.spd  # so a factor with a positive diagonal is unique
        kept_u, folded_u = factors
        assert np.max(np.abs(kept_u - folded_u)) <= 1e-12 * np.max(np.abs(kept_u))
