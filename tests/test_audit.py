"""Theorem-audit tests: worked systems, not-applicable encoding, witnesses."""

import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import support
from netctl import (
    ConsensusSystem,
    NotACutset,
    NotControllable,
    WeightedDigraph,
    asymptotic_decomposition,
    audit_asymptotics,
    audit_corollary1,
    audit_cutset,
    audit_theorem1,
    audit_theorem2,
    compute_gramian,
    merge_reports,
    min_positive_horizon,
    min_separating_cutset,
    random_geometric,
    spanning_bottleneck,
)
from netctl import DegenerateProjection, gramian, kernels, metrics, projection_energy
from netctl import target_control_energy
from netctl.audit import NEG_SCALE, REL_SLACK


@pytest.fixture(scope="module")
def sys2():
    return support.two_node_system()


@pytest.fixture(scope="module")
def chain():
    return support.three_chain_system()


def by_id(report):
    return {c.id: c for c in report.checks}


class TestTheorem1:
    def test_worked_all_hold(self, sys2):
        rep = audit_theorem1(sys2, [0, 1], 2)
        checks = by_id(rep)
        assert set(checks) == {"T1.1", "T1.2", "T1.3", "T1.4", "T1.5", "T1.6"}
        assert all(c.holds for c in rep.checks)
        assert all(c.horizon_adequate for c in rep.checks)
        assert not rep.violations()

    def test_singular_block_not_applicable(self, sys2):
        """A singular block reports the inverse-based items as n/a, not failed."""
        rep = audit_theorem1(sys2, [0, 1], 1)
        checks = by_id(rep)
        assert checks["T1.1"].holds and not checks["T1.1"].horizon_adequate
        for cid in ("T1.4", "T1.5", "T1.6"):
            assert checks[cid].holds
            assert not checks[cid].horizon_adequate
            assert checks[cid].witness["invertible"] == 0.0
        assert not rep.violations()

    def test_dominant_gap_null_below_horizon(self, sys2):
        """Below k* T1.2 reports no gap (NaN, null in JSON), not a sentinel."""
        rep = audit_theorem1(sys2, [0, 1], 1)
        t12 = by_id(rep)["T1.2"]
        assert not t12.horizon_adequate
        assert math.isnan(t12.witness["dominant_gap"])
        (entry,) = [c for c in rep.to_json_dict()["checks"] if c["id"] == "T1.2"]
        assert entry["witness"]["dominant_gap"] is None

    def test_single_node_vacuous_bipartition(self, chain):
        rep = audit_theorem1(chain, [1], 6)
        checks = by_id(rep)
        assert checks["T1.5"].holds
        assert not checks["T1.5"].horizon_adequate
        assert checks["T1.5"].witness["block_order"] == 1.0
        # T1.6 needs exactly two nodes
        assert checks["T1.6"].holds and not checks["T1.6"].horizon_adequate

    def test_proper_block_strict_bound(self, chain):
        rep = audit_theorem1(chain, [1, 2], 8)
        c = by_id(rep)["T1.3"]
        assert c.holds
        assert c.witness["lambda_max_block"] < c.witness["lambda_max_full"]

    @pytest.mark.parametrize("size", [13, 20])
    def test_large_block_audited(self, size):
        # all nodes as sources keeps the block invertible
        sysr = support.random_ergodic_system(
            [81, 0], n_low=size, n_high=size, num_sources=size
        )
        ids = list(range(size))
        kf = min_positive_horizon(sysr, ids) + 20
        t15 = by_id(audit_theorem1(sysr, ids, kf))["T1.5"]
        c1 = audit_corollary1(sysr, ids, kf).checks[0]
        assert t15.horizon_adequate and t15.holds
        assert t15.witness["block_order"] == float(size)
        assert c1.holds == t15.holds

    def test_random_population(self):
        for trial in range(10):
            sysr = support.random_ergodic_system([82, trial])
            ids = sorted(set(sysr.targets) | {0})
            kf = min_positive_horizon(sysr, ids) + 20
            rep = audit_theorem1(sysr, ids, kf)
            assert not rep.violations(), by_id(rep)


class TestNegativeInverseGraph:
    def test_worked_edge(self, sys2):
        assert spanning_bottleneck(np.array([[1.0, -1.0], [-1.0, 5.0]])) == -1.0
        c = audit_corollary1(sys2, [0, 1], 2).checks[0]
        assert c.witness == {"edges": 1.0, "order": 2.0}

    def test_order_one_connected(self, chain):
        rep = audit_corollary1(chain, [2], 8)
        c = rep.checks[0]
        assert c.id == "C1" and c.holds

    def test_positive_offdiagonals_ignored(self):
        r = np.array([[2.0, 0.5], [0.5, 2.0]])
        assert not spanning_bottleneck(r) < -NEG_SCALE * 2.0

    def test_corollary_worked(self, sys2):
        rep = audit_corollary1(sys2, [0, 1], 2)
        assert rep.checks[0].holds and rep.checks[0].horizon_adequate

    def test_corollary_na_below_horizon(self, sys2):
        rep = audit_corollary1(sys2, [0, 1], 1)
        c = rep.checks[0]
        assert c.holds and not c.horizon_adequate


class TestTheorem2:
    def test_worked_two_node(self, sys2):
        rep = audit_theorem2(sys2, 2, samples=40, seed=0)
        checks = by_id(rep)
        assert checks["T2.1"].holds and checks["T2.1"].horizon_adequate
        assert checks["T2.2"].holds and checks["T2.2"].horizon_adequate
        assert checks["T2.3"].holds and checks["T2.3"].horizon_adequate
        # T = all nodes: the strict upper chain degenerates, reported n/a
        assert checks["T2.4"].holds and not checks["T2.4"].horizon_adequate

    def test_chain_strict_chain_holds(self, chain):
        rep = audit_theorem2(chain, 6, samples=40, seed=0)
        checks = by_id(rep)
        assert checks["T2.4"].holds and checks["T2.4"].horizon_adequate
        # single target: item 2 needs exactly two targets
        assert checks["T2.2"].holds and not checks["T2.2"].horizon_adequate

    def test_singular_target_block_raises(self, sys2):
        with pytest.raises(NotControllable):
            audit_theorem2(sys2, 1, samples=10, seed=0)

    def test_below_horizon_not_applicable(self, sys2):
        """Controllable before k*: every check defers instead of judging."""
        early = ConsensusSystem(sys2.graph, [0, 1], [1])
        rep = audit_theorem2(early, 1, samples=10, seed=0)
        assert all(c.holds and not c.horizon_adequate for c in rep.checks)

    def test_seed_reproducible(self, sys2):
        a = audit_theorem2(sys2, 4, samples=25, seed=5)
        b = audit_theorem2(sys2, 4, samples=25, seed=5)
        assert a == b


# relative rounding allowed between an exact extremum and a sampled value
ROUNDING = 1e-12


def sampled_system(key):
    """Seeded system: two targets for even keys (T2.2 applies), any count else."""
    p = 2 if key % 2 == 0 else None
    sysr = support.random_ergodic_system([83, key], 3, 9, num_targets=p)
    return sysr, min_positive_horizon(sysr, sysr.targets) + key % 4


def assert_theorem2_bounds_samples(system, kf, samples, seed):
    """A sampled violation fails the exact check; 2 max(R_12, 0) bounds each sampled excess."""
    checks = by_id(audit_theorem2(system, kf))
    for cid, (holds, _) in support.per_sample_theorem2(system, kf, samples, seed).items():
        assert holds or not checks[cid].holds, cid
    if system.p == 2:
        r12 = float(scipy.linalg.inv(metrics.target_gramian(system, kf).array)[0, 1])
        for i in range(samples):
            y = support.sample_sphere(seed, 22, i, 2)
            signed = target_control_energy(system, kf, y)
            absolute = target_control_energy(system, kf, np.abs(y))
            assert absolute - signed <= 2.0 * max(r12, 0.0) + ROUNDING * (absolute + signed)


def assert_cutset_bounds_samples(system, kf, cut, samples, seed):
    """A sampled violation fails the exact check; max diag Q bounds each sampled form
    and its reciprocal (the exact least energy) each sampled energy."""
    checks = by_id(audit_cutset(system, kf, cut))
    for cid, (holds, _) in support.per_sample_cutset(system, kf, cut, samples, seed).items():
        assert holds or not checks[cid].holds, cid
    q = metrics.target_gramian(system, kf).array
    max_diag = checks["T3.2"].witness["max_diagonal"]
    least = checks["T4.1"].witness["least_energy"]
    for i in range(samples):
        a = support.sample_one_norm(seed, 32, i, system.p)
        assert a @ q @ a <= max_diag * (1.0 + ROUNDING)
        a = support.sample_one_norm(seed, 41, i, system.p)
        try:
            energy = projection_energy(system, kf, a)
        except DegenerateProjection:
            energy = math.inf
        assert least <= energy * (1.0 + ROUNDING)


def substitute_target_block(monkeypatch, fake):
    """Make fake the target block that metrics read, with its upper Cholesky factor as U."""
    factor = scipy.linalg.cholesky(fake.array)
    monkeypatch.setattr(metrics, "target_gramian", lambda system, kf: fake)
    monkeypatch.setattr(metrics, "block_factor", lambda system, ids, kf: factor)


# weight ratios of the two-coordinate points that test the slacked claims
TAN_GRID = np.logspace(-6.0, 6.0, 241)


def two_coordinate_point(p, i, j, t):
    point = np.zeros(p)
    point[i], point[j] = 1.0, -t
    return point / np.linalg.norm(point)


def goal_excess(q, i, j, t):
    """T2.2's slacked excess |y|^T R |y| - (1 + REL_SLACK) y^T R y at y ~ e_i - t e_j."""
    r, y = np.linalg.inv(q), two_coordinate_point(len(q), i, j, t)
    return np.abs(y) @ r @ np.abs(y) - (1.0 + REL_SLACK) * (y @ r @ y)


def projection_excess(q, i, j, t):
    """T2.3's slacked excess of projection energies at a ~ e_i - t e_j."""
    a = two_coordinate_point(len(q), i, j, t)
    return 1.0 / (np.abs(a) @ q @ np.abs(a)) - (1.0 + REL_SLACK) / (a @ q @ a)


class TestSampledChecksMatchLoops:
    """The exact checks against the per-sample loops of the single-goal API."""

    @pytest.mark.parametrize("samples", [0, 100])
    @pytest.mark.parametrize("key", range(10))
    def test_theorem2(self, key, samples):
        sysr, kf = sampled_system(key)
        assert audit_theorem2(sysr, kf, samples=samples, seed=key) == audit_theorem2(sysr, kf)
        assert_theorem2_bounds_samples(sysr, kf, samples, seed=key)

    @pytest.mark.parametrize("rtol", [metrics.DEGENERATE_RTOL, 0.3, 1.0])
    @pytest.mark.parametrize("key", range(10))
    def test_cutset(self, key, rtol, monkeypatch):
        """Raised degeneracy thresholds make some (0.3) or all (1.0) T4.1 energies infinite."""
        monkeypatch.setattr(metrics, "DEGENERATE_RTOL", rtol)
        sysr, kf = sampled_system(key)
        cut = min_separating_cutset(sysr.graph, sysr.sources, sysr.targets)
        assert_cutset_bounds_samples(sysr, kf, cut, 100, seed=key)
        if rtol == 1.0:  # no diagonal entry exceeds lambda_max
            assert by_id(audit_cutset(sysr, kf, cut))["T4.1"].witness["least_energy"] == math.inf

    @pytest.mark.parametrize("seed", [0, 1])
    def test_theorem2_on_sweep_small(self, seed):
        for index, (sysr, kf) in enumerate(support.sweep_small_systems(seed, 25)):
            assert_theorem2_bounds_samples(sysr, kf, 100, seed=seed + index)

    @pytest.mark.parametrize("rtol", [metrics.DEGENERATE_RTOL, 0.3, 1.0])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_cutset_on_sweep_small(self, seed, rtol, monkeypatch):
        monkeypatch.setattr(metrics, "DEGENERATE_RTOL", rtol)
        for index, (sysr, kf) in enumerate(support.sweep_small_systems(seed, 25)):
            cut = min_separating_cutset(sysr.graph, sysr.sources, sysr.targets)
            assert_cutset_bounds_samples(sysr, kf, cut, 100, seed=seed + index)

    def test_fabricated_counterexamples_fail(self, monkeypatch):
        """Target blocks the samples can break: the exact checks fail on them too."""
        sysr, kf = sampled_system(0)
        cut = min_separating_cutset(sysr.graph, sysr.sources, sysr.targets)
        d = 1.0 / metrics.cutset_energy(sysr, kf, cut)
        three = ConsensusSystem(sysr.graph, sysr.sources, range(3))
        kf3 = min_positive_horizon(three, three.targets)
        # in units of d: a negative Q_ij (with p = 2, R_12 > 0) breaks T2.3 (and T2.2),
        # a diagonal entry above 1 breaks T3.2 and T4.1
        cases = [
            (sysr, kf, [[0.5, -0.25], [-0.25, 0.5]], ["T2.2", "T2.3"]),
            (three, kf3, [[0.5, 0.1, -0.2], [0.1, 0.5, 0.1], [-0.2, 0.1, 0.5]], ["T2.3"]),
            (sysr, kf, [[3.0, 0.1], [0.1, 0.5]], ["T3.2", "T4.1"]),
        ]
        for system, horizon, block, expected in cases:
            fake = kernels.SymMatrix(d * np.array(block))
            substitute_target_block(monkeypatch, fake)
            monkeypatch.setattr(support, "target_gramian", lambda system, kf: fake)
            sampled = support.per_sample_theorem2(system, horizon, 100, 0)
            checks = by_id(audit_theorem2(system, horizon))
            if system is sysr:
                sampled.update(support.per_sample_cutset(system, horizon, cut, 100, 0))
                checks.update(by_id(audit_cutset(system, horizon, cut)))
            broken = sorted(cid for cid, (holds, _) in sampled.items() if not holds)
            assert broken == expected
            assert not any(checks[cid].holds for cid in broken)

    def test_slack_is_beaten_off_the_equal_weight_point(self, monkeypatch):
        """Blocks whose violation clears the 1e-9 slack only at unequal weights.

        With p = 2, Q_12 / sqrt(Q_11 Q_22) = -1e-8 breaks T2.2 and T2.3, but
        at (1, -1) / sqrt(2) the excess is 2e-12 of the form, under the slack.
        With p = 3, Q_13 is the least entry yet lies under the slack, while
        Q_12 on the smaller diagonals breaks it.
        """
        sysr, kf = sampled_system(0)
        three = ConsensusSystem(sysr.graph, sysr.sources, range(3))
        kf3 = min_positive_horizon(three, three.targets)
        cases = [
            (sysr, kf, [[1.0, -1e-4], [-1e-4, 1e8]], ["T2.2", "T2.3"]),
            (three, kf3, [[1.0, -1e-8, -1e-6], [-1e-8, 1.0, 0.0], [-1e-6, 0.0, 1e8]], ["T2.3"]),
        ]
        for system, horizon, block, expected in cases:
            fake = kernels.SymMatrix(np.array(block))
            substitute_target_block(monkeypatch, fake)
            checks = by_id(audit_theorem2(system, horizon))
            assert sorted(c for c in ("T2.2", "T2.3") if not checks[c].holds) == expected
            # a grid of two-coordinate points breaks each slacked claim the audit fails,
            # and the least Q_ij at equal weights would not
            q = fake.array
            pairs = [(i, j) for i in range(len(q)) for j in range(len(q)) if i != j]
            least = min(pairs, key=lambda pair: q[pair])
            for cid, excess in (("T2.2", goal_excess), ("T2.3", projection_excess)):
                if cid in expected:
                    assert max(excess(q, i, j, t) for i, j in pairs for t in TAN_GRID) > 0.0
                    assert excess(q, *least, 1.0) <= 0.0

    def test_samples_and_seed_are_ignored(self, sys2, chain):
        """Any count and seed give the default report, witnesses finite and no samples key."""
        for run in (
            lambda **kw: audit_theorem2(sys2, 2, **kw),
            lambda **kw: audit_cutset(chain, 10, [1], **kw),
        ):
            report = run(samples=0, seed=7)
            assert report == run()
            for check in report.checks:
                assert "samples" not in check.witness
                assert all(math.isfinite(v) for v in check.witness.values()), check.id

    def test_declined_markov_blocks_give_the_same_minimum(self, sys2, monkeypatch):
        """T2.3 reads the build's least Markov-block entry, bit for bit the same when
        the build keeps no blocks."""
        # on sys2 only the k = 0 block, C B = 0, has a zero entry
        systems = [sampled_system(key) for key in range(10)]
        systems.append((ConsensusSystem(sys2.graph, [0], [1]), 3))
        kept = [by_id(audit_theorem2(system, kf))["T2.3"] for system, kf in systems]
        assert kept[-1].witness["markov_min"] == 0.0
        for (system, kf), check in zip(systems, kept):
            x, least = system.B, math.inf
            for _ in range(kf):
                least = min(least, float((system.C @ x).min()))
                x = system.A @ x
            assert check.witness["markov_min"] == pytest.approx(least, rel=1e-12)
        monkeypatch.setattr(gramian, "_kept", lambda entries, n: False)
        for (system, kf), check in zip(systems, kept):
            fresh = ConsensusSystem(system.graph, system.sources, system.targets)
            assert fresh.gramian(kf).memo(("markov", fresh.targets)) is None
            assert by_id(audit_theorem2(fresh, kf))["T2.3"] == check

    def test_declined_markov_minimum_holds_no_stack(self):
        """Every node a source and a target: T2 holds no (kf, p, m) array of blocks."""
        g = random_geometric(100, 0.3, 3)
        sysr = ConsensusSystem(g, range(100), range(100))
        kf = 20
        assert kf * sysr.p * sysr.m >= sysr.n**2
        metrics.target_security(sysr, kf)
        peak = support.traced_peak(audit_theorem2, sysr, kf)
        assert peak < 6 * sysr.n**2 * 8


class TestCutsetAudits:
    def test_chain_interior_cutset(self, chain):
        rep = audit_cutset(chain, 10, [1], samples=40, seed=0)
        assert {c.id for c in rep.checks} == {
            "T3.1",
            "T3.2",
            "T3.3",
            "T4.1",
            "T4.2",
            "T4.3",
        }
        assert not rep.violations()
        assert all(c.horizon_adequate for c in rep.checks)

    def test_cutset_equals_targets(self, chain):
        rep = audit_cutset(chain, 10, [2], samples=20, seed=0)
        c = by_id(rep)["T3.1"]
        assert c.holds
        # comparing W(T) against itself: equality within tolerance
        assert c.witness["max_entry"] == pytest.approx(
            c.witness["cut_diagonal"], rel=1e-12
        )

    def test_unreached_targets_not_applicable(self, chain):
        rep = audit_cutset(chain, 1, [0], samples=10, seed=0)
        assert all(c.holds and not c.horizon_adequate for c in rep.checks)

    def test_not_a_cutset(self):
        # diamond: two disjoint routes 0->1->3 and 0->2->3
        edges = [
            (0, 0, 0.25),
            (1, 0, 0.25),
            (2, 0, 0.25),
            (3, 0, 0.25),
            (0, 1, 0.5),
            (1, 1, 0.5),
            (0, 2, 0.5),
            (2, 2, 0.5),
            (1, 3, 1 / 3),
            (2, 3, 1 / 3),
            (3, 3, 1 / 3),
        ]
        g = ConsensusSystem(WeightedDigraph(4, edges), [0], [3])
        with pytest.raises(NotACutset):
            audit_cutset(g, 8, [1], samples=10, seed=0)

    def test_endpoint_cutset_allowed(self, chain):
        rep = audit_cutset(chain, 10, [0], samples=20, seed=0)
        assert not rep.violations()


class TestAsymptotics:
    def test_two_node_converges(self, sys2):
        rep = audit_asymptotics(sys2, [0, 1], [50, 100, 200])
        checks = by_id(rep)
        assert not rep.violations()
        res = [
            checks["T5.3"].witness[f"security_residual_{h}"] for h in (50, 100, 200)
        ]
        assert res[0] > res[1] > res[2]

    def test_singleton_block(self, sys2):
        rep = audit_asymptotics(sys2, [1], [50, 100, 200])
        assert not rep.violations()

    @pytest.mark.parametrize("key", [0, 1, 2])
    def test_max_residual_is_the_decomposition_bound(self, key):
        """T5.1 reports asymptotic_decomposition's residual bound, bit for bit."""
        sysr = support.random_ergodic_system([71, key], n_low=6, n_high=12, num_targets=2)
        everyone = list(range(sysr.n))
        base = min_positive_horizon(sysr, everyone) + 10
        horizons = [base, 2 * base, 4 * base]
        for ids in (sysr.targets, everyone):
            witness = by_id(audit_asymptotics(sysr, ids, horizons))["T5.1"].witness
            for h in horizons:
                assert witness[f"max_residual_{h}"] == (
                    asymptotic_decomposition(sysr, ids, h).residual_bound
                )

    def test_one_gramian_alive_at_a_time(self):
        """Each horizon's Gramian is dropped before the next one is built."""
        sysr = ConsensusSystem(random_geometric(200, 0.15, 7), [0], [100, 150])

        def peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        build = peak(lambda: compute_gramian(sysr, 200))
        audit = peak(lambda: audit_asymptotics(sysr, sysr.targets, [50, 100, 200]))
        assert audit < 1.15 * build

    def test_horizon_validation(self, sys2):
        with pytest.raises(ValueError):
            audit_asymptotics(sys2, [0, 1], [100, 50])
        with pytest.raises(ValueError):
            audit_asymptotics(sys2, [0, 1], [200])
        with pytest.raises(ValueError):
            audit_asymptotics(sys2, [0, 1], [1, 50, 100])


class TestReportPlumbing:
    def test_merge_and_violations(self, sys2):
        a = audit_theorem1(sys2, [0, 1], 2)
        b = audit_corollary1(sys2, [0, 1], 2)
        merged = merge_reports(a, b)
        assert len(merged.checks) == len(a.checks) + 1
        assert not merged.violations()

    def test_json_schema(self, sys2):
        rep = audit_corollary1(sys2, [0, 1], 2)
        d = rep.to_json_dict()
        text = json.dumps(d, sort_keys=True)
        parsed = json.loads(text)
        (check,) = parsed["checks"]
        assert set(check) == {"id", "holds", "witness", "tolerance", "horizon_adequate"}
        assert isinstance(check["witness"], dict)
