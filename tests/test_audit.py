"""Theorem-audit tests: worked systems, not-applicable encoding, witnesses."""

import json

import numpy as np
import pytest

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
    merge_reports,
    min_positive_horizon,
    spanning_bottleneck,
)
from netctl.audit import NEG_SCALE


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
