"""Work done once: one Gramian per command, one eigensolve per target block.

Counts Gramian builds at every module binding of compute_gramian, and
eigensolves (eigh or eigvalsh) of target-sized blocks.
"""

import sys
from collections import Counter

import numpy as np
import pytest

import netctl
from netctl import cli, gramian

KF = 30
TARGETS = [5, 9]


@pytest.fixture
def counts(monkeypatch):
    tally = Counter()
    build = gramian.compute_gramian

    def counting_build(*args, **kwargs):
        tally["builds"] += 1
        return build(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        in_package = name == "netctl" or name.startswith("netctl.")
        if in_package and getattr(module, "compute_gramian", None) is build:
            monkeypatch.setattr(module, "compute_gramian", counting_build)

    def counting_eig(fn):
        def wrapper(a, *args, **kwargs):
            if np.shape(a) == (len(TARGETS), len(TARGETS)):
                tally["target_eigensolves"] += 1
            return fn(a, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(np.linalg, "eigh", counting_eig(np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eig(np.linalg.eigvalsh))
    return tally


@pytest.fixture(scope="module")
def graph():
    return netctl.random_geometric(12, 0.5, 3)


@pytest.fixture
def net(tmp_path, graph):
    path = tmp_path / "net.json"
    netctl.save_network(path, graph, [0], TARGETS)
    return str(path)


def run(argv) -> int:
    return cli.main([str(a) for a in argv])


def test_metrics_with_goal_builds_once(net, tmp_path, counts):
    goal = tmp_path / "goal.csv"
    goal.write_text("1\n2\n")
    code = run(["metrics", "--net", net, "--kf", KF, "--goal", goal,
                "--input-out", tmp_path / "u.csv", "--out", tmp_path / "r.json"])
    assert code == 0
    assert counts["builds"] == 1


def test_node_energies_builds_once(net, tmp_path, counts):
    assert run(["node-energies", "--net", net, "--kf", KF, "--out", tmp_path / "e.csv"]) == 0
    assert counts["builds"] == 1


def test_audit_theorems_1_to_4_build_once(net, tmp_path, counts):
    code = run(["audit", "--net", net, "--kf", KF, "--theorems", "1,2,3,4",
                "--min-cutset", "--samples", 10, "--out", tmp_path / "a.json"])
    assert code == 0
    assert counts["builds"] == 1


@pytest.mark.parametrize("cutset, code", [([], 2), (["--cutset", "3"], 6)])
def test_bad_cutset_exits_before_building(net, tmp_path, counts, cutset, code):
    argv = ["audit", "--net", net, "--kf", KF, "--theorems", "3", *cutset,
            "--out", tmp_path / "a.json"]
    assert run(argv) == code
    assert counts["builds"] == 0


def test_verify_optimal_input_builds_once(graph, counts):
    system = netctl.ConsensusSystem(graph, [0], TARGETS)
    result = netctl.verify_optimal_input(system, KF, [1.0, 2.0])
    assert result.goal_error < 1e-9
    assert counts["builds"] == 1


def test_theorem2_eigensolves_do_not_grow_with_samples(graph, counts):
    system = netctl.ConsensusSystem(graph, [0], TARGETS)
    solves = []
    for samples in (10, 100):
        counts.clear()
        report = netctl.audit_theorem2(system, KF, samples=samples)
        assert not report.violations()
        solves.append(counts["target_eigensolves"])
    assert solves[0] == solves[1]


def test_bundle_keeps_no_block_as_large_as_w(graph):
    bundle = netctl.compute_gramian(netctl.ConsensusSystem(graph, [0], TARGETS), KF)
    every = range(12)
    assert gramian.gramian_submatrix(bundle, TARGETS) is gramian.gramian_submatrix(
        bundle, TARGETS
    )
    assert gramian.gramian_submatrix(bundle, every) is not gramian.gramian_submatrix(
        bundle, every
    )
