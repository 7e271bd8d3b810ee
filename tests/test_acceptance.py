"""Acceptance gate: eight binding criteria, one test and one verdict line each.

Each test prints CRITERION <k>: PASS/FAIL before asserting, so a -rP or -s
run shows the ledger at a glance; the pytest verdict per test carries the
same information.
"""

import collections
import json
import time

import numpy as np
import pytest

import support
from netctl import (
    ConsensusSystem,
    asymptotic_decomposition,
    audit_asymptotics,
    audit_corollary1,
    audit_cutset,
    audit_theorem1,
    audit_theorem2,
    cli,
    gramian,
    gramian_submatrix,
    load_network,
    min_positive_horizon,
    min_separating_cutset,
    cutset_energy,
    kernels,
    node_energies,
    optimal_target_input,
    projection_security,
    target_control_energy,
    target_controllable,
    target_security,
    verify_optimal_input,
)


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def rel_close(actual, expected, rtol) -> bool:
    a = np.asarray(actual, dtype=float)
    e = np.asarray(expected, dtype=float)
    scale = max(float(np.max(np.abs(e))), 1e-300)
    return bool(np.max(np.abs(a - e)) <= rtol * scale)


def test_criterion_1_worked_instance_exactness():
    def full_pass():
        sys2 = support.two_node_system()
        block = gramian_submatrix(sys2.gramian(2), [0, 1])
        inv = kernels.inverse_from_factor(gramian.block_factor(sys2, [0, 1], 2))
        energy = target_control_energy(sys2, 2, [1.0, 1.0])
        seq = optimal_target_input(sys2, 2, [1.0, 1.0])
        e_min, _ = target_security(sys2, 2)
        f_min, _ = projection_security(sys2, 2)
        node_e = node_energies(sys2, 2)
        return block.array, inv.array, energy, seq.u, e_min, f_min, node_e

    w, r, energy, u, e_min, f_min, node_e = full_pass()
    elapsed = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        full_pass()
        elapsed = min(elapsed, time.perf_counter() - t0)

    ok = (
        rel_close(w, [[1.25, 0.25], [0.25, 0.25]], 1e-12)
        and rel_close(r, [[1.0, -1.0], [-1.0, 5.0]], 1e-12)
        and rel_close(energy, 4.0, 1e-12)
        and rel_close(u, [[2.0], [0.0]], 1e-12)
        and abs(e_min - 0.763932) <= 1e-6
        and rel_close(f_min, 0.8, 1e-12)
        and rel_close(node_e, [0.8, 4.0], 1e-12)
        and elapsed < 1e-3
    )
    verdict(1, ok, f"warm full pass {elapsed * 1e6:.0f} us, all worked values matched")


def test_criterion_2_oracle_equivalence():
    start = time.perf_counter()
    energy_instances = 0
    for i in range(200):
        sysr = support.random_ergodic_system([2, i], n_low=3, n_high=6)
        kf = 1 + i % 12
        w = sysr.gramian(kf).W.array
        naive = support.naive_gramian(sysr.A, sysr.B, kf)
        assert rel_close(w, naive, 1e-12), f"naive mismatch at instance {i}"
        from_imp = support.gramian_from_impulses(sysr, range(sysr.n), kf)
        assert rel_close(from_imp, w, 1e-10), f"impulse mismatch at instance {i}"
        if sysr.m * kf <= 6 and target_controllable(sysr, kf):
            rng = np.random.default_rng([2, i, 99])
            stacked = support.stacked_input_map(sysr, kf)
            goal = stacked @ rng.normal(size=stacked.shape[1])
            direct = target_control_energy(sysr, kf, goal)
            oracle = support.least_squares_energy(sysr, kf, goal)
            assert rel_close(direct, oracle, 1e-8), f"energy mismatch at instance {i}"
            energy_instances += 1
    elapsed = time.perf_counter() - start
    ok = elapsed < 10.0 and energy_instances >= 10
    verdict(
        2,
        ok,
        f"200 systems, {energy_instances} energy oracles, {elapsed:.2f} s",
    )


def test_criterion_3_theorem1_suite():
    start = time.perf_counter()
    failures = []
    for i in range(100):
        sysr = support.random_ergodic_system([3, i], n_low=3, n_high=10)
        picker = np.random.default_rng([3, i, 1])
        size = int(picker.integers(2, min(5, sysr.n) + 1))
        block = sorted(int(v) for v in picker.choice(sysr.n, size=size, replace=False))
        kf = min_positive_horizon(sysr, block) + 20
        rep = audit_theorem1(sysr, block, kf)
        repc = audit_corollary1(sysr, block, kf)
        for check in (*rep.violations(), *repc.violations()):
            failures.append((i, check.id))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 30.0
    verdict(3, ok, f"100 systems, violations={failures}, {elapsed:.2f} s")


def test_criterion_4_theorem2_suite():
    start = time.perf_counter()
    failures = []
    for i in range(100):
        sysr = support.random_ergodic_system([4, i], n_low=3, n_high=10, num_targets=2)
        kf = min_positive_horizon(sysr, sysr.targets) + 20
        rep = audit_theorem2(sysr, kf, samples=100, seed=i)
        for check in rep.violations():
            failures.append((i, check.id))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 30.0
    verdict(4, ok, f"100 systems, violations={failures}, {elapsed:.2f} s")


def test_criterion_5_cutset_suite():
    from netctl import random_geometric

    start = time.perf_counter()
    failures = []
    for i in range(50):
        graph = random_geometric(30, 0.3, seed=500 + i)
        rng = np.random.default_rng([5, i])
        source = int(rng.integers(30))
        others = [v for v in range(30) if v != source]
        targets = sorted(int(v) for v in rng.choice(others, size=2, replace=False))
        sysr = ConsensusSystem(graph, [source], targets)
        cut = min_separating_cutset(graph, [source], targets)
        rep = audit_cutset(sysr, 100, cut, samples=100, seed=i)
        for check in rep.violations():
            failures.append((i, check.id))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    verdict(5, ok, f"50 networks, violations={failures}, {elapsed:.2f} s")


def _convergence_window(system, horizons):
    """Product E_min * p * kf * sum(w_i^2) per horizon, via separate routes."""
    products = []
    for kf in horizons:
        e_min, _ = target_security(system, kf)
        decomp = asymptotic_decomposition(system, system.targets, kf)
        products.append(e_min * system.p * decomp.rank_one_coefficient)
    return products


def test_criterion_6_asymptotic_convergence():
    horizons = [50, 100, 200, 400]
    sys2 = support.two_node_system()
    rep = audit_asymptotics(sys2, [0, 1], horizons)
    assert not rep.violations(), rep.violations()
    two_node_products = _convergence_window(sys2, horizons)
    assert 0.95 <= two_node_products[-1] <= 1.05
    residuals = [abs(p - 1.0) for p in two_node_products]
    assert all(a > b for a, b in zip(residuals, residuals[1:]))

    checked = 0
    seed_index = 0
    while checked < 10:
        assert seed_index < 200, "ran out of candidate systems"
        key = seed_index
        seed_index += 1
        sysr = support.random_ergodic_system([6, key])
        if min_positive_horizon(sysr, sysr.targets) > horizons[0]:
            continue
        # the criterion names the remainder-growth and product-window checks;
        # the eigenvalue-residual check can need longer horizons on
        # slow-mixing instances and is not part of this gate
        rep = audit_asymptotics(sysr, sysr.targets, horizons)
        named = {c.id: c for c in rep.checks}
        assert named["T5.1"].holds, (key, named["T5.1"])
        assert named["T5.3"].holds, (key, named["T5.3"])
        products = _convergence_window(sysr, horizons)
        assert 0.95 <= products[-1] <= 1.05, (key, products)
        checked += 1
    verdict(
        6,
        True,
        f"2-node product at 400 = {two_node_products[-1]:.4f}, "
        f"{checked} random systems within the window",
    )


def test_criterion_7_distant_node_energies(tmp_path):
    net_path = str(tmp_path / "geo50.json")
    csv_path = str(tmp_path / "energies.csv")
    start = time.perf_counter()
    assert cli.main(["gen", "--n", "50", "--radius", "0.25", "--seed", "7",
                     "--out", net_path]) == 0
    assert cli.main(["node-energies", "--net", net_path, "--kf", "200",
                     "--out", csv_path]) == 0
    elapsed = time.perf_counter() - start

    graph, sources, _ = load_network(net_path)
    energies = {}
    with open(csv_path) as fh:
        for line in fh:
            fields = line.strip().split(",")
            energies[int(fields[0])] = float(fields[3])

    # BFS hop distance from the source over the directed edges
    adj = collections.defaultdict(list)
    for u, v, _w in graph.edges:
        adj[u].append(v)
    dist = {sources[0]: 0}
    queue = collections.deque([sources[0]])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    far = sorted(range(graph.n), key=lambda v: (-dist[v], v))[:10]

    bad = []
    for t in far:
        system_t = ConsensusSystem(graph, sources, [t])
        cut = min_separating_cutset(graph, sources, [t])
        e_cut = cutset_energy(system_t, 200, cut)
        if not energies[t] >= e_cut * (1.0 - 1e-9):
            bad.append((t, energies[t], e_cut))
    ok = elapsed < 5.0 and not bad
    verdict(7, ok, f"CLI {elapsed:.2f} s, far-node floor failures={bad}")


def test_criterion_8_closed_loop_consistency():
    checked = 0
    seed_index = 0
    worst_goal = worst_energy = 0.0
    while checked < 100:
        assert seed_index < 400, "ran out of candidate systems"
        key = seed_index
        seed_index += 1
        sysr = support.random_ergodic_system([8, key])
        kf = min_positive_horizon(sysr, sysr.targets) + 10
        if not target_controllable(sysr, kf):
            continue
        goal = np.random.default_rng([8, key, 1]).normal(size=sysr.p)
        res = verify_optimal_input(sysr, kf, goal)
        worst_goal = max(worst_goal, res.goal_error)
        worst_energy = max(worst_energy, res.energy_error)
        checked += 1
    ok = worst_goal <= 1e-8 and worst_energy <= 1e-9
    verdict(
        8,
        ok,
        f"100 instances, goal_error<={worst_goal:.2e}, energy_error<={worst_energy:.2e}",
    )
