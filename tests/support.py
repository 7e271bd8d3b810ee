"""Shared test fixtures: random ergodic systems and brute-force oracles.

Oracles here are written independently of the library internals (direct
matrix powers, stacked least squares, exhaustive subset search, sampled
checks one sample at a time) so that agreement is evidence, not tautology.
"""

from __future__ import annotations

import importlib.util
import itertools
import json
import math
import pathlib
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, maximum_flow

from netctl import (
    ConsensusSystem,
    DegenerateProjection,
    WeightedDigraph,
    cutset_energy,
    node_set,
    optimal_projection_input,
    projection_energy,
    spanning_bottleneck,
    target_gramian,
)
from netctl.audit import INPUT_TOL, REL_SLACK


def two_node_system() -> ConsensusSystem:
    """Complete 2-node averaging network, source {0}, targets {0, 1}."""
    g = WeightedDigraph(2, [(0, 0, 0.5), (1, 0, 0.5), (0, 1, 0.5), (1, 1, 0.5)])
    return ConsensusSystem(g, [0], [0, 1])


def three_chain_system() -> ConsensusSystem:
    """3-node path with self-loops, source {0}, target {2}."""
    g = WeightedDigraph(
        3,
        [
            (0, 0, 0.5),
            (1, 0, 0.5),
            (0, 1, 1.0 / 3.0),
            (1, 1, 1.0 / 3.0),
            (2, 1, 1.0 / 3.0),
            (1, 2, 0.5),
            (2, 2, 0.5),
        ],
    )
    return ConsensusSystem(g, [0], [2])


def random_ergodic_graph(rng: np.random.Generator, n: int) -> WeightedDigraph:
    """Random strongly connected aperiodic graph on n nodes.

    A random spanning tree made bidirectional guarantees strong
    connectivity; a self-loop at every node guarantees aperiodicity.
    Incoming weights are drawn uniform on [0.2, 1] then normalized to
    sum to one per node.
    """
    pairs = set()
    for v in range(1, n):
        u = int(rng.integers(0, v))
        pairs.add((u, v))
        pairs.add((v, u))
    extra = rng.random((n, n)) < 0.3
    for u in range(n):
        for v in range(n):
            if u != v and extra[u, v]:
                pairs.add((u, v))
    raw = {}
    for v in range(n):
        incoming = [u for u in range(n) if (u, v) in pairs] + [v]
        weights = rng.uniform(0.2, 1.0, size=len(incoming))
        weights /= weights.sum()
        for u, w in zip(incoming, weights):
            raw[(u, v)] = float(w)
    edges = [(u, v, w) for (u, v), w in sorted(raw.items())]
    return WeightedDigraph(n, edges)


def random_digraph(rng: np.random.Generator, n: int, degree: float) -> WeightedDigraph:
    """Random digraph with about `degree` in-neighbours per node.

    Every node keeps a self-loop, so incoming weights (uniform on [0.2, 1],
    normalized) always sum to one; nothing else is guaranteed, not even
    weak connectivity.
    """
    edges = []
    for v in range(n):
        incoming = [u for u in range(n) if u != v and rng.random() < degree / n] + [v]
        weights = rng.uniform(0.2, 1.0, size=len(incoming))
        weights /= weights.sum()
        edges.extend((u, v, float(w)) for u, w in zip(incoming, weights))
    return WeightedDigraph(n, edges)


def sweep_small_systems(seed: int, count: int) -> list[tuple[ConsensusSystem, int]]:
    """The first count systems of the benchmark's sweep_small corpus for seed, with their kf.

    The generator is bench/workloads.py's random_system on default_rng([seed, 150]).
    """
    workloads = sys.modules.get("sweep_workloads")
    if workloads is None:
        path = pathlib.Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("sweep_workloads", path)
        workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    rng = np.random.default_rng([seed, 150])
    out = []
    for _ in range(count):
        s = workloads.random_system(rng)
        out.append((ConsensusSystem(WeightedDigraph(s.n, s.edges), s.sources, s.targets), s.kf))
    return out


def random_ergodic_system(
    seed_key,
    n_low: int = 3,
    n_high: int = 6,
    num_sources: int | None = None,
    num_targets: int | None = None,
) -> ConsensusSystem:
    """Deterministic random system keyed by an integer sequence.

    seed_key seeds an independent substream, so each instance is stable
    regardless of test ordering.
    """
    rng = np.random.default_rng(seed_key)
    n = int(rng.integers(n_low, n_high + 1))
    graph = random_ergodic_graph(rng, n)
    m = num_sources if num_sources is not None else int(rng.integers(1, max(2, n // 2) + 1))
    p = num_targets if num_targets is not None else int(rng.integers(1, n + 1))
    sources = rng.choice(n, size=min(m, n), replace=False)
    targets = rng.choice(n, size=min(p, n), replace=False)
    return ConsensusSystem(graph, sources.tolist(), targets.tolist())


# ---------------------------------------------------------------- oracles


def naive_gramian(a: np.ndarray, b: np.ndarray, kf: int) -> np.ndarray:
    """Direct definition: sum of (A^i B)(A^i B)^T for i < kf."""
    n = a.shape[0]
    total = np.zeros((n, n))
    for i in range(kf):
        aib = np.linalg.matrix_power(a, i) @ b
        total += aib @ aib.T
    return total


def stacked_input_map(system: ConsensusSystem, kf: int) -> np.ndarray:
    """Map from the stacked input [u0; u1; ...] to the final target output."""
    blocks = []
    for i in range(kf):
        power = np.linalg.matrix_power(system.A, kf - 1 - i)
        blocks.append(system.C @ power @ system.B)
    return np.hstack(blocks)


def least_squares_energy(system: ConsensusSystem, kf: int, goal: np.ndarray) -> float:
    """Minimum-norm stacked least squares; independent of any Gramian."""
    g = stacked_input_map(system, kf)
    u, *_ = np.linalg.lstsq(g, goal, rcond=None)
    achieved = g @ u
    if not np.allclose(achieved, goal, atol=1e-9):
        raise AssertionError("goal not reachable in oracle")
    return float(u @ u)


def averaging_path(n: int) -> WeightedDigraph:
    """Path 0 - 1 - ... - n-1 where each node averages itself and its neighbours."""
    edges = []
    for v in range(n):
        hood = [u for u in (v - 1, v, v + 1) if 0 <= u < n]
        edges += [(u, v, 1.0 / len(hood)) for u in hood]
    return WeightedDigraph(n, edges)


def exact_energy(system: ConsensusSystem, kf: int, goal) -> Fraction:
    """y^T (M M^T)^-1 y in rational arithmetic, M the target Markov rows.

    The float64 weights and goal convert to fractions exactly; A^k B is
    propagated from the edge list and the Gramian solved by Gaussian
    elimination, so the result is exact for the float64 data.
    """
    n, p = system.n, system.p
    incoming = [[] for _ in range(n)]
    for u, v, w in system.graph.edges:
        incoming[v].append((u, Fraction(w)))
    rows = [[] for _ in range(p)]
    for z in system.sources:
        x = [Fraction(0)] * n
        x[z] = Fraction(1)
        for _ in range(kf):
            for row, t in zip(rows, system.targets):
                row.append(x[t])
            x = [sum((w * x[u] for u, w in incoming[v]), Fraction(0)) for v in range(n)]
    y = [Fraction(float(v)) for v in goal]
    aug = [[sum(a * b for a, b in zip(ri, rj)) for rj in rows] + [y[i]] for i, ri in enumerate(rows)]
    for c in range(p):
        for r in range(c + 1, p):
            f = aug[r][c] / aug[c][c]
            aug[r] = [a - f * b for a, b in zip(aug[r], aug[c])]
    v = [Fraction(0)] * p
    for r in range(p - 1, -1, -1):
        v[r] = (aug[r][p] - sum(aug[r][c] * v[c] for c in range(r + 1, p))) / aug[r][r]
    return sum(a * b for a, b in zip(y, v))


def separates(
    graph: WeightedDigraph, sources, targets, cut: frozenset[int]
) -> bool:
    """Path-based separation test: BFS over edges, avoiding cut nodes."""
    start = [s for s in sources if s not in cut]
    blocked_targets = {t for t in targets if t not in cut}
    if not blocked_targets:
        return True
    adj: dict[int, list[int]] = {v: [] for v in range(graph.n)}
    for u, v, _ in graph.edges:
        if u != v:
            adj[u].append(v)
    seen = set(start)
    frontier = list(start)
    while frontier:
        u = frontier.pop()
        if u in blocked_targets:
            return False
        for v in adj[u]:
            if v not in cut and v not in seen:
                seen.add(v)
                frontier.append(v)
    return True


def brute_min_cutset(graph: WeightedDigraph, sources, targets) -> tuple[int, ...]:
    """Exhaustive minimum separating cutset, interior nodes preferred.

    Tries subsets of increasing size in lexicographic order, first over
    nodes outside sources+targets, then over all nodes. Only viable for
    small n.
    """
    s = set(sources)
    t = set(targets)
    interior = [v for v in range(graph.n) if v not in s and v not in t]
    for pool in (interior, list(range(graph.n))):
        for size in range(0, len(pool) + 1):
            for combo in itertools.combinations(sorted(pool), size):
                if separates(graph, s, t, frozenset(combo)):
                    return tuple(combo)
    raise AssertionError("unreachable: full vertex set always separates")


def vertex_cut_size(graph: WeightedDigraph, sources, targets, deleted, interior) -> int:
    """Fewest vertices meeting every source-target path, by scipy's max flow.

    Vertex v is an arc 2v -> 2v+1 of capacity 1 (0 once deleted); each edge
    u -> v is an arc 2u+1 -> 2v of capacity big, and so are the arcs from
    the super-source to each source and from each target to the super-sink.
    With interior, terminal vertices cost big too, so a result of big or
    more means that no cut avoids the terminals.
    """
    n = graph.n
    big = 2 * n + 2
    arcs: dict[tuple[int, int], int] = {}
    for v in range(n):
        if v not in deleted:
            terminal = v in sources or v in targets
            arcs[(2 * v, 2 * v + 1)] = big if interior and terminal else 1
    for v in sources:
        arcs[(2 * n, 2 * v)] = big
    for v in targets:
        arcs[(2 * v + 1, 2 * n + 1)] = big
    for u, v, _ in graph.edges:
        if u != v:
            arcs[(2 * u + 1, 2 * v)] = big
    rows, cols = zip(*arcs)
    caps = np.array(list(arcs.values()), dtype=np.int32)
    net = csr_matrix((caps, (rows, cols)), shape=(2 * n + 2, 2 * n + 2))
    return int(maximum_flow(net, 2 * n, 2 * n + 1).flow_value)


def greedy_min_cutset(graph: WeightedDigraph, sources, targets) -> tuple[int, ...]:
    """Minimum cutset by its definition, one max flow per candidate.

    Interior nodes only when some cut avoids the terminals; candidates in
    ascending order, v taken iff deleting it (with those already taken)
    lowers the cut size by one. Viable for a few dozen nodes.
    """
    s, t = set(sources), set(targets)
    interior = vertex_cut_size(graph, s, t, set(), True) < 2 * graph.n + 2
    need = vertex_cut_size(graph, s, t, set(), interior)
    chosen: list[int] = []
    for v in range(graph.n):
        if need == 0:
            break
        if interior and (v in s or v in t):
            continue
        if vertex_cut_size(graph, s, t, {v, *chosen}, interior) == need - 1:
            chosen.append(v)
            need -= 1
    return tuple(chosen)


def impulse_response(system: ConsensusSystem, z: int, l: int, kf: int) -> np.ndarray:
    """Response at node l to a unit impulse at source z: (A^k)[l, z] for k < kf."""
    if z not in system.sources:
        raise ValueError(f"node {z} is not a source")
    x = np.zeros(system.n)
    x[z] = 1.0
    h = np.empty(kf)
    for k in range(kf):
        h[k] = x[l]
        x = system.A @ x
    return h


def gramian_from_impulses(system: ConsensusSystem, node_ids, kf: int) -> np.ndarray:
    """Gramian block from impulse responses, one source at a time.

    Entry (a, b) sums over sources z the inner product of the length-kf
    responses at nodes a and b to an impulse at z; nodes in ascending order.
    """
    rows = sorted(set(node_ids))
    q = np.zeros((len(rows), len(rows)))
    for z in system.sources:
        h = np.array([impulse_response(system, z, l, kf) for l in rows])
        q += h @ h.T
    return q


def bipartition_bottleneck(r: np.ndarray) -> float:
    """max over bipartitions (S, S^c) of min r[S, S^c], by enumeration.

    S ranges over the nonempty sets without the last index, so each
    bipartition is seen once; -inf below order 2. Only viable for small
    orders (2^(s-1) - 1 bipartitions).
    """
    size = r.shape[0]
    worst = -math.inf
    for mask in range(1, 1 << (size - 1)):
        part = [i for i in range(size - 1) if mask >> i & 1]
        rest = [i for i in range(size) if i not in part]
        worst = max(worst, float(r[np.ix_(part, rest)].min()))
    return worst


def geometric_draws(n: int, radius: float, seed: int) -> tuple[WeightedDigraph, int]:
    """The geometric generator's draw loop, judged by scipy's components.

    Returns the graph of the first connected placement and the number of
    placements drawn.
    """
    rng = np.random.default_rng(seed)
    for attempt in range(1, 1001):
        pts = rng.random((n, 2))
        diff = pts[:, None, :] - pts[None, :, :]
        adj = (diff[..., 0] ** 2 + diff[..., 1] ** 2) <= radius * radius
        np.fill_diagonal(adj, False)
        if connected_components(csr_matrix(adj), directed=False)[0] != 1:
            continue
        edges = []
        for j in range(n):
            neighbors = np.flatnonzero(adj[:, j])
            w = 1.0 / (len(neighbors) + 1)
            edges.append((j, j, w))
            edges.extend((int(i), j, w) for i in neighbors)
        return WeightedDigraph(n, edges, positions=pts), attempt
    raise AssertionError("no connected placement in 1000 attempts")


def boundary_radius(n: int, seed: int) -> float:
    """The first placement's spanning-tree bottleneck distance as a radius.

    The placement is connected exactly at this radius, whose one longest
    tree edge lies on the boundary: its squared length equals radius**2.
    """
    pts = np.random.default_rng(seed).random((n, 2))
    diff = pts[:, None, :] - pts[None, :, :]
    d2 = spanning_bottleneck(diff[..., 0] ** 2 + diff[..., 1] ** 2)
    radius = math.sqrt(d2)
    assert radius * radius == d2, "pick a seed whose bottleneck squares back exactly"
    return radius


def json_dumps_network(graph: WeightedDigraph, sources, targets) -> str:
    """The network file text by json.dumps, which network_json must equal byte for byte."""
    obj = {
        "n": graph.n,
        "edges": [[u, v, w] for u, v, w in graph.edges],
        "sources": list(node_set(sources, graph.n)),
        "targets": list(node_set(targets, graph.n)),
    }
    if graph.positions is not None:
        obj["positions"] = [[float(x), float(y)] for x, y in graph.positions]
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def traced_peak(fn, *args) -> int:
    """Peak bytes tracemalloc sees allocated during fn(*args)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def brute_reach_horizon(a: np.ndarray, sources, block) -> int:
    """Smallest k with (A^(k-1))[l, z] > 0 for all block nodes l, sources z."""
    n = a.shape[0]
    src = sorted(set(sources))
    rows = sorted(set(block))
    for k in range(1, (n - 1) ** 2 + 3):
        p = np.linalg.matrix_power(a, k - 1)
        if np.all(p[np.ix_(rows, src)] > 0.0):
            return k
    raise AssertionError("no positive horizon within the search bound")


def sample_sphere(seed: int, tag: int, index: int, dim: int) -> np.ndarray:
    """Draw index on the unit sphere, from its own stream [seed, tag, index]."""
    v = np.random.default_rng([seed, tag, index]).standard_normal(dim)
    return v / float(np.linalg.norm(v))


def sample_one_norm(seed: int, tag: int, index: int, dim: int) -> np.ndarray:
    """Draw index on the unit 1-norm sphere, from its own stream [seed, tag, index]."""
    rng = np.random.default_rng([seed, tag, index])
    mags = rng.dirichlet(np.ones(dim))
    signs = rng.integers(0, 2, size=dim) * 2 - 1
    return mags * signs


def per_sample_theorem2(system, kf: int, samples: int, seed: int) -> dict:
    """T2.2 and T2.3 judged one sample at a time through the single-goal API.

    Draws come from per-sample streams [seed, tag, i]; T2.2 only with two
    targets, its energies y^T Q^-1 y by np.linalg.solve on the target block
    array, so a block that a test substitutes for target_gramian is the one
    judged. Returns {check id: (holds, witness)}.
    """
    out = {}
    if system.p == 2:
        q = target_gramian(system, kf).array
        worst, ok = -math.inf, True
        for i in range(samples):
            y = sample_sphere(seed, 22, i, system.p)
            e_signed = float(y @ np.linalg.solve(q, y))
            e_abs = float(np.abs(y) @ np.linalg.solve(q, np.abs(y)))
            excess = e_abs - e_signed * (1.0 + REL_SLACK)
            worst = max(worst, excess)
            ok = ok and excess <= 0.0
        out["T2.2"] = (ok, {"worst_excess": worst})
    worst, input_min, ok = -math.inf, math.inf, True
    for i in range(samples):
        a = sample_sphere(seed, 23, i, system.p)
        f_signed = projection_energy(system, kf, a)
        f_abs = projection_energy(system, kf, np.abs(a))
        excess = f_abs - f_signed * (1.0 + REL_SLACK)
        worst = max(worst, excess)
        ok = ok and excess <= 0.0
        u_proj = optimal_projection_input(system, kf, np.abs(a))
        input_min = min(input_min, float(u_proj.u.min()))
    out["T2.3"] = (
        ok and input_min >= -INPUT_TOL,
        {"worst_excess": worst, "input_smallest": input_min},
    )
    return out


def per_sample_cutset(system, kf: int, cutset, samples: int, seed: int) -> dict:
    """T3.2 and T4.1 judged one sample at a time through the single-goal API.

    A degenerate projection counts as an infinite energy. Returns
    {check id: (holds, witness)}.
    """
    e_cut = cutset_energy(system, kf, cutset)
    wt = target_gramian(system, kf).array
    worst_form = -math.inf
    for i in range(samples):
        a = sample_one_norm(seed, 32, i, system.p)
        worst_form = max(worst_form, float(a @ wt @ a))
    worst_energy = math.inf
    for i in range(samples):
        a = sample_one_norm(seed, 41, i, system.p)
        try:
            f = projection_energy(system, kf, a)
        except DegenerateProjection:
            f = math.inf
        worst_energy = min(worst_energy, f)
    return {
        "T3.2": (worst_form <= (1.0 / e_cut) * (1.0 + REL_SLACK), {"worst_form": worst_form}),
        "T4.1": (worst_energy >= e_cut * (1.0 - REL_SLACK), {"worst_energy": worst_energy}),
    }
