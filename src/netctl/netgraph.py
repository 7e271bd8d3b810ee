"""Weighted digraphs for the consensus model.

A graph on nodes 0..n-1 carries directed edges (from, to, weight) where the
weight is the influence of the tail node on the head node's next state. The
incoming weights of every node must sum to one, so the induced update matrix
is row stochastic. This module owns structural questions: validation,
ergodicity, separating cutsets, and the random geometric generator.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    ConnectivityFailure,
    DuplicateEdge,
    IndexOutOfRange,
    RowSumError,
)
from .kernels import spanning_bottleneck

ROW_SUM_TOL = 1e-12

Edge = tuple[int, int, float]


def _whole(value, what: str) -> int:
    """value as an int; ValueError unless it is a whole number."""
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def node_set(ids: Iterable[int], n: int) -> tuple[int, ...]:
    """Canonicalize node ids: ints, sorted ascending, duplicates dropped.

    Raises ValueError for an id that is not a whole number and
    IndexOutOfRange for ids outside 0..n-1.
    """
    out = tuple(sorted({_whole(i, "node id") for i in ids}))
    for i in out:
        if not 0 <= i < n:
            raise IndexOutOfRange(f"node id {i} outside 0..{n - 1}")
    return out


class WeightedDigraph:
    """Validated weighted digraph whose incoming weights sum to one per node.

    Edges are stored sorted by (from, to) with weights kept exactly as given.
    positions, when present, is an (n, 2) array of planar coordinates from the
    geometric generator; it plays no role in any computation.
    """

    def __init__(self, n: int, edges: Iterable[Sequence], positions=None):
        n = _whole(n, "n")
        if n < 1:
            raise ValueError(f"need at least one node, got n={n}")
        incoming = [0.0] * n
        seen: set[tuple[int, int]] = set()
        clean: list[Edge] = []
        for e in edges:
            u, v, w = _whole(e[0], "edge end"), _whole(e[1], "edge end"), float(e[2])
            if not (0 <= u < n and 0 <= v < n):
                raise IndexOutOfRange(f"edge ({u}, {v}) outside 0..{n - 1}")
            if (u, v) in seen:
                raise DuplicateEdge(f"edge ({u}, {v}) listed more than once")
            if not (w > 0.0) or not math.isfinite(w):
                raise ValueError(f"edge ({u}, {v}) has non-positive weight {w!r}")
            seen.add((u, v))
            clean.append((u, v, w))
            incoming[v] += w
        for j in range(n):
            if abs(incoming[j] - 1.0) > ROW_SUM_TOL:
                raise RowSumError(j, incoming[j])
        clean.sort(key=lambda e: (e[0], e[1]))
        self.n = n
        self.edges: tuple[Edge, ...] = tuple(clean)
        if positions is not None:
            positions = np.array(positions, dtype=float)
            if positions.shape != (n, 2):
                raise ValueError(f"positions must be ({n}, 2), got {positions.shape}")
            positions.setflags(write=False)
        self.positions: Optional[np.ndarray] = positions

    @cached_property
    def out_lists(self) -> tuple[tuple[int, ...], ...]:
        """Successor node ids, per node."""
        out: list[list[int]] = [[] for _ in range(self.n)]
        for u, v, _ in self.edges:
            out[u].append(v)
        return tuple(tuple(lst) for lst in out)

    @cached_property
    def _matrix(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        for u, v, w in self.edges:
            a[v, u] = w
        a.setflags(write=False)
        return a

    def stochastic_matrix(self) -> np.ndarray:
        """Row-stochastic update matrix: entry (j, i) is the weight of edge i->j."""
        return self._matrix

    def __eq__(self, other):
        return (
            isinstance(other, WeightedDigraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"WeightedDigraph(n={self.n}, edges={len(self.edges)})"


@dataclass(frozen=True)
class ErgodicityReport:
    irreducible: bool
    aperiodic: bool
    period: int


def _sccs(n: int, out_lists) -> list[list[int]]:
    """Strongly connected components, iterative Kosaraju."""
    order: list[int] = []
    seen = [False] * n
    for start in range(n):
        if seen[start]:
            continue
        stack: list[tuple[int, int]] = [(start, 0)]
        seen[start] = True
        while stack:
            node, ptr = stack[-1]
            if ptr < len(out_lists[node]):
                stack[-1] = (node, ptr + 1)
                nxt = out_lists[node][ptr]
                if not seen[nxt]:
                    seen[nxt] = True
                    stack.append((nxt, 0))
            else:
                order.append(node)
                stack.pop()
    rev: list[list[int]] = [[] for _ in range(n)]
    for u in range(n):
        for v in out_lists[u]:
            rev[v].append(u)
    comp = [-1] * n
    comps: list[list[int]] = []
    for start in reversed(order):
        if comp[start] != -1:
            continue
        cid = len(comps)
        members = [start]
        comp[start] = cid
        todo = [start]
        while todo:
            u = todo.pop()
            for v in rev[u]:
                if comp[v] == -1:
                    comp[v] = cid
                    members.append(v)
                    todo.append(v)
        comps.append(members)
    return comps


def _component_period(members: list[int], out_lists) -> int:
    """gcd of cycle lengths within one SCC; 0 if the SCC has no internal edge.

    Uses BFS levels from an arbitrary root: the gcd of level(u) + 1 - level(v)
    over internal edges u->v equals the period of the component.
    """
    inside = set(members)
    root = members[0]
    level = {root: 0}
    queue = [root]
    while queue:
        nxt: list[int] = []
        for u in queue:
            for v in out_lists[u]:
                if v in inside and v not in level:
                    level[v] = level[u] + 1
                    nxt.append(v)
        queue = nxt
    g = 0
    for u in members:
        for v in out_lists[u]:
            if v in inside:
                g = math.gcd(g, level[u] + 1 - level[v])
    return abs(g)


def ergodicity(graph: WeightedDigraph) -> ErgodicityReport:
    """Classify the graph: irreducible (strongly connected) and aperiodic.

    For an irreducible graph the period is the gcd of its cycle lengths. For a
    reducible graph, aperiodic means every cyclic component has period one and
    the reported period is the largest component period.
    """
    comps = _sccs(graph.n, graph.out_lists)
    periods = []
    for members in comps:
        p = _component_period(members, graph.out_lists)
        if p > 0:
            periods.append(p)
    irreducible = len(comps) == 1
    aperiodic = all(p == 1 for p in periods)
    period = 1 if aperiodic else max(periods)
    return ErgodicityReport(irreducible=irreducible, aperiodic=aperiodic, period=period)


def _reachable_avoiding(graph: WeightedDigraph, starts, blocked: set[int]) -> set[int]:
    seen: set[int] = set()
    stack = [s for s in starts if s not in blocked]
    seen.update(stack)
    while stack:
        u = stack.pop()
        for v in graph.out_lists[u]:
            if v not in blocked and v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def is_separating_cutset(graph, sources, targets, cutset) -> bool:
    """Whether every directed source-to-target path meets the cutset.

    Path endpoints count as on the path, so cutset == sources or
    cutset == targets always separates.
    """
    s = node_set(sources, graph.n)
    t = node_set(targets, graph.n)
    if not s or not t:
        raise ValueError("sources and targets must be nonempty")
    c = set(node_set(cutset, graph.n))
    reach = _reachable_avoiding(graph, s, c)
    return not any(v in reach for v in t if v not in c)


def isolated_set(graph, sources, cutset) -> tuple[int, ...]:
    """Nodes outside the cutset that no source reaches while avoiding it."""
    s = node_set(sources, graph.n)
    if not s:
        raise ValueError("sources must be nonempty")
    c = set(node_set(cutset, graph.n))
    reach = _reachable_avoiding(graph, s, c)
    return tuple(v for v in range(graph.n) if v not in c and v not in reach)


class _FlowNet:
    """Tiny max-flow network (BFS augmentation). Sizes here are a few hundred."""

    def __init__(self, size: int):
        self.size = size
        self.adj: list[list[list[int]]] = [[] for _ in range(size)]
        # each arc is [to, capacity, index of reverse arc]

    def add(self, u: int, v: int, cap: int) -> None:
        self.adj[u].append([v, cap, len(self.adj[v])])
        self.adj[v].append([u, 0, len(self.adj[u]) - 1])

    def augment(self, s: int, t: int, limit=math.inf) -> int:
        """Push up to limit units along one shortest residual s-t path; 0 if none."""
        parent: list[Optional[tuple[int, int]]] = [None] * self.size
        parent[s] = (s, -1)
        queue = [s]
        while queue and parent[t] is None:
            nxt = []
            for u in queue:
                for i, arc in enumerate(self.adj[u]):
                    v, cap, _ = arc
                    if cap > 0 and parent[v] is None:
                        parent[v] = (u, i)
                        nxt.append(v)
            queue = nxt
        if parent[t] is None:
            return 0
        path = []
        v = t
        while v != s:
            u, i = parent[v]
            path.append((u, i))
            v = u
        push = min(limit, *(self.adj[u][i][1] for u, i in path))
        for u, i in path:
            arc = self.adj[u][i]
            arc[1] -= push
            self.adj[arc[0]][arc[2]][1] += push
        return push

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        while push := self.augment(s, t):
            flow += push
        return flow

    def residual_components(self) -> list[int]:
        """Strongly connected component id per vertex of the residual graph."""
        residual = [[arc[0] for arc in arcs if arc[1] > 0] for arcs in self.adj]
        comp = [0] * self.size
        for cid, members in enumerate(_sccs(self.size, residual)):
            for u in members:
                comp[u] = cid
        return comp


def _split_network(graph, s_set, t_set, interior_only) -> _FlowNet:
    """Split-vertex flow network whose maximum flow is the vertex cut size.

    Vertex v becomes a unit arc 2v -> 2v+1, added before any other arc at 2v
    so that it is adj[2v][0]; the source is 2n and the sink 2n+1. With
    interior_only, source and target vertices cannot be cut; the caller
    ensures that no source is a target or has an edge to one.
    """
    n = graph.n
    inf = n + 1
    src, snk = 2 * n, 2 * n + 1
    net = _FlowNet(2 * n + 2)
    for v in range(n):
        if not (interior_only and (v in s_set or v in t_set)):
            net.add(2 * v, 2 * v + 1, 1)
    for s in s_set:
        net.add(src, 2 * s + 1 if interior_only else 2 * s, inf)
    for t in t_set:
        net.add(2 * t if interior_only else 2 * t + 1, snk, inf)
    for u, v, _ in graph.edges:
        # paths entering a source restart there, paths leaving a target are
        # already separated by their prefix: such edges impose no constraint
        if u == v or v in s_set or u in t_set:
            continue
        tail = src if (interior_only and u in s_set) else 2 * u + 1
        head = snk if (interior_only and v in t_set) else 2 * v
        net.add(tail, head, inf)
    return net


def min_separating_cutset(graph, sources, targets) -> tuple[int, ...]:
    """Smallest separating cutset, preferring cuts disjoint from the terminals.

    When some cutset avoiding sources and targets exists, the result is the
    minimum-cardinality such cutset, ties broken toward the lexicographically
    smallest node tuple. Only when no terminal-free cutset exists (overlapping
    or adjacent source/target sets) may the result contain terminal nodes.

    Candidates are walked in ascending order and v is taken iff its unit arc
    lies in some minimum cut, so deleting v lowers the maximum flow by one:
    by Picard and Queyranne (1980), iff a maximum flow saturates the arc and
    its ends lie in different strongly connected components of the residual
    graph. Cost: one maximum flow, then O(V + E) per vertex taken.
    """
    s = set(node_set(sources, graph.n))
    t = set(node_set(targets, graph.n))
    if not s or not t:
        raise ValueError("sources and targets must be nonempty")
    interior = s.isdisjoint(t) and not any(u in s and v in t for u, v, _ in graph.edges)
    candidates = [v for v in range(graph.n) if not (interior and (v in s or v in t))]
    net = _split_network(graph, s, t, interior)
    src, snk = 2 * graph.n, 2 * graph.n + 1
    need = net.max_flow(src, snk)
    comp = net.residual_components()
    chosen: list[int] = []
    for v in candidates:
        if need == 0:
            break
        unit = net.adj[2 * v][0]
        if unit[1] == 0 and comp[2 * v] != comp[2 * v + 1]:
            chosen.append(v)
            need -= 1
            # delete the arc; its unit returns from 2v to the source and from
            # the sink to 2v+1, leaving a maximum flow of the network without v
            unit[1] = net.adj[2 * v + 1][unit[2]][1] = 0
            net.augment(2 * v, src, 1)
            net.augment(snk, 2 * v + 1, 1)
            comp = net.residual_components()
    return tuple(chosen)


def random_geometric(n: int, radius: float, seed: int) -> WeightedDigraph:
    """Random geometric consensus graph on the unit square.

    Nodes are placed i.i.d. uniformly on [0,1]^2 and joined bidirectionally
    when within the given radius. Every node gets a self-loop, and all
    incoming weights of a node are equal (one over its in-degree including the
    self-loop). Placements are redrawn from the same seeded stream until the
    underlying undirected graph is connected; after 1000 failures the call
    raises ConnectivityFailure. Identical (n, radius, seed) always yields a
    bit-identical graph.
    """
    n = int(n)
    if n < 2:
        raise ValueError(f"need at least two nodes, got n={n}")
    radius = float(radius)
    if not 0.0 < radius <= math.sqrt(2.0):
        raise ValueError(f"radius must lie in (0, sqrt(2)], got {radius!r}")
    rng = np.random.default_rng(seed)
    for _ in range(1000):
        pts = rng.random((n, 2))
        diff = pts[:, None, :] - pts[None, :, :]
        d2 = diff[..., 0] ** 2 + diff[..., 1] ** 2
        if spanning_bottleneck(d2) > radius * radius:
            continue
        adj = d2 <= radius * radius
        np.fill_diagonal(adj, False)
        edges: list[Edge] = []
        for j in range(n):
            neighbors = np.flatnonzero(adj[:, j])
            w = 1.0 / (len(neighbors) + 1)
            edges.append((j, j, w))
            for i in neighbors:
                edges.append((int(i), j, w))
        return WeightedDigraph(n, edges, positions=pts)
    raise ConnectivityFailure(
        f"no connected placement in 1000 attempts (n={n}, radius={radius}, seed={seed})"
    )


def network_json(graph: WeightedDigraph, sources, targets) -> str:
    """Network file content as a JSON string (sorted keys, trailing newline).

    Required keys: n, edges, sources, targets. A positions key is added when
    the graph carries planar coordinates. Weights are floats that round-trip
    exactly through JSON.
    """
    s = node_set(sources, graph.n)
    t = node_set(targets, graph.n)
    if not s or not t:
        raise ValueError("sources and targets must be nonempty")
    obj = {
        "n": graph.n,
        "edges": [[u, v, w] for u, v, w in graph.edges],
        "sources": list(s),
        "targets": list(t),
    }
    if graph.positions is not None:
        obj["positions"] = [[float(x), float(y)] for x, y in graph.positions]
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def save_network(path, graph: WeightedDigraph, sources, targets) -> None:
    """Write a network JSON file; see network_json for the layout."""
    text = network_json(graph, sources, targets)  # raises before the file is opened
    with open(path, "w") as fh:
        fh.write(text)


def load_network(path) -> tuple[WeightedDigraph, tuple[int, ...], tuple[int, ...]]:
    """Read a network file as network_json writes it; returns (graph, sources, targets)."""
    with open(path) as fh:
        obj = json.load(fh)
    keys = ("edges", "sources", "targets", "positions")
    if not isinstance(obj, dict) or not all(isinstance(obj.get(k, []), list) for k in keys):
        raise ValueError(f"{path}: edges, sources, targets and positions must be lists")
    if not all(isinstance(e, list) and len(e) == 3 and isinstance(e[2], (int, float))
               for e in obj["edges"]):
        raise ValueError(f"{path}: every edge must be [from, to, weight]")
    graph = WeightedDigraph(obj["n"], obj["edges"], positions=obj.get("positions"))
    return graph, node_set(obj["sources"], graph.n), node_set(obj["targets"], graph.n)
