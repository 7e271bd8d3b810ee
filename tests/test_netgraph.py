"""Graph layer tests: validation, ergodicity, cutsets, random generator."""

import json

import numpy as np
import pytest

import support
from netctl import (
    ConnectivityFailure,
    DuplicateEdge,
    IndexOutOfRange,
    RowSumError,
    WeightedDigraph,
    ergodicity,
    is_separating_cutset,
    isolated_set,
    load_network,
    min_separating_cutset,
    network_json,
    node_set,
    random_geometric,
    save_network,
)
from netctl import netgraph

TWO_NODE_EDGES = [(0, 0, 0.5), (1, 0, 0.5), (0, 1, 0.5), (1, 1, 0.5)]
CHAIN_EDGES = [
    (0, 0, 0.5),
    (1, 0, 0.5),
    (0, 1, 1 / 3),
    (1, 1, 1 / 3),
    (2, 1, 1 / 3),
    (1, 2, 0.5),
    (2, 2, 0.5),
]


def path_graph(n):
    """Undirected path 0-1-...-(n-1) with self-loops, equal incoming weights."""
    pairs = {}
    for v in range(n):
        incoming = [v]
        if v > 0:
            incoming.append(v - 1)
        if v < n - 1:
            incoming.append(v + 1)
        for u in incoming:
            pairs[(u, v)] = 1.0 / len(incoming)
    return WeightedDigraph(n, [(u, v, w) for (u, v), w in sorted(pairs.items())])


class TestBuildGraph:
    def test_two_node_matrix(self):
        g = WeightedDigraph(2, TWO_NODE_EDGES)
        np.testing.assert_allclose(g.stochastic_matrix(), [[0.5, 0.5], [0.5, 0.5]])

    def test_row_sum_violation(self):
        with pytest.raises(RowSumError) as info:
            WeightedDigraph(2, [(0, 0, 0.6), (1, 0, 0.5), (0, 1, 0.5), (1, 1, 0.5)])
        assert info.value.node == 0
        assert abs(info.value.total - 1.1) < 1e-12

    def test_chain_matrix(self):
        g = WeightedDigraph(3, CHAIN_EDGES)
        expected = [[0.5, 0.5, 0], [1 / 3, 1 / 3, 1 / 3], [0, 0.5, 0.5]]
        np.testing.assert_allclose(g.stochastic_matrix(), expected)

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdge):
            WeightedDigraph(2, [(0, 0, 0.5), (0, 0, 0.5), (1, 0, 0.5), (0, 1, 1.0), (1, 1, 0.0)])

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            WeightedDigraph(2, [(0, 2, 1.0), (0, 0, 1.0), (1, 1, 1.0)])

    def test_nonpositive_weight(self):
        with pytest.raises(ValueError):
            WeightedDigraph(1, [(0, 0, 0.0)])

    def test_orientation(self):
        # edge u->v contributes to row v of A
        g = WeightedDigraph(2, [(0, 1, 1.0), (0, 0, 1.0)])
        a = g.stochastic_matrix()
        assert a[1, 0] == 1.0 and a[0, 1] == 0.0


class TestNodeSet:
    def test_sorts_and_dedupes(self):
        assert node_set([3, 1, 3, 0], 5) == (0, 1, 3)

    def test_range_check(self):
        with pytest.raises(IndexOutOfRange):
            node_set([0, 5], 5)
        with pytest.raises(IndexOutOfRange):
            node_set([-1], 5)


class TestErgodicity:
    def test_two_node_ergodic(self):
        rep = ergodicity(WeightedDigraph(2, TWO_NODE_EDGES))
        assert rep.irreducible and rep.aperiodic and rep.period == 1

    def test_two_cycle_periodic(self):
        g = WeightedDigraph(2, [(1, 0, 1.0), (0, 1, 1.0)])
        rep = ergodicity(g)
        assert rep.irreducible
        assert not rep.aperiodic
        assert rep.period == 2

    def test_disconnected(self):
        g = WeightedDigraph(2, [(0, 0, 1.0), (1, 1, 1.0)])
        rep = ergodicity(g)
        assert not rep.irreducible

    def test_longer_period(self):
        # directed 3-cycle
        g = WeightedDigraph(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
        rep = ergodicity(g)
        assert rep.irreducible and rep.period == 3


class TestSeparation:
    def test_chain_interior(self):
        g = WeightedDigraph(3, CHAIN_EDGES)
        assert is_separating_cutset(g, [0], [2], [1])

    def test_chain_empty_fails(self):
        g = WeightedDigraph(3, CHAIN_EDGES)
        assert not is_separating_cutset(g, [0], [2], [])

    def test_endpoint_convention(self):
        g = WeightedDigraph(3, CHAIN_EDGES)
        assert is_separating_cutset(g, [0], [2], [0])
        assert is_separating_cutset(g, [0], [2], [2])

    def test_isolated_set_chain(self):
        g = WeightedDigraph(3, CHAIN_EDGES)
        assert isolated_set(g, [0], [1]) == (2,)
        assert isolated_set(g, [0], []) == ()

    def test_isolated_set_two_node(self):
        g = WeightedDigraph(2, TWO_NODE_EDGES)
        assert isolated_set(g, [0], [0]) == (1,)

    def test_separation_matches_isolation(self):
        """C separates S from T iff every target is in C or isolated by C."""
        rng = np.random.default_rng(17)
        for trial in range(25):
            sysr = support.random_ergodic_system([17, trial], n_low=4, n_high=7)
            g = sysr.graph
            s = list(sysr.sources)
            t = list(sysr.targets)
            cut = sorted(
                rng.choice(g.n, size=rng.integers(1, g.n), replace=False).tolist()
            )
            lib = is_separating_cutset(g, s, t, cut)
            iso = set(isolated_set(g, s, cut)) | set(cut)
            assert lib == all(x in iso for x in t)
            assert lib == support.separates(g, s, t, frozenset(cut))


class TestMinCutset:
    def test_chain(self):
        g = WeightedDigraph(3, CHAIN_EDGES)
        assert min_separating_cutset(g, [0], [2]) == (1,)

    def test_two_node_endpoint_tiebreak(self):
        g = WeightedDigraph(2, TWO_NODE_EDGES)
        assert min_separating_cutset(g, [0], [1]) == (0,)

    def test_five_path_lex(self):
        g = path_graph(5)
        assert min_separating_cutset(g, [0], [4]) == (1,)

    def test_against_brute_force(self):
        """Exhaustive subset search agrees on random small graphs."""
        for trial in range(30):
            sysr = support.random_ergodic_system([91, trial], n_low=4, n_high=7)
            g = sysr.graph
            s = list(sysr.sources)
            t = list(sysr.targets)
            got = min_separating_cutset(g, s, t)
            want = support.brute_min_cutset(g, s, t)
            assert got == want, f"trial {trial}: {got} != {want}"
            assert is_separating_cutset(g, s, t, got)

    def test_against_flow_oracle(self):
        """The greedy definition on scipy's max flow agrees on larger graphs."""
        modes = set()
        for trial in range(60):
            rng = np.random.default_rng([92, trial])
            n = int(rng.integers(10, 61))
            g = support.random_digraph(rng, n, degree=rng.uniform(1.0, 3.0))
            s = rng.choice(n, size=int(rng.integers(1, 4)), replace=False).tolist()
            if trial % 6 == 0:  # overlapping terminals
                t = [s[0]] + rng.choice(n, size=int(rng.integers(0, 3))).tolist()
            elif trial % 6 == 1 and len(g.out_lists[s[0]]) > 1:  # adjacent terminals
                t = [v for v in g.out_lists[s[0]] if v != s[0]][-1:]
            else:
                rest = np.setdiff1d(np.arange(n), s)
                t = rng.choice(rest, size=int(rng.integers(1, 4)), replace=False).tolist()
            got = min_separating_cutset(g, s, t)
            assert got == support.greedy_min_cutset(g, s, t), f"trial {trial}"
            assert is_separating_cutset(g, s, t, got)
            modes.add(bool(set(got) & set(s + t)))
        assert modes == {False, True}

    def test_max_flows_bounded_by_cutset(self, monkeypatch):
        """Max flow runs grow with the cutset, not with the number of nodes."""
        g = random_geometric(200, 0.15, 7)
        hops = {0: 0}
        queue = [0]
        for u in queue:
            for v in g.out_lists[u]:
                if v not in hops:
                    hops[v] = hops[u] + 1
                    queue.append(v)
        far = sorted(hops, key=lambda v: (hops[v], v))[-2:]
        calls = []
        flow = netgraph._FlowNet.max_flow

        def counting_flow(net, *args):
            calls.append(1)
            return flow(net, *args)

        monkeypatch.setattr(netgraph._FlowNet, "max_flow", counting_flow)
        cut = min_separating_cutset(g, [0], far)
        assert cut and is_separating_cutset(g, [0], far, cut)
        assert len(calls) <= len(cut) + 2


class TestRandomGeometric:
    def test_deterministic(self):
        a = random_geometric(12, 0.5, seed=3)
        b = random_geometric(12, 0.5, seed=3)
        assert a == b
        assert network_json(a, [0], [1]) == network_json(b, [0], [1])

    def test_two_node_complete(self):
        g = random_geometric(2, 1.4, seed=1)
        np.testing.assert_allclose(g.stochastic_matrix(), [[0.5, 0.5], [0.5, 0.5]])

    def test_self_loops_and_equal_weights(self):
        g = random_geometric(15, 0.4, seed=2)
        a = g.stochastic_matrix()
        assert np.all(np.diag(a) > 0)
        for v in range(g.n):
            incoming = a[v, a[v] > 0]
            # all incoming weights to a node are identical
            np.testing.assert_allclose(incoming, incoming[0])
            np.testing.assert_allclose(incoming[0], 1.0 / len(incoming))

    def test_always_ergodic(self):
        for seed in range(5):
            rep = ergodicity(random_geometric(10, 0.45, seed=seed))
            assert rep.irreducible and rep.aperiodic

    def test_positions_in_unit_square(self):
        g = random_geometric(8, 0.6, seed=9)
        assert g.positions.shape == (8, 2)
        assert np.all(g.positions >= 0) and np.all(g.positions <= 1)

    def test_connectivity_failure(self):
        with pytest.raises(ConnectivityFailure):
            random_geometric(20, 1e-4, seed=0)

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            random_geometric(5, 0.0, seed=0)
        with pytest.raises(ValueError):
            random_geometric(1, 0.5, seed=0)

    @pytest.mark.parametrize("n, radius, seed, draws", [(100, 0.15, 7, 7), (50, 0.2, 0, 2)])
    def test_matches_components_oracle(self, n, radius, seed, draws):
        """Rejected placements are the ones scipy's components call disconnected."""
        expected, drawn = support.geometric_draws(n, radius, seed)
        assert drawn == draws
        got = network_json(random_geometric(n, radius, seed), [0], [1])
        assert got == network_json(expected, [0], [1])


class TestNetworkFile:
    def test_roundtrip(self, tmp_path):
        g = random_geometric(9, 0.5, seed=4)
        path = tmp_path / "net.json"
        save_network(path, g, [0, 2], [5, 3, 5])
        g2, s, t = load_network(path)
        assert g2 == g
        assert s == (0, 2)
        assert t == (3, 5)
        np.testing.assert_array_equal(g2.positions, g.positions)

    def test_keys_sorted(self, tmp_path):
        g = WeightedDigraph(2, TWO_NODE_EDGES)
        path = tmp_path / "net.json"
        save_network(path, g, [0], [1])
        obj = json.loads(path.read_text())
        assert list(obj) == sorted(obj)
        assert obj["n"] == 2

    @pytest.mark.parametrize("sources, targets", [([], [1]), ([0], [])])
    def test_empty_node_set_writes_nothing(self, tmp_path, sources, targets):
        """No reader accepts a file without sources or targets."""
        path = tmp_path / "net.json"
        with pytest.raises(ValueError, match="must be nonempty"):
            save_network(path, WeightedDigraph(2, TWO_NODE_EDGES), sources, targets)
        assert not path.exists()

    def test_weights_roundtrip_exactly(self, tmp_path):
        g = random_geometric(7, 0.6, seed=8)
        path = tmp_path / "net.json"
        save_network(path, g, [0], [1])
        g2, _, _ = load_network(path)
        assert np.array_equal(g2.stochastic_matrix(), g.stochastic_matrix())
