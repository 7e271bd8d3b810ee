"""The benchmark's workloads: inputs made from a seed, and passes of netctl
operations whose outputs are kept for the oracle.

A workload has two parts. setup(seed, workdir) makes its inputs (this is
what setup_s times in a fresh process). run_pass(inputs, verdicts) yields
one pass's operations one at a time; each operation times its netctl calls
only and keeps what they returned. check.py compares the kept outputs with
the oracle after the measured passes, so that neither the oracle's imports
nor its arrays are in the measured process while netctl runs.

This module imports numpy and netctl and nothing of the oracle.

Verdicts are not failures. Exit codes are counted per command here, and
check.py adds the ids of violated audit checks. Exit 5 (audit violation)
is a verdict, and so is exit 3 (not controllable) where the oracle's
condition number cannot rule it out. An operation fails when it raises,
exits with any other non-zero code, or disagrees with the oracle.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from collections import Counter, deque
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import netctl
from netctl import cli

COMMANDS = ("metrics", "node-energies", "audit", "verify")
NOT_CONTROLLABLE = "not_controllable"
RAISED = "raised"


@dataclass
class Call:
    """What one command or API call gave: its exit code (or NOT_CONTROLLABLE
    or RAISED) and its output, kept for the oracle."""

    code: object
    out: object = None


@dataclass
class Op:
    """One operation: seconds per command it ran, their outputs, oracle findings."""

    index: int = 0
    seconds: float = 0.0
    cmds: dict = field(default_factory=dict)
    calls: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    max_energy_rel_err: float = 0.0


@dataclass
class Verdicts:
    exit_codes: Counter = field(default_factory=Counter)  # "cmd:code" -> count
    violations: Counter = field(default_factory=Counter)  # check id -> count

    def as_dict(self) -> dict:
        return {
            "exit_codes": dict(sorted(self.exit_codes.items())),
            "violated_checks": dict(sorted(self.violations.items())),
        }


def _timed(op: Op, cmd: str, fn):
    t0 = perf_counter()
    try:
        return fn()
    finally:
        dt = perf_counter() - t0
        op.seconds += dt
        op.cmds[cmd] = op.cmds.get(cmd, 0.0) + dt


def _call(op: Op, cmd: str, fn, verdicts: Verdicts, exit_code=None):
    """Time an API call and keep its result; None when it raised.

    exit_code maps the result to the code the CLI would exit with (0 if not
    given). A NotControllable is judged by the oracle later; any other
    exception fails the operation.
    """
    try:
        out = _timed(op, cmd, fn)
    except netctl.NotControllable:
        verdicts.exit_codes[f"{cmd}:3"] += 1
        op.calls[cmd] = Call(NOT_CONTROLLABLE)
        return None
    except Exception as exc:  # a crash is a failed operation, not a stopped run
        verdicts.exit_codes[f"{cmd}:{RAISED}"] += 1
        op.calls[cmd] = Call(RAISED)
        op.errors.append(f"{cmd} raised {type(exc).__name__}: {exc}")
        return None
    verdicts.exit_codes[f"{cmd}:{exit_code(out) if exit_code else 0}"] += 1
    op.calls[cmd] = Call(0, out)
    return out


# ---------------------------------------------------------------------------
# CLI workloads on one geometric network


@dataclass(frozen=True)
class NetworkSpec:
    n: int
    radius: float
    graph_seed: int
    targets: int
    kf: int
    commands: tuple  # run in this order, each once per pass


@dataclass
class NetworkInputs:
    workdir: str
    net: str
    goal_csv: str
    goal: np.ndarray
    kf: int
    seed: int


def bfs_hops(n: int, edges, source: int) -> list:
    """Directed hop distance from source to every node."""
    out = [[] for _ in range(n)]
    for u, v, _ in edges:
        out[int(u)].append(int(v))
    dist = [-1] * n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in out[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


class NetworkWorkload:
    """metrics --goal, node-energies, audit and verify on one network file.

    The network itself is fixed by the spec; the seed draws the goal vector
    and the audit's sampling seed.
    """

    def __init__(self, spec: NetworkSpec):
        self.spec = spec

    def setup(self, seed: int, workdir: str) -> NetworkInputs:
        s = self.spec
        graph = netctl.random_geometric(s.n, s.radius, s.graph_seed)
        hops = bfs_hops(s.n, graph.edges, 0)
        # the farthest nodes by hops, ties to lower ids
        targets = sorted(sorted(range(s.n), key=lambda i: (-hops[i], i))[: s.targets])
        net = os.path.join(workdir, "net.json")
        with open(net, "w", encoding="utf-8") as fh:
            fh.write(netctl.network_json(graph, [0], targets))
        goal = np.random.default_rng([seed, s.n]).standard_normal(s.targets)
        goal_csv = os.path.join(workdir, "goal.csv")
        np.savetxt(goal_csv, goal.reshape(-1, 1), fmt="%.17g")
        return NetworkInputs(workdir, net, goal_csv, goal, s.kf, seed)

    def _cli(self, op: Op, cmd: str, argv: list, verdicts: Verdicts):
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                rc = _timed(op, cmd, lambda: cli.main(argv))
        except Exception as exc:  # a crash is a failed operation, not a stopped run
            verdicts.exit_codes[f"{cmd}:{RAISED}"] += 1
            op.calls[cmd] = Call(RAISED)
            op.errors.append(f"{cmd} raised {type(exc).__name__}: {exc}")
            return None
        verdicts.exit_codes[f"{cmd}:{rc}"] += 1
        op.calls[cmd] = Call(rc)
        return rc

    def _out(self, inputs: NetworkInputs, name: str) -> str:
        path = os.path.join(inputs.workdir, name)
        if os.path.exists(path):
            os.remove(path)
        return path

    def run_pass(self, inputs: NetworkInputs, verdicts: Verdicts):
        run = {"metrics": self._metrics, "node-energies": self._node_energies,
               "audit": self._audit, "verify": self._verify}
        for cmd in self.spec.commands:
            yield run[cmd](inputs, verdicts)

    def _metrics(self, inputs, verdicts) -> Op:
        op = Op()
        report, u_csv = self._out(inputs, "report.json"), self._out(inputs, "u.csv")
        argv = ["metrics", "--net", inputs.net, "--kf", str(inputs.kf), "--goal", inputs.goal_csv,
                "--input-out", u_csv, "--out", report]
        if self._cli(op, "metrics", argv, verdicts) == 0:
            with open(report, encoding="utf-8") as fh:
                rep = json.load(fh)
            op.calls["metrics"].out = (rep, np.loadtxt(u_csv, delimiter=",", ndmin=2))
        return op

    def _node_energies(self, inputs, verdicts) -> Op:
        op = Op()
        out = self._out(inputs, "energies.csv")
        argv = ["node-energies", "--net", inputs.net, "--kf", str(inputs.kf), "--out", out]
        if self._cli(op, "node-energies", argv, verdicts) == 0:
            with open(out, encoding="utf-8") as fh:
                op.calls["node-energies"].out = [line.split(",") for line in fh.read().splitlines()]
        return op

    def _audit(self, inputs, verdicts) -> Op:
        """All theorems at the default horizons kf, 2kf, 4kf, on the minimum cutset."""
        op = Op()
        out = self._out(inputs, "audit.json")
        argv = ["audit", "--net", inputs.net, "--kf", str(inputs.kf), "--seed", str(inputs.seed),
                "--min-cutset", "--out", out]
        if self._cli(op, "audit", argv, verdicts) in (0, 5):
            with open(out, encoding="utf-8") as fh:
                op.calls["audit"].out = json.load(fh)["checks"]
        return op

    def _verify(self, inputs, verdicts) -> Op:
        op = Op()

        def call():
            graph, sources, targets = netctl.load_network(inputs.net)
            system = netctl.ConsensusSystem(graph, sources, targets)
            return netctl.verify_optimal_input(system, inputs.kf, inputs.goal)

        _call(op, "verify", call, verdicts)
        return op


# ---------------------------------------------------------------------------
# API sweep over a population of small random systems


@dataclass
class SmallSystem:
    n: int
    edges: list
    sources: list
    targets: list
    kf: int
    goal: np.ndarray


def positive_horizon(n: int, edges, sources, targets) -> int:
    """Least k with (A^(k-1))[l, z] > 0 for every target l and source z."""
    pattern = np.zeros((n, n), dtype=bool)
    for u, v, w in edges:
        pattern[int(v), int(u)] |= w != 0
    reach = np.zeros((n, len(sources)), dtype=bool)
    for col, z in enumerate(sources):
        reach[z, col] = True
    rows = list(targets)
    for k in range((n - 1) ** 2 + 2):
        if reach[rows].all():
            return k + 1
        reach = (pattern.astype(int) @ reach) != 0
    raise ValueError("graph is not ergodic")


def random_system(rng: np.random.Generator) -> SmallSystem:
    """A random ergodic digraph with one source and two targets.

    A directed cycle through all nodes makes it strongly connected and at
    least one self-loop makes it aperiodic. Incoming weights are uniform on
    [0.2, 1], normalized per node. The horizon is k* + 20.
    """
    n = int(rng.integers(3, 11))
    order = rng.permutation(n)
    pairs = {(int(order[i]), int(order[(i + 1) % n])) for i in range(n)}
    extra = rng.random((n, n)) < 0.3
    pairs |= {(u, v) for u in range(n) for v in range(n) if u != v and extra[u, v]}
    loops = rng.random(n) < 0.5
    loops[rng.integers(n)] = True
    pairs |= {(v, v) for v in range(n) if loops[v]}
    edges = []
    for v in range(n):
        tails = sorted(u for u, w in pairs if w == v)
        weights = rng.uniform(0.2, 1.0, len(tails))
        weights /= weights.sum()
        edges.extend((u, v, float(w)) for u, w in zip(tails, weights))
    sources = [int(rng.integers(n))]
    targets = sorted(int(t) for t in rng.choice(n, 2, replace=False))
    kf = positive_horizon(n, edges, sources, targets) + 20
    return SmallSystem(n, edges, sources, targets, kf, rng.standard_normal(2))


@dataclass
class SweepInputs:
    systems: list
    seed: int


class SweepWorkload:
    """Per system, via the API: the T1, C1 and T2 audits and verify_optimal_input."""

    # BENCHMARK.json leaves this workload out, so its reason lives here
    why = ("kernels/metrics per-call overhead on 150 tiny systems. Not bounded: its "
           "Python-bound passes spread 0.2-0.65 between runs on a shared 2-CPU host")

    def __init__(self, size: int, samples: int):
        self.size, self.samples = size, samples

    def setup(self, seed: int, workdir: str) -> SweepInputs:
        rng = np.random.default_rng([seed, 150])
        return SweepInputs([random_system(rng) for _ in range(self.size)], seed)

    def run_pass(self, inputs: SweepInputs, verdicts: Verdicts):
        for i, s in enumerate(inputs.systems):
            yield self._system(i, s, inputs.seed + i, verdicts)

    def _system(self, index: int, s: SmallSystem, audit_seed: int, verdicts: Verdicts) -> Op:
        op = Op(index=index)
        system = _call(
            op, "load",
            lambda: netctl.ConsensusSystem(netctl.WeightedDigraph(s.n, s.edges), s.sources, s.targets),
            verdicts)
        if system is None:
            return op
        _call(op, "audit", lambda: netctl.merge_reports(
            netctl.audit_theorem1(system, s.targets, s.kf),
            netctl.audit_corollary1(system, s.targets, s.kf),
            netctl.audit_theorem2(system, s.kf, samples=self.samples, seed=audit_seed),
        ), verdicts, exit_code=lambda r: 5 if r.violations() else 0)
        _call(op, "verify", lambda: netctl.verify_optimal_input(system, s.kf, s.goal), verdicts)
        return op


WORKLOADS = {
    # README workflow at mid size. The seed network exits 5 on T5.3 here.
    "geo_audit": NetworkWorkload(NetworkSpec(
        n=500, radius=0.1, graph_seed=7, targets=2, kf=500,
        commands=("metrics", "node-energies", "audit"))),
    # per-call overhead regime: about 150 tiny systems, one operation each
    "sweep_small": SweepWorkload(size=150, samples=100),
    # top of the size ladder
    "scale_n1000": NetworkWorkload(NetworkSpec(
        n=1000, radius=0.08, graph_seed=7, targets=4, kf=1000,
        commands=("metrics", "node-energies", "verify"))),
}
