"""Per-layer timing of netctl, taken from outside at its public boundaries.

Installing a Tracer replaces every public function of the netctl layer
modules, at every module attribute it is bound to (netctl modules import
each other by name, so one function can have several bindings), and the
__init__ of every public non-dataclass class, with a wrapper that records a
span. numpy.linalg.eigvalsh gets a span too, so its calls from netctl are
counted. Spans nest through a stack: a span's self time is its duration
minus the time its child spans cover. The tracer keeps per-name totals in
memory; nothing is written until the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import statistics
import sys
from time import perf_counter

import numpy as np

LAYERS = ("netgraph", "kernels", "gramian", "metrics", "dynamics", "audit", "cli")
FIELDS = ("calls", "total_s", "self_s")


class Tracer:
    def __init__(self):
        # name -> [calls, total seconds, self seconds]
        self.stats: dict[str, list] = {}
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []
        # distinct (system, horizon) pairs given to compute_gramian; the
        # systems are held so that their ids stay unique for the whole run
        self.gramian_pairs: set[tuple[int, int]] = set()
        self._held: list = []

    def _open(self, name: str) -> None:
        self._stack.append([name, perf_counter(), 0.0])

    def _close(self) -> None:
        name, start, child = self._stack.pop()
        duration = perf_counter() - start
        if self._stack:
            self._stack[-1][2] += duration
        rec = self.stats.get(name)
        if rec is None:
            rec = self.stats[name] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += duration
        rec[2] += duration - child

    def wrap(self, name, fn):
        """fn with a span around each call; name may be a function of the call's arguments."""
        open_, close = self._open, self._close
        named = callable(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_(name(*args, **kwargs) if named else name)
            try:
                return fn(*args, **kwargs)
            finally:
                close()

        return traced

    def _note_build(self, fn):
        pairs, held = self.gramian_pairs, self._held

        @functools.wraps(fn)
        def noting(system, kf, *args, **kwargs):
            key = (id(system), int(kf))
            if key not in pairs:
                pairs.add(key)
                held.append(system)
            return fn(system, kf, *args, **kwargs)

        return noting

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap netctl's public functions; netctl must already be imported."""
        replacement: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = sys.modules[f"netctl.{layer}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isfunction(obj):
                    if layer == "cli":
                        # the parser and subcommand bodies run inside main:
                        # one span per main call, cli.<subcommand>, covers
                        # parsing and output together
                        if attr != "main":
                            continue
                        wrapped = self.wrap(_cli_span_name, obj)
                    elif name == "gramian.compute_gramian":
                        wrapped = self.wrap(name, self._note_build(obj))
                    else:
                        wrapped = self.wrap(name, obj)
                    replacement[id(obj)] = (obj, wrapped)
                elif (
                    inspect.isclass(obj)
                    and "__init__" in vars(obj)
                    and not dataclasses.is_dataclass(obj)
                ):
                    self._patch(obj, "__init__", self.wrap(name, obj.__init__))
        netctl_modules = [
            m for key, m in list(sys.modules.items())
            if key == "netctl" or key.startswith("netctl.")
        ]
        for module in netctl_modules:
            for attr, obj in list(vars(module).items()):
                hit = replacement.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(module, attr, hit[1])
        self._patch(np.linalg, "eigvalsh", self.wrap("kernels.eigvalsh", np.linalg.eigvalsh))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def value(self, metric: str):
        """calls, total_s or self_s of a span name, e.g. 'gramian.left_perron.total_s'."""
        key, field = metric.rsplit(".", 1)
        if field not in FIELDS:
            raise KeyError(metric)
        rec = self.stats.get(key, (0, 0.0, 0.0))
        return rec[FIELDS.index(field)]

    def builds_per_horizon(self) -> float:
        calls = self.stats.get("gramian.compute_gramian", (0,))[0]
        return calls / len(self.gramian_pairs) if self.gramian_pairs else 0.0

    def span_count(self) -> int:
        return sum(rec[0] for rec in self.stats.values())


def _cli_span_name(argv=None, *args, **kwargs) -> str:
    return f"cli.{argv[0]}" if argv else "cli.main"


def span_cost(repeats: int = 5, calls: int = 20000) -> float:
    """Seconds one traced call adds over a plain call, nested in a parent span."""

    def noop():
        return None

    costs = []
    for _ in range(repeats):
        probe = Tracer()
        traced = probe.wrap("probe", noop)
        probe._open("parent")
        t0 = perf_counter()
        for _ in range(calls):
            traced()
        t1 = perf_counter()
        for _ in range(calls):
            noop()
        t2 = perf_counter()
        probe._close()
        costs.append(((t1 - t0) - (t2 - t1)) / calls)
    return max(0.0, statistics.median(costs))
