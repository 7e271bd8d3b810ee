"""netctl benchmark: seeded workloads timed end to end, or traced per layer.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--trace 0|1]

Run from anywhere; the script finds the repository root next to its own
directory and imports netctl from <root>/src. BENCHMARK.json at the root
names the bounded workloads and metrics, with their units.

--trace 0 reports the end-to-end metrics, with tracing off. --trace 1
installs the tracer (tracer.py) and reports the per-layer metrics instead.
--workload all runs every workload in its own process and prints a table.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it is a JSON
report with sample counts, verdicts, oracle findings and machine facts.
The exit code is 0 when every operation agreed with the oracle. Each run
measures for run_seconds from BENCHMARK.json; --seconds is accepted only
with that value.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS to one thread before numpy loads, so that one process makes all
# the load; a second thread did not speed up the n = 1000 Gramian build on a
# 2-CPU machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
# setup_s comes from this many fresh-process set-ups per run
SETUP_REPEATS = 7
# op_p90_s needs at least this many operations in a run
P90_MIN_OPS = 100
# Every end-to-end value a run measures. BENCHMARK.json bounds the steady
# ones; the rest are printed and reported beside them.
E2E_UNITS = {
    "setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_p90_s": "s",
    "cmd.metrics_s": "s", "cmd.node-energies_s": "s", "cmd.audit_s": "s", "cmd.verify_s": "s",
    "ops_failed_frac": "ratio", "peak_rss_mb": "MB", "energy_rel_err": "ratio",
    "energy_digits": "digits",
}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def import_netctl() -> None:
    """Import netctl from this checkout's src, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "netctl", "__init__.py")):
        raise SystemExit(f"error: no netctl sources under {SRC}")
    sys.path.insert(0, SRC)
    import netctl

    if os.path.dirname(os.path.dirname(os.path.abspath(netctl.__file__))) != SRC:
        raise SystemExit(f"error: netctl imported from {netctl.__file__}, not {SRC}")


def workdir() -> str:
    os.makedirs(WORK_ROOT, exist_ok=True)
    return tempfile.mkdtemp(dir=WORK_ROOT)


def machine_facts() -> dict:
    import mpmath
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": BLAS_THREADS,
    }


def setup_probe(args) -> int:
    """The set-up that setup_s times: import netctl, generate the inputs."""
    import workloads

    path = workdir()
    try:
        workloads.WORKLOADS[args.workload].setup(args.seed, path)
    finally:
        shutil.rmtree(path, ignore_errors=True)
    return 0


class SetupTimer:
    """Times SETUP_REPEATS fresh-process set-ups, spread evenly over the run.

    The host's speed drifts in phases of seconds to minutes, so set-ups taken
    back to back would all land in one phase; spread over the run, they see
    the same mix of phases as the measured passes.
    """

    def __init__(self, args, seconds: float):
        self.argv = [sys.executable, os.path.abspath(__file__), "--setup-probe",
                     "--workload", args.workload, "--seed", str(args.seed)]
        self.every = seconds / SETUP_REPEATS
        self.times = []

    def _once(self) -> None:
        t0 = perf_counter()
        subprocess.run(self.argv, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        self.times.append(perf_counter() - t0)

    def between_ops(self, measured: float) -> None:
        """Called after each operation with the netctl time measured so far."""
        if len(self.times) < SETUP_REPEATS and measured >= len(self.times) * self.every:
            self._once()

    def finish(self) -> list:
        while len(self.times) < SETUP_REPEATS:
            self._once()
        return self.times


def measure(wl, inputs, seconds: float, verdicts, setup_timer=None) -> list:
    """Whole passes while the next one is expected to fit in the budget; at
    least one. The budget and a pass's wall time count netctl time only:
    the sum of the operations' timed calls, without set-up probes."""
    passes, walls, measured = [], [], 0.0
    while True:
        ops = []
        for op in wl.run_pass(inputs, verdicts):
            ops.append(op)
            measured += op.seconds
            if setup_timer:
                setup_timer.between_ops(measured)
        passes.append(ops)
        walls.append(sum(op.seconds for op in ops))
        if measured + statistics.median(walls) > seconds:
            return passes


def run_one(args, spec: dict) -> int:
    import netctl
    import tracer
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    gated = {w["name"]: w["why"] for w in spec["workloads"]}
    seconds = spec["run_seconds"]
    path = workdir()
    trace = tracer.Tracer() if args.trace else None
    setup_timer = None if args.trace else SetupTimer(args, seconds)
    verdicts = workloads.Verdicts()
    try:
        inputs = wl.setup(args.seed, path)
        if trace:
            trace.install()
        try:
            passes = measure(wl, inputs, seconds, verdicts, setup_timer)
        finally:
            if trace:
                trace.uninstall()
        # read before the oracle is imported, so that it counts netctl only
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup_times = setup_timer.finish() if setup_timer else []

        import check
        import oracle

        refs = check.prepare(inputs)
        for op in (op for p in passes for op in p):
            check.check_op(op, inputs, refs, verdicts)
    finally:
        shutil.rmtree(path, ignore_errors=True)

    ops = [op for p in passes for op in p]
    walls = [sum(op.seconds for op in p) for p in passes]
    failed = [op for op in ops if op.errors]
    max_rel = max(op.max_energy_rel_err for op in ops)
    reference_ok = refs["reference_check"] <= oracle.REFERENCE_RTOL
    report = {
        "workload": args.workload,
        "why": gated[args.workload] if args.workload in gated else wl.why,
        "in_benchmark_json": args.workload in gated,
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "netctl": netctl.__version__,
        "machine": machine_facts(),
        "passes": len(passes),
        "pass_walls_s": walls,
        "reference_vs_mpmath_rel_err": refs["reference_check"],
        "verdicts": verdicts.as_dict(),
        "failures": [e for op in failed for e in op.errors][:20],
    }
    if not reference_ok:
        report["failures"].insert(0, "float64 reference disagrees with the 50-digit solve")
    if trace:
        cost = tracer.span_cost() * trace.span_count()
        traced = sum(walls)
        report["spans"] = trace.span_count()
        report["layers"] = {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                            for k, v in sorted(trace.stats.items())}
        values = {}
        # counts and times per pass, so runs with more passes compare
        for m in spec["per_layer"]:
            name = m["name"]
            if name == "gramian.builds_per_horizon":
                values[name] = trace.builds_per_horizon()
            elif name == "trace.overhead_frac":
                values[name] = cost / max(traced - cost, 1e-9)
            else:
                values[name] = trace.value(name) / len(passes)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        op_times = [op.seconds for op in ops]
        cmd_times = {c: [op.cmds[c] for op in ops if c in op.cmds] for c in workloads.COMMANDS}
        cmd_times = {c: t for c, t in cmd_times.items() if t}
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(walls),
            "op_p50_s": statistics.median(op_times),
            "op_p90_s": (statistics.quantiles(op_times, n=10, method="inclusive")[-1]
                         if len(op_times) >= P90_MIN_OPS else None),
            **{f"cmd.{c}_s": statistics.median(t) for c, t in cmd_times.items()},
            "ops_failed_frac": len(failed) / len(ops),
            "peak_rss_mb": peak_rss_mb,
            "energy_rel_err": max_rel,
            "energy_digits": oracle.digits(max_rel),
        }
        report["end_to_end"] = {k: {"value": v, "unit": E2E_UNITS[k]}
                                for k, v in values.items() if v is not None}
        report["setup_runs_s"] = setup_times
        report["samples"] = {"passes": len(passes), "setup": len(setup_times), "op": len(op_times),
                             "ops_attempted": len(ops), "ops_failed": len(failed),
                             **{f"cmd.{c}": len(t) for c, t in cmd_times.items()}}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    shown = metrics if trace else report["end_to_end"]
    for name, m in shown.items():
        print(f"{args.workload:12s} {name:44s} {m['value']:.6g} {m['unit']}")
    correct = not failed and reference_ok
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}, sort_keys=True))
    return 0 if correct else 1


def run_all(args, spec: dict, names: list) -> int:
    """Every workload in its own process; a table, then a merged result line."""
    results, tables, status = {}, {}, 0
    for name in names:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        status |= proc.returncode != 0
        if proc.returncode not in (0, 1) or len(lines) < 2:
            print(f"{name}: exited {proc.returncode} without a result", file=sys.stderr)
            continue
        report, results[name] = json.loads(lines[-2]), json.loads(lines[-1])
        tables[name] = results[name]["metrics"] if args.trace else report["end_to_end"]

    shown = list(tables)
    rows = {}
    for name in shown:
        for metric, m in tables[name].items():
            rows.setdefault(metric, m["unit"])
    print(f"{'metric':44s} {'unit':7s} " + " ".join(f"{n:>14s}" for n in shown))
    for metric, unit in rows.items():
        cells = " ".join(f"{tables[n][metric]['value']:14.6g}" if metric in tables[n]
                         else f"{'-':>14s}" for n in shown)
        print(f"{metric:44s} {unit:7s} {cells}")

    missing = []
    if args.trace:
        # every per-layer metric must be measured (non-zero) on some workload
        missing = [metric for metric in rows if not any(tables[n][metric]["value"] for n in shown)]
        for metric in missing:
            print(f"coverage: {metric} is zero on every workload", file=sys.stderr)
    correct = (len(shown) == len(names) and not missing
               and all(results[n]["correct"] for n in shown))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(results[n]["attempted"] for n in shown),
        "failed": sum(results[n]["failed"] for n in shown),
        "metrics": {f"{n}.{k}": v for n in shown for k, v in results[n]["metrics"].items()},
    }, sort_keys=True))
    return 0 if correct and not status else 1


def main(argv=None) -> int:
    spec = load_spec()
    import_netctl()
    import workloads

    names = list(workloads.WORKLOADS)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=["all"] + names)
    parser.add_argument("--seed", type=int, default=0)
    # the run length is BENCHMARK.json's run_seconds; --seconds may only repeat it
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds != spec["run_seconds"]:
        parser.error(f"--seconds must be run_seconds from BENCHMARK.json ({spec['run_seconds']})")
    if args.setup_probe:
        return setup_probe(args)
    if args.workload == "all":
        return run_all(args, spec, names)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
