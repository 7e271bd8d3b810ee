"""Command-line front end.

Subcommands: gen, metrics, audit, node-energies. Exit codes: 0 success,
2 invalid input, generation failure or an array too large to allocate, 3
target set not controllable, 4 network not ergodic, 5 audit violation, 6
supplied set is not a separating cutset. All JSON output has sorted keys;
CSV numbers use 17-significant-digit formatting. A command builds the
Gramian at kf once; T5 reuses kf as its first horizon.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import audit as audit_mod
from . import metrics as metrics_mod
from .errors import (
    ConnectivityFailure,
    DimensionMismatch,
    NetctlError,
    NotACutset,
    NotControllable,
    NotErgodic,
)
from .gramian import ConsensusSystem, min_positive_horizon
from .kernels import CSV_FORMAT, load_matrix_csv, save_matrix_csv
from .netgraph import load_network, min_separating_cutset, network_json, random_geometric

ALL_THEOREMS = (1, 2, 3, 4, 5)


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netctl",
        description="Control-energy security metrics and theorem audits "
        "for networked consensus dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random geometric network file")
    gen.add_argument("--n", type=_positive_int, required=True, help="node count")
    gen.add_argument("--radius", type=float, default=0.25, help="connection radius")
    gen.add_argument("--seed", type=int, default=0, help="generator seed")
    gen.add_argument("--sources", type=_int_list, default=[0], help="source nodes")
    gen.add_argument(
        "--targets", type=_int_list, default=None, help="target nodes (default: all)"
    )
    gen.add_argument("--out", default=None, help="output path (default stdout)")
    gen.set_defaults(func=cmd_gen)

    met = sub.add_parser("metrics", help="security metrics report")
    met.add_argument("--net", required=True, help="network JSON path")
    met.add_argument("--kf", type=_positive_int, required=True, help="time horizon")
    met.add_argument(
        "--goal", default=None, help="single-column CSV goal vector, one row per target"
    )
    met.add_argument(
        "--input-out", default=None, help="path for the optimal input CSV (with --goal)"
    )
    met.add_argument("--out", default=None, help="report path (default stdout)")
    met.set_defaults(func=cmd_metrics)

    aud = sub.add_parser("audit", help="run theorem audits")
    aud.add_argument("--net", required=True, help="network JSON path")
    aud.add_argument("--kf", type=_positive_int, required=True, help="time horizon")
    aud.add_argument(
        "--theorems",
        type=_int_list,
        default=list(ALL_THEOREMS),
        help="comma-separated subset of 1,2,3,4,5 (default all)",
    )
    ignored = "accepted and ignored: every check is exact (README, Audit checks)"
    aud.add_argument("--samples", type=_positive_int, default=100, help=ignored)
    aud.add_argument("--seed", type=int, default=0, help=ignored)
    cut = aud.add_mutually_exclusive_group()
    cut.add_argument("--cutset", type=_int_list, default=None, help="cutset nodes")
    cut.add_argument(
        "--min-cutset",
        action="store_true",
        help="use a minimum source-target separating cutset",
    )
    aud.add_argument(
        "--horizons",
        type=_int_list,
        default=None,
        help="ascending horizons for the asymptotic checks",
    )
    aud.add_argument("--out", default=None, help="report path (default stdout)")
    aud.set_defaults(func=cmd_audit)

    nod = sub.add_parser("node-energies", help="per-node control energies as CSV")
    nod.add_argument("--net", required=True, help="network JSON path")
    nod.add_argument("--kf", type=_positive_int, required=True, help="time horizon")
    nod.add_argument("--out", default=None, help="output path (default stdout)")
    nod.set_defaults(func=cmd_node_energies)
    return parser


def _emit_text(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_json(payload: dict, out_path: str | None) -> None:
    _emit_text(json.dumps(payload, sort_keys=True, indent=1) + "\n", out_path)


def _load_system(path: str) -> ConsensusSystem:
    graph, sources, targets = load_network(path)
    return ConsensusSystem(graph, sources, targets)


def cmd_gen(args: argparse.Namespace) -> int:
    graph = random_geometric(args.n, args.radius, args.seed)
    targets = args.targets if args.targets is not None else list(range(args.n))
    _emit_text(network_json(graph, args.sources, targets), args.out)
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    if (args.goal is None) != (args.input_out is None):
        raise ValueError("--goal and --input-out must be given together")
    system = _load_system(args.net)
    goal = None if args.goal is None else load_matrix_csv(args.goal)
    if goal is not None and goal.shape != (system.p, 1):
        raise DimensionMismatch(
            f"--goal must be a single column of {system.p} entries, got shape {goal.shape}"
        )
    if goal is not None and not all(map(math.isfinite, goal[:, 0])):
        raise ValueError("--goal has a non-finite entry")
    report = metrics_mod.metrics_report(system, args.kf)
    payload = report.to_json_dict()
    if not report.controllable:
        _emit_json(payload, args.out)
        print(
            f"target set not controllable at horizon {args.kf} "
            f"(lambda_min={report.lambda_min:.6e})",
            file=sys.stderr,
        )
        return 3
    if goal is not None:
        seq = metrics_mod.optimal_target_input(system, args.kf, goal[:, 0])
        save_matrix_csv(args.input_out, seq.u)
        payload["E"] = seq.energy
    _emit_json(payload, args.out)
    return 0


def _audit_horizons(args: argparse.Namespace, system: ConsensusSystem) -> list[int]:
    if args.horizons is not None:
        return args.horizons
    base = max(args.kf, min_positive_horizon(system, system.targets))
    return [base, 2 * base, 4 * base]


def cmd_audit(args: argparse.Namespace) -> int:
    requested = sorted(set(args.theorems))
    bad = [t for t in requested if t not in ALL_THEOREMS]
    if bad or not requested:
        raise ValueError(f"--theorems must be a nonempty subset of 1..5, got {args.theorems}")
    system = _load_system(args.net)
    if 5 in requested:
        # solved before the first Gramian, so its two n x n temporaries never meet W
        system.perron()
    reports = []
    if 1 in requested:
        reports.append(audit_mod.audit_theorem1(system, system.targets, args.kf))
        reports.append(audit_mod.audit_corollary1(system, system.targets, args.kf))
    if 2 in requested:
        reports.append(audit_mod.audit_theorem2(system, args.kf))
    if 3 in requested or 4 in requested:
        if args.cutset is not None:
            cutset = args.cutset
        elif args.min_cutset:
            cutset = list(
                min_separating_cutset(system.graph, system.sources, system.targets)
            )
        else:
            raise ValueError("theorems 3 and 4 require --cutset or --min-cutset")
        cut_report = audit_mod.audit_cutset(system, args.kf, cutset)
        # "T3.2" belongs to theorem 3
        checks = tuple(c for c in cut_report.checks if int(c.id[1]) in requested)
        reports.append(audit_mod.AuditReport(checks=checks))
    if 5 in requested:
        horizons = _audit_horizons(args, system)
        reports.append(audit_mod.audit_asymptotics(system, system.targets, horizons))
    merged = audit_mod.merge_reports(*reports)
    _emit_json(merged.to_json_dict(), args.out)
    violations = merged.violations()
    if violations:
        for check in violations:
            detail = ", ".join(f"{k}={v:.6g}" for k, v in check.witness.items())
            print(
                f"violation {check.id}: {detail} (tolerance {check.tolerance:g})",
                file=sys.stderr,
            )
        return 5
    return 0


def cmd_node_energies(args: argparse.Namespace) -> int:
    system = _load_system(args.net)
    energies = metrics_mod.node_energies(system, args.kf)
    positions = system.graph.positions
    lines = []
    for node in range(system.n):
        if positions is not None:
            x = CSV_FORMAT % positions[node, 0]
            y = CSV_FORMAT % positions[node, 1]
        else:
            x = y = ""
        e = energies[node]
        e_text = "inf" if math.isinf(e) else CSV_FORMAT % e
        lines.append(f"{node},{x},{y},{e_text}")
    _emit_text("\n".join(lines) + "\n", args.out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConnectivityFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotErgodic as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except NotControllable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NotACutset as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 6
    except (NetctlError, ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc or 'allocation failed'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
