"""Every kept output of a workload's operations against the oracle.

prepare(inputs) builds the oracle's references once per run, after the
measured passes; check_op(op, inputs, refs, verdicts) records each
disagreement in op.errors and the ids of violated audit checks in verdicts.
"""

from __future__ import annotations

import json
import math

import numpy as np

import oracle
from workloads import NOT_CONTROLLABLE, RAISED, NetworkInputs, Op, SweepInputs, Verdicts

AUDIT_IDS = {
    1: ("T1.1", "T1.2", "T1.3", "T1.4", "T1.5", "T1.6", "C1"),
    2: ("T2.1", "T2.2", "T2.3", "T2.4"),
    3: ("T3.1", "T3.2", "T3.3"),
    4: ("T4.1", "T4.2", "T4.3"),
    5: ("T5.1", "T5.2", "T5.3"),
}
AUDIT_KEYS = {"id", "holds", "witness", "tolerance", "horizon_adequate"}


class Checker:
    """Collects oracle disagreements of one operation."""

    def __init__(self, op: Op):
        self.op = op

    def fail(self, message: str) -> None:
        self.op.errors.append(message)

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.fail(message)

    def close(self, what: str, got, want: float, rtol: float, energy: bool = False) -> None:
        if got is None or not isinstance(got, (int, float)) or not math.isfinite(got):
            self.fail(f"{what}: got {got!r}, want {want!r}")
            return
        want = float(want)
        err = oracle.rel_err(float(got), want)
        if energy:
            self.op.max_energy_rel_err = max(self.op.max_energy_rel_err, err)
        if not err <= rtol:
            self.fail(f"{what}: got {got!r}, want {want!r} (rel err {err:.2e} > {rtol:.1e})")

    def node_energies(self, what: str, got, ref: oracle.Reference) -> None:
        want = ref.node_energies()
        if len(got) != len(want):
            self.fail(f"{what}: {len(got)} entries for {len(want)} nodes")
            return
        for node, (g, w) in enumerate(zip(got, want)):
            if math.isinf(w):
                self.require(g is not None and math.isinf(g), f"{what}[{node}]: {g!r}, want inf")
            else:
                self.close(f"{what}[{node}]", g, w, oracle.WELL_CONDITIONED_RTOL, energy=True)

    def schedule(self, what: str, u, energy, goal, ref: oracle.Reference) -> None:
        """An input schedule must reach the goal at the minimum energy."""
        u = np.asarray(u, dtype=float)
        if u.shape != (ref.kf, ref.m):
            self.fail(f"{what}: schedule shape {u.shape}, want {(ref.kf, ref.m)}")
            return
        reached = ref.drive(u)
        gap = float(np.linalg.norm(reached - goal)) / max(float(np.linalg.norm(goal)), 1e-300)
        self.require(gap <= ref.goal_rtol(), f"{what}: goal missed by {gap:.2e} relative")
        want = ref.energy(goal)
        self.close(f"{what} energy", energy, want, oracle.solve_rtol(ref.cond), energy=True)
        self.close(f"{what} schedule norm", float(np.sum(u * u)), want, oracle.solve_rtol(ref.cond))

    def audit_ids(self, checks, families) -> list:
        """Validate an audit's check list; returns the ids that do not hold."""
        ids = [c.get("id") if isinstance(c, dict) else c.id for c in checks]
        want = sorted(i for f in families for i in AUDIT_IDS[f])
        self.require(sorted(ids) == want, f"audit check ids {sorted(ids)}, want {want}")
        bad = []
        for c in checks:
            holds = c.get("holds") if isinstance(c, dict) else c.holds
            if isinstance(c, dict):
                self.require(set(c) == AUDIT_KEYS, f"audit entry keys {sorted(c)}")
            self.require(isinstance(holds, bool), f"audit holds {holds!r} is not a bool")
            if holds is False:
                bad.append(c.get("id") if isinstance(c, dict) else c.id)
        return bad

    def verification(self, res, goal, ref: oracle.Reference) -> None:
        gap = float(np.linalg.norm(np.asarray(res.achieved) - goal)) / float(np.linalg.norm(goal))
        self.require(gap <= ref.goal_rtol(), f"verify: goal missed by {gap:.2e} relative")
        self.close("verify energy", res.energy, ref.energy(goal), oracle.solve_rtol(ref.cond),
                   energy=True)

    def report(self, rep: dict, ref: oracle.Reference) -> None:
        """The metrics report's fields against the oracle."""
        self.require(rep.get("controllable") is True, "report says not controllable")
        self.require(rep.get("kf") == ref.kf, f"report kf {rep.get('kf')}")
        self.close("lambda_max", rep.get("lambda_max"), ref.lambda_max,
                   oracle.WELL_CONDITIONED_RTOL)
        self.close("E_min", rep.get("E_min"), ref.e_min, oracle.WELL_CONDITIONED_RTOL, energy=True)
        self.close("F_min", rep.get("F_min"), ref.f_min, oracle.WELL_CONDITIONED_RTOL, energy=True)
        j = rep.get("j_min")
        self.require(
            isinstance(j, int) and 0 <= j < ref.p
            and ref.target_diag[j] >= ref.target_diag.max() * (1 - oracle.WELL_CONDITIONED_RTOL),
            f"j_min {j!r} is not a largest target diagonal entry",
        )
        energies = [math.inf if e is None else e for e in rep.get("node_energies", [])]
        self.node_energies("report node_energies", energies, ref)


def prepare(inputs) -> dict:
    """The oracle's references for a run, and the 50-digit check of the float64 one."""
    if isinstance(inputs, NetworkInputs):
        with open(inputs.net, encoding="utf-8") as fh:
            net = json.load(fh)
        ref = oracle.Reference(net["n"], net["edges"], net["sources"], net["targets"], inputs.kf)
        return {"refs": [ref], "reference_check": oracle.check_reference(ref, inputs.goal)}
    refs = [oracle.Reference(s.n, s.edges, s.sources, s.targets, s.kf) for s in inputs.systems]
    i = min(range(len(refs)), key=lambda k: refs[k].n * refs[k].kf)
    check = oracle.check_reference(refs[i], inputs.systems[i].goal)
    return {"refs": refs, "reference_check": check}


def check_op(op: Op, inputs, refs: dict, verdicts: Verdicts) -> None:
    if isinstance(inputs, SweepInputs):
        _check_system(op, inputs.systems[op.index], refs["refs"][op.index], verdicts)
    else:
        _check_command(op, inputs, refs["refs"][0], verdicts)


def _judge_not_controllable(check: Checker, cmd: str, ref: oracle.Reference) -> None:
    check.require(ref.cond > oracle.MAX_JUDGED_COND,
                  f"{cmd}: not controllable at oracle cond {ref.cond:.2e}")


def _check_command(op: Op, inputs: NetworkInputs, ref: oracle.Reference, verdicts) -> None:
    check = Checker(op)
    (cmd, call), = op.calls.items()
    if call.code == RAISED:
        return
    if cmd == "verify":
        if call.code == NOT_CONTROLLABLE:
            _judge_not_controllable(check, cmd, ref)
        else:
            check.verification(call.out, inputs.goal, ref)
    elif cmd == "metrics":
        if call.code == 3:
            _judge_not_controllable(check, cmd, ref)
            return
        check.require(call.code == 0, f"metrics exited {call.code}")
        if call.code == 0:
            rep, u = call.out
            check.report(rep, ref)
            check.schedule("metrics --input-out", u, rep.get("E"), inputs.goal, ref)
    elif cmd == "node-energies":
        check.require(call.code == 0, f"node-energies exited {call.code}")
        if call.code == 0:
            rows = call.out
            check.require(all(len(r) == 4 for r in rows), "node-energies rows need 4 fields")
            check.require([r[0] for r in rows] == [str(i) for i in range(ref.n)],
                          "node-energies rows out of order")
            check.node_energies("node-energies", [float(r[-1]) for r in rows], ref)
    elif cmd == "audit":
        check.require(call.code in (0, 5), f"audit exited {call.code}")
        if call.code in (0, 5):
            bad = check.audit_ids(call.out, (1, 2, 3, 4, 5))
            check.require((call.code == 5) == bool(bad),
                          f"audit exited {call.code} with violations {bad}")
            verdicts.violations.update(bad)


def _check_system(op: Op, s, ref: oracle.Reference, verdicts) -> None:
    check = Checker(op)
    for cmd, call in op.calls.items():
        if call.code == NOT_CONTROLLABLE:
            _judge_not_controllable(check, cmd, ref)
        elif call.code == RAISED:
            continue
        elif cmd == "audit":
            verdicts.violations.update(check.audit_ids(call.out.checks, (1, 2)))
        elif cmd == "verify":
            check.verification(call.out, s.goal, ref)
