"""Machine audits of the structural and asymptotic Gramian theorems.

Each audit returns an AuditReport holding typed check results. A check whose
hypotheses are not met at the given horizon (or that is structurally vacuous,
like a bipartition condition on a single node) is reported with holds=True and
horizon_adequate=False: not applicable, never a violation. holds=False is
reserved for genuine counterexamples to a claim whose hypotheses were met.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels, metrics
from .errors import DegenerateProjection, NotACutset
from .gramian import (
    ConsensusSystem,
    GramianBundle,
    bundle_for,
    compute_gramian,
    gramian_submatrix,
    left_perron,
    min_positive_horizon,
)
from .netgraph import is_separating_cutset, node_set

# Multiplicative slack for non-strict inequalities.
REL_SLACK = 1e-9
# Relative gap demanded by strictness claims.
STRICT_GAP = 1e-12
# Off-diagonal inverse entries below -NEG_SCALE * max|R| count as negative.
NEG_SCALE = 1e-9
# A dominant eigenvalue is simple when its gap exceeds this times lambda_max.
SIMPLE_GAP = 1e-10
# Entrywise floor for input nonnegativity claims.
INPUT_TOL = 1e-10


@dataclass(frozen=True)
class CheckResult:
    id: str
    holds: bool
    witness: dict[str, float]
    tolerance: float
    horizon_adequate: bool


@dataclass(frozen=True)
class AuditReport:
    checks: tuple[CheckResult, ...]

    def violations(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.holds)

    def to_json_dict(self) -> dict:
        # non-finite witness values become null so the JSON stays parseable
        return {
            "checks": [
                {
                    "id": c.id,
                    "holds": c.holds,
                    "witness": {
                        k: (float(v) if math.isfinite(v) else None)
                        for k, v in c.witness.items()
                    },
                    "tolerance": float(c.tolerance),
                    "horizon_adequate": c.horizon_adequate,
                }
                for c in self.checks
            ]
        }


def merge_reports(*reports: AuditReport) -> AuditReport:
    checks: list[CheckResult] = []
    for r in reports:
        checks.extend(r.checks)
    return AuditReport(checks=tuple(checks))


def _sample_rng(seed: int, tag: int, index: int) -> np.random.Generator:
    # one independent substream per sample, so results do not depend on order
    return np.random.default_rng([seed, tag, index])


def _unit_sphere(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:  # pragma: no cover - essentially impossible
        v[0] = 1.0
        norm = 1.0
    return v / norm

def _unit_one_norm(rng: np.random.Generator, dim: int) -> np.ndarray:
    mags = rng.dirichlet(np.ones(dim))
    signs = rng.integers(0, 2, size=dim) * 2 - 1
    return mags * signs


def _not_applicable(check_id: str, tolerance: float, **witness: float) -> CheckResult:
    return CheckResult(
        id=check_id,
        holds=True,
        witness=witness,
        tolerance=tolerance,
        horizon_adequate=False,
    )


def _inverse_block(bundle: GramianBundle, ids) -> kernels.SymMatrix:
    """Inverse of the Gramian block on ids, computed once per bundle."""
    block = gramian_submatrix(bundle, ids)
    return bundle.memo(("inverse", ids), kernels.explicit_inverse, block)


def audit_theorem1(
    system: ConsensusSystem, node_ids, kf: int, bundle: GramianBundle | None = None
) -> AuditReport:
    """Checks T1.1-T1.6 on the Gramian block Q of node_ids and its inverse R.

    T1.1 Q is symmetric, positive semidefinite, entrywise nonnegative, and
         strictly positive once kf reaches the positivity horizon k*.
    T1.2 Q's eigenvalues are real and nonnegative; at kf >= k* the dominant
         one is simple with a strictly positive eigenvector.
    T1.3 lambda_max(Q) <= lambda_max(W); strict at kf >= k* on a proper block.
    T1.4 R is symmetric positive definite; irreducible at kf >= k*.
    T1.5 at kf >= k*, every bipartition of the block has a negative entry in
         its off-diagonal inverse block. The largest over bipartitions of the
         smallest such entry is the spanning-tree bottleneck of R.
    T1.6 with exactly two nodes, R has positive diagonal and nonpositive
         off-diagonal entries whenever it exists.
    Singular Q makes T1.4-T1.6 not applicable (they presuppose the inverse).
    """
    ids = node_set(node_ids, system.n)
    kstar = min_positive_horizon(system, ids)
    adequate = kf >= kstar
    bundle = bundle_for(system, kf, bundle)
    q = gramian_submatrix(bundle, ids)
    qa = q.array
    size = q.order
    eig_q = q.eig
    lam_w = float(bundle.W.values[-1])
    checks: list[CheckResult] = []

    min_entry = float(qa.min())
    nonneg_ok = eig_q.lambda_min >= -REL_SLACK * max(eig_q.lambda_max, 0.0)
    base_ok = min_entry >= -1e-12 and nonneg_ok
    strict_ok = min_entry > 0.0 if adequate else True
    checks.append(
        CheckResult(
            id="T1.1",
            holds=bool(base_ok and strict_ok),
            witness={
                "min_entry": min_entry,
                "lambda_min": eig_q.lambda_min,
                "kstar": float(kstar),
            },
            tolerance=1e-12,
            horizon_adequate=adequate,
        )
    )

    if adequate:
        gap = (
            eig_q.lambda_max - float(eig_q.values[-2])
            if size >= 2
            else eig_q.lambda_max
        )
        simple_ok = gap > SIMPLE_GAP * eig_q.lambda_max
        positive_vec = float(eig_q.dominant.min()) > 0.0
    else:
        gap = float("nan")
        simple_ok = positive_vec = True
    checks.append(
        CheckResult(
            id="T1.2",
            holds=bool(nonneg_ok and simple_ok and positive_vec),
            witness={
                "lambda_min": eig_q.lambda_min,
                "dominant_gap": gap if adequate else -1.0,
                "eigvec_min": float(eig_q.dominant.min()),
            },
            tolerance=SIMPLE_GAP,
            horizon_adequate=adequate,
        )
    )

    bound_ok = eig_q.lambda_max <= lam_w * (1.0 + REL_SLACK)
    proper = size < system.n
    if adequate and proper:
        strict_bound_ok = lam_w - eig_q.lambda_max > STRICT_GAP * lam_w
    else:
        strict_bound_ok = True
    checks.append(
        CheckResult(
            id="T1.3",
            holds=bool(bound_ok and strict_bound_ok),
            witness={
                "lambda_max_block": eig_q.lambda_max,
                "lambda_max_full": lam_w,
                "proper_block": float(proper),
            },
            tolerance=STRICT_GAP,
            horizon_adequate=adequate,
        )
    )

    if not q.spd:
        for check_id in ("T1.4", "T1.5", "T1.6"):
            checks.append(
                _not_applicable(
                    check_id,
                    REL_SLACK,
                    lambda_min=eig_q.lambda_min,
                    invertible=0.0,
                )
            )
        return AuditReport(checks=tuple(checks))

    r = _inverse_block(bundle, ids).array
    r_scale = float(np.max(np.abs(r)))
    neg_thresh = -NEG_SCALE * r_scale
    eig_r_min = float(np.linalg.eigvalsh(r)[0])
    pd_ok = eig_r_min > 0.0
    if adequate:
        # the entries with |R_ij| > NEG_SCALE * scale connect every node
        irreducible_ok = kernels.spanning_bottleneck(-np.abs(r)) < neg_thresh
    else:
        irreducible_ok = True
    checks.append(
        CheckResult(
            id="T1.4",
            holds=bool(pd_ok and irreducible_ok),
            witness={"lambda_min_inverse": eig_r_min, "scale": r_scale},
            tolerance=NEG_SCALE,
            horizon_adequate=adequate,
        )
    )

    if size == 1 or not adequate:
        checks.append(_not_applicable("T1.5", NEG_SCALE, block_order=float(size)))
    else:
        worst = kernels.spanning_bottleneck(r)
        checks.append(
            CheckResult(
                id="T1.5",
                holds=bool(worst < neg_thresh),
                witness={"worst_block_min": worst, "block_order": float(size)},
                tolerance=NEG_SCALE,
                horizon_adequate=True,
            )
        )

    if size != 2:
        checks.append(
            _not_applicable("T1.6", NEG_SCALE, block_order=float(size))
        )
    else:
        diag_ok = float(min(r[0, 0], r[1, 1])) > 0.0
        off_ok = float(r[0, 1]) <= NEG_SCALE * r_scale
        checks.append(
            CheckResult(
                id="T1.6",
                holds=bool(diag_ok and off_ok),
                witness={"off_diagonal": float(r[0, 1]), "diag_min": float(min(r[0, 0], r[1, 1]))},
                tolerance=NEG_SCALE,
                horizon_adequate=adequate,
            )
        )
    return AuditReport(checks=tuple(checks))


def audit_corollary1(
    system: ConsensusSystem, node_ids, kf: int, bundle: GramianBundle | None = None
) -> AuditReport:
    """Check C1: the negative-entry graph of the inverse block is connected.

    Applicable once the block is invertible and kf reaches the positivity
    horizon; otherwise reported as not applicable.
    """
    ids = node_set(node_ids, system.n)
    kstar = min_positive_horizon(system, ids)
    adequate = kf >= kstar
    bundle = bundle_for(system, kf, bundle)
    q = gramian_submatrix(bundle, ids)
    invertible = q.spd
    if not (invertible and adequate):
        return AuditReport(
            checks=(
                _not_applicable(
                    "C1",
                    NEG_SCALE,
                    lambda_min=float(q.values[0]),
                    invertible=float(invertible),
                    kstar=float(kstar),
                ),
            )
        )
    r = _inverse_block(bundle, ids).array
    # an edge {i, j} for each entry below -NEG_SCALE * max|R|
    thresh = -NEG_SCALE * float(np.max(np.abs(r)))
    return AuditReport(
        checks=(
            CheckResult(
                id="C1",
                holds=bool(kernels.spanning_bottleneck(r) < thresh),
                witness={
                    "edges": float(np.count_nonzero(np.triu(r < thresh, 1))),
                    "order": float(len(ids)),
                },
                tolerance=NEG_SCALE,
                horizon_adequate=True,
            ),
        )
    )


def audit_theorem2(
    system: ConsensusSystem,
    kf: int,
    samples: int = 100,
    seed: int = 0,
    bundle: GramianBundle | None = None,
) -> AuditReport:
    """Checks T2.1-T2.4 on the target set.

    T2.1 the least-secure goal direction is strictly positive and its optimal
         input schedule is entrywise nonnegative.
    T2.2 (two targets) replacing a goal by its entrywise absolute value never
         raises the goal energy.
    T2.3 same monotonicity for projections, any target count, and the optimal
         input for a nonnegative projection is entrywise nonnegative.
    T2.4 strict security chain: full-network E_min < target E_min < F_min
         (the upper strictness applies to two or more targets; with one
         target E_min and F_min coincide by definition).
    Raises NotControllable when the target block is singular at kf.
    """
    kstar = min_positive_horizon(system, system.targets)
    adequate = kf >= kstar
    bundle = bundle_for(system, kf, bundle)
    e_min, y_min = metrics.target_security(system, kf, bundle)  # raises NotControllable
    checks: list[CheckResult] = []
    if not adequate:
        for check_id in ("T2.1", "T2.2", "T2.3", "T2.4"):
            checks.append(_not_applicable(check_id, REL_SLACK, kstar=float(kstar)))
        return AuditReport(checks=tuple(checks))

    u_opt = metrics.optimal_target_input(system, kf, y_min, bundle)
    checks.append(
        CheckResult(
            id="T2.1",
            holds=bool(float(y_min.min()) > 0.0 and float(u_opt.u.min()) >= -INPUT_TOL),
            witness={
                "y_min_smallest": float(y_min.min()),
                "input_smallest": float(u_opt.u.min()),
            },
            tolerance=INPUT_TOL,
            horizon_adequate=True,
        )
    )

    p = system.p
    if p != 2:
        checks.append(_not_applicable("T2.2", REL_SLACK, targets=float(p)))
    else:
        worst = -math.inf
        ok = True
        for i in range(samples):
            y = _unit_sphere(_sample_rng(seed, 22, i), p)
            e_signed = metrics.target_control_energy(system, kf, y, bundle)
            e_abs = metrics.target_control_energy(system, kf, np.abs(y), bundle)
            excess = e_abs - e_signed * (1.0 + REL_SLACK)
            worst = max(worst, excess)
            ok = ok and excess <= 0.0
        checks.append(
            CheckResult(
                id="T2.2",
                holds=bool(ok),
                witness={"worst_excess": worst, "samples": float(samples)},
                tolerance=REL_SLACK,
                horizon_adequate=True,
            )
        )

    worst = -math.inf
    input_min = math.inf
    ok = True
    for i in range(samples):
        a = _unit_sphere(_sample_rng(seed, 23, i), p)
        f_signed = metrics.projection_energy(system, kf, a, bundle)
        f_abs = metrics.projection_energy(system, kf, np.abs(a), bundle)
        excess = f_abs - f_signed * (1.0 + REL_SLACK)
        worst = max(worst, excess)
        ok = ok and excess <= 0.0
        u_proj = metrics.optimal_projection_input(system, kf, np.abs(a), bundle)
        input_min = min(input_min, float(u_proj.u.min()))
    checks.append(
        CheckResult(
            id="T2.3",
            holds=bool(ok and input_min >= -INPUT_TOL),
            witness={
                "worst_excess": worst,
                "input_smallest": input_min,
                "samples": float(samples),
            },
            tolerance=REL_SLACK,
            horizon_adequate=True,
        )
    )

    if system.p == system.n:
        checks.append(_not_applicable("T2.4", STRICT_GAP, targets=float(p)))
    else:
        e_full = metrics.full_target_security(system, kf, bundle)
        f_min, _ = metrics.projection_security(system, kf, bundle)
        lower_ok = e_min - e_full > STRICT_GAP * e_min
        if p >= 2:
            upper_ok = f_min - e_min > STRICT_GAP * f_min
        else:
            # one target: E_min and F_min are both 1/W_tt, equality is exact
            upper_ok = f_min >= e_min * (1.0 - REL_SLACK)
        checks.append(
            CheckResult(
                id="T2.4",
                holds=bool(lower_ok and upper_ok),
                witness={"E_min_full": e_full, "E_min": e_min, "F_min": f_min},
                tolerance=STRICT_GAP,
                horizon_adequate=True,
            )
        )
    return AuditReport(checks=tuple(checks))


def audit_cutset(
    system: ConsensusSystem,
    kf: int,
    cutset,
    samples: int = 100,
    seed: int = 0,
    bundle: GramianBundle | None = None,
) -> AuditReport:
    """Checks T3.1-T3.3 and T4.1-T4.3 for a separating cutset.

    With d the largest Gramian diagonal over the cutset and E_C its
    reciprocal:
    T3.1 every target-block entry is at most d.
    T3.2 the target-block quadratic form over unit-1-norm vectors is at most d.
    T3.3 lambda_max of the target block is at most p * d.
    T4.1 sampled projection energies are at least E_C.
    T4.2 F_min >= E_C.
    T4.3 E_min >= E_C / p.
    Raises NotACutset when the set does not separate sources from targets,
    NodeUnreachable when no cutset node carries energy at kf. If the targets
    carry no energy at kf, all six checks are not applicable.
    """
    ids = node_set(cutset, system.n)
    if not ids:
        raise ValueError("cutset must be nonempty")
    if not is_separating_cutset(system.graph, system.sources, system.targets, ids):
        raise NotACutset(
            f"{ids} does not separate {system.sources} from {system.targets}"
        )
    bundle = bundle_for(system, kf, bundle)
    e_cut = metrics.cutset_energy(system, kf, ids, bundle)  # raises NodeUnreachable
    d_cut = 1.0 / e_cut
    target_block = metrics.target_gramian(system, kf, bundle)
    wt = target_block.array
    p = system.p
    f_min, _ = metrics.projection_security(system, kf, bundle)
    if math.isinf(f_min):  # every target diagonal is zero: no path reaches them
        return AuditReport(
            checks=tuple(
                _not_applicable(cid, REL_SLACK, target_energy=0.0)
                for cid in ("T3.1", "T3.2", "T3.3", "T4.1", "T4.2", "T4.3")
            )
        )

    checks: list[CheckResult] = []
    max_entry = float(wt.max())
    checks.append(
        CheckResult(
            id="T3.1",
            holds=bool(max_entry <= d_cut * (1.0 + REL_SLACK)),
            witness={"max_entry": max_entry, "cut_diagonal": d_cut},
            tolerance=REL_SLACK,
            horizon_adequate=True,
        )
    )

    worst_form = -math.inf
    for i in range(samples):
        a = _unit_one_norm(_sample_rng(seed, 32, i), p)
        worst_form = max(worst_form, float(a @ wt @ a))
    checks.append(
        CheckResult(
            id="T3.2",
            holds=bool(worst_form <= d_cut * (1.0 + REL_SLACK)),
            witness={
                "worst_form": worst_form,
                "cut_diagonal": d_cut,
                "samples": float(samples),
            },
            tolerance=REL_SLACK,
            horizon_adequate=True,
        )
    )

    lam_max = float(target_block.values[-1])
    checks.append(
        CheckResult(
            id="T3.3",
            holds=bool(lam_max <= p * d_cut * (1.0 + REL_SLACK)),
            witness={"lambda_max": lam_max, "bound": p * d_cut},
            tolerance=REL_SLACK,
            horizon_adequate=True,
        )
    )

    worst_energy = math.inf
    for i in range(samples):
        a = _unit_one_norm(_sample_rng(seed, 41, i), p)
        try:
            f = metrics.projection_energy(system, kf, a, bundle)
        except DegenerateProjection:
            f = math.inf  # zero form: infinite energy, bound holds trivially
        worst_energy = min(worst_energy, f)
    checks.append(
        CheckResult(
            id="T4.1",
            holds=bool(worst_energy >= e_cut * (1.0 - REL_SLACK)),
            witness={
                "worst_energy": worst_energy,
                "cut_energy": e_cut,
                "samples": float(samples),
            },
            tolerance=REL_SLACK,
            horizon_adequate=True,
        )
    )

    checks.append(
        CheckResult(
            id="T4.2",
            holds=bool(f_min >= e_cut * (1.0 - REL_SLACK)),
            witness={"F_min": f_min, "cut_energy": e_cut},
            tolerance=REL_SLACK,
            horizon_adequate=True,
        )
    )

    e_min = 1.0 / lam_max
    checks.append(
        CheckResult(
            id="T4.3",
            holds=bool(e_min >= (e_cut / p) * (1.0 - REL_SLACK)),
            witness={"E_min": e_min, "cut_energy_over_p": e_cut / p},
            tolerance=REL_SLACK,
            horizon_adequate=True,
        )
    )
    return AuditReport(checks=tuple(checks))


def audit_asymptotics(system: ConsensusSystem, node_ids, horizons) -> AuditReport:
    """Checks T5.1-T5.3: rank-one growth of the Gramian block.

    With s the block size, c(kf) = s * kf * (squared stationary source
    weight), and H(kf) the block minus its rank-one growth term:
    T5.1 max|H| at the last horizon is within 5% of its value at the median
         horizon (boundedness witness).
    T5.2 |lambda_max - c(kf)| satisfies the same 5% witness, and the dominant
         eigenvector approaches the normalized all-ones vector monotonically.
    T5.3 the target security product E_min * p * kf * weight approaches one
         monotonically and lands within 5% at the last horizon.
    Horizons must be ascending and at least the positivity horizon of both
    the block and the target set; raises NotControllable if the target block
    is singular at any horizon.
    """
    ids = node_set(node_ids, system.n)
    if not ids:
        raise ValueError("node set must be nonempty")
    horizons = [int(h) for h in horizons]
    if len(horizons) < 2:
        raise ValueError("need at least two horizons")
    if any(b <= a for a, b in zip(horizons, horizons[1:])):
        raise ValueError(f"horizons must be strictly ascending, got {horizons}")
    kstar = max(
        min_positive_horizon(system, ids),
        min_positive_horizon(system, system.targets),
    )
    if horizons[0] < kstar:
        raise ValueError(
            f"every horizon must be at least the positivity horizon {kstar}"
        )
    w = left_perron(system)
    weight = float(np.sum(w[list(system.sources)] ** 2))
    size = len(ids)
    p = system.p
    ones_dir = np.full(size, 1.0 / math.sqrt(size))

    max_h: list[float] = []
    lam_resid: list[float] = []
    vec_dist: list[float] = []
    sec_resid: list[float] = []
    for kf in horizons:
        bundle = compute_gramian(system, kf)
        q = gramian_submatrix(bundle, ids)
        coeff = kf * weight
        h = q.array - coeff * np.ones((size, size))
        max_h.append(float(np.max(np.abs(h))))
        pairs = q.eig
        lam_resid.append(abs(pairs.lambda_max - size * coeff))
        vec_dist.append(float(np.max(np.abs(pairs.dominant - ones_dir))))
        e_min, _ = metrics.target_security(system, kf, bundle)  # raises NotControllable
        sec_resid.append(abs(e_min * p * kf * weight - 1.0))

    median = horizons[len(horizons) // 2]
    med_idx = horizons.index(median)
    scale_last = max(1.0, size * horizons[-1] * weight)

    def per_horizon(tag: str, values: list[float]) -> dict[str, float]:
        return {f"{tag}_{kf}": v for kf, v in zip(horizons, values)}

    checks: list[CheckResult] = []
    bounded_h = max_h[-1] <= 1.05 * max_h[med_idx] + 1e-12
    checks.append(
        CheckResult(
            id="T5.1",
            holds=bool(bounded_h),
            witness=per_horizon("max_residual", max_h),
            tolerance=0.05,
            horizon_adequate=True,
        )
    )

    bounded_lam = lam_resid[-1] <= 1.05 * lam_resid[med_idx] + 1e-9 * scale_last
    monotone_vec = all(
        b <= a + 1e-12 for a, b in zip(vec_dist, vec_dist[1:])
    )
    checks.append(
        CheckResult(
            id="T5.2",
            holds=bool(bounded_lam and monotone_vec),
            witness={
                **per_horizon("eigenvalue_residual", lam_resid),
                **per_horizon("eigvec_distance", vec_dist),
            },
            tolerance=0.05,
            horizon_adequate=True,
        )
    )

    monotone_sec = all(
        b <= a * (1.0 + REL_SLACK) + 1e-15 for a, b in zip(sec_resid, sec_resid[1:])
    )
    small_sec = sec_resid[-1] < 0.05
    checks.append(
        CheckResult(
            id="T5.3",
            holds=bool(monotone_sec and small_sec),
            witness=per_horizon("security_residual", sec_resid),
            tolerance=0.05,
            horizon_adequate=True,
        )
    )
    return AuditReport(checks=tuple(checks))
