"""Machine audits of the structural and asymptotic Gramian theorems.

Each audit returns an AuditReport holding typed check results, every one made
by _check. A check whose hypotheses are not met at the given horizon (or that
is structurally vacuous, like a bipartition condition on a single node) is
reported with horizon_adequate=False and judged only on the parts of its
claim that hold at every horizon; T1.1 still demands a doubly nonnegative
block below k*, and a check with no such part reports holds=True. holds=False
is reserved for genuine counterexamples to a claim whose hypotheses were met.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels, metrics
from .errors import NotACutset
from .gramian import (
    ConsensusSystem,
    asymptotic_decomposition,
    block_factor,
    gramian_submatrix,
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
    return AuditReport(checks=tuple(c for r in reports for c in r.checks))


def _check(check_id: str, tolerance: float, holds=True, adequate=True, at_kstar=True, **witness):
    """One check result; the only place the not-applicable rule lives.

    holds is the part of the claim judged at every horizon, at_kstar the part
    judged only at an adequate horizon: the result holds iff holds and
    (at_kstar or not adequate). adequate=False alone reports not applicable.
    """
    return CheckResult(
        id=check_id,
        holds=bool(holds and (at_kstar or not adequate)),
        witness=witness,
        tolerance=tolerance,
        horizon_adequate=bool(adequate),
    )


def _block(system: ConsensusSystem, node_ids, kf: int):
    """The node set, its positivity horizon k*, kf >= k*, the bundle and the block."""
    ids = node_set(node_ids, system.n)
    kstar = min_positive_horizon(system, ids)
    bundle = system.gramian(kf)
    return ids, kstar, kf >= kstar, bundle, gramian_submatrix(bundle, ids)


def _inverse_signs(system: ConsensusSystem, bundle, ids):
    """R, max|R| and the threshold -NEG_SCALE * max|R| for the block on ids.

    R is the block's inverse U^-1 U^-T from its factor U (gramian.block_factor),
    formed afresh on each call; an entry of R below the threshold counts as
    negative.
    """
    r = kernels.inverse_from_factor(block_factor(system, ids, bundle.kf))
    scale = float(np.max(np.abs(r.array)))
    return r, scale, -NEG_SCALE * scale


def audit_theorem1(system: ConsensusSystem, node_ids, kf: int) -> AuditReport:
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
    ids, kstar, adequate, bundle, q = _block(system, node_ids, kf)
    size = q.order
    eig_q = kernels.sym_eig(q)  # not q.eig: when q is W, W would keep n^2 eigenvector entries
    lam_min, lam_max = eig_q.lambda_min, eig_q.lambda_max
    lam_w = float(bundle.W.values[-1])
    min_entry = float(q.array.min())
    nonneg_ok = lam_min >= -REL_SLACK * max(lam_max, 0.0)
    gap = lam_max - float(eig_q.values[-2]) if size >= 2 else lam_max
    eigvec_min = float(eig_q.dominant.min())
    proper = size < system.n
    checks = [
        _check(
            "T1.1", 1e-12, min_entry >= -1e-12 and nonneg_ok, adequate,
            at_kstar=min_entry > 0.0, min_entry=min_entry, lambda_min=lam_min, kstar=float(kstar),
        ),
        _check(
            "T1.2", SIMPLE_GAP, nonneg_ok, adequate,
            at_kstar=gap > SIMPLE_GAP * lam_max and eigvec_min > 0.0,
            lambda_min=lam_min, dominant_gap=gap if adequate else math.nan, eigvec_min=eigvec_min,
        ),
        _check(
            "T1.3", STRICT_GAP, lam_max <= lam_w * (1.0 + REL_SLACK), adequate,
            at_kstar=not proper or lam_w - lam_max > STRICT_GAP * lam_w,
            lambda_max_block=lam_max, lambda_max_full=lam_w, proper_block=float(proper),
        ),
    ]
    if not q.spd:
        checks += [
            _check(cid, REL_SLACK, adequate=False, lambda_min=lam_min, invertible=0.0)
            for cid in ("T1.4", "T1.5", "T1.6")
        ]
        return AuditReport(checks=tuple(checks))

    del q, eig_q  # freed before the inverse (a target block stays with its bundle)
    r, r_scale, neg_thresh = _inverse_signs(system, bundle, ids)
    ra = r.array
    eig_r_min = float(r.values[0])
    # irreducible: the entries with |R_ij| > NEG_SCALE * scale connect every node
    checks.append(_check(
        "T1.4", NEG_SCALE, eig_r_min > 0.0, adequate,
        at_kstar=kernels.spanning_bottleneck(-np.abs(ra)) < neg_thresh,
        lambda_min_inverse=eig_r_min, scale=r_scale,
    ))
    if adequate and size > 1:
        worst = kernels.spanning_bottleneck(ra)
        checks.append(_check(
            "T1.5", NEG_SCALE, worst < neg_thresh, worst_block_min=worst, block_order=float(size)
        ))
    else:
        checks.append(_check("T1.5", NEG_SCALE, adequate=False, block_order=float(size)))
    if size == 2:
        diag_min, off = float(min(ra[0, 0], ra[1, 1])), float(ra[0, 1])
        checks.append(_check(
            "T1.6", NEG_SCALE, diag_min > 0.0 and off <= NEG_SCALE * r_scale, adequate,
            off_diagonal=off, diag_min=diag_min,
        ))
    else:
        checks.append(_check("T1.6", NEG_SCALE, adequate=False, block_order=float(size)))
    return AuditReport(checks=tuple(checks))


def audit_corollary1(system: ConsensusSystem, node_ids, kf: int) -> AuditReport:
    """Check C1: the negative-entry graph of the inverse block is connected.

    Applicable once the block is invertible and kf reaches the positivity
    horizon; otherwise reported as not applicable.
    """
    ids, kstar, adequate, bundle, q = _block(system, node_ids, kf)
    if not (q.spd and adequate):
        check = _check(
            "C1", NEG_SCALE, adequate=False,
            lambda_min=float(q.values[0]), invertible=float(q.spd), kstar=float(kstar),
        )
        return AuditReport(checks=(check,))
    r, _, thresh = _inverse_signs(system, bundle, ids)
    # an edge {i, j} for each entry below the threshold
    check = _check(
        "C1", NEG_SCALE, kernels.spanning_bottleneck(r.array) < thresh,
        edges=float(np.count_nonzero(np.triu(r.array < thresh, 1))), order=float(len(ids)),
    )
    return AuditReport(checks=(check,))


def audit_theorem2(
    system: ConsensusSystem, kf: int, samples: int = 100, seed: int = 0
) -> AuditReport:
    """Checks T2.1-T2.4 on the target set.

    T2.1 the least-secure goal direction is strictly positive and its optimal
         input schedule is entrywise nonnegative.
    T2.2 (two targets) replacing a goal by its entrywise absolute value never
         raises the goal energy; judged at the goal (sqrt Q_11, -sqrt Q_22),
         normalized, with Q the target block.
    T2.3 same monotonicity for projections, any target count, judged at
         e_i / sqrt Q_ii - e_j / sqrt Q_jj, normalized, on the pair with the
         least Q_ij / sqrt(Q_ii Q_jj); and the optimal input for a
         nonnegative projection is entrywise nonnegative, judged on the least
         Markov-block entry.
    T2.4 strict security chain: full-network E_min < target E_min < F_min
         (the upper strictness applies to two or more targets; with one
         target E_min and F_min coincide by definition).
    Raises NotControllable when the target block is singular at kf. samples
    and seed are accepted and ignored (README, "Audit checks").
    """
    kstar = min_positive_horizon(system, system.targets)
    system.gramian(kf)  # with W, which T2.4 reads: the parts alone would mean a second build
    e_min, y_min = metrics.target_security(system, kf)  # raises NotControllable
    if kf < kstar:
        return AuditReport(checks=tuple(
            _check(cid, REL_SLACK, adequate=False, kstar=float(kstar))
            for cid in ("T2.1", "T2.2", "T2.3", "T2.4")
        ))

    u_opt = metrics.optimal_target_input(system, kf, y_min)
    y_smallest, u_smallest = float(y_min.min()), float(u_opt.u.min())
    checks = [_check(
        "T2.1", INPUT_TOL, y_smallest > 0.0 and u_smallest >= -INPUT_TOL,
        y_min_smallest=y_smallest, input_smallest=u_smallest,
    )]

    p = system.p
    q = metrics.target_gramian(system, kf)
    if p != 2:
        checks.append(_check("T2.2", REL_SLACK, adequate=False, targets=float(p)))
    else:
        # |y|^T R |y| - y^T R y = 2 R_12 (|y_1 y_2| - y_1 y_2) against the slack's REL_SLACK
        # y^T R y is largest at y_i ~ R_ii^(-1/2), and R_11 : R_22 = Q_22 : Q_11
        y = np.sqrt(np.diag(q.array)) * np.array([1.0, -1.0])
        y /= np.linalg.norm(y)
        signed, absolute = (metrics.target_control_energy(system, kf, g) for g in (y, np.abs(y)))
        excess = float(absolute - signed * (1.0 + REL_SLACK))
        checks.append(_check("T2.2", REL_SLACK, excess <= 0.0, opposite_sign_excess=excess))

    # |a|^T Q |a| >= a^T Q a for every a iff no off-diagonal Q_ij is negative. In the
    # scaled block D Q D, D = diag(Q)^(-1/2), a = D (e_i - e_j) on its least off-diagonal
    # entry breaks it, slack included, iff any a on two coordinates does (p = 1: a = e_1)
    scale = 1.0 / np.sqrt(np.diag(q.array))
    scaled = q.array * scale
    scaled *= scale[:, None]
    np.fill_diagonal(scaled, math.inf)
    i, j = divmod(int(np.argmin(scaled)), p)
    a = np.zeros(p)
    a[i], a[j] = scale[i], (-scale[j] if p > 1 else scale[j])
    a /= np.linalg.norm(a)
    signed, absolute = (float(v @ q.array @ v) for v in (a, np.abs(a)))
    excess = 1.0 / absolute - (1.0 / signed) * (1.0 + REL_SLACK)
    # the inputs for nonnegative projections are sums of Markov entries with nonnegative weights
    markov_min = system.gramian(kf).markov_min
    checks.append(_check(
        "T2.3", REL_SLACK, excess <= 0.0 and markov_min >= -INPUT_TOL,
        opposite_pair_excess=excess, markov_min=markov_min,
    ))

    if system.p == system.n:
        checks.append(_check("T2.4", STRICT_GAP, adequate=False, targets=float(p)))
    else:
        e_full = metrics.full_target_security(system, kf)
        f_min, _ = metrics.projection_security(system, kf)
        lower_ok = e_min - e_full > STRICT_GAP * e_min
        if p >= 2:
            upper_ok = f_min - e_min > STRICT_GAP * f_min
        else:
            # one target: E_min and F_min are both 1/W_tt, equality is exact
            upper_ok = f_min >= e_min * (1.0 - REL_SLACK)
        checks.append(_check(
            "T2.4", STRICT_GAP, lower_ok and upper_ok, E_min_full=e_full, E_min=e_min, F_min=f_min
        ))
    return AuditReport(checks=tuple(checks))


def audit_cutset(
    system: ConsensusSystem, kf: int, cutset, samples: int = 100, seed: int = 0
) -> AuditReport:
    """Checks T3.1-T3.3 and T4.1-T4.3 for a separating cutset.

    With d the largest Gramian diagonal over the cutset and E_C its
    reciprocal:
    T3.1 every target-block entry is at most d.
    T3.2 the target-block form over unit-1-norm vectors is at most d; its
         maximum is the largest target-block diagonal entry.
    T3.3 lambda_max of the target block is at most p * d.
    T4.1 projection energies over unit-1-norm vectors are at least E_C; the
         least is 1 / that entry (inf when its form is degenerate).
    T4.2 F_min >= E_C.
    T4.3 E_min >= E_C / p.
    Raises NotACutset when the set does not separate sources from targets,
    NodeUnreachable when no cutset node carries energy at kf. If the targets
    carry no energy at kf, all six checks are not applicable. samples and
    seed are accepted and ignored (README, "Audit checks").
    """
    ids = node_set(cutset, system.n)
    if not ids:
        raise ValueError("cutset must be nonempty")
    if not is_separating_cutset(system.graph, system.sources, system.targets, ids):
        raise NotACutset(f"{ids} does not separate {system.sources} from {system.targets}")
    e_cut = metrics.cutset_energy(system, kf, ids)  # raises NodeUnreachable
    d_cut = 1.0 / e_cut
    target_block = metrics.target_gramian(system, kf)
    p = system.p
    f_min, _ = metrics.projection_security(system, kf)
    if math.isinf(f_min):  # every target diagonal is zero: no path reaches them
        return AuditReport(checks=tuple(
            _check(cid, REL_SLACK, adequate=False, target_energy=0.0)
            for cid in ("T3.1", "T3.2", "T3.3", "T4.1", "T4.2", "T4.3")
        ))

    max_entry = float(target_block.array.max())
    # a convex form peaks on the unit 1-norm ball at a vertex +-e_j: the largest diagonal,
    # whose reciprocal is the least projection energy unless that form is degenerate
    max_diag = float(np.diag(target_block.array).max())
    least_energy = math.inf if metrics._degenerate(target_block, max_diag) else 1.0 / max_diag
    lam_max = float(target_block.values[-1])
    e_min = 1.0 / lam_max
    d_top, e_low = d_cut * (1.0 + REL_SLACK), e_cut * (1.0 - REL_SLACK)
    checks = (
        _check("T3.1", REL_SLACK, max_entry <= d_top, max_entry=max_entry, cut_diagonal=d_cut),
        _check("T3.2", REL_SLACK, max_diag <= d_top, max_diagonal=max_diag, cut_diagonal=d_cut),
        _check(
            "T3.3", REL_SLACK, lam_max <= p * d_cut * (1.0 + REL_SLACK),
            lambda_max=lam_max, bound=p * d_cut,
        ),
        _check(
            "T4.1", REL_SLACK, least_energy >= e_low, least_energy=least_energy, cut_energy=e_cut
        ),
        _check("T4.2", REL_SLACK, f_min >= e_low, F_min=f_min, cut_energy=e_cut),
        _check(
            "T4.3", REL_SLACK, e_min >= (e_cut / p) * (1.0 - REL_SLACK),
            E_min=e_min, cut_energy_over_p=e_cut / p,
        ),
    )
    return AuditReport(checks=checks)


def audit_asymptotics(system: ConsensusSystem, node_ids, horizons) -> AuditReport:
    """Checks T5.1-T5.3: rank-one growth of the Gramian block.

    With s the block size, c(kf) = s * kf * (squared stationary source
    weight), and H(kf) the block minus its rank-one growth term, both from
    asymptotic_decomposition:
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
    kstar = max(min_positive_horizon(system, ids), min_positive_horizon(system, system.targets))
    if horizons[0] < kstar:
        raise ValueError(f"every horizon must be at least the positivity horizon {kstar}")
    size, p = len(ids), system.p
    ones_dir = np.full(size, 1.0 / math.sqrt(size))

    max_h, lam_resid, vec_dist, sec_resid = [], [], [], []
    for kf in horizons:
        dec = asymptotic_decomposition(system, ids, kf)
        max_h.append(dec.residual_bound)
        pairs = gramian_submatrix(system.gramian(kf), ids).eig
        lam_resid.append(abs(pairs.lambda_max - size * dec.rank_one_coefficient))
        vec_dist.append(float(np.max(np.abs(pairs.dominant - ones_dir))))
        e_min, _ = metrics.target_security(system, kf)  # raises NotControllable
        sec_resid.append(abs(e_min * p * kf * dec.perron_weight - 1.0))

    med_idx = len(horizons) // 2
    scale_last = max(1.0, size * horizons[-1] * dec.perron_weight)

    def per_horizon(tag: str, values: list[float]) -> dict[str, float]:
        return {f"{tag}_{kf}": v for kf, v in zip(horizons, values)}

    bounded_h = max_h[-1] <= 1.05 * max_h[med_idx] + 1e-12
    bounded_lam = lam_resid[-1] <= 1.05 * lam_resid[med_idx] + 1e-9 * scale_last
    monotone_vec = all(b <= a + 1e-12 for a, b in zip(vec_dist, vec_dist[1:]))
    monotone_sec = all(
        b <= a * (1.0 + REL_SLACK) + 1e-15 for a, b in zip(sec_resid, sec_resid[1:])
    )
    return AuditReport(checks=(
        _check("T5.1", 0.05, bounded_h, **per_horizon("max_residual", max_h)),
        _check(
            "T5.2", 0.05, bounded_lam and monotone_vec,
            **per_horizon("eigenvalue_residual", lam_resid),
            **per_horizon("eigvec_distance", vec_dist),
        ),
        _check(
            "T5.3", 0.05, monotone_sec and sec_resid[-1] < 0.05,
            **per_horizon("security_residual", sec_resid),
        ),
    ))
