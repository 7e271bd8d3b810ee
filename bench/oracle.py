"""Reference answers computed without netctl.

Everything here is rebuilt from the raw edge list: the update matrix, the
stacked Markov matrix M = [C A^(kf-1) B, ..., C A^0 B], the Gramian
diagonal and a forward simulator. Energies come from the min-norm solution
of M u = y (an SVD of M), never from a Gramian solve, so agreement with
netctl is evidence rather than a restatement of its own arithmetic.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import scipy.sparse

EPS = float(np.finfo(float).eps)
# Floor of the digits metric: a relative error of exactly zero reads as 17
# correct digits, the most a float64 carries.
REL_ERR_FLOOR = 1e-17
# Accuracy demanded of the float64 reference against the 50-digit solve.
REFERENCE_RTOL = 1e-10
# Agreement demanded of quantities that involve no ill-conditioned solve
# (Gramian diagonals, the largest target eigenvalue).
WELL_CONDITIONED_RTOL = 1e-9
# Systems whose target Gramian condition number exceeds this are not
# well-posed enough to judge a controllability verdict against.
MAX_JUDGED_COND = 1e10


def solve_rtol(cond: float) -> float:
    """Relative error allowed for a backward-stable solve at this conditioning."""
    return 1e-12 + 1e3 * EPS * cond


def rel_err(got: float, want: float) -> float:
    if got == want:
        return 0.0
    return abs(got - want) / max(abs(want), 1e-300)


def update_matrix(n: int, edges) -> scipy.sparse.csr_matrix:
    """Row-stochastic A with A[to, from] = weight, as a sparse matrix."""
    e = np.asarray(edges, dtype=float).reshape(-1, 3)
    return scipy.sparse.csr_matrix(
        (e[:, 2], (e[:, 1].astype(int), e[:, 0].astype(int))), shape=(n, n)
    )


class Reference:
    """Exact-arithmetic-free reference quantities for one (system, horizon)."""

    def __init__(self, n: int, edges, sources, targets, kf: int):
        self.n, self.kf = n, kf
        self.sources, self.targets = sorted(set(sources)), sorted(set(targets))
        self.A = update_matrix(n, edges)
        m, p = len(self.sources), len(self.targets)
        x = np.zeros((n, m))
        x[self.sources, range(m)] = 1.0
        diag = np.zeros(n)
        markov = np.empty((p, kf * m))
        for k in range(kf):
            diag += np.einsum("ij,ij->i", x, x)
            # column block i of M multiplies u[i] and equals C A^(kf-1-i) B
            i = kf - 1 - k
            markov[:, i * m : (i + 1) * m] = x[self.targets]
            x = self.A @ x
        self.m, self.p = m, p
        self.gramian_diag = diag
        self.markov = markov
        self._u, s, _ = np.linalg.svd(markov, full_matrices=False)
        self.singular = s
        self.lambda_max = float(s[0] ** 2)
        self.cond = float((s[0] / s[-1]) ** 2) if s[-1] > 0 else math.inf
        self.target_diag = np.einsum("ij,ij->i", markov, markov)

    @property
    def e_min(self) -> float:
        return 1.0 / self.lambda_max

    @property
    def f_min(self) -> float:
        return 1.0 / float(self.target_diag.max())

    def node_energies(self) -> np.ndarray:
        out = np.full(self.n, math.inf)
        ok = self.gramian_diag > 0.0
        out[ok] = 1.0 / self.gramian_diag[ok]
        return out

    def energy(self, goal) -> float:
        coeff = (self._u.T @ np.asarray(goal, dtype=float)) / self.singular
        return float(coeff @ coeff)

    def drive(self, u) -> np.ndarray:
        """Target outputs at time kf after driving the schedule u from rest."""
        u = np.asarray(u, dtype=float).reshape(self.kf, self.m)
        x = np.zeros(self.n)
        for k in range(self.kf):
            x = self.A @ x
            x[self.sources] += u[k]
        return x[self.targets]

    def goal_rtol(self) -> float:
        return solve_rtol(self.cond)


def mp_energy(markov: np.ndarray, goal, dps: int = 50) -> float:
    """Min-norm energy y^T (M M^T)^-1 y of float64 data, in dps-digit arithmetic."""
    with mpmath.workdps(dps):
        rows = [[mpmath.mpf(float(v)) for v in row] for row in markov]
        p = len(rows)
        gram = mpmath.matrix(p, p)
        for a in range(p):
            for b in range(a, p):
                acc = mpmath.fsum(x * y for x, y in zip(rows[a], rows[b]))
                gram[a, b] = gram[b, a] = acc
        y = mpmath.matrix([mpmath.mpf(float(v)) for v in goal])
        v = mpmath.lu_solve(gram, y)
        return float(mpmath.fsum(y[i] * v[i] for i in range(p)))


def check_reference(ref: Reference, goal) -> float:
    """Relative gap between the float64 reference and a 50-digit solve."""
    return rel_err(ref.energy(goal), mp_energy(ref.markov, goal))


def digits(max_rel_err: float) -> float:
    """Correct significant digits implied by a relative error."""
    return -math.log10(max(max_rel_err, REL_ERR_FLOOR))
