"""Measurement budgets and variance bounds, with exact enumeration checks.

The budget formulas give shot counts sufficient for epsilon-accurate
estimates at confidence 1 - delta. The exact_* companions enumerate small
systems outcome-by-outcome so the analytic bounds can be verified against
ground truth rather than simulation noise.
"""

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .povm import (cap_error, derive_rng, digits_from_indices,
                   sic_outcome_distribution)
from .qstate import DensityOperator
from .shadows import PAIR_TRACE_POWERS, depolarize

EXACT_LINEAR_CAP = 3    # enumerates 4^N outcomes
EXACT_QUADRATIC_CAP = 2  # enumerates 4^N x 4^N outcome pairs via the kernel
COINCIDENCE_CAP = 10
_DECOMP_EXACT_M_CAP = 3


@dataclass(frozen=True)
class BudgetQuery:
    k: int
    l: int
    epsilon: float
    delta: float
    hs_norm_sq: float = None

    def __post_init__(self):
        if self.k < 1 or self.l < 1:
            raise ValueError("k and l must be >= 1")
        if not 0 < self.epsilon < 1:
            raise ValueError("epsilon must lie strictly in (0, 1)")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie strictly in (0, 1)")
        if self.hs_norm_sq is not None and not self.hs_norm_sq > 0:
            raise ValueError(
                f"hs_norm_sq must be positive, not {self.hs_norm_sq!r}")


def _shot_count(what, value, q):
    """ceil(value(q)), refused with a ValueError that names the count when
    it lies outside float range (an overflow or a zero epsilon**2)."""
    try:
        return math.ceil(value(q))
    except (OverflowError, ZeroDivisionError):
        raise ValueError(
            f"{what} for k={q.k}, l={q.l}, epsilon={q.epsilon:g}, "
            f"delta={q.delta:g} is outside float range") from None


def _observable_budget_value(q):
    b = q.hs_norm_sq if q.hs_norm_sq is not None else 2.0**q.k
    return (8 / 3) * 3.0**q.k * b * math.log(2 * q.l / q.delta) / q.epsilon**2


def observable_budget(q):
    """Shots sufficient to estimate L observables on <= K qubits each.

    Uses the caller's tr(O^2) bound when provided, else the worst case 2^K.
    """
    if q.hs_norm_sq is not None and q.hs_norm_sq < (5 / 9) ** q.k:
        warnings.warn(
            "hs_norm_sq below (5/9)^K: outside the regime the budget "
            "formula was derived for; the returned count may be loose",
            stacklevel=2)
    return _shot_count("observable budget", _observable_budget_value, q)


def _purity_budget_value(q):
    return 6 * q.l * 3.0**q.k / (q.epsilon**2 * q.delta)


def purity_budget(q):
    """Shots sufficient to estimate L subsystem purities on <= K qubits."""
    return _shot_count("purity budget", _purity_budget_value, q)


def linear_variance_bound(obs):
    """3^K tr(O^2), valid for the single-shot estimator on any state."""
    return 3.0 ** len(obs.support) * obs.hs_norm_sq()


def exact_linear_variance(rho, obs, frame):
    """Var[tr(O sigma)] by enumerating every outcome string."""
    rho = rho if isinstance(rho, DensityOperator) else DensityOperator(rho)
    n = rho.n_qubits
    if n > EXACT_LINEAR_CAP:
        # probability, value and N digits for each of the 4^N outcomes
        raise cap_error(f"exact linear variance over 4^{n} outcomes",
                        (16 + n) * 4**n, f"{EXACT_LINEAR_CAP} qubits")
    from .estimators import linear_values
    probs = sic_outcome_distribution(rho, frame)
    x = linear_values(digits_from_indices(np.arange(4**n), n), obs, frame)
    mean = float(probs @ x)
    return float(probs @ (x * x) - mean * mean)


def quadratic_variance_bound(n):
    return 9.0**n


def exact_quadratic_variance(rho, frame):
    """Var[tr(sigma sigma')] over independent outcome pairs, enumerated."""
    rho = rho if isinstance(rho, DensityOperator) else DensityOperator(rho)
    n = rho.n_qubits
    if n > EXACT_QUADRATIC_CAP:
        raise cap_error(f"exact quadratic variance's 4^{n} x 4^{n} pair "
                        f"kernel", 8 * 16**n, f"{EXACT_QUADRATIC_CAP} qubits")
    probs = sic_outcome_distribution(rho, frame)
    v = PAIR_TRACE_POWERS[n]
    e1 = float(probs @ v @ probs)
    e2 = float(probs @ (v * v) @ probs)
    return e2 - e1 * e1


def coincidence_probability(rho):
    """Probability that two independent shots give identical outcomes.

    Equals 2^{-K} tr(rho D(rho)) with D the per-site strength-1/3
    depolarizing channel; frame-independent and bounded by 3^{-K}.
    """
    rho = rho if isinstance(rho, DensityOperator) else DensityOperator(rho)
    k = rho.n_qubits
    if k > COINCIDENCE_CAP:
        raise cap_error(f"coincidence probability's depolarized {k}-qubit "
                        f"state", 16 * 4**k, f"{COINCIDENCE_CAP} qubits")
    val = np.einsum("ij,ji->", rho.matrix, depolarize(rho.matrix, k))
    return float(val.real) / 2**k


def enumerated_coincidence(rho, frame):
    """Sum of squared outcome probabilities (the brute-force route)."""
    probs = sic_outcome_distribution(rho, frame)
    return float(probs @ probs)


def variance_decomposition_check(rho, m, frame, reps=None, seed=0):
    """Compare Var of the purity U-statistic against its closed form.

    Returns (lhs, rhs, stderr_of_lhs). With reps=None the left side is an
    exact enumeration over all M-tuples of outcomes (M <= 3, N <= 2,
    stderr 0); otherwise it is a Monte Carlo estimate over `reps`
    independent M-shot experiments.
    """
    rho = rho if isinstance(rho, DensityOperator) else DensityOperator(rho)
    n = rho.n_qubits
    if n > EXACT_QUADRATIC_CAP:
        raise cap_error(f"variance decomposition's 4^{n} x 4^{n} pair kernel",
                        8 * 16**n, f"{EXACT_QUADRATIC_CAP} qubits")
    if m < 2:
        raise ValueError("need at least 2 shots for the pair estimator")
    from .estimators import ObservableSpec
    var1 = exact_linear_variance(rho, ObservableSpec(range(n), rho.matrix),
                                 frame)
    var2 = exact_quadratic_variance(rho, frame)
    rhs = (4 * (m - 2) / (m * (m - 1))) * var1 + (2 / (m * (m - 1))) * var2

    probs = sic_outcome_distribution(rho, frame)
    v = PAIR_TRACE_POWERS[n]
    pair_norm = m * (m - 1)
    if reps is None:
        if m > _DECOMP_EXACT_M_CAP:
            # an int64 row of M outcome indices per M-tuple
            raise cap_error(f"exact enumeration over {m}-tuples of outcomes",
                            8 * m * probs.size**m,
                            f"{_DECOMP_EXACT_M_CAP} shots; pass reps= for "
                            f"Monte Carlo")
        tuples = np.array(list(itertools.product(range(probs.size), repeat=m)))
        weight = probs[tuples].prod(axis=1)
        vals = np.zeros(tuples.shape[0])
        for a, b in itertools.combinations(range(m), 2):
            vals += 2 * v[tuples[:, a], tuples[:, b]]
        vals /= pair_norm
        mean = float(weight @ vals)
        lhs = float(weight @ (vals * vals)) - mean * mean
        return lhs, rhs, 0.0

    rng = derive_rng(seed, "variance-mc")
    draws = rng.choice(probs.size, size=(reps, m), p=probs)
    counts = np.zeros((reps, probs.size))
    np.add.at(counts, (np.repeat(np.arange(reps), m), draws.ravel()), 1.0)
    quad = np.einsum("ri,ij,rj->r", counts, v, counts)
    diag = counts @ np.diag(v)
    vals = (quad - diag) / pair_norm
    lhs = float(vals.var(ddof=1))
    centered = vals - vals.mean()
    m4 = float((centered**4).mean())
    s2 = lhs
    var_of_var = (m4 - (reps - 3) / (reps - 1) * s2 * s2) / reps
    return lhs, rhs, math.sqrt(max(var_of_var, 0.0))


BUDGET_CSV_HEADER = "k,l,epsilon,delta,m_observable,m_purity"


def budget_csv_row(q):
    return (f"{q.k},{q.l},{q.epsilon:g},{q.delta:g},"
            f"{observable_budget(q)},{purity_budget(q)}")
