"""Shot budgets, enumerated variances and the coincidence identity."""

import itertools
import math

import numpy as np
import pytest

from sictomo.budget import (
    BUDGET_CSV_HEADER,
    BudgetQuery,
    budget_csv_row,
    coincidence_probability,
    enumerated_coincidence,
    exact_linear_variance,
    exact_quadratic_variance,
    linear_variance_bound,
    observable_budget,
    purity_budget,
    quadratic_variance_bound,
    variance_decomposition_check,
)
from sictomo.estimators import ObservableSpec, observable_lut
from sictomo.povm import CapExceededError, sic_frame, sic_outcome_distribution
from sictomo.qstate import DensityOperator, PureState, random_density
from sictomo.shadows import pair_trace

FRAME = sic_frame("standard")


def test_budget_query_validation():
    for bad in (dict(k=0), dict(l=0), dict(epsilon=0.0), dict(epsilon=1.0),
                dict(delta=0.0), dict(delta=1.0), dict(hs_norm_sq=0.0),
                dict(hs_norm_sq=math.nan)):
        kwargs = dict(k=1, l=1, epsilon=0.1, delta=0.1)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            BudgetQuery(**kwargs)


def test_observable_budget_reference_value():
    q = BudgetQuery(k=1, l=1, epsilon=0.1, delta=0.01, hs_norm_sq=2.0)
    assert observable_budget(q) == 8478
    # independent arithmetic for the same point
    assert observable_budget(q) == math.ceil(
        (8 / 3) * 3 * 2 * math.log(200) / 0.01)
    # the default Hilbert-Schmidt bound for K=1 is also 2
    assert observable_budget(BudgetQuery(k=1, l=1, epsilon=0.1,
                                         delta=0.01)) == 8478


def test_purity_budget_reference_value():
    q = BudgetQuery(k=2, l=1, epsilon=0.1, delta=0.1)
    assert purity_budget(q) == 54000
    assert purity_budget(q) == math.ceil(6 * 9 / (0.01 * 0.1))
    assert purity_budget(BudgetQuery(k=1, l=1, epsilon=0.1,
                                     delta=0.01)) == 180000


def test_observable_budget_warns_outside_regime():
    q = BudgetQuery(k=2, l=1, epsilon=0.1, delta=0.1, hs_norm_sq=0.05)
    with pytest.warns(UserWarning, match="hs_norm_sq"):
        observable_budget(q)


@pytest.mark.parametrize("budget, what, k, epsilon", [
    (observable_budget, "observable budget", 395, 0.1),  # 3^k 2^k is inf
    (observable_budget, "observable budget", 647, 0.1),  # 3.0**k raises
    (purity_budget, "purity budget", 640, 0.1),  # the count is inf
    (purity_budget, "purity budget", 647, 0.1),
    (observable_budget, "observable budget", 1, 1e-160),  # 1 / eps^2 is inf
    (purity_budget, "purity budget", 1, 1e-170),  # eps^2 is zero
])
def test_budget_refuses_count_outside_float_range(budget, what, k, epsilon):
    with pytest.raises(ValueError, match=rf"^{what} for k={k}, l=1, "
                       rf"epsilon={epsilon:g}, delta=0.1 is outside float "
                       "range$"):
        budget(BudgetQuery(k, 1, epsilon, 0.1))


def test_budget_monotonicity_grid():
    base = dict(k=1, l=1, epsilon=0.1, delta=0.1)
    for fn in (observable_budget, purity_budget):
        ref = fn(BudgetQuery(**base))
        assert fn(BudgetQuery(**{**base, "k": 2})) > ref
        assert fn(BudgetQuery(**{**base, "l": 4})) > ref
        assert fn(BudgetQuery(**{**base, "epsilon": 0.05})) > ref
        assert fn(BudgetQuery(**{**base, "delta": 0.01})) > ref


def test_budget_csv_row():
    q = BudgetQuery(k=1, l=1, epsilon=0.1, delta=0.01)
    assert BUDGET_CSV_HEADER == "k,l,epsilon,delta,m_observable,m_purity"
    assert budget_csv_row(q) == "1,1,0.1,0.01,8478,180000"


# --- linear variance ---------------------------------------------------------------


def test_linear_variance_bound_formula(rng):
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    op = (g + g.conj().T) / 2
    obs = ObservableSpec((0, 1), op)
    want = 9.0 * np.trace(op @ op).real
    assert abs(linear_variance_bound(obs) - want) < 1e-10


def test_exact_linear_variance_matches_enumeration(rng):
    rho = random_density(2, rng)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    op = (g + g.conj().T) / 2
    obs = ObservableSpec((1,), op)
    got = exact_linear_variance(rho, obs, FRAME)
    probs = sic_outcome_distribution(rho, FRAME)
    vals = observable_lut(obs, FRAME)[
        np.array([i % 4 for i in range(16)])]  # qubit 1 is the low digit
    mean = probs @ vals
    want = probs @ vals**2 - mean**2
    assert abs(got - want) < 1e-10
    assert got <= linear_variance_bound(obs) + 1e-9


def test_exact_linear_variance_cap(rng):
    rho = random_density(4, rng)
    obs = ObservableSpec((0,), np.eye(2))
    with pytest.raises(CapExceededError):
        exact_linear_variance(rho, obs, FRAME)


# --- quadratic variance --------------------------------------------------------------


def test_quadratic_variance_hand_case():
    rho = DensityOperator(np.eye(2) / 2)
    assert abs(exact_quadratic_variance(rho, FRAME) - 6.75) < 1e-10
    assert quadratic_variance_bound(1) == 9.0
    assert quadratic_variance_bound(2) == 81.0


def test_quadratic_variance_matches_pair_enumeration(rng):
    rho = random_density(1, rng)
    got = exact_quadratic_variance(rho, FRAME)
    probs = sic_outcome_distribution(rho, FRAME)
    mean = sq = 0.0
    for i, j in itertools.product(range(4), repeat=2):
        t = pair_trace([i], [j])
        mean += probs[i] * probs[j] * t
        sq += probs[i] * probs[j] * t * t
    assert abs(got - (sq - mean**2)) < 1e-10
    assert got <= 9.0 + 1e-9


def test_quadratic_variance_cap(rng):
    with pytest.raises(CapExceededError):
        exact_quadratic_variance(random_density(3, rng), FRAME)


# --- coincidence probability -----------------------------------------------------------


def test_coincidence_closed_form_matches_enumeration(rng):
    for n in (1, 2):
        rho = random_density(n, rng)
        a = coincidence_probability(rho)
        b = enumerated_coincidence(rho, FRAME)
        assert abs(a - b) < 1e-12
        assert a <= 3.0**-n + 1e-12
    # frame independence: the rotated frame enumerates to the same value
    rho = random_density(1, rng)
    assert abs(enumerated_coincidence(rho, sic_frame("rotated"))
               - enumerated_coincidence(rho, FRAME)) < 1e-12


def test_coincidence_hand_cases():
    assert abs(coincidence_probability(DensityOperator(np.eye(2) / 2))
               - 0.25) < 1e-12
    aligned = PureState(FRAME.kets[2])
    assert abs(coincidence_probability(aligned.density()) - 1 / 3) < 1e-12


# --- variance decomposition --------------------------------------------------------------


def test_variance_decomposition_exact(rng):
    rho = random_density(1, rng)
    lhs, rhs, se = variance_decomposition_check(rho, 3, FRAME)
    assert se == 0.0
    assert abs(lhs - rhs) < 1e-9
    lhs2, rhs2, _ = variance_decomposition_check(rho, 2, FRAME)
    assert abs(lhs2 - rhs2) < 1e-9


def test_variance_decomposition_guards(rng):
    rho = random_density(1, rng)
    with pytest.raises(ValueError):
        variance_decomposition_check(rho, 1, FRAME)
    with pytest.raises(CapExceededError):
        variance_decomposition_check(rho, 4, FRAME)  # exact mode only to M=3
    with pytest.raises(CapExceededError):
        variance_decomposition_check(random_density(3, rng), 3, FRAME)


@pytest.mark.parametrize("call, nbytes", [
    (lambda rng: exact_linear_variance(
        random_density(4, rng), ObservableSpec((0,), np.eye(2)), FRAME),
     "5,120"),
    (lambda rng: exact_quadratic_variance(random_density(3, rng), FRAME),
     "32,768"),
    (lambda rng: coincidence_probability(DensityOperator(
        np.zeros((2**11, 2**11), dtype=complex), check=False)),
     "67,108,864"),
    (lambda rng: variance_decomposition_check(
        random_density(3, rng), 3, FRAME), "32,768"),
    (lambda rng: variance_decomposition_check(
        random_density(1, rng), 4, FRAME), "8,192"),
], ids=["linear", "quadratic", "coincidence", "decomposition-n",
        "decomposition-m"])
def test_enumerator_refusals_state_bytes(call, nbytes, rng):
    with pytest.raises(CapExceededError, match=f"needs {nbytes} bytes; capped"):
        call(rng)


def test_variance_decomposition_monte_carlo():
    rho = random_density(1, np.random.default_rng(3))
    lhs, rhs, se = variance_decomposition_check(rho, 100, FRAME, reps=3000,
                                                seed=4)
    assert se > 0
    assert abs(lhs - rhs) <= 3 * se
