"""Linear/quadratic/cubic estimators against brute-force oracles."""

import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from sictomo.estimators import (
    CSV_HEADER,
    EstimateReport,
    ObservableSpec,
    PurityTracker,
    RunningMoments,
    all_bipartitions,
    estimate_p3,
    estimate_purity,
    estimate_renyi2,
    linear_values,
    observable_lut,
    renyi2_from_purity,
    renyi2_stderr,
)
from sictomo.povm import (CapExceededError, derive_rng, digits_from_indices,
                          sample_sic_shots, sic_frame,
                          sic_outcome_distribution)
from sictomo.qstate import (Bipartition, DensityOperator, make_ame5,
                            make_ghz, make_product, p3_moment_exact,
                            partial_trace, partial_transpose, purity_exact,
                            random_density)
from sictomo.shadows import pair_trace, shadow_expand

FRAME = sic_frame("standard")


def random_observable(rng, k):
    dim = 2**k
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


def naive_pair_purity(digits, subset):
    """All ordered pairs, one trace at a time."""
    m = digits.shape[0]
    total = sum(pair_trace(digits[i], digits[j], subset)
                for i in range(m) for j in range(m) if i != j)
    return total / (m * (m - 1))


# --- observables ---------------------------------------------------------------


def test_observable_spec_validation(rng):
    op = random_observable(rng, 2)
    spec = ObservableSpec((0, 2), op)
    assert abs(spec.hs_norm_sq() - np.trace(op @ op).real) < 1e-12
    with pytest.raises(ValueError):
        ObservableSpec((0,), op)  # wrong dimension
    with pytest.raises(ValueError):
        ObservableSpec((0, 1), op + 1j * np.eye(4))  # not Hermitian
    with pytest.raises(ValueError, match="duplicate qubits"):
        ObservableSpec((1, 1), op)
    with pytest.raises(TypeError):
        ObservableSpec((0.5, 1), op)  # not truncated to qubit 0
    with pytest.raises(ValueError, match="out of range"):
        linear_values(np.zeros((3, 2), dtype=np.uint8), spec, FRAME)


def test_observable_support_order_is_factor_order():
    """Support (1, 0) puts qubit 1 in the operator's leading factor."""
    z, one = np.diag([1.0, -1.0]), np.eye(2)
    spec = ObservableSpec((1, 0), np.kron(z, one))
    assert spec.support == (1, 0)
    digits = sample_sic_shots(make_product("01"), FRAME, 20000,
                              derive_rng(1, "sic-shots"))
    assert linear_values(digits, spec, FRAME).mean() < -0.9  # Z on qubit 1
    assert linear_values(digits, ObservableSpec((1, 0), np.kron(one, z)),
                         FRAME).mean() > 0.9  # Z on qubit 0


def test_unsorted_support_exactly_unbiased(rng):
    """Over the exact outcome law, support (1, 0) with operator O gives
    tr(SWAP O SWAP rho)."""
    rho = random_density(2, rng)
    op = random_observable(rng, 2)
    swap = np.eye(4)[[0, 2, 1, 3]]
    records = digits_from_indices(np.arange(16), 2)
    probs = sic_outcome_distribution(rho, FRAME)
    got = probs @ linear_values(records, ObservableSpec((1, 0), op), FRAME)
    assert abs(got - np.trace(swap @ op @ swap @ rho.matrix).real) < 1e-10


def test_observable_lut_matches_trace_loop(rng):
    op = random_observable(rng, 2)
    spec = ObservableSpec((0, 2), op)
    lut = observable_lut(spec, FRAME)
    assert lut.shape == (16,)
    for code, digits in enumerate(itertools.product(range(4), repeat=2)):
        row = np.array([digits[0], 0, digits[1]], dtype=np.uint8)
        sig = shadow_expand(row, (0, 2), FRAME)
        assert abs(lut[code] - np.trace(op @ sig).real) < 1e-10


def test_observable_lut_identity_is_ones():
    spec = ObservableSpec((0, 1), np.eye(4))
    np.testing.assert_allclose(observable_lut(spec, FRAME), 1.0, atol=1e-12)


def test_linear_estimator_exactly_unbiased(rng):
    """Contracting the lut with the exact outcome law returns tr(O rho)."""
    rho = random_density(2, rng)
    op = random_observable(rng, 2)
    spec = ObservableSpec((0, 1), op)
    probs = sic_outcome_distribution(rho, FRAME)
    got = float(probs @ observable_lut(spec, FRAME))
    assert abs(got - np.trace(op @ rho.matrix).real) < 1e-10


# --- running moments -------------------------------------------------------------


def test_running_moments_matches_numpy(rng):
    vals = rng.standard_normal(137)
    rm = RunningMoments()
    for chunk in np.array_split(vals, 7):
        rm.add_values(chunk)
    assert rm.count == 137
    assert abs(rm.mean - vals.mean()) < 1e-12
    assert abs(rm.stderr() - vals.std(ddof=1) / math.sqrt(137)) < 1e-12


def test_running_moments_degenerate():
    # no spread is known below two values, so no stderr is reported
    rm = RunningMoments()
    assert math.isnan(rm.stderr())
    rm.add_values([1.5])
    assert math.isnan(rm.stderr())
    assert rm.mean == 1.5
    rm.add_values([1.5])
    assert rm.stderr() == 0.0


# --- purity tracker ---------------------------------------------------------------


@pytest.mark.parametrize("subset", [(0, 1), (1,)])
def test_purity_tracker_matches_naive_pairwise(rng, subset):
    digits = rng.integers(0, 4, size=(60, 2)).astype(np.uint8)
    got = estimate_purity(digits, subset, FRAME)
    assert abs(got - naive_pair_purity(digits, subset)) < 1e-9


def test_purity_tracker_chunked_ingestion_invariant(rng):
    digits = rng.integers(0, 4, size=(50, 2)).astype(np.uint8)
    whole = PurityTracker(2, [(0, 1)])
    whole.add_records(digits)
    pieces = PurityTracker(2, [(0, 1)])
    for chunk in np.array_split(digits, 9):
        pieces.add_records(chunk)
    assert abs(whole.value()[0] - pieces.value()[0]) < 1e-12
    assert whole.shots == pieces.shots == 50


def test_purity_tracker_validation(rng):
    with pytest.raises(ValueError):
        PurityTracker(2, (0, 1))  # a flat tuple, not two subsets
    with pytest.raises(ValueError):
        PurityTracker(2, [(0,), (0, 1)])  # two subset sizes
    t = PurityTracker(2, [(0, 1)])
    t.add_records(np.zeros((1, 2), dtype=np.uint8))
    assert math.isnan(t.value()[0])  # one shot makes no pair
    assert math.isnan(t.stderr()[0])
    with pytest.raises(ValueError):
        t.add_records(np.zeros((1, 3), dtype=np.uint8))
    with pytest.raises(ValueError):
        t.add_records(np.zeros(2, dtype=np.uint8))  # rows, not one record


def test_repeated_qubits_are_refused(rng):
    # merging a repeated qubit would return the (0, 1) purity for (0, 0, 1)
    digits = rng.integers(0, 4, size=(50, 3)).astype(np.uint8)
    with pytest.raises(ValueError, match="duplicate qubits"):
        estimate_purity(digits, (0, 0, 1), FRAME)
    with pytest.raises(ValueError, match="duplicate qubits"):
        PurityTracker(3, [(1, 1)])
    with pytest.raises(ValueError, match="duplicate qubits"):
        PurityTracker(3, [(0, 2), (2, 0, 2)])


def test_non_integer_qubits_are_refused(rng):
    # int() would truncate (0.7, 1) to (0, 1) and return that purity
    digits = rng.integers(0, 4, size=(50, 3)).astype(np.uint8)
    with pytest.raises(TypeError):
        estimate_purity(digits, (0.7, 1), FRAME)
    with pytest.raises(TypeError):
        PurityTracker(3, [("0", "1")])


def test_boolean_qubits_are_refused(rng):
    # operator.index(True) is 1, so (False, True) returned the (0, 1) purity
    digits = rng.integers(0, 4, size=(50, 3)).astype(np.uint8)
    with pytest.raises(TypeError):
        estimate_purity(digits, (False, True), FRAME)
    with pytest.raises(TypeError):
        PurityTracker(3, [(True, 2)])


def test_purity_tracker_state_does_not_grow_with_outcomes():
    """K=7 on GHZ-8: more shots bring new patterns but no new state."""
    digits = sample_sic_shots(make_ghz(8), FRAME, 4000,
                              derive_rng(8, "sic-shots"))
    tracker = PurityTracker(8, [range(7), range(1, 8)])

    def state_bytes():
        return sum(v.nbytes for v in vars(tracker).values()
                   if isinstance(v, np.ndarray))

    tracker.add_records(digits[:1000])
    after_1k = state_bytes()
    tracker.add_records(digits[1000:])
    assert state_bytes() == after_1k
    assert tracker._hist.nbytes == 8 * 2 * 4**7  # 8 bytes x S x 4^K
    assert tracker.shots == 4000


def test_purity_tracker_byte_cap():
    # 4^11 * 8 bytes = 33.5 MB fits; 4^12 does not
    PurityTracker(11, [range(11)])
    with pytest.raises(CapExceededError, match="134,217,728 bytes"):
        PurityTracker(12, [range(12)])


def test_purity_jackknife_stderr_calibrated():
    """Jackknife stderr should track the spread over independent runs."""
    rho = random_density(1, np.random.default_rng(2))
    from sictomo.povm import derive_rng, sample_sic_shots
    values, stderrs = [], []
    for rep in range(30):
        digits = sample_sic_shots(rho, FRAME, 400,
                                  derive_rng(77, "sic-shots", rep))
        t = PurityTracker(1, [(0,)])
        t.add_records(digits)
        values.append(t.value()[0])
        stderrs.append(t.stderr()[0])
    assert all(np.isfinite(stderrs)) and min(stderrs) > 0
    spread = np.std(values, ddof=1)
    ratio = np.median(stderrs) / spread
    assert 0.5 < ratio < 2.0


def _mixed(n):
    return DensityOperator(np.eye(2**n) / 2**n, check=False)


@pytest.mark.parametrize("name,rho,keep", [
    ("mixed qubit", _mixed(1), (0,)),
    ("mixed pair", _mixed(2), (0, 1)),
    ("GHZ-3 pair", make_ghz(3).density(), (0, 1)),
    ("GHZ-3 full", make_ghz(3).density(), (0, 1, 2)),
    ("AME(5) pair", make_ame5().density(), (0, 1)),
])
def test_purity_stderr_coverage(name, rho, keep):
    """Share of 300 seeded runs of 2000 shots whose value lies within two
    reported stderrs of the exact purity. The degenerate marginals (the
    maximally mixed ones, AME(5)'s pair) have no first-order term, so the
    jackknife alone carries them; adding the plug-in second-order term
    2 zeta_2 / (M (M-1)) covers every run there (100 %), which the upper
    bound refuses as an overstated error."""
    k, runs, shots = len(keep), 300, 2000
    marginal = partial_trace(rho, keep) if k < rho.n_qubits else rho
    probs = sic_outcome_distribution(marginal, FRAME)
    rng = np.random.default_rng([1, *name.encode()])
    codes = rng.choice(4**k, size=(shots, runs), p=probs / probs.sum())
    # run r reads qubits r K .. r K + K - 1 of one wide record
    digits = digits_from_indices(codes.ravel(), k).reshape(shots, runs * k)
    tracker = PurityTracker(runs * k, [range(r * k, r * k + k)
                                       for r in range(runs)])
    tracker.add_records(digits)
    z = (tracker.value() - purity_exact(marginal)) / tracker.stderr()
    assert 0.90 <= np.mean(np.abs(z) < 2) <= 0.995, name


def test_purity_is_the_same_in_every_frame(rng):
    """tr(s s') of two single-site shadows is 5 for equal digits and -1
    otherwise in every SIC frame, so the same digits give the same purity,
    jackknife stderr and Renyi-2 entropy under the standard and rotated
    frames. That is why a PurityTracker takes no frame."""
    digits = rng.integers(0, 4, size=(25, 4)).astype(np.uint8)
    subset, part = (0, 2), Bipartition(4, (0, 2))  # its smaller side
    tracker = PurityTracker(4, [subset])
    tracker.add_records(digits)
    m = len(digits)
    for frame in (FRAME, sic_frame("rotated")):
        mats = [shadow_expand(row, subset, frame) for row in digits]
        total, self_pairs = sum(mats), sum(np.trace(a @ a).real for a in mats)
        pairs = np.trace(total @ total).real - self_pairs
        # deleting shot i removes its pairs with every other shot, twice
        loo = np.array([(pairs - 2 * (np.trace(a @ total).real
                                      - np.trace(a @ a).real))
                        / ((m - 1) * (m - 2)) for a in mats])
        stderr = math.sqrt((m - 1) / m * ((loo - loo.mean()) ** 2).sum())
        value = pairs / (m * (m - 1))
        assert abs(estimate_purity(digits, subset, frame) - value) < 1e-10
        assert abs(tracker.value()[0] - value) < 1e-10
        assert abs(tracker.stderr()[0] - stderr) < 1e-10
        assert abs(estimate_renyi2(digits, part, frame)
                   - renyi2_from_purity(value)) < 1e-10
    assert (estimate_purity(digits, subset, FRAME)
            == estimate_purity(digits, subset, sic_frame("rotated")))
    assert (estimate_renyi2(digits, part, FRAME)
            == estimate_renyi2(digits, part, sic_frame("rotated")))


# --- renyi ----------------------------------------------------------------------


def test_renyi_from_purity():
    assert abs(renyi2_from_purity(0.5) - 1.0) < 1e-12
    assert abs(renyi2_from_purity(0.25) - 2.0) < 1e-12
    assert abs(renyi2_stderr(0.5, 0.1) - 0.1 / (0.5 * math.log(2))) < 1e-12
    # a positive purity gives its exact -log2, however small
    assert renyi2_from_purity(1e-9) == -math.log2(1e-9)
    # a pair estimate at or below zero has no entropy: nan, not a clamp
    for purity in (-0.3, 0.0, -0.0, math.nan):
        assert math.isnan(renyi2_from_purity(purity))
        assert math.isnan(renyi2_stderr(purity, 0.1))


def test_estimate_renyi2_uses_smaller_side(rng):
    digits = rng.integers(0, 4, size=(30, 3)).astype(np.uint8)
    part = Bipartition(3, (0, 2))  # smaller side is qubit 1
    got = estimate_renyi2(digits, part, FRAME)
    want = renyi2_from_purity(estimate_purity(digits, (1,), FRAME))
    assert abs(got - want) < 1e-12


# --- p3 (triple statistic) --------------------------------------------------------


def test_p3_matches_triple_loop(rng):
    digits = rng.integers(0, 4, size=(8, 2)).astype(np.uint8)
    part = Bipartition(2, (0,))
    pts = [partial_transpose(shadow_expand(row, (0, 1), FRAME), part)
           for row in digits]
    want = np.mean([np.trace(pts[i] @ pts[j] @ pts[k]).real
                    for i, j, k in itertools.combinations(range(8), 3)])
    assert abs(estimate_p3(digits, part, FRAME) - want) < 1e-9


def test_p3_kernel_order_invariant(rng):
    # Re tr(abc) over Hermitian factors ignores the triple's ordering, so a
    # fully ordered enumeration must agree with the unordered one
    digits = rng.integers(0, 4, size=(6, 2)).astype(np.uint8)
    part = Bipartition(2, (1,))
    pts = [partial_transpose(shadow_expand(row, (0, 1), FRAME), part)
           for row in digits]
    ordered = np.mean([np.trace(pts[i] @ pts[j] @ pts[k]).real
                       for i, j, k in itertools.permutations(range(6), 3)])
    assert abs(estimate_p3(digits, part, FRAME) - ordered) < 1e-9


def test_p3_exact_at_fifty_records(rng):
    # C(50,3) = 19600 triples, every one enumerated
    digits = rng.integers(0, 4, size=(50, 2)).astype(np.uint8)
    part = Bipartition(2, (0,))
    pts = np.array([partial_transpose(shadow_expand(row, (0, 1), FRAME), part)
                    for row in digits])
    idx = np.array(list(itertools.combinations(range(50), 3)))
    want = np.einsum("tij,tjk,tki->t", pts[idx[:, 0]], pts[idx[:, 1]],
                     pts[idx[:, 2]]).real.mean()
    assert abs(estimate_p3(digits, part, FRAME) - want) < 1e-10


@pytest.mark.parametrize("side_a", [(0,), (1,)])
def test_p3_exactly_unbiased(rng, side_a):
    # weight each of the 16^3 outcome triples by its probability
    rho = random_density(2, rng)
    part = Bipartition(2, side_a)
    probs = sic_outcome_distribution(rho, FRAME)
    patterns = digits_from_indices(np.arange(16), 2)
    got = sum(probs[i] * probs[j] * probs[k]
              * estimate_p3(patterns[[i, j, k]], part, FRAME)
              for i, j, k in itertools.product(range(16), repeat=3))
    assert abs(got - p3_moment_exact(rho, part)[0]) < 1e-10


def test_p3_cap_states_bytes():
    part = Bipartition(12, (0, 1))
    with pytest.raises(CapExceededError, match=" bytes; capped at "):
        estimate_p3(np.zeros((3, 12), dtype=np.uint8), part, FRAME)


def test_p3_ghz8_memory_and_accuracy():
    """20k GHZ-8 shots: one 256 x 256 shadow sum, not a 21 GB per-shot
    stack. The child reads its own high-water mark (its ru_maxrss would
    start from this process's). Over ten seeds the estimate's spread was
    0.07, so 0.3 is about four standard deviations."""
    code = ("import re, time, sictomo\n"
            "from sictomo.povm import derive_rng, sample_sic_shots, sic_frame\n"
            "from sictomo.qstate import Bipartition, make_ghz\n"
            "frame = sic_frame('standard')\n"
            "digits = sample_sic_shots(make_ghz(8), frame, 20000,"
            " derive_rng(0, 'sic-shots'))\n"
            "t0 = time.perf_counter()\n"
            "p3 = sictomo.estimate_p3(digits, Bipartition(8, (0, 1, 2, 3)),"
            " frame)\n"
            "wall = time.perf_counter() - t0\n"
            "status = open('/proc/self/status').read()\n"
            "hwm = re.search(r'VmHWM:\\s+(\\d+) kB', status).group(1)\n"
            "print(p3, wall, hwm)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    p3, wall, hwm = (float(x) for x in out.split())
    # GHZ: rho^{T_A} has eigenvalues 1/2 (three times) and -1/2, so p3 = 1/4
    assert abs(p3 - 0.25) < 0.3
    assert wall < 2.0
    assert hwm / 1024 < 200


def test_p3_validation(rng):
    part = Bipartition(2, (0,))
    with pytest.raises(ValueError):
        estimate_p3(np.zeros((2, 2), dtype=np.uint8), part, FRAME)
    with pytest.raises(ValueError):
        estimate_p3(np.zeros((5, 3), dtype=np.uint8), part, FRAME)


def test_all_bipartitions_counts():
    assert len(all_bipartitions(4, 2)) == 7
    assert len(all_bipartitions(5, 2)) == 15
    assert len(all_bipartitions(8, 1)) == 8
    halves = [p.subset_a for p in all_bipartitions(4, 2) if len(p.subset_a) == 2]
    assert halves == [(0, 1), (0, 2), (0, 3)]  # duplicates dropped
    with pytest.raises(ValueError):
        all_bipartitions(4, 0)
    with pytest.raises(ValueError):
        all_bipartitions(4, 3)


def test_estimate_report_serialization():
    rep = EstimateReport(100, "shadows", "purity", "0-1", 0.123456789012,
                         0.01, 1.5)
    row = rep.to_csv_row()
    assert row.count(",") == 6
    assert row.split(",")[:4] == ["100", "shadows", "purity", "0-1"]
    assert row.split(",")[4] == "0.123456789"
    d = rep.to_json_dict()
    assert tuple(d) == tuple(CSV_HEADER.split(","))
