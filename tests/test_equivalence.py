"""Histogram-native shadow layer against the per-shot matrix algorithms.

The references build every shadow with shadow_expand: the purity tracker as
one dense 2^K x 2^K running sum per jackknife group, scatter-added batch by
batch, and the lookup table and shadow sum as traces and sums of the
pattern matrices. The site-factorized code must reproduce them to 1e-10.
"""

import itertools
import math

import numpy as np
import pytest

from sictomo.estimators import (JACKKNIFE_GROUPS, ObservableSpec,
                                PurityTracker, observable_lut)
from sictomo.povm import derive_rng, sample_sic_shots, sic_frame
from sictomo.qstate import make_ghz
from sictomo.shadows import ShadowAccumulator, batch_shadows, shadow_expand

FRAME = sic_frame("standard")
TOL = 1e-10
SUBSETS = {1: (3,), 2: (1, 4), 3: (0, 2, 5), 6: (0, 1, 2, 4, 5, 6)}


def ghz_shots(n_shots, seed, n_qubits=7):
    return sample_sic_shots(make_ghz(n_qubits), FRAME, n_shots,
                            derive_rng(seed, "sic-shots"))


def reference_slots(digits, subset, batch, groups=JACKKNIFE_GROUPS):
    """Per-group matrix sums S_g, self-overlaps q_g and batch counts m_g,
    batches dealt round-robin; a trailing partial batch is left out."""
    dim = 2 ** len(subset)
    s = np.zeros((groups, dim, dim), dtype=complex)
    q = np.zeros(groups)
    m = np.zeros(groups, dtype=np.int64)
    for j in range(len(digits) // batch):
        rows = digits[j * batch:(j + 1) * batch]
        mat = sum(shadow_expand(row, subset, FRAME) for row in rows) / batch
        s[j % groups] += mat
        q[j % groups] += np.trace(mat @ mat).real
        m[j % groups] += 1
    return s, q, m


def reference_estimate(slots):
    """Pair U-statistic and its delete-one-group jackknife stderr."""
    s, q, m = slots
    total, q_all, m_all = s.sum(axis=0), q.sum(), m.sum()
    value = (np.trace(total @ total).real - q_all) / (m_all * (m_all - 1))
    present = m > 0
    loo = total - s[present]
    loo_m = (m_all - m[present]).astype(float)
    tr2 = np.einsum("gij,gji->g", loo, loo).real
    vals = (tr2 - (q_all - q[present])) / (loo_m * (loo_m - 1))
    g = int(present.sum())
    stderr = math.sqrt((g - 1) / g * ((vals - vals.mean()) ** 2).sum())
    return value, stderr


def assert_matches(tracker, slots):
    value, stderr = reference_estimate(slots)
    assert abs(tracker.value() - value) < TOL
    assert abs(tracker.stderr() - stderr) < TOL
    assert tracker.m_batches == int(slots[2].sum())
    assert abs(tracker.self_overlap_sum - slots[1].sum()) < TOL * slots[1].sum()


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("k", sorted(SUBSETS))
def test_purity_tracker_matches_slot_matrices(k, batch):
    # 361 shots: groups wrap at batch 1, one record stays pending at batch 3
    digits = ghz_shots(361, seed=k)
    tracker = PurityTracker(7, SUBSETS[k], FRAME, batch=batch)
    for chunk in np.array_split(digits, 7):
        tracker.add_records(chunk)
    assert_matches(tracker, reference_slots(digits, SUBSETS[k], batch))


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("k", [2, 6])
def test_purity_tracker_merge_matches_slot_matrices(k, batch):
    digits = ghz_shots(330, seed=10 + k)
    left = PurityTracker(7, SUBSETS[k], FRAME, batch=batch)
    left.add_records(digits[:150])
    right = PurityTracker(7, SUBSETS[k], FRAME, batch=batch)
    right.add_records(digits[150:])
    left.merge(right)
    # each side deals its own batches round-robin from group 0
    a = reference_slots(digits[:150], SUBSETS[k], batch)
    b = reference_slots(digits[150:], SUBSETS[k], batch)
    assert_matches(left, tuple(x + y for x, y in zip(a, b)))


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("k", [1, 3])
def test_purity_tracker_add_batch_matches_slot_matrices(k, batch):
    digits = ghz_shots(330, seed=20 + k)
    tracker = PurityTracker(7, SUBSETS[k], FRAME, batch=batch)
    for b in batch_shadows(digits, SUBSETS[k], FRAME, batch):
        tracker.add_batch(b)
    assert_matches(tracker, reference_slots(digits, SUBSETS[k], batch))


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_observable_lut_matches_kron(rng, n):
    g = rng.standard_normal((2**n, 2**n)) + 1j * rng.standard_normal((2**n,) * 2)
    op = (g + g.conj().T) / 2
    lut = observable_lut(ObservableSpec(range(n), op), FRAME)
    want = [np.einsum("ij,ji->", op, shadow_expand(np.array(d), range(n),
                                                   FRAME)).real
            for d in itertools.product(range(4), repeat=n)]
    np.testing.assert_allclose(lut, want, rtol=0, atol=TOL)


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_accumulator_running_sum_matches_kron(n):
    digits = ghz_shots(200, seed=30 + n, n_qubits=max(n, 3))
    acc = ShadowAccumulator(digits.shape[1], range(n), FRAME)
    for chunk in np.array_split(digits, 3):
        acc.add_records(chunk)
    want = sum(shadow_expand(row, range(n), FRAME) for row in digits)
    np.testing.assert_allclose(acc.running_sum, want, rtol=0, atol=TOL)
    np.testing.assert_allclose(acc.mean(), want / 200, rtol=0, atol=TOL)
