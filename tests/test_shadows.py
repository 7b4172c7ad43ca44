"""Single-shot shadow factors, subset materialization, running accumulators."""

import itertools

import numpy as np
import pytest

from sictomo.povm import (BYTES_CAP, CapExceededError, frame_sums,
                          sic_frame, sic_outcome_distribution)
from sictomo.qstate import random_density
from sictomo.shadows import (
    PAIR_TRACE,
    ShadowAccumulator,
    depolarize,
    inverse_depolarizing,
    pair_trace,
    shadow_expand,
)

FRAME = sic_frame("standard")


def trace_out(mat, n, keep):
    t = mat.reshape((2,) * (2 * n))
    for q in sorted(set(range(n)) - set(keep), reverse=True):
        t = np.trace(t, axis1=q, axis2=q + (t.ndim // 2))
    d = 2 ** len(keep)
    return t.reshape(d, d)


@pytest.mark.parametrize("name", ["standard", "rotated"])
def test_shadow_factor_spectrum(name):
    mats = sic_frame(name).duals
    assert mats.shape == (4, 2, 2)
    for m in mats:
        np.testing.assert_allclose(m, m.conj().T, atol=1e-12)
        np.testing.assert_allclose(np.linalg.eigvalsh(m), [-1, 2], atol=1e-12)
        assert abs(np.trace(m) - 1) < 1e-12


@pytest.mark.parametrize("name", ["standard", "rotated"])
def test_single_shot_unbiasedness(rng, name):
    frame = sic_frame(name)
    rho = random_density(1, rng)
    probs = sic_outcome_distribution(rho, frame)
    mats = frame.duals
    mean = np.tensordot(probs, mats, axes=1)
    np.testing.assert_allclose(mean, rho.matrix, atol=1e-12)


def test_shadow_expand_matches_kron():
    mats = FRAME.duals
    row = np.array([3, 1, 0], dtype=np.uint8)
    got = shadow_expand(row, (0, 2), FRAME)
    np.testing.assert_allclose(got, np.kron(mats[3], mats[0]), atol=1e-14)
    full = shadow_expand(row, range(3), FRAME)
    want = np.kron(np.kron(mats[3], mats[1]), mats[0])
    np.testing.assert_allclose(full, want, atol=1e-14)


def test_shadow_expand_validation():
    with pytest.raises(ValueError):
        shadow_expand([0, 1], [], FRAME)
    with pytest.raises(ValueError):
        shadow_expand([0, 1], [2], FRAME)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_self_overlap_is_5_to_k(rng, k):
    row = rng.integers(0, 4, size=k).astype(np.uint8)
    mat = shadow_expand(row, range(k), FRAME)
    assert abs(np.trace(mat @ mat).real - 5.0**k) < 1e-9


@pytest.mark.parametrize("name", ["standard", "rotated"])
def test_pair_trace_table(name):
    """The literals are facts about the frame's duals D_i: PAIR_TRACE is
    their Gram matrix tr(D_i D_j), tr(D_i^2) = 5 and tr(D_i^3) = 7."""
    mats = sic_frame(name).duals
    for i, j in itertools.product(range(4), repeat=2):
        got = np.trace(mats[i] @ mats[j])
        assert abs(got - PAIR_TRACE[i, j]) < 1e-12
    for m in mats:
        assert abs(np.trace(m @ m) - 5) < 1e-12
        assert abs(np.trace(m @ m @ m) - 7) < 1e-12


def test_pair_trace_matches_materialized(rng):
    for _ in range(10):
        a = rng.integers(0, 4, size=3).astype(np.uint8)
        b = rng.integers(0, 4, size=3).astype(np.uint8)
        for subset in [(0,), (1, 2), (0, 1, 2)]:
            want = np.trace(shadow_expand(a, subset, FRAME)
                            @ shadow_expand(b, subset, FRAME)).real
            assert abs(pair_trace(a, b, subset) - want) < 1e-9


def test_shadow_marginalization(rng):
    """Tracing out sites of the full shadow leaves the subset shadow."""
    row = rng.integers(0, 4, size=3).astype(np.uint8)
    full = shadow_expand(row, range(3), FRAME)
    for keep in [(0,), (2,), (0, 1), (1, 2)]:
        np.testing.assert_allclose(trace_out(full, 3, keep),
                                   shadow_expand(row, keep, FRAME),
                                   atol=1e-12)


# --- depolarizing maps --------------------------------------------------------


def test_depolarize_single_site_formula(rng):
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    want = g / 3 + np.trace(g) * np.eye(2) / 3
    np.testing.assert_allclose(depolarize(g, 1), want, atol=1e-13)


def test_depolarize_inverse_round_trip(rng):
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    np.testing.assert_allclose(inverse_depolarizing(depolarize(g, 2), 2), g,
                               atol=1e-12)
    np.testing.assert_allclose(depolarize(inverse_depolarizing(g, 2), 2), g,
                               atol=1e-12)
    with pytest.raises(ValueError):
        depolarize(g, 3)


def test_inverse_depolarizing_gives_shadow_factors():
    for i in range(4):
        got = inverse_depolarizing(FRAME.projectors[i], 1)
        np.testing.assert_allclose(got, FRAME.duals[i], atol=1e-13)


# --- accumulators --------------------------------------------------------------


def test_accumulator_matches_shadow_mean(rng):
    digits = rng.integers(0, 4, size=(50, 3)).astype(np.uint8)
    acc = ShadowAccumulator(3, (0, 2), FRAME)
    acc.add_records(digits[:20])
    acc.add_records(digits[20:])
    want = sum(shadow_expand(r, (0, 2), FRAME) for r in digits) / 50
    np.testing.assert_allclose(acc.mean(), want, atol=1e-12)
    assert acc.count == 50


def test_shadow_mean_above_stack_cap(rng):
    # six sites: the site-by-site contraction of a 4^6 pattern histogram
    digits = rng.integers(0, 4, size=(3, 6)).astype(np.uint8)
    want = sum(shadow_expand(r, range(6), FRAME) for r in digits) / 3
    acc = ShadowAccumulator(6, range(6), FRAME)
    acc.add_records(digits)
    np.testing.assert_allclose(acc.mean(), want, atol=1e-10)


def test_accumulator_weights_equal_repetition(rng):
    digits = rng.integers(0, 4, size=(2, 2)).astype(np.uint8)
    weighted = ShadowAccumulator(2, (0, 1), FRAME)
    weighted.add_records(digits, weights=[2, 1])
    plain = ShadowAccumulator(2, (0, 1), FRAME)
    plain.add_records(digits[[0, 0, 1]])
    np.testing.assert_allclose(frame_sums(weighted.histogram, FRAME.duals),
                               frame_sums(plain.histogram, FRAME.duals),
                               atol=1e-12)
    assert weighted.count == 3


@pytest.mark.parametrize("weights", [[1.5, 1.0], [0.3, 0.3], [-1, 2]])
def test_accumulator_rejects_non_count_weights(rng, weights):
    # weights are repetition counts; fractions used to be truncated in count
    digits = rng.integers(0, 4, size=(2, 2)).astype(np.uint8)
    acc = ShadowAccumulator(2, (0, 1), FRAME)
    with pytest.raises(ValueError, match="repetition counts"):
        acc.add_records(digits, weights=weights)
    assert acc.count == 0


def test_accumulator_validation(rng):
    acc = ShadowAccumulator(2, (0, 1), FRAME)
    with pytest.raises(ValueError):
        acc.mean()
    with pytest.raises(ValueError):
        acc.add_records(np.zeros((3, 3), dtype=np.uint8))
    with pytest.raises(ValueError):
        acc.add_records(np.zeros(2, dtype=np.uint8))  # rows, not one record
    with pytest.raises(ValueError):
        ShadowAccumulator(2, (0, 5), FRAME)
    with pytest.raises(ValueError, match="duplicate qubits"):
        ShadowAccumulator(3, (1, 1), FRAME)


def test_histogram_byte_cap():
    # 4^11 * 8 bytes fits under the cap, 4^12 * 8 does not
    assert 8 * 4**11 <= BYTES_CAP < 8 * 4**12
    ShadowAccumulator(11, range(11), FRAME)
    with pytest.raises(CapExceededError, match="134,217,728 bytes"):
        ShadowAccumulator(12, range(12), FRAME)
