"""Frames, Naimark embedding, outcome distributions, seeded sampling."""

import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.stats import chi2_contingency

from sictomo import povm
from sictomo.povm import (
    CapExceededError,
    FrameSuperoperator,
    SicFrame,
    allocate_pauli_shots,
    bloch_to_ket,
    derive_rng,
    digits_from_indices,
    indices_from_digits,
    ket_to_bloch,
    naimark_unitary,
    pauli_outcome_distribution,
    pauli_settings,
    sample_pauli_shots,
    sample_sic_shots,
    sic_frame,
    sic_outcome_distribution,
)
from sictomo.qstate import (DensityOperator, make_ghz, make_product,
                            random_density, random_pure)

SWAP = np.array([[1, 0, 0, 0],
                 [0, 0, 1, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1]], dtype=float)


def sic_probs_by_effect_loop(rho, frame, n):
    """Oracle: one trace per outcome tuple, no tensor tricks."""
    out = np.empty(4**n)
    for idx, digits in enumerate(itertools.product(range(4), repeat=n)):
        effect = np.ones((1, 1), dtype=complex)
        for d in digits:  # qubit 0 is the most significant digit
            effect = np.kron(effect, frame.effects[d])
        out[idx] = np.trace(rho @ effect).real
    return out


# --- frame identities ---------------------------------------------------------


@pytest.mark.parametrize("name", ["standard", "rotated"])
def test_frame_identities(name):
    frame = sic_frame(name)
    np.testing.assert_allclose(frame.effects.sum(axis=0), np.eye(2),
                               atol=1e-12)
    two = sum(np.kron(p, p) for p in frame.projectors) / 4
    np.testing.assert_allclose(two, (np.eye(4) + SWAP) / 6, atol=1e-12)
    ov = np.abs(frame.kets @ frame.kets.conj().T) ** 2
    np.testing.assert_allclose(ov - np.diag(np.diag(ov)),
                               (np.ones((4, 4)) - np.eye(4)) / 3, atol=1e-12)
    np.testing.assert_allclose(np.diag(ov), 1.0, atol=1e-12)


@pytest.mark.parametrize("name", ["standard", "rotated"])
def test_frame_bloch_tetrahedron(name):
    vecs = np.array([ket_to_bloch(k) for k in sic_frame(name).kets])
    gram = vecs @ vecs.T
    np.testing.assert_allclose(np.diag(gram), 1.0, atol=1e-12)
    off = gram - np.diag(np.diag(gram))
    np.testing.assert_allclose(off, (np.eye(4) - np.ones((4, 4))) / 3,
                               atol=1e-12)


def test_frames_are_distinct():
    a = sic_frame("standard").kets
    b = sic_frame("rotated").kets
    assert np.max(np.abs(a - b)) > 0.1


def test_frame_rejects_non_sic_kets():
    kets = np.array([[1, 0], [0, 1], [1, 0], [0, 1]], dtype=complex)
    with pytest.raises(ValueError, match="design"):
        SicFrame("bad", kets)
    with pytest.raises(ValueError):
        SicFrame("bad", np.eye(2))


def test_unknown_frame_name():
    with pytest.raises(ValueError):
        sic_frame("hexagonal")


@pytest.mark.parametrize("name", ["standard", "rotated"])
def test_naimark_unitary(name):
    frame = sic_frame(name)
    u = naimark_unitary(frame)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-12)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-12)
    # embedding block is the kets over sqrt(2), with zero tolerance
    assert np.array_equal(u[:, :2], frame.kets / math.sqrt(2))


def test_bloch_ket_round_trip():
    for k in sic_frame("rotated").kets:
        v = ket_to_bloch(k)
        np.testing.assert_allclose(ket_to_bloch(bloch_to_ket(v)), v,
                                   atol=1e-12)


# --- outcome distributions ----------------------------------------------------


@pytest.mark.parametrize("n", [1, 2])
def test_sic_distribution_matches_effect_loop(rng, n):
    frame = sic_frame("standard")
    rho = random_density(n, rng)
    probs = sic_outcome_distribution(rho, frame)
    np.testing.assert_allclose(probs,
                               sic_probs_by_effect_loop(rho.matrix, frame, n),
                               atol=1e-12)
    assert abs(probs.sum() - 1) < 1e-12


@pytest.mark.parametrize("name", ["standard", "rotated"])
def test_sic_distribution_pure_equals_mixed_route(rng, name):
    frame = sic_frame(name)
    psi = random_pure(2, rng)
    a = sic_outcome_distribution(psi, frame)
    b = sic_outcome_distribution(psi.density(), frame)
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_sic_distribution_cap():
    # the N = 11 ket's working set, 32 x 4^11 bytes, and the density
    # matrix's, 56 x 4^11, are refused before any of it is made
    frame = sic_frame("standard")
    with pytest.raises(CapExceededError, match=" 134,217,728 bytes"):
        sic_outcome_distribution(make_ghz(11), frame)
    with pytest.raises(CapExceededError, match=" 234,881,024 bytes"):
        sic_outcome_distribution(DensityOperator(
            np.zeros((2**11, 2**11), dtype=complex), check=False), frame)


def test_dist_cap_is_the_largest_exact_ket(monkeypatch):
    """DIST_CAP only picks the ket sampler. It is the largest N whose exact
    distribution passes the byte check, so the switch and the check cannot
    drift apart; a density matrix, which has no other sampler, is admitted
    and refused at the same N."""
    stated = {}

    def record(nbytes, what, cap=povm.BYTES_CAP):
        stated[what] = nbytes <= cap
        raise CapExceededError(what)
    monkeypatch.setattr(povm, "check_bytes", record)
    for n in (povm.DIST_CAP, povm.DIST_CAP + 1):
        for state in (make_ghz(n), DensityOperator(
                np.zeros((2**n, 2**n), dtype=complex), check=False)):
            with pytest.raises(CapExceededError):
                sic_outcome_distribution(state, sic_frame("standard"))
            assert stated.pop(f"outcome distribution over 4^{n} outcomes") \
                == (n == povm.DIST_CAP)


@pytest.mark.parametrize("state,like", [
    ("make_ghz(10)", lambda: make_ghz(10)),
    # written in place, so no temporary of its own is left in the peak
    ("DensityOperator(np.eye(2**10, dtype=complex), check=False)\n"
     "st.matrix /= 2**10",
     lambda: DensityOperator(np.zeros((2**10, 2**10), dtype=complex),
                             check=False)),
], ids=["ket", "density-matrix"])
def test_sic_distribution_memory_within_its_byte_check(monkeypatch,
                                                       hwm_growth, state,
                                                       like):
    """Each branch's check states its working set. Measured growth: GHZ-10
    27.9 MB against 33.6 MB stated, the maximally mixed state 53.2 MB
    against 58.7 MB."""
    stated = []

    def record(nbytes, what, cap=None):
        stated.append(nbytes)
        raise CapExceededError(what)
    monkeypatch.setattr(povm, "check_bytes", record)
    with pytest.raises(CapExceededError):  # the check reads N and the kind
        sic_outcome_distribution(like(), sic_frame("standard"))
    grew = hwm_growth(
        "import numpy as np\n"
        "from sictomo.povm import sic_frame, sic_outcome_distribution\n"
        "from sictomo.qstate import DensityOperator, make_ghz\n"
        f"st = {state}",
        "sic_outcome_distribution(st, sic_frame('standard'))")
    assert grew <= stated[0], (grew, stated)


def test_pauli_distribution_matches_projector_loop(rng):
    rho = random_density(2, rng)
    basis = {
        "X": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
        "Y": np.array([[1, 1], [1j, -1j]], dtype=complex) / math.sqrt(2),
        "Z": np.eye(2, dtype=complex),
    }
    setting = "XZ"
    want = np.empty(4)
    for idx, bits in enumerate(itertools.product(range(2), repeat=2)):
        proj = np.ones((1, 1), dtype=complex)
        for ch, b in zip(setting, bits):
            v = basis[ch][:, b]
            proj = np.kron(proj, np.outer(v, v.conj()))
        want[idx] = np.trace(rho.matrix @ proj).real
    np.testing.assert_allclose(pauli_outcome_distribution(rho, setting), want,
                               atol=1e-12)


def test_pauli_distribution_pure_equals_mixed_route(rng):
    psi = random_pure(2, rng)
    for setting in ("XY", "ZZ", "YX"):
        a = pauli_outcome_distribution(psi, setting)
        b = pauli_outcome_distribution(psi.density(), setting)
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_pauli_distribution_hand_cases():
    np.testing.assert_allclose(pauli_outcome_distribution(make_product("0"), "Z"),
                               [1, 0], atol=1e-15)
    np.testing.assert_allclose(pauli_outcome_distribution(make_product("0"), "X"),
                               [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(pauli_outcome_distribution(make_ghz(2), "ZZ"),
                               [0.5, 0, 0, 0.5], atol=1e-12)


def test_pauli_distribution_validation():
    with pytest.raises(ValueError):
        pauli_outcome_distribution(make_ghz(2), "Z")
    with pytest.raises(ValueError):
        pauli_outcome_distribution(make_ghz(2), "ZQ")


# --- rng derivation and digit codecs -------------------------------------------


def test_derive_rng_reproducible_and_disjoint():
    a = derive_rng(7, "sic-shots").integers(1 << 30, size=8)
    b = derive_rng(7, "sic-shots").integers(1 << 30, size=8)
    np.testing.assert_array_equal(a, b)
    c = derive_rng(7, "pauli-shots").integers(1 << 30, size=8)
    d = derive_rng(7, "sic-shots", index=1).integers(1 << 30, size=8)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    with pytest.raises(KeyError):
        derive_rng(7, "no-such-stream")


@given(st.integers(1, 6), st.sampled_from([2, 4, 6]),
       st.lists(st.integers(0, 6**6 - 1), min_size=1, max_size=40))
def test_digit_codec_round_trip(n, base, raw):
    idx = np.array([v % base**n for v in raw], dtype=np.int64)
    digits = digits_from_indices(idx, n, base)
    assert digits.shape == (len(raw), n)
    assert digits.max() < base
    np.testing.assert_array_equal(indices_from_digits(digits, base), idx)


def test_digit_codec_ordering():
    # qubit 0 is the most significant digit
    np.testing.assert_array_equal(digits_from_indices([7], 2), [[1, 3]])
    np.testing.assert_array_equal(digits_from_indices([6], 3, 2), [[1, 1, 0]])


# --- sampling -------------------------------------------------------------------


def test_sample_sic_shots_deterministic(rng):
    frame = sic_frame("standard")
    psi = random_pure(2, rng)
    a = sample_sic_shots(psi, frame, 100, derive_rng(3, "sic-shots"))
    b = sample_sic_shots(psi, frame, 100, derive_rng(3, "sic-shots"))
    np.testing.assert_array_equal(a, b)
    assert a.dtype == np.uint8 and a.shape == (100, 2) and a.max() <= 3


def test_sample_sic_shots_validation(rng):
    frame = sic_frame("standard")
    psi = random_pure(1, rng)
    with pytest.raises(ValueError):
        sample_sic_shots(psi, frame, 0, derive_rng(0, "sic-shots"))


def test_pershot_sampler_byte_cap():
    # 16 qubits, 4096 shots per block: level 5 holds 1024 prefix states of
    # 2^11 amplitudes and builds level 6's 4096 of 2^10, 96 MiB in all;
    # 100 shots stay at 14.9 MB
    frame = sic_frame("standard")
    with pytest.raises(CapExceededError, match="100,663,296 bytes"):
        sample_sic_shots(make_ghz(16), frame, 4096, derive_rng(0, "sic-shots"))
    digits = sample_sic_shots(make_ghz(16), frame, 100,
                              derive_rng(0, "sic-shots"))
    assert digits.shape == (100, 16)


def test_sampling_modes_agree_pure(monkeypatch):
    """Multinomial and per-shot draws follow the same law; a DIST_CAP of 0
    sends every size to the per-shot sampler."""
    frame = sic_frame("standard")
    psi = random_pure(2, np.random.default_rng(5))
    a = sample_sic_shots(psi, frame, 4000, derive_rng(0, "sic-shots"))
    monkeypatch.setattr(povm, "DIST_CAP", 0)
    b = sample_sic_shots(psi, frame, 4000, derive_rng(1, "sic-shots"))
    ca = np.bincount(indices_from_digits(a), minlength=16)
    cb = np.bincount(indices_from_digits(b), minlength=16)
    assert chi2_contingency(np.vstack([ca, cb]))[1] > 1e-3


def test_density_matrix_is_always_drawn_exactly(monkeypatch):
    # whatever DIST_CAP says, a density matrix takes the multinomial draw
    # from its exact distribution: there is no other sampler for it
    rho = random_density(3, np.random.default_rng(9))
    want = sample_sic_shots(rho, sic_frame("standard"), 1500, 2)
    monkeypatch.setattr(povm, "DIST_CAP", 0)
    got = sample_sic_shots(rho, sic_frame("standard"), 1500, 2)
    np.testing.assert_array_equal(got, want)


def test_pauli_settings_and_allocation():
    assert pauli_settings(1) == ["X", "Y", "Z"]
    two = pauli_settings(2)
    assert len(two) == 9
    assert two == sorted(two)
    alloc = allocate_pauli_shots(10, 1)
    np.testing.assert_array_equal(alloc, [4, 3, 3])
    assert allocate_pauli_shots(7, 2).sum() == 7


def test_sample_pauli_shots_structure():
    settings, bits = sample_pauli_shots(make_product("00"), 90,
                                        derive_rng(0, "pauli-shots"))
    assert settings.shape == bits.shape == (90, 2)
    # grouped in lexicographic setting order, 10 shots each
    keys = settings[:, 0] * 3 + settings[:, 1]
    assert np.all(np.diff(keys) >= 0)
    np.testing.assert_array_equal(np.bincount(keys, minlength=9),
                                  np.full(9, 10))
    # Z on |0> is deterministic: wherever the setting code is 2, the bit is 0
    assert not np.any(bits[settings == 2])


def test_sample_pauli_shots_deterministic():
    psi = random_pure(2, np.random.default_rng(11))
    a = sample_pauli_shots(psi, 60, derive_rng(4, "pauli-shots"))
    b = sample_pauli_shots(psi, 60, derive_rng(4, "pauli-shots"))
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


def test_import_does_not_load_scipy():
    code = "import sys, sictomo; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


@pytest.mark.parametrize("preset,expect", [(None, "1"), ("2", "2")])
def test_import_defaults_openblas_to_one_thread(preset, expect):
    code = "import os, sictomo; print(os.environ['OPENBLAS_NUM_THREADS'])"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == expect


# --- measurement superoperator ---------------------------------------------------


def test_superop_probability_map_matches_distribution(rng):
    frame = sic_frame("standard")
    rho = random_density(2, rng)
    sup = FrameSuperoperator("sic", 2, frame)
    probs = (sup.probability_map() @ rho.matrix.reshape(-1)).real
    np.testing.assert_allclose(probs, sic_outcome_distribution(rho, frame),
                               atol=1e-12)


@pytest.mark.parametrize("kind,n", [("sic", 1), ("sic", 2), ("pauli", 1),
                                    ("pauli", 2)])
def test_superop_exact_inversion(rng, kind, n):
    """The dual frame applied to exact probabilities returns the state."""
    rho = random_density(n, rng)
    sup = FrameSuperoperator(kind, n)
    probs = sup.probability_map() @ rho.matrix.reshape(-1)
    back = sup.dual(probs.real)
    np.testing.assert_allclose(back, rho.matrix, atol=1e-10)


def test_superop_effects_sum_to_identity():
    sup = FrameSuperoperator("pauli", 1)
    total = sup.adjoint(np.ones(sup.n_outcomes))  # sum_j E_j
    np.testing.assert_allclose(total, np.eye(2), atol=1e-12)
    assert sup.n_outcomes == 6
    assert FrameSuperoperator("sic", 2).n_outcomes == 16


@pytest.mark.parametrize("kind", ["sic", "pauli"])
def test_superop_refuses_operands_of_another_size(kind):
    sup = FrameSuperoperator(kind, 2)
    m = sup.n_outcomes
    for rho in (np.eye(2), np.eye(8), np.ones(16), np.ones((4, 2))):
        with pytest.raises(ValueError, match="operand of shape"):
            sup.forward(rho)
    for y in (np.ones(m - 1), np.ones(m + 1), np.ones((1, m)),
              np.ones(6 if kind == "sic" else 16)):
        with pytest.raises(ValueError, match="operand of shape"):
            sup.adjoint(y)
        with pytest.raises(ValueError, match="operand of shape"):
            sup.dual(y)
    assert sup.forward(np.eye(4)).shape == (m,)
    assert sup.dual(np.ones(m)).shape == (4, 4)


def test_superop_caps():
    # the largest array the maps make: the complex 2^N x 2^N dual estimate
    # (SIC) or the complex vector of the 6^N outcomes (Pauli)
    with pytest.raises(CapExceededError, match="268,435,456 bytes"):
        FrameSuperoperator("sic", 12)
    with pytest.raises(CapExceededError, match="161,243,136 bytes"):
        FrameSuperoperator("pauli", 9)
    # the dense views have their own cap, which the SIC N=6 Gram matrix meets
    with pytest.raises(CapExceededError, match="4,294,967,296 bytes"):
        FrameSuperoperator("sic", 7).matrix()
    with pytest.raises(ValueError):
        FrameSuperoperator("heterodyne", 1)


def test_dense_view_peak_is_view_plus_last_factor(hwm_growth):
    """The Pauli N = 5 map is 6^5 x 4^5 x 16 = 127,401,984 bytes; its last
    site step also holds the previous factor, 1/24 of that. 5 % slack."""
    grew = hwm_growth("from sictomo.povm import FrameSuperoperator\n"
                      "sup = FrameSuperoperator('pauli', 5)",
                      "a = sup.probability_map()")
    assert grew <= 1.05 * (127_401_984 + 5_308_416)
