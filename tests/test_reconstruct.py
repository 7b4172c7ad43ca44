"""Frequency bookkeeping and the three reconstruction routes."""

import io
import json

import numpy as np
import pytest

from sictomo import reconstruct as RECONSTRUCT
from sictomo.povm import (
    CapExceededError,
    FrameSuperoperator,
    derive_rng,
    pauli_outcome_distribution,
    pauli_settings,
    sample_pauli_shots,
    sample_sic_shots,
    sic_frame,
)
from sictomo.qstate import (DensityOperator, random_density, random_pure,
                            state_to_json_dict, trace_distance)
from sictomo.reconstruct import (
    FrequencyVector,
    lininv,
    mle,
    pls,
    pls_from_freqs,
    reconstruct,
    simplex_projection,
)

FRAME = sic_frame("standard")


def exact_sic_freqs(rho, superop):
    return (superop.probability_map() @ rho.matrix.reshape(-1)).real


# --- frequency vectors ----------------------------------------------------------


def test_frequency_vector_validation():
    with pytest.raises(ValueError):
        FrequencyVector("heterodyne", 1, np.zeros(4, dtype=np.int64))
    with pytest.raises(ValueError):
        FrequencyVector("sic", 1, np.array([1, -1, 0, 0]))
    with pytest.raises(ValueError):
        FrequencyVector("sic", 1, np.array([0.5, 0.5, 0.0, 0.0]))
    with pytest.raises(ValueError):
        FrequencyVector("sic", 2, np.zeros(4, dtype=np.int64))
    with pytest.raises(ValueError, match="length 6"):
        FrequencyVector("pauli", 1, np.ones((3, 2), dtype=np.int64))
    with pytest.raises(ValueError, match="length 6"):
        FrequencyVector("pauli", 2, np.ones(6, dtype=np.int64))
    starved = np.ones(36, dtype=np.int64)
    # setting YX without shots cannot be frequency-normalized
    starved.reshape(3, 2, 3, 2)[1, :, 0, :] = 0
    with pytest.raises(ValueError, match="every Pauli setting"):
        FrequencyVector("pauli", 2, starved)


def test_from_sic_shots_counts(rng):
    digits = rng.integers(0, 4, size=(200, 2)).astype(np.uint8)
    fv = FrequencyVector.from_sic_shots(digits)
    assert fv.kind == "sic" and fv.n_qubits == 2
    assert fv.total_shots == 200
    idx = digits[:, 0].astype(int) * 4 + digits[:, 1]
    np.testing.assert_array_equal(fv.counts, np.bincount(idx, minlength=16))
    freqs = fv.frequencies()
    assert abs(freqs.sum() - 1) < 1e-12
    np.testing.assert_array_equal(fv.per_outcome_shots(), np.full(16, 200.0))


def test_from_pauli_shots_counts(rng):
    psi = random_pure(1, rng)
    settings, bits = sample_pauli_shots(psi, 30, derive_rng(1, "pauli-shots"))
    fv = FrequencyVector.from_pauli_shots(settings, bits)
    assert fv.counts.shape == (6,)
    assert abs(fv.frequencies().sum() - 1) < 1e-12
    # each flat entry is backed by its setting's shot count
    np.testing.assert_array_equal(
        fv.per_outcome_shots().reshape(3, 2).sum(axis=1),
        2 * fv.counts.reshape(3, 2).sum(axis=1))


# --- linear inversion -------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2])
def test_lininv_exact_recovery(rng, n):
    rho = random_density(n, rng)
    sup = FrameSuperoperator("sic", n, FRAME)
    res = lininv(exact_sic_freqs(rho, sup), sup)
    np.testing.assert_allclose(res.estimate, rho.matrix, atol=1e-10)
    assert res.residual < 1e-10
    assert res.method == "lininv"
    np.testing.assert_allclose(res.estimate, res.estimate.conj().T, atol=0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lininv_pauli_exact_recovery_from_setting_distributions(rng, n):
    """Each setting's exact distribution over 3^N, placed at the site
    patterns its letters and bits spell (digit 2s + b, qubit 0 leading),
    inverts to the state: the outcome order agrees with the sampler's
    setting and bit conventions."""
    rho, psi = random_density(n, rng), random_pure(n, rng)
    for state, want in ((rho, rho.matrix), (psi, psi.density().matrix)):
        f = np.empty(6**n)
        for setting in pauli_settings(n):
            probs = pauli_outcome_distribution(state, setting)
            for b in range(2**n):
                j = 0
                for k, letter in enumerate(setting):
                    bit = (b >> (n - 1 - k)) & 1
                    j = 6 * j + 2 * "XYZ".index(letter) + bit
                f[j] = probs[b] / 3**n
        res = lininv(f, FrameSuperoperator("pauli", n))
        np.testing.assert_allclose(res.estimate, want, rtol=0, atol=1e-10)


def test_lininv_counts_equal_bare_frequencies(rng):
    digits = rng.integers(0, 4, size=(300, 1)).astype(np.uint8)
    sup = FrameSuperoperator("sic", 1, FRAME)
    fv = FrequencyVector.from_sic_shots(digits)
    a = lininv(fv, sup).estimate
    b = lininv(fv.frequencies(), sup).estimate
    np.testing.assert_array_equal(a, b)


def test_lininv_mismatch_errors(rng):
    sup = FrameSuperoperator("sic", 1, FRAME)
    with pytest.raises(ValueError):
        lininv(np.zeros(5), sup)
    pauli_fv = FrequencyVector("pauli", 1, np.ones(6, dtype=np.int64))
    with pytest.raises(ValueError):
        lininv(pauli_fv, sup)


# --- simplex projection -----------------------------------------------------------


def test_simplex_projection_hand_cases():
    np.testing.assert_allclose(simplex_projection([1.2, -0.2]), [1.0, 0.0],
                               atol=1e-12)
    np.testing.assert_allclose(simplex_projection([0.25, 0.75]), [0.25, 0.75],
                               atol=1e-12)
    np.testing.assert_allclose(simplex_projection([0.6, 0.6, 0.6]),
                               [1 / 3, 1 / 3, 1 / 3], atol=1e-12)


def test_simplex_projection_is_nearest_point(rng):
    """No sampled simplex point may beat the projection in distance."""
    for _ in range(20):
        v = rng.standard_normal(5)
        p = simplex_projection(v)
        assert abs(p.sum() - 1) < 1e-9 and p.min() >= 0
        probes = rng.dirichlet(np.ones(5), size=200)
        d_proj = np.linalg.norm(v - p)
        d_probe = np.linalg.norm(v - probes, axis=1).min()
        assert d_proj <= d_probe + 1e-12


# --- pls ---------------------------------------------------------------------------


def test_pls_hand_case():
    out = pls(np.diag([1.2, -0.2])).matrix
    np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-12)


def test_pls_invariants(rng):
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    herm = (g + g.conj().T) / 2
    rho = pls(herm)
    assert abs(np.trace(rho.matrix) - 1) < 1e-10
    assert np.linalg.eigvalsh(rho.matrix)[0] > -1e-10
    again = pls(rho.matrix)
    np.testing.assert_allclose(again.matrix, rho.matrix, atol=1e-10)
    with pytest.raises(ValueError):
        pls(g)  # not Hermitian


def test_pls_beats_random_densities(rng):
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    herm = (g + g.conj().T) / 2
    best = np.linalg.norm(herm - pls(herm).matrix)
    for _ in range(50):
        q = random_density(2, rng).matrix
        assert best <= np.linalg.norm(herm - q) + 1e-10


def test_pls_from_freqs_exact_input_is_fixed_point(rng):
    rho = random_density(2, rng)
    sup = FrameSuperoperator("sic", 2, FRAME)
    res = pls_from_freqs(exact_sic_freqs(rho, sup), sup)
    assert res.method == "pls"
    np.testing.assert_allclose(res.estimate, rho.matrix, atol=1e-8)
    assert res.residual < 1e-8


def test_pls_from_freqs_decomposes_once(monkeypatch, rng):
    """The projection is the one eigendecomposition: its output is a
    density matrix by construction, so no eigvalsh checks it again."""
    sup = FrameSuperoperator("sic", 3, FRAME)
    digits = sample_sic_shots(random_density(3, rng), FRAME, 500,
                              derive_rng(8, "sic-shots"))
    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:
        def counted(*args, _fn=getattr(np.linalg, name), _name=name, **kw):
            calls[_name] += 1
            return _fn(*args, **kw)
        monkeypatch.setattr(np.linalg, name, counted)
    res = pls_from_freqs(FrequencyVector.from_sic_shots(digits), sup)
    assert calls == {"eigh": 1, "eigvalsh": 0}
    monkeypatch.undo()
    assert np.linalg.eigvalsh(res.estimate)[0] > -1e-10
    assert abs(np.trace(res.estimate) - 1) < 1e-10


# --- mle ----------------------------------------------------------------------------


def test_mle_objective_monotone(rng):
    sup = FrameSuperoperator("sic", 1, FRAME)
    for rep in range(5):
        rho = random_density(1, rng)
        digits = sample_sic_shots(rho, FRAME, 200,
                                  derive_rng(50, "sic-shots", rep))
        res = mle(FrequencyVector.from_sic_shots(digits), sup)
        hist = np.array(res.objective_history)
        assert hist.size >= 1
        assert np.all(np.diff(hist) <= 1e-12)
        assert res.converged
        assert abs(np.trace(res.estimate) - 1) < 1e-9
        assert np.linalg.eigvalsh(res.estimate)[0] > -1e-9


def test_mle_exact_probability_recovery(rng):
    rho = random_density(1, rng)
    sup = FrameSuperoperator("sic", 1, FRAME)
    res = mle(exact_sic_freqs(rho, sup), sup)
    assert trace_distance(res.estimate, rho.matrix) < 1e-4


def test_mle_multinomial_weights_need_counts(rng):
    sup = FrameSuperoperator("sic", 1, FRAME)
    rho = random_density(1, rng)
    f = exact_sic_freqs(rho, sup)
    with pytest.raises(ValueError, match="counts"):
        mle(f, sup, weights="multinomial")
    with pytest.raises(ValueError):
        mle(f, sup, weights="poisson")


def test_mle_one_forward_per_objective(monkeypatch, rng):
    """Each objective evaluation's residual also gives the next gradient, so
    the fit calls forward once per candidate, plus once in lininv."""
    sup = FrameSuperoperator("sic", 2, FRAME)
    digits = sample_sic_shots(random_density(2, rng), FRAME, 500,
                              derive_rng(9, "sic-shots"))
    calls = {"forward": 0, "objective": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    # every candidate is one projection followed by one objective evaluation
    monkeypatch.setattr(sup, "forward", counted("forward", sup.forward))
    monkeypatch.setattr(RECONSTRUCT, "_project_density", counted(
        "objective", RECONSTRUCT._project_density))
    res = mle(FrequencyVector.from_sic_shots(digits), sup,
              weights="multinomial")
    assert res.iterations >= 5
    assert calls["forward"] <= calls["objective"] + 1


def test_mle_cap():
    sup = FrameSuperoperator("sic", 6, FRAME)
    with pytest.raises(CapExceededError, match="5"):
        mle(np.zeros(4**6), sup)


def test_mle_pauli_route(rng):
    psi = random_pure(1, rng)
    settings, bits = sample_pauli_shots(psi, 900, derive_rng(6, "pauli-shots"))
    fv = FrequencyVector.from_pauli_shots(settings, bits)
    sup = FrameSuperoperator("pauli", 1)
    res = mle(fv, sup, weights="multinomial")
    assert trace_distance(res.estimate, psi.density().matrix) < 0.15
    assert np.all(np.diff(res.objective_history) <= 1e-12)


# --- dispatch and serialization ------------------------------------------------------


def test_reconstruct_dispatch(rng):
    rho = random_density(1, rng)
    sup = FrameSuperoperator("sic", 1, FRAME)
    f = exact_sic_freqs(rho, sup)
    for method in ("lininv", "pls", "mle"):
        res = reconstruct(f, sup, method)
        assert res.method == method
        np.testing.assert_allclose(res.estimate, rho.matrix, atol=1e-4)
    with pytest.raises(ValueError):
        reconstruct(f, sup, "bayes")


def test_result_json_dict(rng):
    rho = random_density(1, rng)
    sup = FrameSuperoperator("sic", 1, FRAME)
    res = lininv(exact_sic_freqs(rho, sup), sup)
    fh = io.StringIO()
    res.write_json(fh, shots=500)
    d = json.loads(fh.getvalue())
    assert d == state_to_json_dict(DensityOperator(res.estimate, check=False),
                                   d["meta"])
    assert list(d) == ["n_qubits", "kind", "re", "im", "meta"]
    assert list(d["meta"]) == ["method", "residual", "iterations",
                               "converged", "shots"]
    assert d["n_qubits"] == 1 and d["kind"] == "mixed"
    assert len(d["re"]) == 4 and len(d["im"]) == 4  # flat row-major
    assert d["meta"]["method"] == "lininv"
    assert d["meta"]["shots"] == 500
    assert abs(d["re"][0] + d["re"][3] - 1) < 1e-9  # trace one
