"""Site-factorized code against the dense per-shot and per-outcome algorithms.

The shadow references build every shadow with shadow_expand: the purity
tracker's value as one dense 2^K x 2^K running sum of shadows, its stderr as
the brute-force delete-one-shot jackknife that recomputes every delete-one
value from the dense sum of the other shots, and the lookup table and shadow
sum as traces and sums of the pattern matrices.

The reconstruction references build the frame superoperator densely, one
Kronecker chain per outcome. Both frames index outcomes by site pattern:
one base-4 (SIC) or base-6 (Pauli, digit 2s + b for setting s and bit b)
digit per qubit, qubit 0 leading. The references invert the dense map by an
eigenvalue pseudo-inverse and fit MLE with dense matrix products. The
site-factorized code must reproduce them to 1e-10 (MLE to 1e-8), and MLE's
power-iteration step size must match eigvalsh of the dense Gram matrix to
1e-10. The setting-major Pauli layout, outcome s * 2^N + b, stays as a
reference: permuted through the reorder table the superoperator once built,
the site-pattern counts and frequencies must equal it exactly, and forward
and adjoint must equal its dense map to 1e-12. The PPT moment reference
enumerates every triple of a per-shot stack of partially transposed
shadows, and the Pauli distribution reference contracts a density matrix
with one projector stack per setting letter. The dense views' reference is
the loop that built them before: one np.ones view multiplied in place by
each site's factor; the site-by-site build must equal it bit for bit, and
mle must fit the same with either.

The stacked purity tracker, which keeps every subset of one size in one
array, is held to 1e-10 against a restatement of the per-subset tracker it
replaced, with the same brute-force delete-one-shot jackknife as its stderr;
so is the online engine's row order. The tracker takes the self-pairs in
closed form, M 5^K; both references sum tr(s^2) shot by shot. Its blocked
ingestion and readout are held bit for bit to one whole-interval block and
to the readout that built V c in one call and r - r_mean as new arrays.

The per-shot sampler references keep one conditional state per shot; the
samplers that keep one per distinct outcome prefix must draw the same digits.
The multinomial reference is the draw each sampler once wrote out on its
own: counts from rng.multinomial on the normalized distribution, their
expansion shuffled, then decoded in base 4 (SIC) or base 2 (Pauli bits); the
one shared draw must give the same digits.

Each SIC frame builds its bras, effects and duals once. They must equal,
bit for bit, the expressions that the sampler, the shadows and the
superoperator each built before, and so must the lookup table, the mean
shadow and p3 against contractions of 3 P - I built in the test.

The rotated GHZ reference applies the dense Kronecker power of the
single-qubit rotation; rotating one tensor axis at a time must agree to
1e-14.

The shot-file reference is the line-by-line reader the chunked record reader
replaced. On every body, well-formed or not, the chunked reader must return
the same arrays or raise the same ShotFileError text, line number included.

The reconstruct JSON reference is one json.dumps of the estimate's whole
dict; the writer that turns a block of values into text at a time must
write the same bytes.

The game reference is Game.play as it was written with two transcripts, one
returned where the leader is declared and one at the shot cap; the one
transcript Game.play now builds must equal it, on the declared and on the
capped path.
"""

import functools
import io
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sictomo import estimators, povm, qstate
from sictomo.estimators import (ObservableSpec, PurityTracker,
                                all_bipartitions, estimate_p3, observable_lut,
                                renyi2_from_purity, renyi2_stderr)
from sictomo.povm import (FrameSuperoperator, derive_rng, frame_sums,
                          frame_traces, naimark_unitary,
                          pauli_outcome_distribution, pauli_settings,
                          sample_pauli_shots, sample_sic_shots, sic_frame,
                          sic_outcome_distribution)
from sictomo.qstate import (Bipartition, PureState, make_ghz,
                            make_rotated_ghz, partial_transpose,
                            random_density, random_pure, state_to_json_dict,
                            write_state_json)
from sictomo.reconstruct import (MLE_MAX_ITER, MLE_TOL, FrequencyVector,
                                 ReconstructionResult, _max_eigenvalue,
                                 _project_density, _weight_vector, lininv,
                                 mle, pls_from_freqs)
from sictomo.shadows import (ShadowAccumulator, apply_pair_trace,
                             pair_trace, pattern_codes, shadow_expand)
from sictomo.stream import (Game, OnlineEngine, ShotFileError, TrackerConfig,
                            _iter_records, _read_header_lines,
                            iter_sic_chunks, read_pauli_shots)

FRAME = sic_frame("standard")
TOL = 1e-10
SUBSETS = {1: (3,), 2: (1, 4), 3: (0, 2, 5), 6: (0, 1, 2, 4, 5, 6)}


def ghz_shots(n_shots, seed, n_qubits=7):
    return sample_sic_shots(make_ghz(n_qubits), FRAME, n_shots,
                            derive_rng(seed, "sic-shots"))


def reference_slots(digits, subset):
    """Dense sum S of the shadows, the sum q of their tr(s^2) and the shot
    count m."""
    dim = 2 ** len(subset)
    s, q = np.zeros((dim, dim), dtype=complex), 0.0
    for row in digits:
        mat = shadow_expand(row, subset, FRAME)
        s += mat
        q += np.trace(mat @ mat).real
    return s, q, len(digits)


def reference_value(slots):
    s, q, m = slots
    return (np.trace(s @ s).real - q) / (m * (m - 1))


@functools.lru_cache(maxsize=None)
def dense_shadow(row):
    return shadow_expand(row, range(len(row)), FRAME)


def reference_jackknife(digits, subset):
    """Brute-force delete-one-shot jackknife stderr of the pair statistic:
    every delete-one value is recomputed from the dense sum of the other
    shots' shadows and their tr(s^2)."""
    m = len(digits)
    rows, inv = np.unique(digits[:, list(subset)], axis=0,
                          return_inverse=True)
    mats = np.array([dense_shadow(tuple(r)) for r in rows])[inv.ravel()]
    total = mats.sum(axis=0)
    sq = np.einsum("mij,mji->m", mats, mats).real
    vals = np.empty(m)
    for lo in range(0, m, 64):
        rest = total - mats[lo:lo + 64]
        vals[lo:lo + 64] = ((np.einsum("mij,mji->m", rest, rest).real
                             - (sq.sum() - sq[lo:lo + 64]))
                            / ((m - 1) * (m - 2)))
    return math.sqrt((m - 1) / m * ((vals - vals.mean()) ** 2).sum())


@pytest.mark.parametrize("k", sorted(SUBSETS))
def test_purity_tracker_matches_slot_matrices(k):
    digits = ghz_shots(361, seed=k)
    tracker = PurityTracker(7, [SUBSETS[k]])
    for chunk in np.array_split(digits, 7):
        tracker.add_records(chunk)
    slots = reference_slots(digits, SUBSETS[k])
    assert abs(tracker.value()[0] - reference_value(slots)) < TOL
    assert abs(tracker.stderr()[0]
               - reference_jackknife(digits, SUBSETS[k])) < TOL
    assert tracker.shots == slots[2]


class PerSubsetTracker:
    """One subset's pair statistic, as the tracker kept it before subsets
    were stacked: a pattern histogram of shots, a self-overlap sum and a
    shot count. The stderr is the brute-force delete-one-shot jackknife over
    every record seen."""

    def __init__(self, subset):
        self.subset = tuple(subset)
        self.hist = np.zeros(4 ** len(subset))
        self.q = 0.0
        self.seen = np.empty((0, len(subset)), dtype=np.uint8)

    def add_records(self, digits):
        shots = digits[:, list(self.subset)]
        self.seen = np.concatenate([self.seen, shots])
        codes = pattern_codes(shots, range(len(self.subset)))
        self.hist += np.bincount(codes, minlength=4 ** len(self.subset))
        self.q += sum(pair_trace(x, x) for x in shots)

    def value(self):
        m = len(self.seen)
        if m < 2:
            return float("nan")
        n = self.hist
        return (n @ apply_pair_trace(n) - self.q) / (m * (m - 1))

    def stderr(self):
        if len(self.seen) < 3:
            return float("nan")
        return reference_jackknife(self.seen, range(len(self.subset)))


def spread_subsets(k, count, n_qubits=7):
    combos = list(itertools.combinations(range(n_qubits), k))
    return [combos[i * len(combos) // count] for i in range(count)]


def assert_matches_per_subset(stacked, refs):
    if stacked.shots >= 2:
        np.testing.assert_allclose(stacked.value(),
                                   [r.value() for r in refs], rtol=0, atol=TOL)
    np.testing.assert_allclose(stacked.stderr(), [r.stderr() for r in refs],
                               rtol=0, atol=TOL)


@pytest.mark.parametrize("count", [1, 5])
@pytest.mark.parametrize("k", sorted(SUBSETS))
def test_stacked_tracker_matches_per_subset_trackers(k, count):
    subsets = spread_subsets(k, count)
    digits = ghz_shots(361, seed=30 + k)
    stacked = PurityTracker(7, subsets)
    refs = [PerSubsetTracker(s) for s in subsets]
    # ragged chunks, the first two of one record each
    for chunk in np.split(digits, [1, 2, 52, 103, 260]):
        stacked.add_records(chunk)
        for r in refs:
            r.add_records(chunk)
        assert_matches_per_subset(stacked, refs)


def whole_call_readout(tracker):
    """The readout before it was blocked and made in place: V c of the whole
    histogram, then r - r_mean and its square as new arrays."""
    hist, m, k = tracker._hist, float(tracker.shots), tracker.subset.shape[0]
    u = apply_pair_trace(hist)
    value = (np.einsum("sc,sc->s", hist, u) - m * 5.0**k) / (m * (m - 1))
    r = u - 5.0**k
    r_mean = np.einsum("sc,sc->s", hist, r)[:, None] / m
    var = np.einsum("sc,sc->s", hist, (r - r_mean) ** 2)
    return value, np.sqrt(4 * var / (m * (m - 1) * (m - 2) ** 2))


@pytest.mark.parametrize("k,count", [(1, 7), (2, 21), (4, 35)])
def test_blocked_tracker_equals_one_block(monkeypatch, k, count):
    """Ingesting just past one block boundary, and building V c a few
    subsets at a time, give the histogram, values and stderrs of one block
    bit for bit: integer adds and the integer sums of V c are exact in
    float64 in any order."""
    subsets = spread_subsets(k, count)
    # two ingest blocks, the second of one row
    digits = ghz_shots(estimators._block_rows(count) + 1, seed=90 + k)
    blocked = PurityTracker(7, subsets)
    blocked.add_records(digits)
    monkeypatch.setattr(estimators, "BLOCK", 1 << 40)
    whole = PurityTracker(7, subsets)
    whole.add_records(digits)
    np.testing.assert_array_equal(blocked._hist, whole._hist)
    want = whole_call_readout(whole)
    got = [(whole.value(), whole.stderr())]
    monkeypatch.setattr(estimators, "BLOCK", 3 * 4**k)  # 3 subsets a block
    got.append((blocked.value(), blocked.stderr()))
    for value, stderr in got:
        np.testing.assert_array_equal(value, want[0])
        np.testing.assert_array_equal(stderr, want[1])
    # stderr() turned the cached V c into its residuals and dropped it
    np.testing.assert_array_equal(blocked.value(), want[0])


def test_engine_rows_match_per_subset_trackers():
    """GHZ-8 with a 6-qubit purity and every Renyi-2 side up to 2 qubits:
    the engine reports the per-subset trackers' rows in the same order."""
    digits = ghz_shots(2300, seed=60, n_qubits=8)
    parts = all_bipartitions(8, 2)
    cfg = TrackerConfig(n_qubits=8, purity_subsets=[(0, 1, 2, 3, 4, 5)],
                        renyi_parts=parts, interval=500)
    engine = OnlineEngine(cfg, FRAME)
    got = []
    for chunk in np.split(digits, [7, 900, 1001]):
        got.extend(engine.feed(chunk))
    got.extend(engine.finalize())

    refs = {s: PerSubsetTracker(s)
            for s in [(0, 1, 2, 3, 4, 5)] + [p.smaller_side for p in parts]}
    want = []
    for lo in range(0, len(digits), 500):
        block = digits[lo:lo + 500]
        for r in refs.values():
            r.add_records(block)
        ref = refs[(0, 1, 2, 3, 4, 5)]
        want.append((lo + len(block), "purity", "0-1-2-3-4-5", ref.value(),
                     ref.stderr()))
        for p in parts:
            ref = refs[p.smaller_side]
            value, stderr = ref.value(), ref.stderr()
            want.append((lo + len(block), "renyi2", p.label(),
                         renyi2_from_purity(value),
                         renyi2_stderr(value, stderr)))
    assert [(r.shots, r.quantity, r.subset) for r in got] == \
        [w[:3] for w in want]
    np.testing.assert_allclose([(r.value, r.stderr) for r in got],
                               [w[3:] for w in want], rtol=0, atol=TOL)


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
def test_accumulator_shadow_sum_matches_kron(n):
    digits = ghz_shots(200, seed=30 + n, n_qubits=max(n, 3))
    acc = ShadowAccumulator(digits.shape[1], range(n), FRAME)
    for chunk in np.array_split(digits, 3):
        acc.add_records(chunk)
    want = sum(shadow_expand(row, range(n), FRAME) for row in digits)
    np.testing.assert_allclose(frame_sums(acc.histogram, FRAME.duals), want,
                               rtol=0, atol=TOL)
    np.testing.assert_allclose(acc.mean(), want / 200, rtol=0, atol=TOL)


# --- one frame description ----------------------------------------------------


@pytest.mark.parametrize("name", ["standard", "rotated"])
def test_frame_tensors_equal_the_expressions_they_replaced(name):
    """The frame builds each site tensor once, from the expressions that
    the sampler, the shadows and the superoperator each built before."""
    frame = sic_frame(name)
    assert np.array_equal(frame.bras, frame.kets.conj() / math.sqrt(2))
    assert np.array_equal(frame.effects, frame.projectors / 2)
    assert np.array_equal(frame.duals, 3 * frame.projectors - np.eye(2))
    for n in (1, 3):
        superop = FrameSuperoperator("sic", n, frame=frame)
        assert superop.duals is frame.duals
        assert superop.effects is frame.effects
    proj = povm._PAULI_PROJECTORS
    pauli = FrameSuperoperator("pauli", 2)
    assert np.array_equal(pauli.effects, proj / 3)
    assert np.array_equal(pauli.duals, 3 * proj - np.eye(2))


@pytest.mark.parametrize("name", ["standard", "rotated"])
def test_shadow_contractions_equal_inline_duals(rng, name):
    """The lookup table, the mean shadow and p3 read the frame's duals; each
    equals, bit for bit, its contraction of 3 P - I built here."""
    frame, n = sic_frame(name), 3
    site = 3 * frame.projectors - np.eye(2)
    g = rng.standard_normal((2**n, 2**n)) + 1j * rng.standard_normal((2**n,) * 2)
    op = (g + g.conj().T) / 2
    assert np.array_equal(observable_lut(ObservableSpec(range(n), op), frame),
                          frame_traces(op, site).real)
    digits = sample_sic_shots(make_ghz(n), frame, 300,
                              derive_rng(7, "sic-shots"))
    acc = ShadowAccumulator(n, range(n), frame)
    acc.add_records(digits)
    assert np.array_equal(acc.mean(),
                          frame_sums(acc.histogram / acc.count, site))
    m = len(digits)
    hist = np.bincount(pattern_codes(digits, range(n)), minlength=4**n)
    for part in (Bipartition(n, (0,)), Bipartition(n, (0, 2))):
        t = partial_transpose(frame_sums(hist, site), part)
        q2 = partial_transpose(frame_sums(hist, site @ site), part)
        triples = np.einsum("ij,ji->", t @ t - 3 * q2, t).real + 2 * m * 7.0**n
        want = float(triples / (m * (m - 1) * (m - 2)))
        assert estimate_p3(digits, part, frame) == want


# --- dense frame superoperator ------------------------------------------------

# rows are the eigenkets of X, Y, Z; row b has eigenvalue (-1)^b
PAULI_KETS = {"X": np.array([[1, 1], [1, -1]]) / math.sqrt(2),
              "Y": np.array([[1, 1j], [1, -1j]]) / math.sqrt(2),
              "Z": np.eye(2)}
SUPEROP_CASES = ([("sic", n, name) for n in (1, 2, 3, 5)
                  for name in ("standard", "rotated")]
                 + [("pauli", n, None) for n in (1, 2, 3)])


def make_superop(kind, n, frame_name):
    frame = sic_frame(frame_name) if frame_name else None
    return FrameSuperoperator(kind, n, frame=frame)


def reference_effect(kind, n, frame_name, j):
    """Effect of flat outcome j as one Kronecker chain over the qubits; a
    Pauli site's base-6 digit of j is 2s + b."""
    out = np.ones((1, 1), dtype=complex)
    if kind == "sic":
        effects = sic_frame(frame_name).effects
        for k in range(n):
            out = np.kron(out, effects[(j // 4**(n - 1 - k)) % 4])
        return out
    for k in range(n):
        s_k, b_k = divmod((j // 6**(n - 1 - k)) % 6, 2)
        ket = PAULI_KETS["XYZ"[s_k]][b_k]
        out = np.kron(out, np.outer(ket, ket.conj()))
    return out / 3**n


def setting_major_effect(n, j):
    """Pauli effect of outcome j = s * 2^N + b in the setting-major order
    that FrequencyVector and FrameSuperoperator used before site patterns."""
    s_idx, b_idx = divmod(j, 2**n)
    out = np.ones((1, 1), dtype=complex)
    for k in range(n):
        ket = PAULI_KETS["XYZ"[(s_idx // 3**(n - 1 - k)) % 3]][
            (b_idx >> (n - 1 - k)) & 1]
        out = np.kron(out, np.outer(ket, ket.conj()))
    return out / 3**n


def grouped_order(n, dims):
    """Site-pattern index (a1 b1 a2 b2 ..) of each position in the grouped
    order (a1 a2 .. b1 b2 ..) of a per-site index with factors `dims`; the
    flat Pauli outcome j = s * 2^N + b groups (s, b)."""
    k = len(dims)
    idx = np.arange(math.prod(dims) ** n).reshape(tuple(dims) * n)
    return idx.transpose([site * k + f for f in range(k)
                          for site in range(n)]).ravel()


@functools.lru_cache(maxsize=None)
def reference_dense(kind, n, frame_name):
    """(A, S_p, S_p^+) built outcome by outcome; eigh pseudo-inverse."""
    n_out = (4 if kind == "sic" else 6) ** n
    a = np.array([reference_effect(kind, n, frame_name, j).reshape(-1).conj()
                  for j in range(n_out)])
    sp = a.conj().T @ a
    w, v = np.linalg.eigh(sp)
    keep = w > 1e-10 * w.max()
    inv = np.zeros_like(w)
    inv[keep] = 1.0 / w[keep]
    return a, sp, (v * inv) @ v.conj().T


def reference_lininv(f, kind, n, frame_name):
    a, _, pinv = reference_dense(kind, n, frame_name)
    dim = 2**n
    rho = (pinv @ (a.conj().T @ f.astype(complex))).reshape(dim, dim)
    rho = (rho + rho.conj().T) / 2
    return rho, float(np.linalg.norm(a @ rho.ravel() - f))


def reference_mle(freqs, w, kind, n, frame_name):
    """Projected gradient descent on dense products, eigvalsh Lipschitz."""
    f = freqs.frequencies()
    a_w = w[:, None] * reference_dense(kind, n, frame_name)[0]
    b = w * f
    lip = 2 * float(np.linalg.eigvalsh(a_w.conj().T @ a_w)[-1])
    dim = 2**n

    def objective(x):
        r = a_w @ x.ravel() - b
        return float(np.real(np.vdot(r, r)))

    def gradient(x):
        g = 2 * (a_w.conj().T @ (a_w @ x.ravel() - b)).reshape(dim, dim)
        return (g + g.conj().T) / 2

    x = _project_density(reference_lininv(f, kind, n, frame_name)[0])
    obj, step = objective(x), 1.0 / lip
    for _ in range(MLE_MAX_ITER):
        g = gradient(x)
        t = min(step * 1.5, 10.0 / lip)
        while True:
            cand = _project_density(x - t * g)
            cand_obj = objective(cand)
            if cand_obj <= obj or t < 1e-18:
                break
            t /= 2
        if cand_obj > obj:
            break
        moved = float(np.linalg.norm(cand - x))
        x, obj, step = cand, cand_obj, t
        if moved / t <= MLE_TOL:
            break
    return x


def sampled_freqs(kind, n, frame_name, seed):
    rng = derive_rng(seed, "state", n)
    state = random_density(n, rng)
    if kind == "sic":
        digits = sample_sic_shots(state, sic_frame(frame_name), 3000, rng)
        return FrequencyVector.from_sic_shots(digits)
    return FrequencyVector.from_pauli_shots(
        *sample_pauli_shots(state, 40 * 3**n, rng))


def assert_close_rel(got, want, tol):
    assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


@pytest.mark.parametrize("kind,n,frame_name", SUPEROP_CASES)
def test_superop_dense_views_match_per_outcome_chains(rng, kind, n, frame_name):
    sup = make_superop(kind, n, frame_name)
    a, sp, pinv = reference_dense(kind, n, frame_name)
    assert sup.n_outcomes == a.shape[0]
    assert_close_rel(sup.probability_map(), a, 1e-12)
    assert_close_rel(sup.matrix(), sp, 1e-12)
    assert_close_rel(sup.pinv_matrix(), pinv, 1e-12)
    dim = 2**n
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    y = rng.standard_normal(a.shape[0]) + 1j * rng.standard_normal(a.shape[0])
    np.testing.assert_allclose(sup.forward(x), a @ x.ravel(), rtol=0, atol=1e-12)
    np.testing.assert_allclose(sup.adjoint(y).ravel(), a.conj().T @ y,
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pauli_site_patterns_match_setting_major_layout(rng, n):
    """Counts, frequencies, forward and adjoint in site-pattern order,
    permuted through grouped_order, give the setting-major (3^N, 2^N)
    layout: its counts scatter-added per (setting, bits) pair, its maps
    built from setting_major_effect."""
    settings, bits = sample_pauli_shots(random_density(n, rng), 20 * 3**n,
                                        rng)
    fv = FrequencyVector.from_pauli_shots(settings, bits)
    order = grouped_order(n, (3, 2))
    place = 2 ** np.arange(n - 1, -1, -1)
    old = np.zeros((3**n, 2**n), dtype=np.int64)
    np.add.at(old, (settings @ 3 ** np.arange(n - 1, -1, -1), bits @ place), 1)
    np.testing.assert_array_equal(fv.counts[order].reshape(old.shape), old)
    np.testing.assert_array_equal(
        fv.frequencies()[order],
        (old / old.sum(axis=1, keepdims=True) / 3**n).ravel())

    sup = FrameSuperoperator("pauli", n)
    a_old = np.array([setting_major_effect(n, j).reshape(-1).conj()
                      for j in range(6**n)])
    dim = 2**n
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    y = rng.standard_normal(6**n) + 1j * rng.standard_normal(6**n)
    np.testing.assert_allclose(sup.forward(x)[order], a_old @ x.ravel(),
                               rtol=0, atol=1e-12)
    y_new = np.empty_like(y)
    y_new[order] = y
    np.testing.assert_allclose(sup.adjoint(y_new).ravel(), a_old.conj().T @ y,
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind,n,frame_name", SUPEROP_CASES)
def test_lininv_and_pls_match_dense_pseudo_inverse(kind, n, frame_name):
    freqs = sampled_freqs(kind, n, frame_name, seed=40)
    sup = make_superop(kind, n, frame_name)
    want, want_resid = reference_lininv(freqs.frequencies(), kind, n, frame_name)
    got = lininv(freqs, sup)
    np.testing.assert_allclose(got.estimate, want, rtol=0, atol=TOL)
    assert abs(got.residual - want_resid) < TOL
    pls_want = _project_density(want)
    pls_got = pls_from_freqs(freqs, sup)
    np.testing.assert_allclose(pls_got.estimate, pls_want, rtol=0, atol=TOL)
    a = reference_dense(kind, n, frame_name)[0]
    resid = np.linalg.norm(a @ pls_want.ravel() - freqs.frequencies())
    assert abs(pls_got.residual - resid) < TOL


@pytest.mark.parametrize("weights", [None, "multinomial"])
@pytest.mark.parametrize("kind,n,frame_name", SUPEROP_CASES)
def test_mle_matches_dense_fit(kind, n, frame_name, weights):
    freqs = sampled_freqs(kind, n, frame_name, seed=50)
    sup = make_superop(kind, n, frame_name)
    got = mle(freqs, sup, weights=weights)
    assert got.converged
    assert all(b <= a for a, b in zip(got.objective_history,
                                      got.objective_history[1:]))
    w = _weight_vector(freqs, weights, sup)
    want = reference_mle(freqs, w, kind, n, frame_name)
    np.testing.assert_allclose(got.estimate, want, rtol=0, atol=1e-8)


@pytest.mark.parametrize("weights", [None, "multinomial"])
@pytest.mark.parametrize("kind,n,frame_name", SUPEROP_CASES)
def test_mle_step_size_matches_eigvalsh(kind, n, frame_name, weights):
    freqs = sampled_freqs(kind, n, frame_name, seed=50)
    sup = make_superop(kind, n, frame_name)
    w2 = _weight_vector(freqs, weights, sup) ** 2
    a = reference_dense(kind, n, frame_name)[0]
    want = np.linalg.eigvalsh((a.conj().T * w2) @ a)[-1]
    got = _max_eigenvalue(sup.probability_map(), w2)
    assert abs(got - want) <= 1e-10 * want


def broadcast_dense(self, site):
    """FrameSuperoperator._dense as one np.ones view multiplied in place by
    each site's factor, broadcast over the whole view: N passes."""
    n, dims = self.n_qubits, site.shape
    out = np.ones(tuple(d for d in dims for _ in range(n)), dtype=complex)
    for k in range(n):
        shape = [1] * out.ndim
        shape[k::n] = dims
        out *= site.reshape(shape)
    return out.reshape(math.prod(dims[:-2]) ** n, 4**n)


DENSE_VIEW_CASES = (
    [(kind, n, name, view) for n in (1, 2, 3, 4)
     for kind, name in (("sic", "standard"), ("sic", "rotated"),
                        ("pauli", None))
     for view in ("probability_map", "matrix", "pinv_matrix")]
    + [("sic", 5, "standard", "probability_map")])


@pytest.mark.parametrize("kind,n,frame_name,view", DENSE_VIEW_CASES)
def test_dense_views_equal_broadcast_loop(monkeypatch, kind, n, frame_name,
                                          view):
    """Site-by-site appends multiply each entry's factors in the same order
    as the broadcast loop, starting from 1: bit for bit the same view,
    signed zeros included."""
    sup = make_superop(kind, n, frame_name)
    got = getattr(sup, view)()
    monkeypatch.setattr(FrameSuperoperator, "_dense", broadcast_dense)
    want = getattr(sup, view)()
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("weights", [None, "multinomial"])
@pytest.mark.parametrize("kind", ["sic", "pauli"])
def test_mle_unchanged_with_broadcast_loop(monkeypatch, kind, weights):
    """mle's step size reads probability_map; with the broadcast loop
    patched in, the fit is the same to the bit."""
    freqs = sampled_freqs(kind, 3, "standard" if kind == "sic" else None,
                          seed=70)
    sup = make_superop(kind, 3, "standard" if kind == "sic" else None)
    got = mle(freqs, sup, weights=weights)
    monkeypatch.setattr(FrameSuperoperator, "_dense", broadcast_dense)
    want = mle(freqs, sup, weights=weights)
    np.testing.assert_array_equal(got.estimate, want.estimate)
    assert got.iterations == want.iterations
    assert got.objective_history == want.objective_history


@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("frame_name", ["standard", "rotated"])
def test_mixed_distribution_matches_contraction_loop(rng, n, frame_name):
    frame = sic_frame(frame_name)
    rho = random_density(n, rng)
    t = rho.matrix.reshape((2,) * (2 * n))
    for k in range(n):
        t = np.tensordot(t, frame.effects, axes=[(0, n - k), (2, 1)])
    want = np.where(t.real < 0, 0.0, t.real).reshape(-1)
    np.testing.assert_allclose(sic_outcome_distribution(rho, frame), want,
                               rtol=0, atol=1e-15)


@pytest.mark.parametrize("frame_name", ["standard", "rotated"])
def test_naimark_completion_spans_the_complement(frame_name):
    """The completing columns are fixed only up to a U(2) rotation, so check
    what defines them: orthonormal, orthogonal to the frame columns, and
    spanning the rest of C^4."""
    v = sic_frame(frame_name).kets / math.sqrt(2)
    w = naimark_unitary(sic_frame(frame_name))[:, 2:]
    np.testing.assert_allclose(v.conj().T @ w, 0, rtol=0, atol=1e-14)
    np.testing.assert_allclose(w.conj().T @ w, np.eye(2), rtol=0, atol=1e-14)
    np.testing.assert_allclose(w @ w.conj().T, np.eye(4) - v @ v.conj().T,
                               rtol=0, atol=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pauli_mixed_distribution_matches_contraction_loop(rng, n):
    rho = random_density(n, rng)
    for setting in pauli_settings(n):
        t = rho.matrix.reshape((2,) * (2 * n))
        for k, ch in enumerate(setting):
            vecs = povm._PAULI_EIGVECS[ch]
            proj = np.einsum("ab,cb->bac", vecs, vecs.conj())
            t = np.tensordot(t, proj, axes=[(0, n - k), (2, 1)])
        want = np.where(t.real < 0, 0.0, t.real).reshape(-1)
        np.testing.assert_array_equal(
            pauli_outcome_distribution(rho, setting), want)


# --- PPT moment ---------------------------------------------------------------


def reference_p3(digits, part):
    """Mean of Re tr(abc) over every distinct triple of the per-shot stack
    of partially transposed shadows."""
    m, n = digits.shape
    site = 3 * FRAME.projectors - np.eye(2)
    mats = np.ones((m, 1, 1), dtype=complex)
    for k in range(n):
        factor = (site.transpose(0, 2, 1) if k in part.subset_a
                  else site)[digits[:, k]]
        mats = np.einsum("mij,mkl->mikjl", mats, factor).reshape(
            m, mats.shape[1] * 2, mats.shape[1] * 2)
    idx = np.array(list(itertools.combinations(range(m), 3)))
    return np.einsum("tij,tjk,tki->t", mats[idx[:, 0]], mats[idx[:, 1]],
                     mats[idx[:, 2]], optimize=True).real.mean()


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("m", [3, 8, 40])
def test_p3_matches_enumerated_stack(n, m):
    digits = ghz_shots(m, 10 * n + m, n_qubits=n)
    for size in range(1, n):
        for side_a in itertools.combinations(range(n), size):
            part = Bipartition(n, side_a)
            want = reference_p3(digits, part)
            got = estimate_p3(digits, part, FRAME)
            assert abs(got - want) <= TOL * max(1.0, abs(want))


# --- per-shot samplers --------------------------------------------------------


def reference_pershot_pure(amp, frame, m, n, rng, block=512):
    """One conditional state per shot. The draws of each qubit are taken up
    front, in the order the sampler takes them, so the shots can be
    contracted `block` at a time."""
    v = frame.kets.conj() / math.sqrt(2)
    draws = [rng.random(m) for _ in range(n)]
    digits = np.empty((m, n), dtype=np.uint8)
    for lo in range(0, m, block):
        b = min(block, m - lo)
        cur = np.broadcast_to(amp, (b, amp.size)).copy()
        for k in range(n):
            rest = cur.shape[1] // 2
            cond = np.einsum("ia,cas->ics", v, cur.reshape(b, 2, rest))
            p = np.einsum("ics,ics->ci", cond, cond.conj()).real
            p_norm = p / p.sum(axis=1, keepdims=True)
            u = draws[k][lo:lo + b]
            d = (u[:, None] > np.cumsum(p_norm, axis=1)).sum(axis=1)
            d = np.minimum(d, 3).astype(np.uint8)
            digits[lo:lo + b, k] = d
            sel = cond[d, np.arange(b), :]
            cur = sel / np.sqrt(p[np.arange(b), d])[:, None]
    return digits


def reference_pershot(state, n_shots, seed, chunk=4096):
    rng = derive_rng(seed, "sic-shots")
    return np.concatenate([
        reference_pershot_pure(state.amplitudes, FRAME,
                               min(chunk, n_shots - lo), state.n_qubits, rng)
        for lo in range(0, n_shots, chunk)])


@pytest.mark.parametrize("state,n_shots", [
    (make_ghz(12), 8192),  # two full chunks
    *[(random_pure(n, np.random.default_rng(40 + n)), 5000)  # a partial one
      for n in (1, 5, 11)],
], ids=["ghz12", "pure1", "pure5", "pure11"])
def test_pershot_sampler_matches_one_state_per_shot(monkeypatch, state,
                                                    n_shots):
    monkeypatch.setattr(povm, "DIST_CAP", 0)  # the per-shot sampler at any N
    got = sample_sic_shots(state, FRAME, n_shots, derive_rng(7, "sic-shots"))
    np.testing.assert_array_equal(got, reference_pershot(state, n_shots, 7))


@pytest.mark.parametrize("block", [1, 16])
def test_pure_sampler_matches_in_small_blocks(monkeypatch, block):
    # blocks narrower than a prefix state split the branch gather by columns
    # as well as by prefixes
    monkeypatch.setattr(povm, "_BLOCK", block)
    monkeypatch.setattr(povm, "DIST_CAP", 0)
    psi = random_pure(6, np.random.default_rng(61))
    got = sample_sic_shots(psi, FRAME, 700, derive_rng(8, "sic-shots"))
    np.testing.assert_array_equal(got, reference_pershot(psi, 700, 8))


def test_pershot_ghz12_chunk_memory_is_bounded(hwm_growth):
    """One conditional state per shot held 4096 copies of the 2^12
    amplitudes (peak near 1.3 GB); one per distinct prefix needs megabytes."""
    grew = hwm_growth("import sictomo\nfrom sictomo.qstate import make_ghz",
                      "sictomo.povm.sample_sic_shots(make_ghz(12),"
                      " sictomo.povm.sic_frame('standard'), 4096, 0)")
    assert grew / 2**20 < 200


def test_pershot_memory_within_its_byte_check(monkeypatch, hwm_growth):
    """The per-shot check states what the sampler holds at once. The
    sampler that built all four branches of every prefix peaked at 146 MB
    on this case, against 67 MB stated."""
    stated = []

    def record(nbytes, what, cap=None):
        stated.append(nbytes)
        raise povm.CapExceededError(what)
    monkeypatch.setattr(povm, "check_bytes", record)
    with pytest.raises(povm.CapExceededError):  # the check reads N and m only
        sample_sic_shots(make_ghz(15), FRAME, 4096, 0)
    grew = hwm_growth(
        "import numpy as np\nfrom sictomo.povm import sample_sic_shots,"
        " sic_frame\nfrom sictomo.qstate import random_pure\n"
        "st = random_pure(15, np.random.default_rng(3))",
        "sample_sic_shots(st, sic_frame('standard'), 4096, 1)")
    assert grew <= stated[0]


def test_multinomial_draw_memory_is_bounded(hwm_growth):
    """A million GHZ-10 shots are 10 MB of digits. Decoding them through
    (M, N) int64 temporaries raised the peak by about 200 MB."""
    grew = hwm_growth("from sictomo.povm import sample_sic_shots, sic_frame\n"
                      "from sictomo.qstate import make_ghz\nst = make_ghz(10)",
                      "sample_sic_shots(st, sic_frame('standard'), 10**6, 1)")
    assert grew / 2**20 < 100


def reference_multinomial(probs, n_shots, rng, n, base):
    counts = rng.multinomial(n_shots, probs / probs.sum())
    flat = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    rng.shuffle(flat)
    shifts = base ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return ((flat[:, None] // shifts) % base).astype(np.uint8)


@pytest.mark.parametrize("state", [
    *[random_pure(n, np.random.default_rng(70 + n)) for n in (1, 4, 10)],
    *[random_density(n, np.random.default_rng(80 + n)) for n in (1, 3, 5)],
], ids=["pure1", "pure4", "pure10", "mixed1", "mixed3", "mixed5"])
def test_sic_sampler_matches_multinomial_reference(state):
    n = state.n_qubits
    got = sample_sic_shots(state, FRAME, 3000, derive_rng(9, "sic-shots"))
    want = reference_multinomial(sic_outcome_distribution(state, FRAME),
                                 3000, derive_rng(9, "sic-shots"), n, 4)
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("state,n_shots", [
    (random_pure(1, np.random.default_rng(90)), 7),
    (random_pure(3, np.random.default_rng(91)), 2000),  # a remainder
    (random_density(2, np.random.default_rng(92)), 900),
], ids=["pure1", "pure3", "mixed2"])
def test_pauli_sampler_matches_multinomial_reference(state, n_shots):
    n = state.n_qubits
    settings, bits = sample_pauli_shots(state, n_shots,
                                        derive_rng(10, "pauli-shots"))
    rng = derive_rng(10, "pauli-shots")
    alloc = povm.allocate_pauli_shots(n_shots, n)
    want = [reference_multinomial(pauli_outcome_distribution(state, setting),
                                  int(m), rng, n, 2)
            for setting, m in zip(pauli_settings(n), alloc) if m]
    np.testing.assert_array_equal(bits, np.concatenate(want))
    letters = [["XYZ".index(c) for c in s]
               for s, m in zip(pauli_settings(n), alloc) for _ in range(m)]
    np.testing.assert_array_equal(settings, letters)


def reference_rotated_ghz(n, angle):
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    ry = np.array([[c, -s], [s, c]], dtype=complex)
    return functools.reduce(np.kron, [ry] * n) @ make_ghz(n).amplitudes


@pytest.mark.parametrize("angle", [math.pi / 4, 0.3])
@pytest.mark.parametrize("n", range(1, 7))
def test_rotated_ghz_matches_dense_rotation(n, angle):
    np.testing.assert_allclose(make_rotated_ghz(n, angle).amplitudes,
                               reference_rotated_ghz(n, angle),
                               rtol=0, atol=1e-14)


# --- shot-file reader ---------------------------------------------------------


def _reference_check_ascii(line, line_no):
    if not line.isascii():
        bad = next(ch for ch in line if not ch.isascii())
        raise ShotFileError(f"non-ASCII byte 0x{ord(bad) - 0xdc00:02x}",
                            line=line_no)


def _reference_sic_line(line, n, line_no):
    if len(line) != n:
        raise ShotFileError(
            f"expected {n} digits, got {len(line)}", line=line_no)
    row = np.frombuffer(line.encode("ascii"), dtype=np.uint8) - ord("0")
    if row.max() > 3:
        bad = line[int(np.argmax(row > 3))]
        raise ShotFileError(f"digit {bad!r} out of range 0..3", line=line_no)
    return row


def _reference_pauli_line(line, n, line_no):
    parts = line.split(" ")
    if len(parts) != 2 or len(parts[0]) != n or len(parts[1]) != n:
        raise ShotFileError(
            "expected '<N setting letters> <N outcome bits>'", line=line_no)
    letters, bits = parts
    for ch in letters:
        if ch not in {"X": 0, "Y": 1, "Z": 2}:
            raise ShotFileError(f"setting letter {ch!r} not in XYZ",
                                line=line_no)
    for ch in bits:
        if ch not in "01":
            raise ShotFileError(f"outcome bit {ch!r} not 0/1", line=line_no)
    return letters, np.frombuffer(bits.encode("ascii"), dtype=np.uint8) - ord("0")


def reference_read_shots(path):
    """The line-by-line reader: digit rows (SIC) or (setting string, bit
    row) pairs (Pauli), validated line by line."""
    with open(path, "r", encoding="ascii", errors="surrogateescape") as f:
        header = _read_header_lines(f)
        n = header.n_qubits
        parse = (_reference_sic_line if header.povm == "sic"
                 else _reference_pauli_line)
        for line_no, raw in enumerate(f, start=3):
            line = raw.rstrip("\n")
            if not line:
                raise ShotFileError("empty record line", line=line_no)
            _reference_check_ascii(line, line_no)
            yield parse(line, n, line_no)


def reference_records(path, povm, n):
    """The reference reader's code arrays of each run, or its error text."""
    try:
        rows = list(reference_read_shots(path))
    except ShotFileError as exc:
        return str(exc)
    if povm == "sic":
        return [np.array(rows, dtype=np.uint8).reshape(-1, n)]
    codes = {"X": 0, "Y": 1, "Z": 2}
    settings = [[codes[c] for c in s] for s, _ in rows]
    bits = [b for _, b in rows]
    return [np.array(a, dtype=np.uint8).reshape(-1, n) for a in (settings, bits)]


def read_runs(read, path, n, k):
    """A reader's chunks of k runs, each run concatenated over the chunks,
    or its error text."""
    try:
        chunks = list(read(path))
    except ShotFileError as exc:
        return str(exc)
    empty = np.empty((0, n), dtype=np.uint8)
    return [np.concatenate([empty] + [c[j] for c in chunks]) for j in range(k)]


CHUNK_ROWS = (1, 2, 3, 4096)


def record_readers(povm):
    """Every reader of a povm's files, each yielding chunks of runs: the
    record reader and, for SIC files, its chunked view at every chunk size;
    for Pauli files, the whole-file reader."""
    readers = [functools.partial(_iter_records, povm=povm, chunk_rows=rows)
               for rows in CHUNK_ROWS]
    if povm == "sic":
        readers += [lambda p, rows=rows: ([c] for c in iter_sic_chunks(p, rows))
                    for rows in CHUNK_ROWS]
    else:
        readers.append(lambda p: [read_pauli_shots(p)[1:]])
    return readers


BAD_SYMBOLS = {
    "symbol": [b"4", b"9", b"/", b"W", b"x", b" ", b"\t", b"2", b"Z", b"\x00"],
    "non-ascii": [b"\xe9", b"\xc3\xa9", b"\xff"],
}


@st.composite
def shot_bodies(draw, povm):
    """(n, file bytes): a header and a body of well-formed records, up to
    two of them damaged, under mixed line ends, with or without a final
    newline."""
    n = draw(st.integers(1, 3))
    runs = ["0123"] if povm == "sic" else ["XYZ", "01"]
    lines = [" ".join(draw(st.text(a, min_size=n, max_size=n))
                      for a in runs).encode("ascii")
             for _ in range(draw(st.integers(0, 8)))]
    for _ in range(draw(st.integers(0, 2)) if lines else 0):
        i = draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        kind = draw(st.sampled_from(["truncated", "over-long", "empty",
                                     "symbol", "non-ascii", "compensating"]))
        if kind == "truncated":
            lines[i] = line[:draw(st.integers(0, max(0, len(line) - 1)))]
        elif kind == "over-long":
            lines[i] += draw(st.sampled_from([b"0", b"1", b"X", b" 0", b"01"]))
        elif kind == "empty":
            lines[i] = b""
        elif kind in BAD_SYMBOLS:
            at = draw(st.integers(0, max(0, len(line) - 1)))
            lines[i] = line[:at] + draw(st.sampled_from(BAD_SYMBOLS[kind])) \
                + line[at + 1:]
        elif i + 1 < len(lines):
            # k bytes of the next line move onto this one, so the two
            # together still hold two records' worth of bytes
            k = draw(st.integers(0, len(lines[i + 1])))
            lines[i], lines[i + 1] = line + lines[i + 1][:k], lines[i + 1][k:]
    ends = [draw(st.sampled_from([b"\n", b"\n", b"\r\n", b"\r"]))
            for _ in lines]
    if lines and draw(st.booleans()):
        ends[-1] = b""
    head_end = draw(st.sampled_from([b"\n", b"\r\n", b"\r"]))
    header = (f'{{"n_qubits":{n},"povm":"{povm}","frame":"standard",'
              '"seed":0,"batch":1}').encode("ascii")
    body = b"".join(line + end for line, end in zip(lines, ends))
    return n, b"#TOMO v1" + head_end + header + head_end + body


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "shots"


@pytest.mark.parametrize("povm", ["sic", "pauli"])
@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_record_reader_matches_line_reader(fuzz_path, povm, data):
    n, content = data.draw(shot_bodies(povm))
    fuzz_path.write_bytes(content)
    want = reference_records(fuzz_path, povm, n)
    for read in record_readers(povm):
        got = read_runs(read, fuzz_path, n, 1 if povm == "sic" else 2)
        if isinstance(want, str) or isinstance(got, str):
            assert got == want
            continue
        for g, w in zip(got, want, strict=True):
            assert g.dtype == np.uint8 and g.shape == w.shape
            np.testing.assert_array_equal(g, w)


# --- reconstruct JSON writer --------------------------------------------------


def odd_estimate(n, seed):
    """A random density matrix with a signed zero, a NaN, infinities and a
    subnormal among its parts, each written as json.dumps writes it."""
    est = random_density(n, np.random.default_rng(seed)).matrix
    est.flat[0] = complex(-0.0, 0.0)
    est.flat[-1] = complex(np.nan, -np.inf)
    est.flat[est.size // 2] = complex(5e-324, np.inf)
    return est


@pytest.mark.parametrize("block", [None, 1, 7])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_blocked_json_equals_one_dumps(monkeypatch, n, block):
    """The estimate written in blocks is byte for byte the one json.dumps
    of the whole dict, with meta or without, mixed or pure."""
    if block is not None:
        monkeypatch.setattr(qstate, "_JSON_BLOCK", block)
    res = ReconstructionResult(estimate=odd_estimate(n, 80 + n),
                               method="pls", iterations=3, residual=0.25)
    meta = {"method": "pls", "residual": 0.25, "iterations": 3,
            "converged": True}
    mixed = qstate.DensityOperator(res.estimate, check=False)
    written, dumped = [], []
    for shots, extra in ((None, {}), (700, {"shots": 700})):
        fh = io.StringIO()
        res.write_json(fh, shots)
        written.append(fh.getvalue())
        dumped.append(json.dumps(state_to_json_dict(mixed, meta | extra))
                      + "\n")
    amp = random_pure(n, np.random.default_rng(n)).amplitudes
    amp[0] = complex(-0.0, np.nan)
    fh = io.StringIO()
    write_state_json(fh, PureState(amp, check=False))
    written.append(fh.getvalue())
    dumped.append(json.dumps(state_to_json_dict(PureState(amp, check=False)))
                  + "\n")
    same = written == dumped  # pytest's diff of long lines takes seconds
    assert same


def test_blocked_json_memory_is_bounded(tmp_path, hwm_growth):
    """At N = 9 the estimate's lists and their one string (12.5 MB of text)
    raised the peak by 37 MiB; the blocks add under one."""
    grew = hwm_growth(
        "import numpy as np\n"
        "from sictomo.qstate import random_density\n"
        "from sictomo.reconstruct import ReconstructionResult\n"
        "res = ReconstructionResult(estimate=random_density(9,"
        " np.random.default_rng(9)).matrix, method='lininv')\n"
        f"fh = open({str(tmp_path / 'rho.json')!r}, 'w', encoding='ascii')",
        "res.write_json(fh, 1000)\nfh.close()")
    assert grew <= 4 * 2**20


# --- state-identification game ------------------------------------------------


def reference_play(game, seed, trial, gap_window, shot_cap):
    """Game.play with a transcript written out on each of its two paths."""
    secret = int(derive_rng(seed, "game-secret", trial).integers(16))
    rng = derive_rng(seed, "game-shots", trial)
    n_codes = game.probs.shape[1]
    s1 = np.zeros(16)
    s2 = np.zeros((16, 16))
    seen, run, prev = 0, 0, -1
    while seen < shot_cap:
        block = min(256, shot_cap - seen)
        codes = rng.choice(n_codes, size=block, p=game.probs[secret])
        for code in codes:
            v = game.luts[:, code]
            s1 += v
            s2 += np.outer(v, v)
            seen += 1
            means = s1 / seen
            order = np.argsort(means)
            top, sec = int(order[-1]), int(order[-2])
            gap = means[top] - means[sec]
            if seen >= 2:
                ssq = s2[top, top] + s2[sec, sec] - 2 * s2[top, sec]
                var = max(ssq - seen * gap * gap, 0.0) / (seen - 1)
                threshold = math.sqrt(var / seen)
            else:
                threshold = 0.0
            if gap > threshold:
                run = run + 1 if top == prev else 1
                prev = top
            else:
                run, prev = 0, -1
            if run >= gap_window:
                return top, seen, {
                    "secret": secret, "winner": top,
                    "correct": top == secret, "shots": seen,
                    "declared": True, "gap_window": gap_window,
                    "final_gap": float(gap), "seed": int(seed),
                    "trial": int(trial)}
    winner = int(np.argmax(s1))
    return winner, shot_cap, {
        "secret": secret, "winner": winner, "correct": winner == secret,
        "shots": shot_cap, "declared": False, "gap_window": gap_window,
        "final_gap": 0.0, "seed": int(seed), "trial": int(trial)}


@pytest.fixture(scope="module")
def game():
    return Game(FRAME)


@pytest.mark.parametrize("shot_cap", [1, 30, 10_000])
@pytest.mark.parametrize("gap_window", [1, 5, 10**9])
def test_game_transcript_matches_two_path_reference(game, gap_window,
                                                    shot_cap):
    paths = set()
    for seed, trial in itertools.product((0, 3), (0, 1)):
        got = game.play(seed, trial=trial, gap_window=gap_window,
                        shot_cap=shot_cap)
        want = reference_play(game, seed, trial, gap_window, shot_cap)
        assert got == want
        assert [type(x) for x in got[2].values()] == [
            type(x) for x in want[2].values()]
        paths.add(got[2]["declared"])
    if gap_window == 10**9:
        assert paths == {False}  # never met: every trial takes the cap path
    if (gap_window, shot_cap) == (5, 10_000):
        assert paths == {True}  # met well within the cap: the declared path
