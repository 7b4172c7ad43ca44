"""Acceptance gate: one test per release criterion, tolerances stated inline.

Each test re-derives its expectations from first principles (enumeration,
closed forms, or fixed-seed sampling) rather than trusting library internals.
Wall-clock limits are asserted where the criterion carries one.
"""

import contextlib
import itertools
import math
import time

import numpy as np
import pytest

from sictomo.budget import (BudgetQuery, coincidence_probability,
                            enumerated_coincidence, exact_linear_variance,
                            exact_quadratic_variance, linear_variance_bound,
                            observable_budget, purity_budget,
                            quadratic_variance_bound,
                            variance_decomposition_check)
from sictomo.estimators import (ObservableSpec, estimate_purity,
                                estimate_renyi2, observable_lut)
from sictomo.povm import (FrameSuperoperator, derive_rng, digits_from_indices,
                          indices_from_digits, naimark_unitary,
                          sample_sic_shots, sic_frame,
                          sic_outcome_distribution)
from sictomo.qstate import (Bipartition, DensityOperator, PureState,
                            fidelity_pure, make_ame5, make_ghz,
                            make_linear_cluster, purity_exact, random_density,
                            random_pure, trace_distance)
from sictomo.reconstruct import FrequencyVector, lininv, pls, reconstruct
from sictomo.shadows import PAIR_TRACE, ShadowAccumulator, shadow_expand
from sictomo.stream import Game, OnlineEngine, TrackerConfig

STANDARD = sic_frame("standard")
ROTATED = sic_frame("rotated")
SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
                dtype=float)


@contextlib.contextmanager
def time_limit(seconds):
    t0 = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t0
    assert elapsed < seconds, f"took {elapsed:.1f}s, limit {seconds}s"


def random_hermitian(dim, rng):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


def test_c01_frame_identities():
    with time_limit(1.0):
        for frame in (STANDARD, ROTATED):
            effects = [0.5 * np.outer(k, k.conj()) for k in frame.kets]
            assert np.max(np.abs(sum(effects) - np.eye(2))) <= 1e-12
            pair = sum(np.kron(np.outer(k, k.conj()), np.outer(k, k.conj()))
                       for k in frame.kets) / 4
            assert np.max(np.abs(pair - (np.eye(4) + SWAP) / 6)) <= 1e-12
            gram = np.abs(frame.kets.conj() @ frame.kets.T) ** 2
            assert np.max(np.abs(gram - (np.eye(4) * 2 + 1) / 3)) <= 1e-12


def test_c02_naimark_embedding():
    for frame in (STANDARD, ROTATED):
        u = naimark_unitary(frame)
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-12
    u = naimark_unitary(STANDARD)
    # bit-exact, not approximate: the embedding's first two columns ARE the
    # measurement kets scaled by 1/sqrt(2)
    assert np.array_equal(u[:, :2], STANDARD.kets / math.sqrt(2))


def test_c03_shadow_inversion():
    with time_limit(30.0):
        for i in range(50):
            n = 1 + i % 3
            frame = (STANDARD, ROTATED)[i % 2]
            rng = derive_rng(1, "state", i)
            state = random_density(n, rng) if i % 4 else random_pure(n, rng)
            probs = sic_outcome_distribution(state, frame)
            rows = digits_from_indices(np.arange(4**n), n)
            mean = sum(p * shadow_expand(row, range(n), frame)
                       for p, row in zip(probs, rows))
            rho = state.matrix if isinstance(state, DensityOperator) \
                else state.density().matrix
            assert np.max(np.abs(mean - rho)) <= 1e-10


def test_c04_inversion_routes_agree():
    rng = np.random.default_rng(2)
    for i in range(20):
        n = 1 + i % 3
        frame = (STANDARD, ROTATED)[i % 2]
        weights = rng.dirichlet(np.ones(4**n))
        counts = rng.multinomial(512, weights)
        dense = lininv(FrequencyVector("sic", n, counts),
                       FrameSuperoperator("sic", n, frame=frame)).estimate
        acc = ShadowAccumulator(n, range(n), frame)
        acc.add_records(digits_from_indices(np.arange(4**n), n),
                        weights=counts)
        assert np.max(np.abs(dense - acc.mean())) <= 1e-8


def test_c05_purity_unbiasedness():
    # the pair kernel averages to tr(rho^2) exactly under the outcome law
    for i in range(20):
        n = 1 + i % 2
        frame = (STANDARD, ROTATED)[i % 2]
        rho = random_density(n, derive_rng(3, "state", i))
        probs = sic_outcome_distribution(rho, frame)
        rows = digits_from_indices(np.arange(4**n), n)
        kernel = np.ones((4**n, 4**n))
        for site in range(n):
            kernel *= PAIR_TRACE[rows[:, None, site], rows[None, :, site]]
        assert abs(probs @ kernel @ probs - purity_exact(rho)) <= 1e-10
    # the streaming tracker reproduces the naive all-pairs average
    for i in range(3):
        n = 1 + i % 2
        state = random_pure(n, derive_rng(4, "state", i))
        digits = sample_sic_shots(state, STANDARD, 1000,
                                  derive_rng(4, "sic-shots", i))
        kernel = np.ones((1000, 1000))
        for site in range(n):
            kernel *= PAIR_TRACE[digits[:, None, site], digits[None, :, site]]
        naive = (kernel.sum() - np.trace(kernel)) / (1000 * 999)
        streamed = estimate_purity(digits, range(n), STANDARD)
        assert abs(streamed - naive) <= 1e-9


def test_c06_variance_bounds():
    for i in range(50):
        n = 1 + i % 3
        rng = derive_rng(5, "state", i)
        rho = random_density(n, rng)
        obs = ObservableSpec(range(n), random_hermitian(2**n, rng))
        bound = linear_variance_bound(obs)
        assert abs(bound - 3**n * obs.hs_norm_sq()) <= 1e-9 * bound
        var = exact_linear_variance(rho, obs, STANDARD)
        assert var <= bound + 1e-9
    for i in range(20):
        n = 1 + i % 2
        rho = random_density(n, derive_rng(6, "state", i))
        var = exact_quadratic_variance(rho, STANDARD)
        assert var <= quadratic_variance_bound(n) + 1e-9
        assert quadratic_variance_bound(n) == 9**n
    half = DensityOperator(np.eye(2) / 2)
    assert abs(exact_quadratic_variance(half, STANDARD) - 6.75) <= 1e-9


def test_c07_coincidence_law():
    for i in range(100):
        k = 1 + i % 3
        frame = (STANDARD, ROTATED)[i % 2]
        rng = derive_rng(7, "state", i)
        rho = random_density(k, rng) if i % 3 else random_pure(k, rng).density()
        closed = coincidence_probability(rho)
        assert abs(closed - enumerated_coincidence(rho, frame)) <= 1e-10
        assert closed <= 3.0**-k + 1e-12
    for j in range(4):
        aligned = PureState(STANDARD.kets[j])
        assert abs(coincidence_probability(aligned.density()) - 1 / 3) <= 1e-12


def test_c08_variance_decomposition():
    rho1 = random_density(1, derive_rng(8, "state"))
    lhs, rhs, se = variance_decomposition_check(rho1, 3, STANDARD)
    assert se == 0.0 and abs(lhs - rhs) <= 1e-9
    rho2 = random_density(2, derive_rng(12, "state"))
    lhs, rhs, se = variance_decomposition_check(rho2, 100, STANDARD,
                                                reps=2500, seed=4)
    assert abs(lhs - rhs) <= 3 * se


def test_c09_ame5_profile():
    with time_limit(60.0):
        state = make_ame5()
        digits = sample_sic_shots(state, STANDARD, 20_000,
                                  derive_rng(101, "sic-shots"))
        lut = observable_lut(
            ObservableSpec(range(5), state.density().matrix), STANDARD)
        fid = float(np.mean(lut[indices_from_digits(digits)]))
        assert abs(fid - 1.0) <= 0.02
        for size in (1, 2, 3, 4):
            target, tol = (1.0, 0.05) if size in (1, 4) else (2.0, 0.1)
            for subset in itertools.combinations(range(5), size):
                r = estimate_renyi2(digits, Bipartition(5, subset), STANDARD)
                assert abs(r - target) <= tol, (subset, r)
        full = estimate_purity(digits, range(5), STANDARD)
        assert abs(full - 1.0) <= 0.05


def test_c10_physical_projection():
    nearest = pls(np.diag([1.2, -0.2]))
    np.testing.assert_allclose(nearest.matrix, np.diag([1.0, 0.0]),
                               atol=1e-12)
    rng = np.random.default_rng(10)
    for _ in range(30):
        h = random_hermitian(4, rng)
        out = pls(h)
        assert abs(np.trace(out.matrix).real - 1) <= 1e-10
        assert np.linalg.eigvalsh(out.matrix)[0] >= -1e-10
        again = pls(out.matrix)
        assert np.max(np.abs(again.matrix - out.matrix)) <= 1e-10
        best = np.linalg.norm(h - out.matrix)
        for _ in range(40):
            probe = random_density(2, rng).matrix
            lam = rng.uniform()
            mix = lam * probe + (1 - lam) * out.matrix
            assert best <= np.linalg.norm(h - probe) + 1e-3
            assert best <= np.linalg.norm(h - mix) + 1e-3


def test_c11_mle_behavior():
    for i in range(20):
        n = 1 + i % 2
        state = random_density(n, derive_rng(11, "state", i))
        digits = sample_sic_shots(state, STANDARD, 400,
                                  derive_rng(11, "sic-shots", i))
        superop = FrameSuperoperator("sic", n, frame=STANDARD)
        res = reconstruct(FrequencyVector.from_sic_shots(digits), superop,
                          "mle")
        hist = np.asarray(res.objective_history)
        assert hist.size >= 1
        assert np.all(np.diff(hist) <= 1e-12)
    for i in range(10):
        n = 1 + i % 2
        rho = random_density(n, derive_rng(13, "state", i))
        superop = FrameSuperoperator("sic", n, frame=STANDARD)
        exact = (superop.probability_map() @ rho.matrix.ravel()).real
        res = reconstruct(exact, superop, "mle")
        assert trace_distance(res.estimate, rho.matrix) <= 1e-4


def test_c12_measurement_budgets():
    q = BudgetQuery(k=1, l=1, epsilon=0.1, delta=0.01, hs_norm_sq=2.0)
    assert observable_budget(q) == 8478
    assert purity_budget(BudgetQuery(k=2, l=1, epsilon=0.1,
                                     delta=0.1)) == 54000
    assert purity_budget(BudgetQuery(k=1, l=1, epsilon=0.1,
                                     delta=0.01)) == 180000
    base = dict(k=2, l=4, epsilon=0.1, delta=0.05)
    for field, harder in (("k", 3), ("l", 8), ("epsilon", 0.05),
                          ("delta", 0.01)):
        stricter = dict(base, **{field: harder})
        for budget in (observable_budget, purity_budget):
            assert budget(BudgetQuery(**stricter)) > \
                budget(BudgetQuery(**base))


def test_c13_state_guessing_game():
    with time_limit(120.0):
        game = Game()
        results = [game.play(7, trial=t, gap_window=5, shot_cap=10_000)
                   for t in range(200)]
        wins = sum(1 for _, shots, tr in results
                   if tr["correct"] and shots <= 81)
        shots_used = [shots for _, shots, _ in results]
    print(f"\n  game: {wins}/200 correct within 81 shots, "
          f"median {np.median(shots_used):g}")
    assert wins >= 190
    assert np.median(shots_used) <= 81


def test_c14_streaming_scaling():
    with time_limit(120.0):
        digits = sample_sic_shots(make_linear_cluster(8, "+" * 8), STANDARD,
                                  100_000, derive_rng(55, "sic-shots"))
        parts = [Bipartition(8, pair)
                 for pair in itertools.combinations(range(8), 2)]
        assert len(parts) == 28
        cfg = TrackerConfig(n_qubits=8, renyi_parts=parts, interval=10_000,
                            stopping=None)
        OnlineEngine(cfg, STANDARD).feed(digits[:20_000])  # warm caches
        # an interval takes about 5 ms, so one scheduler stall would double
        # it: each position's time is its least over three fresh engines
        feeds = [{r.shots: r.wall_ms
                  for r in OnlineEngine(cfg, STANDARD).feed(digits)}
                 for _ in range(3)]
        assert all(len(by_interval) == 10 for by_interval in feeds)
        walls = np.min([list(by_interval.values()) for by_interval in feeds],
                       axis=0)
        assert max(walls) / min(walls) < 3.0


def test_c15_method_convergence():
    ghz = make_ghz(3)
    digits = sample_sic_shots(ghz, STANDARD, 100_000,
                              derive_rng(23, "sic-shots"))
    lut = observable_lut(ObservableSpec(range(3), ghz.density().matrix),
                         STANDARD)
    fids = {"shadows": float(np.mean(lut[indices_from_digits(digits)]))}
    superop = FrameSuperoperator("sic", 3, frame=STANDARD)
    freqs = FrequencyVector.from_sic_shots(digits)
    for method in ("lininv", "pls", "mle"):
        res = reconstruct(freqs, superop, method)
        fids[method] = fidelity_pure(res.estimate, ghz)
        if method in ("pls", "mle"):
            assert abs(np.trace(res.estimate).real - 1) <= 1e-9
            assert np.linalg.eigvalsh(res.estimate)[0] >= -1e-9
    spread = max(fids.values()) - min(fids.values())
    assert spread <= 0.02, fids
    assert all(f > 0.9 for f in fids.values())
