"""Property estimators built on classical shadows.

Linear observables use a per-outcome-pattern lookup table. Purity is the
pair U-statistic kept in streaming form through the exact identity
sum_{m != m'} tr(s_m s_m') = tr(S^2) - Q, Q the running sum of tr(s^2). S is
kept as its pattern histogram n, and tr(S^2) = n^T V n (see shadows), so a
batch costs one histogram update whatever number of shots came before. One
tracker keeps every subset of one size in one array, so a batch is ingested
for all of them in one scatter-add and a readout applies V once to the
totals and once to all group histograms: the jackknife's delete-one-group
traces follow exactly as n^T u - 2 h_g^T u + h_g^T V h_g, with u = V n. The
PPT moment p3 is the triple U-statistic in the same exact form: the sums
over all triples, less those with a repeated shot, of the partially
transposed shadow sum T and of the sum Q2 of squared shadows, both built
from one N-qubit pattern histogram.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .povm import BYTES_CAP, check_bytes, frame_sums
from .qstate import Bipartition, partial_transpose
from .shadows import (_check_subset, apply_pair_trace, hist_zeros,
                      pattern_codes, shadow_lut, shadow_matrices, shadow_sum)

RENYI_PURITY_FLOOR = 1e-6
JACKKNIFE_GROUPS = 100


class ObservableSpec:
    """Hermitian observable together with the qubits it acts on."""

    __slots__ = ("support", "operator", "label")

    def __init__(self, support, operator, label=None):
        self.support = tuple(sorted(set(int(q) for q in support)))
        if len(self.support) != len(tuple(support)):
            raise ValueError("duplicate qubits in observable support")
        operator = np.asarray(operator, dtype=complex)
        dim = 2 ** len(self.support)
        if operator.shape != (dim, dim):
            raise ValueError("operator dimension does not match support size")
        if not np.allclose(operator, operator.conj().T, atol=1e-12):
            raise ValueError("observable must be Hermitian within 1e-12")
        self.operator = operator
        self.label = label if label is not None else (
            "obs:" + "-".join(str(q) for q in self.support))

    def hs_norm_sq(self):
        return float(np.einsum("ij,ji->", self.operator, self.operator).real)


def observable_lut(obs, frame):
    """tr(O sigma) for every digit pattern on the support, shape (4^K,)."""
    return shadow_lut(obs.operator, frame)


def linear_values(digits, obs, frame):
    """Per-shot estimates tr(O sigma_m), marginalized to the support."""
    digits = np.asarray(digits)
    support = _check_subset(obs.support, digits.shape[1])
    return observable_lut(obs, frame)[pattern_codes(digits, support)]


def estimate_linear(digits, obs, frame):
    """Mean and standard error of the single-shot observable estimator."""
    vals = linear_values(digits, obs, frame)
    if vals.size == 0:
        raise ValueError("no records")
    stderr = float(vals.std(ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else 0.0
    return float(vals.mean()), stderr


class RunningMoments:
    """Streaming mean / variance via chunk merges (single pass, stable)."""

    __slots__ = ("count", "mean", "m2")

    def __init__(self):
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0

    def add_values(self, values):
        values = np.asarray(values, dtype=float)
        if values.size == 0:
            return
        n_b = values.size
        mean_b = float(values.mean())
        m2_b = float(((values - mean_b) ** 2).sum())
        delta = mean_b - self.mean
        total = self.count + n_b
        self.mean += delta * n_b / total
        self.m2 += m2_b + delta * delta * self.count * n_b / total
        self.count = total

    def stderr(self):
        if self.count < 2:
            return 0.0
        return math.sqrt(self.m2 / (self.count - 1) / self.count)


class PurityTracker:
    """Streaming pair U-statistics for tr(rho_K^2), one per qubit subset K.

    `subsets` is a list of S qubit subsets of one size K; they share one
    state array of shape (S, G, 4^K), checked against BYTES_CAP. Shots
    arrive as digit rows; every `batch` consecutive shots form one batched
    shadow (trailing partial batch stays pending). Batches are dealt
    round-robin into G = JACKKNIFE_GROUPS groups, each kept per subset as a
    pattern histogram (shots weighted 1/batch) and a self-overlap sum, with
    one batch count per group. Records enter only through add_records.
    `subset` holds the subsets qubit-major, shape (K, S): a chunk of records
    is gathered through it, coded base 4 and scatter-added in one call
    each. value() and stderr() return one entry per subset. value() applies
    the pair trace V once, to the S totals; stderr() also applies it to all
    S G group histograms, in blocks. Neither depends on the number of shots
    M.
    """

    def __init__(self, n_qubits, subsets, frame, batch=1):
        if batch < 1:
            raise ValueError("batch size must be >= 1")
        if not len(subsets) or any(np.ndim(s) != 1 for s in subsets):
            raise ValueError("subsets must be a non-empty list of qubit "
                             "index tuples")
        self.subsets = [_check_subset(s, n_qubits) for s in subsets]
        if len({len(s) for s in self.subsets}) != 1:
            raise ValueError("all subsets of a purity tracker have one size")
        self.n_qubits = n_qubits
        self.batch = int(batch)
        self.subset = np.array(self.subsets, dtype=np.intp).T
        self.frame = frame
        k, s = self.subset.shape
        self._hist = hist_zeros(
            (s, JACKKNIFE_GROUPS, 4**k),
            f"purity tracker on {s} subset(s) of {k} qubits")
        self._slot_q = np.zeros((s, JACKKNIFE_GROUPS))
        self._slot_m = np.zeros(JACKKNIFE_GROUPS, dtype=np.int64)
        self._batches_seen = 0
        self._pending = np.empty((0, k, s), dtype=np.uint8)

    # -- ingestion ---------------------------------------------------------

    def add_records(self, digits):
        digits = np.asarray(digits)
        if digits.ndim != 2 or digits.shape[1] != self.n_qubits:
            raise ValueError("record length does not match tracker")
        # gathered rows, shape (M, K, S); complete batches go to their groups
        rows = np.concatenate([self._pending,
                               digits[:, self.subset].astype(np.uint8)])
        b, n_new = self.batch, rows.shape[0] // self.batch
        self._pending = rows[n_new * b:]
        if n_new == 0:
            return
        rows = rows[:n_new * b]
        k, s = self.subset.shape
        g, size = JACKKNIFE_GROUPS, 4**k
        slots = (self._batches_seen + np.arange(n_new)) % g
        self._batches_seen += n_new
        # row of each batch in the flattened (S * G) group axis, per subset
        rows_sg = slots[:, None] + np.arange(s) * g
        codes = np.einsum("mks,k->ms", rows, 4 ** np.arange(k - 1, -1, -1))
        np.add.at(self._hist.reshape(-1),
                  np.repeat(rows_sg, b, axis=0) * size + codes, 1.0 / b)
        # tr(B^2): b^-2 times tr(s s') = 5^match (-1)^(K - match) summed over
        # the ordered pairs of the batch's shots, self-pairs included
        pair = 5.0 ** np.arange(k + 1) * (-1.0) ** np.arange(k, -1, -1)
        rows = rows.reshape(n_new, b, k, s)
        q = np.zeros((n_new, s))
        for r in range(b):
            q += pair[(rows[:, r:r + 1] == rows).sum(axis=2)].sum(axis=1)
        self._slot_q += np.bincount(rows_sg.ravel(),
                                    weights=(q / b**2).ravel(),
                                    minlength=s * g).reshape(s, g)
        self._slot_m += np.bincount(slots, minlength=g)

    # -- readout -----------------------------------------------------------

    @property
    def m_batches(self):
        return int(self._slot_m.sum())

    @property
    def self_overlap_sum(self):
        """Per subset, the sum of tr(B^2) over all batches, shape (S,)."""
        return self._slot_q.sum(axis=1)

    def _totals(self):
        """Per subset, the pattern histogram n of all batches and u = V n."""
        n = self._hist.sum(axis=1)
        return n, apply_pair_trace(n)

    def value(self):
        """Pair U-statistic per subset, shape (S,)."""
        m = self.m_batches
        if m < 2:
            raise ValueError("purity estimate needs at least 2 batches")
        n, u = self._totals()
        tr2 = np.einsum("sc,sc->s", n, u)
        return (tr2 - self.self_overlap_sum) / (m * (m - 1))

    def stderr(self):
        """Delete-one-group jackknife standard error per subset, shape (S,),
        nan where undefined.

        With h_g group g's histogram, tr((S - S_g)^2) is
        n^T u - 2 h_g^T u + h_g^T V h_g, exactly; the last term comes from
        one blocked pair-trace apply over every group row of every subset.
        """
        rows = np.flatnonzero(self._slot_m)
        loo_m = self.m_batches - self._slot_m[rows]
        if rows.size < 2 or (loo_m < 2).any():
            return np.full(len(self.subsets), np.nan)
        n, u = self._totals()
        flat = self._hist.reshape(-1, n.shape[1])
        hvh = np.empty(flat.shape[0])
        # 64 KiB blocks of group rows: their temporaries stay below malloc's
        # mmap threshold and reuse heap pages (512 KiB blocks, which fault in
        # fresh pages, made the 50k-shot GHZ-8 estimate take 28 % longer on a
        # 2-core host)
        step = max(1, 2**13 // n.shape[1])
        for i in range(0, flat.shape[0], step):
            block = flat[i:i + step]
            hvh[i:i + step] = np.einsum("gc,gc->g", block,
                                        apply_pair_trace(block))
        tr2 = (np.einsum("sc,sc->s", n, u)[:, None]
               - 2 * np.einsum("sgc,sc->sg", self._hist, u)
               + hvh.reshape(self._slot_q.shape))
        loo_q = self.self_overlap_sum[:, None] - self._slot_q
        vals = (tr2 - loo_q)[:, rows] / (loo_m * (loo_m - 1.0))
        return np.sqrt(np.maximum((rows.size - 1) * vals.var(axis=1), 0.0))


def purity_trackers(n_qubits, subsets, frame, batch=1):
    """PurityTrackers for `subsets`: one per subset size, split so that each
    tracker's histograms stay within BYTES_CAP (a subset that alone exceeds
    it is refused). A subset listed twice is tracked once. Returns the
    trackers and a dict from each checked subset to its (tracker, row)."""
    by_size = {}
    for subset in dict.fromkeys(_check_subset(s, n_qubits) for s in subsets):
        by_size.setdefault(len(subset), []).append(subset)
    trackers, where = [], {}
    for k, group in by_size.items():
        per = max(1, BYTES_CAP // (8 * JACKKNIFE_GROUPS * 4**k))
        for lo in range(0, len(group), per):
            for row, subset in enumerate(group[lo:lo + per]):
                where[subset] = (len(trackers), row)
            trackers.append(PurityTracker(n_qubits, group[lo:lo + per], frame,
                                          batch=batch))
    return trackers, where


def estimate_purity(digits, subset, frame, batch=1):
    """Pair U-statistic estimate of tr(rho_subset^2) from digit records."""
    digits = np.asarray(digits)
    tracker = PurityTracker(digits.shape[1], [subset], frame, batch=batch)
    tracker.add_records(digits)
    return float(tracker.value()[0])


def renyi2_from_purity(purity):
    return -math.log2(max(purity, RENYI_PURITY_FLOOR))


def renyi2_stderr(purity, purity_stderr):
    """Delta-method propagation of the purity stderr through -log2."""
    return purity_stderr / (max(purity, RENYI_PURITY_FLOOR) * math.log(2))


def estimate_renyi2(digits, part, frame, batch=1):
    """Renyi-2 entropy of a bipartition, marginalized to its smaller side."""
    return renyi2_from_purity(
        estimate_purity(digits, part.smaller_side, frame, batch=batch))


def estimate_p3(digits, part, frame):
    """PPT moment tr((rho^{T_A})^3) as the exact triple U-statistic.

    t_m is shot m's shadow, partially transposed on `part.subset_a`. The
    mean of Re tr(t_i t_j t_l) over all distinct triples is
    [tr(T^3) - 3 tr(Q2 T) + 2 M 7^N] / (M (M-1) (M-2)), with T the sum of the
    t_m and Q2 the sum of the t_m^2 (per site s^2 = 3P + I, tr(s^3) = 7):
    the full triple sum of T less the ordered triples with a repeated shot.
    Both sums come from one N-qubit pattern histogram, so no per-shot matrix
    is built; the 2^N x 2^N matrices are refused above BYTES_CAP.
    """
    digits = np.asarray(digits)
    m, n = digits.shape
    if m < 3:
        raise ValueError("p3 estimate needs at least 3 records")
    if part.n_qubits != n:
        raise ValueError("bipartition does not match record width")
    check_bytes(16 * 4**n, f"p3 moment on {n} qubits")
    hist = np.bincount(pattern_codes(digits, range(n)), minlength=4**n)
    t = partial_transpose(shadow_sum(hist, frame), part)
    site = shadow_matrices(frame)
    q2 = partial_transpose(frame_sums(hist, site @ site), part)
    triples = np.einsum("ij,ji->", t @ t - 3 * q2, t).real + 2 * m * 7.0**n
    return float(triples / (m * (m - 1) * (m - 2)))


def median_of_means(digits, n_groups, estimator):
    """Median over `n_groups` contiguous groups of the per-group estimate."""
    digits = np.asarray(digits)
    if n_groups < 1:
        raise ValueError("need at least one group")
    if digits.shape[0] < n_groups:
        raise ValueError("fewer records than groups")
    if n_groups == 1:
        return float(estimator(digits))
    groups = np.array_split(digits, n_groups, axis=0)
    return float(np.median([estimator(g) for g in groups]))


def all_bipartitions(n, max_side):
    """Every bipartition with smaller side at most max_side, deduplicated.

    At side n/2 each split would appear twice; the lexicographically smaller
    subset is kept.
    """
    if not 1 <= max_side <= n // 2:
        raise ValueError("max_side must satisfy 1 <= max_side <= n/2")
    out = []
    for size in range(1, max_side + 1):
        for subset in itertools.combinations(range(n), size):
            if 2 * size == n:
                comp = tuple(q for q in range(n) if q not in subset)
                if comp < subset:
                    continue
            out.append(Bipartition(n, subset))
    return out


REPORT_COLUMNS = ("shots", "method", "quantity", "subset", "value",
                  "stderr", "wall_ms")
CSV_HEADER = ",".join(REPORT_COLUMNS)


@dataclass
class EstimateReport:
    """One reported estimate, serializable as a CSV row or JSON object."""

    shots: int
    method: str
    quantity: str
    subset: str
    value: float
    stderr: float
    wall_ms: float

    def to_csv_row(self):
        return (f"{self.shots},{self.method},{self.quantity},{self.subset},"
                f"{self.value:.10g},{self.stderr:.6g},{self.wall_ms:.3f}")

    def to_json_dict(self):
        return {"shots": self.shots, "method": self.method,
                "quantity": self.quantity, "subset": self.subset,
                "value": self.value, "stderr": self.stderr,
                "wall_ms": self.wall_ms}
