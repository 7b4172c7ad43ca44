"""Property estimators built on classical shadows.

Linear observables use a per-outcome-pattern lookup table. Purity is the
pair U-statistic kept in streaming form through the exact identity
sum_{m != m'} tr(s_m s_m') = tr(S^2) - Q, Q the running sum of tr(s^2). S is
kept as its pattern histogram n, and tr(S^2) = n^T V n (see shadows), so a
batch costs one histogram update whatever number of shots came before. The
PPT moment p3 is the triple U-statistic in the same exact form: the sums
over all triples, less those with a repeated shot, of the partially
transposed shadow sum T and of the sum Q2 of squared shadows, both built
from one N-qubit pattern histogram.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .povm import check_bytes, frame_sums
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

    def merge(self, other):
        if other.count:
            delta = other.mean - self.mean
            total = self.count + other.count
            self.mean += delta * other.count / total
            self.m2 += other.m2 + delta * delta * self.count * other.count / total
            self.count = total
        return self


class PurityTracker:
    """Streaming pair U-statistic for tr(rho_K^2) over batched shadows.

    Shots arrive as digit rows; every `batch` consecutive shots form one
    batched shadow (trailing partial batch stays pending). Batches are dealt
    round-robin into `jackknife_groups` groups, each kept as a pattern
    histogram (shots weighted 1/batch), a self-overlap sum and a batch count.
    Memory is fixed at construction; the delete-one-group jackknife stderr
    costs O(G * 4^|K|) per call, independent of M.
    """

    def __init__(self, n_qubits, subset, frame, batch=1,
                 jackknife_groups=JACKKNIFE_GROUPS):
        if batch < 1:
            raise ValueError("batch size must be >= 1")
        if jackknife_groups < 2:
            raise ValueError("need at least 2 jackknife groups")
        self.n_qubits = n_qubits
        self.batch = int(batch)
        self.subset = _check_subset(subset, n_qubits)
        self.frame = frame
        self._groups = int(jackknife_groups)
        self._hist = hist_zeros((self._groups, 4 ** len(self.subset)),
                                f"purity tracker on qubits {self.subset}")
        self._slot_q = np.zeros(self._groups)
        self._slot_m = np.zeros(self._groups, dtype=np.int64)
        self._batches_seen = 0
        self._pending = np.empty((0, len(self.subset)), dtype=np.uint8)

    # -- ingestion ---------------------------------------------------------

    def add_records(self, digits):
        digits = np.asarray(digits)
        if digits.ndim == 1:
            digits = digits[None, :]
        if digits.shape[1] != self.n_qubits:
            raise ValueError("record length does not match tracker")
        self._push(digits[:, list(self.subset)])

    def _push(self, rows):
        """Ingest subset digit rows; complete batches go to their groups."""
        rows = np.concatenate([self._pending, rows.astype(np.uint8)])
        b, n_new = self.batch, rows.shape[0] // self.batch
        self._pending = rows[n_new * b:]
        if n_new == 0:
            return
        rows = rows[:n_new * b]
        slots = (self._batches_seen + np.arange(n_new)) % self._groups
        self._batches_seen += n_new
        codes = pattern_codes(rows, range(len(self.subset)))
        np.add.at(self._hist.reshape(-1),
                  np.repeat(slots, b) * self._hist.shape[1] + codes, 1.0 / b)
        # tr(B^2): b^-2 times tr(s s') = 5^match (-1)^(K - match) summed over
        # the ordered pairs of the batch's shots, self-pairs included
        rows, k = rows.reshape(n_new, b, -1), len(self.subset)
        q = np.zeros(n_new)
        for r in range(b):
            match = (rows[:, r:r + 1] == rows).sum(axis=2)
            q += (5.0 ** match * (-1.0) ** (k - match)).sum(axis=1)
        self._slot_q += np.bincount(slots, weights=q / b**2,
                                    minlength=self._groups)
        self._slot_m += np.bincount(slots, minlength=self._groups)

    def add_batch(self, batched):
        """Feed one externally averaged batch (subset must match)."""
        if tuple(batched.subset) != self.subset:
            raise ValueError("batch subset does not match tracker")
        g = self._batches_seen % self._groups
        h = batched.counts / batched.count
        self._hist[g] += h
        self._slot_q[g] += float(h @ apply_pair_trace(h))
        self._slot_m[g] += 1
        self._batches_seen += 1

    def merge(self, other):
        if (other.subset != self.subset or other.batch != self.batch
                or other._groups != self._groups):
            raise ValueError("incompatible purity trackers")
        self._hist += other._hist
        self._slot_q += other._slot_q
        self._slot_m += other._slot_m
        self._batches_seen += other._batches_seen
        self._push(other._pending)
        return self

    # -- readout -----------------------------------------------------------

    @property
    def m_batches(self):
        return int(self._slot_m.sum())

    @property
    def running_sum(self):
        return shadow_sum(self._hist.sum(axis=0), self.frame)

    @property
    def self_overlap_sum(self):
        return float(self._slot_q.sum())

    def value(self):
        m = self.m_batches
        if m < 2:
            raise ValueError("purity estimate needs at least 2 batches")
        n = self._hist.sum(axis=0)
        tr2 = float(n @ apply_pair_trace(n))
        return (tr2 - self.self_overlap_sum) / (m * (m - 1))

    def stderr(self):
        """Delete-one-group jackknife standard error (nan if undefined)."""
        rows = np.flatnonzero(self._slot_m)
        loo_m = self.m_batches - self._slot_m[rows]
        if rows.size < 2 or (loo_m < 2).any():
            return float("nan")
        n = self._hist.sum(axis=0)
        tr2 = np.empty(rows.size)
        # ~512 KiB blocks of groups: temporaries stay cached, off fresh pages
        step = max(1, 2**16 // n.size)
        for i in range(0, rows.size, step):
            loo = n - self._hist[rows[i:i + step]]  # S - S_g
            tr2[i:i + step] = np.einsum("gc,gc->g", loo, apply_pair_trace(loo))
        loo_q = self.self_overlap_sum - self._slot_q[rows]
        vals = (tr2 - loo_q) / (loo_m * (loo_m - 1.0))
        return math.sqrt(max((rows.size - 1) * vals.var(), 0.0))


def estimate_purity(digits, subset, frame, batch=1):
    """Pair U-statistic estimate of tr(rho_subset^2) from digit records."""
    digits = np.asarray(digits)
    tracker = PurityTracker(digits.shape[1], subset, frame, batch=batch)
    tracker.add_records(digits)
    return tracker.value()


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
