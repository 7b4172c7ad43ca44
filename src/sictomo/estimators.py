"""Property estimators built on classical shadows.

Linear observables use a per-outcome-pattern lookup table. Purity is the
pair U-statistic kept in streaming form through the exact identity
sum_{m != m'} tr(s_m s_m') = tr(S^2) - Q, Q the running sum of tr(s^2). S is
kept as its pattern histogram n, tr(S^2) = n^T V n (see shadows) and
Q = M 5^K, so a chunk of shots costs one histogram update whatever number of
shots came before. One tracker keeps every subset of one size in one array,
so a chunk is ingested for all of them a block at a time, and a readout
applies V once to the histograms. Its error is the delete-one-shot
jackknife in closed form: every delete-one pair sum follows from u = V n
alone, so the error costs no apply beyond the value's. The PPT moment p3 is
the triple U-statistic in the same exact form: the sums over all triples,
less those with a repeated shot, of the partially transposed shadow sum T
and of the sum Q2 of squared shadows, both built from one N-qubit pattern
histogram.
"""

import itertools
import math
from dataclasses import asdict, dataclass, fields
from operator import index

import numpy as np

from .povm import check_bytes, frame_sums, frame_traces
from .qstate import Bipartition, partial_transpose, qubit_subset
from .shadows import apply_pair_trace, hist_zeros, pattern_codes

# (row, subset) pairs a tracker ingests, entries it pair-traces, or rows the
# online engine ingests, at once
BLOCK = 1 << 16


class ObservableSpec:
    """Hermitian observable together with the qubits it acts on.

    `support` is kept in the caller's order, which is the order of the
    operator's tensor factors: its first qubit carries the leading factor,
    as in the pattern codes the observable is read through. Its qubits must
    be distinct non-negative integers; whether they fit a record width is
    checked where records are read.
    """

    __slots__ = ("support", "operator")

    def __init__(self, support, operator):
        self.support = tuple(index(q) for q in support)
        qubit_subset(self.support, math.inf)
        operator = np.asarray(operator, dtype=complex)
        dim = 2 ** len(self.support)
        if operator.shape != (dim, dim):
            raise ValueError("operator dimension does not match support size")
        if not np.allclose(operator, operator.conj().T, atol=1e-12):
            raise ValueError("observable must be Hermitian within 1e-12")
        self.operator = operator

    def hs_norm_sq(self):
        return float(np.einsum("ij,ji->", self.operator, self.operator).real)


def observable_lut(obs, frame):
    """tr(O sigma) for every digit pattern on the support, shape (4^K,)."""
    return frame_traces(obs.operator, frame.duals).real


def linear_values(digits, obs, frame):
    """Per-shot estimates tr(O sigma_m), marginalized to the support."""
    digits = np.asarray(digits)
    qubit_subset(obs.support, digits.shape[1])
    return observable_lut(obs, frame)[pattern_codes(digits, obs.support)]


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
        """Standard error of the mean; nan below 2 values."""
        if self.count < 2:
            return math.nan
        return math.sqrt(self.m2 / (self.count - 1) / self.count)


class PurityTracker:
    """Streaming pair U-statistics for tr(rho_K^2), one per qubit subset K.

    `subsets` is a list of S qubit subsets of one size K; they share one
    shot-count histogram of shape (S, 4^K), checked against the byte cap.
    That histogram and the shot count `shots` are the whole state. Shots
    arrive as digit rows, only through add_records. `subset` holds the
    subsets qubit-major, shape (K, S): records are gathered through it,
    coded base 4 and scatter-added BLOCK (row, subset) pairs at a time.
    value() and stderr() return one entry per subset and apply the pair
    trace V once between them, whatever the number of shots.
    purity_state_bytes states what it holds. Every shot pairs with itself to
    exactly 5^K, so the pair sum over M shots is c^T V c - M 5^K.

    stderr() is the delete-one-shot jackknife of the pair statistic, in
    closed form. With c the shot-count histogram, u = V c and r = u - 5^K, a
    shot of pattern j pairs with the other shots to a total r_j, so deleting
    it leaves the pair sum P - 2 r_j, P = c^T r, and the jackknife variance
    is 4 sum_j c_j (r_j - P/M)^2 / (M (M-1) (M-2)^2) over M shots.
    """

    def __init__(self, n_qubits, subsets):
        if not len(subsets) or any(np.ndim(s) != 1 for s in subsets):
            raise ValueError("subsets must be a non-empty list of qubit "
                             "index tuples")
        self.subsets = [qubit_subset(s, n_qubits) for s in subsets]
        if len({len(s) for s in self.subsets}) != 1:
            raise ValueError("all subsets of a purity tracker have one size")
        self.n_qubits = n_qubits
        self.subset = np.array(self.subsets, dtype=np.intp).T
        k, s = self.subset.shape
        self._hist = hist_zeros(
            (s, 4**k), f"purity tracker on {s} subset(s) of {k} qubits")
        self.shots = 0
        self._u = None

    # -- ingestion ---------------------------------------------------------

    def add_records(self, digits):
        digits = np.asarray(digits)
        if digits.ndim != 2 or digits.shape[1] != self.n_qubits:
            raise ValueError("record length does not match tracker")
        k, s = self.subset.shape
        weights = 4 ** np.arange(k - 1, -1, -1)
        offsets = np.arange(s) * 4**k
        step = _block_rows(s)
        for lo in range(0, digits.shape[0], step):
            codes = np.einsum("mks,k->ms", digits[lo:lo + step, self.subset],
                              weights)
            codes += offsets
            np.add.at(self._hist.reshape(-1), codes, 1.0)
            del codes  # so the next block's codes are not made beside these
        self.shots += digits.shape[0]
        self._u = None

    # -- readout -----------------------------------------------------------

    def _pair_traced(self):
        """u = V c per subset, kept until stderr() or the next add_records;
        made a BLOCK at a time, which is exact: its entries are integers."""
        if self._u is None:
            hist, step = self._hist, _block_rows(self._hist.shape[1])
            if step >= len(hist):
                self._u = apply_pair_trace(hist)
            else:
                self._u = np.empty_like(hist)
                for lo in range(0, len(hist), step):
                    self._u[lo:lo + step] = apply_pair_trace(
                        hist[lo:lo + step])
        return self._u

    def value(self):
        """Pair U-statistic per subset, shape (S,); nan below 2 shots."""
        m = self.shots
        if m < 2:
            return np.full(len(self.subsets), np.nan)
        tr2 = np.einsum("sc,sc->s", self._hist, self._pair_traced())
        return (tr2 - m * 5.0 ** self.subset.shape[0]) / (m * (m - 1))

    def stderr(self):
        """Closed-form delete-one-shot jackknife standard error per subset,
        shape (S,); nan below 3 shots. It turns u into r in place."""
        if self.shots < 3:
            return np.full(len(self.subsets), np.nan)
        m = float(self.shots)
        r, self._u = self._pair_traced(), None
        np.subtract(r, 5.0 ** self.subset.shape[0], out=r)
        r_mean = np.einsum("sc,sc->s", self._hist, r)[:, None] / m
        np.subtract(r, r_mean, out=r)
        np.square(r, out=r)
        var = np.einsum("sc,sc->s", self._hist, r)
        return np.sqrt(4 * var / (m * (m - 1) * (m - 2) ** 2))


def _block_rows(width):
    """Rows of `width` entries in one BLOCK: at least one."""
    return max(1, BLOCK // width)


def purity_state_bytes(sizes):
    """Bytes PurityTrackers of sizes {K: S} hold at most at once, counted
    without making anything: each histogram and its V c, the largest
    readout temporary (at most one more (S, 4^K) array) and the largest
    ingest block, K + 16 bytes per pair for digits, codes and buffers."""
    items = sizes.items()
    return (sum(16 * s * 4**k for k, s in items)
            + max((8 * s * 4**k for k, s in items), default=0)
            + max((_block_rows(s) * s * (k + 16) for k, s in items),
                  default=0))


def estimate_purity(digits, subset, frame):
    """Pair U-statistic estimate of tr(rho_subset^2) from digit records. The
    pair trace is the same for every SIC frame, so `frame` does not change
    the value."""
    digits = np.asarray(digits)
    tracker = PurityTracker(digits.shape[1], [subset])
    tracker.add_records(digits)
    return float(tracker.value()[0])


def renyi2_from_purity(purity):
    """-log2 of a positive purity; nan otherwise: it has no entropy."""
    return -math.log2(purity) if purity > 0 else math.nan


def renyi2_stderr(purity, purity_stderr):
    """Delta-method propagation of the purity stderr through -log2."""
    return purity_stderr / (purity * math.log(2)) if purity > 0 else math.nan


def estimate_renyi2(digits, part, frame):
    """Renyi-2 entropy of a bipartition, marginalized to its smaller side."""
    return renyi2_from_purity(
        estimate_purity(digits, part.smaller_side, frame))


def estimate_p3(digits, part, frame):
    """PPT moment tr((rho^{T_A})^3) as the exact triple U-statistic.

    t_m is shot m's shadow, partially transposed on `part.subset_a`. The
    mean of Re tr(t_i t_j t_l) over all distinct triples is
    [tr(T^3) - 3 tr(Q2 T) + 2 M 7^N] / (M (M-1) (M-2)), with T the sum of the
    t_m and Q2 the sum of the t_m^2 (per site s^2 = 3P + I, tr(s^3) = 7):
    the full triple sum of T less the ordered triples with a repeated shot.
    Both sums come from one N-qubit pattern histogram, so no per-shot matrix
    is built; the 2^N x 2^N matrices are refused above the byte cap.
    """
    digits = np.asarray(digits)
    m, n = digits.shape
    if m < 3:
        raise ValueError("p3 estimate needs at least 3 records")
    if part.n_qubits != n:
        raise ValueError("bipartition does not match record width")
    check_bytes(16 * 4**n, f"p3 moment on {n} qubits")
    hist = np.bincount(pattern_codes(digits, range(n)), minlength=4**n)
    t = partial_transpose(frame_sums(hist, frame.duals), part)
    q2 = partial_transpose(frame_sums(hist, frame.duals @ frame.duals), part)
    triples = np.einsum("ij,ji->", t @ t - 3 * q2, t).real + 2 * m * 7.0**n
    return float(triples / (m * (m - 1) * (m - 2)))


def all_bipartitions(n, max_side):
    """Every bipartition with smaller side at most max_side, each cut once:
    the one whose side A is its smaller side (Bipartition.smaller_side)."""
    if not 1 <= max_side <= n // 2:
        raise ValueError("max_side must satisfy 1 <= max_side <= n/2")
    parts = (Bipartition(n, subset) for size in range(1, max_side + 1)
             for subset in itertools.combinations(range(n), size))
    return [part for part in parts if part.smaller_side == part.subset_a]


@dataclass
class EstimateReport:
    """One reported estimate, serializable as a CSV row or JSON object; its
    fields are the columns of both, in order."""

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
        return asdict(self)


CSV_HEADER = ",".join(f.name for f in fields(EstimateReport))
