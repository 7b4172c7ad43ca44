"""Classical shadows built from SIC outcome digits.

Each shot with outcome digits (i_1 .. i_N) defines the single-shot estimator
sigma = kron_k (3|psi_{i_k}><psi_{i_k}| - I), which reproduces rho in
expectation. Its site factors are the SIC frame's canonical duals,
`frame.duals`: averaging shadows is linear inversion with the frame. A sum
of shadows on a qubit subset K is kept as its histogram n over the 4^K digit
patterns c. The frame is a tensor product, so what is built from n is a
site-by-site contraction: frame_sums(n, frame.duals) (sum_c n_c sigma_c),
frame_traces(O, frame.duals) (tr(O sigma_c) for all c) and apply_pair_trace
(V n, where the Gram matrix V = PAIR_TRACE^{kron K} gives tr(S^2) = n^T V n).
"""

import functools
import math

import numpy as np

from .povm import check_bytes, frame_sums, indices_from_digits, n_sites
from .qstate import qubit_subset

# tr(sigma_i sigma_j) factorizes per site into the duals' Gram matrix,
# tr(D_i D_j): 5 for matching digits, else -1; this holds for every SIC
# frame since it only uses the 1/3 overlaps
PAIR_TRACE = np.full((4, 4), -1.0)
np.fill_diagonal(PAIR_TRACE, 5.0)
PAIR_TRACE_POWERS = [functools.reduce(np.kron, [PAIR_TRACE] * s, np.eye(1))
                     for s in range(4)]


def hist_zeros(shape, what):
    """Zeroed float64 histogram state; CapExceededError above BYTES_CAP."""
    check_bytes(8 * math.prod(shape), f"{what} histogram state")
    return np.zeros(shape)


def _site_mix(a, n, k, coeff_a, coeff_id):
    """coeff_a * A + coeff_id * (I at site k) kron tr_site_k(A)."""
    t = a.reshape((2,) * (2 * n))
    red = np.trace(t, axis1=k, axis2=k + n)
    emb = np.tensordot(np.eye(2, dtype=a.dtype), red, axes=0)
    emb = np.moveaxis(emb, (0, 1), (k, k + n))
    return (coeff_a * t + coeff_id * emb).reshape(a.shape)


def depolarize(a, sites):
    """Apply the strength-1/3 depolarizing channel to every site."""
    a = np.asarray(a, dtype=complex)
    if a.shape != (2**sites, 2**sites):
        raise ValueError("matrix dimension does not match site count")
    for k in range(sites):
        a = _site_mix(a, sites, k, 1 / 3, 1 / 3)
    return a


def inverse_depolarizing(a, sites):
    """Per-site inverse map A -> 3A - tr(A) I, tensored over all sites."""
    a = np.asarray(a, dtype=complex)
    if a.shape != (2**sites, 2**sites):
        raise ValueError("matrix dimension does not match site count")
    for k in range(sites):
        a = _site_mix(a, sites, k, 3.0, -1.0)
    return a


def pattern_codes(digits, subset):
    """Base-4 word of each record's subset digits, first subset qubit leading."""
    return indices_from_digits(np.asarray(digits)[:, list(subset)])


def apply_pair_trace(hist):
    """hist @ V over the last axis, V = PAIR_TRACE^{kron K} (symmetric).

    One matmul per block of at most 3 sites: K <= 3 is one dense matmul and
    4 <= K <= 6 is W1 X W2, X a row reshaped to 4^floor(K/2) x 4^ceil(K/2).
    """
    hist = np.asarray(hist, dtype=float)
    k = n_sites(hist.shape[-1])
    n = max(-(-k // 3), 1)
    sizes = [k * (i + 1) // n - k * i // n for i in range(n)]
    out, tail = hist, hist.shape[-1]
    for s in sizes[:-1]:
        tail //= 4**s
        out = PAIR_TRACE_POWERS[s] @ out.reshape(-1, 4**s, tail)
    out = out.reshape(-1, 4 ** sizes[-1]) @ PAIR_TRACE_POWERS[sizes[-1]]
    return out.reshape(hist.shape)


def shadow_expand(digits_row, subset, frame):
    """Materialize the shadow on `subset`, dimension 2^|subset|."""
    digits_row = np.asarray(digits_row)
    subset = qubit_subset(subset, digits_row.size)
    out = np.ones((1, 1), dtype=complex)
    for k in subset:
        out = np.kron(out, frame.duals[digits_row[k]])
    return out


def pair_trace(digits_a, digits_b, subset=None):
    """tr(sigma sigma') from two digit rows: product of per-site 5 / -1."""
    a = np.asarray(digits_a)
    b = np.asarray(digits_b)
    if subset is not None:
        a, b = a[list(subset)], b[list(subset)]
    return float(np.prod(np.where(a == b, 5.0, -1.0)))


class ShadowAccumulator:
    """Running shadow sum on a qubit subset, kept as its pattern histogram;
    records enter only through add_records."""

    def __init__(self, n_qubits, subset, frame):
        self.n_qubits = n_qubits
        self.subset = qubit_subset(subset, n_qubits)
        self.frame = frame
        self.histogram = hist_zeros(
            (4 ** len(self.subset),), f"shadow accumulator on {self.subset}")
        self.count = 0

    def add_records(self, digits, weights=None):
        """Add records; `weights` are non-negative integer repetition counts."""
        digits = np.asarray(digits)
        if digits.ndim != 2 or digits.shape[1] != self.n_qubits:
            raise ValueError("record length does not match accumulator")
        codes = pattern_codes(digits, self.subset)
        if weights is None:
            weights, total = 1.0, digits.shape[0]
        else:
            weights = np.asarray(weights, dtype=float)
            if (weights.shape != codes.shape or (weights < 0).any()
                    or (weights % 1).any()):
                raise ValueError("weights are repetition counts: one "
                                 "non-negative integer per record")
            total = int(weights.sum())
        np.add.at(self.histogram, codes, weights)
        self.count += total

    def mean(self):
        if self.count == 0:
            raise ValueError("empty accumulator")
        return frame_sums(self.histogram / self.count, self.frame.duals)
