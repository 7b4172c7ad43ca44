"""SIC and Pauli measurement frames, outcome distributions, shot sampling.

A SIC frame is four single-qubit kets whose projectors tile the Bloch sphere
as a regular tetrahedron. Tensor powers of the four effects (1/2)|psi_i><psi_i|
give a single-setting informationally complete N-qubit measurement. Outcome
digit strings are 0-based (digits 0..3), with qubit 0 as the leftmost digit.
naimark_unitary embeds any frame, the standard one included, as a ququart
projective measurement: its scaled kets, completed to a unitary by one SVD.

Both the SIC frame and the uniform Pauli measurement are tensor products of
one single-qubit stack of effects, so every map between states and outcome
vectors is a site-by-site contraction: frame_traces (operator to one trace
per outcome pattern) and frame_sums (pattern weights to an operator).
FrameSuperoperator applies the measurement map, its adjoint and its dual
frame inverse through them.

Shots are drawn from the exact 4^N outcome distribution, whose working set
is checked as any other array is; only a ket above DIST_CAP qubits goes to a
per-shot sampler, which keeps one conditional state per distinct outcome
prefix.

The size policy lives here too: every capped allocation in the package calls
check_bytes with its byte estimate where the array is made, and a refusal is
a CapExceededError that states the bytes (the CLI exits 4).
"""

import itertools
import math

import numpy as np

DIST_CAP = 10  # largest N whose ket is drawn from its exact distribution
BYTES_CAP = 64 * 2**20  # largest array a size-checked allocation may make

OMEGA = np.exp(2j * np.pi / 3)

# Reference frame kets: |0> plus three kets at Bloch angle arccos(-1/3),
# relative phases at the cube roots of unity.
SIC_KETS_STANDARD = np.array([
    [1, 0],
    [1 / math.sqrt(3), math.sqrt(2 / 3)],
    [1 / math.sqrt(3), OMEGA * math.sqrt(2 / 3)],
    [1 / math.sqrt(3), OMEGA**2 * math.sqrt(2 / 3)],
], dtype=complex)

# Bloch tetrahedron with an even number of minus signs per vertex; gives the
# frame whose outcome statistics look identical along the X, Y and Z axes.
ROTATED_BLOCH = np.array([
    [1, 1, 1],
    [1, -1, -1],
    [-1, 1, -1],
    [-1, -1, 1],
], dtype=float) / math.sqrt(3)


class CapExceededError(ValueError):
    """A size cap would be exceeded (dense storage or enumeration)."""


def cap_error(what, nbytes, limit):
    """The refusal of `what`, which needs `nbytes` bytes, above `limit`. A
    count past 64 bits is stated as a power of ten: Python refuses to turn
    an integer of more than 4300 digits into text."""
    count = (f"{nbytes:,}" if nbytes < 2**64
             else f"about 10^{math.log10(nbytes):.1f}")
    return CapExceededError(f"{what} needs {count} bytes; capped at {limit}")


def check_bytes(nbytes, what, cap=BYTES_CAP):
    """Refuse an array of `nbytes` bytes above `cap`; call it before the
    array is made."""
    if nbytes > cap:
        raise cap_error(what, nbytes, f"{cap:,} bytes")


def bloch_to_ket(v):
    x, y, z = v
    theta = math.acos(max(-1.0, min(1.0, z)))
    phi = math.atan2(y, x)
    return np.array([math.cos(theta / 2),
                     np.exp(1j * phi) * math.sin(theta / 2)], dtype=complex)


def ket_to_bloch(psi):
    a, b = psi
    return np.array([2 * (a.conjugate() * b).real,
                     2 * (a.conjugate() * b).imag,
                     (abs(a) ** 2 - abs(b) ** 2)])


_SWAP2 = np.eye(4)[[0, 2, 1, 3]]  # exchanges the two qubits


class SicFrame:
    """Four single-qubit kets forming a symmetric IC POVM.

    kets: array (4, 2). The constructor verifies the 1-design, 2-design and
    symmetric-overlap identities, so any accepted custom frame is a genuine
    SIC frame. It builds every site tensor the package reads from a frame,
    once: the scaled bras (4, 2), the effects P_i / 2 and the canonical
    duals 3 P_i - I (each (4, 2, 2)).
    """

    def __init__(self, name, kets):
        kets = np.asarray(kets, dtype=complex)
        if kets.shape != (4, 2):
            raise ValueError("a SIC frame needs exactly 4 single-qubit kets")
        self.name = name
        self.kets = kets
        self.projectors = np.einsum("ia,ib->iab", kets, kets.conj())
        one = self.projectors.sum(axis=0) / 4
        if np.max(np.abs(one - np.eye(2) / 2)) > 1e-12:
            raise ValueError("frame fails the 1-design identity")
        two = sum(np.kron(p, p) for p in self.projectors) / 4
        if np.max(np.abs(two - (np.eye(4) + _SWAP2) / 6)) > 1e-12:
            raise ValueError("frame fails the 2-design identity")
        ov = np.abs(kets @ kets.conj().T) ** 2
        if np.max(np.abs(ov - (np.eye(4) * (1 - 1 / 3) + 1 / 3))) > 1e-12:
            raise ValueError("frame overlaps are not symmetric at 1/3")
        self.bras = kets.conj() / math.sqrt(2)  # <psi_i| / sqrt(2)
        self.effects = self.projectors / 2  # the POVM effects
        # the canonical duals, which are the per-digit shadow factors
        self.duals = 3 * self.projectors - np.eye(2)

    def __repr__(self):
        return f"SicFrame({self.name!r})"


def sic_frame(name):
    if name == "standard":
        return SicFrame("standard", SIC_KETS_STANDARD)
    if name == "rotated":
        return SicFrame("rotated", np.array([bloch_to_ket(v) for v in ROTATED_BLOCH]))
    raise ValueError(f"unknown SIC frame {name!r}")


def naimark_unitary(frame):
    """4x4 unitary embedding the frame as a ququart projective measurement:
    row i of the first two columns is the i-th ket over sqrt(2), bit-exact;
    the last two are an orthonormal basis of the complement of those two."""
    v = frame.kets / math.sqrt(2)
    w = np.linalg.svd(v.conj().T)[2][2:].conj().T  # orthonormal null space
    return np.hstack([v, w])


# --- site contractions --------------------------------------------------------
# Both frames are tensor products of one single-qubit stack M (shape (m, 2, 2):
# m = 4 for SIC, 6 for Pauli with site outcome 2s + b for setting s and bit
# b), indexed over K sites by patterns c whose base-m digits c_1 .. c_K have
# the first site leading: the one outcome order of both frames.

def n_sites(size, m=4):
    """K with m^K == size; ValueError if size is not a power of m."""
    k = 0
    while m**k < size:
        k += 1
    if m**k != size:
        raise ValueError(f"pattern axis of length {size} is not a power of {m}")
    return k


def frame_traces(operator, site):
    """tr(O kron_k M_{c_k}) for every pattern c, shape (m^K,) complex.

    `site` is one (m, 2, 2) stack for every site, or a sequence of K stacks,
    the first for site 1.
    """
    operator = np.asarray(operator)
    k = n_sites(operator.shape[0] ** 2)
    t = operator.reshape((2,) * (2 * k))
    # after `done` contractions the axes are the remaining rows, the remaining
    # columns, then the digits done, so the live site sits at (0, k - done)
    for done, stack in enumerate([site] * k if np.ndim(site) == 3 else site):
        t = np.tensordot(t, stack, axes=([0, k - done], [2, 1]))
    return t.reshape(-1)


def frame_sums(weights, site):
    """sum_c w[c] kron_k M_{c_k}, shape (2^K, 2^K)."""
    weights = np.asarray(weights)
    k = n_sites(weights.shape[-1], len(site))
    t = weights.reshape((len(site),) * k)
    for _ in range(k):  # leading digit out, its (row, col) pair to the back
        t = np.tensordot(t, site, axes=([0], [0]))
    t = t.transpose(tuple(np.arange(2 * k).reshape(k, 2).T.ravel()))
    return t.reshape(2**k, 2**k)


# --- outcome distributions --------------------------------------------------

def _ket_probs(amp, bras):
    """|<b_c|psi>|^2 for every product bra b_c = kron_k bras[k][c_k], where
    bras[k] stacks qubit k's conjugated kets; qubit 0's digit leads."""
    t = amp.reshape((2,) * len(bras))
    for v in bras:  # contract the leading qubit, its outcome axis to the back
        t = np.tensordot(t, v, axes=[(0,), (1,)])
    return np.abs(t.reshape(-1)) ** 2


def sic_outcome_distribution(state, frame):
    """Pr[i1..iN | rho] = 2^-N <psi_i1...psi_iN| rho |psi_i1...psi_iN>.

    Returns a length 4^N vector indexed with qubit 0 as the most significant
    base-4 digit. A density matrix's tiny negative entries from roundoff are
    clamped to 0; a ket's entries are squared moduli, never negative.

    The working set beside the state is checked before any of it is made:
    32 x 4^N bytes for a ket, whose last contraction holds its input, that
    input's transposed copy and its 4^N complex output; 56 x 4^N for a
    density matrix, whose contraction steps each hold three complex 4^N
    arrays (input, transposed copy, output) and whose clamp makes float
    ones. So both admit N = DIST_CAP and refuse N = DIST_CAP + 1.
    """
    amp, n = getattr(state, "amplitudes", None), state.n_qubits
    check_bytes((32 if amp is not None else 56) * 4**n,
                f"outcome distribution over 4^{n} outcomes")
    if amp is not None:
        return _ket_probs(amp, [frame.bras] * n)
    probs = frame_traces(state.matrix, frame.effects).real
    return np.where(probs < 0, 0.0, probs)


_PAULI_EIGVECS = {
    "X": np.array([[1, 1], [1, -1]], dtype=complex).T / math.sqrt(2),
    "Y": np.array([[1, 1j], [1, -1j]], dtype=complex).T / math.sqrt(2),
    "Z": np.array([[1, 0], [0, 1]], dtype=complex).T,
}
# _PAULI_EIGVECS[L][:, b] is the eigenvector with eigenvalue (-1)^b


def pauli_outcome_distribution(state, setting):
    """Projective eigenbasis measurement probabilities for one setting.

    `setting` is a string over X, Y, Z (one letter per qubit). Outcome bit 0
    is the +1 eigenstate. Returns 2^N probabilities.
    """
    amp, n = getattr(state, "amplitudes", None), state.n_qubits
    if len(setting) != n:
        raise ValueError("setting length does not match qubit count")
    if any(ch not in "XYZ" for ch in setting):
        raise ValueError("setting letters must be X, Y or Z")
    if amp is not None:
        return _ket_probs(amp, [_PAULI_EIGVECS[c].conj().T for c in setting])
    proj = _PAULI_PROJECTORS.reshape(3, 2, 2, 2)  # proj[s, b] = |v_b><v_b|
    probs = frame_traces(state.matrix,
                         [proj[_LETTER_CODE[c]] for c in setting]).real
    return np.where(probs < 0, 0.0, probs)


# --- sampling ----------------------------------------------------------------

STREAM_IDS = {
    "sic-shots": 0,
    "pauli-shots": 1,
    "game-secret": 2,
    "game-shots": 3,
    "variance-mc": 7,
    "state": 8,
}


def derive_rng(seed, stream, index=0):
    """Deterministic per-component generator from one user seed.

    `stream` names one of STREAM_IDS. Splitmix-style expansion: its id and
    `index` are folded into the SeedSequence spawn key, so distinct
    components never share a stream.
    """
    return np.random.default_rng(np.random.SeedSequence(
        entropy=int(seed), spawn_key=(STREAM_IDS[stream], int(index))))


def digits_from_indices(indices, n_qubits, base=4):
    """Decode flat outcome indices into (M, N) base-`base` digit rows, one
    column at a time: no (M, N) integer temporary."""
    rest = np.array(indices, dtype=np.int64)  # a copy, divided in place
    digits = np.empty((rest.size, n_qubits), dtype=np.uint8)
    for j in range(n_qubits - 1, -1, -1):
        digits[:, j] = rest % base
        rest //= base
    return digits


def indices_from_digits(digits, base=4):
    """Encode (M, N) base-`base` digit rows as flat outcome indices; einsum
    casts the digits in buffered chunks, so no (M, N) int64 copy is made."""
    digits = np.asarray(digits)
    shifts = base ** np.arange(digits.shape[1] - 1, -1, -1, dtype=np.int64)
    return np.einsum("mn,n->m", digits, shifts, dtype=np.int64,
                     casting="unsafe")


_PERSHOT_CHUNK = 4096  # shots per block of the per-shot sampler
_BLOCK = 1 << 16  # amplitudes the per-shot sampler gathers per step


def _draw(probs, n_shots, rng):
    """n_shots iid outcome indices from `probs`: multinomial counts, their
    expansion shuffled (the same law as independent draws)."""
    counts = rng.multinomial(n_shots, probs / probs.sum())
    flat = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    rng.shuffle(flat)
    return flat


def sample_sic_shots(state, frame, n_shots, rng):
    """Draw SIC outcome digit rows, shape (n_shots, N) dtype uint8.

    A density matrix, and a ket of up to DIST_CAP qubits, is drawn from its
    exact 4^N outcome distribution, whose byte check refuses a density
    matrix above DIST_CAP qubits. A larger ket goes to a per-shot sampler,
    which measures qubit by qubit and keeps one conditional state per
    distinct outcome prefix, not one per shot: after k qubits, m shots share
    at most g_k = min(m, 4^k) prefixes. It draws in blocks of
    m <= _PERSHOT_CHUNK shots, one rng.random((N, m)) per block. A prefix's
    outcome probabilities come from the 2x2 Gram matrix of its state's
    halves on the measured qubit, and only the branches the shots chose are
    built: a level holds g_k states of 2^(N-k) amplitudes and the next level
    g_(k+1) of half that (checked against BYTES_CAP before any shot is
    drawn) plus one gathered block of at most _BLOCK amplitudes.
    """
    if n_shots < 1:
        raise ValueError("n_shots must be >= 1")
    rng = np.random.default_rng(rng)  # a Generator passes unchanged
    n, amp = state.n_qubits, getattr(state, "amplitudes", None)
    if amp is None or n <= DIST_CAP:
        flat = _draw(sic_outcome_distribution(state, frame), n_shots, rng)
        return digits_from_indices(flat, n)
    m = min(n_shots, _PERSHOT_CHUNK)
    check_bytes(max(8 * (2 * min(m, 4**k) + min(m, 4**(k + 1)))
                    * 2**(n - k) for k in range(n)),
                f"per-shot sampler on {n} qubits, {m} shots per block")
    out = np.empty((n_shots, n), dtype=np.uint8)
    for lo in range(0, n_shots, m):
        _pershot_pure(amp, frame, out[lo:lo + m], rng)
    return out


def _pershot_pure(amp, frame, digits, rng):
    # cur[c] holds prefix c's conditional state as halves (c_0, c_1) on
    # qubit k, row[s] the prefix of shot s. Outcome i has probability
    # sum_ab v_ia conj(v_ib) <c_b|c_a>, from real dot products of the real
    # and imaginary parts, and branch v_i0 c_0 + v_i1 c_1, built only for
    # the outcomes the shots chose and gathered _BLOCK amplitudes at a time
    m, n = digits.shape  # the block's rows of the caller's array, filled here
    v = frame.bras  # v[i, a]
    u = rng.random((n, m))
    cur = np.ascontiguousarray(amp).reshape(1, 2, amp.size // 2)
    row = np.zeros(m, dtype=np.intp)
    for k in range(n):
        x = cur.view(np.float64)
        a = np.einsum("cas,cbs->cab", x[..., 1::2], x[..., 0::2])
        r = np.einsum("cas,cbs->cab", x, x) + 1j * (a - a.swapaxes(1, 2))
        p = np.einsum("ia,ib,cab->ci", v, v.conj(), r).real
        cdf = np.cumsum(p / p.sum(axis=1, keepdims=True), axis=1)[row]
        d = (u[k, :, None] > cdf).sum(axis=1).astype(np.uint8)
        digits[:, k] = np.minimum(d, 3)  # guard the u == 1.0 edge
        if k == n - 1:
            break
        keys, row = np.unique(row * 4 + digits[:, k], return_inverse=True)
        pre, dk = keys // 4, keys % 4
        w = v[dk] / np.sqrt(p[pre, dk])[:, None]
        rest = cur.shape[2]
        cols = max(1, min(rest, _BLOCK // 2))
        step = max(1, _BLOCK // (2 * cols))
        nxt = np.empty((keys.size, rest), dtype=complex)
        for lo in range(0, keys.size, step):
            for s in range(0, rest, cols):
                np.einsum("ca,cas->cs", w[lo:lo + step],
                          cur[pre[lo:lo + step], :, s:s + cols],
                          out=nxt[lo:lo + step, s:s + cols])
        cur = nxt.reshape(keys.size, 2, rest // 2)


def pauli_settings(n_qubits):
    """All 3^N settings in lexicographic order (X < Y < Z)."""
    return ["".join(s) for s in itertools.product("XYZ", repeat=n_qubits)]


def allocate_pauli_shots(n_shots, n_qubits):
    """Equal shots per setting; the remainder goes to the lexicographically
    first settings."""
    s = 3**n_qubits
    base, rem = divmod(n_shots, s)
    return base + (np.arange(s) < rem).astype(np.int64)


_LETTER_CODE = {"X": 0, "Y": 1, "Z": 2}


def sample_pauli_shots(state, n_shots, rng):
    """Sample all 3^N settings. Returns (settings, bits), both (n_shots, N)
    uint8, grouped by setting in lexicographic order."""
    if n_shots < 1:
        raise ValueError("n_shots must be >= 1")
    rng = np.random.default_rng(rng)  # a Generator passes unchanged
    n = state.n_qubits
    alloc = allocate_pauli_shots(n_shots, n)
    settings = np.empty((n_shots, n), dtype=np.uint8)
    bits = np.empty((n_shots, n), dtype=np.uint8)
    row = 0
    for setting, m in zip(pauli_settings(n), alloc.tolist()):
        if m == 0:
            continue
        flat = _draw(pauli_outcome_distribution(state, setting), m, rng)
        settings[row:row + m] = [_LETTER_CODE[c] for c in setting]
        bits[row:row + m] = digits_from_indices(flat, n, 2)
        row += m
    return settings, bits


# --- measurement superoperator ------------------------------------------------

# Pauli projectors per site, outcome 2s + b for setting s in X, Y, Z and bit
# b, with the uniform-setting effects and their canonical duals
_PAULI_PROJECTORS = np.array([np.outer(v, v.conj()) for ch in "XYZ"
                              for v in _PAULI_EIGVECS[ch].T])
_PAULI_EFFECTS = _PAULI_PROJECTORS / 3
_PAULI_DUALS = 3 * _PAULI_PROJECTORS - np.eye(2)


def _site_gram(site):
    """sum_i |M_i>><<M_i| over a stack of 2x2 matrices, row-major vec."""
    rows = site.reshape(-1, 4)
    return rows.T @ rows.conj()


class FrameSuperoperator:
    """The measurement map of an N-qubit product frame, site by site.

    Each site measures the same single-qubit effects E_i with canonical
    duals D_i = S_1^-1 E_i, so sum_i |D_i>><<E_i| = identity: SIC effects
    P_i / 2 with duals 3 P_i - I, or Pauli effects |b><b|_s / 3 (site
    outcome 2s + b) with duals 3 |b><b|_s - I. Outcome j is a site pattern,
    one base-m digit per qubit as in FrequencyVector. With A the map with
    rows <<E_j|, forward, adjoint and dual apply A, A^dagger and
    S_p^-1 A^dagger (S_p = A^dagger A) as site contractions. The dense
    views probability_map, matrix and pinv_matrix are Kronecker powers of
    their single-site counterparts, in row-major vec order.

    The constructor refuses sizes whose maps would make an array above
    BYTES_CAP (SIC N >= 12, Pauli N >= 9); each dense view is checked
    against four times that when it is built.
    """

    def __init__(self, kind, n_qubits, frame=None):
        if kind == "sic":
            frame = frame if frame is not None else sic_frame("standard")
            self.effects, self.duals = frame.effects, frame.duals
        elif kind == "pauli":
            self.effects, self.duals = _PAULI_EFFECTS, _PAULI_DUALS
        else:
            raise ValueError(f"unknown povm kind {kind!r}")
        # the largest array the maps make: the complex outcome vector or the
        # 2^N x 2^N estimate
        check_bytes(16 * len(self.effects) ** n_qubits,
                    f"{kind} frame superoperator on {n_qubits} qubits")
        self.kind = kind
        self.n_qubits = n_qubits

    @property
    def n_outcomes(self):
        return len(self.effects) ** self.n_qubits

    def _operand(self, x, shape):
        if np.shape(x) != shape:
            raise ValueError(f"{self.kind} frame on {self.n_qubits} qubits: "
                             f"operand of shape {np.shape(x)}, not {shape}")
        return x

    def forward(self, rho):
        """A vec(rho): tr(E_j rho) for every outcome j."""
        dim = 2**self.n_qubits
        return frame_traces(self._operand(rho, (dim, dim)), self.effects)

    def adjoint(self, y):
        """A^dagger y = sum_j y_j E_j, a 2^N x 2^N matrix."""
        return frame_sums(self._operand(y, (self.n_outcomes,)), self.effects)

    def dual(self, freqs):
        """S_p^-1 A^dagger f = sum_j f_j D_j, a 2^N x 2^N matrix."""
        return frame_sums(self._operand(freqs, (self.n_outcomes,)),
                          self.duals)

    def _dense(self, site):
        """Kronecker power of one site's tensor with each of its axes grouped
        across sites (axis f * N + k is axis f of site k); the last two axes
        index columns, in row-major vec order, and the others rows.

        Built one site at a time: step k appends site k as the trailing
        factor of every axis group, so each step writes its array once and
        each entry is the product of its site factors from site 0 on. The
        last step holds the previous factor too, 1/prod(dims) of the view
        (1/16 for SIC and the Gram views, 1/24 for the Pauli map)."""
        n, dims = self.n_qubits, site.shape
        # reference views under their own cap, four times the shared one: it
        # admits the SIC N=6 Gram matrix (256 MiB) and the Pauli N=5 map
        check_bytes(16 * math.prod(dims) ** n,
                    f"dense {self.kind} frame view on {n} qubits",
                    cap=4 * BYTES_CAP)
        out = site * complex(1)  # each entry starts from 1: signed zeros match
        for k in range(1, n):
            out = (out.reshape([x for d in dims for x in (d**k, 1)])
                   * site.reshape([x for d in dims for x in (1, d)]))
        return out.reshape(math.prod(dims[:-2]) ** n, 4**n)

    def probability_map(self):
        """Dense A, shape (outcomes, 4^N): A @ vec(rho) = forward(rho),
        built on every call."""
        return self._dense(self.effects.conj())

    def matrix(self):
        """Dense frame Gram superoperator S_p = A^dagger A."""
        return self._dense(_site_gram(self.effects).reshape((2,) * 4))

    def pinv_matrix(self):
        """Dense S_p^-1 = sum_j |D_j>><<D_j| (the frame is IC, S_p invertible)."""
        return self._dense(_site_gram(self.duals).reshape((2,) * 4))
