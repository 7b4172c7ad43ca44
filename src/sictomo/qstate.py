"""Dense N-qubit state algebra, exact nonlinear functionals, reference states.

Basis convention used everywhere in this package: qubit 0 is the most
significant bit of the computational-basis index, so the basis ket
|q0 q1 ... q_{N-1}> sits at index sum_k q_k * 2**(N-1-k).
"""

import json
import math
from functools import reduce
from operator import index

import numpy as np

HERM_ATOL = 1e-12
TRACE_ATOL = 1e-12
PSD_ATOL = 1e-10
EIG_ZERO = 1e-10  # eigenvalues below this magnitude count as zero
PURITY_CLAMP = 1e-15  # floor before taking logs of exact purities


def _n_qubits_of_dim(dim):
    n = int(round(math.log2(dim)))
    if 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n


class PureState:
    """An N-qubit ket. `amplitudes` is a length 2**n_qubits complex vector."""

    __slots__ = ("n_qubits", "amplitudes")

    def __init__(self, amplitudes, check=True):
        amp = np.asarray(amplitudes, dtype=complex).reshape(-1)
        self.n_qubits = _n_qubits_of_dim(amp.size)
        self.amplitudes = amp
        if check:
            norm = np.vdot(amp, amp).real
            if not abs(norm - 1.0) <= 1e-12:  # a nan fails it too
                raise ValueError(f"state not normalized: |amp|^2 = {norm:.12g}")

    def density(self):
        return DensityOperator(np.outer(self.amplitudes, self.amplitudes.conj()),
                               check=False)


class DensityOperator:
    """An N-qubit density matrix: Hermitian, PSD (within 1e-10), trace one."""

    __slots__ = ("n_qubits", "matrix")

    def __init__(self, matrix, check=True):
        mat = np.asarray(matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("density matrix must be square")
        self.n_qubits = _n_qubits_of_dim(mat.shape[0])
        self.matrix = mat
        if check:
            # each test is written so that a nan entry fails it
            herm = np.max(np.abs(mat - mat.conj().T))
            if not herm <= HERM_ATOL:
                raise ValueError(f"not Hermitian: max deviation {herm:.3e}")
            tr = mat.trace()
            if not abs(tr - 1.0) <= TRACE_ATOL:
                raise ValueError(f"trace is {tr:.12g}, expected 1")
            lo = np.linalg.eigvalsh(mat)[0]
            if lo < -PSD_ATOL:
                raise ValueError(f"not PSD: min eigenvalue {lo:.3e}")


def qubit_subset(qubits, n_qubits):
    """The qubit-subset rule of the package: a non-empty set of distinct
    integer indices in 0..n_qubits-1, returned sorted. An index that is not
    an integer (a float, a string, a bool) raises TypeError rather than being
    truncated; an empty, repeated or out-of-range subset raises ValueError."""
    qubits = tuple(qubits)
    if any(isinstance(q, (bool, np.bool_)) for q in qubits):
        raise TypeError(f"qubit indices must be integers, not bools: {qubits}")
    given = tuple(index(q) for q in qubits)
    subset = tuple(sorted(set(given)))
    if len(subset) != len(given):
        raise ValueError(f"duplicate qubits in subset {given}")
    if not subset:
        raise ValueError("qubit subset must be non-empty")
    if subset[0] < 0 or subset[-1] >= n_qubits:
        raise ValueError(f"qubit subset {subset} out of range for "
                         f"{n_qubits} qubits")
    return subset


def subset_label(qubits):
    """Qubits joined by dashes, so the label can sit inside a CSV field."""
    return "-".join(str(q) for q in qubits)


class Bipartition:
    """A bipartition (A, complement of A) of qubits 0..n_qubits-1.

    `subset_a` is a qubit subset (see qubit_subset), stored sorted; it must
    be a strict subset.
    """

    __slots__ = ("n_qubits", "subset_a")

    def __init__(self, n_qubits, subset_a):
        subset = qubit_subset(subset_a, n_qubits)
        if len(subset) >= n_qubits:
            raise ValueError("bipartition subset must be a strict subset")
        self.n_qubits = n_qubits
        self.subset_a = subset

    @property
    def complement(self):
        inside = set(self.subset_a)
        return tuple(q for q in range(self.n_qubits) if q not in inside)

    @property
    def smaller_side(self):
        comp = self.complement
        if len(comp) < len(self.subset_a):
            return comp
        if len(comp) > len(self.subset_a):
            return self.subset_a
        return min(self.subset_a, comp)

    def label(self):
        return subset_label(self.subset_a)

    def __eq__(self, other):
        return (isinstance(other, Bipartition)
                and self.n_qubits == other.n_qubits
                and self.subset_a == other.subset_a)

    def __hash__(self):
        return hash((self.n_qubits, self.subset_a))

    def __repr__(self):
        return f"Bipartition(n={self.n_qubits}, A={self.subset_a})"


def partial_trace(rho, keep):
    """Reduced state on the `keep` qubits, a qubit subset taken in sorted
    order."""
    n = rho.n_qubits
    keep = qubit_subset(keep, n)
    t = rho.matrix.reshape((2,) * (2 * n))
    # trace out dropped qubits one at a time, highest axis first so the
    # remaining axis numbers stay valid
    for q in reversed([q for q in range(n) if q not in keep]):
        t = np.trace(t, axis1=q, axis2=q + (t.ndim // 2))
    d = 2 ** len(keep)
    return DensityOperator(t.reshape(d, d), check=False)


def partial_transpose(rho, part):
    """Transpose the tensor factors of subsystem A. Returns a plain matrix.

    The result is Hermitian and trace one but may have negative eigenvalues,
    so it is not wrapped in a DensityOperator.
    """
    if isinstance(rho, DensityOperator):
        mat, n = rho.matrix, rho.n_qubits
    else:
        mat = np.asarray(rho, dtype=complex)
        n = _n_qubits_of_dim(mat.shape[0])
    if part.n_qubits != n:
        raise ValueError("bipartition does not match state size")
    t = mat.reshape((2,) * (2 * n))
    axes = list(range(2 * n))
    for q in part.subset_a:
        axes[q], axes[q + n] = axes[q + n], axes[q]
    return t.transpose(axes).reshape(mat.shape)


def purity_exact(rho):
    mat = rho.matrix if isinstance(rho, DensityOperator) else np.asarray(rho)
    return float(np.einsum("ij,ji->", mat, mat).real)


def renyi2_exact(rho):
    """S2 = -log2 tr(rho^2), with the purity clamped away from zero."""
    return float(-math.log2(max(purity_exact(rho), PURITY_CLAMP)))


def trace_distance(rho, sigma):
    a = rho.matrix if isinstance(rho, DensityOperator) else np.asarray(rho)
    b = sigma.matrix if isinstance(sigma, DensityOperator) else np.asarray(sigma)
    if a.shape != b.shape:
        raise ValueError("trace_distance: dimension mismatch")
    eig = np.linalg.eigvalsh(a - b)
    return float(0.5 * np.sum(np.abs(eig)))


def fidelity_pure(rho, target):
    """<phi|rho|phi> for a pure target. Accepts raw matrices too, since
    unconstrained estimators can leave the physical set."""
    mat = rho.matrix if isinstance(rho, DensityOperator) else np.asarray(rho)
    phi = target.amplitudes
    if mat.shape[0] != phi.size:
        raise ValueError("fidelity_pure: dimension mismatch")
    return float(np.vdot(phi, mat @ phi).real)


def negativity(rho, part):
    """Sum of |negative eigenvalues| of the partial transpose."""
    eig = np.linalg.eigvalsh(partial_transpose(rho, part))
    neg = eig[eig < -EIG_ZERO]
    return float(-neg.sum())


def p3_moment_exact(rho, part):
    """Both sides of the order-3 PPT moment check.

    Returns (tr((rho^{T_A})^3), tr(rho^2)^2). A PPT state satisfies
    lhs >= rhs; lhs < rhs - tol certifies entanglement across the cut.
    """
    pt = partial_transpose(rho, part)
    lhs = float(np.trace(pt @ pt @ pt).real)
    rhs = purity_exact(rho) ** 2
    return lhs, rhs


# --- reference states -------------------------------------------------------

# basis strings with amplitude +1 (first six) and -1 (last two), all 1/(2*sqrt(2))
_AME5_PLUS = ("00000", "00011", "01100", "11010", "11001", "10110")
_AME5_MINUS = ("01111", "10101")


def basis_index(bits):
    return int(bits, 2)


def make_ame5():
    """The 5-qubit state that is maximally mixed on every 2-qubit reduction."""
    amp = np.zeros(32, dtype=complex)
    for b in _AME5_PLUS:
        amp[basis_index(b)] = 1.0
    for b in _AME5_MINUS:
        amp[basis_index(b)] = -1.0
    return PureState(amp / (2 * math.sqrt(2)), check=False)


def make_ghz(n):
    if n < 1:
        raise ValueError("n must be >= 1")
    amp = np.zeros(2**n, dtype=complex)
    amp[0] = amp[-1] = 1 / math.sqrt(2)
    return PureState(amp, check=False)


def make_rotated_ghz(n, angle=math.pi / 4):
    """GHZ state with a local rotation exp(-i*angle*Y/2) applied to every
    qubit, so the state is aligned with no tomography basis. The rotation
    acts on one tensor axis of the amplitudes at a time, never as a dense
    2^n x 2^n matrix. `angle` is a number or its text, as a state spec's
    field."""
    angle = float(angle)
    if not math.isfinite(angle):
        raise ValueError(f"rotation angle must be finite, not {angle!r}")
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    ry = np.array([[c, -s], [s, c]], dtype=complex)
    amp = make_ghz(n).amplitudes.reshape((2,) * n)
    for axis in range(n):
        amp = np.moveaxis(np.tensordot(ry, amp, axes=(1, axis)), 0, axis)
    return PureState(amp.reshape(-1), check=False)


_KET = {
    "0": np.array([1, 0], dtype=complex),
    "1": np.array([0, 1], dtype=complex),
    "+": np.array([1, 1], dtype=complex) / math.sqrt(2),
    "-": np.array([1, -1], dtype=complex) / math.sqrt(2),
}


def make_product(kets):
    """Product state from a string of single-qubit kets over 0, 1, +, -."""
    vecs = []
    for ch in kets:
        if ch not in _KET:
            raise ValueError(f"unknown single-qubit ket {ch!r}")
        vecs.append(_KET[ch])
    if not vecs:
        raise ValueError("need at least one qubit")
    return PureState(reduce(np.kron, vecs))


def make_linear_cluster(n, signs):
    """Linear cluster state: |s_0 s_1 ... s_{n-1}> with s_k in {+,-},
    then CZ on every neighboring pair. Distinct sign vectors give mutually
    orthogonal states."""
    signs = "".join(signs)
    if len(signs) != n or any(ch not in "+-" for ch in signs):
        raise ValueError("signs must be a length-n string over +-")
    amp = make_product(signs).amplitudes.copy()
    dim = 2**n
    idx = np.arange(dim)
    for k in range(n - 1):
        # CZ between qubits k and k+1 (qubit 0 = most significant bit)
        bit_k = (idx >> (n - 1 - k)) & 1
        bit_k1 = (idx >> (n - 2 - k)) & 1
        amp[(bit_k & bit_k1) == 1] *= -1
    return PureState(amp, check=False)


def random_pure(n, rng):
    amp = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return PureState(amp / np.linalg.norm(amp), check=False)


def random_density(n, rng):
    """Ginibre-induced random mixed state of full rank."""
    dim = 2**n
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    mat = g @ g.conj().T
    return DensityOperator(mat / mat.trace().real, check=False)


# --- JSON save/load ---------------------------------------------------------

_JSON_BLOCK = 1 << 14  # values write_state_json turns into text at a time


def _kind_and_array(state):
    if isinstance(state, PureState):
        return "pure", state.amplitudes
    if isinstance(state, DensityOperator):
        return "mixed", state.matrix
    raise TypeError("expected PureState or DensityOperator")


def state_to_json_dict(state, meta=None):
    kind, arr = _kind_and_array(state)
    d = {
        "n_qubits": state.n_qubits,
        "kind": kind,
        "re": arr.real.reshape(-1).tolist(),  # row-major
        "im": arr.imag.reshape(-1).tolist(),
    }
    if meta is not None:
        d["meta"] = meta
    return d


def write_state_json(fh, state, meta=None):
    """Write json.dumps(state_to_json_dict(state, meta)) and a newline to
    `fh`, the same bytes, turning at most _JSON_BLOCK values into a list and
    its text at a time: no list of every entry is made."""
    kind, arr = _kind_and_array(state)
    flat = arr.reshape(-1)
    fh.write(json.dumps({"n_qubits": state.n_qubits, "kind": kind})[:-1])
    for key, part in (("re", flat.real), ("im", flat.imag)):  # strided views
        fh.write(f', "{key}": [')
        for lo in range(0, part.size, _JSON_BLOCK):
            text = json.dumps(part[lo:lo + _JSON_BLOCK].tolist())[1:-1]
            fh.write(", " + text if lo else text)
        fh.write("]")
    if meta is not None:
        fh.write(', "meta": ' + json.dumps(meta))
    fh.write("}\n")


def state_from_json_dict(d):
    if not isinstance(d, dict):
        raise ValueError("state must be a JSON object")
    missing = {"n_qubits", "kind", "re", "im"} - set(d)
    if missing:
        raise ValueError(f"state missing keys: {sorted(missing)}")
    n = d["n_qubits"]
    if type(n) is not int or n < 1:  # not a subclass: JSON true is a bool
        raise ValueError(f"state n_qubits must be a positive integer, not "
                         f"{n!r}")
    kind = d["kind"]
    try:
        arr = (np.array(d["re"], dtype=float)
               + 1j * np.array(d["im"], dtype=float))
    except TypeError:
        raise ValueError("state re and im must be lists of numbers") from None
    if kind == "pure":
        if arr.size != 2**n:
            raise ValueError("amplitude length does not match n_qubits")
        return PureState(arr)
    if kind == "mixed":
        dim = 2**n
        if arr.size != dim * dim:
            raise ValueError("matrix length does not match n_qubits")
        return DensityOperator(arr.reshape(dim, dim))
    raise ValueError(f"unknown state kind {kind!r}")


def save_state(path, state, meta=None):
    with open(path, "w") as fh:
        json.dump(state_to_json_dict(state, meta), fh)


def load_state(path):
    with open(path) as fh:
        return state_from_json_dict(json.load(fh))
