"""Full-state reconstruction from outcome frequencies.

Three routes: linear inversion (the dual-frame sum, fast, possibly
unphysical), projected least squares (linear inversion snapped to the
nearest density matrix), and weighted least-squares fitting constrained to
density matrices, solved by projected gradient descent. Estimates reach the
frame only through FrameSuperoperator.forward, .adjoint and .dual, which
contract one site at a time, so linear inversion and projected least squares
run at every size the frame superoperator admits (SIC N <= 11, Pauli
N <= 8); their largest arrays are the 2^N x 2^N estimate and its
eigendecomposition. The one dense build is the probability map that gives
the fit its step-size bound, under MLE_CAP; each fit builds it once.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .povm import cap_error, indices_from_digits
from .qstate import DensityOperator, write_state_json

MLE_CAP = 5  # qubits; the fit solves repeatedly in dimension 4^N
MLE_MAX_ITER = 5000
MLE_TOL = 1e-8
POWER_RTOL = 1e-12  # step-size power iteration: Rayleigh quotient change
POWER_MAX_ITER = 1000
_WEIGHT_VAR_FLOOR = 1e-4


class FrequencyVector:
    """Outcome counts for one dataset, convertible to frequency estimates.

    Both kinds hold one flat histogram of site patterns: one base-m digit per
    qubit, qubit 0 leading, m = 4 for SIC and 6 for Pauli (digit 2s + b for
    setting s and bit b). SIC frequencies are n_j / M. The Pauli frequency
    of outcome j is n_j / (N_s * 3^N), N_s the shots of j's setting; it
    estimates tr(E_j rho) for the uniform-setting POVM and needs N_s >= 1
    for every setting.
    """

    def __init__(self, kind, n_qubits, counts):
        if kind not in ("sic", "pauli"):
            raise ValueError("kind must be 'sic' or 'pauli'")
        self.kind = kind
        self.n_qubits = int(n_qubits)
        counts = np.asarray(counts)
        if np.any(counts < 0) or not np.issubdtype(counts.dtype, np.integer):
            raise ValueError("counts must be non-negative integers")
        m = 4 if kind == "sic" else 6
        if counts.shape != (m**self.n_qubits,):
            raise ValueError(f"{kind} counts must have length {m}^N")
        self.counts = counts
        if kind == "sic" and not counts.any():
            raise ValueError("sic counts must hold at least one shot")
        if kind == "pauli" and not self._setting_shots().all():
            raise ValueError("every Pauli setting needs at least one shot")

    @classmethod
    def from_sic_shots(cls, digits):
        digits = np.asarray(digits)
        n = digits.shape[1]
        return cls("sic", n, np.bincount(indices_from_digits(digits),
                                         minlength=4**n))

    @classmethod
    def from_pauli_shots(cls, settings, bits):
        """settings: (M, N) codes 0/1/2 for X/Y/Z; bits: (M, N) 0/1."""
        digits = 2 * np.asarray(settings) + np.asarray(bits)
        n = digits.shape[1]
        return cls("pauli", n, np.bincount(indices_from_digits(digits, 6),
                                           minlength=6**n))

    @property
    def total_shots(self):
        return int(self.counts.sum())

    def _setting_shots(self):
        """Pauli shots per setting: counts summed over the bit axes."""
        n = self.n_qubits
        return self.counts.reshape((3, 2) * n).sum(
            axis=tuple(range(1, 2 * n, 2)), keepdims=True)

    def frequencies(self):
        """Flat estimates of the POVM outcome probabilities, summing to 1."""
        if self.kind == "sic":
            return self.counts / self.total_shots
        return self.counts / self.per_outcome_shots() / 3**self.n_qubits

    def per_outcome_shots(self):
        """Shots behind each flat frequency entry (for statistical weights)."""
        if self.kind == "sic":
            return np.full(self.counts.size, float(self.total_shots))
        return np.broadcast_to(self._setting_shots(),
                               (3, 2) * self.n_qubits).ravel().astype(float)


@dataclass
class ReconstructionResult:
    estimate: np.ndarray
    method: str
    iterations: int = 0
    residual: float = 0.0
    converged: bool = True
    objective_history: list = field(default_factory=list)

    def write_json(self, fh, shots=None):
        """Write the estimate as a mixed-state file whose meta records the
        fit, and a newline, to `fh`, in blocks (write_state_json)."""
        meta = {"method": self.method, "residual": self.residual,
                "iterations": self.iterations, "converged": self.converged}
        if shots is not None:
            meta["shots"] = int(shots)
        write_state_json(fh, DensityOperator(self.estimate, check=False), meta)


def _freq_array(freqs, superop):
    if isinstance(freqs, FrequencyVector):
        if freqs.kind != superop.kind or freqs.n_qubits != superop.n_qubits:
            raise ValueError("frequency vector does not match superoperator")
        return freqs.frequencies()
    f = np.asarray(freqs, dtype=float)
    if f.shape != (superop.n_outcomes,):
        raise ValueError("frequency vector has wrong length")
    return f


def lininv(freqs, superop):
    """Linear inversion sum_j f_j D_j; Hermitian but possibly not PSD.

    For SIC frequencies this is exactly the mean classical shadow.
    """
    f = _freq_array(freqs, superop)
    rho = superop.dual(f)
    rho = (rho + rho.conj().T) / 2
    resid = float(np.linalg.norm(superop.forward(rho) - f))
    return ReconstructionResult(estimate=rho, method="lininv", residual=resid)


def simplex_projection(v):
    """Euclidean projection of a real vector onto the probability simplex."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = (np.cumsum(u) - 1.0) / np.arange(1, v.size + 1)
    k = np.nonzero(u > css)[0][-1]
    return np.clip(v - css[k], 0.0, None)


def _project_density(mat):
    """Frobenius-nearest density matrix (eigenvalues onto the simplex)."""
    vals, vecs = np.linalg.eigh((mat + mat.conj().T) / 2)
    w = simplex_projection(vals)
    return (vecs * w) @ vecs.conj().T


def pls(rho_hat):
    """Projected least squares: snap a Hermitian estimate to a density matrix."""
    rho_hat = np.asarray(rho_hat, dtype=complex)
    if not np.allclose(rho_hat, rho_hat.conj().T, atol=1e-8):
        raise ValueError("input must be Hermitian within 1e-8")
    return DensityOperator(_project_density(rho_hat))


def pls_from_freqs(freqs, superop):
    """pls of the linear inversion; lininv's estimate is Hermitian by
    construction, so neither it nor its projection is checked again."""
    rho = _project_density(lininv(freqs, superop).estimate)
    resid = float(np.linalg.norm(
        superop.forward(rho) - _freq_array(freqs, superop)))
    return ReconstructionResult(estimate=rho, method="pls", residual=resid)


def _weight_vector(freqs, weights, superop):
    if weights is None:
        return np.ones(superop.n_outcomes)
    if weights != "multinomial":
        raise ValueError("weights must be None or 'multinomial'")
    if not isinstance(freqs, FrequencyVector):
        raise ValueError("multinomial weights need counts, not bare frequencies")
    f = freqs.frequencies()
    var = np.maximum(f * (1 - f), _WEIGHT_VAR_FLOOR)
    return np.sqrt(freqs.per_outcome_shots() / var)


def _max_eigenvalue(a, w2):
    """lambda_max(A^dagger W^2 A) by power iteration on the map A, starting
    from vec(I), the exact top eigenvector of an unweighted fit. Stops when
    the Rayleigh quotient moves by at most POWER_RTOL relative, or after
    POWER_MAX_ITER steps; the Gram matrix is never formed."""
    dim = math.isqrt(a.shape[1])
    x = np.eye(dim, dtype=complex).reshape(-1) / math.sqrt(dim)
    lam = 0.0
    for _ in range(POWER_MAX_ITER):
        y = ((w2 * (a @ x)).conj() @ a).conj()  # A^dagger W^2 A x
        prev, lam = lam, float(np.vdot(x, y).real)
        x = y / np.linalg.norm(y)
        if abs(lam - prev) <= POWER_RTOL * lam:
            break
    return lam


def mle(freqs, superop, weights=None):
    """Weighted least-squares fit over density matrices.

    Minimizes ||W (A vec(rho) - f)||_2 by projected gradient descent with a
    backtracking line search (steps are only accepted when the objective does
    not increase, so the recorded objective history is monotone). Projection
    after each step is the same eigenvalue-simplex map as pls. Stops when the
    projected step, scaled by the step size, falls below MLE_TOL, or after
    MLE_MAX_ITER steps. The reported residual is in the weighted norm (units
    of standard errors when multinomial weights are used).
    """
    if superop.n_qubits > MLE_CAP:
        raise cap_error("mle's dense probability map",
                        16 * superop.n_outcomes * 4**superop.n_qubits,
                        f"{MLE_CAP} qubits")
    f = _freq_array(freqs, superop)
    w2 = _weight_vector(freqs, weights, superop) ** 2

    def residual(x):
        """A vec(x) - f and the objective it gives."""
        r = superop.forward(x) - f
        return r, float(np.real(np.vdot(r, w2 * r)))

    def gradient(r):
        g = 2 * superop.adjoint(w2 * r)
        return (g + g.conj().T) / 2

    # Lipschitz constant of the gradient, from the dense map (at most
    # 6^5 x 4^5 under MLE_CAP)
    lip = 2 * _max_eigenvalue(superop.probability_map(), w2)

    x = _project_density(lininv(freqs, superop).estimate)
    r, obj = residual(x)
    history = [obj]
    step = 1.0 / lip
    converged = False
    iterations = 0
    for iterations in range(1, MLE_MAX_ITER + 1):
        g = gradient(r)  # r is x's residual, from the step that accepted x
        t = min(step * 1.5, 10.0 / lip)
        while True:
            cand = _project_density(x - t * g)
            cand_r, cand_obj = residual(cand)
            if cand_obj <= obj or t < 1e-18:
                break
            t /= 2
        if cand_obj > obj:
            converged = True  # no descent direction left at float precision
            break
        moved = float(np.linalg.norm(cand - x))
        x, r, obj, step = cand, cand_r, cand_obj, t
        history.append(obj)
        if moved / t <= MLE_TOL:
            converged = True
            break
    return ReconstructionResult(
        estimate=x, method="mle", iterations=iterations,
        residual=math.sqrt(max(obj, 0.0)), converged=converged,
        objective_history=history)


def reconstruct(freqs, superop, method, weights=None):
    """Dispatch by method name: lininv, pls, or mle."""
    if method == "lininv":
        return lininv(freqs, superop)
    if method == "pls":
        return pls_from_freqs(freqs, superop)
    if method == "mle":
        return mle(freqs, superop, weights=weights)
    raise ValueError(f"unknown reconstruction method: {method}")
