"""Single-setting SIC-POVM tomography toolkit.

Simulate SIC (or Pauli-basis) measurement records for N-qubit states, then
estimate properties three ways: streaming classical-shadow estimators for
local observables, fidelities, subsystem purities and Renyi-2 entropies;
full reconstruction (linear inversion, projected least squares, constrained
MLE); and measurement-budget calculators with empirically checkable variance
bounds.
"""

__version__ = "0.1.0"

import os as _os
import sys as _sys

# Most matrices here are at most 4^5 x 4^5, and the CLI runs one short process
# per stage. OpenBLAS's worker threads start with numpy and busy-wait beside
# the main thread: each process pays for them in CPU time and in wall-time
# spread, and gains little. So when this package is the first to load numpy,
# OpenBLAS runs single-threaded unless OPENBLAS_NUM_THREADS says otherwise.
if "numpy" not in _sys.modules:
    _os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .povm import (CapExceededError, FrameSuperoperator, SicFrame, derive_rng,
                   naimark_unitary, pauli_outcome_distribution,
                   sample_pauli_shots, sample_sic_shots, sic_frame,
                   sic_outcome_distribution)
from .qstate import (Bipartition, DensityOperator, PureState, fidelity_pure,
                     load_state, make_ame5, make_ghz, make_linear_cluster,
                     make_product, make_rotated_ghz, negativity,
                     p3_moment_exact, partial_trace, partial_transpose,
                     purity_exact, random_density, random_pure, renyi2_exact,
                     save_state, trace_distance)
from .shadows import (ShadowAccumulator, inverse_depolarizing, pair_trace,
                      shadow_expand)
from .estimators import (EstimateReport, ObservableSpec, PurityTracker,
                         RunningMoments, all_bipartitions, estimate_p3,
                         estimate_purity, estimate_renyi2, observable_lut,
                         renyi2_from_purity)
from .reconstruct import (FrequencyVector, ReconstructionResult, lininv, mle,
                          pls, pls_from_freqs, simplex_projection)
from .budget import (BudgetQuery, coincidence_probability,
                     enumerated_coincidence, exact_linear_variance,
                     exact_quadratic_variance, linear_variance_bound,
                     observable_budget, purity_budget,
                     quadratic_variance_bound, variance_decomposition_check)
from .stream import (Game, OnlineEngine, ShotFileError, ShotFileHeader,
                     TrackerConfig, write_shots)

__all__ = [name for name in dir() if not name.startswith("_")]
