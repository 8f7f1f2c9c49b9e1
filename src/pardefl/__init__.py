"""Model-parallel PCA by round-synchronous parallel deflation.

Workers target one principal component each and refine it every
communication round against their peers' latest broadcasts, instead of
waiting for upstream components to converge. The package bundles the
deterministic and streaming engines, the eigenvector-game baselines and
utilities, the convergence-schedule validator, and a CSV experiment
harness.
"""

from .deflation import (deflate, parallel_deflation, replay_round,
                        sequential_deflation)
from .eigengame import (EigenGameVariant, eigengame_alpha_grad,
                        eigengame_mu_grad, run_eigengame)
from .engine import (RunTrace, WorkerState, attach_oracle,
                     export_trace_csv, read_trace_csv)
from .errors import (CapacityError, ConfigError, CoverageError,
                     DataFormatError, DegenerateSpectrumError, NumericalError,
                     PardeflError, StreamError)
from .games import UtilityReport, nash_check, utility_U, utility_V
from .io import load_csv_matrix, load_matrix, load_pdm1, save_pdm1
from .linalg import (EigenSystem, covariance, matvec, normalize,
                     reference_eigh, sign_align, sym_matrix)
from .metrics import (discounted_rayleigh, gaussian_stream, random_covariance,
                      recovery_error, spectrum_expdecay, spectrum_powerlaw)
from .seeding import rng_for, unit_init
from .solvers import (ContractionEstimate, Top1Config, contraction_estimate,
                      exact_top1, hebb, pow_iter, top1)
from .stochastic import (BatchProvider, FullBatchProvider,
                         GaussianStreamProvider, MatrixRowProvider,
                         StepSchedule, batch_rayleigh, deflated_matvec,
                         stochastic_parallel_deflation)
from .theory import (BoundReport, ConvergenceSchedule, cascade_rates,
                     check_bound, communication_cost, davis_kahan_gap_bound,
                     deflation_perturbation_bound, lambert_w_m1,
                     phase_start_rounds, poly_geometric_threshold,
                     schedule_for_run, w_cap)

__version__ = "0.1.0"
BACKEND = "numpy"

__all__ = [name for name in dir() if not name.startswith("_")]
