"""Leading-eigenvector subroutines: power iteration and Hebb's rule.

`top1`, and `pow_iter` / `hebb` through it, checks its arguments once and
runs `_top1`, the one unchecked power/Hebb step loop; engines that hold a
checked matrix call `_top1` directly. `contraction_estimate` exposes the
per-step error-shrink factor of power iteration, the ratio of the two
largest eigenvalue magnitudes. `exact_top1` and `contraction_estimate` read
the spectrum from LAPACK, as does the oracle `linalg.reference_eigh`.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateSpectrumError, NumericalError
from .linalg import _eigh, as_vector, check_unit, sign_align, sym_matrix

POWER_ITERATION = "power_iteration"
HEBB = "hebb"


@dataclass(frozen=True)
class Top1Config:
    """Configuration of the local leading-eigenvector solver.

    steps is the number of inner iterations per call; eta is the Hebb step
    size and must be set (positive and finite) when method == "hebb".
    """

    method: str = POWER_ITERATION
    steps: int = 1
    eta: float | None = None
    sign_align_output: bool = True

    def __post_init__(self):
        if self.method not in (POWER_ITERATION, HEBB):
            raise ConfigError(f"unknown Top1 method {self.method!r}")
        if int(self.steps) < 1:
            raise ConfigError(f"Top1 steps must be >= 1, got {self.steps}")
        if self.method == HEBB and (self.eta is None or not 0.0 < self.eta < np.inf):
            raise ConfigError(f"Hebb's rule needs a positive finite eta, got {self.eta!r}")


@dataclass(frozen=True)
class ContractionEstimate:
    """Per-step contraction factor F in (0,1) and the raw |lambda_2|/|lambda_1|."""

    F: float
    gap_ratio: float

    def __post_init__(self):
        if not 0.0 < self.F < 1.0:
            raise ConfigError(f"contraction factor must lie in (0,1), got {self.F!r}")


def _nonzero(sm: np.ndarray) -> np.ndarray:
    if not np.any(sm):
        raise ConfigError("matrix is identically zero")
    return sm


def _top1(sm: np.ndarray, v: np.ndarray, cfg: Top1Config) -> np.ndarray:
    """`top1` on a checked, exactly symmetric matrix and unit start vector.

    The one power/Hebb step loop; a zero or non-finite norm is a NumericalError.
    """
    eta = float(cfg.eta) if cfg.method == HEBB else None
    out, scratch = v.copy(), np.empty_like(v)
    for _ in range(int(cfg.steps)):
        np.matmul(sm, out, out=scratch)
        if eta is not None:
            scratch *= eta
            scratch += out
        nrm = float(np.sqrt(scratch @ scratch))
        if not 1e-300 <= nrm < np.inf:
            raise NumericalError("local solver hit a (near-)zero or non-finite iterate")
        np.divide(scratch, nrm, out=out)
    if cfg.sign_align_output and float(out @ v) < 0.0:
        return -out
    return out


def top1(sigma, v0, cfg: Top1Config) -> np.ndarray:
    """cfg.steps power (x <- Sigma x) or Hebb (x <- x + eta Sigma x) steps, each
    normalized; checks sigma and the unit start vector once, then runs `_top1`."""
    sm = sym_matrix(sigma)
    v = as_vector(v0, "start vector")
    if v.shape[0] != sm.shape[0]:
        raise ConfigError(f"dimension mismatch: {sm.shape} vs {v.shape}")
    check_unit(v, name="start vector")
    return _top1(_nonzero(sm), v, cfg)


def pow_iter(sigma, v0, t_steps: int, sign_align_output: bool = True) -> np.ndarray:
    """t_steps normalized power-iteration steps x <- Sigma x / ||Sigma x||."""
    return top1(sigma, v0, Top1Config(POWER_ITERATION, t_steps, None, sign_align_output))


def hebb(sigma, v0, t_steps: int, eta: float, sign_align_output: bool = True) -> np.ndarray:
    """t_steps normalized Hebb updates x <- (x + eta Sigma x) / ||.||."""
    return top1(sigma, v0, Top1Config(HEBB, t_steps, eta, sign_align_output))


def exact_top1(sigma, v0) -> np.ndarray:
    """Oracle solver: exact top eigenvector (by LAPACK eigh), aligned to v0.

    The top eigenvector belongs to the largest |lambda|; on a magnitude tie
    the larger (positive) eigenvalue wins. Drop-in replacement for `top1`
    used in validation runs.
    """
    # in non-increasing order argmax returns the larger of two values tied
    # in magnitude
    vals, vecs = _eigh(sym_matrix(sigma))
    return sign_align(vecs[int(np.argmax(np.abs(vals)))], as_vector(v0))


def contraction_estimate(sigma, min_rel_gap: float = 1e-8) -> ContractionEstimate:
    """Per-step contraction factor |lambda_2| / |lambda_1| of a matrix.

    The eigenvalues come from LAPACK eigvalsh; the two largest eigenvalue
    magnitudes must be separated by a relative gap of at least min_rel_gap.
    The factor is clamped into (1e-12, 1 - 1e-12) so downstream log(1/m)
    arithmetic stays finite.
    """
    try:
        vals = np.linalg.eigvalsh(sym_matrix(sigma))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"LAPACK eigvalsh failed: {exc}") from exc
    mags = np.sort(np.abs(vals))[::-1]
    if mags[0] < 1e-300:
        raise DegenerateSpectrumError("matrix is numerically zero")
    if mags.shape[0] < 2:
        raise DegenerateSpectrumError("need dimension >= 2 for a gap ratio")
    ratio = float(mags[1] / mags[0])
    if (1.0 - ratio) < min_rel_gap:
        raise DegenerateSpectrumError(
            f"top eigenvalue magnitudes too close: ratio {ratio!r}")
    return ContractionEstimate(F=float(np.clip(ratio, 1e-12, 1.0 - 1e-12)),
                               gap_ratio=ratio)
