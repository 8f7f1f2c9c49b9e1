"""Leading-eigenvector subroutines: power iteration and Hebb's rule.

`top1` (with `pow_iter`, `hebb`) checks its arguments once and runs `_top1`,
round 1 of a lone worker of the engine's dense update; `engine.block_steps`
is its step loop, and that of `_top_direction`, which sizes default steps.
`contraction_estimate` exposes the per-step error-shrink factor of power
iteration, the ratio of the two largest eigenvalue magnitudes. `exact_top1`
and `contraction_estimate` read the spectrum from LAPACK eigvalsh;
`exact_top1` then finds its vector by inverse iteration, and falls back to
LAPACK eigh, the routine of the oracle `linalg.reference_eigh`, only where
that fails.
"""

from dataclasses import dataclass

import numpy as np

from .engine import _count, block_steps, dense_round_update
from .errors import ConfigError, DegenerateSpectrumError, NumericalError
from .linalg import _eigh, _eigvalsh, as_vector, check_unit, sign_align, sym_matrix
from .seeding import ETA_STREAM, rng_for

POWER_ITERATION = "power_iteration"
HEBB = "hebb"
INVERSE_SOLVES = 3  # inverse-iteration solves of `exact_top1`


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
            raise ConfigError(f"solver must be {POWER_ITERATION!r} or {HEBB!r}, "
                              f"got {self.method!r}")
        if _count(self.steps, "Top1 steps") < 1:
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


def _top1_update(sm: np.ndarray, cfg: Top1Config):
    """The `engine.dense_round_update` of cfg: deflation penalty, power or Hebb
    steps, and the optional flip to the warm start."""
    return dense_round_update(sm, "deflation", steps=cfg.steps,
                              eta=cfg.eta if cfg.method == HEBB else None,
                              align=cfg.sign_align_output)


def _top1(sm: np.ndarray, v: np.ndarray, cfg: Top1Config) -> np.ndarray:
    """`top1` on checked operands: round 1 of a lone worker, with no peers."""
    try:
        return _top1_update(sm, cfg)(1, v[None])[0]
    except NumericalError as exc:
        raise NumericalError("local solver hit a (near-)zero or non-finite iterate") from exc


def _top_direction(x_op, dim: int, seed: int, steps: int, failure: str) -> np.ndarray:
    """The unit vector after `steps` power steps x <- x_op(x)/||.|| from the
    `ETA_STREAM` start of `seed`; a collapse is a NumericalError `failure`."""
    v0 = rng_for(seed, ETA_STREAM).standard_normal(dim)
    v0 /= max(float(np.linalg.norm(v0)), 1e-300)
    try:
        return block_steps(v0[None], 1, steps, lambda t, x: (x_op(x), None, None, None))[0]
    except NumericalError as exc:
        raise NumericalError(failure) from exc


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
    """Oracle solver: exact top eigenvector, aligned to v0.

    The top eigenvector belongs to the largest |lambda|; on a magnitude tie,
    up to a relative 1e-12, the larger (positive) eigenvalue wins. lambda
    comes from LAPACK eigvalsh and the vector from `INVERSE_SOLVES` steps of
    inverse iteration from v0 at the shift lambda (1 + 1e-10), just outside
    the spectrum. A singular or non-finite solve, or a result whose residual
    ||Sigma x - lambda x|| exceeds 1e-12 |lambda| (as from a v0 orthogonal
    to the eigenvector), falls back to LAPACK eigh. Drop-in replacement for
    `top1` used in validation runs.
    """
    sm = sym_matrix(sigma)
    v = as_vector(v0)
    if v.shape[0] != sm.shape[0]:
        raise ConfigError(f"dimension mismatch: {sm.shape} vs {v.shape}")
    vals = _eigvalsh(sm)
    # magnitudes equal up to rounding are a tie, which the larger value wins
    top = abs(vals[0]) <= abs(vals[-1]) * (1.0 + 1e-12)
    lam = float(vals[-1] if top else vals[0])
    shifted = sm - lam * (1.0 + 1e-10) * np.eye(sm.shape[0])
    x = v
    try:
        # a zero start or an overflow makes x, and so the residual, non-finite
        with np.errstate(all="ignore"):
            for _ in range(INVERSE_SOLVES):
                x = np.linalg.solve(shifted, x)
                x = x / float(np.linalg.norm(x))
            residual = float(np.linalg.norm(sm @ x - lam * x))
    except np.linalg.LinAlgError:
        residual = np.inf
    if not residual <= 1e-12 * abs(lam):
        x = _eigh(sm)[1][0 if top else -1]
    return sign_align(x, v)


def contraction_estimate(sigma, min_rel_gap: float = 1e-8) -> ContractionEstimate:
    """Per-step contraction factor |lambda_2| / |lambda_1| of a matrix.

    The eigenvalues come from LAPACK eigvalsh; the two largest eigenvalue
    magnitudes must be separated by a relative gap of at least min_rel_gap.
    The factor is clamped into (1e-12, 1 - 1e-12) so downstream log(1/m)
    arithmetic stays finite.
    """
    vals = _eigvalsh(sym_matrix(sigma))
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
