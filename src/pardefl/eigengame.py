"""EigenGame baselines generalized to multiple local steps per round.

Both variants run on the same round/activation/broadcast skeleton and the
same batched update as parallel deflation (`engine.dense_round_update`);
only the penalty term of the per-step gradient differs. For a block of
worker rows X and the snapshot V the gradients are

    mu:    G = X Sigma - (M o (X Sigma V^T)) V
    alpha: G = X Sigma - (M o (X Sigma V^T) / rq) V Sigma,  rq_j = v_j^T Sigma v_j,

with M the strictly lower-triangular peer mask, so V Sigma and rq are
computed once per round. Following the reference implementations,
gradients are NOT projected to the sphere's tangent space; the iterate is
renormalized after each ascent step x <- (x + eta g)/||.||. The per-vector
`eigengame_alpha_grad` / `eigengame_mu_grad` are the readable reference
forms of the same gradients.
"""

from typing import Literal

import numpy as np

from .engine import RunTrace, dense_round_update, run_round_synchronous
from .errors import ConfigError, NumericalError
from .linalg import as_vector, check_unit, sym_matrix
from .seeding import rng_for
from .solvers import pow_iter

EigenGameVariant = Literal["alpha", "mu"]

_ETA_STREAM = 982451653


def _check_variant(variant: str) -> str:
    if variant not in ("alpha", "mu"):
        raise ConfigError(f"unknown EigenGame variant {variant!r}")
    return variant


def _prep_grad(sigma, v, peers):
    sm = sym_matrix(sigma)
    vv = as_vector(v)
    d = sm.shape[0]
    if vv.shape[0] != d:
        raise ConfigError(f"dimension mismatch: {sm.shape} vs {vv.shape}")
    pe = (np.asarray(peers, dtype=np.float64).reshape(-1, d)
          if np.size(peers) else np.zeros((0, d)))
    for i in range(pe.shape[0]):
        check_unit(pe[i], name=f"peer vector {i + 1}")
    return sm, vv, np.ascontiguousarray(pe)


def eigengame_alpha_grad(sigma, v, peers) -> np.ndarray:
    """Utility-ascent gradient with Rayleigh-normalized penalty terms:

        g = Sigma v - sum_j (p_j^T Sigma v / p_j^T Sigma p_j) Sigma p_j
    """
    sm, vv, pe = _prep_grad(sigma, v, peers)
    sv = sm @ vv
    g = sv.copy()
    for j in range(pe.shape[0]):
        sp = sm @ pe[j]
        rq = float(pe[j] @ sp)
        if rq <= 1e-12:
            raise NumericalError(
                f"peer {j + 1} has vanishing Rayleigh quotient {rq!r}")
        g -= (float(sp @ vv) / rq) * sp
    return g


def eigengame_mu_grad(sigma, v, peers) -> np.ndarray:
    """Deflation-style ascent gradient g = Sigma v - sum_j (p_j^T Sigma v) p_j."""
    sm, vv, pe = _prep_grad(sigma, v, peers)
    sv = sm @ vv
    g = sv.copy()
    for j in range(pe.shape[0]):
        g -= float(pe[j] @ sv) * pe[j]
    return g


def default_eigengame_eta(sigma, seed: int) -> float:
    """0.1 over a power-iteration estimate of the top eigenvalue."""
    sm = sym_matrix(sigma)
    d = sm.shape[0]
    v0 = rng_for(seed, _ETA_STREAM).standard_normal(d)
    v0 /= max(float(np.linalg.norm(v0)), 1e-300)
    v = pow_iter(sm, v0, 64)
    lam = abs(float(v @ sm @ v))
    if lam < 1e-300:
        raise NumericalError("cannot size a step for a numerically zero matrix")
    return 0.1 / lam


def run_eigengame(variant: EigenGameVariant, sigma, n_components: int,
                  n_rounds: int, local_steps: int, eta: float | None = None,
                  seed: int = 0, mode: str = "serial") -> RunTrace:
    """Round-synchronous EigenGame run; deterministic given the seed."""
    variant = _check_variant(variant)
    sm = sym_matrix(sigma)
    d = sm.shape[0]
    if not 1 <= n_components <= d:
        raise ConfigError(f"K must lie in [1, {d}], got {n_components}")
    if local_steps < 1:
        raise ConfigError(f"local step count must be >= 1, got {local_steps}")
    if eta is None:
        eta = default_eigengame_eta(sm, seed)
    elif not eta > 0.0:
        raise ConfigError(f"step size must be positive, got {eta!r}")
    return run_round_synchronous(
        dim=d, n_workers=n_components, n_rounds=n_rounds, seed=seed,
        update=dense_round_update(sm, variant, steps=local_steps, eta=eta),
        algorithm=f"eigengame_{variant}",
        local_steps=local_steps, variant=variant, mode=mode)
