"""EigenGame baselines generalized to multiple local steps per round.

Both variants run on the same round/activation/broadcast skeleton and the
same batched update as parallel deflation (`engine.dense_round_update`);
only the penalty term of the per-step gradient differs. For the active
worker rows X and the snapshot V the gradients are

    mu:    G = X Sigma - (M o (X Sigma V^T)) V
    alpha: G = X Sigma - (M o (X Sigma V^T) / rq) V Sigma,  rq_j = v_j^T Sigma v_j,

with M the strictly lower-triangular peer mask, so V Sigma and rq are
computed once per round. Following the reference implementations,
gradients are NOT projected to the sphere's tangent space; the iterate is
renormalized after each ascent step x <- (x + eta g)/||.||. The per-vector
`eigengame_alpha_grad` / `eigengame_mu_grad` are the readable reference
forms of the same gradients. An unset eta is 0.1 over the Rayleigh quotient
after 64 power steps of `engine.block_steps` (`solvers._top_direction`).
"""

from typing import Literal

import numpy as np

from .engine import RunTrace, dense_round_update, run_round_synchronous
from .errors import ConfigError, NumericalError
from .games import player_operands
from .linalg import sym_matrix
from .solvers import _nonzero, _top_direction

EigenGameVariant = Literal["alpha", "mu"]


def eigengame_alpha_grad(sigma, v, peers) -> np.ndarray:
    """Utility-ascent gradient with Rayleigh-normalized penalty terms:

        g = Sigma v - sum_j (p_j^T Sigma v / p_j^T Sigma p_j) Sigma p_j
    """
    sm, vv, pe = player_operands(sigma, v, peers, unit_peers=True)
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
    sm, vv, pe = player_operands(sigma, v, peers, unit_peers=True)
    sv = sm @ vv
    g = sv.copy()
    for j in range(pe.shape[0]):
        g -= float(pe[j] @ sv) * pe[j]
    return g


def _default_eta(sm: np.ndarray, seed: int) -> float:
    """0.1 over a 64-step power estimate of the top |eigenvalue| of checked sm."""
    _nonzero(sm)
    v = _top_direction(lambda x: x @ sm, sm.shape[0], seed, 64,
                       "default step size: power iterate collapsed to zero or non-finite")
    lam = abs(float(v @ sm @ v))
    if lam < 1e-300:
        raise NumericalError("cannot size a step for a numerically zero matrix")
    return 0.1 / lam


def run_eigengame(variant: EigenGameVariant, sigma, n_components: int,
                  n_rounds: int, local_steps: int, eta: float | None = None,
                  seed: int = 0, mode: str = "serial", on_round=None) -> RunTrace:
    """Round-synchronous EigenGame run; deterministic given the seed.

    `on_round` is the round sink of `engine.run_round_synchronous`."""
    if variant not in ("alpha", "mu"):
        raise ConfigError(f"unknown EigenGame variant {variant!r}")
    sm = sym_matrix(sigma)
    if eta is None:
        eta = _default_eta(sm, seed)
    elif not 0.0 < eta < np.inf:
        raise ConfigError(f"step size must be positive and finite, got {eta!r}")
    return run_round_synchronous(
        dim=sm.shape[0], n_workers=n_components, n_rounds=n_rounds, seed=seed,
        update=dense_round_update(sm, variant, steps=local_steps, eta=eta),
        algorithm=f"eigengame_{variant}",
        local_steps=local_steps, variant=variant, mode=mode, on_round=on_round)
