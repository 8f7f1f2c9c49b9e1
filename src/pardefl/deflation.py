"""Deterministic deflation engines.

`sequential_deflation` is the classical nested loop: solve the top
eigenvector, subtract its rank-1 Rayleigh term from the current matrix,
repeat. `parallel_deflation` breaks the sequential dependency: every worker
k re-deflates the ORIGINAL matrix each round with its peers' latest
broadcast vectors,

    Sigma_{k,l} = Sigma - sum_{k'<k} (v_{k'}^T Sigma v_{k'}) v_{k'} v_{k'}^T,

then warm-starts its local solver at its own previous output. The two
procedures coincide when the inputs to the rank-1 terms are exact
eigenvectors.

The engine never builds Sigma_{k,l}: `engine.dense_round_update` applies it
matrix-free to all active worker rows at once, a few GEMMs per local step.
Only `top1_fn` validation runs hand each worker its deflated matrix, built
by `_deflate`, the unchecked core of `deflate`.
"""

import numpy as np

from .engine import RunTrace, next_round, run_round_synchronous
from .errors import ConfigError, NumericalError, PardeflError
from .linalg import as_int, as_vector, check_unit, peer_stack, sym_matrix
from .seeding import unit_init
from .solvers import Top1Config, _nonzero, _top1, _top1_update


def _deflate(sm: np.ndarray, peers: np.ndarray) -> np.ndarray:
    """`deflate` on a checked, exactly symmetric sigma and (m, d) unit stack."""
    update = (peers.T * np.einsum("ij,ij->i", peers @ sm, peers)) @ peers
    return sm - (update + update.T) / 2.0


def deflate(sigma, vs) -> np.ndarray:
    """One-shot deflation Sigma - sum_j (v_j^T Sigma v_j) v_j v_j^T by unit vectors.

    Every rank-1 term uses the original sigma (not a nested partial
    deflation), matching the per-round recomputation of the parallel engine.
    The result is exactly symmetric.
    """
    sm = sym_matrix(sigma)
    return _deflate(sm, peer_stack(vs, sm.shape[0], "deflation vector", unit=True))


def sequential_deflation(sigma, n_components: int, cfg: Top1Config,
                         seed: int) -> np.ndarray:
    """Classical deflation: returns the (K, d) stack of recovered vectors."""
    sm = sym_matrix(sigma)
    d = sm.shape[0]
    n_components = as_int(n_components, "K", 1, d)
    current = sm.copy()  # stays exactly symmetric: each update is lam v v^T
    out = np.empty((n_components, d))
    for k in range(1, n_components + 1):
        try:
            v = _top1(_nonzero(current), unit_init(seed, k, d), cfg)
        except PardeflError as exc:
            raise NumericalError(f"worker {k}: {exc}") from exc
        out[k - 1] = v
        lam = float(v @ current @ v)
        current -= lam * np.outer(v, v)
    return out


def _round_update(sigma, cfg: Top1Config, top1_fn=None):
    """Round update shared by the engine and `replay_round`; sigma is checked."""
    if top1_fn is None:
        return _top1_update(sigma, cfg)

    def update(rnd, active):
        rows = np.empty(active.shape)
        for r in range(active.shape[0]):
            try:
                v = as_vector(top1_fn(_deflate(sigma, active[:r]), active[r]),
                              "top1_fn output")
                check_unit(v, name="top1_fn output")
            except PardeflError as exc:
                raise NumericalError(f"worker {r + 1}, round {rnd}: {exc}") from exc
            rows[r] = v
        return rows

    return update


def parallel_deflation(sigma, n_components: int, n_rounds: int,
                       cfg: Top1Config, seed: int, mode: str = "serial",
                       top1_fn=None, on_round=None) -> RunTrace:
    """Round-synchronous parallel deflation.

    top1_fn optionally replaces the configured solver with any callable
    (deflated_matrix, warm_start) -> vector, e.g. `solvers.exact_top1` for
    oracle-exact validation runs. Deterministic given the seed; `mode`
    "serial" and "thread" both run each round as one update on the calling
    thread and give bitwise identical results. `on_round` is the round sink of
    `engine.run_round_synchronous`.
    """
    sm = sym_matrix(sigma)
    return run_round_synchronous(
        dim=sm.shape[0], n_workers=n_components, n_rounds=n_rounds, seed=seed,
        update=_round_update(sm, cfg, top1_fn), algorithm="parallel_deflation",
        local_steps=cfg.steps, mode=mode, on_round=on_round)


def replay_round(sigma, trace: RunTrace, rnd: int, cfg: Top1Config,
                 top1_fn=None) -> np.ndarray:
    """Recompute round `rnd` (>= 2) of a parallel-deflation trace.

    Uses only the previous round's broadcast snapshot from the trace, so a
    replay must reproduce the recorded round bitwise. A trace scored as it
    ran holds no snapshots and is refused.
    """
    vectors = trace.round_vectors()
    if not 2 <= rnd <= trace.n_rounds:
        raise ConfigError(f"can only replay rounds 2..{trace.n_rounds}, got {rnd}")
    return next_round(_round_update(sym_matrix(sigma), cfg, top1_fn), rnd,
                      vectors[rnd - 2])
