"""Streaming mini-batch parallel deflation with Hebb's rule.

The covariance matrix never exists here. Each local step pulls one batch Y,
read by every active worker, as the players of model-parallel EigenGame
read one shared minibatch. A block of worker rows X with peer prefix P runs
the engine's block step (`engine.block_steps`) with the batch operator:
X Op = (X Y^T) Y, A = B = P, and each peer's eigenvalue estimated as
lam_hat_j = ||Y p_j||^2 from one product Y P^T, at the scheduled step size.
A step costs O((n + m) d) per row and allocates no d x d buffer; the block
broadcasts at the end of the round.

Batch providers are pull-based and replayable: batch(worker, round, step)
is a pure function of the provider seed and that index triple, so threaded
execution cannot reorder consumption. The engine reads the batch keyed by
worker 1 at each (round, step), so a step reads K times fewer samples than
one batch per worker would; a run with more than `engine.BLOCK_ROWS` workers
fetches that same batch once per row block. Every batch, the one that
sizes an unset eta0 included, goes through `_fetch_batch`: a failing
source or a wrong shape is a StreamError.

The first row block draws its step batches ahead of the update: up to
`PREFETCH_WINDOW` keys are in flight on at most `PREFETCH_THREADS` helper
threads, which the run starts and joins itself, and are consumed in key
order. So `batch` may be called ahead of its step and concurrently, from a
helper thread, in serial and thread mode alike; it must be a pure,
thread-safe function of its key. A batch's error surfaces only when its
step is reached, so an earlier step's NumericalError still wins.
"""

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .engine import RunTrace, block_steps, run_round_synchronous
from .errors import ConfigError, NumericalError, StreamError
from .linalg import as_matrix, as_vector, peer_stack
from .seeding import ETA_STREAM, rng_for

PREFETCH_WINDOW = 3  # step batches in flight while the first row block waits
PREFETCH_THREADS = 2  # helper threads that draw them, never one per worker


class BatchProvider(Protocol):
    batch_size: int
    dim: int

    def batch(self, worker: int, rnd: int, step: int) -> np.ndarray:
        """Return the (batch_size, dim) batch for one (worker, round, step).

        The engine may call this ahead of its step and concurrently, from a
        helper thread, in either mode, so it must be a pure, thread-safe
        function of the key.
        """
        ...


class GaussianStreamProvider:
    """I.i.d. rows from N(0, Sigma), generated from an eigenfactorization.

    `values`/`vectors` follow the EigenSystem layout (rows are unit
    eigenvectors); negative eigenvalues below -1e-10 * max are rejected,
    small negatives are clamped to zero.
    """

    def __init__(self, values, vectors, batch_size: int, seed: int):
        values = as_vector(values, "eigenvalues")
        vectors = as_matrix(vectors, "eigenvector matrix")
        if values.shape[0] != vectors.shape[0]:
            raise ConfigError("eigenvalue/eigenvector count mismatch")
        scale = max(float(np.max(np.abs(values))), 1e-300)
        if float(np.min(values)) < -1e-10 * scale:
            raise NumericalError("covariance factor is not positive semidefinite")
        if batch_size < 1:
            raise ConfigError(f"batch size must be >= 1, got {batch_size}")
        if seed < 0:
            raise ConfigError(f"seed must be >= 0, got {seed}")
        self.batch_size = int(batch_size)
        self.dim = vectors.shape[1]
        self.seed = int(seed)
        self._factor = np.sqrt(np.clip(values, 0.0, None))[:, None] * vectors

    def batch(self, worker: int, rnd: int, step: int) -> np.ndarray:
        g = rng_for(self.seed, worker, rnd, step).standard_normal(
            (self.batch_size, self._factor.shape[0]))
        return g @ self._factor


class MatrixRowProvider:
    """With-replacement row sampling from an in-memory data matrix."""

    def __init__(self, data, batch_size: int, seed: int):
        self._data = as_matrix(data, "data matrix")
        if batch_size < 1:
            raise ConfigError(f"batch size must be >= 1, got {batch_size}")
        if seed < 0:
            raise ConfigError(f"seed must be >= 0, got {seed}")
        self.batch_size = int(batch_size)
        self.dim = self._data.shape[1]
        self.seed = int(seed)

    def batch(self, worker: int, rnd: int, step: int) -> np.ndarray:
        idx = rng_for(self.seed, worker, rnd, step).integers(
            0, self._data.shape[0], size=self.batch_size)
        return self._data[idx]


class FullBatchProvider:
    """Returns the whole dataset as every batch (full-batch reduction)."""

    def __init__(self, data):
        # as_matrix may return the caller's own array; freeze a copy of it
        self._data = as_matrix(data, "data matrix").copy()
        self._data.setflags(write=False)
        self.batch_size = self._data.shape[0]
        self.dim = self._data.shape[1]

    def batch(self, worker: int, rnd: int, step: int) -> np.ndarray:
        return self._data


@dataclass(frozen=True)
class StepSchedule:
    """Step-size schedule eta_t for the streaming updates.

    mode "constant" keeps eta0; "inverse_time" decays as eta0 / (1 + t/tau)
    over the global step index t = (round-1)*T + (step-1). Unset fields are
    resolved at engine start: eta0 defaults to 2 over the top-eigenvalue
    estimate of the first batch's Gram matrix, tau to a tenth of the total
    step budget.
    """

    eta0: float | None = None
    mode: str = "inverse_time"
    tau: float | None = None

    def __post_init__(self):
        if self.mode not in ("constant", "inverse_time"):
            raise ConfigError(f"schedule must be 'constant' or 'inverse_time', "
                              f"got {self.mode!r}")
        if self.eta0 is not None and not 0.0 < self.eta0 < np.inf:
            raise ConfigError(f"eta0 must be positive and finite, got {self.eta0!r}")
        if self.tau is not None and not 0.0 < self.tau < np.inf:
            raise ConfigError(f"tau must be positive and finite, got {self.tau!r}")


def _fetch_batch(provider, worker: int, rnd: int, step: int) -> np.ndarray:
    """One float64 batch; a failing source or a wrong shape is a StreamError."""
    try:
        y = np.ascontiguousarray(provider.batch(worker, rnd, step), dtype=np.float64)
    except Exception as exc:
        raise StreamError(f"batch source failed at worker {worker}, round {rnd}, "
                          f"step {step}: {exc}") from exc
    expected = (provider.batch_size, provider.dim)
    if y.shape != expected:
        raise StreamError(f"batch at worker {worker}, round {rnd}, step {step} has "
                          f"shape {y.shape}, expected {expected}")
    return y


def _prefetch(provider, n_rounds: int, local_steps: int):
    """Yield the checked batches (1, rnd, t), rnd 1..L, t 1..T, in key order.

    Before waiting on the head batch it submits the next key, so
    PREFETCH_WINDOW batches are in flight on a pool of at most
    PREFETCH_THREADS threads; closing the generator cancels what is queued
    and joins the pool.
    """
    pool = ThreadPoolExecutor(max_workers=min(PREFETCH_THREADS, os.cpu_count() or 1))
    try:
        ahead = deque()
        for rnd in range(1, n_rounds + 1):
            for t in range(1, local_steps + 1):
                ahead.append(pool.submit(_fetch_batch, provider, 1, rnd, t))
                if len(ahead) == PREFETCH_WINDOW:
                    yield ahead.popleft().result()
        while ahead:
            yield ahead.popleft().result()
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _batch_rayleigh(y, v) -> float:
    """||Y v||^2 on validated float64 operands."""
    yv = y @ v
    return float(yv @ yv)


def _estimate_top_eigenvalue(y: np.ndarray, seed: int, steps: int = 32) -> float:
    """Top eigenvalue of Y^T Y by matrix-free power iteration."""
    v = rng_for(seed, ETA_STREAM).standard_normal(y.shape[1])
    v /= max(float(np.linalg.norm(v)), 1e-300)
    for _ in range(steps):
        yv = y @ v
        if float(yv @ yv) < 1e-300:
            raise NumericalError("first batch is numerically zero; cannot size eta0")
        w = y.T @ yv
        v = w / float(np.linalg.norm(w))
    return _batch_rayleigh(y, v)


def resolve_schedule(schedule: StepSchedule, provider: BatchProvider,
                     total_steps: int, seed: int):
    """Concretize a schedule into a callable eta(global_step); an unset eta0
    is sized from the checked batch of worker 1, round 1, step 1."""
    eta0 = schedule.eta0
    if eta0 is None:
        eta0 = 2.0 / _estimate_top_eigenvalue(_fetch_batch(provider, 1, 1, 1), seed)
    if schedule.mode == "constant":
        return lambda step: eta0
    tau = schedule.tau if schedule.tau is not None else max(total_steps / 10.0, 1.0)
    return lambda step: eta0 / (1.0 + step / tau)


def batch_rayleigh(y, v) -> float:
    """||Y v||^2: the eigenvalue estimate of the batch Gram matrix along v.

    Matrix-free; costs O(n d).
    """
    ym = as_matrix(y, "batch")
    vv = as_vector(v)
    if ym.shape[1] != vv.shape[0]:
        raise ConfigError(f"dimension mismatch: {ym.shape} vs {vv.shape}")
    return _batch_rayleigh(ym, vv)


def deflated_matvec(y, peers, lams, x) -> np.ndarray:
    """(Y^T Y - sum_j lams[j] p_j p_j^T) x without forming any d x d matrix.

    peers is an (m, d) stack (`linalg.peer_stack`), lams the matching
    finite eigenvalue estimates. Costs O((n + m) d).
    """
    ym = as_matrix(y, "batch")
    xv = as_vector(x)
    d = ym.shape[1]
    peers = peer_stack(peers, d)
    lam = np.asarray(lams, dtype=np.float64).reshape(-1)
    if peers.shape[0] != lam.shape[0] or not np.all(np.isfinite(lam)):
        raise ConfigError("one finite eigenvalue estimate is needed per deflation vector")
    if xv.shape[0] != d:
        raise ConfigError(f"dimension mismatch: {ym.shape} vs {xv.shape}")
    g = ym.T @ (ym @ xv)
    for p, lam_j in zip(peers, lam):
        g -= lam_j * float(p @ xv) * p
    return g


def stochastic_parallel_deflation(provider: BatchProvider, n_components: int,
                                  n_rounds: int, local_steps: int,
                                  schedule: StepSchedule, seed: int,
                                  mode: str = "serial", on_round=None) -> RunTrace:
    """Streaming parallel deflation, every worker reading one shared batch per
    local step; deterministic given the seed. The schedule is resolved as
    round 1 starts, after `run_round_synchronous` has checked K, T and L.
    The first row block reads its batches from `_prefetch`; no helper thread
    outlives the call, whether it returns or raises. `on_round` is the round
    sink of `run_round_synchronous`."""
    eta_at = None
    batches = _prefetch(provider, n_rounds, local_steps)

    def update(rnd, prev):
        nonlocal eta_at
        if eta_at is None:
            eta_at = resolve_schedule(schedule, provider, n_rounds * local_steps, seed)

        def block(lo, hi):
            m = hi - 1  # peers of the block's last row
            mask, peers = np.tri(hi - lo, m, k=lo - 1), prev[:m]

            def terms(t, x):
                y = next(batches) if lo == 0 else _fetch_batch(provider, 1, rnd, t)
                yp = y @ peers.T
                weights = mask * np.einsum("ij,ij->j", yp, yp) if m else None
                return (x @ y.T) @ y, weights, peers, peers

            return block_steps(prev[lo:hi], lo, rnd, local_steps, terms,
                               lambda t: eta_at((rnd - 1) * local_steps + (t - 1)))
        return block

    try:
        return run_round_synchronous(
            dim=provider.dim, n_workers=n_components, n_rounds=n_rounds, seed=seed,
            update=update, algorithm="stochastic_parallel_deflation",
            local_steps=local_steps, mode=mode, on_round=on_round)
    finally:
        batches.close()
