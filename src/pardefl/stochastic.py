"""Streaming mini-batch parallel deflation with Hebb's rule.

The covariance matrix never exists here. Each local step pulls one batch Y,
read by every active worker, as the players of model-parallel EigenGame
read one shared minibatch. Each round the active worker rows X, with peers
P = every active row but the last, run the engine's step loop
(`engine.block_steps`) as one batched update with the batch operator:
X Op = (X Y^T) Y, A = B = P, and each peer's eigenvalue estimated as
lam_hat_j = ||Y p_j||^2 from one product Y P^T, at the scheduled step size.
A step costs O((n + m) d) per row and allocates no d x d buffer; the rows
broadcast at the end of the round.

Batch providers are pull-based and replayable: batch(worker, round, step)
is a pure function of the provider seed and that index triple. The engine
reads the batch keyed by worker 1 at each (round, step), once per step,
so a step reads K times fewer samples than one batch per worker would.
Every batch, step (1, 1)'s that sizes an unset eta0 included, is drawn once
by `_prefetch`; a failing source or a wrong shape is a StreamError. An unset
eta0 is 2 / ||Y v||^2, v after 32 power steps of `block_steps` on Y^T Y;
`batch_rayleigh` and `deflated_matvec` are the per-vector reference forms.

The batches are drawn ahead of the update by one helper thread, the only
thread a run adds, and by the calling thread, which runs the update and
draws while its next batch is not ready. Both claim keys in order from one
counter, fewer than `PREFETCH_WINDOW` past the one the update holds or
awaits, so `batch` must be a pure, thread-safe function of its key. A
batch's error surfaces only when its step is reached, so an earlier step's
NumericalError still wins.
"""

import threading
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .engine import RunTrace, block_steps, run_round_synchronous
from .errors import ConfigError, NumericalError, StreamError
from .linalg import as_int, as_matrix, as_vector, peer_stack
from .seeding import rng_for
from .solvers import _top_direction

PREFETCH_WINDOW = 3  # keys claimable from the one the update holds or awaits


class BatchProvider(Protocol):
    batch_size: int
    dim: int

    def batch(self, worker: int, rnd: int, step: int) -> np.ndarray:
        """Return the (batch_size, dim) batch for one (worker, round, step).

        The engine calls this once per key, ahead of its step and concurrently,
        from its one helper thread and from the calling thread, in either mode,
        so it must be a pure, thread-safe function of the key.
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
        self.batch_size = as_int(batch_size, "batch size", 1)
        self.dim = vectors.shape[1]
        self.seed = as_int(seed, "seed", 0)
        self._factor = np.sqrt(np.clip(values, 0.0, None))[:, None] * vectors

    def batch(self, worker: int, rnd: int, step: int) -> np.ndarray:
        out = np.empty((self.batch_size, self.dim))  # first: a run's peak is timing-free
        g = rng_for(self.seed, worker, rnd, step).standard_normal(
            (self.batch_size, self._factor.shape[0]))
        return np.matmul(g, self._factor, out=out)


class MatrixRowProvider:
    """With-replacement row sampling from an in-memory data matrix."""

    def __init__(self, data, batch_size: int, seed: int):
        self._data = as_matrix(data, "data matrix")
        self.batch_size = as_int(batch_size, "batch size", 1)
        self.dim = self._data.shape[1]
        self.seed = as_int(seed, "seed", 0)

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

    Key i is (i // T + 1, i % T + 1). One helper thread and the calling thread,
    while its batch is not ready, claim each key once, in order, from one counter
    while it is below the key the update holds or awaits plus PREFETCH_WINDOW, so
    at most that many keys' batches are alive. A failed draw raises at its key.
    """
    total, cond, ready = n_rounds * local_steps, threading.Condition(), {}
    claimed = held = 0  # the next unclaimed key; the key the update holds or awaits

    def draw_until(done=lambda: claimed == total):  # the helper: until all are claimed
        nonlocal claimed
        while True:
            with cond:
                cond.wait_for(lambda: done() or claimed < min(total, held + PREFETCH_WINDOW))
                if done():
                    return
                i, claimed = claimed, claimed + 1
            try:
                item = _fetch_batch(provider, 1, i // local_steps + 1, i % local_steps + 1)
            except BaseException as exc:  # raised when key i is reached
                item = exc
            with cond:
                ready[i], item = item, None  # held only by `ready` until taken
                cond.notify_all()

    helper = threading.Thread(target=draw_until, daemon=True)
    helper.start()
    try:
        for i in range(total):
            with cond:  # the update asks for batch i once it has dropped i - 1
                held = i
                cond.notify_all()
            draw_until(lambda: i in ready)
            # only this thread removes keys; yield keeps no reference to the batch
            if isinstance(ready[i], BaseException):
                raise ready.pop(i)
            yield ready.pop(i)
    finally:
        with cond:
            claimed = total  # nothing is left to claim, so the helper returns
            cond.notify_all()
        helper.join()


def resolve_schedule(schedule: StepSchedule, first_batch, total_steps: int, seed: int):
    """Concretize a schedule into a callable eta(global_step); an unset eta0
    is sized from `first_batch`, the checked batch of step (1, 1)."""
    eta0 = schedule.eta0
    if eta0 is None:
        y = first_batch
        v = _top_direction(lambda x: (x @ y.T) @ y, y.shape[1], seed, 32,
                           "first batch is numerically zero; cannot size eta0")
        eta0 = 2.0 / batch_rayleigh(y, v)
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
    yv = ym @ vv
    return float(yv @ yv)


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
    local step; deterministic given the seed. The schedule is resolved from
    the first step's batch, after `run_round_synchronous` has checked K, T and L.
    Each round steps all active rows as one batched update on the calling
    thread, in either mode, reading each step's batch once from `_prefetch`;
    no helper thread outlives the call, whether it returns or raises.
    `on_round` is the round sink of `run_round_synchronous`."""
    eta_at = None
    batches = _prefetch(provider, n_rounds, local_steps)

    def update(rnd, active):
        m = active.shape[0] - 1  # peers of the last active row
        mask, peers = np.tri(m + 1, m, k=-1), active[:m]

        def terms(t, x):
            nonlocal eta_at
            y = next(batches)
            if eta_at is None:  # step (1, 1); block_steps calls eta(t) after terms
                eta_at = resolve_schedule(schedule, y, n_rounds * local_steps, seed)
            yp = y @ peers.T
            weights = mask * np.einsum("ij,ij->j", yp, yp) if m else None
            return (x @ y.T) @ y, weights, peers, peers

        return block_steps(active, rnd, local_steps, terms,
                           lambda t: eta_at((rnd - 1) * local_steps + (t - 1)))

    try:
        return run_round_synchronous(
            dim=provider.dim, n_workers=n_components, n_rounds=n_rounds, seed=seed,
            update=update, algorithm="stochastic_parallel_deflation",
            local_steps=local_steps, mode=mode, on_round=on_round)
    finally:
        batches.close()
