"""Streaming mini-batch parallel deflation with Hebb's rule.

The covariance matrix never exists here. Each worker step pulls a fresh
batch Y, estimates every peer's eigenvalue as ||Y v_peer||^2, forms the
deflated matrix-vector product

    g = Y^T (Y x) - sum_peers lam_hat * (v_peer . x) * v_peer

in O((n + k) d) by `_deflated_matvec`, the core the public `deflated_matvec`
runs after its checks, applies the normalized ascent update x <- (x + eta
g)/||.|| (a zero or non-finite norm is a NumericalError) and broadcasts at
the end of the round. No operation here allocates a d x d buffer.

Batch providers are pull-based and replayable: batch(worker, round, step)
is a pure function of the provider seed and that index triple, so worker
streams are independent and threaded execution cannot reorder consumption.
"""

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .engine import RunTrace, run_round_synchronous
from .errors import ConfigError, NumericalError, StreamError
from .linalg import as_matrix, as_vector, peer_stack
from .seeding import ETA_STREAM, rng_for


class BatchProvider(Protocol):
    batch_size: int
    dim: int

    def batch(self, worker: int, rnd: int, step: int) -> np.ndarray:
        """Return the (batch_size, dim) batch for one (worker, round, step)."""
        ...


class GaussianStreamProvider:
    """I.i.d. rows from N(0, Sigma), generated from an eigenfactorization.

    `values`/`vectors` follow the EigenSystem layout (rows are unit
    eigenvectors); negative eigenvalues below -1e-10 * max are rejected,
    small negatives are clamped to zero.
    """

    def __init__(self, values, vectors, batch_size: int, seed: int):
        values = np.asarray(values, dtype=np.float64)
        vectors = as_matrix(vectors, "eigenvector matrix")
        if values.shape[0] != vectors.shape[0]:
            raise ConfigError("eigenvalue/eigenvector count mismatch")
        scale = max(float(np.max(np.abs(values))), 1e-300)
        if float(np.min(values)) < -1e-10 * scale:
            raise NumericalError("covariance factor is not positive semidefinite")
        if batch_size < 1:
            raise ConfigError(f"batch size must be >= 1, got {batch_size}")
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
        self._data = as_matrix(data, "data matrix")
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
            raise ConfigError(f"unknown schedule mode {self.mode!r}")
        if self.eta0 is not None and not 0.0 < self.eta0 < np.inf:
            raise ConfigError(f"eta0 must be positive and finite, got {self.eta0!r}")
        if self.tau is not None and not 0.0 < self.tau < np.inf:
            raise ConfigError(f"tau must be positive and finite, got {self.tau!r}")


def _batch_rayleigh(y, v, scratch_n) -> float:
    """||Y v||^2 on validated float64 operands; Y v is left in scratch_n."""
    np.matmul(y, v, out=scratch_n)
    return float(scratch_n @ scratch_n)


def _estimate_top_eigenvalue(y: np.ndarray, seed: int, steps: int = 32) -> float:
    """Top eigenvalue of Y^T Y by matrix-free power iteration."""
    d = y.shape[1]
    v = rng_for(seed, ETA_STREAM).standard_normal(d)
    v /= max(float(np.linalg.norm(v)), 1e-300)
    scratch = np.empty(y.shape[0])
    for _ in range(steps):
        lam = _batch_rayleigh(y, v, scratch)
        if lam < 1e-300:
            raise NumericalError("first batch is numerically zero; cannot size eta0")
        w = y.T @ scratch
        v = w / float(np.linalg.norm(w))
    return _batch_rayleigh(y, v, scratch)


def resolve_schedule(schedule: StepSchedule, provider: BatchProvider,
                     total_steps: int, seed: int):
    """Concretize a schedule into a callable eta(global_step)."""
    eta0 = schedule.eta0
    if eta0 is None:
        first = np.ascontiguousarray(provider.batch(1, 1, 1), dtype=np.float64)
        eta0 = 2.0 / _estimate_top_eigenvalue(first, seed)
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
    return _batch_rayleigh(ym, vv, np.empty(ym.shape[0]))


def _deflated_matvec(y, peers, lams, x, scratch_n, out) -> np.ndarray:
    """`deflated_matvec` into `out` on checked operands, via scratch_n = Y x."""
    np.matmul(y, x, out=scratch_n)
    np.matmul(y.T, scratch_n, out=out)
    for p, lam in zip(peers, lams):
        out -= lam * float(p @ x) * p
    return out


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
    return _deflated_matvec(ym, peers, lam, xv, np.empty(ym.shape[0]), np.empty(d))


def stochastic_parallel_deflation(provider: BatchProvider, n_components: int,
                                  n_rounds: int, local_steps: int,
                                  schedule: StepSchedule, seed: int,
                                  mode: str = "serial") -> RunTrace:
    """Streaming parallel deflation; deterministic given the seed."""
    d = provider.dim
    n = provider.batch_size
    if not 1 <= n_components <= d:
        raise ConfigError(f"K must lie in [1, {d}], got {n_components}")
    if local_steps < 1:
        raise ConfigError(f"local step count must be >= 1, got {local_steps}")
    eta = resolve_schedule(schedule, provider, n_rounds * local_steps, seed)

    def update(rnd, prev):
        def block(lo, hi):
            rows = np.empty((hi - lo, d))
            scratch_n, g = np.empty(n), np.empty(d)
            for r in range(lo, hi):
                k = r + 1
                peers = prev[:r]
                v = rows[r - lo]
                v[:] = prev[r]
                for t in range(1, local_steps + 1):
                    try:
                        y = np.ascontiguousarray(provider.batch(k, rnd, t),
                                                 dtype=np.float64)
                    except Exception as exc:
                        raise StreamError(
                            f"batch source failed at worker {k}, round {rnd}, "
                            f"step {t}: {exc}") from exc
                    if y.shape != (n, d):
                        raise StreamError(
                            f"batch at worker {k}, round {rnd}, step {t} has shape "
                            f"{y.shape}, expected {(n, d)}")
                    lams = [_batch_rayleigh(y, p, scratch_n) for p in peers]
                    _deflated_matvec(y, peers, lams, v, scratch_n, g)
                    g *= eta((rnd - 1) * local_steps + (t - 1))
                    g += v
                    nrm = float(np.sqrt(g @ g))
                    if not 1e-300 <= nrm < np.inf:
                        raise NumericalError(
                            f"update collapsed at worker {k}, round {rnd}, step {t}")
                    np.divide(g, nrm, out=v)
            return rows
        return block

    return run_round_synchronous(
        dim=d, n_workers=n_components, n_rounds=n_rounds, seed=seed,
        update=update, algorithm="stochastic_parallel_deflation",
        local_steps=local_steps, mode=mode)
