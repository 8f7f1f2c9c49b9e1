"""Deterministic stream derivation.

Every random quantity in the package is drawn from a generator keyed by
(seed, *path) through a SeedSequence, so per-worker and per-batch streams
are independent: adding workers, rounds, or local steps never perturbs the
streams of existing ones, and any stream can be replayed in isolation.
Initial vectors are keyed per worker. Batch providers key their batches by
(worker, round, step), but the streaming engine reads only worker 1's key
at each (round, step): every worker reads that one shared batch, as in
model-parallel EigenGame, which samples K times fewer rows per step than
one batch per worker.
"""

import numpy as np

from .errors import ConfigError, NumericalError

ETA_STREAM = 982451653  # start vector of `solvers._top_direction`, drawn only there


def rng_for(seed: int, *path: int) -> np.random.Generator:
    """Generator for the stream keyed by (seed, *path); all keys must be >= 0."""
    key = [int(seed), *(int(p) for p in path)]
    if any(k < 0 for k in key):
        raise ConfigError(f"stream key components must be non-negative, got {key}")
    return np.random.default_rng(np.random.SeedSequence(key))


def unit_init(seed: int, worker: int, dim: int) -> np.ndarray:
    """Isotropic-Gaussian unit-norm initial vector for one worker."""
    v = rng_for(seed, worker).standard_normal(dim)
    nrm = float(np.sqrt(v @ v))
    if nrm < 1e-300:
        raise NumericalError(f"degenerate initial vector for worker {worker}")
    return v / nrm
