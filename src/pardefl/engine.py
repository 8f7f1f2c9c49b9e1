"""Round-synchronous multi-worker execution core.

One run is L communication rounds over K workers. Worker k stays inactive
(re-broadcasting its frozen initial vector) until round k; from then on it
recomputes its estimate each round from the previous round's broadcast
snapshot. Within a round the worker updates are independent pure functions
of that immutable snapshot.

`run_round_synchronous` splits the workers into fixed row blocks of
`BLOCK_ROWS` rows, a partition that depends only on K. Each round it asks
the engine's update for the new vectors of every active block; thread mode
maps the same blocks onto at most min(n_blocks, cpu count) threads. Serial
mode, thread mode and `deflation.replay_round` therefore issue the same
calls on the same operands and produce bitwise identical rounds.

`dense_round_update` is the one update of the three dense engines. For a
block of worker rows X it computes, per local step and without any d x d
allocation,

    G = X Sigma - (M o (X A^T)) B,

where M is the strictly lower-triangular peer mask (worker k uses peers
j < k) scaled per column, and A, B and the column scale come once per round
from the snapshot: parallel deflation uses A = B = V with scale
diag(V Sigma V^T), EigenGame-mu A = V Sigma, B = V with scale 1, and
EigenGame-alpha A = B = V Sigma with scale 1 / diag(V Sigma V^T).
"""

import csv
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, NumericalError
from .io import atomic_write_text, save_pdm1
from .linalg import EigenSystem
from .seeding import unit_init

MODES = ("serial", "thread")
BLOCK_ROWS = 8  # worker rows per block; fixed so every mode issues the same calls


@dataclass(frozen=True)
class WorkerState:
    """One worker's view after a given round.

    Until its own index comes up (rounds_active == 0) the worker just
    re-broadcasts its frozen initial vector, so v_current equals v_init.
    """

    index: int
    v_init: np.ndarray
    v_current: np.ndarray
    rounds_active: int


@dataclass(frozen=True)
class RunTrace:
    """Per-round log of all broadcast worker vectors for one run.

    vectors has shape (L, K, d): vectors[l-1, k-1] is worker k's broadcast
    after round l. errors (same leading shape) holds sign-invariant
    distances to an attached ground-truth eigensystem, or None before
    `attach_oracle`. oracle_reliable is cleared when the attached truth has
    (near-)repeated leading eigenvalues, in which case per-worker errors are
    not meaningful and schedule checks refuse the trace.
    """

    algorithm: str
    local_steps: int
    seed: int
    vectors: np.ndarray
    errors: np.ndarray | None = None
    variant: str | None = None
    oracle_reliable: bool = True

    @property
    def n_rounds(self) -> int:
        return self.vectors.shape[0]

    @property
    def n_workers(self) -> int:
        return self.vectors.shape[1]

    @property
    def dim(self) -> int:
        return self.vectors.shape[2]

    @property
    def final_vectors(self) -> np.ndarray:
        return self.vectors[-1]

    def active(self) -> np.ndarray:
        """Boolean (L, K) activation mask: worker k is active from round k on."""
        rounds = np.arange(1, self.n_rounds + 1)[:, None]
        workers = np.arange(1, self.n_workers + 1)[None, :]
        return workers <= rounds

    def worker_state(self, k: int, rnd: int) -> WorkerState:
        """Reconstruct worker k's state after round rnd (both 1-based)."""
        if not 1 <= k <= self.n_workers:
            raise ConfigError(f"worker index must lie in [1, {self.n_workers}]")
        if not 1 <= rnd <= self.n_rounds:
            raise ConfigError(f"round must lie in [1, {self.n_rounds}]")
        return WorkerState(index=k, v_init=unit_init(self.seed, k, self.dim),
                           v_current=self.vectors[rnd - 1, k - 1],
                           rounds_active=max(0, rnd - k + 1))


def row_blocks(n_workers: int) -> list[tuple[int, int]]:
    """Fixed [lo, hi) row blocks of the workers; they depend only on K."""
    return [(lo, min(lo + BLOCK_ROWS, n_workers))
            for lo in range(0, n_workers, BLOCK_ROWS)]


def next_round(update, rnd: int, prev: np.ndarray, map_fn=map) -> np.ndarray:
    """Broadcast state after round `rnd`, computed from the snapshot `prev`.

    `update(rnd, prev)` prepares the round and returns `block(lo, hi)`, the
    new vectors of worker rows lo..hi-1 (workers lo+1..hi), all active.
    Inactive rows keep their previous broadcast, their frozen initial vector.
    `map_fn` runs the active blocks, serially or on a thread pool.
    """
    n_active = min(rnd, prev.shape[0])
    block = update(rnd, prev)
    spans = [(lo, min(hi, n_active)) for lo, hi in row_blocks(prev.shape[0])
             if lo < n_active]
    cur = prev.copy()
    for (lo, hi), rows in zip(spans, map_fn(lambda span: block(*span), spans)):
        cur[lo:hi] = rows
    return cur


def run_round_synchronous(*, dim, n_workers, n_rounds, seed, update,
                          algorithm, local_steps, variant=None,
                          mode="serial") -> RunTrace:
    """Drive `update(round, snapshot) -> block(lo, hi)` across all rounds.

    `snapshot` is the read-only (K, d) broadcast state of the previous round
    (round 0 holds the frozen initial vectors); see `next_round`. Thread
    mode runs the active row blocks of a round on at most
    min(n_blocks, cpu count) threads.
    """
    if mode not in MODES:
        raise ConfigError(f"unknown engine mode {mode!r}")
    if n_workers < 1:
        raise ConfigError(f"need at least one worker, got {n_workers}")
    if n_rounds < n_workers:
        raise ConfigError(
            f"need at least as many rounds as workers, got L={n_rounds} < K={n_workers}")
    prev = np.stack([unit_init(seed, k, dim) for k in range(1, n_workers + 1)])
    prev.setflags(write=False)

    out = np.empty((n_rounds, n_workers, dim))
    pool = None
    if mode == "thread":
        pool = ThreadPoolExecutor(
            max_workers=min(len(row_blocks(n_workers)), os.cpu_count() or 1))
    try:
        for rnd in range(1, n_rounds + 1):
            prev = next_round(update, rnd, prev,
                              map if pool is None else pool.map)
            prev.setflags(write=False)
            out[rnd - 1] = prev
    finally:
        if pool is not None:
            pool.shutdown(wait=True)
    out.setflags(write=False)
    return RunTrace(algorithm=algorithm, local_steps=local_steps, seed=seed,
                    vectors=out, variant=variant)


def dense_round_update(sigma: np.ndarray, penalty: str, *, steps: int,
                       eta: float | None = None, align: bool = False):
    """The round update of the three dense engines, for `next_round`.

    penalty "deflation", "mu" or "alpha" picks A, B and the column scale of
    G = X Sigma - (M o (X A^T)) B (module docstring). Each of the `steps`
    local steps maps every row x of a block to G/||G|| when eta is None
    (power iteration) and to (x + eta G)/||.|| otherwise (Hebb's rule and
    EigenGame ascent); a zero or non-finite norm is a NumericalError. With
    `align` each result row is then flipped to a non-negative inner product
    with its warm start. `sigma` must be checked and exactly symmetric; no
    d x d array is allocated.
    """
    if penalty not in ("deflation", "mu", "alpha"):
        raise ConfigError(f"unknown dense penalty {penalty!r}")

    def update(rnd, prev):
        n_active = min(rnd, prev.shape[0])
        # rows v_j Sigma of the active snapshot; they also serve the first
        # step's X Sigma
        v_sigma = prev[:n_active] @ sigma
        peers, peers_sigma = prev[: n_active - 1], v_sigma[: n_active - 1]
        rq = np.einsum("ij,ij->i", peers_sigma, peers)
        if penalty == "deflation":
            a, b, scale = peers, peers, rq
        elif penalty == "mu":
            a, b, scale = peers_sigma, peers, np.ones_like(rq)
        else:
            vanishing = np.flatnonzero(rq <= 1e-12)
            if vanishing.size:
                j = int(vanishing[0])
                raise NumericalError(
                    f"worker {j + 2}, round {rnd}: peer {j + 1} has vanishing "
                    f"Rayleigh quotient {float(rq[j])!r}")
            a, b, scale = peers_sigma, peers_sigma, 1.0 / rq

        def block(lo, hi):
            m = hi - 1  # peers of the block's last row
            weights = np.tri(hi - lo, m, k=lo - 1) * scale[:m]
            x, xs = prev[lo:hi], v_sigma[lo:hi]
            for step in range(steps):
                if step:
                    xs = x @ sigma
                g = xs - (weights * (x @ a[:m].T)) @ b[:m] if m else xs
                if eta is not None:
                    g = x + eta * g
                norms = np.sqrt(np.einsum("ij,ij->i", g, g))
                for i, nrm in enumerate(norms.tolist()):
                    if not 1e-300 <= nrm < np.inf:
                        raise NumericalError(
                            f"worker {lo + i + 1}, round {rnd}: "
                            "update collapsed to zero or non-finite")
                x = g / norms[:, None]
            if align:
                x[np.einsum("ij,ij->i", x, prev[lo:hi]) < 0.0] *= -1.0
            return x

        return block

    return update


def attach_oracle(trace: RunTrace, truth: EigenSystem,
                  min_rel_gap: float = 1e-8) -> RunTrace:
    """Fill per-round recovery errors min over sign of ||v_{k,l} -+ u_k||.

    Marks the trace unreliable when the leading part of the oracle spectrum
    has (near-)repeated eigenvalues, since per-index comparisons are then
    ill-posed.
    """
    k = trace.n_workers
    if k > truth.vectors.shape[0]:
        raise ConfigError(
            f"trace has {k} workers but the oracle only holds {truth.vectors.shape[0]} vectors")
    if truth.dim != trace.dim:
        raise ConfigError(
            f"dimension mismatch: trace d={trace.dim}, oracle d={truth.dim}")
    top = truth.vectors[:k]
    # ||v -+ u|| as np.linalg.norm computes it, through one (L, K, d) buffer
    buf = np.empty(trace.vectors.shape)
    dists = []
    for op in (np.subtract, np.add):
        op(trace.vectors, top, out=buf)
        np.multiply(buf, buf, out=buf)
        dists.append(np.sqrt(np.add.reduce(buf, axis=2)))
    errors = np.minimum(*dists)
    errors.setflags(write=False)

    lead = truth.values[: min(k + 1, truth.values.shape[0])]
    scale = max(float(np.max(np.abs(lead))), 1e-300)
    reliable = bool(np.all(np.diff(lead) < -min_rel_gap * scale))
    return replace(trace, errors=errors, oracle_reliable=reliable)


def export_trace_csv(trace: RunTrace, path) -> None:
    """Write `round,worker,error,active` rows (plus `variant` for game runs)
    and a sidecar PDM1 file holding the final broadcast vectors."""
    header = ["round", "worker", "error", "active"]
    if trace.variant is not None:
        header.append("variant")
    active = trace.active()
    lines = [",".join(header)]
    for l in range(trace.n_rounds):
        for k in range(trace.n_workers):
            err = "" if trace.errors is None else repr(float(trace.errors[l, k]))
            row = [str(l + 1), str(k + 1), err, str(int(active[l, k]))]
            if trace.variant is not None:
                row.append(trace.variant)
            lines.append(",".join(row))
    atomic_write_text(path, "\n".join(lines) + "\n")
    save_pdm1(Path(path).with_suffix(".pdm1"), trace.final_vectors)


def read_trace_csv(path) -> list[dict]:
    """Round-trip reader for the trace CSV schema (used by tests and tools)."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))
