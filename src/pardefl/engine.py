"""Round-synchronous multi-worker execution core.

One run is L communication rounds over K workers. Worker k stays inactive
(re-broadcasting its frozen initial vector) until round k; from then on it
recomputes its estimate each round from the previous round's broadcast
snapshot. Within a round the worker updates are independent pure functions
of that immutable snapshot.

`run_round_synchronous` computes each round as one batched update of all
active workers, on the calling thread, in serial and thread mode alike, so
the two modes and `deflation.replay_round` issue the same calls on the same
operands and produce bitwise identical rounds. The only parallelism within
a round is that of the BLAS inside each product over the K rows. Each
round's broadcast then goes to a round sink: `StoredRounds`, the default,
keeps the (L, K, d) trace; `OracleScorer` keeps only the round's (K,)
recovery errors and `metrics.RayleighScorer` its discounted Rayleigh
score, so a scored run holds O(Kd) per round, not the trace.

`block_steps` is the one step loop: every engine round, `solvers.top1` (so
`pow_iter`, `hebb`, `sequential_deflation`) and both default step sizes run
it; `deflate`, `eigengame_*_grad` and `deflated_matvec` are per-vector
references. On the active worker rows X, without any d x d allocation, it forms

    G = X Op - (W o (X A^T)) B,

where W is the strictly lower-triangular peer mask (worker k uses peers
j < k) scaled per column. `dense_round_update`, the one update of the three
dense engines, uses Op = Sigma with A, B and the scale taken once per round
from the snapshot V: parallel deflation A = B = V, scale diag(V Sigma V^T);
EigenGame-mu A = V Sigma, B = V, scale 1; EigenGame-alpha A = B = V Sigma,
scale 1 / diag(V Sigma V^T). The streaming engine uses Op = Y^T Y per batch.
"""

import csv
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, NumericalError
from .io import atomic_write_bytes, save_pdm1
from .linalg import EigenSystem, as_int
from .seeding import unit_init

MODES = ("serial", "thread")


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
    """Per-round log of one run: every broadcast, or its scores only.

    vectors has shape (L, K, d): vectors[l-1, k-1] is worker k's broadcast
    after round l. A run scored as it went (`OracleScorer`,
    `metrics.RayleighScorer`) keeps no vectors, only final_vectors, the
    (K, d) broadcast after round L, which otherwise defaults to
    vectors[-1]. errors (shape (L, K)) holds sign-invariant distances to an
    attached ground-truth eigensystem, or None before `attach_oracle`.
    scores (shape (L,)) holds an oracle-free score per round, the
    discounted Rayleigh quotient, or None. oracle_reliable is cleared when
    the attached truth has (near-)repeated leading eigenvalues, in which
    case per-worker errors are not meaningful and schedule checks refuse
    the trace.
    """

    algorithm: str
    local_steps: int
    seed: int
    vectors: np.ndarray | None = None
    errors: np.ndarray | None = None
    variant: str | None = None
    oracle_reliable: bool = True
    final_vectors: np.ndarray | None = None
    scores: np.ndarray | None = None

    def __post_init__(self):
        if self.final_vectors is None:
            if self.vectors is None:
                raise ConfigError("a trace needs its per-round vectors or its final ones")
            object.__setattr__(self, "final_vectors", self.vectors[-1])
        if self.vectors is None and self.errors is None and self.scores is None:
            raise ConfigError("a trace without per-round vectors needs its errors "
                              "or its scores")

    @property
    def n_rounds(self) -> int:
        per_round = next(a for a in (self.vectors, self.errors, self.scores)
                         if a is not None)
        return per_round.shape[0]

    @property
    def n_workers(self) -> int:
        return self.final_vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.final_vectors.shape[1]

    def round_vectors(self) -> np.ndarray:
        """The (L, K, d) broadcasts; a ConfigError on a trace scored as it ran."""
        if self.vectors is None:
            raise ConfigError("this trace was scored as it ran and keeps no "
                              "per-round vectors; rerun without a round sink")
        return self.vectors

    def active(self) -> np.ndarray:
        """Boolean (L, K) activation mask: worker k is active from round k on."""
        rounds = np.arange(1, self.n_rounds + 1)[:, None]
        workers = np.arange(1, self.n_workers + 1)[None, :]
        return workers <= rounds

    def worker_state(self, k: int, rnd: int) -> WorkerState:
        """Reconstruct worker k's state after round rnd (both 1-based)."""
        vectors = self.round_vectors()
        if not 1 <= k <= self.n_workers:
            raise ConfigError(f"worker index must lie in [1, {self.n_workers}]")
        if not 1 <= rnd <= self.n_rounds:
            raise ConfigError(f"round must lie in [1, {self.n_rounds}]")
        return WorkerState(index=k, v_init=unit_init(self.seed, k, self.dim),
                           v_current=vectors[rnd - 1, k - 1],
                           rounds_active=max(0, rnd - k + 1))


class StoredRounds:
    """The default round sink: keeps every broadcast in one (L, K, d) array."""

    def __init__(self, n_rounds: int, n_workers: int, dim: int):
        self.vectors = np.empty((n_rounds, n_workers, dim))

    def __call__(self, rnd: int, snapshot: np.ndarray) -> None:
        self.vectors[rnd - 1] = snapshot

    def finish(self, final: np.ndarray) -> dict:
        """The `RunTrace` fields this sink fills."""
        self.vectors.setflags(write=False)
        return {"vectors": self.vectors}


class OracleScorer:
    """Round sink that scores each broadcast as it is made and keeps no vectors.

    Round l's errors are min over sign of ||v_{k,l} -+ u_k||, computed as
    np.linalg.norm computes them, in five numpy calls per round: v - u and
    v + u into one (2, K, d) scratch buffer, squared in place, summed along
    d, and the smaller sum kept. `finish` takes the square roots of all
    rounds at once; sqrt is monotone, so the root of the minimum is the
    minimum of the roots. Every operation is elementwise or reduces along
    d, so the errors equal those of a whole-trace computation, bit for bit.
    The trace is marked unreliable when the leading part of the oracle
    spectrum has (near-)repeated eigenvalues, since per-index comparisons
    are then ill-posed.
    """

    def __init__(self, truth: EigenSystem, n_rounds: int, n_workers: int,
                 min_rel_gap: float = 1e-8):
        if n_workers > truth.vectors.shape[0]:
            raise ConfigError(f"trace has {n_workers} workers but the oracle only "
                              f"holds {truth.vectors.shape[0]} vectors")
        self._top = truth.vectors[:n_workers]
        self._scratch = np.empty((2, n_workers, truth.dim))
        self._squares = np.empty((2, n_workers))
        self.errors = np.empty((n_rounds, n_workers))
        lead = truth.values[: min(n_workers + 1, truth.values.shape[0])]
        scale = max(float(np.max(np.abs(lead))), 1e-300)
        self.reliable = bool(np.all(np.diff(lead) < -min_rel_gap * scale))

    def __call__(self, rnd: int, snapshot: np.ndarray) -> None:
        scratch, squares = self._scratch, self._squares
        if snapshot.shape != scratch.shape[1:]:
            raise ConfigError(f"dimension mismatch: broadcast {snapshot.shape}, "
                              f"oracle {scratch.shape[1:]}")
        np.subtract(snapshot, self._top, out=scratch[0])
        np.add(snapshot, self._top, out=scratch[1])
        np.multiply(scratch, scratch, out=scratch)
        np.add.reduce(scratch, axis=2, out=squares)
        np.minimum(squares[0], squares[1], out=self.errors[rnd - 1])

    def finish(self, final: np.ndarray) -> dict:
        """The `RunTrace` fields this sink fills; call it once, after the last round."""
        np.sqrt(self.errors, out=self.errors)
        self.errors.setflags(write=False)
        return {"final_vectors": final, "errors": self.errors,
                "oracle_reliable": self.reliable}


def next_round(update, rnd: int, prev: np.ndarray) -> np.ndarray:
    """Broadcast state after round `rnd`, computed from the snapshot `prev`.

    `update(rnd, active)` gets the active rows `prev[:min(rnd, K)]` and
    returns their new vectors. Inactive rows keep their previous broadcast,
    their frozen initial vector.
    """
    n_active = min(rnd, prev.shape[0])
    rows = update(rnd, prev[:n_active])
    # copied after the update, so its scratch and the copy are never both held
    cur = prev.copy()
    cur[:n_active] = rows
    return cur


def run_round_synchronous(*, dim, n_workers, n_rounds, seed, update,
                          algorithm, local_steps, variant=None,
                          mode="serial", on_round=None) -> RunTrace:
    """Drive `update(round, active) -> new active rows` across all rounds.

    `active` is the active rows of the read-only (K, d) broadcast state of
    the previous round (round 0 holds the frozen initial vectors); see
    `next_round`. Every round runs on the calling thread; `mode` "serial"
    and "thread" give the same calls and so bitwise the same trace. It
    checks the run's shape and seed for every round-synchronous engine
    (`linalg.as_int`): integers with 1 <= K <= d, T >= 1, L >= K and
    seed >= 0; the trace records them as those ints.

    `on_round(rnd, broadcast)` receives each round's read-only broadcast
    once the round ends, and its `finish(final)` gives the trace's fields
    (`StoredRounds`, the default, `OracleScorer` or
    `metrics.RayleighScorer`). It runs in round order.
    """
    if mode not in MODES:
        raise ConfigError(f"unknown engine mode {mode!r}")
    n_workers = as_int(n_workers, "K", 1, dim)
    local_steps = as_int(local_steps, "local step count", 1)
    n_rounds = as_int(n_rounds, "L", n_workers)
    seed = as_int(seed, "seed", 0)
    prev = np.stack([unit_init(seed, k, dim) for k in range(1, n_workers + 1)])
    prev.setflags(write=False)

    sink = StoredRounds(n_rounds, n_workers, dim) if on_round is None else on_round
    for rnd in range(1, n_rounds + 1):
        prev = next_round(update, rnd, prev)
        prev.setflags(write=False)
        sink(rnd, prev)
    return RunTrace(algorithm=algorithm, local_steps=local_steps, seed=seed,
                    variant=variant, **sink.finish(prev))


def block_steps(x, rnd, steps, terms, eta=None) -> np.ndarray:
    """Run `steps` local steps on the active worker rows x in round rnd.

    `terms(t, X)` gives step t's X Op, peer weights W (None without peers)
    and peers A, B. A row x goes to G/||G|| if eta is None (power iteration),
    else to (x + eta(t) G)/||.||; a zero or non-finite norm is a NumericalError.
    """
    for t in range(1, steps + 1):
        x_op, weights, a, b = terms(t, x)
        g = x_op if weights is None else x_op - (weights * (x @ a.T)) @ b
        if eta is not None:
            g = x + eta(t) * g
        norms = np.sqrt(np.einsum("ij,ij->i", g, g))
        for i, nrm in enumerate(norms.tolist()):
            if not 1e-300 <= nrm < np.inf:
                raise NumericalError(f"worker {i + 1}, round {rnd}, step {t}: "
                                     "update collapsed to zero or non-finite")
        x = g / norms[:, None]
    return x


def dense_round_update(sigma: np.ndarray, penalty: str, *, steps: int,
                       eta: float | None = None, align: bool = False):
    """The round update of the three dense engines, for `next_round`.

    penalty "deflation", "mu" or "alpha" picks A, B and the column scale
    (module docstring) of the `steps` local steps of `block_steps`: power
    steps if eta is None, else ascent steps of size eta (Hebb, EigenGame).
    With `align` each row is then flipped to a non-negative inner product
    with its warm start. `sigma` must be checked and exactly symmetric.
    """
    if penalty not in ("deflation", "mu", "alpha"):
        raise ConfigError(f"unknown dense penalty {penalty!r}")
    step_size = None if eta is None else (lambda t: eta)

    def update(rnd, active):
        # rows v_j Sigma of the active snapshot; they also serve the first
        # step's X Sigma
        v_sigma = active @ sigma
        peers, peers_sigma = active[:-1], v_sigma[:-1]
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
        m = peers.shape[0]
        weights = np.tri(m + 1, m, k=-1) * scale if m else None

        def terms(t, x):
            return (v_sigma if t == 1 else x @ sigma), weights, a, b

        x = block_steps(active, rnd, steps, terms, step_size)
        if align:
            x[np.einsum("ij,ij->i", x, active) < 0.0] *= -1.0
        return x

    return update


def attach_oracle(trace: RunTrace, truth: EigenSystem,
                  min_rel_gap: float = 1e-8) -> RunTrace:
    """Fill per-round recovery errors min over sign of ||v_{k,l} -+ u_k||.

    Runs an `OracleScorer` over the stored rounds, so the call allocates the
    (L, K) result plus one round's scratch, and its errors are bitwise those
    of a run scored as it went.
    """
    vectors = trace.round_vectors()
    scorer = OracleScorer(truth, *vectors.shape[:2], min_rel_gap)
    for rnd, snapshot in enumerate(vectors, 1):
        scorer(rnd, snapshot)
    return replace(trace, **scorer.finish(trace.final_vectors))


def export_trace_csv(trace: RunTrace, path) -> None:
    """Write `round,worker,error,active` rows (plus `variant` for game runs)
    and a sidecar PDM1 file holding the final broadcast vectors. The rows
    are formatted and written a round at a time."""
    sidecar = Path(path).with_suffix(".pdm1")
    if sidecar == Path(path):
        raise ConfigError(f"trace CSV path {path} is its own .pdm1 sidecar")
    header = ["round", "worker", "error", "active"]
    if trace.variant is not None:
        header.append("variant")
    active = trace.active()

    def rounds():
        yield ",".join(header) + "\n"
        for l in range(trace.n_rounds):
            lines = []
            for k in range(trace.n_workers):
                err = "" if trace.errors is None else repr(float(trace.errors[l, k]))
                row = [str(l + 1), str(k + 1), err, str(int(active[l, k]))]
                if trace.variant is not None:
                    row.append(trace.variant)
                lines.append(",".join(row) + "\n")
            yield "".join(lines)

    atomic_write_bytes(path, map(str.encode, rounds()))
    save_pdm1(sidecar, trace.final_vectors)


def read_trace_csv(path) -> list[dict]:
    """Round-trip reader for the trace CSV schema (used by tests and tools)."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))
