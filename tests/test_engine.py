"""The batched dense round against a per-worker reference, its error
messages, the run-shape checks, the round sinks of
`run_round_synchronous`, and `attach_oracle` against the whole-array
distances."""

import threading

import numpy as np
import pytest

from pardefl import (ConfigError, EigenSystem, NumericalError, StepSchedule,
                     Top1Config, attach_oracle, deflate, eigengame_alpha_grad,
                     eigengame_mu_grad, normalize, parallel_deflation,
                     replay_round, run_eigengame, stochastic_parallel_deflation,
                     top1, unit_init)
from pardefl import engine
from pardefl.deflation import _round_update
from pardefl.metrics import (RayleighScorer, discounted_rayleigh, gaussian_stream,
                             random_covariance)

# rounds 1..9 leave workers idle; the reference comparison covers those
# idle rows too
D, K, L = 24, 10, 12


def _reference_round(prev, rnd, step):
    """Round `rnd` worker by worker: step(peers, warm) for each active worker."""
    out = prev.copy()
    for k in range(1, min(rnd, prev.shape[0]) + 1):
        out[k - 1] = step(prev[: k - 1], prev[k - 1])
    return out


def _ascent(sigma, grad, steps, eta):
    def step(peers, warm):
        x = warm
        for _ in range(steps):
            x = normalize(x + eta * grad(sigma, x, peers))
        return x
    return step


def _max_round_deviation(trace, step):
    prev = np.stack([unit_init(trace.seed, k, trace.dim)
                     for k in range(1, trace.n_workers + 1)])
    worst = 0.0
    for rnd in range(1, trace.n_rounds + 1):
        expect = _reference_round(prev, rnd, step)
        worst = max(worst, float(np.max(np.abs(trace.vectors[rnd - 1] - expect))))
        prev = trace.vectors[rnd - 1]
    return worst


@pytest.fixture(scope="module")
def sigma():
    return random_covariance(np.linspace(2.0, 0.1, D), seed=3)[0]


@pytest.mark.parametrize("cfg", [Top1Config(steps=3),
                                 Top1Config(method="hebb", steps=3, eta=0.4),
                                 Top1Config(steps=2, sign_align_output=False)],
                         ids=["power", "hebb", "power-unaligned"])
def test_deflation_matches_per_worker_reference(sigma, cfg):
    trace = parallel_deflation(sigma, K, L, cfg, seed=5)
    assert _max_round_deviation(trace, lambda p, w: top1(deflate(sigma, p), w, cfg)) <= 1e-12


@pytest.mark.parametrize("variant, grad", [("mu", eigengame_mu_grad),
                                           ("alpha", eigengame_alpha_grad)])
def test_eigengame_matches_per_worker_reference(sigma, variant, grad):
    trace = run_eigengame(variant, sigma, K, L, 3, eta=0.2, seed=6)
    assert _max_round_deviation(trace, _ascent(sigma, grad, 3, 0.2)) <= 1e-12


def test_alpha_vanishing_peer_named():
    # on the zero matrix worker 1 keeps its start vector, whose Rayleigh
    # quotient is 0; worker 2 first uses it as a peer in round 2
    with pytest.raises(NumericalError,
                       match="worker 2, round 2: peer 1 has vanishing Rayleigh quotient"):
        run_eigengame("alpha", np.zeros((3, 3)), 2, 3, 1, eta=0.1, seed=0)


def test_alpha_unused_peer_not_checked():
    # worker 1's quotient vanishes but no worker uses it as a peer
    trace = run_eigengame("alpha", np.zeros((3, 3)), 1, 3, 1, eta=0.1, seed=0)
    assert np.array_equal(trace.final_vectors[0], unit_init(0, 1, 3))


def test_collapsed_update_named():
    # x + 0.5 (-2 x) is exactly zero
    with pytest.raises(NumericalError, match="worker 1, round 1, step 1: update collapsed to zero"):
        run_eigengame("mu", -2.0 * np.eye(3), 1, 1, 1, eta=0.5, seed=0)


# every engine leaves K and T to the round driver; Top1Config itself
# rejects a zero step count for parallel deflation
RUNS = {
    "parallel_deflation": lambda s, k, t: parallel_deflation(
        s, k, D + 2, Top1Config(steps=t), seed=0),
    "eigengame_alpha": lambda s, k, t: run_eigengame("alpha", s, k, D + 2, t, eta=0.1),
    "eigengame_mu": lambda s, k, t: run_eigengame("mu", s, k, D + 2, t, eta=0.1),
    "stochastic_parallel_deflation": lambda s, k, t: stochastic_parallel_deflation(
        gaussian_stream(s, 8, 0), k, D + 2, t, StepSchedule(), seed=0),
}


@pytest.mark.parametrize("run", RUNS.values(), ids=RUNS.keys())
@pytest.mark.parametrize("k, t, text", [(0, 1, r"K must lie in \[1, 24\], got 0"),
                                        (D + 1, 1, r"K must lie in \[1, 24\], got 25"),
                                        (2, 0, r"step.* must be >= 1, got 0")],
                         ids=["K=0", "K=d+1", "T=0"])
def test_run_shape_rejected(sigma, run, k, t, text):
    with pytest.raises(ConfigError, match=text):
        run(sigma, k, t)


def test_run_shape_checked_before_any_batch():
    class Down:
        batch_size, dim = 4, 3

        def batch(self, worker, rnd, step):
            raise RuntimeError("source down")

    with pytest.raises(ConfigError, match="K must lie"):
        stochastic_parallel_deflation(Down(), 4, 5, 1, StepSchedule(), seed=0)


@pytest.mark.parametrize("call, text", [
    (lambda s: parallel_deflation(s, 2.0, 5, Top1Config(), seed=0),
     r"^K must be an integer, got 2\.0$"),
    (lambda s: parallel_deflation(s, 2, 5.5, Top1Config(), seed=0),
     r"^L must be an integer, got 5\.5$"),
    (lambda s: run_eigengame("mu", s, 2, 5, 2.5, eta=0.1, seed=0),
     r"^local step count must be an integer, got 2\.5$"),
    (lambda s: stochastic_parallel_deflation(gaussian_stream(s, 8, 0), 2, 5, 1.5,
                                             StepSchedule(), seed=0),
     r"^local step count must be an integer, got 1\.5$"),
], ids=["K-float", "L-float", "eigengame-T-float", "streaming-T-float"])
def test_non_integer_run_shape_rejected(sigma, call, text):
    with pytest.raises(ConfigError, match=text):
        call(sigma)


def test_thread_mode_starts_no_thread(sigma):
    # a round is one update on the calling thread in either mode, so the
    # count read as each round ends stays at the count before the run
    before = threading.active_count()
    counts = []

    class Counting(engine.StoredRounds):
        def __call__(self, rnd, snapshot):
            counts.append(threading.active_count())
            super().__call__(rnd, snapshot)

    cfg = Top1Config(steps=2)
    threaded = parallel_deflation(sigma, 16, 18, cfg, seed=8, mode="thread",
                                  on_round=Counting(18, 16, D))
    serial = parallel_deflation(sigma, 16, 18, cfg, seed=8, mode="serial")
    assert counts == [before] * 18
    assert np.array_equal(threaded.vectors, serial.vectors)


def _oracle(d, seed=0):
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    return EigenSystem(values=np.linspace(2.0, 0.1, d), vectors=q.T)


class TestAttachOracleRounds:
    """`attach_oracle` runs the per-round scorer over a stored trace; every
    round must give the whole-array distances bit for bit."""

    D = 64

    @pytest.mark.parametrize("k, n_rounds", [(4, 1), (4, 2), (4, 300), (1, 300)],
                             ids=["one-round", "two-rounds", "many-rounds", "one-worker"])
    def test_matches_whole_array_distances(self, k, n_rounds):
        truth = _oracle(self.D)
        vectors = np.random.default_rng(n_rounds).standard_normal((n_rounds, k, self.D))
        trace = engine.RunTrace(algorithm="parallel_deflation", local_steps=1,
                                seed=0, vectors=vectors)
        errors = attach_oracle(trace, truth).errors
        top = truth.vectors[:k]
        expect = np.minimum(np.linalg.norm(vectors - top, axis=2),
                            np.linalg.norm(vectors + top, axis=2))
        assert errors.shape == (n_rounds, k) and not errors.flags.writeable
        assert errors.tobytes() == expect.tobytes()

    def test_scorer_refuses_a_wrong_shape(self):
        scorer = engine.OracleScorer(_oracle(8), n_rounds=3, n_workers=2)
        with pytest.raises(ConfigError, match=r"dimension mismatch: broadcast \(2, 9\)"):
            scorer(1, np.zeros((2, 9)))


# the four round-synchronous engines, with or without a round sink
SINK_RUNS = {
    "parallel_deflation": lambda s, mode, sink: parallel_deflation(
        s, K, L, Top1Config(steps=2), seed=4, mode=mode, on_round=sink),
    "eigengame_alpha": lambda s, mode, sink: run_eigengame(
        "alpha", s, K, L, 2, eta=0.2, seed=4, mode=mode, on_round=sink),
    "eigengame_mu": lambda s, mode, sink: run_eigengame(
        "mu", s, K, L, 2, eta=0.2, seed=4, mode=mode, on_round=sink),
    "stochastic_parallel_deflation": lambda s, mode, sink: stochastic_parallel_deflation(
        gaussian_stream(s, 16, 4), K, L, 2, StepSchedule(), seed=4, mode=mode,
        on_round=sink),
}


class TestRoundSink:
    @pytest.fixture(scope="class")
    def problem(self):
        return random_covariance(np.linspace(2.0, 0.1, D), seed=3)

    @pytest.mark.parametrize("mode", ["serial", "thread"])
    @pytest.mark.parametrize("run", SINK_RUNS.values(), ids=SINK_RUNS.keys())
    def test_scored_run_equals_attached_stored_run(self, problem, run, mode):
        sigma, truth = problem
        stored = attach_oracle(run(sigma, mode, None), truth)
        scored = run(sigma, mode, engine.OracleScorer(truth, L, K))
        assert scored.vectors is None and stored.vectors.shape == (L, K, D)
        assert scored.errors.tobytes() == stored.errors.tobytes()
        assert not scored.errors.flags.writeable
        assert scored.final_vectors.tobytes() == stored.final_vectors.tobytes()
        assert scored.oracle_reliable == stored.oracle_reliable
        assert (scored.n_rounds, scored.n_workers, scored.dim) == (L, K, D)
        assert np.array_equal(scored.active(), stored.active())
        assert (scored.algorithm, scored.local_steps, scored.seed, scored.variant) == (
            stored.algorithm, stored.local_steps, stored.seed, stored.variant)

    @pytest.mark.parametrize("name, update", [
        ("parallel_deflation", lambda s: _round_update(s, Top1Config(steps=2))),
        ("eigengame_alpha", lambda s: engine.dense_round_update(s, "alpha", steps=2, eta=0.2)),
        ("eigengame_mu", lambda s: engine.dense_round_update(s, "mu", steps=2, eta=0.2)),
    ], ids=["parallel_deflation", "eigengame_alpha", "eigengame_mu"])
    def test_default_sink_stores_every_round(self, problem, name, update):
        sigma = problem[0]
        trace = SINK_RUNS[name](sigma, "serial", None)
        prev = np.stack([unit_init(4, k, D) for k in range(1, K + 1)])
        expect = []
        for rnd in range(1, L + 1):
            prev = engine.next_round(update(sigma), rnd, prev)
            expect.append(prev)
        assert trace.vectors.tobytes() == np.stack(expect).tobytes()
        assert not trace.vectors.flags.writeable
        assert trace.final_vectors.tobytes() == trace.vectors[-1].tobytes()
        assert trace.errors is None

    def test_scored_trace_has_no_rounds_to_read(self, problem):
        sigma, truth = problem
        cfg = Top1Config(steps=2)
        trace = SINK_RUNS["parallel_deflation"](sigma, "serial",
                                                engine.OracleScorer(truth, L, K))
        for read in (lambda: trace.worker_state(1, 1),
                     lambda: replay_round(sigma, trace, 2, cfg),
                     lambda: attach_oracle(trace, truth)):
            with pytest.raises(ConfigError, match="keeps no per-round vectors"):
                read()

    def test_trace_needs_vectors_or_errors(self):
        with pytest.raises(ConfigError, match="per-round vectors or its final ones"):
            engine.RunTrace(algorithm="parallel_deflation", local_steps=1, seed=0)
        with pytest.raises(ConfigError, match="needs its errors"):
            engine.RunTrace(algorithm="parallel_deflation", local_steps=1, seed=0,
                            final_vectors=np.eye(2))

    @pytest.mark.parametrize("mode", ["serial", "thread"])
    @pytest.mark.parametrize("run", SINK_RUNS.values(), ids=SINK_RUNS.keys())
    def test_rayleigh_scored_run_equals_scored_stored_run(self, problem, run, mode):
        sigma = problem[0]
        y = np.random.default_rng(8).standard_normal((50, D)) * np.linspace(2.0, 0.1, D)
        gram = y.T @ y
        stored = run(sigma, mode, None)
        from_rows = run(sigma, mode, RayleighScorer(L, K, data=y))
        from_gram = run(sigma, mode, RayleighScorer(L, K, gram=gram, n_rows=50))
        for scored in (from_rows, from_gram):
            assert scored.vectors is None and scored.errors is None
            assert not scored.scores.flags.writeable
            assert scored.final_vectors.tobytes() == stored.final_vectors.tobytes()
            assert (scored.n_rounds, scored.n_workers, scored.dim) == (L, K, D)
        # the rows path runs discounted_rayleigh's per-round operations
        expect = discounted_rayleigh(stored.vectors, data=y)
        assert from_rows.scores.tobytes() == expect.tobytes()
        dense = discounted_rayleigh(stored.vectors, sigma=gram / 50)
        assert np.max(np.abs(from_gram.scores - dense) / dense) <= 1e-13

    def test_rayleigh_scored_trace_has_no_rounds_to_read(self, problem):
        sigma, truth = problem
        cfg = Top1Config(steps=2)
        trace = SINK_RUNS["parallel_deflation"](
            sigma, "serial", RayleighScorer(L, K, gram=sigma, n_rows=1))
        assert trace.n_rounds == L
        for read in (lambda: trace.round_vectors(),
                     lambda: trace.worker_state(1, 1),
                     lambda: replay_round(sigma, trace, 2, cfg),
                     lambda: attach_oracle(trace, truth)):
            with pytest.raises(ConfigError, match="keeps no per-round vectors"):
                read()

    @pytest.mark.parametrize("width", [D - 1, D + 1])
    @pytest.mark.parametrize("source", ["gram", "data"])
    def test_rayleigh_scorer_refuses_a_wrong_width(self, problem, source, width):
        sink = (RayleighScorer(L, K, gram=np.eye(width), n_rows=1) if source == "gram"
                else RayleighScorer(L, K, data=np.ones((5, width))))
        with pytest.raises(ConfigError, match=rf"^dimension mismatch: broadcast "
                                              rf"\({K}, {D}\), scorer \({K}, {width}\)$"):
            SINK_RUNS["parallel_deflation"](problem[0], "serial", sink)

    @pytest.mark.parametrize("gram", [np.ones(D), np.ones((D, D + 1))],
                             ids=["vector", "non-square"])
    def test_rayleigh_scorer_refuses_a_non_square_gram(self, gram):
        with pytest.raises(ConfigError, match="gram must be a square matrix"):
            RayleighScorer(L, K, gram=gram, n_rows=1)

    def test_rayleigh_scorer_needs_one_source(self, problem):
        sigma = problem[0]
        with pytest.raises(ConfigError, match="exactly one of gram= or data="):
            RayleighScorer(L, K)
        with pytest.raises(ConfigError, match="exactly one of gram= or data="):
            RayleighScorer(L, K, gram=sigma, n_rows=3, data=np.ones((3, D)))
