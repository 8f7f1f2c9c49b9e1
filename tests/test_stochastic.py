import threading
import time
from collections import Counter

import numpy as np
import pytest

from pardefl import (ConfigError, FullBatchProvider, GaussianStreamProvider,
                     MatrixRowProvider, NumericalError, StepSchedule,
                     StreamError, Top1Config, attach_oracle, batch_rayleigh,
                     covariance, deflate, deflated_matvec, matvec, normalize,
                     parallel_deflation, reference_eigh,
                     stochastic_parallel_deflation, unit_init)
from pardefl.engine import row_blocks
from pardefl.metrics import gaussian_stream, random_covariance, spectrum_powerlaw
from pardefl.stochastic import PREFETCH_THREADS, resolve_schedule


class TestBatchRayleigh:
    def test_identity_batch(self, rng):
        v = normalize(rng.standard_normal(4))
        assert abs(batch_rayleigh(np.eye(4), v) - 1.0) <= 1e-14

    def test_hand_value(self):
        assert batch_rayleigh(np.array([[2.0, 0.0]]), np.array([1.0, 0.0])) == 4.0

    def test_monte_carlo_expectation(self):
        # over gaussian batches, E ||Y v||^2 = n v' Sigma v
        spec = np.array([1.0, 0.5, 0.25])
        sigma, truth = random_covariance(spec, seed=23)
        prov = gaussian_stream(truth, 250, seed=31)
        v = normalize(np.array([0.6, -0.3, 0.9]))
        acc = sum(batch_rayleigh(prov.batch(1, 1, t), v) for t in range(1, 401))
        mean = acc / 400.0
        expect = 250.0 * float(v @ sigma @ v)
        assert abs(mean - expect) <= 0.05 * expect


class TestDeflatedMatvec:
    def test_no_peers(self, rng):
        y = rng.standard_normal((5, 3))
        x = rng.standard_normal(3)
        got = deflated_matvec(y, [], [], x)
        assert np.allclose(got, y.T @ (y @ x), rtol=1e-13)

    def test_identity_cancellation(self):
        e1 = np.array([1.0, 0.0])
        got = deflated_matvec(np.eye(2), [e1], [1.0], e1)
        assert np.allclose(got, [0.0, 0.0], atol=1e-15)

    def test_dense_equivalence(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 12))
            d = int(rng.integers(2, 24))
            m = int(rng.integers(0, 4))
            y = rng.standard_normal((n, d))
            x = rng.standard_normal(d)
            peers = rng.standard_normal((m, d))
            peers /= np.linalg.norm(peers, axis=1, keepdims=True) if m else 1.0
            lams = np.array([batch_rayleigh(y, p) for p in peers])
            got = deflated_matvec(y, peers, lams, x)
            dense = matvec(deflate(covariance(y), peers), x)
            assert np.max(np.abs(got - dense)) <= 1e-10 * max(1.0, np.max(np.abs(dense)))


class TestProviders:
    def test_gaussian_shape_and_determinism(self):
        _, truth = random_covariance(np.array([1.0, 0.5]), seed=1)
        prov = gaussian_stream(truth, 7, seed=5)
        b1 = prov.batch(2, 3, 4)
        b2 = gaussian_stream(truth, 7, seed=5).batch(2, 3, 4)
        assert b1.shape == (7, 2)
        assert np.array_equal(b1, b2)
        assert not np.array_equal(b1, prov.batch(2, 3, 5))

    def test_gaussian_matches_covariance(self):
        spec = np.sort(np.random.default_rng(3).uniform(0.2, 1.0, 8))[::-1]
        sigma, truth = random_covariance(spec, seed=41)
        prov = gaussian_stream(truth, 1000, seed=42)
        pooled = np.concatenate([prov.batch(1, 1, t) for t in range(1, 101)])
        emp = pooled.T @ pooled / pooled.shape[0]
        assert np.linalg.norm(emp - sigma) <= 0.05 * np.linalg.norm(sigma)
        assert np.max(np.abs(pooled.mean(axis=0))) <= 0.02

    def test_gaussian_from_dense_sigma(self):
        sigma, _ = random_covariance(np.array([1.0, 0.4]), seed=2)
        prov = gaussian_stream(sigma, 5, seed=3)
        assert prov.batch(1, 1, 1).shape == (5, 2)

    def test_gaussian_rejects_indefinite(self):
        with pytest.raises(NumericalError):
            GaussianStreamProvider(np.array([1.0, -0.5]), np.eye(2), 4, seed=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_gaussian_rejects_non_finite_eigenvalue(self, bad):
        with pytest.raises(ConfigError, match="eigenvalues has non-finite entries"):
            GaussianStreamProvider([bad, 1.0], np.eye(2), 4, seed=0)

    def test_row_provider_samples_rows(self, rng):
        data = rng.standard_normal((6, 3))
        prov = MatrixRowProvider(data, 4, seed=9)
        batch = prov.batch(1, 2, 3)
        assert batch.shape == (4, 3)
        for row in batch:
            assert any(np.array_equal(row, r) for r in data)
        assert np.array_equal(batch, MatrixRowProvider(data, 4, seed=9).batch(1, 2, 3))

    def test_full_batch_constant(self, rng):
        data = rng.standard_normal((5, 2))
        prov = FullBatchProvider(data)
        assert prov.batch_size == 5
        assert np.array_equal(prov.batch(1, 1, 1), data)
        assert np.array_equal(prov.batch(3, 9, 2), data)


class TestStepSchedule:
    def test_validation(self):
        with pytest.raises(ConfigError):
            StepSchedule(eta0=-1.0)
        with pytest.raises(ConfigError):
            StepSchedule(mode="exponential")

    def test_inverse_time_values(self):
        _, truth = random_covariance(np.array([1.0, 0.5]), seed=4)
        prov = gaussian_stream(truth, 8, seed=4)
        eta = resolve_schedule(StepSchedule(eta0=1.0, tau=10.0), prov, 100, seed=4)
        assert eta(0) == 1.0
        assert eta(10) == 0.5
        assert eta(30) == 0.25

    def test_default_eta0_scales_with_batch_gram(self):
        _, truth = random_covariance(np.array([1.0, 0.5]), seed=5)
        prov = gaussian_stream(truth, 64, seed=5)
        eta = resolve_schedule(StepSchedule(mode="constant"), prov, 100, seed=5)
        first = prov.batch(1, 1, 1)
        lam_top = reference_eigh(covariance(first)).values[0]
        assert 0.5 * 2.0 / lam_top <= eta(0) <= 2.0 * 2.0 / lam_top


class TestStochasticEngine:
    def test_full_batch_matches_dense_hebb(self, rng):
        # constant provider with the whole dataset reduces to the dense engine
        y = rng.standard_normal((20, 8))
        sigma = covariance(y)
        eta = 0.05 / reference_eigh(sigma).values[0]
        sto = stochastic_parallel_deflation(
            FullBatchProvider(y), 3, 8, 3,
            StepSchedule(eta0=eta, mode="constant"), seed=12)
        det = parallel_deflation(sigma, 3, 8,
                                 Top1Config(method="hebb", steps=3, eta=eta), seed=12)
        assert np.max(np.abs(sto.vectors - det.vectors)) <= 1e-6

    def test_k1_is_plain_stochastic_hebb(self):
        _, truth = random_covariance(np.array([1.0, 0.5, 0.25]), seed=6)
        prov = gaussian_stream(truth, 16, seed=7)
        eta = 0.01
        trace = stochastic_parallel_deflation(
            prov, 1, 3, 2, StepSchedule(eta0=eta, mode="constant"), seed=7)
        v = unit_init(7, 1, 3)
        for rnd in (1, 2, 3):
            for t in (1, 2):
                y = prov.batch(1, rnd, t)
                v = normalize(v + eta * (y.T @ (y @ v)))
        assert np.max(np.abs(trace.vectors[-1, 0] - v)) <= 1e-12

    def test_descends_toward_oracle(self):
        sigma, truth = random_covariance(spectrum_powerlaw(12), seed=8)
        prov = gaussian_stream(truth, 128, seed=9)
        trace = attach_oracle(stochastic_parallel_deflation(
            prov, 3, 120, 4, StepSchedule(), seed=9), truth)
        assert np.mean(trace.errors[-1]) < 0.35

    def test_trace_determinism(self):
        _, truth = random_covariance(np.array([1.0, 0.5, 0.2]), seed=10)
        prov = gaussian_stream(truth, 8, seed=11)
        a = stochastic_parallel_deflation(prov, 2, 4, 2, StepSchedule(), seed=11)
        b = stochastic_parallel_deflation(prov, 2, 4, 2, StepSchedule(), seed=11)
        assert np.array_equal(a.vectors, b.vectors)

    def test_serial_thread_bitwise(self):
        _, truth = random_covariance(np.array([1.0, 0.6, 0.3, 0.15]), seed=12)
        prov = gaussian_stream(truth, 16, seed=13)
        a = stochastic_parallel_deflation(prov, 3, 6, 2, StepSchedule(), seed=13,
                                          mode="serial")
        b = stochastic_parallel_deflation(prov, 3, 6, 2, StepSchedule(), seed=13,
                                          mode="thread")
        assert np.array_equal(a.vectors, b.vectors)

    def test_stream_error_names_position(self):
        class Exhausting:
            batch_size = 4
            dim = 3

            def __init__(self):
                self.calls = 0

            def batch(self, worker, rnd, step):
                self.calls += 1
                if self.calls > 3:
                    raise RuntimeError("source drained")
                return np.zeros((4, 3)) + np.eye(4, 3)

        with pytest.raises(StreamError, match=r"round \d+, step \d+"):
            stochastic_parallel_deflation(Exhausting(), 1, 4, 2,
                                          StepSchedule(eta0=0.1), seed=1)

    def test_bad_batch_shape(self):
        class WrongShape:
            batch_size = 4
            dim = 3

            def batch(self, worker, rnd, step):
                return np.ones((2, 3))

        with pytest.raises(StreamError, match="shape"):
            stochastic_parallel_deflation(WrongShape(), 1, 2, 1,
                                          StepSchedule(eta0=0.1), seed=1)

    @pytest.mark.parametrize("first", [RuntimeError("source down"), np.ones((4, 2))],
                             ids=["raising", "wrong-width"])
    def test_first_batch_checked_under_default_schedule(self, first):
        # an unset eta0 is sized from batch (1, 1, 1) before any round runs
        class Source:
            batch_size = 4
            dim = 3

            def batch(self, worker, rnd, step):
                if isinstance(first, Exception):
                    raise first
                return first

        with pytest.raises(StreamError, match="worker 1, round 1, step 1"):
            stochastic_parallel_deflation(Source(), 1, 2, 1, StepSchedule(), seed=1)

    def test_pure_hebb_direction_with_no_peers(self, rng):
        # one worker, one step: the update direction is exactly Y'Y v
        y = rng.standard_normal((6, 4))
        prov = FullBatchProvider(y)
        eta = 1e-3
        trace = stochastic_parallel_deflation(
            prov, 1, 1, 1, StepSchedule(eta0=eta, mode="constant"), seed=3)
        v0 = unit_init(3, 1, 4)
        expect = normalize(v0 + eta * (y.T @ (y @ v0)))
        assert np.max(np.abs(trace.vectors[0, 0] - expect)) <= 1e-12


def per_row_reference(prov, n_workers, n_rounds, local_steps, seed):
    """Round-synchronous streaming deflation one worker row and one peer at a
    time, every worker reading the batch keyed by worker 1 at each step."""
    eta = resolve_schedule(StepSchedule(), prov, n_rounds * local_steps, seed)
    prev = np.stack([unit_init(seed, k, prov.dim) for k in range(1, n_workers + 1)])
    out = []
    for rnd in range(1, n_rounds + 1):
        cur = prev.copy()
        for r in range(min(rnd, n_workers)):
            v = prev[r]
            for t in range(1, local_steps + 1):
                y = prov.batch(1, rnd, t)
                lams = [batch_rayleigh(y, p) for p in prev[:r]]
                g = deflated_matvec(y, prev[:r], lams, v)
                v = normalize(v + eta((rnd - 1) * local_steps + (t - 1)) * g)
            cur[r] = v
        prev = cur
        out.append(cur)
    return np.stack(out)


class TestSharedBatchRound:
    # K=10 spans two row blocks of BLOCK_ROWS=8
    K, L, T = 10, 14, 2

    @pytest.fixture
    def prov(self):
        _, truth = random_covariance(spectrum_powerlaw(16), seed=14)
        return gaussian_stream(truth, 32, seed=15)

    def test_matches_per_row_reference(self, prov):
        trace = stochastic_parallel_deflation(prov, self.K, self.L, self.T,
                                              StepSchedule(), seed=15)
        expect = per_row_reference(prov, self.K, self.L, self.T, seed=15)
        assert np.max(np.abs(trace.vectors - expect)) <= 1e-12

    def test_serial_thread_bitwise_two_blocks(self, prov):
        a = stochastic_parallel_deflation(prov, self.K, self.L, self.T,
                                          StepSchedule(), seed=15, mode="serial")
        b = stochastic_parallel_deflation(prov, self.K, self.L, self.T,
                                          StepSchedule(), seed=15, mode="thread")
        assert np.array_equal(a.vectors, b.vectors)

    class Counting:
        batch_size = 8

        def __init__(self, dim):
            self.dim, self.keys = dim, []

        def batch(self, worker, rnd, step):
            self.keys.append((worker, rnd, step))
            return np.random.default_rng([rnd, step]).standard_normal((8, self.dim))

    def test_one_batch_per_step(self):
        # L*T batches for the rounds plus the one that sizes the unset eta0
        prov = self.Counting(6)
        stochastic_parallel_deflation(prov, 5, 6, 2, StepSchedule(), seed=1)
        assert len(prov.keys) == 6 * 2 + 1
        assert all(worker == 1 for worker, _, _ in prov.keys)

    def test_each_active_block_fetches_the_step_batch(self):
        # K=10: one active row block up to round 8, two from round 9 on;
        # every block re-fetches the same (pure) batch of a step
        prov = self.Counting(12)
        stochastic_parallel_deflation(prov, 10, 10, 2, StepSchedule(), seed=1)
        counts = Counter(prov.keys)
        assert set(counts) == {(1, rnd, t) for rnd in range(1, 11) for t in (1, 2)}
        for (_, rnd, t), n in counts.items():
            eta0_batch = (rnd, t) == (1, 1)
            active = sum(lo < min(rnd, 10) for lo, _ in row_blocks(10))
            assert n == active + eta0_batch


class Jittered(GaussianStreamProvider):
    """A Gaussian stream whose batch first sleeps a key-derived 0-2 ms, so
    batches drawn ahead finish out of key order."""

    def batch(self, worker, rnd, step):
        time.sleep((7 * rnd + 13 * step) % 5 * 5e-4)
        return super().batch(worker, rnd, step)


class Faulty:
    """A pure source of fixed batches: an inf batch at `inf_at`, an error at
    `raise_at`, both (round, step) keys."""

    batch_size, dim = 4, 3

    def __init__(self, inf_at=None, raise_at=None):
        self.inf_at, self.raise_at = inf_at, raise_at

    def batch(self, worker, rnd, step):
        if (rnd, step) == self.raise_at:
            raise RuntimeError("source down")
        if (rnd, step) == self.inf_at:
            time.sleep(0.02)  # let the batch after it fail first
            return np.full((4, 3), np.inf)
        return np.eye(4, 3) + 0.1 * (rnd + step)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestPrefetch:
    @pytest.mark.parametrize("mode", ["serial", "thread"])
    @pytest.mark.parametrize("k", [5, 10])
    def test_out_of_order_batches_give_the_same_trace(self, k, mode):
        _, truth = random_covariance(spectrum_powerlaw(16), seed=14)
        values, vectors = truth.values, truth.vectors
        plain = stochastic_parallel_deflation(
            GaussianStreamProvider(values, vectors, 16, seed=3), k, 12, 2,
            StepSchedule(), seed=3, mode=mode)
        jittered = stochastic_parallel_deflation(
            Jittered(values, vectors, 16, seed=3), k, 12, 2,
            StepSchedule(), seed=3, mode=mode)
        assert np.array_equal(plain.vectors, jittered.vectors)

    def test_update_error_before_a_prefetched_stream_error(self):
        with pytest.raises(NumericalError,
                           match=r"^update collapsed at worker 1, round 3, step 1$"):
            stochastic_parallel_deflation(Faulty(inf_at=(3, 1), raise_at=(3, 2)),
                                          2, 4, 2, StepSchedule(eta0=0.1), seed=1)

    def test_stream_error_names_its_key(self):
        with pytest.raises(StreamError, match=r"^batch source failed at worker 1, "
                                              r"round 3, step 2: source down$"):
            stochastic_parallel_deflation(Faulty(raise_at=(3, 2)), 2, 4, 2,
                                          StepSchedule(eta0=0.1), seed=1)

    @pytest.mark.parametrize("mode", ["serial", "thread"])
    @pytest.mark.parametrize("source, error", [
        (Faulty(), None),
        (Faulty(raise_at=(3, 2)), StreamError),
        (Faulty(inf_at=(3, 1)), NumericalError)], ids=["done", "stream", "numerical"])
    def test_no_thread_outlives_a_run(self, source, error, mode):
        before = threading.active_count()
        if error is None:
            stochastic_parallel_deflation(source, 2, 6, 2, StepSchedule(eta0=0.1),
                                          seed=1, mode=mode)
        else:
            # `info` keeps the traceback, and with it the run's frames, alive
            # while the count is taken
            with pytest.raises(error) as info:
                stochastic_parallel_deflation(source, 2, 6, 2, StepSchedule(eta0=0.1),
                                              seed=1, mode=mode)
        assert threading.active_count() == before

    def test_serial_run_uses_at_most_the_helper_threads(self):
        before = threading.active_count()
        seen = []

        class Watching(Faulty):
            def batch(self, worker, rnd, step):
                seen.append(threading.active_count())
                return super().batch(worker, rnd, step)

        stochastic_parallel_deflation(Watching(), 3, 20, 2, StepSchedule(eta0=0.1),
                                      seed=1)
        assert max(seen) <= before + PREFETCH_THREADS
