"""Public entries check their inputs once; the cores behind them check nothing.

Covers the shared peer-stack parser, non-finite rows and step sizes, the
non-finite-norm collapse of every step loop, and how many times one public
call validates sigma.
"""

import numpy as np
import pytest

import pardefl as pd
from pardefl import ConfigError, NumericalError
from pardefl import deflation, eigengame, games, linalg, metrics, solvers, theory
from pardefl.linalg import peer_stack
from pardefl.metrics import random_covariance

SIGMA, TRUTH = random_covariance(np.array([3.0, 2.0, 1.0, 0.5]), seed=4)
NAN_ROWS = np.vstack([TRUTH.vectors[0], np.full(4, np.nan)])


class TestPeerStack:
    def test_shapes(self):
        assert peer_stack([], 4).shape == (0, 4)
        assert peer_stack(np.zeros((0, 4)), 4).shape == (0, 4)
        one = peer_stack(TRUTH.vectors[1], 4, unit=True)
        assert one.shape == (1, 4) and one.flags.c_contiguous
        assert np.array_equal(peer_stack(TRUTH.vectors[:3], 4), TRUTH.vectors[:3])

    @pytest.mark.parametrize("bad", [np.ones((1, 8)), np.ones(8), np.ones((1, 2, 4))])
    def test_wrong_width_or_rank_rejected(self, bad):
        with pytest.raises(ConfigError, match=r"must be an \(m, 4\) stack"):
            peer_stack(bad, 4)

    def test_non_finite_row_named(self):
        with pytest.raises(ConfigError, match="^peer vector 2 has non-finite entries$"):
            peer_stack(NAN_ROWS, 4)

    def test_non_unit_row_named(self):
        with pytest.raises(ConfigError, match="^peer vector 1 must be unit norm"):
            peer_stack(2.0 * TRUTH.vectors[:2], 4, unit=True)


class TestNonFiniteRowsRejected:
    """A NaN row used to pass `abs(norm - 1) > tol` and turn results into NaN."""

    @pytest.mark.parametrize("norm", [np.nan, np.inf])
    def test_check_unit(self, norm):
        with pytest.raises(ConfigError, match="^vector must be unit norm"):
            linalg.check_unit(np.array([norm, 0.0]))
        with pytest.raises(ConfigError, match="^row 2 must be unit norm"):
            linalg.check_unit(np.array([[1.0, 0.0], [norm, 0.0]]), name="row")

    def test_recovery_error(self):
        with pytest.raises(ConfigError, match="^estimate vector 2 must be unit norm"):
            pd.recovery_error(TRUTH.vectors[:2], NAN_ROWS)

    def test_discounted_rayleigh(self):
        with pytest.raises(ConfigError, match="^estimate vector 2 must be unit norm"):
            pd.discounted_rayleigh(NAN_ROWS, sigma=SIGMA)

    def test_deflate(self):
        with pytest.raises(ConfigError, match="^deflation vector 2 has non-finite"):
            pd.deflate(SIGMA, NAN_ROWS)

    def test_utility_V(self):
        with pytest.raises(ConfigError, match="^peer vector 2 has non-finite"):
            pd.utility_V(TRUTH.vectors[2], NAN_ROWS, SIGMA)

    def test_eigengame_mu_grad(self):
        with pytest.raises(ConfigError, match="^peer vector 2 has non-finite"):
            pd.eigengame_mu_grad(SIGMA, TRUTH.vectors[2], NAN_ROWS)

    def test_deflated_matvec(self):
        y = np.arange(12.0).reshape(3, 4)
        with pytest.raises(ConfigError, match="^peer vector 2 has non-finite"):
            pd.deflated_matvec(y, NAN_ROWS, [1.0, 1.0], TRUTH.vectors[2])
        with pytest.raises(ConfigError, match="finite eigenvalue estimate"):
            pd.deflated_matvec(y, TRUTH.vectors[:2], [1.0, np.nan], TRUTH.vectors[2])

    def test_nash_check_candidate(self):
        with pytest.raises(ConfigError, match="^candidate 2 must be unit norm"):
            pd.nash_check(SIGMA, NAN_ROWS, 5, 0.1, seed=0)


class TestWrongWidthPeers:
    """One 2d-wide row used to be read as two d-wide peers."""

    def test_utility_U(self):
        v = TRUTH.vectors[2]
        with pytest.raises(ConfigError, match=r"must be an \(m, 4\) stack"):
            pd.utility_U(v, np.ones((1, 8)) / np.sqrt(8.0), SIGMA)

    def test_deflated_matvec(self):
        y = np.arange(12.0).reshape(3, 4)
        peers = np.hstack([np.eye(4)[0], np.eye(4)[1]])[None]
        with pytest.raises(ConfigError, match=r"must be an \(m, 4\) stack"):
            pd.deflated_matvec(y, peers, [1.0, 1.0], np.eye(4)[2])

    def test_deflate(self):
        with pytest.raises(ConfigError, match=r"must be an \(m, 4\) stack"):
            pd.deflate(SIGMA, np.ones((1, 8)) / np.sqrt(8.0))


class TestStepSizesFinite:
    @pytest.mark.parametrize("eta", [np.inf, np.nan, 0.0])
    def test_rejected(self, eta):
        v0 = TRUTH.vectors[0]
        with pytest.raises(ConfigError):
            pd.Top1Config(method="hebb", eta=eta)
        with pytest.raises(ConfigError):
            pd.hebb(SIGMA, v0, 1, eta)
        with pytest.raises(ConfigError):
            pd.run_eigengame("mu", SIGMA, 2, 3, 1, eta=eta)
        with pytest.raises(ConfigError):
            pd.StepSchedule(eta0=eta)
        with pytest.raises(ConfigError):
            pd.StepSchedule(tau=eta)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestNonFiniteCollapse:
    """A step whose norm overflows used to return NaN vectors."""

    def test_power_and_hebb(self):
        v0 = pd.normalize(np.ones(4))
        with pytest.raises(NumericalError, match="zero or non-finite"):
            pd.pow_iter(1e300 * SIGMA, v0, 1)
        with pytest.raises(NumericalError, match="zero or non-finite"):
            pd.hebb(1e300 * SIGMA, v0, 1, 1e8)

    @pytest.mark.parametrize("variant", ["mu", "alpha"])
    def test_eigengame(self, variant):
        with pytest.raises(NumericalError,
                           match="worker 1, round 1, step 1: update collapsed"):
            pd.run_eigengame(variant, 1e300 * SIGMA, 2, 3, 1, eta=1e308)

    def test_parallel_deflation_hebb(self):
        cfg = pd.Top1Config(method="hebb", eta=1e10)
        with pytest.raises(NumericalError, match="worker 1, round 1"):
            pd.parallel_deflation(1e300 * SIGMA, 2, 3, cfg, seed=0)

    def test_streaming(self):
        data = 1e152 * np.arange(1.0, 13.0).reshape(3, 4)
        with pytest.raises(NumericalError,
                           match="worker 1, round 1, step 1: update collapsed"):
            pd.stochastic_parallel_deflation(
                pd.FullBatchProvider(data), 2, 3, 1,
                pd.StepSchedule(eta0=1e10, mode="constant"), seed=0)

    def test_streaming_names_the_ninth_row(self):
        # Zero batches keep every worker on its initial vector until round 9.
        # Then one huge row orthogonal to workers 1..8 overflows worker 9 only,
        # so the error must name worker 9, the ninth row of one batched update.
        init = np.stack([pd.unit_init(0, k, 10) for k in range(1, 10)])
        basis = np.linalg.svd(init[:8])[2][8:]
        w = pd.normalize(basis.T @ (basis @ init[8]))

        class Spike:
            batch_size, dim = 2, 10

            def batch(self, worker, rnd, step):
                return np.vstack([1e80 * w if rnd >= 9 else np.zeros(10), np.zeros(10)])

        with pytest.raises(NumericalError,
                           match="worker 9, round 9, step 1: update collapsed"):
            pd.stochastic_parallel_deflation(
                Spike(), 10, 10, 1, pd.StepSchedule(eta0=1.0, mode="constant"), seed=0)

    def test_sequential_deflation_names_the_component_once(self):
        with pytest.raises(NumericalError, match=r"^worker 1: local solver hit a "
                                                 r"\(near-\)zero or non-finite iterate$"):
            pd.sequential_deflation(1e300 * SIGMA, 2, pd.Top1Config(), seed=0)

    @staticmethod
    def _overflow_at_step_two(engine):
        if engine == "streaming":
            # the second step's batch is huge, so its update's norm overflows
            class Burst:
                batch_size, dim = 2, 4

                def batch(self, worker, rnd, step):
                    return (1e80 if step == 2 else 1.0) * np.eye(2, 4)

            return pd.stochastic_parallel_deflation(
                Burst(), 1, 1, 3, pd.StepSchedule(eta0=1.0, mode="constant"), seed=0)
        # Sigma = u u^T with u nearly orthogonal to worker 1's start: the first
        # ascent step turns the row onto u with a finite norm, the second overflows
        x0 = pd.unit_init(0, 1, 4)
        w = pd.normalize(np.eye(4)[0] - x0[0] * x0)
        u = 1e-10 * x0 + np.sqrt(1.0 - 1e-20) * w
        sigma = np.outer(u, u)
        if engine == "hebb":
            return pd.parallel_deflation(
                sigma, 1, 1, pd.Top1Config(method="hebb", eta=1e160, steps=3), seed=0)
        return pd.run_eigengame(engine, sigma, 1, 1, 3, eta=1e160, seed=0)

    @pytest.mark.parametrize("engine", ["hebb", "mu", "alpha", "streaming"])
    def test_a_later_step_is_named(self, engine):
        with pytest.raises(NumericalError, match=r"^worker 1, round 1, step 2: update "
                                                 r"collapsed to zero or non-finite$"):
            self._overflow_at_step_two(engine)


class TestDefaultStepSizeOnZeroInput:
    def test_zero_sigma_is_a_config_error(self):
        with pytest.raises(ConfigError, match="^matrix is identically zero$") as exc:
            pd.run_eigengame("mu", np.zeros((4, 4)), 2, 3, 1, seed=0)
        assert exc.value.exit_code == 2

    def test_zero_first_batch_names_eta0(self):
        with pytest.raises(NumericalError, match="cannot size eta0"):
            pd.stochastic_parallel_deflation(pd.FullBatchProvider(np.zeros((3, 4))),
                                             2, 3, 1, pd.StepSchedule(), seed=0)


class TestTop1FnOutputChecked:
    def test_non_unit_output_names_producer(self):
        def halved(matrix, v):
            return 0.5 * pd.exact_top1(matrix, v)
        with pytest.raises(NumericalError,
                           match="^worker 1, round 1: top1_fn output must be unit norm"):
            pd.parallel_deflation(SIGMA, 2, 3, pd.Top1Config(), seed=0, top1_fn=halved)

    def test_non_finite_output(self):
        with pytest.raises(NumericalError,
                           match="^worker 1, round 1: top1_fn output has non-finite"):
            pd.parallel_deflation(SIGMA, 2, 3, pd.Top1Config(), seed=0,
                                  top1_fn=lambda matrix, v: np.nan * v)


@pytest.fixture
def sym_calls(monkeypatch):
    """Counts `sym_matrix` calls made through every module that uses it."""
    calls = []
    original = linalg.sym_matrix

    def counting(entries):
        calls.append(1)
        return original(entries)

    for module in (deflation, eigengame, games, linalg, metrics, solvers, theory):
        if hasattr(module, "sym_matrix"):
            monkeypatch.setattr(module, "sym_matrix", counting)
    return calls


class TestCheckedOnce:
    def test_nash_check(self, sym_calls):
        pd.nash_check(SIGMA, TRUTH.vectors[:3], 50, 0.1, seed=1)
        assert len(sym_calls) == 1

    @pytest.mark.parametrize("cfg", [pd.Top1Config(steps=2),
                                     pd.Top1Config(method="hebb", steps=2, eta=0.3)])
    def test_sequential_deflation(self, sym_calls, cfg):
        pd.sequential_deflation(SIGMA, 4, cfg, seed=1)
        assert len(sym_calls) == 1

    @pytest.mark.parametrize("variant", ["mu", "alpha"])
    def test_run_eigengame_default_eta(self, sym_calls, variant):
        pd.run_eigengame(variant, SIGMA, 3, 5, 2, seed=1)
        assert len(sym_calls) == 1

    def test_exact_top1_run(self, sym_calls):
        # the run checks sigma once; each deflated matrix is then checked
        # only by exact_top1 itself, the user-replaceable solver it is
        # handed to: one call per active worker per round
        n_workers, n_rounds = 3, 6
        pd.parallel_deflation(SIGMA, n_workers, n_rounds, pd.Top1Config(), seed=1,
                              top1_fn=pd.exact_top1)
        updates = sum(min(rnd, n_workers) for rnd in range(1, n_rounds + 1))
        assert len(sym_calls) == 1 + updates

    def test_replay_round(self, sym_calls):
        trace = pd.parallel_deflation(SIGMA, 3, 5, pd.Top1Config(), seed=1)
        sym_calls.clear()
        pd.replay_round(SIGMA, trace, 4, pd.Top1Config())
        assert len(sym_calls) == 1

    def test_pow_iter_and_gaussian_stream(self, sym_calls):
        pd.pow_iter(SIGMA, TRUTH.vectors[0], 3)
        pd.gaussian_stream(SIGMA, 4, seed=0)
        assert len(sym_calls) == 2
