import numpy as np
import pytest

from pardefl import (ConfigError, batch_rayleigh, covariance, normalize,
                     recovery_error, reference_eigh)
from pardefl.metrics import (discounted_rayleigh, random_covariance,
                             spectrum_expdecay, spectrum_powerlaw)


class TestRecoveryError:
    def test_exact_match(self):
        _, truth = random_covariance(np.array([1.0, 0.5, 0.25]), seed=1)
        assert recovery_error(truth.vectors, truth.vectors) == 0.0

    def test_sign_invariance_full_flip(self):
        _, truth = random_covariance(np.array([1.0, 0.5, 0.25]), seed=2)
        assert recovery_error(truth.vectors, -truth.vectors) == 0.0

    def test_sign_invariance_subset_exact(self, rng):
        _, truth = random_covariance(np.array([1.0, 0.6, 0.3, 0.15]), seed=3)
        est = np.stack([normalize(rng.standard_normal(4)) for _ in range(4)])
        base = recovery_error(truth.vectors, est)
        for _ in range(5):
            flips = np.where(rng.random(4) < 0.5, -1.0, 1.0)
            assert recovery_error(truth.vectors, est * flips[:, None]) == base

    def test_orthogonal_pair(self):
        t = np.array([[1.0, 0.0]])
        e = np.array([[0.0, 1.0]])
        assert abs(recovery_error(t, e) - np.sqrt(2.0)) <= 1e-15

    def test_bounded_by_two(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 10))
            _, truth = random_covariance(np.sort(rng.uniform(0.1, 1, d))[::-1],
                                         seed=int(rng.integers(0, 99)))
            est = np.stack([normalize(rng.standard_normal(d)) for _ in range(d)])
            assert recovery_error(truth.vectors, est) <= 2.0

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            recovery_error(np.eye(3), np.eye(2))

    def test_non_unit_named(self):
        est = np.eye(3)
        est[1] *= 2.0
        est[2] *= 3.0
        with pytest.raises(ConfigError,
                           match=r"^estimate vector 2 must be unit norm, got \|\|v\|\| = 2\.0$"):
            recovery_error(np.eye(3), est)
        with pytest.raises(ConfigError, match="^truth vector 1 must be unit norm"):
            recovery_error(0.5 * np.eye(3), np.eye(3))


class TestDiscountedRayleigh:
    def test_oracle_vectors_give_weighted_values(self):
        spec = np.array([1.0, 0.5, 0.25, 0.125])
        sigma, truth = random_covariance(spec, seed=4)
        got = discounted_rayleigh(truth.vectors, sigma=sigma)
        expect = float(np.sum(spec / np.arange(1, 5)))
        assert abs(got - expect) <= 1e-10

    def test_single_nonleading_vector(self):
        got = discounted_rayleigh(np.array([[0.0, 1.0]]), sigma=np.diag([3.0, 2.0]))
        assert got == 2.0

    def test_swap_decreases(self):
        sigma, truth = random_covariance(np.array([1.0, 0.5, 0.25]), seed=5)
        ordered = discounted_rayleigh(truth.vectors[:2], sigma=sigma)
        swapped = discounted_rayleigh(truth.vectors[[1, 0]], sigma=sigma)
        assert swapped < ordered

    def test_streamed_equals_dense(self, rng):
        for _ in range(10):
            n, d, k = int(rng.integers(2, 20)), int(rng.integers(2, 10)), 2
            y = rng.standard_normal((n, d))
            sigma = covariance(y) / n
            est = np.stack([normalize(rng.standard_normal(d)) for _ in range(k)])
            dense = discounted_rayleigh(est, sigma=sigma)
            streamed = discounted_rayleigh(est, data=y)
            assert abs(dense - streamed) <= 1e-10 * max(1.0, abs(dense))

    def test_data_path_matches_per_vector_sum(self, rng):
        y = rng.standard_normal((500, 30))
        est = np.stack([normalize(rng.standard_normal(30)) for _ in range(8)])
        expect = sum(batch_rayleigh(y, est[k]) / (500 * (k + 1)) for k in range(8))
        got = discounted_rayleigh(est, data=y)
        assert abs(got - expect) <= 1e-12 * abs(expect)

    def test_single_stack_returns_float(self, rng):
        y = rng.standard_normal((50, 6))
        est = np.stack([normalize(rng.standard_normal(6)) for _ in range(3)])
        assert type(discounted_rayleigh(est, sigma=covariance(y) / 50)) is float
        assert type(discounted_rayleigh(est, data=y)) is float

    def test_round_stack_sigma_path_matches_data_path(self, rng):
        y = rng.standard_normal((300, 10))
        rounds = rng.standard_normal((7, 4, 10))
        rounds /= np.linalg.norm(rounds, axis=2, keepdims=True)
        got = discounted_rayleigh(rounds, sigma=covariance(y) / 300)
        expect = np.array([discounted_rayleigh(r, data=y) for r in rounds])
        assert got.shape == (7,)
        assert np.max(np.abs(got - expect) / np.abs(expect)) <= 1e-13

    def test_round_stack_data_path_bitwise_per_round(self, rng):
        y = rng.standard_normal((300, 10))
        rounds = rng.standard_normal((7, 4, 10))
        rounds /= np.linalg.norm(rounds, axis=2, keepdims=True)
        expect = [discounted_rayleigh(r, data=y) for r in rounds]
        assert discounted_rayleigh(rounds, data=y).tolist() == expect

    def test_round_stack_sigma_path_bitwise_per_round(self, rng):
        y = rng.standard_normal((300, 40))
        sigma = covariance(y) / 300
        rounds = rng.standard_normal((50, 8, 40))
        rounds /= np.linalg.norm(rounds, axis=2, keepdims=True)
        expect = [discounted_rayleigh(r, sigma=sigma) for r in rounds]
        assert discounted_rayleigh(rounds, sigma=sigma).tolist() == expect

    def test_rejects_other_ranks(self):
        with pytest.raises(ConfigError, match="stack"):
            discounted_rayleigh(np.array([1.0, 0.0]), sigma=np.eye(2))

    def test_non_unit_estimate_named(self):
        est = np.eye(3)
        est[2] *= 0.5
        with pytest.raises(ConfigError, match="^estimate vector 3 must be unit norm"):
            discounted_rayleigh(est, data=np.ones((4, 3)))

    def test_exactly_one_source(self):
        with pytest.raises(ConfigError):
            discounted_rayleigh(np.eye(2), sigma=np.eye(2), data=np.eye(2))
        with pytest.raises(ConfigError):
            discounted_rayleigh(np.eye(2))


class TestSpectra:
    def test_powerlaw_values(self):
        got = spectrum_powerlaw(4)
        expect = [1.0, 1.0 / np.sqrt(2.0), 1.0 / np.sqrt(3.0), 0.5]
        assert np.max(np.abs(got - expect)) <= 1e-15

    def test_expdecay_values(self):
        got = spectrum_expdecay(2)
        assert np.max(np.abs(got - [1.0 / 1.1, 1.0 / 1.21])) <= 1e-15

    def test_single_entry(self):
        assert spectrum_powerlaw(1).tolist() == [1.0]
        assert abs(spectrum_expdecay(1)[0] - 1.0 / 1.1) <= 1e-15


class TestRandomCovariance:
    def test_identity_rotation_hook(self):
        spec = np.array([3.0, 2.0, 1.0])
        sigma, truth = random_covariance(spec, seed=6, rotation="identity")
        assert np.array_equal(sigma, np.diag(spec))
        assert np.array_equal(truth.vectors, np.eye(3))

    def test_one_dimensional(self):
        sigma, truth = random_covariance(np.array([1.0]), seed=7)
        assert sigma.shape == (1, 1) and sigma[0, 0] == 1.0
        assert abs(abs(truth.vectors[0, 0]) - 1.0) <= 1e-15

    def test_construction_matches_reference(self):
        spec = np.sort(np.random.default_rng(8).uniform(0.2, 2.0, 32))[::-1]
        sigma, truth = random_covariance(spec, seed=8)
        es = reference_eigh(sigma)
        assert np.max(np.abs(es.values - truth.values)) <= 1e-8
        for k in range(5):
            dev = min(np.linalg.norm(es.vectors[k] - truth.vectors[k]),
                      np.linalg.norm(es.vectors[k] + truth.vectors[k]))
            assert dev <= 1e-8

    def test_deterministic_per_seed(self):
        spec = np.array([1.0, 0.5])
        a, _ = random_covariance(spec, seed=9)
        b, _ = random_covariance(spec, seed=9)
        c, _ = random_covariance(spec, seed=10)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    # 301: odd and above 256, so the QR runs blocked LAPACK code paths
    @pytest.mark.parametrize("d", [5, 120, 301])
    def test_bitwise_equal_to_the_plain_formula(self, d):
        from pardefl import EigenSystem, rng_for

        spec = spectrum_powerlaw(d)
        q, r = np.linalg.qr(rng_for(4).standard_normal((d, d)))
        signs = np.sign(np.diag(r))
        signs[signs == 0.0] = 1.0
        q = q * signs[None, :]
        plain = (q * spec[None, :]) @ q.T
        plain = np.ascontiguousarray((plain + plain.T) / 2.0)
        sigma, truth = random_covariance(spec, seed=4)
        assert sigma.flags.c_contiguous
        assert sigma.tobytes() == plain.tobytes()
        assert truth.vectors.tobytes() == EigenSystem(spec, q.T).vectors.tobytes()

    def test_peak_memory(self):
        import tracemalloc

        d = 400
        spec = spectrum_powerlaw(d)
        random_covariance(spec, seed=1)  # LAPACK's first-call setup, untraced
        tracemalloc.start()
        random_covariance(spec, seed=1)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # Sigma, Q and the truth's copy of Q, plus a block of the check
        assert peak <= 3.5 * d * d * 8, peak / (d * d * 8)

    def test_rejects_bad_spectrum(self):
        with pytest.raises(ConfigError):
            random_covariance(np.array([1.0, -0.5]), seed=1)
        with pytest.raises(ConfigError):
            random_covariance(np.array([0.5, 1.0]), seed=1)
