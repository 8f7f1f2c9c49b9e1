import numpy as np
import pytest

from pardefl import (ConfigError, DegenerateSpectrumError, NumericalError,
                     Top1Config, contraction_estimate, exact_top1, hebb,
                     normalize, pow_iter, top1)
from pardefl.linalg import _eigh
from pardefl.metrics import random_covariance, spectrum_expdecay


def _hadamard_covariance(spectrum):
    """Q diag(spectrum) Q^T with Q the 16 x 16 Hadamard matrix over 4, whose
    entries are +-1/4. For these dyadic spectra every product and sum is
    exact, so column k of Q is exactly an eigenvector of the result."""
    h = np.array([[1.0]])
    for _ in range(4):
        h = np.block([[h, h], [h, -h]])
    q = h / 4.0
    return (q * spectrum) @ q.T, q


def _sign_free_distance(x, u):
    return min(float(np.max(np.abs(x - u))), float(np.max(np.abs(x + u))))


def tan_to_axis(v, u):
    """Tangent of the angle between v and the line spanned by unit u."""
    c = abs(float(v @ u))
    s = float(np.linalg.norm(v - float(v @ u) * u))
    return s / c


class TestConfig:
    def test_zero_steps_rejected(self):
        with pytest.raises(ConfigError):
            Top1Config(steps=0)

    @pytest.mark.parametrize("steps", [2.7, 2.0, "2"])
    def test_non_integer_steps_rejected(self, steps):
        # 2.7 passed as 2 steps while the trace recorded 2.7
        with pytest.raises(ConfigError, match="Top1 steps must be an integer"):
            Top1Config(steps=steps)

    def test_hebb_needs_eta(self):
        with pytest.raises(ConfigError):
            Top1Config(method="hebb", steps=3)

    def test_unknown_method(self):
        with pytest.raises(ConfigError):
            Top1Config(method="lanczos")


class TestPowerIteration:
    def test_tangent_halves_each_step(self):
        # diag(2,1): tan(theta_t) = (1/2)^t tan(theta_0), closed form
        sigma = np.diag([2.0, 1.0])
        v0 = normalize([1.0, 1.0])
        out = pow_iter(sigma, v0, 10)
        got = tan_to_axis(out, np.array([1.0, 0.0]))
        assert abs(got - 0.5 ** 10) <= 1e-10 * 0.5 ** 10

    def test_fixed_point(self, rng):
        sigma, truth = random_covariance(np.array([2.0, 1.0, 0.5]), seed=1)
        u = truth.vectors[0]
        for t_steps in (1, 7):
            assert np.allclose(pow_iter(sigma, u, t_steps), u, atol=1e-12)

    def test_converges_to_oracle(self, rng):
        d = 6
        sigma = np.diag([1.0] + [1e-6] * (d - 1))
        v0 = normalize(rng.standard_normal(d))
        out = pow_iter(sigma, v0, 50)
        e1 = np.eye(d)[0]
        assert min(np.linalg.norm(out - e1), np.linalg.norm(out + e1)) <= 1e-4

    def test_null_space_start(self):
        with pytest.raises(NumericalError):
            pow_iter(np.diag([1.0, 0.0]), np.array([0.0, 1.0]), 1)

    def test_anti_aligned_result_flipped(self):
        # the dominant eigenvalue -2 turns e1 into -e1 in one step
        sigma, e1 = np.diag([-2.0, 1.0]), np.array([1.0, 0.0])
        assert np.array_equal(pow_iter(sigma, e1, 1), e1)
        assert np.array_equal(pow_iter(sigma, e1, 1, sign_align_output=False), -e1)
        assert np.array_equal(hebb(sigma, e1, 1, 1.0), e1)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ConfigError):
            pow_iter(np.zeros((2, 2)), np.array([1.0, 0.0]), 1)

    def test_output_unit_norm(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 16))
            sigma, _ = random_covariance(np.sort(rng.uniform(0.1, 1, d))[::-1],
                                         seed=int(rng.integers(0, 100)))
            v0 = normalize(rng.standard_normal(d))
            out = pow_iter(sigma, v0, int(rng.integers(1, 6)))
            assert abs(np.linalg.norm(out) - 1.0) <= 1e-12

    def test_rate_on_diagonal(self, rng):
        # tangent contraction per step is exactly lambda_2/lambda_1
        for _ in range(10):
            lam = np.sort(rng.uniform(0.1, 2.0, 5))[::-1]
            sigma = np.diag(lam)
            v0 = normalize(rng.standard_normal(5))
            v0[0] = abs(v0[0]) + 0.3
            v0 = normalize(v0)
            before = pow_iter(sigma, v0, 3)
            after = pow_iter(sigma, before, 1)
            e1 = np.eye(5)[0]
            t0 = tan_to_axis(before, e1)
            t1 = tan_to_axis(after, e1)
            # the dominated components each shrink by lam_j/lam_1 <= lam_2/lam_1
            assert t1 <= (lam[1] / lam[0]) * t0 * (1.0 + 1e-10)

    def test_exact_rate_in_2d(self):
        sigma = np.diag([1.7, 0.6])
        v0 = normalize([0.9, 0.45])
        out = pow_iter(sigma, v0, 1)
        e1 = np.array([1.0, 0.0])
        ratio = tan_to_axis(out, e1) / tan_to_axis(v0, e1)
        assert abs(ratio - 0.6 / 1.7) <= 1e-10 * ratio

    def test_single_step_tangent_contraction(self, rng):
        # the true per-step guarantee: the tangent to the top eigenvector
        # contracts by at least the eigenvalue-magnitude ratio
        for _ in range(50):
            d = int(rng.integers(2, 16))
            spec = np.sort(rng.uniform(0.05, 1.0, d))[::-1]
            spec[0] = 1.0
            if (spec[0] - spec[1]) < 1e-6:
                continue
            sigma, truth = random_covariance(spec, seed=int(rng.integers(0, 10_000)))
            u = truth.vectors[0]
            v0 = normalize(u + 0.8 * rng.standard_normal(d))
            if float(v0 @ u) < 0.1:
                continue
            out = pow_iter(sigma, v0, 1)
            f = contraction_estimate(sigma).F
            assert tan_to_axis(out, u) <= f * tan_to_axis(v0, u) * (1 + 1e-10) + 1e-15


class TestHebb:
    def test_fixed_point(self):
        sigma, truth = random_covariance(np.array([2.0, 1.0]), seed=2)
        u = truth.vectors[0]
        assert np.allclose(hebb(sigma, u, 5, 0.7), u, atol=1e-12)

    def test_hand_single_step(self):
        # x + 0.5 Sigma x = (2, 1.5)/sqrt(2), normalized (0.8, 0.6)
        out = hebb(np.diag([2.0, 1.0]), normalize([1.0, 1.0]), 1, 0.5)
        assert np.allclose(out, [0.8, 0.6], atol=1e-15)

    def test_large_eta_is_power_step(self, rng):
        sigma, _ = random_covariance(np.array([1.5, 0.9, 0.3]), seed=5)
        v0 = normalize(rng.standard_normal(3))
        big = hebb(sigma, v0, 1, 1e3 / 1.5)
        power = pow_iter(sigma, v0, 1)
        angle = np.arccos(np.clip(abs(float(big @ power)), 0, 1))
        assert angle <= 1e-3

    def test_unit_output(self, rng):
        sigma, _ = random_covariance(np.array([1.0, 0.4]), seed=6)
        out = hebb(sigma, normalize(rng.standard_normal(2)), 4, 0.2)
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-12


class TestTop1Dispatch:
    def test_power_dispatch(self, rng):
        sigma, _ = random_covariance(np.array([1.0, 0.5, 0.2]), seed=7)
        v0 = normalize(rng.standard_normal(3))
        cfg = Top1Config(method="power_iteration", steps=4)
        assert np.array_equal(top1(sigma, v0, cfg), pow_iter(sigma, v0, 4))

    def test_hebb_dispatch(self, rng):
        sigma, _ = random_covariance(np.array([1.0, 0.5, 0.2]), seed=8)
        v0 = normalize(rng.standard_normal(3))
        cfg = Top1Config(method="hebb", steps=3, eta=0.4)
        assert np.array_equal(top1(sigma, v0, cfg), hebb(sigma, v0, 3, 0.4))

    def test_exact_top1_matches_oracle(self):
        sigma, truth = random_covariance(np.array([1.0, 0.6, 0.3]), seed=9)
        got = exact_top1(sigma, truth.vectors[0])
        assert np.allclose(got, truth.vectors[0], atol=1e-12)

    def test_exact_top1_magnitude_ordering(self):
        # a large negative eigenvalue dominates
        e1 = np.array([1.0, 0.0])
        assert np.array_equal(exact_top1(np.diag([-2.0, 1.0]), e1), e1)

    @pytest.mark.parametrize("gap", [2.0 ** -10, 2.0 ** -20], ids=["1e-3", "1e-6"])
    def test_exact_top1_near_tied_spectrum(self, gap):
        # two inverse-iteration solves leave up to 9e-8 at the 1e-6 gap
        sigma, q = _hadamard_covariance(
            np.concatenate([[1.0, 1.0 - gap], 2.0 ** -np.arange(1, 15)]))
        for seed in range(5):
            v0 = normalize(np.random.default_rng(seed).standard_normal(16))
            got = exact_top1(sigma, v0)
            assert _sign_free_distance(got, q[:, 0]) <= 1e-10
            assert float(got @ v0) >= 0.0

    def test_exact_top1_plus_minus_tie_takes_the_positive(self):
        # eigvalsh returns -2 and 2 only up to rounding; either sign of the
        # matrix must still pick the eigenvector of +2
        sigma, q = _hadamard_covariance(
            np.concatenate([[2.0, -2.0], 2.0 ** -np.arange(1, 15)]))
        v0 = normalize(np.random.default_rng(0).standard_normal(16))
        assert _sign_free_distance(exact_top1(sigma, v0), q[:, 0]) <= 1e-12
        assert _sign_free_distance(exact_top1(-sigma, v0), q[:, 1]) <= 1e-12

    def test_exact_top1_singular_shift_falls_back_to_eigh(self):
        # the zero matrix makes lambda and the shift 0, an exactly singular solve
        v0 = normalize(np.array([1.0, 2.0, 3.0]))
        expect = _eigh(np.zeros((3, 3)))[1][0]
        assert np.array_equal(exact_top1(np.zeros((3, 3)), v0),
                              expect if float(expect @ v0) >= 0.0 else -expect)

    def test_exact_top1_orthogonal_start_falls_back_to_eigh(self):
        # inverse iteration from e1 never leaves e1; its residual sends the
        # call to eigh, which finds e2
        got = exact_top1(np.diag([1.0, 2.0]), np.array([1.0, 0.0]))
        assert _sign_free_distance(got, np.array([0.0, 1.0])) == 0.0


class TestContractionEstimate:
    def test_diagonal_ratio(self):
        assert contraction_estimate(np.diag([2.0, 1.0])).F == 0.5

    def test_expdecay_ratio(self):
        sigma = np.diag(spectrum_expdecay(6))
        est = contraction_estimate(sigma)
        assert abs(est.F - 1.0 / 1.1) <= 1e-12

    def test_zero_gap(self):
        with pytest.raises(DegenerateSpectrumError):
            contraction_estimate(np.diag([1.0, 1.0]))

    def test_magnitude_ordering(self):
        # a large negative eigenvalue dominates
        est = contraction_estimate(np.diag([-2.0, 1.0]))
        assert est.F == 0.5
