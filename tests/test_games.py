import numpy as np
import pytest

from pardefl import (ConfigError, DegenerateSpectrumError, NumericalError,
                     deflate, matvec, nash_check, normalize, utility_U,
                     utility_V)
from pardefl.metrics import random_covariance


class TestUtilityU:
    def test_no_peers(self):
        assert utility_U(np.array([1.0, 0.0]), [], np.diag([3.0, 2.0])) == 3.0

    def test_hand_value(self):
        # v'Sv = 2.5, penalty (e1'Sv)^2 / (e1'Se1) = (3/sqrt(2))^2 / 3 = 1.5,
        # so U = 1.0. Cross-check: e1 is an exact eigenvector of diag(3,2),
        # so U must equal V here, and V = 2.5 - 3 * (1/sqrt(2))^2 = 1.0.
        v = normalize([1.0, 1.0])
        sigma = np.diag([3.0, 2.0])
        got = utility_U(v, [np.array([1.0, 0.0])], sigma)
        assert abs(got - 1.0) <= 1e-14
        assert abs(got - utility_V(v, [np.array([1.0, 0.0])], sigma)) <= 1e-14

    def test_division_guard(self):
        sigma = np.diag([1.0, 0.0])
        with pytest.raises(NumericalError):
            utility_U(np.array([1.0, 0.0]), [np.array([0.0, 1.0])], sigma)

    def test_equals_v_at_exact_peers(self, rng):
        for _ in range(25):
            d = int(rng.integers(3, 16))
            spec = np.sort(rng.uniform(0.1, 2.0, d))[::-1]
            sigma, truth = random_covariance(spec, seed=int(rng.integers(0, 999)))
            k = int(rng.integers(1, min(d, 5)))
            peers = truth.vectors[: k - 1]
            v = normalize(rng.standard_normal(d))
            u_val = utility_U(v, peers, sigma)
            v_val = utility_V(v, peers, sigma)
            assert abs(u_val - v_val) <= 1e-10 * max(1.0, abs(v_val))


class TestUtilityV:
    def test_no_peers_is_rayleigh(self, rng):
        sigma, _ = random_covariance(np.array([1.0, 0.5]), seed=1)
        v = normalize(rng.standard_normal(2))
        assert abs(utility_V(v, [], sigma) - float(v @ sigma @ v)) <= 1e-14

    def test_orthogonal_peer(self):
        got = utility_V(np.array([0.0, 1.0]), [np.array([1.0, 0.0])],
                        np.diag([3.0, 2.0]))
        assert got == 2.0

    def test_hand_value(self):
        # 2.5 - 3 * 0.5 = 1.0
        v = normalize([1.0, 1.0])
        got = utility_V(v, [np.array([1.0, 0.0])], np.diag([3.0, 2.0]))
        assert abs(got - 1.0) <= 1e-14

    def test_quadratic_form_identity(self, rng):
        # V(v | peers) = v' deflate(Sigma, peers) v
        for _ in range(25):
            d = int(rng.integers(2, 16))
            sigma, truth = random_covariance(
                np.sort(rng.uniform(0.1, 2.0, d))[::-1],
                seed=int(rng.integers(0, 999)))
            m = int(rng.integers(0, min(d, 4)))
            peers = [normalize(rng.standard_normal(d)) for _ in range(m)]
            v = normalize(rng.standard_normal(d))
            direct = utility_V(v, peers, sigma)
            quad = float(v @ matvec(deflate(sigma, peers), v))
            assert abs(direct - quad) <= 1e-12 * max(1.0, abs(quad))


class TestNashCheck:
    def test_oracle_candidates_strict(self):
        sigma, truth = random_covariance(np.array([3.0, 2.0, 1.0, 0.5]), seed=2)
        reports = nash_check(sigma, truth.vectors[:3], 300, 0.1, seed=5)
        assert all(r.strict for r in reports)

    def test_swapped_candidates_not_strict_at_first(self):
        sigma, truth = random_covariance(np.array([3.0, 2.0, 1.0, 0.5]), seed=3)
        cand = truth.vectors[:3].copy()
        cand[[0, 1]] = cand[[1, 0]]
        reports = nash_check(sigma, cand, 300, 0.1, seed=6)
        assert not reports[0].strict

    def test_sign_flip_still_strict(self):
        sigma, truth = random_covariance(np.array([3.0, 2.0, 1.0]), seed=4)
        reports = nash_check(sigma, -truth.vectors[:1], 300, 0.1, seed=7)
        assert reports[0].strict

    def test_later_workers_do_not_matter(self):
        # payoffs depend only on players 1..k-1: permuting the tail leaves
        # the earlier reports unchanged exactly
        sigma, truth = random_covariance(np.array([3.0, 2.0, 1.0, 0.5, 0.25]), seed=5)
        cand = truth.vectors[:4].copy()
        r1 = nash_check(sigma, cand, 50, 0.1, seed=8)
        cand2 = cand.copy()
        cand2[[2, 3]] = cand2[[3, 2]]
        r2 = nash_check(sigma, cand2, 50, 0.1, seed=8)
        for a, b in zip(r1[:2], r2[:2]):
            assert a.value_at_candidate == b.value_at_candidate
            assert a.max_perturbed_value == b.max_perturbed_value

    def test_degenerate_spectrum_rejected(self):
        with pytest.raises(DegenerateSpectrumError):
            nash_check(np.diag([2.0, 2.0, 1.0]), np.eye(3)[:2], 10, 0.1, seed=1)

    def test_nonpositive_spectrum_rejected(self):
        with pytest.raises(DegenerateSpectrumError):
            nash_check(np.diag([1.0, 0.5, -0.2]), np.eye(3), 10, 0.1, seed=1)

    def test_radius_validation(self):
        with pytest.raises(ConfigError):
            nash_check(np.diag([2.0, 1.0]), np.eye(2)[:1], 10, 1e-9, seed=1)

    @pytest.mark.parametrize("radius", [np.inf, np.nan])
    def test_radius_must_be_finite(self, radius):
        # an infinite radius made every perturbed payoff NaN, so random
        # candidates read as strict equilibria
        with pytest.raises(ConfigError, match="radius"):
            nash_check(np.diag([2.0, 1.0, 0.5]), np.eye(3)[:2], 10, radius, seed=1)

    def test_strict_decrease_across_angle_band(self, rng):
        # every sampled perturbation with angle in [1e-3, 0.3] lowers the payoff
        sigma, truth = random_covariance(np.array([2.0, 1.3, 0.8, 0.4]), seed=6)
        for k in range(1, 4):
            v = truth.vectors[k - 1]
            peers = truth.vectors[: k - 1]
            base = utility_V(v, peers, sigma)
            for _ in range(200):
                w = rng.standard_normal(4)
                w -= (w @ v) * v
                w = normalize(w)
                theta = 1e-3 + (0.3 - 1e-3) * rng.random()
                pert = normalize(np.cos(theta) * v + np.sin(theta) * w)
                assert utility_V(pert, peers, sigma) < base
