import math

import numpy as np
import pytest

from pardefl import (ConfigError, ConvergenceSchedule, CoverageError,
                     DegenerateSpectrumError, NumericalError, Top1Config,
                     attach_oracle, cascade_rates, check_bound,
                     communication_cost, davis_kahan_gap_bound,
                     deflation_perturbation_bound, exact_top1, lambert_w_m1,
                     parallel_deflation, phase_start_rounds,
                     poly_geometric_threshold, reference_eigh, w_cap)
from pardefl.metrics import random_covariance
from pardefl.theory import (bound_report_to_csv, schedule_for_run,
                            schedule_to_csv)


def w_m1_bisect(x):
    """Independent bisection oracle for the lower Lambert-W branch."""
    assert -math.exp(-1.0) <= x < 0.0
    lo, hi = -2.0, -1.0
    while lo * math.exp(lo) < x:
        lo *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(mid) >= x:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestLambertW:
    def test_branch_point(self):
        assert lambert_w_m1(-math.exp(-1.0)) == -1.0

    def test_against_bisection_oracle(self):
        for x in (-0.3, -0.1, -0.01, -1e-4, -1e-8, -0.36, -0.3678):
            assert abs(lambert_w_m1(x) - w_m1_bisect(x)) <= 1e-9

    def test_frozen_value(self):
        # bisection oracle gives W_-1(-0.1) = -3.577152063957297
        assert abs(lambert_w_m1(-0.1) - (-3.577152063957297)) <= 1e-11

    def test_round_trips(self):
        for t in (-1.001, -2.0, -5.0, -20.0):
            x = t * math.exp(t)
            assert abs(lambert_w_m1(x) - t) <= 1e-9

    def test_residual_tolerance(self):
        for x in np.linspace(-math.exp(-1.0) + 1e-6, -1e-12, 200):
            w = lambert_w_m1(float(x))
            assert abs(w * math.exp(w) - x) <= 1e-12 * max(abs(x), 1e-300)

    @pytest.mark.parametrize("x", [-math.exp(-1.0) + 10.0 ** -k
                                   for k in np.linspace(1.0, 12.9, 24)]
                             + [-(10.0 ** -e) for e in (13, 50, 100, 200, 300)])
    def test_converges_at_domain_ends(self, x):
        # the Halley loop must meet the docstring's residual promise next
        # to the branch point and toward 0
        w = lambert_w_m1(x)
        assert w <= -1.0
        assert abs(w * math.exp(w) - x) <= 1e-12 * abs(x)

    def test_domain_errors(self):
        for bad in (-1.0, 0.0, 0.5):
            with pytest.raises(NumericalError):
                lambert_w_m1(bad)


class TestWCap:
    def test_cap_region(self):
        assert w_cap(math.exp(-1.0)) == 1.0
        assert w_cap(1.0) == 1.0
        assert w_cap(10.0) == 1.0

    def test_below_cap_matches_oracle(self):
        assert abs(w_cap(0.1) - (-w_m1_bisect(-0.1))) <= 1e-9
        assert abs(w_cap(0.1) - 3.577152063957297) <= 1e-11

    def test_continuity_at_cap(self):
        assert abs(w_cap(math.exp(-1.0) - 1e-9) - 1.0) <= 1e-3

    def test_positive_domain(self):
        with pytest.raises(NumericalError):
            w_cap(0.0)

    def test_upper_bound_property(self):
        # w_cap(a) <= log(1/a) + sqrt(2 (log(1/a) - 1)) + 1 below the cap
        for a in np.geomspace(1e-8, math.exp(-1.0) - 1e-12, 400):
            la = math.log(1.0 / a)
            assert w_cap(float(a)) <= la + math.sqrt(2.0 * (la - 1.0)) + 1.0 + 1e-9


class TestCascadeRates:
    def test_constant_half(self):
        got = cascade_rates([0.5, 0.5, 0.5])
        assert np.allclose(got, [0.5, 0.75, 5.0 / 6.0], atol=1e-15)

    def test_large_then_small(self):
        assert np.allclose(cascade_rates([0.9, 0.1]), [0.9, 0.95], atol=1e-15)

    def test_single(self):
        assert cascade_rates([0.37]).tolist() == [0.37]

    def test_monotone_for_constant_factors(self, rng):
        f = float(rng.uniform(0.05, 0.95))
        m = cascade_rates([f] * 8)
        assert np.all(np.diff(m) >= 0.0)
        assert np.all(m < 1.0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigError):
            cascade_rates([0.5, 1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_factor(self, bad):
        with pytest.raises(ConfigError, match="inside"):
            cascade_rates([0.5, bad])


class TestPhaseStartRounds:
    def test_single_worker(self):
        assert phase_start_rounds([0.5], [1.0, 0.5]).tolist() == [1]

    def test_frozen_two_worker_schedule(self):
        # direct evaluation with the bisection oracle:
        #   head = max(-W(-m log(1/m))/log(1/m), (m+1)/(1-m)) = max(2, 3) = 3
        #   a = 0.25/12 * log(2)^2, tail = -W(-a)/log 2 + s_1 = 10.3366
        # total 13.3366 -> s_2 = 14
        got = phase_start_rounds([0.5, 0.5], [1.0, 0.5, 0.25, 0.125])
        assert got.tolist() == [1, 14]

    def test_oracle_recomputation(self):
        m1 = 0.5
        lg = math.log(1.0 / m1)
        head = max(-w_m1_bisect(-m1 * lg) / lg, (m1 + 1.0) / (1.0 - m1))
        a = (0.5 - 0.25) / (12.0 * 1.0 * 1.0) * lg ** 2
        tail = -w_m1_bisect(-a) / lg + 1.0
        assert math.ceil(head + tail) == 14

    def test_monotone_nondecreasing(self, rng):
        for _ in range(10):
            k = int(rng.integers(2, 7))
            f = rng.uniform(0.1, 0.6, k)
            spec = np.sort(rng.uniform(0.05, 0.9, k + 1))[::-1]
            spec = np.concatenate([[1.0], spec])[: k + 1]
            s = phase_start_rounds(cascade_rates(f), spec)
            assert s[0] == 1 and np.all(np.diff(s) >= 0)

    def test_rejects_rate_one(self):
        with pytest.raises(ConfigError):
            phase_start_rounds([1.0], [1.0, 0.5])

    def test_rejects_unnormalized_spectrum(self):
        with pytest.raises(DegenerateSpectrumError):
            phase_start_rounds([0.5, 0.5], [2.0, 1.0, 0.5, 0.25])

    def test_rejects_short_spectrum(self):
        with pytest.raises(DegenerateSpectrumError):
            phase_start_rounds([0.5, 0.5], [1.0, 0.5])

    @pytest.mark.parametrize("rates,spectrum,error", [
        ([0.5, math.nan], [1.0, 0.5, 0.25], ConfigError),
        ([0.5, math.inf], [1.0, 0.5, 0.25], ConfigError),
        ([0.5, 0.5], [1.0, math.nan, 0.25], DegenerateSpectrumError),
        ([0.5, 0.5], [1.0, 0.5, math.nan], DegenerateSpectrumError),
    ])
    def test_rejects_nan(self, rates, spectrum, error):
        with pytest.raises(error):
            phase_start_rounds(rates, spectrum)


class TestCheckBound:
    def _problem(self):
        spec = 2.0 ** -np.arange(24, dtype=float)
        return random_covariance(spec, seed=13)

    def test_exact_solver_all_satisfied(self):
        sigma, truth = self._problem()
        sched = schedule_for_run(sigma, truth, 3, 2)
        trace = attach_oracle(parallel_deflation(sigma, 3, int(sched.s[-1]) + 10,
                                                 Top1Config(steps=2), seed=3,
                                                 top1_fn=exact_top1), truth)
        report = check_bound(trace, sched)
        assert report.all_satisfied

    def test_power_iteration_satisfied(self):
        sigma, truth = self._problem()
        sched = schedule_for_run(sigma, truth, 3, 2)
        trace = attach_oracle(parallel_deflation(sigma, 3, int(sched.s[-1]) + 30,
                                                 Top1Config(steps=2), seed=4), truth)
        report = check_bound(trace, sched)
        assert report.n_rows > 0
        assert report.all_satisfied

    def test_truncated_trace_coverage_error(self):
        sigma, truth = self._problem()
        sched = schedule_for_run(sigma, truth, 3, 2)
        short = attach_oracle(parallel_deflation(sigma, 3, int(sched.s[-1]) - 1,
                                                 Top1Config(steps=2), seed=4), truth)
        with pytest.raises(CoverageError, match=str(int(sched.s[-1]))):
            check_bound(short, sched)

    def test_needs_oracle_errors(self):
        sigma, truth = self._problem()
        sched = schedule_for_run(sigma, truth, 3, 2)
        bare = parallel_deflation(sigma, 3, int(sched.s[-1]) + 5,
                                  Top1Config(steps=2), seed=4)
        with pytest.raises(ConfigError):
            check_bound(bare, sched)

    def test_refuses_unreliable_oracle(self):
        sigma = np.diag([1.0, 1.0, 0.5, 0.25])
        truth = reference_eigh(sigma)
        trace = attach_oracle(parallel_deflation(sigma, 2, 20, Top1Config(steps=2),
                                                 seed=1), truth)
        sched = ConvergenceSchedule(F=[0.5, 0.5], m=[0.5, 0.75], s=[1, 2])
        with pytest.raises(DegenerateSpectrumError):
            check_bound(trace, sched)

    def test_violation_detected(self):
        # an envelope with a tiny rate is violated by any stalled trace
        sigma, truth = self._problem()
        trace = attach_oracle(parallel_deflation(sigma, 1, 30, Top1Config(steps=1),
                                                 seed=5), truth)
        harsh = ConvergenceSchedule(F=[1e-6], m=[1e-6], s=[1])
        report = check_bound(trace, harsh, atol=0.0)
        assert report.n_violations > 0


class TestConvergenceSchedule:
    @pytest.mark.parametrize("k", [0, -2, 4])
    def test_bound_refuses_a_worker_outside_one_to_k(self, k):
        sched = ConvergenceSchedule(F=[0.5, 0.5, 0.5], m=[0.5, 0.75, 0.8], s=[1, 2, 3])
        with pytest.raises(ConfigError, match=r"^worker k must lie in \[1, 3\], got "
                                              + str(k) + "$"):
            sched.bound(k, 200)

    @pytest.mark.parametrize("F,m", [([math.nan], [math.nan]), ([math.nan], [0.5]),
                                     ([0.5], [math.nan]), ([1.5], [0.5])])
    def test_refuses_factors_or_rates_outside_zero_one(self, F, m):
        with pytest.raises(ConfigError, match="inside"):
            ConvergenceSchedule(F=F, m=m, s=[1])

    def test_bound_of_each_worker(self):
        sched = ConvergenceSchedule(F=[0.5, 0.5], m=[0.5, 0.75], s=[1, 3])
        assert sched.bound(1, 1) == 6.0 * 2 * 0.5
        assert sched.bound(2, 4) == 6.0 * 3 * 0.75 ** 2


class TestDavisKahan:
    def test_zero_perturbation(self):
        lhs, rhs = davis_kahan_gap_bound(np.diag([2.0, 1.0]), np.zeros((2, 2)))
        assert rhs == 0.0
        assert lhs <= 2e-8

    def test_small_offdiagonal(self):
        h = np.array([[0.0, 0.1], [0.1, 0.0]])
        lhs, rhs = davis_kahan_gap_bound(np.diag([2.0, 1.0]), h)
        assert 0.0 < lhs <= rhs

    def test_randomized_bound_holds(self, rng):
        hits = 0
        while hits < 100:
            d = int(rng.integers(2, 17))
            spec = np.sort(rng.uniform(0.2, 2.0, d))[::-1]
            if spec[0] - spec[1] < 0.05:
                continue
            mstar, _ = random_covariance(spec, seed=int(rng.integers(0, 10_000)))
            gap = spec[0] - spec[1]
            g = rng.standard_normal((d, d))
            g = (g + g.T) / 2.0
            g_norm = float(np.max(np.abs(reference_eigh(g).values)))
            h = g * (rng.uniform(0.1, 0.99) * gap / 2.0 / g_norm)
            lhs, rhs = davis_kahan_gap_bound(mstar, h)
            assert lhs <= rhs
            hits += 1

    def test_degenerate_top_rejected(self):
        with pytest.raises(DegenerateSpectrumError):
            davis_kahan_gap_bound(np.diag([1.0, 1.0]), np.zeros((2, 2)))


class TestDeflationPerturbationBound:
    def test_zero_errors(self):
        bound, ok = deflation_perturbation_bound([1.0, 0.5, 0.25], [0.0])
        assert bound == 0.0 and ok

    def test_hand_value(self):
        # 4*3/0.25 * 0.01 = 0.48; hypothesis 0.01 <= (2/12)*0.25
        bound, ok = deflation_perturbation_bound([1.0, 0.5, 0.25], [0.01], c0=3.0)
        assert abs(bound - 0.48) <= 1e-14
        assert ok

    def test_hypothesis_fails_for_big_errors(self):
        _, ok = deflation_perturbation_bound([1.0, 0.5, 0.25], [0.2], c0=3.0)
        assert not ok

    def test_requires_unit_top(self):
        with pytest.raises(DegenerateSpectrumError):
            deflation_perturbation_bound([2.0, 1.0, 0.5], [0.0])

    @pytest.mark.parametrize("spectrum,errors,error", [
        ([1.0, 0.5, 0.25], [math.nan], ConfigError),
        ([1.0, 0.5, 0.25], [math.inf], ConfigError),
        ([1.0, 0.5, 0.25], [-0.1], ConfigError),
        ([1.0, math.nan, 0.25], [0.01], DegenerateSpectrumError),
        ([1.0, 0.5, math.nan], [0.01], DegenerateSpectrumError),
    ])
    def test_refuses_non_finite_or_negative_inputs(self, spectrum, errors, error):
        with pytest.raises(error):
            deflation_perturbation_bound(spectrum, errors)


class TestPolyGeometricThreshold:
    def test_above_peak_is_zero(self):
        # the peak of 0.5^x (x+1) is about 1.0615 < 10
        assert poly_geometric_threshold(0.5, 10.0) == 0.0

    def test_frozen_value(self):
        # bisection on g(x) = 0.5^x (x+1) crossing 0.01 gives 10.118783197654981
        got = poly_geometric_threshold(0.5, 0.01)
        assert abs(got - 10.118783197654981) <= 1e-9

    def test_bisection_oracle(self):
        lo, hi = 1.0 / math.log(2.0) - 1.0, 200.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if 0.5 ** mid * (mid + 1.0) > 0.01:
                lo = mid
            else:
                hi = mid
        assert abs(poly_geometric_threshold(0.5, 0.01) - 0.5 * (lo + hi)) <= 1e-9

    def test_postcondition_randomized(self, rng):
        for _ in range(200):
            m = float(rng.uniform(0.05, 0.95))
            eps = float(10.0 ** rng.uniform(-4, 1))
            x = poly_geometric_threshold(m, eps)
            assert m ** x * (x + 1.0) <= eps + 1e-9

    def test_domain(self):
        with pytest.raises(NumericalError):
            poly_geometric_threshold(1.5, 0.1)
        with pytest.raises(NumericalError):
            poly_geometric_threshold(0.5, 0.0)


class TestCommunicationCost:
    def test_single_worker_free(self):
        assert communication_cost(1, 1.0, 10) == 0.0

    def test_hand_values(self):
        assert communication_cost(4, 1.0, 10) == 60.0
        assert communication_cost(2, 2.5, 4) == 10.0

    @pytest.mark.parametrize("c_comm,dim,named", [
        (1.0, -5, "dimension"), (1.0, 0, "dimension"), (-2.0, 4, "C_comm"),
        (math.nan, 4, "C_comm"), (math.inf, 4, "C_comm"),
    ])
    def test_refuses_bad_cost_or_dimension(self, c_comm, dim, named):
        with pytest.raises(ConfigError, match=named):
            communication_cost(3, c_comm, dim)


class TestScheduleExports:
    def test_csv_round_trip(self, tmp_path):
        sched = ConvergenceSchedule(F=[0.25, 0.25], m=[0.25, 0.625], s=[1, 7])
        path = tmp_path / "schedule.csv"
        schedule_to_csv(sched, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,F,m,s"
        assert lines[1].split(",") == ["1", "0.25", "0.25", "1"]

    def test_bound_csv(self, tmp_path):
        spec = 2.0 ** -np.arange(16, dtype=float)
        sigma, truth = random_covariance(spec, seed=2)
        sched = schedule_for_run(sigma, truth, 2, 2)
        trace = attach_oracle(parallel_deflation(sigma, 2, int(sched.s[-1]) + 5,
                                                 Top1Config(steps=2), seed=2), truth)
        report = check_bound(trace, sched)
        path = tmp_path / "bounds.csv"
        bound_report_to_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,round,error,bound,ok"
        assert len(lines) == report.n_rows + 1
