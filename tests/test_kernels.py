"""Equivalence of the numba kernels and their numpy twins, plus the
allocation discipline the streaming and dense engines rely on."""

import tracemalloc

import numpy as np
import pytest

from pardefl import _kernels as K

twins = pytest.mark.skipif(not K.USE_NUMBA,
                           reason="numba backend disabled; twins coincide")


def _rand_sym(rng, d):
    a = rng.standard_normal((d, d))
    return np.ascontiguousarray((a + a.T) / 2.0)


def _unit_rows(rng, m, d):
    v = rng.standard_normal((m, d))
    return np.ascontiguousarray(v / np.linalg.norm(v, axis=1, keepdims=True))


@twins
def test_sym_matvec_equivalence(rng):
    for _ in range(10):
        d = int(rng.integers(1, 40))
        a, x = _rand_sym(rng, d), rng.standard_normal(d)
        o1, o2 = np.empty(d), np.empty(d)
        K._np_sym_matvec(a, x, o1)
        K._nb_sym_matvec(a, x, o2)
        assert np.allclose(o1, o2, rtol=1e-13, atol=1e-13)


@twins
def test_power_and_hebb_equivalence(rng):
    for _ in range(8):
        d = int(rng.integers(2, 24))
        a = _rand_sym(rng, d)
        v = _unit_rows(rng, 1, d)[0]
        for np_fn, nb_fn, args in (
            (K._np_power_steps, K._nb_power_steps, (5,)),
            (K._np_hebb_steps, K._nb_hebb_steps, (5, 0.3)),
        ):
            o1, o2 = np.empty(d), np.empty(d)
            s1 = np_fn(a, v, *args, np.empty(d), o1)
            s2 = nb_fn(a, v, *args, np.empty(d), o2)
            assert s1 == s2 == 0.0
            assert np.allclose(o1, o2, rtol=1e-12, atol=1e-12)


@twins
def test_batch_kernels_equivalence(rng):
    for _ in range(8):
        n, d, m = int(rng.integers(1, 20)), int(rng.integers(2, 24)), int(rng.integers(0, 4))
        y = np.ascontiguousarray(rng.standard_normal((n, d)))
        x = rng.standard_normal(d)
        peers = _unit_rows(rng, m, d)
        lams = np.abs(rng.standard_normal(m)) + 0.1
        assert np.isclose(K._np_batch_rayleigh(y, x, np.empty(n)),
                          K._nb_batch_rayleigh(y, x, np.empty(n)),
                          rtol=1e-13)
        o1, o2 = np.empty(d), np.empty(d)
        K._np_deflated_batch_matvec(y, peers, lams, x, np.empty(n), o1)
        K._nb_deflated_batch_matvec(y, peers, lams, x, np.empty(n), o2)
        assert np.allclose(o1, o2, rtol=1e-12, atol=1e-12)
        xu = _unit_rows(rng, 1, d)[0]
        s1 = K._np_stoch_hebb_step(y, peers, xu, 0.05, np.empty(n), np.empty(d), o1)
        s2 = K._nb_stoch_hebb_step(y, peers, xu, 0.05, np.empty(n), np.empty(d), o2)
        assert s1 == s2 == 0.0
        assert np.allclose(o1, o2, rtol=1e-12, atol=1e-12)


@twins
def test_jacobi_equivalence(rng):
    for _ in range(6):
        d = int(rng.integers(1, 16))
        a = _rand_sym(rng, d)
        w1, w2 = a.copy(), a.copy()
        v1, v2 = np.empty((d, d)), np.empty((d, d))
        tol = 1e-13 * max(np.linalg.norm(a), 1e-30)
        s1 = K._np_jacobi_eigh(w1, v1, 100, tol)
        s2 = K._nb_jacobi_eigh(w2, v2, 100, tol)
        assert s1 >= 0.0 and s2 >= 0.0
        assert np.allclose(np.sort(np.diag(w1)), np.sort(np.diag(w2)),
                           rtol=1e-10, atol=1e-12)


def test_degenerate_status(rng):
    # start vector in the null space collapses to a zero iterate
    a = np.diag([1.0, 0.0])
    v = np.array([0.0, 1.0])
    assert K.power_steps(a, v, 1, np.empty(2), np.empty(2)) == -1.0


class TestAllocationCap:
    """The streaming path must never materialize a d x d buffer, and the
    dense engines must not allocate one per worker."""

    D = 10_000
    N = 64

    def _measure(self, fn):
        tracemalloc.start()
        tracemalloc.reset_peak()
        fn()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak

    def test_streaming_ops_stay_linear_in_d(self, rng):
        from pardefl import MatrixRowProvider, StepSchedule, batch_rayleigh, deflated_matvec
        from pardefl.stochastic import stochastic_parallel_deflation

        d, n = self.D, self.N
        y = rng.standard_normal((n, d))
        x = rng.standard_normal(d)
        peers = y[:3] / np.linalg.norm(y[:3], axis=1, keepdims=True)
        lams = np.array([1.0, 2.0, 3.0])
        dense_bytes = d * d * 8

        def ops():
            batch_rayleigh(y, x)
            deflated_matvec(y, peers, lams, x)
            prov = MatrixRowProvider(y, 16, seed=0)
            stochastic_parallel_deflation(prov, 2, 2, 1,
                                          StepSchedule(eta0=1e-4, mode="constant"),
                                          seed=0)

        peak = self._measure(ops)
        assert peak < dense_bytes / 8, f"peak {peak} bytes vs dense {dense_bytes}"

    def test_dense_engine_peak_flat_in_k(self):
        from pardefl import Top1Config, parallel_deflation, run_eigengame
        from pardefl.metrics import random_covariance, spectrum_powerlaw

        d = 400
        sigma, _ = random_covariance(spectrum_powerlaw(d), seed=0)
        hebb = Top1Config(method="hebb", steps=2, eta=0.5)
        runs = {
            "power": lambda k: parallel_deflation(sigma, k, 16, Top1Config(steps=2), 0),
            "hebb": lambda k: parallel_deflation(sigma, k, 16, hebb, 0),
            "mu": lambda k: run_eigengame("mu", sigma, k, 16, 2, eta=0.1, seed=0),
            "alpha": lambda k: run_eigengame("alpha", sigma, k, 16, 2, eta=0.1, seed=0),
        }
        dense_bytes = d * d * 8
        for name, run in runs.items():
            growth = self._measure(lambda: run(16)) - self._measure(lambda: run(4))
            assert growth < dense_bytes, (
                f"{name}: peak grows by {growth} bytes from K=4 to K=16, "
                f"one d x d is {dense_bytes}")
