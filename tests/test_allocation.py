"""Allocation discipline the streaming and dense engines rely on."""

import tracemalloc

import numpy as np


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
