"""Allocation discipline the engines and the passes after them rely on."""

import tracemalloc

import numpy as np


def peak_bytes(fn):
    """Traced peak of one call of fn, in bytes."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    fn()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


class TestAllocationCap:
    """The streaming path must never materialize a d x d buffer, and the
    dense engines must not allocate one per worker."""

    D = 10_000
    N = 64

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

        peak = peak_bytes(ops)
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
            growth = peak_bytes(lambda: run(16)) - peak_bytes(lambda: run(4))
            assert growth < dense_bytes, (
                f"{name}: peak grows by {growth} bytes from K=4 to K=16, "
                f"one d x d is {dense_bytes}")


class TestPostEnginePeaks:
    """Scoring, loading and formatting hold their result plus bounded
    scratch, never a second copy of a whole trace or file."""

    def test_oracle_scratch_flat_in_rounds(self):
        from pardefl import EigenSystem, RunTrace, attach_oracle
        from pardefl.engine import ORACLE_PIECE_BYTES

        # an 8 kB round: both runs use the same 32-round piece buffer
        d, k = 128, 8
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((d, d)))
        truth = EigenSystem(values=np.linspace(2.0, 0.1, d), vectors=q.T)
        scratch = {}
        for n_rounds in (50, 2000):
            vectors = np.random.default_rng(n_rounds).standard_normal((n_rounds, k, d))
            trace = RunTrace(algorithm="parallel_deflation", local_steps=1, seed=0,
                             vectors=vectors)
            result = n_rounds * k * 8  # the (L, K) errors
            scratch[n_rounds] = peak_bytes(lambda: attach_oracle(trace, truth)) - result
        assert scratch[2000] - scratch[50] < 16 * 1024, scratch
        # the piece buffer plus numpy's reduction buffers
        assert scratch[2000] < ORACLE_PIECE_BYTES + 128 * 1024, scratch

    def test_load_pdm1_holds_only_its_result(self, tmp_path):
        from pardefl import load_pdm1, save_pdm1

        path = tmp_path / "m.pdm1"
        save_pdm1(path, np.random.default_rng(0).standard_normal((1000, 200)))
        payload = path.stat().st_size - 20
        peak = peak_bytes(lambda: load_pdm1(path))
        assert peak <= payload + 64 * 1024, f"peak {peak} bytes for a {payload} byte payload"

    def test_trial_csv_peak_near_twice_its_output(self):
        from pardefl import RunTrace
        from pardefl.cli import _trial_csv

        rng = np.random.default_rng(0)
        n_rounds, k = 400, 10
        metric = rng.random(n_rounds)
        for errors in (rng.random((n_rounds, k)), None):
            trace = RunTrace(algorithm="parallel_deflation", local_steps=1, seed=0,
                             vectors=np.zeros((n_rounds, k, 3)), errors=errors)
            text = []
            peak = peak_bytes(lambda: text.append(_trial_csv(trace, metric, 0)))
            assert peak <= 2.5 * len(text[0]), (
                f"peak {peak} bytes for {len(text[0])} characters of output")
