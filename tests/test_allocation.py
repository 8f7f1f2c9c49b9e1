"""Allocation discipline the engines and the passes after them rely on."""

import tracemalloc

import numpy as np
import pytest


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
        # the scorer's one-round buffers, both signs, plus small objects
        one_round = (2 * k * d + 2 * k) * 8
        assert scratch[2000] < one_round + 16 * 1024, scratch

    @pytest.mark.parametrize("algorithm", ["parallel_deflation", "eigengame_mu",
                                           "stochastic_parallel_deflation"])
    def test_scored_run_flat_in_rounds(self, algorithm):
        from pardefl.cli import ExperimentConfig, _Problem, run_trial

        k, peak = 4, {}
        for n_rounds in (50, 2000):
            cfg = ExperimentConfig(algorithm=algorithm, spectrum="powerlaw", d=64,
                                   K=k, L=n_rounds, eta=0.5, batch_size=16, seed=1,
                                   out="unused")
            problem = _Problem(cfg)
            peak[n_rounds] = peak_bytes(lambda: run_trial(cfg, problem, 0))
        # a stored (L, K, d) trace would grow by 4 MB here
        errors_growth = (2000 - 50) * k * 8
        assert peak[2000] - peak[50] <= errors_growth + 64 * 1024, peak

    def test_load_pdm1_holds_only_its_result(self, tmp_path):
        from pardefl import load_pdm1, save_pdm1

        path = tmp_path / "m.pdm1"
        save_pdm1(path, np.random.default_rng(0).standard_normal((1000, 200)))
        payload = path.stat().st_size - 20
        peak = peak_bytes(lambda: load_pdm1(path))
        assert peak <= payload + 64 * 1024, f"peak {peak} bytes for a {payload} byte payload"

    def test_load_matrix_holds_its_result_and_one_chunk(self, tmp_path):
        from pardefl import load_matrix, save_pdm1
        from pardefl.linalg import GRAM_ROWS

        n, d = 4000, 100
        path = tmp_path / "m.pdm1"
        save_pdm1(path, np.random.default_rng(0).standard_normal((n, d)))
        payload = path.stat().st_size - 20
        peak = peak_bytes(lambda: load_matrix(path))
        # one chunk's finite mask; a whole-matrix mask would add n * d bytes
        mask = GRAM_ROWS * d
        assert peak <= payload + mask + 64 * 1024, (
            f"peak {peak} bytes for a {payload} byte payload")

    @pytest.mark.parametrize("algorithm, extra", [
        ("parallel_deflation", {}),
        ("parallel_deflation", {"solver": "hebb", "eta": 1e-4}),
        ("sequential_deflation", {}),
        ("eigengame_alpha", {}),
        ("eigengame_mu", {}),
    ], ids=["power", "hebb", "sequential", "alpha", "mu"])
    def test_dense_data_run_flat_in_rows(self, tmp_path, algorithm, extra):
        from pardefl import save_pdm1
        from pardefl.cli import ExperimentConfig, _Problem, run_trial

        d, peak = 16, {}
        for n_rows in (2000, 32000):
            path = tmp_path / f"y{n_rows}.pdm1"
            save_pdm1(path, np.random.default_rng(n_rows).standard_normal((n_rows, d)))
            cfg = ExperimentConfig(algorithm=algorithm, data=str(path), K=4, L=40,
                                   T=2, seed=1, out="unused", **extra)
            # the source is built inside the measured call: Sigma from the file
            peak[n_rows] = peak_bytes(lambda: run_trial(cfg, _Problem(cfg), 0))
        # holding the rows would grow the peak by 3.84 MB here
        assert peak[32000] - peak[2000] <= 64 * 1024, peak

    def test_trial_csv_write_flat_in_rounds(self, tmp_path):
        from pardefl import RunTrace
        from pardefl.cli import _trial_csv
        from pardefl.io import atomic_write_bytes

        rng = np.random.default_rng(0)
        k = 10
        for with_errors in (True, False):
            peak = {}
            for n_rounds in (50, 2000):
                metric = rng.random(n_rounds)
                errors = rng.random((n_rounds, k)) if with_errors else None
                trace = RunTrace(algorithm="parallel_deflation", local_steps=1, seed=0,
                                 vectors=np.zeros((n_rounds, k, 3)), errors=errors)
                path = tmp_path / f"trial_{n_rounds}.csv"
                peak[n_rounds] = peak_bytes(lambda: atomic_write_bytes(
                    path, map(str.encode, _trial_csv(trace, metric, 0))))
            # the L=2000 file is over 1 MB with errors; it is written a round
            # at a time
            assert peak[2000] - peak[50] <= 16 * 1024, (with_errors, peak)

    def test_run_experiment_holds_no_whole_trial_csv(self, tmp_path):
        from pardefl.cli import ExperimentConfig, _Problem, run_experiment

        peak = {}
        for n_rounds in (50, 2000):
            cfg = ExperimentConfig(algorithm="parallel_deflation", spectrum="powerlaw",
                                   d=16, K=8, L=n_rounds, seed=1, mode="serial",
                                   out=str(tmp_path / str(n_rounds)))
            problem = _Problem(cfg)
            peak[n_rounds] = peak_bytes(lambda: run_experiment(cfg, problem))
        # the errors and the aggregate rows grow with L; the trial CSV, as
        # a str and then as bytes, would add twice its size
        trial_bytes = (tmp_path / "2000" / "trial_000.csv").stat().st_size
        assert peak[2000] - peak[50] < trial_bytes, (peak, trial_bytes)

    def test_eigensystem_holds_its_copy_and_one_block(self):
        from pardefl import EigenSystem

        d = 400
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((d, d)))
        values = np.linspace(2.0, 0.1, d)
        for vectors in (q.T, np.ascontiguousarray(q.T)):
            peak = peak_bytes(lambda: EigenSystem(values=values, vectors=vectors))
            # one private copy, then its finite mask or a block of V V^T;
            # a second copy or the whole V V^T would add a d x d
            assert peak < 1.25 * d * d * 8, peak / (d * d * 8)
