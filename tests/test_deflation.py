import numpy as np
import pytest

from pardefl import (ConfigError, Top1Config, attach_oracle,
                     deflate, exact_top1, export_trace_csv, normalize,
                     parallel_deflation, read_trace_csv, reference_eigh,
                     replay_round, sequential_deflation, top1, unit_init)
from pardefl.metrics import random_covariance


class TestDeflate:
    def test_exact_eigenvector_removes_eigenvalue(self):
        got = deflate(np.diag([3.0, 2.0, 1.0]), [np.array([1.0, 0.0, 0.0])])
        assert np.allclose(got, np.diag([0.0, 2.0, 1.0]), atol=1e-15)

    def test_empty_is_identity(self):
        sigma = np.diag([3.0, 2.0, 1.0])
        assert np.array_equal(deflate(sigma, []), sigma)

    def test_hand_rank_one_update(self):
        v = normalize([1.0, 1.0, 0.0])
        got = deflate(np.diag([3.0, 2.0, 1.0]), [v])
        expect = np.array([[1.75, -1.25, 0.0], [-1.25, 0.75, 0.0], [0.0, 0.0, 1.0]])
        assert np.allclose(got, expect, atol=1e-14)

    def test_non_unit_rejected(self):
        with pytest.raises(ConfigError):
            deflate(np.eye(2), [np.array([1.0, 1.0])])

    def test_output_symmetric(self, rng):
        sigma, truth = random_covariance(np.sort(rng.uniform(0.1, 1, 6))[::-1], seed=3)
        got = deflate(sigma, truth.vectors[:2])
        assert np.array_equal(got, got.T)

    def test_spectrum_property(self, rng):
        # deflating by the exact top-m eigenvectors zeroes their eigenvalues
        for _ in range(6):
            d = int(rng.integers(3, 33))
            m = int(rng.integers(1, min(d, 5)))
            spec = np.sort(rng.uniform(0.2, 2.0, d))[::-1]
            sigma, truth = random_covariance(spec, seed=int(rng.integers(0, 1000)))
            got_vals = reference_eigh(deflate(sigma, truth.vectors[:m])).values
            expect = np.sort(np.concatenate([np.zeros(m), spec[m:]]))[::-1]
            assert np.max(np.abs(got_vals - expect)) <= 1e-10 * spec[0]


class TestSequentialDeflation:
    def test_diagonal_recovery(self):
        out = sequential_deflation(np.diag([3.0, 2.0, 1.0]), 3,
                                   Top1Config(steps=200), seed=0)
        for k in range(3):
            e = np.eye(3)[k]
            assert min(np.linalg.norm(out[k] - e), np.linalg.norm(out[k] + e)) <= 1e-8

    def test_k1_equals_top1(self):
        sigma, _ = random_covariance(np.array([1.0, 0.5, 0.25]), seed=4)
        cfg = Top1Config(steps=50)
        out = sequential_deflation(sigma, 1, cfg, seed=9)
        direct = top1(sigma, unit_init(9, 1, 3), cfg)
        assert np.array_equal(out[0], direct)

    def test_oracle_match_gap_rich(self, rng):
        spec = 0.5 ** np.arange(8)
        sigma, truth = random_covariance(spec, seed=11)
        out = sequential_deflation(sigma, 5, Top1Config(steps=500), seed=2)
        for k in range(5):
            u = truth.vectors[k]
            assert min(np.linalg.norm(out[k] - u), np.linalg.norm(out[k] + u)) <= 1e-6

    def test_k_exceeds_dim(self):
        with pytest.raises(ConfigError):
            sequential_deflation(np.eye(2), 3, Top1Config(steps=1), seed=0)

    def test_solver_error_names_worker(self):
        # on diag(1, 0) one power step lands exactly on +-e1, so worker 2
        # deflates to the exact zero matrix and its solver must fail loudly
        from pardefl import NumericalError
        with pytest.raises(NumericalError, match="worker 2"):
            sequential_deflation(np.diag([1.0, 0.0]), 2, Top1Config(steps=3), seed=0)


class TestParallelDeflation:
    def test_exact_solver_fixpoint_diag(self):
        trace = parallel_deflation(np.diag([3.0, 2.0, 1.0]), 3, 3,
                                   Top1Config(steps=1), seed=1, top1_fn=exact_top1)
        final = trace.final_vectors
        for k in range(3):
            e = np.eye(3)[k]
            assert min(np.linalg.norm(final[k] - e),
                       np.linalg.norm(final[k] + e)) <= 1e-12

    def test_exact_solver_fixpoint_from_activation(self):
        sigma, truth = random_covariance(np.array([1.0, 0.6, 0.35, 0.2]), seed=5)
        trace = attach_oracle(parallel_deflation(sigma, 3, 6, Top1Config(steps=1),
                                                 seed=2, top1_fn=exact_top1), truth)
        for k in range(1, 4):
            for rnd in range(k, 7):
                assert trace.errors[rnd - 1, k - 1] <= 1e-10

    def test_requires_enough_rounds(self):
        with pytest.raises(ConfigError):
            parallel_deflation(np.eye(4), 3, 2, Top1Config(steps=1), seed=0)

    def test_solver_error_names_worker_and_round(self):
        from pardefl import NumericalError
        with pytest.raises(NumericalError, match="worker 2, round 2"):
            parallel_deflation(np.diag([1.0, 0.0]), 2, 2, Top1Config(steps=2), seed=0)

    def test_activation_counts(self):
        sigma, _ = random_covariance(np.array([1.0, 0.5, 0.25, 0.125]), seed=6)
        trace = parallel_deflation(sigma, 3, 5, Top1Config(steps=1), seed=0)
        counts = trace.active().sum(axis=1)
        assert counts.tolist() == [min(l, 3) for l in range(1, 6)]

    def test_inactive_workers_broadcast_init(self):
        sigma, _ = random_covariance(np.array([1.0, 0.5, 0.25, 0.125]), seed=8)
        trace = parallel_deflation(sigma, 3, 4, Top1Config(steps=2), seed=21)
        assert np.array_equal(trace.vectors[0, 1], unit_init(21, 2, 4))
        assert np.array_equal(trace.vectors[1, 2], unit_init(21, 3, 4))

    def test_worker_state_view(self):
        sigma, _ = random_covariance(np.array([1.0, 0.5, 0.25, 0.125]), seed=8)
        trace = parallel_deflation(sigma, 3, 5, Top1Config(steps=2), seed=21)
        idle = trace.worker_state(3, 2)
        assert idle.rounds_active == 0
        assert np.array_equal(idle.v_current, idle.v_init)
        busy = trace.worker_state(1, 5)
        assert busy.rounds_active == 5
        assert abs(np.linalg.norm(busy.v_current) - 1.0) <= 1e-12

    def test_replay_round_bitwise(self):
        sigma, _ = random_covariance(np.array([1.0, 0.55, 0.3, 0.1]), seed=9)
        cfg = Top1Config(steps=3)
        trace = parallel_deflation(sigma, 3, 8, cfg, seed=4)
        for rnd in (2, 4, 8):
            assert np.array_equal(replay_round(sigma, trace, rnd, cfg),
                                  trace.vectors[rnd - 1])

    def test_same_seed_bitwise_reproducible(self):
        sigma, _ = random_covariance(np.array([1.0, 0.5, 0.2]), seed=10)
        cfg = Top1Config(steps=2)
        a = parallel_deflation(sigma, 2, 6, cfg, seed=3)
        b = parallel_deflation(sigma, 2, 6, cfg, seed=3)
        assert np.array_equal(a.vectors, b.vectors)

    def test_serial_thread_bitwise(self):
        sigma, _ = random_covariance(0.5 ** np.arange(10), seed=12)
        cfg = Top1Config(steps=2)
        a = parallel_deflation(sigma, 4, 9, cfg, seed=5, mode="serial")
        b = parallel_deflation(sigma, 4, 9, cfg, seed=5, mode="thread")
        assert np.array_equal(a.vectors, b.vectors)

    def test_matches_sequential_at_large_t(self):
        spec = 0.5 ** np.arange(12)
        sigma, _ = random_covariance(spec, seed=13)
        cfg = Top1Config(steps=1000)
        seq = sequential_deflation(sigma, 4, cfg, seed=6)
        par = parallel_deflation(sigma, 4, 4, cfg, seed=6).final_vectors
        for k in range(4):
            dev = min(np.max(np.abs(par[k] - seq[k])), np.max(np.abs(par[k] + seq[k])))
            assert dev <= 1e-6

    def test_hebb_solver_runs(self):
        sigma, truth = random_covariance(np.array([1.0, 0.5, 0.25]), seed=14)
        cfg = Top1Config(method="hebb", steps=5, eta=1.0)
        trace = attach_oracle(parallel_deflation(sigma, 2, 40, cfg, seed=7), truth)
        assert trace.errors[-1].max() <= 1e-6


class TestAttachOracle:
    def test_exact_recovery_zero_error(self):
        sigma, truth = random_covariance(np.array([1.0, 0.5]), seed=15)
        trace = parallel_deflation(sigma, 2, 3, Top1Config(steps=1), seed=1,
                                   top1_fn=exact_top1)
        errs = attach_oracle(trace, truth).errors
        assert errs[-1].max() <= 1e-10

    def test_sign_invariance(self):
        sigma, truth = random_covariance(np.array([1.0, 0.5]), seed=16)
        trace = parallel_deflation(sigma, 2, 3, Top1Config(steps=1), seed=1,
                                   top1_fn=lambda s, w: -exact_top1(s, w))
        errs = attach_oracle(trace, truth).errors
        assert errs[-1].max() <= 1e-10

    def test_orthogonal_distance(self):
        # a trace pinned at e2 against truth e1 has error sqrt(2)
        sigma = np.diag([2.0, 1.0])
        truth = reference_eigh(sigma)
        trace = parallel_deflation(sigma, 1, 1, Top1Config(steps=1), seed=1,
                                   top1_fn=lambda s, w: np.array([0.0, 1.0]))
        errs = attach_oracle(trace, truth).errors
        assert abs(errs[0, 0] - np.sqrt(2.0)) <= 1e-12

    def test_errors_match_norm_formula_bitwise(self):
        spec = np.sort(np.random.default_rng(3).uniform(0.2, 2.0, 20))[::-1]
        sigma, truth = random_covariance(spec, seed=19)
        trace = parallel_deflation(sigma, 5, 9, Top1Config(steps=2), seed=4)
        top = truth.vectors[:5]
        expect = np.minimum(np.linalg.norm(trace.vectors - top[None, :, :], axis=2),
                            np.linalg.norm(trace.vectors + top[None, :, :], axis=2))
        assert np.array_equal(attach_oracle(trace, truth).errors, expect)

    def test_k_exceeds_oracle(self):
        sigma, truth = random_covariance(np.array([1.0, 0.5, 0.25]), seed=17)
        trace = parallel_deflation(sigma, 3, 3, Top1Config(steps=1), seed=1)
        small = reference_eigh(np.diag([2.0, 1.0]))
        with pytest.raises(ConfigError):
            attach_oracle(trace, small)

    def test_degenerate_oracle_flagged(self):
        vals = np.array([1.0, 1.0, 0.5])
        truth_sigma = np.diag(vals)
        trace = parallel_deflation(truth_sigma, 2, 3, Top1Config(steps=1), seed=1)
        flagged = attach_oracle(trace, reference_eigh(truth_sigma))
        assert not flagged.oracle_reliable


class TestTraceExport:
    def test_csv_schema_and_round_trip(self, tmp_path):
        sigma, truth = random_covariance(np.array([1.0, 0.5, 0.25]), seed=18)
        trace = attach_oracle(parallel_deflation(sigma, 2, 4, Top1Config(steps=1),
                                                 seed=2), truth)
        path = tmp_path / "trace.csv"
        export_trace_csv(trace, path)
        assert path.read_text().splitlines()[0] == "round,worker,error,active"
        rows = read_trace_csv(path)
        assert len(rows) == 4 * 2
        assert rows[0]["active"] == "1" and rows[1]["active"] == "0"
        got = float(rows[-1]["error"])
        assert got == trace.errors[-1, -1]

    def test_sidecar_final_vectors(self, tmp_path):
        from pardefl import load_pdm1
        sigma, _ = random_covariance(np.array([1.0, 0.5]), seed=19)
        trace = parallel_deflation(sigma, 2, 3, Top1Config(steps=1), seed=2)
        export_trace_csv(trace, tmp_path / "t.csv")
        assert np.array_equal(load_pdm1(tmp_path / "t.pdm1"), trace.final_vectors)
