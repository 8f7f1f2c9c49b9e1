import csv
import os
import re
import struct
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from pardefl import (attach_oracle, cli, discounted_rayleigh, load_matrix,
                     parallel_deflation, recovery_error, run_eigengame, save_pdm1,
                     sequential_deflation, stochastic_parallel_deflation,
                     unit_init)
from pardefl.cli import (AGGREGATE_HEADER, TRIAL_HEADER, ExperimentConfig, _Problem,
                         _trial_csv, build_config, main, parse_config_file, run_comparison,
                         run_experiment, run_theory_report, run_trial)
from pardefl.errors import (CapacityError, ConfigError, CoverageError,
                            DataFormatError, DegenerateSpectrumError,
                            NumericalError, PardeflError, StreamError)
from pardefl.linalg import GRAM_ROWS


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def small_cfg(**kw):
    base = dict(algorithm="parallel_deflation", spectrum="powerlaw", d=16,
                K=3, L=8, T=1, seed=5, trials=2, out="unset")
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_config_file_and_overrides(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(
            "# comment\nalgorithm=parallel_deflation\nspectrum=powerlaw\n"
            "d=16\nK=3\nL=8\nT=2\nseed=1\n")
        cfg = build_config(parse_config_file(cfg_file), {"T": 5, "out": "o"})
        assert cfg.T == 5 and cfg.d == 16 and cfg.seed == 1

    def test_unknown_field_named(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("algorithm=parallel_deflation\nbogus=3\n")
        with pytest.raises(ConfigError, match="bogus"):
            parse_config_file(cfg_file)

    def test_env_out_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PARDEFL_OUT", str(tmp_path / "env_out"))
        cfg = build_config({}, dict(algorithm="parallel_deflation",
                                    spectrum="powerlaw", d=8, K=2, L=4))
        assert cfg.out == str(tmp_path / "env_out")

    def test_invariants(self):
        with pytest.raises(ConfigError):
            small_cfg(L=2)          # L < K
        with pytest.raises(ConfigError):
            small_cfg(trials=0)
        with pytest.raises(ConfigError):
            small_cfg(T=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(algorithm="parallel_deflation")   # no source


def write_cfg(path, values):
    path.write_text("".join(f"{k}={v}\n" for k, v in values.items()))
    return path


def as_flags(values):
    return [a for k, v in values.items() for a in ("--" + k.replace("_", "-"), str(v))]


VALID = dict(algorithm="parallel_deflation", spectrum="powerlaw", d="6", K="2",
             L="3", trials="1")


class TestCheckedAtLoad:
    """Every field is checked when the config is built, whatever the algorithm."""

    @pytest.mark.parametrize("as_file", [False, True], ids=["flag", "file"])
    @pytest.mark.parametrize("values,named", [
        pytest.param({"eta": "inf"}, "eta", id="eta-inf"),
        pytest.param({"batch_size": "0"}, "batch_size", id="batch_size-0"),
        pytest.param({"tau": "nan"}, "tau", id="tau-nan"),
        pytest.param({"algorithm": "eigengame_mu", "solver": "hebb"}, "eta",
                     id="hebb-without-eta"),
        pytest.param({"solver": "bogus"}, "solver", id="solver-bogus"),
        pytest.param({"schedule": "bogus"}, "schedule", id="schedule-bogus"),
        pytest.param({"mode": "bogus"}, "mode", id="mode-bogus"),
    ])
    def test_rejected_before_output(self, tmp_path, capsys, as_file, values, named):
        values = {**VALID, **values, "out": tmp_path / "x"}
        if as_file:
            argv = ["run", "--config", str(write_cfg(tmp_path / "bad.cfg", values))]
        else:
            argv = ["run", *as_flags(values)]
        assert main(argv) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("values,named", [
        pytest.param({"solver": "hebb"}, "eta", id="hebb-without-eta"),
        pytest.param({"L": None}, "L is required", id="no-L"),
    ])
    def test_compare_checks_every_file_before_running(self, tmp_path, capsys,
                                                      values, named):
        good = write_cfg(tmp_path / "good.cfg", {**VALID, "out": tmp_path / "o1"})
        bad = {**VALID, "algorithm": "eigengame_mu", **values, "out": tmp_path / "o2"}
        bad = write_cfg(tmp_path / "bad.cfg",
                        {k: v for k, v in bad.items() if v is not None})
        code = main(["compare", str(good), str(bad), "--out", str(tmp_path / "c.csv")])
        assert code == 2
        assert named in capsys.readouterr().err
        assert list(tmp_path.rglob("*.csv")) == []

    def test_one_flag_per_field(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--help"])
        offered = set(re.findall(r"--[\w-]+", capsys.readouterr().out))
        expect = {"--" + f.name.replace("_", "-") for f in fields(ExperimentConfig)}
        assert offered == expect | {"--config", "--help"}


@pytest.mark.parametrize("exc,code", [
    (PardeflError, 3), (NumericalError, 3), (DegenerateSpectrumError, 3),
    (CoverageError, 3), (ConfigError, 2), (CapacityError, 2),
    (DataFormatError, 4), (StreamError, 4), (OSError, 4), (FileNotFoundError, 4),
])
def test_exit_code_per_error_class(tmp_path, capsys, monkeypatch, exc, code):
    def fail(cfg):
        raise exc("boom")
    monkeypatch.setattr(cli, "run_experiment", fail)
    assert main(["run", *as_flags(VALID)]) == code
    assert "error: boom" in capsys.readouterr().err


class TestRunExperiment:
    def test_outputs_and_schema(self, tmp_path):
        cfg = small_cfg(out=str(tmp_path / "run"))
        result = run_experiment(cfg)
        assert len(result["trials"]) == 2
        rows = read_csv(result["trials"][0])
        assert list(rows[0].keys()) == ["trial", "algorithm", "T", "round",
                                        "total_steps", "worker", "error", "metric"]
        assert len(rows) == cfg.L * cfg.K
        assert rows[0]["algorithm"] == "parallel_deflation"
        agg = read_csv(result["aggregate"])
        assert list(agg[0].keys()) == ["algorithm", "T", "round", "total_steps",
                                       "mean", "min", "max"]
        assert len(agg) == cfg.L

    def test_aggregate_mean_matches_trials(self, tmp_path):
        cfg = small_cfg(out=str(tmp_path / "run"))
        result = run_experiment(cfg)
        per_trial = []
        for path in result["trials"]:
            rows = read_csv(path)
            per_round = {}
            for r in rows:
                per_round[int(r["round"])] = float(r["metric"])
            per_trial.append([per_round[l] for l in range(1, cfg.L + 1)])
        expect = np.mean(np.array(per_trial), axis=0)
        agg = read_csv(result["aggregate"])
        got = np.array([float(r["mean"]) for r in agg])
        assert np.max(np.abs(got - expect)) <= 1e-15

    def test_rerun_byte_identical(self, tmp_path):
        cfg1 = small_cfg(out=str(tmp_path / "a"))
        cfg2 = small_cfg(out=str(tmp_path / "b"))
        r1 = run_experiment(cfg1)
        r2 = run_experiment(cfg2)
        for p1, p2 in zip(r1["trials"] + [r1["aggregate"]],
                          r2["trials"] + [r2["aggregate"]]):
            assert p1.read_bytes() == p2.read_bytes()

    def test_k_exceeds_dimension_message(self, tmp_path, capsys):
        code = main(["run", "--algorithm", "parallel_deflation", "--spectrum",
                     "powerlaw", "--d", "4", "--K", "8", "--L", "8",
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "K exceeds dimension" in capsys.readouterr().err

    def test_all_algorithms_run(self, tmp_path):
        for algo, extra in (
            ("sequential_deflation", {}),
            ("stochastic_parallel_deflation", {"batch_size": 32}),
            ("eigengame_alpha", {}),
            ("eigengame_mu", {}),
        ):
            cfg = small_cfg(algorithm=algo, trials=1, d=10, K=2, L=4,
                            out=str(tmp_path / algo), **extra)
            result = run_experiment(cfg)
            rows = read_csv(result["trials"][0])
            assert rows, algo

    def test_file_source_stochastic(self, tmp_path, rng):
        data = rng.standard_normal((40, 6))
        path = tmp_path / "data.pdm1"
        save_pdm1(path, data)
        cfg = ExperimentConfig(algorithm="stochastic_parallel_deflation",
                               data=str(path), K=2, L=4, T=2, batch_size=8,
                               seed=3, trials=1, out=str(tmp_path / "file_run"))
        result = run_experiment(cfg)
        rows = read_csv(result["trials"][0])
        assert rows[0]["error"] == ""          # no oracle for file sources
        assert float(rows[0]["metric"]) > 0.0  # quality score instead

    def test_streaming_file_run_never_builds_covariance(self, tmp_path, rng):
        from pardefl.cli import _Problem, run_trial
        path = tmp_path / "wide.pdm1"
        save_pdm1(path, rng.standard_normal((30, 12)))
        cfg = ExperimentConfig(algorithm="stochastic_parallel_deflation",
                               data=str(path), K=2, L=3, T=1, batch_size=8,
                               seed=1, trials=1, out=str(tmp_path / "o"))
        problem = _Problem(cfg)
        trace = run_trial(cfg, problem, 0)
        problem.metric_series(trace)
        assert problem._sigma is None


def reference_trial_csv(trace, metric, trial):
    """Per-row formatter: the reference for `_trial_csv`'s one-pass output."""
    lines = [TRIAL_HEADER]
    for l in range(trace.n_rounds):
        for k in range(trace.n_workers):
            err = "" if trace.errors is None else repr(float(trace.errors[l, k]))
            lines.append(
                f"{trial},{trace.algorithm},{trace.local_steps},{l + 1},"
                f"{trace.local_steps * (l + 1)},{k + 1},{err},{float(metric[l])!r}")
    return "\n".join(lines) + "\n"


def data_file(tmp_path, rng, rows=400, dim=12):
    path = tmp_path / "data.pdm1"
    save_pdm1(path, rng.standard_normal((rows, dim)) * np.linspace(2.0, 0.5, dim))
    return path


def traced(cfg):
    problem = _Problem(cfg)
    return problem, run_trial(cfg, problem, 0)


def stored_vectors(cfg, problem, trial=0):
    """The (L, K, d) broadcasts of a trial, from the public engines' stored
    traces (a sequential run as K rounds, one component completed per round)."""
    seed = cfg.seed + trial
    if cfg.algorithm == "sequential_deflation":
        final = sequential_deflation(problem.sigma, cfg.K, cfg._top1_config(), seed)
        dim = problem.sigma.shape[0]
        inits = np.stack([unit_init(seed, k, dim) for k in range(1, cfg.K + 1)])
        rounds = np.stack([inits] * cfg.K)
        for rnd in range(1, cfg.K + 1):
            rounds[rnd - 1, :rnd] = final[:rnd]
        return rounds
    if cfg.algorithm == "parallel_deflation":
        trace = parallel_deflation(problem.sigma, cfg.K, cfg.L, cfg._top1_config(), seed)
    elif cfg.algorithm == "stochastic_parallel_deflation":
        trace = stochastic_parallel_deflation(problem.provider(cfg, seed), cfg.K, cfg.L,
                                              cfg.T, cfg._step_schedule(), seed)
    else:
        trace = run_eigengame(cfg.algorithm.rpartition("_")[2], problem.sigma, cfg.K,
                              cfg.L, cfg.T, eta=cfg.eta, seed=seed)
    return trace.vectors


class TestMetricSeries:
    def test_synthetic_bitwise_per_round_recovery_error(self, tmp_path):
        for algo, extra in (("parallel_deflation", {}),
                            ("sequential_deflation", {}),
                            ("stochastic_parallel_deflation", {"batch_size": 16}),
                            ("eigengame_mu", {})):
            cfg = small_cfg(algorithm=algo, trials=1, out=str(tmp_path), **extra)
            problem, trace = traced(cfg)
            assert trace.vectors is None, algo
            stored = stored_vectors(cfg, problem)
            assert trace.final_vectors.tobytes() == stored[-1].tobytes(), algo
            top = problem.truth.vectors[: trace.n_workers]
            expect = [recovery_error(top, v) for v in stored]
            assert problem.metric_series(trace).tolist() == expect, algo

    def test_dense_data_source_scores_from_sigma(self, tmp_path, rng):
        path = data_file(tmp_path, rng)
        for algo, extra in (("parallel_deflation", {}),
                            ("parallel_deflation", {"solver": "hebb", "eta": 1e-3}),
                            ("eigengame_mu", {}),
                            ("eigengame_alpha", {}),
                            ("sequential_deflation", {})):
            cfg = ExperimentConfig(algorithm=algo, data=str(path), K=3, L=10, T=2,
                                   seed=7, out=str(tmp_path / "o"), **extra)
            problem, trace = traced(cfg)
            # the run holds Sigma and scores each round as it ends
            assert problem._sigma is not None and problem.data is None, algo
            assert trace.vectors is None, algo
            stored = stored_vectors(cfg, problem)
            assert trace.final_vectors.tobytes() == stored[-1].tobytes(), algo
            got = problem.metric_series(trace)
            rows = load_matrix(path)
            expect = np.array([discounted_rayleigh(v, data=rows) for v in stored])
            assert np.max(np.abs(got - expect) / np.abs(expect)) <= 1e-13, algo

    def test_streaming_file_source_bitwise_per_round(self, tmp_path, rng):
        cfg = ExperimentConfig(algorithm="stochastic_parallel_deflation",
                               data=str(data_file(tmp_path, rng)), K=3, L=6, T=2,
                               batch_size=16, seed=2, out=str(tmp_path / "o"))
        problem, trace = traced(cfg)
        assert trace.vectors is None
        stored = stored_vectors(cfg, problem)
        assert trace.final_vectors.tobytes() == stored[-1].tobytes()
        expect = [discounted_rayleigh(v, data=problem.data) for v in stored]
        assert problem.metric_series(trace).tolist() == expect
        assert problem._sigma is None


class TestTrialCsv:
    def test_matches_per_row_formatter_with_errors(self, tmp_path):
        cfg = small_cfg(out=str(tmp_path))
        problem, trace = traced(cfg)
        metric = problem.metric_series(trace)
        stored = cli.RunTrace(algorithm=cfg.algorithm, local_steps=cfg.T, seed=cfg.seed,
                              vectors=stored_vectors(cfg, problem))
        assert trace.errors.tobytes() == attach_oracle(stored, problem.truth).errors.tobytes()
        assert _trial_csv(trace, metric, 4) == reference_trial_csv(trace, metric, 4)

    def test_matches_per_row_formatter_without_errors(self, tmp_path, rng):
        cfg = ExperimentConfig(algorithm="eigengame_mu",
                               data=str(data_file(tmp_path, rng)), K=3, L=7, T=3,
                               seed=1, out=str(tmp_path / "o"))
        problem, trace = traced(cfg)
        metric = problem.metric_series(trace)
        assert trace.errors is None
        assert _trial_csv(trace, metric, 0) == reference_trial_csv(trace, metric, 0)


def reference_aggregate_rows(cfg, stack):
    """Per-round reductions: the reference for `_aggregate_rows`."""
    return [f"{cfg.algorithm},{cfg.T},{l + 1},{cfg.T * (l + 1)},"
            f"{float(np.mean(col))!r},{float(np.min(col))!r},{float(np.max(col))!r}"
            for l, col in enumerate(stack.T)]


@pytest.mark.parametrize("trials", [1, 3, 9, 17])
def test_aggregate_rows_match_per_round_reductions(trials):
    # magnitudes over several decades, so a changed summation order shows
    stack = np.random.default_rng(trials).lognormal(sigma=3.0, size=(trials, 60))
    cfg = small_cfg(T=2, L=60)
    assert cli._aggregate_rows(cfg, stack) == reference_aggregate_rows(cfg, stack)


class TestComparison:
    def test_merged_keys(self, tmp_path):
        cfgs = [small_cfg(T=1, L=8, out=str(tmp_path / "t1")),
                small_cfg(T=2, L=4, out=str(tmp_path / "t2"))]
        out = run_comparison(cfgs, tmp_path / "merged.csv")
        rows = read_csv(out)
        keys = {(r["algorithm"], r["T"], r["round"]) for r in rows}
        assert len(keys) == len(rows)
        assert {r["T"] for r in rows} == {"1", "2"}
        for r in rows:
            assert int(r["total_steps"]) == int(r["T"]) * int(r["round"])

    def test_single_config_matches_run_experiment(self, tmp_path):
        cfg = small_cfg(out=str(tmp_path / "single"))
        merged = run_comparison([cfg], tmp_path / "m.csv")
        solo = run_experiment(small_cfg(out=str(tmp_path / "solo")))
        merged_rows = read_csv(merged)
        solo_rows = read_csv(solo["aggregate"])
        assert [r["mean"] for r in merged_rows] == [r["mean"] for r in solo_rows]

    def test_requires_shared_source(self, tmp_path):
        cfgs = [small_cfg(out=str(tmp_path / "a")),
                small_cfg(d=20, out=str(tmp_path / "b"))]
        with pytest.raises(ConfigError):
            run_comparison(cfgs, tmp_path / "m.csv")

    def test_equal_work_ablation_grid(self, tmp_path):
        # T x L held at 1200; the T=40 extreme runs L=30 rounds, i.e. the
        # sequential-like end of the grid
        cfgs = [small_cfg(d=12, K=3, T=t, L=1200 // t, trials=1,
                          out=str(tmp_path / f"T{t}"))
                for t in (1, 5, 10, 40)]
        assert cfgs[-1].L == 30
        rows = read_csv(run_comparison(cfgs, tmp_path / "ablation.csv"))
        by_t = {}
        for r in rows:
            by_t.setdefault(int(r["T"]), 0)
            by_t[int(r["T"])] += 1
        assert by_t == {1: 1200, 5: 240, 10: 120, 40: 30}
        last = {int(r["T"]): int(r["total_steps"]) for r in rows}
        assert set(last.values()) == {1200}

    def test_builds_the_shared_source_once(self, tmp_path, monkeypatch):
        calls = []

        def counted(name):
            fn = getattr(cli, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            monkeypatch.setattr(cli, name, wrapper)

        for name in ("random_covariance", "load_covariance", "load_matrix"):
            counted(name)
        cfgs = [small_cfg(algorithm=algo, T=t, trials=2, batch_size=8,
                          out=str(tmp_path / f"s{i}"))
                for i, (algo, t) in enumerate((("parallel_deflation", 1),
                                               ("eigengame_mu", 2),
                                               ("stochastic_parallel_deflation", 1)))]
        run_comparison(cfgs, tmp_path / "syn.csv")
        assert calls == ["random_covariance"]
        path = data_file(tmp_path, np.random.default_rng(3))
        dense = [replace(cfg, spectrum=None, d=None, data=str(path),
                         out=str(tmp_path / f"d{i}")) for i, cfg in enumerate(cfgs[:2])]
        calls.clear()
        run_comparison(dense, tmp_path / "dense.csv")
        assert calls == ["load_covariance"]
        mixed = dense + [replace(cfgs[2], spectrum=None, d=None, data=str(path),
                                 out=str(tmp_path / "d2"))]
        calls.clear()
        run_comparison(mixed, tmp_path / "mixed.csv")
        assert calls == ["load_matrix"]

    def test_shared_source_keeps_member_outputs(self, tmp_path):
        # a dense member scored from Sigma built from kept rows reads the
        # same bits as one scored from Sigma read from the file
        path = data_file(tmp_path, np.random.default_rng(4))
        cfgs = [ExperimentConfig(algorithm=algo, data=str(path), K=3, L=6, T=2,
                                 batch_size=16, seed=2, trials=2,
                                 out=str(tmp_path / f"m{i}"))
                for i, algo in enumerate(("eigengame_alpha", "sequential_deflation",
                                          "stochastic_parallel_deflation"))]
        merged = tmp_path / "m.csv"
        run_comparison(cfgs, merged)
        solo = [AGGREGATE_HEADER]
        for cfg in cfgs:
            result = run_experiment(replace(cfg, out=str(tmp_path / "solo")))
            solo += result["aggregate"].read_text().splitlines()[1:]
        assert merged.read_text() == "\n".join(solo) + "\n"

    def test_cli_entry(self, tmp_path, capsys):
        c1 = tmp_path / "one.cfg"
        c1.write_text("algorithm=parallel_deflation\nspectrum=powerlaw\n"
                      f"d=12\nK=2\nL=4\nT=1\ntrials=1\nout={tmp_path / 'o1'}\n")
        c2 = tmp_path / "two.cfg"
        c2.write_text("algorithm=eigengame_mu\nspectrum=powerlaw\n"
                      f"d=12\nK=2\nL=4\nT=1\ntrials=1\nout={tmp_path / 'o2'}\n")
        code = main(["compare", str(c1), str(c2), "--out",
                     str(tmp_path / "cmp.csv")])
        assert code == 0
        assert (tmp_path / "cmp.csv").exists()


class TestTheoryCommand:
    def test_report_files(self, tmp_path):
        cfg = ExperimentConfig(algorithm="parallel_deflation", spectrum="powerlaw",
                               d=20, K=2, T=2, seed=2, trials=1,
                               out=str(tmp_path / "thy"))
        result = run_theory_report(cfg, extra_rounds=10)
        assert result["report"].all_satisfied
        sched_rows = read_csv(result["schedule_csv"])
        assert [r["k"] for r in sched_rows] == ["1", "2"]
        bound_rows = read_csv(result["bounds_csv"])
        assert all(r["ok"] == "1" for r in bound_rows)

    def test_k1_trivial(self, tmp_path):
        cfg = ExperimentConfig(algorithm="parallel_deflation", spectrum="powerlaw",
                               d=8, K=1, T=1, seed=2, trials=1,
                               out=str(tmp_path / "thy1"))
        result = run_theory_report(cfg, extra_rounds=5)
        assert list(result["schedule"].s) == [1]
        assert result["report"].all_satisfied

    def test_auto_length_via_cli(self, tmp_path, capsys):
        code = main(["theory", "--spectrum", "powerlaw", "--d", "24", "--K", "2",
                     "--T", "2", "--seed", "3", "--out", str(tmp_path / "auto")])
        assert code == 0
        assert "0 violation(s)" in capsys.readouterr().out

    def test_run_requires_length(self, tmp_path, capsys):
        code = main(["run", "--algorithm", "parallel_deflation", "--spectrum",
                     "powerlaw", "--d", "8", "--K", "2",
                     "--out", str(tmp_path / "nol")])
        assert code == 2
        assert "L is required" in capsys.readouterr().err

    def test_short_l_reports_required(self, tmp_path, capsys):
        code = main(["theory", "--spectrum", "powerlaw", "--d", "20", "--K", "3",
                     "--T", "1", "--L", "4", "--seed", "2",
                     "--out", str(tmp_path / "thy2")])
        assert code == 3
        assert "needs at least L" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,named", [
        (["--algorithm", "eigengame_mu"], "algorithm"),
        (["--solver", "hebb", "--eta", "0.05"], "solver"),
    ])
    def test_refuses_what_the_schedule_does_not_describe(self, tmp_path, capsys,
                                                         flags, named):
        code = main(["theory", *flags, "--spectrum", "powerlaw", "--d", "24",
                     "--K", "2", "--T", "2", "--seed", "3",
                     "--out", str(tmp_path / "thy")])
        assert code == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "thy").exists()

    def test_needs_synthetic_source(self, tmp_path, rng):
        data = tmp_path / "d.pdm1"
        save_pdm1(data, rng.standard_normal((10, 4)))
        code = main(["theory", "--data", str(data), "--K", "2", "--L", "2",
                     "--out", str(tmp_path / "thy3")])
        assert code == 2


class TestExitCodes:
    def test_missing_data_file_is_io_error(self, tmp_path, capsys):
        code = main(["run", "--algorithm", "parallel_deflation", "--data",
                     str(tmp_path / "missing.csv"), "--K", "2", "--L", "4",
                     "--out", str(tmp_path / "x")])
        assert code == 4

    def test_malformed_pdm1_is_io_error(self, tmp_path):
        bad = tmp_path / "bad.pdm1"
        bad.write_bytes(b"JUNKJUNKJUNKJUNKJUNKJUNK")
        code = main(["run", "--algorithm", "parallel_deflation", "--data",
                     str(bad), "--K", "2", "--L", "4",
                     "--out", str(tmp_path / "x")])
        assert code == 4

    def test_empty_pdm1_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "z.pdm1"
        save_pdm1(path, np.empty((0, 3)))
        code = main(["run", "--algorithm", "parallel_deflation", "--data",
                     str(path), "--K", "1", "--L", "2",
                     "--out", str(tmp_path / "x")])
        assert code == 4
        assert "empty PDM1 matrix" in capsys.readouterr().err

    def test_nan_csv_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        path.write_text("1.0,2.0\nnan,0.5\n3.0,1.0\n")
        code = main(["run", "--algorithm", "parallel_deflation", "--data",
                     str(path), "--K", "1", "--L", "2",
                     "--out", str(tmp_path / "x")])
        assert code == 4
        assert "non-finite" in capsys.readouterr().err

    def test_inf_pdm1_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "inf.pdm1"
        save_pdm1(path, np.array([[1.0, 2.0], [np.inf, 0.5], [3.0, 1.0]]))
        code = main(["run", "--algorithm", "eigengame_mu", "--data",
                     str(path), "--K", "1", "--L", "2",
                     "--out", str(tmp_path / "x")])
        assert code == 4
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("algorithm", ["parallel_deflation", "sequential_deflation",
                                           "eigengame_alpha", "eigengame_mu",
                                           "stochastic_parallel_deflation"])
    def test_nan_in_last_chunk_is_data_error(self, tmp_path, capsys, algorithm):
        a = np.ones((2 * GRAM_ROWS + 5, 3))
        a[-1, 2] = np.nan
        path = tmp_path / "nan.pdm1"
        save_pdm1(path, a)
        code = main(["run", "--algorithm", algorithm, "--data", str(path),
                     "--K", "1", "--L", "2", "--out", str(tmp_path / "x")])
        assert code == 4
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "x" / "trial_000.csv").exists()

    def test_short_read_and_size_mismatch_are_data_errors(self, tmp_path, capsys,
                                                          monkeypatch):
        path = tmp_path / "m.pdm1"
        save_pdm1(path, np.ones((GRAM_ROWS + 3, 2)))
        raw = path.read_bytes()
        path.write_bytes(raw[:4] + struct.pack("<QQ", GRAM_ROWS + 4, 2) + raw[20:])
        argv = ["run", "--algorithm", "eigengame_mu", "--data", str(path),
                "--K", "1", "--L", "2", "--out", str(tmp_path / "x")]
        assert main(argv) == 4
        assert "does not match header" in capsys.readouterr().err
        real_fstat = os.fstat
        monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(
            st_size=real_fstat(fd).st_size + 16))
        assert main(argv) == 4
        assert "payload ended after" in capsys.readouterr().err

    def test_capacity_error_before_any_row_exits_2(self, tmp_path, capsys, monkeypatch):
        from pardefl import io

        # Sigma of 16,385 columns is over the 2 GiB default cap
        path = tmp_path / "m.pdm1"
        save_pdm1(path, np.full((1, 16385), np.nan))

        def no_read(*args):
            raise AssertionError("a row was read before the capacity check")

        monkeypatch.setattr(io, "_read_rows", no_read)
        code = main(["run", "--algorithm", "parallel_deflation", "--data", str(path),
                     "--K", "1", "--L", "2", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "covariance of dimension 16385" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--algorithm", "eigengame_mu"],
        ["--algorithm", "parallel_deflation", "--solver", "hebb"],
        ["--algorithm", "stochastic_parallel_deflation", "--schedule", "constant"],
    ])
    def test_infinite_eta_is_config_error(self, tmp_path, capsys, flags):
        code = main(["run", *flags, "--eta", "inf", "--spectrum", "powerlaw",
                     "--d", "6", "--K", "2", "--L", "3", "--trials", "1",
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "x" / "trial_000.csv").exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("algorithm", ["eigengame_mu", "stochastic_parallel_deflation"])
    def test_overflowing_update_is_numerical_error(self, tmp_path, capsys, algorithm):
        path = tmp_path / "huge.pdm1"
        save_pdm1(path, 1e152 * np.arange(1.0, 13.0).reshape(3, 4))
        code = main(["run", "--algorithm", algorithm, "--data", str(path),
                     "--eta", "1e10", "--schedule", "constant", "--K", "2",
                     "--L", "3", "--trials", "1", "--out", str(tmp_path / "x")])
        assert code == 3
        assert "collapsed" in capsys.readouterr().err

    def test_success_exit(self, tmp_path):
        code = main(["run", "--algorithm", "parallel_deflation", "--spectrum",
                     "powerlaw", "--d", "10", "--K", "2", "--L", "4",
                     "--trials", "1", "--out", str(tmp_path / "ok")])
        assert code == 0


def test_compare_shared_out_dir_kept_apart(tmp_path, monkeypatch):
    monkeypatch.setenv("PARDEFL_OUT", str(tmp_path / "shared"))
    from pardefl.cli import build_config, run_comparison
    cfgs = [build_config({}, dict(algorithm="parallel_deflation",
                                  spectrum="powerlaw", d=10, K=2, L=4, T=t,
                                  trials=1))
            for t in (1, 2)]
    out = run_comparison(cfgs, tmp_path / "m.csv")
    assert out.exists()
    assert (tmp_path / "shared" / "cmp_00" / "trial_000.csv").exists()
    assert (tmp_path / "shared" / "cmp_01" / "trial_000.csv").exists()
