"""Command-line experiment harness.

Three subcommands:

  run      one algorithm on one source, `trials` seeds, per-trial CSVs plus
           a per-round mean/min/max aggregate
  compare  several config files on a shared source/K, merged into one CSV
           keyed by (algorithm, T, round, total_steps)
  theory   convergence schedule + envelope audit for a synthetic
           power-iteration parallel-deflation run

Each `ExperimentConfig` field is a key of the flat key=value config files
and a `run`/`theory` flag `--<name>` (`_` written `-`) that overrides it;
its annotation gives the value's type. Every field is checked when the
config is built, whichever the algorithm reads. PARDEFL_OUT overrides the
output directory. Exit codes are the error classes' `exit_code`: 0 ok,
2 config error, 3 numerical failure, 4 I/O or data error.
"""

import argparse
import os
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import get_args

import numpy as np

from .deflation import parallel_deflation, sequential_deflation
from .eigengame import run_eigengame
from .engine import MODES, OracleScorer, RunTrace
from .errors import ConfigError, PardeflError
from .io import atomic_write_text, load_covariance, load_matrix
from .linalg import covariance
from .metrics import (RayleighScorer, gaussian_stream, random_covariance,
                      spectrum_expdecay, spectrum_powerlaw)
# Not called here (every run is scored round by round by its sink, and the
# metric reads those scores), but perfbench/run.py wraps these names on this
# module.
from .engine import attach_oracle  # noqa: F401
from .metrics import discounted_rayleigh, recovery_error  # noqa: F401
from .seeding import unit_init
from .solvers import POWER_ITERATION, Top1Config
from .stochastic import (MatrixRowProvider, StepSchedule,
                         stochastic_parallel_deflation)
from .theory import (bound_report_to_csv, check_bound, schedule_for_run,
                     schedule_to_csv)

STREAMING = "stochastic_parallel_deflation"
ALGORITHMS = ("parallel_deflation", "sequential_deflation", STREAMING,
              "eigengame_alpha", "eigengame_mu")
SPECTRA = {"powerlaw": spectrum_powerlaw, "expdecay": spectrum_expdecay}

TRIAL_HEADER = "trial,algorithm,T,round,total_steps,worker,error,metric"
AGGREGATE_HEADER = "algorithm,T,round,total_steps,mean,min,max"


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment; every field is a config key and a command-line flag."""

    algorithm: str = "parallel_deflation"
    spectrum: str | None = None
    d: int | None = None
    data: str | None = None
    K: int = 1
    L: int | None = None
    T: int = 1
    solver: str = "power_iteration"
    eta: float | None = None
    schedule: str = "inverse_time"
    tau: float | None = None
    batch_size: int = 256
    seed: int = 0
    trials: int = 1
    mode: str = "serial"
    out: str = "pardefl_out"

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"algorithm must be one of {ALGORITHMS}, "
                              f"got {self.algorithm!r}")
        if (self.spectrum is None) == (self.data is None):
            raise ConfigError("set exactly one source: spectrum (with d) or data")
        if self.spectrum is not None:
            if self.spectrum not in SPECTRA:
                raise ConfigError(f"spectrum must be one of {sorted(SPECTRA)}, "
                                  f"got {self.spectrum!r}")
            if self.d is None or self.d < 1:
                raise ConfigError("synthetic source needs a positive d")
        if self.K < 1:
            raise ConfigError(f"K must be >= 1, got {self.K}")
        if self.L is not None and self.L < self.K:
            raise ConfigError(f"L must be >= K, got L={self.L}, K={self.K}")
        if self.T < 1:
            raise ConfigError(f"T must be >= 1, got {self.T}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        # the library's own rules for solver, T, eta, schedule and tau
        self._top1_config()
        self._step_schedule()

    def _top1_config(self) -> Top1Config:
        """The local solver of the deflation engines."""
        return Top1Config(method=self.solver, steps=self.T, eta=self.eta)

    def _step_schedule(self) -> StepSchedule:
        """The step sizes of the streaming engine."""
        return StepSchedule(eta0=self.eta, mode=self.schedule, tau=self.tau)

    def source_key(self):
        return (self.spectrum, self.d, self.data, self.seed)


# int, float or str per field, from annotations such as `int | None`
_FIELD_TYPES = {f.name: next(t for t in (*get_args(f.type), f.type)
                             if t is not type(None))
                for f in fields(ExperimentConfig)}


def parse_config_file(path) -> dict:
    """Flat key=value lines; blank lines and #-comments are ignored."""
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown field {key!r}")
        values[key] = val
    return values


def _coerce(values: dict) -> dict:
    out = {}
    for key, val in values.items():
        if val is None:
            continue
        try:
            out[key] = _FIELD_TYPES[key](val)
        except ValueError as exc:
            raise ConfigError(f"field {key!r}: {exc}") from exc
    return out


def build_config(file_values: dict | None = None,
                 overrides: dict | None = None) -> ExperimentConfig:
    merged = {**_coerce(file_values or {}), **_coerce(overrides or {})}
    if os.environ.get("PARDEFL_OUT"):
        merged["out"] = os.environ["PARDEFL_OUT"]
    return ExperimentConfig(**merged)


class _Problem:
    """Resolved data source shared by the runs of `cfgs`: the trials of one
    experiment, or every member run of a comparison (one `source_key()`).

    A synthetic source holds Sigma and its eigensystem. A data file is held
    as Sigma = Y^T Y and its row count n (`load_covariance`), unless a
    streaming run among cfgs needs the rows Y; Sigma is then built from Y
    only if a dense run asks for it, with the same bits.
    """

    def __init__(self, *cfgs: ExperimentConfig):
        cfg = cfgs[0]
        self._sigma = self.data = self.truth = None
        if cfg.spectrum is not None:
            spec = SPECTRA[cfg.spectrum](cfg.d)
            self._sigma, self.truth = random_covariance(spec, cfg.seed)
            dim = cfg.d
        elif any(c.algorithm == STREAMING for c in cfgs):
            self.data = load_matrix(cfg.data)
            self.n_rows, dim = self.data.shape
        else:
            self._sigma, self.n_rows = load_covariance(cfg.data)
            dim = self._sigma.shape[0]
        if cfg.K > dim:
            raise ConfigError(f"K exceeds dimension: K={cfg.K}, d={dim}")

    @property
    def sigma(self) -> np.ndarray:
        # built on demand from kept rows, so matrix-free streaming runs over
        # file sources never materialize a d x d covariance
        if self._sigma is None:
            self._sigma = covariance(self.data)
        return self._sigma

    def provider(self, cfg: ExperimentConfig, trial_seed: int):
        if self.truth is not None:
            return gaussian_stream(self.truth, cfg.batch_size, trial_seed)
        return MatrixRowProvider(self.data, cfg.batch_size, trial_seed)

    def scorer(self, cfg: ExperimentConfig, n_rounds: int):
        """The round sink of one of cfg's runs, `n_rounds` rounds long.

        Every run is scored as it is made and keeps no per-round vectors.
        A synthetic source keeps each round's oracle distances. A data file
        keeps each round's discounted Rayleigh score: from the rows Y for a
        streaming run, from Sigma and n for a dense one.
        """
        if self.truth is not None:
            return OracleScorer(self.truth, n_rounds, cfg.K)
        if cfg.algorithm == STREAMING:
            return RayleighScorer(n_rounds, cfg.K, data=self.data)
        return RayleighScorer(n_rounds, cfg.K, gram=self.sigma, n_rows=self.n_rows)

    def metric_series(self, trace: RunTrace) -> np.ndarray:
        """The per-round metric of a trace scored as it ran: its discounted
        Rayleigh scores on a data file, else the RMS over workers of its
        oracle distances, i.e. each round's `recovery_error`."""
        if trace.scores is not None:
            return trace.scores
        return np.sqrt(np.mean(trace.errors ** 2, axis=1))


def _sequential_trace(cfg: ExperimentConfig, sigma, trial_seed: int,
                      sink) -> RunTrace:
    """Present a sequential run as K rounds, one component completed per
    round, fed to the round sink as the engines feed theirs."""
    final = sequential_deflation(sigma, cfg.K, cfg._top1_config(), trial_seed)
    dim = sigma.shape[0]
    snapshot = np.stack([unit_init(trial_seed, k, dim) for k in range(1, cfg.K + 1)])
    for rnd in range(1, cfg.K + 1):
        snapshot[rnd - 1] = final[rnd - 1]
        sink(rnd, snapshot)
    snapshot.setflags(write=False)
    return RunTrace(algorithm="sequential_deflation", local_steps=cfg.T,
                    seed=trial_seed, **sink.finish(snapshot))


def _require_rounds(cfg: ExperimentConfig) -> None:
    if cfg.L is None and cfg.algorithm != "sequential_deflation":
        raise ConfigError(f"L is required for {cfg.algorithm}")


def run_trial(cfg: ExperimentConfig, problem: _Problem, trial: int) -> RunTrace:
    """One trial's trace, scored as it runs (`_Problem.scorer`), so it holds
    errors or scores, not per-round vectors."""
    trial_seed = cfg.seed + trial
    algo = cfg.algorithm
    if algo == "sequential_deflation":
        return _sequential_trace(cfg, problem.sigma, trial_seed,
                                 problem.scorer(cfg, cfg.K))
    sink = problem.scorer(cfg, cfg.L)
    if algo == "parallel_deflation":
        return parallel_deflation(problem.sigma, cfg.K, cfg.L, cfg._top1_config(),
                                  trial_seed, mode=cfg.mode, on_round=sink)
    if algo == STREAMING:
        return stochastic_parallel_deflation(problem.provider(cfg, trial_seed), cfg.K,
                                             cfg.L, cfg.T, cfg._step_schedule(),
                                             trial_seed, mode=cfg.mode, on_round=sink)
    variant = "alpha" if algo.endswith("alpha") else "mu"
    return run_eigengame(variant, problem.sigma, cfg.K, cfg.L, cfg.T, eta=cfg.eta,
                         seed=trial_seed, mode=cfg.mode, on_round=sink)


def _trial_csv(trace: RunTrace, metric: np.ndarray, trial: int) -> str:
    """The trial CSV text: TRIAL_HEADER, then one row per round and worker.

    Each round is formatted into one string as it comes and the rounds are
    joined once, so the call holds little more than twice its output.
    """
    steps = trace.local_steps
    workers = [f"{k}," for k in range(1, trace.n_workers + 1)]
    pieces = [TRIAL_HEADER]
    for l, value in enumerate(metric.tolist()):
        head = f"{trial},{trace.algorithm},{steps},{l + 1},{steps * (l + 1)},"
        tail = f",{value!r}"
        # a round's rows differ only in their "worker,error" cells
        cells = (workers if trace.errors is None
                 else map(str.__add__, workers, map(repr, trace.errors[l].tolist())))
        pieces.append(head + (tail + "\n" + head).join(cells) + tail)
    pieces.append("")  # the trailing newline
    return "\n".join(pieces)


def _aggregate_rows(cfg: ExperimentConfig, stack: np.ndarray) -> list[str]:
    """Per-round mean/min/max over the trials of one config (AGGREGATE_HEADER)."""
    by_round = np.ascontiguousarray(stack.T)
    columns = (by_round.mean(axis=1), by_round.min(axis=1), by_round.max(axis=1))
    return [f"{cfg.algorithm},{cfg.T},{l + 1},{cfg.T * (l + 1)},"
            f"{mean!r},{low!r},{high!r}"
            for l, (mean, low, high) in enumerate(zip(*(c.tolist() for c in columns)))]


def run_experiment(cfg: ExperimentConfig, problem: _Problem | None = None) -> dict:
    """Run `trials` seeds; write one CSV per trial plus the aggregate CSV.

    `problem` is cfg's source, built here when not given. Returns
    {"trials": [paths], "aggregate": path, "metric": (trials, L) array}.
    Reruns with identical config and seed are byte-identical.
    """
    _require_rounds(cfg)
    if problem is None:
        problem = _Problem(cfg)
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = []
    series = []
    for trial in range(cfg.trials):
        trace = run_trial(cfg, problem, trial)
        metric = problem.metric_series(trace)
        series.append(metric)
        path = outdir / f"trial_{trial:03d}.csv"
        atomic_write_text(path, _trial_csv(trace, metric, trial))
        paths.append(path)
    stack = np.stack(series)
    aggregate = outdir / "aggregate.csv"
    lines = [AGGREGATE_HEADER, *_aggregate_rows(cfg, stack)]
    atomic_write_text(aggregate, "\n".join(lines) + "\n")
    return {"trials": paths, "aggregate": aggregate, "metric": stack}


def run_comparison(cfgs: list[ExperimentConfig], out_path) -> Path:
    """Run several configs on a shared source/K and merge their aggregates.

    The source is built once and shared by every member run.
    """
    if not cfgs:
        raise ConfigError("need at least one config to compare")
    key = cfgs[0].source_key()
    n_comp = cfgs[0].K
    seen = set()
    for cfg in cfgs:
        _require_rounds(cfg)
        if cfg.source_key() != key:
            raise ConfigError("compared configs must share the same source")
        if cfg.K != n_comp:
            raise ConfigError("compared configs must share K")
        if (cfg.algorithm, cfg.T) in seen:
            raise ConfigError(f"duplicate (algorithm, T) pair "
                              f"{(cfg.algorithm, cfg.T)} in comparison")
        seen.add((cfg.algorithm, cfg.T))
    if len({cfg.out for cfg in cfgs}) < len(cfgs):
        # shared output directory (e.g. via PARDEFL_OUT): keep the trial
        # files of the member runs apart
        cfgs = [replace(cfg, out=str(Path(cfg.out) / f"cmp_{i:02d}"))
                for i, cfg in enumerate(cfgs)]
    problem = _Problem(*cfgs)
    lines = [AGGREGATE_HEADER]
    for cfg in cfgs:
        lines += _aggregate_rows(cfg, run_experiment(cfg, problem)["metric"])
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out_path, "\n".join(lines) + "\n")
    return out_path


def run_theory_report(cfg: ExperimentConfig, extra_rounds: int = 50) -> dict:
    """Schedule + envelope audit against a fresh parallel-deflation trace.

    Needs a synthetic source (the oracle eigensystem must be known) and
    the power-iteration parallel deflation the schedule describes. When
    cfg.L is unset it is sized to s_K + extra_rounds; an explicitly
    configured shorter L fails the coverage check inside `check_bound`,
    which reports the required length.
    """
    if cfg.spectrum is None:
        raise ConfigError("the theory report needs a synthetic source")
    if cfg.algorithm != "parallel_deflation":
        raise ConfigError(f"the theory report audits algorithm parallel_deflation, "
                          f"got {cfg.algorithm!r}")
    if cfg.solver != POWER_ITERATION:
        raise ConfigError(f"the theory report's schedule is for solver "
                          f"{POWER_ITERATION}, got {cfg.solver!r}")
    problem = _Problem(cfg)
    schedule = schedule_for_run(problem.sigma, problem.truth, cfg.K, cfg.T)
    n_rounds = cfg.L if cfg.L is not None else int(schedule.s[-1]) + extra_rounds
    n_rounds = max(n_rounds, cfg.K)
    trace = parallel_deflation(problem.sigma, cfg.K, n_rounds, cfg._top1_config(),
                               cfg.seed, mode=cfg.mode,
                               on_round=problem.scorer(cfg, n_rounds))
    report = check_bound(trace, schedule)
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    schedule_path = outdir / "schedule.csv"
    bounds_path = outdir / "bounds.csv"
    schedule_to_csv(schedule, schedule_path)
    bound_report_to_csv(report, bounds_path)
    return {"schedule": schedule, "report": report,
            "schedule_csv": schedule_path, "bounds_csv": bounds_path}


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value config file")
    for name, kind in _FIELD_TYPES.items():
        p.add_argument("--" + name.replace("_", "-"), dest=name,
                       metavar=kind.__name__)


def _config_from_args(args) -> ExperimentConfig:
    file_values = parse_config_file(args.config) if args.config else {}
    return build_config(file_values, {k: getattr(args, k) for k in _FIELD_TYPES})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pardefl", description="Distributed-PCA experiment harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment configuration")
    _add_config_flags(p_run)

    p_cmp = sub.add_parser("compare", help="run several configs, merge aggregates")
    p_cmp.add_argument("configs", nargs="+", help="config files to compare")
    p_cmp.add_argument("--out", default="comparison.csv")

    p_thy = sub.add_parser("theory", help="schedule + bound audit on a synthetic run")
    _add_config_flags(p_thy)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            result = run_experiment(_config_from_args(args))
            print(f"wrote {len(result['trials'])} trial file(s) and "
                  f"{result['aggregate']}")
        elif args.command == "compare":
            cfgs = [build_config(parse_config_file(p)) for p in args.configs]
            out = run_comparison(cfgs, args.out)
            print(f"wrote {out}")
        else:
            result = run_theory_report(_config_from_args(args))
            report = result["report"]
            starts = [int(x) for x in result["schedule"].s]
            print(f"schedule s = {starts}; "
                  f"{report.n_rows} bound rows, {report.n_violations} violation(s)")
            print(f"wrote {result['schedule_csv']} and {result['bounds_csv']}")
    except (PardeflError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 4)
    return 0


if __name__ == "__main__":
    sys.exit(main())
