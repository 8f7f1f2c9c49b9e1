"""Command-line experiment harness.

Three subcommands:

  run      one algorithm on one source, `trials` seeds, per-trial CSVs plus
           a per-round mean/min/max aggregate
  compare  several config files on a shared source/K, merged into one CSV
           keyed by (algorithm, T, round, total_steps)
  theory   convergence schedule + envelope audit for a synthetic run

Configs are flat key=value text files; every key can be overridden by the
matching command-line flag. The environment variable PARDEFL_OUT overrides
the output directory. Exit codes: 0 ok, 2 config error, 3 numerical
failure, 4 I/O or data error.
"""

import argparse
import os
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .deflation import parallel_deflation, sequential_deflation
from .eigengame import run_eigengame
from .engine import RunTrace, attach_oracle
from .errors import (ConfigError, DataFormatError, NumericalError,
                     PardeflError, StreamError)
from .io import atomic_write_text, load_matrix
from .linalg import covariance
from .metrics import (discounted_rayleigh, gaussian_stream, random_covariance,
                      spectrum_expdecay, spectrum_powerlaw)
# Not called here (the synthetic metric reads `attach_oracle`'s distances),
# but perfbench/run.py wraps it by name on this module.
from .metrics import recovery_error  # noqa: F401
from .seeding import unit_init
from .solvers import Top1Config
from .stochastic import (MatrixRowProvider, StepSchedule,
                         stochastic_parallel_deflation)
from .theory import (bound_report_to_csv, check_bound, schedule_for_run,
                     schedule_to_csv)

ALGORITHMS = ("parallel_deflation", "sequential_deflation",
              "stochastic_parallel_deflation", "eigengame_alpha",
              "eigengame_mu")
SPECTRA = {"powerlaw": spectrum_powerlaw, "expdecay": spectrum_expdecay}

TRIAL_HEADER = "trial,algorithm,T,round,total_steps,worker,error,metric"
AGGREGATE_HEADER = "algorithm,T,round,total_steps,mean,min,max"


@dataclass(frozen=True)
class ExperimentConfig:
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
    c0: float = 3.0
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

    def source_key(self):
        return (self.spectrum, self.d, self.data, self.seed)


_INT_KEYS = {"d", "K", "L", "T", "batch_size", "seed", "trials"}
_FLOAT_KEYS = {"eta", "tau", "c0"}
_CONFIG_KEYS = {f.name for f in fields(ExperimentConfig)}


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
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown field {key!r}")
        values[key] = val
    return values


def _coerce(values: dict) -> dict:
    out = {}
    for key, val in values.items():
        if val is None:
            continue
        try:
            if key in _INT_KEYS:
                out[key] = int(val)
            elif key in _FLOAT_KEYS:
                out[key] = float(val)
            else:
                out[key] = str(val)
        except ValueError as exc:
            raise ConfigError(f"field {key!r}: {exc}") from exc
    return out


def build_config(file_values: dict | None = None,
                 overrides: dict | None = None) -> ExperimentConfig:
    merged = {}
    merged.update(_coerce(file_values or {}))
    merged.update(_coerce(overrides or {}))
    if os.environ.get("PARDEFL_OUT"):
        merged["out"] = os.environ["PARDEFL_OUT"]
    return ExperimentConfig(**merged)


class _Problem:
    """Resolved data source shared by the trial runs of one experiment."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self._sigma = None
        if cfg.spectrum is not None:
            spec = SPECTRA[cfg.spectrum](cfg.d)
            self._sigma, self.truth = random_covariance(spec, cfg.seed)
            self.data = None
            dim = cfg.d
        else:
            self.data = load_matrix(cfg.data)
            self.truth = None
            dim = self.data.shape[1]
        if cfg.K > dim:
            raise ConfigError(f"K exceeds dimension: K={cfg.K}, d={dim}")

    @property
    def sigma(self) -> np.ndarray:
        # built on demand so matrix-free streaming runs over file sources
        # never materialize a d x d covariance
        if self._sigma is None:
            self._sigma = covariance(self.data)
        return self._sigma

    def provider(self, trial_seed: int):
        if self.truth is not None:
            return gaussian_stream(self.truth, self.cfg.batch_size, trial_seed)
        return MatrixRowProvider(self.data, self.cfg.batch_size, trial_seed)

    def metric_series(self, trace: RunTrace) -> np.ndarray:
        """The per-round metric of a trace, scored in one pass.

        Synthetic sources: the RMS over workers of the oracle distances
        `attach_oracle` stored, i.e. each round's `recovery_error`. Data
        sources: the discounted Rayleigh score, from Sigma / n when a dense
        engine has built Sigma = Y^T Y, else from the data rows.
        """
        if self.truth is not None:
            return np.sqrt(np.mean(trace.errors ** 2, axis=1))
        if self._sigma is not None:
            return discounted_rayleigh(trace.vectors,
                                       sigma=self._sigma / self.data.shape[0])
        return discounted_rayleigh(trace.vectors, data=self.data)


def _sequential_trace(cfg: ExperimentConfig, sigma, trial_seed: int) -> RunTrace:
    """Present a sequential run as K rounds, one component completed per round."""
    final = sequential_deflation(sigma, cfg.K, _solver_config(cfg), trial_seed)
    dim = sigma.shape[0]
    inits = np.stack([unit_init(trial_seed, k, dim) for k in range(1, cfg.K + 1)])
    vectors = np.empty((cfg.K, cfg.K, dim))
    for rnd in range(1, cfg.K + 1):
        vectors[rnd - 1, :rnd] = final[:rnd]
        vectors[rnd - 1, rnd:] = inits[rnd:]
    vectors.setflags(write=False)
    return RunTrace(algorithm="sequential_deflation", local_steps=cfg.T,
                    seed=trial_seed, vectors=vectors)


def _solver_config(cfg: ExperimentConfig) -> Top1Config:
    if cfg.solver == "hebb":
        if cfg.eta is None:
            raise ConfigError("solver hebb needs eta")
        return Top1Config(method="hebb", steps=cfg.T, eta=cfg.eta)
    if cfg.solver != "power_iteration":
        raise ConfigError(f"solver must be power_iteration or hebb, got {cfg.solver!r}")
    return Top1Config(method="power_iteration", steps=cfg.T)


def run_trial(cfg: ExperimentConfig, problem: _Problem, trial: int) -> RunTrace:
    trial_seed = cfg.seed + trial
    algo = cfg.algorithm
    if cfg.L is None and algo != "sequential_deflation":
        raise ConfigError(f"L is required for {algo}")
    if algo == "parallel_deflation":
        trace = parallel_deflation(problem.sigma, cfg.K, cfg.L,
                                   _solver_config(cfg), trial_seed, mode=cfg.mode)
    elif algo == "sequential_deflation":
        trace = _sequential_trace(cfg, problem.sigma, trial_seed)
    elif algo == "stochastic_parallel_deflation":
        sched = StepSchedule(eta0=cfg.eta, mode=cfg.schedule, tau=cfg.tau)
        trace = stochastic_parallel_deflation(problem.provider(trial_seed), cfg.K,
                                              cfg.L, cfg.T, sched, trial_seed,
                                              mode=cfg.mode)
    else:
        variant = "alpha" if algo.endswith("alpha") else "mu"
        trace = run_eigengame(variant, problem.sigma, cfg.K, cfg.L, cfg.T,
                              eta=cfg.eta, seed=trial_seed, mode=cfg.mode)
    if problem.truth is not None:
        trace = attach_oracle(trace, problem.truth)
    return trace


def _trial_csv(trace: RunTrace, metric: np.ndarray, trial: int) -> str:
    n_workers, steps = trace.n_workers, trace.local_steps
    # every float is formatted once; a round's rows share one prefix
    metric_text = list(map(repr, metric.tolist()))
    errors = ([""] * (trace.n_rounds * n_workers) if trace.errors is None
              else list(map(repr, trace.errors.ravel().tolist())))
    lines = [TRIAL_HEADER]
    for l, value in enumerate(metric_text):
        prefix = f"{trial},{trace.algorithm},{steps},{l + 1},{steps * (l + 1)},"
        row_errors = errors[l * n_workers:(l + 1) * n_workers]
        lines += [f"{prefix}{k},{err},{value}" for k, err in enumerate(row_errors, 1)]
    return "\n".join(lines) + "\n"


def _aggregate_rows(cfg: ExperimentConfig, stack: np.ndarray) -> list[str]:
    """Per-round mean/min/max over the trials of one config (AGGREGATE_HEADER)."""
    return [f"{cfg.algorithm},{cfg.T},{l + 1},{cfg.T * (l + 1)},"
            f"{float(np.mean(col))!r},{float(np.min(col))!r},{float(np.max(col))!r}"
            for l, col in enumerate(stack.T)]


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run `trials` seeds; write one CSV per trial plus the aggregate CSV.

    Returns {"trials": [paths], "aggregate": path, "metric": (trials, L)
    array}. Reruns with identical config and seed are byte-identical.
    """
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
    """Run several configs on a shared source/K and merge their aggregates."""
    if not cfgs:
        raise ConfigError("need at least one config to compare")
    key = cfgs[0].source_key()
    n_comp = cfgs[0].K
    seen = set()
    for cfg in cfgs:
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
    lines = [AGGREGATE_HEADER]
    for cfg in cfgs:
        lines += _aggregate_rows(cfg, run_experiment(cfg)["metric"])
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out_path, "\n".join(lines) + "\n")
    return out_path


def run_theory_report(cfg: ExperimentConfig, extra_rounds: int = 50) -> dict:
    """Schedule + envelope audit against a fresh parallel-deflation trace.

    Needs a synthetic source (the oracle eigensystem must be known). When
    cfg.L is unset it is sized to s_K + extra_rounds; an explicitly
    configured shorter L fails the coverage check inside `check_bound`,
    which reports the required length.
    """
    if cfg.spectrum is None:
        raise ConfigError("the theory report needs a synthetic source")
    problem = _Problem(cfg)
    schedule = schedule_for_run(problem.sigma, problem.truth, cfg.K, cfg.T,
                                c0=cfg.c0)
    n_rounds = cfg.L if cfg.L is not None else int(schedule.s[-1]) + extra_rounds
    n_rounds = max(n_rounds, cfg.K)
    trace = parallel_deflation(problem.sigma, cfg.K, n_rounds,
                               _solver_config(cfg), cfg.seed, mode=cfg.mode)
    trace = attach_oracle(trace, problem.truth)
    report = check_bound(trace, schedule)
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    schedule_path = outdir / "schedule.csv"
    bounds_path = outdir / "bounds.csv"
    schedule_to_csv(schedule, schedule_path)
    bound_report_to_csv(report, bounds_path)
    return {"schedule": schedule, "report": report,
            "schedule_csv": schedule_path, "bounds_csv": bounds_path}


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--algorithm", choices=ALGORITHMS)
    p.add_argument("--spectrum", choices=sorted(SPECTRA))
    p.add_argument("--d", type=int)
    p.add_argument("--data", help="dataset path (.pdm1 or CSV)")
    p.add_argument("--K", type=int)
    p.add_argument("--L", type=int)
    p.add_argument("--T", type=int)
    p.add_argument("--solver", choices=("power_iteration", "hebb"))
    p.add_argument("--eta", type=float)
    p.add_argument("--schedule", choices=("constant", "inverse_time"))
    p.add_argument("--tau", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--mode", choices=("serial", "thread"))
    p.add_argument("--c0", type=float)
    p.add_argument("--out")


def _config_from_args(args) -> ExperimentConfig:
    file_values = parse_config_file(args.config) if args.config else {}
    overrides = {k: getattr(args, k) for k in _CONFIG_KEYS
                 if getattr(args, k, None) is not None}
    return build_config(file_values, overrides)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pardefl", description="Distributed-PCA experiment harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment configuration")
    _add_common_flags(p_run)

    p_cmp = sub.add_parser("compare", help="run several configs, merge aggregates")
    p_cmp.add_argument("configs", nargs="+", help="config files to compare")
    p_cmp.add_argument("--out", default="comparison.csv")

    p_thy = sub.add_parser("theory", help="schedule + bound audit on a synthetic run")
    _add_common_flags(p_thy)

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
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DataFormatError, StreamError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except PardeflError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
