"""Peak memory of each phase of `pardefl run`, measured with tracemalloc.

Usage, from the root of a source checkout (numpy only, one BLAS thread):

    PYTHONPATH=src python3 benchmarks/memory.py --label change --out BENCH_memory.json

Each shape is one `cli.run_experiment` call (one trial, serial mode, seed
5) under tracemalloc. The names `pardefl.cli` calls are wrapped in place on
the module for the call, as perfbench does, and each is a phase:

    sigma      random_covariance; for a file, load_covariance (Y^T Y read
               a chunk of rows at a time) or, for a streaming run,
               load_matrix
    engine     the algorithm's engine call; it also scores each round as
               the round ends (oracle distances on a synthetic source, the
               discounted Rayleigh score on a file)
    metric     _Problem.metric_series
    trial_csv  _trial_csv
    write      atomic_write_text (trial and aggregate files)
    aggregate  _aggregate_rows

A phase's `peak_mb` is the highest traced memory while it ran: what the
run already held plus the phase's own scratch. `own_mb` is that peak less
what was traced when the phase began. `run_peak_mb` is the peak over the
whole call, gaps between phases included. `trace_mb` is the size an
(L, K, d) trace would have, which no `pardefl run` keeps any more, and
`data_mb` that of the data file's matrix, for scale.
Peaks are counts of bytes numpy and Python allocate, so they repeat from
run to run; one run per shape is recorded.

The record goes under `--label` in the `--out` JSON file, next to any
records already there, so one file can hold a before and an after run.
Point PYTHONPATH at another checkout's `src` to measure that tree instead;
phase names that tree's `pardefl.cli` lacks are skipped.
"""

import os

# Pin BLAS to one thread before numpy loads, as perfbench does.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import tempfile  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from pardefl import cli, save_pdm1  # noqa: E402

# name, algorithm, d, K, L, T, batch size, data rows (None: powerlaw
# spectrum): perfbench's three workloads, eigengame-data at five times its
# rows, then two larger dense shapes
SHAPES = (
    ("dense-deflation", "parallel_deflation", 200, 10, 400, 1, None, None),
    ("streaming-gaussian", "stochastic_parallel_deflation", 50, 5, 400, 5, 256, None),
    ("eigengame-data", "eigengame_mu", 100, 8, 200, 10, None, 8000),
    ("eigengame-data-40k", "eigengame_mu", 100, 8, 200, 10, None, 40000),
    ("deflation-d1000", "parallel_deflation", 1000, 32, 100, 1, None, None),
    ("deflation-d2000", "parallel_deflation", 2000, 64, 200, 1, None, None),
)
SEED = 5
PHASES = {
    "random_covariance": "sigma", "load_matrix": "sigma", "covariance": "sigma",
    "load_covariance": "sigma",
    "parallel_deflation": "engine", "stochastic_parallel_deflation": "engine",
    "run_eigengame": "engine",
    "_trial_csv": "trial_csv", "atomic_write_text": "write",
    "_aggregate_rows": "aggregate",
}


class PhasePeaks:
    """tracemalloc peaks per phase and over the whole traced call."""

    def __init__(self):
        self.run_peak = 0
        self.phases = {}

    def fold(self):
        self.run_peak = max(self.run_peak, tracemalloc.get_traced_memory()[1])

    def wrap(self, phase, fn):
        def wrapper(*args, **kwargs):
            self.fold()
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                self.fold()
                peak = tracemalloc.get_traced_memory()[1]
                old_peak, old_own = self.phases.get(phase, (0, 0))
                self.phases[phase] = (max(old_peak, peak), max(old_own, peak - base))
                tracemalloc.reset_peak()
        return wrapper


@contextlib.contextmanager
def phases_wrapped(peaks):
    """Wrap the phase names on `pardefl.cli` and restore them on exit."""
    targets = [(cli, name, phase) for name, phase in PHASES.items()
               if hasattr(cli, name)]
    targets.append((cli._Problem, "metric_series", "metric"))
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in targets]
    try:
        for owner, name, phase in targets:
            setattr(owner, name, peaks.wrap(phase, getattr(owner, name)))
        yield
    finally:
        for owner, name, fn in saved:
            setattr(owner, name, fn)


def write_data(path, n_rows, d):
    """n Gaussian rows with population covariance Q diag(0.9^(k-1)) Q^T."""
    rng = np.random.default_rng([SEED, 20251018])
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    save_pdm1(path, (rng.standard_normal((n_rows, d)) * np.sqrt(0.9 ** np.arange(d))) @ q.T)


def measure(name, algorithm, d, k, n_rounds, steps, batch_size, n_rows, work):
    cfg = {"algorithm": algorithm, "K": k, "L": n_rounds, "T": steps,
           "seed": SEED, "trials": 1, "mode": "serial", "out": str(work / name)}
    if batch_size is not None:
        cfg["batch_size"] = batch_size
    if n_rows is None:
        cfg.update(spectrum="powerlaw", d=d)
    else:
        cfg["data"] = str(work / f"{name}.pdm1")
        write_data(cfg["data"], n_rows, d)
    cfg = cli.ExperimentConfig(**cfg)
    peaks = PhasePeaks()
    tracemalloc.start()
    try:
        with phases_wrapped(peaks):
            cli.run_experiment(cfg)
        peaks.fold()
    finally:
        tracemalloc.stop()
    return {
        "name": name,
        "shape": {"algorithm": algorithm, "d": d, "K": k, "L": n_rounds, "T": steps,
                  "batch_size": batch_size, "data_rows": n_rows, "seed": SEED},
        "run_peak_mb": peaks.run_peak / 1e6,
        "trace_mb": n_rounds * k * d * 8 / 1e6,
        "data_mb": 0.0 if n_rows is None else n_rows * d * 8 / 1e6,
        "phases": {phase: {"peak_mb": peak / 1e6, "own_mb": own / 1e6}
                   for phase, (peak, own) in peaks.phases.items()},
    }


def host_info():
    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine(), "system": platform.system(),
            "cpu_count": os.cpu_count(),
            "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="key of this record in --out")
    ap.add_argument("--out", type=Path, required=True, help="JSON file to update")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        shapes = [measure(*shape, Path(work)) for shape in SHAPES]
    results = json.loads(args.out.read_text()) if args.out.exists() else {}
    results[args.label] = {"host": host_info(), "shapes": shapes}
    args.out.write_text(json.dumps(results, indent=1) + "\n")
    for s in shapes:
        worst = max(s["phases"], key=lambda p: s["phases"][p]["peak_mb"])
        print(f"{args.label} {s['name']}: run peak {s['run_peak_mb']:.2f} MB "
              f"(trace {s['trace_mb']:.2f} MB, data {s['data_mb']:.2f} MB), "
              f"highest in {worst}")


if __name__ == "__main__":
    main()
