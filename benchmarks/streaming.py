"""Streaming-engine timing: run wall time and the batch sampling inside it.

Usage, from the root of a source checkout (numpy only, one BLAS thread):

    PYTHONPATH=src python3 benchmarks/streaming.py --label change --out BENCH_streaming.json

Each run is one `stochastic_parallel_deflation` call on a Gaussian stream
over a powerlaw covariance (covariance seed 21), with the default step
schedule and the stream and init seeds `seed`. The provider's `batch`
method is wrapped to time and count the batches. `provider_s` is the
summed sampling time of every call. The engine draws batches ahead on
helper threads while it updates, so that sum overlaps the rest of the run
and may exceed its share of `wall_s`; there is no update time to derive
from it. Final errors are each worker's sign-invariant distance to its true
eigenvector.

The record goes under `--label` in the `--out` JSON file, next to any
records already there, so one file can hold a before and an after run.
Point PYTHONPATH at another checkout's `src` to time that tree instead.
"""

import os

# Pin BLAS to one thread before numpy loads, as perfbench does.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import pardefl as pd  # noqa: E402
from pardefl.metrics import gaussian_stream, random_covariance, spectrum_powerlaw  # noqa: E402

# d, K, L, T, batch size, seeds: criterion 10's shape, then a two-block K
SHAPES = ((50, 5, 400, 5, 256, (300, 301, 302, 303, 304)),
          (100, 20, 60, 2, 128, (0, 1, 2)))
REPEATS = 3  # runs of each seed


def one_run(truth, k, n_rounds, steps, batch_size, seed):
    prov = gaussian_stream(truth, batch_size, seed=seed)
    batch = prov.batch
    spent = [0.0, 0]
    lock = threading.Lock()  # batch runs on the engine's helper threads

    def timed_batch(*key):
        t0 = time.perf_counter()
        out = batch(*key)
        dt = time.perf_counter() - t0
        with lock:
            spent[0] += dt
            spent[1] += 1
        return out

    prov.batch = timed_batch
    t0 = time.perf_counter()
    trace = pd.stochastic_parallel_deflation(prov, k, n_rounds, steps,
                                             pd.StepSchedule(), seed=seed)
    wall = time.perf_counter() - t0
    final = pd.attach_oracle(trace, truth).errors[-1]
    return {"seed": seed, "wall_s": wall, "provider_s": spent[0], "batches": spent[1],
            "final_errors": [float(e) for e in final]}


def run_shape(d, k, n_rounds, steps, batch_size, seeds, repeats):
    _, truth = random_covariance(spectrum_powerlaw(d), seed=21)
    runs = [one_run(truth, k, n_rounds, steps, batch_size, seed)
            for _ in range(repeats) for seed in seeds]
    finals = [e for r in runs[: len(seeds)] for e in r["final_errors"]]
    return {
        "shape": {"d": d, "K": k, "L": n_rounds, "T": steps,
                  "batch_size": batch_size, "seeds": list(seeds), "repeats": repeats},
        "median": {name: statistics.median(r[name] for r in runs)
                   for name in ("wall_s", "provider_s")},
        "batches_per_run": runs[0]["batches"],
        "mean_final_error": statistics.fmean(finals),
        "max_final_error": max(finals),
        "runs": runs,
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
    record = {"host": host_info(),
              "shapes": [run_shape(*shape, REPEATS) for shape in SHAPES]}
    results = json.loads(args.out.read_text()) if args.out.exists() else {}
    results[args.label] = record
    args.out.write_text(json.dumps(results, indent=1) + "\n")
    for s in record["shapes"]:
        print(f"{args.label} {s['shape']}: wall {s['median']['wall_s']:.3f} s, "
              f"provider {s['median']['provider_s']:.3f} s, "
              f"{s['batches_per_run']} batches, "
              f"mean final error {s['mean_final_error']:.3f}")


if __name__ == "__main__":
    main()
