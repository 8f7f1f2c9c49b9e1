"""End-to-end and per-layer benchmark of `pardefl run`, numpy only.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload dense-deflation --seed 0 --seconds 36 --trace 0

One operation is one in-process `pardefl.cli.main(["run", ...])` call with
the workload's flags. Every operation's outputs are checked against numpy
and LAPACK (see checks.py). With `--trace 0` the last stdout line is a JSON
object with the end-to-end metrics (setup_s, experiment_s, peak_mem_mb);
with `--trace 1` it holds the per-layer metrics, measured by timing the
names `pardefl.cli` calls and the providers' `batch` methods, plus
standalone calls of public kernels at the workload's shape. See README.md.
"""

import os
import sys
import time

T_START = time.perf_counter()

# Pin BLAS to one thread before numpy loads: threaded OpenBLAS on this kind
# of 2-vCPU guest stalls for 0.4-1 s now and then (see README.md).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# The CLI lets this variable override --out; outputs must stay where the
# benchmark reads them.
os.environ.pop("PARDEFL_OUT", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import struct  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Workload:
    name: str
    algorithm: str
    d: int
    K: int
    L: int
    T: int
    batch_size: int | None = None
    n_rows: int | None = None  # rows of the generated data file; None = synthetic

    def flags(self, seed, source, out):
        argv = ["run", "--algorithm", self.algorithm, "--K", str(self.K),
                "--L", str(self.L), "--T", str(self.T), "--trials", "1",
                "--mode", "serial", "--seed", str(seed), "--out", str(out)]
        if self.batch_size is not None:
            argv += ["--batch-size", str(self.batch_size)]
        if self.n_rows is None:
            return argv + ["--spectrum", "powerlaw", "--d", str(self.d)]
        return argv + ["--data", str(source)]


WORKLOADS = {w.name: w for w in (
    Workload("dense-deflation", "parallel_deflation", d=200, K=10, L=400, T=1),
    Workload("streaming-gaussian", "stochastic_parallel_deflation",
             d=50, K=5, L=400, T=5, batch_size=256),
    Workload("eigengame-data", "eigengame_mu", d=100, K=8, L=200, T=10,
             n_rows=8000),
)}
DATA_DECAY = 0.9  # population spectrum of the data file: 0.9**(k-1)

ENGINES = ("parallel_deflation", "stochastic_parallel_deflation", "run_eigengame")
METRICS = ("recovery_error", "discounted_rayleigh")
SPANS = ENGINES + METRICS + ("random_covariance", "load_matrix", "covariance",
                             "attach_oracle", "atomic_write_text")


class Recorder:
    """Wraps the names `pardefl.cli` calls, in place on the module.

    Every wrapper keeps the call's result for the checks. With `timed` set
    the wrappers also add up time per name and count calls, bytes written
    and provider batches; with `timed` clear they only pass the call on.
    With `mem` set the engine wrapper splits the tracemalloc peak into the
    part before the engine call and the engine call's own.
    """

    def __init__(self, cli):
        self.timed = False
        self.mem = False
        self.begin()
        for name in SPANS:
            setattr(cli, name, self._span(name, getattr(cli, name)))
        cli.gaussian_stream = self._provider(cli.gaussian_stream)

    def begin(self):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.results = defaultdict(list)
        self.bytes_written = 0
        self.engine_peak = 0
        self.peak_before_engine = 0

    def _span(self, name, fn):
        def wrapper(*args, **kwargs):
            if self.mem and name in ENGINES:
                base, self.peak_before_engine = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                out = fn(*args, **kwargs)
                self.engine_peak = tracemalloc.get_traced_memory()[1] - base
            elif self.timed:
                t0 = time.perf_counter()
                out = fn(*args, **kwargs)
                self.seconds[name] += time.perf_counter() - t0
                self.calls[name] += 1
                if name == "atomic_write_text":
                    self.bytes_written += len(args[1].encode("utf-8"))
            else:
                out = fn(*args, **kwargs)
            self.results[name].append(out)
            return out
        return wrapper

    def _provider(self, factory):
        def wrapper(*args, **kwargs):
            provider = factory(*args, **kwargs)
            batch = provider.batch

            def timed_batch(*a):
                if not self.timed:
                    return batch(*a)
                t0 = time.perf_counter()
                out = batch(*a)
                self.seconds["batch"] += time.perf_counter() - t0
                self.calls["batch"] += 1
                return out
            provider.batch = timed_batch
            return provider
        return wrapper


def write_pdm1(path, array):
    """PDM1: magic, u64 rows and cols, row-major little-endian float64."""
    header = b"PDM1" + struct.pack("<QQ", *array.shape)
    Path(path).write_bytes(header + array.astype("<f8").tobytes(order="C"))


class Bench:
    def __init__(self, workload, seed, work):
        import pardefl
        from pardefl import cli

        self.pardefl, self.cli = pardefl, cli
        self.w, self.seed = workload, seed
        self.out = work / "out"
        self.source = None
        self.attempted = 0
        self.failed = 0
        self.rejected = 0
        if workload.n_rows is not None:
            self.source = work / "data.pdm1"
            data = self._make_data()
            write_pdm1(self.source, data)
            evals = np.linalg.eigvalsh(data.T @ data / data.shape[0])[::-1]
            self.optimum = checks.discounted_optimum(evals, workload.K)
        self.argv = workload.flags(seed, self.source, self.out)
        self.rec = Recorder(cli)

    def _make_data(self):
        """n Gaussian rows with population covariance Q diag(0.9^(k-1)) Q^T."""
        rng = np.random.default_rng([self.seed, 20251018])
        d = self.w.d
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        scale = np.sqrt(DATA_DECAY ** np.arange(d))
        return (rng.standard_normal((self.w.n_rows, d)) * scale) @ q.T

    def build_problem(self):
        """What `pardefl run` builds before its engines run, via public names."""
        p = self.pardefl
        if self.source is None:
            return p.random_covariance(p.spectrum_powerlaw(self.w.d), self.seed)[0]
        return p.covariance(p.load_matrix(self.source))

    def operation(self):
        """One checked `pardefl run` invocation; returns its wall time."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.rec.begin()
        stdout, stderr = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                rc = self.cli.main(self.argv)
            except Exception:  # an escaped exception is a failed operation
                traceback.print_exc()
                rc = None
        elapsed = time.perf_counter() - t0
        self.attempted += 1
        if rc != 0:
            self.failed += 1
            print(f"operation exited {rc}: {stderr.getvalue().strip()}", file=sys.stderr)
            return elapsed
        problems = self.check()
        if problems:
            self.failed += 1
            self.rejected += 1
            print("check rejected output: " + "; ".join(problems), file=sys.stderr)
        return elapsed

    def check(self):
        ck, w = checks, self.w
        if self.source is not None:
            value = ck.final_aggregate_mean(self.out / "aggregate.csv", w.L)
            if value is None:
                return ["aggregate.csv lacks its final round"]
            return ck.check_discounted_metric(value, self.optimum)
        built, engine = self.rec.results["random_covariance"], self.rec.results[w.algorithm]
        if len(built) != 1 or len(engine) != 1:
            return [f"expected one random_covariance and one {w.algorithm} call, "
                    f"saw {len(built)} and {len(engine)}"]
        sigma = built[0][0]
        final = np.asarray(engine[0].final_vectors)
        ref = ck.top_eigvecs(sigma, w.K)
        expected = 1.0 / np.sqrt(np.arange(1, w.d + 1))
        csv_err = ck.final_round_errors(self.out / "trial_000.csv", w.L, w.K)
        problems = ck.check_spectrum(sigma, expected)
        problems += ck.check_csv_errors(csv_err, final, ref)
        if w.algorithm == "parallel_deflation":
            return problems + ck.check_dense(final, ref)
        init = np.stack([self.pardefl.unit_init(self.seed, k, w.d)
                         for k in range(1, w.K + 1)])
        return problems + ck.check_streaming(final, init, ref)

    def memory_pass(self):
        """One untimed invocation under tracemalloc; (whole, engine) peaks in MB."""
        tracemalloc.start()
        self.rec.mem = True
        try:
            self.operation()
            peak = max(self.rec.peak_before_engine, tracemalloc.get_traced_memory()[1])
        finally:
            self.rec.mem = False
            tracemalloc.stop()
        return peak / 1e6, self.rec.engine_peak / 1e6

    def layer_values(self, invocation_s):
        """Per-layer figures of the invocation just made with `timed` set."""
        s, c = self.rec.seconds, self.rec.calls
        engine_s = sum(s[name] for name in ENGINES)
        covered = sum(s[name] for name in SPANS)
        traces = [t for name in ENGINES for t in self.rec.results[name]]
        steps = sum(int(t.active().sum()) * t.local_steps for t in traces)
        stream_s = s["stochastic_parallel_deflation"]
        return {
            "metrics.random_covariance_s": s["random_covariance"],
            "io.load_matrix_s": s["load_matrix"],
            "linalg.covariance_s": s["covariance"],
            "engine.run_s": engine_s,
            "engine.worker_steps": steps,
            "engine.worker_steps_per_s": steps / engine_s,
            "engine.attach_oracle_s": s["attach_oracle"],
            "stochastic.provider_s": s["batch"],
            "stochastic.provider_batches": c["batch"],
            "stochastic.update_s": stream_s - s["batch"] if stream_s else 0.0,
            "metrics.metric_s": sum(s[name] for name in METRICS),
            "metrics.metric_calls": sum(c[name] for name in METRICS),
            "io.write_s": s["atomic_write_text"],
            "io.bytes_written": self.rec.bytes_written,
            "cli.self_s": invocation_s - covered,
        }

    def standalone(self, sigma):
        """Median per-call time of public kernels at the workload's shape."""
        p, w = self.pardefl, self.w
        evals, evecs = np.linalg.eigh(sigma)
        lams, vecs = evals[::-1][: w.K], evecs[:, ::-1].T[: w.K].copy()
        rng = np.random.default_rng([self.seed, 7])
        x = rng.standard_normal(w.d)
        x /= np.linalg.norm(x)
        factor = np.sqrt(np.clip(evals, 0.0, None))[:, None] * evecs.T
        batch = rng.standard_normal((256, w.d)) @ factor
        cfg = p.Top1Config(method="power_iteration", steps=w.T)
        trace = p.parallel_deflation(sigma, w.K, w.K + 1, cfg, self.seed)
        peers = vecs[: w.K - 1]
        kernels = {
            "deflation.replay_round_ms": (1e3, lambda: p.replay_round(sigma, trace, w.K + 1, cfg)),
            "deflation.deflate_ms": (1e3, lambda: p.deflate(sigma, peers)),
            "solvers.pow_iter_us": (1e6, lambda: p.pow_iter(sigma, x, 1)),
            "eigengame.mu_grad_us": (1e6, lambda: p.eigengame_mu_grad(sigma, x, peers)),
            "stochastic.deflated_matvec_us": (
                1e6, lambda: p.deflated_matvec(batch, peers, lams[: w.K - 1], x)),
        }
        return {name: scale * per_call(fn) for name, (scale, fn) in kernels.items()}


def blas_threads():
    """Threads of the OpenBLAS bundled with numpy, as it reports them, or None."""
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"):
        get = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            return get()
    return None


def declared_units(kind):
    """Metric name -> unit, as BENCHMARK.json declares the `kind` metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def per_call(fn, min_seconds=0.2, min_calls=20):
    """Median wall time of one call, after one warm-up call."""
    fn()
    times = []
    start = time.perf_counter()
    while len(times) < min_calls or time.perf_counter() - start < min_seconds:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)




def run(args, work, t_imported):
    bench = Bench(WORKLOADS[args.workload], args.seed, work)
    t0 = time.perf_counter()
    sigma = bench.build_problem()
    setup_s = (t_imported - T_START) + (time.perf_counter() - t0)

    print(f"pardefl backend {bench.pardefl.BACKEND}, numpy {np.__version__}, "
          f"BLAS threads {blas_threads()}, nproc {os.cpu_count()}")
    problems = checks.self_test()
    for line in problems:
        print(line, file=sys.stderr)
    peak_mb, engine_peak_mb = bench.memory_pass()

    # Stop before an operation that would likely end past the window, so a
    # run lasts about --seconds whatever an operation costs. A traced run
    # makes at least one traced and one untraced invocation.
    timed, plain, layers = [], [], defaultdict(list)
    start = time.perf_counter()
    while len(timed + plain) < 1 + args.trace or (
            time.perf_counter() - start + statistics.median(timed + plain) <= args.seconds):
        if args.trace:
            bench.rec.timed = not bench.rec.timed
        elapsed = bench.operation()
        if bench.rec.timed:
            timed.append(elapsed)
            for name, value in bench.layer_values(elapsed).items():
                layers[name].append(value)
        else:
            plain.append(elapsed)
    bench.rec.timed = False

    if args.trace:
        metrics = {name: statistics.median(v) for name, v in layers.items()}
        metrics["engine.peak_mem_mb"] = engine_peak_mb
        metrics.update(bench.standalone(sigma))
        base = statistics.median(plain)
        metrics["trace.overhead_pct"] = 100.0 * (statistics.median(timed) - base) / base
        units = declared_units("per_layer")
        print(f"traced invocations: {len(timed)}, untraced: {len(plain)}")
    else:
        metrics = {"setup_s": setup_s, "experiment_s": statistics.median(plain),
                   "peak_mem_mb": peak_mb}
        units = declared_units("end_to_end")
        print(f"experiment_s over {len(plain)} invocations: "
              f"min {min(plain):.4f} median {statistics.median(plain):.4f} "
              f"max {max(plain):.4f} s")
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} are "
                           f"measured or declared in BENCHMARK.json, not both")
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6g} {units[name]}")
    return {"correct": not problems and bench.rejected == 0,
            "attempted": bench.attempted, "failed": bench.failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    src = ROOT / "src"
    if not (src / "pardefl" / "__init__.py").is_file():
        print(f"error: no pardefl sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import pardefl.cli  # noqa: F401  (importing pardefl is part of set-up)
    t_imported = time.perf_counter()

    work = ROOT / ".perfbench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run(args, work, t_imported)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            work.parent.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
