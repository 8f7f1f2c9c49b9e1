#!/usr/bin/env python3
"""Benchmark the numba kernels against their pure-numpy twins.

The dense engines' rounds are batched BLAS-3 updates with no per-vector
kernel, so only the solver, streaming and Jacobi kernels are compared. Runs
each kernel on a few problem sizes and prints the median wall time
per call for both backends plus the speedup. Invoke from the repo root:

    python benchmarks/bench_kernels.py [--sizes 100 200 400] [--repeats 30]

The numpy twins are always available; the numba side requires a working
numba install (do not set PARDEFL_NO_NUMBA for this script).
"""

import argparse
import time
from statistics import median

import numpy as np

from pardefl import _kernels as K


def timeit(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return median(times)


def make_cases(d, n_batch, rng):
    a = rng.standard_normal((d, d))
    sigma = np.ascontiguousarray((a + a.T) / 2.0)
    y = np.ascontiguousarray(rng.standard_normal((n_batch, d)))
    x = rng.standard_normal(d)
    peers = rng.standard_normal((4, d))
    peers = np.ascontiguousarray(peers / np.linalg.norm(peers, axis=1, keepdims=True))
    lams = np.abs(rng.standard_normal(4)) + 0.5
    v0 = x / np.linalg.norm(x)
    out_v = np.empty(d)
    out_m = np.empty((d, d))
    scr_v = np.empty(d)
    scr_n = np.empty(n_batch)

    jac_src = sigma * 0.1 + np.eye(d) * np.arange(1, d + 1)
    jac_tol = 1e-13 * np.linalg.norm(jac_src)

    def jacobi(fn):
        def run():
            work = jac_src.copy()
            fn(work, out_m, 100, jac_tol)
        return run

    return [
        ("sym_matvec", lambda: K._np_sym_matvec(sigma, x, out_v),
         lambda: K._nb_sym_matvec(sigma, x, out_v)),
        ("power_steps(T=10)", lambda: K._np_power_steps(sigma, v0, 10, scr_v, out_v),
         lambda: K._nb_power_steps(sigma, v0, 10, scr_v, out_v)),
        ("hebb_steps(T=10)", lambda: K._np_hebb_steps(sigma, v0, 10, 0.1, scr_v, out_v),
         lambda: K._nb_hebb_steps(sigma, v0, 10, 0.1, scr_v, out_v)),
        ("batch_rayleigh", lambda: K._np_batch_rayleigh(y, x, scr_n),
         lambda: K._nb_batch_rayleigh(y, x, scr_n)),
        ("deflated_batch_matvec",
         lambda: K._np_deflated_batch_matvec(y, peers, lams, x, scr_n, out_v),
         lambda: K._nb_deflated_batch_matvec(y, peers, lams, x, scr_n, out_v)),
        ("stoch_hebb_step",
         lambda: K._np_stoch_hebb_step(y, peers, v0, 1e-3, scr_n, scr_v, out_v),
         lambda: K._nb_stoch_hebb_step(y, peers, v0, 1e-3, scr_n, scr_v, out_v)),
        ("jacobi_eigh", jacobi(K._np_jacobi_eigh), jacobi(K._nb_jacobi_eigh)),
    ]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[100, 200, 400])
    parser.add_argument("--batch", type=int, default=256)
    parser.add_argument("--repeats", type=int, default=30)
    args = parser.parse_args()

    if not K.USE_NUMBA:
        raise SystemExit("numba backend unavailable; nothing to compare")

    K.warm_up()
    rng = np.random.default_rng(0)
    print(f"{'kernel':<24} {'d':>5} {'numpy':>12} {'numba':>12} {'speedup':>8}")
    for d in args.sizes:
        cases = make_cases(d, args.batch, rng)
        for name, np_fn, nb_fn in cases:
            nb_fn()  # ensure this signature is compiled before timing
            t_np = timeit(np_fn, args.repeats)
            t_nb = timeit(nb_fn, args.repeats)
            print(f"{name:<24} {d:>5} {t_np * 1e3:>10.3f}ms {t_nb * 1e3:>10.3f}ms "
                  f"{t_np / t_nb:>7.1f}x")
        print()


if __name__ == "__main__":
    main()
