"""Correctness checks for the benchmark's `pardefl run` outputs.

Every reference here comes from numpy/LAPACK (`np.linalg.eigh`,
`np.linalg.eigvalsh`) applied to the problem the run solved, never from
pardefl itself. Each check returns a list of failure messages; an empty list
means the output passed. `self_test()` feeds each check a right answer, a
sign-flipped one (must pass) and wrong ones (must be rejected).

Run `python3 perfbench/checks.py` to execute the self-test on its own.
"""

import csv

import numpy as np

# Dense power-iteration deflation at d=200, K=10, L=400, T=1 ends with
# errors of 2e-9..1.4e-7 over seeds 0..24; a 1e-2 rotation must be caught.
DENSE_TOL = 1e-3
# The streaming engine's final errors sit at 0.06..0.15 over seeds 0..24
# (batch 256, 2,000 steps); random starts are at 1.1..1.4.
STREAM_TOL = 0.3
STREAM_SHRINK = 0.25
# EigenGame-mu's discounted Rayleigh score stays within 6.6e-6 of the
# optimum over seeds 0..59 (8,000 rows); a score 1% short must be caught.
# The score can also exceed the optimum, which bounds it only for
# orthonormal vectors: a worker still tilted toward a peer's higher
# eigenvector scores above its own.
METRIC_REL_TOL = 2e-3
CSV_ERROR_TOL = 1e-9


def top_eigvecs(sigma, k):
    """Rows are the k leading unit eigenvectors of sigma, by LAPACK."""
    _, vecs = np.linalg.eigh(np.asarray(sigma, dtype=np.float64))
    return vecs[:, ::-1].T[:k].copy()


def sign_invariant_errors(est, ref):
    """min over s in {+1, -1} of ||est_k - s ref_k||, per row."""
    return np.minimum(np.linalg.norm(est - ref, axis=1),
                      np.linalg.norm(est + ref, axis=1))


def final_round_errors(trial_csv, n_rounds, n_workers):
    """The `error` column of the final round of a per-trial CSV, by worker."""
    with open(trial_csv, newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if int(r["round"]) == n_rounds]
    if len(rows) != n_workers:
        return None
    return np.array([float(r["error"]) for r in sorted(rows, key=lambda r: int(r["worker"]))])


def check_spectrum(sigma, expected):
    """The covariance the run solved has the spectrum the workload asked for."""
    got = np.linalg.eigvalsh(np.asarray(sigma, dtype=np.float64))[::-1]
    if got.shape != expected.shape or not np.allclose(got, expected, rtol=1e-9, atol=1e-12):
        return ["covariance spectrum differs from the requested one"]
    return []


def check_dense(final, ref):
    """Final vectors match LAPACK's top-K eigenvectors, sign-invariant."""
    err = sign_invariant_errors(final, ref)
    worst = float(np.max(err))
    if not worst <= DENSE_TOL:
        return [f"dense final error {worst:.3g} exceeds {DENSE_TOL:g} "
                f"(worker {int(np.argmax(err)) + 1})"]
    return []


def check_csv_errors(csv_errors, final, ref):
    """The CSV's final-round error column agrees with a recomputation."""
    if csv_errors is None:
        return ["per-trial CSV lacks one final-round row per worker"]
    mine = sign_invariant_errors(final, ref)
    gap = float(np.max(np.abs(csv_errors - mine)))
    if not gap <= CSV_ERROR_TOL:
        return [f"CSV final-round errors differ from recomputation by {gap:.3g}"]
    return []


def check_streaming(final, init, ref):
    """Every worker ends below a stochastic tolerance and far below its start."""
    err = sign_invariant_errors(final, ref)
    start = sign_invariant_errors(init, ref)
    bad = [k for k in range(err.size)
           if not (err[k] <= STREAM_TOL and err[k] <= STREAM_SHRINK * start[k])]
    if bad:
        k = bad[0]
        return [f"streaming worker {k + 1} ended at error {err[k]:.3g} "
                f"(start {start[k]:.3g}, tolerance {STREAM_TOL:g})"]
    return []


def discounted_optimum(eigvals, k):
    """sum_{j<=k} lambda_j / j for eigenvalues in non-increasing order."""
    return float(np.sum(eigvals[:k] / np.arange(1, k + 1)))


def check_discounted_metric(value, optimum):
    """The score lies within a relative METRIC_REL_TOL of the optimum."""
    if not abs(value - optimum) <= METRIC_REL_TOL * optimum:
        return [f"final metric {value!r} is off the optimum {optimum!r} "
                f"by more than a relative {METRIC_REL_TOL:g}"]
    return []


def final_aggregate_mean(aggregate_csv, n_rounds):
    """The `mean` column of the final round of aggregate.csv, or None."""
    with open(aggregate_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != n_rounds or int(rows[-1]["round"]) != n_rounds:
        return None
    return float(rows[-1]["mean"])


def _rotate(v, w, angle):
    """Rotate v toward the unit vector w (orthogonal to v) by `angle`."""
    return np.cos(angle) * v + np.sin(angle) * w


def self_test():
    """Right answers pass; swapped, rotated or short ones are rejected.

    Returns a list of failure messages (empty when every case behaves).
    """
    rng = np.random.default_rng(12345)
    d, k = 30, 5
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    lam = 1.0 / np.sqrt(np.arange(1, d + 1))
    sigma = (q * lam) @ q.T
    ref = top_eigvecs(sigma, k)
    exact = q.T[:k].copy()
    flipped = exact * np.array([1, -1, 1, -1, -1])[:, None]
    swapped = exact[[1, 0, 2, 3, 4]]
    rotated = exact.copy()
    rotated[2] = _rotate(exact[2], q.T[k + 3], 1e-2)
    init = rng.standard_normal((k, d))
    init /= np.linalg.norm(init, axis=1, keepdims=True)
    noisy = exact + 0.02 * rng.standard_normal((k, d))
    noisy /= np.linalg.norm(noisy, axis=1, keepdims=True)
    noisy_swapped = noisy[[1, 0, 2, 3, 4]]

    y = rng.standard_normal((400, d)) * np.sqrt(lam) @ q.T
    evals = np.linalg.eigvalsh(y.T @ y / y.shape[0])[::-1]
    optimum = discounted_optimum(evals, k)
    evecs = top_eigvecs(y.T @ y, k)

    def score(v):
        return float(sum(np.sum((y @ v[j]) ** 2) / (y.shape[0] * (j + 1))
                         for j in range(k)))

    cases = [
        ("spectrum: right", check_spectrum(sigma, lam), True),
        ("spectrum: wrong", check_spectrum(sigma, lam * 1.01), False),
        ("dense: exact", check_dense(exact, ref), True),
        ("dense: sign flip", check_dense(flipped, ref), True),
        ("dense: swapped", check_dense(swapped, ref), False),
        ("dense: rotated 1e-2", check_dense(rotated, ref), False),
        ("csv: recomputed", check_csv_errors(
            sign_invariant_errors(rotated, exact), rotated, ref), True),
        ("csv: off", check_csv_errors(
            sign_invariant_errors(rotated, exact) + 1e-6, rotated, ref), False),
        ("streaming: noisy", check_streaming(noisy, init, ref), True),
        ("streaming: sign flip", check_streaming(
            noisy * np.array([-1, 1, -1, 1, 1])[:, None], init, ref), True),
        ("streaming: swapped", check_streaming(noisy_swapped, init, ref), False),
        ("metric: optimum", check_discounted_metric(score(evecs), optimum), True),
        ("metric: sign flip", check_discounted_metric(
            score(-evecs), optimum), True),
        ("metric: swapped", check_discounted_metric(
            score(evecs[[1, 0, 2, 3, 4]]), optimum), False),
        ("metric: 1% short", check_discounted_metric(
            0.99 * score(evecs), optimum), False),
        ("metric: duplicated top vector", check_discounted_metric(
            score(evecs[[0, 0, 2, 3, 4]]), optimum), False),
    ]
    return [f"self-test case {name!r}: expected {'pass' if want else 'reject'}, "
            f"got {'pass' if not got else 'reject'}"
            for name, got, want in cases if (not got) != want]


if __name__ == "__main__":
    import sys

    problems = self_test()
    for line in problems:
        print(line)
    print("self-test:", "FAILED" if problems else "ok")
    sys.exit(1 if problems else 0)
