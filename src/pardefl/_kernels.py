"""Per-vector numeric kernels with numba builds and pure-numpy twins.

The dense engines do not use these: their rounds run as batched BLAS-3
updates (`engine.dense_round_update`). What remains here serves the
single-vector solvers, `linalg.matvec`, the streaming engine's matrix-free
steps and the Jacobi reference eigensolver.

The numba builds are used by default. Setting the environment variable
PARDEFL_NO_NUMBA to a non-empty value before import selects the numpy path,
as does a missing numba install. Both twins of every kernel stay importable
(`_nb_*` / `_np_*`) for the equivalence tests and for
benchmarks/bench_kernels.py.

Conventions shared by every kernel:
  * float64, C-contiguous inputs; callers enforce this.
  * outputs and scratch buffers are caller-allocated; kernels allocate
    nothing, which keeps tracemalloc-based allocation accounting honest.
  * accumulations run in fixed ascending-index order with no cross-worker
    reductions, so serial and threaded engine modes produce bitwise
    identical traces.
  * kernels that can hit a degenerate state return a status float:
    >= 0.0 means success, -1.0 means an iterate collapsed below 1e-300.
"""

import os

import numpy as np

_TINY = 1e-300

USE_NUMBA = not os.environ.get("PARDEFL_NO_NUMBA")
if USE_NUMBA:
    try:
        from numba import njit as _njit
    except ImportError:
        USE_NUMBA = False

BACKEND = "numba" if USE_NUMBA else "numpy"

if USE_NUMBA:
    def _jit(fn):
        return _njit(cache=True, nogil=True)(fn)
else:
    def _jit(fn):
        return fn


# ---------------------------------------------------------------------------
# numpy twins

def _np_sym_matvec(a, x, out):
    np.matmul(a, x, out=out)


def _np_power_steps(sigma, v0, t_steps, scratch, out):
    out[:] = v0
    for _ in range(t_steps):
        np.matmul(sigma, out, out=scratch)
        nrm = float(np.sqrt(scratch @ scratch))
        if nrm < _TINY:
            return -1.0
        np.divide(scratch, nrm, out=out)
    return 0.0


def _np_hebb_steps(sigma, v0, t_steps, eta, scratch, out):
    out[:] = v0
    for _ in range(t_steps):
        np.matmul(sigma, out, out=scratch)
        scratch *= eta
        scratch += out
        nrm = float(np.sqrt(scratch @ scratch))
        if nrm < _TINY:
            return -1.0
        np.divide(scratch, nrm, out=out)
    return 0.0


def _np_batch_rayleigh(y, v, scratch_n):
    np.matmul(y, v, out=scratch_n)
    return float(scratch_n @ scratch_n)


def _np_deflated_batch_matvec(y, peers, lams, x, scratch_n, out):
    np.matmul(y, x, out=scratch_n)
    np.matmul(y.T, scratch_n, out=out)
    for j in range(peers.shape[0]):
        out -= lams[j] * float(peers[j] @ x) * peers[j]


def _np_stoch_hebb_step(y, peers, x, eta, scratch_n, scratch_g, out):
    np.matmul(y, x, out=scratch_n)
    np.matmul(y.T, scratch_n, out=scratch_g)
    for j in range(peers.shape[0]):
        np.matmul(y, peers[j], out=scratch_n)
        lam = float(scratch_n @ scratch_n)
        scratch_g -= lam * float(peers[j] @ x) * peers[j]
    scratch_g *= eta
    scratch_g += x
    nrm = float(np.sqrt(scratch_g @ scratch_g))
    if nrm < _TINY:
        return -1.0
    np.divide(scratch_g, nrm, out=out)
    return 0.0


def _np_jacobi_eigh(a, v, max_sweeps, off_tol):
    """Cyclic Jacobi on a (destroyed); v accumulates rotations as columns.

    Returns the number of sweeps used, or -1.0 if the off-diagonal norm is
    still above off_tol after max_sweeps.
    """
    d = a.shape[0]
    v[:] = np.eye(d)
    if d == 1:
        return 0.0
    for sweep in range(max_sweeps):
        off = np.sqrt(2.0 * np.sum(np.triu(a, 1) ** 2))
        if off <= off_tol:
            return float(sweep)
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                diff = a[q, q] - a[p, p]
                if abs(apq) < 1e-150 * abs(diff):
                    # rotation angle below representable resolution
                    a[p, q] = 0.0
                    a[q, p] = 0.0
                    continue
                tau = diff / (2.0 * apq)
                if abs(tau) > 1e100:
                    t = 0.5 / tau
                elif tau >= 0.0:
                    t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                colp = a[:, p].copy()
                colq = a[:, q].copy()
                a[:, p] = c * colp - s * colq
                a[:, q] = s * colp + c * colq
                rowp = a[p, :].copy()
                rowq = a[q, :].copy()
                a[p, :] = c * rowp - s * rowq
                a[q, :] = s * rowp + c * rowq
                a[p, q] = 0.0
                a[q, p] = 0.0
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
    off = np.sqrt(2.0 * np.sum(np.triu(a, 1) ** 2))
    if off <= off_tol:
        return float(max_sweeps)
    return -1.0


# ---------------------------------------------------------------------------
# numba twins (same contracts, explicit loops)

@_jit
def _nb_sym_matvec(a, x, out):
    d = a.shape[0]
    n = a.shape[1]
    for i in range(d):
        acc = 0.0
        for j in range(n):
            acc += a[i, j] * x[j]
        out[i] = acc


@_jit
def _nb_power_steps(sigma, v0, t_steps, scratch, out):
    d = sigma.shape[0]
    for i in range(d):
        out[i] = v0[i]
    for _ in range(t_steps):
        nrm2 = 0.0
        for i in range(d):
            acc = 0.0
            for j in range(d):
                acc += sigma[i, j] * out[j]
            scratch[i] = acc
            nrm2 += acc * acc
        nrm = np.sqrt(nrm2)
        if nrm < _TINY:
            return -1.0
        for i in range(d):
            out[i] = scratch[i] / nrm
    return 0.0


@_jit
def _nb_hebb_steps(sigma, v0, t_steps, eta, scratch, out):
    d = sigma.shape[0]
    for i in range(d):
        out[i] = v0[i]
    for _ in range(t_steps):
        nrm2 = 0.0
        for i in range(d):
            acc = 0.0
            for j in range(d):
                acc += sigma[i, j] * out[j]
            upd = out[i] + eta * acc
            scratch[i] = upd
            nrm2 += upd * upd
        nrm = np.sqrt(nrm2)
        if nrm < _TINY:
            return -1.0
        for i in range(d):
            out[i] = scratch[i] / nrm
    return 0.0


@_jit
def _nb_batch_rayleigh(y, v, scratch_n):
    n = y.shape[0]
    d = y.shape[1]
    total = 0.0
    for i in range(n):
        acc = 0.0
        for j in range(d):
            acc += y[i, j] * v[j]
        scratch_n[i] = acc
        total += acc * acc
    return total


@_jit
def _nb_deflated_batch_matvec(y, peers, lams, x, scratch_n, out):
    n = y.shape[0]
    d = y.shape[1]
    m = peers.shape[0]
    for i in range(n):
        acc = 0.0
        for j in range(d):
            acc += y[i, j] * x[j]
        scratch_n[i] = acc
    for j in range(d):
        acc = 0.0
        for i in range(n):
            acc += y[i, j] * scratch_n[i]
        out[j] = acc
    for k in range(m):
        dot = 0.0
        for j in range(d):
            dot += peers[k, j] * x[j]
        for j in range(d):
            out[j] -= lams[k] * dot * peers[k, j]


@_jit
def _nb_stoch_hebb_step(y, peers, x, eta, scratch_n, scratch_g, out):
    n = y.shape[0]
    d = y.shape[1]
    m = peers.shape[0]
    for i in range(n):
        acc = 0.0
        for j in range(d):
            acc += y[i, j] * x[j]
        scratch_n[i] = acc
    for j in range(d):
        acc = 0.0
        for i in range(n):
            acc += y[i, j] * scratch_n[i]
        scratch_g[j] = acc
    for k in range(m):
        lam = 0.0
        for i in range(n):
            acc = 0.0
            for j in range(d):
                acc += y[i, j] * peers[k, j]
            scratch_n[i] = acc
            lam += acc * acc
        dot = 0.0
        for j in range(d):
            dot += peers[k, j] * x[j]
        for j in range(d):
            scratch_g[j] -= lam * dot * peers[k, j]
    nrm2 = 0.0
    for j in range(d):
        upd = x[j] + eta * scratch_g[j]
        scratch_g[j] = upd
        nrm2 += upd * upd
    nrm = np.sqrt(nrm2)
    if nrm < _TINY:
        return -1.0
    for j in range(d):
        out[j] = scratch_g[j] / nrm
    return 0.0


@_jit
def _nb_jacobi_eigh(a, v, max_sweeps, off_tol):
    d = a.shape[0]
    for i in range(d):
        for j in range(d):
            v[i, j] = 1.0 if i == j else 0.0
    if d == 1:
        return 0.0
    for sweep in range(max_sweeps):
        off2 = 0.0
        for i in range(d - 1):
            for j in range(i + 1, d):
                off2 += 2.0 * a[i, j] * a[i, j]
        if np.sqrt(off2) <= off_tol:
            return float(sweep)
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                diff = a[q, q] - a[p, p]
                if abs(apq) < 1e-150 * abs(diff):
                    a[p, q] = 0.0
                    a[q, p] = 0.0
                    continue
                tau = diff / (2.0 * apq)
                if abs(tau) > 1e100:
                    t = 0.5 / tau
                elif tau >= 0.0:
                    t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                for i in range(d):
                    aip = a[i, p]
                    aiq = a[i, q]
                    a[i, p] = c * aip - s * aiq
                    a[i, q] = s * aip + c * aiq
                for i in range(d):
                    api = a[p, i]
                    aqi = a[q, i]
                    a[p, i] = c * api - s * aqi
                    a[q, i] = s * api + c * aqi
                a[p, q] = 0.0
                a[q, p] = 0.0
                for i in range(d):
                    vip = v[i, p]
                    viq = v[i, q]
                    v[i, p] = c * vip - s * viq
                    v[i, q] = s * vip + c * viq
    off2 = 0.0
    for i in range(d - 1):
        for j in range(i + 1, d):
            off2 += 2.0 * a[i, j] * a[i, j]
    if np.sqrt(off2) <= off_tol:
        return float(max_sweeps)
    return -1.0


# ---------------------------------------------------------------------------
# backend selection

if USE_NUMBA:
    sym_matvec = _nb_sym_matvec
    power_steps = _nb_power_steps
    hebb_steps = _nb_hebb_steps
    batch_rayleigh_raw = _nb_batch_rayleigh
    deflated_batch_matvec_raw = _nb_deflated_batch_matvec
    stoch_hebb_step = _nb_stoch_hebb_step
    jacobi_eigh_raw = _nb_jacobi_eigh
else:
    sym_matvec = _np_sym_matvec
    power_steps = _np_power_steps
    hebb_steps = _np_hebb_steps
    batch_rayleigh_raw = _np_batch_rayleigh
    deflated_batch_matvec_raw = _np_deflated_batch_matvec
    stoch_hebb_step = _np_stoch_hebb_step
    jacobi_eigh_raw = _np_jacobi_eigh


def warm_up() -> None:
    """Trigger JIT compilation of every selected kernel on tiny inputs."""
    a = np.eye(2)
    x = np.ones(2)
    out_v = np.empty(2)
    out_m = np.empty((2, 2))
    scratch = np.empty(2)
    peers = np.ones((1, 2)) / np.sqrt(2.0)
    lams = np.ones(1)
    y = np.eye(2)
    sym_matvec(a, x, out_v)
    power_steps(a, peers[0], 1, scratch, out_v)
    hebb_steps(a, peers[0], 1, 0.5, scratch, out_v)
    batch_rayleigh_raw(y, x, scratch)
    deflated_batch_matvec_raw(y, peers, lams, x, scratch, out_v)
    stoch_hebb_step(y, peers, peers[0], 0.5, scratch, np.empty(2), out_v)
    work = np.array([[2.0, 1.0], [1.0, 2.0]])
    jacobi_eigh_raw(work, out_m, 30, 1e-13)
