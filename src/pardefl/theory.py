"""Convergence-schedule arithmetic and empirical checks against run traces.

The round-synchronous deflation run admits a nearly-linear convergence
envelope: once worker k's linear phase starts at round s_k, its recovery
error is bounded by 6 (l - s_k + 2) m_k^(l - s_k + 1). The per-worker rates
m_k follow a cascade recursion over the local solver's contraction factors,
and the start rounds s_k are spaced by Lambert-W expressions in the rates
and the spectrum gaps. This module computes all of those quantities and
audits them against recorded traces, along with the perturbation bounds the
analysis rests on and the quadratic communication-cost model.
"""

import math
from dataclasses import dataclass

import numpy as np

from .deflation import _deflate
from .engine import RunTrace
from .errors import (ConfigError, CoverageError, DegenerateSpectrumError,
                     NumericalError)
from .io import atomic_write_text
from .linalg import EigenSystem, _eigh, peer_stack, reference_eigh, sym_matrix
from .solvers import contraction_estimate

_INV_E = math.exp(-1.0)


def lambert_w_m1(x: float) -> float:
    """Lower branch W_{-1} of the inverse of w e^w, for x in [-1/e, 0).

    Halley iteration from the asymptotic guess log(-x) - log(-log(-x)),
    with a bisection fallback; the residual |w e^w - x| is driven below
    1e-12 * max(|x|, 1e-300).
    """
    x = float(x)
    if not -_INV_E - 1e-12 <= x < 0.0:
        raise NumericalError(f"W_-1 domain is [-1/e, 0), got {x!r}")
    x = max(x, -_INV_E)
    if x <= -_INV_E + 1e-13:
        return -1.0
    tol = 1e-12 * max(abs(x), 1e-300)
    w = math.log(-x) - math.log(-math.log(-x))
    w = min(w, -1.0 - 1e-9)
    for _ in range(100):
        ew = math.exp(w)
        f = w * ew - x
        if abs(f) <= 0.25 * tol:
            return w
        wp1 = w + 1.0
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        step = f / denom
        w_next = w - step
        if w_next >= -1.0:
            w_next = 0.5 * (w - 1.0)
        w = w_next
    # Halley stalled (can only happen extremely close to the branch point):
    # seal with bisection on the decreasing flank w <= -1.
    lo, hi = w, -1.0
    while lo * math.exp(lo) - x < 0.0:
        lo *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(mid) - x >= 0.0:
            lo = mid
        else:
            hi = mid
    w = 0.5 * (lo + hi)
    if abs(w * math.exp(w) - x) > tol:
        raise NumericalError(f"W_-1 evaluation failed to converge for x = {x!r}")
    return w


def w_cap(a: float) -> float:
    """-W_{-1}(-a) for a in (0, 1/e); exactly 1 once a reaches 1/e.

    Equivalently the larger root of t e^{-t} = a, capped at 1 when that
    equation has no root >= 1.
    """
    a = float(a)
    if not a > 0.0:
        raise NumericalError(f"argument must be positive, got {a!r}")
    if a >= _INV_E:
        return 1.0
    return -lambert_w_m1(-a)


def cascade_rates(factors) -> np.ndarray:
    """Per-worker convergence rates from the solver contraction factors:

        m_1 = F_1,   m_{k+1} = max(F_{k+1}, 1/(k+1) + k/(k+1) * m_k).

    All inputs must lie in (0, 1); the recursion then keeps every rate
    below 1.
    """
    f = np.asarray(factors, dtype=np.float64).reshape(-1)
    if f.size < 1:
        raise ConfigError("need at least one contraction factor")
    if np.any(f <= 0.0) or np.any(f >= 1.0):
        raise ConfigError("contraction factors must lie strictly inside (0, 1)")
    m = np.empty_like(f)
    m[0] = f[0]
    for i in range(1, f.size):
        k = i + 1
        m[i] = max(f[i], 1.0 / k + (k - 1) / k * m[i - 1])
    return m


def phase_start_rounds(rates, spectrum, c0: float = 3.0) -> np.ndarray:
    """Start rounds of the linear convergence phase, one per worker.

    s_1 = 1 and, writing L(m) = log(1/m),

        s_{k+1} = ceil( max_{k' <= k} [
            max( w_cap(m_k L(m_k)) / L(m_k), (k m_k + 1)/(1 - m_k) )
            + w_cap( (lam_{k+1} - lam_{k+2}) / (12 k lam_{k'}) * L(m_k)^2 )
              / L(m_{k'})
            + s_{k'} ] ).

    The spectrum must be strictly decreasing, positive, and normalized to a
    unit top eigenvalue; it needs at least K+1 entries for K workers. The
    last worker's own rate only enters its error envelope, never a start
    round. c0 is carried for reporting; the printed constant 12k is used
    as is.
    """
    m = np.asarray(rates, dtype=np.float64).reshape(-1)
    lam = np.asarray(spectrum, dtype=np.float64).reshape(-1)
    n_workers = m.size
    if n_workers < 1:
        raise ConfigError("need at least one rate")
    if np.any(m <= 0.0) or np.any(m >= 1.0):
        raise ConfigError("rates must lie strictly inside (0, 1)")
    if lam.size < n_workers + 1:
        raise DegenerateSpectrumError(
            f"need at least K+1 = {n_workers + 1} spectrum entries, got {lam.size}")
    if abs(lam[0] - 1.0) > 1e-12:
        raise DegenerateSpectrumError(
            f"spectrum must be normalized to lambda_1 = 1, got {lam[0]!r}")
    if np.any(lam <= 0.0) or np.any(np.diff(lam) >= 0.0):
        raise DegenerateSpectrumError(
            "spectrum must be strictly decreasing and positive")
    if not c0 > 1.0:
        raise ConfigError(f"c0 must exceed 1, got {c0!r}")

    s = np.ones(n_workers, dtype=np.int64)
    for k in range(1, n_workers):   # each pass fixes s_{k+1} from workers <= k
        mk = m[k - 1]
        log_mk = math.log(1.0 / mk)
        head = max(w_cap(mk * log_mk) / log_mk, (k * mk + 1.0) / (1.0 - mk))
        gap = lam[k] - lam[k + 1]
        best = -math.inf
        for j in range(k):          # k' = j + 1
            a = gap / (12.0 * k * lam[j]) * log_mk ** 2
            tail = w_cap(a) / math.log(1.0 / m[j]) + s[j]
            best = max(best, head + tail)
        s[k] = int(math.ceil(best))
    return s


@dataclass(frozen=True)
class ConvergenceSchedule:
    """Rates and phase-start rounds {F_k, m_k, s_k} plus the bound constant."""

    F: np.ndarray
    m: np.ndarray
    s: np.ndarray
    c0: float = 3.0

    def __post_init__(self):
        F = np.asarray(self.F, dtype=np.float64).reshape(-1)
        m = np.asarray(self.m, dtype=np.float64).reshape(-1)
        s = np.asarray(self.s, dtype=np.int64).reshape(-1)
        if not (F.size == m.size == s.size >= 1):
            raise ConfigError("F, m, s must have one entry per worker")
        if np.any(m >= 1.0) or np.any(m <= 0.0):
            raise ConfigError("rates m must lie strictly inside (0, 1)")
        if s[0] != 1 or np.any(np.diff(s) < 0):
            raise ConfigError("start rounds must be non-decreasing with s_1 = 1")
        for a in (F, m, s):
            a.setflags(write=False)
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "s", s)

    @property
    def n_workers(self) -> int:
        return self.F.size

    def bound(self, k: int, rnd: int) -> float:
        """Envelope 6 (l - s_k + 2) m_k^(l - s_k + 1) at round l for worker k."""
        j = rnd - int(self.s[k - 1]) + 1
        if j < 0:
            raise ConfigError(f"round {rnd} precedes s_{k} - 1")
        return 6.0 * (j + 1) * float(self.m[k - 1]) ** j


def schedule_for_run(sigma, truth: EigenSystem, n_components: int,
                     local_steps: int, c0: float = 3.0) -> ConvergenceSchedule:
    """Build the schedule for a power-iteration run on a known covariance.

    F_k is the contraction of the local solver on the ideal k-th deflated
    matrix: the top-two eigenvalue-magnitude ratio raised to the number of
    local steps. The spectrum is rescaled to a unit top eigenvalue before
    the start-round arithmetic (recovery errors are scale invariant, so the
    trace needs no rescaling).
    """
    sm = sym_matrix(sigma)
    if not 1 <= n_components <= sm.shape[0] - 1:
        raise ConfigError(
            f"K must lie in [1, d-1] for schedule gaps, got {n_components}")
    if local_steps < 1:
        raise ConfigError(f"local step count must be >= 1, got {local_steps}")
    peers = peer_stack(truth.top(n_components - 1), sm.shape[0], unit=True)
    factors = np.empty(n_components)
    for k in range(1, n_components + 1):
        single = contraction_estimate(_deflate(sm, peers[: k - 1])).F
        factors[k - 1] = float(np.clip(single ** local_steps, 1e-12, 1.0 - 1e-12))
    m = cascade_rates(factors)
    scale = float(truth.values[0])
    if scale <= 0.0:
        raise DegenerateSpectrumError("top eigenvalue must be positive")
    lam = truth.values[: n_components + 2] / scale
    s = phase_start_rounds(m, lam[: n_components + 1], c0)
    return ConvergenceSchedule(F=factors, m=m, s=s, c0=c0)


@dataclass(frozen=True)
class BoundReport:
    """Row-wise audit of trace errors against the convergence envelope."""

    worker: np.ndarray
    rnd: np.ndarray
    error: np.ndarray
    bound: np.ndarray
    ok: np.ndarray

    @property
    def n_rows(self) -> int:
        return self.worker.size

    @property
    def n_violations(self) -> int:
        return int(np.sum(~self.ok))

    @property
    def all_satisfied(self) -> bool:
        return self.n_violations == 0


def check_bound(trace: RunTrace, schedule: ConvergenceSchedule,
                atol: float = 1e-12) -> BoundReport:
    """Evaluate the envelope at every (worker k, round l >= s_k - 1).

    The envelope is an exact-arithmetic statement; `atol` absorbs the
    floating error floor of a converged run (recovery errors bottom out
    near 1e-14 while the envelope keeps shrinking geometrically). Rounds
    before the first recorded one (only l = 0, where the envelope is a
    trivial 6 against errors <= 2) are not stored in traces and are skipped.
    """
    if trace.errors is None:
        raise ConfigError("trace has no oracle errors attached")
    if not trace.oracle_reliable:
        raise DegenerateSpectrumError(
            "oracle spectrum has (near-)repeated leading eigenvalues; "
            "per-worker errors are not meaningful")
    if schedule.n_workers != trace.n_workers:
        raise ConfigError(
            f"schedule covers {schedule.n_workers} workers, trace has {trace.n_workers}")
    s_max = int(schedule.s[-1])
    if trace.n_rounds < s_max:
        raise CoverageError(
            f"trace has {trace.n_rounds} rounds but the schedule needs at "
            f"least L = {s_max}")
    workers, rounds, errors, bounds = [], [], [], []
    for k in range(1, schedule.n_workers + 1):
        start = max(int(schedule.s[k - 1]) - 1, 1)
        for rnd in range(start, trace.n_rounds + 1):
            workers.append(k)
            rounds.append(rnd)
            errors.append(float(trace.errors[rnd - 1, k - 1]))
            bounds.append(schedule.bound(k, rnd))
    worker = np.asarray(workers, dtype=np.int64)
    rnd = np.asarray(rounds, dtype=np.int64)
    error = np.asarray(errors)
    bound = np.asarray(bounds)
    ok = error <= bound + atol
    return BoundReport(worker=worker, rnd=rnd, error=error, bound=bound, ok=ok)


def davis_kahan_gap_bound(mstar, h) -> tuple[float, float]:
    """Sine of the top-eigenvector rotation under a symmetric perturbation,
    next to its bound ||H||_2 / min_j |lam_1(M*) - lam_j(M* + H)| over the
    non-leading eigenvalues of the perturbed matrix.
    """
    ms = sym_matrix(mstar)
    hm = sym_matrix(h)
    if ms.shape != hm.shape:
        raise ConfigError(f"shape mismatch: {ms.shape} vs {hm.shape}")
    if ms.shape[0] < 2:
        raise ConfigError("need dimension >= 2")
    es_star = EigenSystem(*_eigh(ms))
    scale = max(float(np.max(np.abs(es_star.values))), 1e-300)
    if es_star.values[0] - es_star.values[1] <= 1e-12 * scale:
        raise DegenerateSpectrumError("top eigenvalue of the base matrix is not simple")
    es_pert = reference_eigh(ms + hm)
    dot = float(np.clip(abs(es_star.vectors[0] @ es_pert.vectors[0]), 0.0, 1.0))
    lhs = math.sqrt(max(1.0 - dot * dot, 0.0))
    h_norm = float(np.max(np.abs(_eigh(hm)[0])))
    seps = np.abs(es_star.values[0] - es_pert.values[1:])
    denom = float(np.min(seps))
    rhs = math.inf if denom < 1e-300 else h_norm / denom
    return lhs, rhs


def deflation_perturbation_bound(spectrum, peer_errors,
                                 c0: float = 3.0) -> tuple[float, bool]:
    """Bound on how far inexact peers tilt the deflated matrix's top
    eigenvector, with the hypothesis flag it is valid under.

    Returns (4 c0 / (lam_k - lam_{k+1}) * sum_j lam_j err_j, hypothesis),
    where the hypothesis is sum_j lam_j err_j <= (c0-1)/(4 c0) (lam_k -
    lam_{k+1}) and k - 1 = len(peer_errors). Needs a unit top eigenvalue.
    """
    lam = np.asarray(spectrum, dtype=np.float64).reshape(-1)
    err = np.asarray(peer_errors, dtype=np.float64).reshape(-1)
    k = err.size + 1
    if lam.size < k + 1:
        raise DegenerateSpectrumError(
            f"need at least {k + 1} spectrum entries, got {lam.size}")
    if abs(lam[0] - 1.0) > 1e-12:
        raise DegenerateSpectrumError(
            f"spectrum must be normalized to lambda_1 = 1, got {lam[0]!r}")
    if np.any(err < 0.0):
        raise ConfigError("peer errors must be non-negative")
    if not c0 > 1.0:
        raise ConfigError(f"c0 must exceed 1, got {c0!r}")
    gap = float(lam[k - 1] - lam[k])
    if gap <= 1e-300:
        raise DegenerateSpectrumError(f"gap lam_{k} - lam_{k + 1} is not positive")
    weighted = float(np.sum(lam[: k - 1] * err))
    bound = 4.0 * c0 / gap * weighted
    hypothesis = weighted <= (c0 - 1.0) / (4.0 * c0) * gap
    return bound, hypothesis


def poly_geometric_threshold(m: float, eps: float) -> float:
    """Smallest x (per the Lambert-W rule) with m^x (x + 1) <= eps.

    The product m^x (x+1) peaks at -1/(e m log m); any eps at or above that
    is met by every x >= 0, otherwise the threshold is
    W_{-1}(eps m log m) / log m - 1.
    """
    if not 0.0 < m < 1.0:
        raise NumericalError(f"decay base must lie in (0, 1), got {m!r}")
    if not eps > 0.0:
        raise NumericalError(f"target must be positive, got {eps!r}")
    log_m = math.log(m)
    peak = -1.0 / (math.e * m * log_m)
    if eps >= peak:
        return 0.0
    arg = max(eps * m * log_m, -_INV_E)
    return lambert_w_m1(arg) / log_m - 1.0


def communication_cost(n_workers: int, c_comm: float, dim: int) -> float:
    """Per-iteration broadcast cost K (K - 1) / 2 * C_comm * d."""
    if n_workers < 1:
        raise ConfigError(f"need at least one worker, got {n_workers}")
    return 0.5 * n_workers * (n_workers - 1) * c_comm * dim


def schedule_to_csv(schedule: ConvergenceSchedule, path) -> None:
    lines = ["k,F,m,s"]
    for i in range(schedule.n_workers):
        lines.append(f"{i + 1},{float(schedule.F[i])!r},{float(schedule.m[i])!r},{int(schedule.s[i])}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def bound_report_to_csv(report: BoundReport, path) -> None:
    lines = ["k,round,error,bound,ok"]
    for i in range(report.n_rows):
        lines.append(f"{int(report.worker[i])},{int(report.rnd[i])},"
                     f"{float(report.error[i])!r},{float(report.bound[i])!r},{int(report.ok[i])}")
    atomic_write_text(path, "\n".join(lines) + "\n")
