"""Player utilities of the eigenvector games and an empirical equilibrium check.

Player k's payoff depends only on the vectors of players 1..k-1. At the
true eigenbasis each payoff strictly decreases under any perturbation of
the player's own vector, which `nash_check` probes statistically with
exponential-map samples around each candidate. It checks its arguments once
and scores every sample with the unchecked `_utility_V`, computing each
peer's Rayleigh quotient once per player.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateSpectrumError, NumericalError
from .linalg import _eigh, as_int, as_vector, check_unit, peer_stack, sym_matrix
from .seeding import rng_for

_MIN_ANGLE = 1e-6
_STRICT_RTOL = 1e-12


def player_operands(sigma, v, peers, unit_peers: bool = False):
    """Checked (Sigma, v, peer stack) of one player's payoff or gradient; the
    stack comes from `linalg.peer_stack`, unit norm with `unit_peers`."""
    sm = sym_matrix(sigma)
    vv = as_vector(v)
    d = sm.shape[0]
    if vv.shape[0] != d:
        raise ConfigError(f"dimension mismatch: {sm.shape} vs {vv.shape}")
    return sm, vv, peer_stack(peers, d, unit=unit_peers)


def utility_U(v, peers, sigma) -> float:
    """Rayleigh payoff with squared-alignment penalties normalized by the
    peers' Rayleigh quotients:

        U = v^T S v - sum_j (p_j^T S v)^2 / (p_j^T S p_j)
    """
    sm, vv, pe = player_operands(sigma, v, peers)
    check_unit(vv)
    sv = sm @ vv
    total = float(vv @ sv)
    for j in range(pe.shape[0]):
        rq = float(pe[j] @ sm @ pe[j])
        if rq <= 1e-12:
            raise NumericalError(f"peer {j + 1} has vanishing Rayleigh quotient {rq!r}")
        total -= float(pe[j] @ sv) ** 2 / rq
    return total


def _utility_V(sm, vv, pe, rq) -> float:
    """`utility_V` on checked operands, given the peers' Rayleigh quotients."""
    sv = sm @ vv
    total = float(vv @ sv)
    for p, r in zip(pe, rq):
        total -= r * float(p @ vv) ** 2
    return total


def utility_V(v, peers, sigma) -> float:
    """Deflation payoff

        V = v^T S v - sum_j (p_j^T S p_j) (p_j^T v)^2,

    identically v^T (deflated S) v for unit peers.
    """
    sm, vv, pe = player_operands(sigma, v, peers, unit_peers=True)
    check_unit(vv)
    return _utility_V(sm, vv, pe, [float(p @ sm @ p) for p in pe])


@dataclass(frozen=True)
class UtilityReport:
    """Perturbation audit of one player's payoff around its candidate vector."""

    k: int
    value_at_candidate: float
    max_perturbed_value: float
    n_samples: int
    radius: float

    def __post_init__(self):
        as_int(self.n_samples, "n_samples", 1)
        if not self.radius > 0.0:
            raise ConfigError("perturbation radius must be positive")

    @property
    def strict(self) -> bool:
        """True when every sampled perturbation (angle >= 1e-6) strictly
        lowers the payoff, with a 1e-12 relative guard against float ties."""
        margin = _STRICT_RTOL * abs(self.value_at_candidate)
        return self.value_at_candidate - self.max_perturbed_value >= margin


def nash_check(sigma, candidates, n_samples: int, radius: float,
               seed: int) -> list[UtilityReport]:
    """Probe strict optimality of each player's payoff at its candidate.

    For each k, holds players 1..k-1 fixed at their candidates and evaluates
    the deflation payoff at n_samples points sampled on the sphere at
    geodesic angles in [1e-6, radius] from candidate k (tangent Gaussian
    direction, exponential map). Requires the leading eigenvalues of sigma
    to be positive and strictly decreasing.
    """
    sm = sym_matrix(sigma)
    d = sm.shape[0]
    if d < 2:
        raise ConfigError("perturbation sampling needs dimension >= 2")
    cand = np.ascontiguousarray(candidates, dtype=np.float64)
    if cand.ndim != 2 or cand.shape[1] != d:
        raise ConfigError(f"candidates must be (K, d) with d = {d}")
    n_samples = as_int(n_samples, "n_samples", 1)
    if not _MIN_ANGLE < radius < np.inf:
        raise ConfigError(f"radius must be finite and exceed {_MIN_ANGLE}, got {radius!r}")

    lead = _eigh(sm)[0][: cand.shape[0] + 1]
    scale = max(float(np.max(np.abs(lead))), 1e-300)
    if float(lead[-1]) <= 0.0 or np.any(np.diff(lead) >= -1e-8 * scale):
        raise DegenerateSpectrumError(
            "leading eigenvalues must be positive and strictly decreasing")
    check_unit(cand, name="candidate")

    reports = []
    for k in range(1, cand.shape[0] + 1):
        v, peers = cand[k - 1], cand[: k - 1]
        rq = [float(p @ sm @ p) for p in peers]
        base = _utility_V(sm, v, peers, rq)
        rng = rng_for(seed, k)
        best = -np.inf
        for _ in range(n_samples):
            nrm = 0.0
            while nrm < 1e-12:  # redraw a direction (numerically) parallel to v
                w = rng.standard_normal(d)
                w -= float(w @ v) * v
                nrm = float(np.linalg.norm(w))
            w /= nrm
            theta = _MIN_ANGLE + (radius - _MIN_ANGLE) * rng.random()
            perturbed = np.cos(theta) * v + np.sin(theta) * w
            perturbed /= float(np.sqrt(perturbed @ perturbed))
            best = max(best, _utility_V(sm, perturbed, peers, rq))
        reports.append(UtilityReport(k=k, value_at_candidate=base,
                                     max_perturbed_value=best,
                                     n_samples=n_samples, radius=radius))
    return reports
