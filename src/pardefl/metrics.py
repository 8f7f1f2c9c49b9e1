"""Evaluation metrics and synthetic problem generation.

`recovery_error` is the sign-invariant RMS distance to the true
eigenvectors; `discounted_rayleigh` is the oracle-free quality score
sum_k v_k^T S v_k / k, computable densely or streamed from raw data rows.
Synthetic covariances are built as Q Lambda Q^T with a Haar-random rotation
so the ground-truth eigensystem is known by construction.
"""

import numpy as np

from .errors import ConfigError
from .linalg import (EigenSystem, as_matrix, check_unit_rows, reference_eigh,
                     sym_matrix)
from .seeding import rng_for
from .stochastic import GaussianStreamProvider


def recovery_error(truth, est) -> float:
    """Root mean square over k of min_s ||u_k - s v_k||^2, s in {+1, -1}."""
    t = np.asarray(truth, dtype=np.float64)
    e = np.asarray(est, dtype=np.float64)
    if t.shape != e.shape or t.ndim != 2:
        raise ConfigError(f"shape mismatch: truth {t.shape} vs estimate {e.shape}")
    check_unit_rows(t, name="truth vector")
    check_unit_rows(e, name="estimate vector")
    diff = np.linalg.norm(t - e, axis=1)
    summ = np.linalg.norm(t + e, axis=1)
    per_k = np.minimum(diff, summ) ** 2
    return float(np.sqrt(np.mean(per_k)))


def discounted_rayleigh(est, sigma=None, data=None) -> float:
    """sum_k (1/k) v_k^T S v_k, with S given densely or as raw data rows.

    Exactly one of `sigma` / `data` must be set. The data path never forms
    S: it evaluates sum_k ||Y v_k||^2 / (n k), i.e. the quadratic form of
    the row-averaged Gram matrix Y^T Y / n, from one product Y V^T.
    """
    e = np.asarray(est, dtype=np.float64)
    if e.ndim != 2:
        raise ConfigError("estimates must be a (K, d) stack")
    check_unit_rows(e, name="estimate vector")
    if (sigma is None) == (data is None):
        raise ConfigError("pass exactly one of sigma= or data=")
    if sigma is not None:
        sm = sym_matrix(sigma)
        if sm.shape[0] != e.shape[1]:
            raise ConfigError(f"dimension mismatch: {sm.shape} vs {e.shape}")
        total = 0.0
        for k in range(e.shape[0]):
            total += float(e[k] @ sm @ e[k]) / (k + 1)
        return total
    y = as_matrix(data, "data matrix")
    if y.shape[1] != e.shape[1]:
        raise ConfigError(f"dimension mismatch: {y.shape} vs {e.shape}")
    proj = y @ e.T
    weights = 1.0 / (y.shape[0] * np.arange(1, e.shape[0] + 1))
    return float(np.einsum("ij,ij->j", proj, proj) @ weights)


def spectrum_powerlaw(dim: int) -> np.ndarray:
    """lambda_k = 1 / sqrt(k), k = 1..d."""
    if dim < 1:
        raise ConfigError(f"dimension must be >= 1, got {dim}")
    return 1.0 / np.sqrt(np.arange(1, dim + 1, dtype=np.float64))


def spectrum_expdecay(dim: int) -> np.ndarray:
    """lambda_k = 1 / 1.1^k, k = 1..d."""
    if dim < 1:
        raise ConfigError(f"dimension must be >= 1, got {dim}")
    return 1.0 / 1.1 ** np.arange(1, dim + 1, dtype=np.float64)


def validate_spectrum(values) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64).reshape(-1)
    if v.size < 1 or np.any(v <= 0.0) or np.any(np.diff(v) > 0.0):
        raise ConfigError("spectrum must be positive and non-increasing")
    return v


def random_covariance(spectrum, seed: int,
                      rotation: str = "haar") -> tuple[np.ndarray, EigenSystem]:
    """Covariance Q diag(spectrum) Q^T with its by-construction eigensystem.

    rotation "haar" draws Q from the orthogonal group (QR of a Gaussian
    matrix with the sign-fixed diagonal); "identity" keeps Q = I, which is
    the diagonal test hook.
    """
    lam = validate_spectrum(spectrum)
    d = lam.size
    if rotation == "identity":
        q = np.eye(d)
    elif rotation == "haar":
        g = rng_for(seed).standard_normal((d, d))
        q, r = np.linalg.qr(g)
        signs = np.sign(np.diag(r))
        signs[signs == 0.0] = 1.0
        q = q * signs[None, :]
    else:
        raise ConfigError(f"unknown rotation mode {rotation!r}")
    sigma = (q * lam[None, :]) @ q.T
    sigma = np.ascontiguousarray((sigma + sigma.T) / 2.0)
    return sigma, EigenSystem(values=lam, vectors=q.T)


def gaussian_stream(sigma_or_truth, batch_size: int,
                    seed: int) -> GaussianStreamProvider:
    """Replayable stream of i.i.d. batches from N(0, Sigma).

    Accepts either a dense PSD matrix (factorized through the reference
    eigensolver) or an already-factored EigenSystem.
    """
    if isinstance(sigma_or_truth, EigenSystem):
        truth = sigma_or_truth
    else:
        truth = reference_eigh(sym_matrix(sigma_or_truth))
    return GaussianStreamProvider(truth.values, truth.vectors, batch_size, seed)
