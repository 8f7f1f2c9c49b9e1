"""Evaluation metrics and synthetic problem generation.

`recovery_error` is the sign-invariant RMS distance to the true
eigenvectors; `discounted_rayleigh` is the oracle-free quality score
sum_k v_k^T S v_k / k, computable densely or streamed from raw data rows,
for one (K, d) stack or for all L rounds of a trace at once, and
`RayleighScorer` is the same score as a round sink, kept as a run goes.
Synthetic covariances are built as Q Lambda Q^T with a Haar-random rotation
so the ground-truth eigensystem is known by construction.
"""

import numpy as np

from .errors import ConfigError
from .linalg import EigenSystem, as_matrix, check_unit, reference_eigh, sym_matrix
from .seeding import rng_for
from .stochastic import GaussianStreamProvider


def recovery_error(truth, est) -> float:
    """Root mean square over k of min_s ||u_k - s v_k||^2, s in {+1, -1}."""
    t = np.asarray(truth, dtype=np.float64)
    e = np.asarray(est, dtype=np.float64)
    if t.shape != e.shape or t.ndim != 2:
        raise ConfigError(f"shape mismatch: truth {t.shape} vs estimate {e.shape}")
    check_unit(t, name="truth vector")
    check_unit(e, name="estimate vector")
    diff = np.linalg.norm(t - e, axis=1)
    summ = np.linalg.norm(t + e, axis=1)
    per_k = np.minimum(diff, summ) ** 2
    return float(np.sqrt(np.mean(per_k)))


def discounted_rayleigh(est, sigma=None, data=None):
    """sum_k (1/k) v_k^T S v_k, with S given densely or as raw data rows.

    `est` is a (K, d) stack, scored as one float, or an (L, K, d) stack of
    L rounds, scored as an (L,) array in one call. Exactly one of `sigma` /
    `data` must be set. The sigma path scores every round from one product
    V S. The data path never forms S: per round it evaluates
    sum_k ||Y v_k||^2 / (n k), i.e. the quadratic form of the row-averaged
    Gram matrix Y^T Y / n, from one product Y V^T; Y is validated once.
    A non-unit estimate is named by its position in the stack, counted
    round by round.
    """
    e = np.asarray(est, dtype=np.float64)
    if e.ndim not in (2, 3):
        raise ConfigError("estimates must be a (K, d) or (L, K, d) stack")
    rounds = e if e.ndim == 3 else e[None]
    n_rounds, n_comp, dim = rounds.shape
    flat = rounds.reshape(-1, dim)
    check_unit(flat, name="estimate vector")
    if (sigma is None) == (data is None):
        raise ConfigError("pass exactly one of sigma= or data=")
    if sigma is not None:
        sm = sym_matrix(sigma)
        if sm.shape[0] != dim:
            raise ConfigError(f"dimension mismatch: {sm.shape} vs {e.shape}")
        v_sigma = (flat @ sm).reshape(rounds.shape)
        scores = np.einsum("lkd,lkd->lk", v_sigma, rounds) @ (
            1.0 / np.arange(1, n_comp + 1))
    else:
        y = as_matrix(data, "data matrix")
        if y.shape[1] != dim:
            raise ConfigError(f"dimension mismatch: {y.shape} vs {e.shape}")
        scorer = RayleighScorer(n_rounds, n_comp, data=y)
        for l in range(n_rounds):
            scorer(l + 1, rounds[l])
        scores = scorer.scores
    return float(scores[0]) if e.ndim == 2 else scores


class RayleighScorer:
    """Round sink that keeps each broadcast's discounted Rayleigh score, not
    the broadcast: a run over a data file then holds no per-round vectors.

    Round l's score is sum_k v_k^T (Y^T Y / n) v_k / k. It is formed either
    from `gram` = Y^T Y and the row count `n_rows`, with one product V G
    per round, or from the rows `data` = Y themselves, with one product
    Y V^T per round, as `discounted_rayleigh`'s data path does. Y is not
    checked here: its caller checks it once (`load_matrix`, `as_matrix`).
    """

    def __init__(self, n_rounds: int, n_workers: int, *, gram=None,
                 n_rows: int | None = None, data=None):
        if (gram is None) == (data is None):
            raise ConfigError("pass exactly one of gram= or data=")
        self._gram, self._data = gram, data
        if data is not None:
            n_rows = data.shape[0]
        self._weights = 1.0 / (n_rows * np.arange(1, n_workers + 1))
        self.scores = np.empty(n_rounds)

    def __call__(self, rnd: int, snapshot: np.ndarray) -> None:
        if self._gram is None:
            proj = self._data @ snapshot.T
            squares = np.einsum("ij,ij->j", proj, proj)
        else:
            squares = np.einsum("kd,kd->k", snapshot @ self._gram, snapshot)
        self.scores[rnd - 1] = squares @ self._weights

    def finish(self, final: np.ndarray) -> dict:
        """The `RunTrace` fields this sink fills."""
        self.scores.setflags(write=False)
        return {"final_vectors": final, "scores": self.scores}


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
    the diagonal test hook. Signs are flipped in place and Sigma is
    symmetrized into the buffer of Q Lambda once the product is formed, so
    the call holds at most a few d x d arrays at a time.
    """
    lam = validate_spectrum(spectrum)
    d = lam.size
    if rotation == "identity":
        q = np.eye(d)
    elif rotation == "haar":
        q, r = np.linalg.qr(rng_for(seed).standard_normal((d, d)))
        signs = np.sign(np.diag(r))
        del r
        signs[signs == 0.0] = 1.0
        q *= signs[None, :]
    else:
        raise ConfigError(f"unknown rotation mode {rotation!r}")
    sigma = q * lam[None, :]  # Q Lambda, whose buffer then takes Sigma
    product = sigma @ q.T
    np.add(product, product.T, out=sigma)
    del product
    sigma /= 2.0
    return np.ascontiguousarray(sigma), EigenSystem(values=lam, vectors=q.T)


def gaussian_stream(sigma_or_truth, batch_size: int,
                    seed: int) -> GaussianStreamProvider:
    """Replayable stream of i.i.d. batches from N(0, Sigma).

    Accepts either a dense PSD matrix (factorized through the reference
    eigensolver) or an already-factored EigenSystem.
    """
    if isinstance(sigma_or_truth, EigenSystem):
        truth = sigma_or_truth
    else:
        truth = reference_eigh(sigma_or_truth)
    return GaussianStreamProvider(truth.values, truth.vectors, batch_size, seed)
