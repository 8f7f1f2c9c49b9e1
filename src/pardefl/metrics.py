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
from numpy.linalg import _umath_linalg

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
    `data` must be set. The rounds are replayed through a `RayleighScorer`,
    so a stack scores bitwise as its rounds do, one product V S per round,
    or, never forming S, one product Y V^T per round: the quadratic form
    sum_k ||Y v_k||^2 / (n k) of the row-averaged Gram matrix Y^T Y / n.
    A non-unit estimate is named by its position in the stack, counted
    round by round.
    """
    e = np.asarray(est, dtype=np.float64)
    if e.ndim not in (2, 3):
        raise ConfigError("estimates must be a (K, d) or (L, K, d) stack")
    rounds = e if e.ndim == 3 else e[None]
    n_rounds, n_comp, dim = rounds.shape
    check_unit(rounds.reshape(-1, dim), name="estimate vector")
    if (sigma is None) == (data is None):
        raise ConfigError("pass exactly one of sigma= or data=")
    if sigma is not None:
        scorer = RayleighScorer(n_rounds, n_comp, gram=sym_matrix(sigma), n_rows=1)
    else:
        scorer = RayleighScorer(n_rounds, n_comp, data=as_matrix(data, "data matrix"))
    for l, snapshot in enumerate(rounds, 1):
        scorer(l, snapshot)
    return float(scorer.scores[0]) if e.ndim == 2 else scorer.scores


class RayleighScorer:
    """Round sink that keeps each broadcast's discounted Rayleigh score, not
    the broadcast: a run over a data file then holds no per-round vectors.

    Round l's score is sum_k v_k^T (Y^T Y / n) v_k / k. It is formed either
    from `gram` = Y^T Y and the row count `n_rows`, with one product V G
    per round, or from the rows `data` = Y themselves, with one product
    Y V^T per round. Neither G nor Y is checked here beyond its shape: its
    caller checks it once (`sym_matrix`, `load_matrix`, `as_matrix`). A
    broadcast of another shape than (n_workers, d) is a ConfigError.
    """

    def __init__(self, n_rounds: int, n_workers: int, *, gram=None,
                 n_rows: int | None = None, data=None):
        if (gram is None) == (data is None):
            raise ConfigError("pass exactly one of gram= or data=")
        self._gram, self._data = gram, data
        if data is not None:
            n_rows, dim = data.shape
        else:
            shape = np.shape(gram)
            if len(shape) != 2 or shape[0] != shape[1]:
                raise ConfigError(f"gram must be a square matrix, got shape {shape}")
            dim = shape[0]
        self._shape = (n_workers, dim)
        self._weights = 1.0 / (n_rows * np.arange(1, n_workers + 1))
        self.scores = np.empty(n_rounds)

    def __call__(self, rnd: int, snapshot: np.ndarray) -> None:
        if snapshot.shape != self._shape:
            raise ConfigError(f"dimension mismatch: broadcast {snapshot.shape}, "
                              f"scorer {self._shape}")
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
    the diagonal test hook.

    The QR runs as the two LAPACK gufuncs `np.linalg.qr` itself calls:
    `qr_r_raw` factors the drawn matrix in place and `qr_reduced` forms Q
    from it. That skips `np.linalg.qr`'s copy of its input and its triu R;
    R's diagonal, which fixes the signs, is read from the factored matrix
    before it is freed. Signs are flipped in place, Sigma is symmetrized
    into the buffer of Q Lambda, and Q is dropped once the eigensystem
    holds its own copy, so the call holds at most three d x d arrays at a
    time. The gufuncs are private to numpy: a numpy that changes them fails
    tests/test_metrics.py::TestRandomCovariance::
    test_bitwise_equal_to_the_plain_formula, which compares Sigma and the
    truth bit for bit with the `np.linalg.qr` construction.
    """
    lam = validate_spectrum(spectrum)
    d = lam.size
    if rotation == "identity":
        q = np.eye(d)
    elif rotation == "haar":
        a = rng_for(seed).standard_normal((d, d))
        # like np.linalg.qr, ignore the flags LAPACK may raise; where qr
        # would raise on a failed factorization, the NaN that leaves in Q
        # is rejected by EigenSystem
        with np.errstate(all="ignore"):
            tau = _umath_linalg.qr_r_raw(a, signature="d->d")
            q = _umath_linalg.qr_reduced(a, tau, signature="dd->d")
        signs = np.sign(np.diagonal(a))  # R's diagonal, left in a
        del a
        signs[signs == 0.0] = 1.0
        q *= signs[None, :]
    else:
        raise ConfigError(f"unknown rotation mode {rotation!r}")
    sigma = q * lam[None, :]  # Q Lambda, whose buffer then takes Sigma
    product = sigma @ q.T
    np.add(product, product.T, out=sigma)
    del product
    sigma /= 2.0
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
        truth = reference_eigh(sigma_or_truth)
    return GaussianStreamProvider(truth.values, truth.vectors, batch_size, seed)
