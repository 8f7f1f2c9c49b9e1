"""Dense vector/matrix primitives and the reference eigensolver.

The reference solver is LAPACK `eigh`. It is independent of every iterative
path in the package, so it serves as the ground-truth oracle in tests and
validation runs.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConfigError, NumericalError

DEFAULT_MATRIX_CAP_BYTES = 2 << 30

_SYM_RTOL = 1e-12
_ORTHO_TOL = 1e-8


def as_vector(x, name: str = "vector") -> np.ndarray:
    v = np.ascontiguousarray(x, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise ConfigError(f"{name} must be a 1-d array with at least one entry")
    if not np.all(np.isfinite(v)):
        raise ConfigError(f"{name} has non-finite entries")
    return v


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    m = np.ascontiguousarray(a, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ConfigError(f"{name} must be a 2-d array with positive shape")
    if not np.all(np.isfinite(m)):
        raise ConfigError(f"{name} has non-finite entries")
    return m


def check_unit(v: np.ndarray, tol: float = 1e-6, name: str = "vector") -> None:
    """Unit norm within `tol` of a vector, or of every row of an (m, d) stack.

    A non-finite norm fails too. For a stack the error names the first
    offending row as "<name> <i>", 1-based.
    """
    norms = np.sqrt(np.einsum("...j,...j->...", v, v)).reshape(-1)
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= tol))
    if bad.size:
        i = int(bad[0])
        where = f"{name} {i + 1}" if v.ndim == 2 else name
        raise ConfigError(f"{where} must be unit norm, got ||v|| = {float(norms[i])!r}")


def peer_stack(peers, d: int, name: str = "peer vector", unit: bool = False) -> np.ndarray:
    """Checked (m, d) float64 stack of peer vectors, (0, d) when empty; one
    vector of length d is a stack of one. Every row must be finite, and with
    `unit` unit norm; errors name the first offending row, 1-based.
    """
    p = np.atleast_2d(np.ascontiguousarray(peers, dtype=np.float64))
    if p.size == 0:
        return np.zeros((0, d))
    if p.ndim != 2 or p.shape[1] != d:
        raise ConfigError(f"{name}s must be an (m, {d}) stack, got shape {p.shape}")
    finite = np.isfinite(p).all(axis=1)
    if not finite.all():
        raise ConfigError(f"{name} {int(np.argmin(finite)) + 1} has non-finite entries")
    if unit:
        check_unit(p, name=name)
    return p


def sym_matrix(entries) -> np.ndarray:
    """Validate a square matrix as symmetric and return its symmetrized copy.

    Symmetry within 1e-12 relative tolerance is required; the result is
    (A + A^T)/2 so later consumers can rely on exact symmetry.
    """
    a = as_matrix(entries)
    if a.shape[0] != a.shape[1]:
        raise ConfigError(f"expected a square matrix, got shape {a.shape}")
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    skew = float(np.max(np.abs(a - a.T)))
    if skew > _SYM_RTOL * max(scale, 1e-300):
        raise ConfigError(
            f"matrix is not symmetric: max |A - A^T| = {skew!r} at scale {scale!r}")
    return np.ascontiguousarray((a + a.T) / 2.0)


def covariance(y, max_bytes: int = DEFAULT_MATRIX_CAP_BYTES) -> np.ndarray:
    """Gram matrix Y^T Y of a data matrix; symmetric positive semidefinite."""
    ym = as_matrix(y, "data matrix")
    d = ym.shape[1]
    if d * d * 8 > max_bytes:
        raise CapacityError(
            f"covariance of dimension {d} needs {d * d * 8} bytes, cap is {max_bytes}")
    c = ym.T @ ym
    return np.ascontiguousarray((c + c.T) / 2.0)


def matvec(a, x) -> np.ndarray:
    """Dense matrix-vector product A x of checked, finite operands."""
    am = as_matrix(a)
    xv = as_vector(x)
    if am.shape[1] != xv.shape[0]:
        raise ConfigError(f"dimension mismatch: {am.shape} @ {xv.shape}")
    return am @ xv


def normalize(v) -> np.ndarray:
    """Rescale to unit Euclidean norm; norms below 1e-300 are degenerate."""
    vv = as_vector(v)
    nrm = float(np.sqrt(vv @ vv))
    if nrm < 1e-300:
        raise NumericalError("cannot normalize a (near-)zero vector")
    return vv / nrm


def sign_align(v, ref) -> np.ndarray:
    """Return v or -v so that the inner product with ref is non-negative.

    An exactly zero inner product keeps v unchanged.
    """
    vv = as_vector(v)
    rr = as_vector(ref, "reference")
    if vv.shape != rr.shape:
        raise ConfigError(f"dimension mismatch: {vv.shape} vs {rr.shape}")
    return -vv if float(vv @ rr) < 0.0 else vv


def _canonical_sign(rows: np.ndarray) -> np.ndarray:
    out = rows.copy()
    for i in range(out.shape[0]):
        j = int(np.argmax(np.abs(out[i])))
        if out[i, j] < 0.0:
            out[i] = -out[i]
    return out


@dataclass(frozen=True)
class EigenSystem:
    """Full eigendecomposition: values non-increasing, rows of `vectors` are
    the unit eigenvectors, sign-normalized so the largest-magnitude entry of
    each vector is non-negative (ties broken by lowest index)."""

    values: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        # as_vector may return the caller's own array; freeze a copy of it
        values = as_vector(self.values, "eigenvalues").copy()
        vectors = as_matrix(self.vectors, "eigenvector matrix")
        if vectors.shape[0] != values.shape[0]:
            raise ConfigError("eigensystem shape mismatch")
        vectors = _canonical_sign(vectors)
        if np.any(np.diff(values) > 0.0):
            raise ConfigError("eigenvalues must be non-increasing")
        gram = vectors @ vectors.T
        if float(np.max(np.abs(gram - np.eye(vectors.shape[0])))) > _ORTHO_TOL:
            raise NumericalError("eigenvectors are not orthonormal to 1e-8")
        values.setflags(write=False)
        vectors.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "vectors", vectors)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def top(self, k: int) -> np.ndarray:
        return self.vectors[:k]


def _eigh(sm: np.ndarray):
    """Unchecked LAPACK eigh: (values, row vectors), values non-increasing."""
    try:
        vals, vecs = np.linalg.eigh(sm)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"LAPACK eigh failed: {exc}") from exc
    return vals[::-1], vecs.T[::-1]


def reference_eigh(a) -> EigenSystem:
    """Ground-truth eigendecomposition by LAPACK eigh.

    Eigenvalues are returned in non-increasing order.
    """
    return EigenSystem(*_eigh(sym_matrix(a)))
