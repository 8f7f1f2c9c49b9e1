"""Dense vector/matrix primitives and the reference eigensolver.

The reference solver is LAPACK `eigh`. It is independent of every iterative
path in the package, so it serves as the ground-truth oracle in tests and
validation runs.
"""

import operator
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConfigError, NumericalError

DEFAULT_MATRIX_CAP_BYTES = 2 << 30
# data rows per Gram update, a row count so that a chunk's C^T C (about
# GRAM_ROWS d^2 flops) outweighs its d x d add at any d
GRAM_ROWS = 256

_SYM_RTOL = 1e-12
_ORTHO_TOL = 1e-8
# rows of V V^T formed at a time by the EigenSystem check
_ORTHO_ROWS = 64


def as_int(value, name: str, low: int, high: int | None = None) -> int:
    """`value` as an int (`operator.index`) in [low, high], or >= low when
    `high` is None; a float, any other non-integer or a count out of range
    is a ConfigError naming the count."""
    try:
        n = operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None
    if high is None:
        if n < low:
            raise ConfigError(f"{name} must be >= {low}, got {n}")
    elif not low <= n <= high:
        raise ConfigError(f"{name} must lie in [{low}, {high}], got {n}")
    return n


def as_vector(x, name: str = "vector") -> np.ndarray:
    v = np.ascontiguousarray(x, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise ConfigError(f"{name} must be a 1-d array with at least one entry")
    if not np.all(np.isfinite(v)):
        raise ConfigError(f"{name} has non-finite entries")
    return v


def _as_2d(a, name: str) -> np.ndarray:
    m = np.ascontiguousarray(a, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ConfigError(f"{name} must be a 2-d array with positive shape")
    return m


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    m = _as_2d(a, name)
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
    """Validate a square matrix as symmetric and return it exactly symmetric.

    Symmetry within 1e-12 relative tolerance is required; the result is
    (A + A^T)/2 so later consumers can rely on exact symmetry. A matrix
    that is already symmetric bit for bit is returned as it is, without a
    copy, which gives the same bits since (x + x)/2 = x. So the result may
    alias the input; no engine writes to it.
    """
    a = as_matrix(entries)
    if a.shape[0] != a.shape[1]:
        raise ConfigError(f"expected a square matrix, got shape {a.shape}")
    # compared as bits: a +0/-0 pair compares equal as floats, but its
    # average below is +0 in both places
    if np.array_equal(a.view(np.int64), a.T.view(np.int64)):
        return a
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    skew = float(np.max(np.abs(a - a.T)))
    if skew > _SYM_RTOL * max(scale, 1e-300):
        raise ConfigError(
            f"matrix is not symmetric: max |A - A^T| = {skew!r} at scale {scale!r}")
    return np.ascontiguousarray((a + a.T) / 2.0)


def row_chunks(y: np.ndarray):
    """The successive GRAM_ROWS-row slices of a 2-d array, as views."""
    return (y[lo:lo + GRAM_ROWS] for lo in range(0, y.shape[0], GRAM_ROWS))


def gram(chunks, dim: int, max_bytes: int = DEFAULT_MATRIX_CAP_BYTES, *,
         error=ConfigError, name: str = "data matrix") -> np.ndarray:
    """Y^T Y of a data matrix Y with `dim` columns, given as its row chunks.

    The one definition of the package's Gram matrix: each chunk C, in
    order, is checked for finite values (else `error`) and added as
    G += C^T C, and the sum is returned as (G + G^T)/2. Same chunks, same
    bits, whether they are slices of an array (`covariance`) or reads of a
    file (`io.load_covariance`). The d x d size is checked against
    `max_bytes` before the first chunk is drawn, so a lazy reader has read
    no row when it is refused.
    """
    if dim * dim * 8 > max_bytes:
        raise CapacityError(
            f"covariance of dimension {dim} needs {dim * dim * 8} bytes, "
            f"cap is {max_bytes}")
    total = np.zeros((dim, dim))
    for c in chunks:
        if not np.isfinite(c).all():
            raise error(f"{name} has non-finite entries")
        total += c.T @ c
    return np.ascontiguousarray((total + total.T) / 2.0)


def covariance(y, max_bytes: int = DEFAULT_MATRIX_CAP_BYTES) -> np.ndarray:
    """Gram matrix Y^T Y of a data matrix, summed over GRAM_ROWS-row
    slices (`gram`); symmetric positive semidefinite."""
    ym = _as_2d(y, "data matrix")
    return gram(row_chunks(ym), ym.shape[1], max_bytes)


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


@dataclass(frozen=True)
class EigenSystem:
    """Full eigendecomposition: values non-increasing, rows of `vectors` are
    the unit eigenvectors, sign-normalized so the largest-magnitude entry of
    each vector is non-negative (ties broken by lowest index).

    The vectors are copied once into a private C-ordered array, whose signs
    are fixed in place, and V V^T = I is checked _ORTHO_ROWS rows at a time,
    so building one holds the copy plus a block of V V^T, not a second
    d x d array: `metrics.random_covariance` relies on this to build Sigma
    in three d x d arrays. tests/test_allocation.py::TestPostEnginePeaks::
    test_eigensystem_holds_its_copy_and_one_block pins that peak.
    """

    values: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        # as_vector may return the caller's own array; freeze a copy of it
        values = as_vector(self.values, "eigenvalues").copy()
        vectors = as_matrix(np.array(self.vectors, dtype=np.float64, order="C"),
                            "eigenvector matrix")
        if vectors.shape[0] != values.shape[0]:
            raise ConfigError("eigensystem shape mismatch")
        for row in vectors:
            if row[np.argmax(np.abs(row))] < 0.0:
                np.negative(row, out=row)
        if np.any(np.diff(values) > 0.0):
            raise ConfigError("eigenvalues must be non-increasing")
        # max |V V^T - I|, a block of rows at a time in one reused buffer
        n = vectors.shape[0]
        buf = np.empty((min(_ORTHO_ROWS, n), n))
        for lo in range(0, n, _ORTHO_ROWS):
            block = np.matmul(vectors[lo:lo + _ORTHO_ROWS], vectors.T, out=buf[:n - lo])
            rows = np.arange(block.shape[0])
            block[rows, lo + rows] -= 1.0
            if float(np.max(np.abs(block, out=block))) > _ORTHO_TOL:
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


def _eigvalsh(sm: np.ndarray) -> np.ndarray:
    """Unchecked LAPACK eigvalsh: values in non-decreasing order."""
    try:
        return np.linalg.eigvalsh(sm)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"LAPACK eigvalsh failed: {exc}") from exc


def reference_eigh(a) -> EigenSystem:
    """Ground-truth eigendecomposition by LAPACK eigh.

    Eigenvalues are returned in non-increasing order.
    """
    return EigenSystem(*_eigh(sym_matrix(a)))
