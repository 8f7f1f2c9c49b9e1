"""Matrix file formats.

PDM1 is a tiny binary container: the 4 magic bytes ``PDM1``, two u64
little-endian fields (rows, cols), then the row-major float64 little-endian
payload. The CSV loader reads comma-separated numeric rows with no header.
`load_covariance` builds Y^T Y of a matrix file a chunk of rows at a time.
All writers go through a temp file plus rename so outputs appear atomically.
"""

import os
import struct
from pathlib import Path

import numpy as np

from .errors import DataFormatError
from .linalg import GRAM_ROWS, gram, row_chunks

PDM1_MAGIC = b"PDM1"


def atomic_write_bytes(path, *chunks) -> None:
    """Write the chunks (bytes-like objects) in order to a temp file, then
    rename it over `path`."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)
    os.replace(tmp, path)


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def save_pdm1(path, array) -> None:
    """Write a 2-d array as PDM1: the header, then the payload straight from
    a contiguous little-endian float64 view (a copy only when the array is
    not one already)."""
    a = np.ascontiguousarray(array, dtype="<f8")
    if a.ndim != 2:
        raise DataFormatError(f"PDM1 stores 2-d matrices, got ndim={a.ndim}")
    header = PDM1_MAGIC + struct.pack("<QQ", a.shape[0], a.shape[1])
    atomic_write_bytes(path, header, a.reshape(-1).view(np.uint8))


def _pdm1_shape(fh, path) -> tuple[int, int]:
    """Read and check a PDM1 header: (rows, cols), both positive, with the
    file's size equal to what the header implies."""
    header = fh.read(20)
    if len(header) < 20 or header[:4] != PDM1_MAGIC:
        raise DataFormatError(f"{path}: not a PDM1 file")
    rows, cols = struct.unpack("<QQ", header[4:])
    if rows == 0 or cols == 0:
        raise DataFormatError(f"{path}: empty PDM1 matrix ({rows} x {cols})")
    expected = 20 + rows * cols * 8
    size = os.fstat(fh.fileno()).st_size
    if size != expected:
        raise DataFormatError(
            f"{path}: payload size {size} does not match header "
            f"({rows} x {cols} needs {expected})")
    return rows, cols


def _read_rows(fh, path, out: np.ndarray, rows: int) -> None:
    """Fill the contiguous rows `out` with the next rows of the payload of a
    PDM1 file of `rows` rows."""
    if fh.readinto(out.reshape(-1).view(np.uint8)) != out.nbytes:
        raise DataFormatError(f"{path}: payload ended after {fh.tell()} of "
                              f"{20 + rows * out.shape[1] * 8} bytes")


def load_pdm1(path) -> np.ndarray:
    """Read a PDM1 file into a new (rows, cols) float64 array; a header with
    no rows or no columns is a DataFormatError, as an empty CSV is.

    The header's size is checked against the file's before anything is
    allocated, and the payload is read straight into the result, so the
    call allocates the result and no copy of the file's bytes.
    """
    with open(path, "rb") as fh:
        rows, cols = _pdm1_shape(fh, path)
        data = np.empty((rows, cols), dtype="<f8")
        _read_rows(fh, path, data, rows)
    return data.astype(np.float64, copy=False)


def _pdm1_chunks(fh, path, rows: int, cols: int):
    """The payload's rows, GRAM_ROWS at a time, read into one reused buffer."""
    buf = np.empty((min(GRAM_ROWS, rows), cols), dtype="<f8")
    for lo in range(0, rows, GRAM_ROWS):
        chunk = buf[: min(GRAM_ROWS, rows - lo)]
        _read_rows(fh, path, chunk, rows)
        yield chunk.astype(np.float64, copy=False)


def load_csv_matrix(path) -> np.ndarray:
    try:
        data = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise DataFormatError(f"{path}: bad CSV matrix: {exc}") from exc
    if data.size == 0:
        raise DataFormatError(f"{path}: empty CSV matrix")
    return data


def _is_pdm1(path) -> bool:
    return str(path).lower().endswith(".pdm1")


def load_matrix(path) -> np.ndarray:
    """Load a matrix, picking the format from the file suffix (.pdm1 or CSV).

    NaN or infinite entries are a data error. They are looked for
    GRAM_ROWS rows at a time, so the check adds one chunk's mask to the
    result, not a mask of the whole matrix.
    """
    data = load_pdm1(path) if _is_pdm1(path) else load_csv_matrix(path)
    for chunk in row_chunks(data):
        if not np.isfinite(chunk).all():
            raise DataFormatError(f"{path}: data matrix has non-finite entries")
    return data


def load_covariance(path) -> tuple[np.ndarray, int]:
    """Sigma = Y^T Y of the matrix file `path`, and its row count n, without
    keeping Y.

    Sigma is `linalg.gram` of Y's GRAM_ROWS-row chunks, so it is bitwise
    `covariance(load_matrix(path))`, with the same data errors. A PDM1
    payload is read a chunk at a time into one reused buffer, after its
    header has passed the size and capacity checks; a CSV file is parsed
    whole, and its rows are dropped once Sigma is built.
    """
    name = f"{path}: data matrix"
    if not _is_pdm1(path):
        data = load_csv_matrix(path)
        return gram(row_chunks(data), data.shape[1], error=DataFormatError,
                    name=name), data.shape[0]
    with open(path, "rb") as fh:
        rows, cols = _pdm1_shape(fh, path)
        return gram(_pdm1_chunks(fh, path, rows, cols), cols, error=DataFormatError,
                    name=name), rows
