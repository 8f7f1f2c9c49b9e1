"""Matrix file formats.

PDM1 is a tiny binary container: the 4 magic bytes ``PDM1``, two u64
little-endian fields (rows, cols), then the row-major float64 little-endian
payload. The CSV loader reads comma-separated numeric rows with no header.
All writers go through a temp file plus rename so outputs appear atomically.
"""

import os
import struct
from pathlib import Path

import numpy as np

from .errors import DataFormatError

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


def load_pdm1(path) -> np.ndarray:
    """Read a PDM1 file into a new (rows, cols) float64 array; a header with
    no rows or no columns is a DataFormatError, as an empty CSV is.

    The header's size is checked against the file's before anything is
    allocated, and the payload is read straight into the result, so the
    call allocates the result and no copy of the file's bytes.
    """
    with open(path, "rb") as fh:
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
        data = np.empty((rows, cols), dtype="<f8")
        got = fh.readinto(data.reshape(-1).view(np.uint8))
        if got != data.nbytes:
            raise DataFormatError(
                f"{path}: payload ended after {20 + got} of {expected} bytes")
    return data.astype(np.float64, copy=False)


def load_csv_matrix(path) -> np.ndarray:
    try:
        data = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise DataFormatError(f"{path}: bad CSV matrix: {exc}") from exc
    if data.size == 0:
        raise DataFormatError(f"{path}: empty CSV matrix")
    return data


def load_matrix(path) -> np.ndarray:
    """Load a matrix, picking the format from the file suffix (.pdm1 or CSV).

    NaN or infinite entries are a data error.
    """
    if str(path).lower().endswith(".pdm1"):
        data = load_pdm1(path)
    else:
        data = load_csv_matrix(path)
    if not np.all(np.isfinite(data)):
        raise DataFormatError(f"{path}: data matrix has non-finite entries")
    return data
