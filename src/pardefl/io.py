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


def atomic_write_bytes(path, payload: bytes) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(payload)
    os.replace(tmp, path)


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def save_pdm1(path, array) -> None:
    a = np.ascontiguousarray(array, dtype=np.float64)
    if a.ndim != 2:
        raise DataFormatError(f"PDM1 stores 2-d matrices, got ndim={a.ndim}")
    header = PDM1_MAGIC + struct.pack("<QQ", a.shape[0], a.shape[1])
    atomic_write_bytes(path, header + a.astype("<f8").tobytes(order="C"))


def load_pdm1(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if len(raw) < 20 or raw[:4] != PDM1_MAGIC:
        raise DataFormatError(f"{path}: not a PDM1 file")
    rows, cols = struct.unpack("<QQ", raw[4:20])
    expected = 20 + rows * cols * 8
    if len(raw) != expected:
        raise DataFormatError(
            f"{path}: payload size {len(raw)} does not match header "
            f"({rows} x {cols} needs {expected})")
    data = np.frombuffer(raw, dtype="<f8", offset=20)
    return data.astype(np.float64).reshape(rows, cols)


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
