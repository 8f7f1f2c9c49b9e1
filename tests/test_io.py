import os
import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from pardefl import (CapacityError, DataFormatError, covariance, load_csv_matrix,
                     load_matrix, load_pdm1, save_pdm1)
from pardefl.io import PDM1_MAGIC, load_covariance
from pardefl.linalg import GRAM_ROWS


def test_pdm1_round_trip(tmp_path, rng):
    a = rng.standard_normal((7, 3))
    path = tmp_path / "m.pdm1"
    save_pdm1(path, a)
    assert np.array_equal(load_pdm1(path), a)


def test_pdm1_layout(tmp_path):
    path = tmp_path / "m.pdm1"
    save_pdm1(path, np.array([[1.0, 2.0]]))
    raw = path.read_bytes()
    assert raw[:4] == PDM1_MAGIC
    assert raw[4:12] == (1).to_bytes(8, "little")
    assert raw[12:20] == (2).to_bytes(8, "little")
    assert np.frombuffer(raw, dtype="<f8", offset=20).tolist() == [1.0, 2.0]


def test_pdm1_bad_magic(tmp_path):
    path = tmp_path / "m.pdm1"
    path.write_bytes(b"NOPE" + bytes(16))
    with pytest.raises(DataFormatError):
        load_pdm1(path)


def test_pdm1_truncated(tmp_path):
    path = tmp_path / "m.pdm1"
    save_pdm1(path, np.ones((2, 2)))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(DataFormatError):
        load_pdm1(path)


def test_pdm1_header_over_file_size_rejected_before_allocating(tmp_path):
    path = tmp_path / "m.pdm1"
    save_pdm1(path, np.ones((1000, 100)))
    raw = path.read_bytes()
    # one row more than the 800 kB payload holds
    path.write_bytes(raw[:4] + struct.pack("<QQ", 1001, 100) + raw[20:])
    tracemalloc.start()
    try:
        with pytest.raises(DataFormatError, match="does not match header"):
            load_pdm1(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, f"{peak} bytes allocated before the size check"


def test_pdm1_short_read_rejected(tmp_path, monkeypatch):
    path = tmp_path / "m.pdm1"
    save_pdm1(path, np.ones((3, 2)))
    raw = path.read_bytes()
    path.write_bytes(raw[:4] + struct.pack("<QQ", 7, 1) + raw[20:])
    # the size check sees one more value than the read then finds, as when
    # the file shrinks in between
    real_fstat = os.fstat
    monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(
        st_size=real_fstat(fd).st_size + 8))
    with pytest.raises(DataFormatError, match="payload ended after 68 of 76 bytes"):
        load_pdm1(path)


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_pdm1_empty_matrix_rejected(tmp_path, shape):
    path = tmp_path / "z.pdm1"
    save_pdm1(path, np.empty(shape))
    with pytest.raises(DataFormatError,
                       match=rf"empty PDM1 matrix \({shape[0]} x {shape[1]}\)"):
        load_pdm1(path)


def test_csv_round_trip(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1.5,2\n3,-4.25\n")
    assert np.array_equal(load_csv_matrix(path), [[1.5, 2.0], [3.0, -4.25]])


def test_csv_single_row(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2,3\n")
    assert load_csv_matrix(path).shape == (1, 3)


def test_csv_malformed(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,two\n")
    with pytest.raises(DataFormatError):
        load_csv_matrix(path)


def test_load_matrix_dispatch(tmp_path, rng):
    a = rng.standard_normal((2, 5))
    pdm = tmp_path / "a.pdm1"
    save_pdm1(pdm, a)
    csv = tmp_path / "a.csv"
    csv.write_text("\n".join(",".join(repr(float(x)) for x in row) for row in a) + "\n")
    assert np.array_equal(load_matrix(pdm), a)
    assert np.allclose(load_matrix(csv), a, atol=0)


def test_load_matrix_rejects_non_finite(tmp_path):
    csv_path = tmp_path / "m.csv"
    csv_path.write_text("1.0,nan\n2.0,3.0\n")
    pdm1_path = tmp_path / "m.pdm1"
    save_pdm1(pdm1_path, np.array([[1.0, -np.inf]]))
    for path in (csv_path, pdm1_path):
        with pytest.raises(DataFormatError, match="non-finite"):
            load_matrix(path)


CHUNK = GRAM_ROWS


def write_matrix(path, a):
    if path.suffix == ".pdm1":
        save_pdm1(path, a)
    else:
        path.write_text("".join(",".join(map(repr, row)) + "\n" for row in a.tolist()))


@pytest.mark.parametrize("suffix", [".pdm1", ".csv"])
@pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 17])
def test_load_covariance_bitwise_covariance_of_load_matrix(tmp_path, suffix, n):
    a = np.random.default_rng(n).standard_normal((n, 7)) * np.linspace(3.0, 0.1, 7)
    path = tmp_path / f"m{suffix}"
    write_matrix(path, a)
    sigma, rows = load_covariance(path)
    assert rows == n
    assert sigma.tobytes() == covariance(load_matrix(path)).tobytes()
    assert np.array_equal(sigma, sigma.T)


@pytest.mark.parametrize("suffix", [".pdm1", ".csv"])
def test_load_covariance_rejects_nan_in_the_last_chunk(tmp_path, suffix):
    a = np.ones((2 * CHUNK + 5, 3))
    a[-1, 1] = np.nan
    path = tmp_path / f"m{suffix}"
    write_matrix(path, a)
    with pytest.raises(DataFormatError, match=r"m\.(pdm1|csv): data matrix has non-finite"):
        load_covariance(path)


def test_load_covariance_short_read_rejected(tmp_path, monkeypatch):
    path = tmp_path / "m.pdm1"
    save_pdm1(path, np.ones((CHUNK + 3, 2)))
    raw = path.read_bytes()
    path.write_bytes(raw[:4] + struct.pack("<QQ", CHUNK + 4, 2) + raw[20:])
    real_fstat = os.fstat
    monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(
        st_size=real_fstat(fd).st_size + 16))
    # the second chunk finds 3 of its 4 rows
    got, expected = 20 + (CHUNK + 3) * 16, 20 + (CHUNK + 4) * 16
    with pytest.raises(DataFormatError,
                       match=f"payload ended after {got} of {expected} bytes"):
        load_covariance(path)


def test_load_covariance_header_over_file_size_rejected(tmp_path):
    path = tmp_path / "m.pdm1"
    save_pdm1(path, np.ones((3, 2)))
    raw = path.read_bytes()
    path.write_bytes(raw[:4] + struct.pack("<QQ", 4, 2) + raw[20:])
    with pytest.raises(DataFormatError, match="does not match header"):
        load_covariance(path)


def test_load_covariance_capacity_checked_before_any_row(tmp_path, monkeypatch):
    from pardefl import io

    # one row of 16,385 columns: a 131 KB file whose 16,385^2 doubles of
    # Sigma are over the 2 GiB default cap
    path = tmp_path / "m.pdm1"
    a = np.ones((1, 16385))
    a[0, 0] = np.nan  # would be a data error once the row is read
    save_pdm1(path, a)

    def no_read(*args):
        raise AssertionError("a row was read before the capacity check")

    monkeypatch.setattr(io, "_read_rows", no_read)
    with pytest.raises(CapacityError, match="covariance of dimension 16385"):
        load_covariance(path)
