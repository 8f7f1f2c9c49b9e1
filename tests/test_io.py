import os
import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from pardefl import DataFormatError, load_csv_matrix, load_matrix, load_pdm1, save_pdm1
from pardefl.io import PDM1_MAGIC


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
