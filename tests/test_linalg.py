import numpy as np
import pytest

from pardefl import (CapacityError, ConfigError, EigenSystem, NumericalError,
                     covariance, matvec, normalize, reference_eigh, sign_align,
                     sym_matrix)
from pardefl import linalg
from pardefl.metrics import random_covariance


class TestCovariance:
    def test_identity(self):
        assert np.array_equal(covariance(np.eye(2)), np.eye(2))

    def test_hand_product(self):
        y = np.array([[1.0, 1.0], [1.0, -1.0]])
        assert np.allclose(covariance(y), [[2.0, 0.0], [0.0, 2.0]], atol=1e-15)

    def test_single_row_outer(self):
        got = covariance(np.array([[3.0, 4.0]]))
        assert np.allclose(got, [[9.0, 12.0], [12.0, 16.0]], atol=1e-12)
        assert np.linalg.matrix_rank(got) == 1

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            covariance(np.ones((2, 64)), max_bytes=1000)

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 1000])
    def test_sums_fixed_row_chunks(self, n):
        y = np.random.default_rng(n).standard_normal((n, 9))
        total = np.zeros((9, 9))
        for lo in range(0, n, linalg.GRAM_ROWS):
            chunk = y[lo:lo + linalg.GRAM_ROWS]
            total += chunk.T @ chunk
        got = covariance(y)
        assert got.tobytes() == ((total + total.T) / 2.0).tobytes()
        whole = y.T @ y
        assert np.max(np.abs(got - whole)) <= 1e-13 * np.max(np.abs(whole))

    def test_non_finite_in_a_later_chunk(self):
        y = np.ones((linalg.GRAM_ROWS + 2, 3))
        y[-1, 0] = np.inf
        with pytest.raises(ConfigError, match="data matrix has non-finite entries"):
            covariance(y)

    def test_psd_property(self, rng):
        for _ in range(20):
            n, d = int(rng.integers(1, 12)), int(rng.integers(1, 10))
            sig = covariance(rng.standard_normal((n, d)))
            vals = reference_eigh(sig).values
            top = max(abs(vals[0]), abs(vals[-1]))
            assert vals[-1] >= -1e-10 * max(top, 1.0)


class TestMatvec:
    def test_identity(self, rng):
        x = rng.standard_normal(5)
        assert np.array_equal(matvec(np.eye(5), x), x)

    def test_diagonal(self):
        got = matvec(np.diag([3.0, 2.0, 1.0]), np.ones(3))
        assert np.array_equal(got, [3.0, 2.0, 1.0])

    def test_hand_product(self):
        got = matvec(np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([1.0, 0.0]))
        assert np.array_equal(got, [2.0, 1.0])

    def test_dim_mismatch(self):
        with pytest.raises(ConfigError):
            matvec(np.eye(3), np.ones(2))

    def test_linearity(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 30))
            a = rng.standard_normal((d, d))
            x, y = rng.standard_normal(d), rng.standard_normal(d)
            al, be = rng.standard_normal(2)
            lhs = matvec(a, al * x + be * y)
            rhs = al * matvec(a, x) + be * matvec(a, y)
            scale = max(np.max(np.abs(lhs)), 1.0)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


class TestReferenceEigh:
    def test_diagonal(self):
        es = reference_eigh(np.diag([3.0, 2.0, 1.0]))
        assert np.array_equal(es.values, [3.0, 2.0, 1.0])
        assert np.array_equal(es.vectors, np.eye(3))

    def test_2x2_closed_form(self):
        es = reference_eigh(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(es.values, [3.0, 1.0], atol=1e-12)
        r = 1.0 / np.sqrt(2.0)
        assert np.allclose(es.vectors[0], [r, r], atol=1e-12)
        assert np.allclose(es.vectors[1], [r, -r], atol=1e-12)

    def test_recovers_construction(self):
        sigma, truth = random_covariance(np.array([1.0, 0.5, 0.25]), seed=3)
        es = reference_eigh(sigma)
        assert np.max(np.abs(es.values - truth.values)) <= 1e-10

    def test_reconstruction_property(self, rng):
        for _ in range(8):
            d = int(rng.integers(2, 65))
            a = rng.standard_normal((d, d))
            a = (a + a.T) / 2.0
            es = reference_eigh(a)
            recon = es.vectors.T @ np.diag(es.values) @ es.vectors
            assert np.linalg.norm(a - recon) <= 1e-9 * np.linalg.norm(a)

    def test_sign_convention(self, rng):
        for _ in range(5):
            a = rng.standard_normal((6, 6))
            es = reference_eigh((a + a.T) / 2.0)
            for row in es.vectors:
                assert row[int(np.argmax(np.abs(row)))] >= 0.0

    def test_lapack_failure_raises_numerical_error(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(linalg.np.linalg, "eigh", fail)
        with pytest.raises(NumericalError, match="LAPACK eigh failed"):
            reference_eigh(np.array([[2.0, 1.0], [1.0, 2.0]]))

    def test_rejects_asymmetric(self):
        with pytest.raises(ConfigError):
            reference_eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestSignAlign:
    def test_flip(self):
        e1 = np.array([1.0, 0.0])
        assert np.array_equal(sign_align(e1, -e1), -e1)

    def test_orthogonal_tie_keeps_input(self):
        got = sign_align(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert np.array_equal(got, [1.0, 0.0])

    def test_hand_case(self):
        got = sign_align(np.array([0.6, 0.8]), np.array([-1.0, 0.0]))
        assert np.allclose(got, [-0.6, -0.8], atol=0)

    def test_idempotent_and_involution(self, rng):
        for _ in range(20):
            d = int(rng.integers(1, 8))
            v, ref = rng.standard_normal(d), rng.standard_normal(d)
            once = sign_align(v, ref)
            assert np.array_equal(sign_align(once, ref), once)
            assert np.array_equal(sign_align(v, -ref), -once) or \
                float(v @ ref) == 0.0


class TestNormalize:
    def test_three_four_five(self):
        assert np.allclose(normalize([3.0, 4.0]), [0.6, 0.8], atol=1e-16)

    def test_unit_fixed_point(self):
        e1 = np.array([1.0, 0.0, 0.0])
        assert np.array_equal(normalize(e1), e1)

    def test_zero_vector(self):
        with pytest.raises(NumericalError):
            normalize(np.zeros(3))


class TestSymMatrix:
    def test_symmetrizes(self):
        a = np.array([[1.0, 2.0 + 1e-14], [2.0, 1.0]])
        s = sym_matrix(a)
        assert np.array_equal(s, s.T)

    def test_rejects_asymmetric(self):
        with pytest.raises(ConfigError):
            sym_matrix([[1.0, 5.0], [0.0, 1.0]])

    def test_rejects_nonsquare(self):
        with pytest.raises(ConfigError):
            sym_matrix(np.ones((2, 3)))

    def test_exactly_symmetric_input_returned_as_is(self):
        m = np.random.default_rng(1).standard_normal((30, 30))
        a = (m + m.T) / 2.0
        s = sym_matrix(a)
        assert s is a
        assert s.tobytes() == np.ascontiguousarray((a + a.T) / 2.0).tobytes()

    def test_symmetrizes_inside_tolerance_as_a_copy(self):
        m = np.random.default_rng(2).standard_normal((30, 30))
        a = m + m.T
        a[3, 7] *= 1.0 + 1e-14
        s = sym_matrix(a)
        assert s is not a and s.flags.c_contiguous
        assert s.tobytes() == ((a + a.T) / 2.0).tobytes()

    def test_refusal_outside_tolerance_names_the_skew(self):
        a = np.eye(3)
        a[0, 2] = 1e-9
        with pytest.raises(ConfigError, match=r"not symmetric: max \|A - A\^T\| = 1e-09 "
                                              r"at scale 1.0"):
            sym_matrix(a)

    def test_zeros_of_opposite_sign_averaged(self):
        s = sym_matrix(np.array([[1.0, -0.0], [0.0, 1.0]]))
        assert np.copysign(1.0, s[0, 1]) == np.copysign(1.0, s[1, 0]) == 1.0

    def test_symmetric_check_scratch(self):
        import tracemalloc

        d = 1000
        m = np.random.default_rng(3).standard_normal((d, d))
        a = (m + m.T) / 2.0
        del m
        tracemalloc.start()
        sym_matrix(a)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # one d x d boolean comparison, against 16 MB for the copy and its temporaries
        assert peak < 2_000_000, peak


class TestEigenSystem:
    def test_rejects_increasing_values(self):
        with pytest.raises(ConfigError):
            EigenSystem(values=np.array([1.0, 2.0]), vectors=np.eye(2))

    def test_rejects_non_orthonormal(self):
        with pytest.raises(NumericalError):
            EigenSystem(values=np.array([2.0, 1.0]),
                        vectors=np.array([[1.0, 0.0], [1.0, 0.0]]))

    @pytest.mark.parametrize("bad_row", [3, 140])
    def test_rejects_non_orthonormal_rows_in_any_block(self, bad_row):
        # 150 rows span three blocks of the row-blocked V V^T check
        q, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((200, 200)))
        vectors = q.T[:150].copy()
        values = np.linspace(2.0, 0.5, 150)
        EigenSystem(values=values, vectors=vectors)
        vectors[bad_row] = (vectors[bad_row] + vectors[bad_row - 1]) / np.sqrt(2.0)
        with pytest.raises(NumericalError):
            EigenSystem(values=values, vectors=vectors)

    @pytest.mark.parametrize("values, vectors", [
        ([1.0], [1.0, 0.0]),
        ([1.0], np.ones((1, 2, 2))),
        ([1.0], [[np.nan, 1.0]]),
    ], ids=["1-d-vectors", "3-d-vectors", "nan-entry"])
    def test_rejects_malformed_input(self, values, vectors):
        with pytest.raises(ConfigError, match="eigenvector matrix"):
            EigenSystem(values=values, vectors=vectors)

    def test_immutable(self):
        es = EigenSystem(values=np.array([2.0, 1.0]), vectors=np.eye(2))
        with pytest.raises(ValueError):
            es.values[0] = 5.0

    def test_caller_arrays_stay_writeable(self):
        vals, vecs = np.array([2.0, 1.0]), np.eye(2)
        es = EigenSystem(vals, vecs)
        assert vals.flags.writeable and vecs.flags.writeable
        assert not es.values.flags.writeable and not es.vectors.flags.writeable
        vals[0] = 5.0
        assert es.values[0] == 2.0
