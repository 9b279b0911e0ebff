import numpy as np
import pytest
from numpy.testing import assert_allclose

from betadpca import (
    DomainError,
    InvalidInput,
    eig_sym,
    symmetrize,
)
from helpers import eig2x2, matrix_function, matrix_power, rand_orthogonal, rand_spd


class TestSymmetrize:
    def test_already_symmetric_passthrough(self):
        m = np.array([[2.0, 1.0], [1.0, 3.0]])
        assert np.array_equal(symmetrize(m), m)

    def test_averages_off_diagonal(self):
        m = np.array([[1.0, 4.0], [2.0, 1.0]])
        assert_allclose(symmetrize(m), [[1.0, 3.0], [3.0, 1.0]])


class TestEigSym:
    def test_diagonal_descending(self):
        es = eig_sym(np.diag([3.0, 2.0, 1.0]))
        assert_allclose(es.values, [3.0, 2.0, 1.0], atol=1e-12)
        assert_allclose(es.vectors, np.eye(3), atol=1e-12)

    def test_identity_maps_to_identity(self):
        # fully degenerate spectrum: the tie ordering must pick the canonical basis
        es = eig_sym(np.eye(4))
        assert np.array_equal(es.values, np.ones(4))
        assert np.array_equal(es.vectors, np.eye(4))

    def test_2x2_against_characteristic_polynomial(self):
        values, vectors = eig2x2(7.0, 2.0, 3.0)
        es = eig_sym(np.array([[7.0, 2.0], [2.0, 3.0]]))
        # 5 +- 2*sqrt(2), frozen
        assert_allclose(values, [7.82842712474619, 2.17157287525381], rtol=1e-14)
        assert_allclose(es.values, values, rtol=1e-12)
        assert_allclose(es.vectors[:, 0], vectors[0], rtol=1e-10, atol=1e-12)
        assert_allclose(es.vectors[:, 1], vectors[1], rtol=1e-10, atol=1e-12)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(7)
        for p in (2, 5, 17, 30):
            a = rng.standard_normal((p, p))
            s = (a + a.T) / 2.0
            es = eig_sym(s)
            assert_allclose((es.vectors * es.values) @ es.vectors.T, s,
                            atol=1e-8 * (1.0 + np.abs(s).max()))
            assert_allclose(es.vectors.T @ es.vectors, np.eye(p), atol=1e-10)
            assert np.all(np.diff(es.values) <= 0)

    def test_sign_convention(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            es = eig_sym(rand_spd(rng, 6))
            for j in range(6):
                col = es.vectors[:, j]
                assert col[np.argmax(np.abs(col))] > 0

    def test_bitwise_deterministic(self):
        rng = np.random.default_rng(9)
        m = rand_spd(rng, 12)
        a, b = eig_sym(m), eig_sym(m)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.vectors, b.vectors)


class TestMatrixFunction:
    def test_sqrt_of_diagonal(self):
        out = matrix_function(np.diag([4.0, 9.0]), np.sqrt)
        assert_allclose(out, np.diag([2.0, 3.0]), atol=1e-12)

    def test_log_of_identity_is_zero(self):
        assert_allclose(matrix_function(np.eye(3), np.log), np.zeros((3, 3)), atol=1e-12)

    def test_exp_log_round_trip(self):
        rng = np.random.default_rng(10)
        m = rand_spd(rng, 8, lo=0.3, hi=4.0)
        back = matrix_function(matrix_function(m, np.log), np.exp)
        assert_allclose(back, m, rtol=1e-8, atol=1e-10)

    def test_log_names_offending_eigenvalue(self):
        with pytest.raises(DomainError, match="-0.5"):
            matrix_function(np.diag([1.0, -0.5]), np.log)


class TestMatrixPower:
    def test_power_one_is_identity_map(self):
        rng = np.random.default_rng(11)
        m = rand_spd(rng, 5)
        assert_allclose(matrix_power(m, 1.0), m, rtol=1e-10, atol=1e-12)

    def test_half_power_via_2x2_oracle(self):
        m = np.array([[7.0, 2.0], [2.0, 3.0]])
        values, vectors = eig2x2(7.0, 2.0, 3.0)
        root = matrix_power(m, 0.5)
        expected = sum(np.sqrt(lam) * np.outer(v, v) for lam, v in zip(values, vectors))
        assert_allclose(root, expected, rtol=1e-12)
        assert_allclose(root @ root, m, rtol=1e-10)

    def test_inverse_matches_solve(self):
        rng = np.random.default_rng(12)
        m = rand_spd(rng, 6, lo=0.5, hi=3.0)
        assert_allclose(matrix_power(m, -1.0), np.linalg.inv(m), rtol=1e-8, atol=1e-10)

    def test_power_composition(self):
        rng = np.random.default_rng(13)
        m = rand_spd(rng, 5, lo=0.5, hi=2.0)
        for beta in (0.5, 2.0, -1.0, 3.0):
            again = matrix_power(matrix_power(m, beta), 1.0 / beta)
            assert_allclose(again, m, rtol=1e-8, atol=1e-10)

    def test_zero_exponent_rejected(self):
        with pytest.raises(InvalidInput):
            matrix_power(np.eye(2), 0.0)

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("values, beta, want", [
        ([1.0, -1e-16], 0.5, [1.0, 0.0]),   # within 8 p eps max|lambda| of 0: exactly 0
        ([1.0, -1e-13], 0.5, DomainError),  # below it: no real root
        ([1.0, 0.0], -1.0, DomainError),    # a negative power of 0
        ([2.0, -5.0], 2.0, [4.0, 25.0]),    # an integer power needs no sign
        ([2.0, -5.0], -1.0, [0.5, -0.2])])
    def test_one_scale_free_rule_for_zero(self, values, beta, want, scale):
        q = rand_orthogonal(np.random.default_rng(14), 2)
        m = (q * np.multiply(scale, values)) @ q.T
        if want is DomainError:
            with pytest.raises(DomainError, match="undefined at eigenvalue"):
                matrix_power(m, beta)
        else:
            want = (q * np.multiply(scale ** beta, want)) @ q.T
            assert_allclose(matrix_power(m, beta), want, rtol=0, atol=1e-14 * np.abs(want).max())
