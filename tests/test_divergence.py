import numpy as np
import pytest
from numpy.testing import assert_allclose

from betadpca import (
    BetaConfig,
    DomainError,
    InvalidInput,
    NotPSD,
    beta_mean,
    divergence,
    generating_value,
    verify_minimizer,
)
from helpers import closed_form_divergence, matrix_function, matrix_power, rand_spd, rotated_rank_two

# beta = 0 is the von Neumann limit, beta = -1 the log-det limit
BETAS = [-2.0, -0.5, 0.5, 1.0, 2.0, 0.0, -1.0]


def bregman_gradient(beta, m2):
    """Independent gradient of the generating function, for the expansion check."""
    p = m2.shape[0]
    if beta == 0.0:
        return matrix_function(m2, np.log)
    if beta == -1.0:
        return np.eye(p) - matrix_power(m2, -1.0)
    return (matrix_power(m2, beta) - np.eye(p)) / beta


class TestKinds:
    def test_float_coercion(self):
        # a member is named by beta alone; ints and numpy scalars name the same one
        rng = np.random.default_rng(50)
        m1 = rand_spd(rng, 3, lo=0.5, hi=2.0)
        m2 = rand_spd(rng, 3, lo=0.5, hi=2.0)
        von_neumann = np.trace(m1 @ (matrix_function(m1, np.log) - matrix_function(m2, np.log)) - m1 + m2)
        log_det = np.trace(m1 @ matrix_power(m2, -1.0)) - np.log(np.linalg.det(m1 @ matrix_power(m2, -1.0))) - 3
        for beta in (0, 0.0, -0.0, np.float32(0.0), np.int64(0)):
            assert_allclose(divergence(m1, m2, beta), von_neumann, rtol=1e-10)
        for beta in (-1, -1.0, np.float64(-1.0)):
            assert_allclose(divergence(m1, m2, beta), log_det, rtol=1e-10)
        assert divergence(m1, m2, 1) == divergence(m1, m2, 1.0) == divergence(m1, m2, np.int64(1))
        assert generating_value(m1, 0) == generating_value(m1, 0.0)
        assert generating_value(m1, -1) == generating_value(m1, -1.0)

    def test_degenerate_beta_rejected(self):
        # 0 and -1 are the limits, so only a non-finite beta names no member
        for beta in (np.nan, np.inf, -np.inf):
            with pytest.raises(InvalidInput, match="finite"):
                divergence(np.eye(2), np.eye(2), beta)
            with pytest.raises(InvalidInput, match="finite"):
                generating_value(np.eye(2), beta)
            with pytest.raises(InvalidInput, match="finite"):
                BetaConfig(beta=beta)


class TestGeneratingValue:
    @pytest.mark.parametrize("beta", BETAS)
    def test_zero_at_identity(self, beta):
        assert abs(generating_value(np.eye(4), beta)) <= 1e-12

    def test_frozen_examples(self):
        # scalar checks: e under von Neumann, 2 under beta=1
        assert_allclose(generating_value(np.diag([np.e]), 0.0), 1.0, rtol=1e-12)
        assert_allclose(generating_value(np.diag([2.0]), 1.0), 0.5, rtol=1e-12)

    @pytest.mark.parametrize("beta", BETAS)
    def test_convex_along_midpoints(self, beta):
        rng = np.random.default_rng(51)
        for _ in range(10):
            m1 = rand_spd(rng, 4, lo=0.4, hi=3.0)
            m2 = rand_spd(rng, 4, lo=0.4, hi=3.0)
            mid = generating_value((m1 + m2) / 2.0, beta)
            avg = (generating_value(m1, beta) + generating_value(m2, beta)) / 2.0
            assert mid <= avg + 1e-10


class TestDivergence:
    def test_frozen_examples(self):
        # beta=1 is half the squared Frobenius distance
        m1 = np.diag([3.0, 1.0])
        m2 = np.diag([1.0, 3.0])
        assert_allclose(divergence(m1, m2, 1.0), 0.5 * 8.0, rtol=1e-12)
        # log-det between scalars 2 and 1: 2 - ln 2 - 1
        d = divergence(np.diag([2.0]), np.diag([1.0]), -1.0)
        assert_allclose(d, 1.0 - np.log(2.0), rtol=1e-12)

    @pytest.mark.parametrize("beta", BETAS)
    def test_zero_at_equal_arguments(self, beta):
        rng = np.random.default_rng(52)
        for _ in range(5):
            m = rand_spd(rng, 5, lo=0.4, hi=3.0)
            assert abs(divergence(m, m, beta)) <= 1e-10 * (1.0 + np.trace(m))

    @pytest.mark.parametrize("beta", BETAS)
    def test_nonnegative_and_positive_when_distinct(self, beta):
        rng = np.random.default_rng(53)
        for _ in range(20):
            m1 = rand_spd(rng, 4, lo=0.4, hi=3.0)
            m2 = rand_spd(rng, 4, lo=0.4, hi=3.0)
            d = divergence(m1, m2, beta)
            assert d >= -1e-10
            assert d > 1e-8  # distinct random draws separate

    @pytest.mark.parametrize("beta", BETAS)
    def test_bregman_expansion(self, beta):
        rng = np.random.default_rng(54)
        for _ in range(10):
            m1 = rand_spd(rng, 4, lo=0.4, hi=3.0)
            m2 = rand_spd(rng, 4, lo=0.4, hi=3.0)
            grad = bregman_gradient(beta, m2)
            expected = (generating_value(m1, beta) - generating_value(m2, beta)
                        - np.sum(grad * (m1 - m2)))
            got = divergence(m1, m2, beta)
            assert_allclose(got, expected, rtol=1e-8, atol=1e-10)

    def test_agrees_with_closed_forms(self):
        # divergence is built from one generator; the oracle writes each member's
        # closed form out.  The absolute floor scales with tr phi(M1) and tr phi(M2),
        # the terms that cancel (measured worst: 8.4e-14 relative, 1.9e-14 of that scale)
        rng = np.random.default_rng(58)
        for beta in BETAS:
            for _ in range(300):
                p = int(rng.integers(2, 31))
                m1 = rand_spd(rng, p)
                m2 = rand_spd(rng, p)
                scale = abs(generating_value(m1, beta)) + abs(generating_value(m2, beta)) + 1.0
                assert_allclose(divergence(m1, m2, beta), closed_form_divergence(m1, m2, beta),
                                rtol=1e-12, atol=1e-13 * scale)

    def test_limits_continuous(self):
        rng = np.random.default_rng(55)
        m1 = rand_spd(rng, 5, lo=0.5, hi=2.5)
        m2 = rand_spd(rng, 5, lo=0.5, hi=2.5)
        near0 = divergence(m1, m2, 1e-4)
        at0 = divergence(m1, m2, 0.0)
        assert abs(near0 - at0) <= 1e-3 * (1.0 + abs(at0))
        near1 = divergence(m1, m2, -1.0 + 1e-4)
        at1 = divergence(m1, m2, -1.0)
        assert abs(near1 - at1) <= 1e-3 * (1.0 + abs(at1))

    def test_strict_domain_guards(self):
        singular = np.diag([1.0, 0.0])
        pd = np.eye(2)
        with pytest.raises(DomainError):
            divergence(singular, pd, 0.0)  # first argument must be PD
        with pytest.raises(DomainError):
            divergence(pd, singular, -1.0)
        with pytest.raises(DomainError):
            divergence(pd, singular, -2.0)
        # beta > 0 needs only PSD
        assert divergence(singular, pd, 0.5) >= 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidInput):
            divergence(np.eye(2), np.eye(3), 1.0)

    @pytest.mark.parametrize("scale", [1e7, 1e9, 1e12])
    @pytest.mark.parametrize("beta", [2.0, 1.0, 0.5])
    def test_rank_deficient_input_is_psd_at_any_scale(self, beta, scale):
        # PSD slots take a rank-deficient matrix with a round-off negative
        # eigenvalue below -1e-10; D(M, M) is then 0 up to that round-off
        m = rotated_rank_two(scale)
        assert divergence(m, m, beta) == pytest.approx(0.0, abs=1e-12 * scale ** (beta + 1))

    def test_indefinite_slot_is_not_psd(self):
        with pytest.raises(NotPSD, match="not PSD"):
            divergence(np.diag([1.0, -1e-6]), np.eye(2), 1.0)


class TestVerifyMinimizer:
    def test_scalar_arithmetic_center(self):
        # {1, 3} under beta=1: center 2, objective (D(1,2)+D(3,2))/2 = 0.5
        inputs = [np.diag([1.0]), np.diag([3.0])]
        rep = verify_minimizer(inputs, BetaConfig(beta=1.0), trials=25,
                               noise_scale=0.5, seed=0)
        assert_allclose(rep.center, np.diag([2.0]), rtol=1e-12)
        assert_allclose(rep.objective_at_center, 0.5, rtol=1e-12)
        assert rep.all_nonnegative
        assert rep.min_margin >= 0.0
        # hand-checked competitor: J(2.1) - J(2) = 0.01/2
        comp = np.mean([divergence(t, np.diag([2.1]), 1.0) for t in inputs])
        assert_allclose(comp - rep.objective_at_center, 0.005, rtol=1e-10)

    def test_geometric_center_under_von_neumann(self):
        inputs = [np.diag([1.0]), np.diag([np.e ** 2])]
        rep = verify_minimizer(inputs, BetaConfig(beta=0.0), trials=25,
                               noise_scale=0.3, seed=1)
        assert_allclose(rep.center, np.diag([np.e]), rtol=1e-10)
        assert rep.all_nonnegative

    @pytest.mark.parametrize("beta", [-1.0, 0.0, 0.5, 1.0])
    def test_margins_nonnegative(self, beta):
        rng = np.random.default_rng(56)
        inputs = [rand_spd(rng, 6, lo=0.5, hi=3.0) for _ in range(5)]
        for scale in (1e-2, 1e-1):
            rep = verify_minimizer(inputs, BetaConfig(beta=beta), trials=20,
                                   noise_scale=scale, seed=2)
            assert rep.margins.shape == (20,)
            assert rep.all_nonnegative, f"beta={beta} scale={scale}: {rep.min_margin}"

    def test_center_matches_beta_mean(self):
        rng = np.random.default_rng(57)
        inputs = [rand_spd(rng, 4) for _ in range(3)]
        cfg = BetaConfig(beta=0.5)
        rep = verify_minimizer(inputs, cfg, trials=5, noise_scale=0.1, seed=3)
        assert np.array_equal(rep.center, beta_mean(inputs, cfg))
