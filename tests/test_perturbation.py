import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from betadpca import PerturbationScenario, tolerance
from betadpca.aggregation import branch_transform
from helpers import invariance_check, perturbed_beta_spectrum, rand_scenario, unperturbed_beta_spectrum

TWO_MACHINES = np.array([[4.0, 1.0], [4.0, 1.0]])


def scenario(beta, d_l, spectra=TWO_MACHINES, r=1, noise_index=1):
    return PerturbationScenario(base_spectra=spectra, r=r, noise_index=noise_index,
                                d_l=d_l, beta=beta)


class TestSpectra:
    def test_arithmetic_case(self):
        # (4,1) twice, last machine's noise slot +3: mean spectrum (4, 2.5)
        rep = tolerance(scenario(beta=1.0, d_l=3.0))
        assert_allclose(rep.lambda_beta, [4.0, 2.5], rtol=1e-12)
        assert_allclose(rep.lambda_bar, [4.0, 1.0], rtol=1e-12)

    def test_zero_perturbation_changes_nothing(self):
        rep = tolerance(scenario(beta=1.0, d_l=0.0))
        assert np.array_equal(rep.lambda_beta, rep.lambda_bar)

    def test_geometric_mean_spectrum(self):
        rep = tolerance(scenario(beta=0.0, d_l=3.0))
        assert_allclose(rep.lambda_beta, [4.0, 2.0], rtol=1e-12)

    def test_independent_log_oracle(self):
        rng = np.random.default_rng(61)
        sc = rand_scenario(rng, beta=0.0)
        spectra = sc.base_spectra.copy()
        spectra[-1, sc.noise_index] += sc.d_l
        expected = np.exp(np.mean(np.log(spectra), axis=0))
        assert_allclose(tolerance(sc).lambda_beta, expected, rtol=1e-12)

    @pytest.mark.parametrize("beta", [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
    def test_report_matches_power_mean_oracle(self, beta):
        # the report's spectra come from the branch table; the oracle is the plain power mean
        rng = np.random.default_rng(63)
        for _ in range(100):
            sc = rand_scenario(rng, beta)
            rep = tolerance(sc)
            assert_allclose(rep.lambda_beta, perturbed_beta_spectrum(sc), rtol=1e-13)
            assert_allclose(rep.lambda_bar, unperturbed_beta_spectrum(sc), rtol=1e-13)
            assert rep.order_invariant == invariance_check(sc)

    def test_perturbation_moves_one_coordinate_monotonically(self):
        prev = None
        for d in (0.0, 1.0, 5.0, 50.0):
            lam = tolerance(scenario(beta=0.5, d_l=d)).lambda_beta
            assert_allclose(lam[0], 4.0, rtol=1e-12)
            if prev is not None:
                assert lam[1] > prev
            prev = lam[1]

    def test_negative_entry_without_shift(self):
        # shift 0 leaves the complement 0^beta unevaluated: no ZeroDivisionError, no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = branch_transform(-1.0, 0.0)
            assert t.complement == np.inf
            assert_allclose(t.inverse(t.forward(np.array([4.0, 1.0]))), [4.0, 1.0], rtol=1e-15)
            rep = tolerance(scenario(beta=-1.0, d_l=1e8))
        # the harmonic mean of 1 and 1 + 1e8, with no delta added
        assert_allclose(rep.lambda_beta, [4.0, 2.0 / (1.0 + 1.0 / (1.0 + 1e8))], rtol=1e-15)
        assert_allclose(rep.lambda_beta, [4.0, 1.99999998], rtol=1e-9)
        assert np.array_equal(rep.lambda_bar, [4.0, 1.0])

    @pytest.mark.parametrize("beta", [-2.0, -1.0, 0.0])
    @pytest.mark.parametrize("c", [1e-13, 1e7])
    def test_scale_equivariant(self, beta, c):
        # positive-definite spectra need no round-off window: scaling the
        # scenario by c scales both spectra by c, at any magnitude
        spectra = np.array([[4.0, 2.0, 1.0], [3.0, 2.5, 0.5]])
        rep = tolerance(scenario(beta, 0.7, spectra=spectra, noise_index=2))
        scaled = tolerance(scenario(beta, 0.7 * c, spectra=c * spectra, noise_index=2))
        assert_allclose(scaled.lambda_bar, c * rep.lambda_bar, rtol=1e-13)
        assert_allclose(scaled.lambda_beta, c * rep.lambda_beta, rtol=1e-13)
        assert scaled.order_invariant == rep.order_invariant
        assert_allclose(scaled.tau, rep.tau, rtol=1e-13)
        assert_allclose(scaled.lambda_tilde_l, rep.lambda_tilde_l, rtol=1e-13)

    def test_wide_spectrum_keeps_its_order(self):
        # at beta = -2, 1e9^-2 = 1e-18 is no round-off: the spectrum comes back as given
        spectra = np.array([[1e9, 1e8, 1e3], [1e9, 1e8, 1e3]])
        rep = tolerance(scenario(beta=-2.0, d_l=0.0, spectra=spectra, noise_index=2))
        assert_allclose(rep.lambda_bar, [1e9, 1e8, 1e3], rtol=1e-13)
        assert rep.order_invariant

    @pytest.mark.parametrize("beta", [-2.0, 0.0, 0.5])
    def test_shift_zero_maps_are_plain(self, beta):
        t = branch_transform(beta, 0.0)
        x = np.array([1e-20, 1.0, 1e20])
        assert_allclose(t.inverse(t.forward(x)), x, rtol=1e-13)
        assert np.isnan(t.inverse(np.array([np.nan]))).all()


class TestTolerance:
    def test_arithmetic_threshold(self):
        rep = tolerance(scenario(beta=1.0, d_l=3.0))
        # tau = m (lbar_r - lbar_l) = 2 * 3; effective size d itself
        assert_allclose(rep.tau, 6.0, rtol=1e-12)
        assert_allclose(rep.lambda_tilde_l, 3.0, rtol=1e-12)
        assert rep.order_invariant

    def test_arithmetic_boundary(self):
        # at d = tau the top eigenvalue ties: strict invariance fails
        assert not tolerance(scenario(beta=1.0, d_l=6.0)).order_invariant
        assert tolerance(scenario(beta=1.0, d_l=5.9)).order_invariant

    def test_geometric_threshold(self):
        rep = tolerance(scenario(beta=0.0, d_l=3.0))
        # tau = (lbar_r / lbar_l)^m = 16; effective size (1+3)/1 = 4
        assert_allclose(rep.tau, 16.0, rtol=1e-12)
        assert_allclose(rep.lambda_tilde_l, 4.0, rtol=1e-12)
        assert rep.order_invariant

    def test_quadratic_effective_size(self):
        rep = tolerance(scenario(beta=2.0, d_l=3.0))
        assert_allclose(rep.lambda_tilde_l, np.sqrt(15.0), rtol=1e-12)
        assert_allclose(rep.tau, np.sqrt(2 * 15.0), rtol=1e-12)

    def test_negative_beta_unconditionally_invariant(self):
        for d in (10.0, 1e6, 1e8):
            rep = tolerance(scenario(beta=-1.0, d_l=d))
            assert rep.tau == np.inf
            assert np.isnan(rep.lambda_tilde_l)
            assert rep.order_invariant

    def test_threshold_past_float_range_is_infinite(self):
        # (1000/1)^110 overflows: the geometric threshold is reported as inf, not an error
        spectra = np.tile([1000.0, 1.0], (110, 1))
        rep = tolerance(scenario(beta=0.0, d_l=5.0, spectra=spectra))
        assert rep.tau == np.inf
        assert_allclose(rep.lambda_tilde_l, 6.0, rtol=1e-12)
        assert rep.order_invariant

    def test_perturbed_spectrum_past_float_range_is_infinite(self):
        # (1 + 1e308)^2 overflows in the mean spectrum as in lambda_tilde_l: both read inf, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = tolerance(scenario(beta=2.0, d_l=1e308))
        assert rep.lambda_beta[1] == rep.lambda_tilde_l == np.inf
        assert not rep.order_invariant

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 0.0])
    def test_threshold_matches_direct_check(self, beta):
        rng = np.random.default_rng(62)
        for _ in range(100):
            sc = rand_scenario(rng, beta)
            rep = tolerance(sc)
            assert (rep.lambda_tilde_l < rep.tau) == rep.order_invariant
            assert rep.order_invariant == invariance_check(sc)

