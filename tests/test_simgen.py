import numpy as np
import pytest
from numpy.testing import assert_allclose

from betadpca import (
    GAUSSIAN,
    STUDENT_T3,
    TruncatedEig,
    make_population,
    rho_curve,
    rho_similarity,
    sample_data,
    signal_eigenvalues,
    split_shards,
    truncate_summary,
    truncated_eig,
)
from helpers import dense_sample_data


def population_sigma(model):
    """The population covariance Sigma = gamma diag(lam) gamma^T, formed densely."""
    return (model.gamma * model.lam) @ model.gamma.T


class TestSignalEigenvalues:
    def test_planted_law(self):
        lam = signal_eigenvalues(500, 250, 5)
        base = 1.0 + np.sqrt(2.0)
        assert_allclose(lam[0], base + 500.0 ** (1.0 / 2.0), rtol=1e-14)
        assert_allclose(lam[4], base + 500.0 ** (1.0 / 6.0), rtol=1e-14)
        assert np.all(np.diff(lam) < 0)

    def test_smallest_signal_still_above_noise_band(self):
        lam = signal_eigenvalues(200, 250, 5)
        assert lam[-1] > 1.5  # separated from the U(0.5, 1.5) noise draws


class TestMakePopulation:
    def test_structure(self):
        model = make_population(40, 100, 4, GAUSSIAN, seed=5)
        assert_allclose(model.gamma.T @ model.gamma, np.eye(40), atol=1e-10)
        assert np.all(np.diff(model.lam) <= 0)
        noise = np.setdiff1d(model.lam, signal_eigenvalues(40, 100, 4))
        assert noise.size == 36
        assert np.all((noise > 0.5) & (noise < 1.5))

    def test_covariance_consistency(self):
        model = make_population(12, 50, 2, GAUSSIAN, seed=6)
        assert_allclose(model.gamma.T @ model.gamma, np.eye(12), atol=1e-12)
        sigma = population_sigma(model)
        assert_allclose(sigma, sigma.T, atol=1e-12)
        assert_allclose(np.sort(np.linalg.eigvalsh(sigma)), np.sort(model.lam), rtol=1e-10)

    def test_truth_basis_carries_signal(self):
        model = make_population(30, 80, 3, GAUSSIAN, seed=7)
        truth = model.truth_basis()
        sig = signal_eigenvalues(30, 80, 3)
        assert_allclose(np.sort(model.lam[:3]), np.sort(sig), rtol=1e-12)
        assert truth.shape == (30, 3)

    def test_deterministic_in_seed(self):
        a = make_population(15, 40, 2, STUDENT_T3, seed=9)
        b = make_population(15, 40, 2, STUDENT_T3, seed=9)
        c = make_population(15, 40, 2, STUDENT_T3, seed=10)
        assert np.array_equal(a.gamma, b.gamma) and np.array_equal(a.lam, b.lam)
        assert not np.array_equal(a.gamma, c.gamma)


class TestSampleData:
    def test_shapes_and_determinism(self):
        model = make_population(8, 60, 2, GAUSSIAN, seed=11)
        x1, x2 = sample_data(model), sample_data(model)
        assert x1.shape == (8, 60)
        assert np.array_equal(x1, x2)

    @pytest.mark.parametrize("dist", [GAUSSIAN, STUDENT_T3])
    @pytest.mark.parametrize("p,n", [(60, 25), (30, 30), (25, 80)])
    def test_factored_draw_matches_explicit_square_root(self, dist, p, n):
        model = make_population(p, n, 3, dist, seed=17)
        x, want = sample_data(model), dense_sample_data(model)
        assert np.linalg.norm(x - want) <= 1e-13 * np.linalg.norm(want)

    def test_gaussian_monte_carlo_covariance(self):
        model = make_population(5, 100_000, 2, GAUSSIAN, seed=12)
        x = sample_data(model)
        sigma = population_sigma(model)
        emp = x @ x.T / x.shape[1]
        rel = np.linalg.norm(emp - sigma) / np.linalg.norm(sigma)
        assert rel < 0.05
        assert np.abs(x.mean(axis=1)).max() < 4.0 * np.sqrt(model.lam[0] / x.shape[1])

    def test_t3_monte_carlo_covariance(self):
        model = make_population(4, 1_000_000, 1, STUDENT_T3, seed=13)
        x = sample_data(model)
        sigma = population_sigma(model)
        emp = x @ x.T / x.shape[1]
        rel = np.linalg.norm(emp - sigma) / np.linalg.norm(sigma)
        assert rel < 0.10

    def test_t3_tails_heavier_than_gaussian(self):
        g = make_population(3, 200_000, 1, GAUSSIAN, seed=14)
        t = make_population(3, 200_000, 1, STUDENT_T3, seed=14)
        xg, xt = sample_data(g), sample_data(t)
        # identical population; the t3 draw shares Z, so excursions beyond
        # 6 sigma come from the chi-square denominator alone
        sd = np.sqrt(np.diag(population_sigma(g)))[:, None]
        assert (np.abs(xt) > 6 * sd).mean() > 5 * (np.abs(xg) > 6 * sd).mean()


class TestSplitShards:
    def test_even_split(self):
        x = np.arange(12.0).reshape(2, 6)
        shards = split_shards(x, 3)
        assert [s.machine_id for s in shards] == [1, 2, 3]
        assert all(s.n_ell == 2 for s in shards)
        assert np.array_equal(np.concatenate([s.samples for s in shards], axis=1), x)

    def test_remainder_goes_to_last_shard(self):
        x = np.arange(14.0).reshape(2, 7)
        shards = split_shards(x, 3)
        assert [s.n_ell for s in shards] == [2, 2, 3]
        assert np.array_equal(np.concatenate([s.samples for s in shards], axis=1), x)

    def test_single_machine(self):
        x = np.ones((3, 4))
        (shard,) = split_shards(x, 1)
        assert shard.n_ell == 4 and shard.machine_id == 1


class TestRhoSimilarity:
    def test_exact_recovery(self):
        eye = np.eye(6)
        est = TruncatedEig(values=np.arange(3, 0, -1, dtype=float), vectors=eye[:, :3])
        assert rho_similarity(est, eye[:, :3]) == 1.0

    def test_orthogonal_estimate(self):
        eye = np.eye(6)
        est = TruncatedEig(values=np.ones(3), vectors=eye[:, 3:])
        assert rho_similarity(est, eye[:, :3]) == 0.0

    def test_full_basis_contains_truth(self):
        rng = np.random.default_rng(81)
        est = truncated_eig(np.eye(5), 5)
        q, _ = np.linalg.qr(rng.standard_normal((5, 2)))
        assert_allclose(rho_similarity(est, q), 1.0, rtol=1e-10)

    def test_invariant_to_rotation_within_truth_span(self):
        rng = np.random.default_rng(82)
        est = truncated_eig(np.diag(np.arange(7, 0, -1, dtype=float)), 4)
        q, _ = np.linalg.qr(rng.standard_normal((7, 3)))
        o, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        assert_allclose(rho_similarity(est, q @ o), rho_similarity(est, q), rtol=1e-10)

    def test_monotone_in_estimate_rank(self):
        rng = np.random.default_rng(83)
        model = make_population(20, 60, 3, GAUSSIAN, seed=15)
        cov = sample_data(model) @ sample_data(model).T / 60.0
        truth = model.truth_basis()
        rhos = [rho_similarity(truncated_eig(cov, k), truth) for k in range(3, 8)]
        assert all(b >= a - 1e-12 for a, b in zip(rhos, rhos[1:]))


class TestRhoCurve:
    def test_matches_rho_similarity_of_each_prefix(self):
        model = make_population(30, 90, 3, STUDENT_T3, seed=16)
        x = sample_data(model)
        block = truncated_eig(x @ x.T / 90.0, 9)
        truth = model.truth_basis()
        ks = range(3, 10)
        want = [rho_similarity(truncate_summary(block, k), truth) for k in ks]
        assert rho_curve(block, truth, ks) == want
