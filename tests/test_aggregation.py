import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from betadpca import (
    AggregateResult,
    BetaConfig,
    InvalidInput,
    NotPSD,
    TieWarning,
    TruncatedEig,
    beta_aggregate,
    beta_mean,
    eig_sym,
    fan_aggregate,
    matrix_power,
    rho_similarity,
    truncated_eig,
)
from helpers import (dense_beta_sigma, dense_fan_sigma, eig2x2, projector_distance, rand_spd,
                     rand_summary)

BETAS = [-1.0, -0.5, 0.0, 0.5, 1.0, 2.0]


def e_summary(values, p, offset=0):
    """Summary whose vectors are canonical basis columns offset..offset+q-1."""
    values = np.asarray(values, dtype=float)
    return TruncatedEig(values=values, vectors=np.eye(p)[:, offset:offset + len(values)])


class TestBetaMean:
    def test_beta_one_is_arithmetic(self):
        rng = np.random.default_rng(32)
        ms = [rand_spd(rng, 6) for _ in range(4)]
        out = beta_mean(ms, BetaConfig(beta=1.0))
        assert_allclose(out, sum(ms) / 4.0, rtol=1e-10, atol=1e-12)

    def test_beta_two_non_commuting_oracle(self):
        # mean of squares of [[2,1],[1,2]] and diag(3,1) is [[7,2],[2,3]];
        # the beta=2 mean is its square root, eigenvalues sqrt(5 +- 2 sqrt 2)
        m1 = np.array([[2.0, 1.0], [1.0, 2.0]])
        m2 = np.diag([3.0, 1.0])
        out = beta_mean([m1, m2], BetaConfig(beta=2.0))
        values, vectors = eig2x2(7.0, 2.0, 3.0)
        expected = sum(np.sqrt(lam) * np.outer(v, v) for lam, v in zip(values, vectors))
        assert_allclose(out, expected, rtol=1e-12)
        got = np.sort(np.linalg.eigvalsh(out))[::-1]
        assert_allclose(got, [2.7979326519387624, 1.4736257582291966], rtol=1e-9)

    def test_harmonic_uses_delta_without_subtracting(self):
        delta = 1e-5
        out = beta_mean([np.diag([2.0, 2.0]), np.diag([4.0, 4.0])],
                        BetaConfig(beta=-1.0, delta=delta))
        expected = 1.0 / np.mean([1.0 / (2.0 + delta), 1.0 / (4.0 + delta)])
        assert_allclose(np.diag(out), [expected, expected], rtol=1e-12)

    def test_geometric_limit_diagonal(self):
        out = beta_mean([np.diag([1.0, 4.0]), np.diag([4.0, 1.0])], BetaConfig(beta=0.0))
        assert_allclose(out, 2.0 * np.eye(2), rtol=1e-10)

    @pytest.mark.parametrize("beta", [2.0, 1.0, 0.5, 0.0])
    def test_idempotent_on_copies(self, beta):
        rng = np.random.default_rng(33)
        m = rand_spd(rng, 5, lo=0.5, hi=3.0)
        out = beta_mean([m] * 4, BetaConfig(beta=beta))
        assert_allclose(out, m, rtol=1e-8, atol=1e-10)

    def test_idempotent_negative_beta_small_delta(self):
        rng = np.random.default_rng(34)
        m = rand_spd(rng, 5, lo=0.5, hi=3.0)
        out = beta_mean([m] * 3, BetaConfig(beta=-1.0, delta=1e-12))
        assert_allclose(out, m, rtol=1e-6)

    def test_small_beta_approaches_limit(self):
        rng = np.random.default_rng(35)
        ms = [rand_spd(rng, 6, lo=0.5, hi=3.0) for _ in range(3)]
        near = beta_mean(ms, BetaConfig(beta=1e-4))
        limit = beta_mean(ms, BetaConfig(beta=0.0))
        rel = np.linalg.norm(near - limit) / np.linalg.norm(limit)
        assert rel <= 1e-3

    def test_weights_default_matches_uniform(self):
        rng = np.random.default_rng(36)
        ms = [rand_spd(rng, 4) for _ in range(3)]
        cfg = BetaConfig(beta=1.0)
        assert np.array_equal(beta_mean(ms, cfg),
                              beta_mean(ms, cfg, weights=[1.0, 1.0, 1.0]))

    def test_unequal_weights_shift_result(self):
        ms = [np.eye(2), 3.0 * np.eye(2)]
        out = beta_mean(ms, BetaConfig(beta=1.0), weights=[3.0, 1.0])
        assert_allclose(out, 1.5 * np.eye(2), rtol=1e-12)

    def test_empty_input_rejected(self):
        with pytest.raises(InvalidInput):
            beta_mean([], BetaConfig(beta=1.0))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidInput):
            beta_mean([np.eye(2), np.eye(3)], BetaConfig(beta=1.0))

    @pytest.mark.parametrize("beta", BETAS)
    def test_indefinite_input_rejected(self, beta):
        with pytest.raises(NotPSD):
            beta_mean([np.diag([1.0, -0.5]), np.eye(2)], BetaConfig(beta=beta))

    @pytest.mark.parametrize("beta", BETAS)
    def test_matches_dense_oracle_on_full_decompositions(self, beta):
        # The oracle subtracts and re-adds delta^beta for beta < 0, which costs
        # it digits that beta_mean never loses; hence the looser bound there.
        rng = np.random.default_rng(37)
        p = 7
        ms = [rand_spd(rng, p, lo=0.3, hi=4.0) for _ in range(3)]
        cfg = BetaConfig(beta=beta)
        expected = dense_beta_sigma([truncated_eig(m, p) for m in ms], cfg)
        rel = np.linalg.norm(beta_mean(ms, cfg) - expected) / np.linalg.norm(expected)
        assert rel <= (1e-13 if beta >= 0 else 1e-8)


class TestBetaConfig:
    def test_rejects_bad_delta(self):
        with pytest.raises(InvalidInput):
            BetaConfig(beta=1.0, delta=0.0)


class TestBetaAggregate:
    def test_single_machine_full_rank_recovers_input(self):
        rng = np.random.default_rng(37)
        m = rand_spd(rng, 5, lo=0.5, hi=3.0)
        summary = truncated_eig(m, 5)
        res = beta_aggregate([summary], BetaConfig(beta=1.0), 2)
        assert isinstance(res, AggregateResult)
        assert res.branch == "positive"
        assert_allclose(res.sigma_beta, m, rtol=1e-9, atol=1e-11)
        assert_allclose(res.leading.values, summary.values[:2], rtol=1e-9)

    def test_commuting_positive_branch(self):
        s1 = e_summary([3.0, 2.0], p=4)
        s2 = e_summary([5.0, 4.0], p=4)
        res = beta_aggregate([s1, s2], BetaConfig(beta=1.0), 1)
        assert_allclose(res.leading.values, [4.0], rtol=1e-12)
        assert_allclose(np.abs(res.leading.vectors[:, 0]), np.eye(4)[:, 0], atol=1e-10)

    def test_negative_branch_closed_form_commuting(self):
        # same basis on both machines, p > q exercises the background term
        delta = 1e-5
        s1 = e_summary([2.0], p=3)
        s2 = e_summary([4.0], p=3)
        res = beta_aggregate([s1, s2], BetaConfig(beta=-1.0, delta=delta), 1)
        assert res.branch == "negative"
        lead = 1.0 / np.mean([1.0 / (2.0 + delta), 1.0 / (4.0 + delta)])
        assert_allclose(res.leading.values[0], lead, rtol=1e-10)
        # off-summary directions carry the delta background only
        assert_allclose(res.sigma_beta[2, 2], delta, rtol=1e-6)

    @pytest.mark.parametrize("beta", [-2.0, -1.0, -0.5])
    def test_negative_branch_matches_dense_brute_force(self, beta):
        rng = np.random.default_rng(38)
        cfg = BetaConfig(beta=beta, delta=1e-4)
        p, q, m = 12, 4, 3
        summaries = [rand_summary(rng, p, q) for _ in range(m)]
        res = beta_aggregate(summaries, cfg, 2)
        dense = [matrix_power(s.reconstruct() + cfg.delta * np.eye(p), beta)
                 for s in summaries]
        brute = matrix_power(sum(dense) / m, 1.0 / beta)
        assert_allclose(res.sigma_beta, brute, rtol=1e-8, atol=1e-10)

    def test_limit_zero_branch_floors_missing_mass(self):
        rng = np.random.default_rng(39)
        cfg = BetaConfig(beta=0.0)
        summaries = [rand_summary(rng, 6, 3) for _ in range(2)]
        res = beta_aggregate(summaries, cfg, 2)
        assert res.branch == "limit_zero"
        vals = np.linalg.eigvalsh(res.sigma_beta)
        assert vals.min() > 0  # floored log keeps the result PD

    def test_positive_branch_matches_dense_brute_force(self):
        rng = np.random.default_rng(40)
        for beta in (0.5, 1.0, 2.0):
            summaries = [rand_summary(rng, 10, 4) for _ in range(3)]
            res = beta_aggregate(summaries, BetaConfig(beta=beta), 3)
            # the dense route re-eigendecomposes rank-deficient matrices, so
            # its round-off noise is larger than the summary route's
            brute = matrix_power(
                sum(matrix_power(s.reconstruct(), beta) for s in summaries) / 3.0,
                1.0 / beta)
            assert_allclose(res.sigma_beta, brute, rtol=1e-6, atol=1e-9)

    def test_exact_tie_at_cut_warns(self):
        s1 = e_summary([1.0], p=2, offset=0)
        s2 = e_summary([1.0], p=2, offset=1)
        with pytest.warns(TieWarning):
            beta_aggregate([s1, s2], BetaConfig(beta=1.0), 1)

    def test_rank_larger_than_summary_rejected(self):
        rng = np.random.default_rng(41)
        with pytest.raises(InvalidInput):
            beta_aggregate([rand_summary(rng, 5, 2)], BetaConfig(beta=1.0), 3)

    def test_mixed_dimensions_rejected(self):
        rng = np.random.default_rng(42)
        with pytest.raises(InvalidInput):
            beta_aggregate([rand_summary(rng, 5, 2), rand_summary(rng, 6, 2)],
                           BetaConfig(beta=1.0), 1)


class TestFanAggregate:
    def test_orthogonal_bases_average_projections(self):
        s1 = e_summary([9.0], p=2, offset=0)
        s2 = e_summary([1.0], p=2, offset=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TieWarning)
            res = fan_aggregate([s1, s2])
        assert res.branch == "projection_average"
        assert_allclose(res.sigma_beta, 0.5 * np.eye(2), atol=1e-12)

    def test_overlapping_bases_oracle(self):
        # projections onto e1 and (e1+e2)/sqrt(2) average to
        # [[3/4, 1/4], [1/4, 1/4]]; top eigenpair from the 2x2 oracle
        s1 = e_summary([5.0], p=2)
        v = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
        s2 = TruncatedEig(values=np.array([2.0]), vectors=v)
        res = fan_aggregate([s1, s2])
        values, vectors = eig2x2(0.75, 0.25, 0.25)
        assert_allclose(res.leading.values, values[:1], rtol=1e-12)
        assert_allclose(res.leading.vectors[:, 0], vectors[0], rtol=1e-10)

    def test_values_ignored_by_construction(self):
        rng = np.random.default_rng(43)
        s = rand_summary(rng, 6, 3)
        rescaled = TruncatedEig(values=s.values * 7.0, vectors=s.vectors)
        a = fan_aggregate([s])
        b = fan_aggregate([rescaled])
        assert np.array_equal(a.sigma_beta, b.sigma_beta)

    def test_agrees_with_beta_mean_on_unit_spectra(self):
        # with all summary eigenvalues equal to 1 the projection average and
        # the beta=1 aggregate have the same leading subspace
        rng = np.random.default_rng(44)
        summaries = []
        for _ in range(3):
            s = rand_summary(rng, 8, 3)
            summaries.append(TruncatedEig(values=np.ones(3), vectors=s.vectors))
        a = fan_aggregate(summaries)
        b = beta_aggregate(summaries, BetaConfig(beta=1.0), 3)
        rho = rho_similarity(a.leading, b.leading.vectors)
        assert rho > 1.0 - 1e-8


def assert_leading_matches(block, sigma, tol=1e-12):
    """Leading values (relative) and leading projector agree with the dense sigma."""
    dense = eig_sym(sigma)
    k = block.q
    assert_allclose(block.values, dense.values[:k], rtol=tol, atol=0)
    assert projector_distance(block.vectors, dense.vectors[:, :k]) <= tol


class TestSpanMatchesDenseOracle:
    """The span path against the dense p x p formulas in helpers."""

    @pytest.mark.parametrize("beta", BETAS)
    def test_random_summaries(self, beta):
        rng = np.random.default_rng(45)
        summaries = [rand_summary(rng, 20, 4) for _ in range(3)]
        cfg = BetaConfig(beta=beta)
        res = beta_aggregate(summaries, cfg, 3)
        assert res.span_vectors.shape == (20, 12)
        assert_leading_matches(res.leading, dense_beta_sigma(summaries, cfg))

    @pytest.mark.parametrize("beta", BETAS)
    def test_rank_deficient_stack(self, beta):
        # the third machine repeats the first one's directions with other values
        rng = np.random.default_rng(46)
        summaries = [rand_summary(rng, 16, 4) for _ in range(2)]
        summaries.append(TruncatedEig(values=summaries[1].values, vectors=summaries[0].vectors))
        cfg = BetaConfig(beta=beta)
        res = beta_aggregate(summaries, cfg, 3)
        assert res.span_vectors.shape == (16, 8)
        assert_leading_matches(res.leading, dense_beta_sigma(summaries, cfg))

    @pytest.mark.parametrize("beta", BETAS)
    def test_top_beyond_span_rank(self, beta):
        rng = np.random.default_rng(47)
        summaries = [rand_summary(rng, 12, 3) for _ in range(2)]
        cfg = BetaConfig(beta=beta)
        res = beta_aggregate(summaries, cfg, 2)
        k = 9  # beyond the six span directions
        top = res.top(k)
        dense = eig_sym(dense_beta_sigma(summaries, cfg))
        comp = top.values == res.complement_value
        assert comp.sum() >= k - 6
        assert_allclose(top.values[~comp], dense.values[:k][~comp], rtol=1e-12, atol=0)
        # a fractional root of round-off leaves the dense complement near sqrt(eps)
        assert_allclose(top.values[comp], dense.values[:k][comp], rtol=1e-12, atol=1e-7 * dense.values[0])
        assert projector_distance(top.vectors[:, ~comp], dense.vectors[:, :k][:, ~comp]) <= 1e-12
        assert_allclose(top.vectors.T @ top.vectors, np.eye(k), rtol=0, atol=1e-14)
        stacked = np.hstack([s.vectors for s in summaries])
        assert np.abs(stacked.T @ top.vectors[:, comp]).max() <= 1e-14
        # top(j) is a prefix of top(k), and leading is top(r)
        assert np.array_equal(res.top(2).vectors, top.vectors[:, :2])
        assert np.array_equal(res.leading.values, top.values[:2])

    def test_limit_zero_sub_unit_spectra_full_spectrum(self):
        # every summary value is below 1, so the complement (eigenvalue 1)
        # outranks the whole span and the leading block lies outside it
        rng = np.random.default_rng(48)
        summaries = [rand_summary(rng, 10, 2, lo=0.05, hi=0.9) for _ in range(3)]
        cfg = BetaConfig(beta=0.0)
        with pytest.warns(TieWarning):
            res = beta_aggregate(summaries, cfg, 2)
        dense = dense_beta_sigma(summaries, cfg)
        full = np.sort(np.linalg.eigvalsh(res.sigma_beta))[::-1]
        want = np.sort(np.linalg.eigvalsh(dense))[::-1]
        assert want[0] == pytest.approx(1.0)
        assert_allclose(full, want, rtol=1e-12, atol=0)
        assert np.array_equal(res.leading.values, [1.0, 1.0])
        stacked = np.hstack([s.vectors for s in summaries])
        assert np.abs(stacked.T @ res.leading.vectors).max() <= 1e-14

    @pytest.mark.parametrize("beta", BETAS)
    def test_sigma_beta_matches_dense_matrix(self, beta):
        rng = np.random.default_rng(49)
        summaries = [rand_summary(rng, 9, 3) for _ in range(2)]
        cfg = BetaConfig(beta=beta)
        dense = dense_beta_sigma(summaries, cfg)
        sigma = beta_aggregate(summaries, cfg, 2).sigma_beta
        assert np.array_equal(sigma, sigma.T)
        # beta > 1 takes a fractional root of the dense complement's round-off
        assert_allclose(sigma, dense, rtol=0, atol=1e-12 * np.abs(dense).max() + (1e-7 if beta > 1 else 0.0))

    def test_fan_aggregate(self):
        rng = np.random.default_rng(50)
        summaries = [rand_summary(rng, 15, 3) for _ in range(4)]
        res = fan_aggregate(summaries)
        dense = dense_fan_sigma(summaries)
        assert_leading_matches(res.leading, dense)
        assert res.complement_value == 0.0
        assert_allclose(res.sigma_beta, dense, rtol=0, atol=1e-14)
