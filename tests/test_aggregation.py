import contextlib
import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from betadpca import (
    BetaConfig,
    InvalidInput,
    NotPSD,
    PrecisionWarning,
    SummarySpan,
    TieWarning,
    TruncatedEig,
    beta_aggregate,
    beta_mean,
    eig_sym,
    fan_aggregate,
    local_summary,
    rho_similarity,
    split_shards,
    truncated_eig,
)
from betadpca.aggregation import branch_transform
from helpers import dense_beta_sigma, e_summary, eig2x2, rand_orthogonal, rand_spd, rand_summary, rotated_rank_two

BETAS = [-1.0, -0.5, 0.0, 0.5, 1.0, 2.0]


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

    @pytest.mark.parametrize("scale", [1e7, 1e9, 1e12])
    @pytest.mark.parametrize("beta", [2.0, 1.0, 0.5, 0.0, -1.0])
    def test_rank_deficient_input_is_psd_at_any_scale(self, beta, scale):
        # a round-off negative grows with the scale (-2.2e-9 at 1e7); the PSD rule grows with it
        m = rotated_rank_two(scale)
        assert eig_sym(m).values[-1] < -1e-10
        # at beta = -1 the eigenvalue 1e12 lies beyond the precision floor delta / eps ~ 4.5e10
        lost = beta < 0 and scale > 1e11
        with pytest.warns(PrecisionWarning, match="precision floor") if lost else contextlib.nullcontext():
            out = beta_mean([m, m], BetaConfig(beta=beta))
        assert np.isfinite(out).all()
        if beta > 0:  # the mean of M with itself is M; its null space holds only round-off
            assert_allclose(eig_sym(out).values[:2], [scale, scale / 10], rtol=1e-12)

    @pytest.mark.parametrize("beta", BETAS)
    def test_matches_dense_oracle_on_full_decompositions(self, beta):
        rng = np.random.default_rng(37)
        p = 7
        ms = [rand_spd(rng, p, lo=0.3, hi=4.0) for _ in range(3)]
        cfg = BetaConfig(beta=beta)
        expected = dense_beta_sigma([truncated_eig(m, p) for m in ms], cfg)
        rel = np.linalg.norm(beta_mean(ms, cfg) - expected) / np.linalg.norm(expected)
        assert rel <= 1e-13

    @pytest.mark.parametrize("beta", [-0.5, 0.0, 0.5, 1.0])
    def test_matches_dense_oracle_on_rank_deficient_sets(self, beta):
        # 1 to 4 inputs of dimension 2 to 8 and rank 1..p, nonzero eigenvalues in [e^-3, e^3]; the
        # oracle reads the exact spectra, so an input's round-off of 0 must come back as 0.  At beta < 0
        # both sides also carry the delta^beta floor: the average's eigenvalues run from about
        # (e^3)^beta to delta^beta, and a 50-digit reference puts the oracle itself 1.3e-12 off on seed 91
        cfg = BetaConfig(beta=beta)
        floor = 8 * np.finfo(float).eps * (np.exp(3.0) / cfg.delta) ** -beta if beta < 0 else 0.0
        for seed in range(100):
            rng = np.random.default_rng([39, seed])
            p, inputs = int(rng.integers(2, 9)), []
            for _ in range(int(rng.integers(1, 5))):
                lam = np.sort(np.exp(rng.uniform(-3.0, 3.0, p)))[::-1]
                lam[int(rng.integers(1, p + 1)):] = 0.0
                inputs.append(TruncatedEig(values=lam, vectors=rand_orthogonal(rng, p)))
            expected = dense_beta_sigma(inputs, cfg)
            got = beta_mean([(s.vectors * s.values) @ s.vectors.T for s in inputs], cfg)
            assert np.linalg.norm(got - expected) <= (1e-12 + floor) * np.linalg.norm(expected), seed

    def test_common_null_direction_stays_zero(self):
        # both rank-one inputs vanish on (2, -1, 1); at beta = 2 the core's round-off there
        # would come back as its square root, ~sqrt(eps) * lambda_max
        ms = [np.outer(v, v) for v in ([1.0, 2.0, 0.0], [0.0, 1.0, 1.0])]
        values = eig_sym(beta_mean(ms, BetaConfig(beta=2.0))).values
        assert abs(values[-1]) <= 1e-12 * values[0]

    def test_wide_spectrum_at_negative_beta(self):
        # 1e7^-2 = 1e-14 is no round-off: a matrix averaged with itself comes
        # back as given, plus the delta that the beta < 0 branch keeps
        cfg = BetaConfig(beta=-2.0)
        out = beta_mean([np.diag([1e7, 1e6])] * 2, cfg)
        assert_allclose(out, np.diag([1e7, 1e6]) + cfg.delta * np.eye(2), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("beta", [-2.0] + BETAS)
    def test_scale_equivariant(self, beta):
        # scaling the inputs and delta by c scales the mean by c
        rng = np.random.default_rng(38)
        ms = [rand_spd(rng, 5) for _ in range(3)]
        ref = beta_mean(ms, BetaConfig(beta=beta))
        for c in (1e-6, 1e6, 1e9):
            got = beta_mean([c * m for m in ms], BetaConfig(beta=beta, delta=c * 1e-5))
            assert_allclose(got / c, ref, rtol=0, atol=1e-13 * np.abs(ref).max())


class TestBranchTransform:
    @pytest.mark.parametrize("beta", [-2.0, 0.0, 0.5])
    def test_positive_shift_maps_have_no_window(self, beta):
        # the inverse undoes the forward map at any scale; only the beta = 0
        # log floors a value below EIGEN_FLOOR, and beta < 0 adds the shift
        t = branch_transform(beta, 1e-5)
        x = np.array([1e-20, 1.0, 1e20])
        want = {-2.0: x + 1e-5, 0.0: np.array([1e-12, 1.0, 1e20]), 0.5: x}[beta]
        assert_allclose(t.inverse(t.forward(x)), want, rtol=1e-13)

    def test_inverse_within_clips_into_the_hull(self):
        t = branch_transform(2.0, 1e-5)
        got = t.inverse_within(np.array([-1e-3, 4.0, 25.0 + 1e-9]), np.array([0.0, 4.0, 25.0]))
        assert np.array_equal(got, [0.0, 2.0, 5.0])


class TestBetaConfig:
    @pytest.mark.parametrize("beta, delta, message", [
        *((1.0, delta, "delta must be positive and finite") for delta in (0.0, np.inf, np.nan)),
        # delta^beta overflows, or underflows to 0: branch_transform's rule
        *((-2.0, delta, f"delta^beta must be a positive, finite float, got delta={delta}, beta=-2.0")
          for delta in (1e-200, 1e200))])
    def test_rejects_bad_delta(self, beta, delta, message):
        with pytest.raises(InvalidInput, match=re.escape(message)):
            BetaConfig(beta=beta, delta=delta)


class TestBetaAggregate:
    def test_exact_tie_at_cut_warns(self):
        s1 = e_summary([1.0], p=2, offset=0)
        s2 = e_summary([1.0], p=2, offset=1)
        with pytest.warns(TieWarning):
            beta_aggregate([s1, s2], BetaConfig(beta=1.0), 1)

    @pytest.mark.parametrize("beta", [0.5, 1.5, 2.0, 3.0])
    def test_rank_padded_summaries_scale(self, beta):
        # the oracle table's rank-padded layout: q = 5 exceeds each shard's 3 samples, so every summary
        # ends in exact zeros, and the span (K = 10) holds 6 nonzero values at any scale; at beta = 2 a
        # root of the core's round-off would leave 2.0e-7, 1.2e-7 and 6.0e-8 there (lambda_max 13.8)
        shards = split_shards(np.random.default_rng(41).standard_normal((40, 6)), 2)
        base = [local_summary(s, 5) for s in shards]
        ref = beta_aggregate(base, BetaConfig(beta=beta), 3).leading.values
        for c in (1e-6, 1.0, 1e6, 1e9):
            scaled = [TruncatedEig(values=c * s.values, vectors=s.vectors) for s in base]
            got = beta_aggregate(scaled, BetaConfig(beta=beta), 3)
            assert_allclose(got.leading.values, c * ref, rtol=1e-13, atol=0)
            assert got.span_values.size == 10 and (got.span_values[:6] > 0).all()
            assert (got.span_values[6:] == 0.0).all()

    def test_wide_spectrum_at_negative_beta(self):
        # both summaries span the whole basis (k == q), so no delta^beta = 1e10
        # shift swamps the forward values 1e-14 and 1e-12: the dense mean comes back
        cfg = BetaConfig(beta=-2.0)
        s = e_summary([1e7, 1e6], p=3)
        res = beta_aggregate([s, s], cfg, 2)
        assert_allclose(res.span_values, np.array([1e7, 1e6]) + cfg.delta, rtol=1e-12, atol=0)
        # the dense mean's eigenvalue 0 has forward value delta^-2 = 1e10, which swamps 1e-14
        with pytest.warns(PrecisionWarning, match="precision floor"):
            dense = beta_mean([np.diag([1e7, 1e6, 0.0])] * 2, cfg)
        assert_allclose(res.sigma_beta, dense, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("summaries", [
        # the summaries share e2 but span three directions (k > q): the shift delta^-2 = 1e10
        [e_summary([1e7, 1e6], p=4), TruncatedEig(values=np.array([1e7, 1e6]), vectors=np.eye(4)[:, [2, 1]])],
        # both summaries span the basis (k == q), but the eigenvalue 0 has forward value delta^-2
        [e_summary([1e7, 0.0], p=4)] * 2], ids=["k > q", "k == q, an eigenvalue 0"])
    def test_wide_spectrum_beyond_the_floor_warns(self, summaries):
        # 1e10 in the core swamps the forward value 1e-14 of the eigenvalue 1e7,
        # which lies above the floor delta * eps^(-1/2) ~ 671
        with pytest.warns(PrecisionWarning, match="precision floor"), warnings.catch_warnings():
            warnings.simplefilter("ignore", TieWarning)
            beta_aggregate(summaries, BetaConfig(beta=-2.0), 2)

    def test_span_in_place_of_summaries(self):
        rng = np.random.default_rng(42)
        summaries = [rand_summary(rng, 10, 3) for _ in range(3)]
        span = SummarySpan.of(summaries)
        assert SummarySpan.of(span) is span
        for beta in (-1.0, 0.0, 0.5):
            a = beta_aggregate(span, BetaConfig(beta=beta), 2)
            b = beta_aggregate(summaries, BetaConfig(beta=beta), 2)
            assert np.array_equal(a.span_values, b.span_values)
            assert np.array_equal(a.span_vectors, b.span_vectors)

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
