import numpy as np
import pytest
from numpy.testing import assert_allclose

from betadpca import (
    BetaConfig,
    InvalidInput,
    SummarySpan,
    TieWarning,
    TruncatedEig,
    make_folds,
    select_beta,
    truncate_summary,
)
from helpers import projection_discrepancy, rand_summary


class TestMakeFolds:
    def test_partitions_indices(self):
        plan = make_folds(10, 5, seed=0, r=1, q=2)
        assert (plan.m, plan.k) == (10, 5)
        assert sorted(i for fold in plan.folds for i in fold) == list(range(10))
        assert all(len(f) == 2 for f in plan.folds)

    def test_balanced_sizes_on_remainder(self):
        plan = make_folds(7, 3, seed=0, r=1, q=2)
        sizes = sorted(len(f) for f in plan.folds)
        assert sizes == [2, 2, 3]

    def test_degenerates_to_leave_one_out(self):
        plan = make_folds(3, 5, seed=0, r=1, q=2)
        assert plan.k == 3
        assert all(len(f) == 1 for f in plan.folds)

    def test_seed_controls_shuffle(self):
        a = make_folds(8, 4, seed=1, r=1, q=2)
        b = make_folds(8, 4, seed=1, r=1, q=2)
        c = make_folds(8, 4, seed=2, r=1, q=2)
        assert a.folds == b.folds
        assert a.folds != c.folds


class TestProjectionDiscrepancy:
    def test_identical_bases(self):
        s = rand_summary(np.random.default_rng(71), 6, 3)
        assert projection_discrepancy(s, s) == 0.0

    def test_orthogonal_bases(self):
        eye = np.eye(10)
        a = TruncatedEig(values=np.ones(5), vectors=eye[:, :5])
        b = TruncatedEig(values=np.ones(5), vectors=eye[:, 5:])
        # disjoint projections: ||P_a - P_b||_F^2 = 2 r
        assert_allclose(projection_discrepancy(a, b), 10.0, rtol=1e-12)

    def test_half_overlap_oracle(self):
        a = TruncatedEig(values=np.ones(1), vectors=np.eye(2)[:, :1])
        v = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
        b = TruncatedEig(values=np.ones(1), vectors=v)
        # tr(P_a) + tr(P_b) - 2 tr(P_a P_b) = 1 + 1 - 2 * 1/2 = 1
        assert_allclose(projection_discrepancy(a, b), 1.0, rtol=1e-12)

    def test_symmetric_and_basis_invariant(self):
        rng = np.random.default_rng(72)
        a, b = rand_summary(rng, 7, 3), rand_summary(rng, 7, 3)
        assert_allclose(projection_discrepancy(a, b), projection_discrepancy(b, a), rtol=1e-12)
        # rotating a basis within its span leaves the projection unchanged
        qmat, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        rotated = TruncatedEig(values=np.ones(3), vectors=a.vectors @ qmat)
        assert_allclose(projection_discrepancy(rotated, b),
                        projection_discrepancy(a, b), rtol=1e-9, atol=1e-12)

    def test_matches_dense_projector_difference(self):
        rng = np.random.default_rng(74)
        for _ in range(5):
            a, b = rand_summary(rng, 12, 4), rand_summary(rng, 12, 4)
            diff = a.vectors @ a.vectors.T - b.vectors @ b.vectors.T
            assert_allclose(projection_discrepancy(a, b), np.sum(diff * diff), rtol=1e-12)

    def test_rank_mismatch_rejected(self):
        rng = np.random.default_rng(73)
        with pytest.raises(InvalidInput):
            projection_discrepancy(rand_summary(rng, 6, 2), rand_summary(rng, 6, 3))


class TestSelectBeta:
    def cfg(self):
        return BetaConfig(beta=1.0, delta=1e-5)

    def test_identical_machines_score_zero(self):
        rng = np.random.default_rng(74)
        s = rand_summary(rng, 8, 4)
        summaries_q = [s] * 4
        summaries_r = [truncate_summary(s, 2)] * 4
        plan = make_folds(4, 2, seed=0, r=2, q=4)
        res = select_beta(summaries_q, summaries_r, plan, self.cfg())
        assert res.best_beta in plan.candidate_set
        assert all(v < 1e-12 for v in res.scores.values())
        assert res.per_fold.shape == (2, 3)

    def test_duplicate_candidates_tie_to_first(self):
        rng = np.random.default_rng(76)
        summaries_q = [rand_summary(rng, 6, 3) for _ in range(3)]
        summaries_r = [truncate_summary(s, 2) for s in summaries_q]
        plan = make_folds(3, 3, seed=0, candidate_set=(1.0, 1.0), r=2, q=3)
        res = select_beta(summaries_q, summaries_r, plan, self.cfg())
        assert np.array_equal(res.per_fold[:, 0], res.per_fold[:, 1])
        assert res.best_beta == 1.0

    def test_deterministic_per_fold_matrix(self):
        rng = np.random.default_rng(77)
        summaries_q = [rand_summary(rng, 7, 4) for _ in range(5)]
        summaries_r = [truncate_summary(s, 2) for s in summaries_q]
        plan = make_folds(5, 2, seed=9, r=2, q=4)
        a = select_beta(summaries_q, summaries_r, plan, self.cfg())
        b = select_beta(summaries_q, summaries_r, plan, self.cfg())
        assert np.array_equal(a.per_fold, b.per_fold)
        assert a.best_beta == b.best_beta

    def test_span_in_place_of_summaries(self):
        rng = np.random.default_rng(78)
        summaries_q = [rand_summary(rng, 9, 3) for _ in range(4)]
        summaries_r = [truncate_summary(s, 2) for s in summaries_q]
        plan = make_folds(4, 2, seed=5, r=2, q=3)
        a = select_beta(SummarySpan.of(summaries_q), summaries_r, plan, self.cfg())
        b = select_beta(summaries_q, summaries_r, plan, self.cfg())
        assert np.array_equal(a.per_fold, b.per_fold)


class TestFoldTies:
    def test_span_tie_at_rank_r_warns(self):
        # each training fold is one machine with a double eigenvalue, so
        # eigenvalue r ties r + 1 inside the span: the fold is lifted and warns
        summaries = [TruncatedEig(values=np.ones(2), vectors=np.eye(4)[:, 2 * i:2 * i + 2]) for i in range(2)]
        plan = make_folds(2, 2, seed=0, candidate_set=(1.0,), r=1, q=2)
        with pytest.warns(TieWarning):
            select_beta(summaries, [truncate_summary(s, 1) for s in summaries], plan, BetaConfig(beta=1.0))
