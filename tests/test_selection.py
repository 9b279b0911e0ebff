import numpy as np
import pytest
from numpy.testing import assert_allclose

from betadpca import (
    BetaConfig,
    CvPlan,
    InvalidInput,
    SummarySpan,
    TieWarning,
    TruncatedEig,
    beta_aggregate,
    make_folds,
    select_beta,
    truncate_summary,
)
from helpers import projection_discrepancy, rand_orthogonal, rand_summary


class TestMakeFolds:
    def test_partitions_indices(self):
        plan = make_folds(10, 5, seed=0)
        assert (plan.m, plan.k) == (10, 5)
        assert sorted(i for fold in plan.folds for i in fold) == list(range(10))
        assert all(len(f) == 2 for f in plan.folds)

    def test_balanced_sizes_on_remainder(self):
        plan = make_folds(7, 3, seed=0)
        sizes = sorted(len(f) for f in plan.folds)
        assert sizes == [2, 2, 3]

    def test_degenerates_to_leave_one_out(self):
        plan = make_folds(3, 5, seed=0)
        assert plan.k == 3
        assert all(len(f) == 1 for f in plan.folds)

    def test_seed_controls_shuffle(self):
        a = make_folds(8, 4, seed=1)
        b = make_folds(8, 4, seed=1)
        c = make_folds(8, 4, seed=2)
        assert a.folds == b.folds
        assert a.folds != c.folds

    def test_too_few_machines_or_folds(self):
        with pytest.raises(InvalidInput):
            make_folds(1, 5, seed=0)
        with pytest.raises(InvalidInput):
            make_folds(4, 1, seed=0)

    def test_plan_validation(self):
        with pytest.raises(InvalidInput):
            CvPlan(folds=((0, 1), (2, 2)), candidate_set=(1.0,))
        with pytest.raises(InvalidInput):
            CvPlan(folds=((0,), (1, 2, 3)), candidate_set=(1.0,))
        with pytest.raises(InvalidInput):
            CvPlan(folds=((0,), (1,)), candidate_set=())
        with pytest.raises(InvalidInput):
            CvPlan(folds=(), candidate_set=(1.0,))

    def test_non_finite_candidate_rejected(self):
        # the plan names the family members it scores, so it checks them as BetaConfig does
        for beta in (np.nan, np.inf):
            with pytest.raises(InvalidInput, match="finite"):
                make_folds(4, 2, seed=0, candidate_set=(1.0, beta))


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
        plan = make_folds(4, 2, seed=0)
        res = select_beta(summaries_q, summaries_r, plan, self.cfg())
        assert res.best_beta in plan.candidate_set
        assert all(v < 1e-12 for v in res.scores.values())
        assert res.per_fold.shape == (2, 3)

    @pytest.mark.parametrize("validation", ["training aggregate", "random blocks", "another machine"])
    def test_validation_blocks_must_be_leading_columns(self, validation):
        # a validation machine is the leading r columns of its own summary, read
        # from the span's coordinates; any other rank-r block is refused
        rng = np.random.default_rng(75)
        m, r = 4, 2
        summaries_q = [rand_summary(rng, 8, 4) for _ in range(m)]
        summaries_r = [truncate_summary(s, r) for s in summaries_q]
        if validation == "training aggregate":
            summaries_r[0] = beta_aggregate(summaries_q[1:], BetaConfig(beta=-1.0), r).leading
        elif validation == "random blocks":
            summaries_r = [TruncatedEig(values=np.ones(r), vectors=rand_orthogonal(rng, 8)[:, :r])
                           for _ in range(m)]
        else:
            summaries_r[0] = summaries_r[1]
        with pytest.raises(InvalidInput, match="leading r=2 columns of its machine's summary"):
            select_beta(summaries_q, summaries_r, make_folds(m, 2, seed=3), self.cfg())

    def test_duplicate_candidates_tie_to_first(self):
        rng = np.random.default_rng(76)
        summaries_q = [rand_summary(rng, 6, 3) for _ in range(3)]
        summaries_r = [truncate_summary(s, 2) for s in summaries_q]
        plan = make_folds(3, 3, seed=0, candidate_set=(1.0, 1.0))
        res = select_beta(summaries_q, summaries_r, plan, self.cfg())
        assert np.array_equal(res.per_fold[:, 0], res.per_fold[:, 1])
        assert res.best_beta == 1.0

    def test_deterministic_per_fold_matrix(self):
        rng = np.random.default_rng(77)
        summaries_q = [rand_summary(rng, 7, 4) for _ in range(5)]
        summaries_r = [truncate_summary(s, 2) for s in summaries_q]
        plan = make_folds(5, 2, seed=9)
        a = select_beta(summaries_q, summaries_r, plan, self.cfg())
        b = select_beta(summaries_q, summaries_r, plan, self.cfg())
        assert np.array_equal(a.per_fold, b.per_fold)
        assert a.best_beta == b.best_beta

    def test_span_in_place_of_summaries(self):
        rng = np.random.default_rng(78)
        summaries_q = [rand_summary(rng, 9, 3) for _ in range(4)]
        summaries_r = [truncate_summary(s, 2) for s in summaries_q]
        plan = make_folds(4, 2, seed=5)
        a = select_beta(SummarySpan.of(summaries_q), summaries_r, plan, self.cfg())
        b = select_beta(summaries_q, summaries_r, plan, self.cfg())
        assert np.array_equal(a.per_fold, b.per_fold)

    def test_rank_consistency_enforced(self):
        rng = np.random.default_rng(78)
        summaries_q = [rand_summary(rng, 6, 3) for _ in range(3)]
        summaries_r = [truncate_summary(s, 2) for s in summaries_q]
        plan = make_folds(3, 2, seed=0, r=1)  # plan says r=1, blocks have r=2
        with pytest.raises(InvalidInput):
            select_beta(summaries_q, summaries_r, plan, self.cfg())
        plan2 = make_folds(4, 2, seed=0)  # wrong machine count
        with pytest.raises(InvalidInput):
            select_beta(summaries_q, summaries_r, plan2, self.cfg())

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(86)
        summaries_q = [rand_summary(rng, 6, 3) for _ in range(3)]
        summaries_r = [truncate_summary(s, 2) for s in summaries_q]
        plan = make_folds(3, 3, seed=0)
        with pytest.raises(InvalidInput):
            select_beta(summaries_q[:2] + [rand_summary(rng, 7, 3)], summaries_r, plan, self.cfg())
        with pytest.raises(InvalidInput):
            select_beta(summaries_q, summaries_r[:2] + [rand_summary(rng, 7, 2)], plan, self.cfg())

    def test_validation_rank_must_fit_training_rank(self):
        rng = np.random.default_rng(79)
        summaries_q = [rand_summary(rng, 6, 2) for _ in range(3)]
        summaries_r = [rand_summary(rng, 6, 3) for _ in range(3)]  # r=3 > q=2
        plan = make_folds(3, 2, seed=0)
        with pytest.raises(InvalidInput):
            select_beta(summaries_q, summaries_r, plan, self.cfg())


class TestFoldTies:
    def test_span_tie_at_rank_r_warns(self):
        # each training fold is one machine with a double eigenvalue, so
        # eigenvalue r ties r + 1 inside the span: the fold is lifted and warns
        summaries = [TruncatedEig(values=np.ones(2), vectors=np.eye(4)[:, 2 * i:2 * i + 2]) for i in range(2)]
        plan = make_folds(2, 2, seed=0, candidate_set=(1.0,))
        with pytest.warns(TieWarning):
            select_beta(summaries, [truncate_summary(s, 1) for s in summaries], plan, BetaConfig(beta=1.0))
