import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from betadpca import (
    BetaConfig,
    CvPlan,
    InvalidInput,
    TieWarning,
    TruncatedEig,
    beta_aggregate,
    make_folds,
    select_beta,
    truncate_summary,
)
from helpers import fold_loop_per_fold, projection_discrepancy, rand_orthogonal, rand_summary


class TestMakeFolds:
    def test_partitions_indices(self):
        plan = make_folds(10, 5, seed=0)
        assert plan.k == 5
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
            CvPlan(m=4, k=2, folds=((0, 1), (2, 2)), candidate_set=(1.0,))
        with pytest.raises(InvalidInput):
            CvPlan(m=4, k=2, folds=((0,), (1, 2, 3)), candidate_set=(1.0,))
        with pytest.raises(InvalidInput):
            CvPlan(m=2, k=2, folds=((0,), (1,)), candidate_set=())


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

    def test_validation_side_reads_rank_r_summaries(self):
        # craft validation blocks equal to the beta=-1 training aggregate for
        # each fold: that candidate must then win with score ~0
        rng = np.random.default_rng(75)
        m, r = 4, 2
        summaries_q = [rand_summary(rng, 8, 4) for _ in range(m)]
        plan = make_folds(m, 2, seed=3, candidate_set=(1.0, 0.0, -1.0))
        summaries_r: list = [None] * m
        for fold in plan.folds:
            train = [summaries_q[i] for i in range(m) if i not in fold]
            agg = beta_aggregate(train, BetaConfig(beta=-1.0, delta=1e-5), r)
            for i in fold:
                summaries_r[i] = agg.leading
        res = select_beta(summaries_q, summaries_r, plan, self.cfg())
        assert res.best_beta == -1.0
        assert res.scores[-1.0] < 1e-20
        assert res.scores[1.0] > 1e-6

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


BETAS = (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0)


class TestFoldLoopMatchesOracle:
    """select_beta's shared-span fold loop against one beta_aggregate per fold
    and candidate (helpers.fold_loop_per_fold): 1e-12 absolute for beta >= 0;
    1e-8 for beta < 0, where both sides carry the delta^beta shift."""

    def check(self, summaries_q, summaries_r, folds):
        plan = make_folds(len(summaries_q), folds, seed=0, candidate_set=BETAS)
        cfg = BetaConfig(beta=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TieWarning)
            got = select_beta(summaries_q, summaries_r, plan, cfg).per_fold
            want = fold_loop_per_fold(summaries_q, summaries_r, plan, cfg)
        for bi, beta in enumerate(BETAS):
            assert_allclose(got[:, bi], want[:, bi], rtol=0, atol=1e-12 if beta >= 0 else 1e-8)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_summaries(self, seed):
        rng = np.random.default_rng([80, seed])
        summaries = [rand_summary(rng, 14, 3) for _ in range(5)]
        self.check(summaries, [truncate_summary(s, 2) for s in summaries], folds=3)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("p, values", [
        (16, [[0.8, 0.5, 0.2]] * 4),  # complement directions fill the leading block
        (10, [[0.8, 0.5, 0.2]] * 4),  # one complement direction, then span values
        (16, [[3.0, 0.3, 0.2]] * 2 + [[0.8, 0.3, 0.2]] * 2),  # span values, then complement
    ])
    def test_limit_zero_complement_enters_leading_block(self, seed, p, values):
        # at beta = 0 the complement has eigenvalue 1, above sub-unit span values
        rng = np.random.default_rng([81, seed])
        summaries = [TruncatedEig(values=np.array(v), vectors=rand_orthogonal(rng, p)[:, :3]) for v in values]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TieWarning)
            agg = beta_aggregate(summaries[1:], BetaConfig(beta=0.0), 3)
        assert 1.0 in agg.leading.values
        self.check(summaries, [truncate_summary(s, 3) for s in summaries], folds=4)

    def test_limit_zero_tie_warns(self):
        rng = np.random.default_rng(82)
        summaries = [rand_summary(rng, 10, 3, lo=0.05, hi=0.9) for _ in range(3)]
        plan = make_folds(3, 3, seed=0, candidate_set=(0.0,))
        with pytest.warns(TieWarning):
            select_beta(summaries, [truncate_summary(s, 2) for s in summaries], plan, BetaConfig(beta=0.0))

    @pytest.mark.parametrize("seed", range(4))
    def test_machines_sharing_directions(self, seed):
        # machine 1 repeats machine 0's directions; machine 2 shares two of them
        rng = np.random.default_rng([83, seed])
        summaries = [rand_summary(rng, 12, 4) for _ in range(5)]
        summaries[1] = TruncatedEig(values=summaries[1].values, vectors=summaries[0].vectors)
        mixed, _ = np.linalg.qr(np.hstack([summaries[0].vectors[:, :2], rng.standard_normal((12, 2))]))
        summaries[2] = TruncatedEig(values=summaries[2].values, vectors=mixed)
        assert np.linalg.matrix_rank(np.hstack([s.vectors for s in summaries])) < 20
        self.check(summaries, [truncate_summary(s, 2) for s in summaries], folds=2)

    @pytest.mark.parametrize("seed", range(4))
    def test_one_machine_training_folds(self, seed):
        rng = np.random.default_rng([84, seed])
        summaries = [rand_summary(rng, 9, 4) for _ in range(2)]
        self.check(summaries, [truncate_summary(s, 2) for s in summaries], folds=2)

    @pytest.mark.parametrize("seed", range(4))
    def test_validation_blocks_outside_the_span(self, seed):
        rng = np.random.default_rng([85, seed])
        summaries = [rand_summary(rng, 30, 3) for _ in range(4)]
        validations = [TruncatedEig(values=np.ones(2), vectors=rand_orthogonal(rng, 30)[:, :2])
                       for _ in range(4)]
        self.check(summaries, validations, folds=2)
