"""Cross-validated choice of beta.

Machines (not samples) are partitioned into folds.  For each fold, training
machines are aggregated at rank r for every candidate beta, and the mismatch
against each validation machine's own rank-r projection is averaged.  The
candidate with the smallest mean mismatch wins; ties go to the earlier
candidate in the declared order.  Every aggregation runs in one basis of all
machines' summaries, taken once per call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .aggregation import BetaConfig, _span_aggregate, branch_transform, span_basis
from .errors import InvalidInput
from .local_pca import TruncatedEig
from .rngs import FOLDS, stream

DEFAULT_CANDIDATES = (-1.0, 0.0, 1.0)


@dataclass(frozen=True)
class CvPlan:
    """Fold assignment over machine indices 0..m-1 plus the candidate betas."""

    m: int
    k: int
    folds: tuple[tuple[int, ...], ...]
    candidate_set: tuple[float, ...]
    r: int | None = None
    q: int | None = None

    def __post_init__(self):
        seen = [i for fold in self.folds for i in fold]
        if sorted(seen) != list(range(self.m)):
            raise InvalidInput("folds must partition the machine indices 0..m-1")
        sizes = [len(f) for f in self.folds]
        if len(self.folds) != self.k or min(sizes) < 1 or max(sizes) - min(sizes) > 1:
            raise InvalidInput("fold sizes must be balanced (differ by at most 1)")
        if not self.candidate_set:
            raise InvalidInput("candidate_set must be non-empty")


def make_folds(m: int, k: int, seed: int, *, candidate_set: Sequence[float] = DEFAULT_CANDIDATES,
               r: int | None = None, q: int | None = None) -> CvPlan:
    """Shuffle machine indices with the plan seed, then chunk contiguously.

    With m <= k the plan degenerates to leave-one-out (k becomes m).
    """
    if m < 2:
        raise InvalidInput("cross-validation needs at least two machines")
    if k < 2:
        raise InvalidInput("need at least two folds")
    k_eff = min(k, m)
    perm = stream(seed, FOLDS).permutation(m)
    folds = tuple(tuple(int(i) for i in chunk) for chunk in np.array_split(perm, k_eff))
    return CvPlan(m=m, k=k_eff, folds=folds, candidate_set=tuple(float(b) for b in candidate_set), r=r, q=q)


@dataclass(frozen=True, eq=False)
class CvResult:
    """Mean mismatch per candidate, the winner, and the per-fold breakdown."""

    scores: dict[float, float]
    best_beta: float
    per_fold: np.ndarray  # (k, n_candidates)


def select_beta(summaries_q: Sequence[TruncatedEig], summaries_r: Sequence[TruncatedEig],
                plan: CvPlan, cfg_template: BetaConfig) -> CvResult:
    """Run the fold loop and pick the best beta.

    summaries_q feed the training-side aggregation; summaries_r are the
    validation machines' own rank-r projections and are the only thing the
    validation side looks at.
    """
    if len(summaries_q) != plan.m or len(summaries_r) != plan.m:
        raise InvalidInput(f"plan covers {plan.m} machines, got {len(summaries_q)}/{len(summaries_r)}")
    r = summaries_r[0].q
    if any(s.q != r for s in summaries_r):
        raise InvalidInput("validation summaries differ in rank")
    if plan.r is not None and plan.r != r:
        raise InvalidInput(f"plan expects rank r={plan.r}, validation summaries have {r}")
    p, q = summaries_q[0].p, summaries_q[0].q
    if any(s.p != p or s.q != q for s in summaries_q):
        raise InvalidInput("training summaries differ in p or q")
    if any(s.p != p for s in summaries_r):
        raise InvalidInput("validation summaries differ from the training summaries in p")
    if plan.q is not None and plan.q != q:
        raise InvalidInput(f"plan expects rank q={plan.q}, training summaries have {q}")
    if r > q:
        raise InvalidInput(f"validation rank r={r} exceeds training rank q={q}")

    candidates = plan.candidate_set
    transforms = [branch_transform(replace(cfg_template, beta=b)) for b in candidates]
    # Every training span lies in the span of all m summaries, so one basis of
    # it serves every fold (the range-finder view of Halko, Martinsson & Tropp
    # 2011): a fold only takes the small SVD of its machines' coordinates.
    basis, coords = span_basis(np.hstack([s.vectors for s in summaries_q]), p)
    per_fold = np.zeros((plan.k, len(candidates)))
    for j, fold in enumerate(plan.folds):
        train = [i for i in range(plan.m) if i not in fold]
        sub, sub_coords = span_basis(np.hstack([coords[:, i * q:(i + 1) * q] for i in train]), p)
        fold_basis = basis @ sub
        values = [summaries_q[i].values for i in train]
        held = np.hstack([summaries_r[i].vectors for i in fold])
        for bi, transform in enumerate(transforms):
            lead = _span_aggregate(fold_basis, sub_coords, values, transform, r, None).leading.vectors
            # ||P_lead - P_i||_F^2 = 2 ||V_i - P_lead V_i||_F^2 for orthonormal rank-r
            # blocks; this residual form keeps round-off squared, where
            # |A^T A|^2 - 2 |A^T B|^2 + |B^T B|^2 cancels to ~1e-16.
            resid = held - lead @ (lead.T @ held)
            per_fold[j, bi] = 2.0 * float(np.sum(resid * resid)) / len(fold)
    scores = per_fold.mean(axis=0)
    best = candidates[int(np.argmin(scores))]  # argmin takes the first minimum
    return CvResult(
        scores={b: float(s) for b, s in zip(candidates, scores)},
        best_beta=best,
        per_fold=per_fold,
    )
