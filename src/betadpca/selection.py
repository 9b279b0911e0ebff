"""Cross-validated choice of beta.

Machines (not samples) are partitioned into folds.  For each fold, training
machines are aggregated at rank r for every candidate beta, and the mismatch
against each validation machine's own leading rank-r block is averaged.  The
candidate with the smallest mean mismatch wins; ties go to the earlier
candidate in the declared order.  Every aggregation runs in one basis of all
machines' summaries (a SummarySpan), which the caller may share with the
final aggregate at the winning beta, and every fold is scored in that basis's
coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .aggregation import BetaConfig, SpanCore, SummarySpan, branch_transform, finite_beta, span_basis
from .errors import InvalidInput
from .local_pca import TruncatedEig
from .rngs import FOLDS, stream

DEFAULT_CANDIDATES = (-1.0, 0.0, 1.0)


@dataclass(frozen=True)
class CvPlan:
    """Fold assignment over machine indices 0..m-1 plus the candidate betas;
    the folds fix the machine count m and the fold count k.  The ranks r and
    q, when given, need 1 <= r <= q."""

    folds: tuple[tuple[int, ...], ...]
    candidate_set: tuple[float, ...]
    r: int | None = None
    q: int | None = None

    def __post_init__(self):
        if sorted(i for fold in self.folds for i in fold) != list(range(self.m)):
            raise InvalidInput("folds must partition the machine indices 0..m-1")
        sizes = [len(f) for f in self.folds]
        if min(sizes, default=0) < 1 or max(sizes) - min(sizes) > 1:
            raise InvalidInput("fold sizes must be balanced (differ by at most 1)")
        if not self.candidate_set:
            raise InvalidInput("candidate_set must be non-empty")
        for b in self.candidate_set:
            finite_beta(b)
        ranks = [x for x in (1, self.r, self.q) if x is not None]
        if ranks != sorted(ranks):
            raise InvalidInput(f"need 1 <= r <= q, got r={self.r}, q={self.q}")

    @property
    def m(self) -> int:
        return sum(len(f) for f in self.folds)

    @property
    def k(self) -> int:
        return len(self.folds)


def make_folds(m: int, k: int, seed: int, *, candidate_set: Sequence[float] = DEFAULT_CANDIDATES,
               r: int | None = None, q: int | None = None) -> CvPlan:
    """Shuffle machine indices with the plan seed, then chunk contiguously.

    With m <= k the plan degenerates to leave-one-out (k becomes m).
    """
    if m < 2:
        raise InvalidInput("cross-validation needs at least two machines")
    if k < 2:
        raise InvalidInput("need at least two folds")
    perm = stream(seed, FOLDS).permutation(m)
    folds = tuple(tuple(int(i) for i in chunk) for chunk in np.array_split(perm, min(k, m)))
    return CvPlan(folds=folds, candidate_set=tuple(float(b) for b in candidate_set), r=r, q=q)


@dataclass(frozen=True, eq=False)
class CvResult:
    """Mean mismatch per candidate, the winner, and the per-fold breakdown."""

    scores: dict[float, float]
    best_beta: float
    per_fold: np.ndarray  # (k, n_candidates)


def select_beta(summaries_q: Sequence[TruncatedEig] | SummarySpan, summaries_r: Sequence[TruncatedEig],
                plan: CvPlan, cfg_template: BetaConfig) -> CvResult:
    """Run the fold loop and pick the best beta.

    summaries_q feed the training-side aggregation, given as the summaries or
    as their SummarySpan.  summaries_r[i] must be the leading r columns of
    summaries_q[i] (truncate_summary): a validation machine is represented by
    its own rank-r block, and any other block raises InvalidInput.

    Every training span lies in the span Q (p x K) of all m summaries, so
    that one basis serves every fold (the range-finder view of Halko,
    Martinsson & Tropp 2011): a fold only takes the small SVD of its machines'
    coordinates, and is scored in them.  A validation block lies in Q too, so
    its coordinates are columns of the span's coords and the loop does no
    p-row work.  Only a fold whose leading block needs complement directions,
    or ties at rank r (TieWarning), is lifted to R^p.
    """
    span = SummarySpan.of(summaries_q)
    summaries_q = span.summaries
    if len(summaries_q) != plan.m or len(summaries_r) != plan.m:
        raise InvalidInput(f"plan covers {plan.m} machines, got {len(summaries_q)}/{len(summaries_r)}")
    r = summaries_r[0].q
    if plan.r is not None and plan.r != r:
        raise InvalidInput(f"plan expects rank r={plan.r}, validation summaries have {r}")
    p, q = summaries_q[0].p, summaries_q[0].q
    if plan.q is not None and plan.q != q:
        raise InvalidInput(f"plan expects rank q={plan.q}, training summaries have {q}")
    if not all(np.array_equal(v.vectors, s.vectors[:, :r]) for v, s in zip(summaries_r, summaries_q)):
        raise InvalidInput(f"each validation summary must be the leading r={r} columns of its machine's summary")

    candidates = plan.candidate_set
    transforms = [branch_transform(b, cfg_template.delta) for b in candidates]
    per_fold = np.zeros((plan.k, len(candidates)))
    for j, fold in enumerate(plan.folds):
        train = [i for i in range(plan.m) if i not in fold]
        sub, sub_coords = span_basis(np.hstack([span.coords[:, i * q:(i + 1) * q] for i in train]), p)
        train_spectra = [summaries_q[i].values for i in train]
        fold_c = np.hstack([span.coords[:, i * q:i * q + r] for i in fold])
        for bi, transform in enumerate(transforms):
            core = SpanCore.solve(train_spectra, sub_coords, transform)
            lead_c = core.leading_coords(p, r)
            if lead_c is None:
                lead = core.lift(span.basis @ sub, r).leading.vectors
                mismatch = _residual_sq(np.hstack([summaries_r[i].vectors for i in fold]), lead)
            else:
                mismatch = _residual_sq(fold_c, sub @ lead_c)
            per_fold[j, bi] = 2.0 * mismatch / len(fold)
    scores = per_fold.mean(axis=0)
    best = candidates[int(np.argmin(scores))]  # argmin takes the first minimum
    return CvResult(
        scores={b: float(s) for b, s in zip(candidates, scores)},
        best_beta=best,
        per_fold=per_fold,
    )


def _residual_sq(held: np.ndarray, lead: np.ndarray) -> float:
    # ||P_lead - P_i||_F^2 = 2 ||V_i - P_lead V_i||_F^2 for orthonormal rank-r
    # blocks; this residual form keeps round-off squared, where
    # |A^T A|^2 - 2 |A^T B|^2 + |B^T B|^2 cancels to ~1e-16.
    res = held - lead @ (lead.T @ held)
    return float(np.sum(res * res))
