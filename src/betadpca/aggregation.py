"""Coordinator-side aggregation: the matrix beta-mean over local truncated
eigendecompositions and the projection-averaging baseline.  Every beta branch
is one entry of the branch-transform table (branch_transform), and one solve
(SpanCore.solve) applies it: summary aggregation in a span's basis, the dense
beta_mean in the identity basis.

Summary aggregation never forms a p x p matrix: every branch is a fixed value
outside the span of the summaries, so one eigensolve of a k x k core
(k <= total summary rank) gives the result in factored form (AggregateResult),
at O(p (m q)^2) for m machines of rank q.  SpanCore.solve works in the
coordinates of a SummarySpan's basis, so one basis of all machines' summaries
serves every beta and every CV fold; SpanCore.lift maps a solve into R^p.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidInput, PrecisionWarning, TieWarning
from .linalg import EIGEN_FLOOR, canonical_order, eig_sym, psd_eig, spectral_map, symmetrize, thin_svd
from .local_pca import TruncatedEig, _top_block, _top_layout, _top_values


def finite_beta(beta) -> float:
    """beta as a float; a non-finite beta names no member of the family."""
    b = float(beta)
    if not np.isfinite(b):
        raise InvalidInput(f"beta must be finite, got {b}")
    return b


@dataclass(frozen=True)
class BetaConfig:
    """Aggregator knobs.

    beta selects the branch (0 means the geometric-mean limit), delta (positive and finite)
    regularizes the beta < 0 branch; JobSpec, ExperimentSpec and the CLI read delta's default
    and its rule from here, and branch_transform checks delta^beta at this beta.  Round-off is
    handled by the hull rule of BranchTransform.inverse_within, at any scale.  At beta < 0 an eigenvalue
    above about delta * eps^(1/beta) is not resolved (see beta_aggregate, which warns).
    """

    beta: float
    delta: float = 1e-5

    def __post_init__(self):
        if not 0 < self.delta < np.inf:
            raise InvalidInput(f"delta must be positive and finite, got {self.delta}")
        branch_transform(finite_beta(self.beta), self.delta)


@dataclass(frozen=True, eq=False)
class AggregateResult:
    """Aggregated covariance estimate in factored form, plus its leading block.

    Every branch acts as a fixed value outside the span of the summaries, so

        sigma_beta = span_vectors diag(span_values) span_vectors^T
                     + complement_value (I - span_vectors span_vectors^T).

    span_vectors (p x k, k <= total summary rank) are eigenvectors of
    sigma_beta in linalg's sign/tie convention with span_values
    non-increasing; every direction orthogonal to them has eigenvalue
    complement_value.  The p x p sigma_beta is built only when read.
    `leading` is top(r).  branch records which formula was used; the
    optional fields carry protocol metadata from a coordinator round.
    """

    span_values: np.ndarray
    span_vectors: np.ndarray
    complement_value: float
    leading: TruncatedEig
    branch: str  # "positive" | "limit_zero" | "negative" | "projection_average"
    beta_used: float | None = None
    cv: object | None = None
    missing: tuple[int, ...] = ()

    @cached_property
    def sigma_beta(self) -> np.ndarray:
        """The dense p x p estimate, formed on first access (O(p^2 k) time, O(p^2) memory)."""
        v, c = self.span_vectors, self.complement_value
        sigma = (v * (self.span_values - c)) @ v.T
        sigma[np.diag_indices_from(sigma)] += c
        return symmetrize(sigma)

    def top(self, k: int) -> TruncatedEig:
        """Top-k eigenpairs of sigma_beta without forming it; k may exceed the span rank.

        Span values at or above complement_value come first, then complement
        directions (complete_basis of the span, in its deterministic order),
        then the remaining span values.  top(j) is a prefix of top(k) for j < k.
        """
        return _top_block(self.span_values, self.span_vectors, self.complement_value, k)


def beta_mean(inputs: Sequence, cfg: BetaConfig) -> np.ndarray:
    """Matrix beta-mean of m PSD matrices, the paper's uniform inverse( (1/m) sum_l forward(M_l) ),
    with the maps of branch_transform(cfg.beta, cfg.delta) applied spectrally.

    beta > 0:  { mean(M_l^beta) }^(1/beta)
    beta = 0:  exp( mean(log M_l) )          (geometric / log-Euclidean limit)
    beta < 0:  { mean((M_l + delta I)^beta) }^(1/beta), no delta subtracted after

    An input that is not PSD up to its own round-off raises NotPSD for every
    beta (linalg.psd_eig), and its round-off of 0 is exactly 0.  Each input's
    full eigensystem is a rank-p summary in the identity basis, so the mean is
    SpanCore.solve's with no SVD and no shift, and it warns (PrecisionWarning)
    where it loses digits, as summary aggregation does.
    """
    systems = [psd_eig(m) for m in inputs]
    if not systems:
        raise InvalidInput("need at least one input matrix")
    if any(es.values.size != systems[0].values.size for es in systems):
        raise InvalidInput("input matrices differ in dimension")
    summaries = [TruncatedEig(values=es.values, vectors=es.vectors) for es in systems]
    core = SpanCore.solve(summaries, np.hstack([es.vectors for es in systems]), branch_transform(cfg.beta, cfg.delta))
    return symmetrize((core.vectors * core.values) @ core.vectors.T)


@dataclass(frozen=True)
class BranchTransform:
    """One aggregation branch as maps on eigenvalues.

    forward maps a summary's eigenvalues into the averaging space; complement
    is the value that space gives every direction outside the summary; inverse
    maps eigenvalues of the average back.  The maps are the plain power, log
    and exp: they hold no round-off window.
    """

    name: str
    forward: Callable[[np.ndarray], np.ndarray]
    complement: float
    inverse: Callable[[np.ndarray], np.ndarray]

    def inverse_within(self, values, hull) -> np.ndarray:
        """inverse(values) after clipping values into [min(hull), max(hull)].

        The hull rule: the eigenvalues of a weighted mean of symmetric matrices
        lie between the smallest and the largest eigenvalue of its terms
        (Weyl), so with `hull` the forward values that were averaged, anything
        outside is the eigensolve's round-off.  The bound is exact and
        scale-free.  A non-finite result raises DomainError.
        """
        hull = np.asarray(hull, dtype=float)
        return spectral_map(np.clip(values, hull.min(), hull.max()), self.inverse)


def branch_transform(b: float, shift: float) -> BranchTransform:
    """The table entry for beta = b (see beta_aggregate for the formulas).

    shift is the delta that the beta < 0 entry adds to every eigenvalue.  A
    positive shift goes with PSD inputs: the beta = 0 log then floors zero
    eigenvalues at EIGEN_FLOOR, as the formula defines it.  Shift 0 declares
    the inputs positive definite: the log is plain, and the beta < 0 entry's
    complement 0^b = inf is never evaluated; a positive shift's shift^b must be a positive,
    finite float (InvalidInput otherwise).  Callers that eigensolve an average apply the
    inverse through BranchTransform.inverse_within.
    """
    if b > 0:
        return BranchTransform("positive", lambda v: v ** b, 0.0, lambda g: np.power(g, 1.0 / b))
    if b == 0:
        log = (lambda v: np.log(np.where(v < EIGEN_FLOOR, EIGEN_FLOOR, v))) if shift > 0 else np.log
        return BranchTransform("limit_zero", log, 0.0, np.exp)
    with np.errstate(over="ignore"):
        complement = float(np.float64(shift) ** b) if shift > 0 else np.inf
    if shift > 0 and not 0 < complement < np.inf:
        raise InvalidInput(f"delta^beta must be a positive, finite float, got delta={shift}, beta={b}")
    return BranchTransform("negative", lambda v: (v + shift) ** b, complement, lambda g: np.power(g, 1.0 / b))


PROJECTION_AVERAGE = BranchTransform("projection_average", np.ones_like, 0.0, lambda g: g)


def _tie_at(values: np.ndarray, complement: float, p: int, r: int) -> float | None:
    # The eigenvalue that places r and r + 1 of the full spectrum share, or None
    # when the rank-r boundary is strict; values are sorted non-increasing.
    if r >= p:
        return None
    top = _top_values(values, complement, _top_layout(values, complement, p, r + 1))
    return float(top[r - 1]) if top[r - 1] == top[r] else None


def span_basis(stacked: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis of the columns of `stacked`, and the columns' coordinates in it.

    A rank-revealing thin SVD: singular values at or below
    sv[0] * max(p, columns) * eps count as zero, so machines sharing directions
    give fewer basis columns than summary columns.  p is the ambient dimension:
    the row count of summary vectors, or the p of the larger orthonormal basis
    whose coordinates `stacked` holds, so the rank is the one the columns have
    in R^p.
    """
    u, sv, vt = thin_svd(stacked)
    k = int(np.count_nonzero(sv > sv[0] * max(p, stacked.shape[1]) * np.finfo(float).eps))
    return u[:, :k], sv[:k, None] * vt[:k]


@dataclass(frozen=True, eq=False)
class SummarySpan:
    """Summaries V_l diag(lam_l) V_l^T given in an orthonormal p x k basis Q:
    V_l = Q B_l with coords = [B_1 ... B_m].

    SummarySpan.of takes Q = span_basis([V_1 ... V_m]), the one p-row SVD an
    aggregation needs; every beta, and every CV fold, then reuses it.
    """

    summaries: tuple[TruncatedEig, ...]
    basis: np.ndarray   # (p, k), orthonormal columns
    coords: np.ndarray  # (k, sum of the summaries' ranks)

    @classmethod
    def of(cls, summaries: Sequence[TruncatedEig] | SummarySpan) -> "SummarySpan":
        """The span of the summaries; a SummarySpan is returned unchanged."""
        if isinstance(summaries, SummarySpan):
            return summaries
        if not summaries:
            raise InvalidInput("need at least one local summary")
        p, q = summaries[0].p, summaries[0].q
        if any(s.p != p or s.q != q for s in summaries):
            raise InvalidInput("local summaries differ in p or q")
        basis, coords = span_basis(np.hstack([s.vectors for s in summaries]), p)
        return cls(tuple(summaries), basis, coords)

    @property
    def q(self) -> int:
        return self.summaries[0].q


@dataclass(frozen=True, eq=False)
class SpanCore:
    """One aggregation solved in the coordinates of its span's basis Q (p x k).

    sigma_beta = Q vectors diag(values) vectors^T Q^T + complement (I - Q Q^T):
    `vectors` (k x k) are the core's eigenvectors in eig_sym's order, and
    `values` their eigenvalues after the inverse map, in the same order (for
    beta < 0 the inverse reverses it).  lift puts them in R^p; leading_coords
    reads the top r without leaving the span's coordinates.
    """

    values: np.ndarray
    vectors: np.ndarray
    complement: float
    branch: str

    @classmethod
    def solve(cls, summaries: Sequence[TruncatedEig], coords: np.ndarray,
              transform: BranchTransform) -> "SpanCore":
        """Sigma = inverse( (1/m) sum_l transform(M_l) ) for the m summaries V_l = Q B_l,
        coords = [B_1 ... B_m].

        The only eigensolve is of the k x k core

            C = (1/m) sum_l B_l diag(forward(lam_l) - s) B_l^T + s I,

        since the average equals Q C Q^T + c (I - Q Q^T).  s = c, except when every
        summary spans the basis (k == q): no term then has a complement direction
        in it, and s = 0 keeps forward values far below c.  A forward value below
        eps * max(|s|, largest forward value) is lost in the core's round-off; on the
        negative branch that is the beta < 0 precision floor (see beta_aggregate),
        and one PrecisionWarning says so.  On the positive and projection-average
        branches C averages PSD terms (s = c = 0), so psd_eig solves it: a core value
        within its round-off of 0 is exactly 0, not a root of round-off after the
        inverse.  Cost O(k^2 m q + k^3).
        """
        k = coords.shape[0]
        w = 1.0 / len(summaries)
        c = transform.complement
        shift = c if k > summaries[0].q else 0.0
        forward = np.concatenate([transform.forward(s.values) for s in summaries])
        scale = max(abs(shift), forward.max())
        if transform.name == "negative" and forward.min() < np.finfo(float).eps * scale:
            warnings.warn(
                f"forward values down to {forward.min():.3g} lie below the round-off of the core's "
                f"scale {scale:.3g}; span eigenvalues beyond the beta < 0 precision floor are not resolved",
                PrecisionWarning,
                stacklevel=3,
            )
        weights = w * (forward - shift)
        eigensolve = psd_eig if transform.name in ("positive", "projection_average") else eig_sym
        core = eigensolve((coords * weights) @ coords.T + shift * np.eye(k))
        # the complement is a term's eigenvalue too, so it bounds the hull
        return cls(values=transform.inverse_within(core.values, np.append(forward, c)), vectors=core.vectors,
                   complement=float(transform.inverse(np.array([c]))[0]), branch=transform.name)

    def lift(self, basis: np.ndarray, r: int, beta_used: float | None = None) -> AggregateResult:
        """The AggregateResult in R^p, for the span's p x k basis; O(p k^2).

        Eigenpairs take linalg's sign/tie convention, and the leading block takes
        complement directions where the spectrum needs them.  A tie between
        eigenvalues r and r + 1 warns (TieWarning).
        """
        p = basis.shape[0]
        span_values, vectors = canonical_order(self.values, basis @ self.vectors)
        tied = _tie_at(span_values, self.complement, p, r)
        if tied is not None:
            warnings.warn(
                f"eigenvalues {r} and {r + 1} of the aggregate coincide "
                f"({tied:.17g}); ordering uses the deterministic tie-break",
                TieWarning,
                stacklevel=3,
            )
        return AggregateResult(span_values=span_values, span_vectors=vectors, complement_value=self.complement,
                               leading=_top_block(span_values, vectors, self.complement, r),
                               branch=self.branch, beta_used=beta_used)

    def leading_coords(self, p: int, r: int) -> np.ndarray | None:
        """An orthonormal basis (k x r) of the leading block's span, in the span's
        coordinates, or None when only lift can name the block: a complement
        direction enters the top r, or eigenvalue r ties eigenvalue r + 1.

        The columns' order and signs are the core's, not linalg's convention;
        the projector they give is the leading block's.  p is the ambient dimension.
        """
        order = np.argsort(-self.values, kind="stable")
        values = self.values[order]
        if _top_layout(values, self.complement, p, r)[1] or _tie_at(values, self.complement, p, r) is not None:
            return None
        return self.vectors[:, order[:r]]


def beta_aggregate(summaries: Sequence[TruncatedEig] | SummarySpan, cfg: BetaConfig, r: int) -> AggregateResult:
    """Aggregate local rank-q summaries into Sigma_beta and take its top-r block.

    With M_l = V_l diag(lam_l) V_l^T machine l's rank-q reconstruction:

    beta > 0:  Sigma = { mean(V_l lam_l^beta V_l^T) }^(1/beta)
    beta = 0:  Sigma = exp( mean(V_l log(lam_l) V_l^T) ), lam_l floored at EIGEN_FLOOR
    beta < 0:  Sigma = { mean((M_l + delta I)^beta) }^(1/beta), with the term
               computed in closed form as
               V_l ((lam_l + delta)^beta - delta^beta) V_l^T + delta^beta I.

    Outside the span of the summaries Sigma therefore has eigenvalue 0
    (beta > 0), 1 (beta = 0) or delta (beta < 0).  The result is computed in
    that span (see AggregateResult) in O(p (m q)^2); summation runs in list
    order, so callers with machine ids sort first.  A SummarySpan may be passed
    in place of the summaries, so several aggregations share one basis.
    At beta < 0 a span eigenvalue above about delta * eps^(1/beta) is lost in the
    round-off of sums holding delta^beta (the dense beta_mean too): ~671 at beta = -2
    and ~4.5e10 at beta = -1 for delta = 1e-5, far above the paper's signal (~25).
    Where that loss happens, PrecisionWarning says so: delta^beta enters the core as
    its shift when the span is wider than one summary, and as a forward value when
    a summary eigenvalue is 0.
    """
    span = SummarySpan.of(summaries)
    if not 1 <= r <= span.q:
        raise InvalidInput(f"need 1 <= r <= q={span.q}, got r={r}")
    return SpanCore.solve(span.summaries, span.coords, branch_transform(cfg.beta, cfg.delta)).lift(
        span.basis, r, beta_used=cfg.beta)


def fan_aggregate(summaries: Sequence[TruncatedEig]) -> AggregateResult:
    """Aggregate by averaging the rank-r projection matrices V_l V_l^T.

    Eigenvalue weights are discarded entirely; the summaries must already be
    truncated at the target rank r (their common q).  Computed in the span of
    the summaries like beta_aggregate, with forward map 1 and complement 0.
    """
    span = SummarySpan.of(summaries)
    return SpanCore.solve(span.summaries, span.coords, PROJECTION_AVERAGE).lift(span.basis, span.q)
