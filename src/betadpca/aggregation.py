"""Coordinator-side aggregation: the matrix beta-mean over local truncated
eigendecompositions and the projection-averaging baseline.  Every beta branch
is one entry of the branch-transform table (branch_transform), which both the
dense beta_mean and summary aggregation apply.

Summary aggregation never forms a p x p matrix: every branch is a fixed value
outside the span of the summaries, so one eigensolve of a k x k core
(k <= total summary rank) gives the result in factored form (AggregateResult),
at O(p (m q)^2) for m machines of rank q.  _span_aggregate takes the basis
as an argument, so the CV fold loop solves every fold inside one basis of all
machines' summaries.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidInput, NotPSD, TieWarning
from .linalg import (EIGEN_FLOOR, PSD_TOL, canonical_order, complete_basis, eig_sym, matrix_function,
                     spectral_map, spectral_power, symmetrize, thin_svd)
from .local_pca import TruncatedEig


@dataclass(frozen=True)
class BetaConfig:
    """Aggregator knobs.

    beta selects the branch (0 means the geometric-mean limit), delta
    regularizes the beta < 0 branch.  Round-off ahead of logs and negative
    powers is absorbed at linalg.EIGEN_FLOOR.
    """

    beta: float
    delta: float = 1e-5

    def __post_init__(self):
        if not np.isfinite(self.beta):
            raise InvalidInput(f"beta must be finite, got {self.beta}")
        if not self.delta > 0:
            raise InvalidInput("delta must be positive")


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


def _normalized_weights(count: int, weights) -> np.ndarray:
    if weights is None:
        return np.full(count, 1.0 / count)
    w = np.asarray(weights, dtype=float)
    if w.shape != (count,) or not np.isfinite(w).all() or (w <= 0).any():
        raise InvalidInput(f"weights must be {count} positive finite numbers")
    return w / w.sum()


def beta_mean(inputs: Sequence, cfg: BetaConfig, weights=None) -> np.ndarray:
    """Matrix beta-mean of PSD matrices: inverse( sum_l w_l forward(M_l) ), with
    the maps of branch_transform(cfg) applied spectrally.

    beta > 0:  { mean(M_l^beta) }^(1/beta)
    beta = 0:  exp( mean(log M_l) )          (geometric / log-Euclidean limit)
    beta < 0:  { mean((M_l + delta I)^beta) }^(1/beta), no delta subtracted after

    An input with an eigenvalue below -PSD_TOL raises NotPSD for every beta;
    round-off negatives above it are clipped to 0.  The beta = 0 branch floors
    eigenvalues at EIGEN_FLOOR before the log.
    """
    systems = [eig_sym(m) for m in inputs]
    if not systems:
        raise InvalidInput("need at least one input matrix")
    p = systems[0].values.size
    if any(es.values.size != p for es in systems):
        raise InvalidInput("input matrices differ in dimension")
    w = _normalized_weights(len(systems), weights)
    transform = branch_transform(cfg)
    acc = np.zeros((p, p))
    for wl, es in zip(w, systems):
        if es.values[-1] < -PSD_TOL:
            raise NotPSD(f"input eigenvalue {es.values[-1]:.17g} is below -{PSD_TOL:g}")
        acc += wl * (es.vectors * transform.forward(np.clip(es.values, 0.0, None))) @ es.vectors.T
    return matrix_function(acc, transform.inverse)


def _validated_summaries(summaries: Sequence[TruncatedEig]):
    if not summaries:
        raise InvalidInput("need at least one local summary")
    p, q = summaries[0].p, summaries[0].q
    for s in summaries:
        if s.p != p or s.q != q:
            raise InvalidInput("local summaries differ in p or q")
    return p, q


@dataclass(frozen=True)
class BranchTransform:
    """One aggregation branch as maps on eigenvalues.

    forward maps a summary's eigenvalues into the averaging space; complement
    is the value that space gives every direction outside the summary; inverse
    maps eigenvalues of the average back, with the floor and PSD-window clamps
    of linalg's spectral_power (the beta = 0 inverse, exp, needs none).
    """

    name: str
    forward: Callable[[np.ndarray], np.ndarray]
    complement: float
    inverse: Callable[[np.ndarray], np.ndarray]


def branch_transform(cfg: BetaConfig) -> BranchTransform:
    """The table entry for cfg.beta (see beta_aggregate for the formulas)."""
    b = cfg.beta
    if b > 0:
        return BranchTransform("positive", lambda v: v ** b, 0.0, lambda g: spectral_power(g, 1.0 / b))
    if b == 0:
        return BranchTransform("limit_zero", lambda v: np.log(np.where(v < EIGEN_FLOOR, EIGEN_FLOOR, v)),
                               0.0, lambda g: spectral_map(g, np.exp))
    return BranchTransform("negative", lambda v: (v + cfg.delta) ** b, cfg.delta ** b,
                           lambda g: spectral_power(g, 1.0 / b))


PROJECTION_AVERAGE = BranchTransform("projection_average", np.ones_like, 0.0, lambda g: g)


def _top_layout(values: np.ndarray, complement: float, p: int, k: int) -> tuple[slice, int, slice]:
    # The top k of the full spectrum: span values `first` (those >= complement),
    # then `n_comp` complement directions, then span values `rest`.
    if not 1 <= k <= p:
        raise InvalidInput(f"need 1 <= k <= p={p}, got k={k}")
    above = int(np.count_nonzero(values >= complement))
    head = min(k, above)
    n_comp = min(k - head, p - values.size)
    return slice(0, head), n_comp, slice(above, above + k - head - n_comp)


def _top_values(values: np.ndarray, complement: float, layout) -> np.ndarray:
    first, n_comp, rest = layout
    return np.concatenate([values[first], np.full(n_comp, complement), values[rest]])


def _top_block(values: np.ndarray, vectors: np.ndarray, complement: float, k: int) -> TruncatedEig:
    layout = _top_layout(values, complement, vectors.shape[0], k)
    first, n_comp, rest = layout
    top_vectors = np.hstack([vectors[:, first], complete_basis(vectors, n_comp), vectors[:, rest]])
    return TruncatedEig(values=np.clip(_top_values(values, complement, layout), 0.0, None),
                        vectors=top_vectors)


def _warn_on_tie(values: np.ndarray, complement: float, p: int, r: int) -> None:
    if r >= p:
        return
    top = _top_values(values, complement, _top_layout(values, complement, p, r + 1))
    if top[r - 1] == top[r]:
        warnings.warn(
            f"eigenvalues {r} and {r + 1} of the aggregate coincide "
            f"({top[r - 1]:.17g}); ordering uses the deterministic tie-break",
            TieWarning,
            stacklevel=4,
        )


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


def _span_aggregate(basis: np.ndarray, coords: np.ndarray, values: Sequence[np.ndarray],
                    transform: BranchTransform, r: int, weights,
                    beta_used: float | None = None) -> AggregateResult:
    """Sigma = inverse( sum_l w_l transform(M_l) ) for summaries given in an
    orthonormal p x k basis Q: V_l = Q B_l, coords = [B_1 ... B_m] (from
    span_basis) and values = [lam_1 ... lam_m].

    beta_aggregate and fan_aggregate pass Q = span_basis([V_1 ... V_m]), so
    machines sharing directions give k < sum q_l.  The only eigensolve is of
    the k x k core

        C = sum_l w_l B_l diag(forward(lam_l) - c) B_l^T + c I,

    since the average equals Q C Q^T + c (I - Q Q^T).  Cost O(p k^2).
    """
    p, k = basis.shape
    w = _normalized_weights(len(values), weights)
    c = transform.complement
    scale = np.concatenate([wl * (transform.forward(v) - c) for wl, v in zip(w, values)])
    core = eig_sym((coords * scale) @ coords.T + c * np.eye(k))
    span_values, vectors = canonical_order(transform.inverse(core.values), basis @ core.vectors)
    complement = float(transform.inverse(np.array([c]))[0])
    _warn_on_tie(span_values, complement, p, r)
    return AggregateResult(span_values=span_values, span_vectors=vectors, complement_value=complement,
                           leading=_top_block(span_values, vectors, complement, r),
                           branch=transform.name, beta_used=beta_used)


def beta_aggregate(summaries: Sequence[TruncatedEig], cfg: BetaConfig, r: int, weights=None) -> AggregateResult:
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
    order, so callers with machine ids sort first.
    """
    p, q = _validated_summaries(summaries)
    if not 1 <= r <= q:
        raise InvalidInput(f"need 1 <= r <= q={q}, got r={r}")
    basis, coords = span_basis(np.hstack([s.vectors for s in summaries]), p)
    return _span_aggregate(basis, coords, [s.values for s in summaries], branch_transform(cfg), r, weights,
                           beta_used=cfg.beta)


def fan_aggregate(summaries: Sequence[TruncatedEig], weights=None) -> AggregateResult:
    """Aggregate by averaging the rank-r projection matrices V_l V_l^T.

    Eigenvalue weights are discarded entirely; the summaries must already be
    truncated at the target rank r (their common q).  Computed in the span of
    the summaries like beta_aggregate, with forward map 1 and complement 0.
    """
    p, r = _validated_summaries(summaries)
    basis, coords = span_basis(np.hstack([s.vectors for s in summaries]), p)
    return _span_aggregate(basis, coords, [s.values for s in summaries], PROJECTION_AVERAGE, r, weights)
