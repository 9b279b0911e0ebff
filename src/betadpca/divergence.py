"""The matrix beta-divergence family on PSD matrices, its two limiting cases
(von Neumann at beta -> 0, log-determinant at beta -> -1), and a numerical
check that the matrix beta-mean minimizes the averaged divergence.

Unlike the aggregation module, nothing here floors eigenvalues silently: a
slot that needs a log or an inverse raises DomainError when the spectrum dips
below the floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .aggregation import BetaConfig, beta_mean
from .errors import DomainError, InvalidInput
from .linalg import EIGEN_FLOOR, PSD_TOL, eig_sym, symmetrize
from .rngs import MINIMIZER, stream

BETA = "beta"
VON_NEUMANN = "von_neumann"
LOG_DET = "log_det"


@dataclass(frozen=True)
class DivergenceKind:
    """Which member of the divergence family: a finite beta or one of the limits."""

    name: str
    beta: float | None = None

    def __post_init__(self):
        if self.name not in (BETA, VON_NEUMANN, LOG_DET):
            raise InvalidInput(f"unknown divergence kind {self.name!r}")
        if self.name == BETA:
            if self.beta is None:
                raise InvalidInput("kind 'beta' needs a beta value")
            if self.beta in (0.0, -1.0):
                raise InvalidInput("beta 0 and -1 are the von_neumann / log_det limits")
        elif self.beta is not None:
            raise InvalidInput(f"kind {self.name!r} takes no beta value")


def as_kind(kind) -> DivergenceKind:
    """Coerce a number or name into a DivergenceKind.

    The floats 0 and -1 map to the von Neumann / log-det limits they converge
    to, so cfg.beta values can be passed straight through.
    """
    if isinstance(kind, DivergenceKind):
        return kind
    if isinstance(kind, str):
        return DivergenceKind(kind)
    b = float(kind)
    if b == 0.0:
        return DivergenceKind(VON_NEUMANN)
    if b == -1.0:
        return DivergenceKind(LOG_DET)
    return DivergenceKind(BETA, b)


def _spectrum(m, need_pd: bool, floor: float, side: str):
    es = eig_sym(m)
    vals = es.values
    if need_pd:
        if vals.min() < floor:
            raise DomainError(
                f"{side} must be positive definite here; eigenvalue {vals.min():.17g} < {floor:g}"
            )
    else:
        if vals.min() < -PSD_TOL:
            raise DomainError(f"{side} must be PSD; eigenvalue {vals.min():.17g}")
        vals = np.clip(vals, 0.0, None)
    return vals, es.vectors


def generating_value(m, kind, *, floor: float = EIGEN_FLOOR) -> float:
    """The strictly convex generating functional behind the divergence.

    beta:         tr(M^(beta+1) - (beta+1) M + beta I) / (beta (beta+1))
    von_neumann:  tr(M log M - M) + p
    log_det:      -log det M + tr M - p
    """
    k = as_kind(kind)
    if k.name == BETA:
        b = k.beta
        vals, _ = _spectrum(m, need_pd=b < -1, floor=floor, side="M")
        return float(np.sum(vals ** (b + 1) - (b + 1) * vals + b) / (b * (b + 1)))
    vals, _ = _spectrum(m, need_pd=True, floor=floor, side="M")
    if k.name == VON_NEUMANN:
        return float(np.sum(vals * np.log(vals) - vals) + vals.size)
    return float(-np.log(vals).sum() + vals.sum() - vals.size)


def divergence(m1, m2, kind, *, floor: float = EIGEN_FLOOR) -> float:
    """Matrix beta-divergence D(M1, M2); M1 plays the data slot, M2 the model.

    beta:         tr(M1^(b+1) + b M2^(b+1) - (b+1) M2^b M1) / (b (b+1))
    von_neumann:  tr(M1 (log M1 - log M2) - M1 + M2)
    log_det:      tr(M1 M2^-1) - log det(M1 M2^-1) - p

    Positive definiteness is required wherever a log, inverse, or negative
    power lands: M2 for any beta < 0 and both limits, M1 for beta < -1 and
    both limits.
    """
    a = symmetrize(m1)
    b2 = symmetrize(m2)
    if a.shape != b2.shape:
        raise InvalidInput("matrices differ in dimension")
    k = as_kind(kind)
    p = a.shape[0]
    if k.name == BETA:
        b = k.beta
        vals1, _ = _spectrum(a, need_pd=b < -1, floor=floor, side="M1")
        vals2, vecs2 = _spectrum(b2, need_pd=b < 0, floor=floor, side="M2")
        t1 = np.sum(vals1 ** (b + 1))
        t2 = np.sum(vals2 ** (b + 1))
        m2_pow = (vecs2 * vals2 ** b) @ vecs2.T
        cross = np.sum(m2_pow * a)  # tr(M2^b M1) for symmetric factors
        return float((t1 + b * t2 - (b + 1) * cross) / (b * (b + 1)))
    vals1, vecs1 = _spectrum(a, need_pd=True, floor=floor, side="M1")
    vals2, vecs2 = _spectrum(b2, need_pd=True, floor=floor, side="M2")
    if k.name == VON_NEUMANN:
        log2 = (vecs2 * np.log(vals2)) @ vecs2.T
        return float(np.sum(vals1 * np.log(vals1)) - np.sum(log2 * a) - vals1.sum() + vals2.sum())
    inv2 = (vecs2 / vals2) @ vecs2.T
    return float(np.sum(inv2 * a) - (np.log(vals1).sum() - np.log(vals2).sum()) - p)


@dataclass(frozen=True, eq=False)
class MinimizerReport:
    """Margins J(center + E) - J(center) over random symmetric perturbations E."""

    center: np.ndarray
    objective_at_center: float
    margins: np.ndarray
    min_margin: float
    all_nonnegative: bool


def verify_minimizer(inputs: Sequence, cfg: BetaConfig, trials: int, noise_scale: float,
                     seed: int = 0) -> MinimizerReport:
    """Check numerically that the beta-mean minimizes the averaged divergence.

    The objective is J(M) = mean_l D(M, M_l) with the divergence matching
    cfg.beta (limits included).  For beta < 0 the mean is computed from the
    delta-regularized inputs, so J is measured against M_l + delta I as well;
    that keeps the computed mean the exact stationary point.  Perturbations
    are random symmetric matrices of Frobenius norm noise_scale.  This is
    evidence, not proof.
    """
    if trials < 1:
        raise InvalidInput("need at least one trial")
    if not noise_scale > 0:
        raise InvalidInput("noise_scale must be positive")
    kind = as_kind(cfg.beta)
    center = beta_mean(inputs, cfg)  # validates the inputs
    p = center.shape[0]
    shift = cfg.delta * np.eye(p) if cfg.beta < 0 else 0.0
    targets = [symmetrize(m) + shift for m in inputs]

    def objective(candidate: np.ndarray) -> float:
        return float(np.mean([divergence(candidate, t, kind) for t in targets]))

    j0 = objective(center)
    rng = stream(seed, MINIMIZER)
    margins = np.empty(trials)
    for t in range(trials):
        e = rng.standard_normal((p, p))
        e = (e + e.T) / 2.0
        e *= noise_scale / np.linalg.norm(e)
        margins[t] = objective(center + e) - j0
    return MinimizerReport(
        center=center,
        objective_at_center=j0,
        margins=margins,
        min_margin=float(margins.min()),
        all_nonnegative=bool(margins.min() >= 0.0),
    )
