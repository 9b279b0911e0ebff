"""The matrix beta-divergence family on PSD matrices, indexed by beta alone:
the Bregman divergence of tr phi_beta for one scalar generator phi_beta (not
exported), with beta = 0 the von Neumann and beta = -1 the log-det limit.
Also a numerical check that the matrix beta-mean minimizes the averaged divergence.

Unlike the aggregation module, nothing here floors eigenvalues silently: a
slot that needs a log or an inverse raises DomainError when the spectrum dips
below EIGEN_FLOOR.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .aggregation import BetaConfig, beta_mean, finite_beta
from .errors import DomainError, InvalidInput
from .linalg import EIGEN_FLOOR, eig_sym, psd_eig, symmetrize
from .rngs import MINIMIZER, stream


def _spectrum(m, need_pd: bool, side: str):
    es = eig_sym(m) if need_pd else psd_eig(m)  # psd_eig raises NotPSD, a DomainError
    if need_pd and es.values.min() < EIGEN_FLOOR:
        raise DomainError(f"{side} must be positive definite here; "
                          f"eigenvalue {es.values.min():.17g} < {EIGEN_FLOOR:g}")
    return es.values, es.vectors


def _phi(lam: np.ndarray, b: float) -> np.ndarray:
    # The scalar generator: (lam^(b+1) - (b+1) lam + b) / (b (b+1)), with its
    # limits lam log lam - lam + 1 (b = 0) and -log lam + lam - 1 (b = -1).
    if b == 0.0:
        return lam * np.log(lam) - lam + 1.0
    if b == -1.0:
        return -np.log(lam) + lam - 1.0
    return (lam ** (b + 1) - (b + 1) * lam + b) / (b * (b + 1))


def _phi_prime(lam: np.ndarray, b: float) -> np.ndarray:
    # (lam^b - 1) / b, with the limit log lam at b = 0.
    return np.log(lam) if b == 0.0 else (lam ** b - 1.0) / b


def divergence(m1, m2, beta: float) -> float:
    """Matrix beta-divergence D(M1, M2); M1 plays the data slot, M2 the model.

    The Bregman divergence of tr phi_beta(M), phi_beta(lam) = (lam^(beta+1)
    - (beta+1) lam + beta) / (beta (beta+1)) and its limits (Dhillon & Tropp 2007):

        D(M1, M2) = tr phi(M1) - tr phi(M2) - tr(phi'(M2) (M1 - M2)),

    with phi'(lam) = (lam^beta - 1) / beta, or log lam at beta = 0.  beta = 1
    gives half the squared Frobenius distance, beta = 0 the von Neumann and
    beta = -1 the log-det divergence.

    Positive definiteness is required wherever a log, inverse, or negative
    power lands: M2 for beta <= 0, M1 for beta < -1 and both limits.
    """
    a = symmetrize(m1)
    b2 = symmetrize(m2)
    if a.shape != b2.shape:
        raise InvalidInput("matrices differ in dimension")
    b = finite_beta(beta)
    vals1, _ = _spectrum(a, need_pd=b < -1 or b in (0.0, -1.0), side="M1")
    vals2, vecs2 = _spectrum(b2, need_pd=b <= 0, side="M2")
    m1_in_2 = np.sum(vecs2 * (a @ vecs2), axis=0)  # diag(V2^T M1 V2)
    return float(np.sum(_phi(vals1, b)) - np.sum(_phi(vals2, b))
                 - np.sum(_phi_prime(vals2, b) * (m1_in_2 - vals2)))


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

    The objective is J(M) = mean_l D(M, M_l) with the divergence at cfg.beta
    (limits included).  For beta < 0 the mean is computed from the
    delta-regularized inputs, so J is measured against M_l + delta I as well;
    that keeps the computed mean the exact stationary point.  Perturbations
    are random symmetric matrices of Frobenius norm noise_scale.  This is
    evidence, not proof.
    """
    if trials < 1:
        raise InvalidInput("need at least one trial")
    if not noise_scale > 0:
        raise InvalidInput("noise_scale must be positive")
    center = beta_mean(inputs, cfg)  # validates the inputs
    p = center.shape[0]
    shift = cfg.delta * np.eye(p) if cfg.beta < 0 else 0.0
    targets = [symmetrize(m) + shift for m in inputs]

    def objective(candidate: np.ndarray) -> float:
        return float(np.mean([divergence(candidate, t, cfg.beta) for t in targets]))

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
