"""Stability of the aggregated spectrum when one machine's noise eigenvalue
is inflated.

Everything here lives in the commuting setting: machines share eigenvectors,
so only the spectra matter.  The questions answered are (a) what the
aggregated spectrum looks like after the perturbation, (b) whether the top-r
block still strictly dominates the rest (order invariance), and (c) the
largest tolerable perturbation tau for each beta branch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aggregation import BranchTransform, branch_transform, finite_beta
from .errors import InvalidInput, PreconditionError


@dataclass(frozen=True, eq=False)
class PerturbationScenario:
    """m machine spectra with one perturbed noise eigenvalue on the last machine.

    base_spectra rows are non-increasing positive vectors of length p.
    noise_index is 0-based and must point past the signal block (>= r); d_l
    is the non-negative amount added to that eigenvalue on machine m.
    """

    base_spectra: np.ndarray  # (m, p)
    r: int
    noise_index: int
    d_l: float
    beta: float

    def __post_init__(self):
        spectra = np.atleast_2d(np.asarray(self.base_spectra, dtype=float))
        if spectra.ndim != 2 or spectra.shape[0] < 1 or spectra.shape[1] < 2:
            raise InvalidInput(f"base_spectra must be m x p with p >= 2, got {spectra.shape}")
        if not np.isfinite(spectra).all() or (spectra <= 0).any():
            raise InvalidInput("spectra must be finite and strictly positive")
        if (np.diff(spectra, axis=1) > 0).any():
            raise InvalidInput("each spectrum must be non-increasing")
        p = spectra.shape[1]
        if not 1 <= self.r < p:
            raise InvalidInput(f"need 1 <= r < p={p}, got r={self.r}")
        if not self.r <= self.noise_index < p:
            raise InvalidInput(
                f"noise_index must lie in the noise block [{self.r}, {p - 1}], got {self.noise_index}"
            )
        if not self.d_l >= 0:
            raise InvalidInput("d_l must be non-negative")
        finite_beta(self.beta)
        object.__setattr__(self, "base_spectra", spectra)

    @property
    def m(self) -> int:
        return self.base_spectra.shape[0]

    @property
    def p(self) -> int:
        return self.base_spectra.shape[1]


def _mean_spectrum(t: BranchTransform, spectra: np.ndarray) -> np.ndarray:
    """Coordinate-wise beta-mean of the rows of `spectra` on the branch table."""
    return t.inverse(t.forward(spectra).mean(axis=0))


@dataclass(frozen=True, eq=False)
class ToleranceReport:
    """Perturbation summary for one scenario.

    For beta >= 0, order invariance holds exactly when lambda_tilde_l < tau.
    For beta < 0 no finite threshold exists: the perturbed coordinate of the
    power mean stays below ((1/m) sum over the other machines of lam^beta)^(1/beta)
    no matter how large d_l gets, so tau is reported as infinity and
    lambda_tilde_l as NaN.  (With a weak signal that bound can still sit above
    the r-th aggregated eigenvalue; order_invariant always reflects the actual
    spectra.)
    """

    tau: float
    lambda_tilde_l: float
    order_invariant: bool
    lambda_beta: np.ndarray  # perturbed aggregated spectrum
    lambda_bar: np.ndarray   # unperturbed aggregated spectrum


def tolerance(sc: PerturbationScenario) -> ToleranceReport:
    """Effective perturbation size and threshold for one scenario.

    With f and f^-1 the forward and inverse maps of the branch table's entry
    for beta (aggregation.branch_transform at shift 0: the spectra are positive
    definite, so the maps are the plain power, log and exp, exact at any
    scale), lambda_tilde_l measures the perturbation after the transform,
      f^-1( f(lam + d) - f(lam) ),
    and the threshold it must stay below is
      beta >= 0:  f^-1( m (f(lbar_r) - f(lbar_l)) ),  e.g. (lbar_r / lbar_l)^m at beta = 0
      beta < 0:   infinity.

    Requires lbar_r > lbar_l in the unperturbed aggregate, else the scenario
    is degenerate and PreconditionError is raised.
    """
    t = branch_transform(sc.beta, 0.0)
    spectra = sc.base_spectra.copy()
    spectra[-1, sc.noise_index] += sc.d_l
    lam = sc.base_spectra[-1, sc.noise_index]
    with np.errstate(over="ignore"):  # a mean spectrum or threshold past the float range reads inf
        lam_bar, lam_beta = _mean_spectrum(t, sc.base_spectra), _mean_spectrum(t, spectra)
        lbar_r = lam_bar[sc.r - 1]
        lbar_l = lam_bar[sc.noise_index]
        if not lbar_r > lbar_l:
            raise PreconditionError(
                f"unperturbed aggregate is degenerate: lbar_r={lbar_r:.17g} <= lbar_l={lbar_l:.17g}"
            )
        if sc.beta < 0:
            tau, tilde = np.inf, np.nan
        else:
            f, f_inv = t.forward, t.inverse
            tau = float(f_inv(sc.m * (f(lbar_r) - f(lbar_l))))
            tilde = float(f_inv(f(lam + sc.d_l) - f(lam)))
    return ToleranceReport(
        tau=tau,
        lambda_tilde_l=tilde,
        order_invariant=bool(lam_beta[: sc.r].min() > lam_beta[sc.r:].max()),
        lambda_beta=lam_beta,
        lambda_bar=lam_bar,
    )
