"""Synthetic populations with planted eigenstructure, Gaussian and heavy-tailed
t3 sampling, contiguous shard splitting, and the mean-canonical-cosine
similarity used to score subspace estimates.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .local_pca import DataShard, TruncatedEig
from .rngs import DATA, NOISE_EIGENVALUES, POPULATION, stream

logger = logging.getLogger(__name__)

GAUSSIAN = "gaussian"
STUDENT_T3 = "t3"
DISTRIBUTIONS = (GAUSSIAN, STUDENT_T3)


@dataclass(frozen=True, eq=False)
class PopulationModel:
    """Sigma = gamma diag(lam) gamma^T with columns sorted by eigenvalue.

    The first r columns of gamma are the planted signal basis (after the
    descending re-sort, so "top r" is always well defined even when a noise
    eigenvalue creeps above a signal one at small p).
    """

    gamma: np.ndarray  # (p, p) orthogonal
    lam: np.ndarray    # (p,), non-increasing, positive
    n: int
    r: int
    distribution: str
    seed: int

    @property
    def p(self) -> int:
        return self.lam.size

    def truth_basis(self) -> np.ndarray:
        return self.gamma[:, : self.r].copy()


def signal_eigenvalues(p: int, n: int, r: int) -> np.ndarray:
    """1 + sqrt(p/n) + p^(1/(1+j)) for signal ranks j = 1..r (decreasing in j)."""
    check_sizes(p, n, r)
    j = np.arange(1, r + 1)
    return 1.0 + np.sqrt(p / n) + p ** (1.0 / (1.0 + j))


def check_sizes(p: int, n: int, r: int) -> None:
    """The sizes the planted law can draw from (1 <= r < p, n >= 1); InvalidInput otherwise."""
    if not 1 <= r < p:
        raise InvalidInput(f"need 1 <= r < p, got r={r}, p={p}")
    if n < 1:
        raise InvalidInput("n must be positive")


def check_distribution(distribution: str) -> None:
    """A distribution sample_data can draw from; InvalidInput otherwise."""
    if distribution not in DISTRIBUTIONS:
        raise InvalidInput(f"unknown distribution {distribution!r}; pick one of {DISTRIBUTIONS}")


def planted_spectra(p: int, n: int, r: int, m: int, seed: int) -> np.ndarray:
    """m rows (m x p) of the planted law: the r signal_eigenvalues, then p - r
    noise eigenvalues uniform on (0.5, 1.5) from the seed's noise stream.

    Rows are unsorted: a noise draw may top a signal eigenvalue at small p.
    Row 0 is the population's spectrum; perturb takes all m as machine spectra.
    """
    check_sizes(p, n, r)
    if m < 1:
        raise InvalidInput("m must be positive")
    noise = stream(seed, NOISE_EIGENVALUES).uniform(0.5, 1.5, (m, p - r))
    return np.hstack([np.broadcast_to(signal_eigenvalues(p, n, r), (m, r)), noise])


def make_population(p: int, n: int, r: int, distribution: str, seed: int) -> PopulationModel:
    """Draw the population: orthogonal basis from QR of an iid normal matrix
    (positive-diagonal convention) and the spectrum of planted_spectra."""
    lam = planted_spectra(p, n, r, 1, seed)[0]
    check_distribution(distribution)
    z = stream(seed, POPULATION).standard_normal((p, p))
    q_mat, r_mat = np.linalg.qr(z)
    signs = np.sign(np.diag(r_mat))
    signs[signs == 0] = 1.0
    q_mat = q_mat * signs
    # Re-sort descending in case a noise draw tops a signal eigenvalue; the
    # permutation travels with the basis so gamma[:, :r] stays the true top-r.
    order = np.argsort(-lam, kind="stable")
    return PopulationModel(gamma=q_mat[:, order], lam=lam[order], n=n, r=r,
                           distribution=distribution, seed=seed)


def sample_data(model: PopulationModel) -> np.ndarray:
    """Draw the p x n data matrix (zero mean, covariance exactly Sigma).

    gaussian:  X = Sigma^(1/2) Z
    t3:        X = scatter^(1/2) Z / sqrt(W/3) per column, W ~ chi2(3), with
               scatter = Sigma/3 so the covariance is Sigma; the scaling
               collapses to X = Sigma^(1/2) Z / sqrt(W).

    Sigma^(1/2) = gamma diag(sqrt(lam)) gamma^T is applied in factored form,
    two p x p by p x n products (2 p^2 n), and never formed (p^3).
    """
    rng = stream(model.seed, DATA)
    z = rng.standard_normal((model.p, model.n))
    x = model.gamma @ (np.sqrt(model.lam)[:, None] * (model.gamma.T @ z))
    if model.distribution == GAUSSIAN:
        return x
    w = rng.chisquare(3.0, model.n)
    return x / np.sqrt(w)


def split_shards(x: np.ndarray, m: int) -> list[DataShard]:
    """Partition columns contiguously into m shards with ids 1..m.

    Blocks have size n // m; when m does not divide n the last shard absorbs
    the remainder (logged).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise InvalidInput(f"expected a p x n matrix, got shape {x.shape}")
    n = x.shape[1]
    if not 1 <= m <= n:
        raise InvalidInput(f"need 1 <= m <= n={n}, got m={m}")
    block = n // m
    if n % m:
        logger.info("n=%d not divisible by m=%d; last shard holds %d samples", n, m, block + n % m)
    shards = []
    for ell in range(1, m + 1):
        lo = (ell - 1) * block
        hi = ell * block if ell < m else n
        shards.append(DataShard(samples=x[:, lo:hi].copy(), machine_id=ell))
    return shards


def rho_curve(est: TruncatedEig, truth: np.ndarray, ks) -> list[float]:
    """rho_similarity of every prefix top(k) of a rank-q estimate, k in ks.

    One product est^T Gamma_r serves every k: the prefix's score is the mean
    of the r singular values of its first k rows, clipped into [0, 1].
    """
    truth = np.asarray(truth, dtype=float)
    if truth.ndim != 2 or truth.shape[0] != est.p:
        raise InvalidInput(f"truth basis must be p x r with p={est.p}, got {truth.shape}")
    r = truth.shape[1]
    ks = list(ks)
    if r < 1 or any(not r <= k <= est.q for k in ks):
        raise InvalidInput(f"estimate ranks {ks} must lie in [r={r}, q={est.q}]")
    if np.abs(truth.T @ truth - np.eye(r)).max() > 1e-8:
        raise InvalidInput("truth basis is not orthonormal")
    cross = est.vectors.T @ truth
    return [float(np.clip(np.linalg.svd(cross[:k], compute_uv=False), 0.0, 1.0).mean()) for k in ks]


def rho_similarity(est: TruncatedEig, truth: np.ndarray) -> float:
    """Mean canonical cosine between a rank-k estimate and the true r-basis.

    The score is the average of the r singular values of V_est^T Gamma_r,
    clipped into [0, 1]; 1 means the truth is contained in the estimate span.
    """
    return rho_curve(est, truth, [est.q])[0]
