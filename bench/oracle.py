"""Dense reference for one aggregation round, in plain numpy.

Written from the formulas documented on ``betadpca.beta_aggregate`` and
``betadpca.local_summary``; it calls no code of the package.  Every map is
applied to full p x p matrices, so this stays the reference when the package
computes in the span of the summaries instead.

Each machine's rank-q summary V diag(lam) V^T is transformed on the whole
space.  Directions outside span(V) carry the value each branch gives the
eigenvalue 0 of the summary:

    beta > 0:  lam^beta                  complement 0
    beta = 0:  log(max(lam, floor))      complement 0, i.e. eigenvalue 1
    beta < 0:  (lam + delta)^beta        complement delta^beta (input shifted by delta I)

The transformed matrices are averaged and mapped back through the inverse of
the branch map.
"""

from __future__ import annotations

import numpy as np

# The package defaults (JobSpec.delta, BetaConfig.eigen_floor) the workloads run with.
DELTA = 1e-5
EIGEN_FLOOR = 1e-12

# A result agrees with the reference when its leading projector is within
# PROJECTOR_TOL (Frobenius) and its leading values within VALUE_RTOL.  The
# dense package path agrees to ~1e-13 on every workload.
PROJECTOR_TOL = 1e-8
VALUE_RTOL = 1e-9
# Eigenvalues closer than RESOLVE_RTOL * (largest eigenvalue) are not told
# apart reliably by a dense eigensolver, so a boundary that falls inside such
# a gap is reported as unresolved instead of being compared.
RESOLVE_RTOL = 1e-9


def summarize(samples: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-q eigenpairs of X X^T / n (uncentred), from the thin SVD of X."""
    u, s, _ = np.linalg.svd(samples, full_matrices=False)
    return s[:q] ** 2 / samples.shape[1], u[:, :q]


def transform(values, vectors, beta: float, delta: float = DELTA,
              floor: float = EIGEN_FLOOR) -> np.ndarray:
    """The branch map of one rank-q summary, as a dense p x p matrix."""
    if beta > 0:
        span, comp = values ** beta, 0.0
    elif beta == 0:
        span, comp = np.log(np.maximum(values, floor)), 0.0
    else:
        span, comp = (values + delta) ** beta, delta ** beta
    dense = (vectors * (span - comp)) @ vectors.T
    dense[np.diag_indices_from(dense)] += comp
    return dense


def mean_spectrum(terms, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of Sigma_beta from the transformed terms, values descending."""
    acc = sum(terms) / len(terms)
    g, u = np.linalg.eigh((acc + acc.T) / 2.0)
    if beta > 0:
        sigma = np.clip(g, 0.0, None) ** (1.0 / beta)
    elif beta == 0:
        sigma = np.exp(g)
    else:
        sigma = g ** (1.0 / beta)
    order = np.argsort(-sigma, kind="stable")
    return sigma[order], u[:, order]


def beta_mean(summaries, beta: float, delta: float = DELTA) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the beta-mean of (values, vectors) summaries, descending."""
    return mean_spectrum([transform(v, V, beta, delta) for v, V in summaries], beta)


def resolved(values: np.ndarray, k: int) -> bool:
    """Whether the boundary between eigenvalue k and k+1 is numerically determined."""
    if k >= values.size:
        return True
    return values[k - 1] - values[k] > RESOLVE_RTOL * abs(values[0])


def projector_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius distance between the projectors onto span(a) and span(b)."""
    resid = b - a @ (a.T @ b)
    return float(np.sqrt(2.0) * np.linalg.norm(resid))


def rho(vectors: np.ndarray, truth: np.ndarray) -> float:
    """Mean canonical cosine between span(vectors) and the true basis."""
    sv = np.linalg.svd(vectors.T @ truth, compute_uv=False)
    return float(np.clip(sv, 0.0, 1.0).mean())


def leading_mismatch(values, vectors, ref_values, ref_vectors) -> str | None:
    """None when a rank-r result matches the reference's top r, else why not."""
    r = values.size
    gap = projector_gap(ref_vectors[:, :r], vectors)
    if not gap <= PROJECTOR_TOL:
        return f"leading projector off by {gap:.3g}"
    scale = np.maximum(np.abs(ref_values[:r]), RESOLVE_RTOL * abs(ref_values[0]))
    err = float(np.max(np.abs(values - ref_values[:r]) / scale))
    if not err <= VALUE_RTOL:
        return f"leading values off by {err:.3g} (relative)"
    return None


def cv_scores(summaries, folds, candidates, r: int, delta: float = DELTA):
    """Mean held-out projection mismatch per candidate beta, and whether every
    fold's rank-r boundary was resolved.

    Training machines are aggregated at rank r; each held-out machine is
    represented by the top r of its own summary.
    """
    held_proj = [V[:, :r] for _, V in summaries]
    per_fold = np.zeros((len(folds), len(candidates)))
    all_resolved = True
    for bi, b in enumerate(candidates):
        terms = [transform(v, V, b, delta) for v, V in summaries]
        for j, fold in enumerate(folds):
            train = [terms[i] for i in range(len(summaries)) if i not in fold]
            vals, vecs = mean_spectrum(train, b)
            all_resolved &= resolved(vals, r)
            per_fold[j, bi] = np.mean([projector_gap(vecs[:, :r], held_proj[i]) ** 2 for i in fold])
    return per_fold.mean(axis=0), all_resolved
