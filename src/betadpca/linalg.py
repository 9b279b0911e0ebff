"""Symmetric eigendecomposition with a deterministic output convention, plus
spectral functional calculus (f(M)), the thin SVD, and deterministic
completion of an orthonormal basis.

All functions are pure: inputs are never mutated, outputs are fresh arrays.
Outputs are deterministic down to the bit for bit-identical inputs, which the
aggregation protocol relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError, InvalidInput, NotPSD

# PSD_SLACK: a symmetric eigensolve errs by about p * eps * ||M||_2 (Weyl), so
# psd_eig calls a matrix not PSD only below -PSD_SLACK times that.
# EIGEN_FLOOR: the beta = 0 branch floors zero eigenvalues at it before the
# log, and the divergence's positive-definite slots require it.
PSD_SLACK = 8
EIGEN_FLOOR = 1e-12


def symmetrize(a) -> np.ndarray:
    """Validate a finite square matrix and return its exactly symmetric part (A + A.T)/2."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InvalidInput("matrix has non-finite entries")
    return (m + m.T) / 2.0


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Full eigendecomposition; column j of `vectors` pairs with values[j]."""

    values: np.ndarray   # (p,), non-increasing
    vectors: np.ndarray  # (p, p), orthonormal columns


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    # Sign convention: the largest-|entry| component of each column is made
    # positive; argmax picks the lowest row index on magnitude ties.
    lead = np.abs(vectors).argmax(axis=0)
    signs = np.sign(vectors[lead, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def _order_tied_columns(values: np.ndarray, vectors: np.ndarray):
    # Values are already non-increasing.  Inside runs of exactly equal values
    # the solver's basis is kept but columns are ordered lexicographically
    # descending (after the sign fix), so e.g. I_p decomposes to I_p: one stable
    # sort on (-value, -column entries), made only when two values are equal.
    if not (values[1:] == values[:-1]).any():
        return values, vectors
    cols = np.lexsort(np.vstack([-vectors[::-1], -values]))
    return values[cols], vectors[:, cols]


def eig_sym(m) -> EigenSystem:
    """Eigendecomposition of a symmetric matrix, values sorted non-increasing.

    The returned basis follows a deterministic convention: each eigenvector's
    largest-magnitude entry is positive (ties broken by lowest row index), and
    columns with exactly equal eigenvalues are ordered lexicographically
    descending.  Two calls on bit-identical input give bit-identical output.
    """
    sym = symmetrize(m)
    try:
        vals, vecs = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure is rare
        raise ConvergenceError(f"eigensolver did not converge: {exc}") from exc
    vals, vecs = canonical_order(vals[::-1], np.ascontiguousarray(vecs[:, ::-1]))
    return EigenSystem(values=vals, vectors=vecs)


def psd_eig(m) -> EigenSystem:
    """eig_sym of a PSD matrix: NotPSD below -PSD_SLACK * p * eps * ||M||_2, round-off above it clipped to 0."""
    es = eig_sym(m)
    bound = PSD_SLACK * es.values.size * np.finfo(float).eps * np.abs(es.values).max()
    if es.values[-1] < -bound:
        raise NotPSD(f"matrix is not PSD: eigenvalue {es.values[-1]:.17g} is below -{bound:.3g}")
    return EigenSystem(values=np.clip(es.values, 0.0, None), vectors=es.vectors)


def canonical_order(values, vectors) -> tuple[np.ndarray, np.ndarray]:
    """Put eigenpairs into eig_sym's output convention.

    Values are sorted non-increasing (stably), each vector's largest-magnitude
    entry is made positive (ties broken by lowest row index), and columns with
    exactly equal values are ordered lexicographically descending.  Used for
    eigenvectors that come from a factored solve rather than eig_sym itself.
    """
    values = np.asarray(values, dtype=float)
    order = np.argsort(-values, kind="stable")
    return _order_tied_columns(values[order], _fix_signs(np.asarray(vectors)[:, order]))


def thin_svd(x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD x = u diag(s) vt with s non-increasing; LAPACK failure raises ConvergenceError."""
    try:
        return np.linalg.svd(np.asarray(x, dtype=float), full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure is rare
        raise ConvergenceError(f"SVD did not converge: {exc}") from exc


def complete_basis(basis, count: int) -> np.ndarray:
    """`count` orthonormal columns orthogonal to the orthonormal columns of `basis`.

    The completion is deterministic: each new column is the canonical basis
    vector with the largest residual off the columns chosen so far (lowest
    index on ties), projected off them twice and normalized, then signed by
    eig_sym's convention.  Cost O(p * (k + count) * count) for a p x k basis.
    """
    basis = np.asarray(basis, dtype=float)
    p, k = basis.shape
    if not 0 <= count <= p - k:
        raise InvalidInput(f"cannot add {count} columns to a rank-{k} basis in dimension {p}")
    if count == 0:  # the usual call from a top-k block: skip the O(p k) residuals
        return np.empty((p, 0))
    cols = basis
    resid = 1.0 - np.einsum("ij,ij->i", basis, basis)  # squared distance of e_i from span(cols)
    out = np.empty((p, count))
    for j in range(count):
        i = int(np.argmax(resid))
        v = -(cols @ cols[i])
        v[i] += 1.0
        v -= cols @ (cols.T @ v)
        v /= np.linalg.norm(v)
        out[:, j] = v
        cols = np.column_stack([cols, v])
        resid -= v * v
    return _fix_signs(out)


def matrix_function(m, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Spectral functional calculus: V f(Lambda) V^T for the scalar map f.

    f must accept an eigenvalue vector (any numpy ufunc-like map works).
    """
    es = eig_sym(m)
    return symmetrize((es.vectors * spectral_map(es.values, f)) @ es.vectors.T)


def spectral_map(values, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """The eigenvalue part of matrix_function: f(values), which must be finite."""
    vals = np.asarray(values, dtype=float)
    with np.errstate(all="ignore"):
        fvals = np.asarray(f(vals), dtype=float)
    if fvals.shape != vals.shape:
        raise InvalidInput("scalar map must return one value per eigenvalue")
    bad = ~np.isfinite(fvals)
    if bad.any():
        raise DomainError(f"scalar map undefined at eigenvalue {vals[bad][0]:.17g}")
    return fvals
