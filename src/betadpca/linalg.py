"""Symmetric eigendecomposition with a deterministic output convention, plus
spectral functional calculus (f(M), M^beta), the thin SVD, and deterministic
completion of an orthonormal basis.

All functions are pure: inputs are never mutated, outputs are fresh arrays.
Outputs are deterministic down to the bit for bit-identical inputs, which the
aggregation protocol relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError, InvalidInput

# Round-off window: eigenvalues in (-PSD_TOL, EIGEN_FLOOR) are treated as
# EIGEN_FLOOR (or 0) by maps whose domain excludes them.  Anything below
# -PSD_TOL counts as genuinely negative and is never silently repaired.
PSD_TOL = 1e-10
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
    # descending (after the sign fix), so e.g. I_p decomposes to I_p.
    p = values.size
    cols = np.arange(p)
    j = 0
    while j < p:
        k = j + 1
        while k < p and values[k] == values[j]:
            k += 1
        if k - j > 1:
            run = sorted(range(j, k), key=lambda c: tuple(vectors[:, c]), reverse=True)
            cols[j:k] = run
        j = k
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


def matrix_power(m, beta: float) -> np.ndarray:
    """Spectral power M^beta.

    beta < 0 requires every eigenvalue (after the round-off clamp to
    EIGEN_FLOOR) to be at least EIGEN_FLOOR; fractional positive powers clamp
    round-off negatives to 0.  beta = 0 is a caller error: use matrix_function
    with log/exp for the limiting branch.
    """
    if beta == 0:
        raise InvalidInput("beta=0 has no direct power form; use the log/exp limit")
    es = eig_sym(m)
    return symmetrize((es.vectors * spectral_power(es.values, beta)) @ es.vectors.T)


def spectral_power(values, beta: float) -> np.ndarray:
    """The eigenvalue part of matrix_power: values**beta with its clamps and domain checks."""
    vals = np.asarray(values, dtype=float)
    if beta < 0:
        vals = np.where((vals > -PSD_TOL) & (vals < EIGEN_FLOOR), EIGEN_FLOOR, vals)
        if vals.min() < EIGEN_FLOOR:
            raise DomainError(
                f"negative power {beta} needs eigenvalues >= {EIGEN_FLOOR:g}; found {vals.min():.17g}"
            )
    elif not float(beta).is_integer():
        vals = np.where((vals > -PSD_TOL) & (vals < 0.0), 0.0, vals)
    with np.errstate(all="ignore"):
        pvals = vals ** beta
    bad = ~np.isfinite(pvals)
    if bad.any():
        raise DomainError(f"power {beta} undefined at eigenvalue {vals[bad][0]:.17g}")
    return pvals
