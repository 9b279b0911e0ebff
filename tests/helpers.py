"""Shared test fixtures: random SPD generators, independent closed-form
oracles (2x2 characteristic polynomial, scenario builders) and the dense p x p
aggregation formulas and the per-fold CV loop the span paths are checked against."""

import dataclasses
import struct
import zlib

import numpy as np

from betadpca import (InvalidInput, PerturbationScenario, TruncatedEig, beta_aggregate, matrix_function,
                      matrix_power, sample_covariance, signal_eigenvalues, symmetrize, tolerance, truncated_eig)
from betadpca.linalg import EIGEN_FLOOR


def rand_orthogonal(rng, p):
    q, r = np.linalg.qr(rng.standard_normal((p, p)))
    s = np.sign(np.diag(r))
    s[s == 0] = 1.0
    return q * s


def rand_spd(rng, p, lo=0.2, hi=5.0):
    q = rand_orthogonal(rng, p)
    lam = rng.uniform(lo, hi, p)
    return (q * lam) @ q.T


def rand_summary(rng, p, q, lo=0.5, hi=4.0):
    basis = rand_orthogonal(rng, p)[:, :q]
    vals = np.sort(rng.uniform(lo, hi, q))[::-1]
    return TruncatedEig(values=vals, vectors=basis)


def wrap_frame(payload: bytes, version: int = 1) -> bytes:
    """A wire frame with a valid length prefix, magic and CRC around any payload."""
    body = b"BDPC" + struct.pack("<H", version) + payload
    body += struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)
    return struct.pack("<I", len(body)) + body


def sign_fix(v):
    """Apply the package's eigenvector sign convention to a single vector."""
    i = int(np.argmax(np.abs(v)))
    return -v if v[i] < 0 else v


def eig2x2(a, b, c):
    """Characteristic-polynomial oracle for [[a, b], [b, c]] with b != 0.

    Returns (values desc, unit vectors) under the package sign convention,
    computed without any eigensolver.
    """
    assert b != 0
    tr, det = a + c, a * c - b * b
    disc = np.sqrt(tr * tr / 4.0 - det)
    values = np.array([tr / 2.0 + disc, tr / 2.0 - disc])
    vectors = []
    for lam in values:
        v = np.array([b, lam - a])  # from (a - lam) x + b y = 0
        vectors.append(sign_fix(v / np.linalg.norm(v)))
    return values, vectors


def rand_scenario(rng, beta, straddle=True):
    """Random perturbation scenario with strictly generic spectra.

    With straddle=True the perturbation size is drawn around the invariance
    boundary (but away from a +-0.5% band) so both outcomes occur; for
    beta < 0 the size is drawn log-uniformly up to 1e8.
    """
    m = int(rng.integers(2, 6))
    p = int(rng.integers(4, 9))
    r = int(rng.integers(1, p - 1))
    noise_index = int(rng.integers(r, p))
    spectra = np.sort(rng.uniform(0.5, 10.0, (m, p)), axis=1)[:, ::-1]
    sc = PerturbationScenario(base_spectra=spectra, r=r, noise_index=noise_index,
                              d_l=1.0, beta=beta)
    if beta < 0 or not straddle:
        d = float(10.0 ** rng.uniform(-1, 8)) if beta < 0 else float(rng.uniform(0.1, 20.0))
        return dataclasses.replace(sc, d_l=d)
    tau = tolerance(sc).tau
    lam = spectra[-1, noise_index]
    if beta == 0:
        d_star = lam * (tau - 1.0)
    else:
        d_star = (tau ** beta + lam ** beta) ** (1.0 / beta) - lam
    factor = float(rng.uniform(0.05, 2.0))
    while 0.995 < factor < 1.005:
        factor = float(rng.uniform(0.05, 2.0))
    return dataclasses.replace(sc, d_l=factor * d_star)


def planted_scenario(rng: np.random.Generator, beta: float) -> PerturbationScenario:
    """Scenario with strong planted signal over weak noise, as in the simulations.

    Negative-beta order invariance is a property of this well-separated regime,
    not of arbitrary spectra: the perturbed noise coordinate of the power mean
    rises towards ((1/m) sum_{j != m} lam_lj^beta)^(1/beta) as d_l grows, and
    only the signal-noise gap (with m >= 4 machines) keeps that sup below the
    r-th mean eigenvalue.
    """
    m = int(rng.integers(4, 7))
    p = int(rng.integers(50, 151))
    r = int(rng.integers(1, 6))
    signal = signal_eigenvalues(p, 250, r)
    rows = [np.concatenate([signal, rng.uniform(0.5, 1.5, p - r)]) for _ in range(m)]
    spectra = np.sort(np.asarray(rows), axis=1)[:, ::-1]
    noise_index = int(rng.integers(r, p))
    d = float(10.0 ** rng.uniform(0.0, 8.0))
    return PerturbationScenario(base_spectra=spectra, r=r, noise_index=noise_index,
                                d_l=d, beta=beta)


def projector_distance(a, b):
    """Frobenius distance between the projectors onto span(a) and span(b)."""
    return float(np.linalg.norm(a @ a.T - b @ b.T))


def dense_local_summary(shard, q, center=False):
    """Worker oracle: eigh of the p x p sample covariance, then truncation."""
    return truncated_eig(sample_covariance(shard, center=center), q)


def dense_beta_sigma(summaries, cfg):
    """Aggregation oracle: the beta-mean of rank-q summaries on full p x p
    matrices, one transformed term per machine and a dense inverse map."""
    p = summaries[0].p
    w = np.full(len(summaries), 1.0 / len(summaries))
    b = cfg.beta
    acc = np.zeros((p, p))
    if b > 0:
        for wl, s in zip(w, summaries):
            acc += wl * (s.vectors * s.values ** b) @ s.vectors.T
        return matrix_power(acc, 1.0 / b)
    if b == 0:
        for wl, s in zip(w, summaries):
            vals = np.where(s.values < EIGEN_FLOOR, EIGEN_FLOOR, s.values)
            acc += wl * (s.vectors * np.log(vals)) @ s.vectors.T
        return matrix_function(acc, np.exp)
    db = cfg.delta ** b
    for wl, s in zip(w, summaries):
        acc += wl * (s.vectors * ((s.values + cfg.delta) ** b - db)) @ s.vectors.T
    acc += db * np.eye(p)
    return matrix_power(acc, 1.0 / b)


def dense_fan_sigma(summaries):
    """Projection-average oracle: the mean of V_l V_l^T as a p x p matrix."""
    return symmetrize(sum(s.vectors @ s.vectors.T for s in summaries) / len(summaries))


def projection_discrepancy(a: TruncatedEig, b: TruncatedEig) -> float:
    """Squared Frobenius distance between the two rank-r projection matrices.

    Computed on r x r blocks as |A^T A|^2 - 2 |A^T B|^2 + |B^T B|^2, without
    the p x p projectors; bit-identical blocks give exactly 0.
    """
    if a.p != b.p or a.q != b.q:
        raise InvalidInput("summaries must share p and rank")
    aa, ab, bb = a.vectors.T @ a.vectors, a.vectors.T @ b.vectors, b.vectors.T @ b.vectors
    return max(0.0, float(np.sum(aa * aa) - 2.0 * np.sum(ab * ab) + np.sum(bb * bb)))


def fold_loop_per_fold(summaries_q, summaries_r, plan, cfg_template):
    """CV oracle: select_beta's per_fold from one beta_aggregate of each fold's
    training machines per candidate, scored by projection_discrepancy."""
    r = summaries_r[0].q
    per_fold = np.zeros((plan.k, len(plan.candidate_set)))
    for j, fold in enumerate(plan.folds):
        train = [summaries_q[i] for i in range(plan.m) if i not in fold]
        for bi, b in enumerate(plan.candidate_set):
            agg = beta_aggregate(train, dataclasses.replace(cfg_template, beta=b), r)
            per_fold[j, bi] = np.mean([projection_discrepancy(agg.leading, summaries_r[i]) for i in fold])
    return per_fold
