"""Shared test fixtures: random SPD generators, independent closed-form
oracles (2x2 characteristic polynomial, the divergence family's closed forms,
the coordinate-wise power mean, scenario builders), the explicit square-root
sampler, the shard covariance and rank-q reconstruction, the spectral function
f(M) and power M^beta, the dense p x p aggregation formulas and the per-fold
CV loop the factored and span paths are checked against, and the explicit tie
scan that canonical_order's column order is checked against."""

import dataclasses
import struct
import zlib

import numpy as np

from betadpca import (GAUSSIAN, DomainError, InvalidInput, PerturbationScenario, TruncatedEig, aggregation,
                      beta_aggregate, eig_sym, signal_eigenvalues, symmetrize, tolerance, truncated_eig)
from betadpca.linalg import EIGEN_FLOOR, spectral_map, thin_svd
from betadpca.rngs import DATA, stream


def rand_orthogonal(rng, p):
    q, r = np.linalg.qr(rng.standard_normal((p, p)))
    s = np.sign(np.diag(r))
    s[s == 0] = 1.0
    return q * s


def rand_spd(rng, p, lo=0.2, hi=5.0):
    q = rand_orthogonal(rng, p)
    lam = rng.uniform(lo, hi, p)
    return (q * lam) @ q.T


def rotated_rank_two(scale):
    """Q diag(scale, scale/10, 0, -eps*scale) Q^T for a random rotation Q in p=4:
    rank 2 and PSD up to round-off.  Its negative eigenvalue is the size an
    eigensolve of a rank-2 matrix at that scale leaves, below -1e-10 for
    scale >= 1e6, so the matrix needs a PSD rule that scales with ||M||_2."""
    q = rand_orthogonal(np.random.default_rng(1), 4)
    return (q * np.array([scale, scale / 10, 0.0, -np.finfo(float).eps * scale])) @ q.T


def rand_summary(rng, p, q, lo=0.5, hi=4.0):
    basis = rand_orthogonal(rng, p)[:, :q]
    vals = np.sort(rng.uniform(lo, hi, q))[::-1]
    return TruncatedEig(values=vals, vectors=basis)


def e_summary(values, p, offset=0):
    """Summary whose vectors are canonical basis columns offset..offset+q-1."""
    values = np.asarray(values, dtype=float)
    return TruncatedEig(values=values, vectors=np.eye(p)[:, offset:offset + len(values)])


def wrap_frame(payload: bytes, version: int = 1) -> bytes:
    """A wire frame with a valid length prefix, magic and CRC around any payload."""
    body = b"BDPC" + struct.pack("<H", version) + payload
    body += struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)
    return struct.pack("<I", len(body)) + body


def sign_fix(v):
    """Apply the package's eigenvector sign convention to a single vector."""
    i = int(np.argmax(np.abs(v)))
    return -v if v[i] < 0 else v


def run_scan_order(values, vectors):
    """canonical_order written as the scan it replaced, the reference for its one
    stable sort: values sorted non-increasing (stably), each column's sign fixed
    by sign_fix, then the columns of every run of exactly equal values sorted
    lexicographically descending by Python's stable sort."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(-values, kind="stable")
    values = values[order]
    vectors = np.column_stack([sign_fix(v) for v in np.asarray(vectors, dtype=float)[:, order].T])
    cols = np.arange(values.size)
    j = 0
    while j < values.size:
        k = j + 1
        while k < values.size and values[k] == values[j]:
            k += 1
        cols[j:k] = sorted(range(j, k), key=lambda c: tuple(vectors[:, c]), reverse=True)
        j = k
    return values[cols], vectors[:, cols]


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


# spectral_power's round-off window: values in (-ROUND_OFF, 0) count as 0
ROUND_OFF = 1e-10


def spectral_power(values, beta: float) -> np.ndarray:
    """values**beta for an eigenvalue vector, with a fixed round-off window.

    For beta < 0, values in (-ROUND_OFF, EIGEN_FLOOR) become EIGEN_FLOOR and
    anything still below EIGEN_FLOOR raises DomainError; for fractional beta > 0,
    values in (-ROUND_OFF, 0) become 0.  A non-finite power raises DomainError.
    """
    vals = np.asarray(values, dtype=float)
    if beta < 0:
        vals = np.where((vals > -ROUND_OFF) & (vals < EIGEN_FLOOR), EIGEN_FLOOR, vals)
        if vals.min() < EIGEN_FLOOR:
            raise DomainError(
                f"negative power {beta} needs eigenvalues >= {EIGEN_FLOOR:g}; found {vals.min():.17g}"
            )
    elif not float(beta).is_integer():
        vals = np.where((vals > -ROUND_OFF) & (vals < 0.0), 0.0, vals)
    with np.errstate(all="ignore"):
        pvals = vals ** beta
    bad = ~np.isfinite(pvals)
    if bad.any():
        raise DomainError(f"power {beta} undefined at eigenvalue {vals[bad][0]:.17g}")
    return pvals


def matrix_function(m, f) -> np.ndarray:
    """Spectral functional calculus V f(Lambda) V^T for a scalar map f on an
    eigenvalue vector, from one eig_sym: the dense oracle's f(M)."""
    es = eig_sym(m)
    return symmetrize((es.vectors * spectral_map(es.values, f)) @ es.vectors.T)


def matrix_power(m, beta: float) -> np.ndarray:
    """Spectral power M^beta with spectral_power's clamps; beta = 0 is a caller
    error (the limiting branch is log/exp)."""
    if beta == 0:
        raise InvalidInput("beta=0 has no direct power form; use the log/exp limit")
    es = eig_sym(m)
    return symmetrize((es.vectors * spectral_power(es.values, beta)) @ es.vectors.T)


def closed_form_divergence(m1, m2, beta):
    """Divergence oracle: the family's three closed forms on positive definite
    matrices, written out term by term rather than from a generator.

    beta:       tr(M1^(b+1) + b M2^(b+1) - (b+1) M2^b M1) / (b (b+1))
    beta = 0:   tr(M1 (log M1 - log M2) - M1 + M2)     (von Neumann)
    beta = -1:  tr(M1 M2^-1) - log det(M1 M2^-1) - p   (log-det)
    """
    b = float(beta)
    vals1 = np.linalg.eigvalsh(m1)
    vals2, vecs2 = np.linalg.eigh(m2)

    def cross(f):  # tr(f(M2) M1) for symmetric factors
        return np.sum((vecs2 * f(vals2)) @ vecs2.T * m1)

    if b == 0.0:
        return float(np.sum(vals1 * np.log(vals1)) - cross(np.log) - vals1.sum() + vals2.sum())
    if b == -1.0:
        return float(cross(lambda v: 1.0 / v) - (np.log(vals1).sum() - np.log(vals2).sum()) - vals1.size)
    t1, t2 = np.sum(vals1 ** (b + 1)), np.sum(vals2 ** (b + 1))
    return float((t1 + b * t2 - (b + 1) * cross(lambda v: v ** b)) / (b * (b + 1)))


def power_mean(spectra, beta):
    """Spectrum oracle: the coordinate-wise power mean of the rows of `spectra`,
    mean(x^beta)^(1/beta), or exp(mean(log x)) at beta = 0."""
    if beta == 0:
        return np.exp(np.mean(np.log(spectra), axis=0))
    return np.mean(spectra ** beta, axis=0) ** (1.0 / beta)


def perturbed_beta_spectrum(sc):
    """The scenario's power-mean spectrum after the perturbation."""
    spectra = sc.base_spectra.copy()
    spectra[-1, sc.noise_index] += sc.d_l
    return power_mean(spectra, sc.beta)


def unperturbed_beta_spectrum(sc):
    """The scenario's power-mean spectrum with d_l = 0."""
    return power_mean(sc.base_spectra, sc.beta)


def invariance_check(sc):
    """Strict order invariance on the oracle spectrum: min of the top-r
    aggregated eigenvalues beats the max of the rest."""
    lam = perturbed_beta_spectrum(sc)
    return bool(lam[: sc.r].min() > lam[sc.r:].max())


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


def dense_sample_data(model):
    """Sampler oracle: the same draws as sample_data, through the explicit p x p
    square root Sigma^(1/2) = gamma diag(sqrt(lam)) gamma^T."""
    rng = stream(model.seed, DATA)
    z = rng.standard_normal((model.p, model.n))
    half = (model.gamma * np.sqrt(model.lam)) @ model.gamma.T
    if model.distribution == GAUSSIAN:
        return half @ z
    w = rng.chisquare(3.0, model.n)
    return (half @ z) / np.sqrt(w)


def count_span_svds(monkeypatch, rows):
    """Record the shape of every thin_svd that aggregation takes with `rows` rows."""
    shapes = []

    def counted(x):
        if x.shape[0] == rows:
            shapes.append(x.shape)
        return thin_svd(x)

    monkeypatch.setattr(aggregation, "thin_svd", counted)
    return shapes


def count_lifts(monkeypatch):
    """Record the basis shape of every SpanCore.lift, the step that maps an
    aggregation solved in span coordinates into R^p."""
    shapes = []
    lift = aggregation.SpanCore.lift

    def counted(core, basis, *args, **kwargs):
        shapes.append(basis.shape)
        return lift(core, basis, *args, **kwargs)

    monkeypatch.setattr(aggregation.SpanCore, "lift", counted)
    return shapes


def sample_covariance(shard):
    """Shard covariance oracle: (1/n_ell) X X^T as a p x p matrix; the
    sampling model is zero-mean, so X is not centred."""
    x = shard.samples
    return symmetrize(x @ x.T / shard.n_ell)


def reconstruct(summary):
    """V diag(values) V^T, a summary's rank-q reconstruction as a p x p matrix."""
    return symmetrize((summary.vectors * summary.values) @ summary.vectors.T)


def dense_local_summary(shard, q):
    """Worker oracle: eigh of the p x p sample covariance, then truncation."""
    return truncated_eig(sample_covariance(shard), q)


def dense_beta_sigma(summaries, cfg):
    """Aggregation oracle: the beta-mean of rank-q summaries on full p x p
    matrices, one transformed term per machine and a dense inverse map.  At
    beta < 0 the term (M_l + delta I)^beta is V_l (lam_l + delta)^beta V_l^T
    + delta^beta W_l W_l^T, with W_l an orthonormal basis of span(V_l)'s
    complement, so no delta^beta is subtracted and re-added in span(V_l)."""
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
    for wl, s in zip(w, summaries):
        rest = np.linalg.qr(s.vectors, mode="complete")[0][:, s.q:]
        acc += wl * ((s.vectors * (s.values + cfg.delta) ** b) @ s.vectors.T + cfg.delta ** b * rest @ rest.T)
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
