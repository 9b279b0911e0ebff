"""Every factored path against the dense p x p oracles in helpers, on one table of seeded summary layouts:
beta_aggregate and beta_mean at each beta in BETAS, select_beta with all of them as candidates, fan_aggregate and
local_summary.  A row declares its warnings (any other fails it), lift class, span rank K and closed forms; the
scaled rows run a layout at x1e-6 and x1e6 under the same relative tolerances."""

import contextlib
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import pytest

from betadpca import (BetaConfig, PrecisionWarning, TieWarning, TruncatedEig, beta_aggregate, beta_mean, eig_sym,
                      fan_aggregate, local_summary, make_folds, make_population, sample_data, select_beta,
                      split_shards, truncate_summary, truncated_eig)
from betadpca.linalg import complete_basis
from helpers import (count_lifts, dense_beta_sigma, dense_fan_sigma, dense_local_summary, e_summary, eig2x2,
                     fold_loop_per_fold, power_mean, projector_distance, rand_orthogonal, rand_spd, rand_summary,
                     reconstruct, sample_covariance)

BETAS = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)

# The tolerance rule, at every beta and scale.  Values and eigenpair residuals are relative to lambda_max,
# sigma_beta and beta_mean to max |Sigma|.
VALUES = 1e-12
PROJECTOR = 1e-12         # the leading block's projector, absolute
PER_FOLD = 1e-12          # absolute
PER_FOLD_NEGATIVE = 1e-8  # beta < 0: both sides carry the delta^beta shift
FAN = 1e-14               # a projection average lies in [0, 1]
ORTHONORMAL = 1e-14


@dataclass(frozen=True)
class Layout:
    name: str
    build: Callable[[int], list]  # a seed -> the summaries, or shards that local_summary takes to rank q
    r: int
    seeds: Sequence[int] = (0,)  # one row of every path per seed
    folds: int | None = None   # select_beta's fold count; None for one machine
    lifts: bool = False        # whether select_beta lifts at least one fold to R^p
    q: int | None = None       # local_summary's rank, for a layout built from shards
    K: int | None = None       # the span rank span_basis must find, where the layout fixes it
    leads: tuple = ()          # the betas at which a complement direction enters the leading block
    warns: dict = field(default_factory=dict)  # a beta, "cv" or "fan" -> the one warning it emits
    exact: dict = field(default_factory=dict)  # a beta or "fan" -> the full spectrum in closed form

    def summaries(self, seed):
        return [local_summary(s, self.q) for s in self.build(seed)] if self.q else self.build(seed)


def randoms(seed, p, q, m):
    rng = np.random.default_rng(seed)
    return [rand_summary(rng, p, q) for _ in range(m)]


def sub_unit(seed, p, spectra):
    rng = np.random.default_rng(seed)
    return [TruncatedEig(np.array(v), rand_orthogonal(rng, p)[:, :len(v)]) for v in spectra]


def repeated(seed):
    # machine 2 repeats machine 0's directions with machine 1's values
    a, b = randoms(seed, 16, 4, 2)
    return [a, b, TruncatedEig(b.values, a.vectors)]


def shared(seed):
    # machine 1 repeats machine 0's directions, machine 2 shares two of them
    rng = np.random.default_rng(seed)
    s = randoms(rng, 12, 4, 5)
    mixed = np.linalg.qr(np.hstack([s[0].vectors[:, :2], rng.standard_normal((12, 2))]))[0]
    return [s[0], TruncatedEig(s[1].values, s[0].vectors), TruncatedEig(s[2].values, mixed), *s[3:]]


def nearly_dependent(seed):
    # machine 1's block lies within 1e-3 of machine 0's
    s = randoms(seed, 12, 3, 3)
    near = np.linalg.qr(s[0].vectors + 1e-3 * np.random.default_rng(seed).standard_normal((12, 3)))[0]
    return [s[0], TruncatedEig(s[1].values, near), s[2]]


def scaled(c, summaries):
    return [TruncatedEig(c * s.values, s.vectors) for s in summaries]


def padded_shards(seed, c=1.0):
    # q = 5 exceeds each shard's 3 samples, so every summary ends in exact zeros; c scales the covariance
    return split_shards(np.sqrt(c) * np.random.default_rng(seed).standard_normal((40, 6)), 2)


def commuting(spectra, p, delta=BetaConfig.delta):
    """{beta: full spectrum} of same-axis summaries: per-axis power means (of lam + delta at beta < 0), complements"""
    return {b: np.concatenate([power_mean(np.add(spectra, delta if b < 0 else 0.0), b),
                               np.full(p - len(spectra[0]), delta if b < 0 else float(b == 0))]) for b in BETAS}


FULL_RANK = truncated_eig(rand_spd(np.random.default_rng(37), 5, lo=0.5, hi=3.0), 5)
SUB_UNIT = [[0.8, 0.5, 0.2]] * 4

LAYOUTS = [
    Layout("random", lambda s: randoms(s, 20, 4, 3), r=3, seeds=(45,), folds=3, K=12),
    Layout("repeated directions", repeated, r=3, seeds=(46,), folds=3, K=8),
    Layout("shared directions", lambda s: shared([83, s]), r=2, seeds=range(4), folds=2, K=12),
    Layout("one machine, full rank", lambda s: [FULL_RANK], r=2, exact=commuting([FULL_RANK.values], 5)),
    Layout("axis-aligned", lambda s: [e_summary([3.0, 2.0], 4), e_summary([5.0, 4.0], 4)], r=1, folds=2,
           exact=commuting([[3.0, 2.0], [5.0, 4.0]], 4)),
    # at beta = 0 the complement directions, eigenvalue 1, fill the leading block, lead it or close it
    Layout("sub-unit, complement first", lambda s: sub_unit([81, s], 16, SUB_UNIT), r=3, seeds=range(4), folds=4,
           lifts=True, leads=(0.0,), warns={0.0: TieWarning, "cv": TieWarning}),
    Layout("sub-unit, one complement direction", lambda s: sub_unit([81, s], 10, SUB_UNIT)[1:], r=3,
           seeds=range(4), K=9, leads=(0.0,)),
    Layout("sub-unit, K = p, one complement direction per fold", lambda s: sub_unit([81, s], 10, SUB_UNIT),
           r=3, seeds=range(4), folds=4, lifts=True, K=10),
    Layout("sub-unit, complement last",
           lambda s: sub_unit([81, s], 16, [[3.0, 0.3, 0.2]] * 2 + [[0.8, 0.3, 0.2]] * 2), r=3, seeds=range(4),
           folds=4, lifts=True, leads=(0.0,), warns={0.0: TieWarning, "cv": TieWarning}),
    Layout("one-machine training folds", lambda s: randoms([84, s], 9, 4, 2), r=2, seeds=range(4), folds=2),
    Layout("planted round", lambda s: split_shards(sample_data(make_population(60, 100, 3, "gaussian", s)), 5),
           r=3, seeds=(90, 91), folds=5, q=6),
    Layout("K = p", lambda s: randoms(s, 12, 3, 4), r=2, seeds=(85,), folds=2, K=12),
    Layout("mq > p", lambda s: randoms([80, s], 14, 3, 5), r=2, seeds=range(4), folds=3, K=14),
    Layout("nearly dependent", nearly_dependent, r=2, seeds=(86,), folds=3, K=9),
    Layout("n_ell > p shards", lambda s: split_shards(np.random.default_rng(s).standard_normal((8, 120)), 3),
           r=2, seeds=(87,), folds=3, q=4),
    Layout("rank-padded, q > n_ell", padded_shards, r=3, seeds=(41,), folds=2, q=5, K=10),
    Layout("2x2 fan", lambda s: [e_summary([5.0], 2), TruncatedEig(np.array([2.0]), np.ones((2, 1)) / np.sqrt(2.0))],
           r=1, folds=2, exact={"fan": eig2x2(0.75, 0.25, 0.25)[0]}),
    Layout("orthogonal fan", lambda s: [e_summary([9.0], 2), e_summary([1.0], 2, offset=1)], r=1, folds=2,
           lifts=True, warns={"fan": TieWarning, "cv": TieWarning}, exact={"fan": np.full(2, 0.5)}),
    # at x1e-6 the beta = 0 complement, eigenvalue 1, leads and ties at rank r; at x1e6 beta = -2 passes its
    # precision floor
    Layout("random x1e-6", lambda s: scaled(1e-6, randoms(s, 20, 4, 3)), r=3, seeds=(45,), folds=3, lifts=True,
           K=12, leads=(0.0,), warns={0.0: TieWarning, "cv": TieWarning}),
    Layout("random x1e6", lambda s: scaled(1e6, randoms(s, 20, 4, 3)), r=3, seeds=(45,), folds=3, K=12,
           warns={-2.0: PrecisionWarning, "cv": PrecisionWarning}),
    Layout("rank-padded x1e-6", lambda s: padded_shards(s, 1e-6), r=3, seeds=(41,), folds=2, lifts=True, q=5, K=10,
           leads=(0.0,), warns={0.0: TieWarning, "cv": TieWarning}),
    Layout("rank-padded x1e6", lambda s: padded_shards(s, 1e6), r=3, seeds=(41,), folds=2, q=5, K=10,
           warns={-2.0: PrecisionWarning, "cv": PrecisionWarning}),
]


def rows(*keys, where=lambda layout: True):
    return [pytest.param(lay, seed, *key, id="-".join([lay.name, str(seed), *map(str, key)]))
            for lay in LAYOUTS if where(lay) for seed in lay.seeds for key in keys or [()]]


@contextlib.contextmanager
def emits(layout, key):
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        yield
    assert {w.category for w in seen} == ({layout.warns[key]} if key in layout.warns else set())


def check(res, sigma, summaries, r, layout, key, tol):
    """top(k) for k = min(p, K + 2), the leading block and sigma_beta against the dense sigma."""
    p, k_span = res.span_vectors.shape
    k = min(p, k_span + 2)
    top, dense = res.top(k), eig_sym(sigma)
    lam = dense.values[0]
    # top(k) lists span values at or above the complement, then complement directions
    first = min(k, int(np.count_nonzero(res.span_values >= res.complement_value)))
    comp = np.isin(np.arange(k) - first, np.arange(min(k - first, p - k_span)))
    assert np.abs(top.values - dense.values[:k]).max() <= tol * lam
    assert np.linalg.norm(sigma @ top.vectors - top.vectors * top.values, axis=0).max() <= tol * lam
    assert np.abs(top.vectors.T @ top.vectors - np.eye(k)).max() <= ORTHONORMAL
    assert np.abs(np.hstack([s.vectors for s in summaries]).T @ top.vectors[:, comp]).max(initial=0.0) <= ORTHONORMAL
    assert np.array_equal(top.values[:r], res.leading.values)
    assert np.array_equal(top.vectors[:, :r], res.leading.vectors)
    if key in layout.exact:
        assert np.abs(top.values - np.sort(layout.exact[key])[::-1][:k]).max() <= tol * lam
    if layout.warns.get(key) is not TieWarning:  # a tie at rank r leaves the leading span to the tie-break
        assert projector_distance(res.leading.vectors, dense.vectors[:, :r]) <= PROJECTOR
    assert np.array_equal(res.sigma_beta, res.sigma_beta.T)
    assert np.abs(res.sigma_beta - sigma).max() <= tol * np.abs(sigma).max()


@pytest.mark.parametrize("layout, seed, beta", rows(*((b,) for b in BETAS)))
def test_beta_aggregate(layout, seed, beta):
    summaries, cfg = layout.summaries(seed), BetaConfig(beta=beta)
    with emits(layout, beta):
        res = beta_aggregate(summaries, cfg, layout.r)
    assert res.branch == ("positive" if beta > 0 else "limit_zero" if beta == 0 else "negative")
    assert layout.K in (None, res.span_vectors.shape[1])
    assert (res.complement_value in res.leading.values) == (beta in layout.leads)
    check(res, dense_beta_sigma(summaries, cfg), summaries, layout.r, layout, beta, VALUES)


@pytest.mark.parametrize("layout, seed, beta", rows(*((b,) for b in BETAS)))
def test_beta_mean(layout, seed, beta):
    """beta_mean of the reconstructions against the oracle on the summaries padded to rank p with listed zeros,
    and at beta != 0 against beta_aggregate.  At beta = 0 the two differ by design: beta_mean takes log of the
    reconstruction's eigenvalue 0 floored at EIGEN_FLOOR, beta_aggregate gives the complement log 1 = 0."""
    summaries, cfg = layout.summaries(seed), BetaConfig(beta=beta)
    p, q = summaries[0].p, summaries[0].q
    padded = [TruncatedEig(np.append(s.values, np.zeros(p - q)),
                           np.hstack([s.vectors, complete_basis(s.vectors, p - q)])) for s in summaries]
    with emits(layout, beta):  # the row declares beta_aggregate's warnings; beta_mean may emit no other
        got, res = beta_mean([reconstruct(s) for s in summaries], cfg), beta_aggregate(summaries, cfg, layout.r)
    sigma = dense_beta_sigma(padded, cfg)
    assert np.abs(got - sigma).max() <= VALUES * np.abs(sigma).max()
    if beta != 0:
        assert np.abs(got - res.sigma_beta).max() <= VALUES * np.abs(sigma).max()


@pytest.mark.parametrize("layout, seed", rows(where=lambda layout: layout.folds))
def test_select_beta(layout, seed, monkeypatch):
    summaries = layout.summaries(seed)
    summaries_r = [truncate_summary(s, layout.r) for s in summaries]
    plan = make_folds(len(summaries), layout.folds, seed=0, candidate_set=BETAS, r=layout.r, q=summaries[0].q)
    cfg = BetaConfig(beta=1.0)
    with emits(layout, "cv"):
        lifts = count_lifts(monkeypatch)
        got = select_beta(summaries, summaries_r, plan, cfg).per_fold
        monkeypatch.undo()
        want = fold_loop_per_fold(summaries, summaries_r, plan, cfg)
    assert (np.abs(got - want) <= np.where(np.array(BETAS) < 0, PER_FOLD_NEGATIVE, PER_FOLD)).all()
    assert (len(lifts) > 0) == layout.lifts


@pytest.mark.parametrize("layout, seed", rows())
def test_fan_aggregate(layout, seed):
    summaries = layout.summaries(seed)
    with emits(layout, "fan"):
        res = fan_aggregate(summaries)
    assert res.branch == "projection_average" and res.complement_value == 0.0
    check(res, dense_fan_sigma(summaries), summaries, summaries[0].q, layout, "fan", FAN)


@pytest.mark.parametrize("layout, seed", rows(where=lambda layout: layout.q))
def test_local_summary(layout, seed):
    for shard in layout.build(seed):
        got, want = local_summary(shard, layout.q), dense_local_summary(shard, layout.q)
        lam, n = want.values[0], min(layout.q, shard.n_ell)  # the samples fix the leading n columns
        assert np.abs(got.values - want.values).max() <= VALUES * lam
        resid = sample_covariance(shard) @ got.vectors - got.vectors * got.values
        assert np.linalg.norm(resid, axis=0).max() <= VALUES * lam
        assert np.abs(got.vectors.T @ got.vectors - np.eye(layout.q)).max() <= ORTHONORMAL
        assert projector_distance(got.vectors[:, :n], want.vectors[:, :n]) <= PROJECTOR
        # beyond n_ell: exact zeros, on directions orthogonal to the samples, in a fixed order
        assert np.array_equal(got.values[n:], np.zeros(layout.q - n))
        x_norm = np.sqrt(lam * shard.n_ell)  # ||X||_2
        assert np.abs(shard.samples.T @ got.vectors[:, n:]).max(initial=0.0) <= ORTHONORMAL * x_norm
        assert np.array_equal(local_summary(shard, layout.q).vectors, got.vectors)
