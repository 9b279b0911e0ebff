"""Property tests against independent references: canonical_order's one stable
sort against the explicit tie scan it replaced (helpers.run_scan_order), the
top of a factored spectrum against the three segments it replaced
(helpers.three_segment_top), and the beta < 0 span path against the closed
form of axis-aligned summaries."""

import warnings

import numpy as np
import pytest

from betadpca import BetaConfig, PrecisionWarning, TruncatedEig, beta_aggregate
from betadpca.aggregation import SpanCore
from betadpca.linalg import canonical_order
from betadpca.local_pca import _top_block

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from helpers import rand_orthogonal, run_scan_order, three_segment_top  # noqa: E402

PROPERTY = settings(max_examples=300, derandomize=True, database=None, deadline=None)
EPS = np.finfo(float).eps
# small sets make ties, repeated columns and +-0.0 entries common
ENTRY = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.5]), st.floats(-2.0, 2.0))
VALUE = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.0]), st.floats(-1e3, 1e3))
# summary eigenvalues on a log scale up to 1e10: beyond the beta < 0 floor at beta = -1 and -2
LAMBDA = st.one_of(st.just(0.0), st.floats(-3.0, 10.0).map(lambda e: 10.0 ** e))
# span values and complements share a small set of levels, so they tie each other often
LEVEL = st.sampled_from([0.0, 1.0, 2.0, 3.0])
SPAN_VALUE = st.one_of(LEVEL, st.floats(0.0, 3.0))
COMPLEMENT = st.one_of(LEVEL, st.floats(0.0, 4.0))


@st.composite
def eigenpairs(draw):
    """Values and a p x q matrix whose columns are drawn from a pool of at most q,
    so a column may repeat, in full or up to the sign of a zero."""
    p, q = draw(st.integers(1, 5)), draw(st.integers(1, 8))
    pool = draw(st.lists(st.lists(ENTRY, min_size=p, max_size=p), min_size=1, max_size=q))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=q, max_size=q))
    values = draw(st.lists(VALUE, min_size=q, max_size=q))
    return np.array(values), np.array([pool[i] for i in picks]).T


@PROPERTY
@given(eigenpairs())
def test_canonical_order_matches_the_run_scan_bit_for_bit(pairs):
    got = canonical_order(*pairs)
    want = run_scan_order(*pairs)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()


@st.composite
def factored_spectra(draw):
    """K <= p span values sorted non-increasing, with repeats, an orthonormal p x K basis for them,
    a complement that lies above, among (or equal to some of) or below them, and the order in which
    a SpanCore holds the values, which need not be sorted."""
    p = draw(st.integers(1, 7))
    k = draw(st.integers(1, p))
    values = np.array(sorted(draw(st.lists(SPAN_VALUE, min_size=k, max_size=k)), reverse=True))
    basis = rand_orthogonal(np.random.default_rng(draw(st.integers(0, 2**16))), p)[:, :k]
    return values, basis, draw(COMPLEMENT), draw(st.permutations(range(k)))


@PROPERTY
@given(factored_spectra())
def test_top_of_a_factored_spectrum_matches_the_three_segments(spectrum):
    # _top_block against the oracle bit for bit at every k, and leading_coords at every r: None exactly
    # when the oracle's top r holds a complement direction or ties at r, else the core's top r columns
    values, basis, complement, held = spectrum
    p, k = basis.shape
    core = SpanCore(values=values[held], vectors=np.eye(k)[:, held], complement=complement, branch="positive")
    for top in range(1, p + 1):
        got = _top_block(values, basis, complement, top)
        want_values, want_vectors, n_comp = three_segment_top(values, basis, complement, top)
        assert got.values.tobytes() == want_values.tobytes()
        assert got.vectors.tobytes() == want_vectors.tobytes()
        next_values = three_segment_top(values, basis, complement, top + 1)[0] if top < p else None
        tied = next_values is not None and next_values[top - 1] == next_values[top]
        lead = core.leading_coords(p, top)
        assert (lead is None) == (n_comp > 0 or tied)
        if lead is not None:
            assert np.array_equal(lead, core.vectors[:, np.argsort(-core.values, kind="stable")[:top]])


@st.composite
def axis_rounds(draw):
    """m axis-aligned rank-q summaries in R^p: n_shared axes that every machine
    covers, and q - n_shared more that each machine draws for itself."""
    p = draw(st.integers(2, 10))
    q = draw(st.integers(1, p))
    n_shared = draw(st.integers(0, q))
    axes = draw(st.permutations(range(p)))
    covers = []
    for _ in range(draw(st.integers(1, 4))):
        own = axes[:n_shared] + draw(st.permutations(axes[n_shared:]))[:q - n_shared]
        lam = sorted(draw(st.lists(LAMBDA, min_size=q, max_size=q)), reverse=True)
        covers.append(dict(zip(own, lam)))
    beta = draw(st.sampled_from([-0.5, -1.0, -2.0]))
    return p, covers, beta, 10.0 ** draw(st.floats(-6.0, -2.0))


@PROPERTY
@given(axis_rounds())
def test_negative_beta_span_path_meets_the_closed_form(round_):
    # Per covered axis a, Sigma's eigenvalue is g_a^(1/beta) with g_a = (1/m) sum_l f_l,
    # f_l = (lam_l + delta)^beta where machine l covers a and delta^beta where it does not.
    # The core holds the shift s = delta^beta when the span is wider than one summary
    # (k > q), so an eigensolve error of a few eps * (s + max f) reaches each g_a; the
    # inverse map divides its relative size by |beta|.  That first-order bound holds
    # where it is below 1; above it the eigenvalue is not resolved, and only the hull
    # rule bounds it: between delta and the largest summary eigenvalue plus delta.
    p, covers, beta, delta = round_
    q = len(covers[0])
    summaries = [TruncatedEig(values=np.array(list(c.values())), vectors=np.eye(p)[:, list(c)]) for c in covers]
    union = sorted(set().union(*covers))
    f = np.array([[(c[a] + delta) ** beta if a in c else delta ** beta for c in covers] for a in union])
    g = np.sort(f.mean(axis=1))  # ascending g: eigenvalues non-increasing, as span_values
    k = len(union)
    shift = delta ** beta if k > q else 0.0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = beta_aggregate(summaries, BetaConfig(beta=beta, delta=delta), 1)
    got, exact = res.span_values, g ** (1.0 / beta)
    bound = 8 * EPS * (shift + f.max()) / (g * abs(beta))
    assert got.size == k
    resolved = bound <= 1
    assert (np.abs(got - exact)[resolved] <= (bound * exact)[resolved]).all()
    top = max(lam for c in covers for lam in c.values()) + delta
    assert (got >= delta * (1 - 1e-12)).all() and (got <= top * (1 + 1e-12)).all()
    own = [(lam + delta) ** beta for c in covers for lam in c.values()]
    warned = any(issubclass(w.category, PrecisionWarning) for w in caught)
    assert warned == (min(own) < EPS * max(shift, max(own)))
