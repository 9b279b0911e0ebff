"""Tests of the benchmark's own parts: the dense oracle and the probes.

Run from the repository root:  python3 -m pytest bench/test_bench.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import betadpca  # noqa: E402
import oracle  # noqa: E402
import probe  # noqa: E402

P, N, M, Q, R = 40, 240, 4, 6, 3


def shards(distribution="t3", seed=3, scale=1.0):
    model = betadpca.make_population(P, N, R, distribution, seed)
    return betadpca.split_shards(scale * betadpca.sample_data(model), M)


def summaries_of(data):
    ours = [oracle.summarize(s.samples, Q) for s in data]
    package = [betadpca.local_summary(s, Q) for s in data]
    return ours, package


@pytest.mark.parametrize("beta", [-1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
def test_oracle_agrees_with_beta_aggregate(beta):
    ours, package = summaries_of(shards())
    agg = betadpca.beta_aggregate(package, betadpca.BetaConfig(beta=beta), R)
    values, vectors = oracle.beta_mean(ours, beta)
    assert oracle.resolved(values, R)
    assert oracle.leading_mismatch(agg.leading.values, agg.leading.vectors, values, vectors) is None
    # the whole spectrum: the span, then the complement, where a fractional
    # root of round-off (beta > 1) leaves values near sqrt(eps)
    full = np.sort(np.linalg.eigvalsh(agg.sigma_beta))[::-1]
    np.testing.assert_allclose(full[:M * Q], values[:M * Q], rtol=1e-9)
    np.testing.assert_allclose(full[M * Q:], values[M * Q:], rtol=0, atol=1e-7 * values[0])


def test_limit_zero_complement_is_one_with_sub_unit_spectra():
    # Every summary eigenvalue is below 1, so the complement of the span
    # (eigenvalue exactly 1) outranks the span.  Giving it log(floor) instead
    # of log-eigenvalue 0 would put 1e-12 there.
    ours, package = summaries_of(shards(scale=1e-3))
    assert max(v.max() for v, _ in ours) < 1.0
    agg = betadpca.beta_aggregate(package, betadpca.BetaConfig(beta=0.0), R)
    values, _ = oracle.beta_mean(ours, 0.0)
    assert values[0] == pytest.approx(1.0)
    full = np.sort(np.linalg.eigvalsh(agg.sigma_beta))[::-1]
    np.testing.assert_allclose(full, values, rtol=1e-9)


@pytest.mark.parametrize("wrong", [1.0, -1.0])
def test_oracle_flags_an_aggregate_at_the_wrong_beta(wrong):
    ours, package = summaries_of(shards())
    agg = betadpca.beta_aggregate(package, betadpca.BetaConfig(beta=wrong), R)
    values, vectors = oracle.beta_mean(ours, 0.0)
    assert oracle.leading_mismatch(agg.leading.values, agg.leading.vectors, values, vectors) is not None


def test_cv_scores_match_select_beta():
    data = shards(seed=5)
    ours, package = summaries_of(data)
    plan = betadpca.make_folds(M, 5, 0, r=R, q=Q)
    cv = betadpca.select_beta(package, [betadpca.truncate_summary(s, R) for s in package], plan,
                              betadpca.BetaConfig(beta=-1.0))
    scores, all_resolved = oracle.cv_scores(ours, plan.folds, plan.candidate_set, R)
    assert all_resolved
    np.testing.assert_allclose(scores, [cv.scores[b] for b in plan.candidate_set], atol=1e-9)


def test_tracer_records_the_round_and_detaches():
    original = betadpca.linalg.eig_sym
    tracer = probe.Tracer(betadpca)
    tracer.begin_op()
    betadpca.cluster.run_local(shards(), betadpca.JobSpec(r=R, q=Q, beta_mode=betadpca.FixedBeta(1.0)))
    spans = tracer.end_op()
    assert betadpca.linalg.eig_sym is original and betadpca.aggregation.eig_sym is original
    by_id = {s.id: s for s in spans}
    names = [s.name for s in spans]
    assert names.count("cluster.worker_round") == M
    assert names.count("local_pca.local_summary") == M
    assert names.count("linalg.eig_sym") == M + 2  # one per worker, two at the coordinator
    op = next(s for s in spans if s.name == "op")
    coord = next(s for s in spans if s.name == "cluster.coordinator_round")
    assert coord.parent == op.id
    for s in spans:
        if s.name == "linalg.eig_sym":
            assert by_id[s.parent].name in ("local_pca.truncated_eig", "aggregation.beta_aggregate")
            assert s.dim == P
    stats = probe.LayerStats()
    stats.add(spans, M, 0, 0)
    metrics = stats.metrics()
    assert metrics["linalg.eig_sym.calls"] == M + 2
    assert metrics["linalg.eig_sym.n3"] == (M + 2) * P ** 3
    assert 0 < metrics["local_pca.local_summary.self_share"] < metrics["local_pca.local_summary.share"] < 1


def test_counters_count_frames_and_connects_on_a_socket_round():
    counters = probe.Counters(betadpca.cluster)
    try:
        betadpca.cluster.run_sockets(shards(), betadpca.JobSpec(r=R, q=Q, beta_mode=betadpca.FixedBeta(1.0)))
    finally:
        counters.close()
    assert counters.frames == M
    assert counters.wire_bytes == M * (Q * (P + 1) * 8 + betadpca.cluster.FRAME_OVERHEAD)
    assert counters.connects == M
    assert betadpca.cluster.socket is __import__("socket")


def test_covered_takes_the_union_of_overlapping_parts():
    assert probe.covered((0.0, 10.0), [(1.0, 3.0), (2.0, 5.0), (8.0, 12.0)]) == pytest.approx(6.0)
