"""Acceptance gate: every shipped guarantee, checked at its stated tolerance.

One test per criterion; each prints exactly one `[criterion N] PASS/FAIL`
line (run with `pytest tests/test_acceptance.py -v -s` to see them live) and
enforces its runtime budget.  Criteria 6 and 7 share a single pair of
desk-scale experiment runs.

Each criterion is the widest check of the guarantee it states: it runs on
inputs at least as varied, and at a tolerance at least as tight, as any unit
test of the same behaviour.  Where a unit test was stricter, its inputs or
tolerance are folded in here; the unit test stays as a small check that points
at the piece that broke.
"""

import dataclasses
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np
import pytest
from numpy.testing import assert_allclose

from betadpca import (
    BetaConfig,
    CvSelect,
    DataShard,
    ExperimentSpec,
    FixedBeta,
    GAUSSIAN,
    JobSpec,
    LocalSummaryMsg,
    PerturbationScenario,
    STUDENT_T3,
    TruncatedEig,
    beta_mean,
    cli,
    decode_summary,
    divergence,
    encode_summary,
    generating_value,
    listen,
    make_population,
    rho_similarity,
    run_experiment,
    run_local,
    run_sockets,
    sample_data,
    send_summary,
    serve,
    split_shards,
    tolerance,
    verify_minimizer,
    worker_round,
)
from betadpca.cluster import FRAME_OVERHEAD
from helpers import (eig2x2, invariance_check, matrix_function, matrix_power, planted_scenario, rand_scenario,
                     rand_spd, rand_summary)


@contextmanager
def criterion(n: int, desc: str, budget: float | None = None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[criterion {n}] FAIL - {desc}")
        raise
    elapsed = time.perf_counter() - t0
    if budget is not None and elapsed > budget:
        print(f"\n[criterion {n}] FAIL - {desc} (runtime {elapsed:.1f}s over "
              f"the {budget:g}s budget)")
        raise AssertionError(f"runtime {elapsed:.1f}s exceeds {budget:g}s budget")
    print(f"\n[criterion {n}] PASS - {desc} ({elapsed:.2f}s)")


def test_criterion_1_beta_mean_identities():
    with criterion(1, "beta-mean branches match scalar closed forms entrywise on diagonal inputs at 1e-12 "
                      "relative, the arithmetic mean of non-commuting inputs, and the 2x2 beta=2 oracle",
                   budget=1.0):
        delta = 1e-2  # large enough to be visible: the harmonic mean keeps the shift
        closed_forms = {1.0: lambda x, y: (x + y) / 2.0,
                        -1.0: lambda x, y: 2.0 / (1.0 / (x + delta) + 1.0 / (y + delta)),
                        0.0: lambda x, y: np.sqrt(x * y)}
        # distinct, repeated and swapped eigenvalues; off the diagonal the mean is exactly 0
        for x, y in [([1.0, 2.0, 3.0], [4.0, 5.0, 6.0]), ([2.0, 2.0], [4.0, 4.0]), ([1.0, 4.0], [4.0, 1.0])]:
            x, y = np.array(x), np.array(y)
            for beta, closed in closed_forms.items():
                got = beta_mean([np.diag(x), np.diag(y)], BetaConfig(beta=beta, delta=delta))
                assert_allclose(got, np.diag(closed(x, y)), rtol=1e-12, atol=0)

        rng = np.random.default_rng(32)
        mats = [rand_spd(rng, 6) for _ in range(4)]
        assert_allclose(beta_mean(mats, BetaConfig(beta=1.0)), sum(mats) / 4.0, rtol=1e-10, atol=1e-12)

        # non-commuting beta=2: each pair's averaged square is [[7,2],[2,3]] exactly
        vals, vecs = eig2x2(7.0, 2.0, 3.0)
        assert np.abs(vals - (5.0 + np.array([2.0, -2.0]) * np.sqrt(2.0))).max() <= 1e-10
        v = np.column_stack(vecs)
        oracle_sqrt = (v * np.sqrt(vals)) @ v.T
        roots = [matrix_power(np.array([[7.0, 4.0], [4.0, 5.0]]), 0.5), matrix_power(np.diag([7.0, 1.0]), 0.5)]
        for m1, m2 in [(np.array([[2.0, 1.0], [1.0, 2.0]]), np.diag([3.0, 1.0])), roots]:
            assert np.abs(np.sort(np.linalg.eigvalsh((m1 @ m1 + m2 @ m2) / 2.0))[::-1] - vals).max() <= 1e-10
            assert_allclose(beta_mean([m1, m2], BetaConfig(beta=2.0)), oracle_sqrt, rtol=1e-12, atol=0)


def test_criterion_2_limit_continuity():
    with criterion(2, "beta->0 mean of two or three inputs and the divergence limits are continuous "
                      "at 1e-3 relative over 100 random PD draws of dimension 2 to 8", budget=10.0):
        rng = np.random.default_rng(202)
        for i in range(100):
            p = int(rng.integers(2, 9))
            mats = [rand_spd(rng, p, lo=0.5, hi=3.0) for _ in range(2 + i % 2)]

            near = beta_mean(mats, BetaConfig(beta=1e-4, delta=1e-5))
            at0 = beta_mean(mats, BetaConfig(beta=0.0, delta=1e-5))
            assert np.linalg.norm(near - at0) <= 1e-3 * np.linalg.norm(at0)

            m1, m2 = mats[:2]
            d_vn = divergence(m1, m2, 0.0)
            assert abs(divergence(m1, m2, 1e-4) - d_vn) <= 1e-3 * abs(d_vn)
            d_ld = divergence(m1, m2, -1.0)
            assert abs(divergence(m1, m2, -1.0 + 1e-4) - d_ld) <= 1e-3 * abs(d_ld)


# beta = 0 is the von Neumann limit, beta = -1 the log-det limit
BETAS = [-2.0, -0.5, 0.5, 1.0, 2.0, 0.0, -1.0]


def _bregman_gradient(beta, m2):
    p = m2.shape[0]
    if beta == 0.0:
        return matrix_function(m2, np.log)
    if beta == -1.0:
        return np.eye(p) - matrix_power(m2, -1.0)
    return (matrix_power(m2, beta) - np.eye(p)) / beta


def test_criterion_3_divergence_properties():
    with criterion(3, "divergence nonnegativity (> 1e-8 between distinct draws), identity, Bregman "
                      "expansion, and midpoint convexity over 210 PD instances each", budget=30.0):
        rng = np.random.default_rng(303)
        for beta in BETAS:
            for _ in range(30):
                p = int(rng.integers(2, 11))
                m1 = rand_spd(rng, p, lo=0.4, hi=3.0)
                m2 = rand_spd(rng, p, lo=0.4, hi=3.0)

                d = divergence(m1, m2, beta)
                assert d > 1e-8  # distinct random draws separate
                assert abs(divergence(m1, m1, beta)) <= 1e-10

                grad = _bregman_gradient(beta, m2)
                expansion = (generating_value(m1, beta) - generating_value(m2, beta)
                             - np.sum(grad * (m1 - m2)))
                assert abs(d - expansion) <= 1e-8 * abs(expansion) + 1e-10

                mid = generating_value((m1 + m2) / 2.0, beta)
                avg = (generating_value(m1, beta) + generating_value(m2, beta)) / 2.0
                assert mid <= avg + 1e-10


def test_criterion_4_minimizer_margins():
    with criterion(4, "beta-mean minimizes the averaged divergence: margins >= 0 in 50 trials x 4 betas "
                      "x 4 noise scales x 2 input sets", budget=30.0):
        rng = np.random.default_rng(404)
        for beta in (-1.0, 0.0, 0.5, 1.0):
            for scale in (0.01, 0.05, 0.1, 0.5):
                for n_inputs, p in ((3, 5), (5, 6)):
                    mats = [rand_spd(rng, p, lo=0.5, hi=3.0) for _ in range(n_inputs)]
                    rep = verify_minimizer(mats, BetaConfig(beta=beta, delta=1e-5),
                                           trials=50, noise_scale=scale, seed=17)
                    assert rep.margins.shape == (50,)
                    assert rep.all_nonnegative
                    assert rep.min_margin >= 0.0


def test_criterion_5_order_invariance_tolerance():
    with criterion(5, "order invariance <=> perturbation under tolerance <=> the power-mean "
                      "oracle's order (500/500 per beta >= 0); negative-beta invariance up to "
                      "d_l=1e8 (502/502 per beta)", budget=10.0):
        for beta in (0.5, 1.0, 2.0, 0.0):
            rng = np.random.default_rng(505 + int(10 * beta))
            hits = 0
            for _ in range(500):
                sc = rand_scenario(rng, beta)
                rep = tolerance(sc)
                hits += (rep.lambda_tilde_l < rep.tau) == rep.order_invariant == invariance_check(sc)
            assert hits == 500, f"beta={beta}: equivalence held in {hits}/500"

        for beta in (-0.5, -1.0, -2.0):
            rng = np.random.default_rng(515 + int(10 * beta))
            scenarios = [planted_scenario(rng, beta) for _ in range(500)]
            # two machines with spectrum (4, 1): the perturbed noise value stays below 2^(-1/beta) <= 4
            scenarios += [PerturbationScenario([[4.0, 1.0]] * 2, r=1, noise_index=1, d_l=d, beta=beta)
                          for d in (10.0, 1e6)]
            hits = 0
            for sc in scenarios:
                rep = tolerance(sc)
                rep_hi = tolerance(dataclasses.replace(sc, d_l=1e8))
                hits += (np.isinf(rep.tau) and np.isnan(rep.lambda_tilde_l)
                         and rep.order_invariant and rep_hi.order_invariant)
            assert hits == len(scenarios), f"beta={beta}: invariance held in {hits}/{len(scenarios)}"


@pytest.fixture(scope="module")
def desk_runs():
    t0 = time.perf_counter()
    runs = {dist: run_experiment(ExperimentSpec(distribution=dist, seed=0))
            for dist in (STUDENT_T3, GAUSSIAN)}
    runs["elapsed"] = time.perf_counter() - t0
    return runs


def test_criterion_6_selection_frequencies(desk_runs):
    with criterion(6, "CV picks beta=-1 on t3 data (>=60%, beta=1 never) and "
                      "beta=1 on gaussian data (>=80%) at desk scale"):
        assert desk_runs["elapsed"] < 900.0
        reps = desk_runs[STUDENT_T3].spec.replicates
        t3 = desk_runs[STUDENT_T3].selection_counts
        gauss = desk_runs[GAUSSIAN].selection_counts
        assert t3[-1.0] >= 0.6 * reps, f"t3 counts: {t3}"
        assert t3[1.0] == 0, f"t3 counts: {t3}"
        assert gauss[1.0] >= 0.8 * reps, f"gaussian counts: {gauss}"


def test_desk_scale_cv_choices_are_pinned(desk_runs):
    # at seed 0 each replicate's winner leads its runner-up by >= 1e-3 relative,
    # so only a change in CV behaviour moves these counts
    assert desk_runs[STUDENT_T3].selection_counts == {-1.0: 20, 0.0: 0, 1.0: 0}
    assert desk_runs[GAUSSIAN].selection_counts == {-1.0: 0, 0.0: 1, 1.0: 19}


def test_criterion_7_accuracy_curves(desk_runs):
    with criterion(7, "on t3 data beta in {-1, 0} and cv beat the projection-"
                      "average baseline at every k; gaussian methods agree "
                      "within 0.05"):
        assert desk_runs["elapsed"] < 900.0
        t3 = desk_runs[STUDENT_T3]
        for method in ("beta=-1", "beta=0", "beta=cv"):
            for k in t3.spec.k_range:
                assert t3.mean_rho[method][k] > t3.mean_rho["fan"][k], (
                    f"{method} at k={k}: {t3.mean_rho[method][k]:.4f} vs "
                    f"fan {t3.mean_rho['fan'][k]:.4f}")
        gauss = desk_runs[GAUSSIAN]
        for k in gauss.spec.k_range:
            col = [gauss.mean_rho[m][k] for m in gauss.mean_rho]
            assert max(col) - min(col) <= 0.05, f"spread at k={k}: {col}"


def _rand_msg(rng) -> LocalSummaryMsg:
    p = int(rng.integers(3, 42))
    q = int(rng.integers(1, min(p, 12) + 1))
    return LocalSummaryMsg(machine_id=int(rng.integers(0, 500)),
                           n_ell=int(rng.integers(1, 10_000)),
                           summary=rand_summary(rng, p, q))


def _same_block(a: TruncatedEig, b: TruncatedEig) -> bool:
    return (a.values.tobytes() == b.values.tobytes()
            and np.asarray(a.vectors).tobytes() == np.asarray(b.vectors).tobytes())


def test_criterion_8_protocol_correctness():
    with criterion(8, "codec round-trips 1000 messages (p <= 41, q <= 12) bit-exact at the exact "
                      "frame size; socket and in-process transports agree bit for bit, CV scores "
                      "included, on 5 seeded jobs of 3 or 4 machines with one message per worker",
                   budget=30.0):
        rng = np.random.default_rng(808)
        assert FRAME_OVERHEAD == 30
        for _ in range(1000):
            msg = _rand_msg(rng)
            frame = encode_summary(msg)
            assert len(frame) == msg.q * (msg.p + 1) * 8 + FRAME_OVERHEAD
            back = decode_summary(frame)
            assert back.machine_id == msg.machine_id and back.n_ell == msg.n_ell
            assert _same_block(back.summary, msg.summary)

        for seed in range(5):
            mode, machines = (FixedBeta(-1.0), 3) if seed % 2 else (CvSelect(folds=2, seed=seed), 4)
            shards = split_shards(sample_data(make_population(16, 48, 2, GAUSSIAN, seed=seed)), machines)
            job = JobSpec(r=2, q=5, beta_mode=mode)
            local = run_local(shards, job)
            sock = run_sockets(shards, job)
            assert sock.sigma_beta.tobytes() == local.sigma_beta.tobytes()
            assert _same_block(sock.leading, local.leading)
            assert sock.beta_used == local.beta_used and sock.branch == local.branch
            assert (sock.cv is None) == (local.cv is None) == isinstance(mode, FixedBeta)
            if local.cv is not None:
                assert sock.cv.scores == local.cv.scores
            assert sock.missing == () and local.missing == ()

        # count the traffic by hand: one worker_round -> one send per shard
        msgs = [worker_round(s, job.q) for s in shards]
        assert len(msgs) == len(shards)
        server = listen("127.0.0.1", 0, len(shards))
        host, port = server.getsockname()[:2]
        with ThreadPoolExecutor(max_workers=1) as pool:
            coordinator = pool.submit(serve, server, len(shards), job, 30.0)
            sent = [send_summary(host, port, m) for m in msgs]
            result = coordinator.result(30.0)
        assert len(sent) == len(shards)
        assert sent == [len(encode_summary(m)) for m in msgs]
        assert result.missing == ()
        assert result.sigma_beta.tobytes() == local.sigma_beta.tobytes()


def test_criterion_9_simulate_determinism(tmp_path):
    with criterion(9, "fixed-seed simulate runs twice to byte-identical CSVs on gaussian and t3 data"):
        args = ["simulate", "--p", "20", "--n", "40", "--m", "3", "--r", "2",
                "--q", "4", "--reps", "2", "--seed", "11", "--k-max", "6"]
        for dist in (GAUSSIAN, STUDENT_T3):
            dirs = []
            for name in ("a", "b"):
                d = tmp_path / dist / name
                d.mkdir(parents=True)
                assert cli.main(args + ["--dist", dist, "--out", str(d / "results.csv")]) == 0
                dirs.append(d)
            for fname in ("results.csv", "summary_frequencies.csv", "summary_rho.csv"):
                assert (dirs[0] / fname).read_bytes() == (dirs[1] / fname).read_bytes()


def test_criterion_10_one_contaminated_machine():
    with criterion(10, "one machine of five holds another population's samples x3: "
                       "beta=-1 loses <=0.05 of mean rho_r, beta=1 >=0.2, and CV picks "
                       "beta=-1 in >=9 of 10 rounds", budget=5.0):
        p, n, m, r = 200, 250, 5, 5
        rho = {(beta, dirty): [] for beta in (-1.0, 1.0) for dirty in (False, True)}
        cv_choices = []
        for seed in range(10):
            model = make_population(p, n, r, GAUSSIAN, seed=seed)
            clean = split_shards(sample_data(model), m)
            other = sample_data(make_population(p, n, r, GAUSSIAN, seed=1000 + seed))
            dirty = clean[:-1] + [DataShard(samples=3.0 * other[:, -clean[-1].n_ell:], machine_id=m)]
            for (beta, is_dirty), scores in rho.items():
                res = run_local(dirty if is_dirty else clean, JobSpec(r=r, q=10, beta_mode=FixedBeta(beta)))
                scores.append(rho_similarity(res.leading, model.truth_basis()))
            cv_choices.append(run_local(dirty, JobSpec(r=r, q=10, beta_mode=CvSelect())).cv.best_beta)
        drop = {beta: np.mean(rho[beta, False]) - np.mean(rho[beta, True]) for beta in (-1.0, 1.0)}
        assert drop[-1.0] <= 0.05, drop
        assert drop[1.0] >= 0.2, drop
        assert cv_choices.count(-1.0) >= 9, cv_choices
