import contextlib
import logging
import math
import socket
import struct
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from operator import attrgetter

import numpy as np
import pytest
from numpy.testing import assert_allclose

from betadpca import (
    GAUSSIAN,
    STUDENT_T3,
    BetaConfig,
    CorruptMessage,
    CvSelect,
    DataShard,
    FixedBeta,
    InvalidInput,
    IoError,
    JobSpec,
    LocalSummaryMsg,
    PrecisionWarning,
    TruncatedEig,
    beta_aggregate,
    coordinator_round,
    decode_summary,
    encode_summary,
    listen,
    local_summary,
    make_population,
    rho_similarity,
    run_local,
    run_sockets,
    sample_data,
    send_summary,
    serve,
    split_shards,
    truncate_summary,
    worker_round,
)
from betadpca import cluster
from betadpca.cluster import FRAME_OVERHEAD
from helpers import count_lifts, count_span_svds, rand_summary


def rand_msg(rng, p=None, q=None):
    p = p or int(rng.integers(3, 12))
    q = q or int(rng.integers(1, p + 1))
    return LocalSummaryMsg(machine_id=int(rng.integers(1, 500)),
                           n_ell=int(rng.integers(1, 1000)),
                           summary=rand_summary(rng, p, q))


def gaussian_shards(p=20, n=60, m=3, r=2, seed=0):
    model = make_population(p, n, r, GAUSSIAN, seed=seed)
    return split_shards(sample_data(model), m), model


@pytest.fixture
def serve_in_thread():
    """start(m, job, timeout) serves a round on a free loopback port and
    returns (future, host, port), the future holding the round's result."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        def start(m, job, timeout):
            server = listen("127.0.0.1", 0, m)
            return pool.submit(serve, server, m, job, timeout), *server.getsockname()[:2]
        yield start


class TestCodec:
    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(91)
        for _ in range(50):
            msg = rand_msg(rng)
            back = decode_summary(encode_summary(msg))
            assert back.machine_id == msg.machine_id
            assert back.n_ell == msg.n_ell
            assert np.array_equal(back.summary.values, msg.summary.values)
            assert np.array_equal(back.summary.vectors, msg.summary.vectors)

    def test_u32_fields_round_trip_at_their_largest(self):
        # 2**32 is refused at construction (test_refused_calls.py), so encode_summary never meets it
        summary = rand_summary(np.random.default_rng(94), 5, 2)
        back = decode_summary(encode_summary(LocalSummaryMsg(machine_id=2**32 - 1, n_ell=2**32 - 1, summary=summary)))
        assert (back.machine_id, back.n_ell) == (2**32 - 1, 2**32 - 1)

    def test_base_frame_size_is_exact(self):
        rng = np.random.default_rng(92)
        msg = rand_msg(rng, p=41, q=6)
        assert len(encode_summary(msg)) == 6 * (41 + 1) * 8 + FRAME_OVERHEAD

    def test_checksum_failure_carries_machine_id(self):
        rng = np.random.default_rng(93)
        msg = rand_msg(rng, p=5, q=2)
        frame = bytearray(encode_summary(msg))
        frame[-12] ^= 0xFF  # flip a bit inside the vectors block
        with pytest.raises(CorruptMessage) as exc_info:
            decode_summary(bytes(frame))
        assert exc_info.value.machine_id == msg.machine_id


class TestWorkerRound:
    def test_fixed_mode_message(self):
        shard = DataShard(samples=np.array([[2.0, -2.0], [0.0, 0.0]]), machine_id=3)
        msg = worker_round(shard, 1)
        assert msg.machine_id == 3 and msg.n_ell == 2
        # covariance diag(4, 0): top eigenpair is (4, e1)
        assert_allclose(msg.summary.values, [4.0], rtol=1e-12)
        assert_allclose(np.abs(msg.summary.vectors[:, 0]), [1.0, 0.0], atol=1e-12)

    def test_cv_mode_sends_the_fixed_beta_frame(self):
        rng = np.random.default_rng(97)
        shard = DataShard(samples=rng.standard_normal((6, 30)), machine_id=1)
        # the job fields a worker acts on are the same in both modes
        cv, fixed = JobSpec(r=2, q=4, beta_mode=CvSelect()), JobSpec(r=2, q=4, beta_mode=FixedBeta(0.0))
        cv_frame = encode_summary(worker_round(shard, cv.q))
        fixed_frame = encode_summary(worker_round(shard, fixed.q))
        assert len(cv_frame) == 4 * (6 + 1) * 8 + FRAME_OVERHEAD
        assert cv_frame == fixed_frame

    def test_matches_local_summary(self):
        rng = np.random.default_rng(98)
        shard = DataShard(samples=rng.standard_normal((5, 20)), machine_id=2)
        msg = worker_round(shard, 3)
        want = local_summary(shard, 3)
        assert np.array_equal(msg.summary.values, want.values)
        assert np.array_equal(msg.summary.vectors, want.vectors)


class TestCoordinatorRound:
    JOB = JobSpec(r=2, q=4, beta_mode=FixedBeta(1.0))

    def msgs(self, m=3, p=10, q=4):
        rng = np.random.default_rng(99)
        return [LocalSummaryMsg(machine_id=i + 1, n_ell=20, summary=rand_summary(rng, p, q)) for i in range(m)]

    def test_single_machine_recovers_local_block(self):
        shard = DataShard(samples=np.random.default_rng(100).standard_normal((8, 40)),
                          machine_id=1)
        job = JobSpec(r=3, q=5, beta_mode=FixedBeta(1.0))
        res = coordinator_round([worker_round(shard, job.q)], job, expected_ids=(1,))
        own = truncate_summary(local_summary(shard, 5), 3)
        assert_allclose(res.leading.values, own.values, rtol=1e-8)
        assert rho_similarity(res.leading, own.vectors) > 1.0 - 1e-8

    def test_order_insensitive_bitwise(self):
        msgs = self.msgs()
        a = coordinator_round(msgs, self.JOB, expected_ids=(1, 2, 3))
        b = coordinator_round(msgs[::-1], self.JOB, expected_ids=(1, 2, 3))
        assert np.array_equal(a.sigma_beta, b.sigma_beta)
        assert np.array_equal(a.leading.vectors, b.leading.vectors)

    def test_tied_p_goes_to_the_lowest_machine_id(self):
        # machines 1 and 2 share p = 11, 3 and 4 p = 10: in either arrival order the round's p is machine 1's
        msgs = [replace(m, machine_id=i) for i, m in zip((3, 4, 1, 2), self.msgs(m=2) + self.msgs(m=2, p=11))]
        for order in (msgs, msgs[::-1]):
            res = coordinator_round(order, self.JOB, expected_ids=(1, 2, 3, 4))
            assert res.missing == (3, 4) and res.span_vectors.shape[0] == 11

    def test_cv_aggregates_plain_summaries(self):
        msgs = self.msgs(m=4)
        job = JobSpec(r=2, q=4, beta_mode=CvSelect(folds=2, seed=0))
        res = coordinator_round(msgs, job, expected_ids=(1, 2, 3, 4))
        assert res.cv is not None and res.beta_used == res.cv.best_beta
        want = beta_aggregate([m.summary for m in msgs],
                              BetaConfig(beta=res.cv.best_beta, delta=job.delta), job.r)
        assert np.array_equal(res.sigma_beta, want.sigma_beta)

    def test_cv_round_takes_one_span_svd(self, monkeypatch):
        # the fold loop and the final aggregate share one basis of the stack
        msgs = self.msgs(m=4, p=30, q=3)
        shapes = count_span_svds(monkeypatch, rows=30)
        lifts = count_lifts(monkeypatch)
        coordinator_round(msgs, JobSpec(r=2, q=3, beta_mode=CvSelect(folds=2, seed=0)), (1, 2, 3, 4))
        assert shapes == [(30, 12)]
        assert lifts == [(30, 12)]  # the winner's aggregate; the fold loop stays in coordinates

    def test_missing_machines_reported(self, caplog):
        msgs = self.msgs(m=3)
        with caplog.at_level(logging.WARNING):
            res = coordinator_round(msgs, self.JOB, expected_ids=range(1, 6))
        assert res.missing == (4, 5)
        assert "3 of 5 reported" in caplog.text

    def test_cv_result_attached(self):
        rng = np.random.default_rng(101)
        shards, _ = gaussian_shards(m=4, n=80, seed=int(rng.integers(1000)))
        job = JobSpec(r=2, q=4, beta_mode=CvSelect(folds=2, seed=1))
        msgs = [worker_round(s, job.q) for s in shards]
        res = coordinator_round(msgs, job, expected_ids=(1, 2, 3, 4))
        assert res.cv is not None
        assert res.beta_used == res.cv.best_beta
        assert res.missing == ()


class TestTransports:
    def test_socket_and_local_agree_bitwise_fixed(self):
        shards, _ = gaussian_shards()
        job = JobSpec(r=2, q=5, beta_mode=FixedBeta(-1.0))
        a = run_local(shards, job)
        b = run_sockets(shards, job)
        assert np.array_equal(a.sigma_beta, b.sigma_beta)
        assert np.array_equal(a.leading.values, b.leading.values)
        assert np.array_equal(a.leading.vectors, b.leading.vectors)
        assert a.beta_used == b.beta_used

    def test_socket_and_local_agree_bitwise_cv(self):
        shards, _ = gaussian_shards(m=4, n=80, seed=3)
        job = JobSpec(r=2, q=5, beta_mode=CvSelect(folds=2, seed=0))
        a = run_local(shards, job)
        b = run_sockets(shards, job)
        assert np.array_equal(a.sigma_beta, b.sigma_beta)
        assert a.cv.best_beta == b.cv.best_beta
        assert a.cv.scores == b.cv.scores

    def test_subset_of_machines_is_not_missing_any(self, caplog):
        # shards 2 and 4 of four: a round of exactly those machines is complete
        shards, _ = gaussian_shards(m=4, n=80)
        subset = [shards[1], shards[3]]
        assert [s.machine_id for s in subset] == [2, 4]
        job = JobSpec(r=1, q=3, beta_mode=FixedBeta(1.0))
        with caplog.at_level(logging.WARNING):
            a = run_local(subset, job)
            b = run_sockets(subset, job)
        assert a.missing == () and b.missing == ()
        assert "aggregating without" not in caplog.text
        assert np.array_equal(a.sigma_beta, b.sigma_beta)

    @staticmethod
    def overflowing_round():
        # machine 4's samples scaled by 1e100: its values (~1e200) overflow beta=2's forward map
        shards, _ = gaussian_shards(m=4, n=120)
        bad = DataShard(samples=shards[3].samples * 1e100, machine_id=4)
        return shards[:3] + [bad], JobSpec(r=2, q=3, beta_mode=FixedBeta(2.0))

    def test_overflowing_worker_dropped_in_process(self, caplog):
        shards, job = self.overflowing_round()
        with caplog.at_level(logging.WARNING):
            res = run_local(shards, job)
        assert "dropping machine 4's message: its values overflow" in caplog.text
        assert res.missing == (4,)
        want = run_local(shards[:3], job)
        assert np.array_equal(res.span_values, want.span_values)
        assert np.array_equal(res.leading.vectors, want.leading.vectors)

    def test_overflowing_worker_dropped_over_sockets(self):
        # the dropped frame does not end the round: the others are aggregated at the deadline
        shards, job = self.overflowing_round()
        t0 = time.monotonic()
        res = run_sockets(shards, job, timeout=TestOneBadWorker.DEADLINE)
        assert time.monotonic() - t0 <= TestOneBadWorker.DEADLINE + 0.5
        assert res.missing == (4,)
        want = run_local(shards[:3], job)
        assert np.array_equal(res.span_values, want.span_values)
        assert np.array_equal(res.leading.vectors, want.leading.vectors)

    @pytest.mark.parametrize("mode", [CvSelect(), FixedBeta(-1.0)])
    def test_t3_round_stays_below_the_precision_floor(self, mode):
        # beta = -1's floor delta / eps ~ 4.5e10 lies far above t3 shard eigenvalues
        shards = split_shards(sample_data(make_population(500, 250, 5, STUDENT_T3, 24)), 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error", PrecisionWarning)
            run_local(shards, JobSpec(r=5, q=10, beta_mode=mode))

    def test_failing_send_leaves_nothing_behind(self, monkeypatch):
        # the second shard's send fails: the error surfaces once the round's
        # deadline has passed, with no coordinator thread or listener left
        shards, _ = gaussian_shards(m=3)
        job = JobSpec(r=1, q=3, beta_mode=FixedBeta(1.0))
        real, addrs = cluster.send_summary, []

        def flaky(host, port, msg, timeout):
            addrs.append((host, port))
            if len(addrs) == 2:
                raise IoError("link down")
            return real(host, port, msg, timeout=timeout)

        monkeypatch.setattr(cluster, "send_summary", flaky)
        before = threading.active_count()
        with pytest.raises(IoError, match="link down"):
            run_sockets(shards, job, timeout=0.5)
        assert threading.active_count() == before
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(addrs[0], timeout=1.0).close()

    def test_serve_closes_its_listener_when_no_worker_arrives(self):
        server = listen("127.0.0.1", 0, 1)
        with contextlib.suppress(IoError):  # the IoError is a row of test_refused_calls.py
            serve(server, 1, JobSpec(r=1, q=2, beta_mode=FixedBeta(1.0)), timeout=0.2)
        assert server.fileno() == -1


# A raw act plays a bad party on its own loopback connection: it sends data(machine 3's frame), then
# closes the connection, resets it (SO_LINGER 0) or leaves it open (in `hold`) until the round is over.
def raw(data, end="close"):
    def act(addr, frame, hold):
        conn = hold.enter_context(socket.create_connection(addr))
        conn.sendall(data(frame))
        if end == "reset":
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        if end != "open":
            conn.close()
    return act


def in_7_byte_pieces(addr, frame, hold):
    # the junk after the frame is never read, since a connection is read up to its length prefix
    with socket.create_connection(addr) as conn:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for i in range(0, len(frame), 7):
            conn.sendall(frame[i:i + 7])
            time.sleep(0.001)
        conn.sendall(b"junk" * 4)


@dataclass(frozen=True)
class Fault:
    """One bad party against good machines 1-3, `sends` in arrival order: message names (sent
    by send_summary) or raw acts.  The round keeps the `kept` messages, lists `missing` and logs
    `drop` (a part of the warning naming the dropped party); with neither, it logs no warning."""

    name: str
    sends: tuple
    kept: tuple[str, ...]
    missing: tuple[int, ...]
    drop: str | None = None
    beta: float = 2.0


silent, half = raw(lambda f: b"", end="open"), (lambda f: f[:len(f) // 2])
GOOD, TWO = ("1", "2", "3"), ("1", "2")
FAULTS = [
    Fault("absent", TWO, TWO, (3,)),
    Fault("silent machine", (silent, *TWO), TWO, (3,)),
    Fault("silent extra connection", (silent, *GOOD), GOOD, ()),
    Fault("stalled mid-frame", (raw(half, end="open"), *TWO), TWO, (3,)),
    Fault("reset mid-frame", (raw(lambda f: f[:8], end="reset"), *TWO), TWO, (3,), "dropping bad worker connection"),
    Fault("garbage bytes", (raw(lambda f: struct.pack("<I", 8) + b"junkjunk"), *GOOD), GOOD, (), "frame of 12 bytes"),
    Fault("wrong q then a retry", ("3 at q=2", "1", "3", "2"), GOOD, (), "machine 3's message of rank 2 (job q=3)"),
    Fault("stray id 7", ("1", "7", "2", "3"), GOOD, (), "dropping a message from unexpected machine 7"),
    Fault("repeated frame", ("3", "3", *TWO), GOOD, (), "dropping a repeated message from machine 3"),
    Fault("impostor before real frame", ("3'", "1", "3", "2"), (*TWO, "3'"), (), "repeated message from machine 3"),
    Fault("impostor after real frame", ("3", "3'", *TWO), GOOD, (), "dropping a repeated message from machine 3"),
    Fault("frame in 7-byte pieces then junk", (in_7_byte_pieces, *TWO), GOOD, ()),
    Fault("clean close mid-frame", (raw(half), *TWO), TWO, (3,), "connection: connection closed after 267 bytes"),
    Fault("flipped crc byte", (raw(lambda f: f[:-1] + bytes([f[-1] ^ 0xFF])), *TWO), TWO, (3,), "checksum mismatch"),
    # the coordinator buffers the bytes that arrive, not the 4 GiB that the prefix claims
    Fault("length prefix 2**32-1", (raw(lambda f: b"\xff" * 4 + f[4:12], end="open"), *TWO), TWO, (3,)),
    Fault("wrong q, no retry", ("3 at q=2", *TWO), TWO, (3,), "dropping machine 3's message of rank 2 (job q=3)"),
    Fault("wrong p", ("3 at p=21", *TWO), TWO, (3,), "dropping machine 3's message of p=21 (the round's p=20)"),
    Fault("values 1e200 at beta=2", ("3 at 1e200", *TWO), TWO, (3,), "machine 3's message: its values overflow"),
    Fault("values 1e200 at beta=1 kept", ("3 at 1e200", *TWO), ("1", "2", "3 at 1e200"), (), beta=1.0),
]


def fault_cases():
    # a message-only row also runs in-process; a row that waits out the deadline plays one arrival order
    for f in FAULTS:
        for entry in ["serve"] + ["coordinator_round"] * all(isinstance(s, str) for s in f.sends):
            for order in ("1 before 2", "2 before 1")[:1 if f.missing else 2]:
                yield pytest.param(f, entry, order, id=f"{entry}-{f.name}-{order}")


class TestOneBadWorker:
    """No single bad party hangs or aborts a round: it ends within its deadline,
    aggregates exactly what a round of the kept messages alone does, and a
    warning names the dropped party."""

    DEADLINE = 0.4

    @pytest.fixture(scope="class")
    def msgs(self):
        good = {str(s.machine_id): worker_round(s, 3) for s in gaussian_shards(m=3)[0]}
        n_ell, three = good["3"].n_ell, good["3"].summary
        return good | {name: LocalSummaryMsg(machine_id=i, n_ell=n_ell, summary=summary) for name, i, summary in [
            ("3 at q=2", 3, truncate_summary(three, 2)),
            ("3 at 1e200", 3, TruncatedEig(np.array([1e200, 1e199, 1e198]), three.vectors)),
            ("3'", 3, rand_summary(np.random.default_rng(7), three.p, 3)),  # an impostor
            ("3 at p=21", 3, rand_summary(np.random.default_rng(7), three.p + 1, 3)),
            ("7", 7, three)]}

    @pytest.mark.parametrize("fault, entry, order", fault_cases())
    def test_round(self, fault, entry, order, msgs, caplog, serve_in_thread):
        job = JobSpec(r=2, q=3, beta_mode=FixedBeta(fault.beta))
        sends = [({"1": "2", "2": "1"} if order == "2 before 1" else {}).get(s, s) for s in fault.sends]
        with caplog.at_level(logging.WARNING):
            start = time.monotonic()
            if entry == "coordinator_round":
                res = coordinator_round([msgs[s] for s in sends], job, expected_ids=(1, 2, 3))
            else:
                round_, *addr = serve_in_thread(3, job, self.DEADLINE)
                with contextlib.ExitStack() as hold:
                    for s in sends:
                        if isinstance(s, str):
                            send_summary(*addr, msgs[s])
                        else:
                            s(tuple(addr), encode_summary(msgs["3"]), hold)
                    res = round_.result(self.DEADLINE + 5.0)
            elapsed = time.monotonic() - start
        assert elapsed <= self.DEADLINE + 0.5
        assert fault.missing or elapsed < self.DEADLINE
        assert res.missing == fault.missing
        for line in (fault.drop, fault.missing and f"aggregating without machines {fault.missing}"):
            assert not line or line in caplog.text
        assert fault.drop or fault.missing or not caplog.records
        want = coordinator_round([msgs[k] for k in fault.kept], job, expected_ids=(1, 2, 3))
        for field in ("span_values", "span_vectors", "complement_value", "leading.values", "leading.vectors"):
            assert np.array_equal(attrgetter(field)(res), attrgetter(field)(want))


class TestTimeoutResolution:
    """The deadline is the timeout argument, which defaults to 30 s."""

    @staticmethod
    def spy_connect(monkeypatch):
        seen = []
        real = socket.create_connection

        def spy(address, timeout=None, *args, **kwargs):
            seen.append(timeout)
            return real(address, timeout, *args, **kwargs)

        monkeypatch.setattr(socket, "create_connection", spy)
        return seen

    def test_argument_wins(self, monkeypatch, serve_in_thread):
        seen = self.spy_connect(monkeypatch)
        job = JobSpec(r=1, q=3, beta_mode=FixedBeta(1.0))
        shards, _ = gaussian_shards(m=1)
        round_, host, port = serve_in_thread(1, job, timeout=5.0)
        send_summary(host, port, worker_round(shards[0], job.q), timeout=2.5)
        round_.result(10.0)
        assert seen == [2.5]

    def test_default(self, monkeypatch, serve_in_thread):
        seen = self.spy_connect(monkeypatch)
        job = JobSpec(r=1, q=3, beta_mode=FixedBeta(1.0))
        shards, _ = gaussian_shards(m=1)
        round_, host, port = serve_in_thread(1, job, timeout=5.0)
        send_summary(host, port, worker_round(shards[0], job.q))
        round_.result(10.0)
        assert seen == [30.0]

    def test_run_sockets_passes_its_timeout_to_every_send(self, monkeypatch):
        seen = self.spy_connect(monkeypatch)
        shards, _ = gaussian_shards(m=2)
        run_sockets(shards, JobSpec(r=1, q=3, beta_mode=FixedBeta(1.0)), timeout=4.5)
        assert seen == [4.5, 4.5]

    @pytest.mark.parametrize("timeout", [math.inf, math.nan, -1.0, 0.0, cluster.MAX_TIMEOUT_SECS * 3], ids=repr)
    @pytest.mark.parametrize("call", ["run_sockets", "serve", "send_summary"])
    def test_a_bad_timeout_is_invalid_input_before_any_socket_work(self, call, timeout, monkeypatch):
        job = JobSpec(r=1, q=3, beta_mode=FixedBeta(1.0))
        shards, _ = gaussian_shards(m=2)
        server = listen("127.0.0.1", 0, 2)
        address = server.getsockname()[:2]

        def no_socket(*args, **kwargs):
            raise AssertionError("socket work before the timeout was checked")

        monkeypatch.setattr(socket, "create_server", no_socket)
        monkeypatch.setattr(socket, "create_connection", no_socket)
        calls = {"run_sockets": lambda: run_sockets(shards, job, timeout=timeout),
                 "serve": lambda: serve(server, 2, job, timeout=timeout),
                 "send_summary": lambda: send_summary(*address, worker_round(shards[0], job.q), timeout=timeout)}
        with server:
            with pytest.raises(InvalidInput, match="timeout must be a positive number of seconds up to 1e\\+06"):
                calls[call]()
            if call == "serve":
                assert server.fileno() == -1  # serve closes the listener it was handed


class TestAggregateBeatsLocals:
    def test_aggregation_wins_across_replicates(self):
        # 100 Monte Carlo replicates: the beta=1 aggregate's top-r similarity
        # should beat every individual machine in at least 80 of them
        wins = 0
        p, n, m, r, q = 200, 250, 5, 5, 10
        job = JobSpec(r=r, q=q, beta_mode=FixedBeta(1.0))
        for rep in range(100):
            model = make_population(p, n, r, GAUSSIAN, seed=10_000 + rep)
            shards = split_shards(sample_data(model), m)
            truth = model.truth_basis()
            res = coordinator_round([worker_round(s, job.q) for s in shards], job,
                                    expected_ids=[s.machine_id for s in shards])
            agg_rho = rho_similarity(res.leading, truth)
            local_best = max(
                rho_similarity(truncate_summary(local_summary(s, q), r), truth)
                for s in shards
            )
            wins += agg_rho > local_best
        assert wins >= 80, f"aggregate beat all locals in only {wins}/100 replicates"
