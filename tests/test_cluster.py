import logging
import socket
import struct
import threading
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from betadpca import (
    GAUSSIAN,
    BetaConfig,
    CorruptMessage,
    CvSelect,
    DataShard,
    FixedBeta,
    InvalidInput,
    IoError,
    JobSpec,
    LocalSummaryMsg,
    ParseError,
    beta_aggregate,
    coordinator_round,
    decode_summary,
    encode_summary,
    local_summary,
    make_population,
    resolve_timeout,
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
from betadpca.cluster import FRAME_OVERHEAD
from helpers import rand_summary, wrap_frame


def rand_msg(rng, p=None, q=None):
    p = p or int(rng.integers(3, 12))
    q = q or int(rng.integers(1, p + 1))
    return LocalSummaryMsg(machine_id=int(rng.integers(1, 500)),
                           n_ell=int(rng.integers(1, 1000)),
                           summary=rand_summary(rng, p, q))


def gaussian_shards(p=20, n=60, m=3, r=2, seed=0):
    model = make_population(p, n, r, GAUSSIAN, seed=seed)
    return split_shards(sample_data(model), m), model


def serve_in_thread(m, job, timeout):
    """Start serve on a free loopback port; returns (box, thread, host, port),
    with the round's result in box["res"] once the thread ends."""
    box = {}
    listening = threading.Event()

    def _serve():
        box["res"] = serve("127.0.0.1", 0, m, job, timeout=timeout,
                           on_listen=lambda addr: (box.__setitem__("addr", addr), listening.set()))

    thread = threading.Thread(target=_serve, daemon=True)
    thread.start()
    assert listening.wait(5.0)
    return box, thread, *box["addr"]


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

    def test_bad_magic(self):
        rng = np.random.default_rng(94)
        frame = bytearray(encode_summary(rand_msg(rng, p=4, q=1)))
        frame[4:8] = b"NOPE"
        with pytest.raises(ParseError):
            decode_summary(bytes(frame))

    def test_unknown_version(self):
        rng = np.random.default_rng(95)
        frame = bytearray(encode_summary(rand_msg(rng, p=4, q=1)))
        frame[8:10] = struct.pack("<H", 9)
        with pytest.raises(ParseError):
            decode_summary(bytes(frame))

    def test_version_2_frame_rejected(self):
        # a well-formed frame of the retired bundled-block layout: the rank-q
        # summary followed by r, values_r and vectors_r, with a valid CRC
        rng = np.random.default_rng(95)
        msg = rand_msg(rng, p=4, q=2)
        block = truncate_summary(msg.summary, 1)
        payload = encode_summary(msg)[10:-4] + struct.pack("<I", 1)
        payload += block.values.astype("<f8").tobytes()
        payload += block.vectors.astype("<f8").tobytes(order="F")
        with pytest.raises(ParseError, match="unsupported protocol version 2"):
            decode_summary(wrap_frame(payload, version=2))

    @pytest.mark.parametrize("extra", [-8, 1, 8])
    def test_payload_must_fit_p_and_q(self, extra):
        # CRC and length prefix valid, payload a float short or bytes too long
        rng = np.random.default_rng(95)
        payload = encode_summary(rand_msg(rng, p=4, q=2))[10:-4]
        payload = payload[:extra] if extra < 0 else payload + bytes(extra)
        with pytest.raises(ParseError, match="does not fit"):
            decode_summary(wrap_frame(payload))

    def test_truncated_frame(self):
        rng = np.random.default_rng(96)
        frame = encode_summary(rand_msg(rng, p=4, q=2))
        with pytest.raises(ParseError):
            decode_summary(frame[:-5])

    def test_non_orthonormal_payload_rejected_after_crc(self):
        # hand-build a frame whose CRC is fine but whose vectors are invalid
        payload = struct.pack("<IIII", 1, 2, 1, 10)
        payload += np.array([1.0]).astype("<f8").tobytes()
        payload += np.array([[2.0], [0.0]]).astype("<f8").tobytes(order="F")
        with pytest.raises(ParseError, match="invalid summary"):
            decode_summary(wrap_frame(payload))

    def test_huge_vector_entries_rejected_without_a_warning(self):
        # 1e308 in the vectors would overflow the gram; it is rejected before
        payload = struct.pack("<IIII", 1, 2, 1, 10)
        payload += np.array([1.0]).astype("<f8").tobytes()
        payload += np.array([[1e308], [1e308]]).astype("<f8").tobytes(order="F")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError, match="not orthonormal"):
                decode_summary(wrap_frame(payload))


class TestWorkerRound:
    def test_fixed_mode_message(self):
        shard = DataShard(samples=np.array([[2.0, -2.0], [0.0, 0.0]]), machine_id=3)
        msg = worker_round(shard, JobSpec(r=1, q=1, beta_mode=FixedBeta(1.0)))
        assert msg.machine_id == 3 and msg.n_ell == 2
        # covariance diag(4, 0): top eigenpair is (4, e1)
        assert_allclose(msg.summary.values, [4.0], rtol=1e-12)
        assert_allclose(np.abs(msg.summary.vectors[:, 0]), [1.0, 0.0], atol=1e-12)

    def test_cv_mode_sends_the_fixed_beta_frame(self):
        rng = np.random.default_rng(97)
        shard = DataShard(samples=rng.standard_normal((6, 30)), machine_id=1)
        cv_frame = encode_summary(worker_round(shard, JobSpec(r=2, q=4, beta_mode=CvSelect())))
        fixed_frame = encode_summary(worker_round(shard, JobSpec(r=2, q=4,
                                                                 beta_mode=FixedBeta(0.0))))
        assert len(cv_frame) == 4 * (6 + 1) * 8 + FRAME_OVERHEAD
        assert cv_frame == fixed_frame

    def test_matches_local_summary(self):
        rng = np.random.default_rng(98)
        shard = DataShard(samples=rng.standard_normal((5, 20)), machine_id=2)
        msg = worker_round(shard, JobSpec(r=1, q=3, beta_mode=FixedBeta(0.0)))
        want = local_summary(shard, 3)
        assert np.array_equal(msg.summary.values, want.values)
        assert np.array_equal(msg.summary.vectors, want.vectors)


class TestCoordinatorRound:
    def job(self, beta=1.0, r=2, q=4):
        return JobSpec(r=r, q=q, beta_mode=FixedBeta(beta))

    def msgs(self, seed=99, m=3, p=10, q=4):
        rng = np.random.default_rng(seed)
        return [LocalSummaryMsg(machine_id=i + 1, n_ell=20, summary=rand_summary(rng, p, q))
                for i in range(m)]

    def test_single_machine_recovers_local_block(self):
        shard = DataShard(samples=np.random.default_rng(100).standard_normal((8, 40)),
                          machine_id=1)
        job = JobSpec(r=3, q=5, beta_mode=FixedBeta(1.0))
        res = coordinator_round([worker_round(shard, job)], job)
        own = truncate_summary(local_summary(shard, 5), 3)
        assert_allclose(res.leading.values, own.values, rtol=1e-8)
        assert rho_similarity(res.leading, own.vectors) > 1.0 - 1e-8

    def test_order_insensitive_bitwise(self):
        msgs = self.msgs()
        a = coordinator_round(msgs, self.job())
        b = coordinator_round(msgs[::-1], self.job())
        assert np.array_equal(a.sigma_beta, b.sigma_beta)
        assert np.array_equal(a.leading.vectors, b.leading.vectors)

    def test_duplicate_ids_rejected(self):
        msgs = self.msgs()
        dup = [msgs[0], msgs[0], msgs[2]]
        with pytest.raises(InvalidInput):
            coordinator_round(dup, self.job())

    def test_rank_mismatch_with_job_rejected(self):
        msgs = self.msgs(q=3)
        with pytest.raises(InvalidInput):
            coordinator_round(msgs, self.job(q=4))

    def test_cv_aggregates_plain_summaries(self):
        msgs = self.msgs(m=4)
        job = JobSpec(r=2, q=4, beta_mode=CvSelect(folds=2, seed=0))
        res = coordinator_round(msgs, job)
        assert res.cv is not None and res.beta_used == res.cv.best_beta
        want = beta_aggregate([m.summary for m in msgs],
                              BetaConfig(beta=res.cv.best_beta, delta=job.delta), job.r)
        assert np.array_equal(res.sigma_beta, want.sigma_beta)

    def test_missing_machines_reported(self, caplog):
        msgs = self.msgs(m=3)
        with caplog.at_level(logging.WARNING):
            res = coordinator_round(msgs, self.job(), expected_m=5)
        assert res.missing == (4, 5)
        assert "3 of 5 reported" in caplog.text

    def test_cv_result_attached(self):
        rng = np.random.default_rng(101)
        shards, _ = gaussian_shards(m=4, n=80, seed=int(rng.integers(1000)))
        job = JobSpec(r=2, q=4, beta_mode=CvSelect(folds=2, seed=1))
        msgs = [worker_round(s, job) for s in shards]
        res = coordinator_round(msgs, job, expected_m=4)
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

    def test_serve_aggregates_partial_round_on_timeout(self, caplog):
        shards, _ = gaussian_shards(m=2)
        job = JobSpec(r=1, q=3, beta_mode=FixedBeta(1.0))
        with caplog.at_level(logging.WARNING):
            box, thread, host, port = serve_in_thread(2, job, timeout=1.0)
            send_summary(host, port, worker_round(shards[0], job))
            thread.join(10.0)
        assert not thread.is_alive()
        assert box["res"].missing == (2,)

    def test_serve_with_no_workers_raises(self):
        job = JobSpec(r=1, q=2, beta_mode=FixedBeta(1.0))
        with pytest.raises(IoError):
            serve("127.0.0.1", 0, 1, job, timeout=0.2)

    def test_garbage_connection_dropped(self):
        shards, _ = gaussian_shards(m=2)
        job = JobSpec(r=1, q=3, beta_mode=FixedBeta(1.0))
        box, thread, host, port = serve_in_thread(2, job, timeout=5.0)
        with socket.create_connection((host, port)) as conn:
            conn.sendall(struct.pack("<I", 8) + b"junkjunk")
        for shard in shards:
            send_summary(host, port, worker_round(shard, job))
        thread.join(10.0)
        assert box["res"].missing == ()
        assert len(box["res"].leading.values) == 1

    def test_reset_connection_dropped(self):
        # machine 1 sends 8 bytes of its frame, then resets the connection
        # (SO_LINGER 0); the round goes on with the other two
        shards, _ = gaussian_shards(m=3)
        job = JobSpec(r=1, q=3, beta_mode=FixedBeta(1.0))
        box, thread, host, port = serve_in_thread(3, job, timeout=5.0)
        conn = socket.create_connection((host, port))
        conn.sendall(encode_summary(worker_round(shards[0], job))[:8])
        conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        conn.close()
        for shard in shards[1:]:
            send_summary(host, port, worker_round(shard, job))
        thread.join(10.0)
        assert not thread.is_alive()
        assert box["res"].missing == (1,)
        expected = run_local(shards[1:], job)
        assert np.array_equal(box["res"].leading.vectors, expected.leading.vectors)


class TestTimeoutResolution:
    def test_argument_wins(self, monkeypatch):
        monkeypatch.setenv("BDPCA_TIMEOUT_SECS", "7")
        assert resolve_timeout(2.5) == 2.5

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv("BDPCA_TIMEOUT_SECS", "7.5")
        assert resolve_timeout(None) == 7.5

    def test_default(self, monkeypatch):
        monkeypatch.delenv("BDPCA_TIMEOUT_SECS", raising=False)
        assert resolve_timeout(None) == 30.0

    def test_bad_env_value(self, monkeypatch):
        monkeypatch.setenv("BDPCA_TIMEOUT_SECS", "soon")
        with pytest.raises(InvalidInput):
            resolve_timeout(None)

    def test_run_sockets_passes_its_timeout_to_every_send(self, monkeypatch):
        monkeypatch.delenv("BDPCA_TIMEOUT_SECS", raising=False)
        seen = []
        real = socket.create_connection

        def spy(address, timeout=None, *args, **kwargs):
            seen.append(timeout)
            return real(address, timeout, *args, **kwargs)

        monkeypatch.setattr(socket, "create_connection", spy)
        shards, _ = gaussian_shards(m=2)
        run_sockets(shards, JobSpec(r=1, q=3, beta_mode=FixedBeta(1.0)), timeout=4.5)
        assert seen == [4.5, 4.5]


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
            res = coordinator_round([worker_round(s, job) for s in shards], job)
            agg_rho = rho_similarity(res.leading, truth)
            local_best = max(
                rho_similarity(truncate_summary(local_summary(s, q), r), truth)
                for s in shards
            )
            wins += agg_rho > local_best
        assert wins >= 80, f"aggregate beat all locals in only {wins}/100 replicates"
