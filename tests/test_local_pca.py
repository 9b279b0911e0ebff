import logging
import tracemalloc

import numpy as np
from numpy.testing import assert_allclose

from betadpca import (
    DataShard,
    local_summary,
    read_shard,
    truncate_summary,
    truncated_eig,
    write_shard,
)
from helpers import eig2x2, rand_spd, reconstruct, sample_covariance


def make_shard(samples, machine_id=1):
    return DataShard(samples=np.asarray(samples, dtype=float), machine_id=machine_id)


class TestSampleCovariance:
    def test_single_feature(self):
        # one row, two samples (1, -1): second moment = 1
        cov = sample_covariance(make_shard([[1.0, -1.0]]))
        assert_allclose(cov, [[1.0]], atol=1e-15)

    def test_zero_data(self):
        cov = sample_covariance(make_shard(np.zeros((3, 4))))
        assert_allclose(cov, np.zeros((3, 3)), atol=1e-15)

    def test_identity_samples(self):
        cov = sample_covariance(make_shard(np.eye(2)))
        assert_allclose(cov, np.eye(2) / 2.0, atol=1e-15)

    def test_uncentered_is_raw_second_moment(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((4, 50))
        cov = sample_covariance(make_shard(x))
        assert_allclose(cov, x @ x.T / 50.0, rtol=1e-12)


class TestTruncatedEig:
    def test_diagonal_truncation(self):
        top = truncated_eig(np.diag([3.0, 2.0, 1.0]), 2)
        assert_allclose(top.values, [3.0, 2.0], atol=1e-12)
        assert_allclose(top.vectors, np.eye(3)[:, :2], atol=1e-12)

    def test_identity_tie_break(self):
        top = truncated_eig(np.eye(3), 3)
        assert np.array_equal(top.vectors, np.eye(3))

    def test_top_vector_of_2x2(self):
        values, vectors = eig2x2(7.0, 2.0, 3.0)
        top = truncated_eig(np.array([[7.0, 2.0], [2.0, 3.0]]), 1)
        assert_allclose(top.values, values[:1], rtol=1e-12)
        assert_allclose(top.vectors[:, 0], vectors[0], rtol=1e-10, atol=1e-12)

    def test_round_off_of_zero_reads_zero(self):
        # psd_eig's rule: a value within 8 p eps ||M||_2 (3.6e-15 here) of 0 is 0; below -3.6e-15 is NotPSD
        top = truncated_eig(np.diag([1.0, -1e-16]), 2)
        assert np.array_equal(top.values, [1.0, 0.0])

    def test_reconstruct_full_rank(self):
        m = rand_spd(np.random.default_rng(23), 5)
        assert_allclose(reconstruct(truncated_eig(m, 5)), m, rtol=1e-9, atol=1e-11)

    def test_truncate_summary_is_prefix(self):
        rng = np.random.default_rng(24)
        full = truncated_eig(rand_spd(rng, 8), 6)
        cut = truncate_summary(full, 3)
        assert np.array_equal(cut.values, full.values[:3])
        assert np.array_equal(cut.vectors, full.vectors[:, :3])


class TestLocalSummary:
    def test_warns_when_rank_exceeds_samples(self, caplog):
        shard = make_shard(np.eye(3)[:, :2])
        with caplog.at_level(logging.WARNING):
            local_summary(shard, 3)
        assert "q=3 exceeds" in caplog.text


class TestShardIo:
    def test_binary_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(27)
        shard = make_shard(rng.standard_normal((5, 9)), machine_id=42)
        path = tmp_path / "shard.bdpx"
        write_shard(path, shard)
        back = read_shard(path)
        assert back.machine_id == 42
        assert np.array_equal(back.samples, shard.samples)

    def test_largest_machine_id_round_trips(self, tmp_path):
        # 2**32 is refused at construction (test_refused_calls.py), so write_shard never meets it
        path = tmp_path / "shard.bdpx"
        write_shard(path, make_shard(np.ones((3, 2)), machine_id=2**32 - 1))
        assert read_shard(path).machine_id == 2**32 - 1

    def test_samples_are_read_into_one_array(self, tmp_path):
        # a 4 MB shard: holding the file bytes and a copy of the samples would peak at 2x its size or more
        path = tmp_path / "shard.bdpx"
        write_shard(path, make_shard(np.random.default_rng(30).standard_normal((250, 2000))))
        tracemalloc.start()
        try:
            back = read_shard(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * path.stat().st_size
        assert back.samples.flags.writeable
        assert back.samples.tobytes(order="F") == path.read_bytes()[20:]

