import logging
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from betadpca import (
    DataShard,
    InvalidInput,
    IoError,
    ParseError,
    TruncatedEig,
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

    def test_negative_values_clamped_to_zero(self):
        top = truncated_eig(np.diag([1.0, -1e-13]), 2)
        assert top.values[1] == 0.0

    def test_reconstruct_full_rank(self):
        m = rand_spd(np.random.default_rng(23), 5)
        assert_allclose(reconstruct(truncated_eig(m, 5)), m, rtol=1e-9, atol=1e-11)

    def test_rank_bounds_checked(self):
        with pytest.raises(InvalidInput):
            truncated_eig(np.eye(3), 4)
        with pytest.raises(InvalidInput):
            truncated_eig(np.eye(3), 0)

    def test_summary_validation(self):
        ok = np.eye(3)[:, :2]
        with pytest.raises(InvalidInput):
            TruncatedEig(values=np.array([1.0, 2.0]), vectors=ok)  # increasing
        with pytest.raises(InvalidInput):
            TruncatedEig(values=np.array([1.0, -0.5]), vectors=ok)  # negative
        with pytest.raises(InvalidInput):
            TruncatedEig(values=np.array([1.0, 0.5]), vectors=np.ones((3, 2)))  # not orthonormal

    def test_truncate_summary_is_prefix(self):
        rng = np.random.default_rng(24)
        full = truncated_eig(rand_spd(rng, 8), 6)
        cut = truncate_summary(full, 3)
        assert np.array_equal(cut.values, full.values[:3])
        assert np.array_equal(cut.vectors, full.vectors[:, :3])
        with pytest.raises(InvalidInput):
            truncate_summary(full, 7)


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

    def test_truncated_binary_rejected(self, tmp_path):
        rng = np.random.default_rng(28)
        path = tmp_path / "shard.bdpx"
        write_shard(path, make_shard(rng.standard_normal((4, 6))))
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ParseError):
            read_shard(path)

    def test_unknown_binary_version_rejected(self, tmp_path):
        rng = np.random.default_rng(29)
        path = tmp_path / "shard.bdpx"
        write_shard(path, make_shard(rng.standard_normal((4, 6))))
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(ParseError):
            read_shard(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            read_shard(tmp_path / "nope.bdpx")


class TestDataShardValidation:
    def test_needs_2d(self):
        with pytest.raises(InvalidInput):
            DataShard(samples=np.zeros(3), machine_id=1)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInput):
            DataShard(samples=np.array([[1.0, np.inf]]), machine_id=1)

    def test_rejects_negative_machine_id(self):
        with pytest.raises(InvalidInput):
            DataShard(samples=np.zeros((2, 2)), machine_id=-1)

    def test_machine_id_must_fit_the_u32_header(self, tmp_path):
        # 2**32 is InvalidInput at construction, so write_shard never meets it
        with pytest.raises(InvalidInput, match="machine_id must lie in 0..4294967295"):
            DataShard(samples=np.ones((3, 2)), machine_id=2**32)
        path = tmp_path / "shard.bdpx"
        write_shard(path, DataShard(samples=np.ones((3, 2)), machine_id=2**32 - 1))
        assert read_shard(path).machine_id == 2**32 - 1
