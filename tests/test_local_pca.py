import logging

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
    sample_covariance,
    truncate_summary,
    truncated_eig,
    write_shard,
)
from helpers import dense_local_summary, eig2x2, projector_distance, rand_spd


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

    def test_centering_keeps_n_divisor(self):
        # samples (0, 2): centered to (-1, 1), divisor stays n_ell = 2
        cov = sample_covariance(make_shard([[0.0, 2.0]]), center=True)
        assert_allclose(cov, [[1.0]], atol=1e-15)

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

    def test_round_off_negatives_clamped(self):
        top = truncated_eig(np.diag([1.0, -1e-13]), 2)
        assert top.values[1] == 0.0

    def test_reconstruct_full_rank(self):
        m = rand_spd(np.random.default_rng(23), 5)
        assert_allclose(truncated_eig(m, 5).reconstruct(), m, rtol=1e-9, atol=1e-11)

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
    def test_matches_manual_pipeline(self):
        rng = np.random.default_rng(25)
        shard = make_shard(rng.standard_normal((6, 40)), machine_id=3)
        got = local_summary(shard, 4)
        want = truncated_eig(sample_covariance(shard), 4)
        # the worker takes a thin SVD of the shard instead of eigh of X X^T / n,
        # so agreement is to round-off rather than bitwise
        assert_allclose(got.values, want.values, rtol=1e-12, atol=0)
        assert projector_distance(got.vectors, want.vectors) <= 1e-12

    def test_rank_deficient_spectrum(self):
        rng = np.random.default_rng(26)
        shard = make_shard(rng.standard_normal((10, 4)))
        got = local_summary(shard, 10)
        assert np.sum(got.values > 1e-10) <= 4

    @pytest.mark.parametrize("p,n", [(6, 40), (30, 10)])
    def test_centered_matches_dense_oracle(self, p, n):
        rng = np.random.default_rng(27)
        shard = make_shard(rng.standard_normal((p, n)) + 3.0)
        got = local_summary(shard, 5, center=True)
        want = dense_local_summary(shard, 5, center=True)
        assert_allclose(got.values, want.values, rtol=1e-12, atol=0)
        assert projector_distance(got.vectors, want.vectors) <= 1e-12

    def test_rank_beyond_samples_completes_the_basis(self):
        rng = np.random.default_rng(28)
        x = rng.standard_normal((8, 3))
        got = local_summary(make_shard(x), 6)
        want = dense_local_summary(make_shard(x), 3)
        assert_allclose(got.values[:3], want.values, rtol=1e-12, atol=0)
        assert projector_distance(got.vectors[:, :3], want.vectors) <= 1e-12
        assert np.array_equal(got.values[3:], np.zeros(3))
        assert_allclose(got.vectors.T @ got.vectors, np.eye(6), rtol=0, atol=1e-14)
        assert np.abs(x.T @ got.vectors[:, 3:]).max() <= 1e-13
        again = local_summary(make_shard(x), 6)
        assert np.array_equal(again.vectors, got.vectors)

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

    def test_csv_one_sample_per_row(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n5.0,6.0\n")
        shard = read_shard(path, machine_id=7)
        assert shard.p == 2 and shard.n_ell == 3
        assert_allclose(shard.samples, [[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]])
        assert shard.machine_id == 7

    def test_csv_header_skipped(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x1,x2\n1.0,2.0\n3.0,4.0\n")
        assert read_shard(path, machine_id=1).n_ell == 2

    def test_csv_ragged_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ParseError):
            read_shard(path, machine_id=1)

    def test_csv_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            read_shard(path, machine_id=1)

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
