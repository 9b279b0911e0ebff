"""Worker-side PCA: shard covariance, rank-q truncated eigendecomposition
(local_summary takes it from a thin SVD of the shard, O(p n_ell^2) for
n_ell <= p), and the shard file formats (binary and CSV) consumed by the CLI
and cluster.
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, IoError, ParseError
from .linalg import canonical_order, complete_basis, eig_sym, symmetrize, thin_svd

logger = logging.getLogger(__name__)

SHARD_MAGIC = b"BDPX"
SHARD_VERSION = 1
ORTHO_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class DataShard:
    """One machine's slice of the sample-partitioned data, one sample per column."""

    samples: np.ndarray  # (p, n_ell)
    machine_id: int = 1

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if s.ndim != 2 or s.shape[0] < 1 or s.shape[1] < 1:
            raise InvalidInput(f"samples must be a p x n matrix with n >= 1, got shape {s.shape}")
        if not np.isfinite(s).all():
            raise InvalidInput("shard has non-finite entries")
        if int(self.machine_id) < 0:
            raise InvalidInput("machine_id must be non-negative")
        object.__setattr__(self, "samples", s)
        object.__setattr__(self, "machine_id", int(self.machine_id))

    @property
    def p(self) -> int:
        return self.samples.shape[0]

    @property
    def n_ell(self) -> int:
        return self.samples.shape[1]


def sample_covariance(shard: DataShard, center: bool = False) -> np.ndarray:
    """(1/n_ell) X X^T.

    The sampling model is zero-mean, so no centering happens by default;
    center=True subtracts the shard mean and keeps the 1/n_ell divisor.
    """
    x = shard.samples
    if center:
        x = x - x.mean(axis=1, keepdims=True)
    return symmetrize(x @ x.T / shard.n_ell)


@dataclass(frozen=True, eq=False)
class TruncatedEig:
    """Top-q eigenpairs of a PSD matrix: the unit a worker ships upstream."""

    values: np.ndarray   # (q,), non-increasing, all >= 0
    vectors: np.ndarray  # (p, q), orthonormal columns

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        vecs = np.asarray(self.vectors, dtype=float)
        if vals.ndim != 1 or vecs.ndim != 2 or vecs.shape[1] != vals.size:
            raise InvalidInput(f"inconsistent shapes: values {vals.shape}, vectors {vecs.shape}")
        if vals.size < 1 or vals.size > vecs.shape[0]:
            raise InvalidInput(f"need 1 <= q <= p, got q={vals.size}, p={vecs.shape[0]}")
        if not (np.isfinite(vals).all() and np.isfinite(vecs).all()):
            raise InvalidInput("non-finite entries in truncated eigendecomposition")
        if (vals < 0).any() or (np.diff(vals) > 0).any():
            raise InvalidInput("values must be non-negative and non-increasing")
        # entries of orthonormal columns are at most 1 in size; bounding them
        # first keeps the gram from overflowing on hostile input
        if (np.abs(vecs).max() > 1.0 + ORTHO_TOL
                or np.abs(vecs.T @ vecs - np.eye(vals.size)).max() > ORTHO_TOL):
            raise InvalidInput("vectors are not orthonormal")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "vectors", vecs)

    @property
    def p(self) -> int:
        return self.vectors.shape[0]

    @property
    def q(self) -> int:
        return self.values.size

    def reconstruct(self) -> np.ndarray:
        """V diag(values) V^T, the rank-q reconstruction."""
        return symmetrize((self.vectors * self.values) @ self.vectors.T)


def truncated_eig(m, q: int) -> TruncatedEig:
    """Top-q eigenpairs of a symmetric matrix.

    Negative values are clamped to 0 so rank-deficient covariances stay PSD.
    """
    es = eig_sym(m)
    p = es.values.size
    if not 1 <= q <= p:
        raise InvalidInput(f"need 1 <= q <= p={p}, got q={q}")
    vals = np.clip(es.values[:q], 0.0, None)
    return TruncatedEig(values=vals, vectors=es.vectors[:, :q].copy())


def truncate_summary(summary: TruncatedEig, r: int) -> TruncatedEig:
    """First r eigenpairs of an existing summary (r <= q)."""
    if not 1 <= r <= summary.q:
        raise InvalidInput(f"need 1 <= r <= q={summary.q}, got r={r}")
    return TruncatedEig(values=summary.values[:r].copy(), vectors=summary.vectors[:, :r].copy())


def local_summary(shard: DataShard, q: int, center: bool = False) -> TruncatedEig:
    """Top-q eigenpairs of the shard covariance (1/n_ell) X X^T: the whole worker step.

    Computed from the thin SVD X = U S W^T as values S^2/n_ell and vectors U,
    in O(p n_ell min(p, n_ell)) without forming the p x p covariance; vectors
    follow eig_sym's sign and tie convention.  center=True centres X first, as
    sample_covariance does.  q may exceed n_ell: the trailing values are then
    exactly 0 and their vectors complete the basis deterministically
    (linalg.complete_basis), and a warning is logged, since those directions
    carry no sample information.
    """
    if not 1 <= q <= shard.p:
        raise InvalidInput(f"need 1 <= q <= p={shard.p}, got q={q}")
    if q > shard.n_ell:
        logger.warning(
            "q=%d exceeds the local sample count n=%d on machine %d; "
            "trailing eigenvalues are 0",
            q, shard.n_ell, shard.machine_id,
        )
    x = shard.samples
    if center:
        x = x - x.mean(axis=1, keepdims=True)
    u, s, _ = thin_svd(x)
    values, vectors = canonical_order(s ** 2 / shard.n_ell, u)
    extra = q - values.size
    if extra > 0:
        values = np.concatenate([values, np.zeros(extra)])
        vectors = np.hstack([vectors, complete_basis(vectors, extra)])
    return TruncatedEig(values=values[:q], vectors=vectors[:, :q])


def write_shard(path, shard: DataShard) -> None:
    """Write the binary shard format.

    Layout, all little-endian: magic "BDPX", u32 version=1, u32 p, u32 n_ell,
    u32 machine_id, then p*n_ell float64 in column-major order.
    """
    try:
        with open(path, "wb") as fh:
            fh.write(SHARD_MAGIC)
            fh.write(struct.pack("<IIII", SHARD_VERSION, shard.p, shard.n_ell, shard.machine_id))
            fh.write(np.asarray(shard.samples, dtype="<f8").tobytes(order="F"))
    except OSError as exc:
        raise IoError(f"cannot write shard {path}: {exc}") from exc


def _parse_binary_shard(raw: bytes, path) -> tuple[np.ndarray, int]:
    if len(raw) < 20:
        raise ParseError(f"{path}: truncated shard header")
    version, p, n_ell, machine_id = struct.unpack("<IIII", raw[4:20])
    if version != SHARD_VERSION:
        raise ParseError(f"{path}: unsupported shard version {version}")
    expected = 20 + 8 * p * n_ell
    if len(raw) != expected:
        raise ParseError(f"{path}: expected {expected} bytes for a {p}x{n_ell} shard, got {len(raw)}")
    return np.frombuffer(raw[20:], dtype="<f8").reshape((p, n_ell), order="F").copy(), machine_id


def _parse_csv_shard(text: str, path) -> np.ndarray:
    rows = []
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise ParseError(f"{path}: empty CSV shard")
    start = 0
    try:
        [float(tok) for tok in lines[0].split(",")]
    except ValueError:
        start = 1  # header line
    if start == len(lines):
        raise ParseError(f"{path}: CSV shard has a header but no data rows")
    width = None
    for ln in lines[start:]:
        try:
            row = [float(tok) for tok in ln.split(",")]
        except ValueError as exc:
            raise ParseError(f"{path}: unparseable CSV row: {ln!r}") from exc
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(f"{path}: ragged CSV rows ({len(row)} vs {width} columns)")
        rows.append(row)
    # CSV stores one sample per row; internally samples are columns.
    return np.asarray(rows, dtype=float).T


def read_shard(path, machine_id: int = 1) -> DataShard:
    """Read a shard file: binary when the magic matches, CSV otherwise.

    CSV files carry no metadata, so machine_id comes from the argument;
    binary files carry their own and ignore it.  A file that parses but holds
    no valid shard (no samples, or non-finite ones) raises ParseError too.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read shard {path}: {exc}") from exc
    if raw[:4] == SHARD_MAGIC:
        samples, machine_id = _parse_binary_shard(raw, path)
    else:
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: neither binary shard nor text CSV") from exc
        samples = _parse_csv_shard(text, path)
    try:
        return DataShard(samples=samples, machine_id=machine_id)
    except InvalidInput as exc:
        raise ParseError(f"{path}: invalid shard: {exc}") from exc
