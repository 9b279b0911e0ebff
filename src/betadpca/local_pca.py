"""Worker-side PCA: the rank-q truncated eigendecomposition of the zero-mean
shard covariance (1/n_ell) X X^T (local_summary takes it from a thin SVD of the
shard, O(p n_ell^2) for n_ell <= p), and the binary shard file (.bdpx) that
gen writes and the CLI reads.
"""

from __future__ import annotations

import logging
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, IoError, ParseError
from .linalg import canonical_order, complete_basis, psd_eig, thin_svd

logger = logging.getLogger(__name__)

SHARD_MAGIC = b"BDPX"
SHARD_VERSION = 1
ORTHO_TOL = 1e-10
U32_MAX = 2**32 - 1  # the shard header and the wire frame store the id and n_ell as u32


def check_u32(name: str, value, low: int = 0) -> int:
    if not low <= int(value) <= U32_MAX:
        raise InvalidInput(f"{name} must lie in {low}..{U32_MAX}, got {value}")
    return int(value)


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
        object.__setattr__(self, "samples", s)
        object.__setattr__(self, "machine_id", check_u32("machine_id", self.machine_id))

    @property
    def p(self) -> int:
        return self.samples.shape[0]

    @property
    def n_ell(self) -> int:
        return self.samples.shape[1]


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


def _top_order(values: np.ndarray, complement: float, p: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    # The top k of a factored spectrum (span `values`, `complement` on the other p - K directions), as
    # positions into the values followed by min(k, p - K) complement copies (a position >= K names a
    # complement direction) and the values there.  The sort is stable, so a tie keeps the given order.
    if not 1 <= k <= p:
        raise InvalidInput(f"need 1 <= k <= p={p}, got k={k}")
    merged = np.append(values, np.full(min(k, p - values.size), complement))
    order = np.argsort(-merged, kind="stable")[:k]
    return order, merged[order]


def _top_block(values: np.ndarray, vectors: np.ndarray, complement: float, k: int) -> TruncatedEig:
    order, top_values = _top_order(values, complement, vectors.shape[0], k)
    comp = order >= values.size
    top_vectors = np.empty((vectors.shape[0], k))
    top_vectors[:, ~comp] = vectors[:, order[~comp]]
    top_vectors[:, comp] = complete_basis(vectors, int(np.count_nonzero(comp)))
    return TruncatedEig(values=top_values, vectors=top_vectors)


def truncated_eig(m, q: int) -> TruncatedEig:
    """Top-q eigenpairs of a PSD matrix under psd_eig's rule: NotPSD below its
    round-off bound, and a value within the bound is exactly 0."""
    es = psd_eig(m)
    return _top_block(es.values, es.vectors, 0.0, q)


def truncate_summary(summary: TruncatedEig, r: int) -> TruncatedEig:
    """First r eigenpairs of an existing summary (r <= q)."""
    if not 1 <= r <= summary.q:
        raise InvalidInput(f"need 1 <= r <= q={summary.q}, got r={r}")
    return TruncatedEig(values=summary.values[:r].copy(), vectors=summary.vectors[:, :r].copy())


def local_summary(shard: DataShard, q: int) -> TruncatedEig:
    """Top-q eigenpairs of the shard covariance (1/n_ell) X X^T: the whole worker step.

    Computed from the thin SVD X = U S W^T as values S^2/n_ell and vectors U,
    in O(p n_ell min(p, n_ell)) without forming the p x p covariance; vectors
    follow eig_sym's sign and tie convention.  The sampling model is
    zero-mean, so X is used as it is, not centred.  q may exceed n_ell: the
    covariance is 0 outside span U, so as in AggregateResult.top the trailing
    values are exactly 0, their vectors complete the basis deterministically,
    and a warning is logged, since those directions carry no sample information.
    """
    if not 1 <= q <= shard.p:
        raise InvalidInput(f"need 1 <= q <= p={shard.p}, got q={q}")
    if q > shard.n_ell:
        logger.warning("q=%d exceeds the local sample count n=%d on machine %d; trailing eigenvalues are 0",
                       q, shard.n_ell, shard.machine_id)
    u, s, _ = thin_svd(shard.samples)
    values, vectors = canonical_order(s ** 2 / shard.n_ell, u)
    return _top_block(values, vectors, 0.0, q)


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


def read_shard(path) -> DataShard:
    """Read a shard file as write_shard writes it, machine id included.  ParseError for
    anything else: a file without the BDPX magic (a CSV, say), or one that is
    truncated or holds no valid shard (no samples, or non-finite ones).  The
    file size is checked against the header before the samples are read, straight
    into the shard's one array."""
    try:
        with open(path, "rb") as fh:
            header = fh.read(20)
            if header[:4] != SHARD_MAGIC:
                raise ParseError(f"{path}: not a shard file (expected the magic {SHARD_MAGIC!r})")
            if len(header) < 20:
                raise ParseError(f"{path}: truncated shard header")
            version, p, n_ell, machine_id = struct.unpack("<IIII", header[4:])
            if version != SHARD_VERSION:
                raise ParseError(f"{path}: unsupported shard version {version}")
            expected, size = 20 + 8 * p * n_ell, os.fstat(fh.fileno()).st_size
            if size != expected:
                raise ParseError(f"{path}: expected {expected} bytes for a {p}x{n_ell} shard, got {size}")
            samples = np.fromfile(fh, dtype="<f8", count=p * n_ell).reshape((p, n_ell), order="F")
    except OSError as exc:
        raise IoError(f"cannot read shard {path}: {exc}") from exc
    try:
        return DataShard(samples=samples, machine_id=machine_id)
    except InvalidInput as exc:
        raise ParseError(f"{path}: invalid shard: {exc}") from exc
