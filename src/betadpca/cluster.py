"""One-round coordinator/worker protocol.

Each worker computes its local truncated eigendecomposition and sends exactly
one message; the coordinator aggregates whatever arrives before the deadline.
Two transports share the same codec: in-process (frames still pass through
encode/decode, so results are bit-identical with the socket path) and TCP.

Wire frame, all little-endian:

    u32  frame length (bytes after this field)
    4s   magic "BDPC"
    u16  version (1)
    u32  machine_id
    u32  p
    u32  q
    u32  n_ell
    f64* values  (q)
    f64* vectors (p*q, column-major)
    u32  CRC32 over everything between the version field and this checksum

The frame size is exactly q*(p+1)*8 + FRAME_OVERHEAD bytes, in fixed-beta and
CV rounds alike (see resolve_beta).
"""

from __future__ import annotations

import logging
import os
import socket
import struct
import threading
import time
import zlib
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .aggregation import AggregateResult, BetaConfig, beta_aggregate
from .errors import CorruptMessage, InvalidInput, IoError, ParseError
from .local_pca import DataShard, TruncatedEig, local_summary, truncate_summary
from .selection import DEFAULT_CANDIDATES, make_folds, select_beta

logger = logging.getLogger(__name__)

FRAME_MAGIC = b"BDPC"
VERSION = 1
# length prefix + magic + version + four u32 fields + crc32
FRAME_OVERHEAD = 4 + 4 + 2 + 16 + 4

DEFAULT_TIMEOUT_SECS = 30.0
TIMEOUT_ENV_VAR = "BDPCA_TIMEOUT_SECS"
# send_summary retries a refused connection this often, this many seconds apart
CONNECT_RETRIES = 5
CONNECT_BACKOFF_SECS = 0.2


@dataclass(frozen=True, eq=False)
class LocalSummaryMsg:
    """One worker's contribution: its rank-q summary and sample count."""

    machine_id: int
    n_ell: int
    summary: TruncatedEig

    def __post_init__(self):
        if self.machine_id < 0 or self.n_ell < 1:
            raise InvalidInput("machine_id must be >= 0 and n_ell >= 1")

    @property
    def p(self) -> int:
        return self.summary.p

    @property
    def q(self) -> int:
        return self.summary.q


@dataclass(frozen=True)
class FixedBeta:
    """Aggregate at one announced beta."""

    beta: float


@dataclass(frozen=True)
class CvSelect:
    """Select beta by machine-level cross-validation before aggregating."""

    candidates: tuple[float, ...] = DEFAULT_CANDIDATES
    folds: int = 5
    seed: int = 0


@dataclass(frozen=True)
class JobSpec:
    """What the coordinator announces to every worker for one round."""

    r: int
    q: int
    beta_mode: FixedBeta | CvSelect
    delta: float = 1e-5
    center: bool = False

    def __post_init__(self):
        if not 1 <= self.r <= self.q:
            raise InvalidInput(f"need 1 <= r <= q, got r={self.r}, q={self.q}")
        if not isinstance(self.beta_mode, (FixedBeta, CvSelect)):
            raise InvalidInput("beta_mode must be FixedBeta or CvSelect")
        if not self.delta > 0:
            raise InvalidInput("delta must be positive")


def encode_summary(msg: LocalSummaryMsg) -> bytes:
    """Serialize one message into a full frame (length prefix included)."""
    payload = struct.pack("<IIII", msg.machine_id, msg.p, msg.q, msg.n_ell)
    payload += msg.summary.values.astype("<f8").tobytes()
    payload += msg.summary.vectors.astype("<f8").tobytes(order="F")
    body = FRAME_MAGIC + struct.pack("<H", VERSION) + payload
    body += struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)
    return struct.pack("<I", len(body)) + body


def decode_summary(frame: bytes) -> LocalSummaryMsg:
    """Parse and verify one frame; the inverse of encode_summary.

    Structural problems raise ParseError; a checksum mismatch raises
    CorruptMessage carrying the claimed machine_id.
    """
    if len(frame) < FRAME_OVERHEAD:
        raise ParseError(f"frame of {len(frame)} bytes is shorter than any valid message")
    (length,) = struct.unpack("<I", frame[:4])
    body = frame[4:]
    if len(body) != length:
        raise ParseError(f"frame length field says {length}, got {len(body)} bytes")
    if body[:4] != FRAME_MAGIC:
        raise ParseError(f"bad magic {body[:4]!r}")
    (version,) = struct.unpack("<H", body[4:6])
    if version != VERSION:
        raise ParseError(f"unsupported protocol version {version}")
    payload, (crc,) = body[6:-4], struct.unpack("<I", body[-4:])
    if len(payload) < 16:
        raise ParseError("frame too short for the fixed header")
    machine_id, p, q, n_ell = struct.unpack("<IIII", payload[:16])
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise CorruptMessage(machine_id, "checksum mismatch")
    if p < 1 or q < 1 or q > p:
        raise ParseError(f"inconsistent dimensions p={p}, q={q}")
    if len(payload) != 16 + 8 * q * (p + 1):
        raise ParseError(f"payload of {len(payload)} bytes does not fit p={p}, q={q}")
    values = np.frombuffer(payload, dtype="<f8", count=q, offset=16).copy()
    vectors = np.frombuffer(payload, dtype="<f8", count=p * q, offset=16 + 8 * q) \
        .reshape((p, q), order="F").copy()
    try:
        summary = TruncatedEig(values=values, vectors=vectors)
        return LocalSummaryMsg(machine_id=machine_id, n_ell=n_ell, summary=summary)
    except InvalidInput as exc:
        # the payload is intact (CRC passed) but violates the summary invariants
        raise ParseError(f"frame from machine {machine_id} carries an invalid summary: {exc}") from exc


def worker_round(shard: DataShard, job: JobSpec) -> LocalSummaryMsg:
    """The entire worker side: covariance, rank-q truncation, one message.

    The message is the same in every beta mode; CV needs nothing extra.
    """
    summary = local_summary(shard, job.q, center=job.center)
    return LocalSummaryMsg(machine_id=shard.machine_id, n_ell=shard.n_ell, summary=summary)


def coordinator_round(msgs: Sequence[LocalSummaryMsg], job: JobSpec,
                      expected_m: int | None = None) -> AggregateResult:
    """Aggregate the received messages (sorted by machine_id for determinism).

    With expected_m set, machines numbered 1..expected_m that did not report
    are listed in the result's `missing` field and the averaging weight
    becomes 1/(machines received).
    """
    if not msgs:
        raise InvalidInput("no worker messages to aggregate")
    msgs = sorted(msgs, key=lambda m: m.machine_id)
    ids = [m.machine_id for m in msgs]
    if len(set(ids)) != len(ids):
        raise InvalidInput(f"duplicate machine ids in round: {ids}")
    for m in msgs:
        if m.p != msgs[0].p or m.q != msgs[0].q:
            raise InvalidInput("worker messages differ in p or q")
        if m.q != job.q:
            raise InvalidInput(f"worker sent rank {m.q}, job announced q={job.q}")
    missing: tuple[int, ...] = ()
    if expected_m is not None:
        missing = tuple(i for i in range(1, expected_m + 1) if i not in set(ids))
        if missing:
            logger.warning("aggregating without machines %s (%d of %d reported)",
                           missing, len(msgs), expected_m)
    agg = resolve_beta([m.summary for m in msgs], job)
    return replace(agg, missing=missing)


def resolve_beta(summaries: Sequence[TruncatedEig], job: JobSpec) -> AggregateResult:
    """Aggregate the summaries at the job's beta: the announced one (FixedBeta),
    or the winner of machine-level cross-validation (CvSelect), whose CvResult
    is attached as `cv`.

    A validation machine is represented by the leading r columns of its own
    summary, so CV needs nothing beyond the rank-q summaries.
    """
    mode = job.beta_mode
    if isinstance(mode, FixedBeta):
        return beta_aggregate(summaries, BetaConfig(beta=mode.beta, delta=job.delta), job.r)
    plan = make_folds(len(summaries), mode.folds, mode.seed,
                      candidate_set=mode.candidates, r=job.r, q=job.q)
    cv = select_beta(summaries, [truncate_summary(s, job.r) for s in summaries], plan,
                     BetaConfig(beta=mode.candidates[0], delta=job.delta))
    agg = beta_aggregate(summaries, BetaConfig(beta=cv.best_beta, delta=job.delta), job.r)
    return replace(agg, cv=cv)


def run_local(shards: Sequence[DataShard], job: JobSpec) -> AggregateResult:
    """In-process transport: frames still round-trip through the codec so the
    result is bit-identical with the socket transport."""
    frames = [encode_summary(worker_round(s, job)) for s in shards]
    msgs = [decode_summary(f) for f in frames]
    return coordinator_round(msgs, job, expected_m=len(shards))


def resolve_timeout(timeout: float | None = None) -> float:
    """Explicit argument, else the BDPCA_TIMEOUT_SECS env var, else 30s."""
    if timeout is not None:
        return float(timeout)
    env = os.environ.get(TIMEOUT_ENV_VAR)
    if env:
        try:
            return float(env)
        except ValueError as exc:
            raise InvalidInput(f"{TIMEOUT_ENV_VAR}={env!r} is not a number") from exc
    return DEFAULT_TIMEOUT_SECS


def _recv_exactly(conn: socket.socket, nbytes: int) -> bytes:
    chunks = []
    got = 0
    while got < nbytes:
        chunk = conn.recv(min(65536, nbytes - got))
        if not chunk:
            raise IoError(f"connection closed after {got} of {nbytes} bytes")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def _read_frame(conn: socket.socket) -> bytes:
    head = _recv_exactly(conn, 4)
    (length,) = struct.unpack("<I", head)
    return head + _recv_exactly(conn, length)


def _collect(server: socket.socket, m: int, timeout: float) -> list[LocalSummaryMsg]:
    deadline = time.monotonic() + timeout
    msgs: list[LocalSummaryMsg] = []
    while len(msgs) < m:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            break
        server.settimeout(remaining)
        try:
            conn, _addr = server.accept()
        except socket.timeout:
            break
        with conn:
            try:
                msgs.append(decode_summary(_read_frame(conn)))
            except (CorruptMessage, ParseError, OSError) as exc:  # OSError: reset or closed mid-frame
                logger.warning("dropping bad worker connection: %s", exc)
    return msgs


def serve(host: str, port: int, m: int, job: JobSpec,
          timeout: float | None = None, on_listen=None) -> AggregateResult:
    """Coordinator side of the TCP transport.

    Listens on host:port, waits up to the resolved timeout for m worker
    messages (one frame per connection), then aggregates whatever arrived.
    on_listen, when given, is called with the bound (host, port) before
    accepting; port=0 picks a free port.
    """
    if m < 1:
        raise InvalidInput("need at least one expected worker")
    secs = resolve_timeout(timeout)
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as server:
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            server.bind((host, port))
        except OSError as exc:
            raise IoError(f"cannot bind {host}:{port}: {exc}") from exc
        server.listen(m)
        if on_listen is not None:
            on_listen(server.getsockname()[:2])
        msgs = _collect(server, m, secs)
    if not msgs:
        raise IoError(f"no worker messages arrived within {secs:g}s")
    return coordinator_round(msgs, job, expected_m=m)


def send_summary(host: str, port: int, msg: LocalSummaryMsg, timeout: float | None = None) -> int:
    """Worker side of the TCP transport: one connection, one frame.

    Retries connection refusals briefly so workers may start slightly before
    the coordinator.  timeout bounds each connect and send (resolved by
    resolve_timeout).  Returns the number of bytes sent.
    """
    frame = encode_summary(msg)
    secs = resolve_timeout(timeout)
    attempt = 0
    while True:
        try:
            with socket.create_connection((host, port), timeout=secs) as conn:
                conn.sendall(frame)
            return len(frame)
        except OSError as exc:
            attempt += 1
            if attempt > CONNECT_RETRIES:
                raise IoError(f"cannot deliver summary to {host}:{port}: {exc}") from exc
            time.sleep(CONNECT_BACKOFF_SECS)


def run_sockets(shards: Sequence[DataShard], job: JobSpec, host: str = "127.0.0.1",
                port: int = 0, timeout: float | None = None) -> AggregateResult:
    """Drive a full round over loopback TCP: coordinator thread plus one
    send per shard.  Functionally identical to run_local."""
    box: dict = {}
    listening = threading.Event()

    def _serve():
        try:
            box["result"] = serve(host, port, len(shards), job, timeout=timeout,
                                  on_listen=lambda addr: (box.__setitem__("addr", addr),
                                                          listening.set()))
        except BaseException as exc:  # propagate to the caller
            box["error"] = exc
            listening.set()

    thread = threading.Thread(target=_serve, name="bdpca-coordinator", daemon=True)
    thread.start()
    if not listening.wait(resolve_timeout(timeout)):
        raise IoError("coordinator did not start listening in time")
    if "error" in box:
        raise box["error"]
    bound_host, bound_port = box["addr"]
    for shard in shards:
        send_summary(bound_host, bound_port, worker_round(shard, job), timeout=timeout)
    thread.join(resolve_timeout(timeout) + 5.0)
    if thread.is_alive():
        raise IoError("coordinator thread did not finish")
    if "error" in box:
        raise box["error"]
    return box["result"]
