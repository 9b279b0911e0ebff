"""One-round coordinator/worker protocol.

Each worker computes its local truncated eigendecomposition and sends exactly
one message; the coordinator aggregates whatever arrives before the deadline.
Two transports share the same codec: in-process (frames still pass through
encode/decode, so results are bit-identical with the socket path) and TCP.
Over TCP each connection carries one frame, read up to its length prefix, and
one selector loop reads them all under one round deadline.  The coordinator
binds (listen) before it serves, so its address is known before anyone sends.

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
import selectors
import socket
import struct
import time
import zlib
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import ClassVar, Iterable, Sequence

import numpy as np

from .aggregation import AggregateResult, BetaConfig, SummarySpan, beta_aggregate, branch_transform, finite_beta
from .errors import CorruptMessage, InvalidInput, IoError, ParseError
from .local_pca import DataShard, TruncatedEig, check_u32, local_summary, truncate_summary
from .selection import DEFAULT_CANDIDATES, make_folds, select_beta

logger = logging.getLogger(__name__)

FRAME_MAGIC = b"BDPC"
VERSION = 1
# length prefix + magic + version + four u32 fields + crc32
FRAME_OVERHEAD = 4 + 4 + 2 + 16 + 4

DEFAULT_TIMEOUT_SECS = 30.0
# the longest timeout any socket call here takes; epoll refuses a wait above ~2.1e6 s (2**31 ms)
MAX_TIMEOUT_SECS = 1e6
# send_summary retries a refused connection this often, this many seconds apart
CONNECT_RETRIES = 5
CONNECT_BACKOFF_SECS = 0.2


def valid_port(port: int) -> bool:
    return 0 <= port <= 65535  # port 0 picks a free one


def valid_timeout(seconds: float) -> bool:
    return 0 < seconds <= MAX_TIMEOUT_SECS  # nan is neither


def _check_timeout(seconds: float) -> None:
    if not valid_timeout(seconds):
        raise InvalidInput(f"timeout must be a positive number of seconds up to {MAX_TIMEOUT_SECS:g}, "
                           f"got {seconds!r}")


@dataclass(frozen=True, eq=False)
class LocalSummaryMsg:
    """One worker's contribution: its rank-q summary and sample count."""

    machine_id: int
    n_ell: int
    summary: TruncatedEig

    def __post_init__(self):
        check_u32("machine_id", self.machine_id)
        check_u32("n_ell", self.n_ell, 1)

    @property
    def p(self) -> int:
        return self.summary.p

    @property
    def q(self) -> int:
        return self.summary.q


@dataclass(frozen=True)
class FixedBeta:
    """Aggregate at one announced, finite beta."""

    beta: float

    def __post_init__(self):
        finite_beta(self.beta)


@dataclass(frozen=True)
class CvSelect:
    """Select beta among DEFAULT_CANDIDATES by cross-validation over `folds` (at least 2)
    folds of machines, shuffled with `seed` (non-negative); ExperimentSpec and the CLI
    read the defaults here."""

    folds: int = 5
    seed: int = 0
    candidates: ClassVar[tuple[float, ...]] = DEFAULT_CANDIDATES

    def __post_init__(self):
        if self.folds < 2:
            raise InvalidInput(f"need at least two folds, got {self.folds}")
        if self.seed < 0:
            raise InvalidInput(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class JobSpec:
    """One round's job; a worker acts on its q only (see worker_round)."""

    r: int
    q: int
    beta_mode: FixedBeta | CvSelect
    delta: float = BetaConfig.delta

    def __post_init__(self):
        if not 1 <= self.r <= self.q:
            raise InvalidInput(f"need 1 <= r <= q, got r={self.r}, q={self.q}")
        if not isinstance(self.beta_mode, (FixedBeta, CvSelect)):
            raise InvalidInput("beta_mode must be FixedBeta or CvSelect")
        for b in self.betas:  # delta's rule is BetaConfig's, delta^beta's branch_transform's
            BetaConfig(beta=b, delta=self.delta)

    @property
    def betas(self) -> tuple[float, ...]:  # every beta the round may use: FixedBeta's, or each CV candidate
        return self.beta_mode.candidates if isinstance(self.beta_mode, CvSelect) else (self.beta_mode.beta,)


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
    CorruptMessage carrying the claimed machine_id.  The summary's shape rule
    (1 <= q <= p) is TruncatedEig's alone: a payload that breaks it raises ParseError.
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
    payload, (crc,) = body[6:-4], struct.unpack("<I", body[-4:])  # FRAME_OVERHEAD leaves >= 16 bytes
    machine_id, p, q, n_ell = struct.unpack("<IIII", payload[:16])
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise CorruptMessage(machine_id, "checksum mismatch")
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


def worker_round(shard: DataShard, q: int) -> LocalSummaryMsg:
    """The entire worker side: covariance, rank-q truncation, one message.

    r, beta, delta and the CV plan are the coordinator's; the message is the same in every beta mode.
    """
    summary = local_summary(shard, q)
    return LocalSummaryMsg(machine_id=shard.machine_id, n_ell=shard.n_ell, summary=summary)


def _overflows(values: np.ndarray, job: JobSpec) -> bool:
    # a beta the job may use (JobSpec.betas) maps a value to inf, as beta=2 does 1e200
    with np.errstate(over="ignore"):
        return not all(np.isfinite(branch_transform(b, job.delta).forward(values)).all() for b in job.betas)


def _keep(first: dict[int, LocalSummaryMsg], msg: LocalSummaryMsg, job: JobSpec,
          expected: frozenset[int]) -> None:
    """Add msg to first (keyed by machine id) if the round keeps it: it is from
    an expected machine, has the job's rank q and values that no beta of the job
    overflows, and is that machine's first such message in arrival order (a
    retried send counts once).  Others are dropped with a warning naming the machine."""
    if msg.machine_id not in expected:
        logger.warning("dropping a message from unexpected machine %d", msg.machine_id)
    elif msg.q != job.q:
        logger.warning("dropping machine %d's message of rank %d (job q=%d)", msg.machine_id, msg.q, job.q)
    elif _overflows(msg.summary.values, job):
        logger.warning("dropping machine %d's message: its values overflow the job's beta map", msg.machine_id)
    elif msg.machine_id in first:
        logger.warning("dropping a repeated message from machine %d", msg.machine_id)
    else:
        first[msg.machine_id] = msg


def coordinator_round(msgs: Sequence[LocalSummaryMsg], job: JobSpec,
                      expected_ids: Iterable[int]) -> AggregateResult:
    """Aggregate the received messages (sorted by machine_id for determinism).

    The messages that _keep accepts and that have the round's p (the p most of
    them share, on a tie the lowest machine id's) are aggregated; every other
    one is dropped with a warning, and InvalidInput is raised if none is kept.
    Expected machines with no message aggregated are listed in the result's
    `missing` field, and the averaging weight becomes 1/(machines received).
    """
    expected = frozenset(expected_ids)
    first: dict[int, LocalSummaryMsg] = {}
    for m in msgs:
        _keep(first, m, job, expected)
    msgs = sorted(first.values(), key=lambda m: m.machine_id)
    for p, _ in Counter(m.p for m in msgs).most_common(1):  # most_common breaks a tie by first appearance
        for m in msgs:
            if m.p != p:
                logger.warning("dropping machine %d's message of p=%d (the round's p=%d)", m.machine_id, m.p, p)
        msgs = [m for m in msgs if m.p == p]
    missing = tuple(sorted(expected - {m.machine_id for m in msgs}))
    if missing:
        logger.warning("aggregating without machines %s (%d of %d reported)",
                       missing, len(msgs), len(expected))
    agg = resolve_beta(SummarySpan.of([m.summary for m in msgs]), job)
    return replace(agg, missing=missing)


def resolve_beta(span: SummarySpan, job: JobSpec) -> AggregateResult:
    """Aggregate the span's summaries at the job's beta: the announced one
    (FixedBeta), or the winner of machine-level cross-validation (CvSelect),
    whose CvResult is attached as `cv`.

    The fold loop and the final aggregate share the span's basis, so a CV
    round takes one p-row SVD.  A validation machine is represented by the
    leading r columns of its own summary, so CV needs nothing beyond the
    rank-q summaries.
    """
    mode = job.beta_mode
    if isinstance(mode, FixedBeta):
        return beta_aggregate(span, BetaConfig(beta=mode.beta, delta=job.delta), job.r)
    summaries = span.summaries
    plan = make_folds(len(summaries), mode.folds, mode.seed,
                      candidate_set=mode.candidates, r=job.r, q=job.q)
    cv = select_beta(span, [truncate_summary(s, job.r) for s in summaries], plan,
                     BetaConfig(beta=mode.candidates[0], delta=job.delta))
    agg = beta_aggregate(span, BetaConfig(beta=cv.best_beta, delta=job.delta), job.r)
    return replace(agg, cv=cv)


def run_local(shards: Sequence[DataShard], job: JobSpec) -> AggregateResult:
    """In-process transport: frames still round-trip through the codec so the
    result is bit-identical with the socket transport."""
    frames = [encode_summary(worker_round(s, job.q)) for s in shards]
    msgs = [decode_summary(f) for f in frames]
    return coordinator_round(msgs, job, expected_ids=[s.machine_id for s in shards])


def _frame_size(buf: bytearray) -> int:
    # the whole frame once its u32 length prefix is in, else the prefix
    return 4 + int.from_bytes(buf[:4], "little") if len(buf) >= 4 else 4


def _collect(server: socket.socket, expected_ids: Iterable[int], job: JobSpec,
             timeout: float) -> list[LocalSummaryMsg]:
    """Read frames until every expected machine has one that the round keeps
    (see _keep), or until timeout; returns the kept messages in arrival order
    and closes the listener and every connection.  IoError if none was kept."""
    expected = frozenset(expected_ids)
    first: dict[int, LocalSummaryMsg] = {}
    with server, selectors.DefaultSelector() as sel:
        _check_timeout(timeout)  # inside the with: a bad timeout still closes the listener
        deadline = time.monotonic() + timeout
        sel.register(server, selectors.EVENT_READ)
        # a stray, wrong-rank or repeated frame is not kept, so it cannot end the round
        while len(first) < len(expected) and (remaining := deadline - time.monotonic()) > 0:
            for key, _ in sel.select(remaining):
                if key.fileobj is server:
                    conn, _addr = server.accept()
                    conn.setblocking(False)
                    sel.register(conn, selectors.EVENT_READ, bytearray())
                    continue
                conn, buf = key.fileobj, key.data
                try:
                    chunk = conn.recv(min(65536, _frame_size(buf) - len(buf)))
                    if not chunk:
                        raise ConnectionError(f"connection closed after {len(buf)} bytes")
                    buf += chunk
                    if len(buf) < _frame_size(buf):
                        continue
                    _keep(first, decode_summary(buf), job, expected)
                except BlockingIOError:  # a spurious wakeup: nothing to read yet
                    continue
                except (CorruptMessage, ParseError, OSError) as exc:  # OSError: reset or closed mid-frame
                    logger.warning("dropping bad worker connection: %s", exc)
                sel.unregister(conn)
                conn.close()
        for key in sel.get_map().values():  # silent or stalled connections, and the listener: the round is over
            key.fileobj.close()
    if not first:
        raise IoError(f"no usable worker message arrived within {timeout:g}s")
    return list(first.values())


def listen(host: str, port: int, m: int) -> socket.socket:
    """Bind the coordinator's listening socket for a round of m workers;
    port=0 picks a free port (read it from getsockname()).  IoError if it
    cannot bind, a port outside 0-65535 included."""
    if m < 1:
        raise InvalidInput("need at least one expected worker")
    if not valid_port(port):  # create_server would raise OverflowError and leave its socket open
        raise IoError(f"cannot bind {host}:{port}: a port lies in 0-65535")
    try:
        return socket.create_server((host, port), backlog=m)
    except OSError as exc:
        raise IoError(f"cannot bind {host}:{port}: {exc}") from exc


def serve(server: socket.socket, m: int, job: JobSpec,
          timeout: float = DEFAULT_TIMEOUT_SECS) -> AggregateResult:
    """Coordinator side of the TCP transport, on a socket from listen().

    Waits up to timeout seconds for a message from each of machines 1..m
    (one frame per connection), then aggregates those as coordinator_round does,
    missing machines included; a frame that _keep drops (another machine's, the
    wrong rank, overflowing or repeated) does not end the round.  The listener
    is closed on every exit, a bad timeout's InvalidInput included.
    """
    expected = range(1, m + 1)
    return coordinator_round(_collect(server, expected, job, timeout), job, expected_ids=expected)


def send_summary(host: str, port: int, msg: LocalSummaryMsg,
                 timeout: float = DEFAULT_TIMEOUT_SECS) -> int:
    """Worker side of the TCP transport: one connection, one frame.

    Retries connection refusals briefly so workers may start slightly before
    the coordinator.  timeout bounds each connect and send (InvalidInput, before
    any connect, unless in (0, MAX_TIMEOUT_SECS]).  Returns the bytes sent.
    """
    _check_timeout(timeout)
    frame = encode_summary(msg)
    attempt = 0
    while True:
        try:
            with socket.create_connection((host, port), timeout=timeout) as conn:
                conn.sendall(frame)
            return len(frame)
        except OSError as exc:
            attempt += 1
            if attempt > CONNECT_RETRIES:
                raise IoError(f"cannot deliver summary to {host}:{port}: {exc}") from exc
            time.sleep(CONNECT_BACKOFF_SECS)


def run_sockets(shards: Sequence[DataShard], job: JobSpec, timeout: float = DEFAULT_TIMEOUT_SECS) -> AggregateResult:
    """Drive a full round over loopback TCP: bind a free port, collect on one pool
    thread, send one frame per shard from the caller.  Functionally
    identical to run_local.

    A failed send raises once the collection has ended (at the latest at the
    deadline), so no thread or listener outlives the call.  A bad timeout
    raises InvalidInput before anything is bound.
    """
    _check_timeout(timeout)
    server = listen("127.0.0.1", 0, len(shards))
    bound = server.getsockname()[:2]
    expected = [s.machine_id for s in shards]
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="bdpca-coordinator") as pool:
        collected = pool.submit(_collect, server, expected, job, timeout)
        for shard in shards:
            send_summary(*bound, worker_round(shard, job.q), timeout=timeout)
        msgs = collected.result()
    return coordinator_round(msgs, job, expected_ids=expected)
