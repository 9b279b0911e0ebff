"""Property tests of the two parsers of untrusted bytes.  For any input,
decode_summary either returns a message or raises ParseError/CorruptMessage,
and whatever it accepts re-encodes to the very same frame; read_shard either
returns a shard or raises ParseError."""

import math
import struct

import numpy as np
import pytest

from betadpca import (CorruptMessage, DataShard, LocalSummaryMsg, ParseError, decode_summary, encode_summary,
                      read_shard, write_shard)
from betadpca.local_pca import SHARD_MAGIC

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from helpers import rand_summary, wrap_frame  # noqa: E402

FUZZ = settings(max_examples=400, derandomize=True, database=None, deadline=None)
U32 = st.integers(0, 2**32 - 1)
F64 = st.one_of(
    st.floats(width=64),
    st.sampled_from([math.inf, -math.inf, math.nan, 1e308, -1e308, 0.0, -0.0, 1.0]),
)


def decode_or_reject(frame: bytes) -> None:
    try:
        msg = decode_summary(frame)
    except (ParseError, CorruptMessage):
        return
    assert isinstance(msg, LocalSummaryMsg)
    assert encode_summary(msg) == frame


@st.composite
def well_formed_frames(draw):
    version = draw(st.one_of(st.just(1), st.integers(0, 2**16 - 1)))
    p = draw(st.one_of(st.integers(0, 8), U32))
    q = draw(st.one_of(st.integers(0, 8), U32))
    header = struct.pack("<IIII", draw(U32), p, q, draw(st.one_of(st.integers(0, 3), U32)))
    fits = q * (p + 1) if 1 <= q <= p <= 8 else 0
    if fits and draw(st.booleans()):
        # a genuine summary, so that the accepting path is exercised too
        summary = rand_summary(np.random.default_rng(draw(U32)), p, q)
        floats = list(summary.values) + list(summary.vectors.ravel(order="F"))
        for i in draw(st.lists(st.integers(0, fits - 1), max_size=2)):
            floats[i] = draw(F64)
    else:
        floats = draw(st.lists(F64, min_size=max(fits - 2, 0), max_size=fits + 2))
    payload = header + struct.pack(f"<{len(floats)}d", *floats)
    payload += draw(st.one_of(st.just(b""), st.binary(min_size=1, max_size=12)))
    return wrap_frame(payload, version)


@FUZZ
@given(st.binary(max_size=256))
def test_arbitrary_bytes_parse_or_reject(data):
    decode_or_reject(data)


@FUZZ
@given(well_formed_frames())
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_well_formed_frames_parse_or_reject(frame):
    decode_or_reject(frame)


@pytest.fixture(scope="module")
def shard_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "shard"


def read_or_reject(path, data: bytes) -> None:
    path.write_bytes(data)
    try:
        shard = read_shard(path)
    except ParseError:
        return
    assert isinstance(shard, DataShard)
    if data[:4] == SHARD_MAGIC:
        # what a binary shard accepts writes back to the very same file
        write_shard(path, shard)
        assert path.read_bytes() == data


@st.composite
def well_formed_shards(draw):
    version = draw(st.one_of(st.just(1), U32))
    p = draw(st.one_of(st.integers(0, 6), U32))
    n = draw(st.one_of(st.integers(0, 6), U32))
    header = SHARD_MAGIC + struct.pack("<IIII", version, p, n, draw(U32))
    fits = p * n if p <= 6 and n <= 6 else 0
    floats = draw(st.lists(F64, min_size=max(fits - 2, 0), max_size=fits + 2))
    return header + struct.pack(f"<{len(floats)}d", *floats)


CSV_TOKEN = st.one_of(F64.map(repr), st.sampled_from(["1e999", "", "x", " 2 ", "0x1p3"]))
CSV_TEXT = st.lists(st.lists(CSV_TOKEN, min_size=1, max_size=4), max_size=5).map(
    lambda rows: "\n".join(",".join(row) for row in rows).encode())


@FUZZ
@given(st.one_of(st.binary(max_size=256), st.binary(max_size=64).map(SHARD_MAGIC.__add__), CSV_TEXT))
def test_arbitrary_shard_bytes_parse_or_reject(shard_path, data):
    read_or_reject(shard_path, data)


@FUZZ
@given(well_formed_shards())
def test_well_formed_shard_headers_parse_or_reject(shard_path, data):
    read_or_reject(shard_path, data)
