"""Instrumentation attached to betadpca from outside the package.

Functions are replaced at their module attributes, including the names other
modules imported (``aggregation.eig_sym`` beside ``linalg.eig_sym``), so a
call is seen whichever module makes it.  Nothing under ``src/`` is edited.

``Counters`` stay attached for the whole run, traced or not: a frame and byte
count on the codec, a connect count on the socket calls ``cluster`` makes, and
a thread count read from /proc/self/task while a round is in flight.  ``Tracer`` is
attached only around traced ops and records one span per call.
"""

from __future__ import annotations

import functools
import itertools
import os
import socket
import sys
import threading
import time
import types
from typing import Callable, NamedTuple

import numpy as np

# (module, function) pairs recorded as spans in the traced run.
TRACED = (
    ("linalg", "eig_sym"),
    ("local_pca", "local_summary"),
    ("local_pca", "truncated_eig"),
    ("aggregation", "beta_aggregate"),
    ("aggregation", "fan_aggregate"),
    ("selection", "select_beta"),
    ("cluster", "worker_round"),
    ("cluster", "coordinator_round"),
    ("cluster", "encode_summary"),
    ("cluster", "decode_summary"),
    ("cluster", "send_summary"),
    ("simgen", "make_population"),
    ("simgen", "sample_data"),
    ("experiment", "run_experiment"),
)


def _package_modules(package: str = "betadpca") -> list[types.ModuleType]:
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == package or name.startswith(package + "."))]


class Patches:
    """Rebinds every module attribute that holds a given object; undo restores them."""

    def __init__(self):
        self._undo: list[tuple[types.ModuleType, str, object]] = []

    def rebind(self, original, replacement) -> None:
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def undo(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()


class ThreadMonitor:
    """Most threads this process ran at once, over the samples taken.

    A thread is listed in /proc/self/task until the kernel has torn it down,
    which can be after Thread.join() returned: the previous round's
    coordinator thread is often still listed when the next round starts.
    Threads that Python already saw finish are therefore not counted; every
    other task is, including pools started by native libraries.
    """

    def __init__(self):
        self.max_threads = 0
        self._python_tids: set[int] = set()
        self.sample()

    def sample(self) -> None:
        tids = {int(t) for t in os.listdir("/proc/self/task")}
        live = {t.native_id for t in threading.enumerate()}
        self._python_tids |= live
        finished = tids & (self._python_tids - live)
        self.max_threads = max(self.max_threads, len(tids - finished))


class Counters:
    """Frames, frame bytes and connect attempts, plus the most threads seen."""

    def __init__(self, cluster_module):
        self.frames = 0
        self.wire_bytes = 0
        self.connects = 0
        self.threads = ThreadMonitor()
        self._sample_threads = False
        self._patches = Patches()
        encode = cluster_module.encode_summary

        def counted_encode(msg):
            frame = encode(msg)
            self.frames += 1
            self.wire_bytes += len(frame)
            if self._sample_threads:
                self.sample_threads()
            return frame

        real_connect = socket.create_connection

        def counted_connect(*args, **kwargs):
            self.connects += 1
            return real_connect(*args, **kwargs)

        # cluster reaches the socket module as a global; give it a copy whose
        # create_connection counts, leaving the real module untouched.
        counted_socket = types.ModuleType("socket")
        counted_socket.__dict__.update(vars(socket))
        counted_socket.create_connection = counted_connect
        self._patches.rebind(encode, counted_encode)
        self._patches.rebind(socket, counted_socket)

    def sample_threads(self) -> None:
        self.threads.sample()
        self._sample_threads = False

    def sample_threads_in_next_frame(self) -> None:
        """Read the thread count when the next frame is encoded, mid-round."""
        self._sample_threads = True

    def snapshot(self) -> tuple[int, int, int]:
        return self.frames, self.wire_bytes, self.connects

    def close(self) -> None:
        self._patches.undo()


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    dim: int  # eig_sym input dimension, else 0


class Tracer:
    """Records one span per call of the TRACED functions while attached.

    Each thread keeps its own stack of open spans.  A span opened on a thread
    with no open span (the coordinator thread of a socket round) takes the
    current op's span as its parent.
    """

    def __init__(self, package):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op: int | None = None
        self._op_start = 0.0
        self._patches = Patches()
        self._wrapped = []
        for mod_name, fn_name in TRACED:
            current = getattr(getattr(package, mod_name), fn_name)
            dim = _matrix_dim if fn_name == "eig_sym" else None
            self._wrapped.append((current, self._wrap(f"{mod_name}.{fn_name}", current, dim)))

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn: Callable, dim: Callable | None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._op
            sid = next(tracer._ids)
            size = dim(*args, **kwargs) if dim is not None else 0
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(Span(sid, name, start, end, parent, size))
        return traced

    def begin_op(self) -> None:
        self.spans = []
        for original, wrapper in self._wrapped:
            self._patches.rebind(original, wrapper)
        self._op = next(self._ids)
        self._op_start = time.perf_counter()

    def end_op(self) -> list[Span]:
        end = time.perf_counter()
        self._patches.undo()
        self.spans.append(Span(self._op, "op", self._op_start, end, None, 0))
        self._op = None
        return self.spans


def _matrix_dim(m) -> int:
    return int(np.shape(m)[0])


def covered(interval: tuple[float, float], parts: list[tuple[float, float]]) -> float:
    """Length of the part of interval covered by the union of parts."""
    lo, hi = interval
    total, reach = 0.0, lo
    for start, end in sorted(parts):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


class LayerStats:
    """Per-layer totals over traced ops."""

    def __init__(self):
        self.ops = 0
        self.calls: dict[str, int] = {}
        self.incl: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.n3 = 0
        self.dim_max = 0
        self.select_aggregations = 0
        self.transport_self = 0.0
        self.frames = 0
        self.wire_bytes = 0
        self.connects = 0

    def add(self, spans: list[Span], frames: int, wire_bytes: int, connects: int) -> None:
        self.ops += 1
        self.frames += frames
        self.wire_bytes += wire_bytes
        self.connects += connects
        by_id = {s.id: s for s in spans}
        children: dict[int, list[Span]] = {}
        for s in spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        for s in spans:
            kids = [(c.start, c.end) for c in children.get(s.id, [])]
            self.calls[s.name] = self.calls.get(s.name, 0) + 1
            self.incl[s.name] = self.incl.get(s.name, 0.0) + (s.end - s.start)
            self.self_s[s.name] = (self.self_s.get(s.name, 0.0)
                                   + (s.end - s.start) - covered((s.start, s.end), kids))
            if s.name == "linalg.eig_sym":
                self.n3 += s.dim ** 3
                self.dim_max = max(self.dim_max, s.dim)
            if (s.name == "aggregation.beta_aggregate" and s.parent in by_id
                    and by_id[s.parent].name == "selection.select_beta"):
                self.select_aggregations += 1
        op = next(s for s in spans if s.name == "op")
        round_parts = [(s.start, s.end) for s in spans
                       if s.name in ("cluster.worker_round", "cluster.coordinator_round")]
        if any(s.name == "cluster.coordinator_round" for s in spans):
            self.transport_self += (op.end - op.start) - covered((op.start, op.end), round_parts)

    def metrics(self) -> dict[str, float]:
        """Counts per op, and each layer's time as a share of the traced ops' time.

        Shares rather than seconds: a layer absent from a workload reads 0 on
        every run, which is a count of nothing, not a measured time.
        """
        n = max(self.ops, 1)
        op_time = self.incl.get("op", 0.0) or 1.0

        def count(table, name):
            return table.get(name, 0) / n

        def share(table, name):
            return table.get(name, 0.0) / op_time

        return {
            "linalg.eig_sym.calls": count(self.calls, "linalg.eig_sym"),
            "linalg.eig_sym.share": share(self.incl, "linalg.eig_sym"),
            "linalg.eig_sym.n3": self.n3 / n,
            "linalg.eig_sym.dim_max": self.dim_max,
            "local_pca.local_summary.calls": count(self.calls, "local_pca.local_summary"),
            "local_pca.local_summary.share": share(self.incl, "local_pca.local_summary"),
            "local_pca.local_summary.self_share": share(self.self_s, "local_pca.local_summary"),
            "local_pca.truncated_eig.share": share(self.incl, "local_pca.truncated_eig"),
            "aggregation.beta_aggregate.calls": count(self.calls, "aggregation.beta_aggregate"),
            "aggregation.beta_aggregate.share": share(self.incl, "aggregation.beta_aggregate"),
            "aggregation.beta_aggregate.self_share": share(self.self_s, "aggregation.beta_aggregate"),
            "aggregation.fan_aggregate.share": share(self.incl, "aggregation.fan_aggregate"),
            "selection.select_beta.share": share(self.incl, "selection.select_beta"),
            "selection.select_beta.self_share": share(self.self_s, "selection.select_beta"),
            "selection.select_beta.aggregations": self.select_aggregations / n,
            "cluster.worker_round.share": share(self.incl, "cluster.worker_round"),
            "cluster.coordinator_round.share": share(self.incl, "cluster.coordinator_round"),
            "cluster.encode_summary.share": share(self.incl, "cluster.encode_summary"),
            "cluster.decode_summary.share": share(self.incl, "cluster.decode_summary"),
            "cluster.send_summary.share": share(self.incl, "cluster.send_summary"),
            "cluster.transport.self_share": self.transport_self / op_time,
            "cluster.frames": self.frames / n,
            "cluster.wire_bytes": self.wire_bytes / n,
            "cluster.connect_attempts_per_frame": self.connects / self.frames if self.frames else 0.0,
            "simgen.make_population.share": share(self.incl, "simgen.make_population"),
            "simgen.sample_data.share": share(self.incl, "simgen.sample_data"),
            "experiment.run_experiment.self_share": share(self.self_s, "experiment.run_experiment"),
        }
