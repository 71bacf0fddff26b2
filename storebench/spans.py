"""Span tracing for the traced run, installed from the benchmark's own files.

``Tracer.install()`` replaces a fixed list of public entry points of the
store's layers with thin wrappers.  Each call records one span: layer,
method, parent span, the operation it belongs to, wall start/end and the
thread CPU time it used.  The current span travels in a ``ContextVar``,
so a span started on a client thread stays the parent of the coroutines
the async I/O engine runs for it on its loop thread
(``asyncio.run_coroutine_threadsafe`` copies the caller's context).

A coroutine shares its thread with every other coroutine on the loop,
so thread CPU time says nothing about one coroutine: async spans carry
``None`` for CPU.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import time
from collections import defaultdict
from contextlib import contextmanager
from threading import get_ident

from repro.blob.async_engine import AsyncIOEngine
from repro.blob.data_provider import DataProviderCore
from repro.blob.metadata import MetadataService
from repro.blob.provider_manager import ProviderManagerCore
from repro.blob.store import LocalBlobStore, PublishPipeline
from repro.bsfs import cache as bsfs_cache
from repro.bsfs.cache import BlockReadCache
from repro.bsfs.filesystem import BSFSFileSystem, BSFSReadStream
from repro.gateway.service import Gateway

#: (class, method, layer, counter) for every wrapped entry point the
#: workloads reach.  The counter, when given, maps the call's arguments
#: to the amount of work it was asked for (node keys requested).
ENTRY_POINTS = [
    (Gateway, "admit", "gateway", None),
    (Gateway, "charge_bytes", "gateway", None),
    (BSFSFileSystem, "open", "bsfs", None),
    (BSFSReadStream, "pread", "bsfs", None),
    (LocalBlobStore, "read", "store", None),
    (LocalBlobStore, "read_payload", "store", None),
    (LocalBlobStore, "append", "store", None),
    (LocalBlobStore, "snapshot", "vman", None),
    (PublishPipeline, "assign", "vman", None),
    (PublishPipeline, "commit", "vman", None),
    (MetadataService, "get_nodes", "metadata", lambda args: len(args[1])),
    (MetadataService, "put_patch", "metadata", None),
    (MetadataService, "put_patches", "metadata", None),
    (DataProviderCore, "get", "provider", None),
    (DataProviderCore, "put", "provider", None),
    (DataProviderCore, "aget", "provider", None),
    (DataProviderCore, "aput", "provider", None),
    (AsyncIOEngine, "map", "engine", None),
    (AsyncIOEngine, "map_settle", "engine", None),
    (ProviderManagerCore, "allocate", "placement", None),
]

# Span tuple fields.
SID, PARENT, OP, LAYER, NAME, T0, T1, CPU, COUNT, TID = range(10)

#: (span id, operation id) of the innermost open span.
_current: contextvars.ContextVar = contextvars.ContextVar("storebench_span", default=None)


class Tracer:
    """Records spans at the wrapped entry points while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        #: operation id -> kind ("read" / "append") of every root span.
        self.ops: dict[int, str] = {}
        #: bytes BSFS's read cache materialized for measured operations
        self.bsfs_copied: list[int] = []
        self._ids = itertools.count(1)
        #: (owner, attribute, original) of every patch; original None: none was set
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------------

    def install(self) -> "Tracer":
        for cls, name, layer, counter in ENTRY_POINTS:
            original = cls.__dict__[name]
            self._saved.append((cls, name, original))
            setattr(cls, name, self._wrap(original, layer, name, counter))
        self._count_bsfs_copies()
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    def _count_bsfs_copies(self) -> None:
        """Count the bytes ``BlockReadCache.pread`` materializes.

        ``CopyStats`` sees only the store's own copies.  The BSFS read
        cache gathers a multi-block range into a ``bytearray`` and
        returns a ``bytes`` result: the cache module's ``bytearray`` is
        replaced by a subclass that counts its size, and a ``pread``
        result that is not one of the cache's blocks is counted too.
        Only work a measured operation asked for is counted.
        """
        copied = self.bsfs_copied

        class CountedBytearray(bytearray):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                if _current.get() is not None:
                    copied.append(len(self))

        original = BlockReadCache.__dict__["pread"]

        @functools.wraps(original)
        def pread(cache, offset, size):
            result = original(cache, offset, size)
            if (
                _current.get() is not None
                and type(result) is bytes
                and not any(result is block for block in cache._blocks.values())
            ):
                copied.append(len(result))
            return result

        self._saved.append((bsfs_cache, "bytearray", None))
        bsfs_cache.bytearray = CountedBytearray
        self._saved.append((BlockReadCache, "pread", original))
        BlockReadCache.pread = pread

    def _wrap(self, fn, layer: str, name: str, counter):
        spans, ids = self.spans, self._ids

        def enter(parent):
            sid = next(ids)
            return sid, parent[1], _current.set((sid, parent[1]))

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                parent = _current.get()
                if parent is None:  # set-up or warm-up: not recorded
                    return await fn(*args, **kwargs)
                sid, op, token = enter(parent)
                t0 = time.perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    t1 = time.perf_counter()
                    _current.reset(token)
                    spans.append(
                        (sid, parent[0], op, layer, name, t0, t1, None, None,
                         get_ident())
                    )

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = _current.get()
            if parent is None:  # set-up or warm-up: not recorded
                return fn(*args, **kwargs)
            sid, op, token = enter(parent)
            count = counter(args) if counter is not None else None
            c0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                cpu = time.thread_time() - c0
                _current.reset(token)
                spans.append(
                    (sid, parent[0], op, layer, name, t0, t1, cpu, count,
                     get_ident())
                )

        return wrapper

    @contextmanager
    def operation(self, kind: str):
        """Root span of one benchmark operation."""
        sid = next(self._ids)
        self.ops[sid] = kind
        token = _current.set((sid, sid))
        c0 = time.thread_time()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            cpu = time.thread_time() - c0
            _current.reset(token)
            self.spans.append(
                (sid, None, sid, "op", kind, t0, t1, cpu, None, get_ident())
            )

    # -- output ----------------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as one tab-separated line (times in µs)."""
        base = min((s[T0] for s in self.spans), default=0.0)
        with open(path, "w") as out:
            out.write("sid\tparent\top\tlayer\tname\tstart_us\tend_us\tcpu_us\tcount\n")
            for s in self.spans:
                out.write(
                    f"{s[SID]}\t{s[PARENT] or ''}\t{s[OP] or ''}\t{s[LAYER]}\t"
                    f"{s[NAME]}\t{(s[T0] - base) * 1e6:.1f}\t{(s[T1] - base) * 1e6:.1f}\t"
                    f"{'' if s[CPU] is None else f'{s[CPU] * 1e6:.1f}'}\t"
                    f"{'' if s[COUNT] is None else s[COUNT]}\n"
                )


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of *intervals*."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


class SpanSummary:
    """Per-layer totals over the measured operations of one traced run.

    ``inclusive[(layer, kind)]`` sums the spans of *layer* whose parent
    belongs to another layer (so a layer calling itself is not counted
    twice); ``self_wall``/``self_cpu`` sum each span's duration minus
    the part its children cover, keyed the same way.  *kind* is the kind
    of the operation the span served.  ``calls[(layer, method, kind)]``
    counts calls, ``calls_under[(parent layer, layer, method, kind)]``
    counts them by the layer that made them, and ``counts[(layer, kind)]``
    sums the work the calls were asked for.
    """

    def __init__(self, tracer: Tracer):
        spans = tracer.spans
        layer_of = {s[SID]: s[LAYER] for s in spans}
        tid_of = {s[SID]: s[TID] for s in spans}
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        child_cpu: dict[int, float] = defaultdict(float)
        for s in spans:
            if s[PARENT] is not None:
                children[s[PARENT]].append((s[T0], s[T1]))
                # Only a child on the parent's own thread spent CPU the
                # parent's thread-time reading includes.
                if s[CPU] is not None and tid_of.get(s[PARENT]) == s[TID]:
                    child_cpu[s[PARENT]] += s[CPU]
        self.inclusive: dict[tuple[str, str], float] = defaultdict(float)
        self.self_wall: dict[tuple[str, str], float] = defaultdict(float)
        self.self_cpu: dict[tuple[str, str], float] = defaultdict(float)
        self.calls: dict[tuple[str, str, str], int] = defaultdict(int)
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.calls_under: dict[tuple[str, str, str, str], int] = defaultdict(int)
        for s in spans:
            kind = tracer.ops.get(s[OP])
            if kind is None:
                continue  # work no measured operation asked for
            key = (s[LAYER], kind)
            dur = s[T1] - s[T0]
            parent_layer = layer_of.get(s[PARENT])
            if parent_layer != s[LAYER]:
                self.inclusive[key] += dur
            self.self_wall[key] += dur - _covered(s[T0], s[T1], children.get(s[SID], []))
            if s[CPU] is not None:
                self.self_cpu[key] += s[CPU] - child_cpu.get(s[SID], 0.0)
            self.calls[(s[LAYER], s[NAME], kind)] += 1
            if s[COUNT] is not None:
                self.counts[key] += s[COUNT]
            if parent_layer is not None:
                self.calls_under[(parent_layer, s[LAYER], s[NAME], kind)] += 1
        self.bsfs_copied = sum(tracer.bsfs_copied)
        self.n_ops: dict[str, int] = defaultdict(int)
        for sid, kind in tracer.ops.items():
            if sid in layer_of:  # the operation finished
                self.n_ops[kind] += 1

    def layers(self) -> list[str]:
        return sorted({layer for layer, _ in self.self_wall})
