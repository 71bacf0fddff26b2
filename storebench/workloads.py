"""The three workloads, each driven through the store's public API.

Each workload builds its inputs from the seed alone, then runs in
epochs until the measured time reaches the requested seconds.  An epoch
sets a fresh store up (``SETUPS_PER_EPOCH`` times, keeping the last),
warms it up, and runs a fixed number of measured operations as a closed
loop: a client sends its next operation only when the previous one
returned.  Every epoch starts from the same state and does the same
work, so a blob never grows past a fixed number of versions and a
faster program does not slow its own later operations.  Set-up samples
are spread through the run and see the same host phases as the
measured operations; ``setup_s`` is their median.  Every output is
checked against the generator's model of the bytes (see ``checks.py``).
"""

from __future__ import annotations

import gc
import random
import resource
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from checks import BlobModel, check_bytes, check_bytes_out, check_fanin
from repro.blob.config import StoreConfig
from repro.blob.store import LocalBlobStore
from repro.gateway import Gateway

KB = 1024
MB = 1024 * KB
BLOCK = 64 * KB
SETUPS_PER_EPOCH = 3

#: The latency-bound regime (paper Figures 4 and 5): simulated service
#: time per provider transfer, per metadata-bucket request and per
#: version-manager interaction, on the coroutine I/O engine.
LATENCY_BOUND = StoreConfig(
    block_size=BLOCK,
    io_scheduler="async",
    provider_latency=0.001,
    metadata_latency=0.0005,
    vman_latency=0.001,
    group_commit=True,
    overlap_publish=True,
)


@dataclass
class Outcome:
    """What one run of a workload measured and found."""

    tracer: object = None
    latencies: dict[str, list[float]] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)
    #: length of each epoch's measured stretch
    stretches: list[float] = field(default_factory=list)
    #: user payload moved by measured operations, per operation kind
    moved: dict[str, int] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    #: the store's per-layer counters, summed over the measured stretches
    counters: dict = field(default_factory=dict)
    #: peak resident memory of the whole run, read after the last epoch
    peak_rss_mb: float = 0.0

    @property
    def window_s(self) -> float:
        return sum(self.stretches)

    @property
    def attempted(self) -> int:
        return sum(len(v) for v in self.latencies.values()) + len(self.failures)

    def run_op(self, kind: str, measured: bool, call):
        """Run one operation; its result, or ``None`` if it raised.

        A measured operation's latency goes into ``latencies[kind]``, and
        in a traced run it is the root span of everything it calls; a
        failure is counted in ``failures`` instead (a failed warm-up
        operation is an error: the measured state is then unknown).
        """
        scope = self.tracer.operation(kind) if measured and self.tracer else nullcontext()
        t0 = time.perf_counter()
        try:
            with scope:
                result = call()
        except Exception as exc:
            (self.failures if measured else self.errors).append(f"{kind}: {exc!r}")
            return None
        if measured:
            self.latencies[kind].append(time.perf_counter() - t0)
        return result


def _counters(store: LocalBlobStore) -> dict:
    """Snapshot of the store's own per-layer counters."""
    cache = store.metadata.cache
    engine = store.io_engine
    return {
        "vman": store.vman_stats.snapshot(),
        "dht": store.metadata.store.stats.snapshot(),
        "cache": {"hits": cache.hits, "misses": cache.misses},
        "engine": engine.stats.snapshot() if engine is not None else {},
        "copy": store.copy_stats.layers(),
    }


def _accumulate(total: dict, before: dict, after: dict) -> None:
    """Add the counter deltas *after* − *before* into *total*.

    High-water marks and maxima are not summed: *total* keeps the
    largest one seen.
    """
    for key, value in after.items():
        if isinstance(value, dict):
            _accumulate(total.setdefault(key, {}), before.get(key, {}), value)
        elif key.endswith("_hwm") or "max" in key:
            total[key] = max(total.get(key, 0), value)
        else:
            total[key] = total.get(key, 0) + value - before.get(key, 0)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _measure(store: LocalBlobStore, out: Outcome, stretch) -> None:
    """Run *stretch()* as measured work on *store* and record its length.

    *stretch* returns the measured seconds.  In a traced run the
    store's counters are read on both sides of it.
    """
    if out.tracer is None:
        out.stretches.append(stretch())
        return
    if store.io_engine is not None:
        store.io_engine.stats.reset()  # in-flight high-water mark of the stretch only
    before = _counters(store)
    out.stretches.append(stretch())
    _accumulate(out.counters, before, _counters(store))


def _epochs(out: Outcome, seconds: float, build, close, epoch) -> None:
    """Run epochs until *seconds* of measured time: set up, then ``epoch(built)``.

    Each epoch builds its store ``SETUPS_PER_EPOCH`` times and keeps the
    last; every build is one ``setup_s`` sample.  The peak resident
    memory is read after the last epoch, so it covers the measured
    operations; every epoch does the same work on a fresh store, so it
    does not grow with the number of epochs a faster program runs.
    """
    while not out.stretches or out.window_s < seconds:
        built = None
        for _ in range(SETUPS_PER_EPOCH):
            if built is not None:
                close(built)
            built = None
            gc.collect()  # no discarded store is collected inside a timed stretch
            t0 = time.perf_counter()
            built = build()
            out.setups.append(time.perf_counter() - t0)
        try:
            epoch(built)
        finally:
            close(built)
    out.peak_rss_mb = peak_rss_mb()


def _run_clients(clients: int, body) -> float:
    """Run ``body(client)`` on *clients* threads from one start barrier.

    Returns the seconds from barrier release to the end of the last client.
    """
    barrier = threading.Barrier(clients + 1)
    errors: list[BaseException] = []

    def main(client: int) -> None:
        barrier.wait()
        try:
            body(client)
        except BaseException as exc:  # reported by the caller below
            errors.append(exc)

    threads = [threading.Thread(target=main, args=(c,)) for c in range(clients)]
    for t in threads:
        t.start()
    barrier.wait()
    start = time.perf_counter()
    for t in threads:
        t.join()
    end = time.perf_counter()
    if errors:
        raise errors[0]
    return end - start


def random_bytes(gen: np.random.Generator, size: int) -> memoryview:
    """*size* seeded random bytes, as a read-only view.

    The store aliases read-only buffers instead of copying them, and no
    second copy is made here, so the input costs its size in memory once.
    """
    array = gen.integers(0, 256, size=size, dtype=np.uint8)
    array.flags.writeable = False
    return memoryview(array)


# -- small-ops ---------------------------------------------------------------------

SMALL_PRELOAD_BLOCKS = 1024
SMALL_READ = 4 * KB
SMALL_READS_PER_ROUND = 9
SMALL_APPEND_PAYLOADS = 8
SMALL_WARMUP_ROUNDS = 50
SMALL_EPOCH_ROUNDS = 500


def small_ops(seed: int, seconds: float, tracer=None) -> Outcome:
    """One client, default (inline, zero-latency) store, 64 KB blocks.

    Nine 4 KB reads at random unaligned offsets of the latest snapshot,
    then one one-block append, per round.  The preloaded blob's ~2k tree
    nodes exceed the 1024-node metadata cache.  An epoch makes 50
    warm-up rounds and 500 measured ones, so the blob grows from 1024
    blocks (one version) to 1574 blocks (551 versions).
    """
    out = Outcome(tracer=tracer, latencies={"read": [], "append": []})
    gen = np.random.default_rng(seed)
    preload = random_bytes(gen, SMALL_PRELOAD_BLOCKS * BLOCK)
    appends = [random_bytes(gen, BLOCK) for _ in range(SMALL_APPEND_PAYLOADS)]
    preload_blocks = [preload[i : i + BLOCK] for i in range(0, len(preload), BLOCK)]
    rnd = random.Random(seed)
    config = StoreConfig(block_size=BLOCK)

    def build():
        store = LocalBlobStore(config=config)
        blob = store.create()
        store.append(blob, preload)
        return store, blob

    def epoch(built) -> None:
        store, blob = built
        model = BlobModel(preload_blocks, BLOCK)

        def round_(measured: bool) -> None:
            for _ in range(SMALL_READS_PER_ROUND):
                offset = rnd.randrange(model.size - SMALL_READ + 1)
                got = out.run_op("read", measured, lambda: store.read(blob, offset, SMALL_READ))
                if got is not None:
                    out.errors += check_bytes(
                        f"read @{offset}", got, model.expected(offset, SMALL_READ)
                    )
            payload = appends[rnd.randrange(SMALL_APPEND_PAYLOADS)]
            version = out.run_op("append", measured, lambda: store.append(blob, payload))
            if version is not None:
                model.append(payload)

        def stretch() -> float:
            start = time.perf_counter()
            for _ in range(SMALL_EPOCH_ROUNDS):
                round_(True)
            return time.perf_counter() - start

        for _ in range(SMALL_WARMUP_ROUNDS):
            round_(False)
        _measure(store, out, stretch)
        info = store.snapshot(blob)
        if info.size != model.size:
            out.errors.append(f"blob size {info.size}, model says {model.size}")

    _epochs(out, seconds, build, lambda sb: sb[0].close(), epoch)
    out.moved = {
        "read": len(out.latencies["read"]) * SMALL_READ,
        "append": len(out.latencies["append"]) * BLOCK,
    }
    return out


# -- append-fanin ------------------------------------------------------------------

FANIN_CLIENTS = 2
FANIN_CHUNK = 1 * MB
FANIN_PAYLOADS = 4  # per client: blocks alias a few buffers, memory stays flat
FANIN_PRELOAD_CHUNKS = 8
FANIN_WARMUP_APPENDS = 8  # per client
FANIN_EPOCH_APPENDS = 250  # per client
FANIN_READBACK_SAMPLE = 8  # per epoch, beside the first and the last chunk


def append_fanin(seed: int, seconds: float, tracer=None) -> Outcome:
    """Two clients append 1 MB (16 blocks) each to one shared blob.

    Latency-bound (Figure 5): the load goes to the scatter fan-out, the
    group-commit pipeline and metadata publication.  An epoch makes 8
    set-up appends, 8 warm-up and 250 measured appends per client, so
    the blob grows to 524 versions.
    """
    out = Outcome(tracer=tracer, latencies={"append": []})
    gen = np.random.default_rng(seed)
    payloads = [
        [random_bytes(gen, FANIN_CHUNK) for _ in range(FANIN_PAYLOADS)]
        for _ in range(FANIN_CLIENTS)
    ]

    def payload_of(key: int) -> memoryview:
        return payloads[key // FANIN_PAYLOADS][key % FANIN_PAYLOADS]

    def build():
        store = LocalBlobStore(config=LATENCY_BOUND)
        blob = store.create()
        preloaded = {}
        for i in range(FANIN_PRELOAD_CHUNKS):
            key = i % (FANIN_CLIENTS * FANIN_PAYLOADS)
            preloaded[store.append(blob, payload_of(key))] = key
        return store, blob, preloaded

    rngs = [random.Random(seed * FANIN_CLIENTS + c) for c in range(FANIN_CLIENTS)]
    pick = random.Random(seed)

    def epoch(built) -> None:
        store, blob, preloaded = built
        records: list[list[tuple[int, int]]] = [[] for _ in range(FANIN_CLIENTS)]

        def client(c: int, measured: bool, count: int) -> None:
            for _ in range(count):
                key = c * FANIN_PAYLOADS + rngs[c].randrange(FANIN_PAYLOADS)
                version = out.run_op(
                    "append", measured, lambda: store.append(blob, payload_of(key))
                )
                if version is not None:
                    records[c].append((version, key))

        _run_clients(FANIN_CLIENTS, lambda c: client(c, False, FANIN_WARMUP_APPENDS))
        _measure(
            store,
            out,
            lambda: _run_clients(FANIN_CLIENTS, lambda c: client(c, True, FANIN_EPOCH_APPENDS)),
        )
        total = len(preloaded) + sum(len(r) for r in records)
        sample = sorted(
            {0, total - 1} | set(pick.sample(range(total), min(total, FANIN_READBACK_SAMPLE)))
        )
        info = store.snapshot(blob)
        out.errors += check_fanin(
            preloaded,
            records,
            FANIN_CHUNK,
            final_size=info.size,
            latest_version=store.latest_version(blob),
            read_chunk=lambda i: store.read(blob, i * FANIN_CHUNK, FANIN_CHUNK),
            payload_of=payload_of,
            sample=sample,
        )

    _epochs(out, seconds, build, lambda sbp: sbp[0].close(), epoch)
    out.moved = {"append": len(out.latencies["append"]) * FANIN_CHUNK}
    return out


# -- gateway-read ------------------------------------------------------------------

GATEWAY_CLIENTS = 2
GATEWAY_FILE = 16 * MB
GATEWAY_READ = 2 * MB
GATEWAY_EPOCH_READS = 50  # per client
GATEWAY_PATH = "/input"
GATEWAY_TENANT = "bench"


def gateway_read(seed: int, seconds: float, tracer=None) -> Outcome:
    """Two clients make 2 MB ``GatewayClient.read`` calls at random offsets.

    One unlimited tenant on Gateway -> BSFSFileSystem -> store, reading
    one 16 MB file (256 blocks, ~511 tree nodes: fits the cache).
    Latency-bound (Figure 4): the read path a Hadoop client sees.  An
    epoch's two clients read the file once in 2 MB steps to warm up, then
    make 50 measured reads each.
    """
    out = Outcome(tracer=tracer, latencies={"read": []})
    data = random_bytes(np.random.default_rng(seed), GATEWAY_FILE)
    rngs = [random.Random(seed * GATEWAY_CLIENTS + c) for c in range(GATEWAY_CLIENTS)]

    def build():
        gateway = Gateway(config=LATENCY_BOUND)
        session = gateway.connect(GATEWAY_TENANT, gateway.register_tenant(GATEWAY_TENANT))
        session.write_file(GATEWAY_PATH, data)
        return gateway, session

    def epoch(built) -> None:
        gateway, session = built
        moved = [0] * GATEWAY_CLIENTS
        errors: list[list[str]] = [[] for _ in range(GATEWAY_CLIENTS)]

        def read(c: int, offset: int, measured: bool) -> None:
            got = out.run_op(
                "read", measured, lambda: session.read(GATEWAY_PATH, offset, GATEWAY_READ)
            )
            if got is not None:
                moved[c] += len(got)
                errors[c] += check_bytes(
                    f"read @{offset}", got, data[offset : offset + GATEWAY_READ]
                )

        def warm(c: int) -> None:  # between them, the clients touch every block
            for offset in range(c * GATEWAY_READ, GATEWAY_FILE, GATEWAY_CLIENTS * GATEWAY_READ):
                read(c, offset, False)

        def client(c: int) -> None:
            for _ in range(GATEWAY_EPOCH_READS):
                read(c, rngs[c].randrange(GATEWAY_FILE - GATEWAY_READ + 1), True)

        before = session.stats()["bytes_out"]
        _run_clients(GATEWAY_CLIENTS, warm)
        warm_moved = sum(moved)
        _measure(gateway.store, out, lambda: _run_clients(GATEWAY_CLIENTS, client))
        out.moved["read"] = out.moved.get("read", 0) + sum(moved) - warm_moved
        out.errors += [e for errs in errors for e in errs]
        out.errors += check_bytes_out(session.stats()["bytes_out"] - before, sum(moved))

    _epochs(out, seconds, build, lambda gs: gs[0].close(), epoch)
    return out


WORKLOADS = {
    "small-ops": small_ops,
    "append-fanin": append_fanin,
    "gateway-read": gateway_read,
}
