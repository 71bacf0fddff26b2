"""End-to-end store benchmark: one workload, one seed, one JSON result line.

Run from the root of a checkout::

    python3 storebench/run.py --workload small-ops --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` runs the same workload with spans recorded at every
layer's entry points and prints the per-layer metrics instead (and
writes the spans to ``.storebench/``).  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; the metric
names and units are checked against ``BENCHMARK.json`` both ways before
it is printed.  See ``storebench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"storebench: no src/repro under {ROOT}; run from a full checkout")
sys.path.insert(0, str(ROOT / "src"))

from checks import check_metric_names, check_workload_names  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

MB = 1024 * 1024
LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest ladder percentile with at least ten samples beyond it."""
    for pct in LADDER:
        value, beyond = percentile(values, pct)
        if beyond >= 10:
            return pct, value, beyond
    return 50.0, *percentile(values, 50.0)


def end_to_end(out: Outcome) -> dict[str, tuple[float, str]]:
    done = sum(len(v) for v in out.latencies.values())
    return {
        "ops_per_s": (done / out.window_s, "1/s"),
        "mb_s": (sum(out.moved.values()) / MB / out.window_s, "MB/s"),
        "setup_s": (statistics.median(out.setups), "s"),
        "peak_rss_mb": (out.peak_rss_mb, "MB"),
    }


def per_layer(out: Outcome, summary) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans and the store's own counters."""
    reads = summary.n_ops.get("read", 0)
    appends = summary.n_ops.get("append", 0)
    ops = reads + appends

    def per(value: float, n: int) -> float:
        return value / n if n else 0.0

    def inclusive_ms(layer: str, kinds=("read", "append")) -> float:
        return sum(summary.inclusive.get((layer, k), 0.0) for k in kinds) * 1e3

    counters = out.counters

    def delta(group: str, key: str) -> float:
        return counters.get(group, {}).get(key, 0)

    def copied(read_layers: bool) -> int:
        total = 0
        for layer, counts in counters.get("copy", {}).items():
            if layer.startswith("read.") != read_layers:
                continue
            total += counts.get("copied", 0)
            if read_layers:
                total += counts.get("result", 0)
        return total

    hits, misses = delta("cache", "hits"), delta("cache", "misses")
    return {
        "gateway.admit_ms": (per(inclusive_ms("gateway"), ops), "ms"),
        "bsfs.store_reads_per_read": (
            per(
                sum(summary.calls_under.get(("bsfs", "store", m, "read"), 0) for m in ("read", "read_payload")),
                reads,
            ),
            "count",
        ),
        "bsfs.read_self_ms": (per(summary.self_wall.get(("bsfs", "read"), 0.0) * 1e3, reads), "ms"),
        "store.read_self_ms": (per(summary.self_wall.get(("store", "read"), 0.0) * 1e3, reads), "ms"),
        "store.append_self_ms": (
            per(summary.self_wall.get(("store", "append"), 0.0) * 1e3, appends),
            "ms",
        ),
        "vman.round_trips_per_op": (per(delta("vman", "vman_round_trips"), ops), "count"),
        "vman.tickets_per_assign_round": (
            per(delta("vman", "vman_tickets_assigned"), delta("vman", "vman_assign_rounds")),
            "count",
        ),
        "vman.ms_per_op": (per(inclusive_ms("vman"), ops), "ms"),
        "metadata.nodes_per_read": (per(summary.counts.get(("metadata", "read"), 0), reads), "count"),
        "metadata.cache_hit_ratio": (per(hits, hits + misses), "ratio"),
        "metadata.ms_per_op": (per(inclusive_ms("metadata"), ops), "ms"),
        "dht.round_trips_per_op": (per(delta("dht", "round_trips"), ops), "count"),
        "dht.keys_fetched_per_op": (per(delta("dht", "keys_fetched"), ops), "count"),
        "provider.gets_per_read": (per(summary.calls.get(("provider", "get", "read"), 0), reads), "count"),
        "provider.puts_per_append": (
            per(summary.calls.get(("provider", "put", "append"), 0), appends),
            "count",
        ),
        "provider.ms_per_op": (per(inclusive_ms("provider"), ops), "ms"),
        "engine.map_ms": (per(inclusive_ms("engine"), ops), "ms"),
        "engine.queue_wait_ms": (per(delta("engine", "queue_wait_total") * 1e3, ops), "ms"),
        "engine.in_flight_hwm": (delta("engine", "in_flight_hwm"), "count"),
        "copy.bytes_per_read_byte": (
            per(copied(True) + summary.bsfs_copied, out.moved.get("read", 0)),
            "ratio",
        ),
        "copy.bytes_per_append_byte": (per(copied(False), out.moved.get("append", 0)), "ratio"),
        "placement.allocate_ms": (per(inclusive_ms("placement", ("append",)), appends), "ms"),
    }


def report(args, out: Outcome) -> None:
    """Human-readable lines before the result."""
    print(f"storebench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    done = sum(len(v) for v in out.latencies.values())
    print(
        f"attempted={out.attempted} failed={len(out.failures)} completed={done} "
        f"epochs={len(out.stretches)} window_s={out.window_s:.3f} "
        f"ops_per_s={done / out.window_s:.1f} peak_rss_mb={out.peak_rss_mb:.1f}"
    )
    for kind, values in sorted(out.latencies.items()):
        if not values:
            continue
        pct, value, beyond = tail(values)
        print(
            f"  {kind}: n={len(values)} p50={statistics.median(values) * 1e3:.3f}ms "
            f"p{pct:g}={value * 1e3:.3f}ms ({beyond} samples beyond)"
        )
    print("  setup runs (s): " + " ".join(f"{s:.4f}" for s in out.setups))
    print("  measured stretches (s): " + " ".join(f"{s:.4f}" for s in out.stretches))
    for failure in out.failures[:5]:
        print(f"  FAILED {failure}")
    for error in out.errors[:10]:
        print(f"  WRONG {error}")


def report_layers(summary) -> None:
    print(f"  {'layer':<10} {'kind':<7} {'incl ms/op':>11} {'self ms/op':>11} {'self cpu ms/op':>15}")
    for layer in summary.layers():
        for kind in ("read", "append"):
            n = summary.n_ops.get(kind, 0)
            if not n or (layer, kind) not in summary.self_wall:
                continue
            cpu = summary.self_cpu.get((layer, kind))
            print(
                f"  {layer:<10} {kind:<7} {summary.inclusive.get((layer, kind), 0.0) * 1e3 / n:>11.4f} "
                f"{summary.self_wall[(layer, kind)] * 1e3 / n:>11.4f} "
                f"{'' if cpu is None else f'{cpu * 1e3 / n:.4f}':>15}"
            )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    drift = check_workload_names(list(WORKLOADS), declared["workloads"])
    if args.workload not in WORKLOADS:
        drift.append(f"unknown workload {args.workload!r}")
    if drift:
        print("\n".join(drift), file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from spans import SpanSummary, Tracer

        tracer = Tracer().install()
    try:
        out = WORKLOADS[args.workload](args.seed, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    report(args, out)

    if tracer is None:
        section, metrics = "end_to_end", end_to_end(out)
    else:
        summary = SpanSummary(tracer)
        report_layers(summary)
        section, metrics = "per_layer", per_layer(out, summary)
        spans_dir = ROOT / ".storebench"
        spans_dir.mkdir(exist_ok=True)
        path = spans_dir / f"trace-{args.workload}-seed{args.seed}.tsv"
        tracer.write(path)
        print(f"  {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    drift = check_metric_names(
        {n: {"unit": u} for n, (_, u) in metrics.items()}, declared[section], section
    )
    if drift:
        print("\n".join(drift), file=sys.stderr)
        return 2
    for name, (value, unit) in metrics.items():
        print(f"  metric {name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": not out.errors,
                "attempted": out.attempted,
                "failed": len(out.failures),
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
