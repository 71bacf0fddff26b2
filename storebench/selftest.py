"""Confirms that every output check of the benchmark fails on a wrong answer.

Run from the root of a checkout (takes a few seconds)::

    python3 storebench/selftest.py

Each check is first given a right answer, which it must pass, then
wrong ones, each of which it must reject.  The last part runs every
workload briefly, once as is and once with a store entry point patched
to answer wrongly, and confirms the printed result says
``"correct": false`` for the wrong one — and that the metric names the
command prints agree with ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run  # noqa: F401  (puts src/ on the path)
from checks import (
    BlobModel,
    check_bytes,
    check_bytes_out,
    check_fanin,
    check_metric_names,
    check_workload_names,
)
from repro.blob.store import LocalBlobStore
from repro.gateway.client import GatewayClient
from repro.gateway.tenants import TenantState
from workloads import WORKLOADS

FAILURES: list[str] = []


def expect(name: str, errors: list[str], should_fail: bool, match: str = "") -> None:
    """*should_fail*: the check must report an error containing *match*."""
    if bool(errors) != should_fail:
        FAILURES.append(f"{name}: {'passed' if should_fail else 'failed'} unexpectedly {errors}")
    elif should_fail and not any(match in e for e in errors):
        FAILURES.append(f"{name}: no error mentions {match!r}: {errors}")


def flip(data: bytes, at: int = 0) -> bytes:
    out = bytearray(data)
    out[at] ^= 0xFF
    return bytes(out)


def unit_checks() -> None:
    blocks = [bytes([i]) * 8 for i in range(4)]
    model = BlobModel(blocks, 8)
    right = model.expected(6, 5)
    expect("read right", check_bytes("r", right, bytes([0, 0, 1, 1, 1])), False)
    expect("read wrong byte", check_bytes("r", flip(right, 3), right), True, "+3")
    expect("read short", check_bytes("r", right[:-1], right), True, "4 bytes returned")
    model.append(bytes([9]) * 8)
    expect("read after append", check_bytes("r", model.expected(30, 4), bytes([3, 3, 9, 9])), False)

    chunk = 4
    payloads = {k: bytes([k]) * chunk for k in range(4)}
    preloaded = {1: 0, 2: 1}
    records = [[(3, 2), (5, 0)], [(4, 3), (6, 1)]]
    content = {v - 1: payloads[k] for v, k in [*preloaded.items(), *(r for rs in records for r in rs)]}

    def fanin(**override):
        args = dict(
            preloaded=preloaded,
            records=records,
            chunk_size=chunk,
            final_size=6 * chunk,
            latest_version=6,
            read_chunk=content.__getitem__,
            payload_of=payloads.__getitem__,
            sample=range(6),
        )
        args.update(override)
        return check_fanin(**args)

    expect("fanin right", fanin(), False)
    expect(
        "fanin versions not increasing",
        fanin(records=[[(5, 0), (3, 2)], [(4, 3), (6, 1)]]),
        True,
        "do not strictly increase",
    )
    expect(
        "fanin duplicate version",
        fanin(records=[[(3, 2), (5, 0)], [(4, 3), (5, 1)]]),
        True,
        "returned to two appends",
    )
    expect("fanin latest_version", fanin(latest_version=7), True, "latest_version")
    expect("fanin final size", fanin(final_size=5 * chunk), True, "final size")
    expect(
        "fanin chunk content",
        fanin(read_chunk=lambda i: payloads[0] if i == 3 else content[i]),
        True,
        "chunk 3",
    )
    expect(
        "fanin payload swapped between clients",
        fanin(records=[[(3, 3), (5, 0)], [(4, 2), (6, 1)]]),
        True,
        "chunk 2",
    )

    expect("bytes_out right", check_bytes_out(4096, 4096), False)
    expect("bytes_out wrong", check_bytes_out(4095, 4096), True, "bytes_out")

    declared = [{"name": "a", "unit": "ms"}, {"name": "b", "unit": "s"}]
    expect("names right", check_metric_names({"a": {"unit": "ms"}, "b": {"unit": "s"}}, declared, "x"), False)
    expect(
        "name missing",
        check_metric_names({"a": {"unit": "ms"}}, declared, "x"),
        True,
        "declared but not printed",
    )
    expect(
        "name undeclared",
        check_metric_names({"a": {"unit": "ms"}, "b": {"unit": "s"}, "c": {"unit": "s"}}, declared, "x"),
        True,
        "printed but not declared",
    )
    expect(
        "unit differs",
        check_metric_names({"a": {"unit": "s"}, "b": {"unit": "s"}}, declared, "x"),
        True,
        "printed in s but declared in ms",
    )
    expect("workloads right", check_workload_names(["w"], [{"name": "w"}]), False)
    expect(
        "workload undeclared",
        check_workload_names(["w", "v"], [{"name": "w"}]),
        True,
        "implemented but not declared",
    )
    expect(
        "workload missing",
        check_workload_names([], [{"name": "w"}]),
        True,
        "declared but not implemented",
    )


def run_once(workload: str, trace: int) -> dict:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run.main(
            ["--workload", workload, "--seed", "7", "--seconds", "0.3", "--trace", str(trace)]
        )
    if code != 0:
        FAILURES.append(f"{workload} trace={trace}: exit code {code}")
        return {"correct": None}
    return json.loads(stdout.getvalue().strip().splitlines()[-1])


@contextlib.contextmanager
def patched(cls, name, make):
    original = cls.__dict__[name]
    setattr(cls, name, make(original))
    try:
        yield
    finally:
        setattr(cls, name, original)


def corrupt_reads(original):
    def read(self, *args, **kwargs):
        return flip(original(self, *args, **kwargs))

    return read


def constant_version(original):
    def append(self, *args, **kwargs):
        original(self, *args, **kwargs)
        return 1

    return append


def undercount(original):
    def count_bytes(self, written=0, read=0):
        original(self, written, max(0, read - 1))

    return count_bytes


WRONG_ANSWERS = {
    "small-ops": [(LocalBlobStore, "read", corrupt_reads)],
    "append-fanin": [
        (LocalBlobStore, "append", constant_version),
        (LocalBlobStore, "read", corrupt_reads),
    ],
    "gateway-read": [
        (GatewayClient, "read", corrupt_reads),
        (TenantState, "count_bytes", undercount),
    ],
}


def workload_checks() -> None:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect("declared workloads", check_workload_names(list(WORKLOADS), declared["workloads"]), False)
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run_once(workload, trace)
            if result["correct"] is not True:
                FAILURES.append(f"{workload} trace={trace}: a right run is not correct")
                continue
            section = "per_layer" if trace else "end_to_end"
            expect(
                f"{workload} trace={trace} metric names",
                check_metric_names(result["metrics"], declared[section], section),
                False,
            )
        for cls, name, make in WRONG_ANSWERS[workload]:
            with patched(cls, name, make):
                result = run_once(workload, 0)
            if result["correct"] is not False:
                FAILURES.append(f"{workload}: a wrong {cls.__name__}.{name} went unnoticed")


def main() -> int:
    unit_checks()
    workload_checks()
    for failure in FAILURES:
        print(f"FAIL {failure}")
    print("selftest: " + ("ok" if not FAILURES else f"{len(FAILURES)} failures"))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
