"""Output checks, kept apart from the workloads so each can be fed a wrong answer.

Every check returns a list of error strings; an empty list is a pass.
The expected values come from the generator's own model of the bytes
(never from an earlier run of the store) and from version-order
properties the store must have.
"""

from __future__ import annotations

from typing import Callable, Sequence


class BlobModel:
    """The generator's model of a blob: one immutable buffer per block."""

    def __init__(self, blocks: Sequence, block_size: int):
        self.blocks = [memoryview(b) for b in blocks]
        self.block_size = block_size
        self.size = sum(len(b) for b in self.blocks)

    def append(self, block) -> None:
        self.blocks.append(memoryview(block))
        self.size += len(block)

    def expected(self, offset: int, size: int) -> bytes:
        out = bytearray()
        first, last = offset // self.block_size, (offset + size - 1) // self.block_size
        for index in range(first, last + 1):
            base = index * self.block_size
            lo = max(offset, base) - base
            hi = min(offset + size, base + self.block_size) - base
            out += self.blocks[index][lo:hi]
        return bytes(out)


def check_bytes(what: str, got, expected) -> list[str]:
    """A read must return exactly the modelled bytes."""
    if len(got) != len(expected):
        return [f"{what}: {len(got)} bytes returned, {len(expected)} expected"]
    if got != expected:
        at = next(i for i, (a, b) in enumerate(zip(got, expected)) if a != b)
        return [f"{what}: first wrong byte at +{at}"]
    return []


def check_fanin(
    preloaded: dict[int, int],
    records: Sequence[Sequence[tuple[int, int]]],
    chunk_size: int,
    final_size: int,
    latest_version: int,
    read_chunk: Callable[[int], bytes],
    payload_of: Callable[[int], memoryview],
    sample: Sequence[int],
) -> list[str]:
    """Version-order and content checks after concurrent appends.

    *preloaded* maps version -> payload key of the set-up appends;
    *records* holds, per client, the (version, payload key) of each of
    its appends in the order it made them.  Every append is one chunk,
    so version *v* of a blob created empty holds chunk ``v - 1``.
    *sample* lists the chunk indices whose bytes are read back.
    """
    errors: list[str] = []
    for client, recs in enumerate(records):
        versions = [v for v, _ in recs]
        if any(b <= a for a, b in zip(versions, versions[1:])):
            errors.append(f"client {client}: returned versions do not strictly increase")
    owner: dict[int, int] = dict(preloaded)
    for recs in records:
        for version, key in recs:
            if version in owner:
                errors.append(f"version {version} returned to two appends")
            owner[version] = key
    total = len(preloaded) + sum(len(r) for r in records)
    if latest_version != total:
        errors.append(f"latest_version {latest_version}, expected {total}")
    if final_size != total * chunk_size:
        errors.append(f"final size {final_size}, expected {total * chunk_size}")
    if sorted(owner) != list(range(1, total + 1)):
        errors.append("the versions returned are not exactly 1..N")
    for chunk in sample:
        key = owner.get(chunk + 1)
        if key is None:
            continue  # already reported as a missing version
        errors += check_bytes(f"chunk {chunk}", read_chunk(chunk), payload_of(key))
    return errors


def check_bytes_out(reported: int, read: int) -> list[str]:
    """The gateway must account exactly the bytes its tenant read."""
    if reported != read:
        return [f"tenant bytes_out {reported}, but {read} bytes were read"]
    return []


def check_metric_names(
    printed: dict[str, dict], declared: Sequence[dict], section: str
) -> list[str]:
    """Printed metrics and ``BENCHMARK.json`` must name the same set, with the same units."""
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in printed.items()}
    errors = [f"{section} metric {n} is declared but not printed" for n in sorted(set(want) - set(got))]
    errors += [f"{section} metric {n} is printed but not declared" for n in sorted(set(got) - set(want))]
    errors += [
        f"{section} metric {n} is printed in {got[n]} but declared in {want[n]}"
        for n in sorted(set(want) & set(got))
        if got[n] != want[n]
    ]
    return errors


def check_workload_names(implemented: Sequence[str], declared: Sequence[dict]) -> list[str]:
    """Every declared workload is implemented, and every implemented one declared."""
    want = {w["name"] for w in declared}
    got = set(implemented)
    return [f"workload {n} is declared but not implemented" for n in sorted(want - got)] + [
        f"workload {n} is implemented but not declared" for n in sorted(got - want)
    ]
