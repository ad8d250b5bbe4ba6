"""Memory-subsystem fast-path throughput (lines/second).

Not one of the paper's figures: this is the tracked perf baseline for
the batched data path — allocation-table lookups, cache batch
accounting, and vault batch booking are the three per-line costs every
simulated access pays, so run this before and after touching
``repro.memory`` and compare lines/sec per component.

The synthetic streams mirror what the simulator actually issues: warp
accesses of up to 32 coalesced lines, line addresses spread across
allocations/sets/vaults the way vault interleaving and the bump
allocator spread them, with a fixed RNG seed so runs are comparable.

Standalone usage (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_memory_subsystem.py

``--json PATH`` additionally emits the machine-readable baseline
(median-of-k wall times per component; see ``benchmarks/_baseline.py``)
that ``tools/bench_compare.py`` diffs against the checked-in
``benchmarks/BENCH_memory.json``.
"""

from __future__ import annotations

import argparse
import time
from typing import Dict, List, Tuple

import numpy as np

from repro.config import ndp_config
from repro.memory.allocation import MemoryAllocationTable
from repro.memory.cache import Cache
from repro.memory.dram import MemoryStack
from repro.utils.simcore import Engine

N_ACCESSES = 5_000
LINE_BYTES = 128
REPEATS = 3


def _access_stream(rng: np.random.Generator, span_lines: int) -> List[List[int]]:
    """Warp-shaped groups of line addresses: mostly short runs of
    consecutive lines (coalesced loads) with a random-gather tail."""
    accesses: List[List[int]] = []
    for _ in range(N_ACCESSES):
        n_lines = int(rng.integers(1, 33))
        if rng.random() < 0.5:
            first = int(rng.integers(0, span_lines - 32))
            lines = [(first + i) * LINE_BYTES for i in range(n_lines)]
        else:
            picks = rng.integers(0, span_lines, size=n_lines)
            lines = sorted({int(p) * LINE_BYTES for p in picks})
        accesses.append(lines)
    return accesses


def bench_allocation_lookup() -> Tuple[List[float], int]:
    """Wall times for 50k lookups against a paper-sized table."""
    table = MemoryAllocationTable()
    for i in range(40):
        table.allocate(f"array{i}", (i % 7 + 1) * 64 * 1024)
    rng = np.random.default_rng(0)
    span = table._next - (1 << 28)
    addresses = ((1 << 28) + rng.integers(0, span, size=50_000)).tolist()
    samples: List[float] = []
    for _ in range(REPEATS):
        table._page_memo.clear()
        start = time.perf_counter()
        for address in addresses:
            table.lookup(address)
        samples.append(time.perf_counter() - start)
    return samples, len(addresses)


def bench_cache_batch() -> Tuple[List[float], int]:
    """Lines/sec through ``load_misses`` + ``store_batch`` on an
    L1-sized cache, the two calls the simulator's access paths make."""
    rng = np.random.default_rng(1)
    accesses = _access_stream(rng, span_lines=16_384)
    line_ids = [[line >> 7 for line in lines] for lines in accesses]
    total_lines = sum(len(lines) for lines in accesses)
    samples: List[float] = []
    for _ in range(REPEATS):
        cache = Cache(size_bytes=32 * 1024, ways=4, line_bytes=LINE_BYTES, name="l1")
        start = time.perf_counter()
        for i, lines in enumerate(accesses):
            ids = line_ids[i]
            if i % 4 == 0:
                cache.store_batch(ids)
            else:
                cache.load_misses(lines, ids)
        samples.append(time.perf_counter() - start)
    return samples, total_lines


def bench_vault_batch() -> Tuple[List[float], int]:
    """Lines/sec booked through the stack's multi-line entry point,
    ``service_scatter``, in two shapes: vaults picked by the line's
    interleave bits (the ideal-colocation path) and, every eighth
    access, a whole group on one vault."""
    config = ndp_config()
    rng = np.random.default_rng(2)
    accesses = _access_stream(rng, span_lines=1 << 20)
    total_lines = sum(len(lines) for lines in accesses)
    line_bits = 7
    n_vaults = config.stacks.vaults_per_stack
    vaults = [
        [0] * len(lines)
        if i % 8 == 0
        else [(line >> line_bits) % n_vaults for line in lines]
        for i, lines in enumerate(accesses)
    ]
    samples: List[float] = []
    for _ in range(REPEATS):
        stack = MemoryStack(Engine(), 0, config)
        start = time.perf_counter()
        for lines, group_vaults in zip(accesses, vaults):
            stack.service_scatter(group_vaults, lines, LINE_BYTES)
        samples.append(time.perf_counter() - start)
    return samples, total_lines


def _report(json_path: str = "") -> Dict[str, float]:
    results: Dict[str, float] = {}
    metrics: Dict[str, Dict] = {}
    for label, fn in (
        ("allocation lookup", bench_allocation_lookup),
        ("cache batch", bench_cache_batch),
        ("vault batch", bench_vault_batch),
    ):
        samples, units = fn()
        rate = units / min(samples)
        results[label] = rate
        print(f"{label:>18}: {rate:,.0f} lines/sec ({units} lines, best of {REPEATS})")
        metrics[label.replace(" ", "_") + "_wall"] = {"samples": samples}
    if json_path:
        from _baseline import emit, metric

        emit(
            json_path,
            "memory_subsystem",
            {name: metric(entry["samples"]) for name, entry in metrics.items()},
            n_accesses=N_ACCESSES,
            repeats=REPEATS,
        )
    return results


def test_memory_subsystem_throughput(benchmark):
    results = benchmark.pedantic(_report, rounds=1, iterations=1)
    # Sanity floors only — the numbers to watch are the printed rates.
    assert all(rate > 10_000 for rate in results.values())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="emit the machine-readable baseline document",
    )
    args = parser.parse_args()
    _report(json_path=args.json or "")


if __name__ == "__main__":
    main()
