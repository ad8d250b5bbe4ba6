"""Bit-identity of the batched memory-subsystem fast paths.

The batched data path (``Cache.load_batch``/``load_misses``,
``MemoryStack.service_scatter``, the allocation table's bisect+memo
lookup, and the patterns' pure-Python ``lane_address_list``) must be
*bit-identical* to the scalar walk it replaced — same stats, same LRU
and open-row state, same float completion times, same addresses. These
property-style tests drive both paths with the same randomized streams
and compare exhaustively; the end-to-end test pins whole-simulation
results to the values the pre-batching seed produced.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.accel import compiled_available, make_engine
from repro.config import baseline_config, ndp_config
from repro.core.policies import BASELINE, IDEAL_NDP, NDP_CTRL_ORACLE
from repro.core.simulator import simulate
from repro.gpu.coalescer import Coalescer
from repro.memory.allocation import MemoryAllocationTable
from repro.memory.cache import Cache
from repro.memory.dram import MemoryStack
from repro.trace.generator import TraceScale, build_trace
from repro.trace.patterns import (
    AccessContext,
    BroadcastPattern,
    ButterflyPattern,
    LinearPattern,
    LocalRandomPattern,
    MixturePattern,
    PhaseShiftPattern,
    RandomPattern,
    StridedPattern,
)
from repro.workloads.base import make_workload

LINE_BYTES = 128


def _random_accesses(rng, n_accesses, span_lines, max_lines=32):
    """Warp-shaped groups of line ids: runs, gathers, and repeats."""
    accesses = []
    for _ in range(n_accesses):
        n = int(rng.integers(1, max_lines + 1))
        kind = rng.random()
        if kind < 0.4:
            first = int(rng.integers(0, span_lines - max_lines))
            lines = list(range(first, first + n))
        else:
            lines = sorted({int(x) for x in rng.integers(0, span_lines, size=n)})
        accesses.append(lines)
    return accesses


# -- cache ------------------------------------------------------------------


def _cache_pair():
    kwargs = dict(size_bytes=16 * 1024, ways=4, line_bytes=LINE_BYTES, name="t")
    return Cache(**kwargs), Cache(**kwargs)


def _assert_same_cache_state(batched: Cache, scalar: Cache) -> None:
    assert vars(batched.stats) == vars(scalar.stats)
    # Same lines in the same LRU order in every set.
    assert [list(s) for s in batched._sets] == [list(s) for s in scalar._sets]
    assert batched._dirty_since_collect == scalar._dirty_since_collect


def test_cache_load_batch_matches_scalar_loads():
    rng = np.random.default_rng(10)
    batched, scalar = _cache_pair()
    for ids in _random_accesses(rng, 400, span_lines=1024):
        flags = batched.load_batch(ids)
        assert flags == [scalar.load(i) for i in ids]
    _assert_same_cache_state(batched, scalar)


def test_cache_store_batch_matches_scalar_stores():
    rng = np.random.default_rng(11)
    batched, scalar = _cache_pair()
    for ids in _random_accesses(rng, 400, span_lines=1024):
        flags = batched.store_batch(ids)
        assert flags == [scalar.store(i) for i in ids]
    _assert_same_cache_state(batched, scalar)


def test_cache_load_misses_matches_load_batch():
    rng = np.random.default_rng(12)
    batched, scalar = _cache_pair()
    for ids in _random_accesses(rng, 400, span_lines=1024):
        lines = [i << 7 for i in ids]
        miss_lines, miss_ids = batched.load_misses(lines, ids)
        flags = scalar.load_batch(ids)
        assert miss_ids == [i for i, hit in zip(ids, flags) if not hit]
        assert miss_lines == [i << 7 for i in miss_ids]
    _assert_same_cache_state(batched, scalar)


def test_cache_mixed_batch_scalar_interleaving():
    """A batch call mid-stream continues exactly where scalars left off."""
    rng = np.random.default_rng(13)
    batched, scalar = _cache_pair()
    for step, ids in enumerate(_random_accesses(rng, 300, span_lines=512)):
        if step % 3 == 0:
            for i in ids:
                batched.load(i)
                scalar.load(i)
        elif step % 3 == 1:
            batched.load_batch(ids)
            for i in ids:
                scalar.load(i)
        else:
            batched.store_batch(ids)
            for i in ids:
                scalar.store(i)
    _assert_same_cache_state(batched, scalar)


# -- DRAM -------------------------------------------------------------------
#
# ``service_scatter`` writes the bandwidth resource's ``_next_free``,
# ``busy_time``, ``units_moved`` and ``transfers`` directly; on the
# compiled engine those are C members, so every DRAM test runs on both
# backends.

BACKENDS = [
    "python",
    pytest.param(
        "compiled",
        marks=pytest.mark.skipif(
            not compiled_available(), reason="compiled engine extension not built"
        ),
    ),
]


def _stack_pair(backend):
    config = ndp_config()
    return tuple(
        MemoryStack(make_engine(backend), 0, config) for _ in range(2)
    )


def _advance(rng, *stacks) -> None:
    """Move every stack's clock forward by the same random gap, so the
    walk sees both a busy server and one that went idle."""
    gap = float(rng.choice([0.0, 1.5, 40.0, 400.0]))
    for stack in stacks:
        engine = stack.vaults[0].resource._engine
        engine.schedule(gap, lambda: None)
        engine.run()


def _assert_same_stack_state(batched: MemoryStack, scalar: MemoryStack) -> None:
    for vault_b, vault_s in zip(batched.vaults, scalar.vaults):
        assert vars(vault_b.stats) == vars(vault_s.stats)
        assert vault_b._open_rows == vault_s._open_rows
        rb, rs = vault_b.resource, vault_s.resource
        assert rb._next_free == rs._next_free
        assert rb.busy_time == rs.busy_time
        assert rb.units_moved == rs.units_moved
        assert rb.transfers == rs.transfers


def _check_scatter_against_scalar(backend, seed, pick_vaults) -> None:
    """``service_scatter`` over each random access equals one
    ``service`` call per line: same latest completion, same state."""
    rng = np.random.default_rng(seed)
    batched, scalar = _stack_pair(backend)
    for ids in _random_accesses(rng, 200, span_lines=1 << 16):
        addresses = [i << 7 for i in ids]
        vaults = pick_vaults(rng, addresses, len(batched.vaults))
        _advance(rng, batched, scalar)
        now = batched.vaults[0].resource._engine.now
        done_batch = batched.service_scatter(vaults, addresses, LINE_BYTES)
        done_scalar = max(
            [now]
            + [scalar.service(v, a, LINE_BYTES) for v, a in zip(vaults, addresses)]
        )
        assert done_batch == done_scalar
    _assert_same_stack_state(batched, scalar)


@pytest.mark.parametrize("backend", BACKENDS)
def test_service_scatter_same_vault_matches_scalar_services(backend):
    def same_vault(rng, addresses, n_vaults):
        return [int(rng.integers(0, n_vaults))] * len(addresses)

    _check_scatter_against_scalar(backend, 20, same_vault)


@pytest.mark.parametrize("backend", BACKENDS)
def test_service_scatter_matches_scalar_services(backend):
    def scattered(rng, addresses, n_vaults):
        return [int(v) for v in rng.integers(0, n_vaults, size=len(addresses))]

    _check_scatter_against_scalar(backend, 21, scattered)


@pytest.mark.parametrize("backend", BACKENDS)
def test_service_scatter_interleave_bits_matches_scalar_services(backend):
    """The ideal-colocation vault spread: ``(line >> line_bits) % n``."""

    def interleaved(rng, addresses, n_vaults):
        return [(a >> 7) % n_vaults for a in addresses]

    _check_scatter_against_scalar(backend, 22, interleaved)


# -- allocation table -------------------------------------------------------


def test_allocation_lookup_matches_linear_scan():
    rng = np.random.default_rng(30)
    table = MemoryAllocationTable()
    ranges = [
        table.allocate(f"a{i}", int(rng.integers(1, 40)) * 4096 + int(rng.integers(1, 4096)))
        for i in range(25)
    ]
    low, high = (1 << 28) - 8192, table._next + 8192
    addresses = rng.integers(low, high, size=20_000).tolist()
    # Sprinkle exact boundaries: starts, ends, one-before/after.
    for entry in ranges:
        addresses += [entry.start, entry.start - 1, entry.end - 1, entry.end]
    for address in addresses:
        expected = next((r for r in ranges if r.contains(address)), None)
        assert table.lookup(address) is expected


# -- patterns and coalescer -------------------------------------------------


def _contexts(seed):
    """Two identically-seeded context streams (independent RNGs)."""
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    lanes = np.arange(32)
    out = []
    for warp in range(6):
        for iteration in range(4):
            pair = []
            for rng in (rng_a, rng_b):
                pair.append(
                    AccessContext(
                        warp_id=warp,
                        instance_index=warp * 4 + iteration,
                        total_instances=24,
                        iteration=iteration,
                        total_iterations=4,
                        lane_ids=lanes,
                        rng=rng,
                    )
                )
            out.append(pair)
    return out


@pytest.mark.parametrize(
    "make_pattern",
    [
        lambda: LinearPattern("a"),
        lambda: LinearPattern("a", offset_elements=3, span_elements=256),
        lambda: StridedPattern("a", stride_elements=17),
        lambda: RandomPattern("a"),
        lambda: LocalRandomPattern("a", window_elements=64),
        lambda: BroadcastPattern("a", record_elements=4),
        lambda: ButterflyPattern("a", n_stages=6),
        lambda: MixturePattern(LinearPattern("a"), RandomPattern("a"), 0.5),
        lambda: PhaseShiftPattern(
            StridedPattern("a", stride_elements=8), RandomPattern("a"), 0.4
        ),
    ],
    ids=[
        "linear",
        "linear-offset",
        "strided",
        "random",
        "local-random",
        "broadcast",
        "butterfly",
        "mixture",
        "phase-shift",
    ],
)
def test_lane_address_list_matches_lane_addresses(make_pattern):
    table = MemoryAllocationTable()
    table.allocate("a", 64 * 1024)
    pattern_array = make_pattern().bind(table)
    pattern_list = make_pattern().bind(table)
    for ctx_array, ctx_list in _contexts(seed=99):
        expected = pattern_array.lane_addresses(ctx_array).tolist()
        assert pattern_list.lane_address_list(ctx_list) == expected


def test_coalescer_accepts_list_and_array_identically():
    rng = np.random.default_rng(40)
    a = Coalescer(LINE_BYTES)
    b = Coalescer(LINE_BYTES)
    for _ in range(100):
        addresses = rng.integers(0, 1 << 20, size=int(rng.integers(1, 33)))
        from_array = a.coalesce(addresses)
        from_list = b.coalesce(addresses.tolist())
        assert from_array == from_list
        assert from_list.line_ids == tuple(
            address >> 7 for address in from_list.line_addresses
        )
    assert (a.warp_accesses, a.total_lines) == (b.warp_accesses, b.total_lines)


# -- end to end -------------------------------------------------------------


#: Whole-simulation goldens captured from the pre-batching seed tree —
#: the batched data path must reproduce them bit-for-bit.
_GOLDEN_CYCLES = {
    ("BFS", "baseline"): 21893.459999999704,
    ("BFS", "ctrl+oracle"): 25487.119999999984,
    ("KM", "ideal+bmap"): 1785.2350801086438,
}


def test_end_to_end_results_match_seed_goldens():
    ncfg = ndp_config()
    bcfg = baseline_config()
    policies = {
        "baseline": (BASELINE, bcfg),
        "ctrl+oracle": (NDP_CTRL_ORACLE, ncfg),
        "ideal+bmap": (IDEAL_NDP, ncfg),
    }
    traces = {}
    for (workload, label), expected in _GOLDEN_CYCLES.items():
        if workload not in traces:
            traces[workload] = build_trace(
                make_workload(workload), ncfg, TraceScale.TINY, 0
            )
        policy, config = policies[label]
        result = simulate(traces[workload], config, policy)
        assert result.cycles == expected, (workload, label)
