"""Per-layer metrics of one traced pass.

:class:`LayerProbe` installs a :class:`~spans.SpanRecorder` with the
count hooks the layers need (trace builds and lines, grid lane counts,
engine events, cache hits), and :meth:`LayerProbe.metrics` folds spans
and counts into the ``<layer>.<metric>`` values that ``BENCHMARK.json``
lists as ``per_layer``. Layers a workload never enters report 0.
"""

from __future__ import annotations

import inspect
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from spans import SpanRecorder


def _safe_div(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class LayerProbe:
    """Spans plus the counts read off the public objects the wrapped
    calls return."""

    def __init__(self) -> None:
        self.recorder = SpanRecorder()
        self.builds = 0
        self.lines = 0
        self.traces: Set[Tuple] = set()
        self.lanes = 0
        self.simulated = 0
        self.deduplicated = 0
        self.evicted = 0
        self.events = 0
        self.warp_instructions = 0
        self.engine_backends: Set[str] = set()
        self.cache_hits = 0

    # -- hooks (run after the wrapped call, outside its span) ---------------

    def install(self) -> None:
        from repro.core import gridrun
        from repro.trace import generator

        build_signature = inspect.signature(generator.build_trace)

        def on_build(args, kwargs, trace) -> None:
            bound = build_signature.bind(*args, **kwargs)
            self.builds += 1
            self.traces.add(
                (
                    trace.workload_name,
                    bound.arguments["scale"],
                    bound.arguments.get("seed", 0),
                    gridrun.trace_fingerprint(bound.arguments["config"]),
                )
            )
            self.lines += sum(
                len(access.line_addresses)
                for task in trace.tasks
                for segment in task.segments
                for access in segment.accesses
            )

        def on_grid(args, kwargs, report) -> None:
            self.lanes += len(report.results)
            self.simulated += report.simulated
            self.deduplicated += report.deduplicated
            self.evicted += len(report.evicted)

        def on_simulate(args, kwargs, result) -> None:
            engine = args[0].system.engine
            self.events += engine.events_processed
            self.engine_backends.add(engine.backend)
            self.warp_instructions += result.warp_instructions

        def on_load(args, kwargs, result) -> None:
            if result is not None:
                self.cache_hits += 1

        self.recorder.install(
            {
                "trace.build": on_build,
                "gridrun.run": on_grid,
                "simulator.run": on_simulate,
                "result_cache.load": on_load,
            }
        )

    def uninstall(self) -> None:
        self.recorder.uninstall()

    # -- folding -------------------------------------------------------------

    def metrics(
        self,
        points: int,
        results: List,
        outcomes: Optional[Dict[str, float]] = None,
    ) -> Dict[str, float]:
        """Every per-layer value but the ``tracing.*`` pair.

        ``points`` is the number of points the pass answered (the
        denominator of the per-point cache ratios), ``results`` the
        simulated results it checked and ``outcomes`` the supervisor
        figures of the matching untraced pass."""
        span = self._fold()

        def total(name: str) -> float:
            return span.get(name, (0, 0.0, 0.0))[1]

        def own(name: str) -> float:
            return span.get(name, (0, 0.0, 0.0))[2]

        def calls(name: str) -> int:
            return span.get(name, (0, 0.0, 0.0))[0]

        run_s = total("simulator.run")
        loads = calls("result_cache.load")
        stores = calls("result_cache.store")
        considered = sum(r.offload.candidates_considered for r in results)
        offloaded = sum(r.offload.candidates_offloaded for r in results)
        n = len(results)
        out = {
            "trace.build_s": total("trace.build"),
            "trace.builds": self.builds,
            "trace.builds_per_trace": _safe_div(self.builds, len(self.traces)),
            "trace.lines": self.lines,
            "compiler.select_s": total("compiler.select"),
            "compiler.calls": calls("compiler.select"),
            "mapping.learn_s": total("mapping.learn"),
            "mapping.calls": calls("mapping.learn"),
            "gridrun.pack_s": total("gridrun.pack"),
            "gridrun.plan_s": total("gridrun.plan"),
            "gridrun.lanes": self.lanes,
            "gridrun.simulated": self.simulated,
            "gridrun.deduplicated": self.deduplicated,
            "gridrun.evicted": self.evicted,
            "gridrun.dedup_ratio": _safe_div(self.lanes, self.simulated),
            "simulator.run_s": run_s,
            "simulator.self_s": own("simulator.run"),
            "simulator.runs": calls("simulator.run"),
            "simulator.winst_per_s": _safe_div(self.warp_instructions, run_s),
            "engine.events": self.events,
            "engine.events_per_s": _safe_div(self.events, run_s),
            "memory.cache_s": own("memory.cache"),
            "memory.cache_calls": calls("memory.cache"),
            "memory.dram_s": own("memory.dram"),
            "memory.dram_calls": calls("memory.dram"),
            "memory.mapping_s": own("memory.mapping"),
            "memory.alloc_s": own("memory.alloc"),
            "memory.l1_miss_rate": _safe_div(sum(r.l1_load_miss_rate for r in results), n),
            "memory.l2_miss_rate": _safe_div(sum(r.l2_load_miss_rate for r in results), n),
            "memory.dram_row_hit_rate": _safe_div(sum(r.dram_row_hit_rate for r in results), n),
            "result_cache.key_s": total("result_cache.key"),
            "result_cache.load_s": total("result_cache.load"),
            "result_cache.loads": loads,
            "result_cache.hit_ratio": _safe_div(self.cache_hits, loads),
            "result_cache.probe_s": total("result_cache.probe"),
            "result_cache.store_s": total("result_cache.store"),
            "result_cache.stores": stores,
            "result_cache.loads_per_point": _safe_div(loads, points),
            "result_cache.stores_per_point": _safe_div(stores, points),
            "manifest.record_s": total("manifest.record"),
            "manifest.records": calls("manifest.record"),
            "supervisor.self_s": own("supervisor.run"),
            "campaign.expand_s": total("campaign.expand"),
            "campaign.status_s": total("campaign.status"),
            "campaign.run_overhead_s": own("campaign.run"),
            "analysis.figure_s": own("analysis.figure"),
            "sim.cycles": sum(r.cycles for r in results),
            "ndp.offload_rate": _safe_div(offloaded, considered),
            "interconnect.offchip_bytes": sum(r.traffic.off_chip_total for r in results),
        }
        supervisor = outcomes or {}
        for key in ("jobs", "attempts", "job_busy_s", "parallel_eff"):
            out[f"supervisor.{key}"] = supervisor.get(key, 0)
        return out

    def _fold(self) -> Dict[str, Tuple[int, float, float]]:
        """Per span name: (calls, inclusive time of the spans not nested
        in a span of the same name, self time)."""
        rec = self.recorder
        if not len(rec):
            return {}
        names = np.frombuffer(rec.name_of, dtype=np.int32)
        parents = np.frombuffer(rec.parent, dtype=np.int32)
        durations = np.frombuffer(rec.end, dtype=np.float64) - np.frombuffer(
            rec.start, dtype=np.float64
        )
        nested = parents >= 0
        child_time = np.zeros(len(names))
        np.add.at(child_time, parents[nested], durations[nested])
        parent_name = np.full(len(names), -1, dtype=np.int32)
        parent_name[nested] = names[parents[nested]]
        outermost = parent_name != names
        folded = {}
        for name_id, name in enumerate(rec.names):
            mine = names == name_id
            folded[name] = (
                int(mine.sum()),
                float(durations[mine & outermost].sum()),
                float((durations[mine] - child_time[mine]).sum()),
            )
        return folded


def supervisor_figures(outcomes, wall_s: float, workers: int) -> Dict[str, float]:
    """Job counts and pool efficiency from a pass's ``JobOutcome`` list:
    ``parallel_eff`` is the summed job time over ``wall x workers``."""
    busy = sum(outcome.elapsed for outcome in outcomes)
    return {
        "jobs": len(outcomes),
        "attempts": sum(outcome.attempts for outcome in outcomes),
        "job_busy_s": busy,
        "parallel_eff": _safe_div(busy, wall_s * workers),
    }
