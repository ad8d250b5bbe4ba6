"""Host-time span recorder that wraps the simulator's public functions.

Tracing lives entirely in the benchmark: :class:`SpanRecorder` replaces
a function or method with a timing wrapper, records one span per call
(name, start, end, parent) into flat in-memory arrays, and puts every
original back in :meth:`SpanRecorder.uninstall`. Where a function is
imported by name into another module, the wrapper is installed on that
name in the importing module too, so every call site is covered.

:data:`LAYER_TARGETS` names what is wrapped for each layer; the span
names are ``<layer>.<what>``; ``layers.py`` folds the spans into
per-layer metrics.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

#: (span name, module, attribute path) for each wrapped callable. An
#: attribute path ``Class.method`` wraps the method on that class;
#: ``Class.*`` wraps every public method the class itself defines.
LAYER_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    # trace layer: generator (incl. patterns and the coalescer it drives)
    ("trace.build", "repro.trace.generator", "build_trace"),
    ("trace.build", "repro.core.experiment", "build_trace"),
    ("trace.build", "repro.analysis.figures", "build_trace"),
    ("compiler.select", "repro.trace.generator", "select_candidates"),
    ("mapping.learn", "repro.mapping.transparent", "learn_offline"),
    ("mapping.learn", "repro.core.simulator", "learn_offline"),
    ("mapping.learn", "repro.core.gridrun", "learn_offline"),
    ("gridrun.run", "repro.core.gridrun", "run_grid"),
    ("gridrun.pack", "repro.core.gridrun", "TracePack.__init__"),
    ("gridrun.plan", "repro.core.gridrun", "TracePack.routing_for"),
    ("simulator.run", "repro.core.simulator", "Simulator.run"),
    ("memory.cache", "repro.memory.cache", "Cache.*"),
    ("memory.dram", "repro.memory.dram", "Vault.*"),
    ("memory.dram", "repro.memory.dram", "MemoryStack.*"),
    ("memory.mapping", "repro.memory.address_mapping", "BaselineMapping.*"),
    ("memory.mapping", "repro.memory.address_mapping", "ConsecutiveBitMapping.*"),
    ("memory.mapping", "repro.memory.address_mapping", "HybridMapping.*"),
    ("memory.alloc", "repro.memory.allocation", "MemoryAllocationTable.*"),
    ("result_cache.key", "repro.core.result_cache", "cache_key"),
    ("result_cache.load", "repro.core.result_cache", "load"),
    ("result_cache.probe", "repro.core.result_cache", "probe"),
    ("result_cache.store", "repro.core.result_cache", "store"),
    ("manifest.record", "repro.core.manifest", "RunManifest.record"),
    ("supervisor.run", "repro.campaign.driver", "run_supervised"),
    ("supervisor.run", "repro.core.experiment", "run_supervised"),
    ("campaign.expand", "repro.campaign.spec", "CampaignSpec.expand"),
    ("campaign.status", "repro.campaign.driver", "CampaignDriver.status"),
    ("campaign.run", "repro.campaign.driver", "CampaignDriver.run"),
    ("runner.run", "repro.core.experiment", "WorkloadRunner.run"),
    ("analysis.figure", "repro.analysis.figures", "figure8"),
    ("analysis.figure", "repro.analysis.figures", "figure9"),
    ("analysis.figure", "repro.analysis.figures", "figure10"),
)

#: Called after a wrapped call returns, outside its span:
#: ``hook(args, kwargs, result)``.
Hook = Callable[[tuple, dict, object], None]


class SpanRecorder:
    """Records spans of wrapped calls; one recorder per traced pass."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.name_of)

    # -- installation -------------------------------------------------------

    def install(self, hooks: Optional[Dict[str, Hook]] = None) -> None:
        """Wrap every :data:`LAYER_TARGETS` entry; ``hooks`` maps a span
        name to a callback run after each of its calls."""
        hooks = hooks or {}
        for name, module_name, path in LAYER_TARGETS:
            owner = importlib.import_module(module_name)
            if "." not in path:
                self._wrap(owner, path, name, hooks.get(name))
                continue
            class_name, attr = path.split(".", 1)
            cls = getattr(owner, class_name)
            if attr != "*":
                self._wrap(cls, attr, name, hooks.get(name))
                continue
            for method, value in sorted(vars(cls).items()):
                if not method.startswith("_") and inspect.isfunction(value):
                    self._wrap(cls, method, name, hooks.get(name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, owner, attr: str, name: str, hook: Optional[Hook]) -> None:
        original = owner.__dict__[attr] if inspect.isclass(owner) else getattr(owner, attr)
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(name)
        name_of, starts, ends, parents = self.name_of, self.start, self.end, self.parent
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(name_of)
            name_of.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attr)
        wrapper.__qualname__ = getattr(original, "__qualname__", attr)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    # -- output -------------------------------------------------------------

    def write_jsonl(self, path) -> None:
        """One line per span: name, start, end, parent index. The
        per-access ``memory.*`` spans (millions per cold grid) are left
        out of the file; their counts and times are in the per-layer
        metrics."""
        names = self.names
        with open(path, "w") as handle:
            for i in range(len(self.name_of)):
                if names[self.name_of[i]].startswith("memory."):
                    continue
                handle.write(
                    json.dumps(
                        [names[self.name_of[i]], self.start[i], self.end[i], self.parent[i]]
                    )
                )
                handle.write("\n")
