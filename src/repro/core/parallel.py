"""Parallel suite execution.

Every paper figure fans out over the workload suite as independent,
deterministic simulations. This module dispatches those simulations as
*jobs* across a :class:`concurrent.futures.ProcessPoolExecutor`.

A job is one ``(workload, scale, seed, configs)`` combination carrying
the policies still to be simulated for it: the worker builds the trace
once and runs every policy against it, exactly like
:class:`repro.core.experiment.WorkloadRunner` does serially (workers
reuse ``WorkloadRunner``, so the two paths share one code path and are
bit-identical by construction — the engine itself is deterministic).

Worker count comes from ``REPRO_JOBS`` (default ``os.cpu_count()``).
``REPRO_JOBS=1`` forces the serial in-process path, which is also the
automatic fallback when process pools are unavailable on the platform.
Jobs whose payloads cannot be pickled (e.g. debug runs with
monkeypatched configs or ad-hoc workload objects) run inline in the
parent — *per job*: one pickling-hostile job no longer demotes the
whole batch to serial.

Execution itself is delegated to the supervised engine in
:mod:`repro.core.supervisor` (per-job timeouts, retries, crash
recovery, structured failures), which runs :func:`execute_job` for each
job.

Job payloads and results are plain frozen dataclasses (configs,
policies, :class:`SimulationResult`), so pickling is cheap; traces are
never shipped between processes — each worker rebuilds its own from the
``(workload, scale, seed)`` triple.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..config import SystemConfig, env_text
from ..errors import ConfigError
from ..trace.generator import TraceScale
from .policies import RunPolicy
from .results import SimulationResult


@dataclass(frozen=True)
class SuiteJob:
    """One workload's pending simulations: the trace is built once in
    the worker and shared across every policy of the job."""

    workload: str
    policies: Tuple[RunPolicy, ...]
    scale: TraceScale
    seed: int
    ndp_configuration: Optional[SystemConfig] = None
    baseline_configuration: Optional[SystemConfig] = None


def default_jobs() -> int:
    """Worker count: ``REPRO_JOBS`` env var, else ``os.cpu_count()``."""
    raw = env_text("REPRO_JOBS").strip()
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            raise ConfigError(
                f"REPRO_JOBS must be an integer, got {raw!r}"
            ) from None
    return os.cpu_count() or 1


def execute_job(job: SuiteJob) -> Dict[str, SimulationResult]:
    """Run one job (in a worker or inline): build the workload's trace
    once, simulate every requested policy against it. Results land in
    the persistent cache from inside the worker, so even a crashed
    parent keeps completed work.

    Jobs carrying two or more policies go through the lockstep grid
    engine (``WorkloadRunner.run_grid`` — bit-identical to sequential
    runs); single-policy jobs run the scalar engine directly."""
    from .experiment import WorkloadRunner  # deferred: experiment imports us

    runner = WorkloadRunner(
        job.workload,
        scale=job.scale,
        seed=job.seed,
        ndp_configuration=job.ndp_configuration,
        baseline_configuration=job.baseline_configuration,
    )
    if len(job.policies) >= 2:
        return runner.run_grid(job.policies)
    return {policy.label: runner.run(policy) for policy in job.policies}
