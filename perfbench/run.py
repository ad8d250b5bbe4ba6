"""Repository benchmark: cold Figure-8 grid, cold single runs and warm
figure queries, with per-layer attribution.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload fig8-grid --seed 0 --seconds 25 --trace 0

This process only drives: each set-up runs in a child (``child.py``),
and the last child also makes the measured passes, as many as fit in
``--seconds``. Each child has a scrubbed environment, its own empty
result cache and campaign directories under ``.perfbench/`` and a
pinned engine backend. ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` re-runs the workload serially, once
untraced and once with every layer wrapped, and reports the per-layer
metrics. Human-readable lines come first; the last line of standard
output is the JSON result. Outputs are checked against the digests in
``expected/``; see README.md in this directory for the workloads, the
metrics and what each layer should move.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import points  # noqa: E402

#: An untraced run sets up at least SETUPS times (the measuring child
#: last), and more until the set-ups took SETUP_BUDGET_S; setup_s is
#: their median.
SETUPS = 3
SETUP_BUDGET_S = 4.0
#: Host times are reported at a fixed host speed: each op's time is
#: multiplied by REFERENCE_S over the median of the reference-loop
#: samples its child took around it: up to NEAREST just before, all
#: during and up to NEAREST just after (child.HostSpeed). REFERENCE_S
#: is that loop's median on the 2-vCPU Xeon VM the bounds were set on,
#: in a quiet phase.
REFERENCE_S = 0.015
NEAREST = 5
#: A run must end within this many seconds of its start.
RUN_BUDGET_S = 170.0
#: Checkout files the benchmark reads, builds and runs.
REQUIRED = ("BENCHMARK.json", "setup.py", "src/repro/__init__.py", "src/repro/accel/_core.c")


class RunFailed(RuntimeError):
    """A child failed or overran; the run prints no result."""


def child_env(checkout: Path, state: Path, engine: str) -> Dict[str, str]:
    """The parent's environment minus every ``REPRO_*`` knob (faults,
    kill switches, job counts, scale overrides), plus the child's own
    cache and campaign directories and the pinned engine."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        REPRO_CACHE_DIR=str(state / "cache"),
        REPRO_CAMPAIGN_DIR=str(state / "campaigns"),
        REPRO_ENGINE=engine,
        PYTHONPATH=str(checkout / "src"),
        PYTHONHASHSEED="0",
    )
    return env


class BenchRun:
    """Runs one workload's children and folds their reports."""

    def __init__(self, args, checkout: Path, work: Path) -> None:
        self.args = args
        self.checkout = checkout
        self.work = work
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.jobs = min(2, len(os.sched_getaffinity(0)))
        self.children = 0
        # The metric names and units are read from BENCHMARK.json.
        self.spec = json.loads((checkout / "BENCHMARK.json").read_text())

    def child(self, mode: str, traced: bool = False, spans=None) -> Dict:
        """Run one child to completion; returns its report."""
        self.children += 1
        state = self.work / f"child-{self.children}"
        state.mkdir(parents=True)
        task = {
            "workload": self.args.workload,
            "seed": points.sim_seed(self.args.seed),
            "mode": mode,
            "traced": traced,
            "jobs": self.jobs,
            "seconds": float(self.args.seconds),
            "checkout": str(self.checkout),
            "work": str(state),
            "out": str(state / "report.json"),
            "spans": str(spans) if spans else None,
        }
        task_path = state / "task.json"
        task_path.write_text(json.dumps(task))
        engine = points.ENGINE[self.args.workload]
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(task_path)],
            cwd=self.checkout,
            env=child_env(self.checkout, state, engine),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            _, stderr = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            _kill_group(proc.pid)
            proc.communicate()
            raise RunFailed(f"{mode} child ran past the {RUN_BUDGET_S:.0f} s budget")
        finally:
            # Also stops the child's group when this process is told to stop.
            _kill_group(proc.pid)
            proc.wait()
        if proc.returncode != 0:
            raise RunFailed(f"{mode} child exited {proc.returncode}:\n{stderr[-3000:]}")
        return json.loads(Path(task["out"]).read_text())

    def untraced(self) -> Dict:
        reports = []
        while len(reports) < SETUPS - 1 or (
            sum(r["setup_s"] for r in reports) < SETUP_BUDGET_S and len(reports) < 15
        ):
            reports.append(self.child("setup"))
        reports.append(self.child("measure"))
        passes = reports[-1]["passes"]
        clock = HostClock(reports[-1]["reference"])
        latencies, rounds = [], []
        for p in passes:
            times = [clock.scaled(*op) for op in p["ops"]]
            latencies += times
            step = p["round_ops"]
            rounds += [sum(times[i : i + step]) for i in range(0, len(times), step)]
        paper = [p["paper"] for p in passes]
        consistent = all(p == paper[0] for p in paper)
        setups = [HostClock(r["reference"]).scaled(*r["setup_span"]) for r in reports]
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(rounds),
            "query_p50_ms": 1e3 * statistics.median(latencies),
            "query_p95_ms": 1e3 * nearest_rank(latencies, 0.95),
            "queries_per_s": len(latencies) / sum(latencies),
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics.update(paper[0])
        notes = {
            "queries": len(latencies),
            "passes": len(passes),
            "setups": len(reports),
            "host_scale": sum(latencies) / sum(b - a for p in passes for a, b in p["ops"]),
            "unscaled_setup_s": [r["setup_s"] for r in reports],
            "unscaled_pass_walls_s": [p["wall_s"] for p in passes],
            "job_busy_s": [p["supervisor"]["job_busy_s"] for p in passes if "supervisor" in p],
        }
        return self._result(reports, metrics, "end_to_end", consistent, notes)

    def traced(self) -> Dict:
        spans = self.checkout / ".perfbench" / f"spans-{self.args.workload}.jsonl"
        report = self.child("measure", traced=True, spans=spans)
        untraced, traced = report["passes"]
        metrics = dict(traced["layers"])
        metrics["tracing.overhead_frac"] = traced["wall_s"] / untraced["wall_s"] - 1.0
        expected_backend = points.ENGINE[self.args.workload]
        consistent = untraced["digests"] == traced["digests"] and set(
            traced["engine_backends"]
        ) <= {expected_backend}
        notes = {
            "untraced_wall_s": untraced["wall_s"],
            "traced_wall_s": traced["wall_s"],
            "engine_backends": traced["engine_backends"],
            "spans_file": str(spans.relative_to(self.checkout)),
        }
        return self._result([report], metrics, "per_layer", consistent, notes)

    def _result(self, reports, metrics, kind: str, consistent: bool, notes) -> Dict:
        attempted = sum(r["attempted"] for r in reports)
        failed = sum(r["failed"] for r in reports)
        info = reports[-1]["info"]
        print(
            f"workload {self.args.workload}  seed {self.args.seed} "
            f"(simulation seed {points.sim_seed(self.args.seed)})  "
            f"backend {info['backend']}  build_info {json.dumps(info['build_info'])}  "
            f"nproc {info['nproc']}  jobs {info['jobs']}"
        )
        for key, value in notes.items():
            print(f"  {key}: {value}")
        print(f"  failed_frac: {failed / max(attempted, 1)} of {attempted} attempted ops")
        for report in reports:
            for key in report["mismatches"]:
                print(f"  MISMATCH {key}")
        if not consistent:
            print("  INCONSISTENT: passes disagree on results or engine backend")
        out = {}
        for metric in self.spec[kind]:
            name, unit = metric["name"], metric["unit"]
            if name not in metrics:
                raise RunFailed(f"BENCHMARK.json names {name!r}, which this run does not measure")
            print(f"  {name} = {metrics[name]} {unit}")
            out[name] = {"value": metrics[name], "unit": unit}
        return {
            "correct": failed == 0 and consistent,
            "attempted": attempted,
            "failed": failed,
            "metrics": out,
        }


class HostClock:
    """Brings a child's host times to the REFERENCE_S speed, using the
    reference samples taken just before, during and just after each op."""

    def __init__(self, reference: Dict) -> None:
        self.times = reference["times"]
        self.samples = reference["samples"]

    def scaled(self, start: float, end: float) -> float:
        first = max(0, bisect.bisect(self.times, start) - NEAREST)
        last = bisect.bisect(self.times, end) + NEAREST
        around = statistics.median(self.samples[first:last])
        return (end - start) * REFERENCE_S / around


def nearest_rank(values: List[float], quantile: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(quantile * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it reaped
    (Linux folds reaped grandchildren such as pool workers into it)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _kill_group(pgid: int) -> None:
    """Kill a child's process group (the child and its pool workers)."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=points.WORKLOADS + points.BY_HAND
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _stop(signum, frame) -> None:
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _stop)
    checkout = Path.cwd()
    missing = [name for name in REQUIRED if not (checkout / name).is_file()]
    if missing:
        print(
            f"perfbench: not a source checkout (missing {', '.join(missing)}); "
            "run from the repository root",
            file=sys.stderr,
        )
        return 2
    work = checkout / ".perfbench" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = BenchRun(args, checkout, work)
        result = bench.traced() if args.trace else bench.untraced()
    except RunFailed as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
