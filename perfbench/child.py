"""One workload child: set up, run the workload's passes, check outputs.

Started by ``run.py`` as ``python child.py <task.json>`` with an
environment that holds no ``REPRO_*`` variable but the cache and
campaign directories and the pinned engine it sets. Set-up builds the
compiled engine from the checkout's ``_core.c`` into the child's own
directory (never reusing an earlier build), loads it in place of any
in-tree build and refuses to go on unless the engine resolves to the
backend the workload needs. Results go to the task's ``out`` file as
JSON; a failed set-up exits non-zero with the reason on stderr.

Task keys: ``workload``, ``seed`` (simulation seed), ``mode``
(``setup`` or ``measure``), ``traced``, ``jobs``, ``seconds``,
``checkout``, ``work``, ``out`` and optionally ``spans``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Tuple  # noqa: E402

import points  # noqa: E402


class BenchError(RuntimeError):
    """A set-up step failed; the workload cannot be measured."""


def build_extension(checkout: Path, work: Path) -> Path:
    """Compile ``repro.accel._core`` with the checkout's own ``setup.py``
    into ``work``; returns the directory holding the module."""
    lib, tmp = work / "ext", work / "ext-build"
    proc = subprocess.run(
        [
            sys.executable,
            "setup.py",
            "-q",
            "build_ext",
            "--build-lib",
            str(lib),
            "--build-temp",
            str(tmp),
        ],
        cwd=checkout,
        capture_output=True,
        text=True,
        timeout=170,
    )
    accel_dir = lib / "repro" / "accel"
    if proc.returncode != 0 or not list(accel_dir.glob("_core*.so")):
        raise BenchError(
            "the compiled engine did not build (no C compiler?):\n"
            + (proc.stderr or proc.stdout)[-2000:]
        )
    return accel_dir


def load_engine(engine: str, accel_dir) -> Dict:
    """Point ``repro.accel`` at the fresh build and check the resolved
    backend; returns what the output records about it."""
    import repro.accel as accel

    if accel_dir is not None:
        accel.__path__.insert(0, str(accel_dir))
    backend = accel.resolve_backend_name()
    if backend != engine:
        raise BenchError(f"engine resolved to {backend!r}, workload needs {engine!r}")
    if engine == "compiled":
        module_file = Path(accel._core.__file__).resolve()
        if Path(accel_dir).resolve() not in module_file.parents:
            raise BenchError(f"compiled engine loaded from {module_file}, not this build")
    return {"backend": backend, "build_info": accel.build_info()}


class Checker:
    """Compares every output against the expected digests of a seed."""

    def __init__(self, seed: int) -> None:
        self.expected = points.load_expected(seed)
        self.attempted = 0
        self.failed = 0
        self.mismatches: List[str] = []

    def check(self, key: str, digest) -> None:
        """``digest`` is None for an op that produced no output."""
        self.verify(key, digest is not None and digest == self.expected["digests"].get(key))

    def verify(self, key: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.mismatches) < 20:
                self.mismatches.append(key)


def campaign_pass(spec_dict: Dict, jobs: int, checker: Checker):
    """One cold ``CampaignDriver.run``; returns ((start, end), results,
    report)."""
    from repro.campaign.driver import CampaignDriver
    from repro.campaign.spec import CampaignSpec

    start = time.perf_counter()
    report = CampaignDriver(CampaignSpec.from_dict(spec_dict)).run(jobs=jobs)
    span = (start, time.perf_counter())
    if report.cache_hits or report.resumed:
        raise BenchError("a cold pass found answers in its cache or manifest")
    results = {}
    for point in report.points:
        key = points.point_key(point.scale.name, point.config, point.workload, point.policy)
        result = report.result_for(point)
        checker.check(key, None if result is None else points.digest_result(result))
        if result is not None:
            results[key] = result
    return span, results, report


def paper_errors_of(results: Dict, scale: str, config: str) -> Dict[str, float]:
    pairs = []
    for workload in points.SUITE:
        base = results.get(points.point_key(scale, config, workload, "baseline"))
        tom = results.get(points.point_key(scale, config, workload, "ctrl+tmap"))
        if base is not None and tom is not None:
            pairs.append((base, tom))
    return points.paper_errors(pairs)


def reference_loop(path: Path) -> None:
    """A fixed loop of small-file reads and stats that calls no simulator
    code; the CPU time it takes samples how fast the host is right now.

    On the 2-vCPU VM this benchmark was built on, the host's slow phases
    slowed warm queries and simulations about as much as this loop
    (log-log slopes 0.9-1.1 and 0.7-0.9), but more than a pure-Python
    arithmetic loop (slopes 1.3-1.6 and 1.0-1.3)."""
    for _ in range(1600):
        with open(path, "rb") as handle:
            handle.read()
        os.stat(path)


class HostSpeed:
    """Reference-loop samples taken between the measured ops, for about
    ``SHARE`` of the measured time (at most ``MOST_S`` at once) and at
    least ``MIN_SAMPLES``, so the host's slow and fast phases are sampled
    as often as the ops are. ``run.py`` scales each op by the samples
    taken just before, during and just after it.

    Each vCPU has slow phases of its own: a loop run on the other vCPU
    at the same time tracked an op no better than no scaling at all. So
    ops that run in this process are sampled between ops, on the CPU
    they ran on. Ops that keep a pool of workers busy on every CPU are
    also sampled while they run (:meth:`during`), by a thread that the
    scheduler places on each CPU in turn; a sample is the thread's CPU
    time, so time spent waiting for a CPU does not count."""

    SHARE = 0.1
    MOST_S = 0.2
    MIN_SAMPLES = 5
    PERIOD_S = 0.3

    def __init__(self, work: Path) -> None:
        self.path = work / "reference.bin"
        self.path.write_bytes(bytes(4096))
        self.times: List[float] = []
        self.samples: List[float] = []
        self.owed = 0.0

    def after(self, op_seconds: float) -> None:
        self.owed = min(self.owed + self.SHARE * op_seconds, self.MOST_S)
        while self.owed > 0 or len(self.samples) < self.MIN_SAMPLES:
            self._sample()

    @contextlib.contextmanager
    def during(self):
        """Sample every ``PERIOD_S`` in a background thread."""
        stop = threading.Event()

        def sample_until_stopped() -> None:
            while not stop.wait(self.PERIOD_S):
                self._sample()

        thread = threading.Thread(target=sample_until_stopped, daemon=True)
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()

    def _sample(self) -> None:
        start, cpu = time.perf_counter(), time.thread_time()
        reference_loop(self.path)
        took = time.thread_time() - cpu
        self.times.append((start + time.perf_counter()) / 2)
        self.samples.append(took)
        self.owed -= took


class Workload:
    """The ops of one workload; :meth:`run` measures one pass."""

    def __init__(self, task: Dict, checker: Checker) -> None:
        self.task = task
        self.seed = task["seed"]
        self.jobs = task["jobs"]
        self.checker = checker
        self.prefill: Dict = {}
        self.passes = 0
        self.speed = HostSpeed(Path(task["work"]))

    def setup(self) -> None:
        if self.task["workload"] == "warm-queries":
            _, self.prefill, _ = campaign_pass(
                points.fig8_spec("TINY", self.seed), self.jobs, self.checker
            )

    def run(self, jobs: int) -> Dict:
        """One measured pass: op latencies, results, paper errors. Cold
        passes get empty cache and campaign directories of their own."""
        name = self.task["workload"]
        if name != "warm-queries":
            self.passes += 1
            state = Path(self.task["work"]) / f"pass-{self.passes}"
            os.environ["REPRO_CACHE_DIR"] = str(state / "cache")
            os.environ["REPRO_CAMPAIGN_DIR"] = str(state / "campaigns")
        if name in ("fig8-grid", "sweep-cold"):
            spec = (
                points.fig8_spec("SMALL", self.seed)
                if name == "fig8-grid"
                else points.sweep_spec(self.seed)
            )
            if jobs > 1:
                with self.speed.during():
                    span, results, report = campaign_pass(spec, jobs, self.checker)
            else:
                span, results, report = campaign_pass(spec, jobs, self.checker)
            wall = span[1] - span[0]
            self.speed.after(wall)
            config = "default" if name == "fig8-grid" else points.threshold_config(0.90)
            from layers import supervisor_figures

            return {
                "wall_s": wall,
                "elapsed_s": wall,
                "ops": [span],
                "round_ops": 1,
                "points": len(report.points),
                "results": list(results.values()),
                "paper": paper_errors_of(results, "SMALL", config),
                "supervisor": supervisor_figures(report.outcomes, wall, jobs),
            }
        if name == "single-runs":
            return self._single_runs()
        return self._warm_queries()

    def _single_runs(self) -> Dict:
        from repro.analysis.export import result_from_dict
        from repro.core.experiment import WorkloadRunner
        from repro.core.policies import NDP_CTRL_TMAP
        from repro.trace.generator import TraceScale

        ops, results, pairs = [], [], []
        for workload in points.SUITE:
            op_start = time.perf_counter()
            result = WorkloadRunner(workload, scale=TraceScale.SMALL, seed=self.seed).run(
                NDP_CTRL_TMAP
            )
            ops.append((op_start, time.perf_counter()))
            self.speed.after(ops[-1][1] - op_start)
            key = points.point_key("SMALL", "default", workload, "ctrl+tmap")
            self.checker.check(key, points.digest_result(result))
            results.append(result)
            # This workload runs no baseline: the speedup uses the pinned
            # baseline result, whose digest fig8-grid checks every run.
            base_key = points.point_key("SMALL", "default", workload, "baseline")
            base = result_from_dict(self.checker.expected["baselines"][workload])
            self.checker.check(base_key, points.digest_result(base))
            pairs.append((base, result))
        # The pass is its ten runs, without the checks and samples between them.
        wall = sum(end - start for start, end in ops)
        return {
            "wall_s": wall,
            "elapsed_s": wall,
            "ops": ops,
            "round_ops": len(ops),
            "points": len(points.SUITE),
            "results": results,
            "paper": points.paper_errors(pairs),
        }

    def _warm_queries(self) -> Dict:
        from repro.analysis import figures
        from repro.campaign.driver import CampaignDriver
        from repro.campaign.spec import CampaignSpec
        from repro.trace.generator import TraceScale

        spec_dict = points.fig8_spec("TINY", self.seed)
        total_points = len(self.prefill)

        def figure_query(name: str):
            def query():
                figure = getattr(figures, name)(scale=TraceScale.TINY, seed=self.seed)
                self.checker.check(f"figure/TINY/{name}", points.digest_figure(figure))

            return query

        def status_query():
            status = CampaignDriver(CampaignSpec.from_dict(spec_dict)).status()
            self.checker.verify(
                "status/TINY", status.done and status.cached == status.total == total_points
            )

        # Figures are looked up at call time, so a traced pass calls the
        # wrapped names. Each figure loads the 50 points of the Figure-8
        # suite; a status query only probes, so it counts no points.
        queries = [
            (figure_query("figure8"), 50),
            (figure_query("figure9"), 50),
            (figure_query("figure10"), 50),
            (status_query, 0),
        ]
        ops: List[Tuple[float, float]] = []
        rounds: List[float] = []
        covered = 0
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < self.task["seconds"]:
            round_start = time.perf_counter()
            for index, (query, n_points) in enumerate(queries):
                op_start = time.perf_counter()
                try:
                    query()
                except Exception as error:  # noqa: BLE001 - a failed query is a failed op
                    self.checker.verify(f"query/{index}: {type(error).__name__}: {error}", False)
                ops.append((op_start, time.perf_counter()))
                covered += n_points
            rounds.append(time.perf_counter() - round_start)
            self.speed.after(rounds[-1])
        return {
            "wall_s": statistics.median(rounds),
            "elapsed_s": time.perf_counter() - start,
            "ops": ops,
            "round_ops": len(queries),
            "points": covered,
            "results": list(self.prefill.values()),
            "paper": paper_errors_of(self.prefill, "TINY", "default"),
        }


def traced_run(workload: Workload, spans_path, supervisor) -> Dict:
    """A serial pass with every layer wrapped; ``supervisor`` holds the
    job figures of the matching untraced pass."""
    from layers import LayerProbe

    probe = LayerProbe()
    probe.install()
    try:
        measured = workload.run(1)
    finally:
        probe.uninstall()
    measured["layers"] = probe.metrics(measured["points"], measured["results"], supervisor)
    measured["layers"]["tracing.spans"] = len(probe.recorder)
    measured["engine_backends"] = sorted(probe.engine_backends)
    if spans_path:
        probe.recorder.write_jsonl(spans_path)
    return measured


def measure_passes(workload: Workload, jobs: int, seconds: float) -> List[Dict]:
    """Untraced passes, at least one, until ``seconds`` are used up:
    another pass starts only if it would end less than half a pass
    past them. A ``warm-queries`` pass loops for ``seconds`` itself."""
    passes: List[Dict] = []
    start = time.perf_counter()
    while True:
        passes.append(summarize(workload.run(jobs)))
        typical = statistics.median(p["elapsed_s"] for p in passes)
        if time.perf_counter() - start + typical / 2 > seconds:
            return passes


def summarize(measured: Dict) -> Dict:
    """The JSON-safe part of a pass (results reduced to their digests)."""
    out = {k: v for k, v in measured.items() if k != "results"}
    out["digests"] = sorted(points.digest_result(r) for r in measured["results"])
    return out


def main(task_path: str) -> int:
    with open(task_path) as handle:
        task = json.load(handle)
    checkout, work = Path(task["checkout"]), Path(task["work"])
    engine = points.ENGINE[task["workload"]]
    accel_dir = build_extension(checkout, work) if engine == "compiled" else None
    built = time.perf_counter()
    info = load_engine(engine, accel_dir)
    # Import the public API inside set-up, as a user's first call would.
    import repro.analysis.figures  # noqa: F401
    import repro.campaign.driver  # noqa: F401
    import repro.core.experiment  # noqa: F401

    imported = time.perf_counter()
    checker = Checker(task["seed"])
    workload = Workload(task, checker)
    workload.setup()
    done = time.perf_counter()
    workload.speed.after(done - _T0)
    report = {
        "setup_s": done - _T0,
        "setup_span": (_T0, done),
        "setup_parts_s": {
            "build": built - _T0,
            "import": imported - built,
            "prefill": done - imported,
        },
        "info": dict(info, nproc=os.cpu_count(), jobs=1 if task["traced"] else task["jobs"]),
        "passes": [],
    }
    if task["mode"] == "measure":
        if task["traced"]:
            # ROADMAP: per-process counters die in pool workers, so the
            # traced comparison runs serially: untraced, then traced.
            untraced = workload.run(1)
            traced = traced_run(workload, task.get("spans"), untraced.get("supervisor"))
            report["passes"] = [summarize(untraced), summarize(traced)]
        else:
            report["passes"] = measure_passes(workload, task["jobs"], task["seconds"])
    report.update(
        attempted=checker.attempted,
        failed=checker.failed,
        mismatches=checker.mismatches,
        reference={"times": workload.speed.times, "samples": workload.speed.samples},
    )
    with open(task["out"], "w") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1]))
    except BenchError as error:
        print(f"perfbench child: {error}", file=sys.stderr)
        sys.exit(3)
