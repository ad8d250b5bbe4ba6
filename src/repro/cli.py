"""Command-line interface: ``repro-tom``.

Subcommands::

    repro-tom run LIB --policy ctrl+tmap --scale SMALL
        Simulate one workload under one policy and print the metrics.

    repro-tom suite --scale TINY
        Run the Figure 8 policy grid over the whole suite.

    repro-tom suite --job-timeout 600 --max-retries 2 --manifest run.jsonl
        The same grid under supervision: per-job timeout and retries,
        and a JSONL run manifest streamed as each job lands. If jobs
        fail permanently, the suite still completes with partial
        results, prints a failure summary, and exits 3; a follow-up
        with ``--resume --manifest run.jsonl`` re-runs only the
        missing or failed points (docs/ROBUSTNESS.md).

    repro-tom figure fig8 [--scale SMALL]
        Regenerate one of the paper's figures as a text table
        (fig2 fig3 fig5 fig6 fig8 fig9 fig10 fig11 fig12 fig13
        sec65 sec66).

    repro-tom inspect LIB
        Dump a workload's kernel and the compiler's offload analysis.

    repro-tom run LIB --policy ctrl+tmap --trace lib.jsonl
        Same simulation with the observability layer on: every offload
        decision, learning-phase outcome, access routing, and windowed
        channel metrics land in lib.jsonl (docs/OBSERVABILITY.md).

    repro-tom report lib.jsonl
        Render a trace: decision breakdown, learned-mapping scores,
        stack-routing matrix, per-channel utilization timeline. Given
        a JSONL *run manifest* instead (suite --manifest, campaign
        run), renders the per-grid summary tables.

    repro-tom campaign run sweep.toml
        Expand a declared parameter product (workloads x policies x
        scales x seeds x configs), skip every point already answered by
        the result cache or the campaign manifest, run the rest under
        supervision, and print the roll-up (docs/CAMPAIGNS.md).

    repro-tom campaign status sweep.toml
        Classify every point (cached / completed / failed / pending)
        without running anything; exits 0 only when the campaign is
        complete.

Exit code 0 on success; errors print to stderr and exit 2; a suite or
campaign run that completes with partial results (some jobs failed
permanently) exits 3, as does ``campaign status`` for an incomplete
campaign.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from . import (
    BASELINE,
    FIGURE8_GRID,
    TraceScale,
    WorkloadRunner,
    make_workload,
)
from .accel import BACKEND_NAMES
from .core.policies import POLICIES_BY_LABEL as _POLICIES
from .errors import ReproError
from .workloads.suite import SUITE_ORDER

_FIGURES = (
    "fig2", "fig3", "fig5", "fig6", "fig8", "fig9", "fig10",
    "fig11", "fig12", "fig13", "sec65", "sec66",
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-tom",
        description="TOM (ISCA 2016) reproduction: simulate, sweep, inspect.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Shared by every simulating subcommand. The choice is exported as
    # REPRO_ENGINE before any simulation starts, so suite worker
    # processes inherit it too. Backends are bit-identical; "auto"
    # (default) uses the compiled core when its extension is built.
    engine_parent = argparse.ArgumentParser(add_help=False)
    engine_parent.add_argument(
        "--engine",
        default=None,
        choices=list(BACKEND_NAMES),
        help="event-engine backend: auto (default), compiled, or python",
    )

    run = sub.add_parser(
        "run",
        help="simulate one workload under one policy",
        parents=[engine_parent],
    )
    run.add_argument("workload", choices=SUITE_ORDER)
    run.add_argument(
        "--policy", default="ctrl+tmap", choices=sorted(_POLICIES)
    )
    run.add_argument("--scale", default="SMALL", choices=[s.name for s in TraceScale])
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    run.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="record a structured event trace (JSONL) of the policy run",
    )
    run.add_argument(
        "--trace-window",
        type=float,
        default=None,
        metavar="CYCLES",
        help="metric sample window in cycles (default: the channel "
        "busy monitor's window)",
    )

    suite = sub.add_parser(
        "suite",
        help="Figure 8 policy grid over the suite",
        parents=[engine_parent],
    )
    suite.add_argument("--scale", default="SMALL", choices=[s.name for s in TraceScale])
    suite.add_argument("--seed", type=int, default=0)
    suite.add_argument(
        "--workloads", nargs="*", choices=SUITE_ORDER, default=None
    )
    suite.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job wall-clock timeout (default: REPRO_JOB_TIMEOUT, else none)",
    )
    suite.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help="retries per failing job (default: REPRO_MAX_RETRIES, else 1)",
    )
    suite.add_argument(
        "--manifest",
        metavar="PATH",
        default=None,
        help="stream per-job outcomes to a JSONL run manifest",
    )
    suite.add_argument(
        "--resume",
        action="store_true",
        help="restore completed points from --manifest; run only the rest",
    )

    figure = sub.add_parser(
        "figure",
        help="regenerate one paper figure",
        parents=[engine_parent],
    )
    figure.add_argument("name", choices=_FIGURES)
    figure.add_argument("--scale", default=None, choices=[s.name for s in TraceScale])

    inspect = sub.add_parser("inspect", help="kernel + compiler analysis dump")
    inspect.add_argument("workload", choices=SUITE_ORDER)

    report = sub.add_parser(
        "report", help="render a recorded trace (see: run --trace)"
    )
    report.add_argument("trace", help="JSONL trace written by run --trace")
    report.add_argument(
        "--width", type=int, default=60, help="timeline width in columns"
    )
    report.add_argument(
        "--samples-csv",
        metavar="PATH",
        default=None,
        help="also write the metric-sample time series as CSV",
    )

    bundle = sub.add_parser(
        "bundle",
        help="write every figure (txt+csv+json) into a directory",
        parents=[engine_parent],
    )
    bundle.add_argument("directory")
    bundle.add_argument("--figures", nargs="*", default=None)
    bundle.add_argument("--scale", default=None, choices=[s.name for s in TraceScale])

    campaign = sub.add_parser(
        "campaign",
        help="declared parameter sweeps: run incrementally, inspect status",
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)
    spec_parent = argparse.ArgumentParser(add_help=False)
    spec_parent.add_argument("spec", help="campaign spec (TOML or JSON)")
    spec_parent.add_argument(
        "--manifest",
        metavar="PATH",
        default=None,
        help="campaign manifest (default: "
        "$REPRO_CAMPAIGN_DIR/<name>-<fingerprint>.jsonl)",
    )
    campaign_run = campaign_sub.add_parser(
        "run",
        help="run every point not already answered by cache or manifest",
        parents=[spec_parent, engine_parent],
    )
    campaign_run.add_argument(
        "--fresh",
        action="store_true",
        help="truncate the manifest instead of resuming from it",
    )
    campaign_run.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes (default: REPRO_JOBS, else CPU count)",
    )
    campaign_run.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="per-job wall-clock timeout (default: REPRO_JOB_TIMEOUT)",
    )
    campaign_run.add_argument(
        "--max-retries", type=int, default=None, metavar="N",
        help="retries per failing job (default: REPRO_MAX_RETRIES, else 1)",
    )
    campaign_sub.add_parser(
        "status",
        help="classify every point without running anything",
        parents=[spec_parent],
    )
    return parser


def _cmd_run(args) -> None:
    runner = WorkloadRunner(
        args.workload, scale=TraceScale[args.scale], seed=args.seed
    )
    policy = _POLICIES[args.policy]
    baseline = runner.baseline()
    recorder = None
    if args.trace:
        from .obs import TraceRecorder

        recorder = TraceRecorder(sample_window=args.trace_window)
        recorder.set_run(args.workload, policy.label, args.scale, args.seed)
    result = runner.run(policy, recorder=recorder)
    if recorder is not None:
        from .analysis.export import write_trace_jsonl

        n_events = write_trace_jsonl(recorder.events(), args.trace)
        dropped = sum(recorder.dropped.values())
        note = f" ({dropped} dropped by ring buffers)" if dropped else ""
        print(
            f"trace: {n_events} events -> {args.trace}{note}", file=sys.stderr
        )
    if getattr(args, "json", False):
        from .analysis.export import result_to_dict
        import json as _json

        payload = {
            "baseline": result_to_dict(baseline),
            "run": result_to_dict(result),
        }
        if policy is not BASELINE:
            payload["speedup"] = result.speedup_over(baseline)
            payload["traffic_ratio"] = result.traffic_ratio_over(baseline)
            payload["energy_ratio"] = result.energy_ratio_over(baseline)
        print(_json.dumps(payload, indent=2, sort_keys=True))
        return
    print(baseline.summary_line())
    print(result.summary_line())
    if policy is not BASELINE:
        print(f"speedup over baseline: {result.speedup_over(baseline):.2f}x")
        print(f"traffic vs baseline  : {result.traffic_ratio_over(baseline):.1%}")
        print(f"energy vs baseline   : {result.energy_ratio_over(baseline):.1%}")
        print(f"offload decisions    : {result.offload.decision_breakdown}")


def _cmd_suite(args) -> int:
    from .analysis.figures import figure8
    from .core.experiment import run_suite_supervised

    if args.resume and not args.manifest:
        raise ReproError("--resume requires --manifest PATH")
    report = run_suite_supervised(
        FIGURE8_GRID,
        scale=TraceScale[args.scale],
        seed=args.seed,
        workloads=args.workloads,
        job_timeout=args.job_timeout,
        max_retries=args.max_retries,
        manifest_path=args.manifest,
        resume=args.resume,
    )
    results = report.results

    def print_speedups(names) -> None:
        for name in names:
            per_policy = results.get(name, {})
            base = per_policy.get("baseline")
            if base is None:
                continue
            line = "  ".join(
                f"{label}={run.speedup_over(base):.2f}x"
                for label, run in per_policy.items()
                if label != "baseline"
            )
            print(f"{name:>4s}: {line}")

    if report.failures:
        # Partial run: print every workload that completed, summarize
        # the rest to stderr, and exit 3 so scripts notice.
        print_speedups(sorted(results))
        print(f"\n{len(report.failures)} job(s) failed:", file=sys.stderr)
        for failure in report.failures:
            print(f"  {failure.describe()}", file=sys.stderr)
        if args.manifest:
            print(
                f"re-run with --resume --manifest {args.manifest} "
                "to retry only the failed points",
                file=sys.stderr,
            )
        return 3
    if args.workloads:  # partial suite: print raw speedups
        print_speedups(results)
    else:
        print(figure8(results=results).render())
    return 0


def _cmd_figure(args) -> None:
    if args.scale:
        os.environ["REPRO_BENCH_SCALE"] = args.scale
    from .analysis.figures import FIGURE_BUILDERS

    print(FIGURE_BUILDERS[args.name]().render())


def _cmd_inspect(args) -> None:
    from .compiler import select_candidates

    model = make_workload(args.workload)
    kernel = model.build_kernel()
    print(f"# {model.full_name} ({model.fixed_offset_profile})")
    print(kernel.dump())
    print()
    selection = select_candidates(kernel)
    print(f"offloading candidates ({len(selection.candidates)}):")
    for candidate in selection.candidates:
        print(f"  {candidate.describe()}")
    for reason in selection.rejected:
        print(f"  rejected: {reason}")


def _is_manifest(path: str) -> bool:
    """Sniff the first line: run manifests start with a JSON header of
    ``kind == "manifest"``; event traces are JSONL of event dicts."""
    import json as _json

    try:
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                payload = _json.loads(line)
                return (
                    isinstance(payload, dict)
                    and payload.get("kind") == "manifest"
                )
    except (OSError, ValueError):
        pass
    return False


def _cmd_report(args) -> None:
    from .analysis.export import read_trace_jsonl, trace_samples_to_csv
    from .errors import AnalysisError
    from .obs import render_report

    if _is_manifest(args.trace):
        from .analysis.reporting import render_manifest_summary

        print(render_manifest_summary(args.trace))
        return
    try:
        events = read_trace_jsonl(args.trace)
    except OSError as error:
        raise AnalysisError(f"cannot read trace {args.trace!r}: {error}")
    print(render_report(events, width=args.width))
    if args.samples_csv:
        with open(args.samples_csv, "w") as handle:
            handle.write(trace_samples_to_csv(events))
        print(f"samples csv -> {args.samples_csv}", file=sys.stderr)


def _cmd_bundle(args) -> None:
    if args.scale:
        os.environ["REPRO_BENCH_SCALE"] = args.scale
    from .analysis.export import write_bundle

    written = write_bundle(
        args.directory,
        figure_names=args.figures,
        progress=lambda name: print(f"generating {name} ...", file=sys.stderr),
    )
    for path in written:
        print(path)


def _cmd_campaign(args) -> int:
    from .campaign import CampaignDriver, load_spec

    driver = CampaignDriver(load_spec(args.spec), manifest_path=args.manifest)
    if args.campaign_command == "status":
        status = driver.status()
        for line in status.describe():
            print(line)
        # Same partial-run convention as `suite`: anything short of a
        # fully-answered campaign exits 3 so scripts notice.
        return 0 if status.done else 3
    report = driver.run(
        jobs=args.jobs,
        job_timeout=args.job_timeout,
        max_retries=args.max_retries,
        resume=not args.fresh,
    )
    for line in report.describe():
        print(line)
    if report.planned and report.results:
        from .analysis.reporting import render_manifest_summary

        print()
        print(render_manifest_summary(report.manifest_path))
    if not report.ok:
        print(
            f"\nre-run `repro-tom campaign run {args.spec}` to retry the "
            f"{len(report.failed_points)} unanswered point(s)",
            file=sys.stderr,
        )
        return 3
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    # Export the engine choice before any simulation is constructed so
    # suite worker processes (spawned with a copy of the environment)
    # pick the same backend as the parent.
    if getattr(args, "engine", None):
        os.environ["REPRO_ENGINE"] = args.engine
    try:
        code = {
            "run": _cmd_run,
            "suite": _cmd_suite,
            "figure": _cmd_figure,
            "inspect": _cmd_inspect,
            "report": _cmd_report,
            "bundle": _cmd_bundle,
            "campaign": _cmd_campaign,
        }[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return code if code else 0


if __name__ == "__main__":
    sys.exit(main())
