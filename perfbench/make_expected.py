"""Regenerate ``expected/seed-<n>.json``: the digests every benchmark
output is checked against.

Run from the repository root::

    python3 perfbench/make_expected.py

For seed 0 and the held-out seed it runs, through the public API and
with an empty result cache, the Figure-8 grid at SMALL and TINY, the
threshold sweep and the three Figure-8/9/10 queries over the TINY
grid, and records the SHA-256 of every result (and figure) plus the
full SMALL baseline results that ``single-runs`` divides by. The two
engine backends are bit-identical, so one digest set serves both; the
compiled engine is built first only to make this faster. A change to
the expected digests is a change to the benchmark and must be
explained where it lands.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import points  # noqa: E402


def main() -> int:
    checkout = Path.cwd()
    work = checkout / ".perfbench" / f"expected-{os.getpid()}"
    work.mkdir(parents=True)
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_CAMPAIGN_DIR"] = str(work / "campaigns")
    sys.path.insert(0, str(checkout / "src"))
    try:
        import child

        child.load_engine("compiled", child.build_extension(checkout, work))
        for seed in (0, points.HELD_OUT_SEED):
            os.environ["REPRO_CACHE_DIR"] = str(work / f"cache-{seed}")
            write_expected(seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def write_expected(seed: int) -> None:
    from repro.analysis import figures
    from repro.analysis.export import result_to_dict
    from repro.campaign.driver import CampaignDriver
    from repro.campaign.spec import CampaignSpec
    from repro.trace.generator import TraceScale

    digests = {}
    baselines = {}
    for spec in (
        points.fig8_spec("SMALL", seed),
        points.fig8_spec("TINY", seed),
        points.sweep_spec(seed),
    ):
        report = CampaignDriver(CampaignSpec.from_dict(spec)).run(jobs=2)
        if not report.ok:
            raise SystemExit(f"campaign {spec['name']} failed: {report.describe()}")
        for point in report.points:
            result = report.result_for(point)
            key = points.point_key(point.scale.name, point.config, point.workload, point.policy)
            digest = points.digest_result(result)
            if digests.setdefault(key, digest) != digest:
                raise SystemExit(f"{key}: two runs of one point disagree")
            if key == points.point_key("SMALL", "default", point.workload, "baseline"):
                baselines[point.workload] = result_to_dict(result)
    for name in ("figure8", "figure9", "figure10"):
        figure = getattr(figures, name)(scale=TraceScale.TINY, seed=seed)
        digests[f"figure/TINY/{name}"] = points.digest_figure(figure)
    points.EXPECTED_DIR.mkdir(exist_ok=True)
    payload = {"seed": seed, "digests": dict(sorted(digests.items())), "baselines": baselines}
    points.expected_path(seed).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {points.expected_path(seed)} ({len(digests)} digests)")


if __name__ == "__main__":
    sys.exit(main())
