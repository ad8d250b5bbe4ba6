#!/usr/bin/env python
"""End-to-end campaign drill (gating in CI; docs/CAMPAIGNS.md).

Three acts over one tiny declared product:

1. a cold ``campaign run`` of a 2x2 product (2 workloads x 2 policies,
   TINY) — every point must simulate exactly once;
2. the same campaign again — **zero** simulations allowed: every point
   must be answered by the result cache (this is the acceptance
   criterion of the campaign layer, checked against the simulator's
   process-local run counter, hence ``REPRO_JOBS=1`` inline execution);
3. ``campaign status`` — must classify the campaign as complete and
   exit 0 semantics (done).

Run from the repository root::

    PYTHONPATH=src python tools/campaign_smoke.py
"""

from __future__ import annotations

import os
import sys
import tempfile

WORKLOADS = ["BP", "BFS"]
POLICIES = ["baseline", "ctrl+bmap"]


def fail(message: str) -> None:
    print(f"CAMPAIGN SMOKE FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def main() -> None:
    scratch = tempfile.mkdtemp(prefix="repro-campaign-smoke-")
    # Isolated cache + campaign state; serial inline execution so the
    # in-process simulator.stats counter sees every run.
    os.environ["REPRO_CACHE_DIR"] = os.path.join(scratch, "cache")
    os.environ["REPRO_CAMPAIGN_DIR"] = os.path.join(scratch, "campaigns")
    os.environ["REPRO_JOBS"] = "1"
    os.environ.pop("REPRO_NO_CACHE", None)
    os.environ.pop("REPRO_FAULTS", None)

    from repro.campaign import CampaignDriver, CampaignSpec
    from repro.core import simulator

    spec = CampaignSpec.from_dict(
        {
            "name": "ci-smoke",
            "workloads": WORKLOADS,
            "policies": POLICIES,
            "scales": ["TINY"],
            "seeds": [0],
        }
    )
    expected = len(WORKLOADS) * len(POLICIES)

    print(f"[1/3] cold campaign run ({expected} points) ...")
    simulator.stats["runs"] = 0
    first = CampaignDriver(spec).run()
    if not first.ok:
        fail(f"cold run failed: {[f.message for f in first.failures]}")
    if first.executed != expected or simulator.stats["runs"] != expected:
        fail(
            f"cold run executed {first.executed} points / "
            f"{simulator.stats['runs']} simulations, expected {expected}"
        )

    print("[2/3] re-run over the completed product (zero simulations) ...")
    simulator.stats["runs"] = 0
    second = CampaignDriver(spec).run()
    if not second.ok or second.cache_hits != expected:
        fail(
            f"re-run not fully cache-answered: {second.cache_hits}/"
            f"{expected} hits, ok={second.ok}"
        )
    if simulator.stats["runs"] != 0:
        fail(f"re-run performed {simulator.stats['runs']} simulations")

    print("[3/3] campaign status ...")
    status = CampaignDriver(spec).status()
    if not status.done or status.pending or status.failed:
        fail(f"status not done: {status.describe()}")

    print("CAMPAIGN SMOKE OK")


if __name__ == "__main__":
    main()
