"""Workload inputs and output checks shared by the benchmark, its
expected-digest generator and its test.

Nothing here imports ``repro`` at module level: the driving process
(``run.py``) never loads the simulator, only its workload children do.

Seeds: ``--seed`` picks one of two simulation seeds whose expected
result digests are checked in (``expected/seed-<n>.json``): seed 0, the
seed behind the repository's figures, or the held-out seed for every
other value. The same ``--seed`` always gives the same inputs.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict

HERE = Path(__file__).resolve().parent
EXPECTED_DIR = HERE / "expected"

#: Simulation seed answering every ``--seed`` other than 0.
HELD_OUT_SEED = 1

SUITE = ("BP", "BFS", "KM", "CFD", "HW", "LIB", "RAY", "FWT", "SP", "RD")

#: The seven Figure-8 policies (baseline, the four offload x mapping
#: combinations, oracle mapping and ideal NDP).
FIG8_POLICIES = (
    "baseline",
    "no-ctrl+bmap",
    "no-ctrl+tmap",
    "ctrl+bmap",
    "ctrl+tmap",
    "ctrl+oracle",
    "ideal+bmap",
)

SWEEP_WORKLOADS = ("BP", "KM", "FWT", "SP", "RD")
SWEEP_THRESHOLDS = (0.85, 0.90, 0.95)

#: The paper's Figure 8 / Figure 9 ctrl+tmap averages (Section 6.1).
PAPER_FIG8_SPEEDUP = 1.30
PAPER_FIG9_TRAFFIC = 0.87

#: The workloads BENCHMARK.json lists, in its order.
WORKLOADS = ("fig8-grid", "single-runs", "warm-queries")
#: Runnable by name but left out of BENCHMARK.json: a cold sweep pass
#: is too long for the repeated runs a benchmark check makes. Its
#: traced run still shows the per-config trace rebuilds.
BY_HAND = ("sweep-cold",)
#: Engine backend each workload must resolve to (warm-queries needs the
#: compiled engine only for its cache pre-fill).
ENGINE = {
    "fig8-grid": "compiled",
    "single-runs": "python",
    "sweep-cold": "compiled",
    "warm-queries": "compiled",
}


def sim_seed(seed: int) -> int:
    return 0 if seed == 0 else HELD_OUT_SEED


def fig8_spec(scale: str, seed: int) -> Dict:
    return {
        "name": f"perfbench-fig8-{scale.lower()}",
        "axes": {
            "workloads": list(SUITE),
            "policies": list(FIG8_POLICIES),
            "scales": [scale],
            "seeds": [seed],
        },
    }


def sweep_spec(seed: int) -> Dict:
    return {
        "name": "perfbench-sweep",
        "axes": {
            "workloads": list(SWEEP_WORKLOADS),
            "policies": list(FIG8_POLICIES),
            "scales": ["SMALL"],
            "seeds": [seed],
        },
        "configs": [
            {
                "name": threshold_config(t),
                "overrides": {"control.channel_busy_threshold": t},
            }
            for t in SWEEP_THRESHOLDS
        ],
    }


def threshold_config(threshold: float) -> str:
    return f"busy-{threshold:.2f}"


def point_key(scale: str, config: str, workload: str, policy: str) -> str:
    """Expected-digest key of one simulated point (the seed is the file)."""
    return f"{scale}/{config}/{workload}/{policy}"


def digest_result(result) -> str:
    """SHA-256 over the lossless dict form of a ``SimulationResult``."""
    from repro.analysis.export import result_to_dict

    return digest_json(result_to_dict(result))


def digest_json(payload) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def digest_figure(figure) -> str:
    """Digest of a figure query's answer: its title, columns and rows."""
    return digest_json(
        {"title": figure.title, "columns": figure.columns, "rows": figure.rows}
    )


def expected_path(seed: int) -> Path:
    return EXPECTED_DIR / f"seed-{seed}.json"


def load_expected(seed: int) -> Dict:
    with open(expected_path(seed)) as handle:
        return json.load(handle)


def paper_errors(pairs) -> Dict[str, float]:
    """Relative error of the ctrl+tmap geomean speedup and traffic ratio
    against the paper, over ``(baseline, ctrl+tmap)`` result pairs."""
    from repro.utils.stats import geometric_mean

    speedup = geometric_mean([tom.speedup_over(base) for base, tom in pairs])
    traffic = geometric_mean([tom.traffic_ratio_over(base) for base, tom in pairs])
    return {
        "paper_err.fig8_speedup": abs(speedup - PAPER_FIG8_SPEEDUP) / PAPER_FIG8_SPEEDUP,
        "paper_err.fig9_traffic": abs(traffic - PAPER_FIG9_TRAFFIC) / PAPER_FIG9_TRAFFIC,
    }
