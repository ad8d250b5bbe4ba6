"""Tests of the benchmark itself (not collected by the repository suite).

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import points  # noqa: E402
import run  # noqa: E402
from layers import LayerProbe  # noqa: E402

TINY_SUBSET = ("BP", "KM", "SP")


@pytest.fixture(scope="module")
def accel_dir(tmp_path_factory):
    return child.build_extension(ROOT, tmp_path_factory.mktemp("ext"))


@pytest.fixture
def isolated(tmp_path, monkeypatch):
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        monkeypatch.delenv(key)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_CAMPAIGN_DIR", str(tmp_path / "campaigns"))
    return tmp_path


def _tiny_subset_digests(seed: int):
    from repro.campaign.driver import CampaignDriver
    from repro.campaign.spec import CampaignSpec

    spec = points.fig8_spec("TINY", seed)
    spec["axes"]["workloads"] = list(TINY_SUBSET)
    report = CampaignDriver(CampaignSpec.from_dict(spec)).run(jobs=1)
    assert report.ok and report.executed == len(report.points)
    return {
        points.point_key("TINY", p.config, p.workload, p.policy): points.digest_result(
            report.result_for(p)
        )
        for p in report.points
    }


@pytest.mark.parametrize("backend", ["python", "compiled"])
def test_tiny_subset_matches_expected_digests(backend, accel_dir, isolated, monkeypatch):
    import repro.accel as accel

    if backend == "compiled" and str(accel_dir) not in accel.__path__:
        accel.__path__.insert(0, str(accel_dir))
    monkeypatch.setenv("REPRO_ENGINE", backend)
    assert accel.resolve_backend_name() == backend
    expected = points.load_expected(0)["digests"]
    digests = _tiny_subset_digests(0)
    assert len(digests) == len(TINY_SUBSET) * len(points.FIG8_POLICIES)
    assert digests == {key: expected[key] for key in digests}


def test_traced_pass_gives_untraced_digests(isolated, monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", "python")
    untraced = _tiny_subset_digests(0)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(isolated / "cache-traced"))
    monkeypatch.setenv("REPRO_CAMPAIGN_DIR", str(isolated / "campaigns-traced"))
    probe = LayerProbe()
    probe.install()
    try:
        traced = _tiny_subset_digests(0)
    finally:
        probe.uninstall()
    assert traced == untraced
    metrics = probe.metrics(len(traced), [])
    assert metrics["simulator.runs"] > 0 and metrics["engine.events"] > 0
    assert metrics["trace.builds"] == len(TINY_SUBSET)
    assert probe.engine_backends == {"python"}


def test_uninstall_restores_every_wrapped_callable():
    from spans import LAYER_TARGETS, SpanRecorder

    def snapshot():
        seen = {}
        for _, module_name, path in LAYER_TARGETS:
            owner = importlib.import_module(module_name)
            if "." in path:
                owner = getattr(owner, path.split(".", 1)[0])
            seen[module_name, path] = dict(vars(owner))
        return seen

    before = snapshot()
    recorder = SpanRecorder()
    recorder.install()
    assert snapshot() != before
    recorder.uninstall()
    assert snapshot() == before


def test_missing_compiler_fails_the_build(tmp_path, monkeypatch):
    monkeypatch.setenv("CC", "/bin/false")
    with pytest.raises(child.BenchError, match="did not build"):
        child.build_extension(ROOT, tmp_path)


def test_every_declared_per_layer_metric_is_measured():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(points.WORKLOADS)
    measured = set(LayerProbe().metrics(0, [])) | {"tracing.overhead_frac", "tracing.spans"}
    assert {m["name"] for m in spec["per_layer"]} == measured


def test_host_clock_scales_each_op_by_its_nearest_reference_samples():
    # The host runs at half speed from t = 10 s on.
    samples = [run.REFERENCE_S] * 10 + [2 * run.REFERENCE_S] * 10
    clock = run.HostClock({"times": [float(t) for t in range(20)], "samples": samples})
    assert clock.scaled(2.0, 3.0) == pytest.approx(1.0)
    assert clock.scaled(15.0, 16.0) == pytest.approx(0.5)


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig8-grid", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
