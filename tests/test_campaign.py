"""Tests for the campaign layer (repro.campaign): spec expansion
determinism, skip-completed semantics against cache and manifest,
resume after injected faults, the simulation guard, the HTTP service's
warm/cold contract, and the CLI's exit-code conventions.

Everything runs at TINY scale with REPRO_JOBS=1 (inline supervised
execution) so the whole file stays fast; the zero-simulation
assertions read ``repro.core.simulator.stats``, which only counts runs
in this process — exactly what inline execution gives us.
"""

from __future__ import annotations

import json

import pytest

from repro import cli
from repro.campaign import (
    CampaignDriver,
    CampaignSpec,
    default_manifest_path,
    load_spec,
)
from repro.campaign.spec import _parse_toml_fallback, apply_overrides, parse_toml
from repro.config import ndp_config
from repro.core import simulator
from repro.errors import ConfigError, ReproError, SimulationDenied
from repro.guard import deny_simulation, simulation_denied
from repro.trace.generator import TraceScale


@pytest.fixture(autouse=True)
def _serial_and_clean(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "1")
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_FAULTS_STATE", raising=False)
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    simulator.stats["runs"] = 0


def small_spec(name="t", workloads=("BP",), policies=("baseline", "ctrl+bmap")):
    return CampaignSpec.from_dict(
        {
            "name": name,
            "workloads": list(workloads),
            "policies": list(policies),
            "scales": ["TINY"],
            "seeds": [0],
        }
    )


SAMPLE_TOML = """
name = "sample"

[axes]
workloads = ["BP", "BFS"]
policies = ["baseline", "ctrl+tmap"]
scales = ["TINY"]
seeds = [0, 1]

[[configs]]
name = "default"

[[configs]]
name = "halfbw"
[configs.overrides]
"links.cross_stack_gbps" = 20.0

[[exclude]]
workload = "BFS"
policy = "ctrl+tmap"

[pin]
seed = 0
"""


class TestSpec:
    def test_expansion_is_deterministic(self):
        spec = CampaignSpec.from_dict(parse_toml(SAMPLE_TOML))
        first = spec.expand()
        second = CampaignSpec.from_dict(parse_toml(SAMPLE_TOML)).expand()
        assert [p.point_id for p in first] == [p.point_id for p in second]
        assert spec.fingerprint() == CampaignSpec.from_dict(
            parse_toml(SAMPLE_TOML)
        ).fingerprint()

    def test_pin_and_exclude(self):
        points = CampaignSpec.from_dict(parse_toml(SAMPLE_TOML)).expand()
        assert all(p.seed == 0 for p in points)  # [pin] seed = 0
        assert not any(
            p.workload == "BFS" and p.policy == "ctrl+tmap" for p in points
        )
        # 2 configs x 1 scale x 1 pinned seed x (2x2 product - 1 excluded)
        assert len(points) == 6
        assert {p.config for p in points} == {"default", "halfbw"}

    def test_point_ids_distinguish_configs_not_code(self):
        spec = CampaignSpec.from_dict(parse_toml(SAMPLE_TOML))
        by_config = {}
        for point in spec.expand():
            by_config.setdefault(point.config, set()).add(point.point_id)
        assert by_config["default"].isdisjoint(by_config["halfbw"])

    def test_suite_shorthand(self):
        spec = CampaignSpec.from_dict(
            {"name": "all", "workloads": "suite", "policies": ["baseline"]}
        )
        assert len(spec.workloads) == 10

    @pytest.mark.parametrize(
        "patch",
        [
            {"workloads": ["NOPE"]},
            {"policies": ["warp-drive"]},
            {"axes": {"scales": ["HUGE"]}},
            {"pin": {"planet": "mars"}},
            {"exclude": [{"planet": "mars"}]},
        ],
    )
    def test_validation_rejects_unknowns(self, patch):
        data = {
            "name": "bad",
            "workloads": ["BP"],
            "policies": ["baseline"],
            "scales": ["TINY"],
        }
        axes = patch.pop("axes", None)
        data.update(patch)
        if axes:
            data.update(axes)
        with pytest.raises(ConfigError):
            CampaignSpec.from_dict(data)

    def test_bad_override_rejected(self):
        with pytest.raises(ConfigError, match="no field"):
            CampaignSpec.from_dict(
                {
                    "name": "bad",
                    "workloads": ["BP"],
                    "policies": ["baseline"],
                    "configs": [
                        {"name": "x", "overrides": {"links.warp_speed": 9}}
                    ],
                }
            )

    def test_duplicate_config_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            CampaignSpec.from_dict(
                {
                    "name": "dup",
                    "workloads": ["BP"],
                    "policies": ["baseline"],
                    "configs": [{"name": "a"}, {"name": "a"}],
                }
            )

    def test_empty_expansion_rejected(self):
        spec = CampaignSpec.from_dict(
            {
                "name": "empty",
                "workloads": ["BP"],
                "policies": ["baseline"],
                "exclude": [{"workload": "BP"}],
            }
        )
        with pytest.raises(ConfigError, match="zero points"):
            spec.expand()

    def test_apply_overrides(self):
        assert ndp_config().links.cross_stack_gbps != 20.0
        config = apply_overrides(
            ndp_config(), {"links.cross_stack_gbps": 20.0}
        )
        assert config.links.cross_stack_gbps == 20.0
        # untouched fields survive
        assert config.stacks.n_stacks == ndp_config().stacks.n_stacks

    @pytest.mark.parametrize(
        "path, value, expected",
        [
            ("control.channel_busy_threshold", "abc", "float"),
            ("control.channel_busy_threshold", None, "float"),
            ("control.channel_busy_threshold", [0.5], "float"),
            ("control.channel_busy_threshold", True, "float"),
            ("gpu.n_sms", 2.5, "int"),
            ("gpu.n_sms", True, "int"),
            ("gpu.n_sms", "64", "int"),
            ("ndp_enabled", 1, "bool"),
            ("translation.enabled", "yes", "bool"),
        ],
    )
    def test_override_type_mismatch_rejected(self, path, value, expected):
        with pytest.raises(ConfigError, match=f"{path}.*expected {expected}"):
            apply_overrides(ndp_config(), {path: value})

    def test_override_type_mismatch_is_a_spec_error(self):
        with pytest.raises(ConfigError, match="gpu.n_sms.*expected int"):
            CampaignSpec.from_dict(
                {
                    "name": "typed",
                    "workloads": ["BP"],
                    "policies": ["baseline"],
                    "configs": [{"name": "x", "overrides": {"gpu.n_sms": 2.5}}],
                }
            )

    def test_override_of_a_section_or_through_a_field_rejected(self):
        with pytest.raises(ConfigError, match="section"):
            apply_overrides(ndp_config(), {"gpu": {"n_sms": 32}})
        with pytest.raises(ConfigError, match="not a section"):
            apply_overrides(ndp_config(), {"gpu.n_sms.low": 1})

    def test_int_override_of_float_field_is_stored_unchanged(self):
        config = apply_overrides(ndp_config(), {"links.cross_stack_gbps": 20})
        assert type(config.links.cross_stack_gbps) is int
        assert config == apply_overrides(
            ndp_config(), {"links.cross_stack_gbps": 20.0}
        )


class TestTomlLoading:
    def test_fallback_parses_sample(self):
        data = _parse_toml_fallback(SAMPLE_TOML, "sample")
        assert data["name"] == "sample"
        assert data["axes"]["seeds"] == [0, 1]
        assert data["configs"][1]["overrides"]["links.cross_stack_gbps"] == 20.0
        assert data["exclude"][0]["workload"] == "BFS"
        assert data["pin"]["seed"] == 0

    def test_fallback_agrees_with_tomllib(self):
        tomllib = pytest.importorskip("tomllib")
        assert _parse_toml_fallback(SAMPLE_TOML, "x") == tomllib.loads(
            SAMPLE_TOML
        )

    @pytest.mark.parametrize(
        "text",
        [
            "key",  # no assignment
            'a = "unterminated',
            "a = [1, 2",  # unclosed array
            "[table",  # unclosed header
            "a = what",  # unparseable value
        ],
    )
    def test_fallback_rejects_malformed(self, text):
        with pytest.raises(ConfigError):
            _parse_toml_fallback(text, "bad")

    def test_load_spec_toml_and_json(self, tmp_path):
        toml_path = tmp_path / "c.toml"
        toml_path.write_text(SAMPLE_TOML)
        from_toml = load_spec(toml_path)
        json_path = tmp_path / "c.json"
        json_path.write_text(
            json.dumps(
                {
                    "name": "sample",
                    "axes": {
                        "workloads": ["BP", "BFS"],
                        "policies": ["baseline", "ctrl+tmap"],
                        "scales": ["TINY"],
                        "seeds": [0, 1],
                    },
                    "configs": [
                        {"name": "default"},
                        {
                            "name": "halfbw",
                            "overrides": {"links.cross_stack_gbps": 20.0},
                        },
                    ],
                    "exclude": [{"workload": "BFS", "policy": "ctrl+tmap"}],
                    "pin": {"seed": 0},
                }
            )
        )
        assert from_toml.fingerprint() == load_spec(json_path).fingerprint()

    def test_load_spec_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_spec(tmp_path / "missing.toml")


class TestGuard:
    def test_denies_trace_build(self):
        spec = small_spec()
        with deny_simulation():
            assert simulation_denied()
            with pytest.raises(SimulationDenied):
                CampaignDriver(spec).run()
        assert not simulation_denied()

    def test_reentrant(self):
        with deny_simulation():
            with deny_simulation():
                assert simulation_denied()
            assert simulation_denied()

    def test_simulator_counts_runs(self):
        CampaignDriver(small_spec(policies=("baseline",))).run()
        assert simulator.stats["runs"] == 1


class TestDriver:
    def test_completed_campaign_reruns_zero_simulations(self):
        spec = small_spec(workloads=("BP", "BFS"))
        first = CampaignDriver(spec).run()
        assert first.ok and first.executed == 4 and first.cache_hits == 0
        assert simulator.stats["runs"] > 0

        simulator.stats["runs"] = 0
        second = CampaignDriver(spec).run()
        assert second.ok
        assert second.cache_hits == second.planned == 4
        assert second.executed == 0
        assert simulator.stats["runs"] == 0  # the acceptance criterion
        assert set(second.results) == {p.point_id for p in spec.expand()}

    def test_pre_seeded_cache_skips_simulation(self):
        # Seed the cache through the ordinary runner, then verify the
        # campaign recognizes those points as already answered.
        from repro.core.experiment import WorkloadRunner
        from repro.core.policies import POLICIES_BY_LABEL

        runner = WorkloadRunner("BP", scale=TraceScale.TINY, seed=0)
        runner.run(POLICIES_BY_LABEL["baseline"])
        runner.run(POLICIES_BY_LABEL["ctrl+bmap"])
        simulator.stats["runs"] = 0
        report = CampaignDriver(small_spec()).run()
        assert report.ok and report.cache_hits == 2 and report.executed == 0
        assert simulator.stats["runs"] == 0

    def test_manifest_resume_without_cache(self, monkeypatch):
        spec = small_spec()
        driver = CampaignDriver(spec)
        assert driver.run().ok
        # Cache disabled: only the manifest can answer now.
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        simulator.stats["runs"] = 0
        report = CampaignDriver(spec).run()
        assert report.ok and report.resumed == 2 and report.executed == 0
        assert simulator.stats["runs"] == 0

    def test_status_classification(self, monkeypatch):
        spec = small_spec(workloads=("BP", "BFS"))
        driver = CampaignDriver(spec)
        before = driver.status()
        assert before.pending == before.total == 4 and not before.done
        driver.run()
        after = CampaignDriver(spec).status()
        assert after.done and after.cached == 4 and after.pending == 0
        # With the cache gone the manifest still answers.
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        from_manifest = CampaignDriver(spec).status()
        assert from_manifest.done and from_manifest.completed == 4

    def test_fault_then_resume(self, monkeypatch):
        # BP's job raises (injected); BFS completes. The next pass —
        # faults cleared — re-runs only BP's points.
        spec = small_spec(workloads=("BP", "BFS"))
        monkeypatch.setenv("REPRO_FAULTS", "raise@job/BP")
        failed = CampaignDriver(spec).run(max_retries=0)
        assert not failed.ok
        assert len(failed.failures) == 1
        assert failed.failures[0].workload == "BP"
        assert {p.workload for p in failed.failed_points} == {"BP"}
        assert len(failed.results) == 2  # BFS answered

        status = CampaignDriver(spec).status()
        assert status.failed == 2 and status.pending == 0 and not status.done

        monkeypatch.delenv("REPRO_FAULTS")
        simulator.stats["runs"] = 0
        recovered = CampaignDriver(spec).run()
        assert recovered.ok
        assert recovered.executed == 2  # only BP's two policies
        assert simulator.stats["runs"] == 2

    def test_manifest_from_other_campaign_rejected(self, tmp_path):
        path = tmp_path / "shared.jsonl"
        CampaignDriver(small_spec(name="one"), manifest_path=path).run()
        with pytest.raises(ConfigError, match="different campaign"):
            CampaignDriver(small_spec(name="two"), manifest_path=path).run()

    def test_default_manifest_path_tracks_spec(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CAMPAIGN_DIR", str(tmp_path / "campaigns"))
        a = default_manifest_path(small_spec(name="a"))
        assert a.parent == tmp_path / "campaigns"
        assert a != default_manifest_path(small_spec(name="b"))
        # editing the spec changes the fingerprint, hence the manifest
        assert a != default_manifest_path(
            small_spec(name="a", policies=("baseline",))
        )

    def test_report_summary_renders(self):
        from repro.analysis.reporting import render_manifest_summary

        spec = small_spec()
        report = CampaignDriver(spec).run()
        text = render_manifest_summary(report.manifest_path)
        assert "BP" in text and "ctrl+bmap" in text
        assert "speedup over baseline" in text

    def test_identically_resolving_configs_keep_their_names(self):
        # Two *named* configs that resolve to the same SystemConfig share
        # a manifest job key. Each group must still be recorded under its
        # own config name, or the roll-up silently drops one table.
        from repro.analysis.reporting import render_manifest_summary
        from repro.campaign.spec import CampaignConfig
        from repro.core.manifest import load_manifest_entries

        spec = CampaignSpec.from_dict(
            {
                "name": "twin",
                "workloads": ["BP"],
                "policies": ["baseline", "ctrl+bmap"],
                "scales": ["TINY"],
                "seeds": [0],
            }
        )
        twin = CampaignSpec(
            **{
                **{f: getattr(spec, f) for f in spec.__dataclass_fields__},
                "configs": (
                    CampaignConfig(name="default"),
                    CampaignConfig(name="alias"),  # resolves identically
                ),
            }
        )
        report = CampaignDriver(twin).run()
        assert report.ok and len(report.results) == 4
        _header, entries = load_manifest_entries(report.manifest_path)
        assert sorted(e["config"] for e in entries) == ["alias", "default"]
        text = render_manifest_summary(report.manifest_path)
        assert "config=default" in text and "config=alias" in text


class TestCli:
    def _write_spec(self, tmp_path, name="clic"):
        path = tmp_path / "c.toml"
        path.write_text(
            f'name = "{name}"\n'
            'workloads = ["BP"]\n'
            'policies = ["baseline", "ctrl+bmap"]\n'
            'scales = ["TINY"]\n'
            "seeds = [0]\n"
        )
        return path

    def test_run_then_status_exit_codes(self, tmp_path, capsys):
        spec = self._write_spec(tmp_path)
        assert cli.main(["campaign", "status", str(spec)]) == 3  # pending
        assert cli.main(["campaign", "run", str(spec)]) == 0
        assert cli.main(["campaign", "status", str(spec)]) == 0
        out = capsys.readouterr().out
        assert "cache hits" in out or "simulated" in out

    def test_partial_run_exits_3(self, tmp_path, monkeypatch, capsys):
        spec = self._write_spec(tmp_path, name="flaky")
        monkeypatch.setenv("REPRO_FAULTS", "raise@job/BP")
        monkeypatch.setenv("REPRO_MAX_RETRIES", "0")
        assert cli.main(["campaign", "run", str(spec)]) == 3
        capsys.readouterr()

    def test_bad_spec_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.toml"
        path.write_text('name = "x"\nworkloads = ["NOPE"]\npolicies = ["baseline"]\n')
        assert cli.main(["campaign", "run", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_report_sniffs_manifest(self, tmp_path, capsys):
        spec = self._write_spec(tmp_path, name="sniff")
        assert cli.main(["campaign", "run", str(spec)]) == 0
        capsys.readouterr()
        manifest = default_manifest_path(load_spec(spec))
        assert cli.main(["report", str(manifest)]) == 0
        assert "sniff" in capsys.readouterr().out

    def test_figure_choices_match_registry(self):
        from repro.analysis.figures import FIGURE_BUILDERS

        assert set(cli._FIGURES) == set(FIGURE_BUILDERS)


class TestService:
    @pytest.fixture
    def service(self):
        from repro.campaign.service import CampaignService

        svc = CampaignService(port=0).start_background()
        yield svc
        svc.stop()

    def _fetch(self, svc, target):
        from repro.campaign.service import fetch

        return fetch(svc.host, svc.port, target, timeout=120)

    def _poll(self, svc, poll_url, tries=600):
        import time

        for _ in range(tries):
            _, body = self._fetch(svc, poll_url)
            payload = json.loads(body)
            if payload["status"] in ("done", "failed"):
                return payload
            time.sleep(0.05)
        raise AssertionError(f"job never finished: {payload}")

    def test_health_and_figure_list(self, service):
        status, body = self._fetch(service, "/healthz")
        assert status == 200 and json.loads(body) == {"ok": True}
        status, body = self._fetch(service, "/v1/figures")
        assert status == 200 and "fig8" in json.loads(body)["figures"]

    def test_cold_then_warm_run_query(self, service):
        target = "/v1/run/BP?policy=baseline&scale=TINY"
        status, body = self._fetch(service, target)
        assert status == 202
        accepted = json.loads(body)
        assert accepted["poll"] == f"/v1/jobs/{accepted['job']}"
        done = self._poll(service, accepted["poll"])
        assert done["status"] == "done"
        assert done["result"] == "/v1/run/BP?policy=baseline&scale=TINY"

        # Warm now: answered without touching the simulator.
        simulator.stats["runs"] = 0
        status, body = self._fetch(service, target)
        assert status == 200
        payload = json.loads(body)
        assert payload["workload"] == "BP" and "result" in payload
        assert simulator.stats["runs"] == 0

    def test_warm_hit_from_pre_seeded_cache(self, service):
        # Seed via the campaign driver, then the very first HTTP query
        # must be warm — no job, no simulation.
        CampaignDriver(small_spec(policies=("baseline",))).run()
        simulator.stats["runs"] = 0
        status, body = self._fetch(
            service, "/v1/run/BP?policy=baseline&scale=TINY"
        )
        assert status == 200 and len(body) > 0
        assert simulator.stats["runs"] == 0

    def test_identical_cold_requests_deduplicate(self, service):
        target = "/v1/run/BFS?policy=baseline&scale=TINY"
        _, first = self._fetch(service, target)
        _, second = self._fetch(service, target)
        assert json.loads(first)["job"] == json.loads(second)["job"]
        assert self._poll(service, json.loads(first)["poll"])["status"] == "done"

    def test_errors(self, service):
        assert self._fetch(service, "/v1/figure/nope")[0] == 400
        assert self._fetch(service, "/v1/run/NOPE")[0] == 400
        assert self._fetch(service, "/v1/run/BP?policy=warp")[0] == 400
        assert self._fetch(service, "/v1/run/BP?scale=HUGE")[0] == 400
        assert self._fetch(service, "/v1/jobs/j99999")[0] == 404
        assert self._fetch(service, "/nothing/here")[0] == 404

    def test_stats_endpoint(self, service):
        status, body = self._fetch(service, "/v1/stats")
        assert status == 200
        payload = json.loads(body)
        assert {"requests", "jobs", "result_cache", "simulator"} <= set(payload)


class TestServeCliWiring:
    def test_serve_subcommand_parses(self):
        # Parsing only — running would block on serve_forever.
        parser_error = None
        try:
            args = cli._build_parser().parse_args(
                ["serve", "--host", "127.0.0.1", "--port", "0"]
            )
        except SystemExit as exc:  # pragma: no cover - parse failure
            parser_error = exc
        assert parser_error is None
        assert args.command == "serve" and args.port == 0

    def test_service_is_exported(self):
        from repro.campaign import CampaignService

        assert isinstance(CampaignService, type)
        with pytest.raises(ReproError):
            raise SimulationDenied("exported and raisable")
