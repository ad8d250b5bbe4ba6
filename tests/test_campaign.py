"""Tests for the campaign layer (repro.campaign): spec expansion
determinism, rejection of malformed specs, skip-completed semantics
against cache and manifest, resume after injected faults, and the
CLI's exit-code conventions.

Everything runs at TINY scale with REPRO_JOBS=1 (inline supervised
execution) so the whole file stays fast; the zero-simulation
assertions read ``repro.core.simulator.stats``, which only counts runs
in this process — exactly what inline execution gives us.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli
from repro.campaign import (
    CampaignDriver,
    CampaignSpec,
    default_manifest_path,
    load_spec,
)
from repro.campaign.spec import apply_overrides, parse_toml
from repro.config import ndp_config
from repro.core import simulator
from repro.errors import ConfigError
from repro.trace.generator import TraceScale
from repro.workloads.suite import SUITE_ORDER


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

#: Wrong shapes and values for spec fields, each merged into a valid
#: one-point spec; every one must be a ConfigError (CLI exit 2).
MALFORMED = {
    "seed-str": {"seeds": ["x"]},
    "seeds-int": {"seeds": 7},
    "seed-float": {"seeds": [1.5]},
    "seed-bool": {"seeds": [True]},
    "seed-negative": {"seeds": [-1]},
    "exclude-table": {"exclude": {"workload": "BP"}},
    "configs-table": {"configs": {"name": "x"}},
    "config-entry-str": {"configs": ["x"]},
    "overrides-list": {"configs": [{"name": "x", "overrides": [1]}]},
    "pin-list": {"pin": ["x"]},
    "pin-seed-negative": {"pin": {"seed": -1}},
    "pin-seed-str": {"pin": {"seed": "0"}},
    "pin-scale-unknown": {"pin": {"scale": "HUGE"}},
    "pin-workload-unknown": {"pin": {"workload": "NOPE"}},
    "pin-config-table": {"pin": {"config": {}}},
    "axes-int": {"axes": 5},
    "scale-list": {"scales": [["TINY"]]},
    "policy-table": {"policies": [{"p": 1}]},
}


def _override_values(obj, prefix=""):
    """Every dotted leaf path of a SystemConfig with its default value."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield from _override_values(value, f"{prefix}{f.name}.")
        else:
            yield f"{prefix}{f.name}", value


_DEFAULTS = dict(_override_values(ndp_config()))
_TOKENS = st.sampled_from(
    list(SUITE_ORDER)
    + ["suite", "baseline", "ctrl+tmap", "TINY", "SMALL", "HUGE", "default"]
    + ["workload", "policy", "scale", "seed", "config", "NOPE"]
)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 3),
    st.integers(),
    st.floats(),
    st.text(max_size=4),
    _TOKENS,
)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4) | _TOKENS, inner, max_size=3),
    max_leaves=8,
)


def _mostly(valid):
    """Mostly ``valid``, sometimes arbitrary JSON."""
    return st.sampled_from([True] * 4 + [False]).flatmap(
        lambda plausible: valid if plausible else _JSON
    )


def _axis(values):
    return _mostly(st.lists(_mostly(values), min_size=1, max_size=3))


#: A field override: mostly the field's default (or a scalar of the
#: same type), sometimes any scalar.
_OVERRIDE = st.sampled_from(sorted(_DEFAULTS)).flatmap(
    lambda path: st.tuples(
        st.just(path),
        st.one_of(st.just(_DEFAULTS[path]), st.from_type(type(_DEFAULTS[path])))
        | _SCALARS,
    )
)

@st.composite
def _spec_like(draw):
    """Spec-shaped JSON: the known keys, each holding mostly plausible
    values with arbitrary JSON mixed in at every level; the axes sit
    either at the top level or under ``axes``."""
    axes = draw(
        st.fixed_dictionaries(
            {
                "workloads": st.just("suite")
                | _axis(st.sampled_from(SUITE_ORDER)),
                "policies": _axis(st.sampled_from(["baseline", "ctrl+tmap"])),
            },
            optional={
                "scales": _axis(st.sampled_from(["TINY", "SMALL"])),
                "seeds": _axis(st.integers(0, 3)),
            },
        )
    )
    config = st.fixed_dictionaries(
        {"name": _mostly(st.sampled_from(["default", "b"]))},
        optional={"overrides": _mostly(st.lists(_OVERRIDE, max_size=2).map(dict))},
    )
    data = draw(
        st.fixed_dictionaries(
            {"name": _mostly(st.just("h"))},
            optional={
                "configs": _mostly(
                    st.lists(_mostly(config), min_size=1, max_size=2)
                ),
                "exclude": _mostly(
                    st.lists(
                        _mostly(
                            st.dictionaries(_TOKENS, _TOKENS | _SCALARS, max_size=2)
                        ),
                        max_size=2,
                    )
                ),
                "pin": _mostly(
                    st.dictionaries(_TOKENS, _TOKENS | _SCALARS, max_size=1)
                ),
            },
        )
    )
    if draw(st.booleans()):
        data["axes"] = axes
    else:
        data.update(axes)
    return data


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

    @settings(max_examples=300, deadline=None)
    @given(_JSON | _spec_like())
    def test_any_json_expands_or_raises_config_error(self, data):
        try:
            points = CampaignSpec.from_dict(data).expand()
        except ConfigError:
            return
        assert points
        assert all(isinstance(p.seed, int) and p.seed >= 0 for p in points)

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
    def test_parse_toml_rejects_malformed(self, text):
        with pytest.raises(ConfigError, match="bad TOML in bad"):
            parse_toml(text, "bad")

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


class TestDriver:
    def test_simulator_counts_runs(self):
        CampaignDriver(small_spec(policies=("baseline",))).run()
        assert simulator.stats["runs"] == 1

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

    @pytest.mark.parametrize("patch", MALFORMED.values(), ids=list(MALFORMED))
    def test_malformed_json_spec_exits_2(self, tmp_path, capsys, patch):
        data = {"name": "bad", "workloads": ["BP"], "policies": ["baseline"]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**data, **patch}))
        assert cli.main(["campaign", "status", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

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
