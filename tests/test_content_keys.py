"""Content keys: absolute pinned values and the per-instance config memo.

Every content key — result-cache entries, manifest job keys and run
fingerprints, campaign point ids and spec fingerprints — hashes the
canonical JSON of one or two :class:`~repro.config.SystemConfig`
objects. The values below are pinned literally: a manifest or campaign
id written before a refactor must still resolve after it, so any
change to these bytes is a compatibility break, not a detail.

The second half checks the memo behind those keys
(:attr:`SystemConfig.canonical_json`): it always equals the plain
serialisation, never leaks across ``dataclasses.replace``, survives
pickling, is keyed by identity (``1 == 1.0`` but they serialise
differently), and warm queries serialise a constant number of configs
however many points they touch.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import config as config_module
from repro.campaign import CampaignDriver, CampaignSpec
from repro.campaign.spec import apply_overrides, point_id
from repro.config import baseline_config, content_digest, ndp_config
from repro.core import manifest, result_cache, simulator
from repro.core.experiment import run_suite
from repro.core.policies import FIGURE8_GRID, NDP_CTRL_ORACLE
from repro.trace.generator import TraceScale


def plain_json(config) -> str:
    return json.dumps(dataclasses.asdict(config), sort_keys=True, separators=(",", ":"))


#: One float override and one int given for a float field (kept as int).
TUNED = {"control.channel_busy_threshold": 0.8, "links.gpu_stack_gbps": 160}

PINNED_SPEC = {
    "name": "pinned",
    "axes": {
        "workloads": ["SP", "BP"],
        "policies": ["baseline", "ctrl+tmap"],
        "scales": ["TINY"],
        "seeds": [0],
    },
    "configs": [{"name": "default"}, {"name": "tuned", "overrides": TUNED}],
}


class TestPinnedKeys:
    @pytest.fixture(autouse=True)
    def _constant_code_version(self, monkeypatch):
        monkeypatch.setattr(result_cache, "code_version", lambda: "0123456789abcdef")

    @staticmethod
    def cache_key(label, trace_config, run_config, oracle=None, workload="SP",
                  scale=TraceScale.TINY, seed=0):
        return result_cache.cache_key(
            workload=workload,
            policy_label=label,
            scale=scale,
            seed=seed,
            trace_config=trace_config,
            run_config=run_config,
            oracle_position=oracle,
        )

    def test_cache_keys(self):
        ndp, base = ndp_config(), baseline_config()
        warp4 = ndp_config(warp_capacity_multiplier=4)
        bw1 = ndp_config(internal_bandwidth_ratio=1.0)
        tuned = apply_overrides(ndp_config(), TUNED)
        assert self.cache_key("ctrl+tmap", ndp, ndp) == (
            "e1271d6cb2cd42d9b22f819b77680188b08adaf55e06e3cd16f196ed84657340"
        )
        assert self.cache_key("baseline", ndp, base) == (
            "37576a9ea24fe83a62910f79fa28858e862192a6e87cdb17b90281dda0b36f46"
        )
        assert self.cache_key("ctrl+tmap", warp4, warp4) == (
            "d98c9bf3c09e160ca75e6f60345a221102d106515656358db7ca3b097da0428f"
        )
        assert self.cache_key(
            "ctrl+bmap", bw1, bw1, workload="BP", scale=TraceScale.SMALL, seed=1
        ) == "949546c0ab35f63e7e7f568f49908346dc3551d7efbaa2d8e36589e3b708b856"
        assert self.cache_key(
            NDP_CTRL_ORACLE.label, ndp, ndp, oracle=9, workload="LIB"
        ) == "157bd953694c299c32431b6fc16bed376d2abf5fa53e1b2877d1b4534e2d2145"
        assert self.cache_key("ctrl+tmap", tuned, tuned) == (
            "fb087eced4e0c916042cc0e6cf8e5836f962f1024896e74873670d86f432810d"
        )

    def test_manifest_keys(self):
        ndp, base = ndp_config(), baseline_config()
        warp4 = ndp_config(warp_capacity_multiplier=4)
        bw1 = ndp_config(internal_bandwidth_ratio=1.0)
        tuned = apply_overrides(ndp_config(), TUNED)
        tiny, small = TraceScale.TINY, TraceScale.SMALL
        assert manifest.run_fingerprint(tiny, 0, ndp, base) == "ef070a4649010236"
        assert manifest.run_fingerprint(small, 1, warp4, base) == "0ce14614b8ec6f9b"
        assert manifest.job_key("SP", tiny, 0, ndp, base) == "95e1887ee58ee4c3"
        assert manifest.job_key("BFS", small, 0, bw1, base) == "f21bdd884b4d35e9"
        assert manifest.job_key("SP", tiny, 0, tuned, base) == "908a794f03754ec6"

    def test_campaign_keys(self):
        assert point_id("SP", "ctrl+tmap", "TINY", 0, "default", ndp_config()) == (
            "281402dbd04b1edb"
        )
        assert point_id("SP", "baseline", "TINY", 0, "default", baseline_config()) == (
            "ac1a88575ce4c4c6"
        )
        spec = CampaignSpec.from_dict(PINNED_SPEC)
        assert spec.fingerprint() == "954e7ee6bb05024a"
        assert [p.point_id for p in spec.expand()] == [
            "d5f85500813ed5af",
            "281402dbd04b1edb",
            "5eda409cd066f5d5",
            "f8d7fcc95fcb03aa",
            "e0b691be930299da",
            "ecc57dfb6e2d5bd2",
            "ffe876ab00e426b9",
            "52bc1c6534a73004",
        ]


#: Overridable fields with the values a spec may legally give them,
#: ints included for float fields.
_OVERRIDES = {
    "control.channel_busy_threshold": st.one_of(
        st.floats(min_value=0.01, max_value=1.0), st.just(1)
    ),
    "control.min_learn_instances": st.integers(0, 1000),
    "control.respect_conditions": st.booleans(),
    "gpu.n_sms": st.integers(1, 256),
    "gpu.clock_ghz": st.one_of(st.floats(0.1, 10.0), st.integers(1, 10)),
    "links.gpu_stack_gbps": st.one_of(st.floats(1.0, 1e4), st.integers(1, 10**4)),
    "stacks.dram_latency_cycles": st.one_of(
        st.floats(allow_nan=False, allow_infinity=False), st.integers()
    ),
    "ndp_enabled": st.booleans(),
}


@st.composite
def overridden_configs(draw):
    paths = draw(st.sets(st.sampled_from(sorted(_OVERRIDES))))
    base = draw(st.sampled_from([ndp_config, baseline_config]))()
    return apply_overrides(base, {path: draw(_OVERRIDES[path]) for path in paths})


class TestMemo:
    @settings(max_examples=60, deadline=None)
    @given(overridden_configs())
    def test_memo_matches_plain_serialisation(self, config):
        assert config.canonical_json == plain_json(config)
        assert config.canonical_json == plain_json(config)  # memoised read

    @settings(max_examples=60, deadline=None)
    @given(
        st.dictionaries(
            st.text(max_size=6),
            st.one_of(
                st.none(),
                st.booleans(),
                st.integers(),
                st.floats(),
                st.text(max_size=6),
                st.lists(st.integers(), max_size=3),
                overridden_configs(),
            ),
            max_size=5,
        )
    )
    def test_digest_hashes_the_plain_payload_bytes(self, payload):
        plain = {
            key: dataclasses.asdict(value)
            if isinstance(value, config_module.SystemConfig)
            else value
            for key, value in payload.items()
        }
        canonical = json.dumps(plain, sort_keys=True, separators=(",", ":"))
        assert content_digest(payload) == hashlib.sha256(canonical.encode()).hexdigest()

    def test_memo_survives_pickle(self):
        config = apply_overrides(ndp_config(), TUNED)
        memo = config.canonical_json
        restored = pickle.loads(pickle.dumps(config))
        assert vars(restored)["canonical_json"] == memo
        assert restored.canonical_json == memo == plain_json(restored)

    def test_replace_never_inherits_a_stale_memo(self):
        config = ndp_config()
        before = config.canonical_json
        for changed in (
            dataclasses.replace(config, ndp_enabled=False),
            config.replace(gpu=dataclasses.replace(config.gpu, n_sms=8)),
            dataclasses.replace(config),
        ):
            assert "canonical_json" not in vars(changed)
            assert changed.canonical_json == plain_json(changed)
        assert dataclasses.replace(config, ndp_enabled=False).canonical_json != before

    def test_equal_configs_keep_distinct_keys_for_1_and_1_0(self):
        as_float = apply_overrides(ndp_config(), {"links.cross_stack_gbps": 40.0})
        as_int = apply_overrides(ndp_config(), {"links.cross_stack_gbps": 40})
        assert as_float == as_int
        # Serialise the float one first: an equality-keyed memo would
        # then hand its JSON to the int one.
        assert '"cross_stack_gbps":40.0' in as_float.canonical_json
        assert '"cross_stack_gbps":40,' in as_int.canonical_json
        assert as_int.canonical_json == plain_json(as_int)
        keys = {
            manifest.job_key("SP", TraceScale.TINY, 0, config, baseline_config())
            for config in (as_float, as_int)
        }
        assert len(keys) == 2


class TestSerialisationCount:
    """Warm queries serialise a constant number of configs, however many
    points they touch (each point used to re-serialise two)."""

    WORKLOADS = ("SP", "BP")

    @pytest.fixture
    def count_serialisations(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "1")
        calls = []
        real = config_module.asdict

        def counting(obj):
            calls.append(type(obj).__name__)
            return real(obj)

        run_suite(FIGURE8_GRID, scale=TraceScale.TINY, workloads=self.WORKLOADS)
        simulator.stats["runs"] = 0
        monkeypatch.setattr(config_module, "asdict", counting)

        def count(query):
            calls.clear()
            query()
            assert simulator.stats["runs"] == 0
            return len(calls)

        return count

    @staticmethod
    def spec(workloads):
        return CampaignSpec.from_dict(
            {
                "name": "warm",
                "workloads": list(workloads),
                "policies": ["baseline"] + [p.label for p in FIGURE8_GRID],
                "scales": ["TINY"],
                "seeds": [0],
            }
        )

    def test_warm_suite_and_status(self, count_serialisations):
        counts = []
        for n in (1, len(self.WORKLOADS)):
            workloads = self.WORKLOADS[:n]

            def suite():
                results = run_suite(
                    FIGURE8_GRID, scale=TraceScale.TINY, workloads=workloads
                )
                assert sorted(results) == sorted(workloads)

            def status():
                report = CampaignDriver(self.spec(workloads)).status()
                assert report.done and report.cached == report.total == 5 * n

            counts.append((count_serialisations(suite), count_serialisations(status)))
        assert counts[0] == counts[1]
        assert all(0 < count <= 4 for count in counts[0])
