"""Campaign declarations: a parameter product with pinning and
exclusion rules, expanded deterministically into content-addressed
points.

A campaign is declared as data — a TOML (or JSON) file, or a plain
dict — naming the four axes of the product (workloads, policies,
scales, seeds) plus any number of named system configurations, each a
set of dotted-path overrides on the paper's NDP configuration::

    name = "fig8-small"

    [axes]
    workloads = "suite"                  # or an explicit list
    policies = ["baseline", "no-ctrl+bmap", "no-ctrl+tmap",
                "ctrl+bmap", "ctrl+tmap"]
    scales = ["SMALL"]
    seeds = [0]

    [[configs]]
    name = "default"

    [[configs]]
    name = "2x-link"
    [configs.overrides]
    "links.gpu_stack_gbps" = 160.0

    [[exclude]]                          # drop matching points
    workload = "RD"
    policy = "no-ctrl+bmap"

    [pin]                                # force an axis to one value
    scale = "SMALL"

:meth:`CampaignSpec.expand` is a pure function of the spec: the same
declaration always yields the same points, in the same order, with the
same ``point_id``s (a SHA-256 over the point's identity including the
resolved configuration — but *not* the code version, so campaign
identity survives code changes; the result cache's own keys handle
invalidation). That determinism is what makes skip-completed and
resume trustworthy.

TOML is parsed with the standard library's :mod:`tomllib`. Malformed
input of any shape — bad syntax, a wrong type, an unknown name — is a
:class:`~repro.errors.ConfigError`.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import tomllib
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Dict, List, Mapping, Sequence, Tuple

from ..config import SystemConfig, content_digest, ndp_config
from ..core.policies import POLICIES_BY_LABEL
from ..errors import ConfigError
from ..trace.generator import TraceScale, check_seed
from ..workloads.suite import SUITE_ORDER

#: The axes a pin or exclusion clause may name.
_AXES = ("workload", "policy", "scale", "seed", "config")

#: The values each name-valued axis accepts.
_KNOWN = {
    "workload": tuple(SUITE_ORDER),
    "policy": tuple(sorted(POLICIES_BY_LABEL)),
    "scale": tuple(s.name for s in TraceScale),
}


def apply_overrides(
    config: SystemConfig, overrides: Mapping[str, object]
) -> SystemConfig:
    """Apply dotted-path field overrides (``"links.gpu_stack_gbps"
    = 160.0``) to a frozen :class:`SystemConfig`, validating the result.
    Keys are applied in sorted order so the outcome never depends on
    mapping iteration order.

    Every value must match its field's declared type: a bool is not a
    number and a float is not an int, but an int is accepted for a float
    field and stored unchanged (so it keeps its own point ids)."""
    for path in sorted(overrides):
        config = _replace_path(config, path, path.split("."), overrides[path])
    return config.validate()


#: Accepted value types per declared scalar field type.
_OVERRIDE_TYPES = {"bool": (bool,), "int": (int,), "float": (int, float)}


def _replace_path(obj, full_path: str, parts: Sequence[str], value):
    name = parts[0]
    fields = {f.name: f for f in dataclasses.fields(obj)}
    if name not in fields:
        raise ConfigError(
            f"override {full_path!r}: {type(obj).__name__} has no field "
            f"{name!r} (known: {', '.join(sorted(fields))})"
        )
    declared = fields[name].type  # a string: config.py defers annotations
    accepted = _OVERRIDE_TYPES.get(declared)
    if len(parts) == 1:
        if accepted is None:
            raise ConfigError(
                f"override {full_path!r}: {declared} is a section; "
                f"override one of its fields instead"
            )
        if not isinstance(value, accepted) or (
            isinstance(value, bool) and declared != "bool"
        ):
            raise ConfigError(
                f"override {full_path!r}: expected {declared}, got "
                f"{type(value).__name__} {value!r}"
            )
        return dataclasses.replace(obj, **{name: value})
    if accepted is not None:
        raise ConfigError(
            f"override {full_path!r}: {name!r} is a field of type "
            f"{declared}, not a section"
        )
    child = _replace_path(getattr(obj, name), full_path, parts[1:], value)
    return dataclasses.replace(obj, **{name: child})


@dataclass(frozen=True)
class CampaignConfig:
    """One named system configuration of a campaign: the paper's NDP
    configuration with ``overrides`` applied. Stored as a sorted tuple
    of ``(dotted_path, value)`` pairs so the spec stays hashable."""

    name: str = "default"
    overrides: Tuple[Tuple[str, object], ...] = ()

    def resolve(self) -> SystemConfig:
        return apply_overrides(ndp_config(), dict(self.overrides))


@dataclass(frozen=True)
class CampaignPoint:
    """One expanded point of the product. ``point_id`` is the content
    address the driver and manifest roll-ups key on."""

    point_id: str
    workload: str
    policy: str
    scale: TraceScale
    seed: int
    config: str

    def describe(self) -> str:
        return (
            f"{self.workload}/{self.policy} @{self.scale.name} "
            f"seed={self.seed} config={self.config}"
        )


@dataclass(frozen=True)
class CampaignSpec:
    """The declaration: axes, configs, pins, exclusions."""

    name: str
    workloads: Tuple[str, ...]
    policies: Tuple[str, ...]
    scales: Tuple[str, ...] = ("SMALL",)
    seeds: Tuple[int, ...] = (0,)
    configs: Tuple[CampaignConfig, ...] = (CampaignConfig(),)
    exclude: Tuple[Tuple[Tuple[str, object], ...], ...] = ()
    pin: Tuple[Tuple[str, object], ...] = ()

    # -- construction --------------------------------------------------

    @classmethod
    def from_dict(cls, data: Mapping) -> "CampaignSpec":
        if not isinstance(data, Mapping):
            raise ConfigError("campaign spec must be a table/object")
        axes = data.get("axes", data)
        if not isinstance(axes, Mapping):
            raise ConfigError(
                f"campaign spec 'axes': expected a table, got "
                f"{type(axes).__name__} {axes!r}"
            )
        workloads = axes.get("workloads")
        if workloads == "suite":
            workloads = list(SUITE_ORDER)
        policies = axes.get("policies")
        name = data.get("name")
        if not name or not isinstance(name, str):
            raise ConfigError("campaign spec needs a string 'name'")
        if not workloads or not isinstance(workloads, (list, tuple)):
            raise ConfigError(
                "campaign spec needs a 'workloads' list (or the string "
                "'suite' for the full Table 2 suite)"
            )
        if not policies or not isinstance(policies, (list, tuple)):
            raise ConfigError("campaign spec needs a 'policies' list")
        configs: List[CampaignConfig] = []
        for raw in _array(data, "configs", [{"name": "default"}]):
            cfg_name = raw.get("name") if isinstance(raw, Mapping) else None
            if not cfg_name or not isinstance(cfg_name, str):
                raise ConfigError(
                    f"every [[configs]] entry needs a 'name', got {raw!r}"
                )
            overrides = _table(
                raw.get("overrides", {}), f"config {cfg_name!r}: 'overrides'"
            )
            configs.append(CampaignConfig(name=cfg_name, overrides=overrides))
        spec = cls(
            name=name,
            workloads=tuple(workloads),
            policies=tuple(policies),
            scales=tuple(_array(axes, "scales", ["SMALL"])),
            seeds=tuple(
                check_seed(s, "seeds") for s in _array(axes, "seeds", [0])
            ),
            configs=tuple(configs),
            exclude=tuple(
                _table(clause, "exclude")
                for clause in _array(data, "exclude", [])
            ),
            pin=_table(data.get("pin", {}), "pin"),
        )
        spec.validate()
        return spec

    def validate(self) -> "CampaignSpec":
        for axis, values in (
            ("workload", self.workloads),
            ("policy", self.policies),
            ("scale", self.scales),
        ):
            for value in values:
                _check_known(axis, value)
        for seed in self.seeds:
            check_seed(seed, "seeds")
        seen = set()
        for config in self.configs:
            if config.name in seen:
                raise ConfigError(f"duplicate config name {config.name!r}")
            seen.add(config.name)
        self.resolved_configs  # raises ConfigError on a bad override
        for key, value in self.pin:
            if key not in _AXES:
                raise ConfigError(
                    f"pin axis {key!r} unknown (axes: {', '.join(_AXES)})"
                )
            if key == "seed":
                check_seed(value, "pinned seed")
            elif key == "config":
                if not isinstance(value, str) or value not in seen:
                    raise ConfigError(f"pinned config {value!r} is not declared")
            else:
                _check_known(key, value)
        for clause in self.exclude:
            for key, _ in clause:
                if key not in _AXES:
                    raise ConfigError(
                        f"exclude axis {key!r} unknown (axes: "
                        f"{', '.join(_AXES)})"
                    )
        return self

    @cached_property
    def resolved_configs(self) -> Mapping[str, SystemConfig]:
        """Every named configuration, resolved once per spec instance.

        Sharing the resolved instances between :meth:`fingerprint`,
        :meth:`expand` and the driver lets each one serialise only once
        (:attr:`repro.config.SystemConfig.canonical_json` memoises per
        instance)."""
        return {c.name: c.resolve() for c in self.configs}

    # -- identity ------------------------------------------------------

    def _canonical(self) -> Dict:
        resolved = self.resolved_configs
        return {
            "name": self.name,
            "workloads": list(self.workloads),
            "policies": list(self.policies),
            "scales": list(self.scales),
            "seeds": list(self.seeds),
            "configs": [
                {"name": c.name, "config": resolved[c.name]} for c in self.configs
            ],
            "exclude": [list(map(list, clause)) for clause in self.exclude],
            "pin": [list(p) for p in self.pin],
        }

    def fingerprint(self) -> str:
        """Identity of the campaign: the expanded product would change
        iff this changes. Code-version independent by design."""
        return content_digest(self._canonical())[:16]

    # -- expansion -----------------------------------------------------

    def _pinned_axes(self) -> Tuple[List[str], List[str], List[str], List[int], List[str]]:
        pin = dict(self.pin)  # values checked by validate()
        workloads = [pin["workload"]] if "workload" in pin else list(self.workloads)
        policies = [pin["policy"]] if "policy" in pin else list(self.policies)
        scales = [pin["scale"]] if "scale" in pin else list(self.scales)
        seeds = [int(pin["seed"])] if "seed" in pin else list(self.seeds)
        if "config" in pin:
            config_names = [pin["config"]]
        else:
            config_names = [c.name for c in self.configs]
        return workloads, policies, scales, seeds, config_names

    def _excluded(self, values: Mapping[str, object]) -> bool:
        for clause in self.exclude:
            if all(values.get(key) == value for key, value in clause):
                return True
        return False

    def expand(self) -> List[CampaignPoint]:
        """The deterministic product: configs x scales x seeds x
        workloads x policies (outer to inner), minus exclusions —
        grouping points that can share a trace (same workload, scale,
        seed, config) adjacently."""
        self.validate()
        workloads, policies, scales, seeds, config_names = self._pinned_axes()
        resolved = self.resolved_configs
        points: List[CampaignPoint] = []
        for config_name, scale_name, seed, workload, policy in itertools.product(
            config_names, scales, seeds, workloads, policies
        ):
            values = {
                "workload": workload,
                "policy": policy,
                "scale": scale_name,
                "seed": seed,
                "config": config_name,
            }
            if self._excluded(values):
                continue
            points.append(
                CampaignPoint(
                    point_id=point_id(
                        workload,
                        policy,
                        scale_name,
                        seed,
                        config_name,
                        resolved[config_name],
                    ),
                    workload=workload,
                    policy=policy,
                    scale=TraceScale[scale_name],
                    seed=seed,
                    config=config_name,
                )
            )
        if not points:
            raise ConfigError(
                f"campaign {self.name!r} expands to zero points "
                "(exclusions removed everything?)"
            )
        return points


def point_id(
    workload: str,
    policy: str,
    scale_name: str,
    seed: int,
    config_name: str,
    resolved_config: SystemConfig,
) -> str:
    """Content address of one campaign point (spec-stable: independent
    of the code version — the result cache's keys carry that)."""
    return content_digest(
        {
            "workload": workload,
            "policy": policy,
            "scale": scale_name,
            "seed": seed,
            "config": config_name,
            "system": resolved_config,
        }
    )[:16]


def _freeze(value):
    """Lists from parsed TOML/JSON become tuples so specs stay hashable."""
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    return value


def _array(table: Mapping, key: str, default: list) -> list:
    """``table[key]`` (or ``default``), which must be a list."""
    value = table.get(key, default)
    if not isinstance(value, (list, tuple)):
        raise ConfigError(
            f"campaign spec {key!r}: expected a list, got "
            f"{type(value).__name__} {value!r}"
        )
    return list(value)


def _table(value, what: str) -> Tuple[Tuple[str, object], ...]:
    """A string-keyed table frozen to sorted ``(key, value)`` pairs."""
    if not isinstance(value, Mapping) or not all(
        isinstance(key, str) for key in value
    ):
        raise ConfigError(
            f"{what}: expected a table, got {type(value).__name__} {value!r}"
        )
    return tuple((key, _freeze(value[key])) for key in sorted(value))


def _check_known(axis: str, value: object) -> None:
    if not isinstance(value, str) or value not in _KNOWN[axis]:
        raise ConfigError(
            f"unknown {axis} {value!r} (known: {', '.join(_KNOWN[axis])})"
        )


# -- file loading -----------------------------------------------------------


def load_spec(path) -> CampaignSpec:
    """Load a campaign spec from a TOML or JSON file. ``.json`` parses
    as JSON; anything else parses as TOML."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as error:
        raise ConfigError(f"cannot read campaign spec {path}: {error}") from None
    if path.suffix.lower() == ".json":
        try:
            data = json.loads(text)
        except ValueError as error:
            raise ConfigError(f"bad JSON in {path}: {error}") from None
    else:
        data = parse_toml(text, source=str(path))
    return CampaignSpec.from_dict(data)


def parse_toml(text: str, source: str = "<campaign spec>") -> Dict:
    """Parse TOML with :mod:`tomllib`; malformed text raises
    :class:`ConfigError`."""
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as error:
        raise ConfigError(f"bad TOML in {source}: {error}") from None
