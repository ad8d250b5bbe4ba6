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
invalidation). That determinism is what makes skip-completed, resume,
and the service's cache-or-enqueue decision trustworthy.

TOML is parsed with :mod:`tomllib` where available (Python >= 3.11)
and otherwise with a small built-in fallback parser covering the
subset above — no third-party dependency either way.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..config import SystemConfig, content_digest, ndp_config
from ..core.policies import POLICIES_BY_LABEL
from ..errors import ConfigError
from ..trace.generator import TraceScale
from ..workloads.suite import SUITE_ORDER

#: The axes a pin or exclusion clause may name.
_AXES = ("workload", "policy", "scale", "seed", "config")


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
    address the driver, manifest roll-ups, and the service key on."""

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
        scales = axes.get("scales", ["SMALL"])
        seeds = axes.get("seeds", [0])
        configs: List[CampaignConfig] = []
        for raw in data.get("configs", [{"name": "default"}]):
            cfg_name = raw.get("name")
            if not cfg_name or not isinstance(cfg_name, str):
                raise ConfigError("every [[configs]] entry needs a 'name'")
            overrides = raw.get("overrides", {})
            if not isinstance(overrides, Mapping):
                raise ConfigError(
                    f"config {cfg_name!r}: 'overrides' must be a table"
                )
            configs.append(
                CampaignConfig(
                    name=cfg_name,
                    overrides=tuple(
                        (k, _freeze(overrides[k])) for k in sorted(overrides)
                    ),
                )
            )
        exclude = tuple(
            tuple((k, _freeze(clause[k])) for k in sorted(clause))
            for clause in data.get("exclude", [])
        )
        pin_raw = data.get("pin", {})
        pin = tuple((k, _freeze(pin_raw[k])) for k in sorted(pin_raw))
        spec = cls(
            name=name,
            workloads=tuple(workloads),
            policies=tuple(policies),
            scales=tuple(scales),
            seeds=tuple(int(s) for s in seeds),
            configs=tuple(configs),
            exclude=exclude,
            pin=pin,
        )
        spec.validate()
        return spec

    def validate(self) -> "CampaignSpec":
        labels = POLICIES_BY_LABEL
        for workload in self.workloads:
            if workload not in SUITE_ORDER:
                raise ConfigError(
                    f"unknown workload {workload!r} (suite: "
                    f"{', '.join(SUITE_ORDER)})"
                )
        for policy in self.policies:
            if policy not in labels:
                raise ConfigError(
                    f"unknown policy {policy!r} (known: "
                    f"{', '.join(sorted(labels))})"
                )
        for scale in self.scales:
            if scale not in TraceScale.__members__:
                raise ConfigError(
                    f"unknown scale {scale!r} (known: "
                    f"{', '.join(s.name for s in TraceScale)})"
                )
        seen = set()
        for config in self.configs:
            if config.name in seen:
                raise ConfigError(f"duplicate config name {config.name!r}")
            seen.add(config.name)
        self.resolved_configs  # raises ConfigError on a bad override
        for key, _ in self.pin:
            if key not in _AXES:
                raise ConfigError(
                    f"pin axis {key!r} unknown (axes: {', '.join(_AXES)})"
                )
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
        pin = dict(self.pin)
        workloads = [str(pin["workload"])] if "workload" in pin else list(self.workloads)
        policies = [str(pin["policy"])] if "policy" in pin else list(self.policies)
        scales = [str(pin["scale"])] if "scale" in pin else list(self.scales)
        seeds = [int(pin["seed"])] if "seed" in pin else list(self.seeds)  # type: ignore[arg-type]
        config_names = [c.name for c in self.configs]
        if "config" in pin:
            config_names = [str(pin["config"])]
            if config_names[0] not in {c.name for c in self.configs}:
                raise ConfigError(
                    f"pinned config {config_names[0]!r} is not declared"
                )
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


# -- file loading -----------------------------------------------------------


def load_spec(path) -> CampaignSpec:
    """Load a campaign spec from a TOML or JSON file. ``.json`` parses
    as JSON; anything else parses as TOML (via :mod:`tomllib` on
    Python >= 3.11, else the built-in fallback subset parser)."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as error:
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
    """Parse TOML with :mod:`tomllib` when the interpreter has it,
    falling back to the subset parser below (Python 3.10 support —
    no new dependency either way)."""
    try:
        import tomllib
    except ImportError:
        return _parse_toml_fallback(text, source)
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as error:
        raise ConfigError(f"bad TOML in {source}: {error}") from None


def _parse_toml_fallback(text: str, source: str) -> Dict:
    """A deliberately small TOML subset parser: ``[tables]``,
    ``[[arrays of tables]]``, bare/quoted keys (quoted keys may contain
    dots), strings, integers, floats, booleans, and single-line arrays.
    Exactly what a campaign spec needs; anything fancier should use a
    Python >= 3.11 interpreter or a ``.json`` spec."""
    root: Dict = {}
    current: Dict = root
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[["):
            if not line.endswith("]]"):
                raise ConfigError(f"{source}:{lineno}: malformed table array header")
            parts = _split_key(line[2:-2].strip(), source, lineno)
            parent = _navigate(root, parts[:-1], source, lineno)
            array = parent.setdefault(parts[-1], [])
            if not isinstance(array, list):
                raise ConfigError(
                    f"{source}:{lineno}: {'.'.join(parts)} is not a table array"
                )
            current = {}
            array.append(current)
        elif line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"{source}:{lineno}: malformed table header")
            parts = _split_key(line[1:-1].strip(), source, lineno)
            parent = _navigate(root, parts[:-1], source, lineno)
            existing = parent.get(parts[-1])
            if existing is None:
                current = {}
                parent[parts[-1]] = current
            elif isinstance(existing, dict):
                current = existing
            else:
                raise ConfigError(
                    f"{source}:{lineno}: {'.'.join(parts)} is not a table"
                )
        else:
            key_text, sep, value_text = _partition_assignment(line)
            if not sep:
                raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
            parts = _split_key(key_text.strip(), source, lineno)
            target = _navigate(current, parts[:-1], source, lineno)
            target[parts[-1]] = _parse_value(value_text.strip(), source, lineno)
    return root


def _partition_assignment(line: str) -> Tuple[str, str, str]:
    """Split on the first ``=`` outside quotes (keys may be quoted and
    contain ``=``-free dots; values may contain ``=`` inside strings)."""
    quote: Optional[str] = None
    for i, ch in enumerate(line):
        if quote:
            if ch == quote:
                quote = None
        elif ch in "\"'":
            quote = ch
        elif ch == "=":
            return line[:i], "=", line[i + 1 :]
    return line, "", ""


def _split_key(text: str, source: str, lineno: int) -> List[str]:
    """Dotted keys split on dots; quoted segments keep their dots."""
    parts: List[str] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in "\"'":
            end = text.find(ch, i + 1)
            if end < 0:
                raise ConfigError(f"{source}:{lineno}: unterminated quoted key")
            parts.append(text[i + 1 : end])
            i = end + 1
        else:
            end = text.find(".", i)
            if end < 0:
                end = n
            segment = text[i:end].strip()
            if segment:
                parts.append(segment)
            i = end
        if i < n:
            if text[i].strip() and text[i] != ".":
                raise ConfigError(f"{source}:{lineno}: malformed key {text!r}")
            i += 1
    if not parts:
        raise ConfigError(f"{source}:{lineno}: empty key")
    return parts


def _navigate(container: Dict, parts: Sequence[str], source: str, lineno: int) -> Dict:
    for part in parts:
        nxt = container.setdefault(part, {})
        if isinstance(nxt, list):
            if not nxt:
                raise ConfigError(f"{source}:{lineno}: empty table array {part!r}")
            nxt = nxt[-1]
        if not isinstance(nxt, dict):
            raise ConfigError(f"{source}:{lineno}: {part!r} is not a table")
        container = nxt
    return container


def _parse_value(text: str, source: str, lineno: int):
    if not text:
        raise ConfigError(f"{source}:{lineno}: missing value")
    if text[0] in "\"'":
        if len(text) < 2 or text[-1] != text[0]:
            raise ConfigError(f"{source}:{lineno}: unterminated string")
        return text[1:-1]
    if text.startswith("["):
        if not text.endswith("]"):
            raise ConfigError(
                f"{source}:{lineno}: arrays must close on the same line"
            )
        return [
            _parse_value(item, source, lineno)
            for item in _split_array(text[1:-1], source, lineno)
        ]
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{source}:{lineno}: cannot parse value {text!r}") from None


def _split_array(body: str, source: str, lineno: int) -> List[str]:
    items: List[str] = []
    depth = 0
    quote: Optional[str] = None
    start = 0
    for i, ch in enumerate(body):
        if quote:
            if ch == quote:
                quote = None
        elif ch in "\"'":
            quote = ch
        elif ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif ch == "," and depth == 0:
            item = body[start:i].strip()
            if item:
                items.append(item)
            start = i + 1
    tail = body[start:].strip()
    if tail:
        items.append(tail)
    if quote or depth:
        raise ConfigError(f"{source}:{lineno}: malformed array")
    return items
