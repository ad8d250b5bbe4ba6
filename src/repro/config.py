"""System configuration (Table 1 of the paper) and derived quantities.

Everything in the simulator reads its parameters from a
:class:`SystemConfig`. The defaults reproduce Table 1:

* Main GPU: 68 SMs (baseline) / 64 SMs (NDP system), 48 warps/SM,
  32 threads/warp, 1.4 GHz.
* Private L1: 32 KB 4-way write-through; shared L2: 1 MB 16-way
  write-through.
* Off-chip links: 80 GB/s per GPU<->stack link (320 GB/s total),
  40 GB/s per cross-stack link, fully connected.
* Memory stacks: 4 stacks, 16 vaults/stack, 16 banks/vault,
  1 SM per stack logic layer, 160 GB/s internal bandwidth per stack.

The simulator runs in *core cycles* (1.4 GHz); bandwidths given in GB/s
are converted with :func:`SystemConfig.bytes_per_cycle`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Mapping

from .errors import ConfigError
from .utils.bitops import ilog2, is_power_of_two


def env_text(name: str, default: str = "") -> str:
    """The sanctioned ``os.environ`` read (see docs/LINT.md, rule ND03).

    Every ``REPRO_*`` knob flows through here (or one of the other seam
    modules) so the full set of environment inputs stays auditable in
    one place; simulation results must remain a pure function of
    (config, workload, seed) plus these few documented switches.
    """
    return os.environ.get(name, default)


def env_flag(name: str) -> bool:
    """True when ``name`` is set to a truthy flag value.

    Exactly ``"1"``, ``"true"`` or ``"yes"`` — no stripping or case
    folding, preserving the historical behaviour of every call site
    bit-for-bit.
    """
    return env_text(name) in ("1", "true", "yes")


@dataclass(frozen=True)
class MessageConfig:
    """Sizes of the messages exchanged over the off-chip channels.

    Section 3.1.1: address, data word, and register are each 4x the size
    of an acknowledgment. A cache line is ``sc_ratio`` addresses wide
    (128 B line / 4 B address = 32).
    """

    ack_bytes: int = 1
    address_bytes: int = 4
    word_bytes: int = 4
    register_bytes: int = 4
    cache_line_bytes: int = 128
    offload_header_bytes: int = 8

    @property
    def sc_ratio(self) -> int:
        """SC in Equation (4): cache line size over address size."""
        return self.cache_line_bytes // self.address_bytes

    def validate(self) -> None:
        if self.cache_line_bytes % self.address_bytes:
            raise ConfigError("cache line size must be a multiple of address size")
        if not is_power_of_two(self.cache_line_bytes):
            raise ConfigError("cache line size must be a power of two")


@dataclass(frozen=True)
class GpuConfig:
    """Main GPU parameters (Table 1, 'Main GPU')."""

    n_sms: int = 64
    warps_per_sm: int = 48
    warp_size: int = 32
    max_ctas_per_sm: int = 8
    registers_per_sm: int = 32768
    shared_mem_bytes: int = 48 * 1024
    clock_ghz: float = 1.4
    issue_per_cycle: float = 2.0
    # CTA launch pacing: the hardware work distributor starts warps
    # progressively, not all at cycle 0. Without this, every candidate
    # instance makes its offload decision in the same handful of cycles
    # and the pending-count throttle degenerates into a fixed 50% split.
    warp_launch_interval_cycles: float = 1.0
    l1_bytes: int = 32 * 1024
    l1_ways: int = 4
    l2_bytes: int = 1024 * 1024
    l2_ways: int = 16
    l2_bandwidth_gbps: float = 512.0

    def validate(self) -> None:
        if self.n_sms < 1:
            raise ConfigError("need at least one SM")
        if self.warp_size < 1:
            raise ConfigError("warp size must be positive")
        if self.clock_ghz <= 0:
            raise ConfigError("clock must be positive")


@dataclass(frozen=True)
class StackConfig:
    """3D memory stack parameters (Table 1, 'Memory Stack')."""

    n_stacks: int = 4
    sms_per_stack: int = 1
    vaults_per_stack: int = 16
    banks_per_vault: int = 16
    internal_bandwidth_gbps: float = 160.0
    warp_capacity_multiplier: int = 1
    stack_sm_issue_per_cycle: float = 2.0
    dram_latency_cycles: float = 200.0
    row_bytes: int = 4096
    row_miss_penalty_cycles: float = 24.0

    def validate(self) -> None:
        if not is_power_of_two(self.n_stacks):
            raise ConfigError("number of stacks must be a power of two")
        if not is_power_of_two(self.vaults_per_stack):
            raise ConfigError("vaults per stack must be a power of two")
        if self.warp_capacity_multiplier < 1:
            raise ConfigError("warp capacity multiplier must be >= 1")

    @property
    def stack_bits(self) -> int:
        return ilog2(self.n_stacks)

    @property
    def vault_bits(self) -> int:
        return ilog2(self.vaults_per_stack)


@dataclass(frozen=True)
class LinkConfig:
    """Off-chip link parameters (Table 1, 'Off-chip Links').

    Bandwidths are HMC-style *aggregate* per link (both directions
    combined); the fabric provisions half per direction. This reading
    makes the 160 GB/s stack-internal bandwidth "2x the link
    bandwidth", matching Figure 13's 1x/2x internal-bandwidth framing.
    """

    gpu_stack_gbps: float = 80.0
    cross_stack_gbps: float = 40.0
    link_latency_cycles: float = 12.0
    # PCI-E: 16 GB/s aggregate; latency scaled to the (deliberately
    # short) traces simulated here — see DESIGN.md on trace scaling.
    pcie_gbps: float = 16.0
    pcie_latency_cycles: float = 350.0

    def validate(self) -> None:
        if self.gpu_stack_gbps <= 0 or self.cross_stack_gbps <= 0:
            raise ConfigError("link bandwidths must be positive")


@dataclass(frozen=True)
class CompilerConfig:
    """Static-analysis assumptions of Section 3.1.1."""

    assumed_load_miss_rate: float = 0.5
    assumed_load_coalescing: float = 1.0
    assumed_store_coalescing: float = 1.0
    # Exclude live-ins that are compile-time constants at region entry
    # from REG_TX (they ship in the metadata, not the request packet);
    # this is how Figure 4 counts the LIBOR loop at 5 live-in values.
    constant_propagation: bool = True

    def validate(self) -> None:
        if not 0.0 <= self.assumed_load_miss_rate <= 1.0:
            raise ConfigError("miss rate must be within [0, 1]")
        if self.assumed_load_coalescing < 1.0 or self.assumed_store_coalescing < 1.0:
            raise ConfigError("coalescing ratios are >= 1 (lines per warp access)")


@dataclass(frozen=True)
class ControlConfig:
    """Runtime offloading control (Section 3.3) and learning (Section 4.3)."""

    offload_decision_cycles: float = 10.0
    channel_busy_threshold: float = 0.90
    monitor_window_cycles: float = 2048.0
    learn_fraction: float = 0.001
    min_learn_instances: int = 2
    # Apply the learned mapping only when it actually co-locates:
    # below this the workload is irregular (BFS-like) and concentrating
    # its pages would cost main-GPU bandwidth for no NDP benefit.
    min_learned_colocation: float = 0.45
    coherence_invalidate_cycles: float = 2.0
    # Section 6.4's future-work extension, implemented here as an
    # option: refuse to offload ALU-rich candidate blocks while the
    # destination stack SM's compute pipeline is saturated (RD's 4x
    # warp-capacity regression is exactly this failure mode).
    alu_aware_control: bool = False
    alu_fraction_threshold: float = 0.5
    # Ablation switch: when False the hardware ignores the compiler's
    # conditional-offloading hints (Section 3.1.3) and offloads every
    # candidate instance regardless of its runtime trip count.
    respect_conditions: bool = True

    def validate(self) -> None:
        if not 0.0 < self.channel_busy_threshold <= 1.0:
            raise ConfigError("busy threshold must be in (0, 1]")
        if not 0.0 < self.learn_fraction < 1.0:
            raise ConfigError("learn fraction must be in (0, 1)")
        if not 0.0 <= self.alu_fraction_threshold <= 1.0:
            raise ConfigError("ALU fraction threshold must be in [0, 1]")


@dataclass(frozen=True)
class EnergyConfig:
    """Energy constants from Section 5.1 (GPUWattch / Rambus / HMC models)."""

    link_pj_per_bit: float = 2.0
    link_idle_pj_per_bit_cycle: float = 1.5
    row_activate_nj: float = 11.8
    dram_read_pj_per_bit: float = 4.0
    sm_dynamic_pj_per_instr: float = 30.0
    sm_leakage_w_per_sm: float = 0.4

    def validate(self) -> None:
        if self.link_pj_per_bit < 0 or self.dram_read_pj_per_bit < 0:
            raise ConfigError("energy constants must be non-negative")


@dataclass(frozen=True)
class TranslationConfig:
    """Stack-SM virtual address translation (Section 4.4.1).

    Off by default: the paper folds address translation into the SM
    model on both the baseline and NDP sides; enabling it charges TLB
    misses on stack SMs with explicit page-table walks (remote ones
    over the cross-stack links).
    """

    enabled: bool = False
    tlb_entries: int = 64

    def validate(self) -> None:
        if self.tlb_entries < 1:
            raise ConfigError("TLB needs at least one entry")


@dataclass(frozen=True)
class MappingConfig:
    """Address mapping parameters (Sections 3.2 and 5.1)."""

    page_bytes: int = 4096
    sweep_low_bit: int = 7
    sweep_high_bit: int = 16
    xor_folds: int = 2

    def validate(self) -> None:
        if not is_power_of_two(self.page_bytes):
            raise ConfigError("page size must be a power of two")
        if self.sweep_low_bit > self.sweep_high_bit:
            raise ConfigError("mapping sweep range is empty")


@dataclass(frozen=True)
class SystemConfig:
    """The full system; build via :func:`baseline_config` / :func:`ndp_config`."""

    gpu: GpuConfig = field(default_factory=GpuConfig)
    stacks: StackConfig = field(default_factory=StackConfig)
    links: LinkConfig = field(default_factory=LinkConfig)
    messages: MessageConfig = field(default_factory=MessageConfig)
    compiler: CompilerConfig = field(default_factory=CompilerConfig)
    control: ControlConfig = field(default_factory=ControlConfig)
    energy: EnergyConfig = field(default_factory=EnergyConfig)
    mapping: MappingConfig = field(default_factory=MappingConfig)
    translation: TranslationConfig = field(default_factory=TranslationConfig)
    ndp_enabled: bool = True

    def validate(self) -> "SystemConfig":
        for section in (
            self.gpu,
            self.stacks,
            self.links,
            self.messages,
            self.compiler,
            self.control,
            self.energy,
            self.mapping,
            self.translation,
        ):
            section.validate()
        line_bit = ilog2(self.messages.cache_line_bytes)
        if self.mapping.sweep_low_bit < line_bit:
            raise ConfigError(
                "mapping sweep must not slice cache-line offset bits "
                f"(low bit {self.mapping.sweep_low_bit} < line bit {line_bit})"
            )
        return self

    def bytes_per_cycle(self, gbps: float) -> float:
        """Convert GB/s into bytes per 1.4 GHz core cycle."""
        return gbps / self.gpu.clock_ghz

    @property
    def cycle_seconds(self) -> float:
        return 1e-9 / self.gpu.clock_ghz

    @property
    def total_warp_slots_main(self) -> int:
        return self.gpu.n_sms * self.gpu.warps_per_sm

    @property
    def stack_warp_slots(self) -> int:
        return self.gpu.warps_per_sm * self.stacks.warp_capacity_multiplier

    @property
    def vault_bandwidth_gbps(self) -> float:
        return self.stacks.internal_bandwidth_gbps / self.stacks.vaults_per_stack

    def replace(self, **kwargs) -> "SystemConfig":
        """Functional update; accepts both section objects and dotted
        shortcuts handled by the experiment helpers."""
        return dataclasses.replace(self, **kwargs)

    @cached_property
    def canonical_json(self) -> str:
        """Sorted-key, compact JSON of ``asdict(self)``: the form every
        content key (result cache, manifest, campaign) hashes.

        Computed once per *instance* and stored in the instance's
        ``__dict__``, outside the dataclass fields, so equality, hashing
        and ``dataclasses.replace`` never see it (a replaced config is a
        new instance with no memo). The memo is deliberately keyed by
        identity, not equality: ``1 == 1.0``, yet the two serialise
        differently, so two equal configs may carry different keys.
        """
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))


def content_digest(payload: Mapping[str, object]) -> str:
    """SHA-256 hex digest of a content-key payload.

    Hashes exactly the bytes of ``json.dumps(payload, sort_keys=True,
    separators=(",", ":"))`` with every :class:`SystemConfig` inside the
    payload replaced by ``asdict(config)`` — but splices in each
    config's memoised :attr:`SystemConfig.canonical_json` instead of
    re-serialising it. Payloads hold only string-keyed dicts, lists,
    tuples, configs and JSON scalars.
    """
    return hashlib.sha256(_encode(payload).encode()).hexdigest()


def _encode(value) -> str:
    if isinstance(value, SystemConfig):
        return value.canonical_json
    if isinstance(value, dict):
        return "{" + ",".join(
            f"{json.dumps(key)}:{_encode(value[key])}" for key in sorted(value)
        ) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_encode(item) for item in value) + "]"
    return json.dumps(value)


def baseline_config() -> SystemConfig:
    """The non-NDP baseline: 68 main SMs, no logic-layer SMs used."""
    return SystemConfig(
        gpu=GpuConfig(n_sms=68),
        ndp_enabled=False,
    ).validate()


def ndp_config(
    warp_capacity_multiplier: int = 1,
    internal_bandwidth_ratio: float = 2.0,
    cross_stack_ratio: float = 0.5,
) -> SystemConfig:
    """The NDP system: 64 main SMs + 1 SM per stack (same SM total).

    ``internal_bandwidth_ratio`` scales stack-internal bandwidth relative
    to the 80 GB/s external link (Figure 13 uses 1.0 and 2.0);
    ``cross_stack_ratio`` scales cross-stack links relative to the
    GPU<->stack links (Section 6.5 sweeps 0.125-1.0).
    """
    gpu_stack_gbps = 80.0
    return SystemConfig(
        gpu=GpuConfig(n_sms=64),
        stacks=StackConfig(
            warp_capacity_multiplier=warp_capacity_multiplier,
            internal_bandwidth_gbps=gpu_stack_gbps * internal_bandwidth_ratio,
        ),
        links=LinkConfig(
            gpu_stack_gbps=gpu_stack_gbps,
            cross_stack_gbps=gpu_stack_gbps * cross_stack_ratio,
        ),
        ndp_enabled=True,
    ).validate()
