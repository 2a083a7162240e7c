"""Machine configuration for the simulated out-of-order core.

Defaults approximate the paper's test system, an Intel Xeon Gold 6126
(Skylake-SP, 2.6 GHz base): a 4-wide allocation pipeline fed by a decoded
stream buffer (DSB), a legacy decode pipeline (MITE), and a microcode
sequencer (MS); eight execution ports; and a four-level memory hierarchy.
Latencies and structure sizes follow public Skylake-SP documentation; they
only need to be *plausible*, since SPIRE never sees them — it observes the
resulting counter statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError


@dataclass(frozen=True, slots=True)
class PortSpec:
    """One execution port and the micro-op classes it accepts."""

    name: str
    uop_classes: frozenset[str]


def _default_ports() -> tuple[PortSpec, ...]:
    """Skylake-SP port map (simplified to the classes the model issues)."""
    return (
        PortSpec("p0", frozenset({"alu", "fp", "div", "branch"})),
        PortSpec("p1", frozenset({"alu", "fp", "mul"})),
        PortSpec("p2", frozenset({"load"})),
        PortSpec("p3", frozenset({"load"})),
        PortSpec("p4", frozenset({"store_data"})),
        PortSpec("p5", frozenset({"alu", "fp", "shuffle"})),
        PortSpec("p6", frozenset({"alu", "branch"})),
        PortSpec("p7", frozenset({"store_addr"})),
    )


@dataclass(frozen=True, slots=True)
class MachineConfig:
    """Microarchitectural parameters of the simulated core."""

    name: str = "xeon-gold-6126"
    frequency_ghz: float = 2.6

    # Pipeline geometry.
    pipeline_width: int = 4          # allocation/rename slots per cycle
    dsb_width: float = 6.0           # uops/cycle from the decoded stream buffer
    mite_width: float = 3.2          # uops/cycle from the legacy decode pipeline
    ms_width: float = 1.6            # uops/cycle from the microcode sequencer
    ms_switch_penalty: float = 2.0   # cycles lost per DSB/MITE -> MS switch
    dsb_miss_penalty: float = 1.2    # cycles lost per DSB -> MITE switch burst

    # Speculation.
    branch_mispredict_penalty: float = 17.0   # recovery cycles per mispredict
    wasted_uops_per_mispredict: float = 24.0  # issued-but-not-retired uops

    # Out-of-order resources.
    rob_size: int = 224
    scheduler_size: int = 97
    load_buffer_size: int = 72
    store_buffer_size: int = 56

    # Execution.
    ports: tuple[PortSpec, ...] = field(default_factory=_default_ports)
    divider_latency: float = 24.0    # non-pipelined scalar/vector divide
    supported_vector_bits: tuple[int, ...] = (128, 256, 512)
    vector_width_transition_penalty: float = 3.0  # cycles per 256<->512 mix event

    # Memory hierarchy (load-to-use latencies, cycles).
    l1_latency: float = 4.0
    l2_latency: float = 14.0
    l3_latency: float = 50.0
    dram_latency: float = 210.0
    lock_load_penalty: float = 28.0  # serialization cost of a locked load
    tlb_walk_latency: float = 30.0   # cycles per dTLB page walk
    max_outstanding_misses: int = 10  # MSHR-style memory-level-parallelism cap

    # PMU geometry (per logical core).
    num_programmable_counters: int = 4
    num_fixed_counters: int = 3

    def __post_init__(self) -> None:
        if self.pipeline_width < 1:
            raise ConfigError("pipeline_width must be at least 1")
        if not self.ports:
            raise ConfigError("a machine needs at least one execution port")
        for width_name in ("dsb_width", "mite_width", "ms_width"):
            if getattr(self, width_name) <= 0:
                raise ConfigError(f"{width_name} must be positive")
        if self.num_programmable_counters < 1:
            raise ConfigError("need at least one programmable counter")
        latencies = (self.l1_latency, self.l2_latency, self.l3_latency, self.dram_latency)
        if any(b <= a for a, b in zip(latencies, latencies[1:])):
            raise ConfigError("memory latencies must strictly increase with level")
        if self.max_outstanding_misses < 1:
            raise ConfigError("max_outstanding_misses must be at least 1")

    @property
    def slots_per_cycle(self) -> int:
        """Top-Down pipeline slots issued per cycle."""
        return self.pipeline_width

    def ports_for(self, uop_class: str) -> list[PortSpec]:
        """Execution ports that can service the given micro-op class."""
        matches = [p for p in self.ports if uop_class in p.uop_classes]
        if not matches:
            raise ConfigError(f"no port services uop class {uop_class!r}")
        return matches

    def cycles_per_second(self) -> float:
        return self.frequency_ghz * 1e9


def skylake_gold_6126() -> MachineConfig:
    """The default machine: the paper's Xeon Gold 6126 analog."""
    return MachineConfig()


def little_inorder_core() -> MachineConfig:
    """A small 2-wide core used to demonstrate architecture independence.

    Roughly an ARM Cortex-A55-class configuration: narrower pipeline, no
    DSB advantage, two programmable counters (the paper's Cortex-A5
    example of a counter-starved design).
    """
    return MachineConfig(
        name="little-inorder",
        frequency_ghz=1.8,
        pipeline_width=2,
        dsb_width=2.0,
        mite_width=2.0,
        ms_width=1.0,
        branch_mispredict_penalty=8.0,
        wasted_uops_per_mispredict=8.0,
        rob_size=32,
        scheduler_size=16,
        load_buffer_size=16,
        store_buffer_size=12,
        ports=(
            PortSpec("p0", frozenset({"alu", "fp", "div", "branch", "mul", "shuffle"})),
            PortSpec("p1", frozenset({"alu", "load", "store_data", "store_addr"})),
        ),
        divider_latency=12.0,
        supported_vector_bits=(128,),
        l1_latency=3.0,
        l2_latency=12.0,
        l3_latency=30.0,
        dram_latency=160.0,
        lock_load_penalty=16.0,
        max_outstanding_misses=4,
        num_programmable_counters=2,
    )
