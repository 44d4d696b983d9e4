"""Router configuration.

A single frozen dataclass carries every microarchitectural parameter the
paper varies, with defaults matching the paper's main evaluation point:
radix 64, four virtual channels, four cycles of switch traversal per
flit, four-flit crosspoint buffers, subswitch size 8, and local
arbitration groups of 8 inputs (Section 4.3, Section 5.3, Section 6).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any


VALID_VC_ALLOCATORS = ("cva", "ova")


@dataclass(frozen=True)
class RouterConfig:
    """Parameters of a single router.

    Attributes:
        radix: Number of input ports == number of output ports (k).
        num_vcs: Virtual channels per port (v).
        flit_cycles: Cycles a flit needs to traverse the switch, the
            input row bus, or the output column (the paper uses 4:
            "each flit taking 4 cycles to traverse the switch").  A
            switch grant holds its input and output resources for this
            many cycles, so the per-port capacity is one flit every
            ``flit_cycles`` cycles.
        input_buffer_depth: Flit slots per input virtual channel.
        crosspoint_buffer_depth: Flit slots per (crosspoint, VC) buffer
            in the fully buffered crossbar, and the default subswitch
            boundary buffer depth for the hierarchical crossbar.
        subswitch_size: p, the radix of each subswitch in the
            hierarchical crossbar; must divide ``radix``.
        subswitch_input_depth / subswitch_output_depth: Flit slots per
            VC at the subswitch boundaries; when 0 they default to
            ``crosspoint_buffer_depth``.
        local_group_size: m, the number of inputs handled by each local
            output arbiter of the distributed switch allocator
            (Figure 6; the paper uses m=8).
        vc_allocator: "cva" (crosspoint VC allocation) or "ova" (output
            VC allocation); see Section 4.2.
        prioritize_nonspeculative: Use the two-arbiter switch allocator
            of Figure 10(b) that grants speculative requests only when
            no nonspeculative request wants the output.
        sa_latency: Pipeline latency, in cycles, between a switch
            request leaving the input arbiter and the grant decision
            (covers the wire stage plus local and global output
            arbitration, SA1..SA3 of Figure 7).
        ova_extra_latency: Additional cycles OVA spends checking the
            output VC after switch allocation completes.
        route_latency: Route-computation pipeline depth (RC stage).
        credit_latency: Cycles for a credit to travel back to the
            input (used for crosspoint and subswitch buffer credits).
        ideal_credit_return: If True, crosspoint credits return
            immediately instead of arbitrating for the shared per-row
            credit return bus (the "ideal but not realizable" scheme of
            Section 5.2).
        speculative: Enable speculative VC allocation (switch
            allocation proceeds before VC allocation completes).  The
            paper's high-radix routers always speculate; disabling is
            provided for ablation.
        batch_hot_path: Run the buffered crossbar's arbitration and
            eligibility hot loops as struct-of-arrays numpy batches (see
            docs/architecture.md, "Batched hot path").  Only
            :class:`~repro.routers.buffered.BufferedCrossbarRouter`
            reads this flag; every other organization ignores it.
            Byte-identical to the scalar path by contract; silently
            falls back to the scalar path when numpy is unavailable.
        seed: Seed for all randomized tie-breaking and traffic.
    """

    radix: int = 64
    num_vcs: int = 4
    flit_cycles: int = 4
    input_buffer_depth: int = 16
    crosspoint_buffer_depth: int = 4
    subswitch_size: int = 8
    subswitch_input_depth: int = 0
    subswitch_output_depth: int = 0
    local_group_size: int = 8
    vc_allocator: str = "cva"
    prioritize_nonspeculative: bool = False
    sa_latency: int = 3
    ova_extra_latency: int = 1
    route_latency: int = 1
    credit_latency: int = 2
    ideal_credit_return: bool = False
    speculative: bool = True
    batch_hot_path: bool = False
    seed: int = 1

    def __post_init__(self) -> None:
        if self.radix < 2:
            raise ValueError(f"radix must be >= 2, got {self.radix}")
        if self.num_vcs < 1:
            raise ValueError(f"num_vcs must be >= 1, got {self.num_vcs}")
        if self.flit_cycles < 1:
            raise ValueError(
                f"flit_cycles must be >= 1, got {self.flit_cycles}"
            )
        if self.input_buffer_depth < 1:
            raise ValueError(
                f"input_buffer_depth must be >= 1, got {self.input_buffer_depth}"
            )
        if self.crosspoint_buffer_depth < 1:
            raise ValueError(
                "crosspoint_buffer_depth must be >= 1, got "
                f"{self.crosspoint_buffer_depth}"
            )
        if self.subswitch_size < 1 or self.radix % self.subswitch_size:
            raise ValueError(
                f"subswitch_size {self.subswitch_size} must divide radix "
                f"{self.radix}"
            )
        if self.local_group_size < 1:
            raise ValueError(
                f"local_group_size must be >= 1, got {self.local_group_size}"
            )
        if self.vc_allocator not in VALID_VC_ALLOCATORS:
            raise ValueError(
                f"vc_allocator must be one of {VALID_VC_ALLOCATORS}, got "
                f"{self.vc_allocator!r}"
            )
        # A negative delay would grant or forward before the request.
        for name in (
            "sa_latency", "ova_extra_latency", "route_latency",
            "credit_latency", "subswitch_input_depth",
            "subswitch_output_depth",
        ):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")

    @property
    def num_subswitches_per_side(self) -> int:
        """k/p: subswitch rows (== columns) in the hierarchical crossbar."""
        return self.radix // self.subswitch_size

    @property
    def subswitch_in_depth(self) -> int:
        """Effective subswitch input buffer depth (per VC)."""
        return self.subswitch_input_depth or self.crosspoint_buffer_depth

    @property
    def subswitch_out_depth(self) -> int:
        """Effective subswitch output buffer depth (per VC)."""
        return self.subswitch_output_depth or self.crosspoint_buffer_depth

    @property
    def capacity_flits_per_cycle(self) -> float:
        """Per-port capacity: one flit per ``flit_cycles`` cycles."""
        return 1.0 / self.flit_cycles

    def with_(self, **changes: Any) -> "RouterConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


#: The paper's main evaluation point (Section 4.3): radix 64, 4 VCs,
#: 4-cycle switch traversal per flit.
PAPER_CONFIG = RouterConfig()

#: A reduced-scale configuration with identical structure, used by the
#: default benchmark harness so pure-Python simulation stays tractable.
FAST_CONFIG = RouterConfig(radix=32, subswitch_size=8, local_group_size=8)
