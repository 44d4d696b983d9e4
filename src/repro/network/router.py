"""Network-level router model.

Figure 19 simulates 4096-node Clos networks; the paper notes that
"because of the complexity of simulating a large network, we use the
simulation methodology outlined in [19] to reduce the simulation time
with minimal loss in the accuracy of the simulation".  In the same
spirit this module provides a reduced-detail router for multi-router
simulation: an input-queued VC router with

* per-VC input buffers and credit-based flow control toward the
  downstream router (real backpressure, unlike the standalone switch
  models whose outputs always drain);
* source routing (each flit carries its remaining output-port list);
* single-cycle separable allocation plus a configurable
  ``pipeline_delay`` that models the internal pipeline depth of the
  actual (hierarchical) router microarchitecture — deeper for higher
  radix, per Section 2's t_r = t_cy (X + Y log2 k);
* the same ``flit_cycles`` switch/channel serialization as the
  switch-level models.

The absolute saturation point of a single router is taken from the
switch-level simulations; what the network simulation adds — hop count,
serialization, queueing across stages, and backpressure — is what
Figure 19 is about (zero-load latency and network-level saturation of
high- vs low-radix Clos networks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..core.arbiter import RoundRobinArbiter
from ..core.errors import invariant
from ..core.buffers import VcBufferBank
from ..core.credit import CreditCounter
from ..core.flit import Flit
from ..core.pipeline import BusyTracker, DelayLine
from ..core.vcstate import OutputVcState
from ..engine.component import AlwaysActive, Component
from ..engine.hooks import EngineHooks


@dataclass(frozen=True)
class NetworkRouterConfig:
    """Parameters of one network router (and its output channels)."""

    num_ports: int
    num_vcs: int = 4
    buffer_depth: int = 8
    flit_cycles: int = 4
    pipeline_delay: int = 3
    channel_latency: int = 1
    credit_latency: int = 1

    def __post_init__(self) -> None:
        if self.num_ports < 2:
            raise ValueError(f"num_ports must be >= 2, got {self.num_ports}")
        if self.num_vcs < 1:
            raise ValueError(f"num_vcs must be >= 1, got {self.num_vcs}")
        if self.buffer_depth < 1:
            raise ValueError(
                f"buffer_depth must be >= 1, got {self.buffer_depth}"
            )
        if self.flit_cycles < 1:
            raise ValueError(
                f"flit_cycles must be >= 1, got {self.flit_cycles}"
            )
        check_delays(self)


def check_delays(config) -> None:
    """Reject a negative ``pipeline_delay``, ``channel_latency`` or
    ``credit_latency`` on a router or network config.

    A negative delay would otherwise run and report latencies below
    what the network can deliver, or fail deep in a delay line.
    """
    for name in ("pipeline_delay", "channel_latency", "credit_latency"):
        value = getattr(config, name)
        if value is not None and value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")


def pipeline_depth_for_radix(radix: int, base: int = 2) -> int:
    """Router pipeline depth scaling as X + log2(k)/2 (Section 2)."""
    return base + max(1, round(math.log2(radix) / 2))


class OutputLink:
    """One router output port: where it leads and its flow-control state.

    ``alive`` models link failure (repro.faults): a dead link stops
    transmitting — flits queued toward it simply wait — until the fault
    schedule brings it back up.
    """

    __slots__ = ("deliver", "space", "vc_state", "credits", "is_host",
                 "alive")

    def __init__(
        self,
        num_vcs: int,
        deliver: Callable[[Flit, int], None],
        downstream_depth: Optional[int],
    ) -> None:
        self.deliver = deliver
        self.vc_state = OutputVcState(num_vcs)
        self.is_host = downstream_depth is None
        self.alive = True
        if downstream_depth is None:
            self.credits: Optional[List[CreditCounter]] = None
        else:
            self.credits = [
                CreditCounter(downstream_depth) for _ in range(num_vcs)
            ]

    def credit_available(self, vc: int) -> bool:
        return self.credits is None or self.credits[vc].available

    def consume_credit(self, vc: int) -> None:
        if self.credits is not None:
            self.credits[vc].consume()

    def restore_credit(self, vc: int) -> None:
        if self.credits is not None:
            self.credits[vc].restore()


class NetworkRouter(Component):
    """Reduced-detail input-queued VC router for network simulation."""

    # The reduced-detail model folds its internal pipeline into a fixed
    # ``pipeline_delay``, so only arrival ("RC") and link transmission
    # ("ST") are observable per hop.
    TRACE_STAGES = ("RC", "ST")

    def __init__(self, config: NetworkRouterConfig, name: str = "") -> None:
        self.config = config
        self.name = name
        self.cycle = 0
        self.hooks = EngineHooks()
        n, v = config.num_ports, config.num_vcs
        self.inputs = [VcBufferBank(v, config.buffer_depth) for _ in range(n)]
        self.links: List[Optional[OutputLink]] = [None] * n
        self._input_arb = [RoundRobinArbiter(v) for _ in range(n)]
        self._output_arb = [RoundRobinArbiter(n) for _ in range(n)]
        self.input_busy = BusyTracker(n)
        self.output_busy = BusyTracker(n)
        # Credits owed upstream: (sink, vc) pairs delayed by
        # credit_latency, kept unapplied so sanitizers can count them.
        self._credit_out: DelayLine[Tuple[Callable[[int], None], int]] = DelayLine(
            config.credit_latency
        )
        # Per-input credit-return callbacks, installed during wiring.
        self.credit_sinks: List[Optional[Callable[[int], None]]] = [None] * n
        # Output VC releases pending tail departure.
        self._vc_release: DelayLine[Tuple[int, int, int]] = DelayLine(
            config.flit_cycles
        )
        # Per-input activity flags (see routers.base.Router): allocation
        # skips inputs whose banks are known-empty.
        self._in_active: Union[List[bool], AlwaysActive] = [False] * n
        # Buffered flits, by conservation (accepts minus transmits):
        # O(1) where occupancy() scans every bank.
        self._resident = 0
        self._staged_credits: tuple = ()
        self._staged_releases: tuple = ()
        # Fault machinery (repro.faults): wedged input read ports and
        # the NetworkFaultInjector that may claim committed credit
        # deliveries.  Inert (one None/empty-set test) without a plan.
        self._stuck_inputs: set = set()
        self.fault_injector = None

    # ------------------------------------------------------------------

    def attach(self, port: int, link: OutputLink) -> None:
        """Install the output link for ``port``."""
        if self.links[port] is not None:
            raise RuntimeError(f"{self.name}: port {port} already attached")
        self.links[port] = link

    def accept(self, port: int, flit: Flit) -> None:
        self.inputs[port][flit.vc].push(flit)
        self._in_active[port] = True
        self._resident += 1
        if self.hooks.flit_move:
            self.hooks.emit_flit_move("accept", flit, port, self.cycle)
        if self.hooks.stage_enter:
            self.hooks.emit_stage_enter(flit, "RC", port, self.cycle)

    def input_space(self, port: int, vc: int) -> int:
        return self.inputs[port][vc].free_slots

    def occupancy(self) -> int:
        return sum(b.occupancy() for b in self.inputs)

    # ------------------------------------------------------------------

    def compute(self, cycle: int) -> None:
        """Phase 1: collect matured credits and VC releases."""
        self.cycle = cycle
        self._staged_credits = self._credit_out.pop_ready(cycle)
        self._staged_releases = self._vc_release.pop_ready(cycle)

    def commit(self, cycle: int) -> None:
        """Phase 2: apply credits/releases, then allocate and transmit."""
        hooks = self.hooks
        inj = self.fault_injector
        for sink, vc in self._staged_credits:
            if inj is not None and inj.drop_credit(self, sink, vc, cycle):
                continue
            sink(vc)
            if hooks.credit:
                hooks.emit_credit(-1, vc, cycle)
        for port, vc, pid in self._staged_releases:
            link = self.links[port]
            invariant(link is not None, "VC release on a detached output "
                      "port", cycle=cycle, port=port, vc=vc,
                      check="topology")
            link.vc_state.release(vc, pid)
        self._staged_credits = ()
        self._staged_releases = ()
        self._allocate()
        self.cycle = cycle + 1

    def busy(self) -> bool:
        """Parking predicate: pending flits, credits, or VC releases."""
        if self._resident:
            return True
        return bool(self._credit_out or self._vc_release)

    def next_event(self, now: int) -> Optional[int]:
        """Horizon: resident flits need the next cycle; otherwise the
        earliest pending credit or VC release.  Pure read (R013)."""
        if self._resident:
            return now + 1
        horizon: Optional[int] = None
        for due in (self._credit_out.next_due(), self._vc_release.next_due()):
            if due is not None and (horizon is None or due < horizon):
                horizon = due
        return horizon

    def set_exhaustive(self) -> None:
        """Reference schedule: disable the per-input activity flags."""
        self._in_active = AlwaysActive()

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    #: Wiring/spec excluded from snapshots: ``links``/``credit_sinks``
    #: hold delivery callbacks into the owning simulation (their
    #: flow-control *state* is captured explicitly below), ``config``/
    #: ``name`` are construction parameters, and the fault injector is
    #: shared across routers and checkpointed by the simulation.
    SNAPSHOT_WIRING = (
        "hooks", "config", "name", "links", "credit_sinks",
        "fault_injector",
    )

    def _snapshot_state(self) -> Dict[str, Any]:
        """Explicit capture: every ``__init__`` attribute that is not
        wiring, with delayed credits encoded as (input port, vc)."""
        if self._staged_credits or self._staged_releases:
            raise RuntimeError(
                f"{self.name}: snapshot between compute and commit "
                "(staged intents pending)"
            )
        sink_port = {
            id(sink): port
            for port, sink in enumerate(self.credit_sinks)
            if sink is not None
        }
        return {
            "cycle": self.cycle,
            "inputs": self.inputs,
            "_input_arb": self._input_arb,
            "_output_arb": self._output_arb,
            "input_busy": self.input_busy,
            "output_busy": self.output_busy,
            "_credit_out": self._credit_out.dump(
                lambda item: (sink_port[id(item[0])], item[1])
            ),
            "_vc_release": self._vc_release,
            "_in_active": self._in_active,
            "_resident": self._resident,
            "_stuck_inputs": self._stuck_inputs,
            "links": [
                None if link is None else {
                    "alive": link.alive,
                    "vc_state": link.vc_state,
                    "credits": link.credits,
                }
                for link in self.links
            ],
        }

    def _restore_state(self, state: Dict[str, Any]) -> None:
        """Apply a capture in place; link objects keep their identity
        (their delivery callbacks are live wiring) and only their
        flow-control state is replaced."""
        self.cycle = state["cycle"]
        self.inputs = state["inputs"]
        self._input_arb = state["_input_arb"]
        self._output_arb = state["_output_arb"]
        self.input_busy = state["input_busy"]
        self.output_busy = state["output_busy"]
        self._credit_out = DelayLine.load(
            state["_credit_out"],
            lambda item: (self.credit_sinks[item[0]], item[1]),
        )
        self._vc_release = state["_vc_release"]
        self._in_active = state["_in_active"]
        self._resident = state["_resident"]
        self._stuck_inputs = state["_stuck_inputs"]
        self._staged_credits = ()
        self._staged_releases = ()
        for link, captured in zip(self.links, state["links"]):
            if link is None or captured is None:
                continue
            link.alive = captured["alive"]
            link.vc_state = captured["vc_state"]
            link.credits = captured["credits"]

    def _allocate(self) -> None:
        """Separable round-robin allocation in one pass.

        A round-robin arbiter grants the first request at or after its
        pointer, so each free input walks its VCs from the pointer and
        stops at the first sendable head: the grant and the pointer
        update equal a full scan followed by ``arbitrate``, because the
        sendability test reads state and changes none.  Each output then
        grants its requester nearest at or after its own pointer.
        """
        now = self.cycle
        num_vcs = self.config.num_vcs
        links = self.links
        stuck = self._stuck_inputs
        in_active = self._in_active
        input_free = self.input_busy.free
        requests: Dict[int, List[Tuple[int, int, Flit]]] = {}
        for i, bank in enumerate(self.inputs):
            if not in_active[i] or not input_free(i, now):
                continue
            arb = self._input_arb[i]
            queues = bank.queues
            start = arb.pointer
            for k in range(start, start + num_vcs):
                vc = k % num_vcs
                flit = queues[vc].head()
                if flit is None or (stuck and (i, vc) in stuck):
                    continue
                if flit.hops >= len(flit.route):
                    raise RuntimeError(
                        f"{self.name}: flit {flit.packet_id} has "
                        "exhausted its route"
                    )
                out = flit.route[flit.hops]
                link = links[out]
                if link is None:
                    raise RuntimeError(
                        f"{self.name}: output {out} not attached"
                    )
                fvc = flit.vc
                if not link.alive or not link.credit_available(fvc):
                    continue
                # A head needs the output VC free or already its own; a
                # body flit needs it to be its own.
                owner = link.vc_state.owners[fvc]
                if owner != flit.packet_id and (
                    owner is not None or not flit.is_head
                ):
                    continue
                arb.commit(vc)
                requests.setdefault(out, []).append((i, vc, flit))
                break
        output_free = self.output_busy.free
        for out, reqs in requests.items():
            if not output_free(out, now):
                continue
            # Inputs were visited in ascending order, so the first
            # requester at or after the pointer is the round-robin
            # winner; with none, the lowest input wraps around.
            arb = self._output_arb[out]
            i, vc, flit = reqs[0]
            if len(reqs) > 1:
                ptr = arb.pointer
                i, vc, flit = next((r for r in reqs if r[0] >= ptr), reqs[0])
            arb.commit(i)
            self._transmit(i, vc, flit, out)

    def _transmit(self, i: int, vc: int, flit: Flit, out: int) -> None:
        link = self.links[out]
        invariant(link is not None, "transmit toward a detached output "
                  "port", cycle=self.cycle, port=out, check="topology")
        popped = self.inputs[i][vc].pop()
        invariant(popped is flit, "input buffer head changed between "
                  "grant and pop", cycle=self.cycle, port=i, vc=vc,
                  check="buffer-integrity")
        if not self.inputs[i]:
            self._in_active[i] = False
        self._resident -= 1
        fc = self.config.flit_cycles
        self.input_busy.reserve(i, self.cycle, fc)
        self.output_busy.reserve(out, self.cycle, fc)
        if flit.is_head:
            link.vc_state.allocate(flit.vc, flit.packet_id)
        flit.out_vc = flit.vc
        flit.hops += 1
        link.consume_credit(flit.vc)
        latency = (
            fc + self.config.pipeline_delay + self.config.channel_latency
        )
        link.deliver(flit, self.cycle + latency)
        if self.hooks.grant:
            self.hooks.emit_grant(flit, out, self.cycle)
        if self.hooks.stage_enter:
            self.hooks.emit_stage_enter(flit, "ST", out, self.cycle)
        if flit.is_tail:
            self._vc_release.push(self.cycle, (out, flit.vc, flit.packet_id))
        # Return a credit upstream for the freed input buffer slot.
        sink = self.credit_sinks[i]
        if sink is not None:
            self._credit_out.push(self.cycle, (sink, vc))
