"""Network simulation (Figure 19 and beyond).

Wires :class:`~repro.network.router.NetworkRouter` instances according
to any topology satisfying :class:`~repro.network.topology.Topology`
(the folded Clos of Figure 19, the mesh of
:mod:`repro.network.mesh`, ...), attaches hosts with Bernoulli traffic
sources, routes packets with the topology's routing function, and
measures packet latency from generation to tail arrival, with the
warm-up / label / drain program it shares with the switch-level harness
(:class:`~repro.harness.experiment.StagedRun`).
"""

from __future__ import annotations

import copy
import heapq
import itertools
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..core.errors import invariant
from ..core.flit import Flit, make_packet
from ..core.rng import derive_rng
from ..engine import EngineHooks, make_scheduler
from ..harness.experiment import StagedRun, SweepResult, SweepSettings
from ..routers.base import RouterStats
from ..workloads.base import Message, Workload
from .router import (
    NetworkRouter,
    NetworkRouterConfig,
    OutputLink,
    check_delays,
    pipeline_depth_for_radix,
)
from .topology import FoldedClos, SwitchId, Topology

try:  # Optional: bulk arrival pre-drawing (event mode fast path).
    import numpy as _np
except ImportError:  # pragma: no cover - baked into the dev image
    _np = None  # type: ignore[assignment]


@dataclass(frozen=True)
class NetworkConfig:
    """Parameters of a Clos network experiment."""

    radix: int = 16
    levels: int = 2
    num_vcs: int = 4
    buffer_depth: int = 8
    flit_cycles: int = 4
    channel_latency: int = 1
    credit_latency: int = 1
    packet_size: int = 1
    pipeline_delay: Optional[int] = None  # default: scale with log2(radix)
    seed: int = 1

    def __post_init__(self) -> None:
        if self.packet_size < 1:
            raise ValueError(
                f"packet_size must be >= 1, got {self.packet_size}"
            )
        check_delays(self)

    def router_config(self, num_ports: int) -> NetworkRouterConfig:
        depth = (
            self.pipeline_delay
            if self.pipeline_delay is not None
            else pipeline_depth_for_radix(self.radix)
        )
        return NetworkRouterConfig(
            num_ports=num_ports,
            num_vcs=self.num_vcs,
            buffer_depth=self.buffer_depth,
            flit_cycles=self.flit_cycles,
            pipeline_delay=depth,
            channel_latency=self.channel_latency,
            credit_latency=self.credit_latency,
        )


class _RouterSink:
    """Delivery callable for a router-to-router channel.

    A module-level class rather than a closure so the wired network
    stays picklable for checkpoint/restore; the sanitizer reads the
    wiring off :attr:`target`/:attr:`port`.
    """

    __slots__ = ("sim", "target", "port")

    def __init__(
        self, sim: "NetworkSimulation", target: NetworkRouter, port: int
    ) -> None:
        self.sim = sim
        self.target = target
        self.port = port

    def __call__(self, flit: Flit, arrival: int) -> None:
        sim = self.sim
        heapq.heappush(
            sim._inflight,
            (arrival, next(sim._seq), flit, (self.target, self.port)),
        )


class _HostSink:
    """Delivery callable for a router-to-host ejection channel."""

    __slots__ = ("sim", "host")

    def __init__(self, sim: "NetworkSimulation", host: Optional[int]) -> None:
        self.sim = sim
        self.host = host

    def __call__(self, flit: Flit, arrival: int) -> None:
        sim = self.sim
        heapq.heappush(
            sim._inflight, (arrival, next(sim._seq), flit, self.host)
        )


class _CreditSink:
    """Credit-return callable restoring an upstream link's counter."""

    __slots__ = ("link",)

    def __init__(self, link: OutputLink) -> None:
        self.link = link

    def __call__(self, vc: int) -> None:
        self.link.restore_credit(vc)


class NetworkSimulation(StagedRun):
    """End-to-end simulation of a network of routers on any topology."""

    #: Measured network runs leave out ``extra["undelivered"]``: the
    #: benchmark digests (``perfbench/points.py``) include that key
    #: whenever present, and the recorded Clos references predate it.
    REPORT_UNDELIVERED = False

    #: Attributes :meth:`snapshot` deliberately omits (lint rule R010):
    #: construction parameters (``config``/``load``/``topology``/
    #: ``_host_pattern``/``_event_mode``/``_trace_switch``), the hook
    #: bus, ``_packet_rate`` (a pure function of config and load), the
    #: host attachment table (wiring; routers restore in place), and
    #: the numpy arrival mirrors, which restore re-derives from the
    #: restored Python RNG streams (see :meth:`snapshot`).
    SNAPSHOT_WIRING = (
        "config", "load", "topology", "_host_pattern", "hooks",
        "_event_mode", "_trace_switch", "_packet_rate", "_host_ports",
        "_np_streams",
    )

    def __init__(
        self,
        config: NetworkConfig,
        load: float = 0.0,
        topology: Optional[Topology] = None,
        host_pattern: Optional[object] = None,
        sanitize: bool = False,
        active_set: bool = True,
        faults: Optional[object] = None,
        scheduler: str = "cycle",
        workload: Optional[Workload] = None,
        tracer=None,
        trace_switch: Optional[SwitchId] = None,
    ) -> None:
        """Args:
            config: Router/channel parameters (``radix``/``levels`` are
                only used when ``topology`` is omitted, in which case a
                folded Clos is built from them).
            load: Offered load as a fraction of host channel capacity.
            topology: Any object satisfying the Topology protocol.
            host_pattern: Optional traffic pattern over *hosts* (a
                :class:`~repro.traffic.patterns.TrafficPattern` built
                for ``topology.num_hosts`` ports); uniform random when
                omitted.
            sanitize: Run a :class:`~repro.analysis.NetworkSanitizer`
                check (link credit conservation, buffer bounds) after
                every cycle; it attaches through the engine hooks.
            active_set: Park idle routers (no buffered flits, no
                pending credits) and skip them until a flit arrival
                wakes them.  Byte-identical to stepping everything;
                False forces the exhaustive reference schedule.
            faults: Optional :class:`~repro.faults.FaultPlan`.  When
                set (and enabled), a
                :class:`~repro.faults.NetworkFaultInjector` drives
                host-channel corruption, inter-router credit loss with
                resync, and the scheduled dead-link faults; routing
                avoids dead links.  None (or a disabled plan) keeps
                the simulation byte-identical to a plain run.
            scheduler: Drive loop: ``"cycle"`` executes every cycle;
                ``"event"`` fast-forwards over spans with no busy
                router, no due flit delivery, no pre-drawn host
                arrival, no injectable backlog, and no scheduled fault
                event.  Byte-identical results either way; only the
                ``stats.engine.*`` counters and wall-clock differ.
            workload: Optional dependency-driven workload (see
                :mod:`repro.workloads`) whose ranks map to host ids.
                Replaces the Bernoulli injection process entirely — a
                message injects at its host only once its DAG
                dependencies have been delivered.  Drive with
                :meth:`run_workload` instead of :meth:`run`.
            tracer: Optional :class:`~repro.trace.TraceCollector`
                tracing the router named by ``trace_switch`` (per-flit
                lifecycle records from that router, cycle counts and
                fault events network-wide).  Aggregate trace counters
                land in the run result's ``stats.trace.*`` extras.
            trace_switch: Which switch the tracer follows; defaults to
                the first switch in ``topology.switch_ids()`` order.
        """
        if not 0.0 <= load <= 1.0:
            raise ValueError(f"load must be in [0, 1], got {load}")
        super().__init__()
        self.config = config
        self.load = load
        self.topology = topology or FoldedClos(config.radix, config.levels)
        self._host_pattern = host_pattern
        self._workload = workload
        if workload is not None:
            if workload.num_ranks > self.topology.num_hosts:
                raise ValueError(
                    f"workload has {workload.num_ranks} ranks but the "
                    f"topology only has {self.topology.num_hosts} hosts"
                )
            if workload.has_self_sends:
                raise ValueError(
                    "workload contains self-send messages (src == "
                    "dest), which cannot be routed between hosts; "
                    "replay switch traces on --target switch"
                )
            # The injection process is replaced by DAG eligibility;
            # zeroing the rate also bypasses the arrival pre-draw
            # machinery (heap, numpy mirrors) in event mode.
            load = 0.0
        self._build_network()
        #: Simulation-level event bus; ``cycle_start``/``cycle_end``
        #: span the whole router set.  Instrumentation (sanitizer,
        #: metrics, tracing) attaches here.
        self.hooks = EngineHooks()
        self._sched = make_scheduler(
            scheduler,
            self.routers.values(),
            hooks=self.hooks,
            active_set=active_set,
        )
        self._event_mode = scheduler == "event"
        # Inverted drive loop: the scheduler owns the per-cycle phase
        # sequence; this harness contributes its pre-engine work and
        # (in event mode) its wake horizons.
        self._sched.add_pre_cycle(self._pre_cycle)
        self._sched.add_wake_source(self._next_work)
        self._tracer = tracer
        self._trace_switch: Optional[SwitchId] = None
        if tracer is not None:
            if trace_switch is None:
                trace_switch = next(iter(self.routers))
            if trace_switch not in self.routers:
                raise ValueError(
                    f"trace_switch {trace_switch!r} is not a switch of "
                    f"this topology"
                )
            self._trace_switch = trace_switch
            tracer.attach_network(self, trace_switch)
        n = self.topology.num_hosts
        cap = 1.0 / config.flit_cycles
        self._packet_rate = load * cap / config.packet_size
        self._rngs = [derive_rng(config.seed, "net", h) for h in range(n)]
        self._route_rng = derive_rng(config.seed, "route")
        self._source_q: List[deque[Flit]] = [deque() for _ in range(n)]
        #: Hosts with a non-empty source queue (superset is harmless):
        #: both schedulers inject over this set, not over every host.
        self._backlog_hosts: set = set()
        self._next_inject = [0] * n
        self._packet_vc: List[Optional[int]] = [None] * n
        self._vc_rr = [0] * n
        #: Peak per-host injection-queue depth (flits) ever observed.
        self._peak_source_q = 0
        # Global in-flight flit event queue: (arrival, seq, flit, target).
        self._inflight: List[Tuple[int, int, Flit, object]] = []
        self._seq = itertools.count()
        if faults is not None and faults.enabled:
            # Imported lazily: faults sits above the network layer.
            from ..faults import NetworkFaultInjector

            self._faults: Optional[NetworkFaultInjector] = (
                NetworkFaultInjector(faults, self, config.seed)
            )
        else:
            self._faults = None
        if sanitize:
            # Imported lazily: analysis sits above the network layer.
            from ..analysis.sanitizer import NetworkSanitizer

            self._sanitizer: Optional[NetworkSanitizer] = NetworkSanitizer(self)
        else:
            self._sanitizer = None
        # Event mode pre-draws each host's next arrival into a binary
        # heap of (cycle, host) — the per-host draws are exactly the
        # ones cycle-by-cycle polling would make (each host owns a
        # private RNG stream), so prediction is byte-equivalent to the
        # lazy path; heap order reproduces the host-order iteration of
        # the per-cycle generate loop.  After the first arrival,
        # redraws are bounded by the run window (``_draw_limit``) so a
        # very low rate never forces draws far past the simulated
        # horizon; hosts with no arrival inside the window park in
        # ``_undrawn`` and resume their stream when the window grows.
        self._host_arrivals: List[Tuple[int, int]] = []
        self._arrival_cursor = [0] * n
        self._draw_limit = 0
        self._undrawn: Set[int] = set()
        # numpy mirrors of the per-host Mersenne streams: MT19937
        # produces bit-identical 53-bit doubles in both libraries, so
        # the mirror lets event mode search a whole run window for the
        # next Bernoulli hit in one vectorized pass instead of one
        # Python-level draw per host per cycle.
        self._np_streams: Optional[list] = None
        self._sync_cursor = [0] * n
        if self._event_mode and self._packet_rate > 0.0:
            self._undrawn.update(range(n))
            if _np is not None:
                self._np_streams = [self._mirror_stream(h) for h in range(n)]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _build_network(self) -> None:
        topo = self.topology
        self.routers: Dict[SwitchId, NetworkRouter] = {}
        for sid in topo.switch_ids():
            ports = topo.ports_used(sid)
            self.routers[sid] = NetworkRouter(
                self.config.router_config(ports), name=str(sid)
            )
        # Wire every connected port of every switch.
        for sid, router in self.routers.items():
            for port in topo.wired_ports(sid):
                ref = topo.neighbor(sid, port)
                if ref.switch is None:
                    link = OutputLink(
                        self.config.num_vcs,
                        _HostSink(self, ref.host),
                        downstream_depth=None,
                    )
                else:
                    target = self.routers[ref.switch]
                    link = OutputLink(
                        self.config.num_vcs,
                        _RouterSink(self, target, ref.port),
                        downstream_depth=self.config.buffer_depth,
                    )
                    # Credit return path: when the downstream router
                    # frees the slot, restore this link's counter.
                    target.credit_sinks[ref.port] = _CreditSink(link)
                router.attach(port, link)
        #: Per-host (edge router, input port), resolved once.
        self._host_ports: List[Tuple[NetworkRouter, int]] = []
        for host in range(topo.num_hosts):
            attach = topo.host_attachment(host)
            invariant(attach.switch is not None,
                      "host attaches to no switch", check="topology",
                      host=host)
            self._host_ports.append((self.routers[attach.switch], attach.port))

    # ------------------------------------------------------------------
    # Simulation loop
    # ------------------------------------------------------------------

    def run_until(
        self, end: int, stop: Optional[Callable[[], bool]] = None
    ) -> int:
        """Advance through cycles ``[cycle, end)``, or until ``stop()``.

        Grows the event-mode arrival pre-draw window to ``end`` first.
        """
        self._extend_draws(end)
        return self._sched.run_until(end, stop=stop)

    # Bound in this class body, not only inherited, because the
    # benchmark's layer trace (perfbench/layers.py) wraps
    # ``NetworkSimulation.advance_run`` by name.
    advance_run = StagedRun.advance_run

    def _extend_draws(self, end: int) -> None:
        """Grow the arrival pre-draw window to cover ``[0, end)``.

        Hosts parked in ``_undrawn`` (no arrival inside the previous
        window) resume their private streams from where they stopped;
        any hit inside the new window enters the arrival heap.
        """
        if not self._event_mode or end <= self._draw_limit:
            return
        self._draw_limit = end
        if not self._undrawn:
            return
        resolved = []
        for host in sorted(self._undrawn):
            arrival = self._draw_arrival(host, end)
            if arrival is not None:
                heapq.heappush(self._host_arrivals, (arrival, host))
                resolved.append(host)
        self._undrawn.difference_update(resolved)

    def _pre_cycle(self, now: int) -> None:
        """Harness work before the two-phase engine cycle.

        The engine cycle itself (and the instrumentation on the
        ``cycle_end`` hook, including the sanitizer's per-cycle check)
        runs from the scheduler after this returns.
        """
        if self._faults is not None:
            # Apply scheduled link faults and deliver due credit
            # resyncs before anything else observes this cycle.
            self._faults.advance(now)
        self._deliver_arrivals(now)
        if self._workload is not None:
            # DAG eligibility replaces the injection process; both
            # modes pop the same ready messages in ascending host
            # order, so the shared route RNG stream stays identical.
            self._generate_workload(now)
        elif self._event_mode:
            self._generate_event(now)
        else:
            self._generate(now)
        self._inject(now)

    def _next_work(self, now: int) -> Optional[int]:
        """Wake horizon: earliest cycle >= ``now`` with harness work.

        The minimum over the pre-drawn host-arrival heap, the in-flight
        flit/ejection heap, the fault injector's schedule, and — per
        backlogged host — the earliest injection retry (channel
        throttle or fault back-off).  Early is safe, late is not.
        """
        horizon: Optional[int] = None
        if self._host_arrivals:
            horizon = self._host_arrivals[0][0]
        if self._inflight:
            due = self._inflight[0][0]
            if horizon is None or due < horizon:
                horizon = due
        faults = self._faults
        if faults is not None:
            due = faults.next_event(now)
            if due is not None and (horizon is None or due < horizon):
                horizon = due
        for host in self._backlog_hosts:
            retry = self._next_inject[host]
            if faults is not None:
                retry = max(retry, faults.channel_retry_at(host))
            retry = max(retry, now)
            if horizon is None or retry < horizon:
                horizon = retry
        if self._workload is not None:
            due = self._workload.next_ready(now)
            if due is not None and (horizon is None or due < horizon):
                horizon = due
        return horizon

    def _deliver_arrivals(self, now: int) -> None:
        while self._inflight and self._inflight[0][0] <= now:
            _, _, flit, target = heapq.heappop(self._inflight)
            if isinstance(target, tuple):
                router, port = target
                self._sched.wake(router, now)
                router.accept(port, flit)
            else:
                # Host ejection.
                if self._count_flits:
                    self.measured_flits += 1
                if flit.is_tail and flit.measured:
                    self.sample.add(now - flit.created_at)
                    self._labeled_outstanding -= 1
                if flit.is_tail and self._workload is not None:
                    # Delivery unlocks the DAG successors; their hosts
                    # wake via the next_ready() horizon.
                    self._workload.deliver(flit.packet_id, now)

    def _generate(self, now: int) -> None:
        """Cycle-mode generation: poll every host's process this cycle."""
        for host in range(self.topology.num_hosts):
            if self._rngs[host].random() >= self._packet_rate:
                continue
            self._generate_packet(host, now)

    def _draw_arrival(self, host: int, limit: int) -> Optional[int]:
        """Pre-draw ``host``'s next arrival cycle before ``limit``.

        Consumes exactly the per-cycle polls :meth:`_generate` would
        make from the host's private RNG stream, so batching them is
        byte-equivalent.  Draws stop at the window edge: a host with no
        hit keeps its cursor at ``limit`` and resumes the same stream
        when the window grows, so the chunked draws consume the
        identical stream prefix a cycle-by-cycle poll would.  A zero
        rate never fires: return None without drawing.
        """
        rate = self._packet_rate
        if rate <= 0.0:
            return None
        cycle = self._arrival_cursor[host]
        if cycle >= limit:
            return None
        if self._np_streams is not None:
            return self._draw_arrival_bulk(host, cycle, limit)
        rnd = self._rngs[host].random
        while cycle < limit:
            if rnd() < rate:
                self._arrival_cursor[host] = cycle + 1
                return cycle
            cycle += 1
        self._arrival_cursor[host] = limit
        return None

    def _draw_arrival_bulk(
        self, host: int, cycle: int, limit: int
    ) -> Optional[int]:
        """Vectorized Bernoulli search on the host's mirrored stream.

        Samples the whole remaining window at once.  A miss consumes
        exactly the polls cycle mode would, so nothing to undo; a hit
        overshoots, and the mirror is rewound by rebuilding it from the
        Python-side state — which still sits at the last sync point,
        separated from the hit only by polls (every hit forces a sync,
        so no destination draws lie in between) — and re-consuming that
        exact count.  This keeps the costly state export off the
        per-window path entirely.
        """
        assert self._np_streams is not None
        stream = self._np_streams[host]
        draws = stream.random_sample(limit - cycle)
        hit = draws < self._packet_rate
        first = int(hit.argmax())
        if not hit[first]:
            self._arrival_cursor[host] = limit
            return None
        polls = cycle - self._sync_cursor[host] + first + 1
        _, state, _ = self._rngs[host].getstate()
        stream.set_state(
            ("MT19937", _np.asarray(state[:-1], dtype=_np.uint32), state[-1])
        )
        stream.random_sample(polls)
        self._arrival_cursor[host] = cycle + first + 1
        return cycle + first

    def _mirror_stream(self, host: int) -> "object":
        """Build a numpy RandomState mirroring ``host``'s Mersenne state."""
        assert _np is not None
        _, state, _ = self._rngs[host].getstate()
        stream = _np.random.RandomState()
        stream.set_state(
            ("MT19937", _np.asarray(state[:-1], dtype=_np.uint32), state[-1])
        )
        return stream

    def _pull_host_rng(self, host: int) -> None:
        """Copy the numpy mirror's state back into the Python RNG.

        Called before :meth:`_generate_packet` draws a destination, so
        the Python stream resumes exactly where the bulk polls stopped.
        """
        assert self._np_streams is not None
        _, keys, pos, _, _ = self._np_streams[host].get_state()
        self._rngs[host].setstate(
            (3, tuple(keys.tolist()) + (int(pos),), None)
        )

    def _push_host_rng(self, host: int) -> None:
        """Copy the Python RNG's state back into the numpy mirror."""
        assert self._np_streams is not None
        _, state, _ = self._rngs[host].getstate()
        self._np_streams[host].set_state(
            ("MT19937", _np.asarray(state[:-1], dtype=_np.uint32), state[-1])
        )
        self._sync_cursor[host] = self._arrival_cursor[host]

    def _generate_event(self, now: int) -> None:
        """Event-mode generation: only hosts whose arrival is due.

        Heap order is (cycle, host), so same-cycle arrivals generate in
        ascending host order — the iteration order of the cycle-mode
        loop — which keeps the shared route RNG stream and packet-id
        allocation identical between modes.
        """
        heap = self._host_arrivals
        while heap and heap[0][0] <= now:
            due, host = heapq.heappop(heap)
            invariant(due == now, "fast-forward skipped a host arrival",
                      cycle=now, check="event-schedule", host=host,
                      arrival=due)
            if self._np_streams is not None:
                # Destination draws happen on the Python stream; hand
                # the mirrored state across and back so both sides see
                # one contiguous per-host stream.
                self._pull_host_rng(host)
                self._generate_packet(host, now)
                self._push_host_rng(host)
            else:
                self._generate_packet(host, now)
            nxt = self._draw_arrival(host, self._draw_limit)
            if nxt is not None:
                heapq.heappush(heap, (nxt, host))
            else:
                self._undrawn.add(host)

    def _generate_workload(self, now: int) -> None:
        """Queue every workload message that became eligible by ``now``.

        Ready hosts are visited in ascending order — the host-order
        iteration of the cycle-mode generate loop — and both drive
        modes execute every cycle with an eligible message (the
        ``next_ready`` horizon pins it), so the shared route RNG
        stream is consumed identically either way.
        """
        workload = self._workload
        invariant(workload is not None, "workload generation without a "
                  "workload", cycle=now, check="workload")
        for host in workload.ready_ranks(now):
            while True:
                message = workload.next_message(host, now)
                if message is None:
                    break
                self._generate_packet(host, now, message)

    def _generate_packet(
        self, host: int, now: int, message: Optional[Message] = None
    ) -> None:
        """Create one packet at ``host`` and queue its flits.

        With ``message`` set (workload mode) the destination and size
        come from the DAG node and the packet is never
        measurement-labeled — the workload keeps its own send/delivery
        records; only the route draw touches shared RNG state.
        """
        rng = self._rngs[host]
        if message is not None:
            dest = message.dest
            size = message.size
        else:
            if self._host_pattern is None:
                dest = rng.randrange(self.topology.num_hosts)
            else:
                dest = self._host_pattern.dest(host, rng)
            size = self.config.packet_size
        if self._faults is not None:
            route = self._faults.route(
                self.topology, host, dest, self._route_rng
            )
        else:
            route = self.topology.route(host, dest, self._route_rng)
        flits = make_packet(
            dest=dest,
            size=size,
            src=host,
            created_at=now,
            measured=self._measuring if message is None else False,
            route=route,
        )
        if message is not None:
            invariant(self._workload is not None, "workload message "
                      "without a workload", cycle=now, check="workload")
            self._workload.sent(message.node, flits[0].packet_id, now)
        self._source_q[host].extend(flits)
        if len(self._source_q[host]) > self._peak_source_q:
            self._peak_source_q = len(self._source_q[host])
        self._backlog_hosts.add(host)
        if self._measuring and message is None:
            self._labeled_outstanding += 1
            self._labeled_total += 1

    def _inject(self, now: int) -> None:
        """Offer one flit per backlogged host, in ascending host order.

        A host without backlog returns at once from :meth:`_try_inject`,
        so skipping it leaves the order every host would see unchanged.
        """
        for host in sorted(self._backlog_hosts):
            self._try_inject(host, now)

    def _try_inject(self, host: int, now: int) -> None:
        """Move one flit from ``host``'s queue into its edge router."""
        faults = self._faults
        queue = self._source_q[host]
        if now < self._next_inject[host] or not queue:
            return
        if faults is not None and not faults.channel_ready(host, now):
            return
        flit = queue[0]
        router, port = self._host_ports[host]
        vc = self._packet_vc[host]
        if flit.is_head and vc is None:
            vc = self._pick_vc(router, port, host)
            if vc is None:
                return
            self._packet_vc[host] = vc
        invariant(vc is not None, "packet VC lost mid-packet",
                  cycle=now, port=port, check="injection")
        if router.input_space(port, vc) < 1:
            return
        flit.vc = vc
        if faults is not None and not faults.attempt_transmit(
            host, flit, now
        ):
            # Corrupted on the wire: the receiver's CRC check drops
            # it, the sender keeps it queued for retransmission.
            # The corrupted transmission still occupied the channel.
            self._next_inject[host] = now + self.config.flit_cycles
            return
        queue.popleft()
        if not queue:
            self._backlog_hosts.discard(host)
        self._sched.wake(router, now)
        router.accept(port, flit)
        self._next_inject[host] = now + self.config.flit_cycles
        if flit.is_tail:
            self._packet_vc[host] = None

    def _pick_vc(self, router: NetworkRouter, port: int, host: int) -> Optional[int]:
        v = self.config.num_vcs
        for offset in range(v):
            vc = (self._vc_rr[host] + offset) % v
            if router.input_space(port, vc) >= 1:
                self._vc_rr[host] = (vc + 1) % v
                return vc
        return None

    # ------------------------------------------------------------------
    # StagedRun hooks
    # ------------------------------------------------------------------

    def _num_ports(self) -> int:
        return self.topology.num_hosts

    def _capacity(self) -> float:
        return 1.0 / self.config.flit_cycles

    def _source_backlog(self) -> Tuple[int, int]:
        return sum(len(q) for q in self._source_q), self._peak_source_q

    def _run_stats(self) -> RouterStats:
        """Scratch stats for the run's extras (network routers keep no
        :class:`RouterStats`), seeded with the fault counters."""
        stats = RouterStats()
        if self._faults is not None:
            for name, value in self._faults.counters.items():
                stats.bump(name, value)
        return stats

    def _sanitized(self) -> bool:
        return self._sanitizer is not None

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Deep-copied picklable capture of the full simulation state.

        Captures the routers, every RNG stream, the in-flight flit
        queue and the host-side injection machinery, plus the state
        every harness shares (see :meth:`StagedRun._snapshot_state`).
        Restoring the capture onto a freshly built twin (same
        constructor arguments) resumes byte-identically; see
        :mod:`repro.harness.checkpoint` for the on-disk format.
        """
        switch_of = {id(r): sid for sid, r in self.routers.items()}
        inflight = []
        for arrival, seq, flit, target in sorted(
            self._inflight, key=lambda entry: entry[:2]
        ):
            if isinstance(target, tuple):
                router, port = target
                encoded: Tuple = ("r", switch_of[id(router)], port)
            else:
                encoded = ("h", target)
            inflight.append((arrival, seq, flit, encoded))
        return copy.deepcopy(self._snapshot_state({
            "routers": [
                router._snapshot_state() for router in self.routers.values()
            ],
            "seq": next(copy.copy(self._seq)),
            "inflight": inflight,
            "harness": {
                "source_q": [list(q) for q in self._source_q],
                "backlog_hosts": sorted(self._backlog_hosts),
                "next_inject": self._next_inject,
                "packet_vc": self._packet_vc,
                "vc_rr": self._vc_rr,
                "peak_source_q": self._peak_source_q,
            },
            "rngs": [rng.getstate() for rng in self._rngs],
            "route_rng": self._route_rng.getstate(),
            # The numpy mirrors are deliberately not captured: at a
            # cycle boundary each mirror equals the Python stream plus
            # (arrival_cursor - sync_cursor) poll draws, so restore
            # rebuilds them from the restored Python state instead.
            "arrivals": {
                "heap": sorted(self._host_arrivals),
                "cursor": self._arrival_cursor,
                "draw_limit": self._draw_limit,
                "undrawn": sorted(self._undrawn),
                "sync_cursor": self._sync_cursor,
            },
        }))

    def _restore_parts(self, state: Dict[str, Any]) -> None:
        if len(state["routers"]) != len(self.routers):
            raise ValueError(
                f"snapshot captured {len(state['routers'])} routers, "
                f"simulation has {len(self.routers)}"
            )
        if ("wheel" in state["sched"]) != self._event_mode:
            raise ValueError(
                "scheduler mode mismatch between snapshot and simulation"
            )
        if len(state["rngs"]) != len(self._rngs):
            raise ValueError(
                f"snapshot captured {len(state['rngs'])} hosts, "
                f"simulation has {len(self._rngs)}"
            )
        for router, captured in zip(self.routers.values(), state["routers"]):
            router._restore_state(captured)
        self._seq = itertools.count(state["seq"])
        inflight: List[Tuple[int, int, Flit, object]] = []
        for arrival, seq, flit, encoded in state["inflight"]:
            if encoded[0] == "r":
                target: object = (self.routers[encoded[1]], encoded[2])
            else:
                target = encoded[1]
            inflight.append((arrival, seq, flit, target))
        # Captured sorted; a sorted list is a valid binary heap.
        self._inflight = inflight
        harness = state["harness"]
        self._source_q = [deque(q) for q in harness["source_q"]]
        self._backlog_hosts = set(harness["backlog_hosts"])
        self._next_inject = harness["next_inject"]
        self._packet_vc = harness["packet_vc"]
        self._vc_rr = harness["vc_rr"]
        self._peak_source_q = harness["peak_source_q"]
        for rng, captured in zip(self._rngs, state["rngs"]):
            rng.setstate(captured)
        self._route_rng.setstate(state["route_rng"])
        arrivals = state["arrivals"]
        self._host_arrivals = list(arrivals["heap"])
        self._arrival_cursor = arrivals["cursor"]
        self._draw_limit = arrivals["draw_limit"]
        self._undrawn = set(arrivals["undrawn"])
        self._sync_cursor = arrivals["sync_cursor"]
        if self._np_streams is not None:
            # Rebuild each mirror from the restored Python state (the
            # last sync point) and replay the poll draws separating it
            # from the pre-draw cursor; snapshots are taken at cycle
            # boundaries, where that gap is pure polls (every hit and
            # every destination draw forces a sync).
            for host in range(len(self._rngs)):
                stream = self._mirror_stream(host)
                gap = self._arrival_cursor[host] - self._sync_cursor[host]
                if gap:
                    stream.random_sample(gap)
                self._np_streams[host] = stream


#: Figure 19's configuration is the default topology (a folded Clos
#: built from ``config``), so the name is kept as an alias.
ClosNetworkSimulation = NetworkSimulation


def run_network_sweep(
    config: NetworkConfig,
    loads: Sequence[float],
    label: str = "",
    topology: Optional[Topology] = None,
    settings: Optional[SweepSettings] = None,
    scheduler: str = "cycle",
) -> SweepResult:
    """Load-latency curve over a network (the Figure 19 sweep).

    Returns a :class:`~repro.harness.experiment.SweepResult`, so the
    same reporting and plotting helpers apply to network curves as to
    single-router curves.
    """
    sweep = SweepResult(label=label or "network")
    for load in loads:
        sim = NetworkSimulation(config, load, topology=topology,
                                scheduler=scheduler)
        sweep.results.append(sim.run(settings))
    return sweep
