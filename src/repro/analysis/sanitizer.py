"""Runtime simulation sanitizer: per-cycle conservation checking.

``SimSanitizer`` attaches to any :class:`~repro.routers.base.Router`
through its :class:`~repro.engine.hooks.EngineHooks` bus — flit
accept/eject events drive the stream-level contracts checked by
:class:`~repro.harness.validation.CheckedRouter` (conservation by flit
identity, per-packet order, output-VC discipline, output bandwidth),
and the ``cycle_end`` event triggers *structural* invariant checks
against the router's internal state after every cycle.  (The class
still presents the familiar router-wrapper facade, but its ``accept``
/ ``step`` / ``drain_ejected`` are plain delegates: all checking rides
on the hook events, so it works identically whether the router is
stepped standalone or driven — possibly parked — by a
:class:`~repro.engine.scheduler.Scheduler`.)

Structural invariants:

* **flit conservation** — flits accepted equal flits ejected plus flits
  resident in buffers and pipelines (exact for every organization
  except the ACK/NACK shared-buffer crossbar, whose occupancy
  deliberately overcounts speculative copies and is checked as a lower
  bound);
* **buffer-depth bounds** — no bounded flit queue ever exceeds its
  capacity, even if state was mutated behind the ``push`` guard;
* **exclusive output-VC ownership** — every owned (output, VC) entry
  belongs to a packet that still has un-delivered flits, and no packet
  owns two entries;
* **credit conservation** — for every credit counter,
  ``free + held == capacity`` where *held* counts flits buffered
  downstream, flits in flight toward the buffer, and credits in flight
  back to the counter (through the shared credit-return bus, the
  dedicated pipe, or the response delay line).

Violations raise :class:`~repro.core.errors.InvariantViolation`
carrying the cycle, port, and VC, so a credit leak surfaces as
``cycle 812, port 3, VC 1: [credit-conservation] ...`` instead of a
quietly wrong latency curve.

``check_interval`` trades coverage for speed: structural checks run
every N cycles (stream-level checks always run).  See
``benchmarks/test_perf_sanitizer.py`` for the measured overhead.

``NetworkSanitizer`` applies the buffer-bound and link-credit
conservation checks to a whole :class:`~repro.network.netsim.NetworkSimulation`;
it subscribes to the simulation's scheduler-level ``cycle_end`` hook
(enable with ``NetworkSimulation(..., sanitize=True)``).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set, Tuple

from ..core.buffers import FlitQueue
from ..core.errors import InvariantViolation
from ..harness.validation import CheckedRouter
from ..routers.base import Router
from ..routers.buffered import BufferedCrossbarRouter
from ..routers.hierarchical import HierarchicalCrossbarRouter
from ..routers.shared_buffer import SharedBufferCrossbarRouter


def _bucket(counts: Dict, key) -> None:
    counts[key] = counts.get(key, 0) + 1


class SimSanitizer(CheckedRouter):
    """Hook-attached invariant checker with a router-wrapper facade."""

    def __init__(self, inner: Router, check_interval: int = 1) -> None:
        if check_interval < 1:
            raise ValueError(
                f"check_interval must be >= 1, got {check_interval}"
            )
        super().__init__(inner)
        self.check_interval = check_interval
        self._since_check = 0
        self.checks_run = 0
        # All interception happens on the router's event bus: stream
        # checks on flit movement, structural checks on cycle end.  The
        # scheduler fires cycle_end even for parked routers, so the
        # check cadence is unchanged by active-set scheduling.
        inner.hooks.on_flit_move(self._on_flit_move)
        inner.hooks.on_cycle_end(self._on_cycle_end)
        # Packets with an accepted flit whose tail has not been ejected,
        # backing the stale-ownership check.  Not a count of the flits
        # inside: a fast router can eject a head before its tail is
        # accepted, and the packet still owns its output VC meanwhile.
        self._live_packets: Set[int] = set()
        # The shared-buffer crossbar's occupancy() overcounts (originals
        # held at the input while copies are in flight), so conservation
        # is an inequality there and an equality everywhere else.
        self._exact_occupancy = not isinstance(
            inner, SharedBufferCrossbarRouter
        )
        # The buffer/counter structure is static, so the addressed lists
        # are built once; per-cycle checks only read occupancies.  The
        # probes hold the underlying deques so the hot loops pay one C
        # len() per queue instead of a Python __len__ dispatch.
        self._queues = list(self._iter_queues(inner))
        self._credit_probes = self._build_credit_probes(inner)
        # Credited queues need no separate depth scan: their counter has
        # capacity == depth and free >= 0, so an overfull queue already
        # fails the credit equality (free + held == capacity).
        covered = (
            {id(entry[-1]) for entry in self._credit_probes[1]}
            if self._credit_probes is not None
            else frozenset()
        )
        self._bounded = [
            (where, port, vc, queue._q, queue.maxlen)
            for where, port, vc, queue in self._queues
            if queue.maxlen is not None and id(queue._q) not in covered
        ]
        # Indexes for the two-phase credit scan (see _scan_credits).
        if self._credit_probes is not None:
            self._entry_by_key = {e[0]: e for e in self._credit_probes[1]}
            self._entry_by_cid = {e[1]: e for e in self._credit_probes[1]}

    # -- hook handlers -------------------------------------------------

    def _on_flit_move(self, kind: str, flit, port: int, cycle: int) -> None:
        if kind == "accept":
            self.record_accept(flit)
            self._live_packets.add(flit.packet_id)
        elif kind == "eject":
            self._check_ejection(flit, cycle)

    def _on_cycle_end(self, cycle: int) -> None:
        self._since_check += 1
        if self._since_check >= self.check_interval:
            self._since_check = 0
            self.check_now()

    # -- delegated operations ------------------------------------------
    # The facade forwards untouched; the hooks above do the checking.

    def accept(self, port: int, flit) -> None:
        self.inner.accept(port, flit)

    def step(self) -> None:
        self.inner.step()

    def drain_ejected(self):
        return self.inner.drain_ejected()

    def _check_ejection(self, flit, cycle: int) -> None:
        super()._check_ejection(flit, cycle)
        if flit.is_tail:
            self._live_packets.discard(flit.packet_id)

    def assert_drained(self) -> None:
        super().assert_drained()
        self.check_now()

    # -- structural invariants -----------------------------------------

    def check_now(self) -> None:
        """Run every structural check against the current router state."""
        router = self.inner
        cycle = router.cycle
        self._check_flit_conservation(router, cycle)
        self._check_buffer_bounds(router, cycle)
        self._check_vc_ownership(router, cycle)
        self._check_credits(router, cycle)
        self.checks_run += 1

    def _check_flit_conservation(self, router: Router, cycle: int) -> None:
        live = router.stats.flits_accepted - router.stats.flits_ejected
        occupancy = router.occupancy()
        if self._exact_occupancy:
            if occupancy != live:
                raise InvariantViolation(
                    "flit conservation violated: accepted - ejected != "
                    "flits resident in the router",
                    cycle=cycle,
                    check="flit-conservation",
                    accepted=router.stats.flits_accepted,
                    ejected=router.stats.flits_ejected,
                    occupancy=occupancy,
                )
        elif occupancy < live:
            raise InvariantViolation(
                "flit conservation violated: more live flits than the "
                "router's (overcounting) occupancy",
                cycle=cycle,
                check="flit-conservation",
                accepted=router.stats.flits_accepted,
                ejected=router.stats.flits_ejected,
                occupancy=occupancy,
            )

    def _check_buffer_bounds(self, router: Router, cycle: int) -> None:
        for where, port, vc, q, maxlen in self._bounded:
            if len(q) > maxlen:
                raise InvariantViolation(
                    f"buffer depth exceeded in {where}: "
                    f"{len(q)} flits in a {maxlen}-deep queue",
                    cycle=cycle,
                    port=port,
                    vc=vc,
                    check="buffer-bounds",
                )

    @staticmethod
    def _iter_queues(
        router: Router,
    ) -> Iterator[Tuple[str, int, "int | None", FlitQueue]]:
        """Every bounded flit queue with a (label, port, vc) address."""
        for i, bank in enumerate(router.inputs):
            for vc, queue in enumerate(bank.queues):
                yield f"input buffer [{i}]", i, vc, queue
        if isinstance(router, BufferedCrossbarRouter):
            for i, row in enumerate(router.crosspoints):
                for j, bank in enumerate(row):
                    for vc, queue in enumerate(bank.queues):
                        yield f"crosspoint [{i}][{j}]", i, vc, queue
        elif isinstance(router, SharedBufferCrossbarRouter):
            for i, row in enumerate(router.crosspoints):
                for j, queue in enumerate(row):
                    yield f"shared crosspoint [{i}][{j}]", i, None, queue
        elif isinstance(router, HierarchicalCrossbarRouter):
            for r in range(router.num_sub):
                for c in range(router.num_sub):
                    sub = router.sub[r][c]
                    for lane, bank in enumerate(sub.in_bufs):
                        for vc, queue in enumerate(bank.queues):
                            yield (
                                f"subswitch ({r},{c}) in lane {lane}",
                                lane, vc, queue,
                            )
                    for lane, bank in enumerate(sub.out_bufs):
                        for vc, queue in enumerate(bank.queues):
                            yield (
                                f"subswitch ({r},{c}) out lane {lane}",
                                lane, vc, queue,
                            )

    def _check_vc_ownership(self, router: Router, cycle: int) -> None:
        seen: Dict[int, Tuple[int, int]] = {}
        for out, state in enumerate(router.output_vcs):
            for vc, owner in enumerate(state.owners):
                if owner is None:
                    continue
                if owner not in self._live_packets:
                    raise InvariantViolation(
                        f"output VC owned by packet {owner}, which has "
                        "no undelivered tail (stale ownership)",
                        cycle=cycle,
                        port=out,
                        vc=vc,
                        check="vc-ownership",
                        owner=owner,
                    )
                prior = seen.get(owner)
                if prior is not None:
                    raise InvariantViolation(
                        f"packet {owner} owns two output VCs at once: "
                        f"(out {prior[0]}, VC {prior[1]}) and "
                        f"(out {out}, VC {vc})",
                        cycle=cycle,
                        port=out,
                        vc=vc,
                        check="vc-ownership",
                        owner=owner,
                    )
                seen[owner] = (out, vc)

    # -- credit conservation -------------------------------------------

    @staticmethod
    def _build_credit_probes(router: Router):
        """Flatten the static (address, counter, queue) credit topology.

        Each entry is ``(key, cid, i, j, vc, counter, deque)`` pairing
        a credit counter with the downstream queue it guards, so the
        per-cycle loop is a flat scan with O(1) lookups into the
        in-flight buckets; ``key`` is a flattened integer address and
        ``cid`` the counter's ``id()``, both precomputed to avoid a
        tuple allocation and an ``id()`` call per counter per cycle.
        """
        if isinstance(router, BufferedCrossbarRouter):
            k, v = router.config.radix, router.config.num_vcs
            return "buffered", [
                ((i * k + j) * v + vc, id(router._credits[i][j][vc]),
                 i, j, vc, router._credits[i][j][vc],
                 router.crosspoints[i][j][vc]._q)
                for i in range(k) for j in range(k) for vc in range(v)
            ]
        if isinstance(router, SharedBufferCrossbarRouter):
            k = router.config.radix
            return "shared", [
                (i * k + j, id(router._credits[i][j]), i, j, None,
                 router._credits[i][j], router.crosspoints[i][j]._q)
                for i in range(k) for j in range(k)
            ]
        if isinstance(router, HierarchicalCrossbarRouter):
            k, v = router.config.radix, router.config.num_vcs
            p = router.config.subswitch_size
            return "hierarchical", [
                ((i * router.num_sub + col) * v + vc,
                 id(router._in_credits[i][col][vc]), i, col, vc,
                 router._in_credits[i][col][vc],
                 router.sub[i // p][col].in_bufs[i % p][vc]._q)
                for i in range(k) for col in range(router.num_sub)
                for vc in range(v)
            ]
        return None

    def _check_credits(self, router: Router, cycle: int) -> None:
        if self._credit_probes is None:
            return
        kind, entries = self._credit_probes
        if kind == "buffered":
            self._check_buffered_credits(router, cycle, entries)
        elif kind == "shared":
            self._check_shared_credits(router, cycle, entries)
        else:
            self._check_hierarchical_credits(router, cycle, entries)

    @staticmethod
    def _injector_sinks(router: Router) -> List:
        """Credits held by a fault injector awaiting resync.

        An injected credit loss leaves the counter un-restored while
        the flit is long gone from the downstream buffer; the injector's
        ledger is the missing ``held`` term, so counting it keeps the
        conservation equality exact under injected loss (a *real* leak
        still trips the check).
        """
        injector = getattr(router, "fault_injector", None)
        if injector is None:
            return []
        return injector.pending_credit_sinks()

    @staticmethod
    def _pending_restores(sinks) -> Dict[int, int]:
        """Bucket in-flight ``counter.restore`` callbacks by counter."""
        pending: Dict[int, int] = {}
        for sink in sinks:
            owner = getattr(sink, "__self__", None)
            if owner is not None:
                _bucket(pending, id(owner))
        return pending

    def _credit_violation(
        self, cycle, i, j, vc, counter, held, where
    ) -> InvariantViolation:
        return InvariantViolation(
            f"credit conservation violated at {where}: "
            f"{counter.free} free + {held} held != "
            f"{counter.capacity} capacity "
            f"({'leak' if counter.free + held < counter.capacity else 'surplus'})",
            cycle=cycle,
            port=i,
            vc=vc,
            check="credit-conservation",
            output=j,
            free=counter.free,
            held=held,
            capacity=counter.capacity,
        )

    def _scan_credits(
        self, entries, inflight, pending, cycle, where
    ) -> None:
        """Two-phase conservation check over all credit probe entries.

        Phase one scans every counter assuming nothing is in flight
        (``counter._free`` is read directly: a property call per counter
        per cycle is measurable at radix 16).  Any mismatch — a real
        violation or just traffic on the wing — lands in ``suspects``.
        Phase two re-verifies the suspects plus every entry the
        in-flight buckets actually touch, with the full ``held`` sum.
        The dict lookups therefore scale with the flits in flight, not
        with the k*k*v counters.
        """
        suspects = {}
        for entry in entries:
            counter = entry[5]
            if counter._free + len(entry[6]) != counter.capacity:
                suspects[entry[0]] = entry
        if inflight or pending:
            by_key, by_cid = self._entry_by_key, self._entry_by_cid
            for key in inflight:
                suspects[key] = by_key[key]
            for cid in pending:
                entry = by_cid.get(cid)
                if entry is not None:
                    suspects[entry[0]] = entry
        for key, cid, i, j, vc, counter, q in suspects.values():
            held = len(q) + inflight.get(key, 0) + pending.get(cid, 0)
            if counter._free + held != counter.capacity:
                raise self._credit_violation(
                    cycle, i, j, vc, counter, held, where(i, j)
                )

    def _check_buffered_credits(
        self, router: BufferedCrossbarRouter, cycle: int, entries
    ) -> None:
        k, v = router.config.radix, router.config.num_vcs
        inflight: Dict[int, int] = {}
        for flit, i, j in router._to_crosspoint.items():
            _bucket(inflight, (i * k + j) * v + flit.vc)
        sinks: List = []
        if router._credit_pipes is not None:
            for pipe in router._credit_pipes:
                sinks.extend(pipe.pending_sinks())
        elif router._credit_buses is not None:
            for bus in router._credit_buses:
                sinks.extend(bus.pending_sinks())
        sinks.extend(self._injector_sinks(router))
        pending = self._pending_restores(sinks)
        self._scan_credits(
            entries, inflight, pending, cycle,
            lambda i, j: f"crosspoint ({i},{j})",
        )

    def _check_shared_credits(
        self, router: SharedBufferCrossbarRouter, cycle: int, entries
    ) -> None:
        k = router.config.radix
        inflight: Dict[int, int] = {}
        for _flit, i, j in router._to_crosspoint.items():
            _bucket(inflight, i * k + j)
        pending: Dict[int, int] = {}
        for counter in router._credit_return.items():
            _bucket(pending, id(counter))
        self._scan_credits(
            entries, inflight, pending, cycle,
            lambda i, j: f"shared crosspoint ({i},{j})",
        )

    def _check_hierarchical_credits(
        self, router: HierarchicalCrossbarRouter, cycle: int, entries
    ) -> None:
        v = router.config.num_vcs
        inflight: Dict[int, int] = {}
        for flit, i, col in router._to_sub.items():
            _bucket(inflight, (i * router.num_sub + col) * v + flit.vc)
        sinks = router._credit_pipe.pending_sinks()
        sinks.extend(self._injector_sinks(router))
        pending = self._pending_restores(sinks)
        self._scan_credits(
            entries, inflight, pending, cycle,
            lambda i, col: f"subswitch input buffer (input {i}, "
                           f"column {col})",
        )


class NetworkSanitizer:
    """Per-cycle structural checks over a whole network simulation.

    Verifies, for every inter-router link, that the upstream credit
    counters, the downstream input-buffer occupancy, the flits in
    flight on the channel, and the credits in flight on the return path
    always sum to the buffer capacity — and that no input buffer ever
    exceeds its depth.  Subscribes to the simulation's scheduler-level
    ``cycle_end`` hook, so checks run once per simulated cycle without
    the simulation loop knowing about the sanitizer.  Constructed by
    ``NetworkSimulation(..., sanitize=True)``.
    """

    def __init__(self, sim, check_interval: int = 1) -> None:
        if check_interval < 1:
            raise ValueError(
                f"check_interval must be >= 1, got {check_interval}"
            )
        self.sim = sim
        self.check_interval = check_interval
        self._since_check = 0
        self.checks_run = 0
        hooks = getattr(sim, "hooks", None)
        if hooks is not None:
            hooks.on_cycle_end(self.check)
        # (name, out port, link, downstream router, downstream port)
        # for every credited (router-to-router) link.
        self._links: List[Tuple[str, int, object, object, int]] = []
        for sid, router in sim.routers.items():
            for port, link in enumerate(router.links):
                if link is None or link.credits is None:
                    continue
                target = getattr(link.deliver, "target", None)
                tport = getattr(link.deliver, "port", None)
                if target is None or tport is None:
                    continue
                self._links.append((str(sid), port, link, target, tport))

    def check(self, cycle: int) -> None:
        """Called once per simulated cycle; honours ``check_interval``."""
        self._since_check += 1
        if self._since_check >= self.check_interval:
            self._since_check = 0
            self.check_now(cycle)

    def check_now(self, cycle: int) -> None:
        sim = self.sim
        for sid, router in sim.routers.items():
            for port, bank in enumerate(router.inputs):
                for vc, queue in enumerate(bank.queues):
                    if queue.maxlen is not None and len(queue) > queue.maxlen:
                        raise InvariantViolation(
                            f"input buffer of router {sid} exceeded its "
                            f"depth: {len(queue)} > {queue.maxlen}",
                            cycle=cycle,
                            port=port,
                            vc=vc,
                            check="buffer-bounds",
                        )
        # Flits in flight on channels: (downstream, port, vc) -> count.
        inflight: Dict[Tuple[int, int, int], int] = {}
        for _arrival, _seq, flit, target in sim._inflight:
            if isinstance(target, tuple):
                router, port = target
                _bucket(inflight, (id(router), port, flit.vc))
        # Credits in flight on return paths: (link, vc) -> count.
        pending: Dict[Tuple[int, int], int] = {}
        for router in sim.routers.values():
            for sink, vc in router._credit_out.items():
                link = getattr(sink, "link", None)
                if link is not None:
                    _bucket(pending, (id(link), vc))
        # Credits claimed by the fault injector count as in flight until
        # the resync timeout re-delivers them (injected loss must not
        # read as a leak; a real leak still trips the check).
        injector = getattr(sim, "_faults", None)
        if injector is not None:
            for sink, vc in injector.pending_credits():
                link = getattr(sink, "link", None)
                if link is not None:
                    _bucket(pending, (id(link), vc))
        for name, port, link, target, tport in self._links:
            for vc, counter in enumerate(link.credits):
                held = (
                    len(target.inputs[tport][vc])
                    + inflight.get((id(target), tport, vc), 0)
                    + pending.get((id(link), vc), 0)
                )
                if counter.free + held != counter.capacity:
                    raise InvariantViolation(
                        f"link credit conservation violated on router "
                        f"{name} port {port}: {counter.free} free + "
                        f"{held} held != {counter.capacity} capacity",
                        cycle=cycle,
                        port=port,
                        vc=vc,
                        check="credit-conservation",
                        router=name,
                        free=counter.free,
                        held=held,
                        capacity=counter.capacity,
                    )
        self.checks_run += 1


__all__ = ["SimSanitizer", "NetworkSanitizer"]
