"""Experiment driver: load-latency sweeps over a single router.

Mirrors the paper's measurement procedure (Section 4.3): the simulator
is warmed up under load without taking measurements, a sample of
packets injected during a measurement interval is labeled, and the
simulation runs until all labeled packets reach their destinations.
Offered load is expressed as a fraction of switch capacity (one flit
per ``flit_cycles`` cycles per port); latency is measured from packet
generation (so source queueing counts) to tail-flit ejection.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core.config import RouterConfig
from ..core.errors import invariant
from ..core.flit import packet_id_state, set_packet_id_state
from ..engine import make_scheduler
from ..routers.base import Router, RouterStats
from ..traffic.injection import Bernoulli, InjectionProcess, MarkovOnOff
from ..traffic.patterns import TrafficPattern, UniformRandom
from ..traffic.source import TrafficSource
from ..workloads.base import Workload
from ..workloads.source import WorkloadSource
from .stats import LatencySample, RunResult, summarize

RouterFactory = Callable[[RouterConfig], Router]
PatternFactory = Callable[[RouterConfig], TrafficPattern]


def _default_pattern(config: RouterConfig) -> TrafficPattern:
    return UniformRandom(config.radix)


@dataclass(frozen=True)
class SweepSettings:
    """Timing parameters of a measurement run (in cycles).

    Frozen, so the checks below hold for every run that takes it.
    """

    warmup: int = 2000
    measure: int = 2000
    drain: int = 30000
    #: Treat the run as saturated when fewer than this fraction of the
    #: labeled packets drain within the drain budget.
    min_drain_fraction: float = 0.999

    def __post_init__(self) -> None:
        # An empty measurement window, or a negative warm-up or drain,
        # would run and report a throughput that looks measured but is
        # not.
        if self.warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {self.warmup}")
        if self.measure < 1:
            raise ValueError(f"measure must be >= 1, got {self.measure}")
        if self.drain < 0:
            raise ValueError(f"drain must be >= 0, got {self.drain}")
        if not 0.0 < self.min_drain_fraction <= 1.0:
            raise ValueError(
                "min_drain_fraction must be in (0, 1], got "
                f"{self.min_drain_fraction}"
            )

    def scaled(self, factor: float) -> "SweepSettings":
        """Scale all windows (used by reduced-scale benchmarks)."""
        return SweepSettings(
            warmup=max(1, int(self.warmup * factor)),
            measure=max(1, int(self.measure * factor)),
            drain=max(1, int(self.drain * factor)),
            min_drain_fraction=self.min_drain_fraction,
        )


class StagedRun:
    """The Section 4.3 measurement program, shared by both harnesses.

    Warm up, label the packets injected during a measurement window,
    then drain until the labeled packets arrive or the drain budget
    runs out.  :class:`SwitchSimulation` (one router) and
    :class:`~repro.network.netsim.NetworkSimulation` (a network of
    routers) inherit the program and keep only their per-cycle code.

    A harness's ``__init__`` calls ``super().__init__()`` and then sets
    ``_sched`` (its drive loop), ``_workload``, ``_faults`` and
    ``_tracer``; its per-cycle phases label packets while
    ``_measuring`` is set, count them in ``_labeled_outstanding`` /
    ``_labeled_total``, and count delivered flits while
    ``_count_flits`` is set.  It also supplies ``_num_ports()`` and
    ``_capacity()`` (the summary's normalization), ``_source_backlog()``
    (flits queued at the sources and the peak per-source queue),
    ``_run_stats()`` (the ``RouterStats`` the run's ``stats.*`` extras
    fold from), ``_sanitized()``, and the checkpoint pair: a
    ``snapshot()`` that deep-copies :meth:`_snapshot_state` of its own
    pieces, and ``_restore_parts(state)`` that puts them back.
    """

    #: Measured runs report ``extra["undelivered"]``, the labeled
    #: packets still in flight when the drain budget ran out.
    REPORT_UNDELIVERED = True

    def __init__(self) -> None:
        self._measuring = False
        self._count_flits = False
        self._labeled_outstanding = 0
        self._labeled_total = 0
        self.sample = LatencySample()
        self.measured_flits = 0
        #: In-progress measurement program (see :meth:`start_run`), or
        #: None when no staged run is active.  Plain picklable data so
        #: a checkpoint taken mid-run resumes at the same stage.
        self._program: Optional[Dict[str, Any]] = None

    @property
    def cycle(self) -> int:
        """Current simulation cycle (owned by the drive loop)."""
        return self._sched.now

    def step(self) -> None:
        """Advance exactly one simulation cycle."""
        self.run_until(self._sched.now + 1)

    def run_until(
        self, end: int, stop: Optional[Callable[[], bool]] = None
    ) -> int:
        """Advance through cycles ``[cycle, end)``, or until ``stop()``."""
        return self._sched.run_until(end, stop=stop)

    def run(
        self, settings: Optional[SweepSettings] = None, **windows: Any
    ) -> RunResult:
        """Warm up, measure, drain; return the summarized result.

        Pass a :class:`SweepSettings` or its field names
        (``run(warmup=200, measure=300, drain=2000)``); omitted fields
        take their :class:`SweepSettings` defaults.  Each phase is one
        ``run_until`` call, so fast-forward jumps never cross a
        warm-up/measurement boundary.
        """
        self.start_run(settings, **windows)
        self.advance_run()
        return self.finish_run()

    def run_workload(self, max_cycles: int = 1_000_000) -> RunResult:
        """Run the attached workload DAG to completion; summarize.

        The simulation advances until every workload message has been
        delivered (or ``max_cycles`` elapse — the result is then marked
        saturated and ``undelivered`` counts the stuck messages).  The
        latency sample holds per-message send-to-ejection latencies
        from the workload's own records; aggregate DAG metrics (flow
        percentiles, per-phase step time and skew, makespan) land in
        the ``stats.workload.*`` extras.
        """
        self.start_workload_run(max_cycles)
        self.advance_run()
        return self.finish_run()

    # ------------------------------------------------------------------
    # Staged measurement program (checkpointable run)
    # ------------------------------------------------------------------

    def start_run(
        self, settings: Optional[SweepSettings] = None, **windows: Any
    ) -> None:
        """Begin the warm-up/measure/drain program without running it.

        Takes the same arguments as :meth:`run`.  The program is plain
        data (absolute stage boundaries plus bookkeeping), so a
        snapshot taken between :meth:`advance_run` calls resumes
        mid-run byte-identically.
        """
        if self._program is not None:
            raise RuntimeError("a run is already in progress")
        if settings is None:
            settings = SweepSettings(**windows)
        elif windows:
            raise TypeError(
                "pass either a SweepSettings or its fields, not both"
            )
        warm_end = self.cycle + settings.warmup
        measure_end = warm_end + settings.measure
        self._program = {
            "kind": "measure",
            "stage": 0,
            "final": 3,
            "bounds": [warm_end, measure_end, measure_end + settings.drain],
            "measure_start": 0,
            "measured_cycles": 0,
            "min_drain_fraction": settings.min_drain_fraction,
        }

    def start_workload_run(self, max_cycles: int = 1_000_000) -> None:
        """Begin the workload-DAG program without running it."""
        if self._program is not None:
            raise RuntimeError("a run is already in progress")
        if self._workload is None:
            raise ValueError(
                f"run_workload() needs a {type(self).__name__}"
                "(workload=...)"
            )
        if max_cycles < 1:
            raise ValueError(f"max_cycles must be >= 1, got {max_cycles}")
        self._count_flits = True
        self._program = {
            "kind": "workload",
            "stage": 0,
            "final": 1,
            "bounds": [self.cycle + max_cycles],
            "run_start": self.cycle,
        }

    def advance_run(self, stop_at: Optional[int] = None) -> bool:
        """Advance the active program; True once it has completed.

        With ``stop_at`` set, pauses at the first *executed* cycle at
        or beyond it (fast-forward jumps land on their natural targets
        first, so pausing never perturbs the jump structure and the
        resumed run stays byte-identical to an uninterrupted one).
        """
        program = self._program
        if program is None:
            raise RuntimeError("no run in progress; call start_run() first")
        paused = (
            None if stop_at is None
            else (lambda: self._sched.now >= stop_at)
        )
        while program["stage"] < program["final"]:
            stage = program["stage"]
            end = program["bounds"][stage]
            self.run_until(end, stop=self._stage_stop(program, stage, paused))
            if self._stage_done(program, stage, end):
                self._finish_stage(program, stage)
            else:
                return False  # paused mid-stage
        return True

    def _stage_stop(
        self,
        program: Dict[str, Any],
        stage: int,
        paused: Optional[Callable[[], bool]],
    ) -> Optional[Callable[[], bool]]:
        """Combined stop predicate for one program stage."""
        inner = self._stage_predicate(program, stage)
        if inner is None:
            return paused
        if paused is None:
            return inner
        return lambda: paused() or inner()

    def _stage_predicate(
        self, program: Dict[str, Any], stage: int
    ) -> Optional[Callable[[], bool]]:
        if program["kind"] == "workload":
            return self._workload.done
        if stage == 2:  # drain
            return lambda: self._labeled_outstanding <= 0
        return None

    def _stage_done(
        self, program: Dict[str, Any], stage: int, end: int
    ) -> bool:
        """Did the stage complete (vs. pausing for a checkpoint)?"""
        if self._sched.now >= end:
            return True
        inner = self._stage_predicate(program, stage)
        return inner is not None and inner()

    def _finish_stage(self, program: Dict[str, Any], stage: int) -> None:
        """Apply the flag flips at a completed stage boundary."""
        program["stage"] = stage + 1
        if program["kind"] != "measure":
            return
        if stage == 0:  # warm-up done: start labeling
            self._measuring = True
            self._count_flits = True
            program["measure_start"] = self.cycle
        elif stage == 1:  # measurement window closed
            self._measuring = False
            self._count_flits = False
            program["measured_cycles"] = (
                self.cycle - program["measure_start"]
            )

    def finish_run(self) -> RunResult:
        """Summarize a completed program into a :class:`RunResult`."""
        program = self._program
        if program is None:
            raise RuntimeError("no run in progress")
        if program["stage"] < program["final"]:
            raise RuntimeError("run has not completed; advance_run() first")
        self._program = None
        if program["kind"] == "workload":
            return self._finish_workload(program)
        undelivered = self._labeled_outstanding
        delivered_fraction = (
            1.0
            if self._labeled_total == 0
            else 1.0 - undelivered / self._labeled_total
        )
        result = self._summarize(
            self.load,
            program["measured_cycles"],
            delivered_fraction < program["min_drain_fraction"],
        )
        if self.REPORT_UNDELIVERED:
            result.extra["undelivered"] = float(undelivered)
        self._fold_extras(result)
        return result

    def _finish_workload(self, program: Dict[str, Any]) -> RunResult:
        workload = self._workload
        self._count_flits = False
        for latency in workload.message_latencies():
            self.sample.add(latency)
        result = self._summarize(
            0.0,
            max(1, self.cycle - program["run_start"]),
            not workload.done(),
        )
        result.extra["undelivered"] = float(workload.remaining)
        self._fold_extras(result)
        return result

    def _summarize(
        self, offered_load: float, measured_cycles: int, saturated: bool
    ) -> RunResult:
        return summarize(
            offered_load=offered_load,
            sample=self.sample,
            measured_flits=self.measured_flits,
            measured_cycles=measured_cycles,
            num_ports=self._num_ports(),
            capacity=self._capacity(),
            saturated=saturated,
            cycles=self.cycle,
        )

    def _fold_extras(self, result: RunResult) -> None:
        """Fold shared observability extras into a run result."""
        backlog, peak = self._source_backlog()
        result.extra["source_backlog"] = float(backlog)
        # Peak injection-queue depth across sources: how far the worst
        # source queue got behind channel bandwidth.
        result.extra["stats.traffic.max_source_queue"] = float(peak)
        # Drive-loop observability: how much of the run fast-forward
        # skipped (0 in cycle mode).  Deliberately excluded from
        # mode-equivalence comparisons — they are the only legitimate
        # difference between the two schedulers.
        result.extra["stats.engine.cycles_skipped"] = float(
            self._sched.cycles_skipped
        )
        result.extra["stats.engine.ff_jumps"] = float(self._sched.ff_jumps)
        stats = self._run_stats()
        if self._tracer is not None:
            if self._workload is not None:
                self._workload.annotate(self._tracer)
            self._tracer.fold_stats(stats)
        if self._workload is not None:
            self._workload.fold_stats(stats)
        # Ad-hoc RouterStats.bump() counters ride along under a
        # ``stats.`` prefix so they survive into reports and sweeps.
        for name in sorted(stats.extra):
            result.extra[f"stats.{name}"] = float(stats.extra[name])

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def _snapshot_state(self, parts: Dict[str, Any]) -> Dict[str, Any]:
        """A harness's live ``parts`` plus the shared state, uncopied.

        Each harness's ``snapshot`` collects its own pieces as live
        references; this adds the scheduler, the packet-id stream, the
        staged-run program, the workload, the run counters, the fault
        injector and the tracer.  ``snapshot`` deep-copies the result
        in one pass, so aliasing (a flit both buffered and in flight,
        or the workload shared by every source) survives the capture.
        """
        if self._sanitized():
            raise ValueError(
                "cannot checkpoint a sanitized simulation; rerun the "
                "sanitizer after restore instead"
            )
        return dict(
            parts,
            sched=self._sched.snapshot(),
            packet_ids=packet_id_state(),
            program=self._program,
            workload=self._workload,
            run={
                "measuring": self._measuring,
                "count_flits": self._count_flits,
                "labeled_outstanding": self._labeled_outstanding,
                "labeled_total": self._labeled_total,
                "sample": self.sample,
                "measured_flits": self.measured_flits,
            },
            faults=None if self._faults is None else self._faults.snapshot(),
            tracer=(
                None if self._tracer is None else dict(vars(self._tracer))
            ),
        )

    def restore(self, state: Dict[str, Any]) -> None:
        """Apply a :meth:`snapshot` capture onto this simulation.

        The simulation must have been constructed with the same
        parameters as the one captured (same router or topology, load,
        pattern, seed, fault plan, workload, tracer, scheduler mode);
        only mutable state is replaced, in place, so scheduler
        registration and hook subscriptions stay wired.
        """
        if self._sanitized():
            raise ValueError("cannot restore onto a sanitized simulation")
        for key, label, live in (
            ("faults", "fault plan", self._faults),
            ("workload", "workload", self._workload),
            ("tracer", "tracer", self._tracer),
        ):
            if (state[key] is None) != (live is None):
                raise ValueError(
                    f"{label} mismatch between snapshot and simulation"
                )
        state = copy.deepcopy(state)
        # The harness's own pieces first: it checks the capture's shape
        # before touching anything, and the fault injector resolves its
        # held credit sinks against the restored routers.
        self._restore_parts(state)
        self._sched.restore(state["sched"])
        set_packet_id_state(state["packet_ids"])
        self._program = state["program"]
        self._workload = state["workload"]
        run = state["run"]
        self._measuring = run["measuring"]
        self._count_flits = run["count_flits"]
        self._labeled_outstanding = run["labeled_outstanding"]
        self._labeled_total = run["labeled_total"]
        self.sample = run["sample"]
        self.measured_flits = run["measured_flits"]
        if self._faults is not None:
            self._faults.restore(state["faults"])
        if self._tracer is not None:
            vars(self._tracer).clear()
            vars(self._tracer).update(state["tracer"])

    def save_checkpoint(self, path) -> None:
        """Persist this simulation (state plus rebuild spec) to disk.

        Resume with :func:`repro.harness.checkpoint.load_checkpoint`.
        """
        from .checkpoint import save_checkpoint

        save_checkpoint(self, path)


class SwitchSimulation(StagedRun):
    """Drives one router instance with per-input traffic sources."""

    #: Attributes :meth:`snapshot` deliberately omits (lint rule R010):
    #: construction parameters (``config``/``load``/``packet_size`` and
    #: the build spec, which the checkpoint file header carries
    #: instead), live wiring (``hooks``, the engine's injector handle),
    #: and the ``record_delivered`` flag, all of which a restored twin
    #: gets from its own constructor.
    SNAPSHOT_WIRING = (
        "_build_spec", "hooks", "config", "load", "packet_size",
        "fault_injector", "record_delivered",
    )

    def __init__(
        self,
        router: Router,
        load: float = 0.0,
        packet_size: int = 1,
        pattern: Optional[TrafficPattern] = None,
        injection: str = "bernoulli",
        avg_burst: float = 8.0,
        seed: Optional[int] = None,
        record_delivered: bool = False,
        sanitize: bool = False,
        active_set: bool = True,
        tracer=None,
        faults=None,
        scheduler: str = "cycle",
        workload: Optional[Workload] = None,
    ) -> None:
        """``faults`` is an optional :class:`~repro.faults.FaultPlan`:
        when set (and enabled) a
        :class:`~repro.faults.SwitchFaultInjector` drives host-channel
        corruption with retransmission, credit loss with resync, and
        the plan's stuck-buffer schedule.  None — or a disabled plan —
        leaves the simulation byte-identical to a plain run.

        ``scheduler`` selects the drive loop: ``"cycle"`` executes
        every cycle; ``"event"`` fast-forwards over spans in which the
        router is parked and no arrival, injection retry, or fault
        event is due.  Results are byte-identical either way (the
        goldens and property tests pin this); only
        ``stats.engine.cycles_skipped`` / ``stats.engine.ff_jumps``
        and wall-clock time differ.

        ``workload`` replaces the synthetic sources with one
        :class:`~repro.workloads.WorkloadSource` per port, all sharing
        the workload's dependency DAG: a message injects only once its
        dependencies have been ejected.  Drive with
        :meth:`run_workload` instead of :meth:`run`."""
        if not 0.0 <= load <= 1.0:
            raise ValueError(f"load must be in [0, 1], got {load}")
        if packet_size < 1:
            raise ValueError(f"packet_size must be >= 1, got {packet_size}")
        super().__init__()
        #: Constructor arguments a checkpoint file needs to rebuild an
        #: equivalent simulation (see :mod:`repro.harness.checkpoint`);
        #: everything else is recoverable from the built object.
        self._build_spec: Dict[str, Any] = {
            "load": load,
            "packet_size": packet_size,
            "pattern": pattern,
            "injection": injection,
            "avg_burst": avg_burst,
            "seed": seed,
            "record_delivered": record_delivered,
        }
        if sanitize:
            # Imported lazily: the analysis layer sits above the harness.
            from ..analysis.sanitizer import SimSanitizer

            if not isinstance(router, SimSanitizer):
                router = SimSanitizer(router)
        self.router = router
        # The engine drives the raw Router; checking wrappers
        # (SimSanitizer, CheckedRouter) expose it as ``.inner`` and
        # observe it through its hooks, not by intercepting step().
        self._engine: Router = getattr(router, "inner", router)
        #: The router's event bus (metrics/tracing attach here).
        self.hooks = self._engine.hooks
        self._sched = make_scheduler(
            scheduler,
            [self._engine],
            hooks=self._engine.hooks,
            active_set=active_set,
        )
        # The drive loop is inverted: the scheduler owns the per-cycle
        # sequence (faults -> generate -> inject -> engine -> collect)
        # and this harness contributes its phases and, for event mode,
        # its wake horizons.
        self._sched.add_pre_cycle(self._pre_cycle)
        self._sched.add_post_cycle(self._collect_ejected)
        self._sched.add_wake_source(self._next_work)
        #: Optional trace collector (see :mod:`repro.trace`): anything
        #: with ``attach(sim)`` and ``fold_stats(stats)``.  Attached
        #: here — before any cycle runs — so lifecycle records start at
        #: the first accept; its aggregate counters are folded into the
        #: run result's ``stats.trace.*`` extras by :meth:`run`.
        self._tracer = tracer
        if tracer is not None:
            tracer.attach(self)
        self.config = router.config
        self.load = load
        self.packet_size = packet_size
        seed = self.config.seed if seed is None else seed
        pattern = pattern or UniformRandom(self.config.radix)
        packet_rate = load * self.config.capacity_flits_per_cycle / packet_size
        peak_rate = self.config.capacity_flits_per_cycle / packet_size
        self._workload = workload
        self.sources: List[Union[TrafficSource, WorkloadSource]] = []
        if workload is not None:
            if workload.num_ranks > self.config.radix:
                raise ValueError(
                    f"workload has {workload.num_ranks} ranks but the "
                    f"router only has {self.config.radix} ports"
                )
            for i in range(self.config.radix):
                self.sources.append(WorkloadSource(i, workload))
        else:
            for i in range(self.config.radix):
                proc: InjectionProcess
                if injection == "bernoulli":
                    proc = Bernoulli(packet_rate)
                elif injection == "onoff":
                    proc = MarkovOnOff(packet_rate, peak_rate, avg_burst)
                else:
                    raise ValueError(f"unknown injection kind {injection!r}")
                self.sources.append(
                    TrafficSource(i, pattern, proc, packet_size, seed)
                )
        if faults is not None and faults.enabled:
            # Imported lazily: the faults layer sits above the harness.
            from ..faults import SwitchFaultInjector

            self._faults: Optional[SwitchFaultInjector] = (
                SwitchFaultInjector(faults, self._engine, seed)
            )
            # The sanitizer reads the injector's lost-credit ledger
            # through this handle when balancing the credit books.
            self._engine.fault_injector = self._faults
        else:
            self._faults = None
        k = self.config.radix
        self._next_inject = [0] * k
        self._packet_vc: List[Optional[int]] = [None] * k
        self._vc_rr = [0] * k
        self._generating = True
        #: When record_delivered is set, every (flit, eject_cycle) pair
        #: is retained here for inspection (costs memory on long runs).
        self.record_delivered = record_delivered
        self.delivered: List[tuple] = []

    # ------------------------------------------------------------------

    def _pre_cycle(self, now: int) -> None:
        """Harness work before the engine cycle: faults, traffic."""
        if self._faults is not None:
            # Apply scheduled stuck faults and deliver due credit
            # resyncs before anything else observes this cycle.
            self._faults.advance(now)
        if self._generating:
            measuring = self._measuring
            if self._workload is None:
                for src in self.sources:
                    # Pre-drawn arrival still ahead: generate() would be
                    # a no-op (it polls the same cached prediction), so
                    # skip the call on this hot per-source loop.
                    nxt = src._next_arrival
                    if nxt is not None and nxt > now:
                        continue
                    if src.generate(now, measuring) is not None and measuring:
                        self._labeled_outstanding += 1
                        self._labeled_total += 1
            else:
                for src in self.sources:
                    if src.generate(now, measuring) is not None and measuring:
                        self._labeled_outstanding += 1
                        self._labeled_total += 1
        self._inject(now)

    def _collect_ejected(self, now: int) -> None:
        """Harness work after the engine cycle: delivery accounting."""
        for flit, eject_cycle in self.router.drain_ejected():
            if self.record_delivered:
                self.delivered.append((flit, eject_cycle))
            if self._count_flits:
                self.measured_flits += 1
            if flit.is_tail and flit.measured:
                self.sample.add(eject_cycle - flit.created_at)
                self._labeled_outstanding -= 1
            if flit.is_tail and self._workload is not None:
                # Delivery unlocks the DAG successors; their ranks
                # become eligible on a later cycle (the event
                # scheduler's wake horizon sees this via eligible()).
                self._workload.deliver(flit.packet_id, eject_cycle)

    def _next_work(self, now: int) -> Optional[int]:
        """Wake horizon: earliest cycle >= ``now`` with harness work.

        Consulted by event mode before fast-forwarding past a span in
        which the router is parked: the next pre-drawn packet arrival,
        the earliest cycle a backlogged source can retry injection
        (channel bandwidth throttle, fault back-off), and the fault
        injector's schedule.  Horizons may be conservative (early) but
        never late — see the engine module docstring.
        """
        horizon: Optional[int] = None
        if self._generating:
            for src in self.sources:
                arrival = src.peek_arrival(now)
                if arrival is not None and (
                    horizon is None or arrival < horizon
                ):
                    horizon = arrival
        faults = self._faults
        for i, src in enumerate(self.sources):
            if not src.queue:
                continue
            retry = self._next_inject[i]
            if faults is not None:
                retry = max(retry, faults.channel_retry_at(i))
            retry = max(retry, now)
            if horizon is None or retry < horizon:
                horizon = retry
        if faults is not None:
            due = faults.next_event(now)
            if due is not None and (horizon is None or due < horizon):
                horizon = due
        return horizon

    def _inject(self, now: int) -> None:
        """Move flits from source queues into input buffers.

        One flit per ``flit_cycles`` cycles per input (channel
        bandwidth); each packet is assigned an input VC round-robin
        among VCs with free buffer space when its head flit enters.
        """
        fc = self.config.flit_cycles
        faults = self._faults
        next_inject = self._next_inject
        packet_vc = self._packet_vc
        banks = self._engine.inputs
        for i, src in enumerate(self.sources):
            if now < next_inject[i]:
                continue
            if faults is not None and not faults.channel_ready(i, now):
                continue
            queue = src.queue
            if not queue:
                continue
            flit = queue[0]
            vc = packet_vc[i]
            if vc is None:
                invariant(flit.is_head, "packet VC lost mid-packet",
                          cycle=now, port=i, check="injection")
                vc = self._pick_vc(i)
                if vc is None:
                    continue
                packet_vc[i] = vc
            # Inlined input_space(i, vc) >= 1: this backpressure check
            # runs for every backlogged port every cycle, so it reads
            # the buffer directly instead of going through two calls.
            q = banks[i].queues[vc]
            if len(q._q) >= q.maxlen:
                continue
            flit.vc = vc
            if faults is not None and not faults.attempt_transmit(
                i, flit, now
            ):
                # Corrupted on the wire: the receiver's CRC check drops
                # it, the sender keeps it queued for retransmission.
                # The corrupted transmission still occupied the channel.
                self._next_inject[i] = now + fc
                continue
            src.pop()
            # Wake a parked router *before* accept so the flit's
            # injection timestamp uses the current cycle.
            self._sched.wake(self._engine, now)
            self.router.accept(i, flit)
            self._next_inject[i] = now + fc
            if flit.is_tail:
                self._packet_vc[i] = None

    def stop_sources(self) -> None:
        """Stop generating new packets (used to drain the system)."""
        self._generating = False

    def _pick_vc(self, i: int) -> Optional[int]:
        v = self.config.num_vcs
        # Direct buffer reads (== input_space >= 1): a head flit stuck
        # behind full buffers rescans every VC every cycle, making this
        # the harness's hottest loop at saturation.
        queues = self._engine.inputs[i].queues
        rr = self._vc_rr[i]
        for offset in range(v):
            vc = rr + offset
            if vc >= v:
                vc -= v
            q = queues[vc]
            if len(q._q) < q.maxlen:
                self._vc_rr[i] = (vc + 1) % v
                return vc
        return None

    # ------------------------------------------------------------------
    # StagedRun hooks and checkpointing
    # ------------------------------------------------------------------

    def _num_ports(self) -> int:
        return self.config.radix

    def _capacity(self) -> float:
        return self.config.capacity_flits_per_cycle

    def _source_backlog(self) -> Tuple[int, int]:
        return (
            sum(s.backlog() for s in self.sources),
            max((s.peak_backlog for s in self.sources), default=0),
        )

    def _run_stats(self) -> RouterStats:
        return self.router.stats

    def _sanitized(self) -> bool:
        return self.router is not self._engine

    def snapshot(self) -> Dict[str, Any]:
        """Picklable capture of the whole simulation at a cycle boundary.

        Restore onto a simulation constructed with identical
        parameters (see :meth:`StagedRun.restore`).
        """
        faults = self._faults
        if faults is not None:
            # Keep the captured credit pipes free of injector taps (the
            # tap would drag the hook bus, and through it the whole
            # simulation, into the copied graph).
            faults.detach_credit_hooks()
        try:
            return copy.deepcopy(self._snapshot_state({
                "engine": self._engine._snapshot_state(),
                "sources": [vars(src) for src in self.sources],
                "harness": {
                    "next_inject": self._next_inject,
                    "packet_vc": self._packet_vc,
                    "vc_rr": self._vc_rr,
                    "generating": self._generating,
                    "delivered": self.delivered,
                },
            }))
        finally:
            if faults is not None:
                faults.attach_credit_hooks()

    def _restore_parts(self, state: Dict[str, Any]) -> None:
        if len(state["sources"]) != len(self.sources):
            raise ValueError(
                f"snapshot captured {len(state['sources'])} sources, "
                f"simulation has {len(self.sources)}"
            )
        self._engine._restore_state(state["engine"])
        for src, src_state in zip(self.sources, state["sources"]):
            vars(src).update(src_state)
        harness = state["harness"]
        self._next_inject = harness["next_inject"]
        self._packet_vc = harness["packet_vc"]
        self._vc_rr = harness["vc_rr"]
        self._generating = harness["generating"]
        self.delivered = harness["delivered"]


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------


@dataclass
class SweepResult:
    """A load-latency curve for one router configuration."""

    label: str
    results: List[RunResult] = field(default_factory=list)

    @property
    def loads(self) -> List[float]:
        return [r.offered_load for r in self.results]

    @property
    def latencies(self) -> List[float]:
        return [r.avg_latency for r in self.results]

    @property
    def throughputs(self) -> List[float]:
        return [r.throughput for r in self.results]

    def saturation_throughput(self) -> float:
        """Largest accepted throughput observed on the curve."""
        return max((r.throughput for r in self.results), default=0.0)

    def zero_load_latency(self) -> float:
        """Latency of the lowest-load point on the curve."""
        if not self.results:
            return float("nan")
        return min(self.results, key=lambda r: r.offered_load).avg_latency


def run_load_sweep(
    make_router: RouterFactory,
    config: RouterConfig,
    loads: Sequence[float],
    label: str = "",
    packet_size: int = 1,
    pattern_factory: PatternFactory = _default_pattern,
    injection: str = "bernoulli",
    avg_burst: float = 8.0,
    settings: Optional[SweepSettings] = None,
    seed: Optional[int] = None,
    sanitize: bool = False,
    scheduler: str = "cycle",
) -> SweepResult:
    """Simulate one router at each offered load; returns the curve."""
    sweep = SweepResult(label=label or type(make_router(config)).__name__)
    for load in loads:
        router = make_router(config)
        sim = SwitchSimulation(
            router,
            load=load,
            packet_size=packet_size,
            pattern=pattern_factory(config),
            injection=injection,
            avg_burst=avg_burst,
            seed=seed,
            sanitize=sanitize,
            scheduler=scheduler,
        )
        sweep.results.append(sim.run(settings))
    return sweep


def saturation_throughput(
    make_router: RouterFactory,
    config: RouterConfig,
    packet_size: int = 1,
    pattern_factory: PatternFactory = _default_pattern,
    injection: str = "bernoulli",
    avg_burst: float = 8.0,
    settings: Optional[SweepSettings] = None,
    load: float = 1.0,
    seed: Optional[int] = None,
    sanitize: bool = False,
    scheduler: str = "cycle",
) -> float:
    """Accepted throughput at (near-)unit offered load."""
    router = make_router(config)
    sim = SwitchSimulation(
        router,
        load=load,
        packet_size=packet_size,
        pattern=pattern_factory(config),
        injection=injection,
        avg_burst=avg_burst,
        seed=seed,
        sanitize=sanitize,
        scheduler=scheduler,
    )
    return sim.run(settings).throughput


def find_saturation_load(
    make_router: RouterFactory,
    config: RouterConfig,
    packet_size: int = 1,
    pattern_factory: PatternFactory = _default_pattern,
    injection: str = "bernoulli",
    avg_burst: float = 8.0,
    settings: Optional[SweepSettings] = None,
    tolerance: float = 0.02,
    seed: Optional[int] = None,
    sanitize: bool = False,
    scheduler: str = "cycle",
) -> float:
    """Binary-search the saturation load of a router configuration.

    A point is *unsaturated* when the accepted throughput tracks the
    offered load (within ``slack = max(0.03, tolerance)``) and the
    labeled packets drain — i.e. a steady state exists, which is what
    the paper's methodology presumes below saturation.  Returns the
    largest load, within ``tolerance``, that is still unsaturated.

    This is the load at which the latency-load curve turns vertical —
    the quantity the paper reads off its figures as "saturates at
    approximately X% of capacity".  It agrees with
    :func:`saturation_throughput` (accepted throughput at load 1.0) up
    to the queueing growth near the knee.
    """
    if not 0.0 < tolerance < 1.0:
        raise ValueError(f"tolerance must be in (0, 1), got {tolerance}")
    settings = settings or SweepSettings()
    slack = max(0.03, tolerance)

    def saturated_at(load: float) -> bool:
        router = make_router(config)
        sim = SwitchSimulation(
            router,
            load=load,
            packet_size=packet_size,
            pattern=pattern_factory(config),
            injection=injection,
            avg_burst=avg_burst,
            seed=seed,
            sanitize=sanitize,
            scheduler=scheduler,
        )
        result = sim.run(settings)
        return result.saturated or result.throughput < load - slack

    lo, hi = 0.0, 1.0
    if not saturated_at(1.0):
        return 1.0
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        if saturated_at(mid):
            hi = mid
        else:
            lo = mid
    return lo
