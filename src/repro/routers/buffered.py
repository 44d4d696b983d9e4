"""Fully buffered crossbar: per-VC buffers at every crosspoint (Section 5).

Adding buffering at the crosspoints "decouples input and output virtual
channel and switch allocation.  This decoupling simplifies the
allocation, reduces the need for speculation, and overcomes the
performance problems of the baseline architecture" (Section 5).

Microarchitecture implemented here, following Sections 5.1-5.2:

* Each crosspoint (i, j) holds ``num_vcs`` buffers of
  ``crosspoint_buffer_depth`` flits; the buffers are associated with the
  *input* VCs, so no VC allocation is needed to reach the crosspoint —
  "in effect, the crosspoint buffers are per-output extensions of the
  input buffers".
* Input side: the input arbiter picks one ready VC whose head flit has
  a credit for its crosspoint buffer and launches it across the input
  row; the row is occupied for ``flit_cycles`` cycles and the flit
  lands in the crosspoint buffer after that traversal.  Because the
  flit is buffered at the crosspoint, it never has to re-arbitrate at
  the input after losing output arbitration.
* Output side: output VC allocation is performed in two stages — "a
  v-to-1 arbiter that selects a VC at each crosspoint followed by a
  k-to-1 arbiter that selects a crosspoint to communicate with the
  output" — with the k-to-1 stage using the same local/global
  (hierarchical) arbitration as the unbuffered switch.
* Crosspoint credits (Section 5.2): each input keeps a free-buffer
  counter per crosspoint buffer in its row; all crosspoints on a row
  share a single credit return bus with distributed round-robin
  arbitration.  ``config.ideal_credit_return`` switches to the ideal
  (immediate, dedicated-wire) credit return for the comparison the
  paper reports ("simulations show that there is minimal difference").

With sufficient crosspoint buffering this design reaches ~100% of
capacity on uniform random traffic (Figure 13) because head-of-line
blocking is eliminated; its cost is O(v·k²) buffer storage (Figure 15).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..allocation.switch_alloc import OutputArbiterBank
from ..core.arbiter import (
    BatchArbiterBank,
    BatchHierarchicalArbiterBank,
    RoundRobinArbiter,
    _np,
)
from ..core.batch import (
    HAVE_NUMPY,
    ArrayBusyTracker,
    QueueArrays,
    mirror_credit_array,
    mirror_output_vcs,
    mirror_vc_bank,
)
from ..core.buffers import VcBufferBank
from ..core.config import RouterConfig
from ..core.errors import invariant
from ..core.credit import CreditCounter, CreditReturnBus, DelayedCreditPipe
from ..core.flit import Flit
from ..core.pipeline import DelayLine
from .base import Router


class BufferedCrossbarRouter(Router):
    """Crossbar with per-VC buffers at each crosspoint (Figure 12(b))."""

    # "XB" fires when the flit launches across its input row toward the
    # crosspoint buffer; "ST" fires when the output column grants it.
    TRACE_STAGES = ("RC", "XB", "ST")

    def __init__(self, config: RouterConfig) -> None:
        super().__init__(config)
        k, v = config.radix, config.num_vcs
        depth = config.crosspoint_buffer_depth
        self.crosspoints: List[List[VcBufferBank]] = [
            [VcBufferBank(v, depth) for _ in range(k)] for _ in range(k)
        ]
        self._credits: List[List[List[CreditCounter]]] = [
            [[CreditCounter(depth) for _ in range(v)] for _ in range(k)]
            for _ in range(k)
        ]
        # Flat view of every crosspoint queue's deque: the occupancy
        # scan over k*k*v queues runs every cycle under the sanitizer,
        # so it must stay a single C-level sum(map(len, ...)).
        self._xp_flat = [
            q._q for row in self.crosspoints for bank in row
            for q in bank.queues
        ]
        self._input_arb = [RoundRobinArbiter(v) for _ in range(k)]
        self._xp_vc_arb = [
            [RoundRobinArbiter(v) for _ in range(k)] for _ in range(k)
        ]
        self._output_arb = OutputArbiterBank(k, k, config.local_group_size)
        # Flits crossing the input row toward their crosspoint.
        self._to_crosspoint: DelayLine[Tuple[Flit, int, int]] = DelayLine(
            config.flit_cycles
        )
        self._in_flight_to_xp = 0
        # Per output: the set of crosspoints currently holding flits,
        # so the output stage skips the (vast) empty majority.
        self._occupied: List[set] = [set() for _ in range(k)]
        if config.ideal_credit_return:
            self._credit_pipes: Optional[List[DelayedCreditPipe]] = [
                DelayedCreditPipe(0) for _ in range(k)
            ]
            self._credit_buses: Optional[List[CreditReturnBus]] = None
        else:
            if config.credit_latency < 1:
                # The shared bus needs a cycle to arbitrate; only the
                # ideal (dedicated-wire) return can take zero.
                raise ValueError(
                    "credit_latency must be >= 1 on the shared credit "
                    f"return bus, got {config.credit_latency}"
                )
            self._credit_pipes = None
            self._credit_buses = [
                CreditReturnBus(k, config.credit_latency) for _ in range(k)
            ]
        self._head_delay = config.route_latency
        self._batch = bool(config.batch_hot_path) and HAVE_NUMPY
        if self._batch:
            self._init_batch()

    def _init_batch(self) -> None:
        """Build the struct-of-arrays mirrors for the batched hot path.

        Every scalar state primitive consulted by the per-cycle
        eligibility scans is replaced (while empty/idle, at
        construction time) by a mirrored twin that keeps a shared flat
        array in sync on each mutation; see ``repro.core.batch``.  The
        scalar arbiters stay allocated but idle — the batched banks
        below hold the pointer state of record in this mode.
        """
        k, v = self.config.radix, self.config.num_vcs
        self._b_in = QueueArrays(k * v)
        for i, bank in enumerate(self.inputs):
            mirror_vc_bank(bank, self._b_in, i * v)
        self._b_xp = QueueArrays(k * k * v)
        for i, row in enumerate(self.crosspoints):
            for j, bank in enumerate(row):
                mirror_vc_bank(bank, self._b_xp, (i * k + j) * v)
        # The flat occupancy view references the replaced queues' deques.
        self._xp_flat = [
            q._q for row in self.crosspoints for bank in row
            for q in bank.queues
        ]
        self._b_cred_ok = _np.ones(k * k * v, dtype=bool)
        self._credits = [
            [
                mirror_credit_array(
                    self._credits[i][j], self._b_cred_ok, (i * k + j) * v
                )
                for j in range(k)
            ]
            for i in range(k)
        ]
        # Per-crosspoint total occupancy, so the output stage touches
        # only the (sparse) occupied crosspoints; kept in sync at the
        # landing and transmit sites.
        self._b_xp_cnt = _np.zeros(k * k, dtype=_np.int64)
        # Scatter target for per-crosspoint VC-arbitration winners;
        # only slots granted this cycle are ever read back.
        self._b_xp_vcw = _np.zeros(k * k, dtype=_np.int64)
        self._b_vc_owner = _np.full(k * v, -1, dtype=_np.int64)
        self.output_vcs = mirror_output_vcs(self.output_vcs, self._b_vc_owner)
        self.input_busy = ArrayBusyTracker(k)
        self.output_busy = ArrayBusyTracker(k)
        self._input_arb_b = BatchArbiterBank(k, v)
        self._xp_vc_arb_b = BatchArbiterBank(k * k, v)
        self._output_arb_b = BatchHierarchicalArbiterBank(
            k, k, self.config.local_group_size
        )
        # flat[i, vc] -> index of credit slot (i, dest, vc) given dest:
        # gather base + dest * v.
        self._b_cred_gather = (
            (_np.arange(k, dtype=_np.int64) * (k * v))[:, None]
            + _np.arange(v, dtype=_np.int64)[None, :]
        )
        # Persistent (output, input) request scratch for the k-to-1
        # arbitration; set/cleared around each grant_all call.
        self._b_req = _np.zeros((k, k), dtype=bool)
        if self._credit_buses is not None:
            # Pending-credit counts per (input row, crosspoint), kept in
            # sync with the buses at the single post site below, plus a
            # per-row total so the step visits only buses with backlog.
            self._bus_counts = _np.zeros(k * k, dtype=_np.int64)
            self._b_bus_row_cnt = _np.zeros(k, dtype=_np.int64)
            self._b_bus_live: set = set()
            self._bus_arb_b = BatchArbiterBank(k, k)
        else:
            self._bus_counts = None
            self._b_bus_row_cnt = None
            self._b_bus_live = set()
            self._bus_arb_b = None

    # ------------------------------------------------------------------

    def _advance(self) -> None:
        self._land_crosspoint_flits()
        if self._batch:
            self._output_stage_batched()
            self._input_stage_batched()
        else:
            self._output_stage()
            self._input_stage()
        self._step_credit_return()

    # ------------------------------------------------------------------
    # Input row: launch flits toward their crosspoint buffers
    # ------------------------------------------------------------------

    def _input_stage(self) -> None:
        now = self.cycle
        for i in range(self.config.radix):
            if not self._in_active[i]:
                continue
            if not self.input_busy.free(i, now):
                continue
            sendable = [
                self._sendable(i, vc) for vc in range(self.config.num_vcs)
            ]
            vc = self._input_arb[i].arbitrate([f is not None for f in sendable])
            if vc is None:
                continue
            flit = sendable[vc]
            invariant(flit is not None, "input arbiter granted a VC with "
                      "no sendable flit", cycle=now, port=i, vc=vc,
                      check="arbitration")
            popped = self.inputs[i][vc].pop()
            invariant(popped is flit, "input buffer head changed between "
                      "arbitration and pop", cycle=now, port=i, vc=vc,
                      check="buffer-integrity")
            self._input_emptied(i)
            self._credits[i][flit.dest][vc].consume()
            self.input_busy.reserve(i, now, self.config.flit_cycles)
            self._to_crosspoint.push(now, (flit, i, flit.dest))
            self._in_flight_to_xp += 1
            if self.hooks.stage_enter:
                self.hooks.emit_stage_enter(flit, "XB", flit.dest, now)

    def _sendable(self, i: int, vc: int) -> Optional[Flit]:
        """Head-of-queue flit of (i, vc) if a crosspoint credit exists."""
        if self._stuck_inputs and (i, vc) in self._stuck_inputs:
            return None
        flit = self.inputs[i][vc].head()
        if flit is None:
            return None
        if flit.is_head and self.cycle - flit.injected_at < self._head_delay:
            return None
        if not self._credits[i][flit.dest][vc].available:
            return None
        return flit

    def _land_crosspoint_flits(self) -> None:
        # The batched path tracks crosspoint occupancy in _b_xp_cnt and
        # never reads the scalar _occupied sets (and vice versa), so
        # each mode maintains only its own structure.
        if self._batch:
            k = self.config.radix
            for flit, i, j in self._to_crosspoint.pop_ready(self.cycle):
                self.crosspoints[i][j][flit.vc].push(flit)
                self._in_flight_to_xp -= 1
                self._b_xp_cnt[i * k + j] += 1
            return
        for flit, i, j in self._to_crosspoint.pop_ready(self.cycle):
            self.crosspoints[i][j][flit.vc].push(flit)
            self._occupied[j].add(i)
            self._in_flight_to_xp -= 1

    # ------------------------------------------------------------------
    # Output column: two-stage output VC allocation + switch arbitration
    # ------------------------------------------------------------------

    def _output_stage(self) -> None:
        now = self.cycle
        for j in range(self.config.radix):
            if not self.output_busy.free(j, now) or not self._occupied[j]:
                continue
            candidates: dict = {}
            # Sorted so candidate order (which feeds the output arbiter)
            # never depends on set iteration order.
            for i in sorted(self._occupied[j]):
                cand = self._crosspoint_candidate(i, j)
                if cand is not None:
                    candidates[i] = cand
            if not candidates:
                continue
            winner = self._output_arb.grant(
                j, [(i, False) for i in candidates]
            )
            if winner is None:
                continue
            vc, flit = candidates[winner]
            self._transmit(winner, j, vc, flit)

    def _crosspoint_candidate(
        self, i: int, j: int
    ) -> Optional[Tuple[int, Flit]]:
        """v-to-1 crosspoint arbitration: pick a sendable VC at (i, j)."""
        bank = self.crosspoints[i][j]
        ready = [
            self._xp_flit_ready(j, bank[vc].head())
            for vc in range(self.config.num_vcs)
        ]
        vc = self._xp_vc_arb[i][j].arbitrate(ready)
        if vc is None:
            return None
        flit = bank[vc].head()
        invariant(flit is not None, "crosspoint VC arbiter granted an "
                  "empty VC", cycle=self.cycle, port=i, vc=vc,
                  check="arbitration")
        return vc, flit

    def _xp_flit_ready(self, j: int, flit: Optional[Flit]) -> bool:
        """Can this crosspoint flit proceed to output j?

        Body/tail flits proceed iff their packet owns the output VC;
        head flits claim their input-VC class and proceed iff that
        output VC is free (crosspoint VC allocation).
        """
        if flit is None:
            return False
        state = self.output_vcs[j]
        if flit.is_head:
            return state.is_free(flit.vc) or state.owner(flit.vc) == flit.packet_id
        return state.owner(flit.vc) == flit.packet_id

    def _transmit(self, i: int, j: int, vc: int, flit: Flit) -> None:
        popped = self.crosspoints[i][j][vc].pop()
        invariant(popped is flit, "crosspoint buffer head changed between "
                  "arbitration and pop", cycle=self.cycle, port=i, vc=vc,
                  check="buffer-integrity")
        if self._batch:
            self._b_xp_cnt[i * self.config.radix + j] -= 1
        elif self.crosspoints[i][j].occupancy() == 0:
            self._occupied[j].discard(i)
        if flit.is_head:
            self.output_vcs[j].allocate(flit.vc, flit.packet_id)
        flit.out_vc = flit.vc
        self._start_traversal(flit, j)
        self._post_credit(i, j, vc)

    # ------------------------------------------------------------------
    # Credit return (Section 5.2)
    # ------------------------------------------------------------------

    def _post_credit(self, i: int, j: int, vc: int) -> None:
        counter = self._credits[i][j][vc]
        if self.hooks.credit:
            self.hooks.emit_credit(i, vc, self.cycle)
        if self._credit_pipes is not None:
            self._credit_pipes[i].send(self.cycle, counter.restore)
        else:
            invariant(self._credit_buses is not None, "credit return "
                      "misconfigured: neither pipes nor buses present",
                      cycle=self.cycle, port=i, check="credit-return")
            self._credit_buses[i].post(j, counter.restore)
            if self._batch:
                self._bus_counts[i * self.config.radix + j] += 1
                self._b_bus_row_cnt[i] += 1

    def _step_credit_return(self) -> None:
        if self._credit_pipes is not None:
            for pipe in self._credit_pipes:
                pipe.step(self.cycle)
        elif self._batch:
            self._step_credit_return_batched()
        else:
            invariant(self._credit_buses is not None, "credit return "
                      "misconfigured: neither pipes nor buses present",
                      cycle=self.cycle, check="credit-return")
            for bus in self._credit_buses:
                bus.step(self.cycle)

    # ------------------------------------------------------------------
    # Batched hot path (config.batch_hot_path)
    #
    # Stage-for-stage equivalents of the scalar methods above, operating
    # on the mirror arrays.  Equivalence rests on three facts proven in
    # docs/architecture.md: (1) an all-False arbiter row is identical to
    # skipping the scalar arbiter call (no pointer motion either way);
    # (2) input-stage grant bodies touch only row-i state, so a single
    # pre-computed eligibility matrix matches the scalar ascending-i
    # scan; (3) output-stage transmits touch only column-j state, so a
    # pre-stage mask snapshot matches the scalar ascending-j scan.
    # ------------------------------------------------------------------

    def _input_stage_batched(self) -> None:
        now = self.cycle
        k, v = self.config.radix, self.config.num_vcs
        a = self._b_in
        # Sparse over free inputs: a port stays busy for flit_cycles
        # after each launch, so at high load only a small fraction of
        # rows are candidates each cycle.  Skipped rows are all-False
        # rows for the arbiter bank (no grant, no pointer motion).
        free = _np.nonzero(self.input_busy.array <= now)[0]
        if not free.size:
            return
        sendable = a.occ.reshape(k, v)[free] > 0
        if not sendable.any():
            return
        sendable &= ~(
            a.head.reshape(k, v)[free]
            & ((now - a.inj.reshape(k, v)[free]) < self._head_delay)
        )
        # Credit gather at (i, dest, vc); stale keys of empty queues may
        # index arbitrary slots but those lanes are already masked off.
        flat = self._b_cred_gather[free] + a.key.reshape(k, v)[free] * v
        sendable &= self._b_cred_ok[flat]
        if self._stuck_inputs:
            for (i, vc) in sorted(self._stuck_inputs):
                pos = int(_np.searchsorted(free, i))
                if pos < free.size and free[pos] == i:
                    sendable[pos, vc] = False
        winners = self._input_arb_b.arbitrate_rows(free, sendable)
        hit = _np.nonzero(winners >= 0)[0]
        fc = self.config.flit_cycles
        for pos in hit.tolist():
            i = int(free[pos])
            vc = int(winners[pos])
            flit = self.inputs[i].queues[vc].pop()
            self._credits[i][flit.dest][vc].consume()
            self.input_busy.reserve(i, now, fc)
            self._to_crosspoint.push(now, (flit, i, flit.dest))
            self._in_flight_to_xp += 1
            if self.hooks.stage_enter:
                self.hooks.emit_stage_enter(flit, "XB", flit.dest, now)

    def _output_stage_batched(self) -> None:
        now = self.cycle
        k, v = self.config.radix, self.config.num_vcs
        # Sparse row extraction: only occupied crosspoints whose output
        # column is free this cycle get VC-arbitrated, which matches
        # the scalar _occupied[j] / output-busy skip exactly (skipped
        # rows are all-False rows: no grant, no pointer motion).
        rows = _np.nonzero(self._b_xp_cnt)[0]
        if not rows.size:
            return
        j_rows = rows % k
        mask = self.output_busy.array[j_rows] <= now
        rows = rows[mask]
        if not rows.size:
            return
        j_rows = j_rows[mask]
        a = self._b_xp
        occ2 = a.occ.reshape(k * k, v)
        head2 = a.head.reshape(k * k, v)
        pid2 = a.pid.reshape(k * k, v)
        own_s = self._b_vc_owner.reshape(k, v)[j_rows]
        # _xp_flit_ready per (row, vc): body/tail flits need ownership,
        # head flits ownership or a free output VC.
        ready = (occ2[rows] > 0) & (
            (pid2[rows] == own_s) | (head2[rows] & (own_s < 0))
        )
        vcw = self._xp_vc_arb_b.arbitrate_rows(rows, ready)
        hit = _np.nonzero(vcw >= 0)[0]
        if not hit.size:
            return
        grows = rows[hit]
        self._b_xp_vcw[grows] = vcw[hit]
        requests = self._b_req
        gj, gi = grows % k, grows // k
        requests[gj, gi] = True
        winners = self._output_arb_b.grant_all(requests)
        requests[gj, gi] = False
        vcw_all = self._b_xp_vcw
        for j in _np.nonzero(winners >= 0)[0].tolist():
            i = int(winners[j])
            vc = int(vcw_all[i * k + j])
            flit = self.crosspoints[i][j][vc].head()
            invariant(flit is not None, "batched crosspoint arbitration "
                      "granted an empty VC", cycle=now, port=i, vc=vc,
                      check="arbitration")
            self._transmit(i, j, vc, flit)

    def _step_credit_return_batched(self) -> None:
        now = self.cycle
        k = self.config.radix
        counts = self._bus_counts
        buses = self._credit_buses
        # A bus with neither backlog (a grant to hand out) nor credits
        # in flight on the wire is a no-op in the scalar per-bus step,
        # so the batched step only visits buses with work: rows with a
        # nonzero pending count, plus the live set of buses whose wire
        # still carries credits from earlier grants.
        busy = _np.nonzero(self._b_bus_row_cnt)[0]
        win = {}
        if busy.size:
            granted = self._bus_arb_b.arbitrate_rows(
                busy, counts.reshape(k, k)[busy] > 0
            )
            for pos, i in enumerate(busy.tolist()):
                win[i] = int(granted[pos])
        live = self._b_bus_live
        todo = set(win)
        todo.update(live)
        # Ascending bus order matches the scalar loop (delivery order
        # is observable through fault drop hooks).
        for i in sorted(todo):
            bus = buses[i]
            w = win.get(i, -1)
            if w >= 0:
                bus.grant_to(w, now)
                counts[i * k + w] -= 1
                self._b_bus_row_cnt[i] -= 1
            bus.deliver(now)
            if bus.wire_busy:
                live.add(i)
            else:
                live.discard(i)

    # ------------------------------------------------------------------

    def busy(self) -> bool:
        if super().busy():
            return True
        # Delayed credit returns must keep the clock running even when
        # no flit is resident, or the restore callbacks never mature.
        if self._credit_pipes is not None:
            return any(pipe.pending() for pipe in self._credit_pipes)
        buses = self._credit_buses
        return buses is not None and not all(bus.idle() for bus in buses)

    def next_event(self, now: int) -> Optional[int]:
        horizon = super().next_event(now)
        if self._credit_pipes is not None:
            for pipe in self._credit_pipes:
                due = pipe.next_due()
                if due is not None and (horizon is None or due < horizon):
                    horizon = due
        elif self._credit_buses is not None:
            for bus in self._credit_buses:
                due = bus.next_due(now)
                if due is not None and (horizon is None or due < horizon):
                    horizon = due
        return horizon

    def _extra_occupancy(self) -> int:
        return sum(map(len, self._xp_flat)) + self._in_flight_to_xp

    def crosspoint_occupancy(self) -> int:
        """Total flits held in crosspoint buffers (for tests/metrics)."""
        return sum(map(len, self._xp_flat))
