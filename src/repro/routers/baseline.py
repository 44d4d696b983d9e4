"""Low-radix baseline: input-queued crossbar with centralized allocation.

This is the reference design of Section 3 (Figures 4 and 5), "similar
to that used for a low-radix router": per-VC input buffers feed a
single crossbar; a centralized separable allocator performs virtual
channel allocation (VA) and switch allocation (SA) in a single cycle
each.  The paper stresses that this single-cycle centralized allocation
*does not scale* to high radix — it exists as the comparison point in
Figure 9 ("note that this represents an unrealistic design point since
the centralized single-cycle allocation does not scale").

Pipeline (Figure 5(b)): RC | VA | SA | ST for head flits, SA | ST for
body flits.  RC+VA are modeled as an eligibility delay of
``route_latency + 1`` cycles on head flits; SA happens in the cycle of
arbitration and switch traversal starts the same cycle, occupying the
input and output for ``flit_cycles`` cycles.

Even with multiple virtual channels, head-of-line blocking limits this
router to roughly 60% throughput on uniform random traffic [18], which
Figure 9 reproduces.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.arbiter import RoundRobinArbiter
from ..core.config import RouterConfig
from ..core.errors import invariant
from ..core.flit import Flit
from .base import Router


class BaselineRouter(Router):
    """Input-queued crossbar with centralized single-cycle VA and SA."""

    # The centralized allocator has no observable intermediate stage:
    # the "RC" span measured by repro.trace covers the RC+VA eligibility
    # delay (route_latency + 1), and "ST" fires at the grant.
    TRACE_STAGES = ("RC", "ST")

    def __init__(self, config: RouterConfig) -> None:
        super().__init__(config)
        k, v = config.radix, config.num_vcs
        self._input_arb = [RoundRobinArbiter(v) for _ in range(k)]
        self._output_arb = [RoundRobinArbiter(k) for _ in range(k)]
        self._vc_pick = [RoundRobinArbiter(v) for _ in range(k)]
        # Output VC held by the in-progress packet of input VC (i, vc).
        self._alloc: Dict[Tuple[int, int], int] = {}
        # Head flits become eligible after the RC and VA pipe stages.
        self._head_delay = config.route_latency + 1

    # ------------------------------------------------------------------

    def _advance(self) -> None:
        self._grant(self._gather_requests())

    def _gather_requests(self) -> Dict[int, List[Tuple[int, int, Flit]]]:
        """Input arbitration: one (input, vc, flit) request per free input.

        Returns a map from output port to its list of requests.
        """
        requests: Dict[int, List[Tuple[int, int, Flit]]] = {}
        now = self.cycle
        for i in range(self.config.radix):
            if not self._in_active[i]:
                continue
            if not self.input_busy.free(i, now):
                continue
            eligible = [
                self._eligible(i, vc) for vc in range(self.config.num_vcs)
            ]
            vc = self._input_arb[i].arbitrate([e is not None for e in eligible])
            if vc is None:
                continue
            flit = eligible[vc]
            invariant(flit is not None, "input arbiter granted a VC with "
                      "no eligible flit", cycle=self.cycle, port=i, vc=vc,
                      check="arbitration")
            requests.setdefault(flit.dest, []).append((i, vc, flit))
        return requests

    def _eligible(self, i: int, vc: int) -> Optional[Flit]:
        """The head-of-queue flit of (i, vc) if it may bid this cycle."""
        if self._stuck_inputs and (i, vc) in self._stuck_inputs:
            return None
        flit = self.inputs[i][vc].head()
        if flit is None:
            return None
        if flit.is_head and (i, vc) not in self._alloc:
            # Head flit: RC/VA pipeline delay, then requires a free
            # output VC (the centralized VA is done with the grant).
            if self.cycle - flit.injected_at < self._head_delay:
                return None
            if not self.output_vcs[flit.dest].any_free():
                return None
        return flit

    def _grant(self, requests: Dict[int, List[Tuple[int, int, Flit]]]) -> None:
        """Output arbitration and centralized VA for the winners."""
        now = self.cycle
        k = self.config.radix
        for out, reqs in requests.items():
            if not self.output_busy.free(out, now):
                self.stats.switch_denials += len(reqs)
                continue
            lines = [False] * k
            by_input = {}
            for i, vc, flit in reqs:
                lines[i] = True
                by_input[i] = (vc, flit)
            winner = self._output_arb[out].arbitrate(lines)
            if winner is None:
                continue
            vc, flit = by_input[winner]
            self._transmit(winner, vc, flit, out)
            self.stats.switch_denials += len(reqs) - 1

    def _transmit(self, i: int, vc: int, flit: Flit, out: int) -> None:
        """Pop the granted flit and start its switch traversal."""
        key = (i, vc)
        if flit.is_head and key not in self._alloc:
            out_vc = self._allocate_vc(out, flit.packet_id)
            self._alloc[key] = out_vc
        flit.out_vc = self._alloc[key]
        if flit.is_tail:
            del self._alloc[key]
        popped = self.inputs[i][vc].pop()
        invariant(popped is flit, "input buffer head changed between "
                  "grant and pop", cycle=self.cycle, port=i, vc=vc,
                  check="buffer-integrity")
        self._input_emptied(i)
        self.input_busy.reserve(i, self.cycle, self.config.flit_cycles)
        self._start_traversal(flit, out)

    def _allocate_vc(self, out: int, packet_id: int) -> int:
        """Centralized VA: round-robin among the output's free VCs."""
        free = [self.output_vcs[out].is_free(vc) for vc in range(self.config.num_vcs)]
        out_vc = self._vc_pick[out].arbitrate(free)
        if out_vc is None:
            raise RuntimeError("VA invoked with no free output VC")
        self.output_vcs[out].allocate(out_vc, packet_id)
        return out_vc
