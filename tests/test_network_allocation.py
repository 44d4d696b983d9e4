"""The network router's one-pass allocator against a two-pass reference.

``NetworkRouter._allocate`` walks each free input's VCs from the input
arbiter's pointer and stops at the first sendable head.  The reference
below is the straightforward separable allocator it replaced: evaluate
every VC of every free input, let ``RoundRobinArbiter.arbitrate`` pick
among the sendable ones, then arbitrate each output over its
requesters.  Both must transmit the same flits in the same order and
leave every arbiter pointer in the same place, from any router state.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.flit import make_packet
from repro.network.router import NetworkRouter, NetworkRouterConfig, OutputLink

#: Packet id owning an output VC that no buffered flit belongs to.
FOREIGN = 10**6


def _sendable(router, i, vc):
    """The reference per-VC candidate test (no early exit anywhere)."""
    if (i, vc) in router._stuck_inputs:
        return None
    flit = router.inputs[i][vc].head()
    if flit is None:
        return None
    if flit.hops >= len(flit.route):
        raise RuntimeError("exhausted route")
    link = router.links[flit.route[flit.hops]]
    if link is None:
        raise RuntimeError("output not attached")
    if not link.alive or not link.credit_available(flit.vc):
        return None
    owner = link.vc_state.owner(flit.vc)
    if flit.is_head:
        return flit if owner is None or owner == flit.packet_id else None
    return flit if owner == flit.packet_id else None


def reference_allocate(router):
    """Two-pass separable allocation: full scan, then ``arbitrate``."""
    now = router.cycle
    n, v = router.config.num_ports, router.config.num_vcs
    requests = {}
    for i in range(n):
        if not router._in_active[i] or not router.input_busy.free(i, now):
            continue
        cands = [_sendable(router, i, vc) for vc in range(v)]
        vc = router._input_arb[i].arbitrate([c is not None for c in cands])
        if vc is None:
            continue
        flit = cands[vc]
        requests.setdefault(flit.route[flit.hops], []).append((i, vc, flit))
    for out, reqs in requests.items():
        if not router.output_busy.free(out, now):
            continue
        lines = [False] * n
        by_input = {}
        for i, vc, flit in reqs:
            lines[i] = True
            by_input[i] = (vc, flit)
        winner = router._output_arb[out].arbitrate(lines)
        vc, flit = by_input[winner]
        router._transmit(winner, vc, flit, out)


@st.composite
def router_states(draw):
    """Plain-data description of a router mid-run (built twice).

    Every draw shrinks toward a sendable state (credits full, links
    alive, VCs free, inputs occupied and idle), so derandomized
    examples exercise contention rather than an empty router.
    """
    n = draw(st.integers(2, 5))
    v = draw(st.integers(1, 4))
    depth = draw(st.integers(1, 3))
    ports = []
    for _ in range(n):
        host = draw(st.booleans())
        ports.append({
            "host": host,
            "alive": draw(st.sampled_from([True, True, True, False])),
            "free": [depth - draw(st.integers(0, depth)) for _ in range(v)],
            "stuck": [draw(st.integers(0, 5)) == 5 for _ in range(v)],
            # None: free; an int i: owned by the packet buffered on the
            # same VC of input i; FOREIGN: owned by a packet not here.
            "owners": [
                draw(st.one_of(
                    st.none(), st.integers(0, n - 1), st.just(FOREIGN),
                ))
                for _ in range(v)
            ],
        })
    queues = {}
    for i in range(n):
        for vc in range(v):
            if draw(st.integers(0, 3)) < 3:
                size = draw(st.integers(1, 3))
                queues[(i, vc)] = {
                    "out": draw(st.integers(0, n - 1)),
                    "size": size,
                    # Leading flits already sent: a body flit at the head.
                    "skip": draw(st.integers(0, size - 1)),
                }
    return {
        "n": n,
        "v": v,
        "depth": depth,
        "flit_cycles": draw(st.integers(1, 2)),
        "ports": ports,
        "queues": queues,
        "stuck_inputs": draw(st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, v - 1)),
            max_size=3,
        )),
        "in_ptr": [draw(st.integers(0, v - 1)) for _ in range(n)],
        "out_ptr": [draw(st.integers(0, n - 1)) for _ in range(n)],
        "in_busy": [draw(st.integers(0, 2)) for _ in range(n)],
        "out_busy": [draw(st.integers(0, 2)) for _ in range(n)],
        "exhaustive": draw(st.booleans()),
    }


def build(spec):
    """A router in the state ``spec`` describes, logging transmissions."""
    n, v, depth = spec["n"], spec["v"], spec["depth"]
    router = NetworkRouter(NetworkRouterConfig(
        num_ports=n, num_vcs=v, buffer_depth=depth,
        flit_cycles=spec["flit_cycles"], pipeline_delay=0,
    ), "r")
    if spec["exhaustive"]:
        router.set_exhaustive()
    head_pid = {}
    for (i, vc), q in sorted(spec["queues"].items()):
        pid = i * 100 + vc
        flits = make_packet(dest=0, size=q["size"], packet_id=pid,
                            route=[q["out"]])
        for flit in flits[q["skip"]:][:depth]:
            flit.vc = vc
            router.accept(i, flit)
        head_pid[(i, vc)] = pid
    for p, port in enumerate(spec["ports"]):
        link = OutputLink(v, lambda flit, arrival: None,
                          None if port["host"] else depth)
        link.alive = port["alive"]
        if link.credits is not None:
            for vc, counter in enumerate(link.credits):
                for _ in range(depth - port["free"][vc]):
                    counter.consume()
                counter.stuck = port["stuck"][vc]
        for vc, owner in enumerate(port["owners"]):
            if owner is not None and owner != FOREIGN:
                owner = head_pid.get((owner, vc))
            if owner is not None:
                link.vc_state.allocate(vc, owner)
        router.attach(p, link)
    router._stuck_inputs.update(spec["stuck_inputs"])
    for i in range(n):
        router._input_arb[i].commit((spec["in_ptr"][i] - 1) % v)
        router._output_arb[i].commit((spec["out_ptr"][i] - 1) % n)
        router.input_busy.reserve(i, 0, spec["in_busy"][i])
        router.output_busy.reserve(i, 0, spec["out_busy"][i])
    sent = []
    transmit = router._transmit

    def logged(i, vc, flit, out):
        sent.append((router.cycle, i, vc, out, flit.packet_id))
        transmit(i, vc, flit, out)

    router._transmit = logged
    return router, sent


def pointers(router):
    return ([a.pointer for a in router._input_arb],
            [a.pointer for a in router._output_arb])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(spec=router_states())
def test_one_pass_matches_two_pass_reference(spec):
    fast, fast_sent = build(spec)
    ref, ref_sent = build(spec)
    ref._allocate = lambda: reference_allocate(ref)
    for cycle in range(4):
        for router in (fast, ref):
            router.compute(cycle)
            router.commit(cycle)
        assert fast_sent == ref_sent
        assert pointers(fast) == pointers(ref)


@pytest.mark.parametrize("bad_route", [[], [7]], ids=["exhausted", "detached"])
def test_bad_head_behind_sendable_vc_still_raises(bad_route):
    """A broken head on a later VC is reached once the input pointer
    rotates past the sendable VC ahead of it."""
    v = 3
    router = NetworkRouter(NetworkRouterConfig(
        num_ports=8, num_vcs=v, buffer_depth=4, flit_cycles=2,
    ), "r")
    for port in range(7):
        router.attach(port, OutputLink(v, lambda flit, arrival: None, None))
    for pid in range(4):
        (flit,) = make_packet(dest=0, size=1, packet_id=pid, route=[1])
        router.accept(0, flit)
    (bad,) = make_packet(dest=0, size=1, packet_id=99, route=bad_route)
    bad.vc = 1
    router.accept(0, bad)
    with pytest.raises(RuntimeError):
        for cycle in range(2 * v * router.config.flit_cycles):
            router.compute(cycle)
            router.commit(cycle)
