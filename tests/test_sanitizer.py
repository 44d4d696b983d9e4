"""Tests for the runtime simulation sanitizer.

Two halves: clean sanitized runs of every switch organization must
complete with zero violations, and injected faults (credit leaks,
buffer overflows, double VC grants, conservation breaks) must each be
detected with a located :class:`InvariantViolation`.
"""

import pytest

from repro.analysis.sanitizer import NetworkSanitizer, SimSanitizer
from repro.core.config import RouterConfig
from repro.core.errors import InvariantViolation
from repro.core.flit import make_packet
from repro.harness.experiment import SweepSettings, SwitchSimulation
from repro.network.netsim import NetworkConfig, NetworkSimulation
from repro.routers import (
    BaselineRouter,
    BufferedCrossbarRouter,
    DistributedRouter,
    HierarchicalCrossbarRouter,
    SharedBufferCrossbarRouter,
    VoqRouter,
)

ALL_ROUTERS = [
    BaselineRouter,
    DistributedRouter,
    BufferedCrossbarRouter,
    SharedBufferCrossbarRouter,
    HierarchicalCrossbarRouter,
    VoqRouter,
]

SHORT = SweepSettings(warmup=60, measure=120, drain=4000)


def _config(radix=16):
    return RouterConfig(radix=radix)


def _small_router(cls=BaselineRouter, radix=8):
    return cls(RouterConfig(radix=radix, input_buffer_depth=4))


def _single_flit(dest=1, src=0, vc=0, packet_id_offset=0):
    (flit,) = make_packet(dest=dest, size=1, src=src)
    flit.vc = vc
    return flit


# ----------------------------------------------------------------------
# Clean sanitized runs
# ----------------------------------------------------------------------


@pytest.mark.parametrize("router_cls", ALL_ROUTERS)
def test_sanitized_radix16_run_completes_clean(router_cls):
    """Every organization sustains per-cycle structural checks at k=16."""
    router = SimSanitizer(router_cls(_config(16)), check_interval=2)
    sim = SwitchSimulation(router, load=0.6, seed=7, sanitize=True)
    # sanitize=True must not re-wrap an existing sanitizer.
    assert sim.router is router
    sim.run(SHORT)
    sim.stop_sources()
    budget = 20000
    while budget > 0 and (
        any(s.backlog() for s in sim.sources) or not sim.router.idle()
    ):
        sim.step()
        budget -= 1
    sim.router.assert_drained()
    assert router.checks_run > 0
    assert router.violations_checked > 0


def test_switch_simulation_sanitize_flag_wraps_router():
    sim = SwitchSimulation(BaselineRouter(_config(8)), load=0.3,
                           sanitize=True)
    assert isinstance(sim.router, SimSanitizer)


def test_check_interval_throttles_structural_checks():
    router = SimSanitizer(_small_router(), check_interval=5)
    for _ in range(10):
        router.step()
    assert router.checks_run == 2


def test_check_interval_validated():
    with pytest.raises(ValueError):
        SimSanitizer(_small_router(), check_interval=0)
    with pytest.raises(ValueError):
        NetworkSanitizer(
            NetworkSimulation(NetworkConfig(radix=4, levels=2), load=0.1),
            check_interval=0,
        )


# ----------------------------------------------------------------------
# Fault injection: every invariant must actually trip
# ----------------------------------------------------------------------


def test_detects_flit_conservation_break():
    san = SimSanitizer(_small_router())
    san.accept(0, _single_flit())
    # Vanish the flit behind the sanitizer's back.
    san.inner.inputs[0][0].pop()
    with pytest.raises(InvariantViolation) as exc:
        san.check_now()
    assert exc.value.check == "flit-conservation"


def test_detects_buffer_overflow():
    san = SimSanitizer(_small_router())
    inner = san.inner
    depth = inner.config.input_buffer_depth
    for _ in range(depth):
        san.accept(0, _single_flit())
    # Bypass the push() guard: stuff one flit past the depth limit
    # (keeping the accounting consistent so only the bound trips).
    extra = _single_flit()
    inner.inputs[0][0]._q.append(extra)
    inner.stats.flits_accepted += 1
    with pytest.raises(InvariantViolation) as exc:
        san.check_now()
    assert exc.value.check == "buffer-bounds"
    assert exc.value.port == 0
    assert exc.value.vc == 0


def test_detects_stale_vc_ownership():
    san = SimSanitizer(_small_router())
    # Grant an output VC to a packet the router has never seen.
    san.inner.output_vcs[2].allocate(1, 999_999)
    with pytest.raises(InvariantViolation) as exc:
        san.check_now()
    assert exc.value.check == "vc-ownership"
    assert exc.value.port == 2
    assert exc.value.vc == 1


def test_detects_double_vc_grant():
    san = SimSanitizer(_small_router())
    flit = _single_flit()
    san.accept(0, flit)
    # One live packet granted two output VCs at once.
    san.inner.output_vcs[0].allocate(0, flit.packet_id)
    san.inner.output_vcs[1].allocate(0, flit.packet_id)
    with pytest.raises(InvariantViolation) as exc:
        san.check_now()
    assert exc.value.check == "vc-ownership"
    assert "two output VCs" in str(exc.value)


def test_detects_credit_leak_buffered():
    router = BufferedCrossbarRouter(RouterConfig(radix=8))
    san = SimSanitizer(router)
    router._credits[0][3][1].consume()  # leak one crosspoint credit
    with pytest.raises(InvariantViolation) as exc:
        san.check_now()
    err = exc.value
    assert err.check == "credit-conservation"
    assert "leak" in str(err)
    assert err.port == 0
    assert err.vc == 1
    assert err.context["output"] == 3


def test_detects_credit_surplus_hierarchical():
    router = HierarchicalCrossbarRouter(
        RouterConfig(radix=8, subswitch_size=4, local_group_size=4)
    )
    san = SimSanitizer(router)
    # Conjure a credit from nothing (restore() itself guards overflow,
    # so the fault is injected straight into the counter state).
    router._in_credits[5][0][0]._free += 1
    with pytest.raises(InvariantViolation) as exc:
        san.check_now()
    assert exc.value.check == "credit-conservation"
    assert "surplus" in str(exc.value)


def test_detects_credit_leak_shared_buffer():
    router = SharedBufferCrossbarRouter(RouterConfig(radix=8))
    san = SimSanitizer(router)
    router._credits[2][2].consume()
    with pytest.raises(InvariantViolation) as exc:
        san.check_now()
    assert exc.value.check == "credit-conservation"


def test_violation_carries_cycle_context():
    router = BufferedCrossbarRouter(RouterConfig(radix=8))
    san = SimSanitizer(router)
    for _ in range(17):
        san.step()
    router._credits[0][0][0].consume()
    with pytest.raises(InvariantViolation) as exc:
        san.step()
    err = exc.value
    assert err.cycle == 18
    assert f"cycle {err.cycle}" in str(err)
    assert "[credit-conservation]" in str(err)


def test_violation_is_assertion_error():
    # Backward compatibility: pytest.raises(AssertionError) in the
    # existing suites keeps catching sanitizer failures.
    assert issubclass(InvariantViolation, AssertionError)


# ----------------------------------------------------------------------
# Network-level sanitizer
# ----------------------------------------------------------------------


def test_sanitized_network_run_completes_clean():
    sim = NetworkSimulation(
        NetworkConfig(radix=4, levels=2, seed=3), load=0.4, sanitize=True
    )
    assert sim._sanitizer is not None
    sim.run(warmup=100, measure=100, drain=5000)
    assert sim._sanitizer.checks_run > 0


def test_network_sanitizer_detects_link_credit_leak():
    sim = NetworkSimulation(
        NetworkConfig(radix=4, levels=2, seed=3), load=0.4, sanitize=True
    )
    for _ in range(50):
        sim.step()
    _name, _port, link, _target, _tport = sim._sanitizer._links[0]
    link.credits[0].consume()
    with pytest.raises(InvariantViolation) as exc:
        sim.step()
    assert exc.value.check == "credit-conservation"


def test_network_sanitizer_detects_buffer_overflow():
    sim = NetworkSimulation(
        NetworkConfig(radix=4, levels=2, seed=3), load=0.2, sanitize=True
    )
    router = next(iter(sim.routers.values()))
    queue = router.inputs[0][0]
    for _ in range((queue.maxlen or 0) + 1):
        queue._q.append(_single_flit())
    with pytest.raises(InvariantViolation) as exc:
        sim._sanitizer.check_now(sim.cycle)
    assert exc.value.check == "buffer-bounds"


def test_head_ejected_before_tail_accepted_is_live():
    """A fast router can eject a head flit before the input buffer has
    room for its tail; the packet still owns its output VC and must not
    be reported as stale (the check used to count flits inside)."""
    config = RouterConfig(
        radix=4, num_vcs=1, flit_cycles=1, input_buffer_depth=1,
        crosspoint_buffer_depth=1, subswitch_size=2, local_group_size=1,
        sa_latency=0, route_latency=0, credit_latency=1,
    )
    sim = SwitchSimulation(SharedBufferCrossbarRouter(config), load=0.5,
                           packet_size=2, sanitize=True, seed=3)
    result = sim.run(SweepSettings(warmup=0, measure=200, drain=2000))
    assert result.packets_measured > 0


def test_detects_ownership_by_finished_packet():
    sim = SwitchSimulation(_small_router(), load=0.3, sanitize=True,
                           record_delivered=True, seed=3)
    for _ in range(60):
        sim.step()
    finished = next(f for f, _ in sim.delivered if f.is_tail)
    sim.router.inner.output_vcs[2].allocate(1, finished.packet_id)
    with pytest.raises(InvariantViolation) as exc:
        sim.router.check_now()
    assert exc.value.check == "vc-ownership"
