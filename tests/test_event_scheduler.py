"""Event-driven fast-forward: cycle/event byte-identity and safety.

The :class:`~repro.engine.EventScheduler` may only change *wall-clock*
behavior, never simulation behavior: every statistic, every trace
byte, and every fault-recovery action must be identical to the cycle
stepper's.  These tests pin that contract deterministically for every
switch organization and the Clos network — including under tracing and
fault plans — and property-test it across random seeds and loads.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import RouterConfig
from repro.core.flit import reset_packet_ids
from repro.engine import EventScheduler, Scheduler, make_scheduler
from repro.faults import FaultPlan
from repro.harness.experiment import SweepSettings, SwitchSimulation
from repro.network.netsim import ClosNetworkSimulation, NetworkConfig
from repro.routers.baseline import BaselineRouter
from repro.routers.buffered import BufferedCrossbarRouter
from repro.routers.distributed import DistributedRouter
from repro.routers.hierarchical import HierarchicalCrossbarRouter
from repro.routers.shared_buffer import SharedBufferCrossbarRouter
from repro.routers.voq import VoqRouter

ROUTERS = {
    "baseline": BaselineRouter,
    "distributed": DistributedRouter,
    "buffered": BufferedCrossbarRouter,
    "shared-buffer": SharedBufferCrossbarRouter,
    "hierarchical": HierarchicalCrossbarRouter,
    "voq": VoqRouter,
}

SETTINGS = SweepSettings(warmup=150, measure=250, drain=3000)


def _config(seed: int = 7) -> RouterConfig:
    return RouterConfig(radix=8, num_vcs=2, subswitch_size=4,
                        local_group_size=4, seed=seed)


def _normalize(snap: dict) -> dict:
    # A zero-packet measurement window reports NaN latencies; NaN
    # never compares equal to itself, so map it to None to keep the
    # snapshot equality meaningful for such runs.
    import math

    return {
        k: None if isinstance(v, float) and math.isnan(v) else v
        for k, v in snap.items()
    }


def _switch_snapshot(arch: str, scheduler: str, load: float = 0.2,
                     seed: int = 7, faults=None) -> dict:
    reset_packet_ids()
    sim = SwitchSimulation(
        ROUTERS[arch](_config(seed)), load=load, packet_size=2,
        faults=faults, scheduler=scheduler,
    )
    result = sim.run(SETTINGS)
    snap = {
        f: getattr(result, f)
        for f in ("offered_load", "avg_latency", "p99_latency",
                  "max_latency", "throughput", "packets_measured",
                  "cycles", "saturated")
    }
    snap.update({
        k: v for k, v in result.extra.items()
        if not k.startswith("stats.engine.")
    })
    return _normalize(snap)


def _network_snapshot(scheduler: str, load: float = 0.2,
                      seed: int = 7, faults=None) -> dict:
    reset_packet_ids()
    cfg = NetworkConfig(radix=4, levels=2, num_vcs=2, packet_size=2,
                        seed=seed)
    sim = ClosNetworkSimulation(cfg, load, faults=faults,
                                scheduler=scheduler)
    result = sim.run(warmup=150, measure=250, drain=3000)
    snap = {
        f: getattr(result, f)
        for f in ("offered_load", "avg_latency", "p99_latency",
                  "max_latency", "throughput", "packets_measured",
                  "cycles", "saturated")
    }
    snap.update({
        k: v for k, v in result.extra.items()
        if not k.startswith("stats.engine.")
    })
    return _normalize(snap)


class TestFactory:
    def test_make_scheduler_modes(self):
        assert type(make_scheduler("cycle")) is Scheduler
        assert type(make_scheduler("event")) is EventScheduler

    def test_make_scheduler_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            make_scheduler("turbo")


class TestSwitchEquivalence:
    """Every organization: event mode == cycle mode, byte for byte."""

    @pytest.mark.parametrize("arch", sorted(ROUTERS))
    def test_results_identical(self, arch):
        assert (_switch_snapshot(arch, "cycle")
                == _switch_snapshot(arch, "event"))

    def test_low_load_actually_fast_forwards(self):
        reset_packet_ids()
        sim = SwitchSimulation(
            HierarchicalCrossbarRouter(_config()), load=0.02,
            scheduler="event",
        )
        sim.run(SETTINGS)
        assert sim._sched.cycles_skipped > 0
        assert sim._sched.ff_jumps > 0

    def test_cycle_mode_never_skips(self):
        reset_packet_ids()
        sim = SwitchSimulation(
            HierarchicalCrossbarRouter(_config()), load=0.02,
        )
        result = sim.run(SETTINGS)
        assert sim._sched.cycles_skipped == 0
        assert result.extra["stats.engine.cycles_skipped"] == 0.0

    def test_skip_counters_land_in_extras(self):
        reset_packet_ids()
        sim = SwitchSimulation(
            HierarchicalCrossbarRouter(_config()), load=0.02,
            scheduler="event",
        )
        result = sim.run(SETTINGS)
        assert result.extra["stats.engine.cycles_skipped"] == float(
            sim._sched.cycles_skipped
        )
        assert result.extra["stats.engine.ff_jumps"] == float(
            sim._sched.ff_jumps
        )

    def test_identical_under_fault_plan(self):
        plan = FaultPlan(corrupt_rate=0.02, credit_loss_rate=0.01)
        assert (_switch_snapshot("buffered", "cycle", faults=plan)
                == _switch_snapshot("buffered", "event", faults=plan))


class TestNetworkEquivalence:
    def test_results_identical(self):
        assert _network_snapshot("cycle") == _network_snapshot("event")

    def test_identical_under_fault_plan(self):
        plan = FaultPlan(corrupt_rate=0.02, credit_loss_rate=0.01)
        assert (_network_snapshot("cycle", load=0.1, faults=plan)
                == _network_snapshot("event", load=0.1, faults=plan))

    def test_low_load_actually_fast_forwards(self):
        reset_packet_ids()
        cfg = NetworkConfig(radix=4, levels=2, num_vcs=2)
        sim = ClosNetworkSimulation(cfg, 0.02, scheduler="event")
        sim.run(warmup=150, measure=250, drain=3000)
        assert sim._sched.cycles_skipped > 0

    def test_scalar_fallback_matches_bulk_draws(self, monkeypatch):
        # Arrival pre-drawing has two implementations: vectorized
        # numpy stream mirroring and a pure-Python bounded loop used
        # when numpy is absent.  Both must consume the host RNG
        # streams identically.
        import repro.network.netsim as netsim

        if netsim._np is None:
            pytest.skip("numpy unavailable; the fallback is the only path")
        bulk = _network_snapshot("event")
        monkeypatch.setattr(netsim, "_np", None)
        scalar = _network_snapshot("event")
        assert scalar == bulk


class TestTraceEquivalence:
    """Fast-forward must be invisible in the exported Chrome trace."""

    def _chrome_bytes(self, scheduler, load=0.1, seed=9):
        from repro.trace import TraceCollector, chrome_trace_json

        reset_packet_ids()
        collector = TraceCollector()
        sim = SwitchSimulation(
            HierarchicalCrossbarRouter(_config(seed)), load=load,
            tracer=collector, scheduler=scheduler,
        )
        sim.run(SETTINGS)
        return chrome_trace_json(collector)

    def test_trace_byte_identical(self):
        assert self._chrome_bytes("cycle") == self._chrome_bytes("event")

    def test_trace_byte_identical_at_low_load(self):
        # Low load maximizes skipped spans; the replayed cycle hooks
        # must keep the collector's cycle accounting identical.
        assert (self._chrome_bytes("cycle", load=0.02)
                == self._chrome_bytes("event", load=0.02))

    def test_scheduler_stats_opt_in_only(self):
        from repro.trace import TraceCollector
        from repro.trace.chrome import to_chrome_trace

        collector = TraceCollector()
        plain = to_chrome_trace(collector)
        assert "scheduler" not in plain["otherData"]
        tagged = to_chrome_trace(
            collector, scheduler_stats={"cycles_skipped": 5, "ff_jumps": 1}
        )
        assert tagged["otherData"]["scheduler"] == {
            "cycles_skipped": 5, "ff_jumps": 1,
        }


class TestPropertyEquivalence:
    """Randomized seeds/loads: the equivalence is not knife-edge."""

    @settings(max_examples=12, deadline=None)
    @given(
        arch=st.sampled_from(sorted(ROUTERS)),
        seed=st.integers(min_value=0, max_value=2**16),
        load=st.sampled_from([0.02, 0.1, 0.3, 0.6]),
    )
    def test_switch_stats_identical(self, arch, seed, load):
        assert (_switch_snapshot(arch, "cycle", load=load, seed=seed)
                == _switch_snapshot(arch, "event", load=load, seed=seed))

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        load=st.sampled_from([0.02, 0.15, 0.4]),
    )
    def test_network_stats_identical(self, seed, load):
        assert (_network_snapshot("cycle", load=load, seed=seed)
                == _network_snapshot("event", load=load, seed=seed))
