"""Tests for the network router and the Clos network simulation."""

import pytest

from repro.core.flit import make_packet
from repro.network.netsim import ClosNetworkSimulation, NetworkConfig
from repro.network.router import (
    NetworkRouter,
    NetworkRouterConfig,
    OutputLink,
    pipeline_depth_for_radix,
)


class TestNetworkRouterConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkRouterConfig(num_ports=1)
        with pytest.raises(ValueError):
            NetworkRouterConfig(num_ports=4, num_vcs=0)
        with pytest.raises(ValueError):
            NetworkRouterConfig(num_ports=4, buffer_depth=0)

    def test_pipeline_depth_scales_with_radix(self):
        assert pipeline_depth_for_radix(64) > pipeline_depth_for_radix(8)


class TestNetworkRouterForwarding:
    def _router_pair(self):
        cfg = NetworkRouterConfig(num_ports=4, num_vcs=2, buffer_depth=4,
                                  flit_cycles=2, pipeline_delay=1,
                                  channel_latency=1, credit_latency=1)
        a = NetworkRouter(cfg, "a")
        b = NetworkRouter(cfg, "b")
        arrivals = []

        def to_b(flit, arrival):
            arrivals.append((flit, arrival, "b"))

        sink_hits = []

        def to_sink(flit, arrival):
            sink_hits.append((flit, arrival))

        a.attach(0, OutputLink(2, to_b, downstream_depth=4))
        for p in range(1, 4):
            a.attach(p, OutputLink(2, to_sink, downstream_depth=None))
        for p in range(4):
            b.attach(p, OutputLink(2, to_sink, downstream_depth=None))
        return a, b, arrivals, sink_hits

    def test_flit_forwarded_along_route(self):
        a, b, arrivals, sink_hits = self._router_pair()
        (flit,) = make_packet(dest=99, size=1, src=0, route=[0, 2])
        flit.vc = 1
        a.accept(1, flit)
        for _ in range(20):
            a.step()
            b.step()
        assert len(arrivals) == 1
        assert arrivals[0][0] is flit
        assert flit.hops == 1

    def test_sink_delivery(self):
        a, b, arrivals, sink_hits = self._router_pair()
        (flit,) = make_packet(dest=99, size=1, src=0, route=[2])
        a.accept(0, flit)
        for _ in range(20):
            a.step()
        assert len(sink_hits) == 1

    def test_credit_exhaustion_blocks(self):
        """With all downstream credits consumed, no further flit wins."""
        cfg = NetworkRouterConfig(num_ports=4, num_vcs=1, buffer_depth=8,
                                  flit_cycles=2, pipeline_delay=1,
                                  channel_latency=1, credit_latency=1)
        a = NetworkRouter(cfg, "a")
        arrivals = []
        a.attach(0, OutputLink(1, lambda f, t: arrivals.append(f),
                               downstream_depth=2))
        for p in range(1, 4):
            a.attach(p, OutputLink(1, lambda f, t: None, None))
        for _ in range(6):
            (flit,) = make_packet(dest=99, size=1, src=0, route=[0, 2])
            a.accept(0, flit)
        for _ in range(40):
            a.step()  # the downstream never returns credits
        assert a._credit_out is not None
        assert len(arrivals) <= 2
        assert a.occupancy() == 4  # the rest wait for credits

    def test_route_exhaustion_raises(self):
        a, b, *_ = self._router_pair()
        (flit,) = make_packet(dest=99, size=1, src=0, route=[])
        a.accept(0, flit)
        with pytest.raises(RuntimeError):
            for _ in range(5):
                a.step()

    def test_double_attach_rejected(self):
        cfg = NetworkRouterConfig(num_ports=2)
        r = NetworkRouter(cfg)
        link = OutputLink(1, lambda f, t: None, None)
        r.attach(0, link)
        with pytest.raises(RuntimeError):
            r.attach(0, link)


class TestClosNetworkSimulation:
    CFG = NetworkConfig(radix=8, levels=2, num_vcs=2, buffer_depth=4)

    def test_packets_delivered(self):
        sim = ClosNetworkSimulation(self.CFG, load=0.3)
        r = sim.run(warmup=200, measure=300, drain=2000)
        assert r.packets_measured > 0
        assert not r.saturated

    def test_throughput_tracks_offered_load(self):
        sim = ClosNetworkSimulation(self.CFG, load=0.4)
        r = sim.run(warmup=300, measure=500, drain=2000)
        assert r.throughput == pytest.approx(0.4, abs=0.08)

    def test_latency_grows_with_load(self):
        lo = ClosNetworkSimulation(self.CFG, load=0.1).run(200, 300, 2000)
        hi = ClosNetworkSimulation(self.CFG, load=0.7).run(300, 500, 4000)
        assert hi.avg_latency > lo.avg_latency

    def test_high_radix_lower_zero_load_latency(self):
        """Figure 19: the high-radix network wins at zero load."""
        high = ClosNetworkSimulation(
            NetworkConfig(radix=16, levels=2), load=0.05
        ).run(200, 400, 2000)
        low = ClosNetworkSimulation(
            NetworkConfig(radix=8, levels=3), load=0.05
        ).run(200, 400, 2000)
        assert high.avg_latency < low.avg_latency

    def test_deterministic(self):
        a = ClosNetworkSimulation(self.CFG, load=0.3).run(200, 300, 2000)
        b = ClosNetworkSimulation(self.CFG, load=0.3).run(200, 300, 2000)
        assert a.avg_latency == b.avg_latency
        assert a.throughput == b.throughput

    def test_invalid_load(self):
        with pytest.raises(ValueError):
            ClosNetworkSimulation(self.CFG, load=1.5)

    def test_config_rejects_empty_packets(self):
        """packet_size=0 used to surface as a ZeroDivisionError."""
        with pytest.raises(ValueError, match="packet_size"):
            NetworkConfig(packet_size=0)

    @pytest.mark.parametrize("windows, name", [
        ((-5, 300, 2000), "warmup"),
        ((200, 0, 2000), "measure"),
        ((200, 300, -1), "drain"),
    ])
    def test_rejects_unmeasurable_windows(self, windows, name):
        sim = ClosNetworkSimulation(self.CFG, load=0.3)
        with pytest.raises(ValueError, match=name):
            sim.start_run(*windows)
        # Nothing was started, so a valid program can still begin.
        sim.start_run(0, 1, 0)

    def test_multi_flit_packets(self):
        cfg = NetworkConfig(radix=8, levels=2, packet_size=4)
        sim = ClosNetworkSimulation(cfg, load=0.3)
        r = sim.run(warmup=300, measure=400, drain=3000)
        assert r.packets_measured > 0
