"""Tests for the mesh topology and dimension-order routing."""

import random  # lint: disable=R001 (tests build local seeded streams)

import pytest
from hypothesis import given, settings, strategies as st

from repro.harness.experiment import SweepSettings
from repro.network.mesh import Mesh
from repro.network.netsim import NetworkConfig, NetworkSimulation
from repro.traffic.patterns import Permutation


class TestConstruction:
    def test_counts(self):
        m = Mesh((4, 4), concentration=2)
        assert m.num_switches == 16
        assert m.num_hosts == 32
        assert m.radix == 6

    def test_3d(self):
        m = Mesh((2, 3, 4))
        assert m.num_switches == 24
        assert m.n == 3
        assert len(m.switch_ids()) == 24

    def test_validation(self):
        with pytest.raises(ValueError):
            Mesh(())
        with pytest.raises(ValueError):
            Mesh((1, 4))
        with pytest.raises(ValueError):
            Mesh((4, 4), concentration=0)


class TestWiring:
    def test_link_reciprocity(self):
        m = Mesh((3, 3))
        for sid in m.switch_ids():
            for port in m.wired_ports(sid):
                ref = m.neighbor(sid, port)
                if ref.switch is None:
                    continue
                back = m.neighbor(ref.switch, ref.port)
                assert back.switch == sid
                assert back.port == port

    def test_edge_ports_unwired(self):
        m = Mesh((3, 3))
        corner = (0, 0)
        wired = m.wired_ports(corner)
        # Corner: only +x and +y links plus host port.
        assert set(wired) == {0, 2, 4}
        with pytest.raises(ValueError):
            m.neighbor(corner, 1)  # -x faces the edge

    def test_interior_fully_wired(self):
        m = Mesh((3, 3))
        assert set(m.wired_ports((1, 1))) == {0, 1, 2, 3, 4}

    def test_host_attachment_roundtrip(self):
        m = Mesh((3, 2), concentration=3)
        for host in range(m.num_hosts):
            ref = m.host_attachment(host)
            back = m.neighbor(ref.switch, ref.port)
            assert back.host == host

    def test_host_range(self):
        with pytest.raises(ValueError):
            Mesh((2, 2)).host_attachment(4)


class TestRouting:
    def test_route_delivers(self):
        m = Mesh((4, 4), concentration=2)
        rng = random.Random(0)
        for _ in range(300):
            s = rng.randrange(m.num_hosts)
            d = rng.randrange(m.num_hosts)
            ports = m.route(s, d, rng)
            sw = m.host_attachment(s).switch
            for i, p in enumerate(ports):
                ref = m.neighbor(sw, p)
                if i == len(ports) - 1:
                    assert ref.switch is None and ref.host == d
                else:
                    sw = ref.switch

    def test_route_is_deterministic(self):
        m = Mesh((4, 4))
        a = m.route(0, 15, random.Random(1))
        b = m.route(0, 15, random.Random(2))
        assert a == b

    def test_dimension_order(self):
        """X is fully corrected before Y moves (e-cube)."""
        m = Mesh((4, 4))
        ports = m.route(0, 15, random.Random(0))[:-1]
        dims = [p // 2 for p in ports]
        assert dims == sorted(dims)

    def test_hop_count_manhattan(self):
        m = Mesh((4, 4))
        assert m.hop_count(0, 0) == 1
        assert m.hop_count(0, 15) == 1 + 3 + 3

    def test_average_hop_count(self):
        m = Mesh((4, 4))
        # 1 + 2 * E|x-y| with E|x-y| = 1.25 for dim 4.
        assert m.average_hop_count() == pytest.approx(3.5)

    @settings(max_examples=25)
    @given(st.integers(0, 2**31 - 1))
    def test_random_routes_always_deliver(self, seed):
        m = Mesh((3, 3, 2), concentration=2)
        rng = random.Random(seed)
        s = rng.randrange(m.num_hosts)
        d = rng.randrange(m.num_hosts)
        ports = m.route(s, d, rng)
        sw = m.host_attachment(s).switch
        ref = None
        for p in ports:
            ref = m.neighbor(sw, p)
            sw = ref.switch
        assert ref is not None and ref.host == d


class TestMeshSimulation:
    CFG = NetworkConfig(radix=8, num_vcs=2, buffer_depth=4)

    def test_uniform_traffic_delivered(self):
        sim = NetworkSimulation(self.CFG, load=0.3, topology=Mesh((3, 3)))
        r = sim.run(warmup=300, measure=400, drain=3000)
        assert r.packets_measured > 0
        assert not r.saturated

    def test_latency_grows_with_mesh_size(self):
        small = NetworkSimulation(
            self.CFG, load=0.1, topology=Mesh((2, 2))
        ).run(SweepSettings(200, 300, 2000))
        large = NetworkSimulation(
            self.CFG, load=0.1, topology=Mesh((5, 5))
        ).run(SweepSettings(200, 300, 3000))
        assert large.avg_latency > small.avg_latency

    def test_host_pattern_override(self):
        """A permutation pattern over the hosts routes as requested."""
        mesh = Mesh((2, 2))
        perm = Permutation([3, 2, 1, 0])
        sim = NetworkSimulation(
            self.CFG, load=0.3, topology=mesh, host_pattern=perm
        )
        r = sim.run(warmup=200, measure=300, drain=2000)
        assert r.packets_measured > 0

    def test_clos_beats_mesh_at_equal_hosts(self):
        """The indirect network pays fewer hops than a 2D mesh at the
        same size, showing up as lower zero-load latency."""
        from repro.network.topology import FoldedClos

        clos = FoldedClos(8, 2)  # 16 hosts
        mesh = Mesh((4, 4))  # 16 hosts
        assert clos.num_hosts == mesh.num_hosts
        r_clos = NetworkSimulation(
            NetworkConfig(radix=8, num_vcs=2), load=0.1, topology=clos
        ).run(SweepSettings(300, 400, 3000))
        r_mesh = NetworkSimulation(
            NetworkConfig(radix=4, num_vcs=2), load=0.1, topology=mesh
        ).run(SweepSettings(300, 400, 3000))
        assert r_clos.avg_latency < r_mesh.avg_latency
