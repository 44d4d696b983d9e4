"""Checkpoint/restore round-trip properties.

Every test runs a reference simulation to completion, then a twin that
stops at a mid-run cycle ``K``, saves a checkpoint file, reloads it
into a freshly built simulation, and finishes from there.  The resumed
result must equal the straight-through result *exactly* — same
:class:`~repro.harness.stats.RunResult` (tuple equality covers every
metric) and same ``stats.*`` extras — for random seeds, loads, and
split points, across every switch organization, the Clos network,
both scheduler modes, and with fault injection and dependency-driven
workloads in the mix.

Hypothesis supplies the randomized coordinates; the deterministic
parametrized tests pin every organization so a regression names the
culprit directly.
"""

import pickle
from collections import deque

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.config import RouterConfig
from repro.core.flit import reset_packet_ids
from repro.faults import FaultPlan
from repro.harness import SwitchSimulation, SweepSettings, load_checkpoint
from repro.network.netsim import NetworkConfig, NetworkSimulation
from repro.routers import (
    BaselineRouter,
    BufferedCrossbarRouter,
    DistributedRouter,
    HierarchicalCrossbarRouter,
    SharedBufferCrossbarRouter,
    VoqRouter,
)
from repro.workloads import all_reduce

ALL_ROUTERS = [
    BaselineRouter,
    DistributedRouter,
    BufferedCrossbarRouter,
    SharedBufferCrossbarRouter,
    HierarchicalCrossbarRouter,
    VoqRouter,
]

#: Short measurement program — long enough to cross warmup/measure
#: stage boundaries, short enough for property-test budgets.
FAST = SweepSettings(warmup=60, measure=120, drain=800)

FAULTS = FaultPlan(corrupt_rate=0.02, credit_loss_rate=0.01)

relaxed = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _switch_sim(router_cls, seed, load, scheduler, faults, workload=None):
    cfg = RouterConfig(radix=8, num_vcs=2, subswitch_size=4,
                       local_group_size=4, seed=seed)
    return SwitchSimulation(
        router_cls(cfg), load=load, seed=seed, scheduler=scheduler,
        faults=FAULTS if faults else None, workload=workload,
    )


def _roundtrip(build, start, k, path):
    """Reference result vs. save-at-``K``-reload-finish result."""
    reset_packet_ids()
    ref = build()
    start(ref)
    assert ref.advance_run()
    expect = ref.finish_run()

    reset_packet_ids()
    twin = build()
    start(twin)
    done = twin.advance_run(stop_at=k)
    twin.save_checkpoint(path)
    resumed = load_checkpoint(path)
    if not done:
        assert resumed.advance_run()
    return expect, resumed.finish_run()


class TestSwitchRoundTrip:
    @relaxed
    @given(
        router_cls=st.sampled_from(ALL_ROUTERS),
        seed=st.integers(0, 2**20),
        load=st.sampled_from([0.15, 0.3, 0.5]),
        scheduler=st.sampled_from(["cycle", "event"]),
        faults=st.booleans(),
        k=st.integers(1, 900),
    )
    def test_random_split_matches_reference(
        self, tmp_path, router_cls, seed, load, scheduler, faults, k
    ):
        path = tmp_path / "switch.ckpt"
        expect, got = _roundtrip(
            lambda: _switch_sim(router_cls, seed, load, scheduler, faults),
            lambda sim: sim.start_run(FAST),
            k, path,
        )
        assert got == expect
        assert got.extra == expect.extra

    @pytest.mark.parametrize("router_cls", ALL_ROUTERS)
    @pytest.mark.parametrize("scheduler", ["cycle", "event"])
    def test_every_organization(self, tmp_path, router_cls, scheduler):
        path = tmp_path / "switch.ckpt"
        expect, got = _roundtrip(
            lambda: _switch_sim(router_cls, 7, 0.4, scheduler, True),
            lambda sim: sim.start_run(FAST),
            111, path,
        )
        assert got == expect
        assert got.extra == expect.extra

    @pytest.mark.parametrize("scheduler", ["cycle", "event"])
    def test_workload_run(self, tmp_path, scheduler):
        path = tmp_path / "switch.ckpt"
        expect, got = _roundtrip(
            lambda: _switch_sim(
                BaselineRouter, 3, 0.0, scheduler, False,
                workload=all_reduce(8, size=2),
            ),
            lambda sim: sim.start_workload_run(max_cycles=20000),
            60, path,
        )
        assert got == expect
        assert got.extra == expect.extra


class TestNetworkRoundTrip:
    @relaxed
    @given(
        seed=st.integers(0, 2**20),
        load=st.sampled_from([0.15, 0.3, 0.45]),
        scheduler=st.sampled_from(["cycle", "event"]),
        faults=st.booleans(),
        k=st.integers(1, 700),
    )
    def test_random_split_matches_reference(
        self, tmp_path, seed, load, scheduler, faults, k
    ):
        cfg = NetworkConfig(radix=8, levels=2, seed=seed)
        path = tmp_path / "net.ckpt"
        expect, got = _roundtrip(
            lambda: NetworkSimulation(
                cfg, load=load, scheduler=scheduler,
                faults=FAULTS if faults else None,
            ),
            lambda sim: sim.start_run(warmup=60, measure=120, drain=500),
            k, path,
        )
        assert got == expect
        assert got.extra == expect.extra

    @pytest.mark.parametrize("scheduler", ["cycle", "event"])
    def test_workload_run(self, tmp_path, scheduler):
        cfg = NetworkConfig(radix=8, levels=2, seed=5)
        path = tmp_path / "net.ckpt"
        expect, got = _roundtrip(
            lambda: NetworkSimulation(
                cfg, workload=all_reduce(16, size=2), scheduler=scheduler,
            ),
            lambda sim: sim.start_workload_run(max_cycles=20000),
            90, path,
        )
        assert got == expect
        assert got.extra == expect.extra

    def test_list_source_queues_resume(self, tmp_path):
        """A checkpoint whose host source queues are plain lists, the
        layout format-2 files have always held, resumes onto deque
        queues byte-identically to a straight run."""
        cfg = NetworkConfig(radix=4, levels=2, seed=4)
        path = tmp_path / "net.ckpt"
        expect, _ = _roundtrip(
            lambda: NetworkSimulation(cfg, load=0.95),
            lambda sim: sim.start_run(warmup=60, measure=120, drain=500),
            150, path,
        )
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
        harness = payload["state"]["harness"]
        harness["source_q"] = [list(q) for q in harness["source_q"]]
        assert any(harness["source_q"]), "no backlog to carry over"
        with open(path, "wb") as fh:
            pickle.dump(payload, fh)
        resumed = load_checkpoint(path)
        assert all(isinstance(q, deque) for q in resumed._source_q)
        assert resumed.advance_run()
        got = resumed.finish_run()
        assert got == expect
        assert got.extra == expect.extra

    def test_checkpoint_is_a_plain_file(self, tmp_path):
        """The capture is a self-contained on-disk artifact: reloading
        it twice yields two independent simulations with equal
        results."""
        cfg = NetworkConfig(radix=8, levels=2, seed=2)
        reset_packet_ids()
        sim = NetworkSimulation(cfg, load=0.3)
        sim.start_run(warmup=60, measure=120, drain=500)
        assert not sim.advance_run(stop_at=100)
        path = tmp_path / "net.ckpt"
        sim.save_checkpoint(path)

        first = load_checkpoint(path)
        assert first.advance_run()
        second = load_checkpoint(path)
        assert second.advance_run()
        assert first.finish_run() == second.finish_run()
