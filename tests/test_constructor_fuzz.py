"""Constructor fuzz: bad arguments fail when the object is built.

Each example starts from valid router, network and measurement-window
arguments and moves up to three of them to an edge value: negative,
zero, or the smallest value that is still valid.  Building the
configuration, the simulation and its ``SweepSettings`` must then
either raise a ``ValueError`` whose message names one of the moved
parameters, or yield a simulation that finishes a short sanitized run.
Nothing may fail later, inside the run, or with another exception type
(``ZeroDivisionError`` used to be the usual one).
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.config import RouterConfig
from repro.harness.experiment import SweepSettings, SwitchSimulation
from repro.network.netsim import NetworkConfig, NetworkSimulation
from repro.routers.baseline import BaselineRouter
from repro.routers.buffered import BufferedCrossbarRouter
from repro.routers.distributed import DistributedRouter
from repro.routers.hierarchical import HierarchicalCrossbarRouter
from repro.routers.shared_buffer import SharedBufferCrossbarRouter
from repro.routers.voq import VoqRouter

ROUTERS = (
    BaselineRouter,
    DistributedRouter,
    BufferedCrossbarRouter,
    SharedBufferCrossbarRouter,
    HierarchicalCrossbarRouter,
    VoqRouter,
)

fuzz = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def edge(lowest: int) -> st.SearchStrategy[int]:
    """Two below ``lowest`` up to ``lowest``, the smallest valid value."""
    return st.integers(lowest - 2, lowest)


FRACTIONS = st.sampled_from([-0.5, 0.0, 1.0, 1.5])
LOADS = st.sampled_from([-0.1, 0.0, 1.0, 1.5])

#: name -> (valid values, edge values), one table per constructor.
ROUTER_ARGS = {
    "radix": (st.sampled_from([4, 8]), edge(2)),
    "num_vcs": (st.integers(1, 3), edge(1)),
    "flit_cycles": (st.integers(1, 4), edge(1)),
    "input_buffer_depth": (st.integers(1, 4), edge(1)),
    "crosspoint_buffer_depth": (st.integers(1, 3), edge(1)),
    "subswitch_size": (st.sampled_from([2, 4]), edge(1)),
    "local_group_size": (st.integers(1, 4), edge(1)),
    "subswitch_input_depth": (st.integers(0, 3), edge(0)),
    "subswitch_output_depth": (st.integers(0, 3), edge(0)),
    # The edge table moves a name to an unknown allocator.
    "vc_allocator": (st.sampled_from(["cva", "ova"]), st.just("ideal")),
    "sa_latency": (st.integers(0, 3), edge(0)),
    "ova_extra_latency": (st.integers(0, 2), edge(0)),
    "route_latency": (st.integers(0, 2), edge(0)),
    # The buffered crossbar's shared credit bus needs at least 1.
    "credit_latency": (st.integers(1, 3), edge(1)),
}
SWITCH_ARGS = {
    "load": (st.sampled_from([0.1, 0.5]), LOADS),
    "packet_size": (st.integers(1, 3), edge(1)),
}
NETWORK_ARGS = {
    "radix": (st.sampled_from([4, 6, 8]), edge(4)),
    "levels": (st.integers(1, 2), edge(1)),
    "num_vcs": (st.integers(1, 3), edge(1)),
    "buffer_depth": (st.integers(1, 4), edge(1)),
    "flit_cycles": (st.integers(1, 4), edge(1)),
    "channel_latency": (st.integers(0, 2), edge(0)),
    "credit_latency": (st.integers(0, 2), edge(0)),
    "packet_size": (st.integers(1, 3), edge(1)),
    "pipeline_delay": (st.none() | st.integers(0, 4), edge(0)),
}
WINDOW_ARGS = {
    "warmup": (st.integers(0, 60), edge(0)),
    "measure": (st.integers(1, 60), edge(1)),
    "drain": (st.integers(0, 200), edge(0)),
    "min_drain_fraction": (st.sampled_from([0.5, 0.999]), FRACTIONS),
}


@st.composite
def arguments(draw, *tables):
    """Valid values for every table, then up to three moved to edges.

    Returns one keyword dict per table and the set of moved names.
    """
    names = sorted({name for table in tables for name in table})
    moved = draw(st.sets(st.sampled_from(names), max_size=3))
    return [
        {
            name: draw(edges if name in moved else valid)
            for name, (valid, edges) in table.items()
        }
        for table in tables
    ], moved


def _check(build, moved):
    """A ValueError must name a moved parameter; otherwise run."""
    try:
        sim, window = build()
    except ValueError as exc:
        named = [name for name in moved if name in str(exc)]
        assert named, f"{exc!r} names none of {sorted(moved)}"
        return
    result = sim.run(window)
    assert result.cycles > 0


@fuzz
@given(
    router=st.sampled_from(ROUTERS),
    args=arguments(ROUTER_ARGS, SWITCH_ARGS, WINDOW_ARGS),
)
def test_switch_constructors(router, args):
    (config, sim_args, window), moved = args

    def build():
        sim = SwitchSimulation(
            router(RouterConfig(**config)), sanitize=True, seed=3,
            **sim_args,
        )
        return sim, SweepSettings(**window)

    _check(build, moved)


@fuzz
@given(args=arguments(NETWORK_ARGS, {"load": SWITCH_ARGS["load"]},
                      WINDOW_ARGS))
def test_network_constructors(args):
    (config, sim_args, window), moved = args

    def build():
        sim = NetworkSimulation(
            NetworkConfig(**config), sanitize=True, **sim_args
        )
        return sim, SweepSettings(**window)

    _check(build, moved)
