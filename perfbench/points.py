"""The benchmark's four workloads, as lists of simulation points.

A point is one (configuration, offered load) run.  It knows how to
build its simulation (the constructors are what ``setup_s`` times),
how to run it, and how to reduce the outcome to a digest of simulated
results.  The seed given to :func:`points_for` is the only source of
randomness; it reaches the simulator through the configuration
(``SwitchSimulation(seed=...)``, ``NetworkConfig(seed=...)``).

Every workload uses the simulator's defaults apart from the scheduler
it names: no batched hot path, shards, exhaustive scheduling,
sanitizer, tracer or fault plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List

from repro.core.config import RouterConfig
from repro.harness.experiment import SwitchSimulation, SweepSettings
from repro.network.netsim import ClosNetworkSimulation, NetworkConfig
from repro.routers import (
    BaselineRouter,
    BufferedCrossbarRouter,
    DistributedRouter,
    HierarchicalCrossbarRouter,
    SharedBufferCrossbarRouter,
    VoqRouter,
)
from repro.workloads import transformer_decode

#: The six organizations, under their ``repro.cli`` names.
ORGANIZATIONS = {
    "baseline": BaselineRouter,
    "distributed": DistributedRouter,
    "buffered": BufferedCrossbarRouter,
    "shared-buffer": SharedBufferCrossbarRouter,
    "hierarchical": HierarchicalCrossbarRouter,
    "voq": VoqRouter,
}

WORKLOADS = ("switch-r64", "fig19-clos", "decode-clos", "clos-event")

#: Seed the committed reference digests were recorded with.
DEFAULT_SEED = 1

# Windows are sized so that every point costs roughly the same host
# time: a low-load point simulates more cycles than a saturated one,
# otherwise the slowest points would decide every aggregate alone.
SWITCH_WINDOWS = {
    0.1: SweepSettings(warmup=200, measure=600, drain=600),
    0.5: SweepSettings(warmup=150, measure=300, drain=600),
    # Capped drain: three organizations saturate at 0.9.
    0.9: SweepSettings(warmup=100, measure=200, drain=200),
}
FIG19_LOADS = (0.1, 0.3, 0.5, 0.7)
FIG19_WINDOW = dict(warmup=200, measure=400, drain=2000)
#: (radix, levels) of the two 64-host Clos networks of Figure 19.
FIG19_NETWORKS = {"high-radix": (16, 2), "low-radix": (8, 3)}
#: One decode step per point, with and without a compute gap, at two
#: message sizes: four short points rather than one long one, so that
#: the calibration slices around each point follow the host's speed.
DECODE_POINTS = tuple(dict(layers=1, steps=1, size=size, gap=gap)
                      for size in (1, 2) for gap in (8, 0))
EVENT_WINDOWS = {
    1e-4: dict(warmup=2000, measure=30000, drain=2000),
    1e-3: dict(warmup=500, measure=8000, drain=1000),
    1e-2: dict(warmup=300, measure=700, drain=1000),
}


@dataclass(frozen=True)
class Point:
    """One closed-loop step of a workload."""

    workload: str
    name: str
    scheduler: str
    #: JSON-able description of the generated configuration.
    config: Dict[str, Any]
    build: Callable[[], Any]
    run: Callable[[Any], Any]


def points_for(workload: str, seed: int) -> List[Point]:
    """The ordered points of ``workload`` for ``seed``."""
    try:
        make = _BUILDERS[workload]
    except KeyError:
        raise ValueError(
            f"unknown workload {workload!r}; use one of {list(WORKLOADS)}"
        ) from None
    return make(seed)


def _switch_r64(seed: int) -> List[Point]:
    points = []
    for org, cls in ORGANIZATIONS.items():
        for load, window in SWITCH_WINDOWS.items():
            points.append(Point(
                workload="switch-r64",
                name=f"{org}@{load}",
                scheduler="cycle",
                config={"org": org, "radix": 64, "load": load,
                        "pattern": "uniform", "seed": seed,
                        "window": vars(window)},
                build=_switch_builder(cls, load, seed),
                run=lambda sim, w=window: sim.run(w),
            ))
    return points


def _switch_builder(cls, load: float, seed: int) -> Callable[[], Any]:
    def build():
        config = RouterConfig(radix=64, seed=seed)
        return SwitchSimulation(cls(config), load=load, seed=seed)
    return build


def _fig19_clos(seed: int) -> List[Point]:
    points = []
    for label, (radix, levels) in FIG19_NETWORKS.items():
        for load in FIG19_LOADS:
            config = NetworkConfig(radix=radix, levels=levels, seed=seed)
            points.append(Point(
                workload="fig19-clos",
                name=f"{label}@{load}",
                scheduler="cycle",
                config={"radix": radix, "levels": levels, "load": load,
                        "seed": seed, "window": FIG19_WINDOW},
                build=lambda c=config, ld=load: ClosNetworkSimulation(c, ld),
                run=lambda sim: sim.run(**FIG19_WINDOW),
            ))
    return points


def _decode_clos(seed: int) -> List[Point]:
    config = NetworkConfig(radix=16, levels=2, seed=seed)
    return [Point(
        workload="decode-clos",
        name=f"decode-s{decode['size']}-g{decode['gap']}@64",
        scheduler="cycle",
        config={"radix": 16, "levels": 2, "ranks": 64, "seed": seed,
                "decode": decode},
        build=lambda d=decode: ClosNetworkSimulation(
            config, workload=transformer_decode(64, **d)),
        run=lambda sim: sim.run_workload(),
    ) for decode in DECODE_POINTS]


def _clos_event(seed: int) -> List[Point]:
    points = []
    for load, window in EVENT_WINDOWS.items():
        config = NetworkConfig(radix=64, levels=2, seed=seed)
        points.append(Point(
            workload="clos-event",
            name=f"clos64@{load:g}",
            scheduler="event",
            config={"radix": 64, "levels": 2, "load": load, "seed": seed,
                    "window": window},
            build=lambda c=config, ld=load: ClosNetworkSimulation(
                c, ld, scheduler="event"),
            run=lambda sim, w=window: sim.run(**w),
        ))
    return points


_BUILDERS = {
    "switch-r64": _switch_r64,
    "fig19-clos": _fig19_clos,
    "decode-clos": _decode_clos,
    "clos-event": _clos_event,
}


def digest(sim: Any, result: Any) -> Dict[str, str]:
    """Simulated results of one point, as exact strings.

    ``repr`` keeps every digit (and spells NaN), so two commits agree
    on a digest only if the simulation is byte-identical.
    """
    extra = result.extra
    fields = {
        "mean_latency": result.avg_latency,
        "p99_latency": result.p99_latency,
        "max_latency": result.max_latency,
        "throughput": result.throughput,
        "packets_measured": result.packets_measured,
        "flits_delivered": sim.measured_flits,
        "saturated": result.saturated,
        "final_cycle": result.cycles,
    }
    if "undelivered" in extra:
        fields["undelivered"] = extra["undelivered"]
    if "stats.workload.makespan" in extra:
        fields["makespan"] = extra["stats.workload.makespan"]
    return {k: repr(v) for k, v in fields.items()}


def sanity_problems(point: Point, sim: Any, result: Any) -> List[str]:
    """Seed-independent checks on one point's outcome.

    These hold for every seed, so they guard runs whose seed has no
    committed reference: delivered work exists, latencies and
    throughput are in range, and a workload DAG runs to completion.
    """
    problems = []
    if sim.measured_flits <= 0:
        problems.append("no flits delivered")
    if result.packets_measured <= 0:
        problems.append("no packets measured")
    elif not result.avg_latency >= 1.0:
        problems.append(f"mean latency {result.avg_latency!r} < 1 cycle")
    if not 0.0 <= result.throughput <= 1.0:
        problems.append(f"throughput {result.throughput!r} outside [0, 1]")
    if result.cycles <= 0:
        problems.append("no cycles simulated")
    if point.workload == "decode-clos" and (
        result.saturated or result.extra.get("undelivered") != 0.0
    ):
        problems.append("workload DAG did not complete")
    return problems
