"""Parallel execution of load sweeps.

A latency-load curve evaluates each offered-load point with an
independent simulation, so points parallelize perfectly.  In pure
Python this matters: the paper-scale (radix-64) configurations take
tens of seconds per point, and a sweep uses as many cores as it has
points.

``run_load_sweep_parallel`` mirrors
:func:`repro.harness.experiment.run_load_sweep` exactly — same
arguments, same deterministic per-point results (each point re-derives
its RNG streams from the seed, so parallel and serial runs produce
identical curves) — but fans the points out over a process pool.

Everything passed in must be picklable: router factories should be
router classes or module-level functions, and pattern factories
module-level functions or the default.
"""

from __future__ import annotations

import multiprocessing
from typing import Optional, Sequence

from ..core.config import RouterConfig
from .experiment import (
    PatternFactory,
    RouterFactory,
    SweepResult,
    SweepSettings,
    SwitchSimulation,
    _default_pattern,
)
from .stats import RunResult


def _run_point(args) -> RunResult:
    """Worker: simulate one offered-load point (module-level so it
    pickles under the spawn start method)."""
    (
        make_router,
        config,
        load,
        packet_size,
        pattern_factory,
        injection,
        avg_burst,
        settings,
        seed,
        scheduler,
    ) = args
    router = make_router(config)
    sim = SwitchSimulation(
        router,
        load=load,
        packet_size=packet_size,
        pattern=pattern_factory(config),
        injection=injection,
        avg_burst=avg_burst,
        seed=seed,
        scheduler=scheduler,
    )
    return sim.run(settings)


def _run_network_point(args) -> RunResult:
    """Worker: simulate one network load point (module-level so it
    pickles under the spawn start method)."""
    config, load, topology, settings, scheduler = args
    # Imported lazily: the harness is importable without the network
    # stack and the child only pays for what it runs.
    from ..network.netsim import NetworkSimulation

    sim = NetworkSimulation(config, load, topology=topology,
                            scheduler=scheduler)
    return sim.run(settings)


def _map_points(worker, jobs: list, processes: Optional[int]) -> list:
    """``worker`` over ``jobs``, fanned over a process pool.

    ``processes`` defaults to ``min(len(jobs), cpu_count)`` and must be
    >= 1 when given.  With ``processes=1``, or a single job, the pool
    is skipped entirely (useful under profilers and debuggers).
    """
    if processes is not None and processes < 1:
        raise ValueError(f"processes must be >= 1, got {processes}")
    if processes == 1 or len(jobs) <= 1:
        return [worker(job) for job in jobs]
    workers = processes or min(len(jobs), multiprocessing.cpu_count())
    with multiprocessing.Pool(workers) as pool:
        return pool.map(worker, jobs)


def run_network_sweep_parallel(
    config,
    loads: Sequence[float],
    label: str = "",
    topology=None,
    settings: Optional[SweepSettings] = None,
    scheduler: str = "cycle",
    processes: Optional[int] = None,
) -> SweepResult:
    """Parallel twin of :func:`repro.network.netsim.run_network_sweep`.

    Fans independent load points over a process pool (point-level
    parallelism, like :func:`run_load_sweep_parallel`; ``processes`` as
    there).  Results are byte-identical to the serial sweep: each point
    re-derives every RNG stream from the seed.
    """
    jobs = [(config, load, topology, settings, scheduler) for load in loads]
    results = _map_points(_run_network_point, jobs, processes)
    return SweepResult(label=label or "network", results=results)


def run_load_sweep_parallel(
    make_router: RouterFactory,
    config: RouterConfig,
    loads: Sequence[float],
    label: str = "",
    packet_size: int = 1,
    pattern_factory: PatternFactory = _default_pattern,
    injection: str = "bernoulli",
    avg_burst: float = 8.0,
    settings: Optional[SweepSettings] = None,
    seed: Optional[int] = None,
    processes: Optional[int] = None,
    scheduler: str = "cycle",
) -> SweepResult:
    """Parallel twin of :func:`run_load_sweep`.

    ``processes`` is the pool size (see :func:`_map_points`).
    """
    jobs = [
        (
            make_router,
            config,
            load,
            packet_size,
            pattern_factory,
            injection,
            avg_burst,
            settings,
            seed,
            scheduler,
        )
        for load in loads
    ]
    results = _map_points(_run_point, jobs, processes)
    if not label:
        label = getattr(make_router, "__name__", "sweep")
    return SweepResult(label=label, results=results)
