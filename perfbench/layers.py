"""Which simulator calls the traced run wraps, and the per-layer metrics.

Layer names are the simulator's module names.  Each entry of
:func:`install` wraps the public methods through which the layer above
calls into that module; :func:`layer_metrics` turns the resulting spans
and counts into the ``per_layer`` metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.allocation.islip import IslipAllocator
from repro.allocation.switch_alloc import OutputArbiterBank
from repro.allocation.vc_alloc import CvaPolicy, OvaPolicy
from repro.core.arbiter import (
    HierarchicalArbiter,
    MultiStageArbiter,
    PriorityArbiter,
    RoundRobinArbiter,
)
from repro.core.buffers import VcBufferBank
from repro.engine.scheduler import Scheduler
from repro.harness.experiment import SwitchSimulation
from repro.network.netsim import NetworkSimulation
from repro.network.router import NetworkRouter
from repro.network.topology import FoldedClos
from repro.routers.base import Router
from repro.traffic.source import TrafficSource
from repro.workloads.base import Workload

from .points import ORGANIZATIONS
from .spans import SpanTracer

_ORG_OF = {cls: org for org, cls in ORGANIZATIONS.items()}

#: Span label of the benchmark's own span around the constructors.
SETUP_LABEL = "setup/constructors"

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: List[Tuple[str, str, str]] = []
for _org in ORGANIZATIONS:
    PER_LAYER += [
        (f"routers.{_org}.self_s", "s", "lower"),
        (f"routers.{_org}.steps", "count", "lower"),
        (f"routers.{_org}.flits_per_step", "flits/step", "higher"),
    ]
PER_LAYER += [
    ("allocation.s", "s", "lower"),
    ("allocation.calls", "count", "lower"),
    ("core.arbiter.s", "s", "lower"),
    ("core.arbiter.calls", "count", "lower"),
    ("core.arbiter.grant_ratio", "ratio", "higher"),
    ("core.buffers.len_calls", "count", "lower"),
    ("traffic.generate_s", "s", "lower"),
    ("traffic.generate_calls", "count", "lower"),
    ("traffic.packets_per_call", "packets/call", "higher"),
    ("harness.experiment.pre_cycle_s", "s", "lower"),
    ("harness.experiment.post_cycle_s", "s", "lower"),
    ("network.router.compute_s", "s", "lower"),
    ("network.router.commit_s", "s", "lower"),
    ("network.router.steps", "count", "lower"),
    ("network.router.flits_per_step", "flits/step", "higher"),
    ("network.netsim.run_until_s", "s", "lower"),
    ("network.netsim.pre_cycle_s", "s", "lower"),
    ("network.netsim.wake_source_s", "s", "lower"),
    ("network.topology.route_s", "s", "lower"),
    ("network.topology.route_calls", "count", "lower"),
    ("workloads.s", "s", "lower"),
    ("workloads.calls", "count", "lower"),
    ("engine.run_until.self_s", "s", "lower"),
    ("engine.run_cycle.self_s", "s", "lower"),
    ("engine.executed_cycles", "count", "lower"),
    ("engine.skip_fraction", "ratio", "higher"),
    ("engine.ff_jumps", "count", "lower"),
    ("engine.wake_calls", "count", "lower"),
    ("setup.s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
]


def _router_label(method: str):
    def name(args: tuple) -> str:
        cls = type(args[0])
        return f"routers.{_ORG_OF.get(cls, cls.__name__)}/{method}"
    return name


def _traced_adder(tracer: SpanTracer, phase: str, adder):
    """``Scheduler.add_<phase>`` that wraps harness phases in spans.

    The span is named after the harness that registers the callable.
    """
    def add(self, fn):
        owner = getattr(fn, "__self__", None)
        if isinstance(owner, SwitchSimulation):
            fn = tracer.span(f"harness.experiment/{phase}", fn)
        elif isinstance(owner, NetworkSimulation):
            fn = tracer.span(f"network.netsim/{phase}", fn)
        return adder(self, fn)
    return add


def install(tracer: SpanTracer) -> None:
    """Wrap every traced entry point; undone by ``tracer.restore()``."""
    def span(label, hits=False):
        return lambda fn: tracer.span(label, fn, hits=hits)

    for method in ("compute", "commit", "accept"):
        tracer.patch(Router, method,
                     lambda fn, m=method: tracer.span(_router_label(m), fn))
    for cls, method in ((OutputArbiterBank, "grant"),
                        (IslipAllocator, "allocate"),
                        (CvaPolicy, "admissible"),
                        (OvaPolicy, "allocate")):
        tracer.patch(cls, method,
                     span(f"allocation/{cls.__name__}.{method}"))
    for cls in (RoundRobinArbiter, HierarchicalArbiter, PriorityArbiter,
                MultiStageArbiter):
        tracer.patch(cls, "arbitrate",
                     span(f"core.arbiter/{cls.__name__}.arbitrate",
                          hits=True))
    tracer.patch(VcBufferBank, "__len__",
                 lambda fn: tracer.counter("core.buffers/__len__", fn))
    tracer.patch(TrafficSource, "generate",
                 span("traffic/TrafficSource.generate", hits=True))
    for adder, phase in (("add_pre_cycle", "pre_cycle"),
                         ("add_post_cycle", "post_cycle"),
                         ("add_wake_source", "wake_source")):
        tracer.patch(Scheduler, adder,
                     lambda fn, p=phase: _traced_adder(tracer, p, fn))
    tracer.patch(Scheduler, "run_until", span("engine/run_until"))
    tracer.patch(Scheduler, "run_cycle", span("engine/run_cycle"))
    tracer.patch(Scheduler, "wake",
                 lambda fn: tracer.counter("engine/wake", fn))
    tracer.patch(NetworkRouter, "compute", span("network.router/compute"))
    tracer.patch(NetworkRouter, "commit", span("network.router/commit"))
    tracer.patch(NetworkRouter, "accept",
                 lambda fn: tracer.counter("network.router/accept", fn))
    # run() and run_workload() enter through advance_run; both it and
    # run_until grow the event-mode arrival window outside the engine.
    for method in ("advance_run", "run_until"):
        tracer.patch(NetworkSimulation, method,
                     span(f"network.netsim/{method}"))
    tracer.patch(FoldedClos, "route", span("network.topology/route"))
    for method in ("ready_ranks", "next_message", "sent", "deliver",
                   "next_ready"):
        tracer.patch(Workload, method, span(f"workloads/{method}"))


def _sum(table: Dict[str, Any], prefix: str) -> float:
    return sum(v for k, v in table.items() if k.startswith(prefix))


def layer_metrics(
    tracer: SpanTracer, facts: Dict[str, Any], traced_wall: float,
    untraced_wall: float,
) -> Dict[str, float]:
    """Per-layer metric values from one traced pass.

    ``facts`` carries what the simulator reports through its public
    results: ``org_flits`` (``RouterStats.flits_ejected`` per
    organization), ``cycles`` (cycles advanced, skipped ones included)
    and the ``cycles_skipped`` / ``ff_jumps`` engine extras.
    """
    calls, hits, self_s = tracer.calls, tracer.hits, tracer.self_s

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: Dict[str, float] = {}
    for org in ORGANIZATIONS:
        steps = calls.get(f"routers.{org}/commit", 0)
        out[f"routers.{org}.self_s"] = _sum(self_s, f"routers.{org}/")
        out[f"routers.{org}.steps"] = steps
        out[f"routers.{org}.flits_per_step"] = ratio(
            facts["org_flits"].get(org, 0), steps)
    arb_calls = _sum(calls, "core.arbiter/")
    gen_calls = calls.get("traffic/TrafficSource.generate", 0)
    net_steps = calls.get("network.router/commit", 0)
    out.update({
        "allocation.s": _sum(self_s, "allocation/"),
        "allocation.calls": _sum(calls, "allocation/"),
        "core.arbiter.s": _sum(self_s, "core.arbiter/"),
        "core.arbiter.calls": arb_calls,
        "core.arbiter.grant_ratio": ratio(_sum(hits, "core.arbiter/"),
                                          arb_calls),
        "core.buffers.len_calls": calls.get("core.buffers/__len__", 0),
        "traffic.generate_s": _sum(self_s, "traffic/"),
        "traffic.generate_calls": gen_calls,
        "traffic.packets_per_call": ratio(
            hits.get("traffic/TrafficSource.generate", 0), gen_calls),
        "harness.experiment.pre_cycle_s":
            self_s.get("harness.experiment/pre_cycle", 0.0),
        "harness.experiment.post_cycle_s":
            self_s.get("harness.experiment/post_cycle", 0.0),
        "network.router.compute_s": self_s.get("network.router/compute", 0.0),
        "network.router.commit_s": self_s.get("network.router/commit", 0.0),
        "network.router.steps": net_steps,
        "network.router.flits_per_step": ratio(
            calls.get("network.router/accept", 0), net_steps),
        "network.netsim.run_until_s":
            self_s.get("network.netsim/advance_run", 0.0)
            + self_s.get("network.netsim/run_until", 0.0),
        "network.netsim.pre_cycle_s":
            self_s.get("network.netsim/pre_cycle", 0.0),
        "network.netsim.wake_source_s":
            self_s.get("network.netsim/wake_source", 0.0),
        "network.topology.route_s": _sum(self_s, "network.topology/"),
        "network.topology.route_calls": _sum(calls, "network.topology/"),
        "workloads.s": _sum(self_s, "workloads/"),
        "workloads.calls": _sum(calls, "workloads/"),
        "engine.run_until.self_s": self_s.get("engine/run_until", 0.0),
        "engine.run_cycle.self_s": self_s.get("engine/run_cycle", 0.0),
        "engine.executed_cycles": calls.get("engine/run_cycle", 0),
        "engine.skip_fraction": ratio(facts["cycles_skipped"],
                                      facts["cycles"]),
        "engine.ff_jumps": facts["ff_jumps"],
        "engine.wake_calls": calls.get("engine/wake", 0),
        "setup.s": self_s.get(SETUP_LABEL, 0.0),
        "trace.unattributed_s": traced_wall - tracer.attributed_s(),
        "trace.overhead": ratio(traced_wall, untraced_wall) - 1.0,
    })
    return out
