"""Checkpoint files: persist a paused simulation and resume it later.

A checkpoint is one pickle holding four keys:

* ``format`` — the integer format version (:data:`CHECKPOINT_FORMAT`);
* ``kind`` — ``"switch"`` (:class:`~repro.harness.SwitchSimulation`)
  or ``"network"``
  (:class:`~repro.network.netsim.NetworkSimulation`);
* ``spec`` — the constructor arguments needed to rebuild an
  *equivalent* simulation (router class and config or network config
  and topology, traffic pattern, fault plan, workload, tracer
  parameters, scheduler mode);
* ``state`` — the simulation's :meth:`snapshot` bundle, including the
  staged run program, so a run paused mid-flight resumes exactly
  where it stopped.

:func:`load_checkpoint` rebuilds the simulation from ``spec`` and then
applies ``state``; the resumed run is byte-identical to one that never
stopped (the differential tests in ``tests/test_checkpoint.py`` pin
this for every router organization, both schedulers, and the Clos
network).  Sanitized simulations refuse to checkpoint — re-wrap with
the sanitizer after restoring instead.
"""

from __future__ import annotations

import pickle
from typing import Any, Dict

#: On-disk format version; bumped whenever the payload layout changes.
CHECKPOINT_FORMAT = 2


def save_checkpoint(sim, path) -> None:
    """Write ``sim``'s full state (and rebuild spec) to ``path``."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "kind": _kind(sim),
        "spec": _spec(sim),
        "state": sim.snapshot(),
    }
    with open(path, "wb") as fh:
        pickle.dump(payload, fh)


def load_checkpoint(path):
    """Rebuild the simulation saved at ``path`` and restore its state.

    Returns a :class:`~repro.harness.SwitchSimulation` or
    :class:`~repro.network.netsim.NetworkSimulation` positioned at the
    saved cycle; continue with :meth:`advance_run`/:meth:`finish_run`
    (or plain stepping when no run program was active).
    """
    with open(path, "rb") as fh:
        payload = pickle.load(fh)
    fmt = payload.get("format") if isinstance(payload, dict) else None
    if fmt != CHECKPOINT_FORMAT:
        raise ValueError(
            f"unsupported checkpoint format {fmt!r} "
            f"(this build reads format {CHECKPOINT_FORMAT})"
        )
    kind = payload["kind"]
    if kind == "switch":
        sim = _build_switch(payload["spec"])
    elif kind == "network":
        sim = _build_network(payload["spec"])
    else:
        raise ValueError(f"unknown checkpoint kind {kind!r}")
    sim.restore(payload["state"])
    return sim


# ----------------------------------------------------------------------
# Spec capture / rebuild
# ----------------------------------------------------------------------


def _kind(sim) -> str:
    from ..network.netsim import NetworkSimulation
    from .experiment import SwitchSimulation

    if isinstance(sim, NetworkSimulation):
        return "network"
    if isinstance(sim, SwitchSimulation):
        return "switch"
    raise TypeError(f"cannot checkpoint a {type(sim).__name__}")


def _spec(sim) -> Dict[str, Any]:
    if _kind(sim) == "network":
        return _network_spec(sim)
    return _switch_spec(sim)


def _scheduler_mode(sched) -> str:
    from ..engine.scheduler import EventScheduler

    return "event" if isinstance(sched, EventScheduler) else "cycle"


def _tracer_spec(tracer):
    if tracer is None:
        return None
    return {"capacity": tracer.capacity, "trace_filter": tracer.filter}


def _build_tracer(spec):
    if spec is None:
        return None
    from ..trace import TraceCollector

    return TraceCollector(
        capacity=spec["capacity"], trace_filter=spec["trace_filter"]
    )


def _switch_spec(sim) -> Dict[str, Any]:
    spec = dict(sim._build_spec)
    spec.update(
        router_cls=type(sim._engine),
        router_config=sim._engine.config,
        active_set=sim._sched.active_set,
        scheduler=_scheduler_mode(sim._sched),
        faults=None if sim._faults is None else sim._faults.plan,
        workload=sim._workload,
        tracer=_tracer_spec(sim._tracer),
    )
    return spec


def _build_switch(spec: Dict[str, Any]):
    from .experiment import SwitchSimulation

    router = spec["router_cls"](spec["router_config"])
    return SwitchSimulation(
        router,
        load=spec["load"],
        packet_size=spec["packet_size"],
        pattern=spec["pattern"],
        injection=spec["injection"],
        avg_burst=spec["avg_burst"],
        seed=spec["seed"],
        record_delivered=spec["record_delivered"],
        active_set=spec["active_set"],
        tracer=_build_tracer(spec["tracer"]),
        faults=spec["faults"],
        scheduler=spec["scheduler"],
        workload=spec["workload"],
    )


def _network_spec(sim) -> Dict[str, Any]:
    return {
        "config": sim.config,
        "load": sim.load,
        "topology": sim.topology,
        "host_pattern": sim._host_pattern,
        "active_set": sim._sched.active_set,
        "scheduler": _scheduler_mode(sim._sched),
        "faults": None if sim._faults is None else sim._faults.plan,
        "workload": sim._workload,
        "tracer": _tracer_spec(sim._tracer),
        "trace_switch": sim._trace_switch,
    }


def _build_network(spec: Dict[str, Any]):
    from ..network.netsim import NetworkSimulation

    return NetworkSimulation(
        spec["config"],
        spec["load"],
        topology=spec["topology"],
        host_pattern=spec["host_pattern"],
        active_set=spec["active_set"],
        faults=spec["faults"],
        scheduler=spec["scheduler"],
        workload=spec["workload"],
        tracer=_build_tracer(spec["tracer"]),
        trace_switch=spec["trace_switch"],
    )
