"""Benchmark core: passes over a workload's points, checks, metrics.

:func:`main` is what ``perfbench/run.py`` runs; see that file for the
command line.  Per-point records and the traced call tree go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from perfbench import calibrate, layers
from perfbench.points import DEFAULT_SEED, digest, points_for, sanity_problems
from perfbench.spans import SpanTracer, layer_of

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cycles_per_s", "cycles/s"),
    ("flits_per_s", "flits/s"),
    ("peak_rss_mb", "MB"),
]

MIN_PASSES = 3
#: Stop adding passes past this many multiples of ``--seconds``, so a
#: run on a slow host still ends in bounded time.
MAX_OVERRUN = 4


def machine() -> Dict[str, Any]:
    """Fingerprint of the host a record was measured on."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


def git_revision(root: Path = ROOT) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_pass(
    points, tracer: Optional[SpanTracer] = None, clock=time.process_time,
) -> List[Dict[str, Any]]:
    """Run every point once, in order; one outcome dict per point.

    Only the constructors and the run call are timed, by ``clock``: by
    default the process's CPU time, which leaves out time the host's
    hypervisor gives the virtual CPU to other guests (the simulator is
    single-threaded and does no I/O, so on a quiet host CPU time equals
    wall time).  A traced pass times with the tracer's clock.  A
    calibration slice runs before the first point and after each point;
    ``cal_s`` is the mean of the two around a point.  The heap is
    collected before each point so one point's garbage does not bill the
    next point's timers.  An exception fails the point and the pass
    carries on.
    """
    if tracer is not None:
        clock = tracer.clock
    outcomes = []
    cal = calibrate.slice_s()
    for point in points:
        gc.collect()
        build = point.build
        if tracer is not None:
            build = tracer.span(layers.SETUP_LABEL, build)
        outcome: Dict[str, Any] = {"point": point, "error": None}
        outcomes.append(outcome)
        if tracer is not None:
            before = dict(tracer.self_s)
        try:
            t0 = clock()
            sim = build()
            t1 = clock()
            result = point.run(sim)
            t2 = clock()
        except Exception as exc:  # a failed point must not stop the run
            outcome["error"] = f"{type(exc).__name__}: {exc}"
            cal = calibrate.slice_s()
            continue
        after = calibrate.slice_s()
        outcome.update(
            setup_s=t1 - t0,
            run_s=t2 - t1,
            cal_s=(cal + after) / 2,
            cycles=result.cycles,
            flits=sim.measured_flits,
            cycles_skipped=result.extra.get("stats.engine.cycles_skipped",
                                            0.0),
            ff_jumps=result.extra.get("stats.engine.ff_jumps", 0.0),
            digest=digest(sim, result),
            problems=sanity_problems(point, sim, result),
        )
        router = getattr(sim, "router", None)
        if router is not None:
            outcome["router_flits"] = router.stats.flits_ejected
        if tracer is not None:
            outcome["layer_self_s"] = _layer_delta(before, tracer.self_s)
        cal = after
    return outcomes


def _layer_delta(before: Dict[str, float], after: Dict[str, float]):
    """Self time per layer accrued between two copies of ``self_s``."""
    delta: Dict[str, float] = {}
    for label, seconds in after.items():
        layer = layer_of(label)
        delta[layer] = delta.get(layer, 0.0) + seconds - before.get(label, 0.0)
    return delta


def check(
    outcomes, reference: Optional[Dict[str, Any]], expected=None
) -> List[str]:
    """Set each outcome's ``ok`` flag; return the failure messages.

    A point fails when it raised, broke a seed-independent sanity
    check, or its digest differs from ``reference`` (the committed
    digests, default seed only) or from ``expected`` (the same point's
    outcome in another pass of this run).
    """
    failures = []
    for i, o in enumerate(outcomes):
        reasons = []
        if o["error"] is not None:
            reasons.append(o["error"])
        else:
            reasons += o["problems"]
            if reference is not None:
                want = reference.get(o["point"].name)
                if want != o["digest"]:
                    reasons.append(f"digest {o['digest']} != reference {want}")
            if expected is not None and expected[i].get("digest") not in (
                None, o["digest"]
            ):
                reasons.append("digest differs from an earlier pass")
        o["ok"] = not reasons
        failures += [f"{o['point'].name}: {r}" for r in reasons]
    return failures


def pass_totals(outcomes) -> Dict[str, float]:
    """Host time, simulated cycles and flits of one pass, summed.

    ``wall_s``, ``setup_s`` and ``run_s`` are host seconds;
    ``ref_setup_s`` and ``ref_run_s`` are the same times scaled to the
    calibration's reference host speed (see ``calibrate``).
    """
    done = [o for o in outcomes if o["error"] is None]
    setup = sum(o["setup_s"] for o in done)
    run = sum(o["run_s"] for o in done)
    return {
        "wall_s": setup + run,
        "setup_s": setup,
        "run_s": run,
        "ref_setup_s": sum(o["setup_s"] * calibrate.scale(o["cal_s"])
                           for o in done),
        "ref_run_s": sum(o["run_s"] * calibrate.scale(o["cal_s"])
                         for o in done),
        "cycles": sum(o["cycles"] for o in done),
        "flits": sum(o["flits"] for o in done),
    }


def load_reference(workload: str, seed: int) -> Optional[Dict[str, Any]]:
    """Committed digests for ``workload``; None for an unrecorded seed."""
    if seed != DEFAULT_SEED:
        return None
    data = json.loads(REFERENCE.read_text())
    return data["workloads"][workload]


def write_records(path: Path, header: Dict[str, Any], passes) -> None:
    """One JSON line per point: host time, cycles, flits and digest."""
    path.parent.mkdir(exist_ok=True)
    with path.open("w") as fh:
        for i, first in enumerate(passes[0]):
            point = first["point"]
            runs = [p[i] for p in passes]
            done = [r for r in runs if r["error"] is None]
            record = dict(header)
            record.update(
                point=point.name,
                scheduler=point.scheduler,
                config=point.config,
                passes=len(runs),
                failed=sum(1 for r in runs if not r["ok"]),
                errors=sorted({r["error"] for r in runs if r["error"]}),
            )
            if done:
                record.update(
                    setup_s=statistics.median(r["setup_s"] for r in done),
                    run_s=statistics.median(r["run_s"] for r in done),
                    setup_s_each=[r["setup_s"] for r in done],
                    run_s_each=[r["run_s"] for r in done],
                    cal_s_each=[r["cal_s"] for r in done],
                    cycles=done[0]["cycles"],
                    flits=done[0]["flits"],
                    digest=done[0]["digest"],
                )
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def untraced(points, seconds: float) -> List[List[Dict[str, Any]]]:
    """Passes until ``seconds`` have elapsed and ``MIN_PASSES`` ran."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(points))
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_OVERRUN * seconds:
            break
        if elapsed >= seconds and len(passes) >= MIN_PASSES:
            break
    return passes


def end_to_end(passes) -> Dict[str, float]:
    """End-to-end metrics: medians over passes, peak RSS of the run.

    Times are at the calibration's reference host speed.
    """
    totals = [t for t in map(pass_totals, passes) if t["run_s"] > 0]
    if not totals:
        raise SystemExit("perfbench: every point failed; nothing to time")

    def median(fn):
        return statistics.median(fn(t) for t in totals)

    return {
        "wall_s": median(lambda t: t["ref_setup_s"] + t["ref_run_s"]),
        "setup_s": median(lambda t: t["ref_setup_s"]),
        "cycles_per_s": median(lambda t: t["cycles"] / t["ref_run_s"]),
        "flits_per_s": median(lambda t: t["flits"] / t["ref_run_s"]),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def traced(points):
    """One untraced and one traced pass, plus the per-layer metrics."""
    tracer = SpanTracer()
    plain = run_pass(points, clock=tracer.clock)
    with tracer.installed(layers.install):
        spanned = run_pass(points, tracer)
    done = [o for o in spanned if o["error"] is None]
    org_flits: Dict[str, int] = {}
    for o in done:
        if "router_flits" in o:
            org = o["point"].config["org"]
            org_flits[org] = org_flits.get(org, 0) + o["router_flits"]
    facts = {
        "org_flits": org_flits,
        "cycles": sum(o["cycles"] for o in done),
        "cycles_skipped": sum(o["cycles_skipped"] for o in done),
        "ff_jumps": sum(o["ff_jumps"] for o in done),
    }
    metrics = layers.layer_metrics(
        tracer, facts, pass_totals(spanned)["wall_s"],
        pass_totals(plain)["wall_s"])
    return plain, spanned, tracer, metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        points = points_for(args.workload, args.seed)
    except ValueError as exc:
        parser.error(str(exc))
    reference = load_reference(args.workload, args.seed)
    header = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "revision": git_revision(),
        "machine": machine(),
    }
    stem = f"{args.workload}.seed{args.seed}.trace{args.trace}"

    if args.trace:
        plain, spanned, tracer, metrics = traced(points)
        passes = [plain, spanned]
        failures = check(plain, reference)
        failures += check(spanned, reference, expected=plain)
        failures += [f"{name} is still wrapped after the traced pass"
                     for name in tracer.still_wrapped()]
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        OUT.mkdir(exist_ok=True)
        (OUT / f"{stem}.spans.json").write_text(json.dumps({
            **header,
            "missing_targets": tracer.missing,
            "point_layer_self_s": {
                o["point"].name: o.get("layer_self_s") for o in spanned},
            "metrics": metrics,
            "call_tree": tracer.call_tree(),
        }, indent=1, sort_keys=True))
    else:
        passes = untraced(points, args.seconds)
        failures = []
        for p in passes:
            failures += check(p, reference, expected=passes[0])
        metrics = end_to_end(passes)
        units = dict(END_TO_END)
    write_records(OUT / f"{stem}.records.jsonl", header, passes)

    attempted = sum(len(p) for p in passes)
    failed = sum(1 for p in passes for o in p if not o["ok"])
    for o in passes[0]:
        print(f"{o['point'].name:24s} digest {json.dumps(o.get('digest'))}")
    for message in failures:
        print(f"FAILED {message}")
    for name, value in metrics.items():
        print(f"{name:36s} {value:.6g} {units[name]}")
    print(f"{'failed_fraction':36s} {failed / attempted:.6g} ratio")
    print(f"{'passes':36s} {len(passes)}")
    host = [pass_totals(p)["wall_s"] for p in passes]
    cals = [o["cal_s"] for p in passes for o in p if o["error"] is None]
    if host and cals:
        print(f"{'unscaled_wall_s':36s} {statistics.median(host):.6g} s")
        print(f"{'calibration_slice_s':36s} {statistics.median(cals):.6g} s")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0
