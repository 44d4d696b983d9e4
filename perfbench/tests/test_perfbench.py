"""Tests of the benchmark's own machinery.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import bench, calibrate, layers
from perfbench.points import Point
from perfbench.spans import SpanTracer
from repro.core.config import RouterConfig
from repro.harness.experiment import SwitchSimulation, SweepSettings
from repro.network.netsim import ClosNetworkSimulation, NetworkConfig
from repro.routers import DistributedRouter, VoqRouter
from repro.workloads import transformer_decode

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def tiny_points():
    """Small points that between them reach every traced class."""
    window = SweepSettings(warmup=20, measure=40, drain=200)

    def switch(cls, org):
        return Point(
            workload="tiny", name=f"{org}@0.5", scheduler="cycle",
            config={"org": org},
            build=lambda: SwitchSimulation(
                cls(RouterConfig(radix=8, subswitch_size=4)), load=0.5,
                seed=3),
            run=lambda sim: sim.run(window),
        )

    net = NetworkConfig(radix=4, levels=2, seed=3)
    return [
        switch(DistributedRouter, "distributed"),
        switch(VoqRouter, "voq"),
        Point(workload="tiny", name="clos-event", scheduler="event",
              config={},
              build=lambda: ClosNetworkSimulation(net, 0.05,
                                                  scheduler="event"),
              run=lambda sim: sim.run(warmup=20, measure=60, drain=200)),
        Point(workload="tiny", name="decode", scheduler="cycle", config={},
              build=lambda: ClosNetworkSimulation(
                  net, workload=transformer_decode(
                      4, layers=1, steps=1, size=1, gap=2)),
              run=lambda sim: sim.run_workload()),
    ]


def test_metric_names_and_counts():
    e2e = [m["name"] for m in SPEC["end_to_end"]]
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    assert 1 <= len(e2e) <= 16 and 1 <= len(per_layer) <= 128
    for name in e2e + per_layer:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert len(set(e2e + per_layer)) == len(e2e) + len(per_layer)
    # The file and the code that emits the metrics agree exactly.
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == \
        bench.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == layers.PER_LAYER


def test_self_time_of_nested_spans():
    now = [0.0]

    def tick(seconds):
        now[0] += seconds

    tracer = SpanTracer(clock=lambda: now[0])

    def leaf():
        tick(2.0)

    def middle():
        tick(1.0)
        traced_leaf()
        tick(0.5)
        traced_leaf()

    def outer():
        tick(3.0)
        traced_middle()

    traced_leaf = tracer.span("c/leaf", leaf)
    traced_middle = tracer.span("b/middle", middle)
    tracer.span("a/outer", outer)()

    assert tracer.total_s == {"a/outer": 8.5, "b/middle": 5.5, "c/leaf": 4.0}
    assert tracer.self_s == {"a/outer": 3.0, "b/middle": 1.5, "c/leaf": 4.0}
    assert tracer.attributed_s() == 8.5
    assert tracer.calls["c/leaf"] == 2
    assert tracer.edges == {("", "a/outer"): 1, ("a/outer", "b/middle"): 1,
                            ("b/middle", "c/leaf"): 2}


def test_span_closes_when_the_call_raises():
    tracer = SpanTracer(clock=iter([0.0, 1.0, 5.0, 7.0]).__next__)

    def fail():
        raise RuntimeError("boom")

    def outer():
        with pytest.raises(RuntimeError):
            tracer.span("b/fail", fail)()

    tracer.span("a/outer", outer)()
    assert tracer.self_s == {"a/outer": 3.0, "b/fail": 4.0}


def test_calibration_scales_time_to_the_reference_speed():
    assert calibrate.kernel() == calibrate.kernel() > 0
    assert calibrate.slice_s() > 0
    assert calibrate.scale(calibrate.REFERENCE_S) == 1.0
    # On a host whose kernel runs 2**(1/ELASTICITY) times slower than
    # the reference, every time is halved.
    slow = calibrate.REFERENCE_S * 2 ** (1 / calibrate.ELASTICITY)
    assert calibrate.scale(slow) == pytest.approx(0.5)
    outcomes = [
        {"error": None, "setup_s": 1.0, "run_s": 3.0, "cycles": 30,
         "flits": 6, "cal_s": slow},
        {"error": None, "setup_s": 2.0, "run_s": 1.0, "cycles": 10,
         "flits": 4, "cal_s": calibrate.REFERENCE_S},
        {"error": "RuntimeError: boom"},
    ]
    totals = bench.pass_totals(outcomes)
    assert totals["wall_s"] == 7.0
    assert (totals["ref_setup_s"], totals["ref_run_s"]) == \
        pytest.approx((2.5, 2.5))
    metrics = bench.end_to_end([outcomes])
    assert metrics["wall_s"] == pytest.approx(5.0)
    assert metrics["cycles_per_s"] == pytest.approx(16.0)


def test_traced_run_restores_methods_and_keeps_digests():
    points = tiny_points()
    plain, spanned, tracer, metrics = bench.traced(points)
    assert len(tracer.targets) > 20 and tracer.still_wrapped() == []
    assert tracer.missing == []
    assert [o["error"] for o in plain + spanned] == [None] * 8
    assert bench.check(spanned, None, expected=plain) == []
    assert [name for name, _, _ in layers.PER_LAYER] == list(metrics)
    for name in ("routers.distributed.steps", "routers.voq.self_s",
                 "allocation.calls", "core.arbiter.calls",
                 "traffic.generate_calls", "network.router.steps",
                 "network.topology.route_calls", "workloads.calls",
                 "engine.skip_fraction", "engine.wake_calls", "setup.s"):
        assert metrics[name] > 0, name


def test_perturbed_reference_fails_points(tmp_path, monkeypatch, capsys):
    points = tiny_points()[:2]
    good = {o["point"].name: o["digest"] for o in bench.run_pass(points)}
    bad = dict(good)
    bad["voq@0.5"] = dict(good["voq@0.5"], mean_latency="1.0")
    monkeypatch.setattr(bench, "points_for", lambda workload, seed: points)
    monkeypatch.setattr(bench, "OUT", tmp_path)

    def run(reference):
        monkeypatch.setattr(bench, "load_reference", lambda w, s: reference)
        assert bench.main(["--workload", "tiny", "--seconds", "0.2"]) == 0
        return json.loads(capsys.readouterr().out.strip().splitlines()[-1])

    ok = run(good)
    assert ok["correct"] and ok["failed"] == 0
    assert ok["attempted"] >= 2 * bench.MIN_PASSES
    assert set(ok["metrics"]) == {name for name, _ in bench.END_TO_END}
    broken = run(bad)
    assert not broken["correct"]
    assert broken["failed"] / broken["attempted"] == 0.5
    records = (tmp_path / "tiny.seed1.trace0.records.jsonl").read_text()
    record = json.loads(records.splitlines()[1])
    assert record["point"] == "voq@0.5"
    assert record["failed"] == record["passes"] >= bench.MIN_PASSES
    assert set(record["machine"]) == {"cores", "python", "numpy", "platform"}


def test_exits_nonzero_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "switch-r64",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
