"""Checkpoint performance: the cost of one mid-run save+load.

Saving and reloading a mid-run checkpoint of a radix-16 Clos must
together cost <= 5% of the run it checkpoints.  The reloaded run also
re-asserts byte-identity with the straight run, so a perf regression
can never be "fixed" by diverging results.
"""

import time

from repro.core.flit import reset_packet_ids
from repro.harness import load_checkpoint
from repro.network.netsim import NetworkConfig, NetworkSimulation

ROUNDS = 3

#: Max fraction of a run's wall time one save+load cycle may cost.
CKPT_OVERHEAD_CEILING = 0.05


def _best_of(rounds, fn):
    """Minimum wall time over ``rounds`` runs (noise-robust ratio)."""
    times = []
    checksum = None
    for _ in range(rounds):
        start = time.perf_counter()  # lint: disable=R002
        value = fn()
        times.append(time.perf_counter() - start)  # lint: disable=R002
        if checksum is None:
            checksum = value
        else:
            assert value == checksum, "run is not deterministic"
    return min(times), checksum


def test_perf_checkpoint_overhead(benchmark, tmp_path):
    """One mid-run save+load must cost <= 5% of the checkpointed run.

    Measured on a radix-16 Clos with paper-scale windows: the capture
    size is a function of the network's steady state, not of run
    length, so the bound asserts the overhead is amortizable — a
    checkpoint every measurement program costs noise, not minutes.
    """
    config = NetworkConfig(radix=16, levels=2, seed=3)
    windows = dict(warmup=2000, measure=4000, drain=8000)
    path = tmp_path / "perf.ckpt"

    def full_run():
        reset_packet_ids()
        sim = NetworkSimulation(config, load=0.6)
        return sim.run(**windows)

    run_time, ref = _best_of(ROUNDS, full_run)

    reset_packet_ids()
    sim = NetworkSimulation(config, load=0.6)
    sim.start_run(**windows)
    assert not sim.advance_run(stop_at=3000)

    def save_and_load():
        sim.save_checkpoint(path)
        return load_checkpoint(path)

    # Saving is read-only for the live simulation, so the save+load
    # cycle can be repeated for noise-robust timing.
    ckpt_times = []
    for _ in range(ROUNDS):
        start = time.perf_counter()  # lint: disable=R002
        save_and_load()
        ckpt_times.append(time.perf_counter() - start)  # lint: disable=R002
    ckpt_time = min(ckpt_times)
    resumed = benchmark.pedantic(save_and_load, rounds=ROUNDS, iterations=1)

    # The reloaded simulation must still finish byte-identically.
    assert resumed.advance_run()
    assert resumed.finish_run() == ref

    overhead = ckpt_time / run_time
    assert overhead <= CKPT_OVERHEAD_CEILING, (
        f"checkpoint save+load cost {overhead:.1%} of the run "
        f"({ckpt_time * 1000:.0f}ms vs {run_time:.2f}s; "
        f"ceiling {CKPT_OVERHEAD_CEILING:.0%})"
    )
