#!/usr/bin/env python3
"""Network-level experiment: high-radix vs low-radix Clos (Figure 19).

Builds two folded-Clos networks with the same number of hosts — one
from high-radix routers (3 unfolded stages), one from low-radix routers
(5 unfolded stages) — routes packets obliviously (random middle stage),
and compares latency-load curves.  The single high-radix router has a
deeper pipeline, but the shorter network more than makes up for it:
"this factor is more than offset by the reduced hop count."

Run:
    python examples/clos_network.py
"""

from repro import FoldedClos, NetworkConfig, SweepSettings
from repro.harness.report import format_table
from repro.network import run_network_sweep

LOADS = (0.1, 0.3, 0.5, 0.7)


def main() -> None:
    high = NetworkConfig(radix=16, levels=2)  # 64 hosts, 3 stages
    low = NetworkConfig(radix=8, levels=3)  # 64 hosts, 5 stages

    for name, cfg in (("high-radix", high), ("low-radix", low)):
        topo = FoldedClos(cfg.radix, cfg.levels)
        print(f"{name}: radix {cfg.radix}, {topo.stages_unfolded} stages, "
              f"{topo.num_hosts} hosts, {topo.num_switches} switches, "
              f"avg {topo.average_hop_count():.2f} router hops")

    settings = SweepSettings(warmup=600, measure=800, drain=6000)
    curves = [
        run_network_sweep(cfg, LOADS, settings=settings)
        for cfg in (high, low)
    ]
    rows = []
    for i, load in enumerate(LOADS):
        row = [f"{load:.1f}"]
        for curve in curves:
            r = curve.results[i]
            row.append(
                f"{r.avg_latency:.1f}" + ("*" if r.saturated else "")
            )
        rows.append(row)

    print()
    print(format_table(
        ["load", "high-radix latency", "low-radix latency"],
        rows,
        title="Figure 19 (scaled): Clos network latency vs offered load",
    ))
    print("\n(* = saturated; latency unbounded in steady state)")


if __name__ == "__main__":
    main()
