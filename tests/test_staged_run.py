"""The measurement program both harnesses share (``StagedRun``).

``SwitchSimulation`` and ``NetworkSimulation`` run one warm-up /
measure / drain program: the same ``run(settings | **windows)`` form,
the same ``min_drain_fraction`` saturation rule and the same extras.
"""

from __future__ import annotations

import pytest

from repro.core.config import RouterConfig
from repro.harness.experiment import StagedRun, SweepSettings, SwitchSimulation
from repro.network.netsim import NetworkConfig, NetworkSimulation
from repro.routers.buffered import BufferedCrossbarRouter

NET = NetworkConfig(radix=4, levels=2, num_vcs=2, buffer_depth=4)
WINDOW = dict(warmup=50, measure=150, drain=600)


def _switch() -> SwitchSimulation:
    config = RouterConfig(radix=8, subswitch_size=4, local_group_size=4)
    return SwitchSimulation(BufferedCrossbarRouter(config), load=0.4,
                            seed=5)


def test_both_harnesses_share_one_program():
    for cls in (SwitchSimulation, NetworkSimulation):
        assert issubclass(cls, StagedRun)
    assert not issubclass(NetworkSimulation, SwitchSimulation)
    assert not issubclass(SwitchSimulation, NetworkSimulation)


def test_switch_window_fields_equal_settings():
    by_fields = _switch().run(**WINDOW)
    by_settings = _switch().run(SweepSettings(**WINDOW))
    assert by_fields.__dict__ == by_settings.__dict__


def test_settings_cannot_change_after_their_checks():
    """``start_run`` trusts a ``SweepSettings``; mutating one after
    construction used to skip the window checks."""
    settings = SweepSettings(**WINDOW)
    with pytest.raises(AttributeError):
        settings.measure = 0  # type: ignore[misc]  # lint: disable=R003


def test_network_window_fields_equal_settings():
    by_fields = NetworkSimulation(NET, load=0.3).run(**WINDOW)
    by_settings = NetworkSimulation(NET, load=0.3).run(
        SweepSettings(**WINDOW)
    )
    assert by_fields.__dict__ == by_settings.__dict__


def test_settings_and_fields_together_rejected():
    sim = NetworkSimulation(NET, load=0.3)
    with pytest.raises(TypeError):
        sim.run(SweepSettings(**WINDOW), drain=10)


def test_network_honours_min_drain_fraction():
    """``saturated`` flips as the threshold crosses the fraction of
    labeled packets the drain delivered (the network used to hard-code
    0.999 and ignore the setting)."""
    short = dict(warmup=50, measure=150, drain=3)
    probe = NetworkSimulation(NET, load=0.7)
    probe.run(SweepSettings(**short))
    delivered = 1.0 - probe._labeled_outstanding / probe._labeled_total
    assert 0.1 < delivered < 0.9
    for fraction, saturated in ((delivered - 0.05, False),
                                (delivered + 0.05, True)):
        result = NetworkSimulation(NET, load=0.7).run(
            SweepSettings(**short, min_drain_fraction=fraction)
        )
        assert result.saturated is saturated


def test_network_results_carry_source_backlog():
    sim = NetworkSimulation(NET, load=0.7)
    result = sim.run(SweepSettings(**WINDOW))
    assert result.extra["source_backlog"] == float(
        sum(len(q) for q in sim._source_q)
    )


def test_network_measured_results_omit_undelivered():
    """The benchmark digests include ``undelivered`` whenever present,
    and the recorded Clos references have none, so measured network
    runs leave it out until those references are recorded again."""
    result = NetworkSimulation(NET, load=0.3).run(SweepSettings(**WINDOW))
    assert "undelivered" not in result.extra
