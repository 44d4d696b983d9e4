"""Tests for the ``repro.engine`` two-phase simulation kernel.

Covers the three pieces every simulation layer now shares:

* :class:`~repro.engine.Component` — compute/commit phase ordering and
  the standalone ``step()`` compatibility path;
* :class:`~repro.engine.Scheduler` — active-set parking, wake-up, and
  the guarantee that parking never changes simulation results;
* :class:`~repro.engine.EngineHooks` — the event bus instrumentation
  attaches through.
"""

import pytest

from repro.core.config import RouterConfig
from repro.engine import Component, EngineHooks, Scheduler
from repro.harness.experiment import SweepSettings, SwitchSimulation
from repro.harness.metrics import MetricsCollector
from repro.network.netsim import ClosNetworkSimulation, NetworkConfig
from repro.routers.hierarchical import HierarchicalCrossbarRouter

SMALL = RouterConfig(radix=8, num_vcs=2, subswitch_size=4,
                     local_group_size=4)
SETTINGS = SweepSettings(warmup=150, measure=300, drain=3000)


class Ticker(Component):
    """Minimal component: busy for its first ``work`` commits."""

    def __init__(self, work=0, journal=None, name="t"):
        super().__init__()
        self.work = work
        self.journal = journal if journal is not None else []
        self.name = name
        self.wakes = []

    def compute(self, cycle):
        self.journal.append(("compute", self.name, cycle))

    def commit(self, cycle):
        self.journal.append(("commit", self.name, cycle))
        if self.work:
            self.work -= 1
        self.cycle = cycle + 1

    def busy(self):
        return self.work > 0

    def on_wake(self, cycle):
        self.wakes.append(cycle)
        super().on_wake(cycle)


class TestComponent:
    def test_step_runs_compute_then_commit(self):
        t = Ticker(work=3)
        t.step()
        t.step()
        assert t.journal == [
            ("compute", "t", 0), ("commit", "t", 0),
            ("compute", "t", 1), ("commit", "t", 1),
        ]
        assert t.cycle == 2

    def test_step_fires_hooks_with_pre_and_post_cycle(self):
        t = Ticker(work=1)
        events = []
        t.hooks.on_cycle_start(lambda c: events.append(("start", c)))
        t.hooks.on_cycle_end(lambda c: events.append(("end", c)))
        t.step()
        assert events == [("start", 0), ("end", 1)]

    def test_base_component_is_abstract(self):
        c = Component()
        with pytest.raises(NotImplementedError):
            c.compute(0)
        with pytest.raises(NotImplementedError):
            c.commit(0)
        assert c.busy() is True


class TestScheduler:
    def test_all_computes_precede_all_commits(self):
        journal = []
        a = Ticker(work=2, journal=journal, name="a")
        b = Ticker(work=2, journal=journal, name="b")
        sched = Scheduler([a, b])
        sched.run_cycle(0)
        assert [e[0] for e in journal] == [
            "compute", "compute", "commit", "commit"
        ]
        # Phase order follows registration order.
        assert [e[1] for e in journal] == ["a", "b", "a", "b"]

    def test_idle_components_are_parked(self):
        t = Ticker(work=2)
        sched = Scheduler([t])
        for now in range(5):
            sched.run_cycle(now)
        # Stepped while busy (cycles 0-1), then parked.
        assert [e[2] for e in t.journal if e[0] == "compute"] == [0, 1]
        assert sched.active_count() == 0
        assert sched.cycles_run == 5
        assert sched.component_steps == 2

    def test_cycle_end_fires_even_when_everything_is_parked(self):
        hooks = EngineHooks()
        ends = []
        hooks.on_cycle_end(lambda c: ends.append(c))
        sched = Scheduler([Ticker(work=0)], hooks=hooks)
        for now in range(3):
            sched.run_cycle(now)
        assert ends == [1, 2, 3]

    def test_wake_reactivates_and_fast_forwards_clock(self):
        t = Ticker(work=1)
        sched = Scheduler([t])
        sched.run_cycle(0)
        assert sched.active_count() == 0
        t.work = 1
        sched.wake(t, 7)
        assert sched.active_count() == 1
        assert t.wakes == [7]
        assert t.cycle == 7
        sched.run_cycle(7)
        assert t.journal[-1] == ("commit", "t", 7)

    def test_wake_on_active_component_is_a_no_op(self):
        t = Ticker(work=5)
        sched = Scheduler([t])
        sched.wake(t, 3)
        assert t.wakes == []

    def test_active_set_false_steps_everything(self):
        a, b = Ticker(work=0), Ticker(work=0)
        sched = Scheduler([a, b], active_set=False)
        for now in range(4):
            sched.run_cycle(now)
        assert sched.component_steps == 8
        assert len(a.journal) == 8  # 4 computes + 4 commits

    def test_register_after_construction(self):
        sched = Scheduler()
        t = Ticker(work=1)
        sched.register(t)
        sched.run_cycle(0)
        assert t.journal

    def test_wake_unregistered_component_names_the_component(self):
        """Regression: this used to surface as an opaque ``KeyError``
        from the scheduler's internal index, with no hint of which
        component the event was delivered to."""
        from repro.engine import UnregisteredComponentError

        sched = Scheduler([Ticker(work=1)])
        stray = Ticker(work=1, name="stray")
        with pytest.raises(UnregisteredComponentError) as exc:
            sched.wake(stray, 3)
        assert "Ticker" in str(exc.value)
        assert "'stray'" in str(exc.value)
        assert "register()" in str(exc.value)
        assert exc.value.component is stray


class TestEngineHooks:
    def test_multiple_subscribers_all_fire(self):
        hooks = EngineHooks()
        seen = []
        hooks.on_flit_move(lambda *a: seen.append(("one", a)))
        hooks.on_flit_move(lambda *a: seen.append(("two", a)))
        hooks.emit_flit_move("accept", "flit", 3, 9)
        assert [s[0] for s in seen] == ["one", "two"]
        assert seen[0][1] == ("accept", "flit", 3, 9)

    def test_registration_returns_the_callback(self):
        hooks = EngineHooks()

        def cb(cycle):
            pass

        assert hooks.on_cycle_start(cb) is cb
        assert hooks.on_cycle_end(cb) is cb
        assert cb in hooks.cycle_start and cb in hooks.cycle_end


class TestActiveSetEquivalence:
    """Parking must be invisible in the results, at any load."""

    @pytest.mark.parametrize("load", [0.05, 0.6])
    def test_switch_results_identical(self, load):
        results = []
        for active_set in (True, False):
            sim = SwitchSimulation(
                HierarchicalCrossbarRouter(SMALL), load=load,
                active_set=active_set,
            )
            results.append(sim.run(SETTINGS))
        on, off = results
        assert on.avg_latency == off.avg_latency
        assert on.throughput == off.throughput
        assert on.packets_measured == off.packets_measured
        assert on.extra == off.extra

    def test_low_load_switch_actually_parks(self):
        sim = SwitchSimulation(
            HierarchicalCrossbarRouter(SMALL), load=0.02,
        )
        sim.run(SETTINGS)
        assert sim._sched.component_steps < sim._sched.cycles_run

    def test_network_results_identical(self):
        cfg = NetworkConfig(radix=4, levels=2, num_vcs=2, packet_size=1)
        results = []
        for active_set in (True, False):
            sim = ClosNetworkSimulation(cfg, load=0.2,
                                        active_set=active_set)
            results.append(
                sim.run(warmup=150, measure=250, drain=3000)
            )
        on, off = results
        assert on.avg_latency == off.avg_latency
        assert on.throughput == off.throughput
        assert on.packets_measured == off.packets_measured

    def test_low_load_network_actually_parks(self):
        cfg = NetworkConfig(radix=4, levels=2, num_vcs=2)
        sim = ClosNetworkSimulation(cfg, load=0.02)
        sim.run(warmup=150, measure=250, drain=3000)
        sched = sim._sched
        assert sched.component_steps < sched.cycles_run * len(sim.routers)


class TestTraceDeterminism:
    """The exported trace is a function of (config, seed) alone."""

    def _chrome_bytes(self, active_set=True, seed=9):
        from repro.core.flit import reset_packet_ids
        from repro.trace import TraceCollector, chrome_trace_json

        reset_packet_ids()
        collector = TraceCollector()
        sim = SwitchSimulation(
            HierarchicalCrossbarRouter(SMALL), load=0.35, seed=seed,
            active_set=active_set, tracer=collector,
        )
        sim.run(SETTINGS)
        return chrome_trace_json(collector)

    def test_same_seed_byte_identical(self):
        assert self._chrome_bytes() == self._chrome_bytes()

    def test_active_set_invisible_in_trace(self):
        """Scheduler parking must not perturb one traced timestamp."""
        parked = self._chrome_bytes(active_set=True)
        exhaustive = self._chrome_bytes(active_set=False)
        assert parked == exhaustive

    def test_different_seeds_diverge(self):
        assert self._chrome_bytes(seed=9) != self._chrome_bytes(seed=10)


class TestStatsExtraSurviveAggregation:
    def test_bumped_counters_fold_into_result_extra(self):
        router = HierarchicalCrossbarRouter(SMALL)
        sim = SwitchSimulation(router, load=0.3)
        router.stats.bump("speculative_misses", 7)
        result = sim.run(SETTINGS)
        assert result.extra["stats.speculative_misses"] == 7.0
        # Harness bookkeeping still present alongside.
        assert "undelivered" in result.extra

    def test_extras_render_in_reports(self):
        from repro.harness.experiment import SweepResult
        from repro.harness.report import format_extras

        router = HierarchicalCrossbarRouter(SMALL)
        sim = SwitchSimulation(router, load=0.3)
        router.stats.bump("speculative_misses", 7)
        sweep = SweepResult(label="hier", results=[sim.run(SETTINGS)])
        table = format_extras(sweep, title="counters")
        assert "stats.speculative_misses" in table
        assert "7" in table
        assert "undelivered" in table


class TestMetricsAttach:
    def test_hook_fed_metrics_match_pull_style(self):
        pull_sim = SwitchSimulation(
            HierarchicalCrossbarRouter(SMALL), load=0.4,
            record_delivered=True,
        )
        pull = MetricsCollector(SMALL.radix)
        push_sim = SwitchSimulation(
            HierarchicalCrossbarRouter(SMALL), load=0.4,
        )
        push = MetricsCollector(SMALL.radix).attach(push_sim)
        for _ in range(400):
            pull_sim.step()
            pull.observe_cycle(pull_sim)
            push_sim.step()
        assert push.delivered_flits == pull.delivered_flits > 0
        assert push.latency.counts == pull.latency.counts
        assert push.output_flits == pull.output_flits
        assert push.backlog_samples == pull.backlog_samples
        assert push.occupancy_samples == pull.occupancy_samples
