"""Tests for wall-time attribution across the pipeline phases."""

import pytest

from repro.loadprofiles import constant_profile, twitter_day_profile
from repro.sim import RunConfiguration, SimulationRunner
from repro.telemetry import TIMED_ROWS, PhaseTimingObserver
from repro.workloads import KeyValueWorkload, WorkloadVariant
from tests.sim.golden_config import result_digest


def config(duration_s=1.0):
    return RunConfiguration(
        workload=KeyValueWorkload(WorkloadVariant.NON_INDEXED),
        profile=constant_profile(0.3, duration_s=duration_s),
    )


class FakeClock:
    """Monotonic counter: every read advances one 'second'."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


class TestFakeClockAttribution:
    def test_each_phase_gets_one_unit_per_tick(self):
        timer = PhaseTimingObserver(clock=FakeClock())
        timer.on_run_start(None, None)
        for _ in range(3):
            timer.before_arrivals(0.0, 0.002)
            timer.after_arrivals(0.0, 0.002)
            timer.after_control(0.0, 0.002)
            timer.after_step(0.0, None)
            timer.after_completions(0.0)
            timer.end_tick(0.0, None)
        timer.on_run_end(None)

        timings = timer.timings
        assert timings.ticks == 3
        assert timings.skipped_ticks == 0
        # The "macro" row gets the gap after each tick's end_tick: up to
        # the next tick's before_arrivals, and after the last tick up to
        # run end.
        for row in TIMED_ROWS:
            assert timings.seconds[row] == pytest.approx(3.0)
        assert timings.measured_s == pytest.approx(18.0)
        # run_start read t=1, run_end read t=20: 19 s wall; only the
        # set-up before the first tick (t=1 -> t=2) is untimed.
        assert timings.wall_s == pytest.approx(19.0)
        assert timings.untimed_s == pytest.approx(1.0)
        assert timings.per_tick_us("engine") == pytest.approx(1e6)

    def test_table_renders_every_phase(self):
        timer = PhaseTimingObserver(clock=FakeClock())
        timer.on_run_start(None, None)
        timer.before_arrivals(0.0, 0.002)
        timer.after_arrivals(0.0, 0.002)
        timer.after_control(0.0, 0.002)
        timer.after_step(0.0, None)
        timer.after_completions(0.0)
        timer.end_tick(0.0, None)
        timer.on_run_end(None)
        table = timer.timings.table()
        for row in TIMED_ROWS:
            assert row in table
        assert "untimed" in table
        assert "1 ticks + 0 skipped" in table

    def test_zero_tick_timings_are_safe(self):
        timings = PhaseTimingObserver().timings
        assert timings.ticks == 0
        assert timings.per_tick_us("engine") == 0.0
        assert "0 ticks" in timings.table()


class TestRealRun:
    def test_attributes_the_whole_run(self):
        timer = PhaseTimingObserver()
        runner = SimulationRunner(config(), observers=[timer])
        result = runner.run()
        timings = timer.timings
        # 1.0 s at 2 ms, live and skipped together.
        assert timings.ticks + timings.skipped_ticks == 500
        assert timings.skipped_ticks == runner.macro_ticks_skipped
        assert result.queries_completed > 0
        assert all(timings.seconds[p] >= 0.0 for p in TIMED_ROWS)
        assert timings.measured_s > 0.0
        assert timings.measured_s <= timings.wall_s + 1e-6
        # The engine step dominates a simulation run.
        assert timings.seconds["engine"] == max(timings.seconds.values())

    def test_timing_does_not_change_the_run(self):
        plain = SimulationRunner(config()).run()
        timed = SimulationRunner(
            config(), observers=[PhaseTimingObserver()]
        ).run()
        assert timed.total_energy_j == plain.total_energy_j
        assert timed.latencies_s == plain.latencies_s


class TestMacroAware:
    """Attaching the timer must leave span stepping exactly as it was."""

    @staticmethod
    def day_config():
        return RunConfiguration(
            workload=KeyValueWorkload(WorkloadVariant.NON_INDEXED),
            profile=twitter_day_profile(duration_s=8.64),
            policy="ecl",
            seed=3,
        )

    def test_timer_leaves_macro_stepping_and_results_unchanged(self):
        plain = SimulationRunner(self.day_config())
        plain_result = plain.run()
        timer = PhaseTimingObserver()
        timed = SimulationRunner(self.day_config(), observers=[timer])
        timed_result = timed.run()

        assert plain.macro_ticks_skipped > 0
        assert timed.macro_ticks_skipped == plain.macro_ticks_skipped
        assert result_digest(timed_result) == result_digest(plain_result)
        assert timer.timings.skipped_ticks == plain.macro_ticks_skipped
        assert timed.span_cut_stats() == plain.span_cut_stats()
        table = timer.timings.table()
        assert f"+ {plain.macro_ticks_skipped} skipped" in table
