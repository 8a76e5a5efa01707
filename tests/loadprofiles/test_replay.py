"""Tests for trace replay: exact per-tick arrival reproduction."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.loadprofiles import TraceReplayProfile, load_replay_trace, spike_profile
from repro.sim import RunConfiguration, SimulationRunner
from repro.telemetry import TraceRecorder
from repro.workloads import KeyValueWorkload, WorkloadVariant

NAN = float("nan")
INF = float("inf")

#: Replay files whose rows parse as rows but not as finite numbers.
MALFORMED_TRACES = {
    "nan-time.jsonl": '{"time_s": NaN}\n{"time_s": 0.5}\n',
    "inf-time.jsonl": '{"t": Infinity}\n',
    "text-time.jsonl": '{"time_s": "noon"}\n',
    "text-count.jsonl": '{"time_s": 0.5, "count": "many"}\n',
    "nan-arrival-event.jsonl": '{"event": "arrival", "t": NaN}\n',
    "arrival-event-without-t.jsonl": '{"event": "arrival"}\n',
    "text-duration.jsonl": (
        '{"event": "run_start", "duration_s": "long"}\n'
        '{"event": "arrival", "t": 0.5}\n'
    ),
    "nan-time.csv": "0.1\nnan\n",
    "inf-time.csv": "0.1,1\ninf,2\n",
}


class TestConstruction:
    def test_sorts_and_exposes_arrivals(self):
        profile = TraceReplayProfile([3.0, 1.0, 2.0], duration_s=4.0)
        assert list(profile.arrival_times_s) == [1.0, 2.0, 3.0]
        assert profile.arrival_count == 3
        assert profile.duration_s == 4.0

    def test_duration_defaults_to_last_arrival(self):
        profile = TraceReplayProfile([0.5, 2.5])
        assert profile.duration_s == 2.5

    def test_validation(self):
        with pytest.raises(SimulationError):
            TraceReplayProfile([])
        with pytest.raises(SimulationError):
            TraceReplayProfile([-1.0, 2.0])
        with pytest.raises(SimulationError):
            TraceReplayProfile([5.0], duration_s=2.0)  # arrival past end

    @pytest.mark.parametrize(
        "arrivals, kwargs",
        [
            ([0.5, NAN], {}),
            ([NAN], {}),
            ([0.5, NAN], {"duration_s": 1.0}),
            ([0.5, INF], {}),
            ([0.5, "noon"], {}),
            ([0.5, None], {}),
            ([0.5], {"duration_s": NAN}),
            ([0.5], {"duration_s": INF}),
            ([0.5], {"reference_qps": NAN}),
            ([0.5], {"reference_qps": INF}),
        ],
        ids=[
            "nan-arrival",
            "only-nan",
            "nan-arrival-explicit-duration",
            "inf-arrival",
            "text-arrival",
            "none-arrival",
            "nan-duration",
            "inf-duration",
            "nan-reference",
            "inf-reference",
        ],
    )
    def test_non_finite_or_non_numeric_input_rejected(self, arrivals, kwargs):
        with pytest.raises(SimulationError):
            TraceReplayProfile(arrivals, **kwargs)

    def test_display_fraction_peaks_at_one_by_default(self):
        profile = TraceReplayProfile(
            [0.1, 0.2, 0.3, 5.0], duration_s=10.0
        )
        times = np.linspace(0.0, 10.0, 1000)
        assert float(profile.fraction_array(times).max()) == pytest.approx(1.0)
        assert profile.fraction(-1.0) == 0.0
        assert profile.fraction(11.0) == 0.0


class TestCountsArray:
    def test_histograms_onto_the_tick_grid(self):
        profile = TraceReplayProfile(
            [0.001, 0.0015, 0.003, 0.0059], duration_s=0.008
        )
        counts = profile.counts_array(0.0, 0.002, 0, 4)
        assert list(counts) == [2, 1, 1, 0]

    def test_partial_windows_sum_to_the_whole(self):
        times = np.sort(np.random.default_rng(3).uniform(0.0, 1.0, 500))
        profile = TraceReplayProfile(times, duration_s=1.0)
        whole = profile.counts_array(0.0, 0.002, 0, 500)
        first = profile.counts_array(0.0, 0.002, 0, 200)
        rest = profile.counts_array(0.0, 0.002, 200, 300)
        assert int(whole.sum()) == 500
        assert list(whole) == list(first) + list(rest)

    def test_bad_tick_rejected(self):
        profile = TraceReplayProfile([0.5], duration_s=1.0)
        with pytest.raises(SimulationError):
            profile.counts_array(0.0, 0.0, 0, 1)


class TestFileLoading:
    def test_csv_with_counts(self, tmp_path):
        path = tmp_path / "arrivals.csv"
        path.write_text("time_s,count\n0.1,2\n0.5,1\n0.9,0\n")
        profile = load_replay_trace(path, duration_s=1.0)
        assert profile.arrival_count == 3
        assert list(profile.arrival_times_s) == [0.1, 0.1, 0.5]
        assert profile.name == "replay:arrivals"

    def test_csv_negative_count_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.1,-2\n")
        with pytest.raises(SimulationError):
            TraceReplayProfile.from_csv(path)

    def test_generic_jsonl_rows(self, tmp_path):
        path = tmp_path / "curve.jsonl"
        path.write_text(
            '{"time_s": 0.25, "count": 3}\n{"t": 0.75}\n'
        )
        profile = load_replay_trace(path, duration_s=1.0)
        assert profile.arrival_count == 4

    def test_missing_file(self, tmp_path):
        with pytest.raises(SimulationError):
            load_replay_trace(tmp_path / "nope.jsonl")

    @pytest.mark.parametrize("name", sorted(MALFORMED_TRACES))
    def test_malformed_values_raise_simulation_error(self, tmp_path, name):
        path = tmp_path / name
        path.write_text(MALFORMED_TRACES[name])
        with pytest.raises(SimulationError):
            load_replay_trace(path)

    def test_trace_without_arrivals(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"event": "run_start", "profile": "spike"}\n')
        with pytest.raises(SimulationError):
            TraceReplayProfile.from_trace(path)


class TestRoundTrip:
    """Export a run's trace, rebuild a replay profile from it, and the
    replayed per-tick arrival counts must match the original run's,
    tick for tick."""

    DURATION_S = 2.0

    def _config(self, profile, **kwargs):
        return RunConfiguration(
            workload=KeyValueWorkload(WorkloadVariant.NON_INDEXED),
            profile=profile,
            policy="baseline",
            seed=9,
            **kwargs,
        )

    def _per_tick_counts(self, recorder, tick_s):
        ticks = round(self.DURATION_S / tick_s)
        counts = [0] * ticks
        for event in recorder.events():
            if event["event"] == "arrival":
                counts[int(event["t"] // tick_s)] += 1
        return counts

    def test_replayed_counts_match_the_recording(self, tmp_path):
        original = TraceRecorder()
        config = self._config(spike_profile(duration_s=self.DURATION_S))
        SimulationRunner(config, observers=[original]).run()
        trace = tmp_path / "run.jsonl"
        original.to_jsonl(trace)

        profile = TraceReplayProfile.from_trace(trace)
        assert profile.name == "replay:spike"
        assert profile.duration_s == self.DURATION_S

        replay_recorder = TraceRecorder()
        replay_result = SimulationRunner(
            self._config(profile), observers=[replay_recorder]
        ).run()

        original_counts = self._per_tick_counts(original, config.tick_s)
        replay_counts = self._per_tick_counts(replay_recorder, config.tick_s)
        assert replay_counts == original_counts
        assert replay_result.queries_submitted == sum(original_counts)
        assert replay_result.queries_submitted == profile.arrival_count

    def test_replay_is_stepping_invariant(self, tmp_path):
        recorder = TraceRecorder()
        SimulationRunner(
            self._config(spike_profile(duration_s=self.DURATION_S)),
            observers=[recorder],
        ).run()
        trace = tmp_path / "run.jsonl"
        recorder.to_jsonl(trace)
        profile = TraceReplayProfile.from_trace(trace)

        on = SimulationRunner(self._config(profile, macro_step=True)).run()
        off = SimulationRunner(self._config(profile, macro_step=False)).run()
        assert on.total_energy_j == off.total_energy_j
        assert on.queries_submitted == off.queries_submitted
        assert on.latencies_s == off.latencies_s
