"""Tests for latency and utilization statistics."""

from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ControlError
from repro.dbms.stats import LatencyTracker, UtilizationTracker


class TestLatencyTracker:
    def test_average(self):
        tracker = LatencyTracker(window_s=10.0)
        tracker.record(1.0, 0.010)
        tracker.record(2.0, 0.030)
        assert tracker.average_latency_s(3.0) == pytest.approx(0.020)

    def test_empty_average_is_none(self):
        tracker = LatencyTracker()
        assert tracker.average_latency_s(1.0) is None

    def test_window_pruning(self):
        tracker = LatencyTracker(window_s=1.0)
        tracker.record(0.0, 0.5)
        tracker.record(5.0, 0.1)
        assert tracker.average_latency_s(5.5) == pytest.approx(0.1)
        assert tracker.sample_count() == 1

    def test_negative_latency_rejected(self):
        tracker = LatencyTracker()
        with pytest.raises(ControlError):
            tracker.record(0.0, -1.0)

    def test_trend_positive_when_growing(self):
        tracker = LatencyTracker(window_s=10.0)
        for i in range(10):
            tracker.record(float(i), 0.01 * (i + 1))
        assert tracker.trend_s_per_s(9.0) == pytest.approx(0.01, rel=0.01)

    def test_trend_zero_with_flat_latency(self):
        tracker = LatencyTracker(window_s=10.0)
        for i in range(10):
            tracker.record(float(i), 0.02)
        assert tracker.trend_s_per_s(9.0) == pytest.approx(0.0, abs=1e-12)

    def test_trend_needs_two_samples(self):
        tracker = LatencyTracker()
        tracker.record(0.0, 0.01)
        assert tracker.trend_s_per_s(0.5) == 0.0

    def test_time_to_violation_estimates(self):
        tracker = LatencyTracker(window_s=100.0)
        for i in range(10):
            tracker.record(float(i), 0.01 + 0.005 * i)
        ttv = tracker.time_to_violation_s(0.1, 9.0)
        assert 0.0 < ttv < 15.0

    def test_time_to_violation_violated(self):
        tracker = LatencyTracker()
        tracker.record(0.0, 0.5)
        assert tracker.time_to_violation_s(0.1, 0.1) == 0.0

    def test_time_to_violation_relaxed(self):
        tracker = LatencyTracker()
        for i in range(5):
            tracker.record(float(i), 0.01)
        assert tracker.time_to_violation_s(0.1, 5.0) == float("inf")

    def test_invalid_limit(self):
        tracker = LatencyTracker()
        with pytest.raises(ControlError):
            tracker.time_to_violation_s(0.0, 1.0)

    def test_max_latency(self):
        tracker = LatencyTracker()
        tracker.record(0.0, 0.2)
        tracker.record(1.0, 0.05)
        assert tracker.max_latency_s == pytest.approx(0.2)


class _PerSampleTracker:
    """Reference: the per-sample window, rescanned on every read.

    The columnar, memoized :class:`LatencyTracker` must return the same
    bits as this straightforward version for any call sequence.
    """

    def __init__(self, window_s):
        self.window_s = window_s
        self._samples = deque()

    def record(self, completion_s, latency_s):
        self._samples.append((completion_s, latency_s))

    def prune(self, now_s):
        horizon = now_s - self.window_s
        while self._samples and self._samples[0][0] < horizon:
            self._samples.popleft()

    def sample_count(self):
        return len(self._samples)

    def average_latency_s(self, now_s):
        self.prune(now_s)
        if not self._samples:
            return None
        return sum(lat for _, lat in self._samples) / len(self._samples)

    def trend_s_per_s(self, now_s):
        self.prune(now_s)
        n = len(self._samples)
        if n < 2:
            return 0.0
        mean_t = sum(t for t, _ in self._samples) / n
        mean_l = sum(lat for _, lat in self._samples) / n
        sxx = sum((t - mean_t) ** 2 for t, _ in self._samples)
        if sxx <= 0:
            return 0.0
        sxy = sum((t - mean_t) * (lat - mean_l) for t, lat in self._samples)
        return sxy / sxx

    def time_to_violation_s(self, limit_s, now_s):
        average = self.average_latency_s(now_s)
        if average is None:
            return float("inf")
        if average >= limit_s:
            return 0.0
        slope = self.trend_s_per_s(now_s)
        if slope <= 0:
            return float("inf")
        return (limit_s - average) / slope


def _bits(value):
    return None if value is None else float.hex(value)


# Clock steps mostly on a binary-exact grid, so samples land exactly on
# the window horizon and share timestamps; 0.1 makes the time sums
# round; the large steps empty the window.
_STEPS = st.sampled_from([0.0, 0.0, 0.1, 0.25, 0.5, 1.0, 4.0])
# Decimal latencies whose float sums round (ten 0.1s do not sum to 1.0),
# so any change of summation order shows in the bits.
_LATENCIES = st.one_of(
    st.sampled_from([0.0, 0.01, 0.1, 0.2, 0.3, 0.7]),
    st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
)
_RECORD = st.tuples(st.just("record"), _STEPS, _LATENCIES)
_OPERATIONS = st.lists(
    st.one_of(
        _RECORD,
        _RECORD,
        _RECORD,
        st.tuples(st.just("prune"), _STEPS),
        st.tuples(st.just("average"), _STEPS),
        st.tuples(st.just("trend"), _STEPS),
        st.tuples(st.just("ttv"), _STEPS, st.sampled_from([0.02, 0.1, 1.0])),
    ),
    min_size=10,
    max_size=80,
)


class TestLatencyWindowDifferential:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(window_s=st.sampled_from([0.25, 1.0, 2.5, 50.0]), operations=_OPERATIONS)
    def test_matches_per_sample_reference(self, window_s, operations):
        tracker = LatencyTracker(window_s=window_s)
        reference = _PerSampleTracker(window_s)
        now = 0.0
        for op, step, *args in operations:
            now += step
            if op == "record":
                tracker.record(now, args[0])
                reference.record(now, args[0])
                got = want = None
            elif op == "prune":
                tracker.prune(now)
                reference.prune(now)
                # Read straight after, so a prune that drops samples but
                # leaves a stale memoized mean shows.
                got = tracker.average_latency_s(now)
                want = reference.average_latency_s(now)
            elif op == "average":
                got = tracker.average_latency_s(now)
                want = reference.average_latency_s(now)
            elif op == "trend":
                got = tracker.trend_s_per_s(now)
                want = reference.trend_s_per_s(now)
            else:
                got = tracker.time_to_violation_s(args[0], now)
                want = reference.time_to_violation_s(args[0], now)
            assert _bits(got) == _bits(want), (op, now)
            assert tracker.sample_count() == reference.sample_count()

    def test_sums_run_left_to_right(self):
        tracker = LatencyTracker(window_s=10.0)
        reference = _PerSampleTracker(10.0)
        # Neither column sums to the same bits as math.fsum would.
        for i in range(1, 11):
            tracker.record(0.1 * i, 0.1)
            reference.record(0.1 * i, 0.1)
        for read in ("average_latency_s", "trend_s_per_s"):
            assert _bits(getattr(tracker, read)(3.0)) == _bits(
                getattr(reference, read)(3.0)
            )
        assert _bits(tracker.time_to_violation_s(0.5, 3.0)) == _bits(
            reference.time_to_violation_s(0.5, 3.0)
        )

    def test_single_sample_and_emptied_window(self):
        tracker = LatencyTracker(window_s=1.0)
        reference = _PerSampleTracker(1.0)
        for t in (tracker, reference):
            t.record(1.0, 0.3)
        for now in (1.0, 2.0, 2.5):
            assert _bits(tracker.average_latency_s(now)) == _bits(
                reference.average_latency_s(now)
            )
            assert tracker.trend_s_per_s(now) == 0.0
        assert tracker.sample_count() == 0
        assert tracker.average_latency_s(3.0) is None
        assert tracker.time_to_violation_s(0.1, 3.0) == float("inf")

    def test_mean_is_recomputed_after_each_change(self):
        tracker = LatencyTracker(window_s=1.0)
        tracker.record(0.0, 0.1)
        assert tracker.average_latency_s(0.0) == 0.1
        tracker.record(0.5, 0.3)
        assert tracker.average_latency_s(0.5) == (0.1 + 0.3) / 2
        # The sample at 0.0 sits exactly on the horizon at now=1.0 ...
        assert tracker.average_latency_s(1.0) == (0.1 + 0.3) / 2
        # ... and drops out just after it.
        assert tracker.average_latency_s(1.25) == 0.3


class TestUtilizationTracker:
    @pytest.fixture
    def tracker(self):
        return UtilizationTracker((0, 1), window_s=1.0)

    def test_basic_ratio(self, tracker):
        tracker.record_tick(0, 0.5, offered_instructions=100, consumed_instructions=40)
        assert tracker.utilization(0, 0.5) == pytest.approx(0.4)

    def test_saturated_is_one(self, tracker):
        tracker.record_tick(0, 0.5, 100, 100)
        assert tracker.utilization(0, 0.5) == 1.0

    def test_backlog_raises_utilization(self, tracker):
        tracker.record_tick(0, 0.5, 100, 40, pending_instructions=60)
        assert tracker.utilization(0, 0.5) == 1.0

    def test_parked_with_backlog_is_full(self, tracker):
        tracker.record_tick(0, 0.5, 0, 0, pending_instructions=10)
        assert tracker.utilization(0, 0.5) == 1.0

    def test_parked_without_backlog_is_zero(self, tracker):
        tracker.record_tick(0, 0.5, 0, 0, pending_instructions=0)
        assert tracker.utilization(0, 0.5) == 0.0

    def test_busy_fraction_ignores_backlog(self, tracker):
        tracker.record_tick(0, 0.5, 100, 40, pending_instructions=1000)
        assert tracker.busy_fraction(0, 0.5) == pytest.approx(0.4)

    def test_window_prunes(self, tracker):
        tracker.record_tick(0, 0.0, 100, 100)
        tracker.record_tick(0, 2.0, 100, 10)
        assert tracker.utilization(0, 2.0) == pytest.approx(0.1)

    def test_unknown_socket(self, tracker):
        with pytest.raises(ControlError):
            tracker.utilization(9, 0.0)
        with pytest.raises(ControlError):
            tracker.record_tick(9, 0.0, 1, 1)

    def test_negative_rejected(self, tracker):
        with pytest.raises(ControlError):
            tracker.record_tick(0, 0.0, -1, 0)
        with pytest.raises(ControlError):
            tracker.record_tick(0, 0.0, 1, 0, pending_instructions=-5)
