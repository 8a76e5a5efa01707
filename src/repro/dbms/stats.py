"""Runtime statistics consumed by the Energy-Control Loop.

Two signal sources feed the ECL (paper §5):

* **worker utilization** per socket — the socket-level ECL's demand
  signal.  It is measured relative to the *currently active* worker set:
  1.0 means the active workers never ran out of messages during the
  observation window.
* **query latency** — the system-level ECL's constraint signal: a sliding
  window average plus a linear trend used to estimate the time until the
  user-defined latency limit would be violated.
"""

from __future__ import annotations

from collections import deque

from repro.errors import ControlError


class LatencyTracker:
    """Sliding-window average latency and its trend.

    The window is two parallel float deques (completion times and
    latencies).  The window mean is memoized on a version stamp that
    :meth:`record` and a sample-dropping :meth:`prune` bump, so the
    repeated reads of one system-ECL check (the average, then the
    trend's mean inside ``time_to_violation_s``) scan the window once.
    Every statistic stays a left-to-right builtin ``sum`` over the
    window's floats — no running totals — so results are bit-identical
    to rescanning per call.
    """

    def __init__(self, window_s: float = 5.0):
        if window_s <= 0:
            raise ControlError(f"window must be > 0, got {window_s}")
        self.window_s = window_s
        self._times: deque[float] = deque()
        self._latencies: deque[float] = deque()
        self.total_completed = 0
        self._max_latency_s = 0.0
        self._version = 0
        self._mean_version = -1
        self._mean_latency = 0.0

    def record(self, completion_s: float, latency_s: float) -> None:
        """Record one completed query."""
        if latency_s < 0:
            raise ControlError(f"negative latency {latency_s}")
        self._times.append(completion_s)
        self._latencies.append(latency_s)
        self._version += 1
        self.total_completed += 1
        self._max_latency_s = max(self._max_latency_s, latency_s)

    def prune(self, now_s: float) -> None:
        """Drop samples older than the window."""
        horizon = now_s - self.window_s
        times = self._times
        if not times or times[0] >= horizon:
            return
        latencies = self._latencies
        while times and times[0] < horizon:
            times.popleft()
            latencies.popleft()
        self._version += 1

    def sample_count(self) -> int:
        """Samples currently inside the window."""
        return len(self._times)

    @property
    def max_latency_s(self) -> float:
        """Largest latency ever observed (for reports)."""
        return self._max_latency_s

    def _mean_latency_s(self) -> float:
        """Mean of a non-empty window, rescanned only after a change."""
        if self._mean_version != self._version:
            latencies = self._latencies
            self._mean_latency = sum(latencies) / len(latencies)
            self._mean_version = self._version
        return self._mean_latency

    def average_latency_s(self, now_s: float) -> float | None:
        """Window-average latency, or None with no samples."""
        self.prune(now_s)
        if not self._times:
            return None
        return self._mean_latency_s()

    def trend_s_per_s(self, now_s: float) -> float:
        """Least-squares slope of latency over completion time.

        Positive slope = latencies are growing.  Returns 0.0 when fewer
        than two samples are available or the window has no time spread.
        """
        self.prune(now_s)
        times = self._times
        n = len(times)
        if n < 2:
            return 0.0
        mean_t = sum(times) / n
        mean_l = self._mean_latency_s()
        sxx = sum((t - mean_t) ** 2 for t in times)
        if sxx <= 0:
            return 0.0
        sxy = sum(
            (t - mean_t) * (latency - mean_l)
            for t, latency in zip(times, self._latencies)
        )
        return sxy / sxx

    def time_to_violation_s(self, limit_s: float, now_s: float) -> float:
        """Estimated seconds until the average latency crosses ``limit_s``.

        Returns 0.0 when the limit is already violated and ``inf`` when
        latency is flat or shrinking (or no data exists yet).
        """
        if limit_s <= 0:
            raise ControlError(f"latency limit must be > 0, got {limit_s}")
        average = self.average_latency_s(now_s)
        if average is None:
            return float("inf")
        if average >= limit_s:
            return 0.0
        slope = self.trend_s_per_s(now_s)
        if slope <= 0:
            return float("inf")
        return (limit_s - average) / slope


class UtilizationTracker:
    """Per-socket utilization of the active worker set."""

    def __init__(self, socket_ids: tuple[int, ...], window_s: float = 1.0):
        if window_s <= 0:
            raise ControlError(f"window must be > 0, got {window_s}")
        self.window_s = window_s
        self._ticks: dict[int, deque[tuple[float, float, float]]] = {
            sid: deque() for sid in socket_ids
        }
        self._pending: dict[int, float] = {sid: 0.0 for sid in socket_ids}

    def record_tick(
        self,
        socket_id: int,
        now_s: float,
        offered_instructions: float,
        consumed_instructions: float,
        pending_instructions: float = 0.0,
    ) -> None:
        """Record one tick's budgets plus the backlog left afterwards."""
        if socket_id not in self._ticks:
            raise ControlError(f"unknown socket id {socket_id}")
        if offered_instructions < 0 or consumed_instructions < 0:
            raise ControlError("instruction budgets must be >= 0")
        if pending_instructions < 0:
            raise ControlError("pending instructions must be >= 0")
        self._ticks[socket_id].append(
            (now_s, offered_instructions, consumed_instructions)
        )
        self._pending[socket_id] = pending_instructions
        horizon = now_s - self.window_s
        ticks = self._ticks[socket_id]
        while ticks and ticks[0][0] < horizon:
            ticks.popleft()

    def record_span(
        self,
        socket_id: int,
        times: list[float],
        offered_instructions: float,
        consumed_instructions: float,
        pending_instructions: float = 0.0,
    ) -> None:
        """Record one identical sample for every tick time in ``times``.

        Bit-identical to calling :meth:`record_tick` once per time:
        eviction only removes entries older than the horizon, and the
        horizon grows monotonically, so one sweep at the final time
        removes exactly what the per-tick sweeps would have.
        """
        if socket_id not in self._ticks:
            raise ControlError(f"unknown socket id {socket_id}")
        if offered_instructions < 0 or consumed_instructions < 0:
            raise ControlError("instruction budgets must be >= 0")
        if pending_instructions < 0:
            raise ControlError("pending instructions must be >= 0")
        if not times:
            return
        ticks = self._ticks[socket_id]
        offered = offered_instructions
        consumed = consumed_instructions
        ticks.extend((t, offered, consumed) for t in times)
        self._pending[socket_id] = pending_instructions
        horizon = times[-1] - self.window_s
        while ticks and ticks[0][0] < horizon:
            ticks.popleft()

    def utilization(self, socket_id: int, now_s: float) -> float:
        """Demand relative to the offered capacity over the window.

        ``(consumed + backlog) / offered``, clamped to 1.0 — a remaining
        backlog means the active workers could not keep up, so utilization
        must saturate even though idle RTI phases offered no capacity.  A
        fully parked socket reports 1.0 when work is waiting (it must be
        woken) and 0.0 otherwise.
        """
        if socket_id not in self._ticks:
            raise ControlError(f"unknown socket id {socket_id}")
        horizon = now_s - self.window_s
        offered = consumed = 0.0
        for t, off, con in self._ticks[socket_id]:
            if t >= horizon:
                offered += off
                consumed += con
        backlog = self._pending[socket_id]
        if offered <= 0:
            return 1.0 if backlog > 0 else 0.0
        return min(1.0, (consumed + backlog) / offered)

    def busy_fraction(self, socket_id: int, now_s: float) -> float:
        """Consumed / offered over the window, *without* the backlog term.

        This answers a different question than :meth:`utilization`:
        whether the active workers ever ran out of messages (< 1.0) or
        stayed saturated.  The ECL's online profile adaptation gates on
        this — a measurement taken while workers ran dry reflects missing
        demand, not the configuration's capacity.
        """
        if socket_id not in self._ticks:
            raise ControlError(f"unknown socket id {socket_id}")
        horizon = now_s - self.window_s
        offered = consumed = 0.0
        for t, off, con in self._ticks[socket_id]:
            if t >= horizon:
                offered += off
                consumed += con
        if offered <= 0:
            return 0.0
        return min(1.0, consumed / offered)
