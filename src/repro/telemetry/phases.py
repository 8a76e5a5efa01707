"""Wall-time attribution across the five pipeline phases of a run.

Every tick of :class:`~repro.sim.runner.SimulationRunner` passes through
``arrivals → control → engine step → completions → sampling``; knowing
where the wall time goes tells you whether a slow experiment is paying
for load generation, the control policy, or the engine model.
:class:`PhaseTimingObserver` reads a monotonic clock at each phase
boundary hook and accumulates per-phase totals — pure observation, no
effect on simulated behaviour.  It is macro-aware: attaching it leaves
span stepping on, and the table reports the skipped ticks next to the
live ones.

Attribution notes:

* the *sampling* bucket covers the ``end_tick`` dispatch up to this
  observer's own hook — attach it **last** (the runner appends extra
  observers after the built-ins, so the default placement is right) so
  the built-in sampler's work lands in the bucket;
* the *macro* row (:data:`BETWEEN_TICKS`) is the wall time from one
  live tick's ``end_tick`` to the next tick's ``before_arrivals`` (or
  the run's end): the environment accounting plus the macro-span
  attempt — committed span segments, replays and refusals alike — and
  the hooks of observers attached after this one;
* the run set-up before the first tick is uncounted — the table
  reports it as ``untimed``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping

from repro.sim.observers import RunObserver

if TYPE_CHECKING:
    from repro.dbms.engine import EngineTickResult
    from repro.sim.metrics import RunResult
    from repro.sim.runner import SimulationRunner

#: The five pipeline phases, in tick order.
PIPELINE_PHASES = ("arrivals", "control", "engine", "completions", "sampling")

#: The timing row between two live ticks: environment accounting plus
#: the macro-span attempt.
BETWEEN_TICKS = "macro"

#: Every row of the timing table, in table order.
TIMED_ROWS = PIPELINE_PHASES + (BETWEEN_TICKS,)


@dataclass(frozen=True)
class PhaseTimings:
    """Per-phase wall-time totals of one run.

    Attributes:
        seconds: wall seconds attributed to each row of
            :data:`TIMED_ROWS`.
        ticks: live ticks executed.
        wall_s: total wall time between run start and run end.
        skipped_ticks: ticks the macro-stepping runner skipped.
    """

    seconds: Mapping[str, float]
    ticks: int
    wall_s: float
    skipped_ticks: int = 0

    @property
    def measured_s(self) -> float:
        """Wall time attributed to any row."""
        return sum(self.seconds.values())

    @property
    def untimed_s(self) -> float:
        """Run wall time outside every row (the set-up before the
        first tick)."""
        return max(0.0, self.wall_s - self.measured_s)

    def per_tick_us(self, phase: str) -> float:
        """Mean microseconds per live tick spent in ``phase``."""
        if self.ticks == 0:
            return 0.0
        return 1e6 * self.seconds[phase] / self.ticks

    def table(self) -> str:
        """Aligned per-phase timing table (CLI ``--timings`` output)."""
        header = f"{'phase':>12} {'wall s':>9} {'share':>7} {'us/tick':>9}"
        rows = [header, "-" * len(header)]
        denominator = self.wall_s if self.wall_s > 0 else 1.0
        for phase in TIMED_ROWS:
            seconds = self.seconds[phase]
            rows.append(
                f"{phase:>12} {seconds:9.3f} {seconds / denominator:7.1%} "
                f"{self.per_tick_us(phase):9.1f}"
            )
        rows.append(
            f"{'untimed':>12} {self.untimed_s:9.3f} "
            f"{self.untimed_s / denominator:7.1%} {'':>9}"
        )
        rows.append(
            f"total {self.wall_s:.3f} s over {self.ticks} ticks "
            f"+ {self.skipped_ticks} skipped "
            f"({1e6 * self.wall_s / self.ticks if self.ticks else 0.0:.1f} "
            "us/live tick)"
        )
        return "\n".join(rows)


class PhaseTimingObserver(RunObserver):
    """Accumulates wall time per pipeline phase at the boundary hooks.

    Args:
        clock: monotonic time source (injectable for deterministic
            tests); defaults to :func:`time.perf_counter`.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._seconds = {row: 0.0 for row in TIMED_ROWS}
        self._ticks = 0
        self._skipped_ticks = 0
        self._runner: "SimulationRunner | None" = None
        self._run_start: float | None = None
        self._wall_s = 0.0
        self._mark = 0.0

    def on_run_start(self, runner: "SimulationRunner", result: "RunResult") -> None:
        self._seconds = {row: 0.0 for row in TIMED_ROWS}
        self._ticks = 0
        self._skipped_ticks = 0
        self._runner = runner
        self._wall_s = 0.0
        self._run_start = self._clock()

    def _advance(self, phase: str) -> None:
        now = self._clock()
        self._seconds[phase] += now - self._mark
        self._mark = now

    def before_arrivals(self, now_s: float, dt_s: float) -> None:
        if self._ticks:
            self._advance(BETWEEN_TICKS)
        else:
            self._mark = self._clock()

    def after_arrivals(self, now_s: float, dt_s: float) -> None:
        self._advance("arrivals")

    def after_control(self, now_s: float, dt_s: float) -> None:
        self._advance("control")

    def after_step(self, now_s: float, tick_result: "EngineTickResult") -> None:
        self._advance("engine")

    def after_completions(self, now_s: float) -> None:
        self._advance("completions")

    def end_tick(self, now_s: float, tick_result: "EngineTickResult") -> None:
        self._advance("sampling")
        self._ticks += 1

    def on_run_end(self, result: "RunResult") -> None:
        assert self._run_start is not None
        if self._ticks:
            self._advance(BETWEEN_TICKS)
            end = self._mark
        else:
            end = self._clock()
        self._wall_s = end - self._run_start
        if self._runner is not None:
            self._skipped_ticks = self._runner.macro_ticks_skipped

    def macro_horizon_s(self, now_s: float) -> float:
        # The hooks only read the clock and count live ticks, so spans
        # may leap past this observer.
        return float("inf")

    @property
    def timings(self) -> PhaseTimings:
        """The accumulated totals (final once the run has ended)."""
        return PhaseTimings(
            seconds=dict(self._seconds),
            ticks=self._ticks,
            wall_s=self._wall_s,
            skipped_ticks=self._skipped_ticks,
        )
