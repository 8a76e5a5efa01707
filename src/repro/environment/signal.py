"""Piecewise time-varying signals — the scenario-engine substrate.

A :class:`Signal` is a scalar function of simulated time with the three
capabilities the harness needs:

* ``value(t)`` — the scalar read a control policy makes on a live tick;
* ``values(times)`` — the vectorized read the carbon/cost accounting
  and the load-generator pre-draw fold over (the hot path: one call per
  pre-drawn block or committed macro span, never one per tick);
* ``next_change_s(t)`` — the first time strictly after ``t`` at which
  the signal's piecewise description changes (a step boundary, a linear
  knot), ``inf`` for never.  The macro-stepping runner caps span
  horizons at this time the same way it caps at boot deadlines, so the
  tick on which a signal changes always runs live.

Scalar and vectorized reads must agree: ``value`` defaults to a
one-element ``values`` call, and classes overriding both keep an
explicit rounding contract (:class:`PiecewiseLinearSignal` carries the
historical dual-path numerics of ``SegmentProfile`` — exact-formula
scalar interpolation, ``np.interp`` vectors — because run goldens pin
both paths bit-for-bit).
"""

from __future__ import annotations

import abc
import bisect
import csv
import json
import os
from pathlib import Path

import numpy as np

from repro.errors import SimulationError


class Signal(abc.ABC):
    """A piecewise time-varying scalar over simulated seconds."""

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Signal name as used in reports ("carbon-diurnal", ...)."""

    @abc.abstractmethod
    def values(self, times_s: np.ndarray) -> np.ndarray:
        """Vectorized sample at each time (float64 in, float64 out)."""

    def value(self, t_s: float) -> float:
        """Scalar sample at ``t_s`` — agrees with :meth:`values` by
        construction unless a subclass overrides both under a documented
        rounding contract."""
        return float(self.values(np.array([t_s], dtype=np.float64))[0])

    def next_change_s(self, t_s: float) -> float:
        """First time strictly after ``t_s`` the description changes.

        ``inf`` means the signal is analytically constant from ``t_s``
        on (or changes continuously with no breakpoints to land live
        ticks on); the macro runner then applies no extra cap.
        """
        return float("inf")

    def average(self, t0_s: float, t1_s: float, samples: int = 512) -> float:
        """Midpoint-sampled time average over ``[t0_s, t1_s]``.

        Reference level for relative comparisons (e.g. "is this hour
        dirtier than the run average"); deterministic, not an exact
        integral.
        """
        if samples <= 0:
            raise SimulationError(f"samples must be > 0, got {samples}")
        if t1_s <= t0_s:
            return self.value(t0_s)
        step = (t1_s - t0_s) / samples
        mids = t0_s + (np.arange(samples, dtype=np.float64) + 0.5) * step
        return float(self.values(mids).mean())


class ConstantSignal(Signal):
    """A single value for all time."""

    def __init__(self, value: float, name: str = "constant"):
        self._value = float(value)
        self._name = name

    @property
    def name(self) -> str:
        return self._name

    def values(self, times_s: np.ndarray) -> np.ndarray:
        times_s = np.asarray(times_s, dtype=np.float64)
        return np.full(times_s.shape, self._value, dtype=np.float64)

    def value(self, t_s: float) -> float:
        return self._value


class StepSignal(Signal):
    """Piecewise-constant, left-closed: ``value = v_i`` on ``[t_i, t_{i+1})``.

    Before the first control point the first value holds (signals like a
    grid carbon curve have no natural zero); after the last point the
    last value holds forever.
    """

    def __init__(self, points: list[tuple[float, float]], name: str = "step"):
        if not points:
            raise SimulationError("step signal needs >= 1 control point")
        try:
            times = [float(t) for t, _ in points]
            levels = [float(v) for _, v in points]
        except (TypeError, ValueError) as exc:
            raise SimulationError(f"non-numeric control point: {exc}") from None
        if not np.all(np.isfinite(times)) or not np.all(np.isfinite(levels)):
            raise SimulationError("control points must be finite numbers")
        if times != sorted(times):
            raise SimulationError("control points must be time-ordered")
        if len(set(times)) != len(times):
            raise SimulationError("control points must have distinct times")
        self._name = name
        self._times = np.array(times, dtype=np.float64)
        self._levels = np.array(levels, dtype=np.float64)

    @property
    def name(self) -> str:
        return self._name

    def values(self, times_s: np.ndarray) -> np.ndarray:
        times_s = np.asarray(times_s, dtype=np.float64)
        idx = np.searchsorted(self._times, times_s, side="right") - 1
        return self._levels[np.clip(idx, 0, len(self._levels) - 1)]

    def value(self, t_s: float) -> float:
        i = int(np.searchsorted(self._times, t_s, side="right")) - 1
        return float(self._levels[min(max(i, 0), len(self._levels) - 1)])

    def next_change_s(self, t_s: float) -> float:
        i = int(np.searchsorted(self._times, t_s, side="right"))
        if i >= len(self._times):
            return float("inf")
        return float(self._times[i])


class PiecewiseLinearSignal(Signal):
    """Linear interpolation through time-ordered control points.

    Carries the exact dual-path numerics the ``SegmentProfile`` load
    profiles have always had (and which the run goldens pin through two
    independent consumers): the scalar :meth:`value` interpolates with
    the explicit ``v0*(1-w) + v1*w`` formula, while the vectorized
    :meth:`values` uses ``np.interp`` — the two agree up to float
    rounding, and each is bit-stable on its own path.

    ``outside`` selects the out-of-range behaviour: a float (load
    profiles use ``0.0``) is returned verbatim outside the control-point
    range; ``None`` (the default, for environment curves) clamps to the
    edge values.
    """

    def __init__(
        self,
        points: list[tuple[float, float]],
        name: str = "piecewise-linear",
        outside: float | None = None,
    ):
        if len(points) < 2:
            raise SimulationError(
                "piecewise-linear signal needs >= 2 control points"
            )
        times = [t for t, _ in points]
        if times != sorted(times):
            raise SimulationError("control points must be time-ordered")
        self._name = name
        self._points = [(float(t), float(v)) for t, v in points]
        self._times = times
        self._xs = np.array(times, dtype=np.float64)
        self._vs = np.array([v for _, v in points], dtype=np.float64)
        self.outside = outside

    @property
    def name(self) -> str:
        return self._name

    @property
    def start_s(self) -> float:
        return self._points[0][0]

    @property
    def end_s(self) -> float:
        return self._points[-1][0]

    def value(self, t_s: float) -> float:
        times = self._times
        points = self._points
        if t_s < times[0] or t_s > times[-1]:
            if self.outside is not None:
                return self.outside
            return points[0][1] if t_s < times[0] else points[-1][1]
        i = bisect.bisect_right(times, t_s)
        if i >= len(points):
            return points[-1][1]
        if i == 0:
            return points[0][1]
        (t0, v0), (t1, v1) = points[i - 1], points[i]
        span = t1 - t0
        if span <= 0:
            return v1
        w = (t_s - t0) / span
        return v0 * (1.0 - w) + v1 * w

    def values(self, times_s: np.ndarray) -> np.ndarray:
        times_s = np.asarray(times_s, dtype=np.float64)
        left = self._vs[0] if self.outside is None else self.outside
        right = self._vs[-1] if self.outside is None else self.outside
        return np.interp(times_s, self._xs, self._vs, left=left, right=right)

    def next_change_s(self, t_s: float) -> float:
        # Between knots the value changes continuously but the *piece*
        # does not; breakpoints are where live ticks must land (policies
        # re-read scalars there, the accounting always folds exactly).
        i = int(np.searchsorted(self._xs, t_s, side="right"))
        if i >= len(self._xs):
            return float("inf")
        return float(self._xs[i])


# -- file loaders -----------------------------------------------------------


def _rows_from_csv(path: Path) -> list[tuple[float, float]]:
    rows: list[tuple[float, float]] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or not any(cell.strip() for cell in row):
                continue
            try:
                rows.append((float(row[0]), float(row[1])))
            except (ValueError, IndexError):
                if lineno == 1:
                    continue  # header row ("time_s,value")
                raise SimulationError(
                    f"{path}:{lineno}: expected 'time_s,value' row, got {row!r}"
                ) from None
    return rows


def _rows_from_jsonl(path: Path) -> list[tuple[float, float]]:
    rows: list[tuple[float, float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SimulationError(
                    f"{path}:{lineno}: not valid JSON: {exc}"
                ) from None
            if not isinstance(record, dict):
                raise SimulationError(
                    f"{path}:{lineno}: expected a JSON object"
                )
            t = record.get("time_s", record.get("t"))
            v = record.get("value")
            if t is None or v is None:
                raise SimulationError(
                    f"{path}:{lineno}: need 'time_s' (or 't') and 'value'"
                )
            try:
                rows.append((float(t), float(v)))
            except (TypeError, ValueError):
                raise SimulationError(
                    f"{path}:{lineno}: 'time_s' and 'value' must be numbers, "
                    f"got {t!r}, {v!r}"
                ) from None
    return rows


def load_signal(
    path: "str | os.PathLike[str]", name: str | None = None
) -> StepSignal:
    """Load a step signal from a ``time_s,value`` CSV or JSONL file.

    Grid traces (carbon intensity, spot prices) publish as sampled
    series; each sample holds until the next, hence a
    :class:`StepSignal`.  The format is picked by suffix (``.jsonl`` /
    ``.ndjson`` parse as JSON lines, everything else as CSV).

    Raises:
        SimulationError: unreadable file, malformed rows, or no data.
    """
    target = Path(path)
    if not target.is_file():
        raise SimulationError(f"no signal trace at {target}")
    if target.suffix.lower() in (".jsonl", ".ndjson"):
        rows = _rows_from_jsonl(target)
    else:
        rows = _rows_from_csv(target)
    if not rows:
        raise SimulationError(f"{target}: no (time, value) rows")
    return StepSignal(rows, name=name or target.stem)
