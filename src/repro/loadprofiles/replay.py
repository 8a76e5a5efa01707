"""Trace replay: drive the load generator from recorded arrival times.

A :class:`TraceReplayProfile` wraps a concrete list of arrival
timestamps — exported telemetry (``repro run --trace``), a production
log, a CSV arrival curve — and replays it exactly: the load generator
asks it for per-tick *counts* (:meth:`counts_array`) instead of
integrating a rate curve, so a replayed run reproduces the recorded
per-tick arrival stream bin for bin.

Two layers of fidelity:

* **deterministic mode** (the default): :meth:`counts_array` histograms
  the recorded timestamps onto the tick grid — exact integer counts,
  no carry, no RNG;
* **display / Poisson mode**: :meth:`fraction` exposes a binned rate
  curve (a :class:`~repro.environment.signal.StepSignal` normalized to
  ``reference_qps``) so sampling, reports, and ``poisson=True`` runs
  still see a sensible load shape.

Telemetry arrival timestamps are generated strictly inside their tick
(``t + dt*(i+0.5)/count``), so the histogram recovery is float-safe.
"""

from __future__ import annotations

import csv
import json
import os
from pathlib import Path

import numpy as np

from repro.environment.signal import StepSignal
from repro.errors import SimulationError
from repro.loadprofiles.base import LoadProfile

#: Rate-curve bins for the display fraction (per run, not per second).
DISPLAY_BINS = 200


class TraceReplayProfile(LoadProfile):
    """Replays a recorded arrival stream exactly.

    Args:
        arrival_times_s: arrival timestamps in seconds (any order).
        name: profile name for reports.
        duration_s: run length; defaults to the last arrival time (an
            arrival at exactly the end then needs an explicit longer
            duration to be generated).
        reference_qps: rate mapped to ``fraction == 1.0``; defaults to
            the peak binned rate, so the display curve peaks at 1.0.
    """

    def __init__(
        self,
        arrival_times_s,
        name: str = "replay",
        duration_s: float | None = None,
        reference_qps: float | None = None,
    ):
        try:
            times = np.sort(np.asarray(arrival_times_s, dtype=np.float64))
        except (TypeError, ValueError) as exc:
            raise SimulationError(f"non-numeric arrival time: {exc}") from None
        if times.size == 0:
            raise SimulationError("replay trace contains no arrivals")
        if not np.all(np.isfinite(times)):
            raise SimulationError("arrival times must be finite numbers")
        if times[0] < 0:
            raise SimulationError(
                f"arrival times must be >= 0, got {times[0]}"
            )
        if duration_s is None:
            duration_s = float(times[-1])
        if not (0 < duration_s < float("inf")):
            raise SimulationError(
                f"duration must be finite and > 0, got {duration_s}"
            )
        if times[-1] > duration_s:
            raise SimulationError(
                f"arrival at {float(times[-1])} s exceeds the "
                f"{duration_s} s duration"
            )
        self._name = name
        self._times = times
        self._duration_s = float(duration_s)
        # Binned rate curve for display/Poisson: counts per bin / bin
        # width, normalized to the reference rate.
        bins = min(DISPLAY_BINS, max(1, int(times.size)))
        bin_s = self._duration_s / bins
        edges = np.arange(bins + 1, dtype=np.float64) * bin_s
        counts = np.diff(np.searchsorted(times, edges, side="left"))
        # The final edge is closed so an arrival at exactly duration_s
        # lands in the last bin rather than vanishing from the display.
        counts[-1] += int(times.size - np.searchsorted(times, edges[-1]))
        rates = counts / bin_s
        if reference_qps is None:
            reference_qps = float(rates.max()) or 1.0
        if not (0 < reference_qps < float("inf")):
            raise SimulationError(
                f"reference_qps must be finite and > 0, got {reference_qps}"
            )
        self.reference_qps = float(reference_qps)
        self._signal = StepSignal(
            list(zip(edges[:-1], rates / self.reference_qps)),
            name=f"{name}-rate",
        )

    @property
    def name(self) -> str:
        return self._name

    @property
    def duration_s(self) -> float:
        return self._duration_s

    @property
    def arrival_times_s(self) -> np.ndarray:
        """The sorted recorded arrival timestamps (read-only view)."""
        view = self._times.view()
        view.flags.writeable = False
        return view

    @property
    def arrival_count(self) -> int:
        return int(self._times.size)

    # -- exact replay (the load generator's fast path) ---------------------

    def counts_array(
        self, t0_s: float, dt_s: float, start_tick: int, n_ticks: int
    ) -> np.ndarray:
        """Arrival counts for ticks ``start_tick .. start_tick+n_ticks-1``.

        Tick ``k`` covers the half-open bin
        ``[t0_s + k*dt_s, t0_s + (k+1)*dt_s)`` — the exact per-tick
        arrival window — so histogramming the recorded timestamps
        reproduces the original per-tick stream.
        """
        if dt_s <= 0:
            raise SimulationError(f"tick must be > 0, got {dt_s}")
        edges = t0_s + (
            np.arange(start_tick, start_tick + n_ticks + 1, dtype=np.float64)
            * dt_s
        )
        return np.diff(np.searchsorted(self._times, edges, side="left")).astype(
            np.int64
        )

    # -- display / Poisson rate curve --------------------------------------

    def fraction(self, t_s: float) -> float:
        if t_s < 0.0 or t_s > self._duration_s:
            return 0.0
        return self._signal.value(t_s)

    def fraction_array(self, times_s: np.ndarray) -> np.ndarray:
        times_s = np.asarray(times_s, dtype=np.float64)
        inside = (times_s >= 0.0) & (times_s <= self._duration_s)
        return np.where(inside, self._signal.values(times_s), 0.0)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_trace(
        cls,
        path: "str | os.PathLike[str]",
        name: str | None = None,
        duration_s: float | None = None,
        reference_qps: float | None = None,
    ) -> "TraceReplayProfile":
        """Rebuild the arrival stream of a ``repro.telemetry`` trace.

        Reads the ``arrival`` events of a JSONL trace written by
        :meth:`~repro.telemetry.trace.TraceRecorder.to_jsonl`; the
        ``run_start`` event (when present) supplies the default name and
        duration.

        Raises:
            SimulationError: unreadable file or no arrival events (e.g.
                a trace recorded with ``record_arrivals=False``, or one
                whose ring buffer evicted them).
        """
        target = Path(path)
        arrivals: list[float] = []
        source_profile: str | None = None
        for record in _jsonl_records(target):
            kind = record.get("event")
            try:
                if kind == "arrival":
                    arrivals.append(float(record["t"]))
                elif kind == "run_start":
                    source_profile = record.get("profile")
                    if duration_s is None and record.get("duration_s") is not None:
                        duration_s = float(record["duration_s"])
                elif kind is None:
                    # Not a telemetry trace; fall through to the generic
                    # (time, count) JSONL schema.
                    t = record.get("time_s", record.get("t"))
                    if t is None:
                        raise SimulationError(
                            f"{target}: JSONL row needs 'time_s' (or 't')"
                        )
                    arrivals.extend([float(t)] * int(record.get("count", 1)))
            except (KeyError, TypeError, ValueError):
                raise SimulationError(
                    f"{target}: malformed record {record!r}"
                ) from None
        if not arrivals:
            raise SimulationError(
                f"{target}: no arrival events (trace recorded with "
                "record_arrivals=False, or arrivals evicted by the ring "
                "buffer?)"
            )
        if name is None:
            suffix = source_profile or target.stem
            name = f"replay:{suffix}"
        return cls(
            arrivals,
            name=name,
            duration_s=duration_s,
            reference_qps=reference_qps,
        )

    # JSONL arrival curves share the trace parser (the generic schema
    # branch above).
    from_jsonl = from_trace

    @classmethod
    def from_csv(
        cls,
        path: "str | os.PathLike[str]",
        name: str | None = None,
        duration_s: float | None = None,
        reference_qps: float | None = None,
    ) -> "TraceReplayProfile":
        """Load an arrival curve from ``time_s[,count]`` CSV rows.

        Each row contributes ``count`` arrivals (default 1) at its
        timestamp; an optional header row is skipped.
        """
        target = Path(path)
        if not target.is_file():
            raise SimulationError(f"no replay trace at {target}")
        arrivals: list[float] = []
        with open(target, "r", encoding="utf-8", newline="") as fh:
            for lineno, row in enumerate(csv.reader(fh), start=1):
                if not row or not any(cell.strip() for cell in row):
                    continue
                try:
                    t = float(row[0])
                    count = int(row[1]) if len(row) > 1 and row[1].strip() else 1
                except ValueError:
                    if lineno == 1:
                        continue  # header row ("time_s,count")
                    raise SimulationError(
                        f"{target}:{lineno}: expected 'time_s[,count]' row, "
                        f"got {row!r}"
                    ) from None
                if count < 0:
                    raise SimulationError(
                        f"{target}:{lineno}: count must be >= 0, got {count}"
                    )
                arrivals.extend([t] * count)
        if not arrivals:
            raise SimulationError(f"{target}: no arrivals")
        return cls(
            arrivals,
            name=name or f"replay:{target.stem}",
            duration_s=duration_s,
            reference_qps=reference_qps,
        )


def _jsonl_records(path: Path):
    if not path.is_file():
        raise SimulationError(f"no replay trace at {path}")
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
                    f"{path}:{lineno}: expected a JSON object, "
                    f"got {type(record).__name__}"
                )
            yield record


def load_replay_trace(
    path: "str | os.PathLike[str]",
    name: str | None = None,
    duration_s: float | None = None,
) -> TraceReplayProfile:
    """Load a replay profile from a file, picking the format by suffix.

    ``.jsonl`` / ``.ndjson`` parse as telemetry traces or generic JSONL
    arrival rows; everything else parses as ``time_s[,count]`` CSV.
    """
    target = Path(path)
    if target.suffix.lower() in (".jsonl", ".ndjson"):
        return TraceReplayProfile.from_trace(
            target, name=name, duration_s=duration_s
        )
    return TraceReplayProfile.from_csv(
        target, name=name, duration_s=duration_s
    )
