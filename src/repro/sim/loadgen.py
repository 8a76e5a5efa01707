"""Query arrival generation from a (workload, load profile) pair.

Arrivals are deterministic-rate by default: the generator integrates the
instantaneous query rate and emits a query whenever the accumulated
expectation crosses 1.  ``poisson=True`` switches to Poisson per-tick
counts on top of the same rate curve (for tail-latency studies); both
modes are reproducible for a fixed seed.

Arrival *counts* are pre-drawn in blocks of :data:`BLOCK_TICKS` ticks:
one vectorized rate evaluation (``LoadProfile.fraction_array``) and one
vectorized count draw per block replace the per-tick rate lookup and RNG
call.  Ticks with a zero pre-drawn count return immediately without
touching the RNG or the profile, and the macro-stepping runner uses
:meth:`LoadGenerator.zero_arrival_run` to skip them wholesale.  Blocks
are materialized strictly in tick order, and a block is only pre-drawn
once every query of the preceding blocks has been constructed — so the
RNG stream is consumed in the same order whether the runner visits every
tick or leaps over the empty ones.

Modeled queries are fabricated as one columnar
:class:`~repro.dbms.querybank.QueryBank` per tick wherever the workload
supports it (single-stage untagged queries, e.g. KV), and as a
``list[Query]`` otherwise (TATP, SSB, real mode) — see
:meth:`LoadGenerator.arrivals`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.dbms.queries import Query
from repro.loadprofiles.base import LoadProfile
from repro.storage.partition import PartitionMap
from repro.workloads.base import Workload

#: Ticks per pre-drawn arrival-count block (8.2 simulated seconds at the
#: default 2 ms tick): large enough to amortize the vectorized draws,
#: small enough that a workload switch wastes little pre-drawn state.
BLOCK_TICKS = 4096


class LoadGenerator:
    """Generates query arrivals tick by tick."""

    def __init__(
        self,
        workload: Workload,
        profile: LoadProfile,
        partitions: PartitionMap,
        seed: int = 0,
        poisson: bool = False,
        real_mode: bool = False,
    ):
        self._workload = workload
        self.profile = profile
        self.partitions = partitions
        self.poisson = poisson
        self.real_mode = real_mode
        self._rng = np.random.default_rng(seed)
        self.generated_count = 0
        # Tick-grid anchor and pre-drawn count blocks.  The grid is
        # established lazily by the first arrivals() call and re-anchored
        # whenever the caller leaves it (different dt, off-grid time, or
        # going backwards) or the workload changes mid-run.
        self._anchor_t0: float | None = None
        self._anchor_dt: float = 0.0
        self._blocks: list[np.ndarray] = []
        self._carry = 0.0  # deterministic-mode expectation carry, in [0, 1)

    @property
    def workload(self) -> Workload:
        return self._workload

    @workload.setter
    def workload(self, workload: Workload) -> None:
        # Pre-drawn counts embed the old workload's rate curve; drop them
        # and re-anchor at the next arrivals() call.  Both simulation
        # modes switch workloads on the same tick (a workload switch is a
        # macro-step horizon event), so they discard identical state and
        # the RNG stream stays aligned.
        self._workload = workload
        self._anchor_t0 = None
        self._blocks = []
        self._carry = 0.0

    def rate_qps(self, t_s: float) -> float:
        """Instantaneous query rate at time ``t_s``."""
        return self._workload.queries_per_second(self.profile.fraction(t_s))

    # -- pre-drawn count blocks ---------------------------------------------

    def _anchor(self, t_s: float, dt_s: float) -> None:
        self._anchor_t0 = t_s
        self._anchor_dt = dt_s
        self._blocks = []
        self._carry = 0.0

    def _tick_index(self, t_s: float, dt_s: float) -> int:
        """Map a call time onto the anchored grid, re-anchoring if off it."""
        if self._anchor_t0 is None or dt_s != self._anchor_dt:
            self._anchor(t_s, dt_s)
            return 0
        k = int(round((t_s - self._anchor_t0) / dt_s))
        if k < 0 or abs(t_s - (self._anchor_t0 + k * dt_s)) > 0.25 * dt_s:
            self._anchor(t_s, dt_s)
            return 0
        return k

    def _materialize_through(self, block: int) -> None:
        """Pre-draw count blocks up to and including ``block``, in order."""
        counts_array = getattr(self.profile, "counts_array", None)
        while len(self._blocks) <= block:
            b = len(self._blocks)
            start = b * BLOCK_TICKS
            if counts_array is not None and not self.poisson:
                # Replay profiles carry exact per-tick counts: histogram
                # the recorded arrivals straight onto the tick grid.  No
                # expectation carry and no RNG draw, so the replayed
                # count stream is independent of stepping mode and of
                # the workload's rate scaling.
                self._blocks.append(
                    counts_array(
                        self._anchor_t0, self._anchor_dt, start, BLOCK_TICKS
                    )
                )
                continue
            # Rates are sampled at ideal mid-tick grid points; the runner's
            # folded clock drifts well under dt/4 from this grid, so the
            # sample points match the per-tick midpoints to float rounding.
            mids = self._anchor_t0 + (
                np.arange(start, start + BLOCK_TICKS, dtype=np.float64) + 0.5
            ) * self._anchor_dt
            fractions = self.profile.fraction_array(mids)
            expected = np.zeros(BLOCK_TICKS, dtype=np.float64)
            nonzero = fractions > 0.0
            if np.any(nonzero):
                expected[nonzero] = (
                    self._workload.queries_per_second_array(fractions[nonzero])
                    * self._anchor_dt
                )
            counts = np.zeros(BLOCK_TICKS, dtype=np.int64)
            if self.poisson:
                if np.any(nonzero):
                    counts[nonzero] = self._rng.poisson(expected[nonzero])
            else:
                cum = self._carry + np.cumsum(expected)
                floors = np.floor(cum)
                counts = np.diff(floors, prepend=0.0).astype(np.int64)
                self._carry = float(cum[-1] - floors[-1])
            self._blocks.append(counts)

    def _count_at(self, k: int) -> int:
        block = k // BLOCK_TICKS
        self._materialize_through(block)
        return int(self._blocks[block][k - block * BLOCK_TICKS])

    def arrival_due(self, t_s: float, dt_s: float) -> bool:
        """Whether the tick of ``t_s`` has a pre-drawn arrival.

        Exactly ``zero_arrival_run(t_s, dt_s, 1) == 0`` as a scalar read
        of the pre-drawn block: the macro-span executor asks it on every
        attempt, before any other horizon.
        """
        if self._anchor_t0 is None or dt_s != self._anchor_dt:
            return True
        return self._count_at(self._tick_index(t_s, dt_s)) > 0

    def zero_arrival_run(self, t_s: float, dt_s: float, max_ticks: int) -> int:
        """Consecutive zero-arrival ticks starting at the tick of ``t_s``.

        Capped at ``max_ticks``.  Only pre-draws a further block when every
        remaining tick of the current one is empty — exactly the point at
        which the per-tick path would pre-draw it — so calling this never
        perturbs the RNG stream relative to visiting each tick.
        """
        if max_ticks <= 0:
            return 0
        if self._anchor_t0 is None or dt_s != self._anchor_dt:
            return 0
        start = self._tick_index(t_s, dt_s)
        k = start
        limit = start + max_ticks
        while k < limit:
            block = k // BLOCK_TICKS
            self._materialize_through(block)
            lo = k - block * BLOCK_TICKS
            hi = min(BLOCK_TICKS, limit - block * BLOCK_TICKS)
            nonzero = np.nonzero(self._blocks[block][lo:hi])[0]
            if nonzero.size:
                return k + int(nonzero[0]) - start
            k = block * BLOCK_TICKS + hi
        return max_ticks

    # -- per-tick API --------------------------------------------------------

    def arrivals(self, t_s: float, dt_s: float):
        """Queries arriving within ``[t_s, t_s + dt_s)``.

        Modeled arrivals come as one columnar
        :class:`~repro.dbms.querybank.QueryBank` when the workload can
        fabricate banks (single-stage, untagged queries, e.g. KV);
        otherwise, and in real mode, as a ``list[Query]``.  An empty tick
        returns ``[]``.

        Raises:
            SimulationError: on a non-positive tick.
        """
        if dt_s <= 0:
            raise SimulationError(f"tick must be > 0, got {dt_s}")
        count = self._count_at(self._tick_index(t_s, dt_s))
        if count <= 0:
            return []
        arrival_times = [t_s + dt_s * (i + 0.5) / count for i in range(count)]
        if self.real_mode:
            queries = [
                self._workload.make_real_query(self._rng, arrival, self.partitions)
                for arrival in arrival_times
            ]
        else:
            queries = self._workload.make_modeled_bank(
                self._rng, arrival_times, self.partitions
            )
            if queries is None:
                queries = self._workload.make_modeled_batch(
                    self._rng, arrival_times, self.partitions
                )
        self.generated_count += count
        return queries
