"""Workload abstraction shared by all benchmarks.

A :class:`Workload` couples three things:

1. **hardware characteristics** — what the performance model needs to
   translate instruction demand into throughput (and hence what shapes
   the workload's energy profile);
2. **a modeled query generator** — cheap
   :class:`~repro.dbms.queries.Query` objects whose messages carry
   pre-computed costs, used by the end-to-end load-profile simulations
   where millions of operations per simulated second are in flight;
3. **a real-execution mode** — data loading plus operator messages that
   actually read and write partition data, used by tests and examples.

``nominal_peak_qps`` anchors the load-profile fraction scale: a load
profile value of 1.0 maps to this query rate (chosen per workload so that
1.0 saturates the machine under the baseline configuration, matching the
paper's "100 % load" notion).
"""

from __future__ import annotations

import abc
import enum
import math

import numpy as np

from repro.errors import WorkloadError
from repro.dbms.queries import Query
from repro.hardware.perfmodel import WorkloadCharacteristics
from repro.storage.partition import PartitionMap


class WorkloadVariant(enum.Enum):
    """Index availability variant (paper Table 1 splits on this)."""

    INDEXED = "indexed"
    NON_INDEXED = "non-indexed"


class Workload(abc.ABC):
    """One benchmark workload in one variant."""

    def __init__(self, variant: WorkloadVariant):
        self.variant = variant

    # -- identity -----------------------------------------------------------

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Short benchmark name (e.g. ``"kv"``, ``"tatp"``, ``"ssb"``)."""

    @property
    def full_name(self) -> str:
        """Name including the variant, e.g. ``"kv (non-indexed)"``."""
        return f"{self.name} ({self.variant.value})"

    @property
    def is_indexed(self) -> bool:
        """Whether this is the indexed variant."""
        return self.variant is WorkloadVariant.INDEXED

    # -- hardware view ----------------------------------------------------------

    @property
    @abc.abstractmethod
    def characteristics(self) -> WorkloadCharacteristics:
        """Execution characteristics for the performance model."""

    @property
    @abc.abstractmethod
    def nominal_peak_qps(self) -> float:
        """Query rate corresponding to 100 % load."""

    def queries_per_second(self, load_fraction: float) -> float:
        """Translate a load-profile fraction into a query rate.

        Raises:
            WorkloadError: for negative fractions.
        """
        if load_fraction < 0:
            raise WorkloadError(f"negative load fraction {load_fraction}")
        return load_fraction * self.nominal_peak_qps

    def queries_per_second_array(self, load_fractions: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`queries_per_second` (load-generator hot path).

        Subclasses that override :meth:`queries_per_second` with a
        non-linear mapping must override this method to match.

        Raises:
            WorkloadError: for negative fractions.
        """
        load_fractions = np.asarray(load_fractions, dtype=np.float64)
        if np.any(load_fractions < 0):
            worst = float(load_fractions.min())
            raise WorkloadError(f"negative load fraction {worst}")
        return load_fractions * self.nominal_peak_qps

    # -- modeled mode ---------------------------------------------------------------

    @abc.abstractmethod
    def make_modeled_query(
        self, rng: np.random.Generator, arrival_s: float, partitions: PartitionMap
    ) -> Query:
        """Build one query whose messages carry pre-computed costs."""

    def make_modeled_batch(
        self,
        rng: np.random.Generator,
        arrival_times_s: list[float],
        partitions: PartitionMap,
    ) -> list[Query]:
        """Build one modeled query per arrival time, in arrival order.

        Overrides may hoist per-query invariants (cost models, fan-out,
        shared cost objects) out of the loop, but must draw from ``rng``
        in exactly the same order as repeated :meth:`make_modeled_query`
        calls so the arrival stream stays reproducible.
        """
        return [
            self.make_modeled_query(rng, arrival_s, partitions)
            for arrival_s in arrival_times_s
        ]

    def make_modeled_bank(
        self,
        rng: np.random.Generator,
        arrival_times_s: list[float],
        partitions: PartitionMap,
    ):
        """Build the arrivals as a columnar :class:`QueryBank`, or ``None``.

        The load generator calls this first and falls back to
        :meth:`make_modeled_batch` on ``None``.  An override must be an
        exact columnar transcription of the batch path: same query ids
        (reserve them via :func:`repro.dbms.queries.take_query_ids`),
        same ``rng`` draw order *per query*, same per-message costs and
        targets.  Only workloads whose modeled queries are single-stage
        and untagged can be represented; anything else returns ``None``.
        """
        return None

    # -- real mode ---------------------------------------------------------------

    @abc.abstractmethod
    def setup_real(
        self, partitions: PartitionMap, scale: int, rng: np.random.Generator
    ) -> None:
        """Create tables/indexes and load ``scale`` rows of data."""

    @abc.abstractmethod
    def make_real_query(
        self, rng: np.random.Generator, arrival_s: float, partitions: PartitionMap
    ) -> Query:
        """Build one query whose messages execute real operations."""


def pick_partitions(
    rng: np.random.Generator, partitions: PartitionMap, count: int
) -> list[int]:
    """Choose ``count`` distinct partition ids uniformly at random."""
    total = len(partitions)
    if count > total:
        raise WorkloadError(
            f"cannot pick {count} distinct partitions out of {total}"
        )
    if count == total:
        return list(range(total))
    return [int(p) for p in rng.choice(total, size=count, replace=False)]


def require_size(name: str, value: float) -> None:
    """Reject a per-query workload size that is not a finite number >= 1.

    A NaN or infinite size would make every arrival rate NaN or zero, and
    the run would silently submit no queries at all.

    Raises:
        ValueError: for NaN, infinite, or sub-1 sizes.
    """
    if not math.isfinite(value) or value < 1:
        raise ValueError(f"{name} must be a finite number >= 1, got {value}")
