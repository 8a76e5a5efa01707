"""Extension study: a transaction-oriented architecture workload (§5.3).

The paper restricts the ECL to the data-oriented architecture and lists
two reasons transaction-oriented systems need more research:

1. **spinlocks** "often occur and tamper with our performance metric
   (instructions retired)" — waiting threads spin at full IPC, so the
   counters overreport useful work;
2. cross-socket interference causes highly frequent profile adaptations.

This module models such a system: TATP-style transactions executed under
a conventional lock manager with a centralized latch (the classic
transaction-oriented bottleneck).  Its characteristics carry both the
latch contention *and* ``spinlock_retirement`` — which makes the
hardware instruction counters lie to the ECL.  The extension benchmark
shows the consequence: profiles built from runtime counters rank
contended all-core configurations far too high.
"""

from __future__ import annotations

import numpy as np

from repro.dbms.queries import Query
from repro.hardware.perfmodel import WorkloadCharacteristics
from repro.storage.partition import PartitionMap
from repro.workloads.base import Workload, WorkloadVariant
from repro.workloads.tatp import TatpWorkload

TRANSACTION_ORIENTED_CHARACTERISTICS = WorkloadCharacteristics(
    name="tatp-transaction-oriented",
    base_cpi=0.80,
    ht_speedup=1.15,
    bytes_per_instr=0.35,
    miss_rate=0.003,
    # The centralized lock-manager latch: one contended acquisition per
    # ~400 transaction instructions.
    atomic_ops_per_instr=1.0 / 400.0,
    atomic_local_ns=60.0,
    contention_queue_factor=0.20,
    spinlock_retirement=True,
)


class TransactionOrientedTatpWorkload(Workload):
    """TATP executed by a (simulated) transaction-oriented engine.

    Transactions are not partition-bound: each one latches the shared
    lock table, so every query message carries the contended-latch
    characteristics above.  The modeled per-transaction cost reuses the
    indexed TATP operator mix.
    """

    def __init__(self, transactions_per_query: int = 20_000):
        super().__init__(WorkloadVariant.INDEXED)
        self.transactions_per_query = transactions_per_query
        self._tatp = TatpWorkload(
            WorkloadVariant.INDEXED,
            transactions_per_query=transactions_per_query,
        )

    @property
    def name(self) -> str:
        return "tatp-toa"

    @property
    def characteristics(self) -> WorkloadCharacteristics:
        return TRANSACTION_ORIENTED_CHARACTERISTICS

    @property
    def nominal_peak_qps(self) -> float:
        # The latch serializes the system far below the data-oriented
        # throughput; calibrated to the contention cap of the §5.3 model.
        return 700.0 * (20_000 / self.transactions_per_query)

    def make_modeled_query(
        self, rng: np.random.Generator, arrival_s: float, partitions: PartitionMap
    ) -> Query:
        """A batch of transactions, fanned like the TATP equivalent."""
        return self._tatp.make_modeled_query(rng, arrival_s, partitions)

    def make_modeled_batch(
        self,
        rng: np.random.Generator,
        arrival_times_s: list[float],
        partitions: PartitionMap,
    ) -> list[Query]:
        """TATP's hoisted batch fabrication, unchanged."""
        return self._tatp.make_modeled_batch(rng, arrival_times_s, partitions)

    def setup_real(
        self, partitions: PartitionMap, scale: int, rng: np.random.Generator
    ) -> None:
        """Same TATP schema and data as the data-oriented variant."""
        self._tatp.setup_real(partitions, scale, rng)

    def make_real_query(
        self, rng: np.random.Generator, arrival_s: float, partitions: PartitionMap
    ) -> Query:
        """One real TATP transaction (the storage layer is identical)."""
        return self._tatp.make_real_query(rng, arrival_s, partitions)
