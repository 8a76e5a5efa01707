"""The paper's custom key-value store benchmark.

4-byte uniformly distributed keys and values (§6, Table 1).  Two
variants:

* **indexed** — point GETs/PUTs through a per-partition hash index:
  memory *latency*-bound (pointer chases dominate), favouring medium core
  frequencies and a low uncore clock;
* **non-indexed** — every GET scans its partition's key column: memory
  *bandwidth*-bound, saturating the memory controllers like Fig. 10(a)
  and yielding the largest energy savings in Table 1.

Client requests are batched: one simulated :class:`Query` stands for
``ops_per_query`` individual KV operations issued by one client, which
keeps end-to-end simulations tractable while preserving the demand the
hardware sees (the per-op costs and byte counts are unchanged).
"""

from __future__ import annotations

import math

import numpy as np

from repro.dbms.execution import (
    insert_op,
    lookup_op,
    modeled_lookup_cost,
    modeled_scan_cost,
    scan_op,
)
from repro.dbms.messages import Message, WorkCost
from repro.dbms.queries import Query, QueryStage
from repro.hardware.perfmodel import WorkloadCharacteristics
from repro.storage.partition import PartitionMap, hash_partition
from repro.storage.schema import DataType, Schema
from repro.workloads.base import (
    Workload,
    WorkloadVariant,
    pick_partitions,
    require_size,
)

#: Key space of the benchmark (4-byte keys).
KEY_SPACE = 2**31 - 1
#: Fraction of operations that are writes (PUT).
PUT_FRACTION = 0.05
#: Rows held by each partition's fragment in the modeled cost computation.
ROWS_PER_PARTITION = 350_000
#: Bytes per row: 4-byte key + 4-byte value.
ROW_BYTES = 8

_KV_SCHEMA = Schema.of(key=DataType.INT32, value=DataType.INT32)

INDEXED_CHARACTERISTICS = WorkloadCharacteristics(
    name="kv-indexed",
    base_cpi=0.80,
    ht_speedup=1.25,
    bytes_per_instr=0.30,
    miss_rate=0.004,
)

NON_INDEXED_CHARACTERISTICS = WorkloadCharacteristics(
    name="kv-non-indexed",
    base_cpi=0.70,
    ht_speedup=1.10,
    bytes_per_instr=2.0,
)


class KeyValueWorkload(Workload):
    """Key-value benchmark with client-side operation batching."""

    def __init__(
        self,
        variant: WorkloadVariant = WorkloadVariant.NON_INDEXED,
        ops_per_query: int | None = None,
        skew: float = 0.0,
    ):
        super().__init__(variant)
        if ops_per_query is None:
            # Indexed ops are ~3 orders of magnitude cheaper; batch more of
            # them so one simulated query is a comparable unit of work.
            ops_per_query = 25 if not self.is_indexed else 100_000
        require_size("ops_per_query", ops_per_query)
        if not math.isfinite(skew) or skew < 0.0:
            raise ValueError(f"skew must be a finite number >= 0, got {skew}")
        self.ops_per_query = ops_per_query
        #: Zipf-like partition skew: 0 = uniform; larger values focus the
        #: requests on fewer partitions.  Exercises the elasticity layer's
        #: implicit load balancing (any worker of a socket serves the hot
        #: partitions, paper section 3).
        self.skew = skew

    @property
    def name(self) -> str:
        return "kv"

    @property
    def characteristics(self) -> WorkloadCharacteristics:
        if self.is_indexed:
            return INDEXED_CHARACTERISTICS
        return NON_INDEXED_CHARACTERISTICS

    @property
    def nominal_peak_qps(self) -> float:
        # Calibrated so that 1.0 load saturates the 2-socket machine under
        # the all-on baseline configuration (DESIGN.md §5).
        if self.is_indexed:
            return 1000.0 * (100_000 / self.ops_per_query)
        return 1300.0 * (25 / self.ops_per_query)

    # -- modeled mode ---------------------------------------------------------

    def _op_cost(self) -> WorkCost:
        """Modeled cost of one KV operation."""
        if self.is_indexed:
            return modeled_lookup_cost(probes=1.4)
        return modeled_scan_cost(
            rows=ROWS_PER_PARTITION, row_bytes=ROW_BYTES, selectivity=1e-6
        )

    def make_modeled_query(
        self, rng: np.random.Generator, arrival_s: float, partitions: PartitionMap
    ) -> Query:
        op_cost = self._op_cost()
        if self.is_indexed:
            fan_out = min(16, len(partitions))
        else:
            fan_out = min(4, len(partitions))
        ops_per_partition = max(1, self.ops_per_query // fan_out)
        if self.skew > 0.0:
            targets = self._skewed_partitions(rng, partitions, fan_out)
        else:
            targets = pick_partitions(rng, partitions, fan_out)
        messages = [
            Message(
                query_id=-1,
                target_partition=pid,
                cost=WorkCost(
                    instructions=op_cost.instructions * ops_per_partition,
                    bytes_accessed=op_cost.bytes_accessed * ops_per_partition,
                ),
            )
            for pid in targets
        ]
        coordinator = int(rng.integers(0, partitions.socket_count))
        return Query(
            arrival_s=arrival_s,
            stages=[QueryStage(messages)],
            coordinator_socket=coordinator,
        )

    def make_modeled_bank(
        self,
        rng: np.random.Generator,
        arrival_times_s: list[float],
        partitions: PartitionMap,
    ):
        # Columnar transcription of repeated make_modeled_query calls:
        # same query ids, same RNG draw order per query (partition picks,
        # then the coordinator draw), same per-message costs — just no
        # Message/Query objects.
        from repro.dbms.querybank import QueryBank
        from repro.dbms.queries import take_query_ids

        count = len(arrival_times_s)
        if not count:
            return None
        op_cost = self._op_cost()
        if self.is_indexed:
            fan_out = min(16, len(partitions))
        else:
            fan_out = min(4, len(partitions))
        ops_per_partition = max(1, self.ops_per_query // fan_out)
        all_partitions = np.arange(len(partitions), dtype=np.int64)
        socket_count = partitions.socket_count
        targets = np.empty(count * fan_out, dtype=np.int64)
        coordinators = np.empty(count, dtype=np.int64)
        # The partition and coordinator draws must interleave per query to
        # keep the rng stream identical to make_modeled_query, so this loop
        # stays scalar; the per-message object fabrication it replaces is
        # what the columns eliminate.
        for i in range(count):
            if self.skew > 0.0:
                picks = self._skewed_partitions(rng, partitions, fan_out)
                targets[i * fan_out : (i + 1) * fan_out] = picks
            elif fan_out == all_partitions.size:
                targets[i * fan_out : (i + 1) * fan_out] = all_partitions
            else:
                targets[i * fan_out : (i + 1) * fan_out] = rng.choice(
                    all_partitions.size, size=fan_out, replace=False
                )
            coordinators[i] = rng.integers(0, socket_count)
        instructions = np.full(
            count * fan_out, op_cost.instructions * ops_per_partition
        )
        bytes_accessed = np.full(
            count * fan_out, op_cost.bytes_accessed * ops_per_partition
        )
        return QueryBank(
            first_query_id=take_query_ids(count),
            fan_out=fan_out,
            arrivals_s=np.asarray(arrival_times_s, dtype=np.float64),
            coordinators=coordinators,
            targets=targets,
            instructions=instructions,
            bytes_accessed=bytes_accessed,
        )

    def _skewed_partitions(
        self, rng: np.random.Generator, partitions: PartitionMap, count: int
    ) -> list[int]:
        """Zipf-weighted distinct partition picks (hot partitions first)."""
        total = len(partitions)
        ranks = np.arange(1, total + 1, dtype=np.float64)
        weights = ranks ** -(1.0 + self.skew)
        weights /= weights.sum()
        picks = rng.choice(total, size=count, replace=False, p=weights)
        return [int(p) for p in picks]

    # -- real mode ---------------------------------------------------------------

    def setup_real(
        self, partitions: PartitionMap, scale: int, rng: np.random.Generator
    ) -> None:
        """Load ``scale`` rows, hash-partitioned on the key."""
        partitions.create_table_everywhere("kv", _KV_SCHEMA)
        keys = rng.integers(0, KEY_SPACE, size=scale)
        values = rng.integers(0, KEY_SPACE, size=scale)
        for key, value in zip(keys, values):
            partition = partitions.partition_for_key(int(key))
            partition.table("kv").insert((int(key), int(value)))
        if self.is_indexed:
            for partition in partitions:
                partition.table("kv").create_index("key")

    def make_real_query(
        self, rng: np.random.Generator, arrival_s: float, partitions: PartitionMap
    ) -> Query:
        """One small real request: a handful of GETs (and maybe a PUT)."""
        ops = max(1, min(8, self.ops_per_query))
        messages = []
        for _ in range(ops):
            key = int(rng.integers(0, KEY_SPACE))
            pid = hash_partition(key, len(partitions))
            if rng.random() < PUT_FRACTION:
                operation = insert_op("kv", (key, int(rng.integers(0, KEY_SPACE))))
            elif self.is_indexed:
                operation = lookup_op("kv", "key", key)
            else:
                operation = scan_op("kv", "key", key, key, project=("key", "value"))
            messages.append(
                Message(query_id=-1, target_partition=pid, operation=operation)
            )
        coordinator = int(rng.integers(0, partitions.socket_count))
        return Query(
            arrival_s=arrival_s,
            stages=[QueryStage(messages)],
            coordinator_socket=coordinator,
        )
