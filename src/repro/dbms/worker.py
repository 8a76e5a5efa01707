"""Worker threads: acquire partition → drain batch → release.

Workers are the execution units of the data-oriented runtime.  Each is
pinned to one hardware thread; the elasticity layer parks and unparks
them as the ECL grows or shrinks the active-thread set.  A worker's
processing loop implements the ownership protocol of
:class:`~repro.dbms.intra_socket.IntraSocketHub`:

1. acquire an unowned partition with pending messages,
2. dequeue a batch and execute its messages (charging instruction budget),
3. release the partition and look for the next one.

Processing happens in simulated time: the engine hands every worker an
instruction budget per tick (the hardware model's executed instructions),
and the worker consumes messages until the budget runs dry.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.errors import MessagingError
from repro.dbms.intra_socket import DEFAULT_BATCH_SIZE, IntraSocketHub
from repro.dbms.messages import Message, MessageKind
from repro.storage.partition import PartitionMap


class WorkerState(enum.Enum):
    """Lifecycle state of a worker thread."""

    ACTIVE = "active"  #: unparked, polling for work
    PARKED = "parked"  #: hardware thread in a C-state


class CompletedRun:
    """A drained run of compact (modeled, untagged) messages.

    The worker returns these inside its completion list in
    place of per-message objects: one run covers ``len(query_ids)``
    consecutively drained messages of one partition.  The engine settles
    them against the query tracker in one call per run.
    """

    __slots__ = ("partition_id", "query_ids")

    def __init__(self, partition_id: int, query_ids) -> None:
        self.partition_id = partition_id
        self.query_ids = query_ids

    @property
    def count(self) -> int:
        return len(self.query_ids)


class WorkerStatsArrays:
    """Struct-of-arrays counter store for a set of workers.

    The worker pool allocates one instance covering every worker and
    hands each worker an indexed :class:`WorkerStats` view into it, so
    machine-wide aggregation (:meth:`ElasticWorkerPool.total_stats`)
    runs as four vector sums instead of a Python loop over workers.
    """

    __slots__ = (
        "messages_processed",
        "instructions_consumed",
        "bytes_accessed",
        "acquisitions",
    )

    def __init__(self, count: int) -> None:
        self.messages_processed = np.zeros(count, dtype=np.int64)
        self.instructions_consumed = np.zeros(count, dtype=np.float64)
        self.bytes_accessed = np.zeros(count, dtype=np.float64)
        self.acquisitions = np.zeros(count, dtype=np.int64)


class WorkerStats:
    """Cumulative execution statistics of one worker.

    A read view over one slot of a :class:`WorkerStatsArrays`.  A
    standalone worker (outside a pool) gets its own length-1 arrays, so
    the attribute interface is unchanged either way.  Counters are
    diagnostics: they never feed back into scheduling or the hardware
    model, which is what allows the batched per-quantum update.
    """

    __slots__ = ("_arrays", "_index")

    def __init__(
        self, arrays: WorkerStatsArrays | None = None, index: int = 0
    ) -> None:
        self._arrays = arrays if arrays is not None else WorkerStatsArrays(1)
        self._index = index

    @property
    def messages_processed(self) -> int:
        return int(self._arrays.messages_processed[self._index])

    @property
    def instructions_consumed(self) -> float:
        return float(self._arrays.instructions_consumed[self._index])

    @property
    def bytes_accessed(self) -> float:
        return float(self._arrays.bytes_accessed[self._index])

    @property
    def acquisitions(self) -> int:
        return int(self._arrays.acquisitions[self._index])

    def add_quantum(
        self,
        acquisitions: int,
        messages: int,
        instructions: float,
        bytes_accessed: float,
    ) -> None:
        """Fold one processing quantum into the counters."""
        arrays = self._arrays
        index = self._index
        arrays.acquisitions[index] += acquisitions
        arrays.messages_processed[index] += messages
        arrays.instructions_consumed[index] += instructions
        arrays.bytes_accessed[index] += bytes_accessed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WorkerStats(messages_processed={self.messages_processed}, "
            f"instructions_consumed={self.instructions_consumed}, "
            f"bytes_accessed={self.bytes_accessed}, "
            f"acquisitions={self.acquisitions})"
        )


@dataclass
class Worker:
    """One worker thread pinned to a hardware thread."""

    worker_id: int
    socket_id: int
    hw_thread_id: int
    state: WorkerState = WorkerState.ACTIVE
    batch_size: int = DEFAULT_BATCH_SIZE
    stats: WorkerStats = field(default_factory=WorkerStats)

    @property
    def is_active(self) -> bool:
        """Whether the worker may process messages."""
        return self.state is WorkerState.ACTIVE

    def process_quantum(
        self,
        hub: IntraSocketHub,
        partitions: PartitionMap,
        budget_instructions: float,
    ) -> tuple[float, list]:
        """Process messages until the instruction budget is exhausted.

        Returns ``(instructions_consumed, completed)``.  Modeled messages
        are charged their pre-computed cost and only consumed if it fits
        the remaining budget; real operations execute first and may
        overdraw the budget by one message (their cost is only known
        afterwards), mirroring how a real worker cannot preempt an
        operator mid-flight.

        The semantics are those of a message-at-a-time loop, but each
        compact run is drained with one budget cut: a chained subtraction
        over the run's costs that stops at the first message that does
        not fit.  With ``d`` the running-budget chain (``d[0]`` = budget
        before the run), message ``i`` is consumed plainly iff
        ``d[i] > 0 and d[i+1] >= 0``; the first violation ``k`` lands in
        one of three cases:

        * ``d[k] == 0`` — the budget died exactly at ``k``: consume the
          ``k`` head messages, the quantum ends without a requeue;
        * overflow with prior progress — consume ``k``, round-trip the
          next message (dequeue + requeue, float folds included), flag
          ``out_of_budget``;
        * overflow on a fresh quantum (``k == 0``, nothing consumed yet)
          — overdraw: charge the head message anyway.

        ``completed`` interleaves :class:`CompletedRun` entries (compact
        runs) with plain :class:`Message` objects from the object lane,
        in exact drain order.

        Raises:
            MessagingError: if called on a parked worker.
        """
        if not self.is_active:
            raise MessagingError(f"worker {self.worker_id} is parked")
        remaining = budget_instructions
        completed: list = []
        out_of_budget = False
        # Statistics accumulate in locals and fold into the array-backed
        # counters once per quantum.
        acquisitions = 0
        instructions = 0.0
        bytes_accessed = 0.0
        count = 0  # messages consumed this quantum
        worker_id = self.worker_id

        while remaining > 0 and not out_of_budget:
            partition_id = hub.acquire_partition(worker_id)
            if partition_id is None:
                break
            acquisitions += 1
            try:
                while remaining > 0:
                    run = hub.modeled_run(partition_id)
                    if run:
                        costs, run_b = hub.run_rows(partition_id, run)
                        rem = remaining
                        k = 0
                        while k < run:
                            nxt = rem - costs[k]
                            if rem > 0.0 and nxt >= 0.0:
                                rem = nxt
                                k += 1
                                continue
                            break
                        if k == run or rem <= 0.0:
                            round_trip = False
                        elif count or k:
                            round_trip = True
                        else:
                            k = 1  # overdraw a fresh quantum
                            rem = remaining - costs[0]
                            round_trip = False
                        if k:
                            # Stats replay the per-message chained adds.
                            for i in range(k):
                                instructions += costs[i]
                                bytes_accessed += run_b[i]
                            remaining = rem
                        query_ids = hub.consume_modeled(
                            worker_id, partition_id, k, round_trip
                        )
                        if k:
                            count += k
                            completed.append(
                                CompletedRun(partition_id, query_ids)
                            )
                        if round_trip:
                            out_of_budget = True
                            break
                        continue
                    popped = hub.pop_object(worker_id, partition_id)
                    if popped is None:
                        break
                    seq, message = popped
                    if message.is_modeled:
                        cost = message.charged_cost()
                        if cost.instructions > remaining and count:
                            hub.unpop_object(
                                worker_id, partition_id, seq, message
                            )
                            out_of_budget = True
                            break
                    else:
                        cost = self._execute_real(message, partitions)
                    instructions += cost.instructions
                    bytes_accessed += cost.bytes_accessed
                    remaining -= cost.instructions
                    count += 1
                    completed.append(message)
            finally:
                hub.release_partition(worker_id, partition_id)

        if acquisitions:
            self.stats.add_quantum(
                acquisitions, count, instructions, bytes_accessed
            )
        return budget_instructions - remaining, completed

    def _execute_real(self, message: Message, partitions: PartitionMap):
        """Run a real operation against its target partition."""
        if message.kind is not MessageKind.WORK or message.operation is None:
            # RESULT messages carry a fixed handling cost.
            return message.charged_cost()
        partition = partitions.partition(message.target_partition)
        result, cost = message.operation(partition)
        message.result = result
        return cost
