"""Tests for the intra-socket hub: queues + ownership protocol."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MessagingError, OwnershipError
from repro.dbms.intra_socket import IntraSocketHub
from repro.dbms.messages import Message, WorkCost


def msg(partition: int, instructions: float = 100.0) -> Message:
    return Message(
        query_id=0, target_partition=partition, cost=WorkCost(instructions)
    )


@pytest.fixture
def hub():
    return IntraSocketHub(0, [0, 1, 2, 3])


class TestQueues:
    def test_enqueue_dequeue(self, hub):
        hub.enqueue(msg(1))
        assert hub.pending_messages == 1
        assert hub.queue_depth(1) == 1
        pid = hub.acquire_partition(worker_id=9)
        assert pid == 1
        batch = hub.dequeue_batch(9, 1)
        assert len(batch) == 1
        assert hub.pending_messages == 0

    def test_foreign_partition_rejected(self, hub):
        with pytest.raises(MessagingError):
            hub.enqueue(msg(99))

    def test_empty_hub_rejected(self):
        with pytest.raises(MessagingError):
            IntraSocketHub(0, [])

    def test_pending_cost_incremental(self, hub):
        hub.enqueue(msg(0, 100))
        hub.enqueue(msg(1, 250))
        assert hub.pending_cost_instructions() == pytest.approx(350)
        pid = hub.acquire_partition(1)
        hub.dequeue_batch(1, pid)
        assert hub.pending_cost_instructions() < 350

    def test_batch_size_respected(self, hub):
        for _ in range(10):
            hub.enqueue(msg(2))
        hub.acquire_specific(1, 2)
        batch = hub.dequeue_batch(1, 2, batch_size=4)
        assert len(batch) == 4
        assert hub.queue_depth(2) == 6

    def test_invalid_batch_size(self, hub):
        hub.acquire_specific(1, 2)
        with pytest.raises(MessagingError):
            hub.dequeue_batch(1, 2, batch_size=0)

    def test_unpop_object_preserves_order(self, hub):
        first, second = msg(0, 1), msg(0, 2)
        hub.enqueue(first)
        hub.enqueue(second)
        hub.enqueue(msg(1, 4))
        hub.acquire_specific(1, 0)
        popped = [hub.pop_object(1, 0), hub.pop_object(1, 0)]
        assert hub.pop_object(1, 0) is None
        for seq, message in reversed(popped):
            hub.unpop_object(1, 0, seq, message)
        assert hub.pending_messages == 3
        assert hub.pending_cost_instructions() == 7.0
        redrawn = hub.dequeue_batch(1, 0)
        assert [m.message_id for m in redrawn] == [
            first.message_id,
            second.message_id,
        ]


class TestOwnership:
    def test_exclusive_ownership(self, hub):
        hub.enqueue(msg(0))
        assert hub.acquire_specific(1, 0)
        assert not hub.acquire_specific(2, 0)
        assert hub.owner_of(0) == 1

    def test_acquire_skips_owned(self, hub):
        hub.enqueue(msg(0))
        hub.enqueue(msg(1))
        hub.acquire_specific(1, 0)
        pid = hub.acquire_partition(2)
        assert pid == 1

    def test_acquire_prefers_deepest_queue(self, hub):
        hub.enqueue(msg(0))
        for _ in range(3):
            hub.enqueue(msg(2))
        assert hub.acquire_partition(1) == 2

    def test_acquire_returns_none_without_work(self, hub):
        assert hub.acquire_partition(1) is None

    def test_release_requires_ownership(self, hub):
        hub.acquire_specific(1, 0)
        with pytest.raises(OwnershipError):
            hub.release_partition(2, 0)
        hub.release_partition(1, 0)
        assert hub.owner_of(0) is None

    def test_dequeue_requires_ownership(self, hub):
        hub.enqueue(msg(0))
        with pytest.raises(OwnershipError):
            hub.dequeue_batch(5, 0)

    def test_release_all(self, hub):
        hub.acquire_specific(1, 0)
        hub.acquire_specific(1, 2)
        hub.acquire_specific(2, 3)
        hub.release_all(1)
        assert hub.owner_of(0) is None
        assert hub.owner_of(2) is None
        assert hub.owner_of(3) == 2


@settings(max_examples=50, deadline=None)
@given(
    actions=st.lists(
        st.tuples(
            st.sampled_from(["enqueue", "acquire", "drain", "release"]),
            st.integers(min_value=0, max_value=3),  # partition / worker
        ),
        max_size=120,
    )
)
def test_property_ownership_invariants(actions):
    """No partition ever has two owners; no message is lost or duplicated."""
    hub = IntraSocketHub(0, [0, 1, 2, 3])
    owners: dict[int, int] = {}
    enqueued = 0
    drained = 0
    for action, value in actions:
        if action == "enqueue":
            hub.enqueue(msg(value))
            enqueued += 1
        elif action == "acquire":
            worker = value + 10
            pid = hub.acquire_partition(worker)
            if pid is not None:
                assert pid not in owners
                owners[pid] = worker
        elif action == "drain":
            for pid, worker in list(owners.items()):
                drained += len(hub.dequeue_batch(worker, pid, batch_size=1))
        else:  # release
            for pid, worker in list(owners.items()):
                hub.release_partition(worker, pid)
                del owners[pid]
    assert hub.pending_messages == enqueued - drained
    assert hub.pending_messages >= 0
    for pid, worker in owners.items():
        assert hub.owner_of(pid) == worker


@settings(max_examples=60, deadline=None)
@given(
    actions=st.lists(
        st.tuples(
            st.sampled_from(
                ["enqueue", "acquire_cycle", "acquire_hold", "release_held"]
            ),
            st.integers(min_value=0, max_value=5),  # partition / batch / worker
        ),
        max_size=150,
    )
)
def test_property_acquire_matches_linear_scan(actions):
    """Heap-based acquisition picks exactly what the original scan picked.

    The reference is the pre-heap implementation: first partition in
    declaration order with the strictly deepest non-empty unowned queue.
    """
    hub = IntraSocketHub(0, [0, 1, 2, 3, 4, 5])
    held: dict[int, int] = {}

    def reference_best():
        best, best_depth = None, 0
        for pid in hub.partition_ids:
            if hub.owner_of(pid) is not None:
                continue
            depth = hub.queue_depth(pid)
            if depth > best_depth:
                best, best_depth = pid, depth
        return best

    for action, value in actions:
        if action == "enqueue":
            hub.enqueue(msg(value))
        elif action == "acquire_hold":
            worker = 200 + value
            expected = reference_best()
            pid = hub.acquire_partition(worker)
            assert pid == expected
            if pid is not None:
                held[pid] = worker
        elif action == "release_held":
            for pid, worker in list(held.items()):
                hub.release_partition(worker, pid)
                del held[pid]
        else:  # acquire, drain a batch, release
            expected = reference_best()
            pid = hub.acquire_partition(99)
            assert pid == expected
            if pid is not None:
                hub.dequeue_batch(99, pid, batch_size=value + 1)
                hub.release_partition(99, pid)

    # Drain to empty: every remaining acquisition must match the scan.
    for pid, worker in list(held.items()):
        hub.release_partition(worker, pid)
    while True:
        expected = reference_best()
        pid = hub.acquire_partition(99)
        assert pid == expected
        if pid is None:
            break
        hub.dequeue_batch(99, pid, batch_size=64)
        hub.release_partition(99, pid)
    assert hub.pending_messages == 0


class TestMigrationSupport:
    def test_frozen_partition_not_acquirable(self, hub):
        hub.enqueue(msg(0))
        hub.freeze_partition(0)
        assert 0 in hub.frozen_partitions()
        assert not hub.acquire_specific(1, 0)
        assert hub.acquire_partition(1) is None

    def test_frozen_partition_still_enqueues(self, hub):
        hub.freeze_partition(0)
        hub.enqueue(msg(0))
        assert hub.queue_depth(0) == 1

    def test_unfreeze_restores_acquisition(self, hub):
        hub.enqueue(msg(0))
        hub.freeze_partition(0)
        hub.unfreeze_partition(0)
        assert hub.acquire_partition(1) == 0

    def test_evict_returns_queue_and_removes_partition(self, hub):
        hub.enqueue(msg(0, 10))
        hub.enqueue(msg(0, 20))
        hub.enqueue(msg(1, 30))
        hub.freeze_partition(0)
        evicted = hub.evict_partition(0)
        assert [m.cost.instructions for m in evicted] == [10, 20]
        assert 0 not in hub.partition_ids
        assert hub.pending_messages == 1
        assert hub.pending_cost_instructions() == pytest.approx(30)
        with pytest.raises(MessagingError):
            hub.enqueue(msg(0))

    def test_evict_owned_partition_rejected(self, hub):
        hub.acquire_specific(1, 0)
        with pytest.raises(OwnershipError):
            hub.evict_partition(0)

    def test_adopt_makes_partition_homed(self, hub):
        foreign = IntraSocketHub(1, [9])
        foreign.adopt_partition(10)
        foreign.enqueue(msg(10))
        assert foreign.acquire_partition(1) == 10

    def test_adopt_homed_partition_rejected(self, hub):
        with pytest.raises(MessagingError):
            hub.adopt_partition(0)

    def test_evict_then_adopt_round_trip(self, hub):
        """A -> away -> back: the heap/generation machinery stays sound."""
        for _ in range(3):
            hub.enqueue(msg(0))
        hub.freeze_partition(0)
        queue = hub.evict_partition(0)
        hub.adopt_partition(0)
        for message in queue:
            hub.enqueue(message)
        assert hub.acquire_partition(1) == 0
        assert len(hub.dequeue_batch(1, 0, batch_size=8)) == 3
        hub.release_partition(1, 0)
        assert hub.pending_messages == 0
