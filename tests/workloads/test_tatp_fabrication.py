"""Pin: TATP's hoisted batch fabrication equals the per-query original.

``TatpWorkload.make_modeled_batch`` computes both stage costs once per
partition count and shares one frozen cost object per stage.  This file
keeps a copy of the per-query fabrication it replaced and checks, query
by query, that targets, hop partition, coordinator, costs (to the bit),
query ids and the ``rng`` stream are unchanged.
"""

import numpy as np
import pytest

from repro.dbms.messages import Message, WorkCost
from repro.dbms.queries import Query, QueryStage
from repro.storage.partition import PartitionMap
from repro.workloads import TatpWorkload, WorkloadVariant
from repro.workloads.mixed import MixedWorkload
from repro.workloads.tatp import TRANSACTION_MIX
from repro.workloads.toa import TransactionOrientedTatpWorkload

#: (partition count, socket count) layouts under test.
LAYOUTS = [(1, 1), (4, 2), (8, 2), (16, 2), (64, 4)]
VARIANTS = [WorkloadVariant.INDEXED, WorkloadVariant.NON_INDEXED]
ARRIVALS = [0.0, 0.0005, 0.001, 0.0015, 0.0019]


def reference_query(workload, rng, arrival_s, partitions):
    """The per-query fabrication as it was before the batch override."""
    avg = workload.average_transaction_cost()
    fan_out = min(8, len(partitions))
    per_partition = workload.transactions_per_query / fan_out
    targets = [int(p) for p in rng.choice(len(partitions), fan_out, replace=False)]
    stage0 = [
        Message(
            query_id=-1,
            target_partition=pid,
            cost=WorkCost(
                instructions=avg.instructions * per_partition,
                bytes_accessed=avg.bytes_accessed * per_partition,
            ),
        )
        for pid in targets
    ]
    cross_fraction = sum(p * x for _, p, _, _, x in TRANSACTION_MIX)
    hop_cost = workload._transaction_cost(reads=1, writes=0)
    hop_partition = int(rng.integers(0, len(partitions)))
    stage1 = [
        Message(
            query_id=-1,
            target_partition=hop_partition,
            cost=WorkCost(
                instructions=hop_cost.instructions
                * workload.transactions_per_query
                * cross_fraction,
                bytes_accessed=hop_cost.bytes_accessed
                * workload.transactions_per_query
                * cross_fraction,
            ),
        )
    ]
    coordinator = int(rng.integers(0, partitions.socket_count))
    return Query(
        arrival_s=arrival_s,
        stages=[QueryStage(stage0), QueryStage(stage1)],
        coordinator_socket=coordinator,
    )


def shape(query):
    """Everything of a query except its ids, costs as exact hex."""
    return (
        query.arrival_s,
        query.coordinator_socket,
        tuple(
            tuple(
                (
                    m.target_partition,
                    m.cost.instructions.hex(),
                    m.cost.bytes_accessed.hex(),
                    m.created_at_s,
                )
                for m in stage.messages
            )
            for stage in query.stages
        ),
    )


def assert_ids_consecutive(queries):
    ids = [q.query_id for q in queries]
    assert ids == list(range(ids[0], ids[0] + len(ids)))
    for query in queries:
        for stage in query.stages:
            assert all(m.query_id == query.query_id for m in stage.messages)


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.value)
@pytest.mark.parametrize("layout", LAYOUTS, ids=lambda lay: f"{lay[0]}p")
def test_batch_matches_per_query_reference(variant, layout):
    partitions = PartitionMap(*layout)
    workload = TatpWorkload(variant)
    reference_rng = np.random.default_rng(17)
    batch_rng = np.random.default_rng(17)

    expected = [
        reference_query(workload, reference_rng, t, partitions) for t in ARRIVALS
    ]
    got = workload.make_modeled_batch(batch_rng, ARRIVALS, partitions)

    assert [shape(q) for q in got] == [shape(q) for q in expected]
    assert_ids_consecutive(got)
    assert batch_rng.bit_generator.state == reference_rng.bit_generator.state
    # One frozen cost object per stage, shared by every message.
    assert len({id(m.cost) for q in got for m in q.stages[0].messages}) == 1
    assert len({id(q.stages[1].messages[0].cost) for q in got}) == 1


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.value)
def test_single_query_is_a_one_arrival_batch(variant):
    partitions = PartitionMap(16, 2)
    workload = TatpWorkload(variant)
    reference_rng = np.random.default_rng(3)
    rng = np.random.default_rng(3)
    for t in ARRIVALS:
        assert shape(workload.make_modeled_query(rng, t, partitions)) == shape(
            reference_query(workload, reference_rng, t, partitions)
        )
    assert rng.bit_generator.state == reference_rng.bit_generator.state


def test_transaction_oriented_variant_uses_the_batch_path():
    partitions = PartitionMap(16, 2)
    toa = TransactionOrientedTatpWorkload(transactions_per_query=5_000)
    reference = TatpWorkload(
        WorkloadVariant.INDEXED, transactions_per_query=5_000
    )
    reference_rng = np.random.default_rng(9)
    rng = np.random.default_rng(9)
    expected = [
        reference_query(reference, reference_rng, t, partitions) for t in ARRIVALS
    ]
    got = toa.make_modeled_batch(rng, ARRIVALS, partitions)
    assert [shape(q) for q in got] == [shape(q) for q in expected]
    assert rng.bit_generator.state == reference_rng.bit_generator.state


def test_mixed_workload_tags_messages_that_share_costs():
    """Components with equal stage costs share the cost objects, yet each
    message still carries its own component's characteristics."""
    partitions = PartitionMap(16, 2)
    tatp = TatpWorkload(WorkloadVariant.INDEXED)
    toa = TransactionOrientedTatpWorkload()
    mix = MixedWorkload([(tatp, 1.0), (toa, 1.0)])
    pick_rng = np.random.default_rng(21)
    rng = np.random.default_rng(21)
    arrivals = [0.001 * i for i in range(40)]

    queries = mix.make_modeled_batch(rng, arrivals, partitions)

    components = []
    for t, query in zip(arrivals, queries):
        component = mix._pick(pick_rng)
        components.append(component)
        expected = reference_query(tatp, pick_rng, t, partitions)
        assert shape(query) == shape(expected)
        for stage in query.stages:
            for message in stage.messages:
                assert message.characteristics is component.characteristics
    assert rng.bit_generator.state == pick_rng.bit_generator.state
    assert {type(c) for c in components} == {
        TatpWorkload,
        TransactionOrientedTatpWorkload,
    }
    # Both components draw the very same stage-0 cost object.
    assert len({id(q.stages[0].messages[0].cost) for q in queries}) == 1
