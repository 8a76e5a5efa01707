"""Tests for benchmark workloads: characteristics, queries, real mode."""

import pytest

from repro.storage.partition import PartitionMap
from repro.workloads import (
    KeyValueWorkload,
    SsbWorkload,
    TatpWorkload,
    WorkloadVariant,
)
from repro.workloads.micro import MICRO_WORKLOADS
from repro.workloads.toa import TransactionOrientedTatpWorkload
from repro.workloads.base import pick_partitions
from repro.errors import WorkloadError


NON_FINITE = [float("nan"), float("inf"), float("-inf")]

ALL_WORKLOADS = [
    KeyValueWorkload(WorkloadVariant.INDEXED),
    KeyValueWorkload(WorkloadVariant.NON_INDEXED),
    TatpWorkload(WorkloadVariant.INDEXED),
    TatpWorkload(WorkloadVariant.NON_INDEXED),
    SsbWorkload(WorkloadVariant.INDEXED),
    SsbWorkload(WorkloadVariant.NON_INDEXED),
]


@pytest.fixture
def pmap():
    return PartitionMap(48, 2)


class TestCommonContract:
    @pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=lambda w: w.full_name)
    def test_characteristics_and_peak(self, workload):
        chars = workload.characteristics
        assert chars.base_cpi > 0
        assert workload.nominal_peak_qps > 0
        assert workload.queries_per_second(0.5) == pytest.approx(
            workload.nominal_peak_qps / 2
        )

    @pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=lambda w: w.full_name)
    def test_modeled_query_structure(self, workload, pmap, rng):
        query = workload.make_modeled_query(rng, 1.5, pmap)
        assert query.arrival_s == 1.5
        assert query.stages
        for stage in query.stages:
            for message in stage.messages:
                assert message.is_modeled
                assert message.cost.instructions > 0
                assert 0 <= message.target_partition < 48

    @pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=lambda w: w.full_name)
    def test_negative_load_rejected(self, workload):
        with pytest.raises(WorkloadError):
            workload.queries_per_second(-0.1)

    def test_variant_names(self):
        assert "indexed" in KeyValueWorkload(WorkloadVariant.INDEXED).full_name
        assert KeyValueWorkload(WorkloadVariant.INDEXED).is_indexed


class TestMicroWorkloads:
    def test_registry_complete(self):
        assert set(MICRO_WORKLOADS) == {
            "compute-bound",
            "memory-bound",
            "atomic-contention",
            "hashtable-insert",
        }

    def test_compute_bound_has_no_memory_traffic(self):
        assert MICRO_WORKLOADS["compute-bound"].bytes_per_instr == 0.0

    def test_memory_bound_is_bandwidth_heavy(self):
        assert MICRO_WORKLOADS["memory-bound"].bytes_per_instr >= 4.0

    def test_contended_workloads_have_atomics(self):
        assert MICRO_WORKLOADS["atomic-contention"].atomic_ops_per_instr > 0
        assert MICRO_WORKLOADS["hashtable-insert"].atomic_ops_per_instr > 0


class TestKeyValue:
    def test_indexed_is_latency_bound(self):
        chars = KeyValueWorkload(WorkloadVariant.INDEXED).characteristics
        assert chars.miss_rate > 0
        assert chars.bytes_per_instr < 1.0

    def test_non_indexed_is_bandwidth_bound(self):
        chars = KeyValueWorkload(WorkloadVariant.NON_INDEXED).characteristics
        assert chars.bytes_per_instr >= 1.0

    def test_real_mode_roundtrip(self, pmap, rng):
        workload = KeyValueWorkload(WorkloadVariant.INDEXED, ops_per_query=4)
        workload.setup_real(pmap, scale=500, rng=rng)
        total_rows = sum(p.table("kv").row_count for p in pmap)
        assert total_rows == 500
        query = workload.make_real_query(rng, 0.0, pmap)
        for message in query.stages[0].messages:
            assert not message.is_modeled

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            KeyValueWorkload(ops_per_query=0)

    @pytest.mark.parametrize("size", NON_FINITE, ids=repr)
    def test_non_finite_batch_size_rejected(self, size):
        # A NaN/inf size used to pass the >= 1 check and run a whole
        # simulated day with zero queries submitted.
        with pytest.raises(ValueError, match="ops_per_query"):
            KeyValueWorkload(ops_per_query=size)

    @pytest.mark.parametrize("skew", NON_FINITE[:2], ids=repr)
    def test_non_finite_skew_rejected(self, skew):
        with pytest.raises(ValueError, match="skew"):
            KeyValueWorkload(skew=skew)


class TestTatp:
    def test_mix_probabilities_sum_to_one(self):
        from repro.workloads.tatp import TRANSACTION_MIX

        assert sum(p for _, p, _, _, _ in TRANSACTION_MIX) == pytest.approx(1.0)

    def test_average_cost_positive(self):
        workload = TatpWorkload(WorkloadVariant.INDEXED)
        cost = workload.average_transaction_cost()
        assert cost.instructions > 100

    def test_non_indexed_cost_much_higher(self):
        indexed = TatpWorkload(WorkloadVariant.INDEXED).average_transaction_cost()
        scans = TatpWorkload(WorkloadVariant.NON_INDEXED).average_transaction_cost()
        assert scans.instructions > 10 * indexed.instructions

    @pytest.mark.parametrize("size", NON_FINITE, ids=repr)
    def test_non_finite_batch_size_rejected(self, size):
        with pytest.raises(ValueError, match="transactions_per_query"):
            TatpWorkload(
                WorkloadVariant.NON_INDEXED, transactions_per_query=size
            )
        with pytest.raises(ValueError, match="transactions_per_query"):
            TransactionOrientedTatpWorkload(transactions_per_query=size)

    def test_modeled_query_has_secondary_hop(self, pmap, rng):
        query = TatpWorkload(WorkloadVariant.INDEXED).make_modeled_query(
            rng, 0.0, pmap
        )
        assert len(query.stages) == 2

    def test_real_mode_loads_all_tables(self, pmap, rng):
        workload = TatpWorkload(WorkloadVariant.INDEXED)
        workload.setup_real(pmap, scale=60, rng=rng)
        subscribers = sum(p.table("subscriber").row_count for p in pmap)
        assert subscribers == 60
        access = sum(p.table("access_info").row_count for p in pmap)
        assert access >= 0  # 0..3 rows per subscriber
        for p in pmap:
            assert "s_id" in p.table("subscriber").indexed_columns

    def test_real_transactions_execute(self, pmap, rng):
        workload = TatpWorkload(WorkloadVariant.INDEXED)
        workload.setup_real(pmap, scale=60, rng=rng)
        for _ in range(30):
            query = workload.make_real_query(rng, 0.0, pmap)
            for message in query.stages[0].messages:
                partition = pmap.partition(message.target_partition)
                result, cost = message.operation(partition)
                assert cost.instructions > 0


class TestSsb:
    def test_thirteen_query_classes(self):
        from repro.workloads.ssb import SSB_QUERY_CLASSES

        assert len(SSB_QUERY_CLASSES) == 13
        assert {q.flight for q in SSB_QUERY_CLASSES} == {1, 2, 3, 4}

    def test_modeled_query_fans_to_all_partitions(self, pmap, rng):
        query = SsbWorkload(WorkloadVariant.NON_INDEXED).make_modeled_query(
            rng, 0.0, pmap
        )
        assert len(query.stages[0].messages) == 48
        assert len(query.stages) == 2

    def test_flight_cost_ordering(self):
        """More dimension joins = more work per partition task."""
        from repro.workloads.ssb import SSB_QUERY_CLASSES

        workload = SsbWorkload(WorkloadVariant.NON_INDEXED)
        q11 = next(q for q in SSB_QUERY_CLASSES if q.name == "Q1.1")
        q41 = next(q for q in SSB_QUERY_CLASSES if q.name == "Q4.1")
        assert (
            workload.partition_task_cost(q41).instructions
            > workload.partition_task_cost(q11).instructions
        )

    def test_real_query_aggregates_revenue(self, rng):
        pmap = PartitionMap(4, 2)
        workload = SsbWorkload(WorkloadVariant.NON_INDEXED)
        workload.setup_real(pmap, scale=400, rng=rng)
        query = workload.make_real_query(rng, 0.0, pmap)
        totals = []
        for message in query.stages[0].messages:
            partition = pmap.partition(message.target_partition)
            result, cost = message.operation(partition)
            totals.append(result)
            assert cost.instructions > 0
        assert sum(totals) > 0  # some revenue matched the date filter


class TestPickPartitions:
    def test_distinct(self, pmap, rng):
        picks = pick_partitions(rng, pmap, 10)
        assert len(set(picks)) == 10

    def test_all(self, pmap, rng):
        assert pick_partitions(rng, pmap, 48) == list(range(48))

    def test_too_many_rejected(self, pmap, rng):
        with pytest.raises(WorkloadError):
            pick_partitions(rng, pmap, 49)


class TestTransactionOriented:
    """The §5.3 extension: latched execution with spin-polluted counters."""

    def test_characteristics_carry_the_caveats(self):
        from repro.workloads import TransactionOrientedTatpWorkload

        workload = TransactionOrientedTatpWorkload()
        chars = workload.characteristics
        assert chars.spinlock_retirement
        assert chars.atomic_ops_per_instr > 0

    def test_counters_inflate_under_contention(self):
        from repro.hardware.machine import Machine
        from repro.hardware.perfmodel import ActiveCore, SocketLoad
        from repro.workloads.toa import TRANSACTION_ORIENTED_CHARACTERISTICS

        machine = Machine()
        cores = [ActiveCore(0, i, 2.6, 2) for i in range(12)]
        perf = machine.perf_model.resolve(
            cores, 3.0, SocketLoad(TRANSACTION_ORIENTED_CHARACTERISTICS, None)
        )
        assert perf.contention_limited
        assert perf.retired_ips > 3.0 * perf.executed_ips

    def test_data_oriented_counters_stay_honest(self):
        from repro.hardware.machine import Machine
        from repro.hardware.perfmodel import ActiveCore, SocketLoad
        from repro.workloads.micro import ATOMIC_CONTENTION

        machine = Machine()
        cores = [ActiveCore(0, i, 2.6, 2) for i in range(12)]
        perf = machine.perf_model.resolve(
            cores, 3.0, SocketLoad(ATOMIC_CONTENTION, None)
        )
        # Contended too — but workers park instead of spinning, so the
        # counters match useful work.
        assert perf.retired_ips == perf.executed_ips

    def test_modeled_queries_reuse_tatp_shape(self, pmap, rng):
        from repro.workloads import TransactionOrientedTatpWorkload

        workload = TransactionOrientedTatpWorkload()
        query = workload.make_modeled_query(rng, 0.0, pmap)
        assert len(query.stages) == 2
        assert workload.nominal_peak_qps > 0


class TestRealJoin:
    """The real hash-join pipeline behind SSB Q2.x."""

    def test_join_aggregate_matches_reference(self, rng):
        pmap = PartitionMap(4, 2)
        workload = SsbWorkload(WorkloadVariant.NON_INDEXED)
        workload.setup_real(pmap, scale=600, rng=rng)
        query = workload.make_real_join_query(rng, 0.0, pmap)
        total = 0.0
        matched = 0
        for message in query.stages[0].messages:
            partition = pmap.partition(message.target_partition)
            (subtotal, matches), cost = message.operation(partition)
            total += subtotal
            matched += matches
            assert cost.instructions > 0
            assert cost.bytes_accessed > 0
        # The join is deterministic: rerunning the same operations yields
        # identical results (hash-build order does not affect the sum).
        repeat = 0.0
        for message in query.stages[0].messages:
            partition = pmap.partition(message.target_partition)
            (subtotal, _), _ = message.operation(partition)
            repeat += subtotal
        assert repeat == pytest.approx(total)
        assert matched > 0
        assert total > 0


class TestMixedWorkload:
    """HTAP-style mixes with per-message characteristics tags."""

    def _mix(self):
        from repro.workloads import MixedWorkload

        return MixedWorkload(
            [
                (TatpWorkload(WorkloadVariant.INDEXED), 1.0),
                (SsbWorkload(WorkloadVariant.NON_INDEXED), 0.5),
            ]
        )

    def test_peak_is_weighted_sum(self):
        mix = self._mix()
        tatp = TatpWorkload(WorkloadVariant.INDEXED).nominal_peak_qps
        ssb = SsbWorkload(WorkloadVariant.NON_INDEXED).nominal_peak_qps
        assert mix.nominal_peak_qps == pytest.approx(tatp + 0.5 * ssb)

    def test_messages_are_tagged(self, pmap, rng):
        mix = self._mix()
        seen = set()
        for _ in range(30):
            query = mix.make_modeled_query(rng, 0.0, pmap)
            for stage in query.stages:
                for message in stage.messages:
                    assert message.characteristics is not None
                    seen.add(message.characteristics.name)
        assert seen == {"tatp-indexed", "ssb-non-indexed"}

    def test_blended_characteristics_between_components(self):
        mix = self._mix()
        chars = mix.characteristics
        tatp = TatpWorkload(WorkloadVariant.INDEXED).characteristics
        ssb = SsbWorkload(WorkloadVariant.NON_INDEXED).characteristics
        low = min(tatp.bytes_per_instr, ssb.bytes_per_instr)
        high = max(tatp.bytes_per_instr, ssb.bytes_per_instr)
        assert low < chars.bytes_per_instr < high

    def test_empty_mix_rejected(self):
        from repro.workloads import MixedWorkload

        with pytest.raises(WorkloadError):
            MixedWorkload([])
        with pytest.raises(WorkloadError):
            MixedWorkload([(TatpWorkload(WorkloadVariant.INDEXED), 0.0)])

    def test_engine_blends_pending_tags(self, rng):
        """The hub's tag tally reaches the machine's socket load."""
        from repro.dbms.engine import DatabaseEngine
        from repro.hardware.machine import Machine

        machine = Machine(seed=2)
        engine = DatabaseEngine(machine)
        mix = self._mix()
        engine.set_workload_characteristics(mix.characteristics)
        # Stuff enough work in that both tags are pending simultaneously.
        for _ in range(20):
            engine.submit(mix.make_modeled_query(rng, 0.0, engine.partitions))
        # Park the workers so nothing drains before we inspect the load.
        machine.cstates.set_active_threads(set())
        engine.tick(0.001)
        blended = machine.socket_load(0).characteristics
        assert "+" in blended.name  # a genuine blend of two tags


class TestSkewedKeyValue:
    """Zipf partition skew: the hub's deepest-queue pick balances it."""

    def test_skew_concentrates_targets(self, pmap, rng):
        skewed = KeyValueWorkload(WorkloadVariant.NON_INDEXED, skew=1.5)
        counts = {}
        for _ in range(300):
            query = skewed.make_modeled_query(rng, 0.0, pmap)
            for message in query.stages[0].messages:
                counts[message.target_partition] = (
                    counts.get(message.target_partition, 0) + 1
                )
        ranked = sorted(counts.values(), reverse=True)
        # The hottest partition sees far more traffic than the median.
        assert ranked[0] > 5 * ranked[len(ranked) // 2]

    def test_zero_skew_roughly_uniform(self, pmap, rng):
        uniform = KeyValueWorkload(WorkloadVariant.NON_INDEXED, skew=0.0)
        counts = {}
        for _ in range(300):
            query = uniform.make_modeled_query(rng, 0.0, pmap)
            for message in query.stages[0].messages:
                counts[message.target_partition] = (
                    counts.get(message.target_partition, 0) + 1
                )
        ranked = sorted(counts.values(), reverse=True)
        assert ranked[0] < 3 * ranked[-1]

    def test_negative_skew_rejected(self):
        with pytest.raises(ValueError):
            KeyValueWorkload(skew=-0.5)

    def test_skewed_load_still_served(self):
        """End-to-end: elasticity absorbs the hot-partition pressure."""
        from repro.loadprofiles import constant_profile
        from repro.sim import RunConfiguration, run_experiment

        workload = KeyValueWorkload(WorkloadVariant.NON_INDEXED, skew=1.2)
        result = run_experiment(
            RunConfiguration(
                workload=workload,
                profile=constant_profile(0.3, duration_s=8.0),
            )
        )
        assert result.queries_completed >= 0.95 * result.queries_submitted
        assert result.violation_fraction() < 0.10
