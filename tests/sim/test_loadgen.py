"""Tests for the load generator."""

import numpy as np
import pytest

from repro.dbms.queries import Query
from repro.dbms.querybank import QueryBank
from repro.errors import SimulationError
from repro.loadprofiles import constant_profile
from repro.sim.loadgen import LoadGenerator
from repro.storage.partition import PartitionMap
from repro.workloads import KeyValueWorkload, TatpWorkload, WorkloadVariant


@pytest.fixture
def pmap():
    return PartitionMap(48, 2)


def make_generator(pmap, fraction=0.5, poisson=False, seed=0):
    workload = KeyValueWorkload(WorkloadVariant.NON_INDEXED)
    profile = constant_profile(fraction, duration_s=10.0)
    return LoadGenerator(workload, profile, pmap, seed=seed, poisson=poisson), workload


def arrival_count(arrivals):
    """Queries in one tick's KV arrivals: a bank, or ``[]`` when empty."""
    if isinstance(arrivals, QueryBank):
        return arrivals.count
    assert arrivals == []
    return 0


class TestDeterministicArrivals:
    def test_rate_matches_profile(self, pmap):
        gen, workload = make_generator(pmap, fraction=0.5)
        assert gen.rate_qps(1.0) == pytest.approx(workload.nominal_peak_qps / 2)

    def test_arrival_count_over_a_second(self, pmap):
        gen, workload = make_generator(pmap, fraction=0.5)
        total = 0
        for i in range(1000):
            total += arrival_count(gen.arrivals(i * 0.001, 0.001))
        expected = workload.nominal_peak_qps * 0.5
        assert total == pytest.approx(expected, rel=0.01)

    def test_zero_load_generates_nothing(self, pmap):
        gen, _ = make_generator(pmap, fraction=0.0)
        assert gen.arrivals(0.0, 0.01) == []

    def test_arrival_times_inside_tick(self, pmap):
        gen, _ = make_generator(pmap, fraction=1.0)
        bank = gen.arrivals(5.0, 0.01)
        assert isinstance(bank, QueryBank) and bank.count
        assert np.all((bank.arrivals_s >= 5.0) & (bank.arrivals_s < 5.01))

    def test_reproducible(self, pmap):
        counts = []
        for _ in range(2):
            gen, _ = make_generator(pmap, fraction=0.4, seed=3)
            counts.append(
                [arrival_count(gen.arrivals(i * 0.002, 0.002)) for i in range(500)]
            )
        assert counts[0] == counts[1]

    def test_invalid_tick(self, pmap):
        gen, _ = make_generator(pmap)
        with pytest.raises(SimulationError):
            gen.arrivals(0.0, 0.0)


class TestPoissonArrivals:
    def test_mean_rate_preserved(self, pmap):
        gen, workload = make_generator(pmap, fraction=0.5, poisson=True, seed=5)
        total = sum(
            arrival_count(gen.arrivals(i * 0.001, 0.001)) for i in range(2000)
        )
        expected = workload.nominal_peak_qps * 0.5 * 2.0
        assert total == pytest.approx(expected, rel=0.1)

    def test_has_variance(self, pmap):
        gen, _ = make_generator(pmap, fraction=1.0, poisson=True, seed=5)
        counts = [arrival_count(gen.arrivals(i * 0.01, 0.01)) for i in range(200)]
        assert np.std(counts) > 0


class TestObjectFallback:
    def test_tatp_arrivals_are_query_lists(self, pmap):
        """Multi-stage TATP queries cannot be banked: the generator falls
        back to a ``list[Query]`` with the same timing contract."""
        gen = LoadGenerator(
            TatpWorkload(WorkloadVariant.NON_INDEXED),
            constant_profile(1.0, duration_s=10.0),
            pmap,
            seed=4,
        )
        queries = gen.arrivals(5.0, 0.01)
        assert type(queries) is list and queries
        assert all(isinstance(query, Query) for query in queries)
        assert all(5.0 <= query.arrival_s < 5.01 for query in queries)
        assert gen.generated_count == len(queries)


class TestRealMode:
    def test_real_mode_produces_operation_messages(self, pmap):
        rng = np.random.default_rng(1)
        workload = TatpWorkload(WorkloadVariant.INDEXED)
        workload.setup_real(pmap, scale=50, rng=rng)
        gen = LoadGenerator(
            workload,
            constant_profile(1.0, duration_s=10.0),
            pmap,
            seed=2,
            real_mode=True,
        )
        queries = []
        t = 0.0
        while not queries:
            queries = gen.arrivals(t, 0.001)
            t += 0.001
        for query in queries:
            for message in query.stages[0].messages:
                assert not message.is_modeled
