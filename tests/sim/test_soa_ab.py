"""Message-plane goldens: the retired vector/scalar A/B matrix, pinned.

The struct-of-arrays message plane once had a scalar twin (per-message
object queues), kept only as an A/B oracle.  Before the twin was
deleted, every cell of its A/B matrix was run on both planes, checked
bit-identical, and recorded in ``tests/sim/goldens/run_digests.json``
(the ``ab/...`` cells; see ``golden_config.py``).  Matching a digest
therefore keeps the one remaining plane identical to the result surface
both planes agreed on: energy, query counts, latencies, samples,
machine clock and worker-pool counters, compared exactly.

The matrix: every registered control policy under both arrival modes,
per-tick stepping, the cluster presets, a consolidation wave, and ECL
on TATP — whose multi-stage queries run on the object lane.  The
``overload/...`` cells add the long-run regime: routed blocks, hub
banks and queued runs of more than 32 messages.
"""

import pytest

from repro.dbms.inter_socket import InterSocketRouter
from repro.dbms.intra_socket import IntraSocketHub
from repro.sim import registered_policies

from .golden_config import (
    GOLDEN_CELLS,
    MATRIX_POLICIES,
    OVERLOAD_POLICIES,
    assert_matches_golden,
    matrix_cell_name,
)


class TestEveryPolicyBothArrivalModes:
    @pytest.mark.parametrize("policy", MATRIX_POLICIES)
    @pytest.mark.parametrize("poisson", [False, True])
    def test_vector_scalar_identity(self, policy, poisson):
        assert_matches_golden(matrix_cell_name(policy, poisson))

    def test_matrix_covers_every_registered_policy(self):
        assert set(MATRIX_POLICIES) == set(registered_policies())

    def test_vector_run_actually_uses_banks(self):
        """The KV cells pin the compact lane only if arrivals fabricated
        banks: pin that they took the bank path."""
        _, runner = GOLDEN_CELLS[matrix_cell_name("baseline", False)].run()
        assert runner.engine.tracker.dispatched_count > 0
        assert runner.engine.tracker.completed_count > 0
        # The object-lane dict of per-query state stays empty: every
        # query of this single-stage workload lived in the dense store.
        assert runner.engine.tracker._queries == {}


class TestPerTickModeAndClusters:
    @pytest.mark.parametrize("policy", ["baseline", "ecl"])
    def test_identity_without_macro_stepping(self, policy):
        assert_matches_golden(f"ab/{policy}/per-tick")

    @pytest.mark.parametrize(
        "preset", ["homogeneous", "mixed"], ids=["homogeneous_cluster", "mixed_cluster"]
    )
    def test_identity_on_cluster_presets(self, preset):
        assert_matches_golden(f"ab/ecl-cluster/{preset}3")


class TestMigrationInteraction:
    def test_identity_through_consolidation_waves(self):
        """Freeze/evict/adopt during migrations must preserve the SoA
        invariants: the consolidation policy drains sockets (evicting
        compact columns into the object transfer path) and wakes them
        again, and the result surface must not move a bit."""
        _, runner = assert_matches_golden("ab/ecl-consolidate/wave")
        assert runner.engine.migration_log


class TestObjectLane:
    @pytest.mark.parametrize("stepping", ["tatp", "tatp-per-tick"])
    def test_tatp_matches_golden(self, stepping):
        """TATP's multi-stage queries never fabricate banks: the whole
        run rides the object lane, per-query tracker state included."""
        _, runner = assert_matches_golden(f"ab/ecl/{stepping}")
        assert runner.engine.tracker.completed_count > 0


class TestLongRuns:
    @pytest.mark.parametrize("policy", OVERLOAD_POLICIES)
    def test_overload_matches_golden(self, policy):
        assert_matches_golden(f"overload/{policy}")

    def test_overload_cell_drives_long_runs(self, monkeypatch):
        """The overload pin covers long runs only while the cell still
        produces them: count the routed blocks, hub banks and queued
        head runs longer than 32 messages."""
        long = {"route_bank": 0, "enqueue_bank": 0, "modeled_run": 0}

        def counting(cls, name, size_of):
            original = getattr(cls, name)

            def wrapper(self, *args):
                value = original(self, *args)
                if size_of(args, value) > 32:
                    long[name] += 1
                return value

            monkeypatch.setattr(cls, name, wrapper)

        counting(InterSocketRouter, "route_bank", lambda args, _: len(args[1]))
        counting(IntraSocketHub, "enqueue_bank", lambda args, _: len(args[0]))
        counting(IntraSocketHub, "modeled_run", lambda _, run: run)
        GOLDEN_CELLS["overload/ecl"].run()
        assert long["route_bank"] > 100, long
        assert long["enqueue_bank"] > 20, long
        assert long["modeled_run"] > 10_000, long
