"""Step-cache correctness across placement and migration state changes.

The memoized step resolution keys on content fingerprints of the
socket's clock and C-state state (``frequency.state_fingerprint``,
``cstates.state_fingerprint``), the turbo dwell signature and the
throttle flag, plus the declared workload and demand.  Everything the
consolidation/migration path mutates — thread parking, socket offline,
memory vacate/restore, uncore halt — changes the socket's C-state
fingerprint, so a cached entry can never be served for a socket whose
placement state changed.  These tests pin that invariant:
a machine with the cache enabled must stay bit-identical to one with
the cache disabled through a full offline → online cycle, both at the
machine level and end-to-end through ``ecl-consolidate`` with
migrations in flight.
"""

from repro.hardware.machine import IDLE_CHARACTERISTICS, Machine
from repro.hardware.perfmodel import SocketLoad, WorkloadCharacteristics
from repro.loadprofiles import constant_profile
from repro.placement import MigrationRequest, round_robin_assignment
from repro.sim import RunConfiguration, SimulationRunner
from repro.workloads import KeyValueWorkload, WorkloadVariant

BUSY = WorkloadCharacteristics(
    name="busy", base_cpi=1.2, bytes_per_instr=0.5, miss_rate=0.002
)


def _socket_signature(step, sid):
    sres = step.sockets[sid]
    return (
        sres.performance,
        sres.power,
        sres.executed_instructions,
        sres.uncore_ghz,
        sres.uncore_halted,
        step.psu_power_w,
    )


class TestMachineOfflineOnline:
    """Cached and uncached machines agree through park/vacate cycles."""

    def _drive(self, machine: Machine):
        """One offline → online sequence; returns every step signature."""
        signatures = []
        sockets = [s.socket_id for s in machine.topology.sockets]
        threads_of = {
            sid: machine.topology.socket(sid).thread_ids() for sid in sockets
        }

        def step_both(dt=0.002, n=3):
            for _ in range(n):
                step = machine.step(dt)
                signatures.append(
                    tuple(_socket_signature(step, sid) for sid in sockets)
                )

        machine.set_socket_load(
            0, SocketLoad(characteristics=BUSY, demand_instructions_per_s=2e9)
        )
        machine.set_socket_load(
            1, SocketLoad(characteristics=BUSY, demand_instructions_per_s=1e9)
        )
        step_both()

        # Take socket 1 fully offline, as the consolidation drain does:
        # park its threads and vacate its memory.
        machine.cstates.set_active_threads(threads_of[0])
        machine.cstates.set_memory_vacated(1, True)
        machine.set_socket_load(
            1,
            SocketLoad(
                characteristics=IDLE_CHARACTERISTICS,
                demand_instructions_per_s=0.0,
            ),
        )
        step_both()

        # Bring it back online with the same loads as before the drain.
        # A stale cache entry keyed only on the load would resurface the
        # pre-drain resolution here.
        machine.cstates.set_memory_vacated(1, False)
        machine.cstates.set_active_threads(
            tuple(threads_of[0]) + tuple(threads_of[1])
        )
        machine.set_socket_load(
            1, SocketLoad(characteristics=BUSY, demand_instructions_per_s=1e9)
        )
        step_both()
        return signatures

    def test_cache_is_bit_identical_through_offline_online(self):
        cached = Machine(seed=3, step_cache_size=1024)
        uncached = Machine(seed=3, step_cache_size=0)
        assert self._drive(cached) == self._drive(uncached)
        # The cached run must actually have exercised the memoization,
        # otherwise this test proves nothing.
        assert cached.step_cache_stats["full_hits"] > 0

    def test_repeated_cycles_reuse_nothing_stale(self):
        """Several offline/online cycles with identical loads: the cache
        sees the same (load, socket) pairs under different placement
        states and must resolve each under its own version key."""
        cached = Machine(seed=7, step_cache_size=1024)
        uncached = Machine(seed=7, step_cache_size=0)
        for _ in range(3):
            assert self._drive(cached) == self._drive(uncached)


class _MoveBackPlanner:
    """First pack everything onto socket 0, then demand socket 1 back."""

    name = "move-back"

    def __init__(self):
        self.phase = 0

    def initial_assignment(self, partition_count, socket_ids):
        return round_robin_assignment(partition_count, socket_ids)

    def plan(self, view):
        self.phase += 1
        if self.phase == 1:
            return [
                MigrationRequest(pid, 0, reason="pack")
                for pid in view.socket(1).partition_ids
            ]
        return [MigrationRequest(0, 1, reason="spread")]


class TestConsolidateEndToEnd:
    """Cache on/off bit-identity through drain, sleep, and wake."""

    def _run(self, cache_size: int):
        config = RunConfiguration(
            workload=KeyValueWorkload(WorkloadVariant.NON_INDEXED),
            profile=constant_profile(duration_s=4.0, fraction=0.18),
            policy="ecl-consolidate",
            seed=0,
            step_cache_size=cache_size,
        )
        runner = SimulationRunner(config)
        runner.policy.planner = _MoveBackPlanner()
        runner.policy.cooldown_intervals = 0
        result = runner.run()
        return result, runner

    def test_migration_wave_cache_identity(self):
        cached, cached_runner = self._run(1024)
        uncached, _ = self._run(0)
        assert cached.total_energy_j == uncached.total_energy_j
        assert cached.queries_submitted == uncached.queries_submitted
        assert cached.queries_completed == uncached.queries_completed
        assert cached.latencies_s == uncached.latencies_s
        assert len(cached.samples) == len(uncached.samples)
        for a, b in zip(cached.samples, uncached.samples):
            assert a.time_s == b.time_s
            assert a.rapl_power_w == b.rapl_power_w
            assert a.psu_power_w == b.psu_power_w
        # The scenario really went offline and came back.
        assert cached_runner.policy.drained_sockets == frozenset()
        assert cached_runner.engine.migration_log
        assert cached_runner.machine.step_cache_stats["full_hits"] > 0
