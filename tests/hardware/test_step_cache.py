"""Memoized hardware step resolution must be invisible in results.

The machine caches per-socket (configuration, performance, power)
resolutions keyed on control state and demand.  These tests pin the
contract: with the cache on (default) every simulation output is
bit-identical to the exact, uncached path (``step_cache_size=0``).
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware.cluster import NodePowerState, build_cluster
from repro.hardware.frequency import EnergyPerformanceBias
from repro.hardware.machine import Machine, SocketStepResult
from repro.hardware.perfmodel import SocketLoad
from repro.loadprofiles import sine_profile
from repro.sim import RunConfiguration, run_experiment
from repro.workloads import KeyValueWorkload, TatpWorkload, WorkloadVariant
from repro.workloads.toa import TRANSACTION_ORIENTED_CHARACTERISTICS


def config(policy, step_cache_size, workload=None, duration_s=3.0, seed=11):
    return RunConfiguration(
        workload=workload or KeyValueWorkload(WorkloadVariant.NON_INDEXED),
        profile=sine_profile(low=0.1, high=0.7, period_s=1.5, duration_s=duration_s),
        policy=policy,
        seed=seed,
        step_cache_size=step_cache_size,
    )


def assert_identical(cached, exact):
    assert cached.total_energy_j == exact.total_energy_j
    assert cached.latencies_s == exact.latencies_s
    assert cached.samples == exact.samples
    assert cached.queries_completed == exact.queries_completed
    assert cached.queries_submitted == exact.queries_submitted


@pytest.mark.parametrize("policy", ["ecl", "ondemand", "baseline"])
def test_run_bit_identical_with_and_without_cache(policy):
    cached = run_experiment(config(policy, step_cache_size=1024))
    exact = run_experiment(config(policy, step_cache_size=0))
    assert_identical(cached, exact)


def test_run_bit_identical_tatp_ecl():
    workload = TatpWorkload(WorkloadVariant.INDEXED)
    cached = run_experiment(config("ecl", 1024, workload=workload))
    exact = run_experiment(config("ecl", 0, workload=workload))
    assert_identical(cached, exact)


def test_tiny_cache_still_exact():
    """Heavy eviction (capacity 1) only costs speed, never correctness."""
    small = run_experiment(config("ecl", step_cache_size=1))
    exact = run_experiment(config("ecl", step_cache_size=0))
    assert_identical(small, exact)


def _set_loads(machine, chars, demand):
    for sock in machine.topology.sockets:
        machine.set_socket_load(
            sock.socket_id,
            SocketLoad(characteristics=chars, demand_instructions_per_s=demand),
        )


def test_machine_step_stats_count_hits():
    """Repeated steps under a stable configuration hit the full cache."""
    machine = Machine(seed=0)
    chars = KeyValueWorkload(WorkloadVariant.NON_INDEXED).characteristics
    _set_loads(machine, chars, 1e9)
    for _ in range(20):
        machine.step(0.001)
    stats = machine.step_cache_stats
    assert stats["misses"] >= 1
    assert stats["full_hits"] > 0


def test_machine_cache_disabled_records_no_hits():
    machine = Machine(seed=0, step_cache_size=0)
    chars = KeyValueWorkload(WorkloadVariant.NON_INDEXED).characteristics
    _set_loads(machine, chars, 1e9)
    for _ in range(5):
        machine.step(0.001)
    assert machine.step_cache_stats["full_hits"] == 0
    assert machine.step_cache_stats["capacity_hits"] == 0


def test_machine_steps_bit_identical():
    """Step-by-step outputs agree exactly between cached and exact paths."""
    cached = Machine(seed=5)
    exact = Machine(seed=5, step_cache_size=0)
    chars = KeyValueWorkload(WorkloadVariant.NON_INDEXED).characteristics
    demands = [None, 1e8, 5e9, 1e8, None, 2e9, 2e9, 2e9, 1e7, 1e12]
    for demand in demands:
        _set_loads(cached, chars, demand)
        _set_loads(exact, chars, demand)
        a = cached.step(0.001)
        b = exact.step(0.001)
        assert a.psu_power_w == b.psu_power_w
        assert a.rapl_power_w == b.rapl_power_w
        for sid in a.sockets:
            assert a.sockets[sid].performance == b.sockets[sid].performance
            assert a.sockets[sid].power == b.sockets[sid].power
            assert (
                a.sockets[sid].executed_instructions
                == b.sockets[sid].executed_instructions
            )


# -- differential: cached vs exact steps over random action sequences ------

_CHARS = (
    KeyValueWorkload(WorkloadVariant.NON_INDEXED).characteristics,
    TRANSACTION_ORIENTED_CHARACTERISTICS,
)
_DTS = (0.001, 0.4)
_DEMANDS = ("none", "below", "at", "above")

_load = st.tuples(
    st.integers(0, 2),  # the mixed 2-node fleet: 2 brawny + 1 wimpy socket
    st.integers(0, len(_CHARS) - 1),
    st.sampled_from(_DEMANDS),
    st.floats(0.05, 0.95),
)
_control = st.one_of(
    st.tuples(st.just("power_off"), st.integers(0, 1)),
    st.tuples(st.just("power_on"), st.integers(0, 1)),
    st.tuples(st.just("settle")),
    st.tuples(st.just("park"), st.integers(0, 10_000), st.booleans()),
    st.tuples(st.just("unpark"), st.integers(0, 10_000)),
    st.tuples(
        st.just("epb"),
        st.integers(0, 10_000),
        st.sampled_from(list(EnergyPerformanceBias)),
    ),
)
#: One round: control actions, then load declarations, then one step.
_round = st.tuples(
    st.lists(_control, max_size=2),
    st.lists(_load, max_size=3),
    st.sampled_from(_DTS),
)


def _control_action(machine, action):
    kind = action[0]
    threads = [t.global_id for t in machine.topology.iter_threads()]
    if kind == "power_off":
        node = action[1]
        if machine.node_power_state(node) is NodePowerState.ON:
            for sid in machine.node_sockets(node):
                for tid in machine.topology.threads_on_socket(sid):
                    machine.cstates.park_thread(tid)
            machine.power_off_node(node)
    elif kind == "power_on":
        if machine.node_power_state(action[1]) is NodePowerState.OFF:
            machine.power_on_node(action[1])
    elif kind == "settle":
        machine.settle_node_power()
    elif kind == "park":
        machine.cstates.park_thread(
            threads[action[1] % len(threads)], shallow=action[2]
        )
    elif kind == "unpark":
        machine.cstates.unpark_thread(threads[action[1] % len(threads)])
    else:
        machine.frequency.set_epb(threads[action[1] % len(threads)], action[2])


def _socket_load(machine, load):
    """The declared load of one ``_load`` draw; demands are placed
    relative to the socket's capacity under the current configuration."""
    sid, chars_index, demand_kind, share = load
    chars = _CHARS[chars_index]
    capacity = machine.perf_model.socket_capacity(
        tuple(machine._active_cores(sid)),
        machine.resolve_uncore(sid)[0],
        chars,
    ).capacity_ips
    demand = {
        "none": None,
        "below": capacity * share,
        "at": capacity,
        "above": capacity * (1.0 + share),
    }[demand_kind]
    return sid, SocketLoad(characteristics=chars, demand_instructions_per_s=demand)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(rounds=st.lists(_round, min_size=1, max_size=20))
def test_cached_steps_match_exact_over_node_power_transitions(rounds):
    """Every cache size yields the exact path's step results, field for
    field, through loads at/around capacity, parking, EPB changes and
    node power-off/boot/settle transitions."""
    cluster = build_cluster("mixed", 2)
    exact = Machine(seed=3, cluster=cluster, step_cache_size=0)
    machines = [exact] + [
        Machine(seed=3, cluster=cluster, step_cache_size=size)
        for size in (1024, 1)
    ]
    for controls, loads, dt in rounds:
        for action in controls:
            for machine in machines:
                _control_action(machine, action)
        for load in loads:
            sid, socket_load = _socket_load(exact, load)
            for machine in machines:
                machine.set_socket_load(sid, socket_load)
        want, *got = [machine.step(dt) for machine in machines]
        for step in got:
            assert step.time_s == want.time_s
            assert step.psu_power_w == want.psu_power_w
            for sid, expected in want.sockets.items():
                for field in dataclasses.fields(SocketStepResult):
                    assert getattr(step.sockets[sid], field.name) == getattr(
                        expected, field.name
                    ), (sid, field.name)
