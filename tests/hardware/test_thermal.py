"""Tests for the thermal turbo budget (paper: ~1 s 500 W transient)."""

import pytest

from repro.errors import ConfigurationError
from repro.hardware.firestarter import apply_full_load, apply_idle
from repro.hardware.machine import Machine


class TestThermalThrottling:
    def test_turbo_survives_within_budget(self, machine: Machine):
        apply_full_load(machine, turbo=True)
        machine.step(0.5)
        assert not machine.thermally_throttled(0)
        assert machine.thermal_credit_s(0) < machine.params.thermal_budget_s

    def test_turbo_throttles_after_budget(self, machine: Machine):
        apply_full_load(machine, turbo=True)
        hot = machine.step(1.0).psu_power_w
        machine.step(0.5)
        assert machine.thermally_throttled(0)
        throttled = machine.step(0.5).psu_power_w
        assert throttled < hot - 50.0  # back to roughly the sustained level

    def test_throttle_caps_at_nominal_clock(self, machine: Machine):
        apply_full_load(machine, turbo=True)
        before = machine.step(0.5).sockets[0].performance.capacity_ips
        machine.step(1.0)  # exhaust the budget
        after = machine.step(0.5).sockets[0].performance.capacity_ips
        ratio = machine.params.core_nominal_ghz / machine.params.core_turbo_ghz
        assert after == pytest.approx(before * ratio, rel=0.02)

    def test_budget_recovers_below_tdp(self, machine: Machine):
        apply_full_load(machine, turbo=True)
        machine.step(1.5)  # throttled now
        assert machine.thermally_throttled(0)
        apply_idle(machine)
        machine.step(2.0)
        assert not machine.thermally_throttled(0)
        assert machine.thermal_credit_s(0) > 0.5

    def test_sustained_clock_never_throttles_performance(self, machine: Machine):
        """Non-turbo full load may hover at TDP but loses no capacity."""
        apply_full_load(machine, turbo=False)
        first = machine.step(1.0).sockets[0].performance.capacity_ips
        machine.step(3.0)
        later = machine.step(1.0).sockets[0].performance.capacity_ips
        assert later == pytest.approx(first, rel=1e-6)

    def test_small_turbo_configs_stay_cool(self, machine: Machine):
        """Fig. 10(b)'s 2-thread turbo optimum runs far below TDP."""
        from repro.hardware.perfmodel import SocketLoad
        from repro.workloads.micro import ATOMIC_CONTENTION

        machine.apply_socket_threads(0, {0, 24})
        machine.apply_socket_threads(1, set())
        machine.frequency.set_core_frequency(0, 0, 3.1, 0.0)
        machine.set_epb_all(
            __import__(
                "repro.hardware.frequency", fromlist=["EnergyPerformanceBias"]
            ).EnergyPerformanceBias.PERFORMANCE
        )
        machine.frequency.set_uncore_frequency(0, 1.2)
        machine.set_socket_load(0, SocketLoad(ATOMIC_CONTENTION, None))
        machine.step(5.0)
        assert not machine.thermally_throttled(0)
        assert machine.thermal_credit_s(0) == pytest.approx(
            machine.params.thermal_budget_s
        )


class TestThermalSteadiness:
    """Macro spans may only cover ticks whose thermal update is a no-op."""

    def test_no_step_is_not_steady(self, machine: Machine):
        assert not machine.thermal_steady_all()

    def test_recovered_idle_machine_is_steady(self, machine: Machine):
        apply_idle(machine)
        machine.step(0.5)
        assert machine.thermal_steady_all()
        machine.span_step(0.5, 3)  # accepted

    def test_draining_socket_blocks_spans_and_is_named(self, machine: Machine):
        apply_full_load(machine, turbo=True)
        machine.apply_socket_threads(0, set())  # socket 0 parks and cools
        machine.step(0.5)
        assert machine.thermal_credit_s(0) == machine.params.thermal_budget_s
        assert machine.thermal_credit_s(1) < machine.params.thermal_budget_s
        assert not machine.thermal_steady_all()
        with pytest.raises(ConfigurationError, match="socket 1 thermal"):
            machine.span_step(0.5, 3)
