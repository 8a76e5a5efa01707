"""Model-based configuration evaluation (the measurement "oracle").

Two ways exist to fill an energy profile with measurements:

* the **runtime path** — what the ECL itself does: apply the
  configuration to the machine, wait the calibrated apply/measure
  intervals, and read RAPL + instruction counters (noisy, costs real
  time); implemented in :mod:`repro.ecl.adaptation`;
* the **model path** (this module) — query the power and performance
  models directly for a hypothetical configuration without perturbing the
  machine.  It is exact and fast, which is what the profile *figures*
  (Fig. 9/10/17–20) need, and serves as ground truth for testing that the
  runtime path converges to the right numbers.
"""

from __future__ import annotations

from repro.errors import ProfileError
from repro.hardware.machine import Machine
from repro.hardware.perfmodel import ActiveCore, SocketLoad, WorkloadCharacteristics
from repro.hardware.power import CorePowerState
from repro.profiles.configuration import Configuration, ConfigurationMeasurement
from repro.profiles.generator import ConfigurationGenerator, GeneratorParameters
from repro.profiles.profile import EnergyProfile


def measure_configuration(
    machine: Machine,
    configuration: Configuration,
    chars: WorkloadCharacteristics,
    assume_machine_idle_for_idle: bool = True,
    at_time_s: float | None = None,
) -> ConfigurationMeasurement:
    """Evaluate one configuration under saturating demand via the models.

    ``assume_machine_idle_for_idle`` controls whether the idle
    configuration is charged the halted-uncore power (legal only when
    every socket idles simultaneously — which the RTI controllers
    synchronize for) or the active-uncore-at-minimum power.

    Raises:
        ProfileError: if the configuration is invalid for the machine.
    """
    try:
        configuration.validate_against(machine)
    except Exception as exc:  # noqa: BLE001 - rewrap with profile context
        raise ProfileError(
            f"cannot evaluate {configuration.describe()}: {exc}"
        ) from exc

    topology = machine.topology
    perf_model = machine.perf_model
    power_model = machine.power_model
    sid = configuration.socket_id

    # Resolve the active cores implied by the configuration.
    freq_map = dict(configuration.core_frequencies)
    siblings: dict[int, int] = {}
    for tid in configuration.active_threads:
        core = topology.core_of(tid)
        siblings[core.core_id] = siblings.get(core.core_id, 0) + 1
    active_cores = [
        ActiveCore(
            socket_id=sid,
            core_id=core_id,
            frequency_ghz=freq_map[core_id],
            sibling_count=count,
        )
        for core_id, count in sorted(siblings.items())
    ]

    capacity = perf_model.resolve_capacity(
        active_cores, configuration.uncore_ghz, chars
    )
    parallel = capacity[1]
    perf = perf_model.resolve_with_capacity(
        *capacity,
        SocketLoad(characteristics=chars, demand_instructions_per_s=None),
    )
    scale = 0.0 if parallel <= 0 else perf.executed_ips / parallel

    core_states = [
        CorePowerState(
            frequency_ghz=core.frequency_ghz,
            active_sibling_count=core.sibling_count,
            activity=perf_model.core_activity(
                core, configuration.uncore_ghz, chars, scale
            ),
        )
        for core in active_cores
    ]
    halted = configuration.is_idle and assume_machine_idle_for_idle
    power = power_model.socket_power(
        socket_id=sid,
        core_states=core_states,
        uncore_ghz=configuration.uncore_ghz,
        uncore_halted=halted,
        traffic_gbs=perf.traffic_gbs,
    )
    return ConfigurationMeasurement(
        power_w=power.socket_total_w,
        performance_score=perf.capacity_ips,
        measured_at_s=machine.time_s if at_time_s is None else at_time_s,
    )


def build_profile(
    machine: Machine,
    socket_id: int,
    chars: WorkloadCharacteristics,
    generator_params: GeneratorParameters | None = None,
) -> EnergyProfile:
    """Generate and fully evaluate an energy profile via the model path."""
    generator = ConfigurationGenerator(
        machine.topology, machine.params_for(socket_id), socket_id, generator_params
    )
    configurations = generator.generate()
    profile = EnergyProfile(configurations)
    for configuration in configurations:
        measurement = measure_configuration(machine, configuration, chars)
        profile.record(configuration, measurement)
    # The uncontrolled baseline cannot reach the synchronized deep sleep:
    # its out-of-work power keeps the uncore awake at its minimum clock.
    os_idle = measure_configuration(
        machine,
        profile.idle_configuration,
        chars,
        assume_machine_idle_for_idle=False,
    )
    profile.os_idle_power_w = os_idle.power_w
    return profile
