"""The benchmark's three workloads and the simulated metrics they report.

Each workload is a factory for a fresh ``RunConfiguration``: the load
generator is open-loop in simulated time (arrivals follow the load
profile whatever the backlog, and latency counts from each query's
arrival), and every policy runs under the paper's 100 ms latency limit.
The workload seed drives ``RunConfiguration.seed``, which seeds both the
hardware model and the query fabrication of the load generator.

Why these three, and which layer each one stresses, is in README.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.ecl.socket_ecl import EclParameters
from repro.environment import make_environment
from repro.hardware.cluster import build_cluster
from repro.loadprofiles.twitter import twitter_day_profile, twitter_profile
from repro.sim import RunConfiguration, SimulationRunner
from repro.sim.metrics import RunResult
from repro.workloads import KeyValueWorkload, TatpWorkload, WorkloadVariant

LATENCY_LIMIT_S = 0.1


@dataclass(frozen=True)
class WorkloadSpec:
    """One named benchmark workload."""

    name: str
    #: Simulated run length in seconds.
    duration_s: float
    #: ``(seed, duration_s, macro_step) -> RunConfiguration``.
    configure: Callable[[int, float, bool], RunConfiguration]

    def build(
        self,
        seed: int,
        duration_s: float | None = None,
        macro_step: bool = True,
    ) -> SimulationRunner:
        """A fresh runner: workload, profile, environment and machine."""
        config = self.configure(
            seed, duration_s or self.duration_s, macro_step
        )
        return SimulationRunner(config)


def _kv25_day(seed: int, duration_s: float, macro_step: bool):
    return RunConfiguration(
        workload=KeyValueWorkload(WorkloadVariant.NON_INDEXED),
        profile=twitter_day_profile(duration_s=duration_s),
        policy="ecl",
        ecl_params=EclParameters(latency_limit_s=LATENCY_LIMIT_S),
        # The flat grid adds no span cuts; it is attached so that every
        # workload reports the same carbon and PSU-energy accounting.
        environment=make_environment("flat", duration_s),
        seed=seed,
        macro_step=macro_step,
    )


def _tatp_twitter(seed: int, duration_s: float, macro_step: bool):
    return RunConfiguration(
        workload=TatpWorkload(WorkloadVariant.NON_INDEXED),
        profile=twitter_profile(duration_s=duration_s),
        policy="ecl",
        ecl_params=EclParameters(latency_limit_s=LATENCY_LIMIT_S),
        environment=make_environment("flat", duration_s),
        seed=seed,
        macro_step=macro_step,
    )


def _fleet16_carbon_day(seed: int, duration_s: float, macro_step: bool):
    return RunConfiguration(
        workload=KeyValueWorkload(
            WorkloadVariant.NON_INDEXED, ops_per_query=250
        ),
        profile=twitter_day_profile(duration_s=duration_s),
        policy="ecl-carbon",
        ecl_params=EclParameters(latency_limit_s=LATENCY_LIMIT_S),
        cluster=build_cluster("haswell_ep", 16),
        environment=make_environment("diurnal-carbon", duration_s),
        seed=seed,
        macro_step=macro_step,
    )


WORKLOADS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec("kv25-day", 43.2, _kv25_day),
        WorkloadSpec("tatp-twitter", 15.0, _tatp_twitter),
        WorkloadSpec("fleet16-carbon-day", 86.4, _fleet16_carbon_day),
    )
}


def fingerprint(runner: SimulationRunner, result: RunResult) -> tuple:
    """Every simulated output a pure-speed change must leave bit-identical."""
    return (
        result.total_energy_j,
        result.wall_energy_j,
        result.gco2_total_g,
        result.queries_submitted,
        result.queries_completed,
        tuple(result.latencies_s),
        runner.macro_ticks_skipped,
    )


def check_run(runner: SimulationRunner, result: RunResult) -> list[str]:
    """Output checks every run must pass; returns the failures."""
    failures = []
    in_flight = runner.engine.tracker.in_flight
    if result.queries_submitted != result.queries_completed + in_flight:
        failures.append(
            f"query conservation: submitted {result.queries_submitted} != "
            f"completed {result.queries_completed} + in flight {in_flight}"
        )
    if not result.total_energy_j > 0:
        failures.append(f"energy {result.total_energy_j} J is not > 0")
    if not (result.wall_energy_j or 0.0) > 0:
        failures.append(f"wall energy {result.wall_energy_j} J is not > 0")
    if result.queries_completed < 1000:
        failures.append(
            f"only {result.queries_completed} completions; p99 needs >= 1000"
        )
    return failures


def simulated_metrics(runner: SimulationRunner, result: RunResult) -> dict:
    """The simulated end-to-end figures of one run (deterministic per seed)."""
    completed = result.queries_completed
    submitted = result.queries_submitted
    pue = runner.config.environment.pue
    within = sum(1 for v in result.latencies_s if v <= LATENCY_LIMIT_S)
    return {
        # PSU output energy: the accounted wall energy with PUE taken off.
        "energy_per_query_j": result.wall_energy_j / pue / completed,
        "gco2_per_query_g": result.gco2_total_g / completed,
        "latency_p50_ms": 1e3 * result.percentile_latency_s(50),
        "latency_p99_ms": 1e3 * result.percentile_latency_s(99),
        # Queries that missed the limit or never completed, over submitted.
        "slo_miss_share": (submitted - within) / submitted,
    }
