"""Integration tests for the end-to-end simulation runner."""

import pytest

from repro.errors import SimulationError
from repro.loadprofiles import constant_profile, step_profile
from repro.sim import RunConfiguration, SimulationRunner, run_experiment
from repro.sim.metrics import energy_saving_fraction
from repro.workloads import KeyValueWorkload, WorkloadVariant


def kv(variant=WorkloadVariant.NON_INDEXED):
    return KeyValueWorkload(variant)


class TestConfiguration:
    def test_policy_validation(self):
        with pytest.raises(SimulationError):
            RunConfiguration(
                workload=kv(), profile=constant_profile(0.5), policy="magic"
            )

    def test_tick_validation(self):
        with pytest.raises(SimulationError):
            RunConfiguration(
                workload=kv(), profile=constant_profile(0.5), tick_s=0.0
            )

    @pytest.mark.parametrize(
        "fields",
        [
            {"tick_s": float("nan")},
            {"tick_s": float("inf")},
            {"sample_every_s": float("nan")},
            {"sample_every_s": float("inf")},
            {"switch_at_s": float("nan"), "switch_workload": kv()},
            {"switch_at_s": float("inf"), "switch_workload": kv()},
            {"seed": -1},
        ],
        ids=[
            "tick_s-nan",
            "tick_s-inf",
            "sample_every_s-nan",
            "sample_every_s-inf",
            "switch_at_s-nan",
            "switch_at_s-inf",
            "seed-negative",
        ],
    )
    def test_malformed_fields_rejected(self, fields):
        with pytest.raises(SimulationError):
            RunConfiguration(workload=kv(), profile=constant_profile(0.5), **fields)

    def test_switch_needs_both_fields(self):
        with pytest.raises(SimulationError):
            RunConfiguration(
                workload=kv(), profile=constant_profile(0.5), switch_at_s=1.0
            )


class TestShortRuns:
    """Cheap end-to-end runs covering the §6 experiment machinery."""

    def test_ecl_run_completes_queries(self):
        result = run_experiment(
            RunConfiguration(
                workload=kv(), profile=constant_profile(0.3, duration_s=6.0)
            )
        )
        assert result.queries_completed > 0
        assert result.queries_completed >= 0.95 * result.queries_submitted
        assert result.total_energy_j > 0
        assert result.samples

    def test_baseline_run(self):
        result = run_experiment(
            RunConfiguration(
                workload=kv(),
                profile=constant_profile(0.3, duration_s=6.0),
                policy="baseline",
            )
        )
        assert result.policy == "baseline"
        assert result.queries_completed == result.queries_submitted

    def test_ecl_saves_energy(self):
        profile = constant_profile(0.3, duration_s=8.0)
        ecl = run_experiment(RunConfiguration(workload=kv(), profile=profile))
        base = run_experiment(
            RunConfiguration(workload=kv(), profile=profile, policy="baseline")
        )
        saving = energy_saving_fraction(base, ecl)
        assert saving > 0.15  # Table 1: non-indexed KV saves the most

    def test_ecl_meets_latency_at_partial_load(self):
        result = run_experiment(
            RunConfiguration(
                workload=kv(), profile=constant_profile(0.4, duration_s=8.0)
            )
        )
        assert result.violation_fraction() < 0.05
        assert result.mean_latency_s() < 0.05

    def test_load_steps_change_power(self):
        profile = step_profile([(5.0, 0.1), (5.0, 0.8)])
        result = run_experiment(RunConfiguration(workload=kv(), profile=profile))
        low = [s.rapl_power_w for s in result.samples if 2.0 < s.time_s < 4.5]
        high = [s.rapl_power_w for s in result.samples if 7.0 < s.time_s < 9.5]
        assert sum(high) / len(high) > sum(low) / len(low) + 20

    def test_workload_switch_changes_characteristics(self):
        runner = SimulationRunner(
            RunConfiguration(
                workload=kv(WorkloadVariant.INDEXED),
                profile=constant_profile(0.3, duration_s=4.0),
                switch_at_s=2.0,
                switch_workload=kv(WorkloadVariant.NON_INDEXED),
            )
        )
        runner.run()
        chars = runner.engine.workload_characteristics(0)
        assert chars.name == "kv-non-indexed"

    def test_seeded_runs_reproducible(self):
        profile = constant_profile(0.3, duration_s=4.0)
        results = [
            run_experiment(
                RunConfiguration(workload=kv(), profile=profile, seed=3)
            )
            for _ in range(2)
        ]
        assert results[0].total_energy_j == pytest.approx(
            results[1].total_energy_j
        )
        assert results[0].queries_completed == results[1].queries_completed

    def test_explicit_duration_override(self):
        result = run_experiment(
            RunConfiguration(
                workload=kv(), profile=constant_profile(0.2, duration_s=60.0)
            ),
            duration_s=3.0,
        )
        assert result.duration_s == pytest.approx(3.0)
        assert result.samples[-1].time_s < 3.0


class TestBaselinePolicyDetails:
    def test_baseline_parks_after_long_idle(self):
        result = run_experiment(
            RunConfiguration(
                workload=kv(),
                profile=step_profile([(3.0, 0.3), (4.0, 0.0)]),
                policy="baseline",
            )
        )
        # The tail samples should show near-idle power (threads parked).
        tail = [s.rapl_power_w for s in result.samples if s.time_s > 5.5]
        busy = [s.rapl_power_w for s in result.samples if 1.0 < s.time_s < 2.5]
        assert min(tail) < 0.35 * (sum(busy) / len(busy))


class TestRealizedDuration:
    """The run result accounts for the duration actually simulated."""

    def test_non_divisible_ratio_records_realized_duration(self):
        # 1.0 s requested at 0.3 s ticks -> 3 ticks = 0.9 s simulated;
        # energy accrues over 0.9 s, so the power denominator must be
        # 0.9 s, not the requested 1.0 s (a silent ~11% power error).
        result = run_experiment(
            RunConfiguration(
                workload=kv(),
                profile=constant_profile(0.3, duration_s=1.0),
                policy="baseline",
                tick_s=0.3,
            )
        )
        assert result.requested_duration_s == pytest.approx(1.0)
        assert result.duration_s == pytest.approx(0.9)
        assert result.total_energy_j > 0
        assert result.average_power_w() == pytest.approx(
            result.total_energy_j / result.duration_s
        )

    def test_divisible_ratio_realizes_the_request(self):
        result = run_experiment(
            RunConfiguration(
                workload=kv(),
                profile=constant_profile(0.3, duration_s=1.0),
                policy="baseline",
            )
        )
        assert result.duration_s == pytest.approx(1.0)
        assert result.requested_duration_s == pytest.approx(1.0)
