"""Macro A/B bit-identity with an environment attached.

The environment layer makes two promises:

* attaching an environment never changes the simulation itself — the
  core result surface (energy, queries, latencies, samples) is
  bit-identical to a run without one; only the accounting fields appear;
* the carbon/cost accounting is itself bit-identical between macro
  stepping and per-tick execution, even though spans get cut at every
  exogenous signal change.
"""

import pytest

from repro.environment import make_environment
from repro.hardware.cluster import homogeneous_cluster
from repro.loadprofiles import spike_profile
from repro.sim import RunConfiguration, SimulationRunner
from repro.workloads import KeyValueWorkload, WorkloadVariant

DURATION_S = 3.0


def _run(
    policy,
    *,
    macro,
    environment="diurnal-carbon",
    nodes=1,
    poisson=False,
    ops_per_query=None,
):
    profile = spike_profile(duration_s=DURATION_S)
    config = RunConfiguration(
        workload=KeyValueWorkload(
            WorkloadVariant.NON_INDEXED, ops_per_query=ops_per_query
        ),
        profile=profile,
        policy=policy,
        seed=5,
        macro_step=macro,
        poisson_arrivals=poisson,
        cluster=homogeneous_cluster(nodes) if nodes > 1 else None,
        environment=(
            make_environment(environment, profile.duration_s)
            if environment is not None
            else None
        ),
    )
    runner = SimulationRunner(config)
    return runner.run(), runner


def _assert_identical(on, off):
    """Full-surface bitwise comparison, accounting fields included."""
    assert on.total_energy_j == off.total_energy_j
    assert on.queries_submitted == off.queries_submitted
    assert on.queries_completed == off.queries_completed
    assert on.latencies_s == off.latencies_s
    assert on.duration_s == off.duration_s
    assert len(on.samples) == len(off.samples)
    for a, b in zip(on.samples, off.samples):
        assert a == b
    assert on.environment_name == off.environment_name
    assert on.wall_energy_j == off.wall_energy_j
    assert on.gco2_total_g == off.gco2_total_g
    assert on.cost_usd == off.cost_usd


class TestMacroIdentityWithEnvironment:
    @pytest.mark.parametrize("policy", ["baseline", "ecl", "ondemand"])
    @pytest.mark.parametrize("poisson", [False, True])
    def test_accounting_is_stepping_invariant(self, policy, poisson):
        on, runner_on = _run(policy, macro=True, poisson=poisson)
        off, runner_off = _run(policy, macro=False, poisson=poisson)
        _assert_identical(on, off)
        assert runner_off.macro_ticks_skipped == 0
        assert on.gco2_total_g > 0
        assert on.cost_usd > 0

    def test_carbon_policy_on_a_fleet(self):
        on, runner_on = _run("ecl-carbon", macro=True, nodes=2)
        off, _ = _run("ecl-carbon", macro=False, nodes=2)
        _assert_identical(on, off)
        assert runner_on.macro_ticks_skipped > 0

    def test_spans_are_cut_at_signal_changes(self):
        """The diurnal preset changes 23 times over the run; at least
        some span attempts must be bounded by the environment.

        The run is light (1000 ops per query, an arrival about every
        15 ticks).  On a busy run nearly every attempt meets an arrival
        at its first tick, and the runner's arrival peek claims those
        attempts for ``loadgen`` before the environment is asked."""
        _, runner = _run("baseline", macro=True, ops_per_query=1000)
        assert runner.macro_ticks_skipped > 0
        cuts = runner.span_cut_stats()["cut_by"]
        assert cuts.get("environment", 0) > 0

    def test_flat_environment_adds_no_span_cuts(self):
        """Constant signals never change, so a flat environment caps
        nothing: span attribution shows no environment cuts at all."""
        _, runner = _run("baseline", macro=True, environment="flat")
        assert "environment" not in runner.span_cut_stats()["cut_by"]


class TestEnvironmentIsPureObservation:
    @pytest.mark.parametrize("macro", [False, True])
    def test_core_results_unchanged_by_attachment(self, macro):
        with_env, _ = _run("ecl", macro=macro)
        without, _ = _run("ecl", macro=macro, environment=None)
        assert with_env.total_energy_j == without.total_energy_j
        assert with_env.queries_submitted == without.queries_submitted
        assert with_env.queries_completed == without.queries_completed
        assert with_env.latencies_s == without.latencies_s
        for a, b in zip(with_env.samples, without.samples):
            assert a == b

    def test_no_environment_means_no_accounting(self):
        result, runner = _run("baseline", macro=True, environment=None)
        assert result.environment_name is None
        assert result.wall_energy_j is None
        assert result.gco2_total_g is None
        assert result.cost_usd is None
        assert result.gco2_per_query() is None
        assert result.cost_per_query_usd() is None
        assert runner.environment_accounting is None

    def test_accounting_fields_and_derivatives(self):
        result, _ = _run("baseline", macro=True)
        assert result.environment_name == "diurnal-carbon"
        # Wall energy covers PSU conversion overhead and PUE on top of
        # the RAPL-visible package+DRAM energy.
        assert result.wall_energy_j > result.total_energy_j
        assert result.gco2_per_query() == pytest.approx(
            result.gco2_total_g / result.queries_completed
        )
        assert result.cost_per_query_usd() == pytest.approx(
            result.cost_usd / result.queries_completed
        )
        as_dict = result.to_dict()
        assert as_dict["environment"] == "diurnal-carbon"
        assert as_dict["gco2_total_g"] == result.gco2_total_g
        assert as_dict["gco2_per_query_g"] == result.gco2_per_query()
