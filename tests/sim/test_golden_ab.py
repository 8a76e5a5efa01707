"""Golden pin: refactors leave the pre-registry runs bit-identical.

The ``ecl``/``baseline``/``ondemand`` cells of
``tests/sim/goldens/run_digests.json`` were captured *before* the
control layer was refactored behind the policy registry and the phased
observer pipeline (see ``golden_config.py`` for the capture commits and
configurations).  The refactors' contract is behaviour preservation:
the same configuration must still produce the same result object
field-for-field — energies, every sample point, every latency — which
the per-cell ``repr`` digest pins.

If a deliberate model change breaks these on purpose, re-capture with::

    PYTHONPATH=src python tests/sim/golden_config.py
"""

import pytest

from repro.sim import run_experiment

from .golden_config import (
    GOLDEN_CELLS,
    GOLDEN_POLICIES,
    assert_matches_golden,
    load_goldens,
)


@pytest.fixture(scope="module")
def fresh_run():
    """Each golden policy's run, checked against its digest once."""
    runs = {}

    def get(policy):
        if policy not in runs:
            runs[policy] = assert_matches_golden(policy)[0]
        return runs[policy]

    return get


@pytest.mark.parametrize("policy", GOLDEN_POLICIES)
def test_run_result_bit_identical_to_golden(policy, fresh_run):
    fresh_run(policy)


def test_goldens_are_distinct_runs(fresh_run):
    """Guards against captures that accidentally recorded the same run."""
    goldens = load_goldens()
    energies = {
        p: float.fromhex(goldens[p]["total_energy_j"]) for p in GOLDEN_POLICIES
    }
    assert len({goldens[p]["result_sha256"] for p in GOLDEN_POLICIES}) == 3
    assert len(set(energies.values())) == len(GOLDEN_POLICIES)
    # And the paper's ordering holds even at golden scale (4 s spike),
    # on the pinned and on the fresh results alike.
    assert energies["ecl"] < energies["ondemand"] < energies["baseline"]
    fresh = {p: fresh_run(p).total_energy_j for p in GOLDEN_POLICIES}
    assert fresh == energies


def test_new_policies_land_between_baseline_and_ecl(fresh_run):
    """§4/§7: single-technique policies recover part of the savings.

    ``performance`` (race-to-idle at turbo) and ``epb-only`` (hardware
    EPB/EET hints) must beat the uncontrolled baseline but not the full
    ECL — even at the goldens' 4 s spike scale.
    """
    ecl = fresh_run("ecl").total_energy_j
    baseline = fresh_run("baseline").total_energy_j
    for policy in ("performance", "epb-only"):
        config = GOLDEN_CELLS["ecl"].configuration(policy=policy)
        result = run_experiment(config)
        assert result.queries_completed == result.queries_submitted
        assert ecl < result.total_energy_j < baseline


def test_legacy_annotation_fields_stay_empty(fresh_run):
    """The goldens pin ondemand/baseline samples to empty annotations.

    Before the refactor only the ECL populated ``performance_levels`` /
    ``applied``; the uniform annotation interface must not start
    populating them for the legacy policies.
    """
    for policy in GOLDEN_POLICIES:
        populated = any(
            s.performance_levels or s.applied for s in fresh_run(policy).samples
        )
        if policy == "ecl":
            assert populated
        else:
            assert not populated
