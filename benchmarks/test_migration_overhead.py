"""Data placement: migration overhead and the consolidation payoff.

Three guarantees around the placement layer:

1. **Static placement is free** — the default ``static`` placement runs
   the exact golden configurations bit-identically to the pinned
   pre-placement results (the refactor cost nothing).
2. **Migration is bounded** — a single-partition move quiesces, ships,
   and resumes within a handful of engine ticks; its lump cost stalls
   the involved sockets briefly, not indefinitely.
3. **Consolidation pays** — at sustained low load, ``ecl-consolidate``
   drains a socket into package sleep and finishes the same work with
   less energy per query than the plain ECL.
"""

from repro.dbms.engine import DatabaseEngine
from repro.hardware.machine import Machine
from repro.loadprofiles import constant_profile
from repro.sim import RunConfiguration, run_experiment
from repro.workloads import KeyValueWorkload, WorkloadVariant
from repro.workloads.micro import COMPUTE_BOUND

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests" / "sim"))
from golden_config import (
    GOLDEN_CELLS,
    GOLDEN_POLICIES,
    load_goldens,
    result_digest,
)

from _shared import heading


def test_static_placement_matches_goldens(run_once):
    """The placement refactor must not move a float on default runs."""

    def run_all():
        return {
            policy: run_experiment(GOLDEN_CELLS[policy].configuration())
            for policy in GOLDEN_POLICIES
        }

    results = run_once(run_all)
    goldens = load_goldens()
    heading("Placement refactor — static placement vs pinned goldens")
    for policy in GOLDEN_POLICIES:
        golden = goldens[policy]
        fresh = results[policy]
        golden_energy = float.fromhex(golden["total_energy_j"])
        print(
            f"{policy:10s} golden E={golden_energy:10.4f} J   "
            f"fresh E={fresh.total_energy_j:10.4f} J"
        )
        assert fresh.total_energy_j == golden_energy
        assert fresh.queries_completed == golden["queries_completed"]
        assert result_digest(fresh) == golden["result_sha256"]


def test_single_migration_completes_within_bounded_ticks():
    """Quiesce + transfer resolves in ticks, not seconds."""
    machine = Machine(seed=1)
    engine = DatabaseEngine(machine)
    engine.set_workload_characteristics(COMPUTE_BOUND)
    record = engine.request_migration(1, 0)
    ticks = 0
    while engine.migrations.active_count and ticks < 10:
        engine.tick(0.001)
        ticks += 1
    heading("Single-partition migration latency")
    print(
        f"completed in {ticks} tick(s); "
        f"{record.data_bytes / 1e6:.2f} MB charged at "
        f"{record.cost_instructions_per_side:.3g} instructions per side"
    )
    # Unowned partitions transfer on the very next migration step; leave
    # headroom for one quiesce tick under ownership.
    assert ticks <= 3
    assert engine.partitions.socket_of(1) == 0


def test_consolidation_beats_ecl_at_low_load(run_once):
    """The acceptance experiment: package sleep wins at sustained low load."""

    def run_pair():
        results = {}
        for policy in ("ecl", "ecl-consolidate"):
            results[policy] = run_experiment(
                RunConfiguration(
                    workload=KeyValueWorkload(WorkloadVariant.NON_INDEXED),
                    profile=constant_profile(duration_s=8.0, fraction=0.18),
                    policy=policy,
                    seed=0,
                )
            )
        return results

    results = run_once(run_pair)
    ecl = results["ecl"]
    consolidated = results["ecl-consolidate"]
    heading("Consolidation vs plain ECL — constant 18 % load, 8 s")
    for name, r in results.items():
        per_query = r.total_energy_j / r.queries_completed
        print(
            f"{name:16s} E={r.total_energy_j:8.2f} J  "
            f"completed={r.queries_completed:5d}  E/q={per_query:.4f} J  "
            f"p99={1000 * r.percentile_latency_s(99):.1f} ms"
        )
    # All work still completes...
    assert consolidated.queries_completed >= ecl.queries_completed - 5
    # ...and the drained package saves energy both in total and per query.
    assert consolidated.total_energy_j < ecl.total_energy_j
    eclq = ecl.total_energy_j / ecl.queries_completed
    conq = consolidated.total_energy_j / consolidated.queries_completed
    assert conq < eclq
