"""The pinned run goldens: their configurations and their result digests.

``tests/sim/goldens/run_digests.json`` holds one entry per *cell* — a
fixed :class:`~repro.sim.runner.RunConfiguration` — with readable
diagnostics (energies as ``float.hex``, query counts, the machine
clock, the worker-pool totals, the migration count) and the sha256 of
``repr(RunResult)``.  That repr spells every float exactly, so a digest
match is equivalent to ``RunResult ==``: energies, every sample point,
every latency.  The pin tests (:mod:`tests.sim.test_golden_ab` and
:mod:`tests.sim.test_soa_ab`) re-run each cell once and compare.

Three families of cells share the file:

* ``ecl``, ``baseline``, ``ondemand`` — the pre-registry goldens (4 s
  spike, seed 0).  First captured at commit ``8ac9f6e`` (the last commit
  before the policy-registry refactor) as pickled results; re-captured
  once for the realized-duration accounting fix, which added
  ``RunResult.requested_duration_s`` (energies, latencies and samples
  were verified unchanged then — the golden duration is an exact tick
  multiple).  Folded into this file at ``fe4c03a``, where the fresh
  digests matched the sha256 of ``repr`` of the unpickled results.
* ``ab/...`` — the vector/scalar message-plane A/B matrix (3 s spike,
  seed 5): every registered policy under deterministic and Poisson
  arrivals, per-tick stepping, the two 3-node cluster presets, the
  ``ecl-consolidate`` migration wave, and ECL on TATP (the object lane).
  Captured at ``fe4c03a``, the last commit with both planes, after
  asserting cell by cell that the two planes agreed bit for bit.
* ``overload/...`` — ECL and the baseline on indexed KV under a 1.6x
  Poisson spike (3 s, seed 5): the long-run regime, where banks, routed
  blocks and drained runs exceed 32 messages.  Captured at ``ca10610``,
  the last commit whose message plane switched to numpy folds above 32
  messages, so matching them keeps the one remaining fold identical to
  both.

Regenerate (only when an *intentional* simulation-model change lands —
note the capture commit in this docstring when you do)::

    PYTHONPATH=src python tests/sim/golden_config.py
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

GOLDEN_FILE = Path(__file__).parent / "goldens" / "run_digests.json"

#: The pre-registry goldens.  Short but dynamically rich: the spike
#: covers idle, partial load and the overload knee, so every control
#: path (RTI, ladder walks, parking) fires within the 4 s window.
GOLDEN_POLICIES = ("ecl", "baseline", "ondemand")
GOLDEN_DURATION_S = 4.0
GOLDEN_SEED = 0

#: The policies of the A/B matrix: every policy registered in the tree.
MATRIX_POLICIES = (
    "baseline",
    "ecl",
    "ecl-carbon",
    "ecl-cluster",
    "ecl-consolidate",
    "epb-only",
    "ondemand",
    "performance",
)

#: The long-run cells: indexed KV under a spike whose plateau overloads
#: the machine, so per-partition runs of hundreds of messages queue up.
OVERLOAD_POLICIES = ("ecl", "baseline")
OVERLOAD_FRACTION = 1.6


@dataclass(frozen=True)
class GoldenCell:
    """One pinned run: a configuration plus the knobs set after build."""

    name: str
    policy: str
    duration_s: float = 3.0
    seed: int = 5
    workload: str = "kv"  # "kv" or "tatp"
    variant: str = "non-indexed"  # a WorkloadVariant value
    #: ``None`` = the spike; otherwise a constant load fraction.
    constant_fraction: float | None = None
    #: The spike's overload plateau; ``None`` = the profile's default.
    overload_fraction: float | None = None
    poisson: bool = False
    macro_step: bool = True
    cluster: str | None = None  # "homogeneous" or "mixed", 3 nodes
    #: Overrides the policy's consolidation cooldown after build.
    cooldown_intervals: int | None = None

    def configuration(self, **overrides):
        """The exact :class:`RunConfiguration` of this cell."""
        from repro.hardware.cluster import homogeneous_cluster, mixed_cluster
        from repro.loadprofiles import constant_profile, spike_profile
        from repro.sim import RunConfiguration
        from repro.workloads import (
            KeyValueWorkload,
            TatpWorkload,
            WorkloadVariant,
        )

        workload = {"kv": KeyValueWorkload, "tatp": TatpWorkload}[
            self.workload
        ](WorkloadVariant(self.variant))
        if self.constant_fraction is None:
            spike = {}
            if self.overload_fraction is not None:
                spike["overload_fraction"] = self.overload_fraction
            profile = spike_profile(duration_s=self.duration_s, **spike)
        else:
            profile = constant_profile(
                self.constant_fraction, duration_s=self.duration_s
            )
        cluster = None
        if self.cluster is not None:
            factory = {"homogeneous": homogeneous_cluster, "mixed": mixed_cluster}
            cluster = factory[self.cluster](3)
        kwargs = dict(
            workload=workload,
            profile=profile,
            policy=self.policy,
            seed=self.seed,
            macro_step=self.macro_step,
            poisson_arrivals=self.poisson,
            cluster=cluster,
        )
        kwargs.update(overrides)
        return RunConfiguration(**kwargs)

    def run(self, **overrides):
        """Run the cell; returns ``(RunResult, SimulationRunner)``."""
        from repro.sim import SimulationRunner

        runner = SimulationRunner(self.configuration(**overrides))
        if self.cooldown_intervals is not None:
            runner.policy.cooldown_intervals = self.cooldown_intervals
        return runner.run(), runner


def _cells() -> tuple[GoldenCell, ...]:
    cells = [
        GoldenCell(
            policy, policy, duration_s=GOLDEN_DURATION_S, seed=GOLDEN_SEED
        )
        for policy in GOLDEN_POLICIES
    ]
    for policy in MATRIX_POLICIES:
        for poisson in (False, True):
            cells.append(
                GoldenCell(matrix_cell_name(policy, poisson), policy, poisson=poisson)
            )
    cells += [
        GoldenCell(f"ab/{policy}/per-tick", policy, macro_step=False)
        for policy in ("baseline", "ecl")
    ]
    cells += [
        GoldenCell(f"ab/ecl-cluster/{preset}3", "ecl-cluster", cluster=preset)
        for preset in ("homogeneous", "mixed")
    ]
    cells.append(
        GoldenCell(
            "ab/ecl-consolidate/wave",
            "ecl-consolidate",
            duration_s=4.0,
            constant_fraction=0.18,
            cooldown_intervals=0,
        )
    )
    cells += [
        GoldenCell("ab/ecl/tatp", "ecl", workload="tatp"),
        GoldenCell("ab/ecl/tatp-per-tick", "ecl", workload="tatp", macro_step=False),
    ]
    cells += [
        GoldenCell(
            f"overload/{policy}",
            policy,
            variant="indexed",
            overload_fraction=OVERLOAD_FRACTION,
            poisson=True,
        )
        for policy in OVERLOAD_POLICIES
    ]
    return tuple(cells)


def matrix_cell_name(policy: str, poisson: bool) -> str:
    """Name of the A/B matrix cell for one policy and arrival mode."""
    return f"ab/{policy}/{'poisson' if poisson else 'deterministic'}"


GOLDEN_CELLS: dict[str, GoldenCell] = {cell.name: cell for cell in _cells()}


def result_digest(result) -> str:
    """sha256 of ``repr(result)`` — exact for every float it holds."""
    return hashlib.sha256(repr(result).encode()).hexdigest()


def summarize(result, runner) -> dict:
    """The golden entry of one run: diagnostics plus the result digest."""
    return {
        "total_energy_j": result.total_energy_j.hex(),
        "queries_submitted": result.queries_submitted,
        "queries_completed": result.queries_completed,
        "machine_time_s": runner.machine.time_s.hex(),
        "machine_true_energy_j": runner.machine.true_total_energy_j().hex(),
        "pool_stats": runner.engine.pool.total_stats(),
        "migrations": len(runner.engine.migration_log),
        "result_sha256": result_digest(result),
    }


def load_goldens() -> dict[str, dict]:
    with open(GOLDEN_FILE) as fh:
        return json.load(fh)


def write_goldens(entries: dict[str, dict]) -> None:
    GOLDEN_FILE.parent.mkdir(parents=True, exist_ok=True)
    with open(GOLDEN_FILE, "w") as fh:
        json.dump(entries, fh, indent=1, sort_keys=True)
        fh.write("\n")


def assert_matches_golden(name: str):
    """Re-run one cell and assert it matches its golden bit for bit.

    Diagnostics are compared first, so a mismatch names the culprit
    before the digest seals everything else.  Returns the fresh
    ``(RunResult, SimulationRunner)``.
    """
    golden = load_goldens()[name]
    result, runner = GOLDEN_CELLS[name].run()
    fresh = summarize(result, runner)
    # Explicit raises, not ``assert``: this helper module is not rewritten
    # by pytest, so bare asserts would vanish under ``python -O``.
    for key in sorted(golden, key=lambda k: k == "result_sha256"):
        if fresh[key] != golden[key]:
            raise AssertionError(
                f"{name}: {key} = {fresh[key]!r}, golden {golden[key]!r}"
            )
    return result, runner


def capture() -> None:
    """Run every golden cell and write the digest file."""
    entries = {}
    for name, cell in GOLDEN_CELLS.items():
        result, runner = cell.run()
        entries[name] = summarize(result, runner)
        print(
            f"captured {name}: {result.total_energy_j:.3f} J, "
            f"{result.queries_completed}/{result.queries_submitted} queries"
        )
    write_goldens(entries)


if __name__ == "__main__":
    capture()
