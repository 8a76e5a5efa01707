"""Simulation-core throughput: engine+machine ticks per second.

Not a paper figure — a harness benchmark guarding the fast simulation
core (memoized hardware step resolution, idle fast path, macro-tick span
stepping, vectorized arrival/completion hot path).  Two parts:

* a sine/SSB microbenchmark asserting the absolute ticks/s floor that
  keeps the full experiment grid tractable, plus the telemetry
  pay-for-use bound;
* the **Twitter-day macro matrix** — one simulated day (night included)
  replayed per registered policy with macro-stepping on and off.  It
  asserts macro on/off bit-identity, the headline speedup, and a
  generous ticks/s floor, and writes the numbers to
  ``BENCH_tick_throughput.json`` at the repo root (uploaded as a CI
  artifact; the CI smoke fails when the macro-on rate drops below the
  checked-in floor);
* the **overload spike row** — indexed KV under a 1.6x Poisson spike,
  the long-run regime of the message plane (routed blocks, hub banks
  and queued partition runs of hundreds of messages);
* the **TATP row** — ECL on non-indexed TATP over the paper's Twitter
  profile: the object lane, two-stage queries and the router, with an
  arrival on nearly every tick, so almost every span attempt is refused.

Environment knobs: ``REPRO_BENCH_DAY_DURATION`` scales the simulated
day (default 86.4 s = 1000x-compressed 24 h).
"""

import json
import os
import time
from pathlib import Path

from repro.environment import make_environment
from repro.hardware.cluster import homogeneous_cluster
from repro.loadprofiles import (
    sine_profile,
    spike_profile,
    twitter_day_profile,
    twitter_profile,
)
from repro.sim import RunConfiguration, SimulationRunner, registered_policies
from repro.telemetry import PhaseTimingObserver, TraceRecorder
from repro.workloads import (
    KeyValueWorkload,
    SsbWorkload,
    TatpWorkload,
    WorkloadVariant,
)

from _shared import heading

#: Simulated seconds per measured microbenchmark run.
DURATION_S = 4.0

#: Conservative floor — the seed tree ran ~1.6k ticks/s for the ECL
#: policy on the reference container; the fast core runs ~3x that.
MIN_TICKS_PER_S = 1000.0

#: The Twitter-day trace: heavy KV point-lookup queries (1000 ops each,
#: ~32 qps at peak) over a full compressed day with a true-zero night.
DAY_SEED = 11
DAY_OPS_PER_QUERY = 1000

#: Generous CI floors for the macro-on day replay of the headline
#: policy.  Measured on the reference container: ~70k ticks/s and
#: 3-5x over per-tick mode; the floors leave wide scheduling headroom.
HEADLINE_POLICY = "baseline"
MIN_DAY_TICKS_PER_S = 10000.0
MIN_DAY_SPEEDUP = 1.5

#: Per-policy macro-on floors for the control-heavy policies.  The
#: composite span executor keeps the ECL family within a small factor
#: of the uncontrolled baseline (reference container: ecl ~24-28k,
#: ecl-consolidate ~26k, ondemand ~54k ticks/s); the floors stay ~2x
#: below the measured rates to absorb CI scheduling noise.
MIN_DAY_POLICY_TICKS_PER_S = {
    "ecl": 12000.0,
    "ecl-consolidate": 12000.0,
    "ecl-cluster": 12000.0,
    "ondemand": 25000.0,
}

#: Per-policy *macro-off* (live-tick) floors.  Every tick takes the full
#: per-tick path here, so this row is what the struct-of-arrays message
#: plane and the machine-step fast paths are responsible for: the SoA
#: drain loop lifted the live baseline row from ~14.6k to ~27-32k
#: ticks/s on the reference container (ecl ~17-19k, ondemand ~33k).
#: Floors sit ~2x under the measured rates.
MIN_DAY_LIVE_TICKS_PER_S = {
    "baseline": 16000.0,
    "ecl": 9000.0,
    "ecl-consolidate": 9000.0,
    "ecl-cluster": 9000.0,
    "ondemand": 16000.0,
}

#: The cluster fleet row: the same day replayed on a multi-node machine
#: under ``ecl-cluster`` (node drain, power-off, boot cycles).  The
#: node-axis step retires the whole fleet's counters in vectorized bank
#: passes and node boots fold into macro spans, so the fleet row runs
#: within ~2x of single-node throughput (reference container: ~15-19k
#: ticks/s macro-on at 3 nodes; the floor locks in the vectorization
#: win while leaving slack for slow CI machines).
CLUSTER_NODES = 3
MIN_CLUSTER_TICKS_PER_S = 4000.0

#: The environment row: the fleet day under ``ecl-carbon`` with the
#: diurnal-carbon scenario attached.  The environment adds one span cap
#: per signal change (23 over the day) plus a vectorized accounting
#: fold per committed span — a constant-factor overhead, so the floor
#: matches the plain cluster row.
MIN_ENVIRONMENT_TICKS_PER_S = 4000.0

#: The overload row: indexed KV on a spike whose plateau sits at 1.6x
#: the nominal peak, Poisson arrivals.
#: The backlog it builds drives the message plane's long runs, which
#: none of the day rows reach.  Floors per policy sit about 2x under
#: the slowest of five interleaved runs on a shared 2-core VM
#: (baseline 1486-2146, ecl 1305-1531 ticks/s; see EXPERIMENTS.md).
OVERLOAD_DURATION_S = 20.0
OVERLOAD_FRACTION = 1.6
OVERLOAD_SEED = 5
MIN_OVERLOAD_TICKS_PER_S = {"baseline": 700.0, "ecl": 600.0}

#: The TATP row: ECL on non-indexed TATP, Twitter profile, macro on.
#: The floor sits about 2x under the slowest of five interleaved runs
#: on a shared 2-core VM (2381-3478 ticks/s; see EXPERIMENTS.md).
TATP_DURATION_S = 15.0
TATP_SEED = 0
MIN_TATP_TICKS_PER_S = 1200.0

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_tick_throughput.json"


def day_duration_s() -> float:
    return float(os.environ.get("REPRO_BENCH_DAY_DURATION", "86.4"))


def _measure(policy: str, observers=None) -> tuple[float, float]:
    config = RunConfiguration(
        workload=SsbWorkload(),
        profile=sine_profile(low=0.1, high=0.8, period_s=2.0, duration_s=DURATION_S),
        policy=policy,
        seed=7,
    )
    runner = SimulationRunner(config, observers=observers or [])
    ticks = round(DURATION_S / config.tick_s)
    start = time.perf_counter()
    result = runner.run()
    elapsed = time.perf_counter() - start
    assert result.queries_completed > 0
    return ticks / elapsed, elapsed


def _measure_day(
    policy: str, macro: bool, nodes: int = 1, environment: str | None = None
) -> dict:
    duration = day_duration_s()
    config = RunConfiguration(
        workload=KeyValueWorkload(
            WorkloadVariant.NON_INDEXED, ops_per_query=DAY_OPS_PER_QUERY
        ),
        profile=twitter_day_profile(duration_s=duration),
        policy=policy,
        seed=DAY_SEED,
        macro_step=macro,
        cluster=homogeneous_cluster(nodes) if nodes > 1 else None,
        environment=(
            make_environment(environment, duration)
            if environment is not None
            else None
        ),
    )
    runner = SimulationRunner(config)
    ticks = round(duration / config.tick_s)
    start = time.perf_counter()
    result = runner.run()
    elapsed = time.perf_counter() - start
    cell = {
        "wall_s": round(elapsed, 4),
        "ticks": ticks,
        "ticks_per_s": round(ticks / elapsed, 1),
        "spans": runner.macro_spans,
        "ticks_skipped": runner.macro_ticks_skipped,
        "energy_j": result.total_energy_j,
        "queries_submitted": result.queries_submitted,
        "queries_completed": result.queries_completed,
    }
    if environment is not None:
        cell["environment"] = environment
        cell["gco2_total_g"] = result.gco2_total_g
        cell["cost_usd"] = result.cost_usd
    if macro:
        # Span-cut attribution: which component bounded each span /
        # refused each attempt, span-length histogram, in-span replays.
        cell["span_cuts"] = runner.span_cut_stats()
    return cell


def _measure_overload(policy: str) -> dict:
    config = RunConfiguration(
        workload=KeyValueWorkload(WorkloadVariant.INDEXED),
        profile=spike_profile(
            duration_s=OVERLOAD_DURATION_S, overload_fraction=OVERLOAD_FRACTION
        ),
        policy=policy,
        seed=OVERLOAD_SEED,
        poisson_arrivals=True,
    )
    runner = SimulationRunner(config)
    ticks = round(OVERLOAD_DURATION_S / config.tick_s)
    start = time.perf_counter()
    result = runner.run()
    elapsed = time.perf_counter() - start
    return {
        "wall_s": round(elapsed, 4),
        "ticks_per_s": round(ticks / elapsed, 1),
        "queries_submitted": result.queries_submitted,
        "queries_completed": result.queries_completed,
        "pending_peak": max(s.pending_messages for s in result.samples),
    }


def test_tick_throughput(run_once):
    rates = run_once(
        lambda: {policy: _measure(policy) for policy in ("baseline", "ecl")}
    )

    heading("Simulation core — engine ticks per second")
    for policy, (ticks_per_s, elapsed) in rates.items():
        print(f"{policy:>9}: {ticks_per_s:10,.0f} ticks/s  ({elapsed:.2f} s wall)")

    for policy, (ticks_per_s, _) in rates.items():
        assert ticks_per_s > MIN_TICKS_PER_S, policy


def test_telemetry_overhead(run_once):
    """Telemetry must be pay-for-use: with no observers attached the
    tick rate stays above the floor, and full tracing (event recorder +
    phase timer) costs at most half the throughput."""
    rates = run_once(
        lambda: {
            "off": _measure("ecl"),
            "on": _measure("ecl", [TraceRecorder(), PhaseTimingObserver()]),
        }
    )

    heading("Telemetry overhead — ECL ticks per second")
    for mode, (ticks_per_s, elapsed) in rates.items():
        print(f"{mode:>9}: {ticks_per_s:10,.0f} ticks/s  ({elapsed:.2f} s wall)")
    off, on = rates["off"][0], rates["on"][0]
    print(f" overhead: {1 - on / off:8.1%}")

    assert off > MIN_TICKS_PER_S
    assert on > 0.5 * off


def test_twitter_day_macro_matrix(run_once):
    """One simulated day per policy, macro-stepping on vs off.

    Asserts bit-identity (energy and query counts) per policy, the
    headline speedup and ticks/s floor, and writes the whole matrix to
    ``BENCH_tick_throughput.json`` for the CI artifact.
    """
    policies = sorted(registered_policies())
    cluster_row = f"ecl-cluster@{CLUSTER_NODES}n"

    def _all_rows():
        rows = {
            policy: {
                "macro_off": _measure_day(policy, False),
                "macro_on": _measure_day(policy, True),
            }
            for policy in policies
        }
        # The fleet row: the same day on a multi-node machine, where the
        # cluster controller actually drains, powers off, and reboots
        # whole nodes (on one node it degrades to the plain ECL).
        rows[cluster_row] = {
            "macro_off": _measure_day("ecl-cluster", False, nodes=CLUSTER_NODES),
            "macro_on": _measure_day("ecl-cluster", True, nodes=CLUSTER_NODES),
        }
        return rows

    matrix = run_once(_all_rows)

    heading("Twitter-day trace — macro-stepping on vs off")
    print(
        f"{'policy':>16} {'off ticks/s':>12} {'on ticks/s':>12} "
        f"{'speedup':>8} {'skipped':>14}"
    )
    for policy, cell in matrix.items():
        off, on = cell["macro_off"], cell["macro_on"]
        speedup = off["wall_s"] / on["wall_s"]
        cell["speedup"] = round(speedup, 2)
        cell["bit_identical"] = (
            off["energy_j"] == on["energy_j"]
            and off["queries_submitted"] == on["queries_submitted"]
            and off["queries_completed"] == on["queries_completed"]
        )
        print(
            f"{policy:>16} {off['ticks_per_s']:12,.0f} {on['ticks_per_s']:12,.0f} "
            f"{speedup:7.2f}x {on['ticks_skipped']:6}/{on['ticks']}"
        )

    for policy, cell in matrix.items():
        assert cell["bit_identical"], policy
        assert cell["macro_off"]["ticks_skipped"] == 0, policy
        assert cell["macro_on"]["ticks_skipped"] > 0, policy

    headline = matrix[HEADLINE_POLICY]
    payload = {
        "benchmark": "tick_throughput",
        "trace": {
            "profile": "twitter-day",
            "duration_s": day_duration_s(),
            "workload": "kv-non-indexed",
            "ops_per_query": DAY_OPS_PER_QUERY,
            "seed": DAY_SEED,
        },
        "floors": {
            "headline_policy": HEADLINE_POLICY,
            "min_ticks_per_s_macro_on": MIN_DAY_TICKS_PER_S,
            "min_speedup": MIN_DAY_SPEEDUP,
            "per_policy_min_ticks_per_s": MIN_DAY_POLICY_TICKS_PER_S,
            "per_policy_min_live_ticks_per_s": MIN_DAY_LIVE_TICKS_PER_S,
            "cluster_row": cluster_row,
            "cluster_nodes": CLUSTER_NODES,
            "min_cluster_ticks_per_s": MIN_CLUSTER_TICKS_PER_S,
        },
        "policies": matrix,
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {RESULT_PATH}")

    # CI regression smoke: generous floors on the headline policy, plus
    # per-policy floors on the control-heavy policies the composite span
    # executor is responsible for keeping fast.
    assert headline["macro_on"]["ticks_per_s"] > MIN_DAY_TICKS_PER_S
    assert headline["speedup"] > MIN_DAY_SPEEDUP
    for policy, floor in MIN_DAY_POLICY_TICKS_PER_S.items():
        assert matrix[policy]["macro_on"]["ticks_per_s"] > floor, policy
    # Live-tick floors: macro-stepping off exercises the full per-tick
    # path on every tick, so these guard the SoA message plane and the
    # machine-step fast paths against regression.
    for policy, floor in MIN_DAY_LIVE_TICKS_PER_S.items():
        assert matrix[policy]["macro_off"]["ticks_per_s"] > floor, policy
    assert matrix[cluster_row]["macro_on"]["ticks_per_s"] > MIN_CLUSTER_TICKS_PER_S


def test_environment_day_floor(run_once):
    """The fleet day with the diurnal-carbon scenario attached.

    The environment layer cuts spans at every signal change and folds
    carbon/cost accounting over each committed span; both are
    constant-factor costs, so the macro-on tick rate must hold the same
    floor as the plain cluster row — and the accounting must stay
    bit-identical between stepping modes along the way.
    """
    cells = run_once(
        lambda: {
            "macro_off": _measure_day(
                "ecl-carbon",
                False,
                nodes=CLUSTER_NODES,
                environment="diurnal-carbon",
            ),
            "macro_on": _measure_day(
                "ecl-carbon",
                True,
                nodes=CLUSTER_NODES,
                environment="diurnal-carbon",
            ),
        }
    )

    off, on = cells["macro_off"], cells["macro_on"]
    heading("Environment-attached day — ecl-carbon @ diurnal-carbon")
    for mode, cell in cells.items():
        print(
            f"{mode:>10}: {cell['ticks_per_s']:10,.0f} ticks/s  "
            f"{cell['gco2_total_g']:10.1f} gCO2  ${cell['cost_usd']:.4f}"
        )

    assert on["ticks_skipped"] > 0
    assert off["ticks_skipped"] == 0
    assert on["gco2_total_g"] > 0
    # Accounting is part of the bit-identity contract.
    assert on["energy_j"] == off["energy_j"]
    assert on["gco2_total_g"] == off["gco2_total_g"]
    assert on["cost_usd"] == off["cost_usd"]
    assert on["ticks_per_s"] > MIN_ENVIRONMENT_TICKS_PER_S


def test_tick_throughput_extra_info(benchmark):
    """Record the ECL tick rate in the pytest-benchmark report."""
    ticks_per_s, _ = benchmark.pedantic(
        _measure, args=("ecl",), rounds=1, iterations=1
    )
    benchmark.extra_info["ticks_per_s"] = round(ticks_per_s)


def test_overload_spike_floor(run_once):
    """The long-run regime of the message plane stays above its floor.

    Under the overload plateau the partition queues hold hundreds of
    messages, so every drain, bank and routed block takes the message
    plane's long-run path; the day rows never get there.
    """
    cells = run_once(
        lambda: {
            policy: _measure_overload(policy)
            for policy in MIN_OVERLOAD_TICKS_PER_S
        }
    )

    heading("Overload spike — indexed KV at 1.6x peak, Poisson arrivals")
    for policy, cell in cells.items():
        print(
            f"{policy:>9}: {cell['ticks_per_s']:10,.0f} ticks/s  "
            f"({cell['wall_s']:.2f} s wall, {cell['pending_peak']} peak "
            f"pending messages)"
        )

    for policy, floor in MIN_OVERLOAD_TICKS_PER_S.items():
        cell = cells[policy]
        assert cell["queries_completed"] == cell["queries_submitted"], policy
        assert cell["pending_peak"] > 32, policy
        assert cell["ticks_per_s"] > floor, policy


def _measure_tatp(macro: bool) -> dict:
    config = RunConfiguration(
        workload=TatpWorkload(WorkloadVariant.NON_INDEXED),
        profile=twitter_profile(duration_s=TATP_DURATION_S),
        policy="ecl",
        seed=TATP_SEED,
        macro_step=macro,
    )
    runner = SimulationRunner(config)
    ticks = round(TATP_DURATION_S / config.tick_s)
    start = time.perf_counter()
    result = runner.run()
    elapsed = time.perf_counter() - start
    return {
        "wall_s": round(elapsed, 4),
        "ticks_per_s": round(ticks / elapsed, 1),
        "ticks_skipped": runner.macro_ticks_skipped,
        "energy_j": result.total_energy_j,
        "latencies_s": result.latencies_s,
        "queries_submitted": result.queries_submitted,
        "queries_completed": result.queries_completed,
    }


def test_tatp_floor(run_once):
    """The object lane under TATP stays above its floor, bit-identically.

    Nearly every tick of this run carries arrivals, so the row measures
    the live tick of two-stage queries (fabrication, routing, the object
    lane) plus the cost of the span attempts that get refused.
    """
    cells = run_once(
        lambda: {"macro_off": _measure_tatp(False), "macro_on": _measure_tatp(True)}
    )

    heading("TATP (non-indexed) on the Twitter profile — ecl")
    for mode, cell in cells.items():
        print(
            f"{mode:>10}: {cell['ticks_per_s']:10,.0f} ticks/s  "
            f"({cell['wall_s']:.2f} s wall, {cell['ticks_skipped']} skipped)"
        )

    off, on = cells["macro_off"], cells["macro_on"]
    assert on["queries_submitted"] > 0
    assert on["energy_j"] == off["energy_j"]
    assert on["latencies_s"] == off["latencies_s"]
    assert on["queries_submitted"] == off["queries_submitted"]
    assert on["queries_completed"] == off["queries_completed"]
    assert on["ticks_per_s"] > MIN_TATP_TICKS_PER_S
