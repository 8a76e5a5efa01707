"""The repository benchmark: host speed and simulated outcomes of three days.

Run from the repository root::

    python3 perfbench/run.py --workload kv25-day --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` times the workload untraced and prints the end-to-end
metrics; ``--trace 1`` makes a separate traced run and prints the
per-layer metrics.  Either way the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``, and the
exit code is non-zero when an output check failed.  ``--workload all``
runs each workload in a fresh child process, one after another.

The simulator is imported from ``src/`` of the same checkout; without
it the command exits non-zero.  Span files and
per-layer tables go to ``.perfbench_out/`` under the
repository root.  README.md beside this file says why each workload
exists and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"perfbench: the simulator sources are missing under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

from spans import SpanRecorder, traced  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    check_run,
    fingerprint,
    simulated_metrics,
)

#: Set-ups timed before the first repetition; every later repetition
#: adds one more.
SETUP_REPS = 3
#: Timed repetitions per run even when ``--seconds`` is already spent.
MIN_REPS = 2
#: The warm-up replays the workload's whole load shape compressed into
#: this share of its simulated length, so every code path runs once.
WARM_UP_SHARE = 1 / 8
#: Offset of the held-out seed that re-checks the traced layer ranking.
HELD_OUT_SEED_OFFSET = 1_000_003

END_TO_END_UNITS = {
    "ticks_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "energy_per_query_j": "J",
    "gco2_per_query_g": "g",
    "slo_met_share": "share",
}

#: Span-cut components the runner can attribute (``SpanCutStats``).
CUT_COMPONENTS = (
    "policy", "sampler", "observer", "machine", "loadgen", "engine",
    "environment", "run-end",
)


def _timed_build(spec, seed, setups):
    t0 = perf_counter()
    runner = spec.build(seed)
    setups.append(perf_counter() - t0)
    return runner


def _timed_run(runner):
    gc.collect()
    t0 = perf_counter()
    result = runner.run()
    return result, perf_counter() - t0


def _ticks(runner, result) -> int:
    return round(result.duration_s / runner.config.tick_s)


def _checked(runner, result, reference, label, failures):
    """Output checks, plus bit-identity with ``reference`` when given."""
    failures.extend(f"{label}: {msg}" for msg in check_run(runner, result))
    if reference is not None and fingerprint(runner, result) != reference:
        failures.append(f"{label}: simulated results differ from the first run")


def _warm_up(spec, seed: int) -> None:
    """One untimed run, so lazy set-up and first calls are paid for."""
    spec.build(seed, duration_s=spec.duration_s * WARM_UP_SHARE).run()


def measure(spec, seed: int, seconds: float) -> dict:
    """Untraced end-to-end measurement of one workload and seed."""
    failures: list[str] = []
    setups: list[float] = []
    for _ in range(SETUP_REPS):
        runner = _timed_build(spec, seed, setups)
    _warm_up(spec, seed)

    rates: list[float] = []
    reference = simulated = None
    attempted = failed = 0
    begin = perf_counter()
    while True:
        result, wall = _timed_run(runner)
        _checked(runner, result, reference, f"rep {len(rates)}", failures)
        if reference is None:
            reference = fingerprint(runner, result)
            simulated = simulated_metrics(runner, result)
        rates.append(_ticks(runner, result) / wall)
        attempted += result.queries_submitted
        failed += result.queries_submitted - result.queries_completed
        elapsed = perf_counter() - begin
        # Stop when one more repetition would overrun by over half of one.
        if (
            len(rates) >= MIN_REPS
            and elapsed + 0.5 * elapsed / len(rates) > seconds
        ):
            break
        runner = _timed_build(spec, seed, setups)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "ticks_per_s": statistics.median(rates),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "energy_per_query_j": simulated["energy_per_query_j"],
        "gco2_per_query_g": simulated["gco2_per_query_g"],
        "slo_met_share": 1.0 - simulated["slo_miss_share"],
    }
    return {
        "failures": failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()},
        "detail": {
            "reps": len(rates),
            "ticks_per_s_reps": rates,
            "setup_s_reps": setups,
            "simulated": simulated,
        },
    }


def _traced_run(spec, seed):
    runner = spec.build(seed)
    recorder = SpanRecorder()
    with traced(runner, recorder):
        result, wall = _timed_run(runner)
    return runner, result, recorder, wall


def _rank_corr(a: dict, b: dict) -> float:
    """Spearman correlation of two layer -> self-time maps (no tie handling)."""
    keys = sorted(a)
    rank_a = {k: r for r, k in enumerate(sorted(keys, key=a.get))}
    rank_b = {k: r for r, k in enumerate(sorted(keys, key=b.get))}
    n = len(keys)
    d2 = sum((rank_a[k] - rank_b[k]) ** 2 for k in keys)
    return 1.0 - 6.0 * d2 / (n * (n * n - 1))


def layer_metrics(runner, result, recorder, wall_s, summary) -> dict:
    """The per-layer table of one traced run."""
    self_s = summary["self_s"]
    calls = summary["calls"]
    layer_s = dict(summary["layer_self_s"])
    layer_s["sim.runner"] = wall_s - summary["root_s"]

    def s(*names):
        return sum(self_s.get(n, 0.0) for n in names)

    def c(*names):
        return sum(calls.get(n, 0) for n in names)

    cache = runner.machine.step_cache_stats
    lookups = cache["full_hits"] + cache["capacity_hits"] + cache["misses"]
    cuts = runner.span_cut_stats()
    ticks = _ticks(runner, result)
    attempts = cuts["spans"] + cuts["refusals"]
    quanta = c("dbms.worker.process_quantum")
    simulated = simulated_metrics(runner, result)
    m = {
        "sim.loadgen.arrivals_s": (s("sim.loadgen.arrivals"), "s"),
        "sim.loadgen.zero_arrival_run_s": (
            s("sim.loadgen.zero_arrival_run"), "s"
        ),
        "sim.loadgen.queries_generated": (
            runner.loadgen.generated_count, "count"
        ),
        "dbms.engine.submit_s": (
            s("dbms.engine.submit", "dbms.engine.submit_bank"), "s"
        ),
        "dbms.engine.tick_self_s": (s("dbms.engine.tick"), "s"),
        "dbms.engine.span_tick_s": (s("dbms.engine.span_tick"), "s"),
        "dbms.engine.messages_processed": (
            recorder.messages_processed, "count"
        ),
        "dbms.engine.pending_peak": (
            max((p.pending_messages for p in result.samples), default=0),
            "count",
        ),
        "dbms.worker.process_quantum_s": (
            s("dbms.worker.process_quantum"), "s"
        ),
        "dbms.worker.quanta": (quanta, "count"),
        "dbms.worker.messages_per_quantum": (
            recorder.messages_processed / quanta if quanta else 0.0, "count"
        ),
        "dbms.inter_socket.flush_s": (s("dbms.inter_socket.flush"), "s"),
        "dbms.inter_socket.route_s": (
            s("dbms.inter_socket.route", "dbms.inter_socket.route_bank"), "s"
        ),
        "dbms.inter_socket.route_calls": (
            c("dbms.inter_socket.route", "dbms.inter_socket.route_bank"),
            "count",
        ),
        "hardware.machine.step_s": (s("hardware.machine.step"), "s"),
        "hardware.machine.steps": (c("hardware.machine.step"), "count"),
        "hardware.machine.span_step_s": (
            s("hardware.machine.span_step"), "s"
        ),
        "hardware.machine.span_steps": (
            c("hardware.machine.span_step"), "count"
        ),
        "hardware.machine.step_cache_hit_share": (
            (cache["full_hits"] + cache["capacity_hits"]) / lookups
            if lookups else 0.0,
            "share",
        ),
        "hardware.machine.fast_hit_share": (
            cache["fast_hits"] / lookups if lookups else 0.0, "share"
        ),
        "policy.on_tick_s": (s("policy.on_tick"), "s"),
        "policy.macro_view_s": (s("policy.macro_view"), "s"),
        "policy.macro_step_tick_s": (s("policy.macro_step_tick"), "s"),
        "policy.macro_replay_s": (s("policy.macro_replay"), "s"),
        "sim.macro.spans": (cuts["spans"], "count"),
        "sim.macro.ticks_skipped_share": (
            cuts["ticks_skipped"] / ticks, "share"
        ),
        "sim.macro.refusals": (cuts["refusals"], "count"),
        "sim.macro.refusal_share": (
            cuts["refusals"] / attempts if attempts else 0.0, "share"
        ),
    }
    for component in CUT_COMPONENTS:
        m[f"sim.macro.cut_by.{component}"] = (
            cuts["cut_by"].get(component, 0), "count"
        )
    m["sim.runner.residual_s"] = (layer_s["sim.runner"], "s")
    m["placement.migration.count"] = (len(runner.engine.migration_log), "count")
    m["placement.migration.tick_s"] = (s("placement.migration.tick"), "s")
    m["environment.account_s"] = (layer_s["environment"], "s")
    m["sim.observers.sampling_s"] = (layer_s["sim.observers.sampling"], "s")
    m["trace.wall_s"] = (wall_s, "s")
    for layer, seconds in layer_s.items():
        m[f"trace.share.{layer}"] = (seconds / wall_s, "share")
    # The span fold is the macro planner's, not message work.
    span_fold_s = s("dbms.engine.span_tick")
    message_plane_s = sum(
        layer_s[k] for k in ("dbms.engine", "dbms.worker", "dbms.inter_socket")
    )
    m["trace.share.message_plane"] = (
        (message_plane_s - span_fold_s) / wall_s, "share"
    )
    m["trace.share.macro_span"] = (
        (span_fold_s + s("hardware.machine.span_step")) / wall_s, "share"
    )
    m["sim.result.latency_p50_ms"] = (simulated["latency_p50_ms"], "ms")
    m["sim.result.latency_p99_ms"] = (simulated["latency_p99_ms"], "ms")
    m["sim.result.slo_miss_share"] = (simulated["slo_miss_share"], "share")
    return m, layer_s


def _check_accounting(summary, wall_s, label, failures):
    """Self times must nest inside their parents and fit the wall time."""
    tolerance = 1e-9 * max(1, summary["spans"])
    if summary["min_self_s"] < -tolerance:
        failures.append(
            f"{label}: a span's children outlast it "
            f"(self time {summary['min_self_s']:.3g} s)"
        )
    total_self = sum(summary["layer_self_s"].values())
    if abs(total_self - summary["root_s"]) > 1e-6 * max(1.0, wall_s):
        failures.append(
            f"{label}: layer self times {total_self:.6f} s do not add up "
            f"to the root spans' {summary['root_s']:.6f} s"
        )
    if summary["root_s"] > wall_s:
        failures.append(
            f"{label}: traced spans {summary['root_s']:.6f} s exceed the "
            f"run's wall time {wall_s:.6f} s"
        )


def trace(spec, seed: int) -> dict:
    """The traced run: per-layer metrics, perturbation and ranking checks."""
    failures: list[str] = []
    _warm_up(spec, seed)
    runner = spec.build(seed)
    result, untraced_wall = _timed_run(runner)
    _checked(runner, result, None, "untraced", failures)
    reference = fingerprint(runner, result)

    runner, result, recorder, wall = _traced_run(spec, seed)
    # Same simulated results and the same skipped ticks as untraced.
    _checked(runner, result, reference, "traced", failures)
    summary = recorder.summary()
    _check_accounting(summary, wall, "traced", failures)
    metrics, layer_s = layer_metrics(runner, result, recorder, wall, summary)

    # One pair of runs: host speed drift moves this by up to about 0.25.
    metrics["trace.overhead_share"] = (wall / untraced_wall - 1.0, "share")

    held_seed = seed + HELD_OUT_SEED_OFFSET
    h_runner, h_result, h_recorder, h_wall = _traced_run(spec, held_seed)
    h_summary = h_recorder.summary()
    _check_accounting(h_summary, h_wall, "held-out", failures)
    _, h_layer_s = layer_metrics(
        h_runner, h_result, h_recorder, h_wall, h_summary
    )
    metrics["trace.held_out_rank_corr"] = (_rank_corr(layer_s, h_layer_s), "1")
    top = max(layer_s, key=layer_s.get)
    h_top = max(h_layer_s, key=h_layer_s.get)

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{spec.name}-seed{seed}"
    recorder.save(f"{stem}-spans.npz")
    table = {
        "workload": spec.name,
        "seed": seed,
        "held_out_seed": held_seed,
        "top_layer": top,
        "held_out_top_layer": h_top,
        "layer_self_s": layer_s,
        "held_out_layer_self_s": h_layer_s,
        "span_self_s": summary["self_s"],
        "span_calls": summary["calls"],
        "spans": summary["spans"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    Path(f"{stem}-layers.json").write_text(
        json.dumps(table, indent=2) + "\n"
    )
    return {
        "failures": failures,
        "attempted": result.queries_submitted,
        "failed": result.queries_submitted - result.queries_completed,
        "metrics": metrics,
        "detail": {"top_layer": top, "held_out_top_layer": h_top},
    }


def _print_table(name: str, seed: int, out: dict) -> None:
    print(f"== {name} (seed {seed})")
    for key, (value, unit) in out["metrics"].items():
        print(f"  {key:<40} {value:>16.6g} {unit}")
    detail = out["detail"]
    if "simulated" in detail:
        rates = ", ".join(f"{r:.0f}" for r in detail["ticks_per_s_reps"])
        print(f"  timed repetitions: {detail['reps']} (ticks/s: {rates})")
        for key, value in detail["simulated"].items():
            if key not in out["metrics"]:
                print(f"  {key + ' (unbounded)':<40} {value:>16.6g}")
    else:
        print(
            f"  top layer: {detail['top_layer']} "
            f"(held-out seed: {detail['held_out_top_layer']})"
        )
    for failure in out["failures"]:
        print(f"  CHECK FAILED: {failure}")


def _result_line(out: dict) -> str:
    return json.dumps({
        "correct": not out["failures"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {
            k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()
        },
    })


def run_all(args) -> int:
    """Each workload in a fresh child process, sequentially."""
    correct = True
    attempted = failed = 0
    for name in WORKLOADS:
        child = subprocess.run(
            [
                sys.executable, __file__, "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            stdout=subprocess.PIPE,
            text=True,
            check=False,
        )
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            correct = False
            continue
        out = json.loads(lines[-1])
        correct = correct and out["correct"]
        attempted += out["attempted"]
        failed += out["failed"]
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed measurement per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; "
            f"choose from {', '.join(WORKLOADS)} or all"
        )
    spec = WORKLOADS[args.workload]
    if args.trace:
        out = trace(spec, args.seed)
    else:
        out = measure(spec, args.seed, args.seconds)
    _print_table(spec.name, args.seed, out)
    print(_result_line(out))
    return 0 if not out["failures"] else 1


if __name__ == "__main__":
    sys.exit(main())
