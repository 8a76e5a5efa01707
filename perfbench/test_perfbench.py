"""The benchmark's own checks.

Run from the repository root (they are not part of the tier-1 suite;
the macro-off identity runs take about a minute)::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
from spans import SpanRecorder, traced  # noqa: E402
from repro.dbms.worker import Worker  # noqa: E402
from repro.environment import EnvironmentAccounting  # noqa: E402
from repro.sim.observers import SamplingObserver  # noqa: E402
from workloads import WORKLOADS, check_run, fingerprint  # noqa: E402


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_macro_off_is_bit_identical(name):
    """Macro stepping must not change energy, completions or latencies."""
    spec = WORKLOADS[name]
    results = []
    for macro_step in (True, False):
        runner = spec.build(seed=3, macro_step=macro_step)
        result = runner.run()
        assert check_run(runner, result) == []
        # Drop the skipped-tick count: it is 0 by definition macro-off.
        results.append(fingerprint(runner, result)[:-1])
    assert results[0] == results[1]


def test_traced_run_matches_untraced_run():
    spec = WORKLOADS["kv25-day"]
    untraced = spec.build(seed=5, duration_s=10.8)
    expected = fingerprint(untraced, untraced.run())

    runner = spec.build(seed=5, duration_s=10.8)
    recorder = SpanRecorder()
    with traced(runner, recorder):
        result = runner.run()
    assert fingerprint(runner, result) == expected
    assert runner.macro_ticks_skipped > 0

    summary = recorder.summary()
    assert summary["min_self_s"] >= -1e-9
    assert sum(summary["layer_self_s"].values()) == pytest.approx(
        summary["root_s"], rel=1e-9
    )
    assert summary["calls"]["hardware.machine.step"] > 0
    assert summary["calls"]["dbms.worker.process_quantum"] > 0
    assert recorder.messages_processed > 0

    # The traced run reports exactly the per-layer metrics declared.
    metrics, _ = run.layer_metrics(runner, result, recorder, 1.0, summary)
    reported = set(metrics) | {"trace.overhead_share", "trace.held_out_rank_corr"}
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert reported == {m["name"] for m in declared["per_layer"]}
    assert run.END_TO_END_UNITS == {
        m["name"]: m["unit"] for m in declared["end_to_end"]
    }


def test_tracing_restores_the_program():
    originals = {
        (cls, name): cls.__dict__[name]
        for cls, name in (
            (Worker, "process_quantum"),
            (SamplingObserver, "end_tick"),
            (EnvironmentAccounting, "account_tick"),
            (EnvironmentAccounting, "account_span"),
        )
    }
    runner = WORKLOADS["tatp-twitter"].build(seed=1, duration_s=0.5)
    with traced(runner, SpanRecorder()):
        assert "tick" in vars(runner.engine)
    for (cls, name), fn in originals.items():
        assert cls.__dict__[name] is fn
    for obj in (runner.loadgen, runner.engine, runner.engine.router,
                runner.engine.migrations, runner.machine, runner.policy):
        assert not any(callable(v) and hasattr(v, "__wrapped__")
                       for v in vars(obj).values())


def test_self_time_excludes_other_layers_only():
    recorder = SpanRecorder()

    def inner():
        return 1

    wrapped_inner = recorder.wrap("b", "inner", inner)

    def same_layer():
        return wrapped_inner()

    wrapped_same = recorder.wrap("a", "same", same_layer)

    def outer():
        return wrapped_same() + wrapped_inner()

    wrapped_outer = recorder.wrap("a", "outer", outer)
    assert wrapped_outer() == 2
    summary = recorder.summary()
    # a.same is called from inside layer a: no span of its own.
    assert summary["calls"] == {"b.inner": 2, "a.same": 0, "a.outer": 1}
    assert summary["spans"] == 3
    assert summary["min_self_s"] >= 0
    assert sum(summary["self_s"].values()) == pytest.approx(summary["root_s"])


def test_command_fails_without_the_simulator(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    child = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "kv25-day",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode != 0
    assert '"correct"' not in child.stdout
