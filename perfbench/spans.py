"""Outside-in span tracing of one simulation run.

The tracer never edits the program: it swaps the public methods of the
runner's layer objects for timing wrappers, and patches four class
attributes for the duration of one run.  A span is recorded where a
call crosses from one layer into another; a call that stays inside its
caller's layer runs unwrapped and its time stays with the caller.

Spans live in flat typed arrays (name, start, end, parent) so that a
run of about a million spans costs some tens of megabytes, and are
written out once the run has ended.
"""

from __future__ import annotations

import functools
import inspect
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from repro.dbms.worker import Worker
from repro.environment import EnvironmentAccounting
from repro.sim.observers import SamplingObserver

#: Runner attribute paths whose public methods are wrapped, with the
#: layer each one is reported under.
OBJECT_LAYERS = (
    ("loadgen", "sim.loadgen"),
    ("engine", "dbms.engine"),
    ("engine.router", "dbms.inter_socket"),
    ("engine.migrations", "placement.migration"),
    ("machine", "hardware.machine"),
    ("policy", "policy"),
)

#: Class attributes patched for one run: objects the runner creates
#: inside ``run()`` or holds in many instances.
CLASS_METHODS = (
    (Worker, "process_quantum", "dbms.worker"),
    (SamplingObserver, "end_tick", "sim.observers.sampling"),
    (EnvironmentAccounting, "account_tick", "environment"),
    (EnvironmentAccounting, "account_span", "environment"),
)

#: Every layer a span can belong to.
LAYERS = tuple(
    dict.fromkeys(
        [layer for _, layer in OBJECT_LAYERS]
        + [layer for _, _, layer in CLASS_METHODS]
    )
)


class SpanRecorder:
    """In-memory span store: one entry per cross-layer call."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name_layer: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        #: Open spans, innermost last, and the layer of each.
        self._stack: list[int] = []
        self._stack_layer: list[str] = []
        #: Sum of ``EngineTickResult.messages_processed`` over live ticks.
        self.messages_processed = 0

    def _name(self, layer: str, method: str) -> int:
        name = f"{layer}.{method}"
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._name_layer.append(layer)
        return self._name_ids[name]

    def wrap(self, layer: str, method: str, fn):
        """``fn`` with a span around each call entering ``layer``."""
        nid = self._name(layer, method)
        stack, stack_layer = self._stack, self._stack_layer
        name_ids, starts, ends, parents = (
            self.name_id, self.start, self.end, self.parent
        )
        clock = perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack_layer and stack_layer[-1] == layer:
                return fn(*args, **kwargs)
            i = len(starts)
            parents.append(stack[-1] if stack else -1)
            name_ids.append(nid)
            ends.append(0.0)
            stack.append(i)
            stack_layer.append(layer)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
                stack_layer.pop()

        return traced

    def count_messages(self, tick):
        """``engine.tick`` that also sums the messages each tick processed."""

        @functools.wraps(tick)
        def counted(*args, **kwargs):
            result = tick(*args, **kwargs)
            self.messages_processed += result.messages_processed
            return result

        return counted

    # -- analysis -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
        }

    def summary(self) -> dict:
        """Self time and calls per span name and per layer.

        A span's self time is its duration minus the durations of its
        direct children.  Also returns the total duration of the root
        spans, which the self times must add up to.
        """
        a = self.arrays()
        n_names = len(self.names)
        duration = a["end"] - a["start"]
        parent = a["parent"]
        nested = parent >= 0
        children = np.bincount(
            parent[nested], weights=duration[nested], minlength=len(duration)
        )
        self_s = duration - children
        by_name = np.bincount(a["name_id"], weights=self_s, minlength=n_names)
        calls = np.bincount(a["name_id"], minlength=n_names)
        by_layer = dict.fromkeys(LAYERS, 0.0)
        for layer, seconds in zip(self._name_layer, by_name):
            by_layer[layer] = by_layer.get(layer, 0.0) + float(seconds)
        return {
            "self_s": {n: float(s) for n, s in zip(self.names, by_name)},
            "calls": {n: int(c) for n, c in zip(self.names, calls)},
            "layer_self_s": by_layer,
            "root_s": float(duration[~nested].sum()),
            "min_self_s": float(self_s.min()) if len(self_s) else 0.0,
            "spans": len(duration),
        }

    def save(self, path) -> None:
        """Write every span as ``.npz``, timed from the first span's start."""
        a = self.arrays()
        origin_s = a["start"][0] if len(a["start"]) else 0.0
        np.savez(
            path,
            names=np.array(self.names),
            name_id=a["name_id"],
            start_s=a["start"] - origin_s,
            end_s=a["end"] - origin_s,
            parent=a["parent"],
        )


def _resolve(runner, path: str):
    obj = runner
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def _public_methods(obj):
    """Names of the plain public methods of ``obj``'s class."""
    for name in dir(type(obj)):
        if name.startswith("_"):
            continue
        if inspect.isfunction(inspect.getattr_static(obj, name)):
            yield name


@contextmanager
def traced(runner, recorder: SpanRecorder):
    """Wrap ``runner``'s layers for one ``run()``; restore them on exit."""
    wrapped = []
    patched = []
    try:
        for path, layer in OBJECT_LAYERS:
            obj = _resolve(runner, path)
            for name in _public_methods(obj):
                fn = recorder.wrap(layer, name, getattr(obj, name))
                if path == "engine" and name == "tick":
                    fn = recorder.count_messages(fn)
                setattr(obj, name, fn)
                wrapped.append((obj, name))
        for cls, name, layer in CLASS_METHODS:
            original = cls.__dict__[name]
            patched.append((cls, name, original))
            setattr(cls, name, recorder.wrap(layer, name, original))
        yield recorder
    finally:
        for cls, name, original in reversed(patched):
            setattr(cls, name, original)
        for obj, name in wrapped:
            delattr(obj, name)
