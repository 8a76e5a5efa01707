"""Query banks: struct-of-arrays blocks of single-stage modeled queries.

A :class:`QueryBank` is the columnar counterpart of a list of
:class:`~repro.dbms.queries.Query` objects: ``count`` consecutive query
ids, each a single stage of ``fan_out`` modeled WORK messages, stored as
parallel numpy arrays.  Workloads fabricate banks on the load path
(:meth:`~repro.workloads.base.Workload.make_modeled_bank`), the
engine routes them via :meth:`~repro.dbms.engine.DBMSEngine.submit_bank`,
and the messages live out their life in the hubs' compact columns —
no per-message Python objects exist unless a migration evicts them.

Banks are restricted by construction to what the compact plane can
represent bit-identically: single stage, modeled costs, no workload
characteristics tag (untagged messages blend under the socket's default
characteristics, exactly like per-object modeled KV/TATP queries).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import SimulationError


class QueryView:
    """Read-only per-query view into a bank (observer compatibility)."""

    __slots__ = ("query_id", "arrival_s", "coordinator_socket")

    def __init__(
        self, query_id: int, arrival_s: float, coordinator_socket: int
    ) -> None:
        self.query_id = query_id
        self.arrival_s = arrival_s
        self.coordinator_socket = coordinator_socket


class QueryBank:
    """A block of ``count`` single-stage modeled queries, as columns.

    Message ``j`` of query ``i`` (ids ``first_query_id + i``) targets
    ``targets[i * fan_out + j]`` with cost
    ``(instructions[...], bytes_accessed[...])``; the message axis is
    laid out query-major, matching the order in which per-object
    queries would submit their message lists.
    """

    __slots__ = (
        "first_query_id",
        "fan_out",
        "arrivals_s",
        "coordinators",
        "targets",
        "instructions",
        "bytes_accessed",
    )

    def __init__(
        self,
        first_query_id: int,
        fan_out: int,
        arrivals_s: np.ndarray,
        coordinators: np.ndarray,
        targets: np.ndarray,
        instructions: np.ndarray,
        bytes_accessed: np.ndarray,
    ) -> None:
        count = int(arrivals_s.size)
        if fan_out <= 0:
            raise SimulationError(f"bank fan_out must be > 0, got {fan_out}")
        if coordinators.size != count:
            raise SimulationError("bank coordinator column length mismatch")
        if (
            targets.size != count * fan_out
            or instructions.size != count * fan_out
            or bytes_accessed.size != count * fan_out
        ):
            raise SimulationError("bank message column length mismatch")
        self.first_query_id = first_query_id
        self.fan_out = fan_out
        self.arrivals_s = arrivals_s
        self.coordinators = coordinators
        self.targets = targets
        self.instructions = instructions
        self.bytes_accessed = bytes_accessed

    @property
    def count(self) -> int:
        """Number of queries in the bank."""
        return int(self.arrivals_s.size)

    def query_views(self) -> Iterator[QueryView]:
        """Yield per-query views, in arrival (= id) order."""
        first = self.first_query_id
        arrivals = self.arrivals_s
        coordinators = self.coordinators
        for i in range(arrivals.size):
            yield QueryView(first + i, float(arrivals[i]), int(coordinators[i]))
