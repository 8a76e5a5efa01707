"""Socket / physical-core / hardware-thread topology.

The paper's system under test is a 2-socket Haswell-EP server: 12 physical
cores per socket, 2 HyperThreads per core, one memory (NUMA) domain per
socket.  The ECL and the DBMS runtime address compute resources by *global
hardware-thread id*, so the topology provides bidirectional mappings
between global thread ids and (socket, core, sibling) coordinates.

Thread numbering follows the common Linux enumeration: thread ids
``0 .. S*C-1`` are the first siblings of every core (socket-major), and ids
``S*C .. 2*S*C-1`` are the HyperThread siblings in the same order.  With the
default preset, threads 0–11 are socket 0 first-siblings, 12–23 socket 1
first-siblings, 24–35 socket 0 HT siblings, 36–47 socket 1 HT siblings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.errors import TopologyError


@dataclass(frozen=True)
class HardwareThread:
    """One hardware thread (logical CPU).

    Attributes:
        global_id: system-wide thread id.
        socket_id: owning socket.
        core_id: socket-local physical-core index.
        sibling_index: 0 for the first thread of the core, 1 for its
            HyperThread sibling.
    """

    global_id: int
    socket_id: int
    core_id: int
    sibling_index: int


@dataclass(frozen=True)
class PhysicalCore:
    """One physical core and its hardware threads."""

    socket_id: int
    core_id: int
    threads: tuple[HardwareThread, ...]

    def thread_ids(self) -> tuple[int, ...]:
        """Global ids of this core's hardware threads (memoized: the
        topology is immutable and this sits on the C-state hot path)."""
        cached = self.__dict__.get("_thread_ids")
        if cached is None:
            cached = tuple(t.global_id for t in self.threads)
            self.__dict__["_thread_ids"] = cached
        return cached


@dataclass(frozen=True)
class Socket:
    """One processor package (socket) with its cores and NUMA domain."""

    socket_id: int
    cores: tuple[PhysicalCore, ...]

    @property
    def core_count(self) -> int:
        """Number of physical cores on this socket."""
        return len(self.cores)

    def thread_ids(self) -> tuple[int, ...]:
        """Global ids of all hardware threads on this socket (memoized:
        the topology is immutable and fingerprints ask on every step)."""
        cached = self.__dict__.get("_thread_ids")
        if cached is None:
            cached = tuple(
                t.global_id for core in self.cores for t in core.threads
            )
            self.__dict__["_thread_ids"] = cached
        return cached

    def first_sibling_ids(self) -> tuple[int, ...]:
        """Global ids of the first thread of each physical core."""
        return tuple(core.threads[0].global_id for core in self.cores)


@dataclass(frozen=True)
class Topology:
    """Immutable description of the machine's compute topology.

    Build instances with :meth:`Topology.build`; the constructor expects an
    already-consistent socket tuple and is primarily used internally.
    """

    sockets: tuple[Socket, ...]
    _threads_by_id: dict[int, HardwareThread] = field(
        default_factory=dict, repr=False, compare=False
    )

    @staticmethod
    def build(
        socket_count: int,
        cores_per_socket: int | Sequence[int],
        threads_per_core: int = 2,
    ) -> "Topology":
        """Construct a topology.

        Args:
            socket_count: number of processor packages (>= 1).
            cores_per_socket: physical cores per package (>= 1) — either
                one count shared by every socket, or a sequence with one
                count per socket for heterogeneous (cluster) machines.
            threads_per_core: hardware threads per core (1 or 2);
                uniform across the machine.

        Raises:
            TopologyError: on non-positive sizes or unsupported SMT width.
        """
        if isinstance(cores_per_socket, int):
            core_counts = [cores_per_socket] * max(socket_count, 0)
        else:
            core_counts = list(cores_per_socket)
            if len(core_counts) != socket_count:
                raise TopologyError(
                    f"cores_per_socket lists {len(core_counts)} sockets, "
                    f"expected {socket_count}"
                )
        if socket_count < 1 or any(c < 1 for c in core_counts):
            raise TopologyError(
                "socket_count and cores_per_socket must be >= 1, got "
                f"{socket_count} and {cores_per_socket}"
            )
        if threads_per_core not in (1, 2):
            raise TopologyError(
                f"threads_per_core must be 1 or 2, got {threads_per_core}"
            )

        total_cores = sum(core_counts)
        # First-sibling ids stay socket-major: socket s's cores start
        # after every preceding socket's cores, so the homogeneous case
        # reproduces the historical first_id = s * cores_per_socket + c.
        core_offsets = []
        offset = 0
        for count in core_counts:
            core_offsets.append(offset)
            offset += count
        sockets = []
        for socket_id in range(socket_count):
            cores = []
            for core_id in range(core_counts[socket_id]):
                first_id = core_offsets[socket_id] + core_id
                thread_list = [
                    HardwareThread(
                        global_id=first_id + sibling * total_cores,
                        socket_id=socket_id,
                        core_id=core_id,
                        sibling_index=sibling,
                    )
                    for sibling in range(threads_per_core)
                ]
                cores.append(
                    PhysicalCore(
                        socket_id=socket_id,
                        core_id=core_id,
                        threads=tuple(thread_list),
                    )
                )
            sockets.append(Socket(socket_id=socket_id, cores=tuple(cores)))

        topo = Topology(sockets=tuple(sockets))
        for sock in topo.sockets:
            for core in sock.cores:
                for thread in core.threads:
                    topo._threads_by_id[thread.global_id] = thread
        return topo

    # -- sizes ---------------------------------------------------------------

    @property
    def socket_count(self) -> int:
        """Number of sockets."""
        return len(self.sockets)

    @property
    def cores_per_socket(self) -> int:
        """Physical cores on socket 0 (per-socket counts may differ on
        heterogeneous cluster topologies — use :meth:`socket` for those)."""
        return self.sockets[0].core_count

    @property
    def threads_per_core(self) -> int:
        """Hardware threads per physical core (uniform machine-wide)."""
        return len(self.sockets[0].cores[0].threads)

    @property
    def total_threads(self) -> int:
        """Total hardware threads in the machine."""
        return sum(
            socket.core_count * self.threads_per_core
            for socket in self.sockets
        )

    # -- lookups -------------------------------------------------------------

    def thread(self, global_id: int) -> HardwareThread:
        """Look up a hardware thread by global id.

        Raises:
            TopologyError: if the id does not exist.
        """
        try:
            return self._threads_by_id[global_id]
        except KeyError:
            raise TopologyError(f"unknown hardware thread id {global_id}") from None

    def socket(self, socket_id: int) -> Socket:
        """Look up a socket by id.

        Raises:
            TopologyError: if the id does not exist.
        """
        if not 0 <= socket_id < self.socket_count:
            raise TopologyError(f"unknown socket id {socket_id}")
        return self.sockets[socket_id]

    def core_of(self, thread_id: int) -> PhysicalCore:
        """Return the physical core owning ``thread_id``."""
        t = self.thread(thread_id)
        return self.sockets[t.socket_id].cores[t.core_id]

    def socket_of(self, thread_id: int) -> int:
        """Return the socket id owning ``thread_id``."""
        return self.thread(thread_id).socket_id

    def sibling_of(self, thread_id: int) -> int | None:
        """Return the HyperThread sibling's global id, or None without SMT."""
        core = self.core_of(thread_id)
        ids = core.thread_ids()
        if len(ids) < 2:
            return None
        return ids[1] if ids[0] == thread_id else ids[0]

    def iter_threads(self) -> Iterator[HardwareThread]:
        """Iterate over all hardware threads in global-id order."""
        for global_id in sorted(self._threads_by_id):
            yield self._threads_by_id[global_id]

    def threads_on_socket(self, socket_id: int) -> tuple[int, ...]:
        """Global thread ids belonging to ``socket_id``."""
        return self.socket(socket_id).thread_ids()

    def group_by_core(
        self, thread_ids: Sequence[int]
    ) -> dict[tuple[int, int], list[int]]:
        """Group thread ids by their (socket_id, core_id) physical core.

        Used by the power/performance models, which charge per-core costs
        once regardless of how many siblings of a core are active.
        """
        groups: dict[tuple[int, int], list[int]] = {}
        for tid in thread_ids:
            t = self.thread(tid)
            groups.setdefault((t.socket_id, t.core_id), []).append(tid)
        return groups
