"""Clock domains: core P-states, the uncore clock, EPB and the EET.

The Haswell-EP generation introduced fully integrated voltage regulators
(FIVR), giving every physical core its own clock plus one uncore clock per
socket that drives the LLC and memory controllers (paper Fig. 2).  This
module models:

* the discrete P-state ladders for core (1.2–2.6 GHz, 3.1 GHz turbo) and
  uncore (1.2–3.0 GHz) clocks,
* the *energy-performance bias* (EPB) MSR per hardware thread,
* the *energy-efficient turbo* (EET): under the powersave/balanced EPB the
  CPU dwells ~1 s at the nominal frequency before entering turbo (paper
  Fig. 7(a)), whereas the performance EPB enters turbo immediately
  (Fig. 7(b)),
* automatic *uncore frequency scaling* (UFS), which the paper found to
  always pick the highest uncore clock under load — wasting ~12 W on
  compute-bound work (Fig. 8).  The UFS heuristic is EPB-aware: under
  the default balanced bias it races to the maximum, while a machine-wide
  powersave bias makes it settle on a mid-ladder step (the behaviour
  energy-feature surveys measured on Haswell-EP, where the auto uncore
  clock follows the energy-performance bias).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.hardware.presets import HaswellEPParameters
from repro.hardware.topology import Topology


class EnergyPerformanceBias(enum.Enum):
    """The EPB hint written per hardware thread via MSR."""

    POWERSAVE = "powersave"
    BALANCED = "balanced"
    PERFORMANCE = "performance"

    @property
    def delays_turbo(self) -> bool:
        """Whether this bias inserts the ~1 s EET delay before turbo."""
        return self is not EnergyPerformanceBias.PERFORMANCE


@dataclass(frozen=True)
class PState:
    """One step of a frequency ladder."""

    index: int
    ghz: float


class FrequencyLadder:
    """A discrete, sorted ladder of allowed frequencies with snapping."""

    def __init__(self, steps_ghz: tuple[float, ...]):
        if not steps_ghz:
            raise ConfigurationError("frequency ladder must not be empty")
        ordered = tuple(sorted(steps_ghz))
        if len(set(ordered)) != len(ordered):
            raise ConfigurationError(f"duplicate P-states in ladder {steps_ghz}")
        self._steps = ordered
        #: Exact-value memo for :meth:`validate` (it sits on the
        #: configuration-apply hot path; the tolerance scan only runs
        #: once per distinct requested value).
        self._validated: dict[float, float] = {}

    @property
    def steps(self) -> tuple[float, ...]:
        """All frequencies in ascending order."""
        return self._steps

    @property
    def minimum(self) -> float:
        """Lowest frequency on the ladder."""
        return self._steps[0]

    @property
    def maximum(self) -> float:
        """Highest frequency on the ladder."""
        return self._steps[-1]

    def validate(self, ghz: float) -> float:
        """Return ``ghz`` unchanged if it is an exact ladder step.

        Raises:
            ConfigurationError: if the frequency is not a valid P-state.
        """
        cached = self._validated.get(ghz)
        if cached is not None:
            return cached
        for step in self._steps:
            if abs(step - ghz) < 1e-9:
                self._validated[ghz] = step
                return step
        raise ConfigurationError(
            f"{ghz} GHz is not a valid P-state; ladder is "
            f"{self.minimum}-{self.maximum} GHz"
        )

    def snap(self, ghz: float) -> float:
        """Snap an arbitrary frequency to the nearest ladder step."""
        return min(self._steps, key=lambda step: abs(step - ghz))

    def pstate(self, ghz: float) -> PState:
        """Return the :class:`PState` for an exact ladder frequency."""
        value = self.validate(ghz)
        return PState(index=self._steps.index(value), ghz=value)

    def subset(self, count: int, include_turbo: bool = True) -> tuple[float, ...]:
        """Pick ``count`` representative frequencies for profile generation.

        Always includes the lowest and highest step; intermediate steps are
        spaced evenly across the ladder.  With ``include_turbo=False`` the
        top step is excluded before selection (used for the uncore ladder,
        which has no turbo, this is a no-op concept-wise).
        """
        steps = self._steps if include_turbo else self._steps[:-1]
        if count <= 0:
            raise ConfigurationError(f"subset count must be >= 1, got {count}")
        if count >= len(steps):
            return steps
        if count == 1:
            return (steps[-1],)
        picks = {
            steps[round(i * (len(steps) - 1) / (count - 1))] for i in range(count)
        }
        return tuple(sorted(picks))


class FrequencyDomains:
    """Mutable clock state of the whole machine.

    Tracks the *requested* frequency of every core clock and uncore clock
    plus per-thread EPB, and resolves the *effective* frequencies at a
    given simulation time (applying the EET delay and auto-UFS policy).
    """

    def __init__(
        self,
        topology: Topology,
        params: HaswellEPParameters,
        socket_params: "tuple[HaswellEPParameters, ...] | None" = None,
    ):
        self._topology = topology
        self._params = params
        #: Per-socket parameter sets — on a cluster machine each socket
        #: carries its owning node's parameters; single-node machines
        #: repeat the one ``params`` object, so every per-socket lookup
        #: resolves to exactly the historical values.
        if socket_params is None:
            socket_params = tuple(params for _ in topology.sockets)
        self._socket_params = socket_params
        self.core_ladder = FrequencyLadder(params.core_pstates_ghz)
        self.uncore_ladder = FrequencyLadder(params.uncore_pstates_ghz)
        #: Per-socket ladders; sockets whose parameters match the default
        #: share the default ladder objects (and their validation memos).
        core_ladders: dict[tuple[float, ...], FrequencyLadder] = {
            params.core_pstates_ghz: self.core_ladder
        }
        uncore_ladders: dict[tuple[float, ...], FrequencyLadder] = {
            params.uncore_pstates_ghz: self.uncore_ladder
        }
        self._core_ladders = tuple(
            core_ladders.setdefault(
                sp.core_pstates_ghz, FrequencyLadder(sp.core_pstates_ghz)
            )
            for sp in socket_params
        )
        self._uncore_ladders = tuple(
            uncore_ladders.setdefault(
                sp.uncore_pstates_ghz, FrequencyLadder(sp.uncore_pstates_ghz)
            )
            for sp in socket_params
        )

        cores = [
            (s.socket_id, c.core_id) for s in topology.sockets for c in s.cores
        ]
        self._core_request: dict[tuple[int, int], float] = {
            key: socket_params[key[0]].core_nominal_ghz for key in cores
        }
        #: Simulation time at which each core last requested the turbo step.
        self._turbo_request_time: dict[tuple[int, int], float | None] = {
            key: None for key in cores
        }
        #: Cores with an outstanding turbo request (possibly in EET dwell).
        self._pending_turbo: set[tuple[int, int]] = set()
        self._uncore_request: dict[int, float | None] = {
            s.socket_id: None for s in topology.sockets
        }  # None = automatic UFS
        self._epb: dict[int, EnergyPerformanceBias] = {
            t.global_id: EnergyPerformanceBias.BALANCED
            for t in topology.iter_threads()
        }
        #: Monotonic counter bumped on every control-state mutation; lets
        #: callers (the machine's step-resolution cache) detect that no
        #: clock request or EPB changed between two steps.
        self._version = 0
        #: Content-fingerprint cache: per-socket interned ids of the
        #: *values* of the clock state.  Every fingerprint input is
        #: socket-local, so invalidation is per socket — reconfiguring
        #: one socket (RTI duty cycling) leaves the other's cached
        #: fingerprint valid.
        self._fingerprint_socket_versions: dict[int, int] = {
            s.socket_id: 0 for s in topology.sockets
        }
        self._fingerprints: dict[int, tuple[int, int]] = {}
        self._fingerprint_ids: dict[tuple, int] = {}
        #: Derived per-core EPB, cached per EPB mutation (the dwell
        #: signature asks for it on every step while turbo is pending).
        self._epb_version = 0
        self._epb_cache_version = -1
        self._epb_cache: dict[tuple[int, int], EnergyPerformanceBias] = {}

    @property
    def version(self) -> int:
        """Control-state version (bumps on any frequency/EPB mutation)."""
        return self._version

    def core_ladder_for(self, socket_id: int) -> FrequencyLadder:
        """The core P-state ladder of one socket (per-node on clusters)."""
        return self._core_ladders[socket_id]

    def uncore_ladder_for(self, socket_id: int) -> FrequencyLadder:
        """The uncore P-state ladder of one socket (per-node on clusters)."""
        return self._uncore_ladders[socket_id]

    def state_fingerprint(self, socket_id: int) -> int:
        """Interned content fingerprint of one socket's clock state.

        Captures every *value* that shapes the socket's effective clocks
        besides time: per-core frequency requests, the uncore request
        (or auto), and the EPB of every thread on the socket.  Unlike
        :attr:`version` — which is monotonic and never repeats — the
        fingerprint returns the *same* id whenever the same state recurs
        (e.g. RTI duty-cycling between two configurations), so the
        machine's step-resolution cache can hit across reconfigurations.
        Time-dependent effects (the EET dwell) are deliberately excluded;
        :meth:`turbo_dwell_signature` covers them.
        """
        version = self._fingerprint_socket_versions[socket_id]
        cached = self._fingerprints.get(socket_id)
        if cached is not None and cached[0] == version:
            return cached[1]
        socket = self._topology.socket(socket_id)
        content = (
            tuple(
                self._core_request[(socket_id, core.core_id)]
                for core in socket.cores
            ),
            self._uncore_request[socket_id],
            tuple(
                self._epb[tid]
                for tid in self._topology.threads_on_socket(socket_id)
            ),
        )
        fingerprint = self._fingerprint_ids.setdefault(
            content, len(self._fingerprint_ids)
        )
        self._fingerprints[socket_id] = (version, fingerprint)
        return fingerprint

    # -- core clocks ---------------------------------------------------------

    def set_core_frequency(
        self, socket_id: int, core_id: int, ghz: float, now: float
    ) -> None:
        """Request a new P-state for one physical core at time ``now``."""
        value = self._core_ladders[socket_id].validate(ghz)
        key = (socket_id, core_id)
        if key not in self._core_request:
            raise ConfigurationError(f"unknown core {core_id} on socket {socket_id}")
        previous = self._core_request[key]
        self._core_request[key] = value
        self._version += 1
        self._fingerprint_socket_versions[socket_id] += 1
        turbo_ghz = self._socket_params[socket_id].core_turbo_ghz
        is_turbo = abs(value - turbo_ghz) < 1e-9
        if is_turbo and abs(previous - turbo_ghz) >= 1e-9:
            self._turbo_request_time[key] = now
        elif not is_turbo:
            self._turbo_request_time[key] = None
        if self._turbo_request_time[key] is None:
            self._pending_turbo.discard(key)
        else:
            self._pending_turbo.add(key)

    def set_socket_core_frequencies(
        self, socket_id: int, frequencies: dict[int, float], now: float
    ) -> None:
        """Request P-states for several cores of one socket at once.

        Equivalent to calling :meth:`set_core_frequency` per core, but
        with one version/fingerprint bump for the whole batch, and cores
        whose request is unchanged are skipped entirely — a duty-cycle
        re-application that moves only a few cores leaves the version
        untouched for the rest (consumers compare versions for equality
        only, so the bump *count* is not part of the contract).
        """
        turbo = self._socket_params[socket_id].core_turbo_ghz
        changed = False
        ladder = self._core_ladders[socket_id]
        for core_id, ghz in frequencies.items():
            value = ladder.validate(ghz)
            key = (socket_id, core_id)
            previous = self._core_request.get(key)
            if previous is None:
                raise ConfigurationError(
                    f"unknown core {core_id} on socket {socket_id}"
                )
            if previous == value:
                # A repeated request changes nothing: non-turbo values
                # keep their cleared dwell, a re-requested turbo keeps
                # its original request time (set_core_frequency only
                # stamps the time on a non-turbo -> turbo transition).
                continue
            self._core_request[key] = value
            changed = True
            if abs(value - turbo) < 1e-9:
                self._turbo_request_time[key] = now
                self._pending_turbo.add(key)
            else:
                self._turbo_request_time[key] = None
                self._pending_turbo.discard(key)
        if changed:
            self._version += 1
            self._fingerprint_socket_versions[socket_id] += 1

    def set_all_core_frequencies(self, ghz: float, now: float) -> None:
        """Request the same P-state for every physical core."""
        for socket_id, core_id in list(self._core_request):
            self.set_core_frequency(socket_id, core_id, ghz, now)

    def requested_core_frequency(self, socket_id: int, core_id: int) -> float:
        """The last requested frequency of a core."""
        return self._core_request[(socket_id, core_id)]

    def effective_core_frequency(
        self, socket_id: int, core_id: int, now: float
    ) -> float:
        """The frequency the core actually runs at time ``now``.

        Applies the energy-efficient turbo: under a powersave/balanced EPB
        the core dwells at the nominal frequency for
        :attr:`HaswellEPParameters.eet_delay_s` after a turbo request.
        """
        key = (socket_id, core_id)
        requested = self._core_request[key]
        params = self._socket_params[socket_id]
        if abs(requested - params.core_turbo_ghz) >= 1e-9:
            return requested
        if not self._core_epb(socket_id, core_id).delays_turbo:
            return requested
        since = self._turbo_request_time[key]
        if since is None or now - since >= params.eet_delay_s:
            return requested
        return params.core_nominal_ghz

    def _core_epb(self, socket_id: int, core_id: int) -> EnergyPerformanceBias:
        """EPB governing a core: PERFORMANCE only if all siblings request it."""
        if self._epb_cache_version != self._epb_version:
            self._epb_cache.clear()
            self._epb_cache_version = self._epb_version
        key = (socket_id, core_id)
        bias = self._epb_cache.get(key)
        if bias is not None:
            return bias
        core = self._topology.socket(socket_id).cores[core_id]
        biases = {self._epb[tid] for tid in core.thread_ids()}
        if biases == {EnergyPerformanceBias.PERFORMANCE}:
            bias = EnergyPerformanceBias.PERFORMANCE
        elif EnergyPerformanceBias.POWERSAVE in biases:
            bias = EnergyPerformanceBias.POWERSAVE
        else:
            bias = EnergyPerformanceBias.BALANCED
        self._epb_cache[key] = bias
        return bias

    def turbo_dwell_signature(self, socket_id: int, now: float) -> tuple[int, ...]:
        """Core ids of a socket still inside their EET dwell at ``now``.

        Together with :attr:`version`, this captures the only way an
        *effective* core frequency can change without a control-state
        mutation: the energy-efficient turbo dwell elapsing.  The machine's
        step-resolution cache keys on it.
        """
        if not self._pending_turbo:
            return ()
        delay = self._socket_params[socket_id].eet_delay_s
        dwelling = []
        for sid, core_id in self._pending_turbo:
            if sid != socket_id:
                continue
            since = self._turbo_request_time[(sid, core_id)]
            if since is None or now - since >= delay:
                continue
            if self._core_epb(sid, core_id).delays_turbo:
                dwelling.append(core_id)
        return tuple(sorted(dwelling))

    def next_dwell_expiry_s(self, now: float) -> float:
        """Earliest future time an EET dwell elapses (``inf`` if none).

        The dwell elapsing is the only machine-internal event that changes
        an effective frequency without a control-state mutation, so the
        macro-stepping runner must never leap across it.
        """
        if not self._pending_turbo:
            return float("inf")
        earliest = float("inf")
        for sid, core_id in self._pending_turbo:
            delay = self._socket_params[sid].eet_delay_s
            since = self._turbo_request_time[(sid, core_id)]
            if since is None or now - since >= delay:
                continue
            if self._core_epb(sid, core_id).delays_turbo:
                earliest = min(earliest, since + delay)
        return earliest

    # -- uncore clock ----------------------------------------------------------

    def set_uncore_frequency(self, socket_id: int, ghz: float) -> None:
        """Pin a socket's uncore clock to a fixed P-state.

        Re-pinning the already-pinned value is a no-op (no version bump).
        """
        if socket_id not in self._uncore_request:
            raise ConfigurationError(f"unknown socket id {socket_id}")
        value = self._uncore_ladders[socket_id].validate(ghz)
        if self._uncore_request[socket_id] == value:
            return
        self._uncore_request[socket_id] = value
        self._version += 1
        self._fingerprint_socket_versions[socket_id] += 1

    def set_uncore_auto(self, socket_id: int) -> None:
        """Hand the socket's uncore clock back to automatic UFS."""
        if socket_id not in self._uncore_request:
            raise ConfigurationError(f"unknown socket id {socket_id}")
        self._uncore_request[socket_id] = None
        self._version += 1
        self._fingerprint_socket_versions[socket_id] += 1

    def uncore_is_auto(self, socket_id: int) -> bool:
        """Whether automatic UFS controls this socket's uncore clock."""
        return self._uncore_request[socket_id] is None

    def effective_uncore_frequency(
        self, socket_id: int, socket_has_active_core: bool
    ) -> float:
        """Resolve the uncore clock of a socket.

        In automatic mode the hardware's UFS heuristic is reproduced as the
        paper measured it: the highest uncore frequency whenever any core
        of the socket is active (a poor decision for compute-bound work,
        Fig. 8) and the lowest frequency otherwise.  The heuristic is
        EPB-aware — when every thread of the socket carries the powersave
        bias, the hardware settles on the mid-ladder step instead of
        racing to the maximum (the measured Haswell-EP behaviour; the
        ``epb-only`` policy's entire saving comes from this).  Pinned mode
        returns the pinned value.  Whether the uncore may *halt* entirely
        is decided by the C-state model, not here.
        """
        requested = self._uncore_request[socket_id]
        if requested is not None:
            return requested
        ladder = self._uncore_ladders[socket_id]
        if not socket_has_active_core:
            return ladder.minimum
        if self.socket_bias_is_powersave(socket_id):
            steps = ladder.steps
            return steps[len(steps) // 2]
        return ladder.maximum

    def socket_bias_is_powersave(self, socket_id: int) -> bool:
        """Whether every hardware thread of a socket hints powersave.

        The package control unit only relaxes shared resources (the
        uncore clock) when no thread on the socket objects.
        """
        threads = self._topology.threads_on_socket(socket_id)
        return all(
            self._epb[tid] is EnergyPerformanceBias.POWERSAVE
            for tid in threads
        )

    # -- EPB -------------------------------------------------------------------

    def set_epb(self, thread_id: int, bias: EnergyPerformanceBias) -> None:
        """Set the energy-performance bias of one hardware thread."""
        if thread_id not in self._epb:
            raise ConfigurationError(f"unknown hardware thread id {thread_id}")
        self._epb[thread_id] = bias
        self._version += 1
        self._epb_version += 1
        socket_id = self._topology.thread(thread_id).socket_id
        self._fingerprint_socket_versions[socket_id] += 1

    def set_epb_all(self, bias: EnergyPerformanceBias) -> None:
        """Set the EPB of every hardware thread."""
        for thread_id in self._epb:
            self._epb[thread_id] = bias
        self._version += 1
        self._epb_version += 1
        for socket_id in self._fingerprint_socket_versions:
            self._fingerprint_socket_versions[socket_id] += 1

    def epb(self, thread_id: int) -> EnergyPerformanceBias:
        """The EPB currently set for a hardware thread."""
        if thread_id not in self._epb:
            raise ConfigurationError(f"unknown hardware thread id {thread_id}")
        return self._epb[thread_id]
