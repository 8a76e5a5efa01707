"""The full hierarchical Energy-Control Loop, wired to a database engine.

``EnergyControlLoop`` owns one :class:`~repro.ecl.socket_ecl.SocketEcl`
per processor plus the single :class:`~repro.ecl.system_ecl.SystemEcl`,
builds the per-socket energy profiles from the configuration generator,
and charges its own (small) compute overhead against the engine.

Two ways to initialize the profiles:

* :meth:`EnergyControlLoop.bootstrap_multiplexed` — the honest runtime
  path: every configuration starts stale and the multiplexed adaptation
  sweeps through them using real (noisy) counter measurements.  This is
  what happens after any major workload change anyway.
* :meth:`EnergyControlLoop.warm_start_from_model` — fills the profiles
  from the analytical models in one shot.  Used by benchmarks that study
  steady-state behaviour and don't want to simulate the initial sweep;
  online adaptation keeps the entries honest afterwards.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING

from repro.errors import ControlError
from repro.dbms.engine import DatabaseEngine
from repro.hardware.perfmodel import WorkloadCharacteristics
from repro.profiles.configuration import Configuration
from repro.profiles.evaluate import measure_configuration
from repro.profiles.generator import ConfigurationGenerator, GeneratorParameters
from repro.profiles.profile import EnergyProfile
from repro.sim.metrics import SampleAnnotations
from repro.ecl.calibration import CalibrationResult, MetaCalibrator
from repro.ecl.socket_ecl import EclParameters, SocketEcl
from repro.ecl.system_ecl import SystemEcl
from repro.units import tick_grid

if TYPE_CHECKING:
    from repro.sim.runner import RunConfiguration


class EnergyControlLoop:
    """Hierarchical ECL (socket-level loops + system-level loop)."""

    def __init__(
        self,
        engine: DatabaseEngine,
        params: EclParameters | None = None,
        generator_params: GeneratorParameters | None = None,
    ):
        self.engine = engine
        self.machine = engine.machine
        self.params = params or EclParameters()
        self.generator_params = generator_params or GeneratorParameters()

        self.system = SystemEcl(
            engine.latency,
            latency_limit_s=self.params.latency_limit_s,
            check_interval_s=min(0.1, self.params.interval_s / 2),
        )
        #: The ECL's own compute overhead in instructions/s per socket —
        #: constant over a run (params and the nominal clock never
        #: change), so the per-tick hot path multiplies once instead of
        #: re-deriving it.  Per-socket because wimpy and brawny nodes
        #: clock their control threads differently.
        self._overhead_rate_ips = {
            sock.socket_id: (
                self.params.overhead_thread_fraction
                * self.machine.params_for(sock.socket_id).core_nominal_ghz
                * 1e9
            )
            for sock in self.machine.topology.sockets
        }
        #: Why :meth:`macro_view` last refused a span (telemetry).
        self.macro_cut: str = ""

        self.profiles: dict[int, EnergyProfile] = {}
        self.sockets: dict[int, SocketEcl] = {}
        for sock in self.machine.topology.sockets:
            sid = sock.socket_id
            generator = ConfigurationGenerator(
                self.machine.topology, self.machine.params_for(sid), sid,
                self.generator_params,
            )
            profile = EnergyProfile(generator.generate())
            self.profiles[sid] = profile
            self.sockets[sid] = SocketEcl(
                machine=self.machine,
                socket_id=sid,
                profile=profile,
                params=self.params,
                utilization_fn=self._utilization_fn(sid),
                time_to_violation_fn=self.system.time_to_violation_s,
                busy_fraction_fn=self._busy_fraction_fn(sid),
                backlog_fn=self._backlog_fn(sid),
            )
        self.calibration: CalibrationResult | None = None

    @classmethod
    def build(
        cls, engine: DatabaseEngine, config: "RunConfiguration"
    ) -> "EnergyControlLoop":
        """Control-policy factory (see :mod:`repro.sim.policy`).

        Initializes the profiles the way the run configuration asks:
        warm-started from the analytical model, or left stale for the
        honest multiplexed runtime sweep.
        """
        ecl = cls(
            engine,
            params=config.ecl_params,
            generator_params=config.generator_params,
        )
        if config.warm_start:
            ecl.warm_start_from_model(chars=config.workload.characteristics)
        else:
            ecl.bootstrap_multiplexed()
        return ecl

    def _utilization_fn(self, socket_id: int):
        def read(now_s: float) -> float:
            return self.engine.utilization.utilization(socket_id, now_s)

        return read

    def _busy_fraction_fn(self, socket_id: int):
        def read(now_s: float) -> float:
            return self.engine.utilization.busy_fraction(socket_id, now_s)

        return read

    def _backlog_fn(self, socket_id: int):
        hub = self.engine.hubs[socket_id]

        def read() -> float:
            return hub.pending_cost_instructions()

        return read

    # -- initialization -----------------------------------------------------------

    def calibrate(self, socket_id: int = 0) -> CalibrationResult:
        """Run the meta calibration and adopt its apply/measure times.

        Mutates the machine (it steps time); run before query processing
        starts, as the paper's ECL does once at startup.
        """
        result = MetaCalibrator(self.machine, socket_id).run()
        self.calibration = result
        object.__setattr__(self.params, "apply_time_s", result.apply_time_s)
        object.__setattr__(self.params, "measure_time_s", result.measure_time_s)
        return result

    def apply_baseline(self) -> None:
        """Start from the uncontrolled state: everything on, max clocks."""
        for sock in self.machine.topology.sockets:
            params = self.machine.params_for(sock.socket_id)
            socket = self.machine.topology.socket(sock.socket_id)
            config = Configuration.build(
                sock.socket_id,
                set(socket.thread_ids()),
                {c.core_id: params.core_nominal_ghz for c in socket.cores},
                params.uncore_max_ghz,
            )
            config.apply(self.machine)

    def bootstrap_multiplexed(self) -> None:
        """Leave all profile entries stale for the runtime sweep."""
        for profile in self.profiles.values():
            profile.mark_all_stale()
        self.apply_baseline()

    def warm_start_from_model(
        self,
        chars: WorkloadCharacteristics | None = None,
        chars_by_socket: dict[int, WorkloadCharacteristics] | None = None,
    ) -> None:
        """Fill every profile from the analytical models (fast start).

        Raises:
            ControlError: when neither characteristics source is given.
        """
        if chars is None and chars_by_socket is None:
            raise ControlError(
                "warm start needs chars= or chars_by_socket="
            )
        for sid, profile in self.profiles.items():
            socket_chars = (
                chars_by_socket[sid] if chars_by_socket is not None else chars
            )
            assert socket_chars is not None
            for configuration in profile.configurations():
                measurement = measure_configuration(
                    self.machine, configuration, socket_chars
                )
                profile.record(configuration, measurement)
            os_idle = measure_configuration(
                self.machine,
                profile.idle_configuration,
                socket_chars,
                assume_machine_idle_for_idle=False,
            )
            profile.os_idle_power_w = os_idle.power_w
        self.apply_baseline()

    # -- main loop -----------------------------------------------------------------

    def on_tick(self, now_s: float, dt_s: float) -> None:
        """Run all loops for the upcoming tick; call before engine.tick."""
        self.system.on_tick(now_s)
        overhead = self.engine.overhead_balances()
        for sid, socket_ecl in self.sockets.items():
            if socket_ecl.drained:
                # The socket-level loop's thread is parked along with its
                # socket; it neither decides nor costs anything.
                continue
            socket_ecl.on_tick(now_s)
            overhead[sid] += self._overhead_rate_ips[sid] * dt_s

    def macro_view(
        self, now_s: float, dt_s: float
    ) -> tuple[float, dict[int, float]] | None:
        """Steady-state span program for the macro-stepping runner.

        Returns ``(horizon_s, tick_charges)`` promising that for every
        tick starting strictly before ``horizon_s`` on which the
        simulation state does not otherwise change, :meth:`on_tick` is
        exactly equivalent to charging ``tick_charges[sid]`` overhead
        instructions per socket — no decisions, no reconfigurations, no
        counter or RNG activity.  The horizon folds every scheduled
        control event: the system-level check, each socket loop's
        interval deadline, its RTI phase flips, and the phase transitions
        of any in-flight multiplexed measurement slot (see
        :meth:`SocketEcl.macro_horizon_s`).  ``None`` means some loop
        acts on the very next tick and it must run live; the reason is
        left in :attr:`macro_cut` for span-cut attribution.

        The system-level latency check deliberately does NOT bound the
        horizon: it is exactly replayable after the fact (see
        :meth:`macro_replay`), so spans leap across it.
        """
        horizon = float("inf")
        charges: dict[int, float] = {}
        for sid, socket_ecl in self.sockets.items():
            if socket_ecl.drained:
                continue  # stood down: no decisions and no overhead
            h = socket_ecl.macro_horizon_s(now_s)
            if h is None:
                self.macro_cut = socket_ecl.macro_cut
                return None
            if h < horizon:
                horizon = h
            charges[sid] = self._overhead_rate_ips[sid] * dt_s
        return horizon, charges

    def macro_step_tick(self, now_s: float, dt_s: float) -> bool:
        """Replay one hardware-inert control tick inside a macro span.

        Called by the composite span executor when :meth:`macro_view`
        refuses because some loop acts on the very next tick.  If every
        non-drained socket loop's action is *replayable* — a no-op or a
        counter-window open, i.e. RNG reads but no machine mutation (see
        :meth:`SocketEcl.macro_tick_replayable`) — this runs the control
        phase of the tick at ``now_s`` exactly as the live pipeline
        would (system check first, then the socket loops in dict order,
        preserving RNG draw order) and returns True; the runner then
        continues the span across the tick.  Returns False, touching
        nothing, when any loop's action mutates hardware state and the
        tick must run live.

        No overhead is charged here: the tick itself is committed by the
        *following* span segment, whose per-tick charges cover it — or
        by the live fallback, where :meth:`on_tick` re-runs as a pure
        no-op (every action taken here is idempotent at the same
        timestamp) and charges normally.
        """
        live = [s for s in self.sockets.values() if not s.drained]
        for socket_ecl in live:
            if not socket_ecl.macro_tick_replayable(now_s):
                return False
        self.system.on_tick(now_s)
        for socket_ecl in live:
            socket_ecl.on_tick(now_s)
        return True

    def macro_replay(self, start_s: float, dt_s: float, n_ticks: int) -> None:
        """Replay the system-level latency checks of a committed span.

        The socket loops are provably inert across a span (that is what
        :meth:`macro_view`'s horizon promised), but the system check has
        its own cadence and *does* fire inside long spans.  Firing it at
        the exact tick times the per-tick path would have used is
        bit-identical to ticking through: the latency tracker is frozen
        in-span (no completions), non-fire ticks are pure deadline
        comparisons, and its published time-to-violation is only read at
        the socket loops' interval decisions — which always land on live
        ticks.  The tick grid is the engine's own
        :func:`~repro.units.tick_grid` fold, so the fire times match bit
        for bit.
        """
        system = self.system
        # Fast exit with a coarse overestimate of the span end; the 1 ms
        # slack dwarfs the fold's accumulated rounding error.
        if system.next_check_s > start_s + (n_ticks + 1) * dt_s + 1e-3:
            return
        # The skipped control phases ran at start_s, start_s + dt_s, ...:
        # the span's first tick replaces the control phase at ``start_s``
        # itself (the attempt happens where that phase would have run),
        # so the grid starts there — not one tick later, which would
        # fire a check due exactly at the span boundary one tick late.
        times = tick_grid(start_s, dt_s, n_ticks)[:-1].tolist()
        j = 0
        while True:
            target = system.next_check_s
            # Land at or just before the first due tick, then settle on
            # it with the deadline's own predicate (bisect alone could
            # land one tick off within float rounding).
            j = bisect_left(times, target - 2e-12, j)
            while j < n_ticks and times[j] + 1e-12 < target:
                j += 1
            if j >= n_ticks:
                return
            system.on_tick(times[j])
            j += 1

    def annotate_sample(self) -> SampleAnnotations:
        """Per-socket demanded levels and applied configurations."""
        return SampleAnnotations(
            performance_levels=tuple(
                self.sockets[sid].performance_level
                for sid in sorted(self.sockets)
            ),
            applied=tuple(
                (
                    cfg.describe()
                    if (cfg := self.sockets[sid].applied_configuration)
                    else "none"
                )
                for sid in sorted(self.sockets)
            ),
        )
