"""Calibrated parameter presets for the simulated server.

The :class:`HaswellEPParameters` bundle holds every constant of the power
and performance models.  The default values are calibrated so the
simulator reproduces the qualitative measurements of Section 2 of the
paper on the 2-socket Xeon E5-2690 v3 testbed (see DESIGN.md §5):

* core clocks 1.2–2.6 GHz plus a 3.1 GHz turbo step, uncore 1.2–3.0 GHz;
* halting the uncore clock (possible only when all sockets are idle)
  power-gates the LLC and saves up to ~30 W per socket;
* activating the first core of a socket is expensive (it drags the uncore
  out of its halt state), additional cores are cheap, HT siblings almost
  free;
* memory bandwidth is governed by the uncore clock and saturates near its
  peak already at the lowest core P-state;
* idle system power is ~18 % of peak, and the PSU adds ~15 % overhead that
  RAPL cannot see.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

from repro.errors import HardwareError


def _default_core_pstates() -> tuple[float, ...]:
    """1.2–2.6 GHz in 100 MHz steps plus the 3.1 GHz turbo frequency."""
    steps = [round(1.2 + 0.1 * i, 1) for i in range(15)]  # 1.2 .. 2.6
    steps.append(3.1)
    return tuple(steps)


def _default_uncore_pstates() -> tuple[float, ...]:
    """1.2–3.0 GHz in 100 MHz steps."""
    return tuple(round(1.2 + 0.1 * i, 1) for i in range(19))  # 1.2 .. 3.0


@dataclass(frozen=True)
class HaswellEPParameters:
    """All model constants for one simulated server platform.

    The defaults describe the paper's 2-socket Haswell-EP machine.  Every
    field is a plain number so alternative platforms (or sensitivity
    studies) can be expressed as ``dataclasses.replace`` calls.
    """

    # ---- topology -----------------------------------------------------
    socket_count: int = 2
    cores_per_socket: int = 12
    threads_per_core: int = 2

    # ---- clock domains --------------------------------------------------
    core_pstates_ghz: tuple[float, ...] = field(
        default_factory=_default_core_pstates
    )
    uncore_pstates_ghz: tuple[float, ...] = field(
        default_factory=_default_uncore_pstates
    )
    core_nominal_ghz: float = 2.6
    core_turbo_ghz: float = 3.1
    #: Delay before the energy-efficient turbo engages under the
    #: powersave/balanced EPB (Fig. 7 measures ~1 s).
    eet_delay_s: float = 1.0

    # ---- voltage / core power ------------------------------------------
    #: Supply voltage at the lowest / nominal / turbo core frequency; the
    #: model interpolates linearly in frequency between these points.
    core_volt_min: float = 0.70
    core_volt_nominal: float = 1.00
    core_volt_turbo: float = 1.12
    #: Effective switched capacitance of one physical core, scaled so that
    #: a core at 2.6 GHz / 1.0 V running full-tilt draws ~6.5 W.
    core_cdyn_w_per_ghz_v2: float = 2.5
    #: Static (leakage) power of a powered-on core, per volt of supply.
    core_leak_w_per_v: float = 0.9
    #: Extra dynamic power when the HT sibling is also active (shared
    #: pipeline — Fig. 4 shows HT activation is nearly free).
    ht_sibling_power_factor: float = 0.08
    #: Fraction of a busy core's dynamic power drawn while idling in C1
    #: (clock gated but not power gated).
    c1_residual_factor: float = 0.30

    # ---- uncore / LLC power ---------------------------------------------
    #: Uncore power with the clock halted (deep package sleep, LLC gated).
    uncore_halted_w: float = 4.5
    #: Uncore power at the minimum (1.2 GHz) and maximum (3.0 GHz) uncore
    #: clock.  Fig. 8: 3.0 GHz draws +12 W over 1.2 GHz; Fig. 4/5: waking
    #: the uncore from halt costs up to ~30 W at high uncore clocks.
    uncore_active_min_w: float = 19.0
    uncore_active_max_w: float = 31.0
    #: Additional uncore dynamic power per GB/s of memory traffic served.
    uncore_w_per_gbs: float = 0.08
    #: Socket-1 static offset: the paper measured the second socket drawing
    #: slightly less than the first and could not explain why.  We carry the
    #: asymmetry as a constant subtraction per socket index.
    socket_static_asymmetry_w: float = 1.5

    # ---- package / DRAM power -------------------------------------------
    #: Always-on package power (fabric, IO, PCU) even in the deepest state.
    package_base_w: float = 8.0
    #: DRAM background power per socket (refresh for 128 GB of LRDIMMs).
    dram_static_w: float = 11.0
    #: DRAM dynamic power per GB/s of traffic.
    dram_w_per_gbs: float = 0.45
    #: PSU / fans / board overhead added on top of what RAPL can see
    #: (Fig. 3 measures ~15 % under load) plus a fixed board draw.
    psu_overhead_factor: float = 0.15
    psu_static_w: float = 18.0

    # ---- memory system performance --------------------------------------
    #: Peak memory bandwidth per socket at the maximum uncore clock.
    peak_bandwidth_gbs: float = 56.0
    #: Fraction of peak bandwidth still available at the minimum uncore
    #: clock (bandwidth scales roughly linearly with the uncore in between).
    min_uncore_bandwidth_fraction: float = 0.42
    #: Average DRAM access latency (ns) at max uncore clock; the
    #: uncore-sensitive share grows as the uncore slows down.
    mem_latency_ns: float = 90.0
    #: Portion of the access latency spent in LLC/ring/memory controller,
    #: i.e. the part that stretches when the uncore clock drops.
    mem_latency_uncore_fraction: float = 0.30
    #: Cost (ns) of transferring ownership of a contended cache line
    #: between two cores at max uncore clock.
    cacheline_transfer_ns: float = 60.0
    #: Memory-controller thrashing: when more request streams than
    #: physical cores (i.e. HyperThread siblings of already-streaming
    #: cores) oversubscribe the bandwidth, row-buffer conflicts and
    #: controller-queue interleaving shrink the *effective* bandwidth by
    #: 1/(1 + penalty * excess_stream_fraction * (oversubscription - 1)).
    #: One stream per core at any clock still reaches full bandwidth
    #: (Fig. 6), but the all-threads baseline is *slower* than the ECL's
    #: lean configuration on bandwidth-bound work (section 6.1, Fig. 13).
    bandwidth_contention_penalty: float = 0.35
    #: Floor of the thrashing degradation (worst-case efficiency).
    bandwidth_contention_floor: float = 0.65

    # ---- RAPL counter behaviour ------------------------------------------
    #: RAPL registers update at this period; reads between updates return
    #: the last published value (the paper observed ~1 s lag in Fig. 7
    #: time series and strong noise below 100 ms windows in Fig. 12).
    rapl_update_period_s: float = 0.001
    #: Quantization of the energy counter (energy status unit, ~15.3 µJ on
    #: real Haswell; we keep a coarser value so noise is visible).
    rapl_energy_unit_j: float = 6.1e-5
    #: Standard deviation of multiplicative measurement noise for a 100 ms
    #: window; shorter windows scale the noise up as sqrt(0.1 / window).
    rapl_noise_std_at_100ms: float = 0.010
    #: Extra absolute noise (J) injected right after a configuration switch,
    #: mimicking the stale-register effects the paper saw when switching to
    #: the lowest configuration.
    rapl_switch_noise_j: float = 0.5

    # ---- thermal limits ---------------------------------------------------
    #: Sustained package power limit (PL1/TDP) per socket; turbo operation
    #: above this drains the thermal budget.
    tdp_w: float = 135.0
    #: Seconds a socket can run above TDP before throttling to the nominal
    #: clock (the paper's ~1 s 500 W turbo transient).
    thermal_budget_s: float = 1.0
    #: Budget recovered per second while running below TDP.
    thermal_recovery_rate: float = 0.5

    # ---- knob transition costs -------------------------------------------
    #: Time for a P-state (frequency) change to take effect.
    pstate_transition_s: float = 20e-6
    #: Time for waking a core from a deep C-state.
    cstate_wake_s: float = 40e-6

    @property
    def core_min_ghz(self) -> float:
        """Lowest core P-state."""
        return self.core_pstates_ghz[0]

    @property
    def core_max_ghz(self) -> float:
        """Highest core P-state including turbo."""
        return self.core_pstates_ghz[-1]

    @property
    def uncore_min_ghz(self) -> float:
        """Lowest uncore P-state."""
        return self.uncore_pstates_ghz[0]

    @property
    def uncore_max_ghz(self) -> float:
        """Highest uncore P-state."""
        return self.uncore_pstates_ghz[-1]

    @property
    def threads_per_socket(self) -> int:
        """Hardware threads per socket."""
        return self.cores_per_socket * self.threads_per_core

    @property
    def total_threads(self) -> int:
        """Hardware threads in the machine."""
        return self.socket_count * self.threads_per_socket


def haswell_ep_two_socket() -> HaswellEPParameters:
    """Return the default parameter set for the paper's 2-socket testbed."""
    return HaswellEPParameters()


def _wimpy_core_pstates() -> tuple[float, ...]:
    """0.8–1.6 GHz in 100 MHz steps plus a shallow 1.8 GHz turbo."""
    steps = [round(0.8 + 0.1 * i, 1) for i in range(9)]  # 0.8 .. 1.6
    steps.append(1.8)
    return tuple(steps)


def _wimpy_uncore_pstates() -> tuple[float, ...]:
    """0.8–1.8 GHz in 100 MHz steps."""
    return tuple(round(0.8 + 0.1 * i, 1) for i in range(11))  # 0.8 .. 1.8


def wimpy_node() -> HaswellEPParameters:
    """A low-TDP "wimpy" node in the Schall & Härder sense.

    One small-core socket per node: fewer, slower cores with a shallow
    turbo step, a narrow uncore, modest memory bandwidth, and a small
    fixed power floor.  Its peak efficiency is close to the brawny
    Haswell-EP node, but its *dynamic range* is tiny — which is exactly
    why wimpy clusters only pay off when whole nodes can be powered off
    (PAPERS.md: "Can a Wimpy-Node Cluster Challenge a Brawny Server?").
    """
    return replace(
        HaswellEPParameters(),
        socket_count=1,
        cores_per_socket=4,
        threads_per_core=2,
        core_pstates_ghz=_wimpy_core_pstates(),
        uncore_pstates_ghz=_wimpy_uncore_pstates(),
        core_nominal_ghz=1.6,
        core_turbo_ghz=1.8,
        core_volt_min=0.62,
        core_volt_nominal=0.85,
        core_volt_turbo=0.92,
        core_cdyn_w_per_ghz_v2=1.1,
        core_leak_w_per_v=0.4,
        uncore_halted_w=1.2,
        uncore_active_min_w=4.5,
        uncore_active_max_w=8.0,
        uncore_w_per_gbs=0.05,
        socket_static_asymmetry_w=0.0,
        package_base_w=3.0,
        dram_static_w=4.0,
        dram_w_per_gbs=0.30,
        psu_overhead_factor=0.12,
        psu_static_w=6.0,
        peak_bandwidth_gbs=17.0,
        min_uncore_bandwidth_fraction=0.5,
        mem_latency_ns=110.0,
        cacheline_transfer_ns=80.0,
        tdp_w=20.0,
    )


# --------------------------------------------------------------------------
# Preset registry: the name → parameter-set mapping the cluster layer and
# the CLI resolve hardware through (mirrors the policy/placement
# registries in repro.sim.policy / repro.placement.policy).
# --------------------------------------------------------------------------

_PRESETS: dict[str, Callable[[], HaswellEPParameters]] = {}


def register_preset(
    name: str, factory: Callable[[], HaswellEPParameters]
) -> None:
    """Register a named hardware preset.

    Raises:
        HardwareError: if the name is already taken.
    """
    if name in _PRESETS:
        raise HardwareError(f"hardware preset {name!r} already registered")
    _PRESETS[name] = factory


def get_preset(name: str) -> HaswellEPParameters:
    """Build the parameter set of a registered preset.

    Raises:
        HardwareError: for unknown preset names.
    """
    try:
        factory = _PRESETS[name]
    except KeyError:
        raise HardwareError(
            f"unknown hardware preset {name!r}; "
            f"registered: {', '.join(sorted(_PRESETS))}"
        ) from None
    return factory()


register_preset("haswell_ep", haswell_ep_two_socket)
register_preset("wimpy_node", wimpy_node)
