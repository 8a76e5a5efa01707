"""Per-run carbon/cost accounting, bit-identical across stepping modes.

The runner charges one increment per tick::

    wall_j  = psu_power_w * pue * tick_s          # facility wall energy
    gco2_g += wall_j * carbon(t_start) / 3.6e6    # gCO2/kWh -> gCO2/J
    cost   += wall_j * price(t_start)  / 3.6e6

and a macro span must accumulate exactly the same float sequence as the
per-tick loop it replaces.  Both paths therefore share one fold: the
increments are computed vectorized over the span's tick-*start* grid —
the :func:`~repro.units.tick_grid` fold the machine's span clock uses,
so the evaluation times match the per-tick ``time_s`` values
bit-for-bit — and reduced with ``np.add.accumulate``, a strict
sequential left fold identical to repeated ``+=``.  A per-tick call is
simply the one-element case of the same code.

Signals are evaluated at tick-start times (the ``now_s`` each live tick
sees); a signal change mid-tick charges from the next tick on, in both
modes, which is also why spans need no cap for *accounting* — the cap
exists so policy scalar reads and trace events land on live ticks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.units import tick_grid

if TYPE_CHECKING:
    from repro.environment.scenario import Environment

#: 1 kWh in joules — converts per-kWh signal units to per-joule rates.
JOULES_PER_KWH = 3.6e6


def _accumulate(total: float, increments: np.ndarray) -> float:
    """Sequential left fold of ``increments`` onto ``total`` (≡ ``+=``)."""
    return float(np.add.accumulate(np.concatenate(([total], increments)))[-1])


class EnvironmentAccounting:
    """Accumulates facility wall energy, carbon, and cost for one run."""

    __slots__ = ("environment", "wall_energy_j", "gco2_total_g", "cost_usd")

    def __init__(self, environment: "Environment"):
        self.environment = environment
        #: PUE-inflated wall energy in joules (PSU output × PUE × time).
        self.wall_energy_j = 0.0
        #: Total grams of CO₂ attributed to the run so far.
        self.gco2_total_g = 0.0
        #: Total electricity cost in dollars so far.
        self.cost_usd = 0.0

    def account_tick(
        self, now_s: float, dt_s: float, psu_power_w: float
    ) -> None:
        """Charge one live tick starting at ``now_s``."""
        self._fold(np.array([now_s], dtype=np.float64), dt_s, psu_power_w)

    def account_span(
        self, start_s: float, dt_s: float, n_ticks: int, psu_power_w: float
    ) -> None:
        """Charge a committed macro span of ``n_ticks`` ticks.

        ``psu_power_w`` is constant across a span by the engine's
        steady-state validity fold — the same invariant that lets the
        machine hold ``psu_power_w`` fixed over ``span_step``.
        """
        self._fold(tick_grid(start_s, dt_s, n_ticks)[:-1], dt_s, psu_power_w)

    def _fold(
        self, tick_starts_s: np.ndarray, dt_s: float, psu_power_w: float
    ) -> None:
        environment = self.environment
        wall_j = psu_power_w * environment.pue * dt_s
        carbon = environment.carbon.values(tick_starts_s)
        price = environment.price.values(tick_starts_s)
        self.wall_energy_j = _accumulate(
            self.wall_energy_j, np.full(tick_starts_s.shape, wall_j)
        )
        self.gco2_total_g = _accumulate(
            self.gco2_total_g, (wall_j * carbon) / JOULES_PER_KWH
        )
        self.cost_usd = _accumulate(
            self.cost_usd, (wall_j * price) / JOULES_PER_KWH
        )
