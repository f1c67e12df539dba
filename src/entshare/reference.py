"""Closed-form reference curves behind the bundled figure presets.

Figures 1 and 2 trace the assistance measure of the five-qubit W state across
the A|B1B2B3B4 cut on the polygamy side; figure 3 traces the concurrence of
the four-qubit W state on the monogamy side. The columns are the analytic
curves these states are known to produce, so the presets are exact and
byte-stable. First-principles evaluation of the same bounds (measured
components, optimizer estimates where needed) lives in the sweep command;
the two are intentionally kept separate because the residual components
behind figure 2's weighted curve are not reproducible from the two-party
marginal values alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import InvalidParameterError

SQ2 = math.sqrt(2.0)
SQ3 = math.sqrt(3.0)


def _fig1_lhs(a: float) -> float:
    return 0.8**a


def _fig1_base(a: float) -> float:
    return 4.0 * 0.4**a


def _fig1_residual_max(a: float) -> float:
    return 4.0 * 0.4**a - 3.0 * 0.5**a + (SQ3 / 2.0) ** a


def _fig2_weighted_residual(a: float) -> float:
    return (3.0 * (2.0 * SQ2 / 5.0) ** a - 2.0 * 0.4**a - 2.0 * 0.5 ** (a / 2.0)
            + 0.5**a + (SQ3 / 2.0) ** a)


def _fig3_lhs(y: float) -> float:
    return (SQ3 / 2.0) ** y


def _fig3_ratio_weighted(y: float) -> float:
    return (SQ2 / 2.0) ** y + (y / 2.0) * 0.5**y


def _fig3_exp_weighted(y: float) -> float:
    return (SQ2 / 2.0) ** y + (2.0 ** (y / 2.0) - 1.0) * 0.5**y


@dataclass(frozen=True)
class FigurePreset:
    name: str
    side: str
    exponent_lo: float
    exponent_hi: float
    step: float
    lhs: Callable[[float], float]
    bounds: tuple[tuple[str, Callable[[float], float]], ...]


FIGURES: dict[int, FigurePreset] = {
    1: FigurePreset(
        name="w5 assistance, power-sum vs residual-tightened upper bounds",
        side="polygamy",
        exponent_lo=0.0,
        exponent_hi=2.0,
        step=0.01,
        lhs=_fig1_lhs,
        bounds=(("base", _fig1_base), ("residual_max", _fig1_residual_max)),
    ),
    2: FigurePreset(
        name="w5 assistance, residual-tightened vs weighted-residual upper bounds",
        side="polygamy",
        exponent_lo=0.0,
        exponent_hi=2.0,
        step=0.01,
        lhs=_fig1_lhs,
        bounds=(("residual_max", _fig1_residual_max),
                ("weighted_residual", _fig2_weighted_residual)),
    ),
    3: FigurePreset(
        name="w4 concurrence, ratio-weighted vs exponential-weighted lower bounds",
        side="monogamy",
        exponent_lo=2.0,
        exponent_hi=6.0,
        step=0.01,
        lhs=_fig3_lhs,
        bounds=(("ratio_weighted", _fig3_ratio_weighted), ("exp_weighted", _fig3_exp_weighted)),
    ),
}


def inclusive_grid(lo: float, hi: float, step: float) -> list[float]:
    """lo, lo + step, ... built from integer multiples of step to stay stable.

    hi is the last point when a multiple lands within 1e-9 of it; otherwise
    the grid ends at the last multiple below hi.
    """
    if not all(math.isfinite(x) for x in (lo, hi, step)):
        raise InvalidParameterError(f"grid {lo}:{hi}:{step} needs finite lo, hi and step")
    if step <= 0 or not lo < hi:
        raise InvalidParameterError(f"grid {lo}:{hi}:{step} needs step > 0 and lo < hi")
    n = round((hi - lo) / step)
    if abs(lo + n * step - hi) > 1e-9:
        n = int((hi - lo) / step)
    return [lo + i * step for i in range(n + 1)]


def figure_rows(fig: int, step: float | None = None) -> tuple[list[str], list[list[float]]]:
    """Header and rows for one figure preset: exponent, lhs, then each bound."""
    preset = FIGURES[fig]
    header = ["exponent", "lhs"] + [name for name, _ in preset.bounds]
    rows = []
    grid = inclusive_grid(preset.exponent_lo, preset.exponent_hi,
                          preset.step if step is None else step)
    for x in grid:
        rows.append([x, preset.lhs(x)] + [fn(x) for _, fn in preset.bounds])
    return header, rows
