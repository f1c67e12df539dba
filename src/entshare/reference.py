"""Closed-form reference curves behind the bundled figure presets.

Figures 1 and 2 trace the assistance measure of the five-qubit W state across
the A|B1B2B3B4 cut on the polygamy side; figure 3 traces the concurrence of
the four-qubit W state on the monogamy side. The columns are the analytic
curves these states are known to produce, so the presets are exact and
byte-stable. First-principles evaluation of the same bounds (measured
components, all exact on W states) lives in the sweep command; the two are
kept separate because the presets do not match it: figure 1's residual terms
use w4 values for w5, and the ordering behind the weighted curves of figures
2 and 3 does not hold from first principles (ROADMAP item 5).

The bounds figures 2 and 3 plot, weighted_residual and exp_weighted, fail on
an exact table (an open finding): on the W-class state F, amplitudes
(4, 3, 6, 4, 4)/sqrt(93) on |0000>, |1000>, |0100>, |0010>, |0001>, with
m = 1 and every component exact, exp_weighted at y = 5.2 gives
0.041078 > lhs^y 0.037566 and weighted_residual at a = 0.8 gives
0.576712 < lhs^a 0.603585. The bounds module docstring names the failing step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import InvalidParameterError

# most points a grid or a threshold scan may have; a step typo such as 1e-12
# would otherwise ask for trillions of floats before anything is checked
MAX_GRID_POINTS = 1_000_000

_STEP = 0.01  # the grid step of every preset unless figure_rows is given one

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
    exponent_lo: float
    exponent_hi: float
    lhs: Callable[[float], float]
    bounds: tuple[tuple[str, Callable[[float], float]], ...]


FIGURES: dict[int, FigurePreset] = {
    1: FigurePreset(
        exponent_lo=0.0,
        exponent_hi=2.0,
        lhs=_fig1_lhs,
        bounds=(("base", _fig1_base), ("residual_max", _fig1_residual_max)),
    ),
    2: FigurePreset(
        exponent_lo=0.0,
        exponent_hi=2.0,
        lhs=_fig1_lhs,
        bounds=(("residual_max", _fig1_residual_max),
                ("weighted_residual", _fig2_weighted_residual)),
    ),
    3: FigurePreset(
        exponent_lo=2.0,
        exponent_hi=6.0,
        lhs=_fig3_lhs,
        bounds=(("ratio_weighted", _fig3_ratio_weighted), ("exp_weighted", _fig3_exp_weighted)),
    ),
}


def inclusive_grid(lo: float, hi: float, step: float) -> list[float]:
    """lo, lo + step, ... built from integer multiples of step to stay stable.

    hi is the last point when a multiple lands within 1e-9 of it; otherwise
    the grid ends at the last multiple below hi. A grid of more than
    MAX_GRID_POINTS points is rejected before it is built.
    """
    if not all(math.isfinite(x) for x in (lo, hi, step)):
        raise InvalidParameterError(f"grid {lo}:{hi}:{step} needs finite lo, hi and step")
    if step <= 0 or not lo < hi:
        raise InvalidParameterError(f"grid {lo}:{hi}:{step} needs step > 0 and lo < hi")
    # capped, so that an oversize (or overflowed) span is rejected before anything is built
    span = min((hi - lo) / step, MAX_GRID_POINTS)
    n = round(span)
    if abs(lo + n * step - hi) > 1e-9:
        n = int(span)
    if n >= MAX_GRID_POINTS:
        raise InvalidParameterError(f"grid {lo}:{hi}:{step} has more than {MAX_GRID_POINTS} points")
    return [lo + i * step for i in range(n + 1)]


def figure_rows(fig: int, step: float | None = None) -> tuple[list[str], list[list[float]]]:
    """Header and rows for one figure preset: exponent, lhs, then each bound."""
    preset = FIGURES[fig]
    header = ["exponent", "lhs"] + [name for name, _ in preset.bounds]
    rows = []
    grid = inclusive_grid(preset.exponent_lo, preset.exponent_hi, _STEP if step is None else step)
    for x in grid:
        rows.append([x, preset.lhs(x)] + [fn(x) for _, fn in preset.bounds])
    return header, rows
