"""Bracketed root finding for exponent thresholds.

Scan-then-bisect: a uniform scan locates the first sign change, bisection
shrinks that bracket. Robust on the smooth but non-monotone residual
functions this toolkit produces, and deterministic.

Both threshold kinds take a ComponentTable, which carries the state, the
measure and the optimizer settings, and are one scan (_scan) of
bound(a) - lhs^a from a single-bound polygamy BoundPlan on the table, on
[max(tol, SCAN_FLOOR), hi]: residual-zero scans the three-party `base` bound
(the residual Q_AB^a + Q_AC^a - Q_A|BC^a) up to beta_max; empirical-beta
scans its bound up to the cap, shifted by the bound's
bounds.comparison_tol. Every argument is checked before any component is
measured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bounds import BASE, POLYGAMY, RESIDUAL_MAX, BoundPlan, ComponentTable
from .bounds import bound_value  # noqa: F401  (bench/tracing.py wraps thresholds.bound_value)
from .errors import EvaluationError, InvalidParameterError
from .reference import MAX_GRID_POINTS

DEFAULT_TOL = 1e-6
DEFAULT_SCAN_STEPS = 256
DEFAULT_SEARCH_CAP = 4.0
SCAN_FLOOR = 1e-4  # lowest scanned exponent


@dataclass(frozen=True)
class ThresholdResult:
    root: float
    bracket: tuple[float, float]
    iterations: int
    residual_at_root: float
    scan_profile: tuple[tuple[float, float], ...]

    def to_dict(self) -> dict:
        return {
            "root": self.root,
            "bracket": list(self.bracket),
            "iterations": self.iterations,
            "residual_at_root": self.residual_at_root,
            "scan_profile": [list(p) for p in self.scan_profile],
        }


def _check_scan_steps(scan_steps: int) -> None:
    if not 8 <= scan_steps < MAX_GRID_POINTS:
        raise InvalidParameterError(f"scan_steps must be in 8..{MAX_GRID_POINTS - 1}")


def find_zero(f, lo: float, hi: float, tol: float = DEFAULT_TOL,
              scan_steps: int = DEFAULT_SCAN_STEPS) -> ThresholdResult | None:
    """Smallest root of f in [lo, hi], or None when the scan sees no sign change."""
    _check_scan_steps(scan_steps)
    if not lo < hi:
        raise InvalidParameterError(f"invalid range [{lo}, {hi}]")
    xs = [lo + (hi - lo) * i / scan_steps for i in range(scan_steps + 1)]
    profile = []
    for x in xs:
        v = f(x)
        if not math.isfinite(v):
            raise EvaluationError(f"function returned non-finite value at {x}", at=x)
        profile.append((x, v))

    bracket = None
    for (x0, v0), (x1, v1) in zip(profile, profile[1:]):
        if v0 == 0.0:
            return ThresholdResult(x0, (x0, x0), 0, 0.0, tuple(profile))
        if v0 * v1 < 0:
            bracket = (x0, v0, x1, v1)
            break
    else:
        if profile[-1][1] == 0.0:
            x = profile[-1][0]
            return ThresholdResult(x, (x, x), 0, 0.0, tuple(profile))
        return None

    a, fa, b, fb = bracket
    iterations = 0
    while b - a > tol:
        mid = 0.5 * (a + b)
        fm = f(mid)
        if not math.isfinite(fm):
            raise EvaluationError(f"function returned non-finite value at {mid}", at=mid)
        iterations += 1
        if fm == 0.0:
            a = b = mid
            fa = fb = fm
            break
        if fa * fm < 0:
            b, fb = mid, fm
        else:
            a, fa = mid, fm
        if iterations > 200:
            break
    root = 0.5 * (a + b)
    return ThresholdResult(root, (a, b), iterations, f(root), tuple(profile))


def _scan(table: ComponentTable, bound_id: str, hi: float, tol: float, scan_steps: int,
          shifted: bool = False) -> ThresholdResult | None:
    """Smallest root of bound(a) - lhs^a (+ its tolerance if shifted) on [lo, hi], or None.

    Arguments are checked before any component is measured. A shifted scan
    violated at lo has no root, nor has a base bound whose marginals all vanish.
    """
    _check_scan_steps(scan_steps)
    if not 0 < tol < math.inf:
        raise InvalidParameterError(f"tol must be a positive finite number, got {tol}")
    lo = max(tol, SCAN_FLOOR)
    if not lo < hi < math.inf:
        raise InvalidParameterError(f"invalid range [{lo}, {hi}]")
    plan = BoundPlan(table, POLYGAMY, (bound_id,))
    lhs = plan.lhs.value
    if bound_id == BASE and not any(table.marginal(b).value for b in range(1, table.n_b + 1)):
        return None
    shift = plan.tol[bound_id] if shifted else 0.0

    def f(alpha):
        return plan.values(alpha)[0] - lhs**alpha + shift

    result = find_zero(f, lo, hi, tol=tol, scan_steps=scan_steps)
    if result is not None and shifted and result.scan_profile[0][1] < 0:
        return None  # violated from the start: no transition inside the range
    return result


def residual_zero_exponent(table: ComponentTable, tol: float = DEFAULT_TOL,
                           scan_steps: int = DEFAULT_SCAN_STEPS) -> ThresholdResult | None:
    """Exponent where the three-party residual of the table changes sign, or None.

    None covers both fixed-sign residuals and the degenerate case of states
    whose pairwise components vanish; the table keeps the components read.
    """
    if table.n_b != 2:
        raise InvalidParameterError("residual-zero threshold is defined for three parties")
    return _scan(table, BASE, table.measure.beta_max, tol, scan_steps)


_BETA_BOUND_IDS = (BASE, RESIDUAL_MAX)


def empirical_beta(table: ComponentTable, bound_id: str = RESIDUAL_MAX,
                   tol: float = DEFAULT_TOL, scan_steps: int = DEFAULT_SCAN_STEPS,
                   search_cap: float = DEFAULT_SEARCH_CAP) -> ThresholdResult | None:
    """Largest exponent at which the chosen upper bound still holds on the table.

    Solved as the smallest root of bound(a) - lhs^a + tol, with tol the
    bound's comparison tolerance: states that saturate the bound make the
    plain difference identically zero on the valid range, so the shifted
    function is what actually changes sign at the transition to violation.
    Returns None when no transition occurs below the cap.
    """
    if bound_id not in _BETA_BOUND_IDS:
        raise InvalidParameterError(f"empirical beta supports bounds {_BETA_BOUND_IDS}")
    return _scan(table, bound_id, search_cap, tol, scan_steps, shifted=True)
