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
bounds.comparison_tol. Each point is one call of BoundPlan.gap_function: the
plan's compiled pass and the lhs power, with no table lookup. find_zero
checks each value as it comes, so f is never called past the first
non-finite one (EvaluationError). Every argument is checked before any
component is measured. A scan point at which a component power or the weight
overflows a float raises InvalidParameterError (exit 2), and so does one at
which only the lhs power (BoundPlan.lhs_power) does, each with its own
message. A scan without a root raises NoRootError (exit 3), whose message
says why.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bounds import BASE, POLYGAMY, RESIDUAL_MAX, BoundPlan, ComponentTable, bound_sweep
from .bounds import bound_value  # noqa: F401  (bench/tracing.py wraps thresholds.bound_value)
from .errors import EvaluationError, InvalidParameterError, NoRootError
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


def _check_scan_steps(scan_steps: int) -> None:
    if not 8 <= scan_steps < MAX_GRID_POINTS:
        raise InvalidParameterError(f"scan_steps must be in 8..{MAX_GRID_POINTS - 1}")


def _non_finite(x: float) -> EvaluationError:
    return EvaluationError(f"function returned non-finite value at {x}", at=x)


def find_zero(f, lo: float, hi: float, tol: float = DEFAULT_TOL,
              scan_steps: int = DEFAULT_SCAN_STEPS) -> ThresholdResult | None:
    """Smallest root of f in [lo, hi], or None when the scan sees no sign change.

    Bisection stops when the bracket is within tol, at an exact zero, or after 201 steps.
    """
    _check_scan_steps(scan_steps)
    if not lo < hi:
        raise InvalidParameterError(f"invalid range [{lo}, {hi}]")
    profile = []
    for i in range(scan_steps + 1):  # in order, so f sees no point past a non-finite value
        x = lo + (hi - lo) * i / scan_steps
        v = f(x)
        if not math.isfinite(v):
            raise _non_finite(x)
        profile.append((x, v))
    profile = tuple(profile)
    for i, (a, fa) in enumerate(profile):
        if fa == 0.0:
            return ThresholdResult(a, (a, a), 0, 0.0, profile)
        if i < scan_steps and fa * profile[i + 1][1] < 0:
            break
    else:
        return None
    b = profile[i + 1][0]
    iterations = 0
    while b - a > tol and iterations <= 200:
        mid = 0.5 * (a + b)
        fm = f(mid)
        if not math.isfinite(fm):
            raise _non_finite(mid)
        iterations += 1
        if fm == 0.0:
            a = b = mid
            break
        if fa * fm < 0:
            b = mid
        else:
            a, fa = mid, fm
    root = 0.5 * (a + b)
    return ThresholdResult(root, (a, b), iterations, f(root), profile)


def _scan(table: ComponentTable, bound_id: str, hi: float, tol: float, scan_steps: int,
          shifted: bool = False) -> ThresholdResult:
    """Smallest root of bound(a) - lhs^a (+ its tolerance if shifted) on [lo, hi].

    Arguments are checked before any component is measured. NoRootError gives
    the reason for no root; a shifted scan's is the bound's verdict at lo.
    """
    _check_scan_steps(scan_steps)
    if not 0 < tol < math.inf:
        raise InvalidParameterError(f"tol must be a positive finite number, got {tol}")
    lo = max(tol, SCAN_FLOOR)
    if not lo < hi < math.inf:
        raise InvalidParameterError(f"invalid range [{lo}, {hi}]")
    plan = BoundPlan(table, POLYGAMY, (bound_id,))
    degenerate = bound_id == BASE and not any(table.marginal(b).value
                                              for b in range(1, table.n_b + 1))
    shift = plan.tol[bound_id] if shifted else 0.0
    result = None if degenerate else find_zero(plan.gap_function(shift), lo, hi, tol=tol,
                                               scan_steps=scan_steps)
    if result is not None and not (shifted and result.scan_profile[0][1] < 0):
        return result
    if not shifted:
        raise NoRootError("no root: degenerate state, both pair components vanish" if degenerate
                          else "no root: residual keeps one sign on the range")
    violated = bound_sweep(table, POLYGAMY, [lo], (bound_id,)).verdicts[0][0] is False
    why = "is violated from the first scanned exponent" if violated else "holds on the whole range"
    raise NoRootError(f"no transition: the bound {why}")


def residual_zero_exponent(table: ComponentTable, tol: float = DEFAULT_TOL,
                           scan_steps: int = DEFAULT_SCAN_STEPS) -> ThresholdResult:
    """Exponent where the three-party residual of the table changes sign.

    NoRootError covers both fixed-sign residuals and the degenerate case of
    states whose pairwise components vanish; the table keeps the components read.
    """
    if table.n_b != 2:
        raise InvalidParameterError("residual-zero threshold is defined for three parties")
    return _scan(table, BASE, table.measure.beta_max, tol, scan_steps)


_BETA_BOUND_IDS = (BASE, RESIDUAL_MAX)


def empirical_beta(table: ComponentTable, bound_id: str = RESIDUAL_MAX,
                   tol: float = DEFAULT_TOL, scan_steps: int = DEFAULT_SCAN_STEPS,
                   search_cap: float = DEFAULT_SEARCH_CAP) -> ThresholdResult:
    """Largest exponent at which the chosen upper bound still holds on the table.

    Solved as the smallest root of bound(a) - lhs^a + tol, with tol the
    bound's comparison tolerance: states that saturate the bound make the
    plain difference identically zero on the valid range, so the shifted
    function is what actually changes sign at the transition to violation.
    Raises NoRootError when no transition occurs below the cap.
    """
    if bound_id not in _BETA_BOUND_IDS:
        raise InvalidParameterError(f"empirical beta supports bounds {_BETA_BOUND_IDS}")
    return _scan(table, bound_id, search_cap, tol, scan_steps, shifted=True)
