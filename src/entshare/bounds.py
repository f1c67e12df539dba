"""Residual-correlation recursions and the polygamy/monogamy bound family.

The bound arithmetic is split from measurement: a ComponentTable memoizes the
bipartite cut values Q_{A|S} of one (state, measure) pair, each as the
MeasureValue (value plus exactness flag) that measure_bipartite returns, and
every bound or residual tree is pure arithmetic over that table at a given
exponent. Tests and sweeps can therefore feed synthetic component tables,
and exponent grids reuse each expensive optimizer call exactly once.

Sides and ids (the BOUNDS table below). `base` applies at any party count,
`pair_weighted` at three parties only, every other bound at four or more.
Weighted bounds other than `pair_weighted` put powers of a scalar weight on
the marginals, laid out by the ordering index m (weight_map), and need m.
  polygamy  (upper bounds on Q^a of the joint cut; weight 2^(a/beta)-1):
    base               power sum of the pairwise marginals
    residual_max       base minus the max-selected residual levels
    residual_mean      base minus the mean-selected residual levels
    weighted           weighted marginals (needs m)
    weighted_residual  weighted marginals minus weighted residual levels (needs m)
    pair_weighted      the sorted pair with weights (1, 2^(a/beta)-1)
  monogamy  (lower bounds on Q^y of the joint cut):
    base               power sum of the pairwise marginals
    ratio_weighted     weight y/x: weighted marginals plus residual levels (needs m)
    exp_weighted       weight 2^(y/x)-1: weighted marginals plus residual levels (needs m)
    pair_weighted      the sorted pair with weights (1, 2^(y/x)-1)
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

from .errors import DegenerateExponentWarning, ExponentRangeWarning, InvalidParameterError
from .measures import (
    DEFAULT_OPT,
    EXACT,
    CorrelationMeasure,
    MeasureValue,
    OptimizerConfig,
    measure_bipartite,
)
from .states import Bipartition, DensityMatrix, PureState, partial_trace

POLYGAMY = "polygamy"
MONOGAMY = "monogamy"

BASE = "base"
RESIDUAL_MAX = "residual_max"
RESIDUAL_MEAN = "residual_mean"
WEIGHTED = "weighted"
WEIGHTED_RESIDUAL = "weighted_residual"
RATIO_WEIGHTED = "ratio_weighted"
EXP_WEIGHTED = "exp_weighted"
PAIR_WEIGHTED = "pair_weighted"

# side -> bound id -> (weights, residual strategy). Weights are None, "exp"
# (2^(e/ref) - 1) or "ratio" (e/ref), with ref the measure's beta_max
# (polygamy) or x_min (monogamy); the strategy selects the residual levels
# that are subtracted (polygamy) or added (monogamy).
BOUNDS = {
    POLYGAMY: {
        BASE: (None, None),
        RESIDUAL_MAX: (None, "max"),
        RESIDUAL_MEAN: (None, "mean"),
        WEIGHTED: ("exp", None),
        WEIGHTED_RESIDUAL: ("exp", "max"),
        PAIR_WEIGHTED: ("exp", None),
    },
    MONOGAMY: {
        BASE: (None, None),
        RATIO_WEIGHTED: ("ratio", "max"),
        EXP_WEIGHTED: ("exp", "max"),
        PAIR_WEIGHTED: ("exp", None),
    },
}

EXACT_TOL = 1e-9


class ComponentTable:
    """Cut values Q_{A|S} of one (state, measure) pair, computed once each."""

    def __init__(self, state: PureState | DensityMatrix | None,
                 measure: CorrelationMeasure | None, opt: OptimizerConfig = DEFAULT_OPT,
                 n_b: int | None = None):
        """A table measured from `state`, or with state None an empty one over n_b B parties."""
        self.state = state
        self.measure = measure
        self.opt = opt
        self.n_b = state.n_parties - 1 if state is not None else n_b
        if self.n_b is None or self.n_b < 2:
            raise InvalidParameterError("component tables need at least three parties")
        self._cache: dict[tuple[int, ...], MeasureValue] = {}

    @classmethod
    def from_values(cls, joints: dict[tuple[int, ...], float], n_b: int,
                    measure: CorrelationMeasure | None = None) -> "ComponentTable":
        """Synthetic all-exact table; `joints` maps sorted B-subsets to values."""
        table = cls(None, measure, n_b=n_b)
        table._cache.update({tuple(sorted(k)): MeasureValue(float(v), EXACT)
                             for k, v in joints.items()})
        return table

    def joint(self, subset) -> MeasureValue:
        key = tuple(sorted(int(i) for i in subset))
        if not key or any(i < 1 or i > self.n_b for i in key) or len(set(key)) != len(key):
            raise InvalidParameterError(f"subset {subset} is not a set of B parties 1..{self.n_b}")
        if key in self._cache:
            return self._cache[key]
        if self.state is None:
            raise InvalidParameterError(f"synthetic table is missing component {key}")
        comp = self._measure_cut(key)
        self._cache[key] = comp
        return comp

    def marginal(self, i: int) -> MeasureValue:
        return self.joint((i,))

    def lhs(self) -> MeasureValue:
        return self.joint(tuple(range(1, self.n_b + 1)))

    def all_exact(self) -> bool:
        return all(c.exact for c in self._cache.values())

    def _measure_cut(self, key: tuple[int, ...]) -> MeasureValue:
        keep = (0,) + key
        if len(keep) == self.state.n_parties:
            sub = self.state
        else:
            sub = partial_trace(self.state, keep)
        cut = Bipartition({0}, set(range(1, len(keep))))
        return measure_bipartite(self.measure, sub, cut, self.opt)


def residual_tripartite(q_ab: float, q_ac: float, q_abc: float, alpha: float) -> float:
    """Signed three-party residual q_ab^a + q_ac^a - q_abc^a."""
    if min(q_ab, q_ac, q_abc) < 0:
        raise InvalidParameterError("residual components must be non-negative")
    if alpha < 0:
        raise InvalidParameterError(f"exponent must be non-negative, got {alpha}")
    if alpha == 0 and 0.0 in (q_ab, q_ac, q_abc):
        warnings.warn("0**0 in residual; result is convention-dependent",
                      DegenerateExponentWarning, stacklevel=2)
    return q_ab**alpha + q_ac**alpha - q_abc**alpha


def weight_map(n_b: int, m: int, scalar: float) -> dict[int, float]:
    """Geometric weight vector over parties 1..n_b for an ordering index m.

    Parties 1..m get powers 0..m-1, the middle block gets power m+1, and the
    last party gets power m.
    """
    if not (1 <= m <= n_b - 2):
        raise InvalidParameterError(f"ordering index m={m} outside 1..{n_b - 2}")
    weights = {pos: scalar ** (pos - 1) for pos in range(1, m + 1)}
    for pos in range(m + 1, n_b):
        weights[pos] = scalar ** (m + 1)
    weights[n_b] = scalar**m
    return weights


@dataclass
class ResidualTree:
    """All residual terms used by one bound evaluation.

    terms maps each ordered party subset to its full residual; level_values
    holds the selected (max or mean) residual per recursion level;
    selection records which party was omitted by each max.
    """

    alpha: float
    strategy: str
    sign: str
    weighted: bool
    terms: dict[tuple[int, ...], float] = field(default_factory=dict)
    level_values: dict[int, float] = field(default_factory=dict)
    selection: dict[int, int | None] = field(default_factory=dict)
    exact: bool = True

    def level_sum(self) -> float:
        return sum(self.level_values.values())


def residual_tree(table: ComponentTable, alpha: float, strategy: str = "max",
                  sign: str = POLYGAMY, weights: dict[int, float] | None = None) -> ResidualTree:
    """Build the residual recursion bottom-up over the table's B parties.

    strategy "max" selects, at level k, the largest residual among the
    omit-one subsets of the first k+1 parties (levels 2..n-1); strategy
    "mean" averages the omit-one residuals of the first k parties (levels
    3..n). Marginal terms are weighted when a weight map is given; joint
    terms never are.
    """
    if strategy not in ("max", "mean"):
        raise InvalidParameterError(f"unknown strategy {strategy!r}")
    if sign not in (POLYGAMY, MONOGAMY):
        raise InvalidParameterError(f"unknown sign {sign!r}")
    order = tuple(range(1, table.n_b + 1))
    tree = ResidualTree(alpha=alpha, strategy=strategy, sign=sign, weighted=weights is not None)
    wmap = weights or {}
    memo: dict[tuple[int, ...], float] = {}

    def comp(subset) -> float:
        c = table.joint(subset)
        if not c.exact:
            tree.exact = False
        return c.value

    def full_residual(sub: tuple[int, ...]) -> float:
        if sub in memo:
            return memo[sub]
        parts = sum(wmap.get(b, 1.0) * comp((b,)) ** alpha for b in sub)
        joint = comp(sub) ** alpha
        inner = sum(val for val, _ in _levels(sub))
        value = (parts - joint - inner) if sign == POLYGAMY else (joint - parts - inner)
        memo[sub] = value
        tree.terms[sub] = value
        return value

    def _levels(sub: tuple[int, ...]):
        """Selected residual per level inside `sub`, shallow-first."""
        out = []
        if strategy == "max":
            for k in range(2, len(sub)):
                prefix = sub[: k + 1]
                cands = [(full_residual(prefix[:i] + prefix[i + 1:]), prefix[i])
                         for i in range(len(prefix))]
                val, omitted = max(cands, key=lambda t: t[0])
                out.append((val, omitted))
        else:
            for k in range(3, len(sub) + 1):
                prefix = sub[:k]
                vals = [full_residual(prefix[:i] + prefix[i + 1:]) for i in range(len(prefix))]
                out.append((sum(vals) / len(vals), None))
        return out

    for level, (val, omitted) in enumerate(_levels(order), start=2 if strategy == "max" else 3):
        tree.level_values[level] = val
        tree.selection[level] = omitted
    return tree


@dataclass(frozen=True)
class BoundEntry:
    value: float
    exact: bool
    range_warning: bool = False


@dataclass
class BoundReport:
    """One exponent's left-hand side, bound values, and satisfaction flags."""

    exponent: float
    side: str
    lhs: MeasureValue
    bounds: dict[str, BoundEntry]
    satisfied: dict[str, bool | None]
    m: int | None
    degenerate: bool
    margin: float

    @property
    def lhs_power(self) -> float:
        return self.lhs.value**self.exponent


@dataclass(frozen=True)
class OrderingComparison:
    index: int
    marginal: MeasureValue
    tail: MeasureValue
    relation: str  # "ge", "le", "both", "neither"


@dataclass(frozen=True)
class OrderingResult:
    m: int | None
    comparisons: tuple[OrderingComparison, ...]


def ordering_classify(table: ComponentTable) -> OrderingResult:
    """Find the ordering index m splitting marginals above/below their tail cuts.

    Comparison i checks Q_{AB_i} against Q_{A|B_{i+1}...}; ties within the
    estimator margin count for whichever direction is needed.
    """
    n_b = table.n_b
    if n_b < 3:
        return OrderingResult(None, ())
    comparisons = []
    for i in range(1, n_b):
        marg = table.marginal(i)
        tail = table.joint(tuple(range(i + 1, n_b + 1)))
        margin = EXACT_TOL if (marg.exact and tail.exact) else table.opt.margin()
        diff = marg.value - tail.value
        if diff > margin:
            rel = "ge"
        elif diff < -margin:
            rel = "le"
        else:
            rel = "both"
        comparisons.append(OrderingComparison(i, marg, tail, rel))
    for m in range(1, n_b - 1):
        head_ok = all(c.relation in ("ge", "both") for c in comparisons[:m])
        tail_ok = all(c.relation in ("le", "both") for c in comparisons[m:])
        if head_ok and tail_ok:
            return OrderingResult(m, tuple(comparisons))
    return OrderingResult(None, tuple(comparisons))


def _power_ref(measure: CorrelationMeasure | None, side: str) -> float:
    if measure is None:
        raise InvalidParameterError("weighted bounds need a measure for the power reference")
    return measure.beta_max if side == POLYGAMY else measure.x_min


def _fits(bound_id: str, n_parties: int) -> bool:
    """pair_weighted at three parties, base at any count, the rest at four or more."""
    if bound_id == PAIR_WEIGHTED:
        return n_parties == 3
    return bound_id == BASE or n_parties >= 4


def check_bound(side: str, bound_id: str, n_parties: int) -> None:
    """Raise unless `bound_id` is a bound of `side` defined at n_parties parties."""
    if bound_id not in BOUNDS.get(side, ()):
        raise InvalidParameterError(f"bound id {bound_id!r} not defined for the {side} side")
    if not _fits(bound_id, n_parties):
        if bound_id == PAIR_WEIGHTED:
            raise InvalidParameterError("pair_weighted applies to three-party states only")
        raise InvalidParameterError(f"{bound_id} needs at least four parties")


def needs_m(side: str, bound_id: str) -> bool:
    """True for the weighted bounds keyed to an ordering index m."""
    return BOUNDS[side][bound_id][0] is not None and bound_id != PAIR_WEIGHTED


def bound_value(table: ComponentTable, bound_id: str, exponent: float, side: str,
                m: int | None = None) -> tuple[float, bool]:
    """Evaluate one bound id on a component table; returns (value, exact).

    The (weighted) power sum of the marginals, minus (polygamy) or plus
    (monogamy) the residual levels when the BOUNDS entry names a strategy.
    pair_weighted sorts its two marginals in place of an ordering index.
    """
    check_bound(side, bound_id, table.n_b + 1)
    weighting, strategy = BOUNDS[side][bound_id]
    marginals = [table.marginal(i) for i in range(1, table.n_b + 1)]
    exact = all(c.exact for c in marginals)
    values = [c.value for c in marginals]
    weights = None
    if weighting is not None:
        ref = _power_ref(table.measure, side)
        scalar = exponent / ref if weighting == "ratio" else 2.0 ** (exponent / ref) - 1.0
        if bound_id == PAIR_WEIGHTED:
            values.sort(reverse=True)
            weights = {1: 1.0, 2: scalar}
        elif m is None:
            raise InvalidParameterError(f"bound {bound_id!r} needs an ordering index m")
        else:
            weights = weight_map(table.n_b, m, scalar)
    wmap = weights or {}
    value = sum(wmap.get(i, 1.0) * v**exponent for i, v in enumerate(values, start=1))
    if strategy is not None:
        tree = residual_tree(table, exponent, strategy, side, weights)
        value = value - tree.level_sum() if side == POLYGAMY else value + tree.level_sum()
        exact = exact and tree.exact
    return value, exact


def applicable_bounds(n_parties: int, side: str, have_m: bool) -> tuple[str, ...]:
    """The side's bounds defined at n_parties, in table order; m-keyed ones need have_m."""
    return tuple(b for b in BOUNDS[side]
                 if _fits(b, n_parties) and (have_m or not needs_m(side, b)))


def evaluate_bounds(state, measure: CorrelationMeasure, exponent: float, side: str,
                    opt: OptimizerConfig = DEFAULT_OPT, bound_ids=None,
                    m: int | None = None, table: ComponentTable | None = None) -> BoundReport:
    """Full bound report for one exponent: lhs, every requested bound, flags."""
    if side not in BOUNDS:
        raise InvalidParameterError(f"side must be polygamy or monogamy, got {side!r}")
    if not math.isfinite(exponent):
        raise InvalidParameterError(f"exponent must be finite, got {exponent}")
    if table is None:
        table = ComponentTable(state, measure, opt)
    n_parties = table.n_b + 1
    for bid in bound_ids or ():
        check_bound(side, bid, n_parties)

    range_warning = False
    if side == POLYGAMY and not (0 <= exponent <= measure.beta_max + 1e-12):
        warnings.warn(f"polygamy exponent {exponent} outside [0, {measure.beta_max}]",
                      ExponentRangeWarning, stacklevel=2)
        range_warning = True
    if side == MONOGAMY and exponent < measure.x_min - 1e-12:
        warnings.warn(f"monogamy exponent {exponent} below {measure.x_min}",
                      ExponentRangeWarning, stacklevel=2)
        range_warning = True

    if m is None and n_parties >= 4:
        m = ordering_classify(table).m
    if bound_ids is None:
        bound_ids = applicable_bounds(n_parties, side, m is not None)

    lhs = table.lhs()
    lhs_power = lhs.value**exponent

    marginal_values = [table.marginal(i).value for i in range(1, table.n_b + 1)]
    degenerate = exponent == 0.0 and (0.0 in marginal_values or lhs.value == 0.0)
    if degenerate:
        warnings.warn("exponent 0 with a zero component; report flagged degenerate",
                      DegenerateExponentWarning, stacklevel=2)

    margin = opt.margin()
    bounds: dict[str, BoundEntry] = {}
    satisfied: dict[str, bool | None] = {}
    for bid in bound_ids:
        val, exact = bound_value(table, bid, exponent, side, m)
        bounds[bid] = BoundEntry(val, exact, range_warning)
        gap = (val - lhs_power) if side == POLYGAMY else (lhs_power - val)
        if degenerate:
            satisfied[bid] = None
        elif exact and lhs.exact:
            satisfied[bid] = bool(gap >= -EXACT_TOL)
        elif gap >= margin:
            satisfied[bid] = True
        elif gap <= -margin:
            satisfied[bid] = False
        else:
            satisfied[bid] = None
    return BoundReport(exponent, side, lhs, bounds, satisfied, m, degenerate, margin)


@dataclass(frozen=True)
class Violation:
    exponent: float
    check: str
    gap: float


def hierarchy_checks(side: str, n_parties: int, measure: CorrelationMeasure):
    """Tighter/looser bound orderings that are theorems for this configuration.

    The residual-tightened polygamy bound sits below the power sum whenever
    the measure genuinely satisfies the base polygamy relation (the built-in
    assistance measure); the exponential weights dominate the ratio weights
    pointwise only at four parties, where the single residual level telescopes
    into a maximum of weight-increasing branches.
    """
    if side == POLYGAMY and measure.assistance:
        return ((RESIDUAL_MAX, BASE),)
    if side == MONOGAMY and n_parties == 4:
        return ((EXP_WEIGHTED, RATIO_WEIGHTED),)
    return ()


def verify_hierarchy(state, measure: CorrelationMeasure, exponents, side: str,
                     opt: OptimizerConfig = DEFAULT_OPT, bound_ids=None,
                     table: ComponentTable | None = None):
    """Evaluate a grid and collect violations of the bound and ordering checks.

    Returns (reports, violations, indeterminate_count). A violated bound or a
    broken tighter/looser ordering becomes a Violation; estimate-backed
    comparisons inside the margin only increment the indeterminate count.
    Pass the (state, measure) table to share its components between calls.
    """
    if table is None:
        table = ComponentTable(state, measure, opt)
    checks = hierarchy_checks(side, state.n_parties, measure)
    reports: list[BoundReport] = []
    violations: list[Violation] = []
    indeterminate = 0
    for exponent in exponents:
        report = evaluate_bounds(state, measure, float(exponent), side, opt,
                                 bound_ids=bound_ids, table=table)
        reports.append(report)
        if report.degenerate:
            continue
        for bid, ok in report.satisfied.items():
            if ok is False:
                entry = report.bounds[bid]
                gap = ((entry.value - report.lhs_power) if side == POLYGAMY
                       else (report.lhs_power - entry.value))
                violations.append(Violation(report.exponent, bid, gap))
            elif ok is None:
                indeterminate += 1
        for tighter, looser in checks:
            if tighter in report.bounds and looser in report.bounds:
                a, b = report.bounds[tighter], report.bounds[looser]
                gap = (b.value - a.value) if side == POLYGAMY else (a.value - b.value)
                tol = EXACT_TOL if (a.exact and b.exact) else report.margin
                if gap < -tol:
                    rel = "<=" if side == POLYGAMY else ">="
                    violations.append(Violation(report.exponent, f"{tighter}{rel}{looser}", gap))
    return reports, violations, indeterminate
