"""Residual-correlation recursions and the polygamy/monogamy bound family.

The bound arithmetic is split from measurement: a ComponentTable memoizes the
bipartite cut values Q_{A|S} of one (state, measure) pair, each as the
MeasureValue (value plus exactness flag) that measure_bipartite returns, so
each expensive optimizer call runs once however many exponents are read.
Every component is one measure_bipartite call on a reduction built once per
(state, kept parties) and shared by every table on that state; the
dispatch restricts each mixed cut to the supports of its reduced states, so
the mixed joints of W-class, GHZ and 4q-theta states are exact 2x2 closed
forms and only cuts still larger than 2x2 after it reach a convex roof.

The table is the one input of every bound and threshold call: it carries the
state, the measure and the optimizer settings, so no call takes anything that
could disagree with it.

Every bound is evaluated through a BoundPlan, built once per (table, side,
bound ids, m): it fetches and validates the components its bounds read and
fixes each bound's exact flag and weight layout. Its float pass is one
generated function per plan structure (_program), bit-identical to a direct
evaluation of the recursion (_source). bound_sweep is the one column pass
over a grid: one plan, evaluated point by point in grid order, returned as a
BoundSweep, the one bound result, whose columns the CSV rows, the JSON
reports, verify_hierarchy and the empirical-beta no-root reason read;
evaluate_bounds is its one-point sweep. bound_value is a one-bound plan, and
residual_tree a read-only view of one residual bound's plan
(BoundPlan.explain): the same compiled function with its explain flag set,
so the one function is the only walk of the recursion.

Every comparison (verdicts, orderings, hierarchy checks, the empirical-beta
shift) takes its tolerance from one rule, comparison_tol: EXACT_TOL when every
compared value is exact, 10 opt.tol + 1e-9 otherwise. One function, verdict,
turns a gap and its tolerance into a decision for verdicts, orderings and
hierarchy checks: exact values always get holds/fails; estimates within the
tolerance get None.

Sides and ids (the BOUNDS table below, whose rows every bound rule reads).
`base` applies at any party count, `pair_weighted` (layout "pair") at three
parties only, every other bound at four or more. The bounds of layout "m" put
powers of a scalar weight on the marginals, laid out by the ordering index m
(_weight_powers), and need m.
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

An open finding: weighted_residual and exp_weighted, the bounds figures 2 and
3 plot, fail on an exact table. On the W-class state F, amplitudes
(4, 3, 6, 4, 4)/sqrt(93) on |0000>, |1000>, |0100>, |0010>, |0001>, m = 1 and
every component is exact; exp_weighted at y = 5.2 gives 0.041078 > lhs^y
0.037566, and weighted_residual at a = 0.8 gives 0.576712 < lhs^a 0.603585.
The failing step is the weight h^2 on B2 (h the scalar weight) once the
{B1, B3} residual replaces their marginals: one lemma step licenses only h.
TestKnownFindings and the state-F digest lines pin both cases.
"""

from __future__ import annotations

import functools
import math
import numbers
import warnings
import weakref
from dataclasses import dataclass
from operator import sub

from .errors import (
    DegenerateExponentWarning,
    ExponentRangeWarning,
    InvalidParameterError,
    OrderingHypothesisWarning,
)
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

# side -> bound id -> (weights, residual strategy, weight layout). Weights are
# None, "exp" (2^(e/ref) - 1) or "ratio" (e/ref), with ref the measure's
# beta_max (polygamy) or x_min (monogamy); the strategy selects the residual
# levels that are subtracted (polygamy) or added (monogamy). The layout places
# the weight's powers on the marginals by the ordering index m ("m") or down
# the sorted three-party pair ("pair"); with the rest of the row it decides
# the party counts the bound applies at (_fits).
BOUNDS = {
    POLYGAMY: {
        BASE: (None, None, None),
        RESIDUAL_MAX: (None, "max", None),
        RESIDUAL_MEAN: (None, "mean", None),
        WEIGHTED: ("exp", None, "m"),
        WEIGHTED_RESIDUAL: ("exp", "max", "m"),
        PAIR_WEIGHTED: ("exp", None, "pair"),
    },
    MONOGAMY: {
        BASE: (None, None, None),
        RATIO_WEIGHTED: ("ratio", "max", "m"),
        EXP_WEIGHTED: ("exp", "max", "m"),
        PAIR_WEIGHTED: ("exp", None, "pair"),
    },
}

EXACT_TOL = 1e-9

_REDUCTIONS = weakref.WeakKeyDictionary()  # state -> {keep: reduction}; freed with the state
_INT = frozenset({int})


def comparison_tol(opt: OptimizerConfig, *exact: bool) -> float:
    """The one comparison rule: EXACT_TOL when every value is exact, else 10 opt.tol + 1e-9."""
    return EXACT_TOL if all(exact) else 10.0 * opt.tol + 1e-9


def verdict(gap: float, tol: float, decided: bool) -> bool | None:
    """Whether `gap` >= 0 holds (True), fails (False) or is undecided (None) at `tol`.

    A decided comparison (exact values) holds from -tol up. Otherwise it holds
    from +tol up, fails from -tol down, and is undecided in between.
    """
    if decided:
        return bool(gap >= -tol)
    return True if gap >= tol else False if gap <= -tol else None


class ComponentTable:
    """Cut values Q_{A|S} of one (state, measure) pair, computed once each.

    Each value is measure_bipartite on the reduction to A plus S (the state
    itself for the full cut), across A|S, under the table's optimizer
    settings. Bound and threshold calls read all three from the table, and
    the ordering index from `ordering`, classified on its first read.
    """

    def __init__(self, state: PureState | DensityMatrix | None, measure: CorrelationMeasure,
                 opt: OptimizerConfig = DEFAULT_OPT, n_b: int | None = None):
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
                    measure: CorrelationMeasure) -> "ComponentTable":
        """Synthetic all-exact table; `joints` maps sorted B-subsets to values."""
        table = cls(None, measure, n_b=n_b)
        table._cache.update({tuple(sorted(k)): MeasureValue(float(v), EXACT)
                             for k, v in joints.items()})
        return table

    def joint(self, subset) -> MeasureValue:
        # a cached tuple of ints is read as given; only ints, as (1.0,) == (1,) would match too
        if type(subset) is tuple and subset in self._cache and _INT.issuperset(map(type, subset)):
            return self._cache[subset]
        parties = tuple(subset)
        key = tuple(sorted(int(i) for i in parties if isinstance(i, numbers.Integral)))
        if not key or any(i < 1 or i > self.n_b for i in key) or len(set(key)) != len(parties):
            raise InvalidParameterError(f"subset {subset} is not a set of B parties 1..{self.n_b}")
        if key not in self._cache:
            if self.state is None:
                raise InvalidParameterError(f"synthetic table is missing component {key}")
            self._cache[key] = self._measure_cut(key)
        return self._cache[key]

    @functools.cached_property
    def ordering(self) -> OrderingResult:
        """The ordering index classification, made on the first read: nothing else decides m."""
        return ordering_classify(self)

    def marginal(self, i: int) -> MeasureValue:
        return self.joint((i,))

    def lhs(self) -> MeasureValue:
        return self.joint(tuple(range(1, self.n_b + 1)))

    def _measure_cut(self, key: tuple[int, ...]) -> MeasureValue:
        keep = (0,) + key
        sub = self.state
        if len(keep) < sub.n_parties:  # states hash by identity: one memo per state object
            memo = _REDUCTIONS.setdefault(sub, {})
            sub = memo[keep] if keep in memo else memo.setdefault(keep, partial_trace(sub, keep))
        cut = Bipartition({0}, set(range(1, len(keep))))
        return measure_bipartite(self.measure, sub, cut, self.opt)


def _check_m(n_b: int, m: int) -> None:
    """Raise unless m is an ordering index of n_b B parties: 1..n_b-2, so none at three parties."""
    if n_b < 3:
        raise InvalidParameterError("a three-party state has no ordering index m; "
                                    "m needs four or more parties")
    if not (1 <= m <= n_b - 2):
        raise InvalidParameterError(f"ordering index m={m} outside 1..{n_b - 2}")


def _weight_powers(n_b: int, m: int) -> tuple[int, ...]:
    """Integer power of the scalar weight on each of parties 1..n_b for an ordering index m.

    Parties 1..m get powers 0..m-1, the middle block gets power m+1, and the
    last party gets power m.
    """
    _check_m(n_b, m)
    return tuple(range(m)) + (m + 1,) * (n_b - 1 - m) + (m,)


@dataclass(frozen=True)
class ResidualTree:
    """All residual terms of one residual bound at one exponent (BoundPlan.explain).

    terms maps each ordered party subset to its full residual; level_values
    holds the selected (max or mean) residual per recursion level;
    selection records which party was omitted by each max.
    """

    terms: dict[tuple[int, ...], float]
    level_values: dict[int, float]
    selection: dict[int, int | None]
    exact: bool


@functools.lru_cache(maxsize=None)
def _recursion(n_b: int):
    """The residual recursion over B parties 1..n_b, flattened children-first.

    Level k of a subset selects among the omit-one subsets of its first k
    parties (k = 3..size). Returns (nodes, top): nodes[j] is (subset, its
    levels as tuples of node indices), children before parents, which is also
    the order a plan reads their joints in; top holds the levels of the full
    party set.
    """
    index: dict[tuple[int, ...], int] = {}
    nodes = []

    def levels(sub):
        prefixes = [sub[:k] for k in range(3, len(sub) + 1)]
        return tuple(tuple(visit(p[:i] + p[i + 1:]) for i in range(len(p))) for p in prefixes)

    def visit(sub):
        if sub not in index:
            children = levels(sub)
            index[sub] = len(nodes)
            nodes.append((sub, children))
        return index[sub]

    top = levels(tuple(range(1, n_b + 1)))
    return tuple(nodes), top


def _source(n_b: int, polygamy: bool, kinds: tuple, layout: tuple | None) -> str:
    """Python source of the float pass of one plan structure (see _program).

    `program(x, r, c, explain)` takes the exponent, the weight reference, the
    components (marginals of parties 1..n_b, then the joints of the nodes of
    _recursion(n_b)) and a flag, and returns each bound's value. With
    `explain` true it also returns, per bound, None or the fields of its
    ResidualTree: each node subset's residual, the numbered top levels and
    the party each top-level max omitted, the first position holding the
    selected value, as max() keeps the first of equal maxima. Names come from
    indices only. Each component is raised once with scalar `**` (numpy's
    vectorized power may differ in the last bit), a marginal is weighted as
    s**k * p, every sum is a left fold from 0 (as sum() of floats is on Python
    3.11) and a mean divides its fold by its count: the values match the
    recursion bit for bit.
    """
    nodes, top = _recursion(n_b) if any(strategy for _, strategy in kinds) else ((), ())

    def fold(names):
        return "(" + " + ".join(["0", *names]) + ")"

    def select(strategy, names):
        return f"max({', '.join(names)})" if strategy == "max" else f"{fold(names)} / {len(names)}"

    n_c = n_b + len(nodes)
    lines = ["def program(x, r, c, explain):",
             "    " + "".join(f"c{i}, " for i in range(n_c)) + "= c"]
    lines += [f"    p{i} = c{i} ** x" for i in range(n_c)]
    weighted = {}  # weighting -> (names of its marginal terms, name of their sum)
    out, explained = [], []
    for i, (weighting, strategy) in enumerate(kinds):
        if weighting not in weighted:
            g = len(weighted)
            marginals = [f"p{b}" for b in range(n_b)]
            if weighting is not None:
                scalar = "x / r" if weighting == "ratio" else "2.0 ** (x / r) - 1.0"
                lines.append(f"    s{g} = {scalar}")
                lines += [f"    m{g}_{b} = s{g} ** {int(k)} * p{b}" for b, k in enumerate(layout)]
                marginals = [f"m{g}_{b}" for b in range(n_b)]
            lines.append(f"    t{g} = {fold(marginals)}")
            weighted[weighting] = (marginals, f"t{g}")
        marginals, total = weighted[weighting]
        if strategy is None:
            out.append(total)
            explained.append("None")
            continue
        node_names = [f"r{i}_{j}" for j in range(len(nodes))]
        for j, (sub, levels) in enumerate(nodes):
            parts = fold([marginals[b - 1] for b in sub])
            inner = fold([select(strategy, [node_names[c] for c in level]) for level in levels])
            terms = (parts, f"p{n_b + j}") if polygamy else (f"p{n_b + j}", parts)
            lines.append(f"    {node_names[j]} = {terms[0]} - {terms[1]} - {inner}")
        level_names = [f"l{i}_{k}" for k in range(len(top))]
        lines += [f"    {name} = {select(strategy, [node_names[c] for c in level])}"
                  for name, level in zip(level_names, top)]
        lines.append(f"    b{i} = {total} {'-' if polygamy else '+'} {fold(level_names)}")
        out.append(f"b{i}")
        # levels count from 2 (max) or 3 (mean); omitting top position k omits party k + 1
        first = 2 if strategy == "max" else 3
        chosen = [f"({', '.join(node_names[c] for c in level)}).index({name}) + 1"
                  if strategy == "max" else "None" for name, level in zip(level_names, top)]
        explained.append("({%s}, {%s}, {%s})" % (
            ", ".join(f"{sub}: {name}" for (sub, _), name in zip(nodes, node_names)),
            ", ".join(f"{k}: {name}" for k, name in enumerate(level_names, first)),
            ", ".join(f"{k}: {pick}" for k, pick in enumerate(chosen, first))))
    values = f"[{', '.join(out)}]"
    lines.append(f"    return ({values}, [{', '.join(explained)}]) if explain else {values}")
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=64)
def _program(n_b: int, polygamy: bool, kinds: tuple, layout: tuple | None):
    """The float pass of one plan structure, compiled on first use and shared by every plan.

    The key is the structure only: the party count, the side, each bound's
    (weighting, strategy) and the weight layout. Component values and the
    weight reference are arguments, so plans on different tables share code,
    and one function serves both values() and explain().
    """
    namespace: dict = {}
    exec(compile(_source(n_b, polygamy, kinds, layout), "<bound plan>", "exec"), namespace)
    return namespace["program"]


def residual_tree(table: ComponentTable, side: str, bound_id: str, exponent: float,
                  m: int | None = None) -> ResidualTree:
    """The residual recursion behind one residual bound at `exponent`: its plan's explain().

    Strategy "max" selects, at level k, the largest residual among the
    omit-one subsets of the first k+1 parties (levels 2..n-1); strategy
    "mean" averages the omit-one residuals of the first k parties (levels
    3..n). The terms carry the bound's own weights on the marginals; joint
    terms never are weighted. A bound without residual levels is rejected
    before any component is measured.
    """
    check_bound(side, bound_id, table.n_b + 1)
    if BOUNDS[side][bound_id][1] is None:
        raise InvalidParameterError(f"bound {bound_id!r} has no residual levels")
    return BoundPlan(table, side, (bound_id,), m).explain(exponent)[bound_id]


@dataclass(slots=True)
class BoundSweep:
    """One plan over an exponent grid (bound_sweep), the one bound result: values, gaps and
    verdicts hold one column per bound in plan.bound_ids order, each in grid order. A gap is
    bound - lhs power for polygamy, lhs power - bound for monogamy, decided at plan.tol."""

    plan: BoundPlan
    exponents: list[float]
    lhs_powers: list[float]
    values: list[tuple[float, ...]]
    gaps: list[list[float]]
    verdicts: list[list[bool | None]]
    degenerate: list[bool]
    out_of_range: list[bool]
    margin: float  # the comparison_tol of an estimate


@dataclass(frozen=True)
class OrderingComparison:
    index: int
    marginal: MeasureValue
    tail: MeasureValue
    relation: str  # "ge", "le", "both"


@dataclass(frozen=True)
class OrderingResult:
    m: int | None
    comparisons: tuple[OrderingComparison, ...]

    def holds_at(self, m: int) -> bool:
        """Whether marginals 1..m are at or above their tail cuts and the rest at or below."""
        return (all(c.relation in ("ge", "both") for c in self.comparisons[:m])
                and all(c.relation in ("le", "both") for c in self.comparisons[m:]))


def ordering_classify(table: ComponentTable) -> OrderingResult:
    """Find the ordering index m splitting marginals above/below their tail cuts.

    Comparison i checks Q_{AB_i} against Q_{A|B_{i+1}...}; ties within the
    comparison_tol of the pair count for whichever direction is needed. m is
    the first index at which OrderingResult.holds_at holds, else None.
    """
    n_b = table.n_b
    if n_b < 3:
        return OrderingResult(None, ())
    comparisons = []
    for i in range(1, n_b):
        marg = table.marginal(i)
        tail = table.joint(tuple(range(i + 1, n_b + 1)))
        tol = comparison_tol(table.opt, marg.exact, tail.exact)
        diff = marg.value - tail.value
        ge, le = verdict(diff, tol, True), verdict(-diff, tol, True)
        rel = "both" if ge and le else "ge" if ge else "le"
        comparisons.append(OrderingComparison(i, marg, tail, rel))
    result = OrderingResult(None, tuple(comparisons))
    m = next((m for m in range(1, n_b - 1) if result.holds_at(m)), None)
    return OrderingResult(m, result.comparisons)


def _fits(side: str, bound_id: str, n_parties: int) -> bool:
    """Whether its BOUNDS row applies: "pair" at three parties, all None at any count, else 4+."""
    row = BOUNDS[side][bound_id]
    return n_parties == 3 if row[2] == "pair" else n_parties >= 4 or row == (None, None, None)


def check_bound(side: str, bound_id: str, n_parties: int) -> None:
    """Raise unless `bound_id` is a bound of `side` defined at n_parties parties."""
    if bound_id not in BOUNDS.get(side, ()):
        raise InvalidParameterError(f"bound id {bound_id!r} not defined for the {side} side")
    if not _fits(side, bound_id, n_parties):
        if BOUNDS[side][bound_id][2] == "pair":
            raise InvalidParameterError(f"{bound_id} applies to three-party states only")
        raise InvalidParameterError(f"{bound_id} needs at least four parties")


def needs_m(side: str, bound_id: str) -> bool:
    """True for the weighted bounds keyed to an ordering index m (layout "m")."""
    return BOUNDS[side][bound_id][2] == "m"


class BoundPlan:
    """The bounds `bound_ids` of one side on one table, at ordering index m.

    Built once: the bound ids and, for a bound of layout "m", m are checked
    before every component the bounds read is fetched, each bound's exact
    flag fixed (its marginals and, with a residual strategy, every component
    of the recursion) and the compiled float pass looked up. values() then
    evaluates any exponent without a table lookup; explain() shows the
    recursion values() evaluated; gap_function() is the threshold scans'
    per-point function. A residual strategy subtracts (polygamy) or
    adds (monogamy) its selected levels from the (weighted) power sum. The
    weight layout, the scalar weight's power per party, comes from m
    (_weight_powers) or, for "pair", is (0, 1) down the sorted marginals.
    """

    def __init__(self, table: ComponentTable, side: str, bound_ids, m: int | None = None):
        n_b = table.n_b
        self.bound_ids = tuple(bound_ids)
        for bid in self.bound_ids:
            check_bound(side, bid, n_b + 1)
        self.table, self.side, self.m = table, side, m
        rows = [BOUNDS[side][bid] for bid in self.bound_ids]
        layouts = [row[2] for row in rows]
        if "m" in layouts and m is None:
            bid = self.bound_ids[layouts.index("m")]
            raise InvalidParameterError(f"bound {bid!r} needs an ordering index m")
        layout = _weight_powers(n_b, m) if "m" in layouts else None  # checks m before any component
        marginals = [table.marginal(i) for i in range(1, n_b + 1)]
        values = [c.value for c in marginals]
        self._zero_marginal = 0.0 in values
        if "pair" in layouts:
            order = sorted(range(n_b), key=values.__getitem__, reverse=True)
            layout = tuple(order.index(b) for b in range(n_b))
        self._ref = table.measure.beta_max if side == POLYGAMY else table.measure.x_min
        kinds = tuple(row[:2] for row in rows)
        joints = []
        if any(strategy for _, strategy in kinds):
            joints = [table.joint(sub) for sub, _ in _recursion(n_b)[0]]
        self._components = tuple(values + [c.value for c in joints])
        self._zero_component = 0.0 in self._components
        marginals_exact = all(c.exact for c in marginals)
        tree_exact = marginals_exact and all(c.exact for c in joints)
        self.exact = tuple(tree_exact if strategy else marginals_exact for _, strategy in kinds)
        self._key = (n_b, side == POLYGAMY, kinds, layout)
        self._program = _program(*self._key)

    def values(self, exponent: float) -> list[float]:
        """Each bound's value at `exponent`, in bound_ids order; a negative exponent when a
        component is 0, or one at which a component power or the weight overflows, is rejected."""
        return self._run(exponent, False)

    def _run(self, exponent: float, explain: bool):
        if exponent < 0 and self._zero_component:
            raise InvalidParameterError(f"exponent {exponent} is negative and a component is 0")
        try:
            return self._program(exponent, self._ref, self._components, explain)
        except OverflowError:
            raise InvalidParameterError(f"exponent {exponent} overflows a component power "
                                        f"or the weight") from None

    def explain(self, exponent: float) -> dict[str, ResidualTree]:
        """The ResidualTree of each residual bound at `exponent`, as values() computes it."""
        _, recursions = self._run(exponent, True)
        return {bid: ResidualTree(*recursion, exact)
                for bid, exact, recursion in zip(self.bound_ids, self.exact, recursions)
                if recursion is not None}

    @functools.cached_property
    def lhs(self) -> MeasureValue:
        """The joint cut Q_{A|B_1...B_n}, fetched on first use: bound_value never needs it."""
        return self.table.lhs()

    @functools.cached_property
    def tol(self) -> dict[str, float]:
        """Each bound's comparison_tol against the lhs; every sweep of the plan reads it."""
        return {bid: comparison_tol(self.table.opt, exact, self.lhs.exact)
                for bid, exact in zip(self.bound_ids, self.exact)}

    def lhs_power(self, exponent: float) -> float:
        """The lhs raised to `exponent`; an exponent at which it overflows is rejected."""
        try:
            return self.lhs.value**exponent
        except OverflowError:
            raise InvalidParameterError(f"exponent {exponent} overflows the lhs power") from None

    def gap_function(self, shift: float = 0.0):
        """x -> values(x)[0] - lhs_power(x) + shift: one compiled pass and one power per call.

        The scans of thresholds read it at every point. An exponent that values() or
        lhs_power() rejects is rejected with the same error: both run again to raise it.
        """
        program, ref, components = self._program, self._ref, self._components
        lhs, values, lhs_power = self.lhs.value, self.values, self.lhs_power

        def gap(x):
            try:
                return program(x, ref, components, False)[0] - lhs**x + shift
            except ArithmeticError:  # an overflow, or a zero to a negative power
                values(x)
                lhs_power(x)
                raise

        return gap


def bound_value(table: ComponentTable, bound_id: str, exponent: float, side: str,
                m: int | None = None) -> tuple[float, bool]:
    """Evaluate one bound id on a component table; returns (value, exact)."""
    plan = BoundPlan(table, side, (bound_id,), m)
    return plan.values(exponent)[0], plan.exact[0]


def applicable_bounds(n_parties: int, side: str, have_m: bool) -> tuple[str, ...]:
    """The side's bounds defined at n_parties, in table order; m-keyed ones need have_m."""
    return tuple(b for b in BOUNDS[side]
                 if _fits(side, b, n_parties) and (have_m or not needs_m(side, b)))


def bound_sweep(table: ComponentTable, side: str, exponents, bound_ids=None,
                m: int | None = None) -> BoundSweep:
    """The bounds of one BoundPlan over `exponents`, as columns: the one column pass.

    The side, every exponent, every given bound id and a given m (1..n_b-2)
    are checked before any component is measured; the default ids are every
    applicable bound. table.ordering is read only where m matters: with m
    None, for the default ids on four or more parties and for chosen bounds
    that need m; with m given, when a bound needs it, and an m that breaks
    the ordering hypothesis is used with an OrderingHypothesisWarning. The
    first grid point that fails raises before any range or degenerate
    warning; those follow in grid order and point at the caller.
    """
    if side not in BOUNDS:
        raise InvalidParameterError(f"side must be polygamy or monogamy, got {side!r}")
    exponents = list(exponents)
    for exponent in exponents:
        if not math.isfinite(exponent):
            raise InvalidParameterError(f"exponent must be finite, got {exponent}")
    n_parties = table.n_b + 1
    for bid in bound_ids or ():
        check_bound(side, bid, n_parties)
    keyed = bound_ids is None or any(needs_m(side, bid) for bid in bound_ids)
    if m is not None:
        _check_m(table.n_b, m)
        if keyed and not table.ordering.holds_at(m):
            relations = ", ".join(c.relation for c in table.ordering.comparisons)
            warnings.warn(f"ordering index m={m} breaks the ordering hypothesis (marginal "
                          f"against tail cut: {relations}); the weighted bounds need not hold",
                          OrderingHypothesisWarning, stacklevel=2)
    elif keyed and n_parties >= 4:
        m = table.ordering.m
    if bound_ids is None:
        bound_ids = applicable_bounds(n_parties, side, m is not None)
    plan = BoundPlan(table, side, bound_ids, m)
    polygamy, measure = side == POLYGAMY, table.measure
    low, high = (0.0, measure.beta_max + 1e-12) if polygamy else (measure.x_min - 1e-12, math.inf)
    rows, powers, out_of_range, degenerate = [], [], [], []
    for x in exponents:  # the lhs is read per point, so an empty grid measures none
        if x < 0 and plan.lhs.value == 0.0:
            raise InvalidParameterError(f"exponent {x} is negative and the lhs is 0")
        rows.append(plan.values(x))
        powers.append(plan.lhs_power(x))
        out_of_range.append(not low <= x <= high)
        degenerate.append(x == 0.0 and (plan._zero_marginal or plan.lhs.value == 0.0))
    for x, wide, flat in zip(exponents, out_of_range, degenerate):
        if wide:
            beyond = f"outside [0, {measure.beta_max}]" if polygamy else f"below {measure.x_min}"
            warnings.warn(f"{side} exponent {x} {beyond}", ExponentRangeWarning, stacklevel=2)
        if flat:
            warnings.warn("exponent 0 with a zero component; report flagged degenerate",
                          DegenerateExponentWarning, stacklevel=2)
    values, gaps, verdicts = [*zip(*rows)], [], []
    for column, bid, exact in zip(values, plan.bound_ids, plan.exact):
        gaps.append([*map(sub, column, powers)] if polygamy else [*map(sub, powers, column)])
        tol, decided = plan.tol[bid], exact and plan.lhs.exact
        verdicts.append([None if flat else verdict(gap, tol, decided)  # flat: 0**0, no verdict
                         for gap, flat in zip(gaps[-1], degenerate)])
    return BoundSweep(plan, exponents, powers, values, gaps, verdicts, degenerate, out_of_range,
                      comparison_tol(table.opt, False))


def evaluate_bounds(table: ComponentTable, exponent: float, side: str, bound_ids=None,
                    m: int | None = None) -> BoundSweep:
    """Every bound at one exponent: the one-point bound_sweep, with its checks and warnings."""
    return bound_sweep(table, side, [exponent], bound_ids, m)


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


def verify_hierarchy(table: ComponentTable, exponents, side: str, bound_ids=None):
    """Evaluate a grid and collect violations of the bound and ordering checks.

    Returns (sweep, violations, indeterminate_count), the sweep being the
    BoundSweep whose columns the checks read. A violated bound or a
    tighter/looser ordering broken beyond its comparison_tol becomes a
    Violation; indeterminate (estimate-backed) verdicts only count. The party
    count and the measure that pick the ordering checks are the table's.
    """
    checks = hierarchy_checks(side, table.n_b + 1, table.measure)
    sweep = bound_sweep(table, side, [float(x) for x in exponents], bound_ids)
    ids, values, exact = sweep.plan.bound_ids, sweep.values, sweep.plan.exact
    violations, indeterminate = [], 0
    for i, exponent in enumerate(sweep.exponents):
        if sweep.degenerate[i]:
            continue
        for bid, verdicts, gaps in zip(ids, sweep.verdicts, sweep.gaps):
            if verdicts[i] is False:
                violations.append(Violation(exponent, bid, gaps[i]))
            elif verdicts[i] is None:
                indeterminate += 1
        for tighter, looser in checks:
            if tighter in ids and looser in ids:
                a, b = ids.index(tighter), ids.index(looser)
                x, y = values[a][i], values[b][i]
                gap = (y - x) if side == POLYGAMY else (x - y)
                if verdict(gap, comparison_tol(table.opt, exact[a], exact[b]), True) is False:
                    rel = "<=" if side == POLYGAMY else ">="
                    violations.append(Violation(exponent, f"{tighter}{rel}{looser}", gap))
    return sweep, violations, indeterminate
