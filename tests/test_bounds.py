import ast
import dataclasses
import gc
import math
import os
import re
import subprocess
import sys
import warnings
import weakref
from functools import reduce
from itertools import combinations
from operator import add
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_subsets, near_w, oracle_reduce, oracle_spin_flip_spectrum
from entshare import bounds as bmod
from entshare import cli, measures, thresholds
from entshare.bounds import (
    BASE,
    BOUNDS,
    EXP_WEIGHTED,
    MONOGAMY,
    PAIR_WEIGHTED,
    POLYGAMY,
    RATIO_WEIGHTED,
    RESIDUAL_MAX,
    RESIDUAL_MEAN,
    WEIGHTED,
    WEIGHTED_RESIDUAL,
    BoundPlan,
    ComponentTable,
    applicable_bounds,
    bound_sweep,
    bound_value,
    check_bound,
    evaluate_bounds,
    ordering_classify,
    residual_tree,
    verify_hierarchy,
)
from entshare.errors import (
    DegenerateExponentWarning,
    ExponentRangeWarning,
    InvalidParameterError,
    NoRootError,
    OrderingHypothesisWarning,
)
from entshare.measures import (
    CONCURRENCE,
    CONCURRENCE_ASSISTANCE,
    DEFAULT_OPT,
    TAU_ASSISTANCE,
    MeasureValue,
    OptimizerConfig,
    convex_roof,
    measure_bipartite,
)
from entshare.states import (
    Bipartition,
    PureState,
    haar_random_pure,
    make_family,
    partial_trace,
    w_state,
)

SQ2, SQ3 = math.sqrt(2), math.sqrt(3)
EPS = np.finfo(float).eps
SRC = os.pathsep.join(p for p in (str(Path(bmod.__file__).resolve().parents[1]),
                                     os.environ.get("PYTHONPATH")) if p)


def general_w(n: int) -> PureState:
    """A generalized W-class state: unequal complex b_k and a nonzero |0...0> amplitude."""
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = 0.3
    for k in range(n):
        amps[1 << (n - 1 - k)] = (0.2 + 0.15 * k) * np.exp(0.7j * k)
    return PureState(amps / np.linalg.norm(amps), (2,) * n)


def random_w_class(n: int, seed: int) -> PureState:
    """A seeded generalized W-class state: complex Gaussian b_0 on |0...0> and b_k on each
    single excitation, normalized."""
    rng = np.random.default_rng(seed)
    amps = np.zeros(2**n, dtype=complex)
    amps[[0] + [1 << (n - 1 - k) for k in range(n)]] = (rng.standard_normal(n + 1)
                                                        + 1j * rng.standard_normal(n + 1))
    return PureState(amps / np.linalg.norm(amps), (2,) * n)


def three_tangle(state: PureState) -> float:
    """tau_ABC = 4 |d1 - 2 d2 + 4 d3| from the amplitudes (Coffman, Kundu & Wootters 2000)."""
    a = state.amplitudes.reshape(2, 2, 2)
    d1 = (a[0, 0, 0] ** 2 * a[1, 1, 1] ** 2 + a[0, 0, 1] ** 2 * a[1, 1, 0] ** 2
          + a[0, 1, 0] ** 2 * a[1, 0, 1] ** 2 + a[1, 0, 0] ** 2 * a[0, 1, 1] ** 2)
    d2 = (a[0, 0, 0] * a[1, 1, 1] * (a[0, 1, 1] * a[1, 0, 0] + a[1, 0, 1] * a[0, 1, 0]
                                     + a[1, 1, 0] * a[0, 0, 1])
          + a[0, 1, 1] * a[1, 0, 0] * (a[1, 0, 1] * a[0, 1, 0] + a[1, 1, 0] * a[0, 0, 1])
          + a[1, 0, 1] * a[0, 1, 0] * a[1, 1, 0] * a[0, 0, 1])
    d3 = (a[0, 0, 0] * a[1, 1, 0] * a[1, 0, 1] * a[0, 1, 1]
          + a[1, 1, 1] * a[0, 0, 1] * a[0, 1, 0] * a[1, 0, 0])
    return 4 * abs(d1 - 2 * d2 + 4 * d3)


def w6_state() -> PureState:
    """The 6-qubit W-class digest state: (0.3, 0.25, 0.35, 0.4, 0.45, 0.5, 0.3)/norm, A first."""
    amps = np.zeros(64)
    amps[[0] + [1 << k for k in range(5, -1, -1)]] = [0.3, 0.25, 0.35, 0.4, 0.45, 0.5, 0.3]
    return PureState(amps / np.linalg.norm(amps), (2,) * 6)


W4_TABLE = {
    (1,): 0.5, (2,): 0.5, (3,): 0.5,
    (1, 2): SQ2 / 2, (1, 3): SQ2 / 2, (2, 3): SQ2 / 2,
    (1, 2, 3): SQ3 / 2,
}


def product_state_4q() -> PureState:
    psi = np.zeros(16)
    psi[0] = 1.0
    return PureState(psi, (2, 2, 2, 2))


def left_sum(values):
    """0 + v1 + v2 + ...: the plan's addition order on every Python.

    sum() of floats is this fold up to Python 3.11 and compensated from 3.12 on.
    """
    return reduce(add, values, 0)


def recursive_tree(q, n_b, a, strategy, side, weights):
    """The residual recursion evaluated directly, as the plan flattens it.

    Kept as the reference for the plan's float order: returns the terms in
    the order they complete, the selected value of each top level, and the
    party each top-level max omits.
    """
    terms = {}

    def full(sub):
        if sub not in terms:
            parts = left_sum(weights.get(b, 1.0) * q[(b,)] ** a for b in sub)
            joint = q[sub] ** a
            inner = left_sum(val for val, _ in levels(sub))
            terms[sub] = (parts - joint - inner) if side == POLYGAMY else (joint - parts - inner)
        return terms[sub]

    def levels(sub):
        out = []
        for k in range(3, len(sub) + 1):
            prefix = sub[:k]
            cands = [(full(prefix[:i] + prefix[i + 1:]), prefix[i]) for i in range(k)]
            if strategy == "max":
                out.append(max(cands, key=lambda t: t[0]))
            else:
                out.append((left_sum(v for v, _ in cands) / len(cands), None))
        return out

    top = levels(tuple(range(1, n_b + 1)))
    return terms, [v for v, _ in top], [o for _, o in top]


def bound_weights(bound_id, a, side, n_b, m, ref):
    """A weighted bound's weight per party from its definition; {} when unweighted."""
    weighting = BOUNDS[side][bound_id][0]
    if weighting is None:
        return {}
    scalar = a / ref if weighting == "ratio" else 2.0 ** (a / ref) - 1.0
    if bound_id == PAIR_WEIGHTED:
        return {1: 1.0, 2: scalar}  # down the descending sort of the pair
    return {b: scalar**k for b, k in enumerate(bmod._weight_powers(n_b, m), start=1)}


def recursive_bound(q, n_b, bound_id, a, side, m, ref):
    """One bound evaluated directly from its definition (the plan's reference)."""
    strategy = BOUNDS[side][bound_id][1]
    values = [q[(i,)] for i in range(1, n_b + 1)]
    weights = bound_weights(bound_id, a, side, n_b, m, ref)
    if bound_id == PAIR_WEIGHTED:
        values.sort(reverse=True)
    value = left_sum(weights.get(i, 1.0) * v**a for i, v in enumerate(values, start=1))
    if strategy is None:
        return value
    level_sum = left_sum(recursive_tree(q, n_b, a, strategy, side, weights)[1])
    return value - level_sum if side == POLYGAMY else value + level_sum


class TestBoundPlan:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_b=st.integers(2, 5),
        a=st.floats(0.0, 6.0),
        side=st.sampled_from((POLYGAMY, MONOGAMY)),
    )
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_to_the_recursion(self, seed, n_b, a, side):
        rng = np.random.default_rng(seed)
        q = {sub: float(rng.uniform(0.0, 1.5)) if rng.random() > 0.1 else 0.0
             for k in range(1, n_b + 1) for sub in combinations(range(1, n_b + 1), k)}
        table = ComponentTable.from_values(q, n_b=n_b, measure=CONCURRENCE)
        m = int(rng.integers(1, n_b - 1)) if n_b >= 3 else None
        ref = CONCURRENCE.beta_max if side == POLYGAMY else CONCURRENCE.x_min
        ids = applicable_bounds(n_b + 1, side, m is not None)
        got = BoundPlan(table, side, ids, m).values(a)
        assert got == [recursive_bound(q, n_b, bid, a, side, m, ref) for bid in ids]
        # every residual bound's tree, weighted ones with that bound's own weights
        for bid in ids:
            strategy = BOUNDS[side][bid][1]
            if strategy is None:
                continue
            tree = residual_tree(table, side, bid, a, m)
            weights = bound_weights(bid, a, side, n_b, m, ref)
            terms, levels, omitted = recursive_tree(q, n_b, a, strategy, side, weights)
            assert list(tree.terms.items()) == list(terms.items())
            assert list(tree.level_values.values()) == levels
            assert list(tree.selection.values()) == (
                omitted if strategy == "max" else [None] * len(levels))

    def test_components_fetched_once_per_plan(self, monkeypatch):
        table = ComponentTable.from_values(
            {sub: 0.5 for k in range(1, 5) for sub in combinations(range(1, 5), k)}, n_b=4,
            measure=CONCURRENCE)
        plan = BoundPlan(table, POLYGAMY, (BASE, RESIDUAL_MAX, RESIDUAL_MEAN))
        assert plan.exact == (True, True, True)

        def no_lookup(*args):
            raise AssertionError("table read after the plan was built")

        monkeypatch.setattr(ComponentTable, "joint", no_lookup)
        assert len({tuple(plan.values(a)) for a in (0.5, 1.0, 1.5)}) == 3

    def test_estimated_components_clear_exact_flags(self):
        table = ComponentTable(near_w(5), TAU_ASSISTANCE, OptimizerConfig(restarts=2))
        plan = BoundPlan(table, POLYGAMY, (BASE, RESIDUAL_MAX))
        assert plan.exact == (True, False)

    @pytest.mark.parametrize("side", [POLYGAMY, MONOGAMY])
    def test_negative_exponent_on_a_zero_component_rejected(self, side):
        table = ComponentTable.from_values({(1,): 0.0, (2,): 0.5, (1, 2): 0.5}, n_b=2,
                                           measure=CONCURRENCE)
        with pytest.raises(InvalidParameterError, match="negative"):
            bound_value(table, BASE, -1.0, side)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match="negative"):
                bound_sweep(table, side, [2.0, -1.0])
        assert bound_value(table, BASE, 2.0, side) == (0.25, True)

    @pytest.mark.parametrize("joints, side, bound_id, exponent, m", [
        ({(1,): 0.5, (2,): 0.5, (1, 2): 0.5}, POLYGAMY, BASE, -3000.0, None),
        ({(1,): 0.5, (2,): 0.5, (1, 2): 0.5}, POLYGAMY, PAIR_WEIGHTED, 3000.0, None),
        ({(1,): 0.5, (2,): 0.5, (1, 2): 0.5}, MONOGAMY, PAIR_WEIGHTED, 3000.0, None),
        ({s: 0.5 for s in all_subsets(3)}, POLYGAMY, WEIGHTED, 1500.0, 1),
        ({(1,): 0.5, (2,): 0.5, (1, 2): 1e-3}, POLYGAMY, BASE, -200.0, None),
    ], ids=["component", "poly-weight", "mono-weight", "weight-power", "lhs"])
    def test_overflowing_power_rejected(self, joints, side, bound_id, exponent, m):
        n_b = max(max(k) for k in joints)
        table = ComponentTable.from_values(joints, n_b=n_b, measure=CONCURRENCE)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match="overflows"):
                bound_sweep(table, side, [exponent], (bound_id,), m)

    def test_negative_exponent_on_a_zero_lhs_rejected_before_any_warning(self):
        table = ComponentTable.from_values({(1,): 0.5, (2,): 0.5, (1, 2): 0.0}, n_b=2,
                                           measure=CONCURRENCE)
        assert bound_value(table, BASE, -1.0, POLYGAMY) == (4.0, True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match="lhs"):
                bound_sweep(table, POLYGAMY, [-1.0])

    def test_negative_exponent_on_non_zero_components_evaluated(self):
        table = ComponentTable.from_values({(1,): 0.5, (2,): 0.5, (1, 2): 0.5}, n_b=2,
                                           measure=CONCURRENCE)
        with pytest.warns(ExponentRangeWarning):
            sweep = bound_sweep(table, POLYGAMY, [-1.0])
        assert sweep.values[0] == (4.0,) and sweep.lhs_powers == [2.0]


IMPORT_PROBE = """
from entshare import bounds
from entshare.cli import build_parser
build_parser()
print(bounds._program.cache_info().currsize, bounds._recursion.cache_info().currsize)
"""


class TestCompiledPlan:
    """The generated float pass: one function per plan structure, built from indices only."""

    @staticmethod
    def full_table(n_b, value):
        return ComponentTable.from_values(
            {sub: value for k in range(1, n_b + 1) for sub in combinations(range(1, n_b + 1), k)},
            n_b=n_b, measure=CONCURRENCE)

    def test_plans_of_one_structure_share_one_function(self):
        ids = applicable_bounds(5, POLYGAMY, True)
        first = BoundPlan(self.full_table(4, 0.5), POLYGAMY, ids, 1)
        second = BoundPlan(self.full_table(4, 0.3), POLYGAMY, ids, 1)
        assert first._program is second._program
        assert first.values(1.3) != second.values(1.3)
        assert BoundPlan(self.full_table(4, 0.5), POLYGAMY, ids, 2)._program is not first._program
        assert BoundPlan(self.full_table(4, 0.5), MONOGAMY, (BASE,))._program is not (
            BoundPlan(self.full_table(4, 0.5), POLYGAMY, (BASE,))._program)

    @pytest.mark.parametrize("side", [POLYGAMY, MONOGAMY])
    def test_pair_sorted_the_other_way_gets_its_own_layout(self, side):
        plans = [BoundPlan(ComponentTable.from_values({(1,): q1, (2,): q2}, n_b=2,
                                                      measure=CONCURRENCE), side, (PAIR_WEIGHTED,))
                 for q1, q2 in ((0.5, 0.25), (0.25, 0.5))]
        assert plans[0]._key[3] == (0, 1) and plans[1]._key[3] == (1, 0)
        assert plans[0]._program is not plans[1]._program
        assert plans[0].values(1.3) == plans[1].values(1.3)

    @pytest.mark.parametrize("components, exponent", [
        (0.5, -3000.0), (1.5, 3000.0),
    ], ids=["small-base", "large-base"])
    def test_overflowing_component_power_keeps_its_message(self, components, exponent):
        plan = BoundPlan(self.full_table(3, components), POLYGAMY, (BASE, RESIDUAL_MAX))
        message = f"exponent {exponent} overflows a component power or the weight"
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
            plan.values(exponent)
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
            plan.explain(exponent)

    def test_negative_exponent_on_a_zero_component_rejected_before_evaluation(self):
        table = self.full_table(3, 0.5)
        table._cache[(1, 3)] = MeasureValue(0.0, "exact")  # a joint only residual bounds read
        plan = BoundPlan(table, MONOGAMY, (BASE, RATIO_WEIGHTED), 1)

        def never(*args):
            raise AssertionError("the compiled pass ran")

        plan._program = never
        with pytest.raises(InvalidParameterError, match="negative and a component is 0"):
            plan.values(-1.0)
        assert BoundPlan(table, MONOGAMY, (BASE,), 1).values(-1.0) == [6.0]

    @pytest.mark.parametrize("n_b", [2, 3, 4, 5])
    def test_source_names_come_from_indices_only(self, n_b):
        sources = []
        for side in (POLYGAMY, MONOGAMY):
            for m in ([None] + list(range(1, n_b - 1))):
                ids = applicable_bounds(n_b + 1, side, m is not None)
                plan = BoundPlan(self.full_table(n_b, 0.5), side, ids, m)
                sources.append(bmod._source(*plan._key))
        names = {tok for src in sources for tok in re.findall(r"[A-Za-z_]\w*", src)}
        allowed = {"def", "program", "x", "r", "c", "explain", "max", "index", "return", "if",
                   "else", "None"}
        assert {n for n in names if not re.fullmatch(r"[cpsmtrlb]\d+(_\d+)?", n)} <= allowed
        for bid in {b for side in BOUNDS.values() for b in side}:
            assert all(bid not in src for src in sources)

    def test_explain_compiles_nothing_more(self):
        ids = applicable_bounds(5, MONOGAMY, True)
        plan = BoundPlan(self.full_table(4, 0.4), MONOGAMY, ids, 1)
        before = bmod._program.cache_info()
        trees = plan.explain(2.5)
        assert set(trees) == {RATIO_WEIGHTED, EXP_WEIGHTED}
        after = bmod._program.cache_info()
        assert (after.currsize, after.misses) == (before.currsize, before.misses)

    def test_nothing_compiled_at_import(self):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True,
                              timeout=120, env={**os.environ, "PYTHONPATH": SRC})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "0"]


class TestWeightedPair:
    @staticmethod
    def pair_value(q1, q2, exponent, side=POLYGAMY):
        table = ComponentTable.from_values({(1,): q1, (2,): q2}, n_b=2, measure=CONCURRENCE)
        value, exact = bound_value(table, PAIR_WEIGHTED, exponent, side)
        assert exact
        return value

    def test_zero_small_component(self):
        # the smaller marginal comes first: the bound sorts the pair itself
        assert self.pair_value(0.0, 0.7, 1.3) == pytest.approx(0.7**1.3)

    def test_exponent_at_reference_recovers_plain_sum(self):
        assert self.pair_value(0.7, 0.4, 2.0) == pytest.approx(0.7**2 + 0.4**2)

    def test_w4_triple_equality_at_y3(self):
        val = self.pair_value(0.5, 0.5, 3.0, MONOGAMY)
        assert val == pytest.approx(1 / 8 + (2**1.5 - 1) / 8, abs=1e-12)
        assert val == pytest.approx((SQ2 / 2) ** 3, abs=1e-12)

    def test_range_warnings(self):
        for side, exponent in ((POLYGAMY, 3.0), (MONOGAMY, 1.0)):
            with pytest.warns(ExponentRangeWarning):
                sweep = evaluate_bounds(ComponentTable(w_state(3), CONCURRENCE), exponent, side,
                                        bound_ids=(PAIR_WEIGHTED,))
            assert cli._report_doc(sweep, 0)["bounds"][PAIR_WEIGHTED]["range_warning"]


class TestWeightPowers:
    def test_layout(self):
        assert bmod._weight_powers(4, 2) == (0, 1, 3, 2)

    def test_m_one(self):
        assert bmod._weight_powers(3, 1) == (0, 2, 1)

    def test_m_range_checked(self):
        with pytest.raises(InvalidParameterError):
            bmod._weight_powers(3, 2)
        with pytest.raises(InvalidParameterError, match="three-party"):
            bmod._weight_powers(2, 1)

    @pytest.mark.parametrize("state, m, message", [
        (w_state(4), 0, "outside 1..1"), (w_state(4), 2, "outside 1..1"),
        (w_state(5), 3, "outside 1..2"), (w_state(3), 1, "three-party"),
    ], ids=["w4-0", "w4-2", "w5-3", "w3-1"])
    @pytest.mark.parametrize("side", [POLYGAMY, MONOGAMY])
    def test_m_out_of_range_rejected_before_any_component(self, state, m, message, side):
        table = ComponentTable(state, TAU_ASSISTANCE if side == POLYGAMY else CONCURRENCE)
        with pytest.raises(InvalidParameterError, match=message):
            bound_sweep(table, side, [1.0, 2.0], (BASE,), m)
        assert table._cache == {}

    @pytest.mark.parametrize("call, message", [
        (lambda t: bound_value(t, WEIGHTED, 1.0, POLYGAMY), "needs an ordering index m"),
        (lambda t: bound_value(t, WEIGHTED, 1.0, POLYGAMY, m=5), "outside 1..2"),
        (lambda t: residual_tree(t, POLYGAMY, WEIGHTED_RESIDUAL, 1.0), "needs an ordering index m"),
        (lambda t: residual_tree(t, MONOGAMY, EXP_WEIGHTED, 2.0, 9), "outside 1..2"),
        (lambda t: BoundPlan(t, MONOGAMY, (RATIO_WEIGHTED,)), "needs an ordering index m"),
    ], ids=["value-no-m", "value-m5", "tree-no-m", "tree-m9", "plan-no-m"])
    def test_plan_checks_m_before_any_component(self, monkeypatch, call, message):
        def measured(*args):
            raise AssertionError("a component was measured before m was checked")

        monkeypatch.setattr(bmod, "measure_bipartite", measured)
        table = ComponentTable(haar_random_pure((2,) * 5, 1), CONCURRENCE)
        with pytest.raises(InvalidParameterError, match=message):
            call(table)

    def test_unknown_side_rejected_before_any_component(self):
        table = ComponentTable(w_state(4), CONCURRENCE)
        with pytest.raises(InvalidParameterError, match="side must be polygamy or monogamy"):
            bound_sweep(table, "sideways", [1.0])
        assert table._cache == {}


class TestResidualTree:
    def test_product_state_all_zero(self):
        tree = residual_tree(ComponentTable(product_state_4q(), CONCURRENCE), POLYGAMY,
                             RESIDUAL_MAX, 1.5)
        assert all(abs(v) < 1e-12 for v in tree.terms.values())
        assert all(abs(v) < 1e-12 for v in tree.level_values.values())

    @pytest.mark.parametrize("y", [2.0, 3.0])
    def test_w4_monogamy_weighted_pair_selection(self, y):
        # the max-selected weighted pair residual collapses to the closed form
        # (sq2/2)^y - (1/2)^(y/2) because the minimal weight pair is (1, L)
        table = ComponentTable.from_values(W4_TABLE, n_b=3, measure=CONCURRENCE)
        tree = residual_tree(table, MONOGAMY, EXP_WEIGHTED, y, m=1)
        assert tree.level_values[2] == pytest.approx((SQ2 / 2) ** y - 0.5 ** (y / 2), abs=1e-12)
        assert tree.exact

    def test_exactness_flag_tracks_estimates(self):
        table = ComponentTable(near_w(4), TAU_ASSISTANCE, OptimizerConfig(restarts=2))
        tree = residual_tree(table, POLYGAMY, RESIDUAL_MAX, 1.0)
        assert not tree.exact

    def test_mean_strategy_levels(self):
        table = ComponentTable.from_values(W4_TABLE, n_b=3, measure=CONCURRENCE)
        tree = residual_tree(table, POLYGAMY, RESIDUAL_MEAN, 2.0)
        pair = 2 * 0.25 - 0.5
        assert tree.level_values == {3: pytest.approx(pair)}
        assert tree.selection[3] is None

    def test_tied_residuals_select_the_first_omitted_party(self):
        # parties 2, 3 and 4 are symmetric, so the residuals of (1, 3) and (1, 2), and of
        # (1, 3, 4), (1, 2, 4) and (1, 2, 3), are equal floats; each max keeps the first
        q = {(1,): 0.3, (2,): 0.5, (3,): 0.5, (4,): 0.5, (1, 2, 3, 4): 0.9}
        q.update({s: 0.5 if 1 in s else 0.9 for s in combinations(range(1, 5), 2)})
        q.update({s: 0.6 if 1 in s else 1.0 for s in combinations(range(1, 5), 3)})
        table = ComponentTable.from_values(q, n_b=4, measure=CONCURRENCE)
        tree = residual_tree(table, POLYGAMY, RESIDUAL_MAX, 2.0)
        assert tree.terms[(1, 3)] == tree.terms[(1, 2)] > tree.terms[(2, 3)]
        assert tree.terms[(1, 3, 4)] == tree.terms[(1, 2, 3)] > tree.terms[(2, 3, 4)]
        terms, levels, omitted = recursive_tree(q, 4, 2.0, "max", POLYGAMY, {})
        assert tree.selection == {2: 2, 3: 2} == dict(enumerate(omitted, 2))
        assert list(tree.level_values.values()) == levels and tree.terms == terms

    @pytest.mark.parametrize("side, bound_id", [
        (POLYGAMY, BASE), (POLYGAMY, WEIGHTED), (MONOGAMY, BASE), (POLYGAMY, "median"),
    ])
    def test_bound_without_residual_levels_rejected_before_any_component(self, side, bound_id):
        table = ComponentTable(w_state(4), CONCURRENCE)
        with pytest.raises(InvalidParameterError):
            residual_tree(table, side, bound_id, 1.0, m=1)
        assert table._cache == {}

    @pytest.mark.parametrize("side, ids", [
        (POLYGAMY, (BASE, RESIDUAL_MAX, WEIGHTED, RESIDUAL_MEAN, WEIGHTED_RESIDUAL)),
        (MONOGAMY, (BASE, RATIO_WEIGHTED, EXP_WEIGHTED)),
    ])
    def test_explain_shows_the_levels_values_adds(self, side, ids):
        table = ComponentTable.from_values(
            {(1,): 0.5, (2,): 0.3, (3,): 0.6,
             (1, 2): 0.4, (1, 3): 0.7, (2, 3): 0.5, (1, 2, 3): 0.9},
            n_b=3, measure=CONCURRENCE)
        plan = BoundPlan(table, side, ids, 1)
        values = dict(zip(ids, plan.values(1.7)))
        trees = plan.explain(1.7)
        assert set(trees) == {b for b in ids if BOUNDS[side][b][1] is not None}
        ref = CONCURRENCE.beta_max if side == POLYGAMY else CONCURRENCE.x_min
        for bid, tree in trees.items():
            weights = bound_weights(bid, 1.7, side, 3, 1, ref)
            marginals = left_sum([weights.get(b, 1.0) * table.marginal(b).value ** 1.7
                                  for b in (1, 2, 3)])
            sign = -1.0 if side == POLYGAMY else 1.0
            assert values[bid] == marginals + sign * left_sum(tree.level_values.values())


class TestComponentTable:
    def test_synthetic_lookup_and_missing_key(self):
        table = ComponentTable.from_values({(1,): 0.5, (2,): 0.25}, n_b=2, measure=CONCURRENCE)
        assert table.marginal(1).value == 0.5
        with pytest.raises(InvalidParameterError):
            table.joint((1, 2))

    def test_synthetic_negative_value_rejected(self):
        with pytest.raises(InvalidParameterError):
            ComponentTable.from_values({(1,): 0.5, (2,): -0.25}, n_b=2, measure=CONCURRENCE)

    def test_caches_the_dispatched_measure_value(self):
        table = ComponentTable(near_w(4), TAU_ASSISTANCE, OptimizerConfig(restarts=2))
        cut = Bipartition({0}, {1, 2})
        direct = measure_bipartite(TAU_ASSISTANCE, partial_trace(near_w(4), (0, 1, 2)), cut,
                                   OptimizerConfig(restarts=2))
        assert table.joint((1, 2)) == direct
        assert table.joint((1, 2)).exactness == "lower-estimate"

    def test_report_lhs_is_the_table_entry(self):
        table = ComponentTable(w_state(4), CONCURRENCE, OptimizerConfig(restarts=2))
        sweep = evaluate_bounds(table, 2.0, MONOGAMY)
        assert sweep.plan.lhs is table.lhs()

    def test_state_backed_memoizes(self):
        table = ComponentTable(w_state(4), CONCURRENCE)
        first = table.joint((1, 2))
        assert table.joint((2, 1)) is first

    def test_subset_validation(self):
        table = ComponentTable.from_values(W4_TABLE, n_b=3, measure=CONCURRENCE)
        # int() would truncate the non-integral parties to the B1 or B1B2 cut
        for subset in ((0,), (1, 1), [1.7], [2.2, 1.9], [1, 1.0], [True, 2.5]):
            with pytest.raises(InvalidParameterError, match="not a set of B parties"):
                table.joint(subset)
        assert table.joint([np.int64(2), 1]) is table.joint((1, 2))
        state_backed = ComponentTable(w_state(4), CONCURRENCE)
        with pytest.raises(InvalidParameterError, match="not a set of B parties"):
            state_backed.joint([1.7])
        assert state_backed._cache == {}

    @pytest.mark.parametrize("int_first", [False, True], ids=["float-first", "int-first"])
    def test_acceptance_does_not_depend_on_the_cache(self, int_first):
        # (1.0,) == (1,) and both hash alike, so a cache lookup alone would read (1.0,)
        table = ComponentTable(w_state(4), CONCURRENCE)
        if int_first:
            want = table.joint((1,))
        for subset in ((1.0,), (1, 2.0), [1.0]):
            with pytest.raises(InvalidParameterError, match="not a set of B parties"):
                table.joint(subset)
        if not int_first:
            want = table.joint((1,))
        for subset in ((np.int64(1),), (True,), [np.int64(1)], [True]):
            assert table.joint(subset) is want
        assert table.joint((True, 2)) is table.joint((1, np.int64(2))) is table.joint((1, 2))

    def test_exact_marginals_for_w4(self):
        table = ComponentTable(w_state(4), CONCURRENCE)
        for i in (1, 2, 3):
            comp = table.marginal(i)
            assert comp.exact
            assert comp.value == pytest.approx(0.5, abs=1e-10)


class TestSharedReductions:
    """Tables on one state share each reduction and its spin-flip spectrum."""

    def test_one_partial_trace_per_sample_and_subset(self, capsys, monkeypatch):
        keeps = []
        trace = bmod.partial_trace

        def counting(state, keep):
            keeps.append(tuple(keep))
            return trace(state, keep)

        monkeypatch.setattr(bmod, "partial_trace", counting)
        assert cli.main(["fuzz", "--samples", "1", "--dims", "2,2,2"]) == 0
        capsys.readouterr()
        # two tables (concurrence, assistance) on one sample: each pair is reduced once
        assert sorted(keeps) == [(0, 1), (0, 2)]

    def test_one_spin_flip_svd_per_reduction(self, monkeypatch):
        shapes = []
        svd = np.linalg.svd

        def counting(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        state = haar_random_pure((2, 2, 2), 3)
        rho = partial_trace(state, (0, 1))
        monkeypatch.setattr(np.linalg, "svd", counting)
        measures.wootters_concurrence(rho)
        measures.assistance_2q(rho)
        assert len(shapes) == 1
        lam = measures._spin_flip_spectrum(rho)
        assert len(shapes) == 1 and not lam.flags.writeable
        shapes.clear()
        for measure in (CONCURRENCE, TAU_ASSISTANCE):
            ComponentTable(state, measure).lhs()
            for i in (1, 2):
                ComponentTable(state, measure).marginal(i)
        # one square Y^T (sy x sy) Y per pair reduction; the 2x4 ones are the pure joint cut
        assert sum(a == b for a, b in shapes) == 2

    @pytest.mark.parametrize("dims, seed", [((2, 2, 2), 3), ((2, 3, 2), 0)],
                             ids=["haar-3q", "qutrit"])
    def test_shared_values_equal_lone_tables(self, dims, seed):
        state = haar_random_pure(dims, seed)
        shared = [ComponentTable(state, m) for m in (CONCURRENCE, TAU_ASSISTANCE)]
        for measure, table in zip((CONCURRENCE, TAU_ASSISTANCE), shared):
            alone = ComponentTable(PureState(state.amplitudes.copy(), state.dims), measure)
            for subset in all_subsets(2):
                got, want = table.joint(subset), alone.joint(subset)
                # equal value, exactness and optimizer metadata, to the last bit
                assert got == want and got.value.hex() == want.value.hex()

    def test_memo_entries_free_with_their_state(self):
        state = haar_random_pure((2, 2, 2), 4)
        for measure in (CONCURRENCE, TAU_ASSISTANCE):
            table = ComponentTable(state, measure)
            table.marginal(1), table.lhs()
        rho = bmod._REDUCTIONS[state][(0, 1)]
        assert rho in measures._SPECTRA and state in measures._PURE_CUTS
        gone = [weakref.ref(state), weakref.ref(rho)]
        memos = (bmod._REDUCTIONS, measures._SPECTRA, measures._PURE_CUTS)
        sizes = [len(memo) for memo in memos]
        del state, rho, table
        gc.collect()
        assert [ref() for ref in gone] == [None, None]
        assert all(len(memo) < size for memo, size in zip(memos, sizes))

    def test_one_pure_cut_per_fuzz_sample(self, capsys, monkeypatch):
        # both default measures read the full cut of the sample, which is measured once
        cuts, pure = [], measures.concurrence_pure
        monkeypatch.setattr(measures, "concurrence_pure",
                            lambda state, cut: cuts.append(cut) or pure(state, cut))
        assert cli.main(["fuzz", "--samples", "1", "--format", "json"]) == 0
        assert cuts == [Bipartition({0}, {1, 2})]
        state = haar_random_pure((2, 2, 2), DEFAULT_OPT.seed)
        fresh = PureState(state.amplitudes.copy(), state.dims)
        tables = [ComponentTable(state, m) for m in (CONCURRENCE, TAU_ASSISTANCE)]
        lhs = [table.lhs() for table in tables]
        assert lhs[0] is lhs[1] and len(cuts) == 2
        # the shared value is the one a lone call on another copy of the state computes
        assert lhs[0] == pure(fresh, Bipartition({0}, {1, 2}))
        assert lhs[0].value.hex() == pure(fresh, Bipartition({0}, {1, 2})).value.hex()


class TestWClassTable:
    @pytest.mark.parametrize("make, subset", [
        (w_state, (1, 2)), (w_state, (1, 2, 3)), (general_w, (1, 2)), (general_w, (2, 3, 4)),
    ], ids=["w5-2x4", "w5-2x8", "general-2x4", "general-2x8"])
    def test_closed_form_equals_the_roof_in_both_directions(self, make, subset):
        state = make(5)
        rho = partial_trace(state, (0,) + subset)
        cut = Bipartition({0}, set(range(1, len(subset) + 1)))
        for measure, direction in ((CONCURRENCE, "minimize"), (TAU_ASSISTANCE, "maximize")):
            closed = ComponentTable(state, measure).joint(subset)
            assert closed.exact
            roof = convex_roof(rho, cut, direction, OptimizerConfig(restarts=16)).value
            # a minimizing roof is an upper estimate, a maximizing one a lower estimate
            if direction == "minimize":
                assert roof >= closed.value - 1e-12
            else:
                assert roof <= closed.value + 1e-12
            assert roof == pytest.approx(closed.value, abs=1e-12)

    def test_value_is_the_root_of_the_pair_squares(self):
        table = ComponentTable(general_w(5), CONCURRENCE)
        for subset in all_subsets(4)[4:-1]:
            pairs = sum(table.marginal(i).value ** 2 for i in subset)
            assert table.joint(subset).value == pytest.approx(math.sqrt(pairs), abs=1e-12)

    @pytest.mark.parametrize("state", [
        w_state(4), w_state(5), general_w(4), general_w(5), general_w(6),
        make_family("ghz", [4]), make_family("ghz", [5]),
        make_family("4q-theta", [math.pi / 4, math.pi / 4]),
        make_family("4q-theta", [0.3, 1.2, 0.5]),
    ], ids=["w4", "w5", "general-w4", "general-w5", "general-w6", "ghz4", "ghz5",
            "4q-theta", "4q-theta-phase"])
    @pytest.mark.parametrize("measure", [CONCURRENCE, TAU_ASSISTANCE])
    def test_every_component_exact_without_a_roof(self, no_roof, state, measure):
        table = ComponentTable(state, measure, OptimizerConfig(restarts=1))
        assert all(table.joint(s).exact for s in all_subsets(state.n_parties - 1))

    @pytest.mark.parametrize("state", [w_state(4), near_w(4), w_state(4).density()],
                             ids=["w", "near-w", "mixed"])
    def test_joints_go_through_the_dispatch(self, monkeypatch, state):
        cuts = []

        def recording(measure, sub, cut, opt):
            cuts.append(sub.dims)
            return MeasureValue(0.5, "upper-estimate", {"restarts": 1})

        monkeypatch.setattr(bmod, "measure_bipartite", recording)
        assert not ComponentTable(state, CONCURRENCE).joint((1, 2)).exact
        assert cuts == [(2, 2, 2)]


class TestKnownFindings:
    """Pinned findings about the paper's bounds, not behaviour to preserve.

    On the W-class state F below every component is exact and the ordering
    index is m = 1, yet two weighted bounds with residual levels fail. The
    tests fix the values so that any change to them is seen; they do not
    claim the bounds are right.
    """

    @staticmethod
    def state_f() -> PureState:
        """Amplitudes (4, 3, 6, 4, 4)/sqrt(93) on |0000>, |1000>, |0100>, |0010>, |0001>."""
        amps = np.zeros(16)
        amps[[0b0000, 0b1000, 0b0100, 0b0010, 0b0001]] = np.array([4, 3, 6, 4, 4]) / math.sqrt(93)
        return PureState(amps, (2,) * 4)

    @pytest.mark.parametrize("measure, side, exponent, bound_id, value, lhs_power", [
        (CONCURRENCE, MONOGAMY, 5.2, EXP_WEIGHTED, 0.0410777, 0.0375663),
        (TAU_ASSISTANCE, POLYGAMY, 0.8, WEIGHTED_RESIDUAL, 0.5767125, 0.6035847),
    ], ids=["monogamy-exp_weighted", "polygamy-weighted_residual"])
    def test_weighted_residual_bounds_fail_on_an_exact_table(self, no_roof, measure, side,
                                                             exponent, bound_id, value,
                                                             lhs_power):
        table = ComponentTable(self.state_f(), measure)
        sweep = evaluate_bounds(table, exponent, side)
        rep = cli._report_doc(sweep, 0)
        # Kim-Sanders: C_{AB_i} = 2 |b_0 b_i|, joints sqrt(sum_S C^2), lhs 2 sqrt(det rho_A)
        b = np.array([3, 6, 4, 4]) / math.sqrt(93)
        q = {s: 2 * b[0] * math.sqrt(sum(b[i] ** 2 for i in s)) for s in all_subsets(3)[:-1]}
        q[(1, 2, 3)] = 2 * math.sqrt(612) / 93
        assert all(table.joint(s).value == pytest.approx(q[s], rel=1e-12) for s in q)
        ref = measure.beta_max if side == POLYGAMY else measure.x_min
        entry = rep["bounds"][bound_id]
        assert rep["m"] == 1 and entry["exact"] and sweep.plan.lhs.exact
        assert entry["value"] == pytest.approx(recursive_bound(q, 3, bound_id, exponent, side, 1,
                                                               ref), rel=1e-12)
        assert rep["lhs_power"] == pytest.approx(q[(1, 2, 3)] ** exponent, rel=1e-12)
        assert (entry["value"], rep["lhs_power"]) == pytest.approx((value, lhs_power), abs=5e-8)
        assert rep["satisfied"][bound_id] is False


class TestBoundValues:
    def test_base_w5_assistance(self):
        table = ComponentTable(w_state(5), TAU_ASSISTANCE)
        val1, exact1 = bound_value(table, BASE, 1.0, POLYGAMY)
        assert val1 == pytest.approx(1.6, abs=1e-10) and exact1
        val2, _ = bound_value(table, BASE, 2.0, POLYGAMY)
        assert val2 == pytest.approx(16 / 25, abs=1e-10)
        assert val2 == pytest.approx(table.lhs().value ** 2, abs=1e-10)

    def test_base_product_state(self):
        table = ComponentTable(product_state_4q(), CONCURRENCE)
        assert bound_value(table, BASE, 1.0, POLYGAMY)[0] == 0.0

    def test_residual_max_equals_direct_four_party_formula(self):
        # recursion base case: one level, max over the three pair residuals
        table = ComponentTable.from_values(
            {(1,): 0.5, (2,): 0.3, (3,): 0.6,
             (1, 2): 0.4, (1, 3): 0.7, (2, 3): 0.5, (1, 2, 3): 0.9},
            n_b=3, measure=CONCURRENCE)
        alpha = 1.3
        got, exact = bound_value(table, RESIDUAL_MAX, alpha, POLYGAMY)
        qs = {i: table.marginal(i).value for i in (1, 2, 3)}
        pairs = {
            (i, j): qs[i]**alpha + qs[j]**alpha - table.joint((i, j)).value**alpha
            for i, j in ((1, 2), (1, 3), (2, 3))
        }
        base = sum(q**alpha for q in qs.values())
        assert got == pytest.approx(base - max(pairs.values()), abs=1e-12)
        assert exact

    def test_residual_mean_is_base_minus_pair_mean(self):
        table = ComponentTable.from_values(
            {(1,): 0.5, (2,): 0.3, (3,): 0.6,
             (1, 2): 0.4, (1, 3): 0.7, (2, 3): 0.5, (1, 2, 3): 0.9},
            n_b=3, measure=CONCURRENCE)
        alpha = 1.7
        got, _ = bound_value(table, RESIDUAL_MEAN, alpha, POLYGAMY)
        qs = {i: table.marginal(i).value for i in (1, 2, 3)}
        pairs = [
            qs[i]**alpha + qs[j]**alpha - table.joint((i, j)).value**alpha
            for i, j in ((1, 2), (1, 3), (2, 3))
        ]
        base = sum(q**alpha for q in qs.values())
        assert got == pytest.approx(base - sum(pairs) / 3, abs=1e-12)

    def test_symmetric_state_mean_equals_max(self):
        table = ComponentTable.from_values(W4_TABLE, n_b=3, measure=CONCURRENCE)
        a, _ = bound_value(table, RESIDUAL_MAX, 1.5, POLYGAMY)
        b, _ = bound_value(table, RESIDUAL_MEAN, 1.5, POLYGAMY)
        assert a == pytest.approx(b, abs=1e-12)

    def test_weighted_collapses_to_base_at_reference_power(self):
        table = ComponentTable.from_values(W4_TABLE, n_b=3, measure=CONCURRENCE)
        w, _ = bound_value(table, WEIGHTED, 2.0, POLYGAMY, m=1)
        b, _ = bound_value(table, BASE, 2.0, POLYGAMY)
        assert w == pytest.approx(b, abs=1e-12)
        wr, _ = bound_value(table, WEIGHTED_RESIDUAL, 2.0, POLYGAMY, m=1)
        rm, _ = bound_value(table, RESIDUAL_MAX, 2.0, POLYGAMY)
        assert wr == pytest.approx(rm, abs=1e-12)

    def test_weighted_at_zero_exponent(self):
        table = ComponentTable.from_values(W4_TABLE, n_b=3, measure=CONCURRENCE)
        val, _ = bound_value(table, WEIGHTED, 0.0, POLYGAMY, m=1)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_monogamy_weight_collapse_at_reference(self):
        table = ComponentTable.from_values(W4_TABLE, n_b=3, measure=CONCURRENCE)
        k, _ = bound_value(table, RATIO_WEIGHTED, 2.0, MONOGAMY, m=1)
        l, _ = bound_value(table, EXP_WEIGHTED, 2.0, MONOGAMY, m=1)
        assert k == pytest.approx(l, abs=1e-12)
        assert k == pytest.approx(0.75, abs=1e-12)

    def test_weighted_bounds_need_m(self):
        table = ComponentTable.from_values(W4_TABLE, n_b=3, measure=CONCURRENCE)
        with pytest.raises(InvalidParameterError):
            bound_value(table, WEIGHTED, 1.0, POLYGAMY)

    def test_unknown_bound_id(self):
        table = ComponentTable.from_values(W4_TABLE, n_b=3, measure=CONCURRENCE)
        with pytest.raises(InvalidParameterError):
            bound_value(table, "tightest", 1.0, POLYGAMY)

    # (side, bound id) -> (the party counts it is defined at among 3..6, whether it needs m)
    PARTY_RULES = {
        (POLYGAMY, BASE): ((3, 4, 5, 6), False),
        (POLYGAMY, RESIDUAL_MAX): ((4, 5, 6), False),
        (POLYGAMY, RESIDUAL_MEAN): ((4, 5, 6), False),
        (POLYGAMY, WEIGHTED): ((4, 5, 6), True),
        (POLYGAMY, WEIGHTED_RESIDUAL): ((4, 5, 6), True),
        (POLYGAMY, PAIR_WEIGHTED): ((3,), False),
        (MONOGAMY, BASE): ((3, 4, 5, 6), False),
        (MONOGAMY, RATIO_WEIGHTED): ((4, 5, 6), True),
        (MONOGAMY, EXP_WEIGHTED): ((4, 5, 6), True),
        (MONOGAMY, PAIR_WEIGHTED): ((3,), False),
    }

    @pytest.mark.parametrize("n_parties", [3, 4, 5, 6])
    @pytest.mark.parametrize("side, bound_id", [(s, b) for s in BOUNDS for b in BOUNDS[s]])
    def test_party_count_fit(self, side, bound_id, n_parties):
        fits, keyed = self.PARTY_RULES[side, bound_id]
        assert bmod.needs_m(side, bound_id) is keyed
        assert (bound_id in applicable_bounds(n_parties, side, True)) == (n_parties in fits)
        if n_parties in fits:
            check_bound(side, bound_id, n_parties)
        else:
            message = ("applies to three-party states only" if fits == (3,)
                       else "needs at least four parties")
            with pytest.raises(InvalidParameterError, match=f"^{bound_id} {message}$"):
                check_bound(side, bound_id, n_parties)

    def test_party_count_checked_before_any_component(self):
        pair_table = ComponentTable.from_values({(1,): 0.5, (2,): 0.25}, n_b=2,
                                                measure=CONCURRENCE)
        with pytest.raises(InvalidParameterError, match="four parties"):
            bound_value(pair_table, RESIDUAL_MEAN, 1.0, POLYGAMY)


class TestThetaStateBounds:
    def test_saturation_then_violation(self):
        state = make_family("4q-theta", [math.pi / 4, math.pi / 4])
        table = ComponentTable(state, CONCURRENCE)
        lhs = table.lhs().value
        for alpha in (0.5, 1.0, 1.4):
            val, _ = bound_value(table, RESIDUAL_MAX, alpha, POLYGAMY)
            assert val == pytest.approx(lhs**alpha, abs=1e-5)
        s = SQ2 / 4
        for alpha in (1.6, 1.9):
            val, _ = bound_value(table, RESIDUAL_MAX, alpha, POLYGAMY)
            assert val == pytest.approx(s**alpha + (1.5 * s) ** alpha, abs=1e-5)
            assert val < lhs**alpha


class TestOrdering:
    def test_bell_times_product(self):
        # A maximally entangled with B1; B2, B3 in product -> m = 1 via ties
        psi = np.kron(np.array([1, 0, 0, 1]) / SQ2, np.kron([1, 0], [1, 0]))
        state = PureState(psi, (2, 2, 2, 2))
        result = ordering_classify(ComponentTable(state, CONCURRENCE))
        assert result.m == 1
        assert result.comparisons[0].relation == "ge"

    def test_w4_has_no_valid_ordering(self):
        result = ordering_classify(ComponentTable(w_state(4), CONCURRENCE))
        assert result.m is None
        assert len(result.comparisons) == 2
        assert result.comparisons[0].relation == "le"

    def test_w5_assistance_table_has_flags(self):
        result = ordering_classify(ComponentTable(near_w(5), TAU_ASSISTANCE,
                                                  OptimizerConfig(restarts=4)))
        assert len(result.comparisons) == 3
        assert any(not c.tail.exact for c in result.comparisons)

    def test_three_party_has_no_ordering(self):
        result = ordering_classify(ComponentTable(w_state(3), CONCURRENCE))
        assert result.m is None and result.comparisons == ()

    @pytest.mark.parametrize("side, measure", [(POLYGAMY, TAU_ASSISTANCE),
                                               (MONOGAMY, CONCURRENCE)])
    @pytest.mark.parametrize("state, relations", [
        (w_state(4), ("le", "both")), (w_state(5), ("le", "le", "both")),
        (w6_state(), ("le", "le", "le", "ge")),
    ], ids=["w4", "w5", "w6"])
    def test_forced_m_breaking_the_hypothesis_warns(self, no_roof, state, relations, side,
                                                    measure):
        table = ComponentTable(state, measure)
        ordering = ordering_classify(table)
        assert tuple(c.relation for c in ordering.comparisons) == relations
        assert ordering.m is None and not ordering.holds_at(1)
        with pytest.warns(OrderingHypothesisWarning, match="m=1 breaks"):
            sweep = bound_sweep(table, side, [2.0], m=1)
        assert sweep.plan.m == 1

    @pytest.mark.parametrize("side, measure", [(POLYGAMY, TAU_ASSISTANCE),
                                               (MONOGAMY, CONCURRENCE)])
    def test_forced_m_keeping_the_hypothesis_is_silent(self, no_roof, side, measure):
        table = ComponentTable(TestKnownFindings.state_f(), measure)
        assert ordering_classify(table).m == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bound_sweep(table, side, [2.0], m=1)

    def test_m_is_classified_only_for_the_bounds_that_read_it(self, no_roof):
        table = ComponentTable(TestKnownFindings.state_f(), CONCURRENCE)
        assert bound_sweep(table, MONOGAMY, [2.0], (BASE,)).plan.m is None
        assert (2, 3) not in table._cache  # the tail cut only the classification reads
        plan = bound_sweep(table, MONOGAMY, [2.0]).plan
        assert plan.m == 1 and EXP_WEIGHTED in plan.bound_ids
        assert table.ordering is table.ordering  # classified once per table
        assert bound_sweep(table, MONOGAMY, [2.0], (EXP_WEIGHTED,)).plan.m == 1

    def test_forced_m_without_a_weighted_bound_is_not_checked(self, no_roof):
        table = ComponentTable(w_state(4), CONCURRENCE)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bound_sweep(table, MONOGAMY, [2.0], (BASE,), m=1)
        assert (2, 3) not in table._cache  # the tail cut only the ordering check reads


class TestEvaluateBounds:
    def test_applicable_sets(self):
        assert applicable_bounds(3, POLYGAMY, False) == (BASE, PAIR_WEIGHTED)
        assert applicable_bounds(5, POLYGAMY, True) == (
            BASE, RESIDUAL_MAX, RESIDUAL_MEAN, WEIGHTED, WEIGHTED_RESIDUAL)
        assert applicable_bounds(4, MONOGAMY, False) == (BASE,)
        assert applicable_bounds(4, MONOGAMY, True) == (BASE, RATIO_WEIGHTED, EXP_WEIGHTED)

    def test_empty_grid_reads_no_lhs(self):
        table = ComponentTable(w_state(4), CONCURRENCE)
        sweep = bound_sweep(table, MONOGAMY, [], (BASE,))
        assert (sweep.exponents, sweep.values, sweep.verdicts) == ([], [], [])
        assert set(table._cache) == {(1,), (2,), (3,)}

    def test_range_warning_flagged(self):
        state = w_state(3)
        with pytest.warns(ExponentRangeWarning):
            sweep = evaluate_bounds(ComponentTable(state, CONCURRENCE_ASSISTANCE), 3.0, POLYGAMY)
        assert all(e["range_warning"] for e in cli._report_doc(sweep, 0)["bounds"].values())

    def test_degenerate_zero_exponent(self):
        state = make_family("ghz", [3])
        with pytest.warns(DegenerateExponentWarning):
            sweep = evaluate_bounds(ComponentTable(state, CONCURRENCE), 0.0, POLYGAMY)
        assert sweep.degenerate == [True]
        assert all(ok is None for ok in cli._report_doc(sweep, 0)["satisfied"].values())

    def test_w4_monogamy_base_saturates_at_two(self):
        sweep = evaluate_bounds(ComponentTable(w_state(4), CONCURRENCE), 2.0, MONOGAMY)
        assert sweep.plan.m is None
        assert sweep.plan.bound_ids == (BASE,)
        assert sweep.values[0][0] == pytest.approx(0.75, abs=1e-10)
        assert sweep.verdicts[0][0] is True

    @pytest.mark.parametrize("measure", [CONCURRENCE, TAU_ASSISTANCE])
    def test_product_joint_cut_is_no_false_violation(self, measure):
        # A = 0.6|0> + 0.8|1> next to |++> on B1B2: every component is an exact 0,
        # so the small exponent cannot blow rounding noise in the lhs up to 0.42
        state = PureState(np.kron([0.6, 0.8], np.full(4, 0.5)), (2, 2, 2))
        sweep = evaluate_bounds(ComponentTable(state, measure), 0.05, POLYGAMY)
        assert sweep.plan.lhs == MeasureValue(0.0, "exact") and sweep.lhs_powers == [0.0]
        rep = cli._report_doc(sweep, 0)
        assert rep["bounds"][BASE]["value"] == 0.0
        assert rep["satisfied"][BASE] is True

    def test_estimate_comparisons_can_be_indeterminate(self):
        # the perturbed W state misses saturation at the power 2 by about 1e-3,
        # inside the 1e-2 margin of an optimizer with tol 1e-3
        opt = OptimizerConfig(restarts=4, tol=1e-3)
        sweep = evaluate_bounds(ComponentTable(near_w(5), TAU_ASSISTANCE, opt), 2.0, POLYGAMY)
        rep = cli._report_doc(sweep, 0)
        gap = rep["bounds"][RESIDUAL_MAX]["value"] - rep["lhs_power"]
        assert 0 < abs(gap) < bmod.comparison_tol(opt, False)
        assert rep["satisfied"][RESIDUAL_MAX] is None


class TestHierarchy:
    def test_w5_polygamy_grid_clean(self):
        table = ComponentTable(w_state(5), TAU_ASSISTANCE, OptimizerConfig(restarts=6))
        sweep, violations, _ = verify_hierarchy(table, [0.5, 1.0, 1.5, 2.0], POLYGAMY)
        assert violations == []
        assert sweep.exponents == [0.5, 1.0, 1.5, 2.0]
        assert all(len(column) == 4 for column in sweep.values)

    def test_w4_monogamy_grid_clean(self):
        _, violations, _ = verify_hierarchy(
            ComponentTable(w_state(4), CONCURRENCE), [2.0, 3.0, 4.0, 6.0], MONOGAMY)
        assert violations == []

    @pytest.mark.parametrize("measure, side, exponents", [
        (CONCURRENCE, MONOGAMY, [2.0, 3.0]),
        (TAU_ASSISTANCE, POLYGAMY, [0.5, 1.5]),
    ])
    def test_shared_table_matches_fresh(self, measure, side, exponents, monkeypatch):
        import entshare.bounds as bounds

        opt = OptimizerConfig(restarts=2)
        shared = ComponentTable(w_state(4), measure, opt)
        verify_hierarchy(shared, [exponents[0]], side)
        fresh = verify_hierarchy(ComponentTable(w_state(4), measure, opt), exponents, side)

        def unexpected(*args):
            raise AssertionError("a shared table measured a component again")

        monkeypatch.setattr(bounds, "measure_bipartite", unexpected)
        again = verify_hierarchy(shared, exponents, side)

        def columns(sweep):  # a plan compares by identity: compare what it holds
            plan = sweep.plan
            return (dataclasses.replace(sweep, plan=None), plan.side, plan.bound_ids, plan.m,
                    plan.exact, plan.tol, plan.lhs)

        assert (columns(again[0]), *again[1:]) == (columns(fresh[0]), *fresh[1:])

    def test_product_state_all_zero(self):
        sweep, violations, _ = verify_hierarchy(
            ComponentTable(product_state_4q(), CONCURRENCE), [1.0, 2.0], POLYGAMY)
        assert violations == []
        assert sweep.lhs_powers == [0.0, 0.0]
        assert all(v == 0.0 for column in sweep.values for v in column)

    def test_degenerate_report_is_skipped(self):
        # at exponent 0 a zero marginal makes the report degenerate: no verdict to count
        table = ComponentTable.from_values({(1,): 0.5, (2,): 0.0, (1, 2): 0.6}, n_b=2,
                                           measure=CONCURRENCE)
        with pytest.warns(DegenerateExponentWarning):
            sweep, violations, indeterminate = verify_hierarchy(table, [0.0], POLYGAMY)
        assert sweep.degenerate == [True]
        assert (violations, indeterminate) == ([], 0)

    @pytest.mark.parametrize("measure, checked", [(TAU_ASSISTANCE, True), (CONCURRENCE, False)])
    def test_synthetic_table_checks_follow_its_measure(self, measure, checked):
        # pair joints above their marginal sums, so residual_max exceeds base
        table = ComponentTable.from_values(
            {(1,): 0.1, (2,): 0.1, (3,): 0.1, (1, 2): 0.5, (1, 3): 0.5, (2, 3): 0.5,
             (1, 2, 3): 0.9}, n_b=3, measure=measure)
        sweep, violations, _ = verify_hierarchy(table, [1.0], POLYGAMY)
        assert sweep.plan.m is None
        assert set(sweep.plan.bound_ids) == {BASE, RESIDUAL_MAX, RESIDUAL_MEAN}
        checks = {v.check for v in violations}
        assert {BASE, RESIDUAL_MAX} <= checks
        assert ("residual_max<=base" in checks) is checked

    @pytest.mark.parametrize("seed", range(30))
    def test_three_qubit_haar_battery(self, seed):
        state = haar_random_pure((2, 2, 2), 1000 + seed)
        _, viol_m, _ = verify_hierarchy(ComponentTable(state, CONCURRENCE),
                                        [2.0, 2.5, 3.0, 4.0], MONOGAMY)
        assert viol_m == []
        _, viol_p, _ = verify_hierarchy(ComponentTable(state, CONCURRENCE_ASSISTANCE),
                                        [0.5, 1.0, 1.5, 2.0], POLYGAMY)
        assert viol_p == []

    @pytest.mark.parametrize("seed", range(10))
    def test_three_qubit_closed_form_cross_check(self, seed):
        # CKW and its dual as the equalities they are (Coffman, Kundu & Wootters 2000):
        # C^2_{A|BC} - C^2_AB - C^2_AC = tau and C_a(rho_ABi)^2 - C(rho_ABi)^2 = tau, read
        # from the package's tables and from the conftest oracles.
        state = haar_random_pure((2, 2, 2), 2000 + seed)
        tau = three_tangle(state)
        c, ca = ComponentTable(state, CONCURRENCE), ComponentTable(state, CONCURRENCE_ASSISTANCE)
        # Each table value is a 2x2 closed form or 2 (1 - tr rho_A^2), a handful of roundings
        # of numbers <= 1; seeds 2000-2299 reach 6 eps and 10 eps.
        tol = 16 * EPS
        pairs = [c.marginal(i).value for i in (1, 2)]
        assert c.joint((1, 2)).value ** 2 - pairs[0] ** 2 - pairs[1] ** 2 == pytest.approx(
            tau, abs=tol)
        for i, pair in zip((1, 2), pairs):
            assert ca.marginal(i).value ** 2 - pair**2 == pytest.approx(tau, abs=tol)

        # rho_ABi has rank 2, so lambda_3 = lambda_4 = 0: C = l1 - l2 and C_a = l1 + l2. The
        # oracle's lambdas are square roots of eigenvalues, so the zero pair comes out of
        # order sqrt(eps) and is not read, and l2's rounding grows like eps / l2: seeds
        # 2000-2299 (smallest tau 0.007) reach 21 eps and 49 eps.
        tol = 64 * EPS
        amps, dims = state.amplitudes, (2, 2, 2)
        red = oracle_reduce(amps, dims, [0])
        joint = 2 * (1 - float(np.trace(red @ red).real))
        lams = [oracle_spin_flip_spectrum(oracle_reduce(amps, dims, [0, i])) for i in (1, 2)]
        pairs = [lam[0] - lam[1] for lam in lams]
        assert joint - pairs[0] ** 2 - pairs[1] ** 2 == pytest.approx(tau, abs=tol)
        for lam, pair in zip(lams, pairs):
            assert (lam[0] + lam[1]) ** 2 - pair**2 == pytest.approx(tau, abs=tol)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_w_class_saturates_ckw_without_a_roof(self, no_roof, n):
        # W-class states have no three-tangle: C^2_{A|rest} = sum_i C^2_{ABi}, and each
        # rho_ABi has lambda_2 = 0, so C_a = C on every pair
        for seed in range(50):
            state = random_w_class(n, seed)
            c = ComponentTable(state, CONCURRENCE)
            ca = ComponentTable(state, CONCURRENCE_ASSISTANCE)
            pairs = [c.marginal(i) for i in range(1, n)]
            assert all(p.exact for p in pairs)
            # 2 (1 - tr rho_A^2) against up to five squared closed forms, each a few
            # roundings of numbers <= 1, added: seeds 0-49 at n = 4-6 reach 11.5 eps
            assert c.lhs().value ** 2 == pytest.approx(
                left_sum(p.value**2 for p in pairs), abs=32 * EPS)
            # both closed forms read one spectrum, whose lambda_2 is an SVD's rounding of 0;
            # seeds 0-49 reach 1 eps
            for i, p in enumerate(pairs, 1):
                assert ca.marginal(i).value == pytest.approx(p.value, abs=4 * EPS)


# past beta_max = 2 the W-state pair residuals turn negative, so residual_max
# exceeds base and the hierarchy check has something to find
RULE_EXPONENTS = [1.0, 3.0]


def _wide_rule(opt, *exact):
    """A stand-in rule, wider than every gap here, with a distinct value per case."""
    return 10.0 if all(exact) else 20.0


def _rule_sweep(table):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExponentRangeWarning)
        return bound_sweep(table, POLYGAMY, RULE_EXPONENTS)


def _inverted_verdict(gap, tol, decided):
    """A stand-in decision: holds from -tol down, fails from +tol up, else undecided."""
    return True if gap <= -tol else False if gap >= tol else None


def _rule_verdicts(state, table, rule, verdict, monkeypatch):
    sweep = _rule_sweep(table)
    lhs_exact = sweep.plan.lhs.exact
    want = [[verdict(v - power, rule(table.opt, exact, lhs_exact), exact and lhs_exact)
             for v, power in zip(column, sweep.lhs_powers)]
            for column, exact in zip(sweep.values, sweep.plan.exact)]
    return sweep.verdicts, want


def _rule_ordering(state, table, rule, verdict, monkeypatch):
    comparisons = ordering_classify(table).comparisons
    want = []
    for c in comparisons:
        tol = rule(table.opt, c.marginal.exact, c.tail.exact)
        diff = c.marginal.value - c.tail.value
        ge, le = verdict(diff, tol, True), verdict(-diff, tol, True)
        want.append("both" if ge and le else ("ge" if ge else "le"))
    return [c.relation for c in comparisons], want


def _rule_hierarchy(state, table, rule, verdict, monkeypatch):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExponentRangeWarning)
        sweep, violations, _ = verify_hierarchy(table, RULE_EXPONENTS, POLYGAMY)
    ids, exact, want = sweep.plan.bound_ids, sweep.plan.exact, []
    t, b = ids.index(RESIDUAL_MAX), ids.index(BASE)
    for x, tight, loose in zip(sweep.exponents, sweep.values[t], sweep.values[b]):
        gap = loose - tight
        if verdict(gap, rule(table.opt, exact[t], exact[b]), True) is False:
            want.append((x, gap))
    got = [(v.exponent, v.gap) for v in violations if v.check == "residual_max<=base"]
    return got, want


def _rule_csv_tol(state, table, rule, verdict, monkeypatch):
    sweep = _rule_sweep(table)
    ids = sweep.plan.bound_ids
    _, cells, rows = cli._report_rows(sweep)
    lines = [(",".join(cells) % row).split(",") for row in rows]
    want = [[cli.FLOAT_CELL % rule(table.opt, exact, sweep.plan.lhs.exact)
             for exact in sweep.plan.exact] for _ in sweep.exponents]
    return [line[2 + len(ids):2 + 2 * len(ids)] for line in lines], want


def _rule_json_margin(state, table, rule, verdict, monkeypatch):
    sweep = _rule_sweep(table)
    points = range(len(sweep.exponents))
    return ([cli._report_doc(sweep, i)["margin"] for i in points],
            [rule(table.opt, False)] * len(points))


def _rule_beta_shift(state, table, rule, verdict, monkeypatch):
    scanned = []
    find_zero = thresholds.find_zero

    def spy(f, lo, hi, **kwargs):
        scanned.append(f)
        return find_zero(f, lo, hi, **kwargs)

    monkeypatch.setattr(thresholds, "find_zero", spy)
    try:
        thresholds.empirical_beta(table, RESIDUAL_MAX)
    except NoRootError:  # a stand-in rule wider than every gap leaves no transition
        pass
    (f,) = scanned
    lhs = table.lhs()
    # f(x) minus the unshifted difference, to six figures (the subtraction rounds)
    shifts = [f(x) - (bound_value(table, RESIDUAL_MAX, x, POLYGAMY)[0] - lhs.value**x)
              for x in (0.5, 1.5)]
    exact = bound_value(table, RESIDUAL_MAX, 1.0, POLYGAMY)[1]
    want = rule(table.opt, exact, lhs.exact)
    return [float(f"{v:.6g}") for v in shifts], [float(f"{want:.6g}")] * 2


# the consumers whose decisions come from bounds.verdict
VERDICT_CONSUMERS = ("report-verdict", "ordering", "hierarchy-check")
RULE_CONSUMERS = {
    "report-verdict": _rule_verdicts,
    "ordering": _rule_ordering,
    "hierarchy-check": _rule_hierarchy,
    "csv-tol": _rule_csv_tol,
    "json-margin": _rule_json_margin,
    "empirical-beta-shift": _rule_beta_shift,
}


@pytest.mark.parametrize("tol", [1e-8, 1e-3, 0.25])
def test_comparison_tol_values(tol):
    opt = OptimizerConfig(tol=tol)
    assert bmod.comparison_tol(opt) == bmod.comparison_tol(opt, True, True) == bmod.EXACT_TOL
    for flags in ((False,), (True, False), (False, True, True)):
        assert bmod.comparison_tol(opt, *flags) == 10.0 * tol + 1e-9


@pytest.mark.parametrize("gap, tol, decided, want", [
    (0.5, 0.1, True, True), (-0.1, 0.1, True, True), (-0.2, 0.1, True, False),
    (0.1, 0.1, False, True), (0.05, 0.1, False, None), (-0.05, 0.1, False, None),
    (-0.1, 0.1, False, False), (np.float64(-0.2), 0.1, True, False),
])
def test_verdict_values(gap, tol, decided, want):
    assert bmod.verdict(gap, tol, decided) is want


@pytest.fixture(scope="module")
def rule_tables():
    """An all-exact table (w4) and a table with roof estimates (near_w(4), 2 restarts)."""
    opt = OptimizerConfig(restarts=2)
    return {name: (state, ComponentTable(state, TAU_ASSISTANCE, opt))
            for name, state in (("w4", w_state(4)), ("near-w4", near_w(4)))}


@pytest.mark.parametrize("consumer", list(RULE_CONSUMERS))
@pytest.mark.parametrize("case", ["w4", "near-w4"])
def test_every_consumer_uses_the_one_comparison_rule(rule_tables, monkeypatch, case, consumer):
    state, table = rule_tables[case]
    observe = RULE_CONSUMERS[consumer]
    got, want = observe(state, table, bmod.comparison_tol, bmod.verdict, monkeypatch)
    assert got == want
    if consumer in VERDICT_CONSUMERS:
        # the stand-in decision moves what the consumer reports, so it decides with verdict
        with monkeypatch.context() as patch:
            patch.setattr(bmod, "verdict", _inverted_verdict)
            got, inverted = observe(state, table, bmod.comparison_tol, _inverted_verdict, patch)
        assert got == inverted and inverted != want
    monkeypatch.setattr(bmod, "comparison_tol", _wide_rule)
    got, wide = observe(state, table, _wide_rule, bmod.verdict, monkeypatch)
    assert got == wide
    # the stand-in rule moves what the consumer reports, so the consumer reads the rule
    assert wide != want
    assert all(c.exact for c in table._cache.values()) == (case == "w4")


def test_no_module_calls_json_dumps():
    """states.json_text is the one JSON writer: no module of the package calls json.dump(s)."""
    calls = []
    for path in sorted(Path(bmod.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([node.attr] if isinstance(node, ast.Attribute)
                     else [a.name for a in node.names] if isinstance(node, ast.ImportFrom)
                     else [])
            calls += [f"{path.name}:{node.lineno}" for name in names if name in ("dump", "dumps")]
    assert calls == []


def test_no_transition_message_comes_from_verdict(rule_tables, monkeypatch):
    _, table = rule_tables["w4"]
    with pytest.raises(NoRootError, match="^no transition: the bound holds on the whole range$"):
        thresholds.empirical_beta(table, BASE, search_cap=1.5)
    # the stand-in decision flips the reason, so the scan decides it with verdict
    monkeypatch.setattr(bmod, "verdict", _inverted_verdict)
    with pytest.raises(NoRootError, match="^no transition: the bound is violated from the first"):
        thresholds.empirical_beta(table, BASE, search_cap=1.5)


class TestSyntheticProperties:
    @staticmethod
    def random_table(draw_vals):
        q1, q2, q3, j12, j13, j23, lhs = draw_vals
        return ComponentTable.from_values(
            {(1,): q1, (2,): q2, (3,): q3, (1, 2): j12, (1, 3): j13, (2, 3): j23,
             (1, 2, 3): lhs},
            n_b=3, measure=CONCURRENCE)

    @given(
        vals=st.lists(st.floats(0.01, 1.0), min_size=7, max_size=7),
        alpha=st.floats(0.05, 2.0),
        c=st.floats(0.1, 3.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_scale_covariance(self, vals, alpha, c):
        table = self.random_table(vals)
        scaled = self.random_table([v * c for v in vals])
        for bid, side, m in ((BASE, POLYGAMY, None), (RESIDUAL_MAX, POLYGAMY, None),
                             (RESIDUAL_MEAN, POLYGAMY, None), (WEIGHTED, POLYGAMY, 1),
                             (EXP_WEIGHTED, MONOGAMY, 1)):
            v0, _ = bound_value(table, bid, alpha, side, m)
            v1, _ = bound_value(scaled, bid, alpha, side, m)
            assert v1 == pytest.approx(c**alpha * v0, rel=1e-9, abs=1e-12)

    @given(
        vals=st.lists(st.floats(0.01, 1.0), min_size=7, max_size=7),
        y=st.floats(2.0, 6.0),
        m=st.integers(1, 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_exp_weight_dominates_ratio_weight(self, vals, y, m):
        table = self.random_table(vals)
        k, _ = bound_value(table, RATIO_WEIGHTED, y, MONOGAMY, m=m)
        l, _ = bound_value(table, EXP_WEIGHTED, y, MONOGAMY, m=m)
        assert l >= k - 1e-9

    @given(
        vals=st.lists(st.floats(0.01, 1.0), min_size=7, max_size=7),
        alpha=st.floats(0.0, 2.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_weighted_below_base_on_valid_range(self, vals, alpha):
        table = self.random_table(vals)
        w, _ = bound_value(table, WEIGHTED, alpha, POLYGAMY, m=1)
        b, _ = bound_value(table, BASE, alpha, POLYGAMY)
        assert w <= b + 1e-9

    @given(
        qs=st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3),
        rs=st.lists(st.floats(0.0, 0.3), min_size=3, max_size=3),
        alpha=st.floats(0.1, 2.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_residual_identity_on_consistent_tables(self, qs, rs, alpha):
        # joints built so every pair residual is the chosen non-negative value
        q1, q2, q3 = qs
        joints = {}
        for (i, j), r in zip(((1, 2), (1, 3), (2, 3)), rs):
            joints[(i, j)] = (max(qs[i - 1] ** alpha + qs[j - 1] ** alpha - r, 0.0)) ** (1 / alpha)
        table = ComponentTable.from_values(
            {(1,): q1, (2,): q2, (3,): q3, **joints, (1, 2, 3): 0.5}, n_b=3,
            measure=CONCURRENCE)
        tree = residual_tree(table, POLYGAMY, RESIDUAL_MAX, alpha)
        base, _ = bound_value(table, BASE, alpha, POLYGAMY)
        tight, _ = bound_value(table, RESIDUAL_MAX, alpha, POLYGAMY)
        levels = left_sum(tree.level_values.values())
        assert tight == pytest.approx(base - levels, abs=1e-10)
        assert levels >= -1e-9

    def test_hierarchy_checks_scoped_to_provable_cases(self):
        # the exp/ratio dominance is a four-party theorem (counterexamples
        # exist on shared five-party tables), and the residual-tightened vs
        # base ordering needs a genuinely polygamous measure
        from entshare.bounds import hierarchy_checks

        assert hierarchy_checks(MONOGAMY, 4, CONCURRENCE) == ((EXP_WEIGHTED, RATIO_WEIGHTED),)
        assert hierarchy_checks(MONOGAMY, 5, CONCURRENCE) == ()
        assert hierarchy_checks(POLYGAMY, 5, TAU_ASSISTANCE) == ((RESIDUAL_MAX, BASE),)
        assert hierarchy_checks(POLYGAMY, 4, CONCURRENCE) == ()
