import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_lambda_sum, oracle_wootters
from entshare.bounds import (
    BASE,
    EXP_WEIGHTED,
    MONOGAMY,
    PAIR_WEIGHTED,
    POLYGAMY,
    RATIO_WEIGHTED,
    RESIDUAL_MAX,
    RESIDUAL_MEAN,
    WEIGHTED,
    WEIGHTED_RESIDUAL,
    ComponentTable,
    applicable_bounds,
    bound_value,
    check_bound,
    evaluate_bounds,
    ordering_classify,
    residual_tree,
    residual_tripartite,
    verify_hierarchy,
    weight_map,
)
from entshare.errors import DegenerateExponentWarning, ExponentRangeWarning, InvalidParameterError
from entshare.measures import (
    CONCURRENCE,
    CONCURRENCE_ASSISTANCE,
    TAU_ASSISTANCE,
    OptimizerConfig,
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

W4_TABLE = {
    (1,): 0.5, (2,): 0.5, (3,): 0.5,
    (1, 2): SQ2 / 2, (1, 3): SQ2 / 2, (2, 3): SQ2 / 2,
    (1, 2, 3): SQ3 / 2,
}


def product_state_4q() -> PureState:
    psi = np.zeros(16)
    psi[0] = 1.0
    return PureState(psi, (2, 2, 2, 2))


class TestResidualTripartite:
    def test_three_qubit_family_root(self):
        # alpha_1 = 2 ln 2 / ln 3 zeroes the equal-amplitude family residual
        alpha1 = 2 * math.log(2) / math.log(3)
        val = residual_tripartite(0.4, 0.4, 2 * SQ3 / 5, alpha1)
        assert abs(val) < 1e-4

    def test_all_zero(self):
        assert residual_tripartite(0.0, 0.0, 0.0, 1.0) == 0.0

    def test_direct_arithmetic(self):
        val = residual_tripartite(0.4, 0.4, 2 * SQ3 / 5, 2.0)
        assert val == pytest.approx(8 / 25 - 12 / 25, abs=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(InvalidParameterError):
            residual_tripartite(-0.1, 0.2, 0.3, 1.0)

    def test_zero_exponent_degenerate_warns(self):
        with pytest.warns(DegenerateExponentWarning):
            residual_tripartite(0.0, 0.5, 0.5, 0.0)


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
                rep = evaluate_bounds(w_state(3), CONCURRENCE, exponent, side,
                                      bound_ids=(PAIR_WEIGHTED,))
            assert rep.bounds[PAIR_WEIGHTED].range_warning


class TestWeightMap:
    def test_layout(self):
        w = weight_map(4, 2, 0.5)
        assert w == {1: 1.0, 2: 0.5, 3: 0.5**3, 4: 0.25}

    def test_m_one(self):
        s = 1.8
        assert weight_map(3, 1, s) == {1: 1.0, 2: s**2, 3: s}

    def test_m_range_checked(self):
        with pytest.raises(InvalidParameterError):
            weight_map(3, 2, 1.0)


class TestResidualTree:
    def test_product_state_all_zero(self):
        tree = residual_tree(ComponentTable(product_state_4q(), CONCURRENCE), 1.5)
        assert all(abs(v) < 1e-12 for v in tree.terms.values())
        assert all(abs(v) < 1e-12 for v in tree.level_values.values())

    @pytest.mark.parametrize("y", [2.0, 3.0])
    def test_w4_monogamy_weighted_pair_selection(self, y):
        # the max-selected weighted pair residual collapses to the closed form
        # (sq2/2)^y - (1/2)^(y/2) because the minimal weight pair is (1, L)
        table = ComponentTable.from_values(W4_TABLE, n_b=3, measure=CONCURRENCE)
        weights = weight_map(3, 1, 2 ** (y / 2) - 1)
        tree = residual_tree(table, y, "max", MONOGAMY, weights)
        assert tree.level_values[2] == pytest.approx((SQ2 / 2) ** y - 0.5 ** (y / 2), abs=1e-12)
        assert tree.exact

    def test_exactness_flag_tracks_estimates(self):
        table = ComponentTable(w_state(4), TAU_ASSISTANCE, OptimizerConfig(restarts=2))
        tree = residual_tree(table, 1.0)
        assert not tree.exact

    def test_mean_strategy_levels(self):
        table = ComponentTable.from_values(W4_TABLE, n_b=3, measure=CONCURRENCE)
        tree = residual_tree(table, 2.0, "mean", POLYGAMY)
        pair = 2 * 0.25 - 0.5
        assert tree.level_values == {3: pytest.approx(pair)}
        assert tree.selection[3] is None

    def test_invalid_strategy(self):
        table = ComponentTable.from_values(W4_TABLE, n_b=3)
        with pytest.raises(InvalidParameterError):
            residual_tree(table, 1.0, "median", POLYGAMY)


class TestComponentTable:
    def test_synthetic_lookup_and_missing_key(self):
        table = ComponentTable.from_values({(1,): 0.5, (2,): 0.25}, n_b=2)
        assert table.marginal(1).value == 0.5
        with pytest.raises(InvalidParameterError):
            table.joint((1, 2))

    def test_synthetic_negative_value_rejected(self):
        with pytest.raises(InvalidParameterError):
            ComponentTable.from_values({(1,): 0.5, (2,): -0.25}, n_b=2)

    def test_caches_the_dispatched_measure_value(self):
        table = ComponentTable(w_state(4), TAU_ASSISTANCE, OptimizerConfig(restarts=2))
        cut = Bipartition({0}, {1, 2})
        direct = measure_bipartite(TAU_ASSISTANCE, partial_trace(w_state(4), (0, 1, 2)), cut,
                                   OptimizerConfig(restarts=2))
        assert table.joint((1, 2)) == direct
        assert table.joint((1, 2)).exactness == "lower-estimate"

    def test_report_lhs_is_the_table_entry(self):
        table = ComponentTable(w_state(4), CONCURRENCE, OptimizerConfig(restarts=2))
        rep = evaluate_bounds(w_state(4), CONCURRENCE, 2.0, MONOGAMY, table=table)
        assert rep.lhs is table.lhs()

    def test_state_backed_memoizes(self):
        table = ComponentTable(w_state(4), CONCURRENCE)
        first = table.joint((1, 2))
        assert table.joint((2, 1)) is first

    def test_subset_validation(self):
        table = ComponentTable.from_values(W4_TABLE, n_b=3)
        with pytest.raises(InvalidParameterError):
            table.joint((0,))
        with pytest.raises(InvalidParameterError):
            table.joint((1, 1))

    def test_exact_marginals_for_w4(self):
        table = ComponentTable(w_state(4), CONCURRENCE)
        for i in (1, 2, 3):
            comp = table.marginal(i)
            assert comp.exact
            assert comp.value == pytest.approx(0.5, abs=1e-10)


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

    @pytest.mark.parametrize("bound_id, fits, misfits", [
        (PAIR_WEIGHTED, (3,), (4, 5)), (RESIDUAL_MAX, (4, 5), (3,)),
        (RESIDUAL_MEAN, (4, 5), (3,)), (BASE, (3, 4, 5), ()),
    ])
    def test_party_count_fit(self, bound_id, fits, misfits):
        for n in fits:
            check_bound(POLYGAMY, bound_id, n)
        for n in misfits:
            with pytest.raises(InvalidParameterError):
                check_bound(POLYGAMY, bound_id, n)
        pair_table = ComponentTable.from_values({(1,): 0.5, (2,): 0.25}, n_b=2)
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
        result = ordering_classify(ComponentTable(w_state(5), TAU_ASSISTANCE,
                                                  OptimizerConfig(restarts=4)))
        assert len(result.comparisons) == 3
        assert any(not c.tail.exact for c in result.comparisons)

    def test_three_party_has_no_ordering(self):
        result = ordering_classify(ComponentTable(w_state(3), CONCURRENCE))
        assert result.m is None and result.comparisons == ()


class TestEvaluateBounds:
    def test_applicable_sets(self):
        assert applicable_bounds(3, POLYGAMY, False) == (BASE, PAIR_WEIGHTED)
        assert applicable_bounds(5, POLYGAMY, True) == (
            BASE, RESIDUAL_MAX, RESIDUAL_MEAN, WEIGHTED, WEIGHTED_RESIDUAL)
        assert applicable_bounds(4, MONOGAMY, False) == (BASE,)
        assert applicable_bounds(4, MONOGAMY, True) == (BASE, RATIO_WEIGHTED, EXP_WEIGHTED)

    def test_range_warning_flagged(self):
        state = w_state(3)
        with pytest.warns(ExponentRangeWarning):
            rep = evaluate_bounds(state, CONCURRENCE_ASSISTANCE, 3.0, POLYGAMY)
        assert all(e.range_warning for e in rep.bounds.values())

    def test_degenerate_zero_exponent(self):
        state = make_family("ghz", [3])
        with pytest.warns(DegenerateExponentWarning):
            rep = evaluate_bounds(state, CONCURRENCE, 0.0, POLYGAMY)
        assert rep.degenerate
        assert all(ok is None for ok in rep.satisfied.values())

    def test_w4_monogamy_base_saturates_at_two(self):
        rep = evaluate_bounds(w_state(4), CONCURRENCE, 2.0, MONOGAMY)
        assert rep.m is None
        assert set(rep.bounds) == {BASE}
        assert rep.bounds[BASE].value == pytest.approx(0.75, abs=1e-10)
        assert rep.satisfied[BASE] is True

    def test_estimate_comparisons_can_be_indeterminate(self):
        rep = evaluate_bounds(w_state(5), TAU_ASSISTANCE, 2.0, POLYGAMY,
                              OptimizerConfig(restarts=4))
        assert rep.satisfied[RESIDUAL_MAX] is None


class TestHierarchy:
    def test_w5_polygamy_grid_clean(self):
        reports, violations, _ = verify_hierarchy(
            w_state(5), TAU_ASSISTANCE, [0.5, 1.0, 1.5, 2.0], POLYGAMY,
            OptimizerConfig(restarts=6))
        assert violations == []
        assert len(reports) == 4

    def test_w4_monogamy_grid_clean(self):
        _, violations, _ = verify_hierarchy(
            w_state(4), CONCURRENCE, [2.0, 3.0, 4.0, 6.0], MONOGAMY)
        assert violations == []

    @pytest.mark.parametrize("measure, side, exponents", [
        (CONCURRENCE, MONOGAMY, [2.0, 3.0]),
        (TAU_ASSISTANCE, POLYGAMY, [0.5, 1.5]),
    ])
    def test_shared_table_matches_fresh(self, measure, side, exponents, monkeypatch):
        import entshare.bounds as bounds

        opt = OptimizerConfig(restarts=2)
        shared = ComponentTable(w_state(4), measure, opt)
        verify_hierarchy(w_state(4), measure, [exponents[0]], side, opt, table=shared)
        fresh = verify_hierarchy(w_state(4), measure, exponents, side, opt)

        def unexpected(*args):
            raise AssertionError("a shared table measured a component again")

        monkeypatch.setattr(bounds, "measure_bipartite", unexpected)
        again = verify_hierarchy(w_state(4), measure, exponents, side, opt, table=shared)
        assert again == fresh

    def test_product_state_all_zero(self):
        reports, violations, _ = verify_hierarchy(
            product_state_4q(), CONCURRENCE, [1.0, 2.0], POLYGAMY)
        assert violations == []
        for rep in reports:
            assert rep.lhs_power == 0.0
            assert all(e.value == 0.0 for e in rep.bounds.values())

    @pytest.mark.parametrize("seed", range(30))
    def test_three_qubit_haar_battery(self, seed):
        state = haar_random_pure((2, 2, 2), 1000 + seed)
        _, viol_m, _ = verify_hierarchy(state, CONCURRENCE, [2.0, 2.5, 3.0, 4.0], MONOGAMY)
        assert viol_m == []
        _, viol_p, _ = verify_hierarchy(state, CONCURRENCE_ASSISTANCE,
                                        [0.5, 1.0, 1.5, 2.0], POLYGAMY)
        assert viol_p == []

    @pytest.mark.parametrize("seed", range(10))
    def test_three_qubit_closed_form_cross_check(self, seed):
        # independent oracle: CKW and its dual from the conftest spectrum route
        state = haar_random_pure((2, 2, 2), 2000 + seed)
        rho = state.density().matrix
        dims = (2, 2, 2)
        from conftest import oracle_reduce

        c_ab = oracle_wootters(oracle_reduce(state.amplitudes, dims, [0, 1]))
        c_ac = oracle_wootters(oracle_reduce(state.amplitudes, dims, [0, 2]))
        ca_ab = oracle_lambda_sum(oracle_reduce(state.amplitudes, dims, [0, 1]))
        ca_ac = oracle_lambda_sum(oracle_reduce(state.amplitudes, dims, [0, 2]))
        red = oracle_reduce(state.amplitudes, dims, [0])
        c_joint = math.sqrt(max(0.0, 2 * (1 - float(np.trace(red @ red).real))))
        assert c_joint**2 + 1e-9 >= c_ab**2 + c_ac**2
        assert ca_ab**2 + ca_ac**2 + 1e-9 >= c_joint**2


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
        tree = residual_tree(table, alpha, "max", POLYGAMY)
        base, _ = bound_value(table, BASE, alpha, POLYGAMY)
        tight, _ = bound_value(table, RESIDUAL_MAX, alpha, POLYGAMY)
        assert tight == pytest.approx(base - tree.level_sum(), abs=1e-10)
        assert tree.level_sum() >= -1e-9

    def test_hierarchy_checks_scoped_to_provable_cases(self):
        # the exp/ratio dominance is a four-party theorem (counterexamples
        # exist on shared five-party tables), and the residual-tightened vs
        # base ordering needs a genuinely polygamous measure
        from entshare.bounds import hierarchy_checks

        assert hierarchy_checks(MONOGAMY, 4, CONCURRENCE) == ((EXP_WEIGHTED, RATIO_WEIGHTED),)
        assert hierarchy_checks(MONOGAMY, 5, CONCURRENCE) == ()
        assert hierarchy_checks(POLYGAMY, 5, TAU_ASSISTANCE) == ((RESIDUAL_MAX, BASE),)
        assert hierarchy_checks(POLYGAMY, 4, CONCURRENCE) == ()
