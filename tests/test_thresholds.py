import math
import warnings

import numpy as np
import pytest

from conftest import all_subsets
from entshare import thresholds
from entshare.bounds import BASE, POLYGAMY, RESIDUAL_MAX, BoundPlan, ComponentTable
from entshare.errors import (
    EvaluationError,
    ExponentRangeWarning,
    InvalidParameterError,
    NoRootError,
)
from entshare.measures import CONCURRENCE, TAU_ASSISTANCE, OptimizerConfig
from entshare.states import PureState, make_family, w_state
from entshare.thresholds import SCAN_FLOOR, empirical_beta, find_zero, residual_zero_exponent

DEGENERATE = "^no root: degenerate state, both pair components vanish$"
ONE_SIGN = "^no root: residual keeps one sign on the range$"
VIOLATED = "^no transition: the bound is violated from the first scanned exponent$"
HOLDS = "^no transition: the bound holds on the whole range$"


class TestFindZero:
    def test_power_sum_crossing(self):
        # 2^-a + (3/4)^a = 1 crossing, known to six figures
        res = find_zero(lambda a: 0.5**a + 0.75**a - 1.0, 0.1, 3.0, tol=1e-7)
        assert res is not None
        assert res.root == pytest.approx(1.507126, abs=1e-5)
        assert abs(res.residual_at_root) <= 10 * 1e-6

    def test_family_residual_crossing(self):
        # analytic root 2 ln 2 / ln 3
        res = find_zero(lambda a: 2 * 0.4**a - (2 * math.sqrt(3) / 5) ** a, 0.5, 2.0)
        assert res.root == pytest.approx(2 * math.log(2) / math.log(3), abs=1e-4)

    def test_exact_zero_on_grid(self):
        res = find_zero(lambda x: x, -1.0, 1.0)
        assert res.root == 0.0
        assert res.iterations == 0

    def test_no_sign_change_returns_none(self):
        assert find_zero(lambda x: x * x + 1.0, -1.0, 1.0) is None

    def test_nan_raises_evaluation_error(self):
        with pytest.raises(EvaluationError):
            find_zero(lambda x: float("nan"), 0.0, 1.0)

    def test_scan_steps_validated(self):
        with pytest.raises(InvalidParameterError):
            find_zero(lambda x: x, 0.0, 1.0, scan_steps=4)

    @pytest.mark.parametrize("lo, hi", [(1.0, 1.0), (1.0, 0.0), (0.0, math.nan)])
    def test_empty_range_rejected(self, lo, hi):
        with pytest.raises(InvalidParameterError, match="invalid range"):
            find_zero(lambda x: x, lo, hi)

    def test_convergence_stability_under_tighter_tol(self):
        f = lambda a: 0.5**a + 0.75**a - 1.0
        loose = find_zero(f, 0.1, 3.0, tol=1e-5)
        tight = find_zero(f, 0.1, 3.0, tol=1e-6)
        assert abs(loose.root - tight.root) <= 1e-5

    def test_deterministic(self):
        f = lambda a: 2 * 0.4**a - (2 * math.sqrt(3) / 5) ** a
        a = find_zero(f, 0.5, 2.0)
        b = find_zero(f, 0.5, 2.0)
        assert a == b

    def test_scan_profile_recorded(self):
        res = find_zero(lambda x: x - 0.5, 0.0, 1.0, scan_steps=16)
        assert len(res.scan_profile) == 17
        assert res.bracket[0] <= res.root <= res.bracket[1]

    def test_exact_zero_at_the_last_scan_point(self):
        res = find_zero(lambda x: x - 1.0, 0.0, 1.0)
        assert (res.root, res.bracket, res.iterations, res.residual_at_root) == (
            1.0, (1.0, 1.0), 0, 0.0)
        assert len(res.scan_profile) == 257 and res.scan_profile[-1] == (1.0, 0.0)

    def test_exact_zero_at_a_bisection_midpoint(self):
        # 0.5625 is no scan point of 8 steps but the first midpoint of [0.5, 0.625]
        res = find_zero(lambda x: x - 0.5625, 0.0, 1.0, scan_steps=8)
        assert (res.root, res.bracket, res.iterations, res.residual_at_root) == (
            0.5625, (0.5625, 0.5625), 1, 0.0)

    def test_bisection_capped_at_201_steps(self):
        # with tol 0 the bracket never gets narrower than two adjacent floats
        res = find_zero(lambda x: x * x - 2.0, 1.0, 2.0, tol=0.0, scan_steps=8)
        assert res.iterations == 201
        assert res.bracket[0] <= math.sqrt(2.0) <= res.bracket[1]
        assert res.bracket[1] - res.bracket[0] <= 2 * math.ulp(math.sqrt(2.0))

    def test_nan_at_a_midpoint_raises_evaluation_error(self):
        def f(x):
            return math.nan if x == 0.5625 else x - 0.5625

        with pytest.raises(EvaluationError) as info:
            find_zero(f, 0.0, 1.0, scan_steps=8)
        assert info.value.at == 0.5625

    @pytest.mark.parametrize("bad", [0, 5, 256])
    def test_scan_calls_f_at_no_point_past_a_non_finite_value(self, bad):
        xs = [i / 256 for i in range(257)]  # the scan points of [0, 1]
        seen = []

        def f(x):
            seen.append(x)
            return math.inf if x >= xs[bad] else x - 2.0

        with pytest.raises(EvaluationError) as info:
            find_zero(f, 0.0, 1.0)
        assert seen == xs[:bad + 1] and info.value.at == xs[bad]


def _hex(result) -> list[str]:
    """Every float of a ThresholdResult, as float.hex, and its iteration count."""
    floats = [result.root, *result.bracket, result.residual_at_root,
              *(v for point in result.scan_profile for v in point)]
    return [x.hex() for x in floats] + [str(result.iterations)]


# the threshold states of scripts/output_digests.py with a root, and the second 3q point
@pytest.mark.parametrize("solver, family, params, bound_id", [
    (residual_zero_exponent, "3q", [0.4472135955] * 5, BASE),
    (residual_zero_exponent, "3q", [0.5, 1 / math.sqrt(6), 0.5, 1 / math.sqrt(6),
                                    1 / math.sqrt(6)], BASE),
    (empirical_beta, "4q-theta", [0.785, 0.785], RESIDUAL_MAX),
    (empirical_beta, "4q-theta", [0.785, 0.785], BASE),
], ids=["3q-equal", "3q-second", "4q-theta-residual-max", "4q-theta-base"])
def test_scan_is_bit_identical_to_the_plan_reference(no_roof, solver, family, params, bound_id):
    table = ComponentTable(make_family(family, params), CONCURRENCE, OptimizerConfig(restarts=4))
    shifted = solver is empirical_beta
    got = solver(table, bound_id) if shifted else solver(table)
    # the reference evaluates each point through plan.values and plan.lhs_power
    plan = BoundPlan(table, POLYGAMY, (bound_id,))
    shift = plan.tol[bound_id] if shifted else 0.0
    hi = thresholds.DEFAULT_SEARCH_CAP if shifted else table.measure.beta_max
    want = find_zero(lambda a: plan.values(a)[0] - plan.lhs_power(a) + shift,
                     max(thresholds.DEFAULT_TOL, SCAN_FLOOR), hi)
    assert _hex(got) == _hex(want)


class TestResidualZero:
    def test_equal_amplitude_family(self):
        state = make_family("3q", [1 / math.sqrt(5)] * 5)
        res = residual_zero_exponent(ComponentTable(state, CONCURRENCE))
        assert res.root == pytest.approx(1.26185, abs=1e-3)

    def test_second_family_point(self):
        state = make_family("3q", [0.5, 1 / math.sqrt(6), 0.5, 1 / math.sqrt(6), 1 / math.sqrt(6)])
        res = residual_zero_exponent(ComponentTable(state, CONCURRENCE))
        assert res.root == pytest.approx(1.33770, abs=1e-3)

    def test_ghz_degenerate(self):
        with pytest.raises(NoRootError, match=DEGENERATE):
            residual_zero_exponent(ComponentTable(make_family("ghz", [3]), CONCURRENCE))

    def test_party_count_guard(self):
        table = ComponentTable(w_state(4), CONCURRENCE)
        with pytest.raises(InvalidParameterError, match="three parties"):
            residual_zero_exponent(table)
        assert table._cache == {}

    def test_scan_values_are_the_tripartite_residual(self):
        state = make_family("3q", [1 / math.sqrt(5)] * 5)
        table = ComponentTable(state, CONCURRENCE)
        q_ab, q_ac, q_abc = (table.marginal(1).value, table.marginal(2).value,
                             table.lhs().value)
        res = residual_zero_exponent(ComponentTable(state, CONCURRENCE))
        assert all(v == q_ab**x + q_ac**x - q_abc**x for x, v in res.scan_profile)

    def test_family_root_is_the_analytic_one(self):
        # Q_AB = Q_AC = 0.4 and Q_A|BC = 2 sqrt(3)/5: the root is 2 ln 2 / ln 3
        res = residual_zero_exponent(
            ComponentTable(make_family("3q", [1 / math.sqrt(5)] * 5), CONCURRENCE), tol=1e-9)
        assert res.root == pytest.approx(2 * math.log(2) / math.log(3), abs=1e-8)
        x, v = res.scan_profile[-1]
        assert x == pytest.approx(2.0, abs=1e-15)
        assert v == pytest.approx(8 / 25 - 12 / 25, abs=1e-12)

    def test_product_state_has_no_root(self):
        # every component vanishes, so the residual is identically zero
        table = ComponentTable(make_family("3q", [1, 0, 0, 0, 0]), CONCURRENCE)
        with pytest.raises(NoRootError, match=DEGENERATE):
            residual_zero_exponent(table)

    def test_phase_does_not_move_the_root(self):
        lam = [1 / math.sqrt(5)] * 5
        r0 = residual_zero_exponent(ComponentTable(make_family("3q", lam + [0.0]), CONCURRENCE))
        r1 = residual_zero_exponent(ComponentTable(make_family("3q", lam + [2.1]), CONCURRENCE))
        assert r0.root == pytest.approx(r1.root, abs=1e-9)


class TestEmpiricalBeta:
    def test_theta_state_transition(self, no_roof):
        state = make_family("4q-theta", [math.pi / 4, math.pi / 4])
        table = ComponentTable(state, CONCURRENCE)
        res = empirical_beta(table, RESIDUAL_MAX)
        assert res is not None
        assert res.root == pytest.approx(1.507126, abs=1e-4)
        assert all(table.joint(s).exact for s in all_subsets(3))

    def test_w5_base_saturates_at_configured_power(self):
        res = empirical_beta(ComponentTable(w_state(5), TAU_ASSISTANCE), BASE)
        assert res is not None
        assert res.root == pytest.approx(2.0, abs=1e-4)

    def test_product_state_has_no_transition(self):
        psi = np.zeros(16)
        psi[0] = 1.0
        state = PureState(psi, (2, 2, 2, 2))
        with pytest.raises(NoRootError, match=HOLDS):
            empirical_beta(ComponentTable(state, CONCURRENCE), RESIDUAL_MAX)

    def test_violated_at_the_first_point_has_no_transition(self):
        # base fails at the floor and the shifted gap turns positive near 3.0
        table = ComponentTable.from_values({(1,): 1e-4, (2,): 0.0, (1, 2): 1e-3}, 2, CONCURRENCE)
        with pytest.raises(NoRootError, match=VIOLATED):
            empirical_beta(table, BASE)
        assert find_zero(lambda a: 1e-4**a - 1e-3**a + 1e-9, 1e-4, 4.0).root == pytest.approx(
            3.0, abs=1e-3)

    def test_first_scan_point_above_beta_max_warns_once(self, no_roof):
        # tol 3.0 puts the first scan point past beta_max = 2, where the bound fails
        table = ComponentTable(make_family("4q-theta", [0.785, 0.785]), CONCURRENCE)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NoRootError, match=VIOLATED):
                empirical_beta(table, tol=3.0, search_cap=4.0)
        assert [(w.category, str(w.message)) for w in caught] == [
            (ExponentRangeWarning, "polygamy exponent 3.0 outside [0, 2.0]")]
        assert caught[0].filename.endswith("thresholds.py")

    def test_lhs_power_overflow_is_invalid_input(self):
        # 1.15**a overflows a float from a = 5079 on, inside the scan up to the cap
        table = ComponentTable.from_values({(1,): 0.5, (2,): 0.5, (1, 2): 1.15}, 2, CONCURRENCE)
        with pytest.raises(InvalidParameterError, match="overflows the lhs power"):
            empirical_beta(table, BASE, search_cap=10000.0)

    def test_component_power_overflow_is_named_before_the_lhs_power(self):
        # a marginal and the lhs of 1.15 overflow at the same scan point: the component is named
        table = ComponentTable.from_values({(1,): 1.15, (2,): 0.5, (1, 2): 1.15}, 2, CONCURRENCE)
        message = "overflows a component power or the weight"
        with pytest.raises(InvalidParameterError, match=f"^exponent \\S+ {message}$"):
            empirical_beta(table, BASE, search_cap=10000.0)

    def test_unknown_bound_rejected(self):
        table = ComponentTable(w_state(4), CONCURRENCE)
        with pytest.raises(InvalidParameterError):
            empirical_beta(table, "residual_mean")
        assert table._cache == {}

    def test_deterministic_with_estimates(self):
        state = make_family("4q-theta", [0.6, 0.8])
        opt = OptimizerConfig(restarts=4, seed=3)
        a = empirical_beta(ComponentTable(state, CONCURRENCE, opt), RESIDUAL_MAX)
        b = empirical_beta(ComponentTable(state, CONCURRENCE, opt), RESIDUAL_MAX)
        assert a.root == b.root


# the states of the four no-root threshold commands in scripts/output_digests.py
@pytest.mark.parametrize("solver, family, params, message", [
    (residual_zero_exponent, "ghz", [3], DEGENERATE),
    (residual_zero_exponent, "3q", [0.6, 0, 0.6, 0, 0.5291502622129181], ONE_SIGN),
    (empirical_beta, "ghz", [3], VIOLATED),
    (empirical_beta, "3q", [1, 0, 0, 0, 0], HOLDS),
], ids=["degenerate", "one-sign", "violated", "holds"])
def test_each_no_root_outcome_says_why(no_roof, solver, family, params, message):
    table = ComponentTable(make_family(family, params), CONCURRENCE)
    kwargs = {"bound_id": BASE} if solver is empirical_beta else {}
    with pytest.raises(NoRootError, match=message):
        solver(table, **kwargs)


@pytest.mark.parametrize("scan_steps", [4, 1_000_000])
@pytest.mark.parametrize("solver, state", [
    (residual_zero_exponent, make_family("3q", [1 / math.sqrt(5)] * 5)),
    (empirical_beta, make_family("4q-theta", [math.pi / 4, math.pi / 4])),
], ids=["residual-zero", "empirical-beta"])
def test_scan_steps_checked_before_the_table(solver, state, scan_steps):
    table = ComponentTable(state, CONCURRENCE)
    with pytest.raises(InvalidParameterError, match="scan_steps"):
        solver(table, scan_steps=scan_steps)
    assert table._cache == {}


@pytest.mark.parametrize("kwargs, match", [
    ({"search_cap": 0.0}, "invalid range"), ({"search_cap": -1.0}, "invalid range"),
    ({"search_cap": math.nan}, "invalid range"), ({"search_cap": 1e-5}, "invalid range"),
    ({"search_cap": math.inf}, "invalid range"), ({"tol": 5.0}, "invalid range"),
    ({"tol": math.nan}, "tol"), ({"tol": math.inf}, "tol"),
], ids=["cap-0", "cap-negative", "cap-nan", "cap-below-floor", "cap-inf", "tol-above-cap",
        "tol-nan", "tol-inf"])
def test_range_and_tol_checked_before_the_table(kwargs, match):
    table = ComponentTable(make_family("4q-theta", [math.pi / 4, math.pi / 4]), CONCURRENCE)
    with pytest.raises(InvalidParameterError, match=match):
        empirical_beta(table, RESIDUAL_MAX, **kwargs)
    assert table._cache == {}
    if "tol" in kwargs:
        table = ComponentTable(make_family("3q", [1 / math.sqrt(5)] * 5), CONCURRENCE)
        with pytest.raises(InvalidParameterError, match=match):
            residual_zero_exponent(table, **kwargs)
        assert table._cache == {}
