"""The column pass (bounds.bound_sweep) against a per-point reference, and the CSV row template.

The reference evaluates each grid point on its own from BoundPlan.values, BoundPlan.lhs_power
and bounds.verdict; every value, lhs power and gap must agree to the bit, and every verdict
cell must be the same. The warning lists and error messages below are those the per-point
loop gave before the column pass replaced it.
"""

import argparse
import math
import runpy
import warnings
from pathlib import Path

import numpy as np
import pytest

from entshare import bounds as bmod
from entshare import cli
from entshare.bounds import (
    BASE,
    MONOGAMY,
    PAIR_WEIGHTED,
    POLYGAMY,
    BoundPlan,
    ComponentTable,
    bound_sweep,
    evaluate_bounds,
    verify_hierarchy,
)
from entshare.errors import (
    DegenerateExponentWarning,
    ExponentRangeWarning,
    InvalidParameterError,
)
from entshare.measures import CONCURRENCE, OptimizerConfig, get_measure
from entshare.reference import inclusive_grid
from entshare.states import make_family

ROOT = Path(__file__).resolve().parents[1]
DIGEST = runpy.run_path(str(ROOT / "scripts" / "output_digests.py"))
DIGEST_OPT = OptimizerConfig(restarts=4, seed=11)  # the digest sweeps' --restarts 4 --seed 11


def _digest_states():
    """Every state the digest sweeps read: the four families and the W6 and F state files."""
    states = {family: make_family(family, [float(p) for p in args[1].split(",")] if args else [])
              for family, args in DIGEST["FAMILIES"].items()}
    files = DIGEST["state_files"]()
    return {**states, "w6": files["w6.json"], "f": files["f.json"], "haar4": files["haar4.json"]}


STATES = _digest_states()
# (state, side, m): both sides, the default ids, and m = 1 wherever an ordering index exists
DIGEST_CASES = [(name, side, m) for name in ("3q", "w4", "4q-theta", "w5", "w6", "f")
                for side in (POLYGAMY, MONOGAMY)
                for m in ((None,) if STATES[name].n_parties == 3 else (None, 1))]


@pytest.fixture(scope="module")
def tables():
    cache = {}

    def table(name, side):
        measure = get_measure(DIGEST["SIDES"][side][0])
        if (name, side) not in cache:
            cache[name, side] = ComponentTable(STATES[name], measure, DIGEST_OPT)
        return cache[name, side]

    return table


def _reference(sweep, table, side, grid):
    """Each point on its own: values, lhs powers, gaps and verdicts, one row per exponent."""
    plan = BoundPlan(table, side, sweep.plan.bound_ids, sweep.plan.m)
    lhs = table.lhs()
    zero = lhs.value == 0.0 or any(table.marginal(i).value == 0.0
                                   for i in range(1, table.n_b + 1))
    values, powers, gaps, verdicts = [], [], [], []
    for x in grid:
        row, power = plan.values(x), plan.lhs_power(x)
        gap = [(v - power) if side == POLYGAMY else (power - v) for v in row]
        values.append(row)
        powers.append(power)
        gaps.append(gap)
        verdicts.append([None if zero and x == 0.0
                         else bmod.verdict(g, plan.tol[b], e and lhs.exact)
                         for g, b, e in zip(gap, plan.bound_ids, plan.exact)])
    return values, powers, gaps, verdicts


def _bits(rows):
    return [[float(v).hex() for v in row] for row in rows]


def _assert_matches_reference(sweep, table, side, grid):
    values, powers, gaps, verdicts = _reference(sweep, table, side, grid)
    assert sweep.exponents == grid
    assert _bits([sweep.lhs_powers]) == _bits([powers])
    assert _bits(zip(*sweep.values)) == _bits(values)
    assert _bits(zip(*sweep.gaps)) == _bits(gaps)
    assert [list(row) for row in zip(*sweep.verdicts)] == verdicts
    cells = [[cli._OK_CELLS[ok] for ok in row] for row in verdicts]
    assert [list(row) for row in zip(*[map(cli._OK_CELLS.get, col) for col in sweep.verdicts])] \
        == cells
    return cells


@pytest.mark.parametrize("name, side, m", DIGEST_CASES,
                         ids=[f"{n}-{s}-m{m}" for n, s, m in DIGEST_CASES])
def test_digest_sweeps_match_the_per_point_reference(tables, name, side, m):
    table = tables(name, side)
    grid = cli.parse_grid(DIGEST["SIDES"][side][1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sweep = bound_sweep(table, side, grid, m=m)
    _assert_matches_reference(sweep, table, side, grid)
    # the digest grids cross beta_max (polygamy) and x_min (monogamy)
    assert True in sweep.out_of_range and False in sweep.out_of_range


def test_estimate_backed_table_gives_undecided_cells():
    # roof estimates under a loose optimizer tolerance: gaps within it are undecided
    table = ComponentTable(STATES["haar4"], CONCURRENCE, OptimizerConfig(restarts=2, tol=0.01))
    grid = inclusive_grid(0.5, 2.0, 0.05)
    sweep = bound_sweep(table, POLYGAMY, grid)
    cells = _assert_matches_reference(sweep, table, POLYGAMY, grid)
    assert "na" in {cell for row in cells for cell in row}
    assert not all(sweep.plan.exact)


@pytest.mark.parametrize("side", [POLYGAMY, MONOGAMY])
def test_zero_marginal_at_exponent_zero_is_degenerate(side):
    table = ComponentTable.from_values({(1,): 0.5, (2,): 0.0, (1, 2): 0.6}, n_b=2,
                                       measure=CONCURRENCE)
    grid = [0.0, 1.0, 2.0, 3.0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sweep = bound_sweep(table, side, grid)
    _assert_matches_reference(sweep, table, side, grid)
    assert sweep.degenerate == [True, False, False, False]
    assert [col[0] for col in sweep.verdicts] == [None] * len(sweep.plan.bound_ids)


# the warnings of one call as (category, message), as the per-point loop gave them
DEGENERATE = (DegenerateExponentWarning,
              "exponent 0 with a zero component; report flagged degenerate")
ZERO_MARGINAL_WARNINGS = {
    POLYGAMY: ([0.0, 1.0, 2.5, 3.0], [
        DEGENERATE,
        (ExponentRangeWarning, "polygamy exponent 2.5 outside [0, 2.0]"),
        (ExponentRangeWarning, "polygamy exponent 3.0 outside [0, 2.0]"),
    ]),
    MONOGAMY: ([0.0, 1.0, 2.0, 3.0], [
        (ExponentRangeWarning, "monogamy exponent 0.0 below 2.0"),
        DEGENERATE,
        (ExponentRangeWarning, "monogamy exponent 1.0 below 2.0"),
    ]),
}


@pytest.mark.parametrize("side", [POLYGAMY, MONOGAMY])
def test_warnings_of_one_call_are_unchanged_and_point_at_the_caller(side):
    table = ComponentTable.from_values({(1,): 0.5, (2,): 0.0, (1, 2): 0.6}, n_b=2,
                                       measure=CONCURRENCE)
    grid, want = ZERO_MARGINAL_WARNINGS[side]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        bound_sweep(table, side, grid)
    assert [(w.category, str(w.message)) for w in caught] == want
    assert {w.filename for w in caught} == {__file__}


@pytest.mark.parametrize("side", [POLYGAMY, MONOGAMY])
def test_one_point_calls_give_the_warnings_of_the_sweep_in_order(side):
    table = ComponentTable.from_values({(1,): 0.5, (2,): 0.0, (1, 2): 0.6}, n_b=2,
                                       measure=CONCURRENCE)
    grid, want = ZERO_MARGINAL_WARNINGS[side]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for x in grid:
            evaluate_bounds(table, x, side)
    assert [(w.category, str(w.message)) for w in caught] == want
    assert {Path(w.filename).name for w in caught} == {"bounds.py"}


REPORT_KEYS = ["exponent", "side", "m", "lhs", "lhs_power", "degenerate", "bounds", "satisfied",
               "margin"]


def test_report_docs_and_one_point_sweeps_are_views_of_the_columns():
    table = ComponentTable(STATES["w5"], get_measure("tau_assistance"), DIGEST_OPT)
    grid = [0.5, 1.0, 2.5]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sweep = bound_sweep(table, POLYGAMY, grid, m=2)
        points = [evaluate_bounds(table, x, POLYGAMY, m=2) for x in grid]
    docs = [cli._report_doc(sweep, i) for i in range(len(grid))]
    for i, doc in enumerate(docs):
        assert list(doc) == REPORT_KEYS
        assert (doc["exponent"], doc["lhs_power"], doc["degenerate"]) == \
            (sweep.exponents[i], sweep.lhs_powers[i], sweep.degenerate[i])
        for j, bid in enumerate(sweep.plan.bound_ids):
            assert doc["bounds"][bid] == {"value": sweep.values[j][i],
                                          "exact": sweep.plan.exact[j],
                                          "range_warning": sweep.out_of_range[i]}
            assert doc["satisfied"][bid] is sweep.verdicts[j][i]
        assert cli._report_doc(points[i], 0) == doc
        assert points[i].gaps == [[column[i]] for column in sweep.gaps]
    assert [doc["bounds"][BASE]["range_warning"] for doc in docs] == [False, False, True]


def test_library_callers_stay_the_warning_target():
    table = ComponentTable.from_values({(1,): 0.5, (2,): 0.5, (1, 2): 0.6}, n_b=2,
                                       measure=CONCURRENCE)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        evaluate_bounds(table, 3.0, POLYGAMY)
        verify_hierarchy(table, [3.0], POLYGAMY)
    assert [Path(w.filename).name for w in caught] == ["bounds.py", "bounds.py"]


# (components, side, grid, bound ids): the first failing point raises this message
ERROR_CASES = {
    "zero-lhs": ({(1,): 0.5, (2,): 0.5, (1, 2): 0.0}, POLYGAMY, [1.0, -1.0, -2.0], None,
                 "exponent -1.0 is negative and the lhs is 0"),
    "zero-component": ({(1,): 0.0, (2,): 0.5, (1, 2): 0.5}, MONOGAMY, [2.0, -1.0, -2.0], None,
                       "exponent -1.0 is negative and a component is 0"),
    "zero-lhs-first": ({(1,): 0.0, (2,): 0.5, (1, 2): 0.0}, POLYGAMY, [1.0, -1.0], None,
                       "exponent -1.0 is negative and the lhs is 0"),
    "component-power": ({(1,): 0.5, (2,): 0.5, (1, 2): 0.5}, POLYGAMY, [1.0, -3000.0, -4000.0],
                        (BASE,), "exponent -3000.0 overflows a component power or the weight"),
    "weight": ({(1,): 0.5, (2,): 0.5, (1, 2): 0.5}, MONOGAMY, [2.0, 3000.0], (PAIR_WEIGHTED,),
               "exponent 3000.0 overflows a component power or the weight"),
    "lhs-power": ({(1,): 0.5, (2,): 0.5, (1, 2): 1e-3}, POLYGAMY, [1.0, -200.0, -3000.0], (BASE,),
                  "exponent -200.0 overflows the lhs power"),
    "component-before-lhs": ({(1,): 1e-3, (2,): 0.5, (1, 2): 1e-3}, POLYGAMY, [1.0, -200.0],
                             (BASE,), "exponent -200.0 overflows a component power or the weight"),
}


@pytest.mark.parametrize("case", list(ERROR_CASES))
def test_first_failing_point_raises_the_same_message(case):
    joints, side, grid, ids, message = ERROR_CASES[case]
    table = ComponentTable.from_values(joints, n_b=2, measure=CONCURRENCE)
    with pytest.raises(InvalidParameterError) as raised:
        bound_sweep(table, side, grid, ids)
    assert str(raised.value) == message


def test_error_comes_before_the_warnings_of_earlier_points():
    # 3.0 is out of the polygamy range, but the failing point after it raises first
    table = ComponentTable.from_values({(1,): 0.5, (2,): 0.5, (1, 2): 0.0}, n_b=2,
                                       measure=CONCURRENCE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameterError, match="exponent -1.0 is negative"):
            bound_sweep(table, POLYGAMY, [3.0, -1.0])


SPECIAL_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e308, 0.1 + 0.2, 1e16,
                  np.float64(0.1), 3]


def test_row_template_gives_17_digit_cells_one_by_one(capsys):
    values = SPECIAL_FLOATS + inclusive_grid(0.0, 2.0, 0.001)
    for x in values:
        assert cli.FLOAT_CELL % x == f"{x:.17g}"
    args = argparse.Namespace(format="csv", out=None)
    cli._write(args, None, ["x", "neg", "text"], [cli.FLOAT_CELL, cli.FLOAT_CELL, cli.TEXT_CELL],
               [(x, -x, "na") for x in values])
    want = "x,neg,text\n" + "".join(f"{x:.17g},{-x:.17g},na\n" for x in values)
    assert capsys.readouterr().out == want
