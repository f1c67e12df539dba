import contextlib
import copy
import difflib
import io
import json
import math
import os
import re
import runpy
import shlex
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entshare
from conftest import all_subsets
from entshare import cli, measures
from entshare.cli import build_parser, main, parse_cut, parse_grid
from entshare.errors import EntshareError, InvalidParameterError
from entshare.measures import DEFAULT_OPT, MAX_RESTARTS
from entshare.reference import inclusive_grid
from entshare.thresholds import find_zero
from entshare.states import PureState, haar_random_pure, make_family, state_to_json


ROOT = Path(__file__).resolve().parents[1]
PARAMS_3Q = ",".join(["0.4472135955"] * 5)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(*argv, cwd=ROOT, timeout=300):
    """Run the interpreter in a subprocess with the package sources on PYTHONPATH."""
    src = str(Path(entshare.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, cwd=cwd,
                          timeout=timeout, env={**os.environ, "PYTHONPATH": path})


@pytest.fixture
def table_inits(monkeypatch):
    """A list that grows by one entry per ComponentTable constructed."""
    from entshare.bounds import ComponentTable

    calls = []
    init = ComponentTable.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ComponentTable, "__init__", counting_init)
    return calls


@pytest.fixture
def no_component(monkeypatch):
    """Make measuring a table component raise, so a test sees a check run before any."""
    from entshare import bounds

    def raising(*args, **kwargs):
        raise AssertionError("component measured")

    monkeypatch.setattr(bounds, "measure_bipartite", raising)


class GridBuilt(Exception):
    """Raised in place of building a grid or scan; args hold its point count."""


@pytest.fixture
def grid_guard(monkeypatch):
    """Make building a grid or a threshold scan raise GridBuilt, so no test allocates one."""
    from entshare import reference, thresholds

    def guard(n):
        raise GridBuilt(n)

    for mod in (reference, thresholds):
        monkeypatch.setattr(mod, "range", guard, raising=False)


class TestParsing:
    def test_cut_grammar(self):
        cut = parse_cut("A|B1B2", 3)
        assert cut.side_a == {0} and cut.side_b == {1, 2}
        cut = parse_cut("B1,B3|rest", 4)
        assert cut.side_a == {1, 3} and cut.side_b == {0, 2}
        cut = parse_cut("rest|A", 3)
        assert cut.side_a == {1, 2} and cut.side_b == {0}

    @pytest.mark.parametrize("text", [
        "A|Bx", "rest|rest", "A|B7",
        "B0|B1", "A|B01", "A|B1B01", "B00|A",  # party 0 is A; indices have no leading zero
        "B1B1|A", "A|B1,B1", "AA|B1", "A|B1|B2", "B1|B1",  # a party named twice
    ])
    def test_cut_rejects_nonsense(self, capsys, text):
        with pytest.raises(EntshareError):
            parse_cut(text, 4)
        code, out, err = run(capsys, "measure", "--family", "w4", "--cut", text, "--reduce")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_grid(self):
        assert parse_grid("0:1:0.5") == pytest.approx([0.0, 0.5, 1.0])
        with pytest.raises(EntshareError):
            parse_grid("1:0:0.5")
        with pytest.raises(EntshareError):
            parse_grid("0:1:0")
        for bad in ("2:inf:1", "nan:1:0.5", "0:1:inf"):
            with pytest.raises(EntshareError):
                parse_grid(bad)

    def test_a_key_error_is_a_bug_not_an_input_error(self, monkeypatch):
        def buggy(args):
            raise KeyError("missing")

        monkeypatch.setitem(cli._COMMANDS, "figure", buggy)
        with pytest.raises(KeyError):
            main(["figure", "1"])


# pieces of malformed and valid CLI values; every valid combination is light work: grids
# of a few thousand points at most (so no free text there), cuts of a pure state, fuzz
# runs of at most one three-qubit sample
NUMBERS = ("0", "1", "2", "-1", "0.5", "0.001", "1e-300", "1e309", "-1e309", "nan", "inf",
           "-0", "3", "12", "13", "0.785", "0.4472135955", "1_0", " 1", "x", "")
CUT_SIDES = ("A", "B1", "B2", "B3", "B4", "B0", "B-1", "B" + "9" * 30, "rest", "REST", "A,B1",
             "B1 B2", "B1B2B3", "AB1", "a", "", "|")
# side:measure:exponent[:bound], cut to one to five parts
CHECK = st.tuples(st.tuples(
    st.sampled_from(("polygamy", "monogamy", "x", "")),
    st.sampled_from(("concurrence", "tau_assistance", "concurrence_assistance", "x")),
    st.sampled_from(NUMBERS),
    st.sampled_from(("base", "pair_weighted", "weighted", "residual_max", "x", "")),
    st.just("x")), st.integers(1, 5)).map(lambda t: ":".join(t[0][:t[1]]))


def _joined(sep, pieces, max_size):
    """`pieces` joined by `sep`, or free text."""
    return st.lists(st.sampled_from(pieces), max_size=max_size).map(sep.join) | st.text(
        max_size=12)


CLI_VALUES = st.one_of(
    st.lists(st.sampled_from(NUMBERS), max_size=4).map(lambda grid: [
        "sweep", "--family", "3q", "--params", PARAMS_3Q, "--measure", "tau_assistance",
        "--side", "polygamy", f"--grid={':'.join(grid)}"]),
    _joined("|", CUT_SIDES, 3).map(lambda cut: ["measure", "--family", "w4", f"--cut={cut}"]),
    _joined(",", ("2", "3", "1", "0", "-2", "2.5", "64", "4096", "1e3", "x", ""), 13).map(
        lambda dims: ["fuzz", "--samples", "0", f"--dims={dims}"]),
    (st.lists(CHECK, max_size=3).map(",".join) | st.text(max_size=12)).map(
        lambda checks: ["fuzz", "--samples", "1", f"--checks={checks}"]),
    st.tuples(st.sampled_from(("3q", "4q-theta", "ghz", "w4", "x")),
              _joined(",", NUMBERS, 7)).map(lambda fp: ["measure", "--family", fp[0],
                                                        f"--params={fp[1]}"]),
)


@given(argv=CLI_VALUES)
@settings(max_examples=150, derandomize=True, deadline=None)
def test_malformed_values_exit_cleanly(argv):
    """Any --grid, --cut, --dims, --checks or --params string ends in exit 0 or 2 (fuzz: 1
    with violations), never in a traceback, and an input error prints nothing on stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the value
            code = exc.code
    assert code in ((0, 1, 2) if argv[0] == "fuzz" else (0, 2)), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().strip()
    if code == 1:
        assert json.loads(out.getvalue())["violations"]


# a valid state document, (|00> + |11>)/sqrt(2), that each example breaks: every value in
# BAD_VALUES is invalid wherever it is set, DEEP stands for a deeply nested list and DROP
# deletes the key or item
DEEP, DROP = "@deep@", "@drop@"
BAD_VALUES = (None, True, "x", [], {}, [[2]], -3, 1.5, math.nan, math.inf, -math.inf, 1e308,
              10**400, DEEP)
PATHS = (("dims",), ("dims", 0), ("amplitudes",), ("amplitudes", 0), ("amplitudes", 0, "index"),
         ("amplitudes", 1, "index", 1), ("amplitudes", 0, "re"), ("amplitudes", 1, "im"))
BREAK = st.one_of(
    st.tuples(st.sampled_from(PATHS), st.sampled_from(BAD_VALUES)),
    st.tuples(st.sampled_from(PATHS[::2] + (("amplitudes", 0, "re"),)), st.just(DROP)),
    st.just((("amplitudes", 1, "index"), [0, 0])))  # a duplicate index
STATE_COMMANDS = (["measure"], ["bounds", "--side", "polygamy", "--exponent", "1"],
                  ["sweep", "--side", "monogamy", "--grid", "2:3:0.5"],
                  ["threshold", "--kind", "residual-zero"])


def _broken_state(breaks, depth) -> str:
    """The document with each (path, value) applied where the path still leads somewhere."""
    doc = {"dims": [2, 2], "amplitudes": [{"index": [0, 0], "re": 0.5**0.5},
                                          {"index": [1, 1], "re": 0.5**0.5}]}
    for (*path, key), value in breaks:
        with contextlib.suppress(KeyError, IndexError, TypeError):
            node = doc
            for step in path:
                node = node[step]
            if value == DROP:
                del node[key]
            else:
                node[key] = copy.deepcopy(value)
    text = json.dumps(doc)  # NaN and Infinity as Python's json writes them
    return text.replace(json.dumps(DEEP), "[" * depth + "]" * depth)


STATE_DOCUMENTS = st.one_of(
    st.builds(_broken_state, st.lists(BREAK, min_size=1, max_size=3),
              st.sampled_from((5, 500, 900, 990, 1_000, 100_000))),
    st.sampled_from((1_000, 100_000)).map(lambda n: "[" * n + "]" * n),
    st.text(max_size=20), st.binary(max_size=20))


@given(document=STATE_DOCUMENTS, command=st.sampled_from(STATE_COMMANDS))
@settings(max_examples=150, derandomize=True, deadline=None)
def test_malformed_state_documents_exit_2(tmp_path_factory, document, command):
    """A broken state file (wrong types, missing keys, bad or duplicate indices, non-finite or
    huge numbers, a bad norm, deep nesting, bytes that are no UTF-8) exits 2 from every command
    that reads one: one error line, no traceback, nothing on stdout."""
    path = tmp_path_factory.getbasetemp() / "broken_state.json"
    if isinstance(document, bytes):
        path.write_bytes(document)
    else:
        path.write_text(document)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main([*command, "--state", str(path)])
    assert (code, out.getvalue()) == (2, ""), err.getvalue()
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


class TestMeasureCommand:
    def test_w5_assistance_joint(self, capsys):
        code, out, _ = run(capsys, "measure", "--family", "w5",
                           "--measure", "tau_assistance", "--cut", "A|rest")
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == pytest.approx(0.8, abs=1e-10)
        assert doc["exactness"] == "exact"

    def test_w4_reduced_pair(self, capsys):
        code, out, _ = run(capsys, "measure", "--family", "w4", "--measure", "concurrence",
                           "--cut", "A|B1", "--reduce")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(0.5, abs=1e-10)

    def test_ghz_marginal_separable(self, capsys):
        code, out, _ = run(capsys, "measure", "--family", "ghz:3", "--measure", "concurrence",
                           "--cut", "A|B1", "--reduce")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(0.0, abs=1e-10)

    def test_state_json_source(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(state_to_json(make_family("w5")))
        code, out, _ = run(capsys, "measure", "--state", str(path), "--measure",
                           "tau_assistance", "--cut", "A|rest")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(0.8, abs=1e-10)

    @pytest.mark.parametrize("state, cut", [
        (["--family", "w4"], "A|B1B2"),
        (["--family", "w5"], "A|B1B2B3"),
        (["--family", "w5"], "B1,B3|A"),
        (["--family", "ghz:5"], "A|B1B2B3"),
        (["--family", "4q-theta", "--params", "0.785,0.785"], "A|B1B2"),
        (["--family", "4q-theta", "--params", "0.3,1.2,0.5"], "B2|A,B3"),
        (["--state", "general_w6.json"], "A|B1B2B3B4"),
    ], ids=["w4", "w5", "w5-two-sided", "ghz5", "4q-theta", "4q-theta-phase", "general-w6"])
    @pytest.mark.parametrize("measure", ["concurrence", "concurrence_assistance"])
    def test_reduced_cuts_of_exact_families_need_no_roof(self, capsys, tmp_path, monkeypatch,
                                                         no_roof, state, cut, measure):
        amps = np.zeros(64, dtype=complex)
        amps[[0, 32, 16, 8, 4, 2, 1]] = [0.2, 0.5, 0.3j, -0.4, 0.25, 0.1 + 0.2j, 0.35]
        (tmp_path / "general_w6.json").write_text(
            state_to_json(PureState(amps / np.linalg.norm(amps), (2,) * 6)))
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "measure", *state, "--cut", cut, "--reduce",
                             "--measure", measure)
        assert code == 0, err
        assert json.loads(out)["exactness"] == "exact"

    @pytest.mark.parametrize("source, message", [
        (["--state", "nan.json"], "finite"),
        (["--family", "3q", "--params", "nan,0.5,0.5,0.5,0.5"], "non-negative"),
        (["--family", "3q", "--params", ",".join(["0.4472135955"] * 5 + ["nan"])], "phase"),
    ], ids=["state", "params", "phase"])
    def test_nan_state_exits_2_before_any_decomposition(self, capsys, tmp_path, monkeypatch,
                                                        source, message):
        (tmp_path / "nan.json").write_text(
            '{"dims": [2, 2, 2], "amplitudes": [{"index": [0, 0, 0], "re": NaN}, '
            '{"index": [1, 1, 1], "re": 1.0}]}')
        monkeypatch.chdir(tmp_path)

        def decomposition(*args, **kwargs):
            raise AssertionError("a matrix decomposition ran on a NaN state")

        for name in ("svd", "eigh"):
            monkeypatch.setattr(np.linalg, name, decomposition)
        code, out, err = run(capsys, "measure", *source, "--cut", "A|B1", "--reduce")
        assert code == 2 and out == ""
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize("argv, message", [
        (["measure", "--family", "3q", "--params", "1,0,0,0,0,inf"], "phase"),
        (["measure", "--family", "4q-theta", "--params", "0.5,0.5,nan"], "phase"),
        (["measure", "--family", "w4", "--params", "1"], "no params"),
        (["bounds", "--family", "w5", "--params", "0.3", "--side", "polygamy",
          "--exponent", "1"], "no params"),
        (["measure", "--family", "ghz:3", "--params", "5"], "integer party count"),
        (["measure", "--family", "ghz:3.5"], "integer party count"),
        (["measure", "--family", "ghz:inf"], "integer party count"),
        (["measure", "--family", "ghz:" + "1" * 22], "4096 amplitudes"),
        (["measure", "--family", "w4", "--state", "w4.json"], "not both"),
        (["measure"], "a state source is required"),
    ], ids=["3q-phase", "4q-theta-phase", "w4-params", "w5-params", "ghz-extra-param",
            "ghz-fraction", "ghz-inf", "ghz-huge", "family-and-state", "no-source"])
    def test_bad_family_params_exit_2(self, capsys, argv, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize("doc", [
        [{"index": [0, 0, 0], "re": 1.0}],
        {"amplitudes": [{"index": [0, 0, 0], "re": 1.0}]},
        {"dims": [2, 2, 2]},
        {"dims": [2, 2.0, 2], "amplitudes": [{"index": [0, 0, 0], "re": 1.0}]},
        {"dims": [2, 1, 2], "amplitudes": [{"index": [0, 0, 0], "re": 1.0}]},
        {"dims": [2, 2, 2], "amplitudes": [{"index": [0, 0, 0], "re": "x"}]},
        {"dims": [2, 2, 2], "amplitudes": [{"index": [0, 0, 0], "im": True, "re": 1.0}]},
        {"dims": [2, 2, 2], "amplitudes": [{"index": [0, 0, 0], "re": math.inf}]},
        {"dims": [2, 2, 2], "amplitudes": [{"index": [0, 0, 0], "re": 10**400}]},
        {"dims": [2, 2, 2], "amplitudes": [{"index": 0, "re": 1.0}]},
        {"dims": [2, 2, 2], "amplitudes": [{"index": [0, 0, 0.5], "re": 1.0}]},
        {"dims": [2, 2, 2], "amplitudes": [{"index": [0, True, 0], "re": 1.0}]},
        {"dims": [2, 2, 2], "amplitudes": [{"index": [0, 0, 2], "re": 1.0}]},
        {"dims": [2, 2, 2], "amplitudes": [1.0]},
        {"dims": [2, 2, 2], "amplitudes": [{"index": [0, 0, 0], "re": 1.0},
                                           {"index": [0, 0, 0], "re": 1.0}]},
        {"dims": [2] * 50, "amplitudes": [{"index": [0] * 50, "re": 1.0}]},
        {"dims": [1] * 100_000, "amplitudes": []},
        {"dims": [2, 2], "amplitudes": [{"index": list(range(50_000)), "re": 1.0}]},
        {"dims": [2, 2], "amplitudes": [{"index": [0, 0], "re": "x" * 50_000}]},
    ], ids=["list", "no-dims", "no-amplitudes", "float-dim", "dim-1", "re-string", "im-bool",
            "re-inf", "re-huge-int", "index-int", "index-float", "index-bool", "index-out-of-range",
            "entry-number", "duplicate-index", "too-large", "long-dims", "long-index", "long-re"])
    def test_malformed_state_json_exits_2(self, capsys, tmp_path, doc):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "measure", "--state", str(path), "--cut", "A|B1",
                             "--reduce")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err
        assert err.count("\n") == 1 and len(err.encode()) < 200  # a long value is cut short

    def test_invalid_family_exits_2(self, capsys):
        code, _, err = run(capsys, "measure", "--family", "w9")
        assert code == 2
        assert "error" in err

    def test_oversize_family_exits_2(self, capsys):
        code, out, err = run(capsys, "measure", "--family", "ghz:40")
        assert code == 2 and out == ""
        assert "4096 amplitudes" in err and "Traceback" not in err


class TestThresholdCommand:
    def test_residual_zero(self, capsys):
        lam = ",".join([f"{1 / math.sqrt(5):.10f}"] * 5)
        code, out, _ = run(capsys, "threshold", "--family", "3q", "--params", lam,
                           "--kind", "residual-zero")
        assert code == 0
        assert json.loads(out)["root"] == pytest.approx(1.26185, abs=1e-3)

    @pytest.mark.parametrize("flags", [[], ["--bound", "residual_max", "--cap", "4"]],
                             ids=["defaults", "explicit"])
    def test_empirical_beta(self, capsys, flags):
        code, out, _ = run(capsys, "threshold", "--family", "4q-theta",
                           "--params", "0.7853981634,0.7853981634",
                           "--kind", "empirical-beta", *flags)
        assert code == 0
        assert json.loads(out)["root"] == pytest.approx(1.507126, abs=1e-4)

    def test_degenerate_exits_3(self, capsys):
        code, _, err = run(capsys, "threshold", "--family", "ghz:3", "--kind", "residual-zero")
        assert code == 3
        assert "degenerate" in err

    def test_no_root_measures_each_component_once(self, capsys, monkeypatch):
        from entshare import bounds

        calls = Counter()
        for name in ("partial_trace", "measure_bipartite"):
            def counting(*args, _name=name, _fn=getattr(bounds, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(bounds, name, counting)
        code, out, err = run(capsys, "threshold", "--family", "ghz", "--params", "3",
                             "--kind", "residual-zero")
        assert (code, out) == (3, "")
        assert err == "no root: degenerate state, both pair components vanish\n"
        # the two marginals only: a degenerate scan never reads the lhs
        assert calls == {"partial_trace": 2, "measure_bipartite": 2}

    def test_one_signed_residual_exits_3(self, capsys):
        # Q_AB = Q_AC, and the residual keeps one sign from the floor to beta_max
        code, out, err = run(capsys, "threshold", "--family", "3q", "--params",
                             "0.6,0,0.6,0,0.5291502622129181", "--kind", "residual-zero")
        assert (code, out, err) == (3, "", "no root: residual keeps one sign on the range\n")

    def test_lhs_power_overflow_exits_2(self, capsys, tmp_path):
        # a (3,3,3) state whose lhs is 1.1524: its power overflows a float below the cap
        psi = np.zeros(27)
        psi[[0, 13, 26]] = 0.9
        psi[[9, 3, 1]] += 0.1
        path = tmp_path / "qutrits.json"
        path.write_text(state_to_json(PureState(psi / np.linalg.norm(psi), (3, 3, 3))))
        code, out, err = run(capsys, "threshold", "--state", str(path), "--kind",
                             "empirical-beta", "--bound", "base", "--cap", "10000",
                             "--restarts", "1")
        assert (code, out) == (2, "")
        assert re.fullmatch(r"error: exponent \S+ overflows the lhs power\n", err)

    @pytest.mark.parametrize("argv, message, components", [
        (["--family", "ghz:3", "--measure", "concurrence"],
         "the bound is violated from the first scanned exponent", 3),
        (["--family", "w4", "--measure", "tau_assistance", "--cap", "1.5"],
         "the bound holds on the whole range", 4),
    ], ids=["ghz3-violated", "w4-holds"])
    def test_no_transition_says_why(self, capsys, monkeypatch, table_inits, argv, message,
                                    components):
        from entshare import bounds

        measured = []
        measure = bounds.measure_bipartite
        monkeypatch.setattr(bounds, "measure_bipartite",
                            lambda *args: measured.append(1) or measure(*args))
        code, out, err = run(capsys, "threshold", *argv, "--kind", "empirical-beta",
                             "--bound", "base")
        assert (code, out) == (3, "")
        assert err == f"no transition: {message}\n"
        # the message reads the scan's table: no second table, no component measured twice
        assert (len(table_inits), len(measured)) == (1, components)

    def test_ghz3_base_verdict_matches_bounds(self, capsys):
        # GHZ marginals vanish and its lhs is 1: base fails at every exponent
        code, out, _ = run(capsys, "bounds", "--family", "ghz:3", "--side", "polygamy",
                           "--exponent", "1", "--bounds", "base")
        assert code == 0 and json.loads(out)["satisfied"] == {"base": False}

    @pytest.mark.parametrize("steps", ["4", "1000000"])
    @pytest.mark.parametrize("state, kind", [
        (["--family", "3q", "--params", PARAMS_3Q], "residual-zero"),
        (["--family", "4q-theta", "--params", "0.785,0.785"], "empirical-beta"),
    ], ids=["residual-zero", "empirical-beta"])
    def test_bad_scan_steps_exit_2_before_any_component(self, capsys, no_component, state,
                                                        kind, steps):
        code, out, err = run(capsys, "threshold", *state, "--kind", kind, "--scan-steps", steps,
                             "--restarts", "2")
        assert code == 2 and out == "" and "scan_steps" in err

    @pytest.mark.parametrize("kind, bad", [
        ("empirical-beta", ["--cap", "0"]), ("empirical-beta", ["--cap", "-1"]),
        ("empirical-beta", ["--cap", "nan"]), ("empirical-beta", ["--cap", "1e-5"]),
        ("empirical-beta", ["--tol", "nan"]), ("empirical-beta", ["--tol", "inf"]),
        ("empirical-beta", ["--tol", "0"]), ("empirical-beta", ["--tol", "-1"]),
        ("empirical-beta", ["--bound", ""]),
        ("residual-zero", ["--cap", "4"]), ("residual-zero", ["--bound", "base"]),
        ("residual-zero", ["--bound", "weighted", "--cap", "-5"]),
    ], ids=["cap-0", "cap-negative", "cap-nan", "cap-below-floor", "tol-nan", "tol-inf",
            "tol-0", "tol-negative", "bound-empty", "residual-zero-cap", "residual-zero-bound",
            "residual-zero-both"])
    def test_bad_cap_or_tol_exits_2_before_any_component(self, capsys, no_component, kind,
                                                         bad):
        state = (["--family", "3q", "--params", PARAMS_3Q] if kind == "residual-zero"
                 else ["--family", "4q-theta", "--params", "0.785,0.785"])
        code, out, err = run(capsys, "threshold", *state, "--kind", kind, "--restarts", "2",
                             *bad)
        assert code == 2 and out == "" and err.startswith("error:")
        if kind == "residual-zero":
            assert err == "error: --bound and --cap apply to --kind empirical-beta only\n"


class TestSweepCommand:
    def test_csv_contract_and_flags_recomputable(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "--family", "w5", "--measure", "tau_assistance",
                         "--side", "polygamy", "--grid", "0.25:2:0.25",
                         "--bounds", "base,residual_max", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        header = lines[0].split(",")
        assert header == ["exponent", "lhs", "base", "residual_max",
                          "tol_base", "tol_residual_max", "ok_base", "ok_residual_max"]
        for line in lines[1:]:
            cells = line.split(",")
            row = dict(zip(header, cells))
            lhs = float(row["lhs"])
            for bid in ("base", "residual_max"):
                bound, tol = float(row[bid]), float(row[f"tol_{bid}"])
                gap = bound - lhs
                if tol <= 1e-9:
                    expect = "1" if gap >= -tol else "0"
                else:
                    expect = "1" if gap >= tol else ("0" if gap <= -tol else "na")
                assert row[f"ok_{bid}"] == expect

    def test_rows_ordered_and_deterministic(self, capsys, tmp_path):
        args = ("sweep", "--family", "w4", "--measure", "concurrence", "--side", "monogamy",
                "--grid", "2:4:0.5", "--seed", "9")
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, *args, "--out", str(p1))[0] == 0
        assert run(capsys, *args, "--out", str(p2))[0] == 0
        assert p1.read_bytes() == p2.read_bytes()
        exps = [float(l.split(",")[0]) for l in p1.read_text().strip().split("\n")[1:]]
        assert exps == sorted(exps)

    def test_bad_grid_exits_2(self, capsys):
        code, _, _ = run(capsys, "sweep", "--family", "w4", "--side", "monogamy",
                         "--grid", "4:2:0.5")
        assert code == 2

    def test_csv_sweep_builds_no_json_document(self, capsys, monkeypatch):
        def no_doc(*args):
            raise AssertionError("a JSON report document was built")

        monkeypatch.setattr(cli, "_report_doc", no_doc)
        code, out, err = run(capsys, "sweep", "--family", "w5", "--measure", "tau_assistance",
                             "--side", "polygamy", "--grid", "0:2:0.5")
        assert code == 0, err
        assert len(out.splitlines()) == 6

    def test_infinite_grid_end_exits_2(self, capsys):
        code, _, err = run(capsys, "sweep", "--family", "w4", "--side", "monogamy",
                           "--grid", "2:inf:1")
        assert code == 2 and "finite" in err

    @pytest.mark.parametrize("args", [
        ["--family", "w5", "--measure", "tau_assistance", "--side", "polygamy",
         "--bounds", "residual_max,residual_mean", "--grid", "0.5:2:0.5"],
        ["--family", "w4", "--measure", "concurrence", "--side", "monogamy", "--m", "1",
         "--grid", "2:4:0.5"],
        ["--family", "4q-theta", "--params", "0.785,0.785", "--measure", "tau_assistance",
         "--side", "polygamy", "--grid", "0.5:2:0.5"],
        ["--family", "3q", "--params", PARAMS_3Q, "--measure", "concurrence",
         "--side", "monogamy", "--bounds", "pair_weighted", "--grid", "2:4:0.5"],
    ], ids=["w5-residual", "w4-m1-weighted", "4q-theta-estimates", "3q-pair-weighted"])
    def test_every_element_is_the_one_point_report(self, capsys, args):
        grid_at = args.index("--grid")
        common = args[:grid_at] + args[grid_at + 2:] + ["--restarts", "2"]
        code, out, err = run(capsys, "sweep", *args, "--restarts", "2", "--format", "json")
        assert code == 0, err
        docs = json.loads(out)
        assert len(docs) >= 4
        for doc in docs:
            code, one, err = run(capsys, "bounds", *common, "--exponent", repr(doc["exponent"]))
            assert code == 0, err
            assert one == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_table_lookups_do_not_grow_with_the_grid(self, capsys, monkeypatch):
        from entshare import bounds

        counts = Counter()
        joint, classify = bounds.ComponentTable.joint, bounds.ordering_classify

        def counting_joint(self, subset):
            counts["joint"] += 1
            return joint(self, subset)

        def counting_classify(table):
            counts["ordering_classify"] += 1
            return classify(table)

        monkeypatch.setattr(bounds.ComponentTable, "joint", counting_joint)
        monkeypatch.setattr(bounds, "ordering_classify", counting_classify)
        seen = []
        for grid, points in (("0.5:2:0.75", 3), ("0.5:2:0.005", 301)):
            counts.clear()
            code, out, err = run(capsys, "sweep", "--family", "w5", "--measure",
                                 "tau_assistance", "--side", "polygamy", "--grid", grid,
                                 "--restarts", "2")
            assert code == 0, err
            assert len(out.strip().split("\n")) == points + 1
            seen.append(dict(counts))
        assert seen[0] == seen[1]
        assert seen[0]["ordering_classify"] == 1


@pytest.mark.parametrize("argv", [
    ["sweep", "--family", "w5", "--measure", "tau_assistance", "--side", "polygamy",
     "--grid", "0:2:0.5"],
    ["bounds", "--family", "w4", "--measure", "concurrence", "--side", "monogamy",
     "--exponent", "2", "--m", "1"],
], ids=["w5-sweep", "w4-bounds"])
def test_w_state_tables_are_exact_without_roofs(capsys, monkeypatch, no_roof, argv):
    from entshare.bounds import ComponentTable

    tables = []
    init = ComponentTable.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        tables.append(self)

    monkeypatch.setattr(ComponentTable, "__init__", recording_init)
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out
    [table] = tables
    subsets = all_subsets(table.n_b)
    assert len(table._cache) == len(subsets)  # the run read every component
    assert all(table.joint(s).exact for s in subsets)


class TestGridSize:
    @pytest.mark.parametrize("argv", [
        ["sweep", "--family", "w4", "--side", "monogamy", "--grid", "0:2:1e-12"],
        ["sweep", "--family", "w4", "--side", "monogamy", "--grid", "0:1:1e-6"],
        ["sweep", "--family", "w4", "--side", "monogamy", "--grid", "0:1:5e-324"],
        ["bounds", "--family", "w4", "--side", "monogamy", "--exponent", "nan"],
        ["figure", "1", "--step", "1e-12"],
        ["threshold", "--family", "3q", "--params", PARAMS_3Q, "--kind", "residual-zero",
         "--scan-steps", "1000000000000"],
    ], ids=["sweep-1e-12", "sweep-one-past", "sweep-overflow", "bounds-nan", "figure",
            "threshold-scan"])
    def test_oversize_input_exits_2_before_building(self, capsys, monkeypatch, grid_guard,
                                                    argv):
        from entshare import bounds

        def no_table(*args, **kwargs):
            raise AssertionError("component table filled")

        monkeypatch.setattr(bounds.BoundPlan, "__init__", no_table)
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert re.search(r"1000000 points|999999|finite", err)

    def test_limit_is_one_million_points(self, grid_guard):
        with pytest.raises(GridBuilt) as built:
            inclusive_grid(0.0, 999999.0, 1.0)
        assert built.value.args == (1_000_000,)
        with pytest.raises(InvalidParameterError):
            inclusive_grid(0.0, 1_000_000.0, 1.0)
        with pytest.raises(GridBuilt) as built:
            find_zero(lambda x: x, 0.0, 1.0, scan_steps=999_999)
        assert built.value.args == (1_000_000,)
        with pytest.raises(InvalidParameterError):
            find_zero(lambda x: x, 0.0, 1.0, scan_steps=1_000_000)


class TestBoundsCommand:
    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "bounds", "--family", "w4", "--measure", "concurrence",
                           "--side", "monogamy", "--exponent", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["bounds"]["base"]["value"] == pytest.approx(0.75, abs=1e-10)
        assert doc["satisfied"]["base"] is True
        assert doc["m"] is None

    def test_forced_m_against_the_ordering_warns_on_stderr_only(self):
        argv = ["-m", "entshare.cli", "bounds", "--family", "w4", "--side", "monogamy",
                "--exponent", "2.5", "--m", "1"]
        warned, quiet = run_python(*argv), run_python("-W", "ignore", *argv)
        assert warned.returncode == quiet.returncode == 0
        assert "OrderingHypothesisWarning: ordering index m=1" in warned.stderr
        assert quiet.stderr == "" and warned.stdout == quiet.stdout
        assert json.loads(warned.stdout)["m"] == 1

    def test_ordering_warning_shown_by_every_call_in_one_process(self):
        argv = ["bounds", "--family", "w4", "--side", "monogamy", "--exponent", "2.5", "--m", "1"]
        code = f"from entshare.cli import main; main({argv!r}); main({argv!r})"
        warned, quiet = run_python("-c", code), run_python("-W", "ignore", "-c", code)
        assert warned.returncode == quiet.returncode == 0
        assert warned.stderr.count("OrderingHypothesisWarning: ordering index m=1") == 2
        assert quiet.stderr == "" and warned.stdout == quiet.stdout

    def test_nan_exponent_exits_2(self, capsys):
        code, out, err = run(capsys, "bounds", "--family", "w4", "--measure", "concurrence",
                             "--side", "monogamy", "--exponent", "nan")
        assert code == 2 and out == "" and "finite" in err

    @pytest.mark.parametrize("args", [["bounds", "--exponent", "-1"],
                                      ["sweep", "--grid=-1:1:0.5"]], ids=["bounds", "sweep"])
    def test_negative_exponent_on_a_zero_component_exits_2(self, capsys, args):
        code, out, err = run(capsys, args[0], "--family", "3q", "--params", "1,0,0,0,0",
                             "--side", "polygamy", *args[1:])
        assert code == 2 and out == "" and "negative" in err

    @pytest.mark.parametrize("side, exponent", [("monogamy", "3000"), ("polygamy", "3000"),
                                                ("monogamy", "-3000")])
    def test_overflowing_exponent_exits_2(self, capsys, side, exponent):
        code, out, err = run(capsys, "bounds", "--family", "3q", "--params", PARAMS_3Q,
                             "--side", side, "--exponent", exponent)
        assert code == 2 and out == ""
        assert "overflows" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", [["bounds", "--exponent", "2"],
                                         ["sweep", "--grid", "2:3:0.5"]], ids=["bounds", "sweep"])
    @pytest.mark.parametrize("state, m, message", [
        (["--family", "w4"], "99", "outside 1..1"),
        (["--family", "w4"], "0", "outside 1..1"),
        (["--family", "3q", "--params", PARAMS_3Q], "1", "three-party"),
    ], ids=["w4-99", "w4-0", "3q-1"])
    def test_m_out_of_range_exits_2_before_any_component(self, capsys, monkeypatch, command,
                                                         state, m, message):
        from entshare import bounds

        def measured(*args, **kwargs):
            raise AssertionError("a component was measured")

        monkeypatch.setattr(bounds, "measure_bipartite", measured)
        code, out, err = run(capsys, command[0], *state, "--side", "monogamy",
                             "--bounds", "base", "--m", m, *command[1:])
        assert code == 2 and out == ""
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize("argv, message", [
        (["bounds", "--family", "w4", "--side", "polygamy", "--exponent", "1", "--bounds", ""],
         "bound id ''"),
        (["fuzz", "--samples", "1", "--checks", ""], "check ''"),
        (["bounds", "--state", "bell.json", "--side", "polygamy", "--exponent", "1"],
         "component tables need at least three parties"),
        (["sweep", "--family", "w4", "--side", "monogamy", "--grid", "0:x:1"],
         "--grid '0:x:1': 'x' is not a number"),
        (["fuzz", "--samples", "1", "--dims", "2,2,x"], "--dims '2,2,x': 'x' is not an integer"),
        (["fuzz", "--samples", "1", "--checks", "monogamy:concurrence:abc"],
         "--checks 'monogamy:concurrence:abc': 'abc' is not a number"),
        (["measure", "--family", "ghz:x"], "--family 'ghz:x': 'x' is not a number"),
        (["measure", "--family", "3q", "--params", "1,0,0,0,zz"],
         "--params '1,0,0,0,zz': 'zz' is not a number"),
    ], ids=["empty-bounds", "empty-checks", "two-party-state", "grid-text", "dims-text",
            "checks-exponent-text", "ghz-count-text", "params-text"])
    def test_input_errors_exit_2_before_any_component(self, capsys, tmp_path, monkeypatch, bell,
                                                      argv, message):
        from entshare import bounds

        def measured(*args, **kwargs):
            raise AssertionError("a component was measured")

        monkeypatch.setattr(bounds, "measure_bipartite", measured)
        (tmp_path / "bell.json").write_text(state_to_json(bell))
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    def test_wrong_side_bound_exits_2_before_any_roof(self, capsys, no_roof):
        code, out, err = run(capsys, "bounds", "--family", "w5", "--measure", "tau_assistance",
                             "--side", "polygamy", "--bounds", "ratio_weighted",
                             "--exponent", "1")
        assert code == 2 and out == "" and "not defined for the polygamy side" in err

    @pytest.mark.parametrize("state, measure, side, exponent", [
        (["--family", "w4"], "concurrence", "monogamy", "2.5"),
        (["--family", "w4"], "tau_assistance", "polygamy", "1.5"),
        (["--family", "4q-theta", "--params", "0.785,0.785"], "tau_assistance", "polygamy", "1"),
    ], ids=["w4-monogamy", "w4-polygamy", "4q-theta-polygamy"])
    def test_equals_one_point_sweep(self, capsys, state, measure, side, exponent):
        common = [*state, "--measure", measure, "--side", side, "--restarts", "2"]
        grid = f"{exponent}:{float(exponent) + 0.5}:0.5"
        code, csv_one, _ = run(capsys, "bounds", *common, "--exponent", exponent,
                               "--format", "csv")
        assert code == 0
        code, csv_sweep, _ = run(capsys, "sweep", *common, "--grid", grid)
        assert code == 0
        assert csv_one.splitlines() == csv_sweep.splitlines()[:2]
        code, json_one, _ = run(capsys, "bounds", *common, "--exponent", exponent)
        assert code == 0
        code, json_sweep, _ = run(capsys, "sweep", *common, "--grid", grid, "--format", "json")
        assert code == 0
        assert json_one == json.dumps(json.loads(json_sweep)[0], indent=2, sort_keys=True) + "\n"


class TestFigureCommand:
    def test_first_preset_columns(self, capsys):
        code, out, _ = run(capsys, "figure", "1")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "exponent,lhs,base,residual_max"
        assert len(lines) == 202
        last = [float(x) for x in lines[-1].split(",")]
        assert last[0] == pytest.approx(2.0)
        assert last[1] == pytest.approx(0.64, abs=1e-12)
        assert last[2] == pytest.approx(0.64, abs=1e-12)
        assert last[3] == pytest.approx(0.64, abs=1e-12)

    def test_third_preset_endpoint(self, capsys):
        code, out, _ = run(capsys, "figure", "3")
        lines = out.strip().split("\n")
        assert lines[0] == "exponent,lhs,ratio_weighted,exp_weighted"
        first = [float(x) for x in lines[1].split(",")]
        assert first == pytest.approx([2.0, 0.75, 0.75, 0.75], abs=1e-12)

    def test_second_preset_reference_formula(self, capsys):
        code, out, _ = run(capsys, "figure", "2")
        lines = out.strip().split("\n")
        row = dict(zip(lines[0].split(","), (float(x) for x in lines[100].split(","))))
        a = row["exponent"]
        expect = (3 * (2 * math.sqrt(2) / 5) ** a - 2 * 0.4**a
                  - 2 * 0.5 ** (a / 2) + 0.5**a + (math.sqrt(3) / 2) ** a)
        assert row["weighted_residual"] == pytest.approx(expect, abs=1e-14)

    def test_byte_identical(self, capsys, tmp_path):
        p1, p2 = tmp_path / "f1.csv", tmp_path / "f2.csv"
        run(capsys, "figure", "3", "--out", str(p1))
        run(capsys, "figure", "3", "--out", str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("step", ["0", "-0.5", "inf", "nan"])
    def test_bad_step_exits_2(self, capsys, step):
        code, out, err = run(capsys, "figure", "1", f"--step={step}")
        assert code == 2 and out == "" and err.startswith("error:")

    def test_step_stays_inside_the_range(self, capsys):
        code, out, _ = run(capsys, "figure", "1", "--step", "0.3")
        assert code == 0
        exps = [float(line.split(",")[0]) for line in out.strip().split("\n")[1:]]
        assert exps == pytest.approx([0.3 * i for i in range(7)])


class TestFuzzCommand:
    def test_small_clean_run(self, capsys):
        code, out, err = run(capsys, "fuzz", "--samples", "25", "--seed", "5")
        assert code == 0
        doc = json.loads(out)
        assert doc["samples"] == 25 and doc["violations"] == []
        assert "fuzz:" in err

    def test_empty_run(self, capsys):
        code, out, _ = run(capsys, "fuzz", "--samples", "0")
        assert code == 0
        assert json.loads(out)["violations"] == []

    def test_deterministic_output_bytes(self, capsys, tmp_path):
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        run(capsys, "fuzz", "--samples", "10", "--seed", "3", "--out", str(p1))
        run(capsys, "fuzz", "--samples", "10", "--seed", "3", "--out", str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_negative_samples_exits_2(self, capsys):
        code, out, _ = run(capsys, "fuzz", "--samples", "-3")
        assert code == 2 and out == ""

    @pytest.mark.parametrize("samples", ["0", "1"])
    @pytest.mark.parametrize("dims", ["2,2", "1,2,2", "2,2,1", ",".join(["2"] * 40),
                                      "2,2,1000000000000"])
    def test_too_few_parties_or_a_small_dimension_exits_2(self, capsys, monkeypatch,
                                                          samples, dims):
        from entshare import cli

        def no_sample(*args, **kwargs):
            raise AssertionError("sample drawn")

        monkeypatch.setattr(cli, "haar_random_pure", no_sample)
        code, out, err = run(capsys, "fuzz", "--samples", samples, "--dims", dims)
        assert code == 2 and out == "" and "--dims" in err

    def test_infinite_check_exponent_exits_2(self, capsys):
        code, out, err = run(capsys, "fuzz", "--samples", "1",
                             "--checks", "monogamy:concurrence:inf")
        assert code == 2 and out == "" and "finite" in err

    @pytest.mark.parametrize("argv", [
        ["--samples", "0", "--checks", "monogamy:concurrence:nan"],
        ["--samples", "1", "--dims", "2,2,2,2", "--checks", "polygamy:concurrence:inf:weighted",
         "--restarts", "2"],
    ], ids=["nan-no-samples", "inf-m-keyed"])
    def test_non_finite_check_exponent_exits_2_before_measuring(self, capsys, monkeypatch,
                                                                 argv):
        from entshare import bounds

        def no_measure(*args, **kwargs):
            raise AssertionError("component measured")

        monkeypatch.setattr(bounds, "measure_bipartite", no_measure)
        code, out, err = run(capsys, "fuzz", *argv)
        assert (code, out) == (2, "") and "finite" in err

    def test_one_spectrum_per_density_matrix(self, capsys, monkeypatch):
        import numpy as np

        calls = Counter()
        for name in ("eigh", "eigvalsh"):
            def counted(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        code, _, _ = run(capsys, "fuzz", "--samples", "1", "--dims", "2,2,2")
        assert code == 0
        # the pairs A,B1 and A,B2 are reduced once, for both measures: one eigh per reduction
        assert (calls["eigh"], calls["eigvalsh"]) == (2, 0)

    def test_one_table_per_sample_and_measure(self, capsys, table_inits):
        code, _, _ = run(capsys, "fuzz", "--samples", "3", "--dims", "2,2,2")
        assert code == 0
        # four default checks on two measures: two tables per sample
        assert len(table_inits) == 6

    @pytest.mark.filterwarnings("ignore::entshare.errors.ExponentRangeWarning")
    def test_alias_names_share_one_table_and_are_echoed(self, capsys, table_inits):
        checks = ["polygamy:tau_assistance:1.0:base", "polygamy:concurrence_assistance:2.0:base",
                  "polygamy:tau_assistance:7.0:base"]
        code, out, _ = run(capsys, "fuzz", "--samples", "3", "--seed", "4",
                           "--checks", ",".join(checks))
        assert code == 1
        # one measure under two names: one table per sample
        assert len(table_inits) == 3
        doc = json.loads(out)
        assert doc["checks"] == checks
        assert {v["measure"] for v in doc["violations"]} == {"tau_assistance"}

    def test_four_parties_skip_default_pair_check(self, capsys):
        code, out, err = run(capsys, "fuzz", "--samples", "1", "--dims", "2,2,2,2",
                             "--restarts", "1")
        assert code == 0, err
        doc = json.loads(out)
        assert doc["checks"] == ["monogamy:concurrence:2.0:base",
                                 "polygamy:concurrence_assistance:1.0:base",
                                 "polygamy:concurrence_assistance:2.0:base"]

    @pytest.mark.parametrize("dims, check", [
        ("2,2,2,2", "monogamy:concurrence:3:pair_weighted"),
        ("2,2,2", "polygamy:concurrence_assistance:1:residual_max"),
        ("2,2,2", "polygamy:concurrence_assistance:1:residual_mean"),
        ("2,2,2", "polygamy:concurrence:1:weighted"),
        ("2,2,2", "polygamy:concurrence:1:ratio_weighted"),
    ])
    def test_bound_off_its_party_count_exits_2_before_sampling(self, capsys, monkeypatch,
                                                                 no_roof, dims, check):
        from entshare import cli

        def no_sample(*args, **kwargs):
            raise AssertionError("sample drawn")

        monkeypatch.setattr(cli, "haar_random_pure", no_sample)
        code, out, err = run(capsys, "fuzz", "--samples", "2", "--dims", dims,
                             "--checks", f"monogamy:concurrence:2:base,{check}")
        assert code == 2 and out == ""
        assert re.search(r"three-party|four parties|not defined for the polygamy side", err)

    @pytest.mark.parametrize("dims", ["2,2,2,2", "2,2,2,2,2"])
    def test_default_checks_classify_no_m(self, capsys, monkeypatch, dims):
        # the default checks at four or more parties are base checks, which read no m,
        # so no tail cut is measured and no roof runs
        def raising(*args, **kwargs):
            raise AssertionError("a roof ran")

        monkeypatch.setattr(measures, "minimize", raising)
        code, out, err = run(capsys, "fuzz", "--samples", "2", "--dims", dims, "--seed", "5")
        assert code == 0, err
        assert "0 checks skipped" in err

    def test_one_classification_per_sample_and_measure(self, capsys, monkeypatch):
        from entshare import bounds

        calls = []
        classify = bounds.ordering_classify

        def counting_classify(table):
            calls.append(table)
            return classify(table)

        monkeypatch.setattr(bounds, "ordering_classify", counting_classify)
        checks = "monogamy:concurrence:2.5:exp_weighted,monogamy:concurrence:3:ratio_weighted"
        code, out, err = run(capsys, "fuzz", "--samples", "3", "--dims", "2,2,2,2",
                             "--restarts", "2", "--seed", "17", "--checks", checks)
        assert code in (0, 1), err
        assert len(calls) == len(set(map(id, calls))) == 3

    def test_sample_without_ordering_index_is_skipped(self, capsys):
        code, out, err = run(capsys, "fuzz", "--samples", "1", "--dims", "2,2,2,2",
                             "--restarts", "2", "--seed", "17",
                             "--checks", "polygamy:concurrence_assistance:1:weighted")
        assert code == 0, err
        assert json.loads(out)["violations"] == []
        assert "1 checks skipped without an ordering index m" in err

    def test_range_warning_printed_once_per_run(self):
        checks = "monogamy:concurrence:1.5:base,monogamy:concurrence:2.5:pair_weighted"
        argv = ["fuzz", "--samples", "5", "--checks", checks]
        proc = run_python("-W", "default", "-c", f"from entshare.cli import main; main({argv!r})")
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.count("ExponentRangeWarning") == 1

    def test_bad_check_spec_exits_2(self, capsys):
        code, _, _ = run(capsys, "fuzz", "--samples", "1", "--checks", "sideways:concurrence:2")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["fuzz", "--samples", "1"],
        ["measure", "--family", "w4", "--cut", "A|B1", "--reduce"],
    ], ids=lambda argv: argv[0])
    def test_environment_never_changes_the_output(self, capsys, monkeypatch, argv):
        monkeypatch.delenv("ENTSHARE_SEED", raising=False)
        expected = run(capsys, *argv)[:2]
        assert expected[0] == 0
        for value in ("123", "", "abc"):
            monkeypatch.setenv("ENTSHARE_SEED", value)
            assert run(capsys, *argv)[:2] == expected, value


class TestOptimizerFlags:
    @pytest.mark.parametrize("measure", ["concurrence", "tau_assistance"])
    @pytest.mark.parametrize("opt_args", [
        ["--restarts", "0"], ["--max-iters", "0"], ["--opt-tol", "0"], ["--seed", "-1"],
    ], ids=["restarts", "max-iters", "opt-tol", "seed"])
    def test_invalid_optimizer_settings_exit_2(self, capsys, measure, opt_args):
        code, out, err = run(capsys, "measure", "--family", "w4", "--measure", measure,
                             "--cut", "A|B1B2", "--reduce", *opt_args)
        assert code == 2
        assert out == "" and err.startswith("error:")

    def test_restarts_past_the_cap_exit_2_before_any_roof(self, capsys, tmp_path, monkeypatch):
        (tmp_path / "haar4.json").write_text(state_to_json(haar_random_pure((2,) * 4, 0)))
        monkeypatch.chdir(tmp_path)

        def raising(*args, **kwargs):
            raise AssertionError("a roof ran")

        monkeypatch.setattr(measures, "minimize", raising)
        code, out, err = run(capsys, "measure", "--state", "haar4.json", "--cut", "A|B1B2",
                             "--reduce", "--restarts", str(MAX_RESTARTS + 1))
        assert code == 2 and out == ""
        assert err.startswith("error:") and f"at most {MAX_RESTARTS}" in err

    @pytest.mark.parametrize("argv", [
        ["measure"], ["bounds", "--side", "polygamy", "--exponent", "1"],
        ["sweep", "--side", "polygamy", "--grid", "0:1:1"],
        ["threshold", "--kind", "residual-zero"], ["fuzz", "--samples", "1"],
    ], ids=lambda argv: argv[0])
    def test_defaults_are_the_library_defaults(self, argv):
        args = build_parser().parse_args(argv)
        assert (args.restarts, args.max_iters, args.opt_tol, args.seed) == (
            DEFAULT_OPT.restarts, DEFAULT_OPT.max_iters, DEFAULT_OPT.tol, DEFAULT_OPT.seed)

    def test_shared_parser_keeps_no_seed_between_calls(self, capsys):
        assert build_parser() is build_parser()
        seeds = [json.loads(run(capsys, "fuzz", "--samples", "1", *argv)[1])["seed"]
                 for argv in (["--seed", "5"], [])]
        assert seeds == [5, DEFAULT_OPT.seed]


SCIPY_PROBE = """
import contextlib, io, sys
from entshare.cli import build_parser, main
from entshare.states import haar_random_pure, state_to_json
build_parser()
loaded = ["scipy" in sys.modules]
with open("haar4.json", "w") as fh:
    fh.write(state_to_json(haar_random_pure((2, 2, 2, 2), 0)))
runs = [["fuzz", "--samples", "2"],
        ["measure", "--family", "w4", "--cut", "A|B1B2", "--reduce", "--restarts", "1"],
        ["threshold", "--family", "4q-theta", "--params", "0.785,0.785",
         "--kind", "empirical-beta", "--restarts", "1"],
        ["measure", "--state", "haar4.json", "--cut", "A|B1B2", "--reduce",
         "--restarts", "1"]]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in runs:
        assert main(argv) == 0
        loaded.append("scipy" in sys.modules)
print(loaded)
"""


def test_scipy_never_imported(tmp_path):
    # rho_{B1B2} of a Haar 4-qubit state has full rank, so the last run's
    # A|B1B2 cut is a convex roof: the roof too runs on numpy alone
    proc = run_python("-c", SCIPY_PROBE, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[False, False, False, False, False]"


def _readme_block(heading: str) -> str:
    text = (ROOT / "README.md").read_text()
    return text.split(f"## {heading}", 1)[1].split("```", 2)[1]


def _readme_cli_lines() -> list[str]:
    """Every `entshare ...` command of the README's CLI block, continuations joined."""
    block = _readme_block("CLI")
    return [line.replace("\\\n", " ")
            for line in re.split(r"\n(?=entshare )", block.strip())]


@pytest.mark.parametrize("line", _readme_cli_lines())
def test_readme_cli_examples_run(capsys, tmp_path, monkeypatch, line):
    argv = shlex.split(line)
    assert argv[0] == "entshare"
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, *argv[1:])
    assert code == 0, err


def test_readme_cli_block_found():
    assert len(_readme_cli_lines()) == 8


def test_readme_library_block_runs(tmp_path):
    proc = run_python("-c", _readme_block("Library").removeprefix("python\n"), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr


def _readme_script_lines() -> list[list[str]]:
    """argv of each `python scripts/...` line of the README's Scripts block."""
    return [shlex.split(line.split("#", 1)[0]) for line in _readme_block("Scripts").split("\n")
            if line.strip()]


# fewer samples than the README's audit run, to keep tier-1 short
SCRIPT_ARGS = {"scripts/audit_random_states.py": ["20", "1"]}


@pytest.mark.parametrize("argv", _readme_script_lines(), ids=lambda argv: argv[1])
def test_readme_scripts_run(tmp_path, argv):
    assert argv[0] == "python"
    proc = run_python(str(ROOT / argv[1]), *SCRIPT_ARGS.get(argv[1], argv[2:]), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.filterwarnings("ignore")  # warnings go to stderr, which is not digested
def test_output_digests_match_the_committed_file():
    """Every command of scripts/output_digests.py prints the bytes and exit code recorded in
    tests/output_digests.txt. A change that moves output on purpose regenerates the file with
    `python scripts/output_digests.py tests/output_digests.txt`."""
    digest_lines = runpy.run_path(str(ROOT / "scripts" / "output_digests.py"))["digest_lines"]
    recorded = (ROOT / "tests" / "output_digests.txt").read_text().splitlines()
    moved = "\n".join(difflib.unified_diff(recorded, digest_lines(), "recorded", "now", n=0,
                                           lineterm=""))
    assert not moved, f"digest lines moved:\n{moved}"


def test_readme_scripts_block_found():
    assert [argv[1] for argv in _readme_script_lines()] == [
        "scripts/reproduce_figures.py", "scripts/audit_random_states.py",
        "scripts/output_digests.py"]


@pytest.mark.parametrize("fuzz_code, expected", [(0, 2), (1, 1)])
def test_audit_script_exits_with_the_first_nonzero_code(monkeypatch, tmp_path, capsys,
                                                        fuzz_code, expected):
    from entshare import cli

    calls = []

    def fake_main(argv):
        calls.append(argv[0])
        return 2 if argv[0] == "sweep" else fuzz_code

    monkeypatch.setattr(cli, "main", fake_main)
    monkeypatch.setattr(sys, "argv", ["audit_random_states.py", "5", "1"])
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(ROOT / "scripts" / "audit_random_states.py"), run_name="__main__")
    assert exc.value.code == expected
    assert calls == ["fuzz", "sweep", "sweep"]
    assert capsys.readouterr().out.count("(exit 2)") == 2


TRACER_PROBE = """
import sys
sys.path.insert(0, "bench")
import tracing
tracing.install(tracing.Tracer(), True)
"""


def test_benchmark_tracer_finds_every_name():
    proc = run_python("-c", TRACER_PROBE, timeout=120)
    assert proc.returncode == 0, proc.stderr


WORKLOAD_PROBE = """
import contextlib, io, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from workloads import WORKLOADS
from entshare import cli
for name, workload in WORKLOADS.items():
    workload = workload(1)
    checked = 0
    for rnd in (workload.warmup(), workload.round(0)):
        for path, text in rnd.files.items():
            Path(path).write_text(text)
        for item in rnd.items:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(item.argv)
            problem = item.check(code, out.getvalue())
            if problem is not None:
                print("FAILED", name, " ".join(item.argv), problem)
            checked += 1
    print(name, checked)
"""


def test_benchmark_rounds_pass_their_oracles(tmp_path):
    """The warmup and first round (seed 1) of every benchmark workload through its oracles.

    bench/ is imported read-only (no bytecode written) in a subprocess that
    runs in a temporary directory, so an output the benchmark would count as
    incorrect fails here too.
    """
    proc = run_python("-B", "-c", WORKLOAD_PROBE, str(ROOT / "bench"), cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines and not [line for line in lines if line.startswith("FAILED")], proc.stdout
    assert all(int(line.split()[1]) > 0 for line in lines), proc.stdout
