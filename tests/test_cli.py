import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import entshare
from entshare.cli import main, parse_cut, parse_grid
from entshare.errors import EntshareError
from entshare.states import make_family, state_to_json


ROOT = Path(__file__).resolve().parents[1]


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


class TestParsing:
    def test_cut_grammar(self):
        cut = parse_cut("A|B1B2", 3)
        assert cut.side_a == {0} and cut.side_b == {1, 2}
        cut = parse_cut("B1,B3|rest", 4)
        assert cut.side_a == {1, 3} and cut.side_b == {0, 2}

    def test_cut_rejects_nonsense(self):
        with pytest.raises(EntshareError):
            parse_cut("A|Bx", 3)
        with pytest.raises(EntshareError):
            parse_cut("rest|rest", 3)
        with pytest.raises(EntshareError):
            parse_cut("A|B7", 3)

    def test_grid(self):
        assert parse_grid("0:1:0.5") == pytest.approx([0.0, 0.5, 1.0])
        with pytest.raises(EntshareError):
            parse_grid("1:0:0.5")
        with pytest.raises(EntshareError):
            parse_grid("0:1:0")
        for bad in ("2:inf:1", "nan:1:0.5", "0:1:inf"):
            with pytest.raises(EntshareError):
                parse_grid(bad)


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

    def test_invalid_family_exits_2(self, capsys):
        code, _, err = run(capsys, "measure", "--family", "w9")
        assert code == 2
        assert "error" in err


class TestThresholdCommand:
    def test_residual_zero(self, capsys):
        lam = ",".join([f"{1 / math.sqrt(5):.10f}"] * 5)
        code, out, _ = run(capsys, "threshold", "--family", "3q", "--params", lam,
                           "--kind", "residual-zero")
        assert code == 0
        assert json.loads(out)["root"] == pytest.approx(1.26185, abs=1e-3)

    def test_empirical_beta(self, capsys):
        code, out, _ = run(capsys, "threshold", "--family", "4q-theta",
                           "--params", "0.7853981634,0.7853981634",
                           "--kind", "empirical-beta", "--bound", "residual_max")
        assert code == 0
        assert json.loads(out)["root"] == pytest.approx(1.507126, abs=1e-4)

    def test_degenerate_exits_3(self, capsys):
        code, _, err = run(capsys, "threshold", "--family", "ghz:3", "--kind", "residual-zero")
        assert code == 3
        assert "degenerate" in err


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

    def test_infinite_grid_end_exits_2(self, capsys):
        code, _, err = run(capsys, "sweep", "--family", "w4", "--side", "monogamy",
                           "--grid", "2:inf:1")
        assert code == 2 and "finite" in err


class TestBoundsCommand:
    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "bounds", "--family", "w4", "--measure", "concurrence",
                           "--side", "monogamy", "--exponent", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["bounds"]["base"]["value"] == pytest.approx(0.75, abs=1e-10)
        assert doc["satisfied"]["base"] is True
        assert doc["m"] is None

    def test_nan_exponent_exits_2(self, capsys):
        code, out, err = run(capsys, "bounds", "--family", "w4", "--measure", "concurrence",
                             "--side", "monogamy", "--exponent", "nan")
        assert code == 2 and out == "" and "finite" in err

    def test_wrong_side_bound_exits_2_before_any_roof(self, capsys, monkeypatch):
        from entshare import measures

        def no_roof(*args, **kwargs):
            raise AssertionError("convex_roof called")

        monkeypatch.setattr(measures, "convex_roof", no_roof)
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

    def test_infinite_check_exponent_exits_2(self, capsys):
        code, out, err = run(capsys, "fuzz", "--samples", "1",
                             "--checks", "monogamy:concurrence:inf")
        assert code == 2 and out == "" and "finite" in err

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
                                                                 dims, check):
        from entshare import cli, measures

        def no_roof(*args, **kwargs):
            raise AssertionError("convex_roof called")

        def no_sample(*args, **kwargs):
            raise AssertionError("sample drawn")

        monkeypatch.setattr(measures, "convex_roof", no_roof)
        monkeypatch.setattr(cli, "haar_random_pure", no_sample)
        code, out, err = run(capsys, "fuzz", "--samples", "2", "--dims", dims,
                             "--checks", f"monogamy:concurrence:2:base,{check}")
        assert code == 2 and out == ""
        assert re.search(r"three-party|four parties|not defined for the polygamy side", err)

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

    def test_env_seed_respected(self, capsys, monkeypatch):
        monkeypatch.setenv("ENTSHARE_SEED", "123")
        code, out, _ = run(capsys, "fuzz", "--samples", "1")
        assert code == 0
        assert json.loads(out)["seed"] == 123

    def test_explicit_seed_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("ENTSHARE_SEED", "123")
        code, out, _ = run(capsys, "fuzz", "--samples", "1", "--seed", "77")
        assert code == 0
        assert json.loads(out)["seed"] == 77

    def test_non_integer_env_seed_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("ENTSHARE_SEED", "abc")
        code, _, err = run(capsys, "fuzz", "--samples", "1")
        assert code == 2


class TestOptimizerJson:
    def test_opt_json_accepted(self, capsys):
        code, out, _ = run(capsys, "measure", "--family", "w4", "--measure", "concurrence",
                           "--cut", "A|B1B2", "--reduce", "--seed", "4",
                           "--opt-json", json.dumps({"restarts": 3, "max_iters": 200}))
        assert code == 0
        doc = json.loads(out)
        assert doc["exactness"] == "upper-estimate"
        assert doc["optimizer_meta"]["restarts"] == 3
        assert "converged" in doc["optimizer_meta"]

    @pytest.mark.parametrize("measure", ["concurrence", "tau_assistance"])
    @pytest.mark.parametrize("opt_args", [
        ["--restarts", "0"], ["--max-iters", "0"], ["--opt-tol", "0"], ["--ensemble-size", "0"],
        ["--opt-json", '{"restarts": 0}'], ["--opt-json", "[3]"],
    ], ids=["restarts", "max-iters", "opt-tol", "ensemble-size", "json-restarts", "json-list"])
    def test_invalid_optimizer_settings_exit_2(self, capsys, measure, opt_args):
        code, out, err = run(capsys, "measure", "--family", "w4", "--measure", measure,
                             "--cut", "A|B1B2", "--reduce", *opt_args)
        assert code == 2
        assert out == "" and err.startswith("error:")

    def test_opt_json_rejects_unknown_keys(self, capsys):
        code, _, err = run(capsys, "measure", "--family", "w4", "--cut", "A|B1B2",
                           "--reduce", "--opt-json", '{"stepsize": 3}')
        assert code == 2


SCIPY_PROBE = """
import contextlib, io, sys
from entshare.cli import build_parser, main
build_parser()
loaded = ["scipy.optimize" in sys.modules]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    assert main(["fuzz", "--samples", "2"]) == 0
    loaded.append("scipy.optimize" in sys.modules)
    assert main(["measure", "--family", "w4", "--cut", "A|B1B2", "--reduce",
                 "--restarts", "1"]) == 0
    loaded.append("scipy.optimize" in sys.modules)
print(loaded)
"""


def test_scipy_imported_only_by_roofs():
    proc = run_python("-c", SCIPY_PROBE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[False, False, True]"


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


def test_readme_scripts_block_found():
    assert [argv[1] for argv in _readme_script_lines()] == [
        "scripts/reproduce_figures.py", "scripts/audit_random_states.py"]


TRACER_PROBE = """
import sys
sys.path.insert(0, "bench")
import tracing
tracing.install(tracing.Tracer(), True)
"""


def test_benchmark_tracer_finds_every_name():
    proc = run_python("-c", TRACER_PROBE, timeout=120)
    assert proc.returncode == 0, proc.stderr
