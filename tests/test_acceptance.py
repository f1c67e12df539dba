"""Acceptance suite: one test per criterion, each printing its own PASS/FAIL line.

Criterion 9 (byte determinism) re-runs the figure and fuzz commands and
compares against the bytes produced earlier in this module, so run the file
as a whole: pytest tests/test_acceptance.py -s
"""

import functools
import json
import math
import sys
import time

import numpy as np
import pytest

from conftest import oracle_lambda_sum, oracle_wootters, random_two_qubit_mixed
from entshare.bounds import RESIDUAL_MAX
from entshare.cli import main
from entshare.measures import (
    OptimizerConfig,
    concurrence_pure,
    convex_roof,
    wootters_concurrence,
)
from entshare.states import Bipartition, cut_a_vs_rest, make_family, partial_trace, w_state

LAMBDA = 1 / math.sqrt(5)
_FIRST_RUN_BYTES: dict[str, bytes] = {}


def criterion(lab, limit_s):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {lab}: FAIL ({time.perf_counter() - start:.2f}s)",
                      file=sys.__stdout__, flush=True)
                raise
            elapsed = time.perf_counter() - start
            print(f"criterion {lab}: PASS ({elapsed:.2f}s, limit {limit_s}s)",
                  file=sys.__stdout__, flush=True)
            assert elapsed < limit_s, f"criterion {lab} exceeded its {limit_s}s budget"
        return wrapper
    return deco


def run_cli_to_file(tmp_path, name, *argv):
    path = tmp_path / name
    code = main([*argv, "--out", str(path)])
    return code, path.read_bytes()


@criterion("1 (alpha_1 threshold)", 1.0)
def test_criterion_1_alpha1(tmp_path):
    state = make_family("3q", [LAMBDA] * 5)
    joint = concurrence_pure(state, cut_a_vs_rest(3)).value
    assert joint == pytest.approx(2 * math.sqrt(3) / 5, abs=1e-10)
    for party in (1, 2):
        marg = wootters_concurrence(partial_trace(state, {0, party})).value
        assert marg == pytest.approx(2 / 5, abs=1e-10)
    code, raw = run_cli_to_file(
        tmp_path, "a1.json", "threshold", "--family", "3q",
        "--params", ",".join([repr(LAMBDA)] * 5), "--kind", "residual-zero")
    assert code == 0
    assert json.loads(raw)["root"] == pytest.approx(1.26185, abs=1e-3)


@criterion("2 (alpha_2 threshold)", 1.0)
def test_criterion_2_alpha2(tmp_path):
    params = [0.5, 1 / math.sqrt(6), 0.5, 1 / math.sqrt(6), 1 / math.sqrt(6)]
    code, raw = run_cli_to_file(
        tmp_path, "a2.json", "threshold", "--family", "3q",
        "--params", ",".join(repr(p) for p in params), "--kind", "residual-zero")
    assert code == 0
    assert json.loads(raw)["root"] == pytest.approx(1.33770, abs=1e-3)


@criterion("3 (empirical beta)", 5.0)
def test_criterion_3_empirical_beta(tmp_path):
    code, raw = run_cli_to_file(
        tmp_path, "beta.json", "threshold", "--family", "4q-theta",
        "--params", f"{math.pi / 4!r},{math.pi / 4!r}",
        "--kind", "empirical-beta", "--bound", RESIDUAL_MAX)
    assert code == 0
    assert json.loads(raw)["root"] == pytest.approx(1.507126, abs=1e-4)

    rng = np.random.default_rng(314)
    for _ in range(5):
        t0, t1 = rng.uniform(0.2, math.pi / 2 - 0.2, size=2)
        state = make_family("4q-theta", [t0, t1])
        scale = math.cos(t0) * math.sin(t0) * math.sin(t1)
        got = sorted(
            wootters_concurrence(partial_trace(state, {0, i})).value for i in (1, 2, 3)
        )
        want = sorted([scale, 1.5 * scale, 0.0])
        assert got == pytest.approx(want, abs=1e-8)


@criterion("4 (figure 1 reproduction)", 1.0)
def test_criterion_4_figure1(tmp_path):
    code, raw = run_cli_to_file(tmp_path, "fig1.csv", "figure", "1")
    assert code == 0
    _FIRST_RUN_BYTES["fig1"] = raw
    lines = raw.decode().strip().split("\n")
    header = lines[0].split(",")
    assert header == ["exponent", "lhs", "base", "residual_max"]
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    assert len(rows) == 201
    for alpha, lhs, base, tightened in rows:
        assert lhs <= tightened + 1e-12
        assert tightened <= base + 1e-12
        if 0.0 < alpha < 2.0:
            assert tightened < base
    final = rows[-1]
    assert final[0] == pytest.approx(2.0)
    for value in final[1:]:
        assert value == pytest.approx(0.64, abs=1e-12)


@criterion("5 (figure 3 reproduction)", 1.0)
def test_criterion_5_figure3(tmp_path):
    code, raw = run_cli_to_file(tmp_path, "fig3.csv", "figure", "3")
    assert code == 0
    _FIRST_RUN_BYTES["fig3"] = raw
    lines = raw.decode().strip().split("\n")
    assert lines[0].split(",") == ["exponent", "lhs", "ratio_weighted", "exp_weighted"]
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    assert len(rows) == 401
    for y, lhs, ratio, exp in rows:
        assert lhs >= exp - 1e-12
        assert exp >= ratio - 1e-12
        if y > 2.0:
            assert exp - ratio > 0.0
    first = rows[0]
    assert first[0] == pytest.approx(2.0)
    for value in first[1:]:
        assert value == pytest.approx(0.75, abs=1e-12)


@pytest.mark.xfail(
    strict=True,
    reason="the two printed reference curves cross on (1.815, 2.0): the weighted "
    "curve exceeds the residual-tightened one by up to 6.7e-4 before re-touching "
    "at the endpoint, so the ordering cannot hold on the whole open interval",
)
@criterion("note (figure 2 ordering, literal)", 1.0)
def test_note_figure2_reference_ordering_everywhere(tmp_path):
    code, raw = run_cli_to_file(tmp_path, "fig2a.csv", "figure", "2")
    assert code == 0
    lines = raw.decode().strip().split("\n")
    assert lines[0].split(",") == ["exponent", "lhs", "residual_max", "weighted_residual"]
    for line in lines[1:]:
        alpha, _, tightened, weighted = (float(x) for x in line.split(","))
        if 0.0 < alpha < 2.0:
            assert weighted <= tightened + 1e-12


@criterion("note (figure 2 ordering, plot resolution)", 1.0)
def test_note_figure2_reference_ordering_as_plotted(tmp_path):
    """The weighted curve sits below the residual-tightened one up to their
    crossing at alpha ~ 1.815; past it the excess never exceeds 1e-3, which is
    why the two orderings are indistinguishable in a rendered plot."""
    code, raw = run_cli_to_file(tmp_path, "fig2b.csv", "figure", "2")
    assert code == 0
    lines = raw.decode().strip().split("\n")
    for line in lines[1:]:
        alpha, lhs, tightened, weighted = (float(x) for x in line.split(","))
        if 0.0 < alpha <= 1.81:
            assert weighted <= tightened + 1e-12
        elif alpha < 2.0:
            assert weighted <= tightened + 1e-3
    final = [float(x) for x in lines[-1].split(",")]
    assert final[0] == pytest.approx(2.0)
    assert final[2] == pytest.approx(final[3], abs=1e-12)


@criterion("6 (convex roof vs closed value)", 30.0)
def test_criterion_6_roof_of_w_mixture():
    rho = partial_trace(w_state(4), {0, 1, 2})
    mv = convex_roof(rho, Bipartition({0}, {1, 2}), "minimize")
    assert mv.value == pytest.approx(math.sqrt(2) / 2, abs=5e-3)
    assert mv.exactness == "upper-estimate"


@criterion("7 (roof vs spin-flip oracles, 200 states)", 300.0)
def test_criterion_7_roof_oracle_bracket():
    from entshare.states import DensityMatrix

    cut = Bipartition({0}, {1})
    for k in range(200):
        rank = (k % 4) + 1
        rho = random_two_qubit_mixed(seed=10_000 + k, rank=rank)
        dm = DensityMatrix(rho, (2, 2))
        cw, cs = oracle_wootters(rho), oracle_lambda_sum(rho)
        lo = convex_roof(dm, cut, "minimize", OptimizerConfig(seed=k)).value
        hi = convex_roof(dm, cut, "maximize", OptimizerConfig(seed=k)).value
        assert cw - 1e-9 <= lo <= cw + 1e-3, f"state {k} (rank {rank}): min {lo} vs {cw}"
        assert cs - 1e-3 <= hi <= cs + 1e-9, f"state {k} (rank {rank}): max {hi} vs {cs}"


@criterion("8 (three-qubit fuzz audit)", 60.0)
def test_criterion_8_fuzz(tmp_path):
    code, raw = run_cli_to_file(
        tmp_path, "fuzz.json", "fuzz", "--samples", "500", "--dims", "2,2,2",
        "--seed", "20240817",
        "--checks", ",".join([
            "monogamy:concurrence:2:base",
            "monogamy:concurrence:3:pair_weighted",
            "polygamy:concurrence_assistance:1:base",
            "polygamy:concurrence_assistance:2:base",
        ]))
    assert code == 0
    _FIRST_RUN_BYTES["fuzz"] = raw
    doc = json.loads(raw)
    assert doc["samples"] == 500
    assert doc["violations"] == []


@criterion("9 (byte determinism)", 90.0)
def test_criterion_9_determinism(tmp_path):
    reruns = {
        "fig1": ("figure", "1"),
        "fig3": ("figure", "3"),
        "fuzz": ("fuzz", "--samples", "500", "--dims", "2,2,2", "--seed", "20240817",
                 "--checks", ",".join([
                     "monogamy:concurrence:2:base",
                     "monogamy:concurrence:3:pair_weighted",
                     "polygamy:concurrence_assistance:1:base",
                     "polygamy:concurrence_assistance:2:base",
                 ])),
    }
    for key, argv in reruns.items():
        first = _FIRST_RUN_BYTES.get(key)
        if first is None:
            _, first = run_cli_to_file(tmp_path, f"{key}_a", *argv)
        _, again = run_cli_to_file(tmp_path, f"{key}_b", *argv)
        assert again == first, f"{key} output is not byte-identical across runs"
