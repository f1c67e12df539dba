"""The three workloads: CLI argument lists built from the seed, each with its oracle.

A workload is an endless sequence of rounds. A round is a fixed list of
items (one CLI invocation each) plus the input files they read; round r
depends only on (seed, r). Every item carries a check that returns None when
the output is right and a message when it is not.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable

import numpy as np

import oracles

SLACK = 1e-6


@dataclass
class Item:
    argv: list[str]
    check: Callable[[int, str], str | None]
    exact: bool  # output bytes are fixed by the inputs (no optimizer estimate in them)


@dataclass
class Round:
    items: list[Item] = field(default_factory=list)
    files: dict[str, str] = field(default_factory=dict)


def _json_check(inner):
    """Wrap a check of the parsed JSON document with exit-code and parse checks."""
    def check(code, out):
        if code != 0:
            return f"exit code {code}"
        return inner(json.loads(out))
    return check


def _csv_rows(out: str) -> tuple[list[str], list[list[float]]]:
    lines = out.strip().split("\n")
    return lines[0].split(","), [[float(c) for c in line.split(",")[:3]] for line in lines[1:]]


def _close(got: float, want: float, rel: float = 1e-9) -> bool:
    return abs(got - want) <= rel * max(1.0, abs(want))


class Fuzz3q:
    """`fuzz --dims 2,2,2` over consecutive blocks of sample seeds."""

    block = 20
    blocks_per_round = 10
    trace_rounds = 15

    def __init__(self, seed: int):
        self.base = 1_000_000 * (seed + 1)

    def _item(self, first: int) -> Item:
        def inner(rep):
            if rep["violations"]:
                return f"{len(rep['violations'])} violations, first {rep['violations'][0]}"
            if (rep["samples"], rep["dims"], rep["seed"], len(rep["checks"])) != \
                    (self.block, [2, 2, 2], first, 4):
                return "report header does not echo the request"
            return None
        argv = ["fuzz", "--samples", str(self.block), "--dims", "2,2,2", "--seed", str(first)]
        return Item(argv, _json_check(inner), exact=True)

    def warmup(self) -> Round:
        return Round([self._item(self.base - self.block)])

    def round(self, r: int) -> Round:
        start = self.base + r * self.blocks_per_round * self.block
        return Round([self._item(start + j * self.block) for j in range(self.blocks_per_round)])


class RoofHaar:
    """`measure --reduce` on every mixed cut of Haar 4- and 5-qubit states, both roof directions.

    A round is three 4-qubit states and one 5-qubit state: 26 rank-2 items
    (2x4 and 2x8 cuts) and 12 rank-4 2x4 items, which carry most of the time.
    Four restarts instead of the CLI's 16 keep a 5-qubit state near 4 s, so
    a 35 s run sees eight or more of them; per-state cost varies by about
    25%, and fewer states per run would make throughput depend on the seed.
    With rank-2 items over two thirds of a round, the median item sits inside
    their cluster rather than at the edge between the two clusters.
    """

    restarts = 4
    trace_rounds = 2

    def __init__(self, seed: int):
        self.seed = seed

    def _state_items(self, r: int, nq: int, subsets, rnd: Round) -> None:
        rng = np.random.default_rng([self.seed, r + 1, nq])
        dims = (2,) * nq
        amps = oracles.haar_amplitudes(rng, nq)
        opt_seed = str(int(rng.integers(1, 2**31)))
        name = f"haar-r{r}-{nq}q.json"
        rnd.files[name] = json.dumps(oracles.state_json(amps, dims))
        jensen = oracles.jensen_bound(amps, dims)
        for sub in subsets:
            cut = "A|" + "".join(f"B{i}" for i in sub)
            caf = oracles.caf_bound(oracles.reduce(amps, dims, [0, *sub]), 2, 2 ** len(sub))
            seen: dict[str, float] = {}
            for measure in ("concurrence", "tau_assistance"):
                argv = ["measure", "--state", name, "--cut", cut, "--reduce",
                        "--measure", measure, "--restarts", str(self.restarts),
                        "--seed", opt_seed]
                rnd.items.append(Item(argv, _json_check(
                    lambda doc, m=measure, j=jensen, c=caf, s=seen: self._check(doc, m, j, c, s)),
                    exact=False))

    @staticmethod
    def _check(doc, measure, jensen, caf, seen):
        v = doc["value"]
        flag = "upper-estimate" if measure == "concurrence" else "lower-estimate"
        if doc["exactness"] != flag:
            return f"exactness {doc['exactness']!r}, expected the roof's {flag!r}"
        if not 0.0 <= v <= jensen + SLACK:
            return f"{measure} {v} outside [0, Jensen bound {jensen}]"
        seen[measure] = v
        if measure == "concurrence" and v < caf - SLACK:
            return f"concurrence {v} below the Chen-Albeverio-Fei bound {caf}"
        if measure == "tau_assistance" and seen.get("concurrence", 0.0) > v + SLACK:
            return f"concurrence {seen['concurrence']} above tau_assistance {v}"
        return None

    def warmup(self) -> Round:
        rnd = Round()
        self._state_items(-1, 4, [(1, 2)], rnd)
        self._state_items(-1, 5, [(1, 2, 3)], rnd)
        return rnd

    def round(self, r: int) -> Round:
        rnd = Round()
        for key, nq in ((3 * r, 4), (3 * r + 1, 4), (3 * r + 2, 4), (r, 5)):
            subsets = [s for k in range(2, nq - 1) for s in combinations(range(1, nq), k)]
            self._state_items(key, nq, subsets, rnd)
        return rnd


def _grid(lo: float, hi: float, step: float) -> list[float]:
    return [lo + i * step for i in range(round((hi - lo) / step) + 1)]


class PaperCurves:
    """The paper's pipeline: W-state sweeps, both threshold kinds and the figure presets.

    A round holds six w5 sweeps, so that the slowest kind of item has at
    least eleven members in any run of two or more rounds: the tail
    percentile then always falls among the w5 sweeps, also when a faster
    program fits more rounds in. The w5 sweeps pass --restarts 4: with the
    CLI's 16, the ten W-state roofs of each table would outweigh the bound
    arithmetic on a 2001-point grid. The fourteen threshold and figure items,
    each a few ms, are over half of every round, so the median item is one
    of them.
    """

    trace_rounds = 1
    # family -> (measure, side, lo, hi, step, lhs base, base multiplier, marginal value)
    SWEEPS = {
        "w5": ("tau_assistance", "polygamy", 0.0, 2.0, 0.001, 0.8, 4.0, 0.4),
        "w4": ("concurrence", "monogamy", 2.0, 6.0, 0.0005, math.sqrt(3) / 2, 3.0, 0.5),
    }
    HEADLINE_3Q = (
        ([1 / math.sqrt(5)] * 5, 1.26185, 1e-3),
        ([0.5, 1 / math.sqrt(6), 0.5, 1 / math.sqrt(6), 1 / math.sqrt(6)], 1.33770, 1e-3),
    )
    HEADLINE_4Q = ((math.pi / 4, math.pi / 4), 1.507126, 1e-4)
    # figure id -> (rows, lhs base, value of every column at exponent 2)
    FIGURES = {1: (201, 0.8, 0.64), 2: (201, 0.8, 0.64), 3: (401, math.sqrt(3) / 2, 0.75)}

    def __init__(self, seed: int):
        self.seed = seed

    def _sweep(self, family: str, opt_seed: int, grid=None) -> Item:
        measure, side, lo, hi, step, q, mult, qb = self.SWEEPS[family]
        if grid is not None:
            lo, hi, step = grid
        xs = _grid(lo, hi, step)

        def check(code, out):
            if code != 0:
                return f"exit code {code}"
            header, rows = _csv_rows(out)
            if header[:3] != ["exponent", "lhs", "base"] or len(rows) != len(xs):
                return f"unexpected header {header[:3]} or {len(rows)} rows"
            for x, (ex, lhs, base) in zip(xs, rows):
                if not (_close(ex, x, 1e-12) and _close(lhs, q**x) and _close(base, mult * qb**x)):
                    return f"row at exponent {ex}: lhs {lhs}, base {base} off the closed forms"
            return None

        argv = ["sweep", "--family", family, "--measure", measure, "--side", side,
                "--grid", f"{lo!r}:{hi!r}:{step!r}", "--seed", str(opt_seed)]
        if family == "w5":
            argv += ["--restarts", "4"]
        return Item(argv, check, exact=False)

    def _residual_zero(self, params, want=None, tol=None) -> Item:
        f_lo, f_hi = oracles.residual_3q(oracles.family_3q(params))

        def inner(doc):
            root, (lo, hi) = doc["root"], doc["bracket"]
            if want is not None and abs(root - want) > tol:
                return f"root {root} is not {want} within {tol}"
            if not (lo <= root <= hi and hi - lo <= 2e-6):
                return f"root {root} outside its bracket [{lo}, {hi}]"
            if f_lo(root) > 1e-5 or f_hi(root) < -1e-5 or f_hi(lo) < 0.0 or f_lo(hi) > 0.0:
                return f"oracle residual does not change sign at {root}"
            for x, v in doc["scan_profile"]:
                if not f_lo(x) - 1e-12 <= v <= f_hi(x) + 1e-12:
                    return f"scan value {v} at {x} outside the oracle range"
                if x < lo and f_hi(x) <= 0.0:
                    return f"an earlier sign change at {x} was skipped"
            return None

        argv = ["threshold", "--family", "3q", "--params", ",".join(repr(p) for p in params),
                "--kind", "residual-zero"]
        return Item(argv, _json_check(inner), exact=True)

    def _beta(self, thetas, opt_seed: int, want=None, tol=None) -> Item:
        f_lo, f_hi = oracles.beta_bracket_4q(oracles.family_4q_theta(*thetas))

        def inner(doc):
            root, (lo, hi) = doc["root"], doc["bracket"]
            if want is not None and abs(root - want) > tol:
                return f"root {root} is not {want} within {tol}"
            if not (lo <= root <= hi and hi - lo <= 2e-6) or abs(doc["residual_at_root"]) > 1e-5:
                return f"root {root} is not a bracketed zero"
            profile = doc["scan_profile"]
            for x, v in profile:
                if not f_lo(x) - SLACK <= v <= f_hi(x) + SLACK:
                    return f"scan value {v} at {x} outside the oracle range"
            after = [v for x, v in profile if x > lo]
            if any(v <= 0.0 for x, v in profile if x <= lo) or not after or after[0] >= 0.0:
                return f"scan signs do not change at the bracket [{lo}, {hi}]"
            return None

        argv = ["threshold", "--family", "4q-theta", "--params",
                ",".join(repr(t) for t in thetas), "--kind", "empirical-beta",
                "--bound", "residual_max", "--seed", str(opt_seed)]
        return Item(argv, _json_check(inner), exact=False)

    def _figure(self, fig: int) -> Item:
        n_rows, q, at_two = self.FIGURES[fig]

        def check(code, out):
            if code != 0:
                return f"exit code {code}"
            _, rows = _csv_rows(out)
            if len(rows) != n_rows:
                return f"{len(rows)} rows, expected {n_rows}"
            for x, lhs, _ in rows:
                if not _close(lhs, q**x, 1e-12):
                    return f"lhs {lhs} at {x} is not {q}^{x}"
            end = next((line for line in out.split("\n")[1:] if float(line.split(",")[0]) == 2.0), "")
            if not end or any(not _close(float(c), at_two, 1e-12) for c in end.split(",")[1:]):
                return f"row at exponent 2 is {end!r}, expected every column {at_two}"
            return None

        return Item(["figure", str(fig)], check, exact=True)

    def _random_3q(self, rng) -> list[float]:
        """Family point whose residual changes sign inside (0, 2]: nonzero tangle and pairs."""
        while True:
            params = [float(p) for p in rng.uniform(0.25, 1.0, 5)]
            norm = math.sqrt(sum(p * p for p in params))
            params = [p / norm for p in params]
            f_lo, f_hi = oracles.residual_3q(oracles.family_3q(params))
            if f_hi(2.0) < -1e-3 and f_lo(1e-4) > 1e-3:
                return params

    def warmup(self) -> Round:
        items = [self._figure(1), self._residual_zero(self.HEADLINE_3Q[0][0]),
                 self._sweep("w4", 1, grid=(2.0, 6.0, 0.5))]
        return Round(items)

    def round(self, r: int) -> Round:
        rng = np.random.default_rng([self.seed, r + 1])
        seeds = [int(x) for x in rng.integers(1, 2**31, 6)]
        h1, h2 = self.HEADLINE_3Q
        thetas, beta, beta_tol = self.HEADLINE_4Q
        r3 = [self._residual_zero(self._random_3q(rng)) for _ in range(9)]
        r4 = [self._beta(tuple(float(t) for t in rng.uniform(0.2, math.pi / 2 - 0.2, 2)), seeds[k])
              for k in range(2)]
        w5 = [self._sweep("w5", seed) for seed in seeds]
        return Round([
            w5[0], self._residual_zero(*h1), self._figure(1), r3[0],
            self._beta(thetas, seeds[0], beta, beta_tol), w5[1], r3[1], r3[2],
            self._residual_zero(*h2), w5[2], self._figure(2), r3[3], r4[0],
            self._sweep("w4", seeds[1]), w5[3], r3[4], r3[5], self._figure(3),
            w5[4], r4[1], r3[6], r3[7], w5[5], r3[8],
        ])

WORKLOADS = {"fuzz-3q": Fuzz3q, "roof-haar": RoofHaar, "paper-curves": PaperCurves}
