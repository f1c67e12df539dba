#!/usr/bin/env python3
"""Digest the stdout of a fixed list of CLI commands, one line per command.

Each line is the exit code, the first 16 hex digits of the sha256 of the
command's stdout, and its argv. Two checkouts give equal lines exactly when
every listed command printed the same bytes and exited the same way:
figures 1-3, three- and four-qubit `fuzz` (one four-qubit run with checks
that name no bound, so every applicable bound and the hierarchy checks
run), five-qubit `fuzz` with the default checks (all `base`, so no
ordering index is classified and no roof runs), `sweep` and `bounds` on
w4, w5, 3q and 4q-theta for both sides in JSON and CSV with and without
`--m 1` (which exits 2 on 3q: a three-party state has no ordering index), both `threshold` kinds (residual-zero also
on GHZ, which has no root and exits 3, and on a 3q state whose residual
keeps one sign, which exits 3 too; empirical-beta also with `--cap 0`,
an invalid range that exits 2), and `measure --reduce` under both measures
on one cut per dispatch branch (a pure state, a 2x2 mixed state, a rank-1
2x2 and a rank-1 2x4 reduction, two 2x4 cuts restricted to 2x2, a 2x2
reduction of a product |a>|psi_B1B2> and a 2x4 reduction of a product
|a>|psi_B1B2B3>, each with a pure side, which both measures read as an
exact 0 (the second through the rank-1-side branch of the support
restriction), a 2x4 roof on a Haar 4-qubit state and a 2x8 roof
restricted to 2x4 on a Haar 5-qubit state, plus the 2x2 case in CSV).
A 6-qubit W-class state (real amplitudes (0.3, 0.25, 0.35, 0.4, 0.45, 0.5,
0.3)/norm on |000000> and the six single excitations, A first) runs `sweep`
on 0:2:0.01 with `--m 1` under both sides in JSON and CSV: its tables are
exact, and every weighted bound evaluates its five-party recursion.
`bounds` also runs on two states with violated verdicts: the W-class state
F with amplitudes (4, 3, 6, 4, 4)/sqrt(93) (m = 1 from ordering_classify,
exact violations on both sides, in JSON and CSV) and the Haar 4-qubit state
under polygamy concurrence (estimate-backed violations). F also runs
`--bounds base` alone, which reads no m and so reports "m": null. The residual-zero
threshold also runs in CSV. Empirical-beta of `base` has no transition and
exits 3 twice: on GHZ, where the bound is violated from the first scanned
exponent on, and on the product state 3q 1,0,0,0,0, where it holds on the
whole range. So each of the four no-root reasons has a line. The last two
lines are the fine-grid CSV sweeps the paper-curves benchmark times: w5
tau_assistance polygamy on 0:2:0.001 and w4 concurrence monogamy on
2:6:0.0005, both on exact tables. The six
state files are built from fixed amplitudes or seeds and written as JSON into
a temporary working directory, so every argv stays the same from run to run.
Warnings and timing notes go to stderr and are not digested.

tests/output_digests.txt holds the current lines, and tier-1 compares them
with a fresh in-process run; a change that moves output on purpose
regenerates that file with this script.

Usage: python scripts/output_digests.py [outfile]
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from entshare.cli import main
from entshare.states import PureState, haar_random_pure, state_to_json

FAMILIES = {
    "w4": [],
    "w5": [],
    "3q": ["--params", "0.4472135955,0.4472135955,0.4472135955,0.4472135955,0.4472135955"],
    "4q-theta": ["--params", "0.785,0.785"],
}
# side -> (measure, sweep grid, bounds exponent)
SIDES = {
    "polygamy": ("tau_assistance", "0:2.5:0.05", "1"),
    "monogamy": ("concurrence", "1.5:6:0.1", "2.5"),
}
# measure --reduce: (state arguments, cut), one per dispatch branch
MEASURE_CASES = [
    (["--family", "w4"], "A|rest"),                             # pure state
    (["--family", "w4"], "A|B1"),                               # 2x2 closed forms
    (["--family", "3q", "--params", "1,0,0,0,0"], "A|B1"),      # rank-1 2x2
    (["--family", "4q-theta", "--params", "0,0"], "A|B1B2"),    # rank-1 2x4
    (["--family", "w4"], "A|B1B2"),                             # compressed to 2x2
    (["--family", "ghz:4"], "A|B1B2"),                          # compressed to 2x2
    (["--state", "product.json"], "A|B1"),                      # 2x2 with a pure side
    (["--state", "product4.json"], "A|B1B2"),                   # 2x4 with a pure side
    (["--state", "haar4.json"], "A|B1B2"),                      # 2x4 roof, nothing shrinks
    (["--state", "haar5.json"], "A|B1B2B3"),                    # 2x8 compressed to a 2x4 roof
]
# no bound named: all applicable bounds, so verify_hierarchy's checks run too
HIERARCHY_CHECKS = ("polygamy:concurrence_assistance:1,monogamy:concurrence:2.5,"
                    "polygamy:concurrence:1:weighted")
# bounds on state F: (side, measure, exponent), each with an exact violated verdict
VIOLATED_F = (("monogamy", "concurrence", "5.2"), ("polygamy", "tau_assistance", "0.8"))
PAIR_CHECKS = ",".join(f"{side}:{measure}:{e}:pair_weighted"
                       for side, measure in (("monogamy", "concurrence"),
                                             ("polygamy", "concurrence_assistance"))
                       for e in ("0.5", "1", "2", "3"))
# the two fine-grid sweeps the paper-curves benchmark times; both tables are exact, with no roof
BENCH_SWEEPS = (
    ["--family", "w5", "--measure", "tau_assistance", "--side", "polygamy",
     "--grid", "0:2:0.001", "--restarts", "4"],
    ["--family", "w4", "--measure", "concurrence", "--side", "monogamy", "--grid", "2:6:0.0005"],
)


def commands() -> list[list[str]]:
    cmds = [["figure", str(fig)] for fig in (1, 2, 3)]
    cmds.append(["figure", "2", "--format", "json"])
    for fmt in ("json", "csv"):
        cmds.append(["fuzz", "--samples", "30", "--seed", "5", "--format", fmt])
        cmds.append(["fuzz", "--samples", "30", "--seed", "9", "--checks", PAIR_CHECKS,
                     "--format", fmt])
    cmds.append(["fuzz", "--samples", "2", "--dims", "2,2,2,2", "--seed", "3",
                 "--restarts", "2"])
    cmds.append(["fuzz", "--samples", "2", "--dims", "2,2,2,2", "--seed", "3",
                 "--restarts", "2", "--checks", HIERARCHY_CHECKS])
    cmds.append(["fuzz", "--samples", "3", "--dims", "2,2,2,2,2", "--seed", "5"])
    for family, params in FAMILIES.items():
        for side, (measure, grid, exponent) in SIDES.items():
            common = ["--family", family, *params, "--measure", measure, "--side", side,
                      "--restarts", "4", "--seed", "11"]
            for fmt in ("json", "csv"):
                for m in ([], ["--m", "1"]):
                    cmds.append(["sweep", *common, "--grid", grid, "--format", fmt, *m])
                    cmds.append(["bounds", *common, "--exponent", exponent, "--format", fmt, *m])
    for side, (measure, grid, _) in SIDES.items():
        cmds.append(["sweep", "--family", "w5", "--measure", measure, "--side", side,
                     "--restarts", "4", "--seed", "11", "--grid", grid, "--m", "2"])
        for fmt in ("json", "csv"):
            cmds.append(["sweep", "--state", "w6.json", "--measure", measure, "--side", side,
                         "--grid", "0:2:0.01", "--m", "1", "--format", fmt])
    cmds.append(["threshold", "--family", "3q", *FAMILIES["3q"], "--kind", "residual-zero"])
    cmds.append(["threshold", "--family", "3q", *FAMILIES["3q"], "--kind", "residual-zero",
                 "--format", "csv"])
    cmds.append(["threshold", "--family", "ghz", "--params", "3", "--kind", "residual-zero"])
    cmds.append(["threshold", "--family", "3q", "--params", "0.6,0,0.6,0,0.5291502622129181",
                 "--kind", "residual-zero"])
    cmds.append(["threshold", "--family", "ghz:3", "--kind", "empirical-beta", "--bound", "base"])
    cmds.append(["threshold", "--family", "3q", "--params", "1,0,0,0,0",
                 "--kind", "empirical-beta", "--bound", "base"])
    for bound in ("residual_max", "base"):
        cmds.append(["threshold", "--family", "4q-theta", *FAMILIES["4q-theta"],
                     "--kind", "empirical-beta", "--bound", bound, "--restarts", "4"])
    cmds.append(["threshold", "--family", "4q-theta", *FAMILIES["4q-theta"],
                 "--kind", "empirical-beta", "--restarts", "2", "--cap", "0"])
    for state, cut in MEASURE_CASES:
        for measure in ("concurrence", "concurrence_assistance"):
            cmds.append(["measure", *state, "--cut", cut, "--reduce", "--measure", measure,
                         "--restarts", "2"])
    cmds.append(["measure", "--family", "w4", "--cut", "A|B1", "--reduce", "--format", "csv"])
    for side, measure, exponent in VIOLATED_F:
        for fmt in ("json", "csv"):
            cmds.append(["bounds", "--state", "f.json", "--side", side, "--measure", measure,
                         "--exponent", exponent, "--format", fmt])
    cmds.append(["bounds", "--state", "f.json", "--side", "monogamy", "--bounds", "base",
                 "--exponent", "2"])
    cmds.append(["bounds", "--state", "haar4.json", "--side", "polygamy", "--measure",
                 "concurrence", "--exponent", "1", "--restarts", "2"])
    for args in BENCH_SWEEPS:
        cmds.append(["sweep", *args, "--format", "csv"])
    return cmds


def digest_line(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]
    return f"{code} {digest} {' '.join(argv)}"


def state_files() -> dict[str, PureState]:
    """The states the commands read: two Haar states, |a> x |psi_B1B2> and |a> x |psi_B1B2B3>
    of three more, F and W6."""
    a, psi = haar_random_pure((2,), 0), haar_random_pure((2, 2), 1)
    psi3 = haar_random_pure((2, 2, 2), 2)
    f = np.zeros(16)
    f[[0b0000, 0b1000, 0b0100, 0b0010, 0b0001]] = np.array([4, 3, 6, 4, 4]) / np.sqrt(93)
    w6 = np.zeros(64)
    w6[[0] + [1 << k for k in range(5, -1, -1)]] = [0.3, 0.25, 0.35, 0.4, 0.45, 0.5, 0.3]
    return {"haar4.json": haar_random_pure((2,) * 4, 4),
            "haar5.json": haar_random_pure((2,) * 5, 5),
            "product.json": PureState(np.kron(a.amplitudes, psi.amplitudes), (2, 2, 2)),
            "product4.json": PureState(np.kron(a.amplitudes, psi3.amplitudes), (2,) * 4),
            "f.json": PureState(f, (2,) * 4),
            "w6.json": PureState(w6 / np.linalg.norm(w6), (2,) * 6)}


def digest_lines() -> list[str]:
    """Every command's digest line, run inside a temporary directory holding the state files."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for name, state in state_files().items():
                Path(name).write_text(state_to_json(state))
            return [digest_line(argv) for argv in commands()]
        finally:
            os.chdir(home)


if __name__ == "__main__":
    text = "\n".join(digest_lines()) + "\n"
    if len(sys.argv) > 1:
        with open(sys.argv[1], "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
