#!/usr/bin/env python3
"""Random-state audit of the sharing inequalities, plus W-state sweeps.

Runs the three-qubit fuzz battery (monogamy at y=2 and the weighted pair
bound at y=3 for concurrence, base polygamy at powers 1 and 2 for the
assistance measure) and then sweeps the two W-state examples from first
principles. Exits with the first non-zero exit code of the three runs: 1 if
any fuzz violation appears, 2 if a run rejected its input.

Usage: python scripts/audit_random_states.py [samples] [seed]
"""

import sys

from entshare.cli import main

samples = sys.argv[1] if len(sys.argv) > 1 else "500"
seed = sys.argv[2] if len(sys.argv) > 2 else "20240817"

RUNS = (
    ("fuzz report", "fuzz_report.json",
     ["fuzz", "--samples", samples, "--dims", "2,2,2", "--seed", seed]),
    ("w5 first-principles polygamy sweep", "w5_polygamy_sweep.csv",
     ["sweep", "--family", "w5", "--measure", "tau_assistance", "--side", "polygamy",
      "--grid", "0.1:2:0.1", "--seed", seed]),
    ("w4 first-principles monogamy sweep", "w4_monogamy_sweep.csv",
     ["sweep", "--family", "w4", "--measure", "concurrence", "--side", "monogamy",
      "--grid", "2:6:0.1", "--seed", seed]),
)

codes = []
for label, path, argv in RUNS:
    code = main([*argv, "--out", path])
    print(f"{label} -> {path} (exit {code})")
    codes.append(code)

sys.exit(next((code for code in codes if code), 0))
