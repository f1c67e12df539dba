"""One workload in one fresh process: a closed loop of CLI items through entshare.cli.main.

Run by run.py, never by hand:

    python3 bench/worker.py --workload W --seed N --seconds S --rounds K --trace 0|1|2 --out FILE

With --rounds 0 the loop runs whole rounds until --seconds have passed;
otherwise it runs exactly K rounds. --trace 1 records spans, --trace 2 also
counts table lookups. The working directory holds the round
input files. The result, a JSON document, goes to --out.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import os
import platform
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import tracing
from workloads import WORKLOADS

MAX_FAILURE_NOTES = 20


def _context(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_pins": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


class Loop:
    def __init__(self, cli):
        self.cli = cli
        self.tracer = None
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.out_bytes = 0
        self.in_hash = hashlib.sha256()
        self.exact_hash = hashlib.sha256()
        self.roof_hash = hashlib.sha256()

    def run_round(self, rnd, digest: bool, timed: bool = True) -> None:
        for name, text in rnd.files.items():
            Path(name).write_text(text)
            if digest:
                self.in_hash.update(text.encode())
        for item in rnd.items:
            out, err = io.StringIO(), io.StringIO()
            if self.tracer is not None:
                self.tracer.item = self.attempted
            problem = None
            start = perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = self.cli.main(item.argv)
            except SystemExit as exc:  # argparse rejects arguments this way
                code = exc.code
            except Exception:  # a crashing item is a failed item, not a crashed benchmark
                problem = traceback.format_exc(limit=3)
            elapsed = perf_counter() - start
            text = out.getvalue()
            if problem is None:
                try:
                    problem = item.check(code, text)
                except (ValueError, KeyError, IndexError, TypeError) as exc:
                    problem = f"unreadable output: {exc!r}"
            self.attempted += 1
            if problem is not None:
                self.failed += 1
                if len(self.failures) < MAX_FAILURE_NOTES:
                    self.failures.append(f"{' '.join(item.argv)}: {problem} {err.getvalue()[-300:]}")
            if not timed:
                continue
            self.latencies.append(elapsed)
            self.out_bytes += len(text.encode())
            if digest:
                self.in_hash.update(json.dumps(item.argv).encode())
                (self.exact_hash if item.exact else self.roof_hash).update(text.encode())


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--rounds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1, 2), required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    import entshare.cli as cli

    src = Path(os.environ["ENTSHARE_BENCH_SRC"]).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"entshare imported from {cli.__file__}, not from {src}")
    workload = WORKLOADS[args.workload](args.seed)
    tracer = tracing.Tracer() if args.trace else None
    loop = Loop(cli)
    loop.run_round(workload.warmup(), digest=False, timed=False)
    if tracer is not None:
        tracing.install(tracer, count_lookups=args.trace == 2)
        loop.tracer = tracer

    rounds = 0
    start = perf_counter()
    while (rounds < args.rounds) if args.rounds else (perf_counter() - start < args.seconds):
        loop.run_round(workload.round(rounds), digest=rounds < workload.trace_rounds)
        rounds += 1
    wall = perf_counter() - start

    result = {
        "latencies": loop.latencies,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "failures": loop.failures,
        "rounds": rounds,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digests": {
            "rounds": min(rounds, workload.trace_rounds),
            "inputs": loop.in_hash.hexdigest()[:16],
            "exact_outputs": loop.exact_hash.hexdigest()[:16],
            "roof_outputs": loop.roof_hash.hexdigest()[:16],
        },
        "context": _context(args.seed),
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, loop.out_bytes)
    if args.trace == 1:
        spans_path = Path(args.out).with_suffix(".spans.jsonl.gz")
        with gzip.open(spans_path, "wt") as fh:
            for row in tracer.rows():
                fh.write(json.dumps(row) + "\n")
        result["spans_file"] = spans_path.name
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
