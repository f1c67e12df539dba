"""entshare benchmark: one command, three workloads, end-to-end or per-layer metrics.

    python3 bench/run.py --workload fuzz-3q|roof-haar|paper-curves \
        --seed N --seconds S --trace 0|1

Run from anywhere; it finds the repository from its own path and imports
entshare from ./src. Each workload runs in its own fresh worker process with
BLAS and OpenMP pinned to one thread.

--trace 0 measures set-up (median of fresh interpreters importing
entshare.cli and building the parser), then runs whole rounds of the
workload for --seconds and reports throughput, median and tail item latency
and peak memory.

--trace 1 runs a fixed number of rounds three times, each in a fresh process:
untraced, traced, and traced with table lookups counted. It reports
per-layer metrics from the traced pass (the lookup ratio from the counted
one), the tracing overhead against the untraced pass, and fails its
self-check when the two traced passes disagree on a work counter or any pass
sees different inputs or exact outputs.

The last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The line before it, and bench/_work/results/, hold the details: item tail
percentile, digests, run context, failures and the design checks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PER_LAYER, WORK_COUNTERS, tail
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
RESULTS = WORK / "results"

THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
SETUP_REPEATS = 3
SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import entshare.cli\n"
    "entshare.cli.build_parser()\n"
    "print(time.perf_counter() - t)\n"
)
BUDGET_S = 170.0  # every run must end within 180 s


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["ENTSHARE_BENCH_SRC"] = str(SRC)
    env.pop("ENTSHARE_SEED", None)
    return env


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("time budget exhausted")
    return left


def measure_setup(workdir: Path, deadline: float) -> list[float]:
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=workdir, env=_env(),
                              capture_output=True, text=True, timeout=_remaining(deadline))
        if proc.returncode != 0:
            raise BenchError(f"importing entshare.cli failed:\n{proc.stderr[-2000:]}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def run_worker(workload: str, seed: int, seconds: float, rounds: int, trace: int,
               out: Path, workdir: Path, deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--rounds", str(rounds),
           "--trace", str(trace), "--out", str(out)]
    proc = subprocess.run(cmd, cwd=workdir, env=_env(), capture_output=True, text=True,
                          timeout=_remaining(deadline))
    if proc.returncode != 0 or not out.is_file():
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(out.read_text())


def end_to_end(res: dict, setup: list[float]) -> tuple[dict, dict]:
    lat = res["latencies"]
    tail_s, tail_pct = tail(lat)
    metrics = {
        "items_per_s": (len(lat) / sum(lat), "1/s"),
        "item_p50_s": (statistics.median(lat), "s"),
        "item_tail_s": (tail_s, "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    details = {"items": len(lat), "rounds": res["rounds"], "item_tail_percentile": tail_pct,
               "setup_samples_s": setup, "digests": res["digests"], "context": res["context"]}
    return metrics, details


def design_check(workload: str, layers: dict) -> str | None:
    """The property each workload was chosen for, or why it does not hold."""
    if workload == "fuzz-3q" and layers["measures.roof_calls"] != 0:
        return f"{layers['measures.roof_calls']} roof calls on fuzz-3q"
    if workload == "roof-haar" and layers["measures.roof_share"] < 0.9:
        return f"roof share {layers['measures.roof_share']:.3f} below 0.9 on roof-haar"
    if workload == "paper-curves" and layers["arith.self_share"] <= 0.5:
        return f"bounds+thresholds+cli self share {layers['arith.self_share']:.3f} not a majority"
    return None


def per_layer(workload: str, seed: int, workdir: Path, deadline: float):
    rounds = WORKLOADS[workload].trace_rounds
    passes = {}
    for name, trace in (("untraced", 0), ("traced", 1), ("counted", 2)):
        out = RESULTS / f"{workload}-s{seed}-{name}.json"
        passes[name] = run_worker(workload, seed, 0, rounds, trace, out, workdir, deadline)
    base, t1, t2 = passes["untraced"], passes["traced"], passes["counted"]
    layers = dict(t1["layers"])
    layers["bounds.cache_hit_ratio"] = t2["layers"]["bounds.cache_hit_ratio"]
    layers["trace.overhead_frac"] = sum(t1["latencies"]) / sum(base["latencies"]) - 1.0
    units = {name: unit for name, unit, _ in PER_LAYER}
    metrics = {name: (layers[name], units[name]) for name, _, _ in PER_LAYER}

    problems = [f"{c}: {t1['layers'][c]} then {t2['layers'][c]}"
                for c in WORK_COUNTERS if t1["layers"][c] != t2["layers"][c]]
    for key in ("inputs", "exact_outputs"):
        if len({p["digests"][key] for p in passes.values()}) != 1:
            problems.append(f"{key} digest differs between passes of one seed")
    roof_moved = len({p["digests"]["roof_outputs"] for p in passes.values()}) != 1
    details = {
        "rounds": rounds,
        "items": len(t1["latencies"]),
        "digests": t1["digests"],
        "roof_outputs_moved_between_passes": roof_moved,
        "selfcheck": problems,
        "design": design_check(workload, layers) or "ok",
        "context": t1["context"],
        "spans_file": t1["spans_file"],
    }
    return metrics, details, list(passes.values()), not problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    deadline = time.monotonic() + BUDGET_S

    if not (SRC / "entshare" / "cli.py").is_file():
        print(f"error: no entshare sources under {SRC}", file=sys.stderr)
        return 2
    RESULTS.mkdir(parents=True, exist_ok=True)
    workdir = WORK / f"run-{args.workload}-s{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            metrics, details, passes, selfcheck_ok = per_layer(
                args.workload, args.seed, workdir, deadline)
        else:
            setup = measure_setup(workdir, deadline)
            out = RESULTS / f"{args.workload}-s{args.seed}-run.json"
            res = run_worker(args.workload, args.seed, args.seconds, 0, 0, out, workdir, deadline)
            metrics, details = end_to_end(res, setup)
            passes, selfcheck_ok = [res], True
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    details.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                   trace=args.trace, failed_frac=failed / attempted,
                   failures=[f for p in passes for f in p["failures"]])
    details["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (RESULTS / f"{args.workload}-s{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=2))
    for note in details["failures"][:5]:
        print(f"failed item: {note}", file=sys.stderr)
    print(json.dumps(details))
    print(json.dumps({
        "correct": failed == 0 and selfcheck_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": details["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
