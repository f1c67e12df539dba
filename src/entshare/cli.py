"""Command-line front end.

Subcommands: measure, bounds, sweep, threshold, fuzz, figure. All output is
deterministic for a fixed seed: CSV cells carry 17 significant digits, JSON
is key-sorted, and timing notes go to stderr, never into files.

Exit codes: 0 success, 1 fuzz violations, 2 invalid input, 3 no root found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
import time
from dataclasses import asdict
from pathlib import Path

from . import bounds as bmod
from . import reference
from .errors import EntshareError
from .measures import OptimizerConfig, get_measure, measure_bipartite
from .states import (
    Bipartition,
    PureState,
    haar_random_pure,
    make_family,
    partial_trace,
    state_from_json,
)
from .thresholds import (
    DEFAULT_SCAN_STEPS,
    DEFAULT_SEARCH_CAP,
    DEFAULT_TOL,
    empirical_beta,
    residual_zero_exponent,
)

SEED_ENV_VAR = "ENTSHARE_SEED"

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_INVALID = 2
EXIT_NO_ROOT = 3

DEFAULT_FUZZ_CHECKS = (
    "monogamy:concurrence:2:base",
    "monogamy:concurrence:3:pair_weighted",
    "polygamy:concurrence_assistance:1:base",
    "polygamy:concurrence_assistance:2:base",
)


def fmt(x: float) -> str:
    return f"{x:.17g}"


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 17
    try:
        return int(raw)
    except ValueError:
        raise EntshareError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}")


def parse_cut(text: str, n_parties: int) -> Bipartition:
    """Parse cuts like "A|rest", "A|B1B2", "B1,B3|A"."""
    halves = text.split("|")
    if len(halves) != 2:
        raise EntshareError(f"cut {text!r} must have exactly two sides separated by '|'")

    def side(tokens: str):
        s = tokens.replace(",", "").replace(" ", "")
        if s.lower() == "rest":
            return None
        names = re.findall(r"A|B\d+", s)
        if "".join(names) != s or not names:
            raise EntshareError(f"cannot parse cut side {tokens!r}")
        idx = set()
        for name in names:
            i = 0 if name == "A" else int(name[1:])
            if i >= n_parties:
                raise EntshareError(f"party {name} out of range for {n_parties} parties")
            idx.add(i)
        return idx

    a, b = side(halves[0]), side(halves[1])
    if a is None and b is None:
        raise EntshareError("only one side of a cut may be 'rest'")
    if a is None:
        a = set(range(n_parties)) - b
    if b is None:
        b = set(range(n_parties)) - a
    return Bipartition(a, b)


def load_state(args) -> PureState:
    if args.state and args.family:
        raise EntshareError("give either --family or --state, not both")
    if args.state:
        return state_from_json(Path(args.state).read_text())
    if not args.family:
        raise EntshareError("a state source is required (--family or --state)")
    family = args.family
    params = [float(p) for p in args.params.split(",")] if args.params else []
    if family.startswith("ghz:"):
        family, params = "ghz", [int(family.split(":", 1)[1])]
    return make_family(family, params)


def optimizer_from_args(args) -> OptimizerConfig:
    if getattr(args, "opt_json", None):
        doc = json.loads(args.opt_json)
        if not isinstance(doc, dict):
            raise EntshareError("--opt-json must be a JSON object")
        return OptimizerConfig.from_dict({**doc, "seed": args.seed})
    return OptimizerConfig(
        ensemble_size=args.ensemble_size,
        restarts=args.restarts,
        max_iters=args.max_iters,
        tol=args.opt_tol,
        seed=args.seed,
    )


def _add_state_args(p):
    p.add_argument("--family", help="built-in family id (3q, 4q-theta, w4, w5, ghz:N)")
    p.add_argument("--params", help="comma-separated family parameters")
    p.add_argument("--state", help="path to a state JSON file")


def _add_opt_args(p):
    p.add_argument("--seed", type=int, default=None,
                   help=f"PRNG seed (default: ${SEED_ENV_VAR} or 17)")
    p.add_argument("--restarts", type=int, default=16)
    p.add_argument("--max-iters", type=int, default=500)
    p.add_argument("--opt-tol", type=float, default=1e-8)
    p.add_argument("--ensemble-size", type=int, default=None)
    p.add_argument("--opt-json", help="optimizer settings as a JSON object")


def _add_report_args(p):
    """Arguments shared by bounds and sweep."""
    _add_state_args(p)
    p.add_argument("--measure", default="concurrence")
    p.add_argument("--side", choices=(bmod.POLYGAMY, bmod.MONOGAMY), required=True)
    p.add_argument("--bounds", help="comma-separated bound ids (default: all applicable)")
    p.add_argument("--m", type=int, default=None, help="ordering index override")
    _add_opt_args(p)


def _add_out_args(p, default_format="json"):
    p.add_argument("--out", help="write the result to this path")
    p.add_argument("--format", choices=("csv", "json"), default=default_format)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entshare",
        description="Correlation measures and sharing inequalities for small quantum states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="evaluate one bipartite measure across a cut")
    _add_state_args(p)
    p.add_argument("--measure", default="concurrence")
    p.add_argument("--cut", default="A|rest")
    p.add_argument("--reduce", action="store_true",
                   help="partial-trace the state down to the cut parties first")
    _add_opt_args(p)
    _add_out_args(p)

    p = sub.add_parser("bounds", help="bound report at one exponent")
    _add_report_args(p)
    p.add_argument("--exponent", type=float, required=True)
    _add_out_args(p)

    p = sub.add_parser("sweep", help="bound report over an exponent grid to CSV/JSON")
    _add_report_args(p)
    p.add_argument("--grid", required=True, help="lo:hi:step")
    _add_out_args(p, default_format="csv")

    p = sub.add_parser("threshold", help="solve an exponent threshold")
    _add_state_args(p)
    p.add_argument("--measure", default="concurrence")
    p.add_argument("--kind", choices=("residual-zero", "empirical-beta"), required=True)
    p.add_argument("--bound", default=bmod.RESIDUAL_MAX,
                   help="bound id for empirical-beta (base or residual_max)")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--scan-steps", type=int, default=DEFAULT_SCAN_STEPS)
    p.add_argument("--cap", type=float, default=DEFAULT_SEARCH_CAP)
    _add_opt_args(p)
    _add_out_args(p)

    p = sub.add_parser("fuzz", help="random-state audit of the sharing inequalities")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--dims", default="2,2,2", help="comma-separated local dimensions")
    p.add_argument("--checks", help=f"comma-separated side:measure:exponent[:bound] specs "
                                    f"(default: {','.join(DEFAULT_FUZZ_CHECKS)})")
    _add_opt_args(p)
    _add_out_args(p)

    p = sub.add_parser("figure", help="emit a bundled reference-figure preset")
    p.add_argument("fig", type=int, choices=sorted(reference.FIGURES))
    p.add_argument("--step", type=float, default=None)
    _add_out_args(p, default_format="csv")
    return parser


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell if isinstance(cell, str) else fmt(cell) for cell in row))
    return "\n".join(lines) + "\n"


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def cmd_measure(args) -> int:
    state = load_state(args)
    cut = parse_cut(args.cut, state.n_parties)
    opt = optimizer_from_args(args)
    target = state
    if args.reduce and len(cut.parties()) < state.n_parties:
        keep = sorted(cut.parties())
        target = partial_trace(state, keep)
        remap = {old: new for new, old in enumerate(keep)}
        cut = Bipartition({remap[i] for i in cut.side_a}, {remap[i] for i in cut.side_b})
    measure = get_measure(args.measure)
    mv = measure_bipartite(measure, target, cut, opt)
    doc = {"value": mv.value, "exactness": mv.exactness, "optimizer_meta": mv.optimizer_meta}
    if args.format == "json":
        _emit(_json_text(doc), args.out)
    else:
        _emit(_csv(["value", "exactness"], [[mv.value, mv.exactness]]), args.out)
    return EXIT_OK


def _report_rows(reports, bound_ids):
    header = ["exponent", "lhs"] + list(bound_ids)
    header += [f"tol_{b}" for b in bound_ids] + [f"ok_{b}" for b in bound_ids]
    rows = []
    for rep in reports:
        row = [rep.exponent, rep.lhs_power]
        row += [rep.bounds[b].value for b in bound_ids]
        for b in bound_ids:
            exact_pair = rep.bounds[b].exact and rep.lhs.exact
            row.append(bmod.EXACT_TOL if exact_pair else rep.margin)
        for b in bound_ids:
            ok = rep.satisfied[b]
            row.append("na" if ok is None else ("1" if ok else "0"))
        rows.append(row)
    return header, rows


def _report_doc(rep) -> dict:
    return {
        "exponent": rep.exponent,
        "side": rep.side,
        "lhs": {"value": rep.lhs.value, "exactness": rep.lhs.exactness},
        "lhs_power": rep.lhs_power,
        "bounds": {b: asdict(e) for b, e in rep.bounds.items()},
        "satisfied": rep.satisfied,
        "m": rep.m,
        "degenerate": rep.degenerate,
        "margin": rep.margin,
    }


def parse_grid(spec: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise EntshareError(f"grid {spec!r} must be lo:hi:step")
    return reference.inclusive_grid(*(float(p) for p in parts))


def cmd_sweep(args) -> int:
    """sweep over --grid; bounds is the one-point sweep at --exponent."""
    state = load_state(args)
    measure = get_measure(args.measure)
    opt = optimizer_from_args(args)
    one_point = args.command == "bounds"
    grid = [args.exponent] if one_point else parse_grid(args.grid)
    ids = tuple(args.bounds.split(",")) if args.bounds else None
    table = bmod.ComponentTable(state, measure, opt)
    reports = [
        bmod.evaluate_bounds(state, measure, x, args.side, opt, bound_ids=ids,
                             m=args.m, table=table)
        for x in grid
    ]
    if args.format == "json":
        docs = [_report_doc(r) for r in reports]
        _emit(_json_text(docs[0] if one_point else docs), args.out)
    else:
        header, rows = _report_rows(reports, list(reports[0].bounds))
        _emit(_csv(header, rows), args.out)
    return EXIT_OK


def cmd_threshold(args) -> int:
    state = load_state(args)
    measure = get_measure(args.measure)
    opt = optimizer_from_args(args)
    if args.kind == "residual-zero":
        result = residual_zero_exponent(state, measure, opt, tol=args.tol,
                                        scan_steps=args.scan_steps)
        if result is None:
            table = bmod.ComponentTable(state, measure, opt)
            if table.marginal(1).value == 0.0 and table.marginal(2).value == 0.0:
                sys.stderr.write("no root: degenerate state, both pair components vanish\n")
            else:
                sys.stderr.write("no root: residual keeps one sign on the range\n")
            return EXIT_NO_ROOT
    else:
        result = empirical_beta(state, measure, args.bound, opt, tol=args.tol,
                                scan_steps=args.scan_steps, search_cap=args.cap)
        if result is None:
            sys.stderr.write("no transition: the bound holds on the whole range\n")
            return EXIT_NO_ROOT
    doc = result.to_dict()
    if args.format == "json":
        _emit(_json_text(doc), args.out)
    else:
        _emit(_csv(["root", "bracket_lo", "bracket_hi", "iterations", "residual_at_root"],
                   [[doc["root"], doc["bracket"][0], doc["bracket"][1],
                     float(doc["iterations"]), doc["residual_at_root"]]]), args.out)
    return EXIT_OK


def _parse_checks(raw: str | None, n_parties: int):
    """(side, measure name as written, measure, exponent, bound) per check.

    A default check runs only where its bound applies at this party count; an
    explicit check whose bound does not fit its side or the party count is
    rejected up front.
    """
    specs = []
    for chunk in raw.split(",") if raw else DEFAULT_FUZZ_CHECKS:
        parts = chunk.strip().split(":")
        if len(parts) not in (3, 4):
            raise EntshareError(f"check {chunk!r} must be side:measure:exponent[:bound]")
        side, name, exponent = parts[0], parts[1], float(parts[2])
        if side not in bmod.BOUNDS:
            raise EntshareError(f"unknown side {side!r} in check {chunk!r}")
        bound = parts[3] if len(parts) == 4 else None
        if bound and not raw and bound not in bmod.applicable_bounds(n_parties, side, True):
            continue
        if bound:
            bmod.check_bound(side, bound, n_parties)
        specs.append((side, name, get_measure(name), exponent, bound))
    return specs


def cmd_fuzz(args) -> int:
    if args.samples < 0:
        raise EntshareError(f"--samples must be >= 0, got {args.samples}")
    dims = tuple(int(d) for d in args.dims.split(","))
    checks = _parse_checks(args.checks, len(dims))
    measures = dict.fromkeys(m for _, _, m, _, _ in checks)
    opt = optimizer_from_args(args)
    started = time.perf_counter()
    violations = []
    indeterminate = skipped = 0
    for k in range(args.samples):
        sample_seed = opt.seed + k
        state = haar_random_pure(dims, sample_seed)
        digest = hashlib.sha256(state.amplitudes.tobytes()).hexdigest()[:12]
        tables = {m: bmod.ComponentTable(state, m, opt) for m in measures}
        for side, name, measure, exponent, bound in checks:
            table = tables[measure]
            # a bound keyed to an ordering index does not apply to a sample without one
            if bound and bmod.needs_m(side, bound) and bmod.ordering_classify(table).m is None:
                skipped += 1
                continue
            ids = (bound,) if bound else None
            _, viol, indet = bmod.verify_hierarchy(state, measure, [exponent], side, opt,
                                                   bound_ids=ids, table=table)
            indeterminate += indet
            for v in viol:
                violations.append({
                    "seed": sample_seed,
                    "state_digest": digest,
                    "bound": v.check,
                    "exponent": v.exponent,
                    "gap": v.gap,
                    "side": side,
                    "measure": name,
                })
    elapsed = time.perf_counter() - started
    report = {
        "samples": args.samples,
        "dims": list(dims),
        "checks": [f"{s}:{name}:{e}" + (f":{b}" if b else "")
                   for s, name, _, e, b in checks],
        "seed": opt.seed,
        "violations": violations,
        "indeterminate": indeterminate,
    }
    sys.stderr.write(f"fuzz: {args.samples} samples in {elapsed:.2f}s, "
                     f"{skipped} checks skipped without an ordering index m\n")
    if args.format == "json":
        _emit(_json_text(report), args.out)
    else:
        header = ["seed", "state_digest", "side", "measure", "bound", "exponent", "gap"]
        rows = [[str(v["seed"]), v["state_digest"], v["side"], v["measure"], v["bound"],
                 v["exponent"], v["gap"]] for v in violations]
        _emit(_csv(header, rows), args.out)
    return EXIT_VIOLATIONS if violations else EXIT_OK


def cmd_figure(args) -> int:
    header, rows = reference.figure_rows(args.fig, args.step)
    if args.format == "json":
        doc = [dict(zip(header, row)) for row in rows]
        _emit(_json_text(doc), args.out)
    else:
        _emit(_csv(header, rows), args.out)
    return EXIT_OK


_COMMANDS = {
    "measure": cmd_measure,
    "bounds": cmd_sweep,
    "sweep": cmd_sweep,
    "threshold": cmd_threshold,
    "fuzz": cmd_fuzz,
    "figure": cmd_figure,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "seed", None) is None and hasattr(args, "seed"):
        try:
            args.seed = _default_seed()
        except EntshareError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return EXIT_INVALID
    try:
        return _COMMANDS[args.command](args)
    except (EntshareError, OSError, ValueError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
