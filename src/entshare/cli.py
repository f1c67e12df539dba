"""Command-line front end.

Subcommands: measure, bounds, sweep, threshold, fuzz, figure. Each writes its
result through one function, _write, which builds only the --format asked for.
All output is deterministic for a fixed seed: CSV cells carry 17 significant
digits, JSON is key-sorted, and timing notes go to stderr, never into files.

Exit codes: 0 success, 1 fuzz violations, 2 invalid input, 3 no root found.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import re
import sys
import time
import warnings
from pathlib import Path

from . import bounds as bmod
from . import reference
from .errors import EntshareError, NoRootError
from .measures import DEFAULT_OPT, OptimizerConfig, get_measure, measure_bipartite
from .states import (
    Bipartition,
    PureState,
    check_size,
    haar_random_pure,
    json_text,
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


FLOAT_CELL, TEXT_CELL = "%.17g", "%s"  # CSV cells: a float to 17 significant digits, text as is


def _number(text: str, option: str, kind=float):
    """kind(text), or an error naming the option and the text that is not a number."""
    try:
        return kind(text)
    except ValueError:
        raise EntshareError(f"{option}: {text!r} is not "
                            f"{'an integer' if kind is int else 'a number'}") from None


def parse_cut(text: str, n_parties: int) -> Bipartition:
    """Parse cuts like "A|rest", "A|B1B2", "B1,B3|A"."""
    halves = text.split("|")
    if len(halves) != 2:
        raise EntshareError(f"cut {text!r} must have exactly two sides separated by '|'")

    def side(tokens: str):
        s = tokens.replace(",", "").replace(" ", "")
        if s.lower() == "rest":
            return None
        names = re.findall(r"A|B[1-9]\d*", s)  # party indices have no leading zero
        if "".join(names) != s or not names:
            raise EntshareError(f"cannot parse cut side {tokens!r}")
        if len(set(names)) < len(names):
            raise EntshareError(f"cut side {tokens!r} names a party twice")
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
    texts = args.params.split(",") if args.params else []
    params = [_number(p, f"--params {args.params!r}") for p in texts]
    if family.startswith("ghz:"):  # the count and any --params, for make_family to check
        family, count = family.split(":", 1)
        params = [_number(count, f"--family {args.family!r}"), *params]
    return make_family(family, params)


def optimizer_from_args(args) -> OptimizerConfig:
    return OptimizerConfig(restarts=args.restarts, max_iters=args.max_iters, tol=args.opt_tol,
                           seed=args.seed)


def _add_state_args(p):
    p.add_argument("--family", help="built-in family id (3q, 4q-theta, w4, w5, ghz:N)")
    p.add_argument("--params", help="comma-separated family parameters")
    p.add_argument("--state", help="path to a state JSON file")


def _add_opt_args(p):
    p.add_argument("--seed", type=int, default=DEFAULT_OPT.seed,
                   help=f"PRNG seed (default: {DEFAULT_OPT.seed})")
    p.add_argument("--restarts", type=int, default=DEFAULT_OPT.restarts)
    p.add_argument("--max-iters", type=int, default=DEFAULT_OPT.max_iters)
    p.add_argument("--opt-tol", type=float, default=DEFAULT_OPT.tol)


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


@functools.lru_cache(maxsize=None)  # once per process: parse_args keeps no state in it
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
    p.add_argument("--bound", help="empirical-beta bound id: base or residual_max (default)")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--scan-steps", type=int, default=DEFAULT_SCAN_STEPS)
    p.add_argument("--cap", type=float,
                   help=f"empirical-beta scan cap (default: {DEFAULT_SEARCH_CAP})")
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


def _write(args, doc, header: list[str], cells: list[str], rows) -> None:
    """Write a command's result in its --format to --out, or to stdout: every command's one path.

    JSON is json_text(doc()), the bytes of json.dumps(doc(), indent=2, sort_keys=True): key
    sorted, a two-space indent, and a list of float pairs such as a scan profile through one
    %r row template; CSV is the header, then each row tuple through one %-template, the
    comma-joined cells (FLOAT_CELL, TEXT_CELL or a constant). doc is called only for JSON and
    rows are read only for CSV, so no run builds the values of the format it does not write.
    """
    if args.format == "json":
        text = json_text(doc()) + "\n"
    else:
        template = ",".join(cells)
        text = "\n".join([",".join(header), *map(template.__mod__, rows)]) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


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
    mv = measure_bipartite(get_measure(args.measure), target, cut, opt)
    _write(args, lambda: {"value": mv.value, "exactness": mv.exactness,
                          "optimizer_meta": mv.optimizer_meta},
           ["value", "exactness"], [FLOAT_CELL, TEXT_CELL], [(mv.value, mv.exactness)])
    return EXIT_OK


_OK_CELLS = {True: "1", False: "0", None: "na"}


def _report_rows(sweep):
    """CSV header, cells and row tuples of a sweep's columns; the tol cells are formatted once."""
    ids, tol = sweep.plan.bound_ids, sweep.plan.tol
    header = ["exponent", "lhs", *ids, *[f"tol_{b}" for b in ids], *[f"ok_{b}" for b in ids]]
    cells = ([FLOAT_CELL] * (2 + len(ids)) + [FLOAT_CELL % tol[b] for b in ids]
             + [TEXT_CELL] * len(ids))
    oks = [[*map(_OK_CELLS.__getitem__, verdicts)] for verdicts in sweep.verdicts]
    return header, cells, zip(sweep.exponents, sweep.lhs_powers, *sweep.values, *oks)


def _report_doc(sweep, i: int) -> dict:
    """The JSON report of a sweep's i-th exponent, read off its columns."""
    plan, lhs, wide = sweep.plan, sweep.plan.lhs, sweep.out_of_range[i]
    return {"exponent": sweep.exponents[i], "side": plan.side, "m": plan.m,
            "lhs": {"value": lhs.value, "exactness": lhs.exactness},
            "lhs_power": sweep.lhs_powers[i], "degenerate": sweep.degenerate[i],
            "bounds": {b: {"value": values[i], "exact": exact, "range_warning": wide}
                       for b, values, exact in zip(plan.bound_ids, sweep.values, plan.exact)},
            "satisfied": {b: verdicts[i] for b, verdicts in zip(plan.bound_ids, sweep.verdicts)},
            "margin": sweep.margin}


def parse_grid(spec: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise EntshareError(f"grid {spec!r} must be lo:hi:step")
    return reference.inclusive_grid(*(_number(p, f"--grid {spec!r}") for p in parts))


def cmd_sweep(args) -> int:
    """sweep over --grid; bounds is the one-point sweep at --exponent."""
    state, measure, opt = load_state(args), get_measure(args.measure), optimizer_from_args(args)
    one_point = args.command == "bounds"
    grid = [args.exponent] if one_point else parse_grid(args.grid)
    ids = tuple(args.bounds.split(",")) if args.bounds is not None else None
    table = bmod.ComponentTable(state, measure, opt)
    sweep = bmod.bound_sweep(table, args.side, grid, ids, args.m)
    _write(args, lambda: _report_doc(sweep, 0) if one_point
           else [_report_doc(sweep, i) for i in range(len(grid))], *_report_rows(sweep))
    return EXIT_OK


def cmd_threshold(args) -> int:
    """residual-zero scans `base` up to beta_max, so --bound and --cap are empirical-beta's."""
    residual_zero = args.kind == "residual-zero"
    if residual_zero and (args.bound is not None or args.cap is not None):
        raise EntshareError("--bound and --cap apply to --kind empirical-beta only")
    table = bmod.ComponentTable(load_state(args), get_measure(args.measure),
                                optimizer_from_args(args))
    if residual_zero:
        result = residual_zero_exponent(table, tol=args.tol, scan_steps=args.scan_steps)
    else:
        result = empirical_beta(table, bmod.RESIDUAL_MAX if args.bound is None else args.bound,
                                tol=args.tol, scan_steps=args.scan_steps,
                                search_cap=DEFAULT_SEARCH_CAP if args.cap is None else args.cap)
    _write(args, lambda: vars(result),
           ["root", "bracket_lo", "bracket_hi", "iterations", "residual_at_root"], [FLOAT_CELL] * 5,
           [(result.root, *result.bracket, result.iterations, result.residual_at_root)])
    return EXIT_OK


def _parse_checks(raw: str | None, n_parties: int):
    """(side, measure name as written, measure, exponent, bound) per check.

    A default check runs only where its bound applies at this party count; an
    explicit check whose bound does not fit its side or the party count, or
    whose exponent is not finite, is rejected up front.
    """
    specs = []
    for chunk in raw.split(",") if raw is not None else DEFAULT_FUZZ_CHECKS:
        parts = chunk.strip().split(":")
        if len(parts) not in (3, 4):
            raise EntshareError(f"check {chunk!r} must be side:measure:exponent[:bound]")
        side, name, exponent = parts[0], parts[1], _number(parts[2], f"--checks {chunk!r}")
        if not math.isfinite(exponent):
            raise EntshareError(f"check {chunk!r} needs a finite exponent")
        if side not in bmod.BOUNDS:
            raise EntshareError(f"unknown side {side!r} in check {chunk!r}")
        bound = parts[3] if len(parts) == 4 else None
        if bound and raw is None and bound not in bmod.applicable_bounds(n_parties, side, True):
            continue
        if bound:
            bmod.check_bound(side, bound, n_parties)
        specs.append((side, name, get_measure(name), exponent, bound))
    return specs


def cmd_fuzz(args) -> int:
    if args.samples < 0:
        raise EntshareError(f"--samples must be >= 0, got {args.samples}")
    dims = tuple(_number(d, f"--dims {args.dims!r}", int) for d in args.dims.split(","))
    if len(dims) < 3 or min(dims) < 2:
        raise EntshareError(f"--dims needs three or more parties of dimension 2 or more, "
                            f"got {args.dims}")
    check_size(dims, "--dims")
    checks = _parse_checks(args.checks, len(dims))
    measures = dict.fromkeys(m for _, _, m, _, _ in checks)
    opt = optimizer_from_args(args)
    started = time.perf_counter()
    violations, indeterminate, skipped = [], 0, 0
    for k in range(args.samples):
        sample_seed = opt.seed + k
        state = haar_random_pure(dims, sample_seed)
        digest = hashlib.sha256(state.amplitudes.tobytes()).hexdigest()[:12]
        tables = {m: bmod.ComponentTable(state, m, opt) for m in measures}
        for side, name, measure, exponent, bound in checks:
            table = tables[measure]
            # a bound keyed to an ordering index does not apply to a sample without one
            if bound and bmod.needs_m(side, bound) and table.ordering.m is None:
                skipped += 1
                continue
            ids = (bound,) if bound else None
            _, viol, indet = bmod.verify_hierarchy(table, [exponent], side, bound_ids=ids)
            indeterminate += indet
            for v in viol:
                violations.append((sample_seed, digest, side, name, v.check, v.exponent, v.gap))
    elapsed = time.perf_counter() - started
    sys.stderr.write(f"fuzz: {args.samples} samples in {elapsed:.2f}s, "
                     f"{skipped} checks skipped without an ordering index m\n")
    header = ["seed", "state_digest", "side", "measure", "bound", "exponent", "gap"]
    _write(args, lambda: {
        "samples": args.samples,
        "dims": list(dims),
        "checks": [f"{s}:{name}:{e}" + (f":{b}" if b else "")
                   for s, name, _, e, b in checks],
        "seed": opt.seed,
        "violations": [dict(zip(header, v)) for v in violations],
        "indeterminate": indeterminate,
    }, header, [TEXT_CELL] * 5 + [FLOAT_CELL] * 2, violations)
    return EXIT_VIOLATIONS if violations else EXIT_OK


def cmd_figure(args) -> int:
    header, rows = reference.figure_rows(args.fig, args.step)
    _write(args, lambda: [dict(zip(header, row)) for row in rows], header,
           [FLOAT_CELL] * len(header), map(tuple, rows))
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
    args = build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings():  # each call shows its own warnings, under the -W filters
            return _COMMANDS[args.command](args)
    except NoRootError as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_NO_ROOT
    except (EntshareError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
