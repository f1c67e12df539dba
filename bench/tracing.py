"""Spans and counters recorded at entshare's layer boundaries, from outside.

The tracer replaces, inside the benchmark's own worker process, the
module-level names through which one layer calls the next (for example
`bounds.measure_bipartite`, the name ComponentTable calls). Each call then
records a span: name, start, end, parent span and item id. Spans stay in
memory until the run ends. Counters are kept at boundaries crossed too often
for a span each: table construction, and table lookups, which are counted
only on request because a wrapper on every lookup slows the bound arithmetic
by about a third. Nothing in src/ changes; the patching lives and dies with
the worker process.
"""

from __future__ import annotations

import statistics
from array import array
from collections import Counter, defaultdict
from time import perf_counter

# a restart "hits" when its final objective is this close to its roof's best
RESTART_HIT_TOL = 1e-6

PER_LAYER = (
    # name, unit, better
    ("measures.roof_calls", "count", "lower"),
    ("measures.lbfgs_runs", "count", "lower"),
    ("measures.objective_evals", "count", "lower"),
    ("measures.lbfgs_iters", "count", "lower"),
    ("measures.roof_s", "s", "lower"),
    ("measures.roof_p50_s", "s", "lower"),
    ("measures.roof_tail_s", "s", "lower"),
    ("measures.eval_us", "us", "lower"),
    ("measures.restart_hit_ratio", "ratio", "higher"),
    ("measures.roof_unconverged", "count", "lower"),
    ("measures.roof_share", "ratio", "lower"),
    ("measures.dispatch_self_s", "s", "lower"),
    ("measures.closed2q_calls", "count", "lower"),
    ("measures.closed2q_s", "s", "lower"),
    ("measures.pure_s", "s", "lower"),
    ("states.partial_trace_calls", "count", "lower"),
    ("states.partial_trace_s", "s", "lower"),
    ("states.haar_s", "s", "lower"),
    ("states.load_s", "s", "lower"),
    ("bounds.tables", "count", "lower"),
    ("bounds.components_measured", "count", "lower"),
    ("bounds.cache_hit_ratio", "ratio", "higher"),
    ("bounds.report_self_s", "s", "lower"),
    ("bounds.bound_value_self_s", "s", "lower"),
    ("bounds.residual_tree_s", "s", "lower"),
    ("thresholds.find_zero_self_s", "s", "lower"),
    ("thresholds.f_evals", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.out_bytes", "bytes", "lower"),
    ("arith.self_share", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

# counters that must repeat exactly for a fixed seed
WORK_COUNTERS = (
    "measures.roof_calls",
    "measures.lbfgs_runs",
    "measures.objective_evals",
    "measures.lbfgs_iters",
    "bounds.tables",
    "bounds.components_measured",
    "thresholds.f_evals",
)


def tail(values):
    """(value, percentile) of the highest percentile with ten values beyond it.

    With ten values or fewer no percentile qualifies; the maximum is
    returned with percentile 100.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return 0.0, 100.0
    if n <= 10:
        return xs[-1], 100.0
    k = n - 11
    return xs[k], 100.0 * (k + 1) / n


class Tracer:
    """Spans in flat arrays (no per-span objects for the garbage collector to walk)."""

    def __init__(self):
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.items = array("q")
        self.info: dict[int, list] = {}
        self.counts: Counter = Counter()
        self.item = -1
        self._stack: list[int] = []

    def span(self, owner, attr, name, info=None, count=None):
        """Replace owner.attr by a wrapper that records one span per call."""
        fn = getattr(owner, attr)
        names, starts, ends, stack = self.names, self.starts, self.ends, self._stack
        parents, items, counts = self.parents, self.items, self.counts

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            items.append(self.item)
            ends.append(0.0)
            if count:
                counts[count] += 1
            stack.append(idx)
            starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if info is not None:
                self.info[idx] = info(args, kwargs, out)
            return out

        setattr(owner, attr, wrapper)

    def count(self, owner, attr, key):
        """Replace owner.attr by a wrapper that only counts calls."""
        fn = getattr(owner, attr)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        setattr(owner, attr, wrapper)

    def rows(self):
        """(name, start, end, parent, item) per span, in call order."""
        return zip(self.names, self.starts, self.ends, self.parents, self.items)


def _minimize_info(args, kwargs, res):
    return [int(res.nfev), int(res.nit), float(res.fun)]


def _roof_info(args, kwargs, mv):
    return [bool(mv.optimizer_meta.get("converged", True))]


def _find_zero_info(args, kwargs, result):
    if result is None:
        steps = kwargs.get("scan_steps", args[4] if len(args) > 4 else 256)
        return [steps + 1]
    early = result.iterations == 0 and result.bracket[0] == result.bracket[1]
    return [len(result.scan_profile) + result.iterations + (0 if early else 1)]


def install(tracer: Tracer, count_lookups: bool) -> None:
    """Wrap every layer boundary the CLI commands cross."""
    from entshare import bounds, cli, measures, reference, thresholds

    tracer.span(cli, "main", "cli.main")
    tracer.span(cli, "measure_bipartite", "measures.measure_bipartite")
    tracer.span(bounds, "measure_bipartite", "measures.measure_bipartite",
                count="bounds.components_measured")
    tracer.span(measures, "convex_roof", "measures.convex_roof", info=_roof_info)
    tracer.span(measures, "minimize", "measures.minimize", info=_minimize_info)
    tracer.span(measures, "concurrence_pure", "measures.concurrence_pure")
    tracer.span(measures, "wootters_concurrence", "measures.closed2q")
    tracer.span(measures, "assistance_2q", "measures.closed2q")
    for mod in (cli, bounds):
        tracer.span(mod, "partial_trace", "states.partial_trace")
    tracer.span(cli, "haar_random_pure", "states.haar_random_pure")
    tracer.span(cli, "state_from_json", "states.load")
    tracer.span(cli, "make_family", "states.load")
    tracer.count(bounds.ComponentTable, "__init__", "bounds.tables")
    if count_lookups:
        tracer.count(bounds.ComponentTable, "joint", "bounds.joint_lookups")
    for attr in ("evaluate_bounds", "verify_hierarchy", "ordering_classify"):
        tracer.span(bounds, attr, "bounds.report")
    for mod in (bounds, thresholds):
        tracer.span(mod, "bound_value", "bounds.bound_value")
    tracer.span(bounds, "residual_tree", "bounds.residual_tree")
    tracer.span(cli, "residual_zero_exponent", "thresholds.solve")
    tracer.span(cli, "empirical_beta", "thresholds.solve")
    tracer.span(thresholds, "find_zero", "thresholds.find_zero", info=_find_zero_info)
    tracer.span(reference, "figure_rows", "reference.figure_rows")


def layer_metrics(tracer: Tracer, out_bytes: int) -> dict:
    """Per-layer metrics from the spans and counters of one traced pass.

    Self time is a span's duration minus the time its direct children cover.
    Times of leaf layers (roofs, closed forms, partial traces) are totals.
    """
    child = [0.0] * len(tracer.names)
    for name, start, end, parent, _ in tracer.rows():
        if parent >= 0:
            child[parent] += end - start
    calls: Counter = Counter()
    total: defaultdict = defaultdict(float)
    self_s: defaultdict = defaultdict(float)
    roof_durations = []
    roof_funs: defaultdict = defaultdict(list)
    unconverged = nfev = nit = f_evals = 0
    minimize_s = 0.0
    for idx, (name, start, end, parent, _) in enumerate(tracer.rows()):
        dur = end - start
        calls[name] += 1
        total[name] += dur
        self_s[name] += dur - child[idx]
        info = tracer.info.get(idx)
        if name == "measures.convex_roof":
            roof_durations.append(dur)
            unconverged += not info[0]
        elif name == "measures.minimize":
            nfev += info[0]
            nit += info[1]
            roof_funs[parent].append(info[2])
            minimize_s += dur
        elif name == "thresholds.find_zero":
            f_evals += info[0]
    restarts = sum(len(v) for v in roof_funs.values())
    hits = sum(sum(f - min(v) <= RESTART_HIT_TOL for f in v) for v in roof_funs.values())
    item_s = total["cli.main"]
    roof_s = total["measures.convex_roof"]
    arith = sum(v for k, v in self_s.items()
                if k.startswith(("bounds.", "thresholds.")) or k == "cli.main")
    lookups = tracer.counts["bounds.joint_lookups"]
    measured = tracer.counts["bounds.components_measured"]
    return {
        "measures.roof_calls": calls["measures.convex_roof"],
        "measures.lbfgs_runs": calls["measures.minimize"],
        "measures.objective_evals": nfev,
        "measures.lbfgs_iters": nit,
        "measures.roof_s": roof_s,
        "measures.roof_p50_s": statistics.median(roof_durations) if roof_durations else 0.0,
        "measures.roof_tail_s": tail(roof_durations)[0],
        "measures.eval_us": 1e6 * minimize_s / nfev if nfev else 0.0,
        "measures.restart_hit_ratio": hits / restarts if restarts else 0.0,
        "measures.roof_unconverged": unconverged,
        "measures.roof_share": roof_s / item_s if item_s else 0.0,
        "measures.dispatch_self_s": self_s["measures.measure_bipartite"],
        "measures.closed2q_calls": calls["measures.closed2q"],
        "measures.closed2q_s": total["measures.closed2q"],
        "measures.pure_s": total["measures.concurrence_pure"],
        "states.partial_trace_calls": calls["states.partial_trace"],
        "states.partial_trace_s": total["states.partial_trace"],
        "states.haar_s": total["states.haar_random_pure"],
        "states.load_s": total["states.load"],
        "bounds.tables": tracer.counts["bounds.tables"],
        "bounds.components_measured": measured,
        "bounds.cache_hit_ratio": 1.0 - measured / lookups if lookups else 0.0,
        "bounds.report_self_s": self_s["bounds.report"],
        "bounds.bound_value_self_s": self_s["bounds.bound_value"],
        "bounds.residual_tree_s": self_s["bounds.residual_tree"],
        "thresholds.find_zero_self_s": self_s["thresholds.find_zero"],
        "thresholds.f_evals": f_evals,
        "cli.self_s": self_s["cli.main"],
        "cli.out_bytes": out_bytes,
        "arith.self_share": arith / item_s if item_s else 0.0,
    }
