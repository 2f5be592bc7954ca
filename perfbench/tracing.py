"""Span tracer installed around urnsim's layer boundaries from the outside.

Wrappers go on the attribute each caller actually looks up at call time:
class attributes for methods (``CellDistribution.draw_cells``) and module
globals for functions that other urnsim functions resolve at call time
(``urnsim.moments.exact_mean`` inside ``moment_report``).  Nothing here is
imported or installed in an untraced run.

A span is ``[name, start, end, parent, op, counts, nested]``: ``parent`` is
the index of the enclosing span (-1 at top level), ``op`` the id of the
timed op it belongs to (None between ops), ``counts`` the work counters of
that call, and ``nested`` marks a call made inside another call of the same
layer (``tail_power_sum`` recurses), which layer totals skip so that no
interval is counted twice.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

import numpy as np

from urnsim import distributions, moments, simulate

# Counter thresholds: the seed commit's sampler table size, first synthetic
# cell id and dense-count limit.  Fixed here rather than read from urnsim so
# that the counters keep their meaning if those constants change.
_TABLE = 1 << 16
_SYNTHETIC = 1 << 62
_DENSE = 1 << 22


def _law(args, kwargs) -> str:
    return kwargs.get("law", args[4] if len(args) > 4 else "poisson")


def _thresholds(args, kwargs) -> dict:
    x = args[1]
    return {"thresholds": int(np.size(x))}


def _draw_counts(result, args, kwargs) -> dict:
    return {"draws": int(result.size),
            "tail_draws": int(np.count_nonzero(result > _TABLE)),
            "synthetic_ids": int(np.count_nonzero(result >= _SYNTHETIC))}


def _add_counts(args, kwargs) -> dict:
    cells = args[1]
    return {"balls": int(cells.size),
            "sparse_balls": int(np.count_nonzero(cells >= _DENSE))}


def _run_pre(args, kwargs) -> dict:
    return {"family": args[0].family}


def _run_post(result, args, kwargs) -> dict:
    stops = np.unique(np.concatenate([result.positions, result.K]))
    return {"stops": int(stops.size)}


# (owner, attribute, span name or name function, pre-count, post-count)
_POINTS = [
    (distributions.CellDistribution, "draw_cells", "distributions.draw_cells", None, _draw_counts),
    (simulate.OccupancyState, "add_cells", "simulate.add_cells", _add_counts, None),
    (simulate, "run_coupled", "simulate.run_coupled", _run_pre, _run_post),
    (simulate, "poisson_increments", "simulate.poisson_increments", None, None),
    (distributions.CellDistribution, "counting_function", "distributions.counting_function",
     lambda a, k: {"thresholds": 1}, None),
    (distributions.CellDistribution, "counting_function_many", "distributions.counting_function",
     _thresholds, None),
    (distributions.CellDistribution, "tail_power_sum", "distributions.tail_power_sum", None, None),
    (distributions.CellDistribution, "probs_prefix", "distributions.probs_prefix", None, None),
    (distributions, "build_distribution", "distributions.build", None, None),
    (distributions, "smoothed_slowly_varying", "distributions.lstar", None, None),
    (moments, "smoothed_slowly_varying", "distributions.lstar", None, None),
    (moments, "exact_mean", lambda a, k: "moments.exact_mean." + _law(a, k), None, None),
    (moments, "exact_var", "moments.exact_var", None, None),
    (moments, "mean_difference", "moments.mean_difference", None, None),
    (moments, "moment_report", "moments.moment_report", None, None),
]


class Tracer:
    """In-memory span recorder; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self):
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        wrapped: dict[int, object] = {}
        for owner, attr, name, pre, post in _POINTS:
            orig = owner.__dict__[attr]
            # one function bound under two names gets one wrapper
            if id(orig) not in wrapped:
                wrapped[id(orig)] = self._wrap(orig, name, pre, post)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, wrapped[id(orig)])

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def _wrap(self, fn, name, pre, post):
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            counts = pre(args, kwargs) if pre else {}
            rec = [label, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                   counts, active[label] > 0]
            stack.append(len(spans))
            spans.append(rec)
            active[label] += 1
            rec[1] = clock()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                active[label] -= 1
                stack.pop()
            if post:
                counts.update(post(return_value, args, kwargs))
            return return_value

        return wrapper


def _share(part: float, whole: float) -> float:
    return part / whole if whole > 0 else 0.0


def layer_metrics(spans: list[list], op_walls: list[float]) -> dict[str, tuple[float, str]]:
    """Per-layer totals, self times and shares from one traced phase."""
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    calls: Counter = Counter()
    busy: defaultdict = defaultdict(float)
    self_s: defaultdict = defaultdict(float)
    counts: defaultdict = defaultdict(int)
    # per-family run_coupled totals and the draw/add time inside them
    fam_busy: defaultdict = defaultdict(float)
    fam_child: defaultdict = defaultdict(float)
    op_run: defaultdict = defaultdict(float)
    for i, (name, _, _, parent, op, cnt, nested) in enumerate(spans):
        self_s[name] += dur[i] - child[i]
        if nested:
            continue
        calls[name] += 1
        busy[name] += dur[i]
        for key, value in cnt.items():
            if key != "family":
                counts[f"{name}.{key}"] += value
        if name == "simulate.run_coupled":
            fam_busy[cnt["family"]] += dur[i]
            if op is not None:
                op_run[op] += dur[i]
        elif parent >= 0 and spans[parent][0] == "simulate.run_coupled":
            fam_child[(spans[parent][5]["family"], name)] += dur[i]

    out: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    d, a, r = "distributions.draw_cells", "simulate.add_cells", "simulate.run_coupled"
    put(f"{d}.calls", calls[d], "count")
    put(f"{d}.busy_s", busy[d], "s")
    for key in ("draws", "tail_draws", "synthetic_ids"):
        put(f"{d}.{key}", counts[f"{d}.{key}"], "count")
    put(f"{d}.ns_per_draw", 1e9 * _share(busy[d], counts[f"{d}.draws"]), "ns")
    put(f"{a}.calls", calls[a], "count")
    put(f"{a}.busy_s", busy[a], "s")
    for key in ("balls", "sparse_balls"):
        put(f"{a}.{key}", counts[f"{a}.{key}"], "count")
    put(f"{a}.ns_per_ball", 1e9 * _share(busy[a], counts[f"{a}.balls"]), "ns")
    put(f"{r}.calls", calls[r], "count")
    put(f"{r}.self_s", self_s[r], "s")
    put(f"{r}.stops", counts[f"{r}.stops"], "count")
    for fam in ("zipf", "theta_one_log"):
        put(f"{r}.{fam}.busy_s", fam_busy[fam], "s")
        put(f"{r}.{fam}.draw_share", _share(fam_child[(fam, d)], fam_busy[fam]), "frac")
        put(f"{r}.{fam}.add_share", _share(fam_child[(fam, a)], fam_busy[fam]), "frac")
    # the smallest share of any op's wall time spent inside run_coupled
    put(f"{r}.min_op_share",
        min((_share(op_run[i], w) for i, w in enumerate(op_walls)), default=0.0)
        if op_run else 0.0, "frac")
    put("simulate.poisson_increments.busy_s", busy["simulate.poisson_increments"], "s")
    c = "distributions.counting_function"
    put(f"{c}.calls", calls[c], "count")
    put(f"{c}.thresholds", counts[f"{c}.thresholds"], "count")
    put(f"{c}.busy_s", busy[c], "s")
    for name in ("distributions.lstar", "distributions.tail_power_sum",
                 "moments.exact_mean.binomial", "moments.exact_mean.poisson",
                 "moments.exact_var", "moments.mean_difference"):
        put(f"{name}.calls", calls[name], "count")
        put(f"{name}.busy_s", busy[name], "s")
    put("moments.moment_report.self_s", self_s["moments.moment_report"], "s")
    put("distributions.probs_prefix.busy_s", busy["distributions.probs_prefix"], "s")
    put("distributions.build.busy_s", busy["distributions.build"], "s")
    return out
