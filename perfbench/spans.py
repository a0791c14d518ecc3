"""Spans and counters recorded from outside the package.

The tracer rebinds public functions of the grrdecomp modules to
wrappers, in every module namespace that bound them, so a call made
through any import reaches exactly one wrapper. Coarse functions get a
span (name, call site, start, end, parent span, op id); hot predicates
only bump a counter, because a span per call would cost more than the
predicate. Spans stay in memory until the run ends.

Nothing in the benchmark runs concurrently, so no layer ever waits:
every span's time is busy time, and no waiting time is reported.
"""
from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

# home module -> public functions recorded as spans
SPANNED = {
    "cli": ("main",),
    "formats": ("detect_kind", "parse_drawing", "parse_polygon",
                "parse_partition", "parse_decomposition", "serialize_drawing",
                "serialize_polygon", "serialize_triangulated",
                "serialize_partition", "serialize_decomposition"),
    "drawing": ("validate_drawing", "default_root", "root_tree", "subdivide"),
    "analysis": ("conflicting_pairs", "polygon_is_grr", "trace_greedy_path"),
    "treedecomp": ("precompute_path_ic", "validate_partition",
                   "fill_gtd_tables", "min_gtd_exact", "min_gtd_with_splits",
                   "build_multicut_instance", "multicut_to_partition",
                   "approx_gtd_proper"),
    "multicut": ("approx_gvy", "solve_exact_small"),
    "polydecomp": ("build_dual_tree", "conflicting_triangle_pairs",
                   "piece_union_polygon", "decompose_polygon_approx",
                   "decompose_polygon_exact_small"),
}

# home module -> hot public predicates, counted per call
COUNTED = {
    "geometry": ("in_hp", "segment_intersection"),
    "analysis": ("drawing_edges_conflict", "triangles_conflict"),
}


def dp_entries(tables) -> int:
    """Entries in every table the DP filled; a kernel swap must keep it."""
    n = sum(len(v) for v in tables.tau.values())
    n += sum(len(per_span) for sd in tables.sigma_delta.values()
             for per_delta in sd.values() for per_span in per_delta.values())
    n += sum(len(per_span) for sg in tables.sigma.values()
             for per_span in sg.values())
    n += sum(len(sm) for sm in tables.sigma_m.values())
    return n


def _fill(c, args, tables):
    c["treedecomp.dp_entries"] += dp_entries(tables)


def _subdivide(c, args, sd):
    c["drawing.subdivide_edges_out"] += sd.drawing.n_edges


def _multicut(c, args, cut):
    c["multicut.terminal_pairs"] += len(args[0].terminal_pairs)


def _pieces(c, args, dec):
    c["polydecomp.pieces_out"] += dec.size


def _trace(c, args, tr):
    c["analysis.trace_waypoints"] += len(tr.waypoints)
    c["analysis.trace_stuck"] += not tr.reached


# spanned function -> counters read off its arguments and result
ON_RESULT = {
    "treedecomp.fill_gtd_tables": _fill,
    "drawing.subdivide": _subdivide,
    "multicut.approx_gvy": _multicut,
    "multicut.solve_exact_small": _multicut,
    "polydecomp.decompose_polygon_approx": _pieces,
    "polydecomp.decompose_polygon_exact_small": _pieces,
    "analysis.trace_greedy_path": _trace,
}


class Tracer:
    """Install with install(), run ops with .op set, then uninstall()."""

    def __init__(self):
        self.spans: list = []     # (name, site, start, end, parent, op, ok)
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _span(self, fn, name: str, site: str):
        spans, stack, counts = self.spans, self._stack, self.counts
        hook = ON_RESULT.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, site, start, end, parent, tracer.op, ok)
            if hook is not None:
                hook(counts, args, result)
            return result
        return wrapper

    def _count(self, fn, name: str):
        counts = self.counts
        if name == "analysis.drawing_edges_conflict":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                counts[name] += 1
                counts[name + ".hits"] += result is not None
                return result
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        mods = {k[len("grrdecomp."):] if k != "grrdecomp" else k: m
                for k, m in sys.modules.items()
                if k == "grrdecomp" or k.startswith("grrdecomp.")}
        for table, spanned in ((SPANNED, True), (COUNTED, False)):
            for home, names in table.items():
                for fname in names:
                    fn = getattr(mods[home], fname)
                    name = f"{home}.{fname}"
                    for site, mod in mods.items():
                        if vars(mod).get(fname) is fn:
                            w = (self._span(fn, name, site) if spanned
                                 else self._count(fn, name))
                            self._undo.append((mod, fname, fn))
                            setattr(mod, fname, w)
        cls = mods["multicut"].MulticutInstance
        fn = cls.path_edges
        self._undo.append((cls, "path_edges", fn))
        cls.path_edges = self._count(fn, "multicut.path_edges")

    def uninstall(self) -> None:
        for owner, fname, fn in reversed(self._undo):
            setattr(owner, fname, fn)
        self._undo.clear()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, site, start, end, parent, op, ok in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[3] - s[2] - c for s, c in zip(self.spans, child)]


# per-layer metric -> the spans (name, or (name, site)) whose self time it sums
SELF_TIME = {
    "treedecomp.path_ic_s": ("treedecomp.precompute_path_ic",),
    "treedecomp.dp_fill_s": ("treedecomp.fill_gtd_tables",),
    "treedecomp.reconstruct_s": ("treedecomp.min_gtd_exact",),
    "treedecomp.validate_partition_s": ("treedecomp.validate_partition",),
    "treedecomp.multicut_build_s": ("treedecomp.build_multicut_instance",),
    "treedecomp.other_s": ("treedecomp.min_gtd_with_splits",
                           "treedecomp.approx_gtd_proper",
                           "treedecomp.multicut_to_partition"),
    "analysis.conflicting_pairs_s": ("analysis.conflicting_pairs",),
    "analysis.polygon_check_s": (("analysis.polygon_is_grr", "cli"),),
    "analysis.trace_s": ("analysis.trace_greedy_path",),
    "drawing.validate_s": ("drawing.validate_drawing",),
    "drawing.root_tree_s": ("drawing.root_tree", "drawing.default_root"),
    "drawing.subdivide_s": ("drawing.subdivide",),
    "multicut.approx_gvy_s": ("multicut.approx_gvy",),
    "multicut.exact_small_s": ("multicut.solve_exact_small",),
    "polydecomp.dual_tree_s": ("polydecomp.build_dual_tree",),
    "polydecomp.triangle_conflicts_s":
        ("polydecomp.conflicting_triangle_pairs",),
    "polydecomp.certify_s": (("analysis.polygon_is_grr", "polydecomp"),
                             "polydecomp.piece_union_polygon"),
    "polydecomp.other_s": ("polydecomp.decompose_polygon_approx",
                           "polydecomp.decompose_polygon_exact_small"),
    "formats.parse_s": tuple(f"formats.{n}" for n in SPANNED["formats"]
                             if not n.startswith("serialize")),
    "formats.serialize_s": tuple(f"formats.{n}" for n in SPANNED["formats"]
                                 if n.startswith("serialize")),
    "cli.self_s": ("cli.main",),
}

# per-layer metric -> counter it reports
COUNTS = {
    "geometry.halfplane_tests": "geometry.in_hp",
    "geometry.segment_intersection_calls": "geometry.segment_intersection",
    "treedecomp.dp_entries": "treedecomp.dp_entries",
    "analysis.edge_conflict_tests": "analysis.drawing_edges_conflict",
    "analysis.triangle_conflict_tests": "analysis.triangles_conflict",
    "analysis.trace_waypoints": "analysis.trace_waypoints",
    "analysis.trace_stuck": "analysis.trace_stuck",
    "drawing.subdivide_edges_out": "drawing.subdivide_edges_out",
    "multicut.path_walks": "multicut.path_edges",
    "multicut.terminal_pairs": "multicut.terminal_pairs",
    "polydecomp.pieces_out": "polydecomp.pieces_out",
}


def layer_metrics(tracer: Tracer, op_seconds: list[float],
                  plain_seconds: list[float]) -> dict:
    """Every per-layer metric as {name: (value, unit)}. op_seconds are
    the traced calls' times, plain_seconds those of the same ops called
    untraced."""
    selfs = tracer.self_times()
    by_key: Counter = Counter()
    for span, st in zip(tracer.spans, selfs):
        by_key[span[0]] += st
        by_key[(span[0], span[1])] += st
    out = {}
    for metric, keys in SELF_TIME.items():
        out[metric] = (float(sum(by_key[k] for k in keys)), "s")
    for metric, counter in COUNTS.items():
        out[metric] = (tracer.counts[counter], "count")
    tests = tracer.counts["analysis.drawing_edges_conflict"]
    hits = tracer.counts["analysis.drawing_edges_conflict.hits"]
    out["analysis.edge_conflict_hit_ratio"] = (
        hits / tests if tests else 0.0, "ratio")
    # failures counted where they left the layer: the outermost failing
    # treedecomp span of each op
    names = [s[0] for s in tracer.spans]
    out["treedecomp.failed"] = (sum(
        1 for name, site, start, end, parent, op, ok in tracer.spans
        if not ok and name.startswith("treedecomp.")
        and not (parent >= 0 and names[parent].startswith("treedecomp."))),
        "count")
    out["trace.op_s_sum"] = (sum(op_seconds), "s")
    out["trace.overhead"] = (sum(op_seconds) / sum(plain_seconds) - 1,
                             "ratio")
    out["trace.spans"] = (len(tracer.spans), "count")
    return out
