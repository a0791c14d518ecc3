"""Brute-force reference solvers and seeded random instance generators.

Everything here is deliberately independent of the dynamic program and
the multicut pipeline: exhaustive enumeration plus direct definition
checks. Slow, small, and trusted.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .analysis import (
    drawing_edges_conflict,
    trace_greedy_path,
    tree_increasing_chord,
    triangles_conflict,
)
from .drawing import Drawing, clockwise_order, validate_drawing
from .errors import (
    BudgetExceededError,
    GRRError,
    InputError,
    NotATreeError,
)
from .geometry import (
    LatticePoint,
    Point,
    Polygon,
    Segment,
    _improper_pair,
    frac,
    orientation,
    point_in_polygon,
    segment_intersection,
    sq_dist,
)
from .multicut import MulticutInstance
from .polydecomp import TriangulatedPolygon, build_dual_tree
from .treedecomp import CONTACT_MODES, Partition

ORACLE_EDGE_BUDGET = 10
_SEED_WINDOW = 6  # random polygons start from a triangle in [-6, 6]^2


# -- exhaustive tree decompositions ---------------------------------------------

def _preorder_edges(d: Drawing) -> list[int]:
    start = min(d.vertex_ids)
    order: list[int] = []
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for eidx in d.adjacency[v]:
            w = d.other_endpoint(eidx, v)
            if w not in seen:
                seen.add(w)
                order.append(eidx)
                stack.append(w)
    return order


def _contact_flags(d: Drawing, parts: list[list[int]]) -> tuple[bool, bool]:
    """(proper_ok, noncrossing_ok) for a completed partition."""
    owner: dict[int, int] = {}
    for ci, part in enumerate(parts):
        for e in part:
            owner[e] = ci
    at_vertex: dict[int, dict[int, int]] = {}
    for e, ci in owner.items():
        for v in d.edges[e]:
            at_vertex.setdefault(v, {})[ci] = (
                at_vertex.get(v, {}).get(ci, 0) + 1)
    proper_ok = True
    noncrossing_ok = True
    for v, degs in at_vertex.items():
        if len(degs) < 2:
            continue
        heavy = [ci for ci, k in degs.items() if k >= 2]
        if len(heavy) > 1:
            proper_ok = False
        if noncrossing_ok and len(heavy) >= 2:
            owners = [owner[e] for e in clockwise_order(d, v)]
            for c1, c2 in combinations(sorted(heavy), 2):
                seq = [o for o in owners if o in (c1, c2)]
                flips = sum(1 for k in range(len(seq))
                            if seq[k] != seq[(k + 1) % len(seq)])
                if flips > 2:
                    noncrossing_ok = False
                    break
    return proper_ok, noncrossing_ok


def brute_force_all_modes(d: Drawing) -> dict[str, tuple[int, Partition]]:
    """Exhaustive minimum decomposition sizes for all three contact modes.

    Enumerates every partition of the edges into connected subtrees,
    pruning branches that already conflict, and classifies each
    completed partition by its contact structure.
    """
    m = d.n_edges
    if m > ORACLE_EDGE_BUDGET:
        raise BudgetExceededError(f"{m} edges exceed the oracle budget")
    if m != d.n_vertices - 1:
        raise NotATreeError("drawing is not a tree")
    order = _preorder_edges(d)
    if len(order) != m:
        raise NotATreeError("drawing is not connected")

    conflict = [[False] * m for _ in range(m)]
    adjacent = [[False] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            conflict[i][j] = (drawing_edges_conflict(d, i, j) is not None
                              or drawing_edges_conflict(d, j, i) is not None)
            adjacent[i][j] = bool(set(d.edges[i]) & set(d.edges[j]))

    best: dict[str, tuple[int, tuple[frozenset, ...]]] = {}
    groups: list[list[int]] = []

    def cap() -> int:
        if len(best) < 3:
            return m + 1
        return max(v[0] for v in best.values())

    def evaluate() -> None:
        parts = [list(g) for g in groups]
        for g in parts:
            if not tree_increasing_chord(d, g):
                return
        proper_ok, noncrossing_ok = _contact_flags(d, parts)
        k = len(parts)
        frozen = tuple(sorted((frozenset(g) for g in parts), key=min))
        for mode, ok in (("any", True), ("noncrossing", noncrossing_ok),
                         ("proper", proper_ok)):
            cur = best.get(mode)
            if ok and (cur is None or k < cur[0]):
                best[mode] = (k, frozen)

    def rec(idx: int) -> None:
        if idx == len(order):
            evaluate()
            return
        e = order[idx]
        for g in groups:
            if not any(adjacent[e][x] for x in g):
                continue
            if any(conflict[e][x] for x in g):
                continue
            g.append(e)
            rec(idx + 1)
            g.pop()
        if len(groups) + 1 < cap():
            groups.append([e])
            rec(idx + 1)
            groups.pop()

    rec(0)
    return {mode: (k, Partition(components=parts, contact_mode=mode))
            for mode, (k, parts) in sorted(best.items())}


def brute_force_min_gtd(d: Drawing, mode: str) -> tuple[int, Partition]:
    if mode not in CONTACT_MODES:
        raise ValueError(f"unknown contact mode {mode!r}")
    return brute_force_all_modes(d)[mode]


# -- chord-length oracle ----------------------------------------------------------

def _point_segment_sq_dist(p: Point, a: Point, b: Point) -> Fraction:
    dx = b.x - a.x
    dy = b.y - a.y
    length2 = dx * dx + dy * dy
    if length2 == 0:
        return sq_dist(p, a)
    t = ((p.x - a.x) * dx + (p.y - a.y) * dy) / length2
    if t <= 0:
        return sq_dist(p, a)
    if t >= 1:
        return sq_dist(p, b)
    fx = a.x + t * dx
    fy = a.y + t * dy
    return (p.x - fx) ** 2 + (p.y - fy) ** 2


def _segments_sq_dist(a: Point, b: Point, c: Point, d: Point) -> Fraction:
    if segment_intersection(Segment(a, b), Segment(c, d)) is not None:
        return Fraction(0)
    return min(
        _point_segment_sq_dist(a, c, d),
        _point_segment_sq_dist(b, c, d),
        _point_segment_sq_dist(c, a, b),
        _point_segment_sq_dist(d, a, b),
    )


def chord_property_oracle(points) -> bool:
    """Is every chord of the polyline no shorter than the chords it spans?

    Direct check against the definition; the independent reference for the
    halfplane-based predicate.  The widest chord inside any window is
    attained at a vertex pair (squared distance is convex on every segment
    pair), so it suffices to compare each vertex chord against the exact
    distance between the curve before it and the curve after it.  That
    outer distance can be realised inside an edge, hence the projection
    handling instead of a vertex-only table.
    """
    pts = [p for p in points]
    n = len(pts)
    if n < 2:
        raise InputError("need at least two points")
    for i in range(n):
        for j in range(i + 1, n):
            chord = sq_dist(pts[i], pts[j])
            if i == 0 and j == n - 1:
                continue
            if i == 0:
                outer = min(
                    _point_segment_sq_dist(pts[0], pts[s], pts[s + 1])
                    for s in range(j, n - 1)
                )
            elif j == n - 1:
                outer = min(
                    _point_segment_sq_dist(pts[n - 1], pts[p], pts[p + 1])
                    for p in range(i)
                )
            else:
                outer = min(
                    _segments_sq_dist(pts[p], pts[p + 1], pts[s], pts[s + 1])
                    for p in range(i)
                    for s in range(j, n - 1)
                )
            if outer < chord:
                return False
    return True


# -- seeded random instances ------------------------------------------------------

def random_tree_drawing(rng: random.Random, n_edges: int) -> Drawing:
    """A random plane straight-line tree drawing on an integer grid."""
    if n_edges < 1:
        raise InputError("need at least one edge")
    span = max(8, 2 * n_edges)

    def grid_point() -> LatticePoint:
        return LatticePoint(rng.randint(-span, span), rng.randint(-span, span))

    for _ in range(200):
        pts = [grid_point()]
        parents: list[int] = []
        segs: list[tuple[LatticePoint, LatticePoint]] = []
        ok = True
        for v in range(1, n_edges + 1):
            placed = False
            for _ in range(300):
                par = rng.randint(0, v - 1)
                p, q = pts[par], grid_point()
                if q in pts:
                    continue
                # every placed point is an endpoint of a placed edge, so
                # a point lying on the new edge is an improper contact
                if not any(_improper_pair(a, b, p, q) for a, b in segs):
                    pts.append(q)
                    parents.append(par)
                    segs.append((p, q))
                    placed = True
                    break
            if not placed:
                ok = False
                break
        if ok:
            return validate_drawing(
                [(i, Point(x, y)) for i, (x, y) in enumerate(pts)],
                [(parents[v - 1], v) for v in range(1, n_edges + 1)])
    raise GRRError("could not sample a valid tree drawing")


def random_connected_subtree(d: Drawing, rng: random.Random) -> frozenset[int]:
    """A uniformly seeded connected edge subset of a tree drawing."""
    m = d.n_edges
    start = rng.randrange(m)
    target = rng.randint(1, m)
    chosen = {start}
    while len(chosen) < target:
        frontier = sorted(
            eidx
            for e in chosen
            for v in d.edges[e]
            for eidx in d.adjacency[v]
            if eidx not in chosen)
        if not frontier:
            break
        chosen.add(frontier[rng.randrange(len(frontier))])
    return frozenset(chosen)


def random_triangulated_polygon(rng: random.Random, n_triangles: int
                                ) -> TriangulatedPolygon:
    """Grow a random triangulated simple polygon by gluing ear triangles.

    Every candidate glue is validated by rebuilding the full
    triangulation, so the result always satisfies the constructor
    invariants.
    """
    if n_triangles < 1:
        raise InputError("need at least one triangle")
    for _ in range(400):
        while True:
            seed_pts = [Point(frac(rng.randint(-_SEED_WINDOW, _SEED_WINDOW)),
                              frac(rng.randint(-_SEED_WINDOW, _SEED_WINDOW)))
                        for _ in range(3)]
            if orientation(*seed_pts) != 0:
                break
        if orientation(*seed_pts) < 0:
            seed_pts.reverse()
        pts: list[Point] = seed_pts
        diags: list[tuple[int, int]] = []
        ok = True
        for _ in range(n_triangles - 1):
            placed = False
            for _ in range(250):
                n = len(pts)
                k = rng.randrange(n)
                iu, iv = k, (k + 1) % n
                lo_x = math.floor(min(p.x for p in pts)) - 3
                hi_x = math.ceil(max(p.x for p in pts)) + 3
                lo_y = math.floor(min(p.y for p in pts)) - 3
                hi_y = math.ceil(max(p.y for p in pts)) + 3
                w = Point(frac(rng.randint(lo_x, hi_x)),
                          frac(rng.randint(lo_y, hi_y)))
                if w in pts:
                    continue
                new_pts = pts[:k + 1] + [w] + pts[k + 1:]
                shift = [(a + (a > k), b + (b > k)) for a, b in diags]
                nu = iu if iu <= k else iu + 1
                nv = iv if iv <= k else iv + 1
                cand = shift + [(min(nu, nv), max(nu, nv))]
                try:
                    build_dual_tree(Polygon(new_pts), cand)
                except InputError:
                    continue
                pts = new_pts
                diags = cand
                placed = True
                break
            if not placed:
                ok = False
                break
        if ok:
            return build_dual_tree(Polygon(pts), diags)
    raise GRRError("could not sample a triangulated polygon")


def random_multicut_instance(rng: random.Random, max_edges: int = 20,
                             max_pairs: int = 10) -> MulticutInstance:
    n_edges = rng.randint(3, max_edges)
    edges = [(rng.randint(0, v - 1), v) for v in range(1, n_edges + 1)]
    wanted = rng.randint(1, max_pairs)
    pairs: list[tuple[int, int]] = []
    seen: set[frozenset] = set()
    for _ in range(wanted * 5):
        if len(pairs) == wanted:
            break
        s = rng.randint(0, n_edges)
        t = rng.randint(0, n_edges)
        if s == t or frozenset((s, t)) in seen:
            continue
        seen.add(frozenset((s, t)))
        pairs.append((s, t))
    if not pairs:
        pairs = [(0, n_edges)]
    weights = None
    if rng.random() < 0.5:
        weights = [Fraction(rng.randint(1, 4)) for _ in edges]
    return MulticutInstance(edges, pairs, weights)


# -- polygon oracle ---------------------------------------------------------------

def brute_force_min_polygon(tp: TriangulatedPolygon) -> int:
    """Minimum piece count over every subset of dual-tree cuts."""
    nt = tp.n_triangles
    if nt > 14:
        raise BudgetExceededError(f"{nt} triangles exceed the oracle budget")
    conf = [(i, j) for i in range(nt) for j in range(i + 1, nt)
            if triangles_conflict(tp, i, j)]
    dual = list(tp.dual_edges)
    for size in range(len(dual) + 1):
        for cut in combinations(range(len(dual)), size):
            removed = set(cut)
            comp = list(range(nt))

            def find(x: int) -> int:
                while comp[x] != x:
                    comp[x] = comp[comp[x]]
                    x = comp[x]
                return x

            for idx, (ti, tj) in enumerate(dual):
                if idx not in removed:
                    comp[find(ti)] = find(tj)
            if all(find(i) != find(j) for i, j in conf):
                return size + 1
    raise GRRError("unreachable: the all-cut decomposition is always valid")


# -- sampled routing probe ----------------------------------------------------------

@dataclass(frozen=True)
class ProbeReport:
    n_pairs: int
    successes: int
    failures: tuple
    monotone_ok: bool

    @property
    def success_rate(self) -> Fraction:
        if self.n_pairs == 0:
            return Fraction(1)
        return Fraction(self.successes, self.n_pairs)


def sampled_grr_probe(poly: Polygon, n_pairs: int, seed: int,
                      extra_pairs=()) -> ProbeReport:
    """Trace seeded random interior point pairs and score the outcomes.

    Any extra pairs are traced first; monotone_ok reports whether every
    waypoint strictly reduced the exact squared distance to the target.
    """
    rng = random.Random(seed)
    denom = 8
    lo_x = math.floor(min(p.x for p in poly.points)) * denom
    hi_x = math.ceil(max(p.x for p in poly.points)) * denom
    lo_y = math.floor(min(p.y for p in poly.points)) * denom
    hi_y = math.ceil(max(p.y for p in poly.points)) * denom

    def sample_inside() -> Point:
        for _ in range(20000):
            p = Point(Fraction(rng.randint(lo_x, hi_x), denom),
                      Fraction(rng.randint(lo_y, hi_y), denom))
            if point_in_polygon(poly, p) == "inside":
                return p
        raise GRRError("could not sample an interior point")

    pairs: list[tuple[Point, Point]] = [(s, t) for s, t in extra_pairs]
    while len(pairs) < n_pairs:
        s = sample_inside()
        t = sample_inside()
        if s != t:
            pairs.append((s, t))
    pairs = pairs[:n_pairs]

    successes = 0
    failures = []
    monotone_ok = True
    for s, t in pairs:
        tr = trace_greedy_path(poly, s, t)
        cur = sq_dist(tr.waypoints[0], t)
        for w in tr.waypoints[1:]:
            nxt = sq_dist(w, t)
            if nxt >= cur:
                monotone_ok = False
            cur = nxt
        if tr.reached:
            successes += 1
        elif len(failures) < 20:
            failures.append((s, t, tr.failure_at))
    return ProbeReport(n_pairs=len(pairs), successes=successes,
                       failures=tuple(failures), monotone_ok=monotone_ok)
