"""Conflict detection, the increasing-chord predicates built on it, and
greedy path tracing inside simple polygons.

An edge e conflicts with an edge f when some normal line (for drawings)
or outward normal ray (for polygon boundaries) erected at an interior
point of e meets f. Conflicts are exactly what destroys greedy
routability, so everything in this package reduces to them.

Every scan over a whole edge set reads slab_hits, one integer slab row
per edge; drawing_edges_conflict and polygon_edges_conflict decide one
ordered pair. triangle_strip_hits scans the triangle pairs of a
triangulation with one strip_codes row per strip and side, and
triangles_conflict decides one pair with the same strip test. Every
decision is made on integers; a predicate that reports a conflict gives
its ConflictWitness, clipped on Fractions once the conflict is found.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .drawing import Drawing, clockwise_order, components, validate_drawing
from .errors import (
    DegeneratePathError,
    GRRError,
    InputError,
    InvalidPathFamilyError,
    PointOutsidePolygonError,
    SameTriangleError,
    UnknownEdgeError,
    UnknownTriangleError,
)
from .geometry import (
    Point,
    Polygon,
    Segment,
    dot,
    hp,
    in_hp,
    on_segment,
    point_in_polygon,
    point_key,
    segment_intersection,
    slab_projections,
    slab_row,
    strip_codes,
    strip_frame,
    strip_meets_open_triangle,
    strip_reaches,
)


@dataclass(frozen=True)
class ConflictWitness:
    """Certificate that edge e conflicts with edge f.

    p is the foot on e, hit the struck point of f; the segment p-hit is
    perpendicular to e, p is strictly interior to e, and no point of e
    inside the slab is closer to hit than p is. The predicates build it
    on a hit, before they return.
    """
    e: int
    f: int
    p: Point
    hit: Point


def _misses_slab(s0, s1, dd) -> bool:
    """Does f stay outside the open slab of e, given slab_projections of
    f onto e, on Points or LatticePoints, or e's slab_row at f's ends?

    Without an outward cut this is exactly when _slab_witness finds no
    witness: the projections sweep [min(s0, s1), max(s0, s1)], which
    meets (0, dd) in an interval of positive length iff s0 and s1 are
    not both <= 0 and not both >= dd.
    """
    return (s0 <= 0 and s1 <= 0) or (s0 >= dd and s1 >= dd)


def _clip(ea: Point, eb: Point, seg: Segment, proj,
          outward: Optional[Point]) -> Optional[tuple[Point, Point]]:
    """(foot, hit) for a seg that meets the open slab of edge ea-eb, or
    None when outward cuts the whole crossing away.

    proj is (s0, s1, dd) from slab_projections or a slab row, on any one
    scale: the slab roots, which are the cuts subdivide makes in seg,
    and the foot's parameter on e are ratios of them. The clip spans
    [0, 1] between the roots, narrowed by the root of the open outward
    halfplane when outward is given; it is feasible iff lo < hi, and
    hit is its midpoint.
    """
    s0, s1, dd = proj
    lo, hi = Fraction(0), Fraction(1)
    if s0 != s1:
        r0, r1 = Fraction(s0, s0 - s1), Fraction(s0 - dd, s0 - s1)
        lo, hi = max(lo, min(r0, r1)), min(hi, max(r0, r1))
    if outward is not None:
        a = dot(seg.direction(), outward)
        b = dot(seg.a - ea, outward)
        if a > 0:
            lo = max(lo, -b / a)
        elif a < 0:
            hi = min(hi, -b / a)
        elif b <= 0:
            return None
    if lo >= hi:
        return None
    mid = (lo + hi) / 2
    return ea + (eb - ea) * ((s0 + (s1 - s0) * mid) / dd), seg.at(mid)


def _slab_witness(ea: Point, eb: Point, seg: Segment,
                  outward: Optional[Point]) -> Optional[tuple[Point, Point]]:
    """_clip on the Fraction points of e and seg, or None when seg misses
    the open slab of ea-eb."""
    proj = slab_projections(ea, eb, seg.a, seg.b)
    return None if _misses_slab(*proj) else _clip(ea, eb, seg, proj, outward)


def _outward_open(ea, eb, fa, fb, proj) -> bool:
    """Is _clip(ea, eb, seg, proj, outward) not None, for seg = fa-fb and
    e's outward normal, decided on the LatticePoints of e and f?

    The clip's lower bounds are 0, the smaller slab root and, for a > 0,
    the outward root -b/a; its upper bounds are 1, the larger slab root
    and, for a < 0, the outward root. Written as ratios over positive
    denominators, the clip is open iff every lower bound is below every
    upper bound, which cross-multiplication decides on integers.
    """
    s0, s1, dd = proj
    dx, dy = eb[0] - ea[0], eb[1] - ea[1]
    a = (fb[0] - fa[0]) * dy - (fb[1] - fa[1]) * dx
    b = (fa[0] - ea[0]) * dy - (fa[1] - ea[1]) * dx
    den = s0 - s1
    # the slab roots as lo/den < hi/den; an f along e's normals has none
    if den > 0:
        lo, hi = s0 - dd, s0
    elif den < 0:
        lo, hi, den = -s0, dd - s0, -den
    else:
        lo, hi, den = 0, 1, 1
    if lo >= den or hi <= 0:
        return False
    if a > 0:
        return -b < a and -b * den < hi * a
    if a < 0:
        return b > 0 and -lo * a < b * den
    return b > 0


def slab_hits(lat, ends, ids):
    """(e, f, proj) for the ordered pairs of distinct edges e, f of ids,
    row by row in the order of ids, where f meets the open slab of e.

    lat maps vertex keys to LatticePoints, ends[e] holds edge e's two
    keys, and ids iterates over edge indices. Each e reads one
    geometry.slab_row over the vertices of ids only; proj is f's slab
    projections (s0, s1, dd) onto e, read from it.
    """
    own = [(e, ends[e]) for e in ids]
    sub = {k: lat[k] for _, uv in own for k in uv}
    for e, (u, v) in own:
        row, dd = slab_row(sub, u, v)
        for f, (a, b) in own:
            if f != e and not _misses_slab(row[a], row[b], dd):
                yield e, f, (row[a], row[b], dd)


def drawing_edges_conflict(d: Drawing, e: int, f: int) -> Optional[ConflictWitness]:
    """Does a normal line at an interior point of edge e meet edge f?

    Edges that miss the open slab are rejected on the drawing's integer
    lattice; a hit's witness is clipped on the Fraction points.
    """
    m = d.n_edges
    for idx in (e, f):
        # type, not isinstance: a bool is no index
        if type(idx) is not int or not 0 <= idx < m:
            raise UnknownEdgeError(f"edge index {idx!r} out of range")
    if e == f:
        raise ValueError("conflict test needs two distinct edges")
    lat, (u, v), (a, b) = d.lattice, d.edges[e], d.edges[f]
    if _misses_slab(*slab_projections(lat[u], lat[v], lat[a], lat[b])):
        return None
    se = d.segment(e)
    return ConflictWitness(e, f, *_slab_witness(se.a, se.b, d.segment(f), None))


def conflicting_pairs(d: Drawing) -> tuple[tuple[int, int], ...]:
    """Unordered edge pairs that conflict in at least one direction, in
    order, read from slab_hits."""
    return tuple(sorted({(e, f) if e < f else (f, e) for e, f, _ in
                         slab_hits(d.lattice, d.edges, range(d.n_edges))}))


def _outward_witness(poly: Polygon, e: int, f: int, proj) -> ConflictWitness:
    """The witness that boundary edge e's outward normal rays strike f,
    for a pair that _outward_open accepts with projections proj, clipped
    on the Fraction points."""
    se = poly.edge(e)
    dirv = se.direction()
    outward = Point(dirv.y, -dirv.x)  # right of a ccw boundary edge
    return ConflictWitness(e, f, *_clip(se.a, se.b, poly.edge(f), proj,
                                        outward))


def polygon_edges_conflict(poly: Polygon, e: int, f: int
                           ) -> Optional[ConflictWitness]:
    """Does an outward normal ray at an interior point of boundary edge e
    meet boundary edge f?

    The slab test and the outward clip are decided on the polygon's
    integer lattice; a hit's witness is clipped on the Fraction points.
    """
    for idx in (e, f):
        if type(idx) is not int or not 0 <= idx < poly.n:
            raise UnknownEdgeError(f"boundary edge index {idx!r} out of range")
    if e == f:
        raise ValueError("conflict test needs two distinct edges")
    lat, n = poly.lattice, poly.n
    ea, eb, fa, fb = lat[e], lat[(e + 1) % n], lat[f], lat[(f + 1) % n]
    proj = slab_projections(ea, eb, fa, fb)
    if _misses_slab(*proj) or not _outward_open(ea, eb, fa, fb, proj):
        return None
    return _outward_witness(poly, e, f, proj)


def _polygon_hits(poly: Polygon):
    """(e, f, proj) for the conflicting ordered boundary edge pairs, row
    by row: each slab hit goes straight to the integer outward clip."""
    lat, n = poly.lattice, poly.n
    ends = [(i, (i + 1) % n) for i in range(n)]
    for e, f, proj in slab_hits(lat, ends, range(n)):
        if _outward_open(lat[e], lat[(e + 1) % n], lat[f], lat[(f + 1) % n],
                         proj):
            yield e, f, proj


def polygon_is_grr(poly: Polygon) -> Optional[ConflictWitness]:
    """None when the polygon is greedily routable, else the first witness
    in boundary-index order."""
    hit = next(_polygon_hits(poly), None)
    return None if hit is None else _outward_witness(poly, *hit)


def polygon_conflicting_edge_pairs(poly: Polygon) -> tuple[tuple[int, int], ...]:
    """Unordered boundary edge pairs that conflict in some direction,
    decided on the lattice alone."""
    return tuple(sorted({(e, f) if e < f else (f, e)
                         for e, f, _ in _polygon_hits(poly)}))


def _dual_step_toward(tp, i: int, j: int) -> int:
    """First triangle after i on the unique dual-tree path to j: the
    child of i whose subtree run holds j, else i's parent."""
    start, size, up = tp.start, tp.size, tp.parent[i]
    for y in tp.dual_adjacency[i]:
        if y != up and start[y] <= start[j] < start[y] + size[y]:
            return y
    return up


def _strips_reach(tp, i: int, j: int) -> bool:
    # strips leave tau_i through its two edges that are not the diagonal
    # crossed by the dual path toward tau_j; lattice signs decide them
    nxt = tp.triangles[_dual_step_toward(tp, i, j)]
    p, q, r = tp.triangles[i]
    a, b, c = ((q, r, p) if p not in nxt else (r, p, q) if q not in nxt
               else (p, q, r))
    lat = tp.polygon.lattice
    pa, pb, pc = lat[a], lat[b], lat[c]
    t0, t1, t2 = (lat[v] for v in tp.triangles[j])
    return (strip_meets_open_triangle(pb, pc, pa, t0, t1, t2)
            or strip_meets_open_triangle(pa, pc, pb, t0, t1, t2))


def triangles_conflict(tp, i: int, j: int) -> bool:
    """Do triangles i and j of a triangulated polygon conflict?

    The strips swept from the far edges of either triangle, away from
    the diagonal it shows to the other one, must cover an interior
    point of that other triangle. Symmetric by construction.
    """
    nt = len(tp.triangles)
    for k in (i, j):
        if type(k) is not int or not 0 <= k < nt:
            raise UnknownTriangleError(f"no triangle {k!r}")
    if i == j:
        raise SameTriangleError("a triangle does not conflict with itself")
    return _strips_reach(tp, i, j) or _strips_reach(tp, j, i)


def triangle_strip_hits(tp):
    """(i, j) for the ordered triangle pairs where a strip of i reaches
    j, skipping (j, i) once (i, j) is yielded: triangles_conflict(tp, i,
    j) holds iff the scan yields (i, j) or (j, i).

    Each side (i, nb) of the dual tree fixes i's two strips, swept from
    its edges other than the diagonal u-v shared with nb. Each strip's
    frame is built once, and one strip_codes row covers the vertices of
    nb's branch, the dual subtree on nb's side of i, which are the
    boundary run from u to v that misses i's apex. Each triangle of the
    branch reads its three entries in strip_reaches.
    """
    tris, lat, parent = tp.triangles, tp.polygon.lattice, tp.parent
    pre, start, size = tp.preorder, tp.start, tp.size
    n = len(lat)
    reached = [set() for _ in tris]  # the i < j whose strips reach j
    codes = [0] * n
    for i, tri in enumerate(tris):
        known = reached[i]
        for nb in tp.dual_adjacency[i]:
            if nb == parent[i]:
                branch = pre[:start[i]] + pre[start[i] + size[i]:]
            else:
                branch = pre[start[nb]:start[nb] + size[nb]]
            if known:
                branch = [j for j in branch if j not in known]
            u, v = tp.diagonal_of(i, nb)
            c = next(k for k in tri if k != u and k != v)
            runs = ((v, n), (0, u + 1)) if u < c < v else ((u, v + 1),)
            for a, b in ((u, v), (v, u)):
                if not branch:
                    break
                frame = strip_frame(lat[a], lat[c], lat[b])
                for lo, hi in runs:
                    codes[lo:hi] = strip_codes(frame, lat[lo:hi])
                hits = strip_reaches(frame, codes, lat, tris, branch)
                for j in hits:
                    yield i, j
                    if j > i:
                        reached[j].add(i)
                if hits:
                    hits = set(hits)
                    branch = [j for j in branch if j not in hits]


# -- increasing-chord predicates ----------------------------------------------

def _check_polyline(points: Sequence[Point]) -> tuple[Point, ...]:
    pts = tuple(points)
    if len(pts) < 2:
        raise DegeneratePathError("polyline needs at least two points")
    for a, b in zip(pts, pts[1:]):
        if a == b:
            raise DegeneratePathError("polyline repeats consecutive points")
    return pts


def _self_approaching(pts: Sequence[Point]) -> bool:
    # distance to every later point is non-increasing along each segment,
    # which reduces to: later vertices lie in hp(prev, cur) for every edge
    n = len(pts)
    for i in range(1, n):
        h = hp(pts[i - 1], pts[i])
        for j in range(i + 1, n):
            if not in_hp(h, pts[j]):
                return False
    return True


def path_increasing_chord(points: Sequence[Point]) -> bool:
    """Is the polyline self-approaching in both directions?"""
    pts = _check_polyline(points)
    return _self_approaching(pts) and _self_approaching(pts[::-1])


def tree_increasing_chord(d: Drawing, edge_subset) -> bool:
    """Is the sub-drawing an increasing-chord tree?

    True iff the subset is connected, acyclic, and free of conflicting
    ordered edge pairs.
    """
    subset = set(edge_subset)
    if not subset:
        raise ValueError("edge subset must be nonempty")
    for idx in subset:  # before sorting: ids of mixed types do not sort
        if type(idx) is not int:
            raise UnknownEdgeError(f"edge index {idx!r} out of range")
    subset = sorted(subset)
    for idx in subset:
        if not 0 <= idx < d.n_edges:
            raise UnknownEdgeError(f"edge index {idx} out of range")
    verts = set()
    for idx in subset:
        verts.update(d.edges[idx])
    if len(subset) != len(verts) - 1:
        return False
    sset = set(subset)
    if len(components(verts, lambda v: [
            d.other_endpoint(idx, v) for idx in d.adjacency[v]
            if idx in sset])) != 1:
        return False
    return next(slab_hits(d.lattice, d.edges, subset), None) is None


# -- path families around a shared origin --------------------------------------

def _union_paths(paths: Sequence[Sequence[Point]]
                 ) -> tuple[Drawing, dict[tuple, int]]:
    """Union polylines from a common origin into a validated tree drawing,
    with the vertex id of each point, keyed by point_key. The origin is
    vertex 0."""
    cleaned = []
    for path in paths:
        try:
            cleaned.append(_check_polyline(path))
        except DegeneratePathError as exc:
            raise InvalidPathFamilyError(str(exc)) from exc
    origin = cleaned[0][0]
    if any(p[0] != origin for p in cleaned):
        raise InvalidPathFamilyError("paths do not share an origin")
    ids: dict[tuple, int] = {}
    points: list[Point] = []
    for path in cleaned:
        for q in path:
            key = point_key(q)
            if key not in ids:
                ids[key] = len(points)
                points.append(q)
    edges = []
    seen = set()
    for path in cleaned:
        vids = [ids[point_key(q)] for q in path]
        for a, b in zip(vids, vids[1:]):
            key = frozenset((a, b))
            if key not in seen:
                seen.add(key)
                edges.append((a, b))
    try:
        d = validate_drawing(enumerate(points), edges)
    except InputError as exc:
        raise InvalidPathFamilyError(f"paths do not union cleanly: {exc}") from exc
    if len(edges) != len(ids) - 1:
        raise InvalidPathFamilyError("path union contains a cycle")
    return d, ids


def _outer_face_walk(d: Drawing, origin: int) -> list[int]:
    """Vertices visited by the clockwise boundary walk, one full period."""
    e = clockwise_order(d, origin)[0]
    v = origin
    seq = [origin]
    for _ in range(2 * d.n_edges):
        w = d.other_endpoint(e, v)
        seq.append(w)
        cwo = clockwise_order(d, w)
        e = cwo[(cwo.index(e) + 1) % len(cwo)]
        v = w
    if seq[-1] != origin:
        raise GRRError("outer face walk failed to close")
    return seq[:-1]


def clockwise_between(path1: Sequence[Point], path2: Sequence[Point],
                      path3: Sequence[Point]) -> bool:
    """Does the clockwise boundary walk of the union meet the three path
    endpoints in the order path1, path2, path3?"""
    paths = [tuple(path1), tuple(path2), tuple(path3)]
    d, ids = _union_paths(paths)
    walk = _outer_face_walk(d, 0)
    period = len(walk)
    doubled = walk + walk
    t1, t2, t3 = (ids[point_key(p[-1])] for p in paths)
    for i1 in range(period):
        if doubled[i1] != t1:
            continue
        limit = i1 + period
        i2 = next((k for k in range(i1, limit) if doubled[k] == t2), None)
        if i2 is None:
            continue
        i3 = next((k for k in range(i2, limit) if doubled[k] == t3), None)
        if i3 is not None:
            return True
    return False


def four_path_union_ic(path1, path2, path3, path4) -> bool:
    """Is the union of four origin-sharing paths an increasing-chord tree?"""
    d, _ = _union_paths([path1, path2, path3, path4])
    return tree_increasing_chord(d, range(d.n_edges))


# -- greedy tracing -------------------------------------------------------------

@dataclass(frozen=True)
class GreedyTrace:
    waypoints: tuple[Point, ...]
    reached: bool
    failure_at: Optional[Point]


def _segment_param(seg: Segment, q: Point) -> Fraction:
    d = seg.direction()
    if d.x != 0:
        return (q.x - seg.a.x) / d.x
    return (q.y - seg.a.y) / d.y


def _first_exit(poly: Polygon, p: Point, t: Point) -> Optional[Fraction]:
    """Parameter on segment p-t where it first leaves the polygon, or None.

    Grazing contacts do not stop the advance; only a cell of the segment
    whose interior lies outside counts as leaving.
    """
    seg = Segment(p, t)
    lams = {Fraction(0), Fraction(1)}
    for i in range(poly.n):
        inter = segment_intersection(seg, poly.edge(i))
        if inter is None:
            continue
        if isinstance(inter, Segment):
            lams.add(_segment_param(seg, inter.a))
            lams.add(_segment_param(seg, inter.b))
        else:
            lams.add(_segment_param(seg, inter))
    cells = sorted(lams)
    for a, b in zip(cells, cells[1:]):
        mid = seg.at((a + b) / 2)
        if point_in_polygon(poly, mid) == "outside":
            return a
    return None


def _boundary_candidates(poly: Polygon, x: Point) -> tuple[Point, Point]:
    for i, q in enumerate(poly.points):
        if q == x:
            return (poly.points[i - 1], poly.points[(i + 1) % poly.n])
    for i in range(poly.n):
        seg = poly.edge(i)
        if on_segment(x, seg):
            return (seg.a, seg.b)
    raise GRRError(f"exit point {x} is not on the boundary")


def _angle_less(ua: Point, ub: Point, w: Point) -> bool:
    """Is angle(ua, w) strictly smaller than angle(ub, w)? Exact."""
    a, b = dot(ua, w), dot(ub, w)
    if a >= 0 and b < 0:
        return True
    if a < 0 and b >= 0:
        return False
    lhs = a * a * dot(ub, ub)
    rhs = b * b * dot(ua, ua)
    if a >= 0:
        return lhs > rhs
    return lhs < rhs


def trace_greedy_path(poly: Polygon, s: Point, t: Point) -> GreedyTrace:
    """Trace the greedy s-t path: advance straight toward t while possible,
    otherwise slide along the boundary edge whose direction makes the
    smallest angle with the target direction. Fails at a local minimum.
    """
    for q in (s, t):
        if point_in_polygon(poly, q) == "outside":
            raise PointOutsidePolygonError(f"point {q} lies outside the polygon")
    if s == t:
        return GreedyTrace((s,), True, None)
    waypoints = [s]
    p = s
    for _ in range(8 * (poly.n + 2)):
        if p == t:
            return GreedyTrace(tuple(waypoints), True, None)
        lam = _first_exit(poly, p, t)
        if lam is None:
            waypoints.append(t)
            return GreedyTrace(tuple(waypoints), True, None)
        x = Segment(p, t).at(lam)
        if x != p:
            waypoints.append(x)
        cands = sorted(_boundary_candidates(poly, x), key=Point.sort_key)
        v = cands[0]
        for cand in cands[1:]:
            if _angle_less(cand - x, v - x, t - x):
                v = cand
        if dot(t - v, v - x) < 0:
            return GreedyTrace(tuple(waypoints), False, x)
        waypoints.append(v)
        p = v
    raise GRRError("greedy trace exceeded its step budget")
