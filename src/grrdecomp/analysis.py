"""Conflict detection, the increasing-chord predicates built on it, and
greedy path tracing inside simple polygons.

An edge e conflicts with an edge f when some normal line (for drawings)
or outward normal ray (for polygon boundaries) erected at an interior
point of e meets f. Conflicts are exactly what destroys greedy
routability, so everything in this package reduces to them.
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
    segment_intersection,
    slab_projections,
    strip_meets_open_triangle,
)


@dataclass(frozen=True)
class ConflictWitness:
    """Certificate that edge e conflicts with edge f.

    p is the foot on e, hit the struck point of f; the segment p-hit is
    perpendicular to e, p is strictly interior to e, and no point of e
    inside the slab is closer to hit than p is.
    """
    e: int
    f: int
    p: Point
    hit: Point

    @classmethod
    def _on_read(cls, e: int, f: int, clip) -> "ConflictWitness":
        """A witness whose p and hit are built by clip(), which returns
        (foot, hit), when either is first read."""
        w = object.__new__(cls)
        for name, value in (("e", e), ("f", f), ("_clip", clip)):
            object.__setattr__(w, name, value)
        return w

    def __getattr__(self, name: str):
        # reached only for fields not yet set, so only for p and hit of
        # a witness from _on_read
        if name not in ("p", "hit") or "_clip" not in self.__dict__:
            raise AttributeError(name)
        p, hit = self.__dict__.pop("_clip")()
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "hit", hit)
        return self.__dict__[name]


def _misses_slab(s0, s1, dd) -> bool:
    """Does f stay outside the open slab of e, given slab_projections of
    f onto e, on Points or on LatticePoints?

    Without an outward cut this is exactly when _slab_witness finds no
    witness: the projections sweep [min(s0, s1), max(s0, s1)], which
    meets (0, dd) in an interval of positive length iff s0 and s1 are
    not both <= 0 and not both >= dd.
    """
    return (s0 <= 0 and s1 <= 0) or (s0 >= dd and s1 >= dd)


def _slab_witness(ea: Point, eb: Point, seg: Segment,
                  outward: Optional[Point]) -> Optional[tuple[Point, Point]]:
    """Shared core of the two conflict tests.

    Clips seg to the open slab of edge ea-eb (and, when outward is given,
    to the open outward halfplane); returns (foot, hit) or None. The clip
    spans [0, 1] between seg's slab roots (geometry.slab_projections),
    which are the cuts subdivide makes in seg, narrowed by the outward
    root; it is feasible iff lo < hi, and hit is its midpoint.
    """
    s0, s1, dd = slab_projections(ea, eb, seg.a, seg.b)
    if _misses_slab(s0, s1, dd):
        return None
    lo, hi = Fraction(0), Fraction(1)
    if s0 != s1:
        r0, r1 = s0 / (s0 - s1), (s0 - dd) / (s0 - s1)
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
    hit = seg.at((lo + hi) / 2)
    de = eb - ea
    foot = ea + de * (dot(hit - ea, de) / dd)
    return foot, hit


def _lattice_conflict(d: Drawing, e: int, f: int) -> Optional[bool]:
    """True when edges e and f conflict, else None, decided on d.lattice
    with no witness built; indices are not checked."""
    lat, edges = d.lattice, d.edges
    u, v = edges[e]
    a, b = edges[f]
    if _misses_slab(*slab_projections(lat[u], lat[v], lat[a], lat[b])):
        return None
    return True


def drawing_edges_conflict(d: Drawing, e: int, f: int) -> Optional[ConflictWitness]:
    """Does a normal line at an interior point of edge e meet edge f?

    Decided on the drawing's integer lattice. On a hit, the witness's
    points are clipped from the Fraction points when first read.
    """
    m = d.n_edges
    for idx in (e, f):
        if not 0 <= idx < m:
            raise UnknownEdgeError(f"edge index {idx} out of range")
    if e == f:
        raise ValueError("conflict test needs two distinct edges")
    if _lattice_conflict(d, e, f) is None:
        return None

    def clip():
        se = d.segment(e)
        return _slab_witness(se.a, se.b, d.segment(f), None)
    return ConflictWitness._on_read(e, f, clip)


def first_conflict(conflict, obj, indices) -> Optional[tuple]:
    """The first (i, j, witness) over ordered pairs of distinct indices,
    row by row, where witness = conflict(obj, i, j) is not None; else None.
    conflict is drawing_edges_conflict, polygon_edges_conflict or the
    witness-free _lattice_conflict."""
    tests = ((i, j, conflict(obj, i, j))
             for i in indices for j in indices if i != j)
    return next((t for t in tests if t[2] is not None), None)


def _unordered_conflicts(conflict, obj, n: int) -> tuple[tuple[int, int], ...]:
    """Pairs i < j of range(n) that conflict in at least one direction."""
    return tuple((i, j) for i in range(n) for j in range(i + 1, n)
                 if conflict(obj, i, j) or conflict(obj, j, i))


def conflicting_pairs(d: Drawing) -> tuple[tuple[int, int], ...]:
    """Unordered edge pairs that conflict in at least one direction."""
    return _unordered_conflicts(drawing_edges_conflict, d, d.n_edges)


def polygon_edges_conflict(poly: Polygon, e: int, f: int
                           ) -> Optional[ConflictWitness]:
    """Does an outward normal ray at an interior point of boundary edge e
    meet boundary edge f?

    Edges that miss the open slab are rejected on the polygon's integer
    lattice; the outward clip runs on the Fraction points.
    """
    for idx in (e, f):
        if not 0 <= idx < poly.n:
            raise UnknownEdgeError(f"boundary edge index {idx} out of range")
    if e == f:
        raise ValueError("conflict test needs two distinct edges")
    lat, n = poly.lattice, poly.n
    if _misses_slab(*slab_projections(lat[e], lat[(e + 1) % n],
                                      lat[f], lat[(f + 1) % n])):
        return None
    se = poly.edge(e)
    dirv = se.direction()
    outward = Point(dirv.y, -dirv.x)  # right of a ccw boundary edge
    res = _slab_witness(se.a, se.b, poly.edge(f), outward)
    return None if res is None else ConflictWitness(e, f, *res)


def polygon_is_grr(poly: Polygon) -> Optional[ConflictWitness]:
    """None when the polygon is greedily routable, else the first witness
    in boundary-index order."""
    found = first_conflict(polygon_edges_conflict, poly, range(poly.n))
    return None if found is None else found[2]


def polygon_conflicting_edge_pairs(poly: Polygon) -> tuple[tuple[int, int], ...]:
    return _unordered_conflicts(polygon_edges_conflict, poly, poly.n)


def _dual_step_toward(tp, i: int, j: int) -> int:
    """First triangle after i on the unique dual-tree path to j."""
    parent, depth = tp.parent, tp.depth
    x, below = j, depth[i] + 1
    while depth[x] > below:
        x = parent[x]
    return x if depth[x] == below and parent[x] == i else parent[i]


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
        if not (isinstance(k, int) and 0 <= k < nt):
            raise UnknownTriangleError(f"no triangle {k!r}")
    if i == j:
        raise SameTriangleError("a triangle does not conflict with itself")
    return _strips_reach(tp, i, j) or _strips_reach(tp, j, i)


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
    subset = sorted(set(edge_subset))
    if not subset:
        raise ValueError("edge subset must be nonempty")
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
    return first_conflict(_lattice_conflict, d, subset) is None


# -- path families around a shared origin --------------------------------------

def _union_paths(paths: Sequence[Sequence[Point]]) -> tuple[Drawing, int]:
    """Union polylines from a common origin into a validated tree drawing."""
    cleaned = []
    for path in paths:
        try:
            cleaned.append(_check_polyline(path))
        except DegeneratePathError as exc:
            raise InvalidPathFamilyError(str(exc)) from exc
    origin = cleaned[0][0]
    if any(p[0] != origin for p in cleaned):
        raise InvalidPathFamilyError("paths do not share an origin")
    ids: dict[Point, int] = {}
    for path in cleaned:
        for q in path:
            if q not in ids:
                ids[q] = len(ids)
    edges = []
    seen = set()
    for path in cleaned:
        for a, b in zip(path, path[1:]):
            key = frozenset((ids[a], ids[b]))
            if key not in seen:
                seen.add(key)
                edges.append((ids[a], ids[b]))
    try:
        d = validate_drawing(sorted((vid, q) for q, vid in ids.items()), edges)
    except InputError as exc:
        raise InvalidPathFamilyError(f"paths do not union cleanly: {exc}") from exc
    if len(edges) != len(ids) - 1:
        raise InvalidPathFamilyError("path union contains a cycle")
    return d, ids[origin]


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
    d, origin = _union_paths(paths)
    walk = _outer_face_walk(d, origin)
    period = len(walk)
    doubled = walk + walk
    id_of = {d.points[vid]: vid for vid in d.vertex_ids}
    t1, t2, t3 = (id_of[p[-1]] for p in paths)
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
