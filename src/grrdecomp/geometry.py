"""Exact plane geometry over rational coordinates.

Every coordinate is a fractions.Fraction and every predicate is decided
exactly; nothing in this module touches floating point. Floats are
rejected at construction time so binary rounding can never leak in.
Each drawing and polygon also maps its vertices once onto an integer
lattice (lattice()); dot, cross, slab_projections, hp, in_hp and the
halfstrip tests run unchanged on either form.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

from .errors import NotCounterclockwiseError, NotSimplePolygonError

Coord = Union[int, str, Fraction]

# Python's int-string digit limit, which json applies to integer literals
MAX_DECIMAL_EXPONENT = 4300


def frac(value: Coord) -> Fraction:
    """Coerce an int, Fraction, or decimal/ratio string to a Fraction.

    A decimal exponent beyond MAX_DECIMAL_EXPONENT raises ValueError.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or isinstance(value, float):
        raise TypeError(f"exact coordinate expected, got {value!r}")
    if isinstance(value, str) and "e" in value.lower():
        try:
            exponent = int(value.lower().rpartition("e")[2])
        except ValueError:
            exponent = 0  # not an exponent: Fraction names the fault
        if abs(exponent) > MAX_DECIMAL_EXPONENT:
            raise ValueError(f"decimal exponent beyond {MAX_DECIMAL_EXPONENT}")
    return Fraction(value)


@dataclass(frozen=True, slots=True)
class Point:
    x: Fraction
    y: Fraction

    def __post_init__(self):
        # uphold the no-floats contract for direct construction too
        if type(self.x) is not Fraction:
            object.__setattr__(self, "x", frac(self.x))
        if type(self.y) is not Fraction:
            object.__setattr__(self, "y", frac(self.y))

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def __mul__(self, k) -> "Point":
        k = frac(k)
        return Point(self.x * k, self.y * k)

    __rmul__ = __mul__

    def sort_key(self) -> tuple:
        return (self.x, self.y)

    def __repr__(self) -> str:
        return f"({self.x}, {self.y})"


def pt(x: Coord, y: Coord) -> Point:
    """Build a Point, coercing each coordinate with frac()."""
    return Point(frac(x), frac(y))


def point_key(p: Point) -> tuple[int, int, int, int]:
    """An int key for p. Fractions are normalised, so equal points have
    equal keys, and hashing the key hashes no Fraction."""
    return (p.x.numerator, p.x.denominator, p.y.numerator, p.y.denominator)


class LatticePoint(NamedTuple):
    """A point of the integer lattice that lattice() maps a point set to.

    It has .x, .y, indexing and -, so dot, cross, slab_projections, hp
    and in_hp run on it unchanged; + and * stay tuple operations.
    """
    x: int
    y: int

    def __sub__(self, other: "LatticePoint") -> "LatticePoint":
        return LatticePoint(self.x - other.x, self.y - other.y)


def lattice(points: Iterable[Point]) -> tuple[LatticePoint, ...]:
    """The points scaled by the LCM of their coordinate denominators.

    Scaling by one positive factor keeps every orientation sign and every
    comparison of dot products, which is all the predicates decide on.
    """
    pts = tuple(points)
    scale = lcm(*(c.denominator for p in pts for c in (p.x, p.y)))
    return tuple(LatticePoint(p.x.numerator * (scale // p.x.denominator),
                              p.y.numerator * (scale // p.y.denominator))
                 for p in pts)


def dot(a: Point, b: Point) -> Fraction:
    return a.x * b.x + a.y * b.y


def cross(a: Point, b: Point) -> Fraction:
    return a.x * b.y - a.y * b.x


def sq_dist(a: Point, b: Point) -> Fraction:
    d = a - b
    return d.x * d.x + d.y * d.y


def orientation(a: Point, b: Point, c: Point) -> int:
    """Sign of the turn a->b->c: 1 left (ccw), -1 right (cw), 0 collinear."""
    v = cross(b - a, c - a)
    return (v > 0) - (v < 0)


def slab_projections(ea: Point, eb: Point, fa: Point, fb: Point
                     ) -> tuple[Fraction, Fraction, Fraction]:
    """(s0, s1, dd): dot(fa - ea, de), dot(fb - ea, de) and dot(de, de)
    for de = eb - ea. A point of f is in e's open slab iff its projection
    is in (0, dd); the normals to e through ea and eb cross the line of f
    at the slab roots s0/(s0 - s1) and (s0 - dd)/(s0 - s1) along fa-fb.
    """
    de = eb - ea
    return dot(fa - ea, de), dot(fb - ea, de), dot(de, de)


def slab_row(lat: Mapping[int, LatticePoint], i: int, j: int
             ) -> tuple[dict[int, int], int]:
    """(row, dd) with row[k] = dot(lat[k], de) - dot(lat[i], de) for every
    key k, n integer products, and dd = dot(de, de) for de = lat[j] -
    lat[i]: an edge (a, b) has slab_projections (row[a], row[b], dd) onto
    the edge (i, j)."""
    ax, ay = lat[i]
    dx, dy = lat[j][0] - ax, lat[j][1] - ay
    base = ax * dx + ay * dy
    return ({k: x * dx + y * dy - base for k, (x, y) in lat.items()},
            dx * dx + dy * dy)


@dataclass(frozen=True, slots=True)
class Segment:
    a: Point
    b: Point

    def direction(self) -> Point:
        return self.b - self.a

    def at(self, t) -> Point:
        return self.a + (self.b - self.a) * frac(t)


def on_segment(q: Point, seg: Segment) -> bool:
    """Exact membership of q in the closed segment (degenerate allowed)."""
    d = seg.direction()
    if d.x == 0 and d.y == 0:
        return q == seg.a
    if cross(d, q - seg.a) != 0:
        return False
    s = dot(q - seg.a, d)
    return 0 <= s <= dot(d, d)


def segment_intersection(s1: Segment, s2: Segment):
    """Intersection of two closed segments.

    Returns None, a Point, or a Segment (for collinear overlap). The
    overlap segment is oriented along s1. Segments whose closed bounding
    boxes are disjoint return None before any arithmetic; boxes that
    touch get the full test.
    """
    a1, b1, a2, b2 = s1.a, s1.b, s2.a, s2.b
    if (max(a1.x, b1.x) < min(a2.x, b2.x) or max(a2.x, b2.x) < min(a1.x, b1.x)
            or max(a1.y, b1.y) < min(a2.y, b2.y)
            or max(a2.y, b2.y) < min(a1.y, b1.y)):
        return None
    d1, d2 = s1.direction(), s2.direction()
    if d1.x == 0 and d1.y == 0:
        if on_segment(s1.a, s2):
            return s1.a
        return None
    if d2.x == 0 and d2.y == 0:
        if on_segment(s2.a, s1):
            return s2.a
        return None
    rxs = cross(d1, d2)
    qp = s2.a - s1.a
    if rxs != 0:
        t = cross(qp, d2) / rxs
        u = cross(qp, d1) / rxs
        if 0 <= t <= 1 and 0 <= u <= 1:
            return s1.at(t)
        return None
    if cross(qp, d1) != 0:
        return None
    # collinear: project s2 endpoints onto s1's parameterization
    p0, p1, dd = slab_projections(s1.a, s1.b, s2.a, s2.b)
    lo, hi = sorted((p0 / dd, p1 / dd))
    lo, hi = max(lo, Fraction(0)), min(hi, Fraction(1))
    if lo > hi:
        return None
    if lo == hi:
        return s1.at(lo)
    return Segment(s1.at(lo), s1.at(hi))


def _in_box(p, a, b) -> bool:
    """Is p in the closed bounding box of a and b?"""
    return (min(a.x, b.x) <= p.x <= max(a.x, b.x)
            and min(a.y, b.y) <= p.y <= max(a.y, b.y))


def _improper_pair(a, b, c, d) -> bool:
    """Do the closed segments a-b and c-d meet other than in one common
    endpoint?

    The four points are Points or LatticePoints, all of one kind, and
    each segment has two distinct endpoints. With one common endpoint p
    and other endpoints u, v they overlap iff cross(u - p, v - p) == 0
    and dot(u - p, v - p) > 0; two common endpoints make the same
    segment. Without one, four orientation signs decide a crossing, and
    an endpoint on the other segment's line meets it iff it lies in that
    segment's closed bounding box.
    """
    p = a if a in (c, d) else b if b in (c, d) else None
    if p is not None:
        u, v = (b if p is a else a) - p, (d if p == c else c) - p
        return u == v or (cross(u, v) == 0 and dot(u, v) > 0)
    ex, ey = b.x - a.x, b.y - a.y
    o1 = ex * (c.y - a.y) - ey * (c.x - a.x)
    o2 = ex * (d.y - a.y) - ey * (d.x - a.x)
    if (o1 > 0 and o2 > 0) or (o1 < 0 and o2 < 0):
        return False
    fx, fy = d.x - c.x, d.y - c.y
    o3 = fx * (a.y - c.y) - fy * (a.x - c.x)
    o4 = fx * (b.y - c.y) - fy * (b.x - c.x)
    if (o3 > 0 and o4 > 0) or (o3 < 0 and o4 < 0):
        return False
    if o1 and o2 and o3 and o4:
        return True  # each segment's endpoints lie strictly apart
    return ((o1 == 0 and _in_box(c, a, b)) or (o2 == 0 and _in_box(d, a, b))
            or (o3 == 0 and _in_box(a, c, d))
            or (o4 == 0 and _in_box(b, c, d)))


def improper_contact(lat, pairs: Sequence[tuple]):
    """Smallest index pair i < j of segments that meet other than in one
    common endpoint, or None.

    lat maps vertex keys to LatticePoints, as Drawing.lattice and
    Polygon.lattice do, and pairs[i] holds the keys of segment i's two
    distinct endpoints. Two segments with a common endpoint meet
    elsewhere iff they leave it in the same reduced integer direction. A
    sweep over the left ends visits the other pairs whose closed x-ranges
    overlap, and decides a pair with _improper_pair only if their closed
    y-ranges overlap too.
    """
    n = len(pairs)
    ends = [(lat[a], lat[b]) for a, b in pairs]
    best = None
    first: dict = {}  # the first segment to leave each point in each direction
    for i, (a, b) in enumerate(ends):
        dx, dy = b.x - a.x, b.y - a.y
        g = gcd(dx, dy)
        for key in ((a, dx // g, dy // g), (b, -dx // g, -dy // g)):
            j = first.setdefault(key, i)
            if j != i:
                best = min(best, (j, i)) if best else (j, i)
    lo = [min(a.x, b.x) for a, b in ends]
    hi = [max(a.x, b.x) for a, b in ends]
    ylo = [min(a.y, b.y) for a, b in ends]
    yhi = [max(a.y, b.y) for a, b in ends]
    order = sorted(range(n), key=lo.__getitem__)
    for k, i in enumerate(order):
        ends_i = ends[i]
        for m in range(k + 1, n):
            j = order[m]
            if lo[j] > hi[i]:
                break
            c, d = ends[j]
            if (ylo[j] > yhi[i] or ylo[i] > yhi[j] or c in ends_i
                    or d in ends_i or not _improper_pair(*ends_i, c, d)):
                continue
            pair = (min(i, j), max(i, j))
            best = min(best, pair) if best else pair
    return best


# -- halfplanes ---------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Halfplane:
    """Points r with dot(r, n) >= c; n and r are both Points or both
    LatticePoints.

    hp(p, q) builds the halfplane beyond q, looking from p: n = q - p and
    c = dot(q, n), so membership, dot(r - q, q - p) >= 0, costs one dot
    product and one comparison.
    """
    n: Point
    c: Fraction


def hp(p: Point, q: Point) -> Halfplane:
    if p == q:
        raise ValueError("halfplane needs two distinct points")
    n = q - p
    return Halfplane(n, dot(q, n))


def in_hp(h: Halfplane, r: Point) -> bool:
    return dot(r, h.n) >= h.c


# -- halfstrips ---------------------------------------------------------------

def strip_frame(a, b, c):
    """The closed halfstrip swept from base a-b away from c, as (a, b,
    de, n, dd): de = b - a, n a normal to the base pointing away from c
    and dd = dot(de, de). Points are plain (x, y) pairs of one exact
    number type; a point p lies in the strip iff dot(p - a, de) is in
    [0, dd] and dot(p - a, n) >= 0."""
    ax, ay = a
    dx, dy = b[0] - ax, b[1] - ay
    nx, ny = -dy, dx
    if (c[0] - ax) * nx + (c[1] - ay) * ny > 0:
        nx, ny = dy, -dx
    return a, b, (dx, dy), (nx, ny), dx * dx + dy * dy


def strip_codes(frame, pts) -> list[int]:
    """For each p of pts, in order, the strip sides that p lies beyond,
    as bits of an int for the strip_frame (a, b, de, n, dd): 1 when
    dot(p - a, de) <= 0, 2 when dot(p - a, de) >= dd, 4 when
    dot(p - a, n) <= 0."""
    (ax, ay), _, (dx, dy), (nx, ny), dd = frame
    base, nbase = ax * dx + ay * dy, ax * nx + ay * ny
    return [((s := x * dx + y * dy - base) <= 0) | ((s >= dd) << 1)
            | ((x * nx + y * ny - nbase <= 0) << 2) for x, y in pts]


def strip_reaches(frame, codes, pts, triangles, ids) -> list:
    """The ids j, in order, whose open counterclockwise triangle with
    vertices pts[k] for k in triangles[j] meets the strip of frame;
    codes[k] is the strip_codes entry of pts[k].

    The strip has an interior and the triangle is open, so they meet iff
    their interiors do, iff no separating axis exists among the strip's
    three sides and the triangle's three edges. A bit that all three
    codes share is a strip side with the triangle beyond it; every other
    test is the sign of a product of coordinate differences, so the rule
    runs on Fractions and on lattice integers.
    """
    (ax, ay), (bx, by), _, (nx, ny), _ = frame
    out = []
    for j in ids:
        p, q, r = triangles[j]
        if codes[p] & codes[q] & codes[r]:
            continue
        t0, t1, t2 = pts[p], pts[q], pts[r]
        for (ux, uy), (vx, vy) in ((t0, t1), (t1, t2), (t2, t0)):
            ex, ey = vx - ux, vy - uy
            # the strip lies on the closed outer side of this edge: its
            # recession direction n and both base corners do
            if (ex * ny <= ey * nx and ex * (ay - uy) <= ey * (ax - ux)
                    and ex * (by - uy) <= ey * (bx - ux)):
                break
        else:
            out.append(j)
    return out


def strip_meets_open_triangle(a, b, c, t0, t1, t2) -> bool:
    """Does the closed halfstrip swept from base a-b away from c meet the
    open counterclockwise triangle t0 t1 t2? strip_reaches on one
    triangle."""
    frame, tri = strip_frame(a, b, c), (t0, t1, t2)
    return bool(strip_reaches(frame, strip_codes(frame, tri), tri,
                              ((0, 1, 2),), (0,)))


# -- polygons -----------------------------------------------------------------

class Polygon:
    """Simple polygon with counterclockwise boundary, validated on build.

    lattice holds the vertices on one integer lattice, in boundary order;
    the repeat, simplicity and orientation checks are decided on it.
    """

    __slots__ = ("points", "n", "lattice")

    def __init__(self, points: Iterable[Point]):
        pts = tuple(points)
        if len(pts) < 3:
            raise NotSimplePolygonError("polygon needs at least 3 vertices")
        self.points = pts
        self.n = n = len(pts)
        self.lattice = lat = lattice(pts)
        if len(set(lat)) != n:
            raise NotSimplePolygonError("polygon repeats a vertex")
        bad = improper_contact(lat, [(i, (i + 1) % n) for i in range(n)])
        if bad is not None:
            i, j = bad
            meet = segment_intersection(self.edge(i), self.edge(j))
            how = ("overlap" if isinstance(meet, Segment)
                   else f"intersect at {meet}")
            raise NotSimplePolygonError(f"boundary edges {i} and {j} {how}")
        area2 = sum(cross(lat[i], lat[(i + 1) % n]) for i in range(n))
        if area2 <= 0:
            raise NotCounterclockwiseError(
                "polygon boundary must be counterclockwise")

    def edge(self, i: int) -> Segment:
        return Segment(self.points[i], self.points[(i + 1) % self.n])

    def __eq__(self, other) -> bool:
        return isinstance(other, Polygon) and self.points == other.points

    def __hash__(self) -> int:
        return hash(self.points)

    def __repr__(self) -> str:
        return f"Polygon({list(self.points)!r})"


def point_in_polygon(poly: Polygon, q: Point) -> str:
    """Exact point location: 'inside', 'boundary', or 'outside'."""
    for i in range(poly.n):
        if on_segment(q, poly.edge(i)):
            return "boundary"
    inside = False
    for i in range(poly.n):
        a = poly.points[i]
        b = poly.points[(i + 1) % poly.n]
        if (a.y > q.y) != (b.y > q.y):
            x_hit = a.x + (q.y - a.y) * (b.x - a.x) / (b.y - a.y)
            if q.x < x_hit:
                inside = not inside
    return "inside" if inside else "outside"
