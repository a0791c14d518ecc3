"""Integer-lattice predicates against the same predicates on Fractions.

Drawings and polygons decide edge conflicts, and drawings the path-IC
halfplanes, on one integer lattice (geometry.lattice), and so does the
plane-contact sweep. These properties check every verdict and witness
against the Fraction computation, on point sets with mixed
denominators, collinear and parallel edges and numerators up to
10**30. Hypothesis runs derandomized with a fixed number of examples,
so the suite stays reproducible.
"""
import functools
import random
from collections import Counter
from fractions import Fraction

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import (
    assert_table_matches_direct_predicate,
    segment_contact,
)
from grrdecomp import drawing, geometry
from grrdecomp.analysis import (
    ConflictWitness,
    _clip,
    _misses_slab,
    _outward_open,
    _slab_witness,
    drawing_edges_conflict,
    polygon_edges_conflict,
    slab_hits,
)
from grrdecomp.drawing import Drawing, validate_drawing
from grrdecomp.errors import GRRError
from grrdecomp.geometry import (
    LatticePoint,
    Point,
    Polygon,
    Segment,
    _improper_pair,
    cross,
    dot,
    improper_contact,
    lattice,
    pt,
    segment_intersection,
    slab_projections,
)
from grrdecomp.polydecomp import build_dual_tree, piece_union_polygon

BIG = 10 ** 30
DENOMS = (1, 2, 3, 7, 12, 997, 10 ** 6 + 3, 2 ** 61 - 1)

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=60,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.filter_too_much])


def ratio(draw, bound):
    return Fraction(draw(st.integers(-bound, bound)),
                    draw(st.sampled_from(DENOMS)))


@st.composite
def point_sets(draw, min_size=3, max_size=7):
    """Distinct points. Each new point is free, on a small grid scaled by
    a large ratio, on the line of two earlier points, or the end of a
    segment parallel to one between earlier points; a repeat moves right
    of every earlier point."""
    unit = Fraction(draw(st.integers(1, BIG)), draw(st.sampled_from(DENOMS)))
    pts: list[Point] = []
    for _ in range(draw(st.integers(min_size, max_size))):
        kind = draw(st.sampled_from(
            ("free", "grid", "grid", "line", "parallel") if len(pts) >= 2
            else ("free", "grid")))
        if kind == "free":
            q = Point(ratio(draw, BIG), ratio(draw, BIG))
        elif kind == "grid":
            q = Point(unit * draw(st.integers(-3, 3)),
                      unit * draw(st.integers(-3, 3)))
        else:
            a, b, c = (pts[draw(st.integers(0, len(pts) - 1))]
                       for _ in range(3))
            base = a if kind == "line" else c
            q = base + (b - a) * ratio(draw, 5)
        if q in pts:
            q = Point(max(p.x for p in pts) + unit, q.y)
        pts.append(q)
    return pts


def fraction_witness(ea, eb, f, outward, e_idx, f_idx):
    res = _slab_witness(ea, eb, f, outward)
    return None if res is None else ConflictWitness(e_idx, f_idx, *res)


def test_lattice_scales_by_the_lcm_of_the_denominators():
    pts = [Point(Fraction(1, 6), Fraction(-3, 4)),
           Point(Fraction(5), Fraction(2, 9))]
    assert lattice(pts) == ((6, -27), (180, 8))
    a, b = lattice(pts)
    assert isinstance(a, LatticePoint) and (a.x, a.y) == (a[0], a[1])
    assert b - a == LatticePoint(174, 35)


@PROPERTY
@given(point_sets())
def test_drawing_conflicts_match_fraction_witnesses(pts):
    # every segment between two of the points is an edge; the raw
    # constructor takes crossing and overlapping edges too
    n = len(pts)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    d = Drawing(list(enumerate(pts)), edges)
    segs = [d.segment(e) for e in range(len(edges))]
    for e, se in enumerate(segs):
        for f, sf in enumerate(segs):
            if e != f:
                assert drawing_edges_conflict(d, e, f) == fraction_witness(
                    se.a, se.b, sf, None, e, f), (e, f)


def star_polygon(pts):
    """The points in angular order around their centroid, as a polygon,
    or None when two share a direction or the boundary is not simple."""
    cx = sum(p.x for p in pts) / len(pts)
    cy = sum(p.y for p in pts) / len(pts)
    rel = [(p.x - cx, p.y - cy, p) for p in pts]

    def cmp(u, v):
        hu, hv = (u[1] < 0 or (u[1] == 0 and u[0] < 0),
                  v[1] < 0 or (v[1] == 0 and v[0] < 0))
        if hu != hv:
            return -1 if hu < hv else 1
        c = u[0] * v[1] - u[1] * v[0]
        return -1 if c > 0 else 1 if c < 0 else 0

    ordered = sorted(rel, key=functools.cmp_to_key(cmp))
    if any(cmp(u, v) == 0 for u, v in zip(ordered, ordered[1:])):
        return None
    try:
        return Polygon(p for _, _, p in ordered)
    except GRRError:
        return None


@PROPERTY
@given(point_sets(min_size=4, max_size=9))
def test_polygon_conflicts_match_fraction_witnesses(pts):
    poly = star_polygon(pts)
    assume(poly is not None)
    for e in range(poly.n):
        se = poly.edge(e)
        de = se.direction()
        outward = Point(de.y, -de.x)
        for f in range(poly.n):
            if e != f:
                assert polygon_edges_conflict(poly, e, f) == fraction_witness(
                    se.a, se.b, poly.edge(f), outward, e, f), (e, f)


def outward_agreement(ea, eb, fa, fb):
    """(_outward_open, _clip is not None, proj, a, b) for e = ea-eb with
    its outward normal and f = fa-fb, both on Fraction points: the
    decision reads their common lattice, the clip the Fraction points
    with the same slab projections. a and b are f's direction and start
    against the outward normal, whose root on f is -b/a."""
    la, lb, lc, ld = lattice((ea, eb, fa, fb))
    proj = slab_projections(la, lb, lc, ld)
    de = eb - ea
    outward = Point(de.y, -de.x)
    want = _clip(ea, eb, Segment(fa, fb), proj, outward) is not None
    a, b = dot(fb - fa, outward), dot(fa - ea, outward)
    return _outward_open(la, lb, lc, ld, proj), want, proj, a, b


@settings(PROPERTY, max_examples=200)
@given(point_sets(min_size=4, max_size=4))
def test_integer_outward_decision_matches_the_clip(pts):
    ea, eb, fa, fb = pts
    # e either way round, so both normals of e meet f
    for e in ((ea, eb), (eb, ea)):
        got, want, *_ = outward_agreement(*e, fa, fb)
        assert got == want


def outward_boundary_cases(proj, a, b) -> list[str]:
    """The boundary cases of _clip's interval that one draw hits."""
    s0, s1, dd = proj
    cases = []
    if a == 0:
        cases.append("outward-parallel f")
    elif b == 0 or a + b == 0:
        cases.append("outward root at an end of f")
    if s0 in (0, dd) or s1 in (0, dd):
        cases.append("slab root at 0 or 1")
    lows, highs = [Fraction(0)], [Fraction(1)]
    if s0 != s1:
        r0, r1 = Fraction(s0, s0 - s1), Fraction(s0 - dd, s0 - s1)
        lows.append(min(r0, r1))
        highs.append(max(r0, r1))
    if a != 0:
        (lows if a > 0 else highs).append(Fraction(-b) / a)
    if max(lows) == min(highs):
        cases.append("lo == hi")
    return cases


def test_integer_outward_decision_fuzz_covers_the_boundary_cases():
    # a small half-integer grid makes shared ends, parallel and collinear
    # edges and roots on the clip's ends common
    rng = random.Random(20261020)
    grid = [Fraction(k, 2) for k in range(-4, 5)]
    seen: Counter = Counter()
    for _ in range(4000):
        ea, eb, fa, fb = (pt(rng.choice(grid), rng.choice(grid))
                          for _ in range(4))
        if ea == eb or fa == fb:
            continue
        got, want, proj, a, b = outward_agreement(ea, eb, fa, fb)
        assert got == want, (ea, eb, fa, fb)
        if not _misses_slab(*proj):
            seen["open" if want else "closed"] += 1
            seen.update(outward_boundary_cases(proj, a, b))
    assert len(seen) == 6 and min(seen.values()) >= 50, seen


def test_integer_outward_decision_on_every_corpus_slab_hit(polygon_corpus):
    polys = [rec["tp"].polygon for rec in polygon_corpus]
    polys += [piece_union_polygon(rec["tp"], piece) for rec in polygon_corpus
              for dec in (rec["exact"], rec["approx"]) for piece in dec.pieces]
    verdicts: Counter = Counter()
    for poly in polys:
        lat, n = poly.lattice, poly.n
        ends = [(i, (i + 1) % n) for i in range(n)]
        for e, f, proj in slab_hits(lat, ends, range(n)):
            se = poly.edge(e)
            de = se.direction()
            want = _clip(se.a, se.b, poly.edge(f), proj,
                         Point(de.y, -de.x)) is not None
            assert _outward_open(lat[e], lat[(e + 1) % n], lat[f],
                                 lat[(f + 1) % n], proj) == want, (poly, e, f)
            verdicts[want] += 1
    # 7,519 slab hits, of which 848 are conflicts
    assert (verdicts[True], verdicts[False]) == (848, 6671)


@st.composite
def tree_drawings(draw):
    """A random tree on point_sets: each point hangs from an earlier one.
    Edges may cross; the path-IC table does not read planarity."""
    pts = draw(point_sets(min_size=2, max_size=9))
    edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, len(pts))]
    return Drawing(list(enumerate(pts)), edges)


@PROPERTY
@given(tree_drawings())
def test_path_table_matches_direct_predicate_on_lattice_trees(d):
    assert_table_matches_direct_predicate(d, "lattice")


def fraction_improper(s, t):
    """The Fraction rule the sign test replaced: a common endpoint, or
    else segment_intersection."""
    a, b, c, d = s.a, s.b, t.a, t.b
    p = a if a in (c, d) else b if b in (c, d) else None
    if p is None:
        return segment_intersection(s, t) is not None
    u, v = (b if p is a else a) - p, (d if p == c else c) - p
    return u == v or (cross(u, v) == 0 and dot(u, v) > 0)


@st.composite
def segment_lists(draw, min_size=2, max_size=2):
    """Segments on a small half-integer grid, scaled by a large ratio.
    After the first, each segment is free, collinear with an earlier one
    (overlapping it or apart), touching it at an endpoint or inside (a
    T-junction), or sharing one of its endpoints."""
    def grid():
        return Point(Fraction(draw(st.integers(-4, 4)), 2),
                     Fraction(draw(st.integers(-4, 4)), 2))

    ends: list[tuple[Point, Point]] = []
    for _ in range(draw(st.integers(min_size, max_size))):
        kind = draw(st.sampled_from(
            ("free", "collinear", "touch", "shared") if ends else ("free",)))
        a, b = ends[draw(st.integers(0, len(ends) - 1))] if ends else (0, 0)

        def along():
            return a + (b - a) * Fraction(draw(st.integers(-4, 8)), 4)

        if kind == "free":
            c, d = grid(), grid()
        elif kind == "collinear":
            c, d = along(), along()
        elif kind == "touch":
            c, d = along(), grid()
        else:
            c, d = draw(st.sampled_from((a, b))), grid()
        if draw(st.booleans()):
            c, d = d, c
        assume(c != d)
        ends.append((c, d))
    unit = Fraction(draw(st.integers(1, BIG)), draw(st.sampled_from(DENOMS)))
    return [Segment(c * unit, d * unit) for c, d in ends]


CONTACTS = settings(PROPERTY, max_examples=400)


@CONTACTS
@given(segment_lists())
def test_improper_pair_signs_match_segment_intersection(segs):
    s, t = segs
    want = fraction_improper(s, t)
    la, lb, lc, ld = lattice((s.a, s.b, t.a, t.b))
    assert _improper_pair(la, lb, lc, ld) == want
    assert _improper_pair(lc, ld, la, lb) == want
    assert _improper_pair(s.a, s.b, t.a, t.b) == want


@CONTACTS
@given(segment_lists(min_size=1, max_size=6))
def test_improper_contact_matches_the_fraction_rule(segs):
    bad = [(i, j) for i in range(len(segs)) for j in range(i + 1, len(segs))
           if fraction_improper(segs[i], segs[j])]
    want = None
    if bad:
        i, j = bad[0]
        want = (i, j, segment_intersection(segs[i], segs[j]))
    assert segment_contact(segs) == want


def test_each_drawing_and_polygon_is_scaled_once(count_calls):
    calls = count_calls(geometry, "lattice", drawing)
    validate_drawing([(0, Point(0, 0)), (1, Point(Fraction(1, 3), 1)),
                      (2, Point(2, Fraction(1, 7)))], [(0, 1), (0, 2)])
    assert calls() == 1
    fan = Polygon(Point(i, Fraction(i * i, 5)) for i in range(8))
    assert calls() == 2
    build_dual_tree(fan, [(0, k) for k in range(2, 7)])
    assert calls() == 2


def test_improper_contact_builds_no_segment_and_no_fraction(count_calls):
    n = 300
    fan = Polygon(Point(i, Fraction(i * i, 3)) for i in range(n))
    pairs = [(i, (i + 1) % n) for i in range(n)]
    pairs += [(0, k) for k in range(2, n - 1)] + [(1, 3)]
    segments = count_calls(Segment, "__init__")
    fractions = count_calls(Fraction, "__new__")
    assert improper_contact(fan.lattice, pairs[:-1]) is None
    # the extra diagonal 1-3 crosses the fan diagonal 0-2
    assert improper_contact(fan.lattice, pairs) == (n, 2 * n - 3)
    assert segments() == fractions() == 0
