"""Conflict predicates, increasing-chord tests, and greedy tracing."""

import hashlib
import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import (
    grr_polygon_fixtures,
    sawtooth,
    sun_drawing,
    tree_fixture_drawings,
    tree_path_points,
    witness_defects,
    zigzag,
)
from grrdecomp import analysis, drawing, geometry
from grrdecomp.analysis import (
    ConflictWitness,
    _slab_witness,
    clockwise_between,
    conflicting_pairs,
    drawing_edges_conflict,
    four_path_union_ic,
    path_increasing_chord,
    polygon_conflicting_edge_pairs,
    polygon_edges_conflict,
    polygon_is_grr,
    trace_greedy_path,
    tree_increasing_chord,
)
from grrdecomp.drawing import subdivide, validate_drawing
from grrdecomp.errors import (
    InvalidPathFamilyError,
    PointOutsidePolygonError,
    SameTriangleError,
    UnknownEdgeError,
    UnknownTriangleError,
)
from grrdecomp.fixtures import (
    USHAPE_FAILURE_PAIR,
    USHAPE_FAILURE_POINT,
    comb_drawing,
    lshape_polygon,
    p_acute,
    p_ic,
    plus_drawing,
    star4_cross,
    ushape_polygon,
    ushape_tp,
)
from grrdecomp.geometry import (
    LatticePoint,
    Point,
    Polygon,
    Segment,
    cross,
    dot,
    pt,
    sq_dist,
)
from grrdecomp.oracle import chord_property_oracle, random_tree_drawing
from grrdecomp.polydecomp import build_dual_tree, piece_union_polygon
from grrdecomp.analysis import triangles_conflict


# -- edge conflicts in drawings -------------------------------------------------

def test_drawing_conflict_is_directional():
    # edge 2 sits above edge 0's interior, so edge 0's normals strike it;
    # edge 0 lies entirely behind edge 2's slab, so the reverse test is empty
    d = validate_drawing(
        [(0, pt(0, 0)), (1, pt(1, 0)), (2, pt("1/2", 1)), (3, pt(1, 5))],
        [(0, 1), (1, 2), (2, 3)])
    assert drawing_edges_conflict(d, 0, 2) is not None
    assert drawing_edges_conflict(d, 2, 0) is None


def test_drawing_conflict_acute_turn_is_mutual():
    d = p_acute()
    assert drawing_edges_conflict(d, 0, 1) is not None
    assert drawing_edges_conflict(d, 1, 0) is not None


def test_drawing_conflict_witness_is_sound():
    # pairs are unordered: at least one direction must produce a witness,
    # and every witness produced must survive the defect checks
    for d in (p_acute(), star4_cross(), comb_drawing()):
        for e, f in conflicting_pairs(d):
            ws = [drawing_edges_conflict(d, e, f),
                  drawing_edges_conflict(d, f, e)]
            assert any(w is not None for w in ws)
            for w in ws:
                if w is not None:
                    assert {w.e, w.f} == {e, f}
                    assert witness_defects(d.segment(w.e), d.segment(w.f), w) == []


def test_conflicting_pairs_builds_no_witness_points(count_calls):
    # the whole-drawing scan decides on slab rows and clips no witness
    d = sun_drawing(random.Random(40), 40)
    built = count_calls(Point, "__post_init__")
    pairs = conflicting_pairs(d)
    assert built() == 0
    assert len(pairs) == 810
    ws = [w for e in range(d.n_edges) for f in range(d.n_edges) if e != f
          for w in [drawing_edges_conflict(d, e, f)] if w is not None]
    assert len(ws) == 1239
    assert repr(ws[0]) == ("ConflictWitness(e=0, f=1, p=(31412399/63005, "
                           "250298/63005), hit=(498, 151/2))")
    assert hashlib.sha256(repr(ws).encode()).hexdigest() == (
        "5a6bf704c83291f3c192c9aad8e4474af0b80bbc276ea9afdfdb2005a5dd819d")
    assert built() > 0
    w = ws[1]
    assert w == ConflictWitness(w.e, w.f, w.p, w.hit)
    assert hash(w) == hash(ConflictWitness(w.e, w.f, w.p, w.hit))


def _reference_pairs(conflict, obj, n):
    """The per-pair scan the slab rows replaced: pairs i < j of range(n)
    that conflict in at least one direction."""
    return tuple((i, j) for i in range(n) for j in range(i + 1, n)
                 if conflict(obj, i, j) or conflict(obj, j, i))


def test_conflicting_pairs_match_the_per_pair_scan(tree_corpus):
    rng = random.Random(1313)
    shapes = [sun_drawing(rng, legs) for legs in (8, 16, 24, 40)]
    shapes += [zigzag(rng, 30), sawtooth(rng, 30)]
    drawings = [r["drawing"] for r in tree_corpus["records"]] + shapes
    # a subdivided 30-edge sawtooth has 827 edges; 8 edges keep it small
    refine = drawings[:40] + shapes[:3] + [shapes[4], sawtooth(rng, 8)]
    drawings += [subdivide(d).drawing for d in refine]
    for d in drawings:
        assert conflicting_pairs(d) == _reference_pairs(
            drawing_edges_conflict, d, d.n_edges)


def _corpus_polygons(polygon_corpus):
    """Every corpus polygon, the U-shape and every certified piece."""
    polys = [rec["tp"].polygon for rec in polygon_corpus] + [ushape_polygon()]
    polys += [piece_union_polygon(rec["tp"], piece) for rec in polygon_corpus
              for dec in (rec["exact"], rec["approx"]) for piece in dec.pieces]
    return polys


def test_polygon_conflicting_pairs_match_the_per_pair_scan(polygon_corpus):
    for poly in _corpus_polygons(polygon_corpus):
        assert polygon_conflicting_edge_pairs(poly) == _reference_pairs(
            polygon_edges_conflict, poly, poly.n)


def test_polygon_is_grr_gives_the_per_pair_scans_first_witness(polygon_corpus):
    verdicts = Counter()
    for poly in _corpus_polygons(polygon_corpus):
        first = next((w for e in range(poly.n) for f in range(poly.n)
                      if e != f for w in [polygon_edges_conflict(poly, e, f)]
                      if w is not None), None)
        assert repr(polygon_is_grr(poly)) == repr(first)
        verdicts[first is None] += 1
    assert verdicts[True] > 100 and verdicts[False] > 50, verdicts


def test_polygon_scans_clip_a_witness_only_for_a_conflict(polygon_corpus,
                                                         count_calls):
    # the lattice decides every slab hit; the Fraction clip runs only to
    # build a witness that is returned
    clips = count_calls(analysis, "_clip")
    for rec in polygon_corpus:
        for dec in (rec["exact"], rec["approx"]):
            for piece in dec.pieces:
                assert polygon_is_grr(piece_union_polygon(rec["tp"], piece)) is None
    assert clips() == 0
    pairs = sum(len(polygon_conflicting_edge_pairs(poly))
                for poly in _corpus_polygons(polygon_corpus))
    assert pairs > 100
    assert clips() == 0
    u = ushape_polygon()
    before = clips()
    assert polygon_is_grr(u) is not None
    assert clips() - before == 1


def test_tree_increasing_chord_matches_the_per_pair_scan(tree_corpus):
    # seeded connected subtrees, grown one adjacent edge at a time
    rng = random.Random(1616)
    verdicts = Counter()
    for rec in tree_corpus["records"]:
        d = rec["drawing"]
        for _ in range(4):
            sub = [rng.randrange(d.n_edges)]
            for _ in range(rng.randint(0, d.n_edges - 1)):
                grow = sorted({g for e in sub for v in d.edges[e]
                               for g in d.adjacency[v]} - set(sub))
                if grow:
                    sub.append(rng.choice(grow))
            by_pairs = not any(drawing_edges_conflict(d, e, f)
                               for e in sub for f in sub if e != f)
            assert tree_increasing_chord(d, sub) == by_pairs
            verdicts[by_pairs] += 1
    assert min(verdicts[True], verdicts[False]) > 100, verdicts


def test_whole_drawing_scans_read_one_slab_row_per_edge(count_calls):
    d = sun_drawing(random.Random(40), 40)
    projections = count_calls(geometry, "slab_projections", analysis, drawing)
    subs = count_calls(LatticePoint, "__sub__")
    conflicting_pairs(d)
    scan = subs()
    assert not tree_increasing_chord(d, range(d.n_edges))
    assert tree_increasing_chord(d, [0])
    u = ushape_polygon()
    assert polygon_is_grr(u) is not None
    assert polygon_conflicting_edge_pairs(u) == ((1, 5), (3, 5), (3, 7))
    assert projections() == 0
    before = subs()
    sd = subdivide(d)
    refine = subs() - before
    # validating the refined drawing subtracts on its own account
    before = subs()
    validate_drawing(sd.drawing.points.items(), sd.drawing.edges)
    validation = subs() - before
    assert projections() == 0
    assert scan <= d.n_edges and refine - validation <= d.n_edges


def test_normal_through_endpoint_is_not_a_conflict():
    # an open slab: hitting f exactly on the boundary normal at e's
    # endpoint does not count
    d = validate_drawing(
        [(0, pt(0, 0)), (1, pt(4, 0)), (2, pt(4, 3))],
        [(0, 1), (1, 2)])
    assert drawing_edges_conflict(d, 0, 1) is None
    assert drawing_edges_conflict(d, 1, 0) is None


def test_slab_boundary_contact_is_not_a_conflict():
    # f reaches the slab of e = (0,0)-(4,0) only on its boundary lines
    ea, eb = pt(0, 0), pt(4, 0)
    for fa, fb in (((4, 1), (7, 3)),      # one endpoint on x = 4
                   ((-3, 2), (0, 5)),     # one endpoint on x = 0
                   ((4, 1), (4, 5)),      # along x = 4
                   ((5, -1), (9, 2))):    # wholly beyond x = 4
        assert _slab_witness(ea, eb, Segment(pt(*fa), pt(*fb)), None) is None


def test_slab_crossing_witnesses():
    # (segment f, foot, hit) as the interval clip computes them
    ea, eb = pt(0, 0), pt(4, 0)
    cases = [(((-2, 3), (6, 1)), (2, 0), (2, 2)),
             (((2, 1), (9, 4)), (3, 0), (3, "10/7")),
             (((-1, -2), (1, "-1/2")), ("1/2", 0), ("1/2", "-7/8"))]
    for (fa, fb), foot, hit in cases:
        got = _slab_witness(ea, eb, Segment(pt(*fa), pt(*fb)), None)
        assert got == (pt(*foot), pt(*hit))
    got = _slab_witness(pt(1, 1), pt(3, 4), Segment(pt(-2, 5), pt(6, 1)), None)
    assert got == (pt("29/13", "37/13"), pt(2, 3))


SLAB_FUZZ_DIGEST = (
    "e07bfa5421c6011febf0f3366d55ed2038580ece3b7bd80672dd962d419b6a42")


def _slab_fuzz(n_draws: int, seed: int) -> tuple[str, Counter]:
    """sha256 over _slab_witness on random small-grid segment pairs, each
    without outward and with either normal of e, plus the counts of the
    boundary cases the draws covered."""
    rng = random.Random(seed)
    grid = [Fraction(k, 2) for k in range(-4, 5)]
    h = hashlib.sha256()
    seen: Counter = Counter()
    for _ in range(n_draws):
        ea, eb, fa, fb = (pt(rng.choice(grid), rng.choice(grid))
                          for _ in range(4))
        if ea == eb or fa == fb:
            continue
        de = eb - ea
        dd = dot(de, de)
        s0, s1 = dot(fa - ea, de), dot(fb - ea, de)
        seen["slab root at 0"] += s0 == 0 or s0 == dd
        seen["slab root at 1"] += s1 == 0 or s1 == dd
        for outward in (None, Point(de.y, -de.x), Point(-de.y, de.x)):
            res = _slab_witness(ea, eb, Segment(fa, fb), outward)
            h.update(repr(res).encode() + b";")
            seen["hit" if res else "miss"] += 1
            if outward is not None:
                seen["outward-parallel f"] += cross(de, fb - fa) == 0
                seen["outward root at 0 or 1"] += (
                    cross(de, fa - ea) == 0 or cross(de, fb - ea) == 0)
    return h.hexdigest(), seen


def test_slab_witness_fuzz_matches_interval_clip():
    # the digest was recorded with the interval-clip implementation that
    # the closed form replaced
    digest, seen = _slab_fuzz(1500, 20261018)
    assert sum(seen[k] for k in ("hit", "miss")) > 4000
    assert min(seen.values()) > 20, seen
    assert digest == SLAB_FUZZ_DIGEST


def test_polygon_conflict_needs_the_outward_side():
    # rect edge 0 runs along y = 0 with outward normal down: edge 2 lies
    # across its slab but inward, edge 1 only on the slab's boundary
    rect = Polygon([pt(0, 0), pt(4, 0), pt(4, 1), pt(0, 1)])
    assert [polygon_edges_conflict(rect, 0, j) for j in (1, 2, 3)] == \
        [None, None, None]
    assert polygon_is_grr(rect) is None
    u = ushape_polygon()
    assert polygon_edges_conflict(u, 1, 5) is None
    assert polygon_edges_conflict(u, 7, 3) is None
    w = polygon_edges_conflict(u, 3, 7)
    assert (w.p, w.hit) == (pt(2, 2), pt(0, 2))
    w = polygon_edges_conflict(u, 5, 3)
    assert (w.p, w.hit) == (pt(1, 2), pt(2, 2))


def test_conflicting_pairs_fixture_inventory():
    expect = {
        "p_ic": (),
        "star3": (),
        "plus": (),
        "p_acute": ((0, 1),),
        "star4_cross": ((0, 1), (2, 3)),
        "comb": ((0, 2), (0, 4), (1, 3), (1, 4), (2, 3)),
    }
    for name, d in tree_fixture_drawings().items():
        assert conflicting_pairs(d) == expect[name], name


# -- increasing-chord predicates ------------------------------------------------

def test_path_increasing_chord_basics():
    assert path_increasing_chord([pt(0, 0), pt(1, 0), pt(2, 1)])
    assert not path_increasing_chord([pt(0, 0), pt(2, 0), pt(0, 1)])
    assert path_increasing_chord([pt(0, 0), pt(3, 0)])
    # right angles are allowed (weak chord inequality)
    assert path_increasing_chord([pt(0, 0), pt(1, 0), pt(1, 1)])


def test_path_chord_criterion_matches_exhaustive_oracle():
    # hp-criterion verdict == definitional chord check, edge-interior
    # critical points included, over 1000 random short paths
    rng = random.Random(3311)
    agree = 0
    while agree < 1000:
        k = rng.randint(2, 10)
        pts = []
        seen = set()
        while len(pts) < k:
            q = pt(rng.randint(-6, 6), rng.randint(-6, 6))
            if q not in seen:
                seen.add(q)
                pts.append(q)
        assert path_increasing_chord(pts) == chord_property_oracle(pts)
        agree += 1


def test_tree_increasing_chord_fixture_verdicts():
    assert tree_increasing_chord(plus_drawing(), range(4))
    assert not tree_increasing_chord(star4_cross(), range(4))
    # every single edge is trivially increasing-chord
    d = star4_cross()
    for e in range(4):
        assert tree_increasing_chord(d, [e])
    # non-adjacent legs of the cross conflict pairwise
    assert not tree_increasing_chord(d, [0, 1])
    assert tree_increasing_chord(d, [0, 3])


def test_tree_increasing_chord_rejects_disconnected_subsets():
    d = comb_drawing()
    assert not tree_increasing_chord(d, [2, 4])  # two separate teeth
    with pytest.raises(ValueError):
        tree_increasing_chord(d, [])


def test_tree_verdict_equals_all_pairs_path_verdict():
    # Increasing-chord trees are exactly the trees all of whose
    # vertex-to-vertex paths have increasing chords.
    rng = random.Random(5150)
    for _ in range(60):
        d = random_tree_drawing(rng, rng.randint(2, 7))
        edges = range(d.n_edges)
        by_pairs = all(
            path_increasing_chord(tree_path_points(d, edges, a, b))
            for a in d.vertex_ids for b in d.vertex_ids if a < b)
        assert tree_increasing_chord(d, edges) == by_pairs


# -- path families ----------------------------------------------------------------

EAST = [pt(0, 0), pt(2, 0)]
NORTH = [pt(0, 0), pt(0, 2)]
WEST = [pt(0, 0), pt(-2, 0)]
SOUTH = [pt(0, 0), pt(0, -2)]


def test_clockwise_between():
    assert clockwise_between(EAST, SOUTH, WEST)
    assert clockwise_between(EAST, WEST, NORTH)
    assert not clockwise_between(EAST, NORTH, WEST)
    # degenerate sandwich: the middle path may equal a bound
    assert clockwise_between(EAST, EAST, WEST)


def test_clockwise_between_rejects_disjoint_origins():
    with pytest.raises(InvalidPathFamilyError):
        clockwise_between(EAST, [pt(1, 1), pt(2, 2)], WEST)


def test_four_path_union_merges_shared_prefixes():
    # both branch paths reuse the stem edge; the union must not treat the
    # shared prefix as two overlapping edges
    stem = [pt(0, 0), pt(0, 2)]
    left = stem + [pt(-2, 4)]
    right = stem + [pt(2, 4)]
    assert four_path_union_ic(left, right, SOUTH, SOUTH)
    # pulling the branches inward makes the leaf-to-leaf chord shorter
    # than the branch edges, so the same union stops being a single region
    assert not four_path_union_ic(stem + [pt(-1, 4)], stem + [pt(1, 4)],
                                  SOUTH, SOUTH)


def test_four_path_union_detects_bad_union():
    assert not four_path_union_ic(EAST, NORTH,
                                  [pt(0, 0), pt(1, 1)], SOUTH)


def test_four_path_outermost_configuration_plus():
    # split the plus fan into {north} and {east,south,west}: the south leg
    # is interior to the second fan and drops out of the four paths
    assert four_path_union_ic(NORTH, NORTH, EAST, WEST)
    assert tree_increasing_chord(plus_drawing(), range(4))


def test_four_path_outermost_configuration_bent():
    # same split, east leg bent toward north: both fans stay
    # increasing-chord but the union (and the four-path union) is not
    bent = validate_drawing(
        [(0, pt(0, 0)), (1, pt(0, 2)), (2, pt(2, 1)), (3, pt(0, -2)),
         (4, pt(-2, 0))],
        [(0, 1), (0, 2), (0, 3), (0, 4)])
    assert tree_increasing_chord(bent, [0])
    assert tree_increasing_chord(bent, [1, 2, 3])
    north, east, west = [pt(0, 0), pt(0, 2)], [pt(0, 0), pt(2, 1)], [pt(0, 0), pt(-2, 0)]
    assert not four_path_union_ic(north, north, east, west)
    assert not tree_increasing_chord(bent, range(4))


def test_four_path_equals_full_union_on_sweep(two_fan_sweep):
    records = two_fan_sweep["records"]
    assert len(records) >= 1000
    defects = [r["defect"] for r in records if r["defect"]]
    assert defects == []
    assert all(r["four_path"] == r["full_union"] for r in records)
    # the sweep must exercise both verdicts and miss some vertices
    assert sum(r["full_union"] for r in records) >= 100
    assert sum(not r["full_union"] for r in records) >= 100
    assert any(r["strict"] for r in records)


# -- polygon conflicts ------------------------------------------------------------

def test_polygon_conflicts_ushape():
    assert polygon_conflicting_edge_pairs(ushape_polygon()) == \
        ((1, 5), (3, 5), (3, 7))
    w = polygon_is_grr(ushape_polygon())
    assert w is not None and (w.e, w.f) == (3, 5)


def test_polygon_grr_verdicts():
    assert polygon_is_grr(lshape_polygon()) is None
    for name, poly in grr_polygon_fixtures().items():
        assert polygon_is_grr(poly) is None, name


def test_polygon_witnesses_are_sound():
    for poly in (ushape_polygon(),):
        for e, f in polygon_conflicting_edge_pairs(poly):
            ws = [polygon_edges_conflict(poly, e, f),
                  polygon_edges_conflict(poly, f, e)]
            assert any(w is not None for w in ws)
            for w in ws:
                if w is not None:
                    assert {w.e, w.f} == {e, f}
                    assert witness_defects(poly.edge(w.e), poly.edge(w.f), w) == []


def test_adjacent_polygon_edges_do_not_conflict():
    poly = lshape_polygon()
    for e in range(poly.n):
        assert polygon_edges_conflict(poly, e, (e + 1) % poly.n) is None


# -- conflicting triangles ---------------------------------------------------------

def test_triangles_conflict_guards():
    tp = ushape_tp()
    with pytest.raises(SameTriangleError):
        triangles_conflict(tp, 2, 2)
    with pytest.raises(UnknownTriangleError):
        triangles_conflict(tp, 0, 17)


@pytest.mark.parametrize("bad", ["1", 1.0, None, True, False])
def test_conflict_predicates_reject_non_int_indices(bad):
    # bool is an int subclass, but True is no edge number
    d, poly, tp = plus_drawing(), lshape_polygon(), ushape_tp()
    for args in ((bad, 2), (2, bad)):
        with pytest.raises(UnknownEdgeError):
            drawing_edges_conflict(d, *args)
        with pytest.raises(UnknownEdgeError):
            polygon_edges_conflict(poly, *args)
        with pytest.raises(UnknownTriangleError):
            triangles_conflict(tp, *args)


def test_triangles_conflict_ushape():
    tp = ushape_tp()
    # the two arm triangles across the notch conflict; the base pair does not
    assert triangles_conflict(tp, 3, 5)
    assert triangles_conflict(tp, 5, 3)
    assert not triangles_conflict(tp, 0, 1)


# -- greedy tracing -----------------------------------------------------------------

def _strictly_descending(trace, t):
    pts = trace.waypoints
    for a, b in zip(pts, pts[1:]):
        if sq_dist(a, t) <= sq_dist(b, t):
            return False
        # squared distance is quadratic along the segment, so sign checks
        # at both ends certify monotonicity in between
        step = b - a
        if dot(a - t, step) >= 0 or dot(b - t, step) > 0:
            return False
    return True


def test_trace_visible_target_is_one_segment():
    square = Polygon([pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4)])
    tr = trace_greedy_path(square, pt(1, 1), pt(3, 3))
    assert tr.reached and tr.failure_at is None
    assert tr.waypoints == (pt(1, 1), pt(3, 3))


def test_trace_already_at_target():
    square = Polygon([pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4)])
    tr = trace_greedy_path(square, pt(2, 2), pt(2, 2))
    assert tr.reached and tr.waypoints == (pt(2, 2),)


def test_trace_hugs_reflex_corner():
    tr = trace_greedy_path(lshape_polygon(), pt(2, 1), pt(0, 2))
    assert tr.reached
    assert tr.waypoints == (pt(2, 1), pt(1, 1), pt(0, 2))
    assert _strictly_descending(tr, pt(0, 2))


def test_trace_ushape_failure_pair():
    s, t = USHAPE_FAILURE_PAIR
    tr = trace_greedy_path(ushape_polygon(), s, t)
    assert not tr.reached
    assert tr.failure_at == USHAPE_FAILURE_POINT
    assert tr.waypoints[-1] == USHAPE_FAILURE_POINT


def test_trace_rejects_outside_points():
    with pytest.raises(PointOutsidePolygonError):
        trace_greedy_path(lshape_polygon(), pt(5, 5), pt(1, 1))
    with pytest.raises(PointOutsidePolygonError):
        trace_greedy_path(lshape_polygon(), pt(1, 1), pt("3/2", "3/2"))


def test_trace_boundary_endpoints_allowed():
    poly = lshape_polygon()
    tr = trace_greedy_path(poly, pt(2, 0), pt(0, 2))
    assert tr.reached and _strictly_descending(tr, pt(0, 2))


def test_sampled_probes_on_routable_fixtures(trace_probes):
    for name, report in trace_probes.items():
        assert report.success_rate == 1, name
        assert report.monotone_ok, name
        assert report.failures == (), name
