"""Exact-arithmetic geometry primitives."""

import math
from fractions import Fraction

import pytest

from conftest import segment_contact
from grrdecomp import geometry
from grrdecomp.errors import NotCounterclockwiseError, NotSimplePolygonError
from grrdecomp.geometry import (
    LatticePoint,
    Point,
    Polygon,
    Segment,
    cross,
    dot,
    frac,
    hp,
    improper_contact,
    in_hp,
    on_segment,
    orientation,
    point_in_polygon,
    pt,
    segment_intersection,
    sq_dist,
    strip_meets_open_triangle,
)


def test_frac_accepts_exact_forms():
    assert frac(3) == 3
    assert frac("2/7") == Fraction(2, 7)
    assert frac("1.25") == Fraction(5, 4)
    assert frac(Fraction(-4, 6)) == Fraction(-2, 3)


@pytest.mark.parametrize("bad", [0.5, 1.0, True, False])
def test_frac_rejects_inexact_forms(bad):
    with pytest.raises(TypeError):
        frac(bad)


def test_frac_bounds_the_decimal_exponent():
    assert frac("1e4300") == 10 ** 4300
    assert frac("-2.5E-4300") == Fraction(-5, 2 * 10 ** 4300)
    for bad in ("1e4301", "1E-4301", "1e999_999_999", " 3.5e+99999 "):
        with pytest.raises(ValueError, match="decimal exponent beyond 4300"):
            frac(bad)


def test_point_arithmetic_stays_rational():
    p = pt("1/3", 2) + pt(1, "1/2") * Fraction(2)
    assert p == pt("7/3", 3)
    assert (pt(5, 1) - pt(2, 1)).x == 3
    assert sq_dist(pt(0, 0), pt("3/5", "4/5")) == 1


def test_orientation_signs():
    a, b = pt(0, 0), pt(4, 0)
    assert orientation(a, b, pt(1, 3)) > 0
    assert orientation(a, b, pt(1, -3)) < 0
    assert orientation(a, b, pt(9, 0)) == 0
    assert cross(pt(1, 0), pt(0, 1)) == 1
    assert dot(pt(1, 2), pt(3, -1)) == 1


def test_on_segment():
    seg = Segment(pt(0, 0), pt(4, 2))
    assert on_segment(pt(2, 1), seg)
    assert on_segment(pt(0, 0), seg) and on_segment(pt(4, 2), seg)
    assert not on_segment(pt(6, 3), seg)       # past the end
    assert not on_segment(pt(2, 2), seg)       # off the carrier line
    degenerate = Segment(pt(1, 1), pt(1, 1))
    assert on_segment(pt(1, 1), degenerate)
    assert not on_segment(pt(1, 2), degenerate)


def test_segment_intersection_point():
    s1 = Segment(pt(0, 0), pt(4, 4))
    s2 = Segment(pt(0, 4), pt(4, 0))
    assert segment_intersection(s1, s2) == pt(2, 2)
    assert segment_intersection(s1, Segment(pt(5, 0), pt(5, 9))) is None


def test_segment_intersection_shared_endpoint_only():
    s1 = Segment(pt(0, 0), pt(2, 0))
    s2 = Segment(pt(2, 0), pt(3, 5))
    assert segment_intersection(s1, s2) == pt(2, 0)


def test_segment_intersection_collinear_cases():
    s1 = Segment(pt(0, 0), pt(4, 0))
    overlap = segment_intersection(s1, Segment(pt(6, 0), pt(2, 0)))
    assert overlap == Segment(pt(2, 0), pt(4, 0))  # oriented along s1
    assert segment_intersection(s1, Segment(pt(5, 0), pt(9, 0))) is None
    touch = segment_intersection(s1, Segment(pt(4, 0), pt(7, 0)))
    assert touch == pt(4, 0)


def test_segment_intersection_boxes_touching_at_one_coordinate():
    # shared endpoint: the boxes meet only where x = 2
    s1 = Segment(pt(0, 0), pt(2, 1))
    s2 = Segment(pt(2, 1), pt(5, -3))
    assert segment_intersection(s1, s2) == pt(2, 1)
    assert segment_intersection(s2, s1) == pt(2, 1)
    # boxes touch along x = 2 but the segments miss each other
    assert segment_intersection(s1, Segment(pt(2, 0), pt(4, -2))) is None


def test_segment_intersection_collinear_end_to_end():
    s1 = Segment(pt(0, 0), pt(2, 2))
    s2 = Segment(pt(2, 2), pt(5, 5))
    assert segment_intersection(s1, s2) == pt(2, 2)
    assert segment_intersection(s2, s1) == pt(2, 2)
    assert segment_intersection(s1, Segment(pt(3, 3), pt(5, 5))) is None


def test_segment_intersection_axis_parallel():
    # zero-width and zero-height boxes
    vertical = Segment(pt(1, 0), pt(1, 4))
    horizontal = Segment(pt(0, 2), pt(3, 2))
    assert segment_intersection(vertical, horizontal) == pt(1, 2)
    assert segment_intersection(vertical, Segment(pt(1, 4), pt(1, 6))) == \
        pt(1, 4)
    assert segment_intersection(vertical, Segment(pt(1, 1), pt(1, 3))) == \
        Segment(pt(1, 1), pt(1, 3))
    assert segment_intersection(vertical, Segment(pt(2, 0), pt(2, 4))) is None
    assert segment_intersection(horizontal, Segment(pt(0, 3), pt(3, 3))) is None
    assert segment_intersection(vertical, Segment(pt(1, 5), pt(1, 6))) is None


def test_segment_intersection_disjoint_with_overlapping_boxes():
    s1 = Segment(pt(0, 0), pt(4, 4))
    assert segment_intersection(s1, Segment(pt(3, 0), pt(4, 2))) is None
    assert segment_intersection(s1, Segment(pt(0, 1), pt(1, 4))) is None
    assert segment_intersection(s1, Segment(pt(1, 0), pt(4, 3))) is None


def _seg(x1, y1, x2, y2):
    return Segment(pt(x1, y1), pt(x2, y2))


def test_improper_contact_vertical_segments_with_tied_x():
    low, high, far = _seg(1, 0, 1, 2), _seg(1, 2, 1, 4), _seg(1, 5, 1, 6)
    assert segment_contact([low, high, far]) is None
    assert segment_contact([low, far, _seg(1, 1, 1, 3)]) == (
        0, 2, _seg(1, 1, 1, 2))
    # closed x-ranges that only touch are still tested
    assert segment_contact([_seg(0, 0, 1, 2), _seg(2, 0, 3, 0),
                            _seg(1, 0, 1, 3)]) == (0, 2, pt(1, 2))


def test_improper_contact_at_a_common_endpoint():
    base = _seg(0, 0, 2, 0)
    assert segment_contact([base, _seg(0, 0, -1, 0)]) is None
    assert segment_contact([base, _seg(0, 0, 1, 1)]) is None
    assert segment_contact([base, _seg(2, 0, 1, 0)]) == (
        0, 1, _seg(1, 0, 2, 0))
    assert segment_contact([_seg(0, 0, 1, 0), base]) == (
        0, 1, _seg(0, 0, 1, 0))
    # two common endpoints: the same segment
    assert segment_contact([base, _seg(2, 0, 0, 0)]) == (0, 1, base)


def test_improper_contact_t_junction_returns_the_crossing_point():
    assert segment_contact([_seg(0, 0, 4, 0), _seg(2, 0, 2, 3)]) == (
        0, 1, pt(2, 0))
    assert segment_contact([_seg(2, 3, 2, 0), _seg(4, 0, 0, 0)]) == (
        0, 1, pt(2, 0))


def test_improper_contact_names_the_smallest_pair():
    # the sweep meets the crossing of 1 and 2 first; (0, 3) is smaller
    segs = [_seg(10, 0, 12, 2), _seg(0, 0, 2, 2), _seg(0, 2, 2, 0),
            _seg(10, 2, 12, 0)]
    assert segment_contact(segs) == (0, 3, pt(11, 1))
    assert segment_contact(segs[1:3]) == (0, 1, pt(1, 1))
    assert segment_contact([]) is None


def test_improper_contact_names_the_smallest_same_direction_pair():
    # legs 1 and 4 leave the centre along one ray, as do legs 2 and 5;
    # leg 3 is collinear with leg 0 but points the other way
    legs = [_seg(0, 0, 2, 0), _seg(0, 0, 1, 1), _seg(0, 0, 0, 3),
            _seg(-4, 0, 0, 0), _seg(3, 3, 0, 0), _seg(0, 0, 0, 1)]
    assert segment_contact(legs) == (1, 4, _seg(0, 0, 1, 1))
    assert segment_contact(legs[:4]) is None
    # a crossing away from the centre, before the legs and after them
    crossing = [_seg(10, 0, 12, 2), _seg(10, 2, 12, 0)]
    assert segment_contact(crossing + legs) == (0, 1, pt(11, 1))
    assert segment_contact(legs + crossing)[:2] == (1, 4)


def test_improper_contact_names_a_duplicated_segment():
    base = _seg(0, 0, 3, 1)
    others = [_seg(5, 5, 6, 5), _seg(3, 1, 4, 4)]
    assert segment_contact([base, *others]) is None
    assert segment_contact([base, *others, base]) == (0, 3, base)
    assert segment_contact([base, *others, _seg(3, 1, 0, 0)]) == (0, 3, base)
    # the same two vertex keys, in either order
    lat = {0: LatticePoint(0, 0), 1: LatticePoint(3, 1), 2: LatticePoint(4, 4)}
    assert improper_contact(lat, [(0, 1), (1, 2), (1, 0)]) == (0, 2)
    assert improper_contact(lat, [(1, 2), (0, 1), (0, 1)]) == (1, 2)


def test_improper_contact_tests_no_pair_with_a_common_end(monkeypatch):
    # 200 legs around the centre, each with a second edge straight on:
    # every two legs share the centre, and the pair test sees none of them
    lat = {0: LatticePoint(0, 0)}
    pairs = []
    for k in range(200):
        theta = 2 * math.pi * k / 200
        tip = LatticePoint(round(1000 * math.cos(theta)),
                           round(1000 * math.sin(theta)))
        lat[2 * k + 1], lat[2 * k + 2] = tip, LatticePoint(2 * tip.x,
                                                           2 * tip.y)
        pairs += [(0, 2 * k + 1), (2 * k + 1, 2 * k + 2)]
    common = []
    real = geometry._improper_pair

    def recording(a, b, c, d):
        common.append({a, b} & {c, d})
        return real(a, b, c, d)

    monkeypatch.setattr(geometry, "_improper_pair", recording)
    assert improper_contact(lat, pairs) is None
    assert common and not any(common)
    # an edge from the centre to the end of leg 17 overlaps both its edges
    assert improper_contact(lat, pairs + [(0, 36)]) == (34, 400)
    assert not any(common)


def test_halfplane_predicate():
    h = hp(pt(0, 0), pt(2, 0))
    assert in_hp(h, pt(2, 0))      # boundary counts
    assert in_hp(h, pt(10, -3))
    assert not in_hp(h, pt(1, 0))
    assert (h.n, h.c) == (pt(2, 0), 4)
    slanted = hp(pt(1, 1), pt("3/2", 3))      # beyond (3/2, 3), looking up
    assert in_hp(slanted, pt(0, "27/8"))        # on the boundary line
    assert not in_hp(slanted, pt(0, 3))
    with pytest.raises(ValueError):
        hp(pt(1, 1), pt(1, 1))


# (triangle, reaches) against the strip of _strip_reaches
HALFSTRIP_CONTACTS = [
    # a strip side through a triangle vertex only
    ((pt(2, 1), pt(4, 0), pt(4, 2)), False),
    ((pt(2, -1), pt(3, -3), pt(1, -3)), False),
    ((pt(2, 1), pt(1, 3), pt(0, 2)), True),
    # a triangle edge lying on a strip side
    ((pt(2, 1), pt(4, 2), pt(2, 3)), False),
    ((pt(0, 0), pt(1, -1), pt(2, 0)), False),
    ((pt(2, 1), pt(2, 3), pt(1, 2)), True),
    ((pt(0, 0), pt(2, 0), pt(1, 1)), True),
    # a triangle touching a base corner only
    ((pt(2, 0), pt(3, -2), pt(4, -1)), False),
    ((pt(0, 0), pt(-2, -1), pt(-1, 1)), False),
    ((pt(2, 0), pt(1, 2), pt(-1, -1)), True),
    # a triangle on the away side touching the base at one inner point
    ((pt(1, 0), pt(0, -2), pt(2, -2)), False),
    # the base collinear with a triangle edge
    ((pt(1, 0), pt(4, 0), pt(3, 2)), True),
    ((pt(3, 0), pt(5, 0), pt(4, 1)), False),
    ((pt(1, 0), pt(-1, 0), pt(0, -1)), False),
    ((pt(-1, 0), pt(3, 0), pt(1, -2)), False),
]


def _strip_reaches(tri) -> bool:
    """Does the strip swept from base (0,0)-(2,0) away from (1,-1) meet
    the open triangle tri? Decided on tri turned counterclockwise, once on
    Fraction pairs and once on int pairs, which must agree."""
    t0, t1, t2 = tri
    if orientation(t0, t1, t2) < 0:
        t1, t2 = t2, t1
    pairs = [(p.x, p.y) for p in (pt(0, 0), pt(2, 0), pt(1, -1), t0, t1, t2)]
    verdict = strip_meets_open_triangle(*pairs)
    ints = [(int(x), int(y)) for x, y in pairs]
    assert strip_meets_open_triangle(*ints) is verdict
    return verdict


def test_halfstrip_triangle_reach():
    inside = (pt(0, 1), pt(3, 1), pt(1, 3))
    # triangle touching the strip only along its right wall: no interior point
    wall = (pt(2, 1), pt(4, 1), pt(2, 3))
    # entirely on the away side
    below = (pt(0, -1), pt(2, -1), pt(1, -3))
    cases = [(inside, True), (wall, False), (below, False)]
    for tri, reaches in cases + HALFSTRIP_CONTACTS:
        for k in range(3):
            rot = tri[k:] + tri[:k]
            assert _strip_reaches(rot) is reaches, tri
            assert _strip_reaches(rot[::-1]) is reaches, tri


def test_polygon_validation():
    Polygon([pt(0, 0), pt(2, 0), pt(2, 2), pt(0, 2)])
    with pytest.raises(NotCounterclockwiseError):
        Polygon([pt(0, 0), pt(0, 2), pt(2, 2), pt(2, 0)])
    with pytest.raises(NotSimplePolygonError):
        Polygon([pt(0, 0), pt(2, 2), pt(2, 0), pt(0, 2)])     # bowtie
    with pytest.raises(NotSimplePolygonError):
        Polygon([pt(0, 0), pt(2, 0), pt(2, 2), pt(0, 0), pt(0, 2), pt(-1, 1)])
    with pytest.raises(NotSimplePolygonError):
        Polygon([pt(0, 0), pt(1, 0)])
    # vertex 4 lies on edge 1, so edges 3 and 4 both touch it there;
    # the message names the smaller pair
    with pytest.raises(NotSimplePolygonError,
                       match=r"^boundary edges 1 and 3 intersect at \(3, 0\)$"):
        Polygon([pt(0, 0), pt(2, 0), pt(4, 0), pt(4, 2), pt(3, 0), pt(0, 2)])
    with pytest.raises(NotSimplePolygonError,
                       match=r"^boundary edges 0 and 1 overlap$"):
        Polygon([pt(0, 0), pt(4, 0), pt(2, 0), pt(2, 2)])


def test_polygon_edges():
    poly = Polygon([pt(0, 0), pt(3, 0), pt(0, 3)])
    assert poly.n == 3
    assert poly.edge(2) == Segment(pt(0, 3), pt(0, 0))


def test_point_in_polygon():
    poly = Polygon([pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4)])
    assert point_in_polygon(poly, pt(2, 2)) == "inside"
    assert point_in_polygon(poly, pt(4, 2)) == "boundary"
    assert point_in_polygon(poly, pt(0, 0)) == "boundary"
    assert point_in_polygon(poly, pt(5, 2)) == "outside"
    assert point_in_polygon(poly, pt(2, -1)) == "outside"


def test_point_in_polygon_concave():
    from grrdecomp.fixtures import ushape_polygon

    poly = ushape_polygon()
    assert point_in_polygon(poly, pt("3/2", 2)) == "outside"  # inside the notch
    assert point_in_polygon(poly, pt("1/2", 2)) == "inside"
    assert point_in_polygon(poly, pt(1, 2)) == "boundary"
