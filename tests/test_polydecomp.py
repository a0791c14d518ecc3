"""Triangulated polygons: dual trees, piece unions, decompositions."""

import hashlib
import math
import random
from fractions import Fraction

import pytest

from conftest import (
    REFLECTIONS,
    SIMILARITIES,
    convex_hexagon_tp,
    lshape_polygon,
    polygon_fixture_tps,
    rect_tp,
    strip_tp,
    two_notch_polygon,
    two_notch_tp,
    ushape_polygon,
    ushape_tp,
)
from grrdecomp import analysis, geometry, polydecomp
from grrdecomp.analysis import (
    polygon_conflicting_edge_pairs,
    polygon_is_grr,
    triangle_strip_hits,
    triangles_conflict,
)
from grrdecomp.errors import (
    BudgetExceededError,
    CrossingDiagonalsError,
    IncompleteTriangulationError,
    InvalidTriangulationError,
    NotCounterclockwiseError,
    NotSimplePolygonError,
    PieceNotSimpleError,
)
from grrdecomp.geometry import Point, Polygon, point_in_polygon, pt
from grrdecomp.oracle import random_triangulated_polygon
from grrdecomp.polydecomp import (
    build_dual_tree,
    conflicting_triangle_pairs,
    decompose_polygon_approx,
    decompose_polygon_exact_small,
    piece_union_polygon,
)


# -- triangulation validation --------------------------------------------------------


def test_dual_tree_of_rect():
    tp = rect_tp()
    assert tp.n_triangles == 2
    assert tp.triangles == ((0, 1, 2), (0, 2, 3))
    assert tp.dual_edges == ((0, 1),)
    assert tp.diagonal_of(0, 1) == (0, 2)


def test_dual_tree_of_ushape():
    tp = ushape_tp()
    assert tp.n_triangles == 6
    assert tp.triangles == ((0, 1, 4), (0, 4, 5), (0, 5, 7),
                            (1, 2, 3), (1, 3, 4), (5, 6, 7))
    assert tp.dual_edges == ((0, 1), (0, 4), (1, 2), (2, 5), (3, 4))
    assert tp.dual_adjacency[0] == (1, 4)
    assert tp.dual_adjacency[5] == (2,)
    # the shared-diagonal lookup ignores argument order
    assert tp.diagonal_of(0, 1) == (0, 4)
    assert tp.diagonal_of(4, 0) == (1, 4)


def test_diagonal_of_rejects_non_adjacent():
    with pytest.raises(InvalidTriangulationError):
        ushape_tp().diagonal_of(1, 3)


@pytest.mark.parametrize("diagonals,err", [
    ([(0, 2), (0, 3)], IncompleteTriangulationError),          # too few
    ([(0, 2), (0, 3), (3, 5), (2, 4)], IncompleteTriangulationError),
    ([(0, 1), (0, 3), (3, 5)], InvalidTriangulationError),     # boundary edge
    ([(0, 2), (2, 0), (3, 5)], InvalidTriangulationError),     # repeat
    ([(0, 9), (0, 3), (3, 5)], InvalidTriangulationError),     # unknown vertex
    ([(2, 2), (0, 3), (3, 5)], InvalidTriangulationError),     # zero length
    ([(7,), (0, 3), (3, 5)], InvalidTriangulationError),       # not a pair
])
def test_bad_diagonal_lists_are_rejected(diagonals, err):
    with pytest.raises(err):
        build_dual_tree(lshape_polygon(), diagonals)


def test_bool_diagonal_end_is_rejected():
    # True == 1, but a bool is no vertex index
    diagonals = [(0, 4), (0, 5), (True, 3), (1, 4), (5, 7)]
    with pytest.raises(InvalidTriangulationError,
                       match=r"^diagonal \(True, 3\) references unknown"):
        build_dual_tree(ushape_polygon(), diagonals)


def test_crossing_diagonals_are_rejected():
    hexagon = convex_hexagon_tp().polygon
    with pytest.raises(CrossingDiagonalsError):
        build_dual_tree(hexagon, [(0, 2), (1, 3), (0, 3)])


def test_diagonal_through_a_vertex_is_rejected():
    # (0, 2) runs through the notch tip, vertex 4 at (2, 2)
    notch = Polygon([pt(0, 0), pt(4, 0), pt(4, 4), pt(3, 4), pt(2, 2),
                     pt(0, 3)])
    with pytest.raises(CrossingDiagonalsError,
                       match=r"^diagonal \(0, 2\) meets boundary edge 3$"):
        build_dual_tree(notch, [(1, 4), (0, 4), (0, 2)])
    with pytest.raises(CrossingDiagonalsError,
                       match=r"^diagonals \(0, 4\) and \(1, 5\) cross$"):
        build_dual_tree(notch, [(1, 4), (0, 4), (1, 5)])


def test_escaping_diagonal_is_rejected():
    # (3, 6) jumps across the notch mouth, outside the polygon
    with pytest.raises(CrossingDiagonalsError,
                       match=r"^diagonal \(3, 6\) leaves the polygon$"):
        build_dual_tree(ushape_polygon(),
                        [(5, 7), (0, 5), (0, 4), (1, 4), (3, 6)])
    # (4, 6) leaves the reflex notch corner 4 into the notch
    with pytest.raises(CrossingDiagonalsError,
                       match=r"^diagonal \(4, 6\) leaves the polygon$"):
        build_dual_tree(ushape_polygon(),
                        [(5, 7), (0, 5), (0, 4), (1, 4), (4, 6)])


def test_dual_tree_build_locates_no_points(count_calls):
    calls = count_calls(geometry, "point_in_polygon", polydecomp)
    tp = build_dual_tree(two_notch_polygon(), two_notch_tp().diagonals)
    assert tp.n_triangles == 10
    assert calls() == 0


def test_fan_dual_tree_decides_contacts_on_the_lattice(count_calls):
    # every fan diagonal's bounding box holds the boundary edges it spans
    n = 300
    fan = Polygon(pt(i, i * i) for i in range(n))
    meets = count_calls(geometry, "segment_intersection", polydecomp)
    sweeps = count_calls(geometry, "improper_contact", polydecomp)
    cones = count_calls(polydecomp, "_in_cone")
    tp = build_dual_tree(fan, [(0, k) for k in range(2, n - 1)])
    assert tp.n_triangles == n - 2
    # a valid triangulation is accepted by orientation alone
    assert (meets(), sweeps(), cones()) == (0, 0, 0)
    # a rejected one runs the sweep to name its fault
    with pytest.raises(CrossingDiagonalsError,
                       match=r"^diagonals \(0, 2\) and \(1, 298\) cross$"):
        build_dual_tree(fan, [(0, k) for k in range(2, n - 2)] + [(1, 298)])
    assert (meets(), sweeps()) == (0, 1)


def test_triangle_polygon_has_no_diagonals():
    tp = build_dual_tree(Polygon([pt(0, 0), pt(2, 0), pt(0, 2)]), [])
    assert tp.n_triangles == 1
    assert tp.dual_edges == ()
    assert decompose_polygon_exact_small(tp).size == 1
    assert decompose_polygon_approx(tp).size == 1


def test_dual_tree_of_a_thousand_vertex_fan():
    # vertex 0's fan holds every triangle; the dual tree is a path
    n = 1000
    fan = Polygon(pt(i, i * i) for i in range(n))
    tp = build_dual_tree(fan, [(0, k) for k in range(2, n - 1)])
    assert tp.triangles == tuple((0, k, k + 1) for k in range(1, n - 1))
    assert tp.dual_edges == tuple((k, k + 1) for k in range(n - 3))
    assert tp.preorder == tuple(range(n - 2))
    assert tp.size == tuple(range(n - 2, 0, -1))


# -- conflicting triangles ------------------------------------------------------------


FIXTURE_TRIANGLE_CONFLICTS = {
    "rect": (),
    "lshape": (),
    "hexagon": (),
    "fan": (),
    "ushape": ((2, 3), (2, 4), (3, 5), (4, 5)),
    "two_notch": ((3, 6), (3, 7), (3, 8), (4, 7), (4, 8), (4, 9),
                  (6, 7), (6, 8), (6, 9), (7, 9), (8, 9)),
}


def test_conflicting_triangle_inventory():
    for name, tp in polygon_fixture_tps().items():
        assert conflicting_triangle_pairs(tp) == \
            FIXTURE_TRIANGLE_CONFLICTS[name], name


def _coprime_two_notch():
    """two_notch with every coordinate moved by 1/p for its own prime p
    near 10**6, so the lattice scale is the product of 24 primes, and
    the same polygon scaled by that product to integers."""
    primes = [1000003, 1000033, 1000037, 1000039, 1000081, 1000099,
              1000117, 1000121, 1000133, 1000151, 1000159, 1000171,
              1000183, 1000187, 1000193, 1000199, 1000211, 1000213,
              1000231, 1000249, 1000253, 1000273, 1000289, 1000291]
    base = two_notch_tp()
    pts = [pt(p.x + Fraction(1, primes[2 * k]),
              p.y - Fraction(1, primes[2 * k + 1]))
           for k, p in enumerate(base.polygon.points)]
    scale = math.prod(primes)
    fine = build_dual_tree(Polygon(pts), base.diagonals)
    whole = build_dual_tree(Polygon(pt(p.x * scale, p.y * scale)
                                    for p in pts), base.diagonals)
    return fine, whole


def test_conflicts_with_coprime_denominators_match_the_scaled_copy():
    fine, whole = _coprime_two_notch()
    expected = ((0, 6), (1, 6), (2, 6), (2, 7), (2, 8), (3, 6), (3, 7),
                (3, 8), (4, 7), (4, 8), (4, 9), (5, 6), (6, 7), (6, 8),
                (6, 9), (7, 9), (8, 9))
    assert conflicting_triangle_pairs(fine) == expected
    assert conflicting_triangle_pairs(whole) == expected


def test_triangle_conflicts_build_no_points(count_calls):
    tp = strip_tp(20, rise=2)
    assert tp.n_triangles == 40
    built = count_calls(Point, "__post_init__")
    pairs = conflicting_triangle_pairs(tp)
    assert built() == 0
    assert len(pairs) == 213


@pytest.fixture(scope="module")
def random_tps():
    """40 seeded random triangulated polygons of 1 to 30 triangles."""
    rng = random.Random(2020)
    return [random_triangulated_polygon(rng, rng.randint(1, 30))
            for _ in range(40)]


# sha256 over conflicting_triangle_pairs of the random_tps polygons,
# recorded with the per-pair triangles_conflict scan that the strip rows
# replaced
TRIANGLE_CONFLICT_DIGEST = (
    "67f3537145d984a436678bc2c4544053cdc04a5b077b64950c4d041037e42227")


def test_triangle_conflicts_match_recorded_corpus(random_tps):
    h = hashlib.sha256()
    for tp in random_tps:
        h.update(repr(conflicting_triangle_pairs(tp)).encode() + b";")
    assert h.hexdigest() == TRIANGLE_CONFLICT_DIGEST


@pytest.fixture(scope="module")
def diagonal_sets(random_tps):
    """50 seeded diagonal sets on each random_tps polygon: its own
    diagonals with up to two replaced by other non-boundary diagonals,
    shuffled, each written in a drawn end order."""
    rng = random.Random(21)
    out = []
    for tp in random_tps:
        n = tp.polygon.n
        others = [(a, b) for a in range(n) for b in range(a + 2, n)
                  if (a, b) != (0, n - 1)]
        for _ in range(50):
            ds = list(tp.diagonals)
            for _ in range(rng.choice((0, 1, 1, 2))):
                if ds:
                    taken = set(ds)
                    free = [d for d in others if d not in taken]
                    ds[rng.randrange(len(ds))] = rng.choice(free)
            rng.shuffle(ds)
            out.append((tp.polygon, [(b, a) if rng.random() < 0.5 else (a, b)
                                     for a, b in ds]))
    return out


def _swept_fault(poly, ds):
    """The message of the first fault that the contact sweep over the
    boundary and the diagonals, then the cone test, finds; or None."""
    n, lat = poly.n, poly.lattice
    canon = [(min(d), max(d)) for d in ds]
    bad = geometry.improper_contact(
        lat, [(i, (i + 1) % n) for i in range(n)] + canon)
    if bad is not None:
        i, j = bad
        if i < n:
            return f"diagonal {canon[j - n]} meets boundary edge {i}"
        return f"diagonals {canon[i - n]} and {canon[j - n]} cross"
    for d in canon:
        if not polydecomp._in_cone(lat, *d):
            return f"diagonal {d} leaves the polygon"
    return None


def test_orientation_accepts_exactly_what_the_sweep_passes(diagonal_sets):
    outcomes = dict.fromkeys(("accepted", "meets", "cross", "leaves"), 0)
    for poly, ds in diagonal_sets:
        fault = _swept_fault(poly, ds)
        try:
            build_dual_tree(poly, ds)
        except CrossingDiagonalsError as e:
            assert str(e) == fault
            outcomes[next(k for k in outcomes if k in fault)] += 1
        else:
            assert fault is None
            outcomes["accepted"] += 1
    assert sum(outcomes.values()) == 2000
    assert min(outcomes.values()) > 50, outcomes


def _dual_tree_outcome(poly, ds):
    try:
        tp = build_dual_tree(poly, ds)
    except CrossingDiagonalsError as e:
        return str(e)
    return tp.triangles, tp.dual_edges, conflicting_triangle_pairs(tp)


def test_dual_trees_are_similarity_invariant(diagonal_sets):
    # rotations keep every index, so outcomes compare directly
    images = {}
    compared = 0
    for poly, ds in diagonal_sets[::4]:
        if poly not in images:
            images[poly] = [Polygon(m(p) for p in poly.points)
                            for m in SIMILARITIES]
        want = _dual_tree_outcome(poly, ds)
        for image in images[poly]:
            assert _dual_tree_outcome(image, ds) == want
            compared += 1
    assert compared == 1000


def _unlabelled_outcome(poly, ds, back):
    """The conflicting boundary edge pairs, and "rejected" or the
    triangles, dual edges and conflicting triangle pairs of ds, with
    vertex v read as back[v] and each edge or triangle named by its
    vertices."""
    n = poly.n
    edges = [frozenset((back[e], back[(e + 1) % n])) for e in range(n)]
    edge_pairs = {frozenset((edges[e], edges[f]))
                  for e, f in polygon_conflicting_edge_pairs(poly)}
    try:
        tp = build_dual_tree(poly, ds)
    except CrossingDiagonalsError:
        return edge_pairs, "rejected"
    tri = [frozenset(back[v] for v in t) for t in tp.triangles]
    dual, conflicts = ({frozenset((tri[i], tri[j])) for i, j in pairs}
                       for pairs in (tp.dual_edges,
                                     conflicting_triangle_pairs(tp)))
    return edge_pairs, (set(tri), dual, conflicts)


def test_polygons_are_reflection_invariant(diagonal_sets):
    # a mirror image is listed backwards to stay counterclockwise, so its
    # vertex v is vertex -v mod n: a triangle's vertices and a boundary
    # edge's ends come in the other order, which the rotations never show
    compared = rejected = 0
    for poly, ds in diagonal_sets[1::16]:
        back = [-v % poly.n for v in range(poly.n)]
        want = _unlabelled_outcome(poly, ds, range(poly.n))
        for m in REFLECTIONS:
            image = Polygon(m(poly.points[v]) for v in back)
            got = _unlabelled_outcome(
                image, [(back[a], back[b]) for a, b in ds], back)
            assert got == want
            compared += 1
            rejected += got[1] == "rejected"
    assert compared == 250 and 0 < rejected < compared


def test_strip_rows_match_the_per_pair_test(polygon_corpus, random_tps):
    tps = [rec["tp"] for rec in polygon_corpus] + random_tps
    tps += [strip_tp(20, rise=2), *_coprime_two_notch()]
    tps += polygon_fixture_tps().values()
    conflicts = 0
    for tp in tps:
        nt = tp.n_triangles
        hits = list(triangle_strip_hits(tp))
        # a strip of i reaches j, and no pair comes twice
        assert all(analysis._strips_reach(tp, i, j) for i, j in hits)
        pairs = sorted((min(p), max(p)) for p in hits)
        assert len(set(pairs)) == len(pairs)
        want = [(i, j) for i in range(nt) for j in range(i + 1, nt)
                if triangles_conflict(tp, i, j)]
        assert pairs == want
        assert conflicting_triangle_pairs(tp) == tuple(want)
        conflicts += len(want)
    assert max(tp.n_triangles for tp in random_tps) >= 28
    assert conflicts > 3000


def test_triangle_conflicts_walk_no_dual_path(count_calls):
    tp = strip_tp(20, rise=2)
    tests = count_calls(analysis, "triangles_conflict", polydecomp)
    steps = count_calls(analysis, "_dual_step_toward")
    assert len(conflicting_triangle_pairs(tp)) == 213
    assert (tests(), steps()) == (0, 0)
    # the counters see the per-pair test
    analysis.triangles_conflict(tp, 0, 39)
    assert tests() == 1 and steps() >= 1


# -- piece unions ---------------------------------------------------------------------


def test_union_of_all_triangles_recovers_the_polygon():
    for name, tp in polygon_fixture_tps().items():
        whole = piece_union_polygon(tp, range(tp.n_triangles))
        assert whole.points == tp.polygon.points, name


def test_union_of_adjacent_pair_is_a_quad():
    tp = ushape_tp()
    quad = piece_union_polygon(tp, {0, 1})
    assert quad.n == 4


@pytest.mark.parametrize("piece", [
    (),        # empty
    (0, 2),    # triangles touching at one vertex only
    (3, 5),    # triangles with no shared vertex
])
def test_non_simple_pieces_are_rejected(piece):
    with pytest.raises(PieceNotSimpleError):
        piece_union_polygon(ushape_tp(), piece)


def test_unknown_triangle_in_piece_is_rejected():
    with pytest.raises(InvalidTriangulationError):
        piece_union_polygon(ushape_tp(), {0, 99})


def test_bool_triangle_in_piece_is_rejected():
    # True == 1, but a bool is no triangle id
    with pytest.raises(InvalidTriangulationError,
                       match=r"^no triangle True$"):
        piece_union_polygon(ushape_tp(), [True, 0])


def test_mixed_type_piece_is_rejected():
    # ids of mixed types do not sort: the type is checked first
    with pytest.raises(InvalidTriangulationError,
                       match=r"^no triangle '1'$"):
        piece_union_polygon(ushape_tp(), [0, "1"])


# -- decompositions -------------------------------------------------------------------


FIXTURE_PIECE_COUNTS = {
    "rect": 1,
    "lshape": 1,
    "hexagon": 1,
    "fan": 1,
    "ushape": 2,
    "two_notch": 3,
}


def check_decomposition(tp, dec):
    got = sorted(t for piece in dec.pieces for t in piece)
    assert got == list(range(tp.n_triangles))
    for piece in dec.pieces:
        assert polygon_is_grr(piece_union_polygon(tp, piece)) is None


def test_fixture_piece_counts_are_stable():
    for name, tp in polygon_fixture_tps().items():
        exact = decompose_polygon_exact_small(tp)
        approx = decompose_polygon_approx(tp)
        assert exact.size == FIXTURE_PIECE_COUNTS[name], name
        assert approx.size <= 2 * exact.size - 1, name
        check_decomposition(tp, exact)
        check_decomposition(tp, approx)


def test_ushape_cut_severs_a_notch_diagonal():
    dec = decompose_polygon_exact_small(ushape_tp())
    assert dec.size == 2
    assert dec.cut_diagonals == frozenset({(0, 4)})


def test_two_notch_cut_diagonals():
    dec = decompose_polygon_exact_small(two_notch_tp())
    assert dec.size == 3
    assert dec.cut_diagonals == frozenset({(0, 5), (0, 8)})


def test_exact_budget_guard_and_approx_scaling():
    tp = strip_tp(14)
    assert tp.n_triangles == 28
    with pytest.raises(BudgetExceededError):
        decompose_polygon_exact_small(tp)
    # the approximation has no such budget, and a convex strip is one piece
    assert decompose_polygon_approx(tp).size == 1


def test_exact_matches_brute_force_on_corpus(polygon_corpus):
    for rec in polygon_corpus:
        assert rec["exact"].size == rec["exact_size"]


def test_decompositions_are_valid_on_corpus(polygon_corpus):
    for rec in polygon_corpus:
        check_decomposition(rec["tp"], rec["exact"])
        check_decomposition(rec["tp"], rec["approx"])
        assert rec["approx"].size <= 2 * rec["exact"].size - 1


# -- attached ears keep a conflict alive ----------------------------------------------


def test_random_ears_keep_ushape_unroutable():
    # glue a triangle onto a boundary edge, apex outside: the notch
    # conflict must survive every such extension
    base = ushape_polygon()
    rng = random.Random(4242)
    built = 0
    attempts = 0
    edges_touched = set()
    while built < 40 and attempts < 4000:
        attempts += 1
        i = rng.randrange(base.n)
        u = base.points[i]
        v = base.points[(i + 1) % base.n]
        direction = v - u
        outward = Point(direction.y, -direction.x)
        along = Fraction(rng.randint(1, 7), 8)
        away = Fraction(rng.randint(1, 8), 8)
        w = u + along * direction + away * outward
        if point_in_polygon(base, w) != "outside":
            continue
        grown_points = list(base.points)
        grown_points.insert(i + 1, w)
        try:
            grown = Polygon(grown_points)
        except (NotSimplePolygonError, NotCounterclockwiseError):
            continue
        built += 1
        edges_touched.add(i)
        assert polygon_is_grr(grown) is not None, (i, w)
    assert built >= 40
    assert len(edges_touched) == base.n
