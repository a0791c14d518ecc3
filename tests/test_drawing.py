"""Drawing validation, rotation order, rooting, and subdivision."""

import functools
import hashlib
import random
from fractions import Fraction

import pytest

from grrdecomp import drawing, geometry, treedecomp
from grrdecomp.drawing import (
    clockwise_order,
    components,
    default_root,
    root_tree,
    subdivide,
    validate_drawing,
)
from conftest import sawtooth
from grrdecomp.errors import (
    BudgetExceededError,
    CrossingEdgesError,
    GRRError,
    DuplicateEdgeError,
    DuplicateVertexError,
    NotATreeError,
    OverlappingEdgesError,
    RootNotDegreeOneError,
    UnknownVertexError,
    ZeroLengthEdgeError,
)
from grrdecomp.fixtures import comb_drawing, p_ic, plus_drawing, star4_cross
from grrdecomp.formats import serialize_drawing
from grrdecomp.geometry import pt
from grrdecomp.oracle import random_tree_drawing
from grrdecomp.treedecomp import min_gtd_exact, validate_partition


def _v(*coords):
    return [(i, pt(x, y)) for i, (x, y) in enumerate(coords)]


def test_validate_drawing_accepts_a_tree():
    d = validate_drawing(_v((0, 0), (2, 0), (2, 2)), [(0, 1), (1, 2)])
    assert d.n_vertices == 3 and d.n_edges == 2
    assert d.other_endpoint(0, 0) == 1
    assert d.segment(1).a == pt(2, 0)


def test_duplicate_vertex_messages_name_the_first_repeat():
    # vertex by vertex, the id is checked before the position
    with pytest.raises(DuplicateVertexError, match=r"^vertex id 0 repeated$"):
        validate_drawing([(0, pt(0, 0)), (0, pt(0, 0))], [])
    with pytest.raises(DuplicateVertexError,
                       match=r"^vertices 0 and 2 share position \(1/2, -3\)$"):
        validate_drawing([(0, pt("1/2", -3)), (1, pt(1, 0)),
                          (2, pt(Fraction(2, 4), "-6/2")), (1, pt(5, 5))], [])


@pytest.mark.parametrize("vertices,edges,err", [
    ([(0, pt(0, 0)), (0, pt(1, 0))], [], DuplicateVertexError),
    ([(0, pt(0, 0)), (1, pt(0, 0))], [], DuplicateVertexError),
    (_v((0, 0), (1, 0)), [(0, 2)], UnknownVertexError),
    (_v((0, 0), (1, 0)), [(0, 0)], ZeroLengthEdgeError),
    (_v((0, 0), (1, 0)), [(0, 1), (1, 0)], DuplicateEdgeError),
    (_v((0, 0), (2, 2), (0, 2), (2, 0)), [(0, 1), (2, 3)], CrossingEdgesError),
    (_v((0, 0), (2, 0), (1, 0), (3, 0)), [(0, 1), (2, 3)], OverlappingEdgesError),
])
def test_validate_drawing_rejections(vertices, edges, err):
    with pytest.raises(err):
        validate_drawing(vertices, edges)


def test_edges_may_touch_at_shared_endpoint_only():
    # collinear through a shared vertex is fine; crossing elsewhere is not
    d = validate_drawing(_v((0, 0), (1, 0), (2, 0)), [(0, 1), (1, 2)])
    assert d.n_edges == 2
    with pytest.raises(CrossingEdgesError):
        validate_drawing(_v((0, 0), (2, 0), (1, -1), (1, 1)),
                         [(0, 1), (2, 3)])


def test_crossing_message_names_the_smallest_edge_pair():
    # edges 1 and 2 cross at the left, 0 and 3 at the right
    with pytest.raises(CrossingEdgesError,
                       match=r"^edges 0 and 3 cross at \(11, 1\)$"):
        validate_drawing(_v((10, 0), (12, 2), (0, 0), (2, 2), (0, 2), (2, 0),
                            (10, 2), (12, 0)),
                         [(0, 1), (2, 3), (4, 5), (6, 7)])


def test_validate_drawing_skips_pairs_apart_in_x(count_calls):
    pair_tests = count_calls(geometry, "_improper_pair", drawing)
    meets = count_calls(geometry, "segment_intersection", drawing)
    m = 400
    d = validate_drawing(_v(*((i, 0 if i % 2 == 0 else 10)
                              for i in range(m + 1))),
                         [(i, i + 1) for i in range(m)])
    assert d.n_edges == m
    assert pair_tests() <= 4 * m
    # the sweep decides on the lattice; only a fault is named
    assert meets() == 0


def test_clockwise_order_around_plus_center():
    d = plus_drawing()
    order = clockwise_order(d, 0)
    # neighbors: N, E, S, W legs; clockwise from +x means E, S, W, N
    names = [d.other_endpoint(i, 0) for i in order]
    e_dirs = [d.points[v] - d.points[0] for v in names]
    assert [(q.x, q.y) for q in e_dirs] == [(1, 0), (0, -1), (-1, 0), (0, 1)]


def _reference_clockwise_order(d, vid):
    """The exact comparator clockwise_order replaced: the direction class
    of the Fraction offset, then the sign of the cross product."""
    def cw_class(v):
        if v.y == 0:
            return 0 if v.x > 0 else 4
        if v.x == 0:
            return 2 if v.y < 0 else 6
        if v.x > 0:
            return 1 if v.y < 0 else 7
        return 3 if v.y < 0 else 5

    def cmp(i, j):
        va, vb = (d.points[d.other_endpoint(k, vid)] - d.points[vid]
                  for k in (i, j))
        ca, cb = cw_class(va), cw_class(vb)
        if ca != cb:
            return -1 if ca < cb else 1
        c = geometry.cross(va, vb)
        return -1 if c < 0 else 1 if c > 0 else 0

    return tuple(sorted(d.adjacency[vid], key=functools.cmp_to_key(cmp)))


def _fraction_star(rng):
    """A star around a fractional center: one edge along each axis and
    three in each open quadrant, with fractional offsets, in shuffled
    edge order."""
    def length():
        return Fraction(rng.randint(1, 30), rng.randint(1, 7))

    dirs = [(length(), 0), (0, -length()), (-length(), 0), (0, length())]
    for sx, sy in ((1, -1), (-1, -1), (-1, 1), (1, 1)):
        quadrant = []
        while len(quadrant) < 3:
            v = (sx * length(), sy * length())
            if all(v[0] * w[1] != v[1] * w[0] for w in quadrant):
                quadrant.append(v)
        dirs += quadrant
    rng.shuffle(dirs)
    cx, cy = Fraction(1, 3), Fraction(-2, 7)
    return validate_drawing(
        [(0, pt(cx, cy))] + [(k + 1, pt(cx + x, cy + y))
                             for k, (x, y) in enumerate(dirs)],
        [(0, k + 1) for k in range(len(dirs))])


def test_clockwise_order_matches_the_fraction_comparator_on_stars():
    rng = random.Random(88)
    for _ in range(50):
        d = _fraction_star(rng)
        want = _reference_clockwise_order(d, 0)
        assert clockwise_order(d, 0) == want
        # the order starts on +x and ends in the open first quadrant
        first, last = (d.points[d.other_endpoint(want[k], 0)] - d.points[0]
                       for k in (0, -1))
        assert first.y == 0 < first.x and last.x > 0 < last.y


def test_clockwise_order_matches_the_fraction_comparator_on_corpus(
        tree_corpus):
    for rec in tree_corpus["records"]:
        d = rec["drawing"]
        for v in d.vertex_ids:
            assert clockwise_order(d, v) == _reference_clockwise_order(d, v)


def test_rotation_reads_build_no_points(count_calls):
    rng = random.Random(4040)
    while True:
        try:
            d = random_tree_drawing(rng, 40)
            break
        except GRRError:
            continue
    part = min_gtd_exact(root_tree(d, default_root(d)), "noncrossing")
    # a fresh copy of the drawing, whose rotation is not built yet
    fresh = validate_drawing(d.points.items(), d.edges)
    reads = count_calls(drawing, "clockwise_order", treedecomp)
    points = count_calls(geometry.Point, "__post_init__")
    root_tree(fresh, default_root(fresh))
    assert validate_partition(fresh, part).ok
    # root_tree reads every vertex; validate_partition the shared ones
    assert reads() > fresh.n_vertices
    assert points() == 0


def test_root_tree_structure():
    d = comb_drawing()
    root = default_root(d)
    rt = root_tree(d, root)
    assert rt.root == root
    assert len(d.adjacency[root]) == 1
    assert rt.postorder[-1] == root
    # children come before parents in postorder
    pos = {v: i for i, v in enumerate(rt.postorder)}
    for v, kids in rt.children.items():
        for w in kids:
            assert pos[w] < pos[v]


def test_root_tree_guards():
    d = plus_drawing()
    with pytest.raises(RootNotDegreeOneError):
        root_tree(d, 0)
    with pytest.raises(UnknownVertexError):
        root_tree(d, 99)
    forest = validate_drawing(_v((0, 0), (1, 0), (5, 5), (6, 5)),
                              [(0, 1), (2, 3)])
    with pytest.raises(NotATreeError):
        root_tree(forest, 0)


def test_root_tree_rejects_a_cycle_beside_an_isolated_vertex():
    # the edge count fits a tree, so only the connectivity walk catches it
    d = validate_drawing(_v((0, 0), (2, 0), (0, 2), (5, 5)),
                         [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(NotATreeError, match="not connected"):
        root_tree(d, 3)


def test_components_come_in_order_of_first_node():
    adj = {0: [2], 1: [], 2: [0, 3], 3: [2], 4: [5], 5: [4]}
    assert components([3, 1, 0, 2, 5, 4], adj.__getitem__) == [
        {0, 2, 3}, {1}, {4, 5}]


def test_default_root_is_smallest_leaf():
    assert default_root(comb_drawing()) == 3


def test_children_follow_clockwise_after_parent():
    d = plus_drawing()
    rt = root_tree(d, 1)          # root at the north leg
    # at the center, remaining legs clockwise after the incoming north edge
    kids = rt.children[0]
    dirs = [(d.points[w] - d.points[0]) for w in kids]
    assert [(q.x, q.y) for q in dirs] == [(1, 0), (0, -1), (-1, 0)]


def test_subdivide_conflict_free_drawing_is_identity_shaped():
    d = p_ic()
    sd = subdivide(d)
    assert sd.base is d
    assert sd.drawing.n_edges == d.n_edges
    assert all(orig in range(d.n_edges)
               for orig, _, _ in sd.origin.values())


def test_subdivide_comb_counts_and_provenance():
    d = comb_drawing()
    sd = subdivide(d)
    assert sd.drawing.n_edges == 11
    # fragments of one original edge chain from t=0 to t=1 without gaps
    by_orig = {}
    for new_idx, (orig, t0, t1) in sorted(sd.origin.items()):
        assert 0 <= t0 < t1 <= 1
        by_orig.setdefault(orig, []).append((t0, t1))
    for orig, spans in by_orig.items():
        spans.sort()
        assert spans[0][0] == 0 and spans[-1][1] == 1
        for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
            assert a1 == b0
    # every fragment endpoint really lies on its original edge
    for new_idx, (orig, t0, t1) in sd.origin.items():
        seg = d.segment(orig)
        frag = sd.drawing.segment(new_idx)
        assert frag.a == seg.at(t0) and frag.b == seg.at(t1)


# sha256 over serialize_drawing(subdivide(d).drawing) for _subdivide_digest,
# recorded with the per-endpoint projection loop that the slab roots replaced
SUBDIVIDE_DIGEST = (
    "0f87bff73fe2c2270b892a6d3de2c67eabcd1a2b91b86040e55c4b22834cb001")


def _subdivide_digest(n_trees: int, seed: int) -> str:
    rng = random.Random(seed)
    h = hashlib.sha256()
    for _ in range(n_trees):
        d = random_tree_drawing(rng, rng.randint(2, 7))
        h.update(serialize_drawing(subdivide(d).drawing).encode())
    return h.hexdigest()


def test_subdivide_matches_recorded_corpus():
    assert _subdivide_digest(50, 4077) == SUBDIVIDE_DIGEST


def test_subdivide_budget_counts_the_refined_edges(monkeypatch):
    d = comb_drawing()
    monkeypatch.setattr(drawing, "SUBDIVISION_EDGE_BUDGET", 11)
    assert subdivide(d).drawing.n_edges == 11
    monkeypatch.setattr(drawing, "SUBDIVISION_EDGE_BUDGET", 10)
    with pytest.raises(BudgetExceededError,
                       match=r"^subdivision limited to 10 edges, got 11$"):
        subdivide(d)


def test_subdivide_budget_is_checked_before_any_vertex(count_calls):
    d = sawtooth(random.Random(360), 360)
    built = count_calls(geometry.Point, "__post_init__")
    with pytest.raises(BudgetExceededError,
                       match=r"^subdivision limited to 20000 edges, got \d+$"):
        subdivide(d)
    assert built() == 0


def test_subdivide_vertex_bound():
    for d in (p_ic(), plus_drawing(), star4_cross(), comb_drawing()):
        n, m = d.n_vertices, d.n_edges
        sd = subdivide(d)
        assert sd.drawing.n_vertices <= n + 2 * m * (m - 1)
