"""Shared generators and session-scoped random corpora.

The randomized sweeps are the expensive part of the suite and feed both
the per-module property tests and the acceptance gate, so each corpus is
built exactly once per session. All seeds are fixed; reruns are
bit-for-bit reproducible.
"""

import hashlib
import math
import random
import time
from fractions import Fraction

import pytest

from grrdecomp import fixtures as fx
from grrdecomp.analysis import (
    clockwise_between,
    four_path_union_ic,
    path_increasing_chord,
    tree_increasing_chord,
)
from grrdecomp.drawing import (
    Drawing,
    clockwise_order,
    default_root,
    root_tree,
    validate_drawing,
)
from grrdecomp.errors import GRRError
from grrdecomp.geometry import (
    LatticePoint,
    Point,
    Polygon,
    _improper_pair,
    dot,
    improper_contact,
    lattice,
    on_segment,
    pt,
    segment_intersection,
    sq_dist,
)
from grrdecomp.multicut import approx_gvy, solve_exact_small
from grrdecomp.oracle import (
    brute_force_all_modes,
    brute_force_min_polygon,
    random_multicut_instance,
    random_tree_drawing,
    random_triangulated_polygon,
    sampled_grr_probe,
)
from grrdecomp.polydecomp import (
    build_dual_tree,
    decompose_polygon_approx,
    decompose_polygon_exact_small,
)
from grrdecomp.treedecomp import (
    _components_of,
    approx_gtd_proper,
    fill_gtd_tables,
    min_gtd_exact,
    min_gtd_with_splits,
    precompute_path_ic,
)


# -- fixture inventories -------------------------------------------------------

def tree_fixture_drawings():
    """All named tree drawings, keyed by the name used in reports."""
    return {
        "p_ic": fx.p_ic(),
        "p_acute": fx.p_acute(),
        "star3": fx.star3(),
        "plus": fx.plus_drawing(),
        "star4_cross": fx.star4_cross(),
        "comb": fx.comb_drawing(),
    }


def polygon_fixture_tps():
    return {
        "rect": fx.rect_tp(),
        "lshape": fx.lshape_tp(),
        "ushape": fx.ushape_tp(),
        "two_notch": fx.two_notch_tp(),
        "hexagon": fx.convex_hexagon_tp(),
        "fan": fx.convex_fan_tp(),
    }


def grr_polygon_fixtures():
    """Polygons on which greedy routing must never fail."""
    square = Polygon([pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4)])
    return {
        "square": square,
        "rect": fx.rect_tp().polygon,
        "lshape": fx.lshape_polygon(),
        "hexagon": fx.convex_hexagon_tp().polygon,
        "fan": fx.convex_fan_tp().polygon,
    }


def strip_tp(cells, rise=0):
    """A strip of height 1 over cells unit columns, two triangles per
    cell; with rise > 0 the odd columns are lifted by rise, bending the
    strip into a zigzag corridor."""
    top0 = 2 * cells + 1
    points = [pt(i, rise * (i % 2)) for i in range(cells + 1)]
    points += [pt(j, rise * (j % 2) + 1) for j in range(cells, -1, -1)]
    diagonals = [(i, top0 - i) for i in range(1, cells)]
    diagonals += [(i + 1, top0 - i) for i in range(cells)]
    return build_dual_tree(Polygon(points), diagonals)


def sun_drawing(rng, n_legs):
    """A star of n_legs legs around vertex 0; every other leg has a
    second edge bent a little off its ray. Rounded trigonometry only
    picks the integer leg directions."""
    verts = [(0, pt(0, 0))]
    edges = []
    for k in range(n_legs):
        theta = 2 * math.pi * k / n_legs
        dx, dy = round(100 * math.cos(theta)), round(100 * math.sin(theta))
        tip = (10 * dx + rng.randint(-10, 10), 10 * dy + rng.randint(-10, 10))
        verts.append((len(verts), pt(*tip)))
        edges.append((0, len(verts) - 1))
        if k % 2:
            bend = rng.randint(-1, 1)
            end = (tip[0] + 5 * dx - bend * dy // 2,
                   tip[1] + 5 * dy + bend * dx // 2)
            verts.append((len(verts), pt(*end)))
            edges.append((len(verts) - 2, len(verts) - 1))
    return validate_drawing(verts, edges)


def path_drawing(points):
    return validate_drawing(list(enumerate(pt(x, y) for x, y in points)),
                            [(i, i + 1) for i in range(len(points) - 1)])


def zigzag(rng, n_edges):
    """x-monotone, every edge within 45 degrees of +x: all increasing-chord."""
    pts = [(0, 0)]
    for k in range(n_edges):
        if k % 2 == 0:
            dx = rng.randint(3, 9)
            pts.append((pts[-1][0] + dx, rng.randint(1, dx)))
        else:
            pts.append((pts[-1][0] + rng.randint(max(3, pts[-1][1]), 9), 0))
    return path_drawing(pts)


def sawtooth(rng, n_edges):
    """Steep teeth: every two-edge subpath conflicts."""
    pts, x = [], 0
    for k in range(n_edges + 1):
        pts.append((x, 0 if k % 2 == 0 else rng.randint(8, 14)))
        x += rng.randint(1, 2)
    return path_drawing(pts)


def dp_table_digest(rt, mode):
    """A sha256 of every tau and sigma_m entry of the DP tables: its key,
    its size and the components it reconstructs to, plus the number of
    entries in all tables."""
    tables = fill_gtd_tables(rt, mode)
    rows = []
    for name, per_vertex in (("tau", tables.tau), ("sigma_m", tables.sigma_m)):
        for u in sorted(per_vertex):
            for key, ent in sorted(per_vertex[u].items()):
                comps = sorted(sorted(c) for c in _components_of(ent))
                rows.append((name, u, key, ent[0], comps))
    count = sum(len(v) for v in tables.tau.values())
    count += sum(len(per_span) for sd in tables.sigma_delta.values()
                 for per_delta in sd.values()
                 for per_span in per_delta.values())
    count += sum(len(per_span) for sg in tables.sigma.values()
                 for per_span in sg.values())
    count += sum(len(sm) for sm in tables.sigma_m.values())
    rows.append(("entries", count))
    return hashlib.sha256(repr(rows).encode()).hexdigest()


# -- generic helpers -----------------------------------------------------------

@pytest.fixture
def count_calls(monkeypatch):
    """Count calls from now to the end of the test: count_calls(owner,
    name, *modules) wraps owner.name, and the same function wherever one
    of modules binds it, and returns a function giving the count so far.
    count_calls(Point, "__post_init__") counts the Points built."""
    def start(owner, name, *modules):
        calls = 0
        real = getattr(owner, name)

        def counting(*args, **kwargs):
            nonlocal calls
            calls += 1
            return real(*args, **kwargs)

        for target in (owner, *modules):
            if getattr(target, name, None) is real:
                monkeypatch.setattr(target, name, counting)
        return lambda: calls
    return start


def tree_path_points(d, edge_subset, a, b):
    """Vertex points along the path from a to b inside an edge subset."""
    sub = set(edge_subset)
    parent = {a: None}
    stack = [a]
    while stack:
        v = stack.pop()
        for idx in d.adjacency[v]:
            if idx in sub:
                w = d.other_endpoint(idx, v)
                if w not in parent:
                    parent[w] = v
                    stack.append(w)
    path = [b]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return [d.points[v] for v in reversed(path)]


def assert_table_matches_direct_predicate(d, label=""):
    """The path-IC rows of d, rooted at its default root, agree with
    path_increasing_chord on the tree path of every vertex pair."""
    rows = precompute_path_ic(root_tree(d, default_root(d)))
    all_edges = range(d.n_edges)
    for s in d.vertex_ids:
        assert s in rows[s], (label, s)
        for t in d.vertex_ids:
            if s < t:
                want = path_increasing_chord(
                    tree_path_points(d, all_edges, s, t))
                assert (t in rows[s]) == want, (label, s, t)
                assert (s in rows[t]) == want, (label, t, s)


# exact similarities that keep every vertex, edge and triangle index: the
# rotation by 90 degrees, and the 3-4-5 rotation with a translation by
# (1/7, -2/3), which moves every input off the axes
SIMILARITIES = (
    lambda p: Point(-p.y, p.x),
    lambda p: Point((3 * p.x - 4 * p.y) / 5 + Fraction(1, 7),
                    (4 * p.x + 3 * p.y) / 5 - Fraction(2, 3)),
)


def segment_contact(segs):
    """improper_contact on a list of Segments: None, or (i, j, meet) for
    the smallest pair at fault, where meet is segment_intersection of the
    two, the crossing Point or the overlap Segment."""
    lat = lattice(q for s in segs for q in (s.a, s.b))
    pairs = [(2 * i, 2 * i + 1) for i in range(len(segs))]
    bad = improper_contact(lat, pairs)
    if bad is None:
        return None
    i, j = bad
    return i, j, segment_intersection(segs[i], segs[j])


def witness_defects(seg_e, seg_f, w):
    """Violations of the conflict-witness contract; empty means sound.

    The foot p must be strictly interior to e, the struck point must lie
    on f and on the normal to e at p, and no sampled point of e may be
    closer to the struck point than p is (p is a distance minimum).
    """
    bad = []
    if not on_segment(w.p, seg_e) or w.p in (seg_e.a, seg_e.b):
        bad.append("p is not strictly interior to e")
    if dot(w.hit - w.p, seg_e.direction()) != 0:
        bad.append("p-hit is not normal to e")
    if not on_segment(w.hit, seg_f):
        bad.append("hit is not on f")
    ref = sq_dist(w.p, w.hit)
    for k in range(9):
        q = seg_e.at(Fraction(k, 8))
        if sq_dist(q, w.hit) < ref:
            bad.append(f"point at t={k}/8 on e beats p")
    return bad


def connected_edge_subsets(adjacency):
    """All nonempty connected node subsets of a tree, as frozensets.

    adjacency maps node -> iterable of neighbor nodes.
    """
    nodes = sorted(adjacency)
    out = set()
    for start in nodes:
        grow = {frozenset((start,))}
        while grow:
            cur = grow.pop()
            if cur in out:
                continue
            out.add(cur)
            for v in cur:
                for w in adjacency[v]:
                    if w not in cur:
                        nxt = cur | {w}
                        if nxt not in out:
                            grow.add(nxt)
    return sorted(out, key=lambda s: (len(s), sorted(s)))


# -- two-fan configurations for the four-path test ------------------------------
#
# Two increasing-chord trees share a root r; rho1/rho2 are the clockwise
# first and last root-to-leaf paths of the first fan, rho3/rho4 of the
# second, so the four paths appear in clockwise order around r.

_VECS = [(a, b) for a in range(-3, 4) for b in range(-3, 4) if (a, b) != (0, 0)]
_ANGLE = {v: math.atan2(v[1], v[0]) for v in _VECS}


def _palette(theta, spread):
    out = []
    for v in _VECS:
        diff = (_ANGLE[v] - theta + math.pi) % (2 * math.pi) - math.pi
        if abs(diff) <= spread:
            out.append(v)
    return out


def _grow_two_fans(rng, n1, n2, spread, global_ic):
    """Grow two trees from a shared root 0; each side stays increasing-chord.

    With global_ic the whole union is kept increasing-chord as well.
    Returns (drawing, side1 edge set, side2 edge set) or None when stuck.
    """
    theta1 = rng.uniform(0, 2 * math.pi)
    theta2 = theta1 + math.pi + rng.uniform(-0.6, 0.6)
    pals = (_palette(theta1, spread), _palette(theta2, spread))
    verts = [(0, pt(0, 0))]
    lat = [LatticePoint(0, 0)]
    edges = []
    side_vids = ([0], [0])
    side_edges = ([], [])
    for side, count in ((0, n1), (1, n2)):
        for _ in range(count):
            for _attempt in range(40):
                base = rng.choice(side_vids[side])
                a, b = rng.choice(pals[side])
                scale = rng.choice((1, 1, 2))
                p = lat[base]
                q = LatticePoint(p.x + scale * a, p.y + scale * b)
                # the placed drawing is valid: only the new point and the
                # new edge can meet the placed edges improperly
                if q in lat or any(_improper_pair(lat[u], lat[v], p, q)
                                   for u, v in edges):
                    continue
                nid = len(verts)
                cand_v = verts + [(nid, pt(q.x, q.y))]
                cand_e = edges + [(base, nid)]
                d = Drawing(cand_v, cand_e)
                if not tree_increasing_chord(d, side_edges[side] + [len(edges)]):
                    continue
                if global_ic and not tree_increasing_chord(d, range(len(cand_e))):
                    continue
                verts, edges = cand_v, cand_e
                lat.append(q)
                side_vids[side].append(nid)
                side_edges[side].append(len(edges) - 1)
                break
            else:
                return None
    return validate_drawing(verts, edges), set(side_edges[0]), set(side_edges[1])


def _root_arcs(d, r, side_a_edges):
    """Split the rotation at r into the two sides' contiguous arcs, or None."""
    fan = list(clockwise_order(d, r))
    k = len(fan)
    in_a = [e in side_a_edges for e in fan]
    starts = [i for i in range(k) if in_a[i] and not in_a[i - 1]]
    if len(starts) != 1:
        return None
    s = starts[0]
    rot = fan[s:] + fan[:s]
    t = sum(in_a)
    if any((rot[i] in side_a_edges) != (i < t) for i in range(k)):
        return None
    return rot[:t], rot[t:]


def side_edge_set(d, r, first_idx):
    """Edges of the subtree hanging off r through one incident edge."""
    c = d.other_endpoint(first_idx, r)
    seen = {r, c}
    out = {first_idx}
    stack = [c]
    while stack:
        v = stack.pop()
        for idx in d.adjacency[v]:
            w = d.other_endpoint(idx, v)
            if w not in seen:
                seen.add(w)
                out.add(idx)
                stack.append(w)
    return out


def extreme_path(d, r, first_idx, clockwise_first):
    """Root-to-leaf point path taking extreme turns after the first edge."""
    pts = [d.points[r]]
    prev_e = first_idx
    cur = d.other_endpoint(first_idx, r)
    while True:
        pts.append(d.points[cur])
        order = list(clockwise_order(d, cur))
        if len(order) == 1:
            return pts
        i = order.index(prev_e)
        rot = order[i + 1:] + order[:i]
        prev_e = rot[0] if clockwise_first else rot[-1]
        cur = d.other_endpoint(prev_e, cur)


def root_leaf_paths(d, r, arc):
    """Every root-to-leaf point path through the given first edges."""
    out = []
    for first_idx in arc:
        c = d.other_endpoint(first_idx, r)
        stack = [(c, r, [d.points[r], d.points[c]])]
        while stack:
            v, par, path = stack.pop()
            ahead = [d.other_endpoint(i, v) for i in d.adjacency[v]
                     if d.other_endpoint(i, v) != par]
            if not ahead:
                out.append(path)
            for w in ahead:
                stack.append((w, v, path + [d.points[w]]))
    return out


def _split_random_tree(d, rng):
    """Cut the fan of some vertex of a random tree into two IC sides."""
    vids = [v for v in d.vertex_ids if len(d.adjacency[v]) >= 2]
    rng.shuffle(vids)
    for r in vids:
        fan = list(clockwise_order(d, r))
        k = len(fan)
        sides = [side_edge_set(d, r, e) for e in fan]
        arcs = {}

        def arc(s, t):
            """The t fan edges from position s, their edges and IC verdict."""
            if (s, t) not in arcs:
                edges = set().union(*(sides[(s + i) % k] for i in range(t)))
                # a subtree of an increasing-chord tree is increasing-chord
                ic = t == 1 or (arc(s, t - 1)[2]
                                and arc((s + 1) % k, t - 1)[2])
                arcs[s, t] = ([fan[(s + i) % k] for i in range(t)], edges,
                              ic and tree_increasing_chord(d, edges))
            return arcs[s, t]

        splits = [(s, t) for s in range(k) for t in range(1, k)]
        rng.shuffle(splits)
        for s, t in splits:
            arc_a, ea, ic_a = arc(s, t)
            if not ic_a:
                continue
            arc_b, eb, ic_b = arc((s + t) % k, k - t)
            if ic_b:
                return r, arc_a, arc_b, ea, eb
    return None


def two_fan_config(rng, flavor):
    """One two-fan configuration, or None when the sample is rejected.

    Returns (d, r, (rho1..rho4), arc_a, arc_b, ea, eb).
    """
    if flavor == "split-random":
        try:
            d = random_tree_drawing(rng, rng.randint(4, 8))
        except GRRError:
            return None
        got = _split_random_tree(d, rng)
        if got is None:
            return None
        r, arc_a, arc_b, ea, eb = got
    else:
        grown = _grow_two_fans(rng, rng.randint(2, 5), rng.randint(2, 5),
                               spread=1.6, global_ic=(flavor == "grown-ic"))
        if grown is None:
            return None
        d, ea, eb = grown
        r = 0
        arcs = _root_arcs(d, r, ea)
        if arcs is None:
            return None
        arc_a, arc_b = arcs
        if not (tree_increasing_chord(d, ea) and tree_increasing_chord(d, eb)):
            return None
    rhos = (extreme_path(d, r, arc_a[0], True),
            extreme_path(d, r, arc_a[-1], False),
            extreme_path(d, r, arc_b[0], True),
            extreme_path(d, r, arc_b[-1], False))
    return d, r, rhos, arc_a, arc_b, ea, eb


def two_fan_hypothesis_defect(d, r, rhos, arc_a, arc_b):
    """Check the configuration promises; None when they all hold."""
    rho1, rho2, rho3, rho4 = rhos
    for walk in root_leaf_paths(d, r, arc_a):
        if not clockwise_between(rho1, walk, rho2):
            return "a first-side path escapes its bounding pair"
    for walk in root_leaf_paths(d, r, arc_b):
        if not clockwise_between(rho3, walk, rho4):
            return "a second-side path escapes its bounding pair"
    cyc = [rho1, rho2, rho3, rho4]
    for i in range(4):
        if not clockwise_between(cyc[i - 1], cyc[i], cyc[(i + 1) % 4]):
            return f"paths are not in clockwise order at position {i}"
    return None


# -- session corpora -----------------------------------------------------------

def _solve_tree(name, d):
    rt = root_tree(d, default_root(d))
    oracle = brute_force_all_modes(d)
    return {
        "name": name,
        "drawing": d,
        "oracle": {mode: size for mode, (size, _) in oracle.items()},
        "dp": {mode: min_gtd_exact(rt, mode)
               for mode in ("proper", "noncrossing")},
        "approx": approx_gtd_proper(d),
        "split": min_gtd_with_splits(d, "proper"),
    }


@pytest.fixture(scope="session")
def tree_corpus():
    """Named fixtures plus 200 seeded random trees, each fully solved."""
    t0 = time.time()
    records = [_solve_tree(name, d)
               for name, d in tree_fixture_drawings().items()]
    rng = random.Random(1205)
    made = 0
    while made < 200:
        try:
            d = random_tree_drawing(rng, rng.randint(1, 9))
        except GRRError:
            continue
        made += 1
        records.append(_solve_tree(f"random-{made:03d}", d))
    return {"records": records, "elapsed": time.time() - t0}


@pytest.fixture(scope="session")
def multicut_corpus():
    """200 seeded random tree multicut instances with both solvers run."""
    rng = random.Random(407)
    out = []
    for _ in range(200):
        inst = random_multicut_instance(rng)
        out.append({"inst": inst,
                    "exact": solve_exact_small(inst),
                    "heur": approx_gvy(inst)})
    return out


@pytest.fixture(scope="session")
def polygon_corpus():
    """100 seeded random triangulated polygons with all solvers run."""
    rng = random.Random(1107)
    out = []
    for _ in range(100):
        tp = random_triangulated_polygon(rng, rng.randint(1, 12))
        out.append({"tp": tp,
                    "exact_size": brute_force_min_polygon(tp),
                    "exact": decompose_polygon_exact_small(tp),
                    "approx": decompose_polygon_approx(tp)})
    return out


@pytest.fixture(scope="session")
def two_fan_sweep():
    """1000 two-fan configurations; grown fans plus random-tree splits."""
    rng = random.Random(2921)
    flavors = ("grown-mixed", "grown-ic", "grown-mixed", "split-random")
    records = []
    t0 = time.time()
    while len(records) < 1000:
        flavor = flavors[len(records) % len(flavors)]
        cfg = two_fan_config(rng, flavor)
        if cfg is None:
            continue
        d, r, rhos, arc_a, arc_b, ea, eb = cfg
        on_paths = set()
        for rho in rhos:
            on_paths.update(rho)
        records.append({
            "flavor": flavor,
            "four_path": four_path_union_ic(*rhos),
            "full_union": tree_increasing_chord(d, range(d.n_edges)),
            "strict": len(on_paths) < d.n_vertices,
            "defect": two_fan_hypothesis_defect(d, r, rhos, arc_a, arc_b),
        })
    return {"records": records, "elapsed": time.time() - t0}


@pytest.fixture(scope="session")
def trace_probes():
    """500 sampled greedy traces per routable fixture polygon."""
    return {name: sampled_grr_probe(poly, 500, seed=90 + i)
            for i, (name, poly) in enumerate(sorted(grr_polygon_fixtures().items()))}
