"""Seeded instance generators for the benchmark's scale families.

Every generator takes a seed and a size and returns the JSON text of one
input file; the same arguments always give byte-identical text. The
program under test never sees these functions, only the files they
write. All geometry here is integer arithmetic on the benchmark's side,
independent of the package's own predicates.
"""
from __future__ import annotations

import json
import math
import random
from fractions import Fraction

# coordinate scale; large enough that rounding never collapses a point
GRID = 1000
# about the median for random trees of 8-14 edges
SPLIT_POINTS_PER_EDGE2 = 0.22


def _drawing_json(points, edges) -> str:
    doc = {
        "vertices": [{"id": i, "x": str(x), "y": str(y)}
                     for i, (x, y) in enumerate(points)],
        "edges": [[u, v] for u, v in edges],
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


def _polygon_json(points, diagonals=()) -> str:
    doc = {
        "vertices": [{"id": i, "x": str(x), "y": str(y)}
                     for i, (x, y) in enumerate(points)],
        "boundary": list(range(len(points))),
        "diagonals": [[a, b] for a, b in diagonals],
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


def _path(points) -> str:
    return _drawing_json(points, [(i, i + 1) for i in range(len(points) - 1)])


# -- integer predicates -------------------------------------------------------

def _orient(a, b, c) -> int:
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (v > 0) - (v < 0)


def _on_segment(p, a, b) -> bool:
    return (_orient(a, b, p) == 0
            and min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def _segments_meet(a, b, c, d) -> bool:
    """Do closed segments a-b and c-d share any point?"""
    o1, o2 = _orient(a, b, c), _orient(a, b, d)
    o3, o4 = _orient(c, d, a), _orient(c, d, b)
    if o1 * o2 < 0 and o3 * o4 < 0:
        return True
    return (_on_segment(c, a, b) or _on_segment(d, a, b)
            or _on_segment(a, c, d) or _on_segment(b, c, d))


def _meets_only_at(a, b, c, d, shared) -> bool:
    """Segments a-b and c-d meet nowhere except possibly at point shared."""
    if not _segments_meet(a, b, c, d):
        return True
    if shared is None:
        return False
    # touching at the shared endpoint only: no other common point
    other_ab = b if a == shared else a
    other_cd = d if c == shared else c
    return not (_on_segment(other_ab, c, d) or _on_segment(other_cd, a, b))


# -- tree drawings ------------------------------------------------------------

def zigzag_path(seed: int, n_edges: int) -> str:
    """An x-monotone path whose edges all lie within 45 degrees of +x.

    Every edge direction sits in one closed quarter-plane cone, so the
    whole path is increasing-chord: the optimum is one component in both
    contact modes, and every vertex pair is an increasing-chord path.
    """
    rng = random.Random(seed)
    pts = [(0, 0)]
    for k in range(n_edges):
        if k % 2 == 0:
            dx = rng.randint(3, 9)
            y = rng.randint(1, dx)
        else:  # back down to 0, no steeper than 45 degrees
            dx = rng.randint(max(3, pts[-1][1]), 9)
            y = 0
        pts.append((pts[-1][0] + dx, y))
    return _path(pts)


def sawtooth_path(seed: int, n_edges: int) -> str:
    """An x-monotone path of steep teeth.

    Consecutive edges turn by more than 90 degrees, so every two-edge
    subpath conflicts: the optimum is one component per edge.
    """
    rng = random.Random(seed)
    pts = []
    x = 0
    for k in range(n_edges + 1):
        pts.append((x, 0 if k % 2 == 0 else rng.randint(8, 14)))
        x += rng.randint(1, 2)
    return _path(pts)


def sun(seed: int, n_legs: int) -> str:
    """A star of n_legs legs around vertex 0; half the legs carry a bent
    second edge, fanning slightly off the ray.

    Leg directions are evenly spread with a small jitter, and each bend
    stays within a third of the gap to the neighbouring rays, so the
    drawing is plane.
    """
    rng = random.Random(seed)
    pts = [(0, 0)]
    edges = []
    gap = 2 * math.pi / n_legs
    bent = set(rng.sample(range(n_legs), n_legs // 2))
    for k in range(n_legs):
        theta = k * gap + rng.uniform(-0.15, 0.15) * gap
        r1 = GRID * rng.uniform(0.8, 1.2)
        tip = (round(r1 * math.cos(theta)), round(r1 * math.sin(theta)))
        pts.append(tip)
        edges.append((0, len(pts) - 1))
        if k in bent:
            r2 = r1 + GRID * rng.uniform(0.3, 0.6)
            phi = theta + rng.uniform(-0.3, 0.3) * gap
            pts.append((round(r2 * math.cos(phi)), round(r2 * math.sin(phi))))
            edges.append((len(pts) - 2, len(pts) - 1))
    return _drawing_json(pts, edges)


def _split_points(pts, edges) -> int:
    """Vertices that subdividing the drawing adds: for each ordered edge
    pair (e, f), the normal lines to e through e's endpoints that cross
    f's relative interior, counted once per distinct point of f."""
    cuts: dict[int, set] = {}
    for ei, (u, v) in enumerate(edges):
        dx, dy = pts[v][0] - pts[u][0], pts[v][1] - pts[u][1]
        for w in (pts[u], pts[v]):
            for fi, (a, b) in enumerate(edges):
                fa = (pts[a][0] - w[0]) * dx + (pts[a][1] - w[1]) * dy
                fb = (pts[b][0] - w[0]) * dx + (pts[b][1] - w[1]) * dy
                if fi != ei and fa * fb < 0:
                    cuts.setdefault(fi, set()).add(Fraction(fa, fa - fb))
    return sum(len(c) for c in cuts.values())


def random_tree(seed: int, n_edges: int) -> str:
    """A random plane tree drawing grown one leaf at a time on a grid.

    A new leaf is kept only when its edge touches no other vertex and
    meets the existing edges only at the attachment vertex. A whole tree
    is kept only when subdividing it adds within 15% of
    SPLIT_POINTS_PER_EDGE2 * n_edges**2 vertices, so the cost of split
    ops does not swing with the seed.
    """
    rng = random.Random(seed)
    span = 4 * n_edges
    target = SPLIT_POINTS_PER_EDGE2 * n_edges ** 2
    while True:
        pts = [(0, 0)]
        edges: list[tuple[int, int]] = []
        while len(edges) < n_edges:
            par = rng.randrange(len(pts))
            a = pts[par]
            q = (a[0] + rng.randint(-span, span),
                 a[1] + rng.randint(-span, span))
            if q in pts:
                continue
            if any(k != par and _on_segment(p, a, q)
                   for k, p in enumerate(pts)):
                continue
            if all(_meets_only_at(a, q, pts[u], pts[v],
                                  a if par in (u, v) else None)
                   for u, v in edges):
                pts.append(q)
                edges.append((par, len(pts) - 1))
        if abs(_split_points(pts, edges) - target) <= 0.15 * target:
            return _drawing_json(pts, edges)


# -- polygons -----------------------------------------------------------------

def random_polygon(seed: int, n_triangles: int) -> tuple[str, list[tuple]]:
    """A random triangulated simple polygon grown by gluing ear triangles.

    Each glue puts a new vertex just outside one boundary edge, which
    becomes a diagonal. The new triangle is kept only when it holds no
    other vertex and its two new edges meet the boundary only at their
    ends; each check is a linear scan, so growth is cheap.

    Returns the polygon file text and the triangles as coordinate
    triples, from which interior route endpoints are drawn.
    """
    rng = random.Random(seed)
    while True:
        start = [(0, 0), (GRID, 0),
                 (rng.randint(0, GRID), rng.randint(GRID // 2, GRID))]
        if _orient(*start) > 0:
            break
    ids = [0, 1, 2]          # boundary cycle, counterclockwise, by vertex id
    pts = list(start)        # vertex id -> point
    diagonals = []
    triangles = [tuple(start)]
    while len(triangles) < n_triangles:
        k = rng.randrange(len(ids))
        ia, ib = ids[k], ids[(k + 1) % len(ids)]
        a, b = pts[ia], pts[ib]
        ex, ey = b[0] - a[0], b[1] - a[1]
        t = rng.uniform(0.2, 0.8)
        s = rng.uniform(0.15, 0.7)
        w = (round(a[0] + ex * t + ey * s), round(a[1] + ey * t - ex * s))
        if _orient(a, b, w) >= 0 or w in pts:
            continue
        prev = pts[ids[k - 1]]
        nxt = pts[ids[(k + 2) % len(ids)]]
        if _orient(prev, a, w) == 0 or _orient(w, b, nxt) == 0:
            continue
        if any(vid not in (ia, ib) and _orient(a, w, p) >= 0
               and _orient(w, b, p) >= 0 and _orient(b, a, p) >= 0
               for vid, p in enumerate(pts)):
            continue
        ok = True
        for j in range(len(ids)):
            iu, iv = ids[j], ids[(j + 1) % len(ids)]
            if (iu, iv) == (ia, ib):
                continue
            u, v = pts[iu], pts[iv]
            if not (_meets_only_at(a, w, u, v, a if ia in (iu, iv) else None)
                    and _meets_only_at(w, b, u, v,
                                       b if ib in (iu, iv) else None)):
                ok = False
                break
        if not ok:
            continue
        pts.append(w)
        ids.insert(k + 1, len(pts) - 1)
        diagonals.append((ia, ib))
        triangles.append((a, w, b))
    boundary_pts = [pts[v] for v in ids]
    pos = {v: i for i, v in enumerate(ids)}
    diags = [tuple(sorted((pos[u], pos[v]))) for u, v in diagonals]
    return _polygon_json(boundary_pts, diags), triangles


def staircase(seed: int, n_steps: int) -> tuple[str, str, str]:
    """An orthogonal staircase: the region under a decreasing step
    function. Every outward normal ray leaves it without meeting another
    edge, so it is greedily routable; the tracer must still slide along
    the steps to cross it corner to corner.

    Returns the polygon file text and, as "x,y" strings, a point inside
    the first step and one inside the last.
    """
    rng = random.Random(seed)
    xs = [0]
    for _ in range(n_steps):
        xs.append(xs[-1] + rng.randint(2, 9))
    hs = sorted(rng.sample(range(1, 12 * n_steps), n_steps), reverse=True)
    pts = [(0, 0), (xs[-1], 0)]
    for i in range(n_steps, 0, -1):
        pts.append((xs[i], hs[i - 1]))
        pts.append((xs[i - 1], hs[i - 1]))
    return (_polygon_json(pts), f"1/2,{hs[0] * 2 - 1}/2",
            f"{xs[-1] * 2 - 1}/2,1/2")
