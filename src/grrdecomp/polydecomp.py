"""Cutting triangulated simple polygons into greedily routable pieces.

Pieces are unions of triangles of a fixed triangulation, cut apart
along its diagonals. A piece is routable exactly when it contains no
conflicting triangle pair, which turns minimization into multicut on
the dual tree: terminals are the conflicting pairs, cut edges are the
diagonals.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .analysis import polygon_is_grr, triangles_conflict
from .errors import (
    BudgetExceededError,
    CrossingDiagonalsError,
    GRRError,
    IncompleteTriangulationError,
    InvalidTriangulationError,
    PieceNotSimpleError,
)
from .geometry import Polygon, improper_contact, orientation
from .multicut import (
    EXACT_EDGE_BUDGET,
    MulticutInstance,
    approx_gvy,
    cut_components,
    solve_exact_small,
)


class TriangulatedPolygon:
    """A simple polygon with a complete non-crossing diagonal set.

    triangles are counterclockwise vertex-index triples, sorted and
    canonicalized so ids are stable; the dual graph has one node per
    triangle and one edge per diagonal, and is always a tree.

    The triangle conflict test reads only orientation signs, on the
    polygon's integer lattice. parent and depth root the dual tree at
    triangle 0 (the root's parent is None).
    """

    __slots__ = ("polygon", "diagonals", "triangles", "dual_edges",
                 "dual_adjacency", "_diag_of", "parent", "depth")

    def __init__(self, polygon: Polygon, diagonals, triangles, dual_edges,
                 dual_adjacency, diag_of, parent, depth):
        self.polygon = polygon
        self.diagonals = diagonals
        self.triangles = triangles
        self.dual_edges = dual_edges
        self.dual_adjacency = dual_adjacency
        self._diag_of = diag_of
        self.parent = parent
        self.depth = depth

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def diagonal_of(self, ti: int, tj: int) -> tuple[int, int]:
        """The diagonal shared by two adjacent triangles."""
        key = (ti, tj) if ti < tj else (tj, ti)
        try:
            return self._diag_of[key]
        except KeyError:
            raise InvalidTriangulationError(
                f"triangles {ti} and {tj} are not adjacent") from None


def _split_triangles(cycle: list[int], diag_set: frozenset) -> list[tuple]:
    """Triangles of a triangulated cycle: each sub-polygon is split at
    the first diagonal joining two of its non-adjacent vertices, and the
    triangles of the left part come before those of the right part."""
    diags = sorted(diag_set)
    out: list[tuple] = []
    todo = [cycle]
    while todo:
        cycle = todo.pop()
        if len(cycle) == 3:
            out.append(tuple(cycle))
            continue
        k = len(cycle)
        pos = {v: i for i, v in enumerate(cycle)}
        for a, b in diags:
            ia, ib = pos.get(a), pos.get(b)
            if ia is None or ib is None:
                continue
            if (ib - ia) % k in (1, k - 1):
                continue
            if ia > ib:
                ia, ib = ib, ia
            todo.append(cycle[ib:] + cycle[:ia + 1])
            todo.append(cycle[ia:ib + 1])
            break
        else:
            raise IncompleteTriangulationError(
                f"no diagonal splits the sub-polygon {cycle}")
    return out


def _in_cone(lattice, a: int, b: int) -> bool:
    """Does the ray from vertex a toward vertex b leave a into the open
    interior angle at a? The boundary is counterclockwise."""
    ax, ay = lattice[a]
    (px, py), (nx, ny) = lattice[a - 1], lattice[(a + 1) % len(lattice)]
    ux, uy = px - ax, py - ay
    vx, vy = nx - ax, ny - ay
    wx, wy = lattice[b][0] - ax, lattice[b][1] - ay
    after_next = vx * wy - vy * wx > 0
    before_prev = wx * uy - wy * ux > 0
    if vx * uy - vy * ux > 0:
        return after_next and before_prev
    return after_next or before_prev


def build_dual_tree(polygon: Polygon, diagonals) -> TriangulatedPolygon:
    """Validate a triangulation and derive its triangles and dual tree."""
    n = polygon.n
    seen: set[tuple[int, int]] = set()
    canon: list[tuple[int, int]] = []
    for pair in diagonals:
        try:
            a, b = pair
        except (TypeError, ValueError):
            raise InvalidTriangulationError(
                f"diagonal {pair!r} is not a vertex pair") from None
        if not (isinstance(a, int) and isinstance(b, int)
                and 0 <= a < n and 0 <= b < n):
            raise InvalidTriangulationError(
                f"diagonal {pair!r} references unknown vertices")
        if a == b:
            raise InvalidTriangulationError(f"diagonal {pair!r} is a point")
        a, b = min(a, b), max(a, b)
        if (b - a) % n in (1, n - 1):
            raise InvalidTriangulationError(
                f"diagonal ({a},{b}) is a boundary edge")
        if (a, b) in seen:
            raise InvalidTriangulationError(f"diagonal ({a},{b}) repeats")
        seen.add((a, b))
        canon.append((a, b))
    if len(canon) != n - 3:
        raise IncompleteTriangulationError(
            f"{len(canon)} diagonals given, a triangulation of a "
            f"{n}-gon needs {n - 3}")
    lat = polygon.lattice
    boundary = [(i, (i + 1) % n) for i in range(n)]
    bad = improper_contact(lat, boundary + canon)
    if bad is not None:
        i, j = bad
        if i < n:
            raise CrossingDiagonalsError(
                f"diagonal {canon[j - n]} meets boundary edge {i}")
        raise CrossingDiagonalsError(
            f"diagonals {canon[i - n]} and {canon[j - n]} cross")
    # no open diagonal touches the boundary, so each lies wholly inside
    # or wholly outside: inside iff it leaves its first endpoint into the
    # interior angle there
    for d in canon:
        if not _in_cone(lat, d[0], d[1]):
            raise CrossingDiagonalsError(f"diagonal {d} leaves the polygon")

    raw = _split_triangles(list(range(n)), frozenset(canon))
    tris = []
    for t in raw:
        if orientation(lat[t[0]], lat[t[1]], lat[t[2]]) <= 0:
            raise InvalidTriangulationError(f"triangle {t} is not ccw")
        k = min(range(3), key=lambda i: t[i])
        tris.append((t[k], t[(k + 1) % 3], t[(k + 2) % 3]))
    tris.sort()
    triangles = tuple(tris)
    if len(triangles) != n - 2:
        raise IncompleteTriangulationError(
            f"derived {len(triangles)} triangles, expected {n - 2}")

    nt = len(triangles)
    owners_of: dict[tuple[int, int], list[int]] = {}
    for i, t in enumerate(triangles):
        for side in combinations(sorted(t), 2):
            owners_of.setdefault(side, []).append(i)
    diag_of: dict[tuple[int, int], tuple[int, int]] = {}
    dual_edges = []
    adj: dict[int, list[int]] = {i: [] for i in range(nt)}
    for d in sorted(canon):
        owners = owners_of.get(d, [])
        if len(owners) != 2:
            raise InvalidTriangulationError(
                f"diagonal {d} borders {len(owners)} triangles")
        ti, tj = owners
        dual_edges.append((ti, tj))
        diag_of[(ti, tj)] = d
        adj[ti].append(tj)
        adj[tj].append(ti)
    parent: list = [None] * nt
    depth = [0] * nt
    order = [0]
    for x in order:
        for y in adj[x]:
            if y != parent[x]:
                parent[y] = x
                depth[y] = depth[x] + 1
                order.append(y)
    return TriangulatedPolygon(
        polygon=polygon,
        diagonals=tuple(sorted(canon)),
        triangles=triangles,
        dual_edges=tuple(sorted(dual_edges)),
        dual_adjacency={i: tuple(sorted(v)) for i, v in adj.items()},
        diag_of=diag_of,
        parent=tuple(parent),
        depth=tuple(depth))


def conflicting_triangle_pairs(tp: TriangulatedPolygon
                               ) -> tuple[tuple[int, int], ...]:
    """All unordered conflicting pairs; the multicut terminal pairs."""
    nt = tp.n_triangles
    return tuple((i, j) for i in range(nt) for j in range(i + 1, nt)
                 if triangles_conflict(tp, i, j))


@dataclass(frozen=True)
class PolygonDecomposition:
    """Pieces are triangle-id sets; cut_diagonals the severed diagonals."""
    pieces: tuple[frozenset[int], ...]
    cut_diagonals: frozenset

    @property
    def size(self) -> int:
        return len(self.pieces)


def piece_union_polygon(tp: TriangulatedPolygon, piece) -> Polygon:
    """Union of a triangle set as a simple polygon.

    Fails with PieceNotSimple when the union is disconnected or pinches
    at a vertex, so valid pieces are guaranteed free of articulation
    points.
    """
    ids = sorted(set(piece))
    nt = tp.n_triangles
    for i in ids:
        if not (isinstance(i, int) and 0 <= i < nt):
            raise InvalidTriangulationError(f"no triangle {i!r}")
    if not ids:
        raise PieceNotSimpleError("empty piece")
    directed: set[tuple[int, int]] = set()
    for i in ids:
        a, b, c = tp.triangles[i]
        directed |= {(a, b), (b, c), (c, a)}
    border = {(u, v) for (u, v) in directed if (v, u) not in directed}
    nxt: dict[int, int] = {}
    for u, v in sorted(border):
        if u in nxt:
            raise PieceNotSimpleError(
                f"piece boundary revisits vertex {u}")
        nxt[u] = v
    start = min(nxt)
    walk = [start]
    v = nxt[start]
    while v != start:
        walk.append(v)
        v = nxt[v]
    if len(walk) != len(border):
        raise PieceNotSimpleError("piece is not connected")
    return Polygon(tp.polygon.points[v] for v in walk)


def _decompose_by_multicut(tp: TriangulatedPolygon,
                           solve) -> PolygonDecomposition:
    """The pieces left by solve's multicut of the dual tree, each one
    re-certified."""
    inst = MulticutInstance(tp.dual_edges, conflicting_triangle_pairs(tp))
    cut = solve(inst)
    dec = PolygonDecomposition(
        pieces=tuple(cut_components(inst, cut)),
        cut_diagonals=frozenset(tp.diagonal_of(*e) for e in cut.edges))
    for piece in dec.pieces:
        witness = polygon_is_grr(piece_union_polygon(tp, piece))
        if witness is not None:
            raise GRRError(
                f"piece {sorted(piece)} is not greedily routable: "
                f"boundary edges {witness.e} and {witness.f} conflict")
    return dec


def decompose_polygon_approx(tp: TriangulatedPolygon) -> PolygonDecomposition:
    """Piece count at most twice the optimum minus one.

    Primal-dual multicut on the dual tree; every piece is re-checked to
    be greedily routable before returning.
    """
    if not tp.dual_edges:
        return PolygonDecomposition((frozenset(range(tp.n_triangles)),),
                                    frozenset())
    return _decompose_by_multicut(tp, approx_gvy)


def decompose_polygon_exact_small(tp: TriangulatedPolygon
                                  ) -> PolygonDecomposition:
    """Minimum-size decomposition by exact multicut; small inputs only."""
    if not tp.dual_edges:
        return PolygonDecomposition((frozenset(range(tp.n_triangles)),),
                                    frozenset())
    if len(tp.dual_edges) > EXACT_EDGE_BUDGET:
        raise BudgetExceededError(
            f"{len(tp.dual_edges)} dual edges exceed the exact-search budget")
    return _decompose_by_multicut(tp, solve_exact_small)
