"""Cutting triangulated simple polygons into greedily routable pieces.

Pieces are unions of triangles of a fixed triangulation, cut apart
along its diagonals. A piece is routable exactly when it contains no
conflicting triangle pair, which turns minimization into multicut on
the dual tree: terminals are the conflicting pairs, cut edges are the
diagonals.
"""
from __future__ import annotations

from dataclasses import dataclass

from .analysis import polygon_is_grr, triangle_strip_hits
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
    polygon's integer lattice. parent roots the dual tree at triangle 0
    (the root's parent is None); in its preorder the subtree of t is the
    run preorder[start[t]:start[t] + size[t]].
    """

    __slots__ = ("polygon", "diagonals", "triangles", "dual_edges",
                 "dual_adjacency", "_diag_of", "parent", "preorder",
                 "start", "size")

    def __init__(self, polygon: Polygon, diagonals, triangles, dual_edges,
                 dual_adjacency, diag_of, parent, preorder, start, size):
        self.polygon = polygon
        self.diagonals = diagonals
        self.triangles = triangles
        self.dual_edges = dual_edges
        self.dual_adjacency = dual_adjacency
        self._diag_of = diag_of
        self.parent = parent
        self.preorder = preorder
        self.start = start
        self.size = size

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


def _name_the_fault(lat, canon: list[tuple[int, int]]):
    """Raise the error of a rejected diagonal set: the first improper
    contact among the boundary edges and the diagonals, else the first
    diagonal that leaves the polygon."""
    n = len(lat)
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
    # n - 3 interior non-crossing diagonals always triangulate
    raise InvalidTriangulationError(
        "the diagonals do not triangulate the polygon")


def build_dual_tree(polygon: Polygon, diagonals) -> TriangulatedPolygon:
    """Validate a triangulation and derive its triangles and dual tree.

    Each vertex's fan, its neighbours in boundary order from it, closes
    a triangle with each two consecutive ones. The diagonals triangulate
    iff the fans give n - 2 distinct triangles, all strictly ccw: they
    then form a disk bounded by the ccw polygon, and with positive
    orientation they cover each interior point once and no exterior
    point. Only a rejected set is swept, to name its fault.
    """
    n = polygon.n
    seen: set[tuple[int, int]] = set()
    canon: list[tuple[int, int]] = []
    for pair in diagonals:
        try:
            a, b = pair
        except (TypeError, ValueError):
            raise InvalidTriangulationError(
                f"diagonal {pair!r} is not a vertex pair") from None
        # type, not isinstance: a bool is no index
        if not (type(a) is int and type(b) is int
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
    fans = [[(a + 1) % n, (a - 1) % n] for a in range(n)]
    for a, b in canon:
        fans[a].append(b)
        fans[b].append(a)
    for a, fan in enumerate(fans):
        fan.sort(key=lambda b: (b - a) % n)
    found = {tuple(sorted((a, b, c)))
             for a, fan in enumerate(fans) for b, c in zip(fan, fan[1:])}
    if len(found) != n - 2 or any(
            orientation(lat[a], lat[b], lat[c]) <= 0 for a, b, c in found):
        _name_the_fault(lat, canon)
    triangles = tuple(sorted(found))
    nt = len(triangles)
    tid = {t: i for i, t in enumerate(triangles)}
    # the diagonal (a, b), a < b, lies between two consecutive triangles
    # of a's fan; the fan's ends are a's boundary neighbours
    diag_of: dict[tuple[int, int], tuple[int, int]] = {}
    adj: dict[int, list[int]] = {i: [] for i in range(nt)}
    for a, fan in enumerate(fans):
        for k in range(1, len(fan) - 1):
            b = fan[k]
            if a < b:
                ti = tid[tuple(sorted((a, fan[k - 1], b)))]
                tj = tid[tuple(sorted((a, b, fan[k + 1])))]
                ti, tj = min(ti, tj), max(ti, tj)
                diag_of[(ti, tj)] = (a, b)
                adj[ti].append(tj)
                adj[tj].append(ti)
    dual_adjacency = {i: tuple(sorted(v)) for i, v in adj.items()}
    parent: list = [None] * nt
    preorder, stack = [], [0]
    while stack:
        x = stack.pop()
        preorder.append(x)
        for y in dual_adjacency[x]:
            if y != parent[x]:
                parent[y] = x
                stack.append(y)
    start = [0] * nt
    for k, x in enumerate(preorder):
        start[x] = k
    size = [1] * nt
    for x in reversed(preorder[1:]):
        size[parent[x]] += size[x]
    return TriangulatedPolygon(
        polygon=polygon,
        diagonals=tuple(sorted(canon)),
        triangles=triangles,
        dual_edges=tuple(sorted(diag_of)),
        dual_adjacency=dual_adjacency,
        diag_of=diag_of,
        parent=tuple(parent),
        preorder=tuple(preorder),
        start=tuple(start),
        size=tuple(size))


def conflicting_triangle_pairs(tp: TriangulatedPolygon
                               ) -> tuple[tuple[int, int], ...]:
    """All unordered conflicting pairs, in order; the multicut terminal
    pairs, read from triangle_strip_hits."""
    return tuple(sorted((i, j) if i < j else (j, i)
                        for i, j in triangle_strip_hits(tp)))


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
    ids = set(piece)
    for i in ids:  # before sorting: ids of mixed types do not sort
        if type(i) is not int:
            raise InvalidTriangulationError(f"no triangle {i!r}")
    ids = sorted(ids)
    nt = tp.n_triangles
    for i in ids:
        if not 0 <= i < nt:
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
