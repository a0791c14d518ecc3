"""Plane straight-line drawings: validation, rotation orders, rooted trees,
and the normal-line subdivision used by split-allowing decompositions."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .errors import (
    BudgetExceededError,
    CrossingEdgesError,
    DuplicateEdgeError,
    DuplicateVertexError,
    NotATreeError,
    OverlappingEdgesError,
    RootNotDegreeOneError,
    UnknownVertexError,
    ZeroLengthEdgeError,
)
from .geometry import (
    LatticePoint,
    Point,
    Segment,
    improper_contact,
    lattice,
    point_key,
    segment_intersection,
    slab_row,
)

SUBDIVISION_EDGE_BUDGET = 20_000  # the most edges subdivide refines to
SPLIT_SOLVE_EDGE_BUDGET = 400  # the most refined edges a split solve takes


class Drawing:
    """A validated straight-line drawing.

    Construct through validate_drawing; the raw constructor trusts its
    input and only builds the derived lookup tables. lattice maps each
    vertex id to its point on the drawing's integer lattice
    (geometry.lattice); clockwise_order builds the rotation system from
    it on first read.
    """

    __slots__ = ("vertex_ids", "points", "edges", "adjacency", "lattice",
                 "_rotation")

    def __init__(self, vertices: Sequence[tuple[int, Point]],
                 edges: Sequence[tuple[int, int]]):
        self.vertex_ids: tuple[int, ...] = tuple(vid for vid, _ in vertices)
        self.points: dict[int, Point] = {vid: p for vid, p in vertices}
        self.edges: tuple[tuple[int, int], ...] = tuple(
            (int(u), int(v)) for u, v in edges)
        adjacency: dict[int, list[int]] = {vid: [] for vid in self.vertex_ids}
        for idx, (u, v) in enumerate(self.edges):
            adjacency[u].append(idx)
            adjacency[v].append(idx)
        self.adjacency = {vid: tuple(lst) for vid, lst in adjacency.items()}
        self.lattice = dict(zip(self.vertex_ids, lattice(
            self.points[vid] for vid in self.vertex_ids)))
        self._rotation: Optional[dict[int, tuple[int, ...]]] = None

    def segment(self, edge_idx: int) -> Segment:
        u, v = self.edges[edge_idx]
        return Segment(self.points[u], self.points[v])

    def other_endpoint(self, edge_idx: int, vid: int) -> int:
        u, v = self.edges[edge_idx]
        return v if vid == u else u

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_ids)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Drawing)
                and self.vertex_ids == other.vertex_ids
                and self.points == other.points
                and self.edges == other.edges)

    def __hash__(self) -> int:
        return hash((self.vertex_ids, self.edges))


def validate_drawing(vertices: Iterable[tuple[int, Point]],
                     edges: Iterable[tuple[int, int]]) -> Drawing:
    """Check a vertex/edge list and return the Drawing it describes.

    Rejects duplicate ids and coordinates, unknown endpoints, zero-length
    and duplicate edges, and any pair of edges that meets outside a shared
    endpoint (crossing) or in more than a point (overlap).
    """
    vlist = [(int(vid), p) for vid, p in vertices]
    seen_ids: set[int] = set()
    seen_pts: dict[tuple[int, int, int, int], int] = {}
    for vid, p in vlist:
        if vid in seen_ids:
            raise DuplicateVertexError(f"vertex id {vid} repeated")
        key = point_key(p)
        if key in seen_pts:
            raise DuplicateVertexError(
                f"vertices {seen_pts[key]} and {vid} share position {p}")
        seen_ids.add(vid)
        seen_pts[key] = vid
    elist = [(int(u), int(v)) for u, v in edges]
    seen_edges: set[frozenset[int]] = set()
    for u, v in elist:
        for w in (u, v):
            if w not in seen_ids:
                raise UnknownVertexError(f"edge references unknown vertex {w}")
        if u == v:
            raise ZeroLengthEdgeError(f"edge joins vertex {u} to itself")
        key = frozenset((u, v))
        if key in seen_edges:
            raise DuplicateEdgeError(f"edge {u}-{v} repeated")
        seen_edges.add(key)
    d = Drawing(vlist, elist)
    bad = improper_contact(d.lattice, d.edges)
    if bad is not None:
        i, j = bad
        meet = segment_intersection(d.segment(i), d.segment(j))
        if isinstance(meet, Segment):
            raise OverlappingEdgesError(f"edges {i} and {j} overlap")
        raise CrossingEdgesError(f"edges {i} and {j} cross at {meet}")
    return d


# -- rotation order -----------------------------------------------------------

def _cw_key(u: LatticePoint) -> tuple:
    # clockwise from +x: the direction class (the axes and the open
    # quadrants), then decreasing slope within a quadrant
    if u.y == 0:
        return (0 if u.x > 0 else 4, 0)
    if u.x == 0:
        return (2 if u.y < 0 else 6, 0)
    if u.x > 0:
        return (1 if u.y < 0 else 7, Fraction(-u.y, u.x))
    return (3 if u.y < 0 else 5, Fraction(-u.y, u.x))


def clockwise_order(d: Drawing, vid: int) -> tuple[int, ...]:
    """Edge indices at vid, sorted clockwise starting from direction +x.

    The first call sorts every vertex's edges once, on the lattice, and
    the drawing keeps this rotation system.
    """
    if vid not in d.points:
        raise UnknownVertexError(f"unknown vertex {vid}")
    if d._rotation is None:
        lat = d.lattice
        d._rotation = {v: tuple(sorted(incident, key=lambda idx: _cw_key(
            lat[d.other_endpoint(idx, v)] - lat[v])))
            for v, incident in d.adjacency.items()}
    return d._rotation[vid]


# -- rooted trees -------------------------------------------------------------

@dataclass(frozen=True)
class RootedTree:
    """A tree drawing rooted at a degree-one vertex.

    children lists each vertex's children in clockwise order starting
    after the parent edge; postorder lists vertices children-first.
    """
    drawing: Drawing
    root: int
    parent: Mapping[int, Optional[int]]
    children: Mapping[int, tuple[int, ...]]
    postorder: tuple[int, ...]
    parent_edge: Mapping[int, int]


def components(nodes: Iterable, neighbours) -> list[set]:
    """Connected components of a graph, in order of their first node.

    nodes lists every node; neighbours(v) yields the nodes adjacent to v.
    """
    seen: set = set()
    comps: list[set] = []
    for start in nodes:
        if start in seen:
            continue
        seen.add(start)
        comp = {start}
        stack = [start]
        while stack:
            for w in neighbours(stack.pop()):
                if w not in seen:
                    seen.add(w)
                    comp.add(w)
                    stack.append(w)
        comps.append(comp)
    return comps


def _check_tree(d: Drawing) -> None:
    if d.n_vertices == 0 or d.n_edges != d.n_vertices - 1:
        raise NotATreeError("drawing is not a tree (edge count)")
    if len(components(d.vertex_ids, lambda v: [
            d.other_endpoint(idx, v) for idx in d.adjacency[v]])) != 1:
        raise NotATreeError("drawing is not connected")


def root_tree(d: Drawing, root: int) -> RootedTree:
    """Root a tree drawing at a degree-one vertex."""
    if root not in d.points:
        raise UnknownVertexError(f"unknown root {root}")
    _check_tree(d)
    if len(d.adjacency[root]) != 1:
        raise RootNotDegreeOneError(f"root {root} must have degree 1")
    parent: dict[int, Optional[int]] = {root: None}
    parent_edge: dict[int, int] = {}
    children: dict[int, tuple[int, ...]] = {}
    stack = [root]
    visit: list[int] = []
    while stack:
        v = stack.pop()
        visit.append(v)
        cw = list(clockwise_order(d, v))
        if parent[v] is not None:
            # rotate so the parent edge comes first, then drop it
            pidx = parent_edge[v]
            k = cw.index(pidx)
            cw = cw[k + 1:] + cw[:k]
        kids = []
        for idx in cw:
            w = d.other_endpoint(idx, v)
            kids.append(w)
            parent[w] = v
            parent_edge[w] = idx
            stack.append(w)
        children[v] = tuple(kids)
    return RootedTree(drawing=d, root=root, parent=parent, children=children,
                      postorder=tuple(reversed(visit)),
                      parent_edge=parent_edge)


def default_root(d: Drawing) -> int:
    """Smallest-id degree-one vertex, the canonical root choice."""
    leaves = [v for v in d.vertex_ids if len(d.adjacency[v]) == 1]
    if not leaves:
        raise NotATreeError("tree has no degree-one vertex")
    return min(leaves)


# -- subdivision --------------------------------------------------------------

@dataclass(frozen=True)
class SubdividedDrawing:
    """Result of subdivide(): the refined drawing plus provenance.

    origin maps each new edge index to (original edge index, t_from, t_to),
    parameters taken along the original edge's stored direction.
    """
    base: Drawing
    drawing: Drawing
    origin: Mapping[int, tuple[int, Fraction, Fraction]]


def subdivide(d: Drawing) -> SubdividedDrawing:
    """Split every edge at the normal lines through other edges' endpoints.

    For each ordered edge pair (e, f), the lines perpendicular to e through
    e's endpoints cut f at the slab roots, where f's projection s in e's
    slab row, or s - dd, changes sign strictly inside f; these also bound
    the clip in analysis._slab_witness. A refinement beyond
    SUBDIVISION_EDGE_BUDGET edges raises BudgetExceededError before any
    vertex is built.
    """
    cuts: list[set[Fraction]] = [set() for _ in d.edges]
    for u, v in d.edges:
        row, dd = slab_row(d.lattice, u, v)
        # e's own row reads (0, dd), which has no strict sign change
        for (a, b), cut in zip(d.edges, cuts):
            s0, s1 = row[a], row[b]
            # the roots are ratios of lattice integers, the same on any scale
            if s0 < 0 < s1 or s1 < 0 < s0:
                cut.add(Fraction(s0, s0 - s1))
            if s0 < dd < s1 or s1 < dd < s0:
                cut.add(Fraction(s0 - dd, s0 - s1))
    n_out = d.n_edges + sum(map(len, cuts))
    if n_out > SUBDIVISION_EDGE_BUDGET:
        raise BudgetExceededError(
            f"subdivision limited to {SUBDIVISION_EDGE_BUDGET} edges, "
            f"got {n_out}")
    vertices = [(vid, d.points[vid]) for vid in d.vertex_ids]
    next_id = max(d.vertex_ids) + 1 if d.vertex_ids else 0
    new_edges: list[tuple[int, int]] = []
    origin: dict[int, tuple[int, Fraction, Fraction]] = {}
    for e_idx, (u, v) in enumerate(d.edges):
        seg = d.segment(e_idx)
        prev_vid, prev_t = u, Fraction(0)
        for t in sorted(cuts[e_idx]):
            vid = next_id
            next_id += 1
            vertices.append((vid, seg.at(t)))
            origin[len(new_edges)] = (e_idx, prev_t, t)
            new_edges.append((prev_vid, vid))
            prev_vid, prev_t = vid, t
        origin[len(new_edges)] = (e_idx, prev_t, Fraction(1))
        new_edges.append((prev_vid, v))
    refined = validate_drawing(vertices, new_edges)
    return SubdividedDrawing(base=d, drawing=refined, origin=origin)
