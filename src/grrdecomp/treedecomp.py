"""Minimum greedy tree decompositions of plane tree drawings.

The exact solver is a bottom-up dynamic program over the rooted tree.
For each vertex it tabulates root components by their extreme boundary
paths (the clockwise-first and clockwise-last paths leaving the
subtree), together with the degree of the vertex inside the component.
One two-part join builds the root components in which the vertex has
degree two to four, by merging those of two child tables, of a joined
pair and a child table, or of two joined pairs of path entries; a table
of which children fit together, built once per vertex, skips the joins
that cannot build anything. Every table entry points at the entries it
was built from, in the one format DPTables describes, and a loop over
an explicit stack follows those pointers to rebuild the components,
however deep the tree.
Two contact regimes are supported exactly: noncrossing and proper.
A multicut reduction provides a fast 2-approximation for proper
contacts, and edge splits are handled by running the same program on
the subdivided drawing.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Optional

from .analysis import conflicting_pairs, drawing_edges_conflict
from .drawing import (
    SPLIT_SOLVE_EDGE_BUDGET,
    Drawing,
    RootedTree,
    SubdividedDrawing,
    clockwise_order,
    components,
    default_root,
    root_tree,
    subdivide,
)
from .errors import BudgetExceededError, GRRError
from .geometry import hp, in_hp
from .multicut import Cut, MulticutInstance, approx_gvy, cut_components

CONTACT_MODES = ("proper", "noncrossing", "any")


# -- all-pairs increasing-chord paths ------------------------------------------

def precompute_path_ic(rt: RootedTree) -> dict[int, set[int]]:
    """The all-pairs increasing-chord rows, with O(1) work per ordered
    vertex pair: row s is the set of targets t whose tree path s-t is
    increasing-chord.

    A path is increasing-chord iff it is self-approaching both ways:
    every vertex lies in hp(a, b) of each directed path edge a-b that
    leads toward it. On the path s = v0 .. vk = t, k >= 2, with s+ = v1
    and t- = v(k-1), every such condition that leaves out s or t is one
    of the subpath s..t- or of the subpath s+..t, and only two take
    both ends, so

        IC(s, t) = IC(s, t-) and IC(s+, t)
                   and t in hp(s, s+) and s in hp(t, t-).

    Adjacent pairs and IC(v, v) are True. Row s is filled by one walk
    away from s per neighbour s+, which reaches t right after t-, so
    IC(s, t-) is already known. When IC(s, t) is false the walk stops
    there: every t' beyond t needs IC(s, t'-) and is false too, so a row
    holds only its true targets and the walk visits nothing else.
    Sources in postorder first walk down into each child's subtree: row
    s+ was filled there by the child's own downward walks. Then sources
    in reversed postorder walk out through their parent, whose row is by
    then full. The walks hold O(n) frames, and the 2(n-1) directed-edge
    halfplanes are built once, on the drawing's integer lattice.
    """
    d = rt.drawing
    lat = d.lattice
    nbrs = {v: [d.other_endpoint(e, v) for e in d.adjacency[v]]
            for v in d.vertex_ids}
    halfplanes = {(a, b): hp(lat[a], lat[b]) for a in nbrs for b in nbrs[a]}
    table: dict[int, set[int]] = {v: {v} for v in d.vertex_ids}

    def walk(s: int, first: int) -> None:
        row, ahead = table[s], table[first]
        ps, h_first = lat[s], halfplanes[(s, first)]
        row.add(first)
        stack = [(w, first) for w in nbrs[first] if w != s]
        while stack:
            t, prev = stack.pop()
            if (t in ahead and in_hp(h_first, lat[t])
                    and in_hp(halfplanes[(t, prev)], ps)):
                row.add(t)
                stack.extend((w, t) for w in nbrs[t] if w != prev)

    for s in rt.postorder:
        for c in rt.children[s]:
            walk(s, c)
    for s in reversed(rt.postorder):
        if rt.parent[s] is not None:
            walk(s, rt.parent[s])
    return table


# -- partitions and their validation -------------------------------------------

@dataclass(frozen=True)
class Partition:
    """Edge components of a drawing plus the contact regime they obey.

    When the partition was computed on a subdivided drawing, origin
    carries the subdivision so results can be mapped back to fragments
    of the original edges.
    """
    components: tuple[frozenset[int], ...]
    contact_mode: str
    origin: Optional[SubdividedDrawing] = None

    @property
    def size(self) -> int:
        return len(self.components)


@dataclass(frozen=True)
class PartitionReport:
    ok: bool
    checks: tuple[tuple[str, bool], ...]
    problems: tuple[str, ...]


def validate_partition(d: Drawing, p: Partition) -> PartitionReport:
    """Check every partition invariant and report them individually."""
    if p.contact_mode not in CONTACT_MODES:
        raise ValueError(f"unknown contact mode {p.contact_mode!r}")
    problems: list[str] = []
    m = d.n_edges
    comps = [set(c) for c in p.components]
    # ids of mixed types do not sort by value
    order = None if all(type(e) is int for c in comps for e in c) else repr

    cover = True
    owner: dict[int, int] = {}
    for ci, c in enumerate(comps):
        if not c:
            cover = False
            problems.append(f"component {ci} is empty")
        for e in sorted(c, key=order):
            if not (type(e) is int and 0 <= e < m):
                cover = False
                problems.append(f"component {ci} references unknown edge {e!r}")
            elif e in owner:
                cover = False
                problems.append(
                    f"edge {e} appears in components {owner[e]} and {ci}")
            else:
                owner[e] = ci
    missing = sorted(set(range(m)) - set(owner))
    if missing:
        cover = False
        problems.append(f"edges not covered: {missing}")

    conn = True
    acyc = True
    confl = True
    vsets: list[set[int]] = []
    for ci, c in enumerate(comps):
        edges = sorted(e for e in c if type(e) is int and 0 <= e < m)
        verts: set[int] = set()
        for e in edges:
            verts.update(d.edges[e])
        vsets.append(verts)
        if not edges:
            continue
        eset = set(edges)
        if len(components(verts, lambda v: [
                d.other_endpoint(idx, v) for idx in d.adjacency[v]
                if idx in eset])) != 1:
            conn = False
            problems.append(f"component {ci} is disconnected")
        elif len(edges) != len(verts) - 1:
            acyc = False
            problems.append(f"component {ci} contains a cycle")
        # per pair, in row order, up to the first conflict
        found = next(((e, f) for e in edges for f in edges
                      if e != f and drawing_edges_conflict(d, e, f)), None)
        if found is not None:
            confl = False
            problems.append(f"component {ci} has conflicting edges "
                            f"{found[0]} and {found[1]}")

    # the components at each vertex, in index order, and the points
    # each pair of components shares: work linear in the contacts
    at: dict[int, list[int]] = {}
    for ci, vs in enumerate(vsets):
        for v in vs:
            at.setdefault(v, []).append(ci)
    common: dict[tuple[int, int], list[int]] = {}
    for v, cis in at.items():
        for pair in combinations(cis, 2):
            common.setdefault(pair, []).append(v)
    single = True
    for (ci, cj), inter in sorted(common.items()):
        if len(inter) > 1:
            single = False
            problems.append(
                f"components {ci} and {cj} share points {sorted(inter)}")

    contacts = True
    shared = {v: set(cis) for v, cis in at.items() if len(cis) > 1}
    if p.contact_mode == "proper":
        for v in sorted(shared):
            heavy = [ci for ci in sorted(shared[v])
                     if sum(1 for e in comps[ci]
                            if type(e) is int and 0 <= e < m
                            and v in d.edges[e]) >= 2]
            if len(heavy) > 1:
                contacts = False
                problems.append(
                    f"vertex {v} is interior to components {heavy}: "
                    f"contact is not proper")
    elif p.contact_mode == "noncrossing":
        # crossing is a pairwise notion: two components cross at v when
        # their edges interleave in the combined rotation at v
        for v in sorted(shared):
            owners = [owner.get(e) for e in clockwise_order(d, v)]
            for pair in combinations(sorted(shared[v]), 2):
                seq = [o for o in owners if o in pair]
                if len(seq) < 4:
                    continue
                flips = sum(1 for k in range(len(seq))
                            if seq[k] != seq[(k + 1) % len(seq)])
                if flips > 2:
                    contacts = False
                    problems.append(
                        f"components {pair[0]} and {pair[1]} cross "
                        f"at vertex {v}")

    checks = (("coverage", cover), ("connectivity", conn),
              ("acyclicity", acyc), ("conflict-freeness", confl),
              ("single-shared-point", single), ("contacts", contacts))
    ok = all(flag for _, flag in checks)
    return PartitionReport(ok=ok, checks=checks, problems=tuple(problems))


# -- the dynamic program --------------------------------------------------------

# the entry of an empty run of children: no components
_NOTHING = (0, (None, (), ()))


@dataclass
class DPTables:
    """Filled decomposition tables, kept around for reconstruction.

    tau[u] maps an extreme-endpoint pair to an entry for the subtree
    hanging from u's parent edge; tau_best[u] is the (size, key) of u's
    smallest tau entry. sigma_delta[u][k], for u's degree k = 1..4 in
    the root component, sigma[u] and sigma_m[u] are keyed by the
    child-index span (a, b) they cover. sigma_delta and sigma hold only
    the spans with entries, and a span with entries of one degree only
    shares that table as its sigma table; sigma_m holds every span
    a <= b.

    Every entry is (size, (own_edge, joined, apart)): own_edge (or
    None) belongs to the entry's root component, the entries in joined
    have their root components merged into it, and the entries in apart
    contribute components of their own. An entry with neither own_edge
    nor joined has no root component and only collects apart entries.
    A join's entry has the two entries it merged as joined; those of a
    sigma_delta[u][4] entry are path pairs, kept in no table.
    In proper mode sigma_m[u][(a, b)] is a chain: its apart entries are
    sigma_m[u][(a, b - 1)] (the empty run's entry when b == a) and child
    b's smallest tau entry, so each run costs O(1). pic holds the rows of
    precompute_path_ic.
    """
    mode: str
    rt: RootedTree
    pic: dict[int, set[int]]
    tau: dict[int, dict[tuple[int, int], tuple[int, tuple]]] = field(
        default_factory=dict)
    tau_best: dict[int, tuple[int, tuple[int, int]]] = field(
        default_factory=dict)
    sigma_delta: dict[int, dict[int, dict]] = field(default_factory=dict)
    sigma: dict[int, dict] = field(default_factory=dict)
    sigma_m: dict[int, dict] = field(default_factory=dict)


def _join(ic: dict, left, right, run: tuple, out: dict) -> None:
    """Merge the root components of two adjacent parts into one, into out.

    left and right are sorted (key, entry) items of two parts in
    clockwise order, and run the entry of the children between them,
    which stand apart. A pair survives when both ends of its right key
    lie on the path-IC rows of both ends of its left key. It is keyed by
    the left key's first end and the right key's last end, and counts
    the merged root component once. Pairs arrive in lexicographic order
    of their keys, so ties keep the first.
    """
    extra, apart = run[0] - 1, (run,)
    for (x, y), lent in left:
        rx, ry = ic[x], ic[y]
        base = lent[0] + extra
        for (p, q), rent in right:
            if p in rx and q in rx and p in ry and q in ry:
                val = base + rent[0]
                cur = out.get((x, q))
                if cur is None or val < cur[0]:
                    out[(x, q)] = (val, (None, (lent, rent), apart))


def _fit_table(ic: dict, taus: list, paths: list) -> tuple[list, list, list]:
    """Which children of a vertex can meet in one join, as bit masks
    over the child indices 1..d.

    Bit j of first_fit[i] (last_fit[i]) is set when a first (last)
    endpoint of child j has increasing-chord paths to both ends of some
    key of child i. A join survivor needs such paths from every endpoint
    of a later part to both ends of each earlier part's key, and IC is
    symmetric, so a join whose parts miss these bits builds nothing.
    arms[i] holds the children j that fit i both ways, when both have
    path entries: the pairs a join of four path arms needs.
    """
    d = len(taus)
    # the children with each first (last) endpoint, as bit masks
    first_of: dict[int, int] = {}
    last_of: dict[int, int] = {}
    for j, items in enumerate(taus, 1):
        for (x, y), _ in items:
            first_of[x] = first_of.get(x, 0) | 1 << j
            last_of[y] = last_of.get(y, 0) | 1 << j
    ends = first_of.keys() | last_of.keys()
    first_fit, last_fit = [0] * (d + 1), [0] * (d + 1)
    for i, items in enumerate(taus, 1):
        reach = set()
        for (x, y), _ in items:
            reach |= ends & ic[x] & ic[y]
        ff = lf = 0
        for v in reach:
            ff |= first_of.get(v, 0)
            lf |= last_of.get(v, 0)
        first_fit[i], last_fit[i] = ff & ~(1 << i), lf & ~(1 << i)
    both = [f & g for f, g in zip(first_fit, last_fit)]
    arms = [0] * (d + 1)
    for i in range(1, d + 1):
        if paths[i - 1]:
            for j in _bits(both[i]):
                if paths[j - 1] and both[j] >> i & 1:
                    arms[i] |= 1 << j
    return first_fit, last_fit, arms


def _path_pair(ic: dict, paths: list, sm: dict, pairs: dict, i: int,
               j: int) -> list:
    """The sorted items of the join of child i's and child j's path
    entries, with the run between them apart, kept in pairs by (i, j)."""
    if (i, j) not in pairs:
        out: dict = {}
        _join(ic, paths[i - 1], paths[j - 1], sm[(i + 1, j - 1)], out)
        pairs[(i, j)] = sorted(out.items())
    return pairs[(i, j)]


def _bits(mask: int):
    """The indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def fill_gtd_tables(rt: RootedTree, mode: str) -> DPTables:
    if mode not in ("proper", "noncrossing"):
        raise ValueError(
            f"exact decomposition supports proper and noncrossing, "
            f"not {mode!r}")
    ic = precompute_path_ic(rt)
    t = DPTables(mode=mode, rt=rt, pic=ic)

    for u in rt.postorder:
        if u == rt.root:
            continue
        pe = rt.parent_edge[u]
        cs = rt.children[u]
        d = len(cs)
        if d == 0:
            t.tau[u] = {(u, u): (1, (pe, (), ()))}
            t.tau_best[u] = (1, (u, u))
            continue
        taus = [sorted(t.tau[c].items()) for c in cs]
        paths = [[(k, e) for k, e in items if k[0] == k[1]] for items in taus]
        if d >= 2:
            first_fit, last_fit, arms = _fit_table(ic, taus, paths)
        if mode == "proper":
            bests = [t.tau[c][t.tau_best[c][1]] for c in cs]
        # span tables hold only the spans with entries
        sd: dict[int, dict] = {1: {}, 2: {}, 3: {}, 4: {}}
        sorted2: dict = {}
        sg: dict = {}
        # bit mm of pair_from[a] (pair_to[b]) is set when the pair span
        # a..mm (mm..b) has entries
        pair_from, pair_to = [0] * (d + 1), [0] * (d + 1)
        # (b, least entry) of each sigma span a..b with entries, by b
        sig_runs: list[list] = [[] for _ in range(d + 1)]
        # minimum partitions of runs of children; DPTables leaves out the
        # empty runs
        sm: dict = {(i, i - 1): _NOTHING for i in range(1, d + 2)}
        pairs: dict = {}  # the path pairs of four-arm joins, by child pair

        for w in range(d):
            for a in range(1, d - w + 1):
                b = a + w
                span = (a, b)
                if w == 0:
                    sd[1][span] = {key: (ent[0], (None, (ent,), ()))
                                   for key, ent in taus[a - 1]}
                elif (first_fit[a] & last_fit[a]) >> b & 1:
                    ent2 = {}
                    _join(ic, taus[a - 1], taus[b - 1], sm[(a + 1, b - 1)], ent2)
                    if ent2:
                        sd[2][span] = ent2
                        sorted2[span] = sorted(ent2.items())
                        pair_from[a] |= 1 << b
                        pair_to[b] |= 1 << a
                if w >= 2:
                    ent3 = {}
                    inside = (1 << b) - (2 << a)    # the children a+1..b-1
                    # a pair part a..mm brings a's firsts and mm's lasts to
                    # child b; a pair part mm..b brings mm's firsts and b's
                    # lasts to child a
                    lows = (last_fit[b] & pair_from[a]
                            if first_fit[b] >> a & 1 else 0)
                    highs = (first_fit[a] & pair_to[b]
                             if last_fit[a] >> b & 1 else 0)
                    for mm in _bits((lows | highs) & inside):
                        if lows >> mm & 1:
                            _join(ic, sorted2[(a, mm)], taus[b - 1],
                                  sm[(mm + 1, b - 1)], ent3)
                        if highs >> mm & 1:
                            _join(ic, taus[a - 1], sorted2[(mm, b)],
                                  sm[(a + 1, mm - 1)], ent3)
                    if ent3:
                        sd[3][span] = ent3
                if w >= 3 and arms[a] >> b & 1:
                    ent4 = {}
                    # every two of the four arms must fit: join the path
                    # pairs a, jj and kk, b, with the run between apart
                    inner = arms[a] & arms[b] & inside
                    for jj in _bits(inner):
                        for kk in _bits(inner & arms[jj] & -(2 << jj)):
                            _join(ic, _path_pair(ic, paths, sm, pairs, a, jj),
                                  _path_pair(ic, paths, sm, pairs, kk, b),
                                  sm[(jj + 1, kk - 1)], ent4)
                    if ent4:
                        sd[4][span] = ent4
                # each key keeps the first entry of least size, in order
                # of the degree classes
                classes = [sd[dl][span] for dl in (1, 2, 3, 4)
                           if span in sd[dl]]
                if not classes:
                    continue
                merged = classes[0]
                if len(classes) > 1:
                    merged = dict(merged)
                    for cls in classes[1:]:
                        for key, ent in cls.items():
                            cur = merged.get(key)
                            if cur is None or ent[0] < cur[0]:
                                merged[key] = ent
                sg[span] = merged
                # the first entry of least size, in key order
                least = min((ent[0], key) for key, ent in merged.items())
                sig_runs[a].append((b, merged[least[1]]))

            for a in range(1, d - w + 1):
                b = a + w
                if mode == "proper":
                    # every child apart: the run a..b-1, then child b
                    rest, last = sm[(a, b - 1)], bests[b - 1]
                    best = (rest[0] + last[0], (None, (), (rest, last)))
                else:
                    # a sigma span pp..qq between minimum runs on either
                    # side, the lexicographically first (pp, qq) of least
                    # size. Every tiling of a..b starts with a span at a,
                    # so pp = a reaches the least size: scan qq alone
                    # sig_runs[a] holds no span wider than this one yet
                    best = None
                    for qq, bs in sig_runs[a]:
                        right = sm[(qq + 1, b)]
                        val = bs[0] + right[0]
                        if best is None or val < best[0]:
                            best = (val, (None, (), (_NOTHING, bs, right)))
                    if best is None:
                        raise GRRError(
                            f"no partition for span {(a, b)} at {u}")
                sm[(a, b)] = best

        # the parent edge joins a sigma component, or stands alone
        row = ic[rt.parent[u]]
        tu: dict = {}
        alone = None
        for span in sorted(sg):
            a, b = span
            left, right = sm[(1, a - 1)], sm[(b + 1, d)]
            for key, ent in sorted(sg[span].items()):
                val = left[0] + ent[0] + right[0]
                x, y = key
                cur = tu.get(key)
                if x in row and y in row and (cur is None or val < cur[0]):
                    tu[key] = (val, (pe, (ent,), (left, right)))
                if alone is None or val < alone[0]:
                    alone = (val, (left, ent, right))
        if mode == "proper":
            if alone is None:
                raise GRRError(f"no proper partition below vertex {u}")
            tu[(u, u)] = (1 + alone[0], (pe, (), alone[1]))
        else:
            tu[(u, u)] = (1 + sm[(1, d)][0], (pe, (), (sm[(1, d)],)))
        t.tau[u] = tu
        key = min(sorted(tu), key=lambda k: tu[k][0])
        t.tau_best[u] = (tu[key][0], key)
        t.sigma_delta[u] = sd
        t.sigma[u] = sg
        t.sigma_m[u] = {span: ent for span, ent in sm.items()
                        if span[0] <= span[1]}
    return t


# -- reconstruction -------------------------------------------------------------

def _components_of(entry: tuple) -> list[set[int]]:
    """The edge components an entry stands for, by an explicit stack of
    (entry, component it joins or None), so tree depth is unbounded."""
    comps: list[set[int]] = []
    stack = [(entry, None)]
    while stack:
        (_, (edge, joined, apart)), comp = stack.pop()
        if comp is None and (edge is not None or joined):
            comp = set()
            comps.append(comp)
        if edge is not None:
            comp.add(edge)
        stack.extend((ref, comp) for ref in joined)
        stack.extend((ref, None) for ref in apart)
    return comps


# -- public solvers -------------------------------------------------------------

def min_gtd_exact(rt: RootedTree, mode: str) -> Partition:
    """Minimum-size decomposition of a rooted tree drawing.

    mode is "proper" or "noncrossing". The reconstructed partition is
    re-validated before being returned.
    """
    tables = fill_gtd_tables(rt, mode)
    v0 = rt.children[rt.root][0]
    size, key = tables.tau_best[v0]
    comps = _components_of(tables.tau[v0][key])
    del tables  # validation reads no table: free them before it
    if len(comps) != size:
        raise GRRError(
            f"reconstruction produced {len(comps)} components, "
            f"table says {size}")
    p = Partition(
        components=tuple(sorted((frozenset(c) for c in comps),
                                key=lambda c: min(c))),
        contact_mode=mode)
    report = validate_partition(rt.drawing, p)
    if not report.ok:
        raise GRRError("invalid reconstructed partition: "
                       + "; ".join(report.problems))
    return p


def _split(d: Drawing) -> SubdividedDrawing:
    """The subdivision of d that a split solve runs on. A refinement
    beyond SPLIT_SOLVE_EDGE_BUDGET edges raises BudgetExceededError
    before any solve starts."""
    sd = subdivide(d)
    if sd.drawing.n_edges > SPLIT_SOLVE_EDGE_BUDGET:
        raise BudgetExceededError(
            f"split solve limited to {SPLIT_SOLVE_EDGE_BUDGET} refined "
            f"edges, got {sd.drawing.n_edges}")
    return sd


def min_gtd_with_splits(d: Drawing, mode: str) -> Partition:
    """Minimum decomposition when edges may be split.

    Runs the exact program on the subdivision of d; component edge ids
    refer to the subdivided drawing carried in the result's origin.
    """
    sd = _split(d)
    rt = root_tree(sd.drawing, default_root(sd.drawing))
    p = min_gtd_exact(rt, mode)
    return Partition(components=p.components, contact_mode=mode, origin=sd)


def approx_gtd_with_splits(d: Drawing) -> Partition:
    """approx_gtd_proper on the subdivision of d; component edge ids
    refer to the subdivided drawing carried in the result's origin."""
    sd = _split(d)
    p = approx_gtd_proper(sd.drawing)
    return Partition(components=p.components, contact_mode=p.contact_mode,
                     origin=sd)


def build_multicut_instance(d: Drawing) -> MulticutInstance:
    """The subdivided conflict tree: one node per vertex and per edge,
    unit weights, one terminal pair per conflicting edge pair."""
    edges = []
    for idx, (uu, vv) in enumerate(d.edges):
        edges.append((("v", uu), ("e", idx)))
        edges.append((("e", idx), ("v", vv)))
    pairs = [(("e", i), ("e", j)) for i, j in conflicting_pairs(d)]
    return MulticutInstance(edges, pairs)


def multicut_to_partition(d: Drawing, inst: MulticutInstance,
                          cut: Cut) -> Partition:
    """Components of the conflict tree minus the cut, restricted to
    edge nodes, become the partition components."""
    comps = [frozenset(idx for kind, idx in members if kind == "e")
             for members in cut_components(inst, cut)]
    return Partition(components=tuple(sorted(filter(None, comps), key=min)),
                     contact_mode="proper")


def partition_to_multicut(d: Drawing, p: Partition) -> Cut:
    """The conflict-tree cut induced by a partition: at every shared
    vertex, detach all but one incident component."""
    m = d.n_edges
    comp_edges_at: dict[int, dict[int, list[int]]] = {}
    for ci, c in enumerate(p.components):
        for e in c:
            for v in d.edges[e]:
                comp_edges_at.setdefault(v, {}).setdefault(ci, []).append(e)
    cut_edges = set()
    for v, at_v in comp_edges_at.items():
        keeper = min(at_v, key=lambda ci: (-len(at_v[ci]), min(at_v[ci])))
        cut_edges.update((("e", e), ("v", v)) for ci, es in at_v.items()
                         if ci != keeper for e in es)
    return Cut(frozenset(cut_edges), Fraction(len(cut_edges)))


def approx_gtd_proper(d: Drawing) -> Partition:
    """Proper-contact decomposition within twice the optimum (minus one),
    via the primal-dual multicut approximation."""
    inst = build_multicut_instance(d)
    cut = approx_gvy(inst)
    p = multicut_to_partition(d, inst, cut)
    report = validate_partition(d, p)
    if not report.ok:
        raise GRRError("multicut produced an invalid partition: "
                       + "; ".join(report.problems))
    return p
