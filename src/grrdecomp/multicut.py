"""Minimum multicut on trees.

Given a tree with positive edge weights and a list of terminal pairs,
find a cheap edge set whose removal separates every pair. The exact
solver is a small branch-and-bound used as an oracle; the primal-dual
scheme gives the 2-approximation the decomposition pipeline relies on.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import BudgetExceededError, NotATreeError
from .geometry import frac

EXACT_EDGE_BUDGET = 25  # the most tree edges solve_exact_small searches


def _canon(u, v) -> tuple:
    return (u, v) if u <= v else (v, u)


class MulticutInstance:
    """An edge-weighted tree plus terminal pairs to disconnect.

    Nodes may be any sortable hashable values; edges are stored in
    canonical (min, max) form in input order.
    """

    __slots__ = ("nodes", "edges", "weights", "terminal_pairs",
                 "_index", "_adj", "_parent", "_depth", "_parent_edge")

    def __init__(self, edges: Sequence[tuple], terminal_pairs: Sequence[tuple],
                 weights: Optional[Sequence] = None):
        elist = [_canon(u, v) for u, v in edges]
        if len(set(elist)) != len(elist):
            raise NotATreeError("repeated edge")
        nodes = set()
        for u, v in elist:
            if u == v:
                raise NotATreeError(f"self-loop at {u}")
            nodes.update((u, v))
        if weights is None:
            wlist = [Fraction(1)] * len(elist)
        else:
            wlist = [frac(w) for w in weights]
            if len(wlist) != len(elist):
                raise ValueError("one weight per edge required")
            if any(w <= 0 for w in wlist):
                raise ValueError("edge weights must be positive")
        adj: dict = {u: [] for u in sorted(nodes)}
        for idx, (u, v) in enumerate(elist):
            adj[u].append((v, idx))
            adj[v].append((u, idx))
        # connectivity plus |E| = |V| - 1 makes the graph a tree
        if nodes:
            root = min(nodes)
            parent: dict = {root: None}
            parent_edge: dict = {root: None}
            depth = {root: 0}
            stack = [root]
            while stack:
                x = stack.pop()
                for y, idx in adj[x]:
                    if y not in parent:
                        parent[y] = x
                        parent_edge[y] = idx
                        depth[y] = depth[x] + 1
                        stack.append(y)
            if len(parent) != len(nodes):
                raise NotATreeError("tree is not connected")
        else:
            parent, parent_edge, depth = {}, {}, {}
        if len(elist) != max(len(nodes) - 1, 0):
            raise NotATreeError("edge count does not match a tree")
        pairs = []
        for s, t in terminal_pairs:
            if s == t:
                raise ValueError(f"terminal pair ({s}, {t}) is not distinct")
            for w in (s, t):
                if w not in nodes:
                    raise ValueError(f"terminal {w} is not a tree node")
            pairs.append((s, t))
        self.nodes = tuple(sorted(nodes))
        self.edges = tuple(elist)
        self._index = {e: i for i, e in enumerate(elist)}
        self.weights = tuple(wlist)
        self.terminal_pairs = tuple(pairs)
        self._adj = {u: tuple(lst) for u, lst in adj.items()}
        self._parent = parent
        self._depth = depth
        self._parent_edge = parent_edge

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def edge_index(self, u, v) -> int:
        key = _canon(u, v)
        try:
            return self._index[key]
        except KeyError:
            raise ValueError(f"{key} is not a tree edge") from None

    def path_edges(self, s, t) -> tuple[int, ...]:
        """Edge indices on the unique s-t path."""
        out_s, out_t = [], []
        a, b = s, t
        while a != b:
            if self._depth[a] >= self._depth[b]:
                out_s.append(self._parent_edge[a])
                a = self._parent[a]
            else:
                out_t.append(self._parent_edge[b])
                b = self._parent[b]
        return tuple(out_s + out_t[::-1])

    def lca(self, s, t):
        a, b = s, t
        while a != b:
            if self._depth[a] >= self._depth[b]:
                a = self._parent[a]
            else:
                b = self._parent[b]
        return a


@dataclass(frozen=True)
class Cut:
    """A set of tree edges (canonical node pairs) and their total weight."""
    edges: frozenset
    total_weight: Fraction


def _cut_indices(inst: MulticutInstance, cut) -> set[int]:
    pairs = cut.edges if isinstance(cut, Cut) else cut
    idx = set()
    for u, v in pairs:
        key = _canon(u, v)
        i = inst._index.get(key)
        if i is None:
            raise ValueError(f"cut edge {key} is not a tree edge")
        idx.add(i)
    return idx


def _make_cut(inst: MulticutInstance, indices: Iterable[int]) -> Cut:
    idx = sorted(set(indices))
    return Cut(frozenset(inst.edges[i] for i in idx),
               sum((inst.weights[i] for i in idx), Fraction(0)))


def is_multicut(inst: MulticutInstance, cut) -> bool:
    """Does removing the cut separate every terminal pair?"""
    removed = _cut_indices(inst, cut)
    return all(
        any(e in removed for e in inst.path_edges(s, t))
        for s, t in inst.terminal_pairs)


def multicut_weight(inst: MulticutInstance, cut) -> Fraction:
    return sum((inst.weights[i] for i in _cut_indices(inst, cut)), Fraction(0))


def solve_exact_small(inst: MulticutInstance) -> Cut:
    """Minimum-weight multicut by branch and bound; only for small trees."""
    if inst.n_edges > EXACT_EDGE_BUDGET:
        raise BudgetExceededError(
            f"exact multicut limited to {EXACT_EDGE_BUDGET} edges, "
            f"got {inst.n_edges}")
    paths = [frozenset(inst.path_edges(s, t)) for s, t in inst.terminal_pairs]
    if not paths:
        return _make_cut(inst, ())
    weights = inst.weights
    best_idx: list[int] = list(range(inst.n_edges))
    best_w = sum(weights, Fraction(0))

    def lower_bound(chosen_w: Fraction, violated: list[frozenset[int]],
                    forbidden: frozenset[int]) -> Fraction:
        # greedy packing of edge-disjoint violated paths; each path in the
        # packing forces at least its cheapest usable edge into any solution
        lb = chosen_w
        used: set[int] = set()
        for path in sorted(violated, key=len):
            avail = path - forbidden
            if avail & used or not avail:
                continue
            used |= avail
            lb += min(weights[e] for e in avail)
        return lb

    def rec(chosen: set[int], chosen_w: Fraction, forbidden: frozenset[int]):
        nonlocal best_idx, best_w
        violated = [p for p in paths if not (p & chosen)]
        if not violated:
            if chosen_w < best_w:
                best_w = chosen_w
                best_idx = sorted(chosen)
            return
        if lower_bound(chosen_w, violated, forbidden) >= best_w:
            return
        branch = min(violated, key=lambda p: (len(p - forbidden), sorted(p)))
        options = sorted(branch - forbidden)
        if not options:
            return
        banned = set(forbidden)
        for e in options:
            chosen.add(e)
            rec(chosen, chosen_w + weights[e], frozenset(banned))
            chosen.remove(e)
            banned.add(e)

    rec(set(), Fraction(0), frozenset())
    return _make_cut(inst, best_idx)


def approx_gvy(inst: MulticutInstance) -> Cut:
    """Primal-dual 2-approximate multicut on a tree.

    Terminal pairs are processed by non-increasing depth of their lowest
    common ancestor; unseparated pairs raise their dual variable until
    edges on their path saturate, and all newly saturated edges join the
    cut. A reverse-delete pass restores minimality. Each pair's path is
    walked once: every edge keeps the pairs through it and every pair the
    count of its cut edges, so the cut, a multicut after the first pass,
    can lose an edge iff every pair through it has another cut edge.
    """
    pairs = inst.terminal_pairs
    lcas = [inst.lca(s, t) for s, t in pairs]
    order = sorted(range(len(pairs)),
                   key=lambda k: (-inst._depth[lcas[k]], lcas[k], pairs[k]))
    paths = [inst.path_edges(s, t) for s, t in pairs]
    through: list[list[int]] = [[] for _ in range(inst.n_edges)]
    for k, path in enumerate(paths):
        for e in path:
            through[e].append(k)
    cuts = [0] * len(pairs)
    load = [Fraction(0)] * inst.n_edges
    added: list[int] = []
    in_cut: set[int] = set()
    for k in order:
        if cuts[k]:
            continue
        path = paths[k]
        raise_by = min(inst.weights[e] - load[e] for e in path)
        for e in path:
            load[e] += raise_by
        for e in sorted(path):
            if load[e] == inst.weights[e] and e not in in_cut:
                in_cut.add(e)
                added.append(e)
                for q in through[e]:
                    cuts[q] += 1
    for e in reversed(added):
        if all(cuts[q] >= 2 for q in through[e]):
            in_cut.remove(e)
            for q in through[e]:
                cuts[q] -= 1
    return _make_cut(inst, in_cut)
