"""Acceptance gate: one test per release criterion.

Each test consumes the session corpora from conftest so the whole gate
stays within the stated runtime budgets. Every assertion here restates a
guarantee the library is sold on; none of them may be weakened.
"""

import random
import time

from conftest import (
    USHAPE_FAILURE_PAIR,
    USHAPE_FAILURE_POINT,
    connected_edge_subsets,
    grr_polygon_fixtures,
    polygon_fixture_tps,
    rect_tp,
    tree_fixture_drawings,
    tree_path_points,
    two_notch_polygon,
    ushape_polygon,
    ushape_tp,
    witness_defects,
)

from grrdecomp.analysis import (
    conflicting_pairs,
    drawing_edges_conflict,
    path_increasing_chord,
    polygon_conflicting_edge_pairs,
    polygon_edges_conflict,
    polygon_is_grr,
    tree_increasing_chord,
)
from grrdecomp.drawing import default_root, root_tree, subdivide, validate_drawing
from grrdecomp.errors import GRRError
from grrdecomp.geometry import pt
from grrdecomp.multicut import is_multicut, solve_exact_small
from grrdecomp.oracle import (
    random_connected_subtree,
    random_tree_drawing,
    sampled_grr_probe,
)
from grrdecomp.polydecomp import (
    conflicting_triangle_pairs,
    decompose_polygon_exact_small,
    piece_union_polygon,
)
from grrdecomp.treedecomp import (
    build_multicut_instance,
    min_gtd_exact,
    multicut_to_partition,
    partition_to_multicut,
)


def test_criterion_1_exact_dp_matches_oracle_on_corpus(tree_corpus):
    """Exact DP size equals brute force on 200 random trees and all
    named fixtures, for both contact modes, within the time budget."""
    records = tree_corpus["records"]
    assert len(records) >= 206
    for r in records:
        for mode in ("proper", "noncrossing"):
            assert r["dp"][mode].size == r["oracle"][mode], \
                f"{r['name']}: DP({mode}) = {r['dp'][mode].size}, " \
                f"oracle = {r['oracle'][mode]}"
    assert tree_corpus["elapsed"] < 300


def test_criterion_2_contact_mode_chain(tree_corpus):
    """any-contact optimum <= noncrossing <= proper <= edge count,
    with zero violations across the corpus."""
    for r in records_of(tree_corpus):
        any_k = r["oracle"]["any"]
        nc = r["dp"]["noncrossing"].size
        pr = r["dp"]["proper"].size
        m = r["drawing"].n_edges
        assert any_k <= nc <= pr <= m, \
            f"{r['name']}: chain {any_k}, {nc}, {pr}, m={m} broken"


def records_of(corpus):
    return corpus["records"]


def test_criterion_3_proper_approximation_and_multicut_bijection(tree_corpus):
    """The proper-contact heuristic is within 2*OPT - 1 everywhere, and
    partitions correspond to conflict-tree multicuts of weight k - 1."""
    for r in records_of(tree_corpus):
        opt = r["dp"]["proper"].size
        assert r["approx"].size <= 2 * opt - 1, \
            f"{r['name']}: approx {r['approx'].size} vs OPT {opt}"
    for name, d in tree_fixture_drawings().items():
        inst = build_multicut_instance(d)
        p = min_gtd_exact(root_tree(d, default_root(d)), "proper")
        cut = partition_to_multicut(d, p)
        assert cut.total_weight == p.size - 1, name
        assert is_multicut(inst, cut), name
        assert multicut_to_partition(d, inst, cut).components == p.components
        best = solve_exact_small(inst)
        back = multicut_to_partition(d, inst, best)
        assert back.size == best.total_weight + 1, name
        assert p.size == best.total_weight + 1, name


def test_criterion_4_multicut_heuristic_bound_and_minimality(multicut_corpus):
    """Primal-dual multicut output is feasible, reverse-delete minimal,
    and never more than twice the exact optimum, on 200 instances."""
    assert len(multicut_corpus) >= 200
    for i, rec in enumerate(multicut_corpus):
        inst, exact, heur = rec["inst"], rec["exact"], rec["heur"]
        assert is_multicut(inst, heur), f"instance {i}: infeasible output"
        assert heur.total_weight <= 2 * exact.total_weight, \
            f"instance {i}: {heur.total_weight} > 2 * {exact.total_weight}"
        for drop in heur.edges:
            assert not is_multicut(inst, heur.edges - {drop}), \
                f"instance {i}: edge {drop} is redundant"


def test_criterion_5_polygon_pipeline(polygon_corpus):
    """Every decomposition piece is greedily routable and the fast
    decomposer stays within 2*exact - 1 pieces; fixture optima hold."""
    assert len(polygon_corpus) >= 100
    for i, rec in enumerate(polygon_corpus):
        tp, k = rec["tp"], rec["exact_size"]
        assert rec["exact"].size == k, f"polygon {i}"
        assert rec["approx"].size <= 2 * k - 1, \
            f"polygon {i}: {rec['approx'].size} pieces vs exact {k}"
        for dec in (rec["exact"], rec["approx"]):
            for piece in dec.pieces:
                assert polygon_is_grr(piece_union_polygon(tp, piece)) is None
    assert decompose_polygon_exact_small(ushape_tp()).size == 2
    assert decompose_polygon_exact_small(rect_tp()).size == 1
    for name, tp in polygon_fixture_tps().items():
        dec = decompose_polygon_exact_small(tp)
        for piece in dec.pieces:
            assert polygon_is_grr(piece_union_polygon(tp, piece)) is None, name


def test_criterion_6a_subtree_verdict_matches_pairwise_paths():
    """The subtree chord check agrees with testing every vertex pair's
    path individually, on 500 random connected subtrees."""
    rng = random.Random(606)
    checked = 0
    while checked < 500:
        try:
            d = random_tree_drawing(rng, rng.randint(2, 9))
        except GRRError:
            continue
        for _ in range(4):
            if checked >= 500:
                break
            sub = random_connected_subtree(d, rng)
            vids = sorted({v for e in sub for v in d.edges[e]})
            direct = all(
                path_increasing_chord(tree_path_points(d, sub, a, b))
                for ai, a in enumerate(vids) for b in vids[ai + 1:])
            assert tree_increasing_chord(d, sub) == direct
            checked += 1
    assert checked == 500


def test_criterion_6b_conflict_free_triangles_iff_routable_union():
    """For every connected dual subtree of every fixture polygon, the
    union is greedily routable exactly when no two triangles conflict."""
    total = 0
    for name, tp in sorted(polygon_fixture_tps().items()):
        adj = {i: [] for i in range(tp.n_triangles)}
        for a, b in tp.dual_edges:
            adj[a].append(b)
            adj[b].append(a)
        conflicts = set(conflicting_triangle_pairs(tp))
        for sub in connected_edge_subsets(adj):
            free = not any((i, j) in conflicts
                           for i in sub for j in sub if i < j)
            routable = polygon_is_grr(piece_union_polygon(tp, sub)) is None
            assert free == routable, f"{name}: subtree {sorted(sub)}"
            total += 1
    assert total >= 100


def test_criterion_6c_four_path_test_matches_full_union(two_fan_sweep):
    """On 1000 two-fan configurations the four extreme root paths decide
    whether the whole union has the chord property."""
    records = two_fan_sweep["records"]
    assert len(records) >= 1000
    for i, r in enumerate(records):
        assert r["defect"] is None, f"configuration {i}: {r['defect']}"
        assert r["four_path"] == r["full_union"], \
            f"configuration {i} ({r['flavor']}): " \
            f"four-path {r['four_path']}, union {r['full_union']}"
    # the sweep must exercise both outcomes and nontrivial unions
    assert any(r["four_path"] for r in records)
    assert any(not r["four_path"] for r in records)
    assert any(r["strict"] for r in records)


def test_criterion_7_greedy_tracing_and_witness_soundness(trace_probes):
    """Greedy routing always succeeds with strictly decreasing distance
    inside routable fixtures, fails on the known bad pair, and every
    conflict witness satisfies its geometric contract."""
    assert len(trace_probes) == len(grr_polygon_fixtures())
    for name, report in trace_probes.items():
        assert report.n_pairs == 500, name
        assert report.successes == 500, (name, report.failures)
        assert report.failures == (), name
        assert report.monotone_ok, name
    bad = sampled_grr_probe(ushape_polygon(), 1, seed=7,
                            extra_pairs=[USHAPE_FAILURE_PAIR])
    assert bad.successes == 0 and len(bad.failures) == 1
    assert bad.failures[0][2] == USHAPE_FAILURE_POINT
    for d in tree_fixture_drawings().values():
        for e, f in conflicting_pairs(d):
            for w in (drawing_edges_conflict(d, e, f),
                      drawing_edges_conflict(d, f, e)):
                if w is not None:
                    assert witness_defects(d.segment(w.e),
                                           d.segment(w.f), w) == []
    for poly in (ushape_polygon(), two_notch_polygon()):
        for e, f in polygon_conflicting_edge_pairs(poly):
            for w in (polygon_edges_conflict(poly, e, f),
                      polygon_edges_conflict(poly, f, e)):
                if w is not None:
                    assert witness_defects(poly.edge(w.e),
                                           poly.edge(w.f), w) == []


def test_criterion_8_splits_never_hurt_and_subdivision_is_bounded(tree_corpus):
    """Allowing splits never increases the optimum, pays off on the comb
    drawing, and the subdivision stays within n + 2m(m - 1) vertices."""
    for r in records_of(tree_corpus):
        assert r["split"].size <= r["dp"]["proper"].size, r["name"]
        d = r["drawing"]
        n, m = d.n_vertices, d.n_edges
        assert subdivide(d).drawing.n_vertices <= n + 2 * m * (m - 1), \
            r["name"]
    by_name = {r["name"]: r for r in records_of(tree_corpus)}
    assert by_name["comb"]["dp"]["proper"].size == 3
    assert by_name["comb"]["split"].size == 2


def test_criterion_9_exact_dp_scales_to_desk_size():
    """The exact DP finishes a 50-edge path and a 40-edge random tree
    drawing in under a minute each."""
    verts = [(i, pt(i, i % 2)) for i in range(51)]
    edges = [(i, i + 1) for i in range(50)]
    path = validate_drawing(verts, edges)
    t0 = time.perf_counter()
    got = min_gtd_exact(root_tree(path, default_root(path)), "proper")
    assert time.perf_counter() - t0 < 60
    assert got.size == 1

    rng = random.Random(31415)
    while True:
        try:
            tree = random_tree_drawing(rng, 40)
            break
        except GRRError:
            continue
    t0 = time.perf_counter()
    got = min_gtd_exact(root_tree(tree, default_root(tree)), "proper")
    assert time.perf_counter() - t0 < 60
    assert 1 <= got.size <= 40
