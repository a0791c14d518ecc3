"""Tree multicut: instance model, exact solver, 2-approximation."""

import hashlib
import random
from fractions import Fraction

import pytest

from conftest import sun_drawing
from grrdecomp.drawing import subdivide
from grrdecomp.errors import BudgetExceededError, NotATreeError
from grrdecomp.multicut import (
    Cut,
    MulticutInstance,
    approx_gvy,
    is_multicut,
    multicut_weight,
    solve_exact_small,
)
from grrdecomp.oracle import random_tree_drawing
from grrdecomp.treedecomp import build_multicut_instance


def path_instance(n, pairs, weights=None):
    return MulticutInstance([(i, i + 1) for i in range(n)], pairs, weights)


# -- instance model ---------------------------------------------------------------


def test_instance_canonicalizes_edges():
    inst = MulticutInstance([(2, 1), (3, 2)], [(1, 3)])
    assert inst.edges == ((1, 2), (2, 3))
    assert inst.edge_index(2, 1) == 0
    assert inst.edge_index(2, 3) == 1
    with pytest.raises(ValueError):
        inst.edge_index(1, 3)


def test_instance_accepts_string_nodes():
    inst = MulticutInstance([("b", "a"), ("b", "c")], [("a", "c")])
    assert inst.nodes == ("a", "b", "c")
    assert set(inst.path_edges("a", "c")) == {0, 1}


def test_instance_default_weights_are_unit():
    inst = path_instance(3, [])
    assert inst.weights == (Fraction(1),) * 3


def test_instance_converts_weight_strings():
    inst = MulticutInstance([(0, 1)], [], weights=["2/3"])
    assert inst.weights == (Fraction(2, 3),)


@pytest.mark.parametrize("edges", [
    [(0, 1), (1, 0)],            # repeated edge after canonicalization
    [(0, 0)],                    # self-loop
    [(0, 1), (2, 3)],            # disconnected
    [(0, 1), (1, 2), (2, 0)],    # cycle
])
def test_instance_rejects_non_trees(edges):
    with pytest.raises(NotATreeError):
        MulticutInstance(edges, [])


@pytest.mark.parametrize("pairs,weights", [
    ([(1, 1)], None),            # terminal pair not distinct
    ([(0, 9)], None),            # unknown terminal
    ([], [1, 2]),                # weight count mismatch
    ([], [0]),                   # nonpositive weight
    ([], [-1]),                  # negative weight
])
def test_instance_rejects_bad_pairs_and_weights(pairs, weights):
    with pytest.raises(ValueError):
        MulticutInstance([(0, 1)], pairs, weights)


def test_path_edges_and_lca():
    # star with a tail: 0 is the root by min-label
    inst = MulticutInstance([(1, 2), (2, 3), (2, 4), (0, 1)], [(3, 4)])
    assert sorted(inst.path_edges(3, 4)) == [
        inst.edge_index(2, 3), inst.edge_index(2, 4)]
    assert inst.lca(3, 4) == 2
    assert inst.lca(0, 4) == 0
    assert inst.lca(2, 2) == 2
    assert inst.path_edges(3, 3) == ()


def test_empty_instance():
    inst = MulticutInstance([], [])
    assert inst.n_edges == 0
    assert solve_exact_small(inst).total_weight == 0
    assert approx_gvy(inst).total_weight == 0
    assert is_multicut(inst, ())


# -- cut predicates ---------------------------------------------------------------


def test_is_multicut_and_weight():
    inst = path_instance(4, [(0, 4), (1, 2)])
    assert is_multicut(inst, [(1, 2)])
    assert not is_multicut(inst, [(0, 1)])
    assert not is_multicut(inst, [])
    assert multicut_weight(inst, [(0, 1), (2, 1)]) == 2


def test_cut_with_foreign_edge_is_rejected():
    inst = path_instance(3, [])
    with pytest.raises(ValueError,
                       match=r"^cut edge \(0, 2\) is not a tree edge$"):
        is_multicut(inst, [(0, 2)])


# -- exact solver -----------------------------------------------------------------


def test_exact_on_path_shared_edge():
    # one edge sits on both terminal paths
    inst = path_instance(4, [(0, 4), (1, 2)])
    cut = solve_exact_small(inst)
    assert cut.edges == frozenset({(1, 2)})
    assert cut.total_weight == 1


def test_exact_on_star_disjoint_pairs():
    inst = MulticutInstance([(0, i) for i in (1, 2, 3, 4)], [(1, 2), (3, 4)])
    cut = solve_exact_small(inst)
    assert cut.total_weight == 2
    assert is_multicut(inst, cut)


def test_exact_prefers_cheap_edge():
    inst = MulticutInstance([("a", "b"), ("b", "c")], [("a", "c")],
                            weights=["3", "1/2"])
    cut = solve_exact_small(inst)
    assert cut.edges == frozenset({("b", "c")})
    assert cut.total_weight == Fraction(1, 2)


def test_exact_triangle_of_pairs_on_star():
    inst = MulticutInstance(
        [("c", x) for x in "xyz"], [("x", "y"), ("y", "z"), ("x", "z")])
    assert solve_exact_small(inst).total_weight == 2


def test_exact_budget_guard():
    inst = path_instance(26, [(0, 26)])
    with pytest.raises(BudgetExceededError):
        solve_exact_small(inst)


# -- 2-approximation --------------------------------------------------------------


def test_approx_is_deterministic():
    inst = path_instance(8, [(0, 5), (2, 7), (1, 3)])
    again = path_instance(8, [(0, 5), (2, 7), (1, 3)])
    assert approx_gvy(inst) == approx_gvy(again)


def test_approx_matches_exact_on_star_triangle():
    inst = MulticutInstance(
        [("c", x) for x in "xyz"], [("x", "y"), ("y", "z"), ("x", "z")])
    cut = approx_gvy(inst)
    assert is_multicut(inst, cut)
    assert cut.total_weight == 2


def test_approx_respects_weights():
    inst = MulticutInstance([(0, 1), (1, 2)], [(0, 2)], weights=[5, 1])
    cut = approx_gvy(inst)
    assert cut.edges == frozenset({(1, 2)})


def corpus_checks(record):
    inst, exact, heur = record["inst"], record["exact"], record["heur"]
    assert is_multicut(inst, heur)
    assert heur.total_weight <= 2 * exact.total_weight
    # reverse delete leaves no removable edge behind
    for edge in heur.edges:
        assert not is_multicut(inst, heur.edges - {edge})


def test_approx_bound_holds_on_corpus(multicut_corpus):
    for record in multicut_corpus:
        corpus_checks(record)


def test_corpus_exercises_a_strict_gap(multicut_corpus):
    # the heuristic must actually be approximate somewhere, or the 2x
    # bound test would be vacuous
    gaps = [r for r in multicut_corpus
            if r["heur"].total_weight > r["exact"].total_weight]
    assert gaps
    for r in gaps:
        assert r["heur"].total_weight <= 2 * r["exact"].total_weight


def test_exact_is_never_beaten_on_corpus(multicut_corpus):
    for record in multicut_corpus:
        assert record["exact"].total_weight <= record["heur"].total_weight
        assert is_multicut(record["inst"], record["exact"])


def test_approx_walks_each_path_once_on_corpus(multicut_corpus, count_calls):
    # cuts as the re-walking reverse delete gave them
    walks = count_calls(MulticutInstance, "path_edges")
    cuts, pairs = [], 0
    for record in multicut_corpus:
        inst = record["inst"]
        cut = approx_gvy(inst)
        assert cut == record["heur"]
        cuts.append(sorted(cut.edges))
        pairs += len(inst.terminal_pairs)
    assert walks() <= pairs
    assert hashlib.sha256(repr(cuts).encode()).hexdigest() == (
        "ae7f1a4ae15b4b7acd9a2b578488c3789e25f77b811cd4ac567e28c4a7e18091")


def test_approx_walks_each_path_once_on_drawings(count_calls):
    # conflict trees of seeded suns and subdivided random trees
    rng = random.Random(9)
    drawings = [sun_drawing(rng, 20 + 10 * k) for k in range(3)]
    drawings += [subdivide(random_tree_drawing(rng, 6 + 2 * k)).drawing
                 for k in range(6)]
    insts = [build_multicut_instance(d) for d in drawings]
    walks = count_calls(MulticutInstance, "path_edges")
    cuts = [sorted(approx_gvy(inst).edges) for inst in insts]
    assert walks() <= sum(len(inst.terminal_pairs) for inst in insts)
    assert [len(c) for c in cuts] == [17, 27, 37, 4, 6, 8, 7, 10, 11]
    assert hashlib.sha256(repr(cuts).encode()).hexdigest() == (
        "5bddc23ed73bc2018186b69b2b01469b89551188bc61fb957f0e3a9334c6cb73")
