"""Reference solvers and instance generators."""

import random

import pytest

from conftest import (
    USHAPE_FAILURE_PAIR,
    USHAPE_FAILURE_POINT,
    lshape_tp,
    plus_drawing,
    rect_tp,
    star4_cross,
    strip_tp,
    tree_fixture_drawings,
    tree_path_points,
    two_notch_tp,
    ushape_polygon,
    ushape_tp,
)
from grrdecomp.analysis import path_increasing_chord, tree_increasing_chord
from grrdecomp.drawing import validate_drawing
from grrdecomp.errors import BudgetExceededError, InputError, NotATreeError
from grrdecomp.geometry import Polygon, pt
from grrdecomp.oracle import (
    ORACLE_EDGE_BUDGET,
    brute_force_all_modes,
    brute_force_min_gtd,
    brute_force_min_polygon,
    chord_property_oracle,
    random_connected_subtree,
    random_multicut_instance,
    random_tree_drawing,
    random_triangulated_polygon,
    sampled_grr_probe,
)
from grrdecomp.treedecomp import validate_partition


# -- generators -------------------------------------------------------------------


def test_random_tree_drawing_sizes_and_validity():
    rng = random.Random(31)
    for n in (1, 2, 5, 9):
        d = random_tree_drawing(rng, n)
        assert d.n_edges == n
        assert d.n_vertices == n + 1
        # construction already went through validate_drawing; re-validate
        assert validate_drawing(
            sorted(d.points.items()), list(d.edges)) is not None


def test_random_tree_drawing_rejects_zero_edges():
    with pytest.raises(InputError):
        random_tree_drawing(random.Random(1), 0)


def test_random_tree_drawing_is_seed_deterministic():
    a = random_tree_drawing(random.Random(77), 6)
    b = random_tree_drawing(random.Random(77), 6)
    assert a == b


def test_random_connected_subtree_is_connected():
    rng = random.Random(13)
    for _ in range(50):
        d = random_tree_drawing(rng, rng.randint(2, 8))
        sub = random_connected_subtree(d, rng)
        assert sub and sub <= set(range(d.n_edges))
        # connectivity: walk from one member over shared vertices
        seen = {next(iter(sub))}
        grew = True
        while grew:
            grew = False
            for e in sorted(sub - seen):
                if any(set(d.edges[e]) & set(d.edges[f]) for f in seen):
                    seen.add(e)
                    grew = True
        assert seen == sub


def test_random_triangulated_polygon_sizes():
    rng = random.Random(5)
    for n in (1, 2, 6, 11):
        tp = random_triangulated_polygon(rng, n)
        assert tp.n_triangles == n
        assert len(tp.dual_edges) == n - 1


def test_random_triangulated_polygon_rejects_zero():
    with pytest.raises(InputError):
        random_triangulated_polygon(random.Random(1), 0)


def test_random_multicut_instance_budgets():
    rng = random.Random(99)
    for _ in range(40):
        inst = random_multicut_instance(rng, max_edges=12, max_pairs=5)
        assert 3 <= inst.n_edges <= 12
        assert 1 <= len(inst.terminal_pairs) <= 5
        assert all(w > 0 for w in inst.weights)


# -- exhaustive tree decomposition ---------------------------------------------------


def test_brute_force_mode_inventory_on_star4():
    result = brute_force_all_modes(star4_cross())
    assert sorted(result) == ["any", "noncrossing", "proper"]
    assert {m: k for m, (k, _) in result.items()} == {
        "any": 2, "noncrossing": 2, "proper": 3}
    for mode, (k, partition) in result.items():
        assert partition.size == k
        assert validate_partition(star4_cross(), partition).ok


def test_brute_force_star4_any_mode_uses_crossing_halves():
    _, partition = brute_force_all_modes(star4_cross())["any"]
    assert tuple(tuple(sorted(c)) for c in partition.components) in (
        ((0, 2), (1, 3)),)


def test_brute_force_on_conflict_free_drawing():
    result = brute_force_all_modes(plus_drawing())
    assert all(k == 1 for k, _ in result.values())


def test_brute_force_modes_are_monotone():
    rng = random.Random(321)
    for _ in range(25):
        d = random_tree_drawing(rng, rng.randint(1, 7))
        result = brute_force_all_modes(d)
        assert (result["any"][0]
                <= result["noncrossing"][0]
                <= result["proper"][0]
                <= d.n_edges)


def test_brute_force_guards():
    rng = random.Random(8)
    big = random_tree_drawing(rng, ORACLE_EDGE_BUDGET + 1)
    with pytest.raises(BudgetExceededError):
        brute_force_all_modes(big)
    square = validate_drawing(
        [(0, pt(0, 0)), (1, pt(2, 0)), (2, pt(2, 2)), (3, pt(0, 2))],
        [(0, 1), (1, 2), (2, 3), (3, 0)])
    with pytest.raises(NotATreeError):
        brute_force_all_modes(square)
    with pytest.raises(ValueError):
        brute_force_min_gtd(plus_drawing(), "weird")


def test_brute_force_components_are_increasing_chord():
    for name, d in tree_fixture_drawings().items():
        for mode, (k, partition) in brute_force_all_modes(d).items():
            for comp in partition.components:
                assert tree_increasing_chord(d, comp), (name, mode)


# -- chord oracle ----------------------------------------------------------------


def test_chord_oracle_hand_cases():
    assert chord_property_oracle([pt(0, 0), pt(1, 0)])
    assert chord_property_oracle([pt(0, 0), pt(1, 0), pt(2, 0)])
    assert chord_property_oracle([pt(0, 0), pt(1, 0), pt(1, 1)])
    assert not chord_property_oracle([pt(0, 0), pt(2, 0), pt(0, 1)])


def test_chord_oracle_catches_interior_approach():
    # the chord from the first vertex shrinks inside the last edge, at
    # the projection foot, even though all vertex chords grow
    assert not chord_property_oracle([pt(-1, 6), pt(-4, -1), pt(3, -1)])
    assert not path_increasing_chord([pt(-1, 6), pt(-4, -1), pt(3, -1)])


def test_chord_oracle_needs_two_points():
    with pytest.raises(InputError):
        chord_property_oracle([pt(0, 0)])


# -- exhaustive polygon decomposition --------------------------------------------------


def test_brute_force_polygon_fixture_values():
    assert brute_force_min_polygon(rect_tp()) == 1
    assert brute_force_min_polygon(lshape_tp()) == 1
    assert brute_force_min_polygon(ushape_tp()) == 2
    assert brute_force_min_polygon(two_notch_tp()) == 3


def test_brute_force_polygon_budget():
    with pytest.raises(BudgetExceededError):
        brute_force_min_polygon(strip_tp(8))


# -- sampled routing probe --------------------------------------------------------


def test_probe_on_square_always_succeeds():
    square = Polygon([pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4)])
    report = sampled_grr_probe(square, 60, seed=3)
    assert report.n_pairs == 60
    assert report.success_rate == 1
    assert report.failures == ()
    assert report.monotone_ok


def test_probe_records_ushape_failure():
    s, t = USHAPE_FAILURE_PAIR
    report = sampled_grr_probe(ushape_polygon(), 10, seed=3,
                               extra_pairs=[(s, t)])
    assert report.success_rate < 1
    assert any(fs == s and ft == t and at == USHAPE_FAILURE_POINT
               for fs, ft, at in report.failures)


def test_probe_is_seed_deterministic():
    poly = ushape_polygon()
    a = sampled_grr_probe(poly, 30, seed=11)
    b = sampled_grr_probe(poly, 30, seed=11)
    assert (a.successes, a.failures) == (b.successes, b.failures)


def test_probe_empty_report():
    square = Polygon([pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4)])
    report = sampled_grr_probe(square, 0, seed=1)
    assert report.n_pairs == 0
    assert report.success_rate == 1
