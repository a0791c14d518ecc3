"""Decomposition DP, partition validation, and the multicut bridge."""

import hashlib
import math
import random
import sys
from itertools import combinations

import pytest

import grrdecomp.treedecomp as treedecomp
from conftest import (
    SIMILARITIES,
    assert_table_matches_direct_predicate,
    comb_drawing,
    dp_table_digest,
    p_acute,
    plus_drawing,
    sawtooth,
    star4_cross,
    sun_drawing,
    tree_fixture_drawings,
    zigzag,
)
from grrdecomp.analysis import conflicting_pairs
from grrdecomp.drawing import (
    default_root,
    root_tree,
    subdivide,
    validate_drawing,
)
from grrdecomp.errors import GRRError
from grrdecomp.geometry import Point, hp, in_hp, pt
from grrdecomp.multicut import is_multicut
from grrdecomp.oracle import random_tree_drawing
from grrdecomp.treedecomp import (
    _NOTHING,
    Partition,
    _components_of,
    approx_gtd_proper,
    build_multicut_instance,
    fill_gtd_tables,
    min_gtd_exact,
    min_gtd_with_splits,
    multicut_to_partition,
    partition_to_multicut,
    precompute_path_ic,
    validate_partition,
)


def failing_checks(report):
    return [name for name, flag in report.checks if not flag]


def rooted(d):
    return root_tree(d, default_root(d))


# -- all-pairs path table ----------------------------------------------------------


# twelve leg directions, about 30 degrees apart
SUN_RAYS = ((10, 0), (9, 5), (5, 9), (0, 10), (-5, 9), (-9, 5),
            (-10, 0), (-9, -5), (-5, -9), (0, -10), (5, -9), (9, -5))


def sun(rng):
    """A twelve-leg star around vertex 0; every other leg has a second
    edge bent a few degrees off its ray."""
    verts = [(0, pt(0, 0))]
    edges = []
    for k, (dx, dy) in enumerate(SUN_RAYS):
        tip = (100 * dx + rng.randint(-20, 20), 100 * dy + rng.randint(-20, 20))
        verts.append((len(verts), pt(*tip)))
        edges.append((0, len(verts) - 1))
        if k % 2:
            bend = rng.randint(-6, 6)
            end = (tip[0] + 50 * dx - bend * dy, tip[1] + 50 * dy + bend * dx)
            verts.append((len(verts), pt(*end)))
            edges.append((len(verts) - 2, len(verts) - 1))
    return validate_drawing(verts, edges)


def test_path_table_matches_direct_predicate_on_fixtures():
    for name, d in tree_fixture_drawings().items():
        assert_table_matches_direct_predicate(d, name)


def test_path_table_matches_direct_predicate_on_random_trees():
    rng = random.Random(771)
    for _ in range(40):
        assert_table_matches_direct_predicate(
            random_tree_drawing(rng, rng.randint(2, 8)))


def test_path_table_matches_direct_predicate_on_long_paths():
    rng = random.Random(3030)
    for _ in range(2):
        assert_table_matches_direct_predicate(zigzag(rng, 30), "zigzag")
        assert_table_matches_direct_predicate(sawtooth(rng, 30), "sawtooth")


def test_path_table_matches_direct_predicate_on_suns():
    rng = random.Random(1212)
    for _ in range(3):
        assert_table_matches_direct_predicate(sun(rng), "sun")


def test_path_table_matches_direct_predicate_on_subdivided_trees():
    # subdivision puts many collinear points on each edge
    rng = random.Random(4242)
    done = 0
    while done < 3:
        try:
            d = random_tree_drawing(rng, 8)
        except GRRError:
            continue
        assert_table_matches_direct_predicate(subdivide(d).drawing, "split")
        done += 1


def test_path_table_pops_at_most_one_step_per_ordered_pair():
    # each pop decides one ordered pair with two halfplane tests; a walk
    # that re-scans each path would pop about n**3 / 3 steps here
    d = zigzag(random.Random(200), 200)
    n = d.n_vertices
    rt = rooted(d)
    pops = 0

    def count_pops(frame, event, arg):
        nonlocal pops
        if (event == "c_call" and getattr(arg, "__name__", "") == "pop"
                and type(getattr(arg, "__self__", None)) is list
                and frame.f_code.co_filename == treedecomp.__file__):
            pops += 1

    sys.setprofile(count_pops)
    try:
        rows = precompute_path_ic(rt)
    finally:
        sys.setprofile(None)
    assert 0 < pops <= n * (n - 1)
    assert n - 1 in rows[0] and 0 in rows[n - 1]


def reference_path_ic(rt):
    """The halfplane walk that precompute_path_ic replaced: the same
    recurrence, each test an in_hp call on a Halfplane of the lattice."""
    d = rt.drawing
    lat = d.lattice
    nbrs = {v: [d.other_endpoint(e, v) for e in d.adjacency[v]]
            for v in d.vertex_ids}
    halfplanes = {(a, b): hp(lat[a], lat[b]) for a in nbrs for b in nbrs[a]}
    table = {v: {v} for v in d.vertex_ids}

    def walk(s, first):
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


def test_path_table_matches_the_halfplane_reference():
    # as drawn and under both similarities, rooted at two leaves each
    rng = random.Random(24)
    drawings = [sun_drawing(rng, n) for n in (6, 9, 12)] + [sun(rng)]
    drawings += [zigzag(rng, n) for n in (5, 12, 25)]
    drawings += [sawtooth(rng, n) for n in (5, 12, 25)]
    while len(drawings) < 40:
        try:
            drawings.append(random_tree_drawing(rng, rng.randint(2, 12)))
        except GRRError:
            continue
    checked = 0
    for d in drawings:
        for m in (None, *SIMILARITIES):
            image = d if m is None else validate_drawing(
                [(v, m(d.points[v])) for v in d.vertex_ids], d.edges)
            leaves = [v for v in image.vertex_ids
                      if len(image.adjacency[v]) == 1]
            for r in (leaves[0], leaves[-1]):
                rt = root_tree(image, r)
                assert precompute_path_ic(rt) == reference_path_ic(rt)
                checked += 1
    assert checked == 240


def test_path_table_rows_hold_only_true_targets():
    # every two-edge sawtooth subpath conflicts, so a row holds its own
    # vertex and at most two neighbours
    d = sawtooth(random.Random(360), 360)
    n = d.n_vertices
    rows = precompute_path_ic(rooted(d))
    assert sum(len(row) for row in rows.values()) <= 3 * n
    assert 1 in rows[0] and 2 not in rows[0]
    assert n - 1 not in rows[0]


def test_path_table_query_rejects_unknown_vertices():
    d = zigzag(random.Random(5), 4)
    rows = precompute_path_ic(rooted(d))
    for s in (99, -1):
        with pytest.raises(KeyError):
            rows[s]


@pytest.mark.parametrize("n_edges", [22, 200])
def test_conflict_free_checks_build_no_points(count_calls, n_edges):
    # both scans decide every pair on the drawing's lattice; a Point
    # would only be built for a witness, and this zigzag has none
    d = zigzag(random.Random(n_edges), n_edges)
    whole = Partition((frozenset(range(n_edges)),), "proper")
    built = count_calls(Point, "__post_init__")
    assert conflicting_pairs(d) == ()
    assert validate_partition(d, whole).ok
    assert built() == 0


# -- partition validation -----------------------------------------------------------


def comps(*groups):
    return tuple(frozenset(g) for g in groups)


def test_validator_accepts_dp_output():
    for name, d in tree_fixture_drawings().items():
        for mode in ("proper", "noncrossing"):
            p = min_gtd_exact(rooted(d), mode)
            report = validate_partition(d, p)
            assert report.ok and report.problems == (), (name, mode)
            assert [n for n, _ in report.checks] == [
                "coverage", "connectivity", "acyclicity",
                "conflict-freeness", "single-shared-point", "contacts"]


def test_validator_rejects_unknown_mode():
    with pytest.raises(ValueError):
        validate_partition(plus_drawing(),
                           Partition(comps({0, 1, 2, 3}), "diagonal"))


@pytest.mark.parametrize("parts", [
    comps({0, 1}),               # edges 2, 3 not covered
    comps({0, 1, 2, 3, 9}),      # unknown edge id
    comps({0, 1}, {1, 2, 3}),    # edge 1 owned twice
    comps({0, 1, 2, 3}, set()),  # empty component
])
def test_validator_flags_coverage(parts):
    report = validate_partition(plus_drawing(), Partition(parts, "proper"))
    assert "coverage" in failing_checks(report)


def test_validator_takes_no_bool_for_an_edge():
    # True == 1, but a bool is no edge number
    report = validate_partition(
        plus_drawing(), Partition(comps({0}, {True}, {2}, {3}), "proper"))
    assert not report.ok
    assert "component 1 references unknown edge True" in report.problems
    assert "edges not covered: [1]" in report.problems


def test_validator_takes_mixed_type_components():
    # ids of mixed types do not sort: the validator reports, not raises
    report = validate_partition(
        plus_drawing(), Partition(comps({0, "1"}), "proper"))
    assert "component 0 references unknown edge '1'" in report.problems
    assert "edges not covered: [1, 2, 3]" in report.problems


def test_validator_flags_disconnected_component():
    # comb edges 2 and 4 do not share a vertex
    report = validate_partition(
        comb_drawing(),
        Partition(comps({0}, {1}, {2, 4}, {3}), "proper"))
    assert failing_checks(report) == ["connectivity"]


def test_validator_flags_conflicting_component():
    report = validate_partition(
        p_acute(), Partition(comps({0, 1}), "proper"))
    assert failing_checks(report) == ["conflict-freeness"]


def test_validator_flags_two_point_contact():
    # a cycle drawing is geometrically valid, and splitting it in half
    # makes the halves meet at two distinct vertices
    sq = validate_drawing(
        [(0, pt(0, 0)), (1, pt(2, 0)), (2, pt(2, 2)), (3, pt(0, 2))],
        [(0, 1), (1, 2), (2, 3), (3, 0)])
    report = validate_partition(sq, Partition(comps({0, 1}, {2, 3}), "proper"))
    assert failing_checks(report) == ["single-shared-point"]
    assert report.problems == ("components 0 and 1 share points [0, 2]",)
    # a hexagon with the chord 0-3: the two halves and the chord meet
    # pairwise in vertices 0 and 3, reported pair by pair
    hexagon = validate_drawing(
        list(enumerate(pt(x, y) for x, y in
                       ((2, 0), (1, 2), (-1, 2), (-2, 0), (-1, -2), (1, -2)))),
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
    report = validate_partition(
        hexagon, Partition(comps({6}, {0, 1, 2}, {3, 4, 5}), "noncrossing"))
    assert [q for q in report.problems if "share" in q] == [
        f"components {i} and {j} share points [0, 3]"
        for i, j in ((0, 1), (0, 2), (1, 2))]


def test_validator_contact_modes_differ_on_plus_halves():
    # two components, each with two edges at the shared vertex: fine for
    # noncrossing (no interleaving), not proper
    halves = comps({0, 1}, {2, 3})
    ok_nc = validate_partition(plus_drawing(), Partition(halves, "noncrossing"))
    assert ok_nc.ok
    bad_pr = validate_partition(plus_drawing(), Partition(halves, "proper"))
    assert failing_checks(bad_pr) == ["contacts"]


def test_validator_flags_crossing_contact():
    # opposite legs interleave around the center of the four-leg star
    report = validate_partition(
        star4_cross(), Partition(comps({0, 2}, {1, 3}), "noncrossing"))
    assert failing_checks(report) == ["contacts"]


def test_validator_names_every_crossing_pair_at_a_vertex():
    # eight legs 45 degrees apart: legs 0, 2 cross legs 1, 3 and legs
    # 4, 6 cross legs 5, 7, each pair named once, in pair order
    rays = ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1),
            (1, -1))
    star = validate_drawing(
        [(0, pt(0, 0))] + [(k + 1, pt(2 * x, 2 * y))
                           for k, (x, y) in enumerate(rays)],
        [(0, k + 1) for k in range(8)])
    report = validate_partition(
        star, Partition(comps({0, 2}, {1, 3}, {4, 6}, {5, 7}), "noncrossing"))
    assert failing_checks(report) == ["contacts"]
    assert report.problems == ("components 0 and 1 cross at vertex 0",
                               "components 2 and 3 cross at vertex 0")


def pairwise_crossing(owners):
    """Whether two labels of the cyclic sequence owners interleave, by
    counting each pair's flips around the cycle."""
    for pair in combinations(sorted({o for o in owners if o is not None}), 2):
        seq = [o for o in owners if o in pair]
        if sum(seq[k] != seq[(k + 1) % len(seq)] for k in range(len(seq))) > 2:
            return True
    return False


def test_stack_pass_matches_the_pairwise_flip_count():
    # random cyclic sequences with None and repeated labels, read from
    # every start
    rng = random.Random(2024)
    verdicts = {True: 0, False: 0}
    for _ in range(1500):
        labels = [None] + list(range(rng.randint(1, 4)))
        owners = [rng.choice(labels) for _ in range(rng.randint(0, 10))]
        want = not pairwise_crossing(owners)
        for k in range(max(1, len(owners))):
            assert treedecomp._nested(owners[k:] + owners[:k]) == want, owners
        verdicts[want] += 1
    assert min(verdicts.values()) > 200


# -- exact decomposition ------------------------------------------------------------


def test_mode_guard():
    rt = rooted(plus_drawing())
    with pytest.raises(ValueError):
        fill_gtd_tables(rt, "weird")
    with pytest.raises(ValueError):
        min_gtd_exact(rt, "weird")


FIXTURE_OPTIMA = {
    # name: (proper, noncrossing)
    "p_ic": (1, 1),
    "p_acute": (2, 2),
    "star3": (1, 1),
    "plus": (1, 1),
    "star4_cross": (3, 2),
    "comb": (3, 3),
}


def test_fixture_optima_are_stable():
    for name, d in tree_fixture_drawings().items():
        want_pr, want_nc = FIXTURE_OPTIMA[name]
        assert min_gtd_exact(rooted(d), "proper").size == want_pr, name
        assert min_gtd_exact(rooted(d), "noncrossing").size == want_nc, name


# the exact components pin the DP's tie-breaking among equal-size optima
COMPONENT_SHAPES = {
    ("p_ic", "proper"): ((0, 1),),
    ("p_ic", "noncrossing"): ((0, 1),),
    ("p_acute", "proper"): ((0,), (1,)),
    ("p_acute", "noncrossing"): ((0,), (1,)),
    ("star3", "proper"): ((0, 1, 2),),
    ("star3", "noncrossing"): ((0, 1, 2),),
    ("plus", "proper"): ((0, 1, 2, 3),),
    ("plus", "noncrossing"): ((0, 1, 2, 3),),
    ("star4_cross", "proper"): ((0,), (1, 3), (2,)),
    ("star4_cross", "noncrossing"): ((0, 3), (1, 2)),
    ("comb", "proper"): ((0,), (1, 2), (3, 4)),
    ("comb", "noncrossing"): ((0,), (1, 2), (3, 4)),
}


@pytest.mark.parametrize("name, mode", list(COMPONENT_SHAPES))
def test_component_shapes(name, mode):
    p = min_gtd_exact(rooted(tree_fixture_drawings()[name]), mode)
    assert (tuple(tuple(sorted(c)) for c in p.components)
            == COMPONENT_SHAPES[(name, mode)])


def four_arm_star():
    """Four legs at right angles and a diagonal leg toward the root."""
    return validate_drawing(
        [(0, pt(0, 0)), (1, pt(2, 2)), (2, pt(3, 0)), (3, pt(0, -3)),
         (4, pt(-3, 0)), (5, pt(0, 3))],
        [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)])


@pytest.mark.parametrize("mode", ["proper", "noncrossing"])
def test_four_arms_join_into_one_component(mode):
    # the four legs at right angles form one component only through a
    # join of four arms; the diagonal leg toward the root stays apart
    p = min_gtd_exact(rooted(four_arm_star()), mode)
    assert tuple(tuple(sorted(c)) for c in p.components) == (
        (0,), (1, 2, 3, 4))


def right_angle_star(rng, n_extra):
    """A star around vertex 0 with four legs on the axes, so their path
    entries can join into one component, and n_extra legs on random
    lattice directions between them; a few legs carry a second edge
    that continues straight on."""
    dirs = {(1, 0), (0, 1), (-1, 0), (0, -1)}
    while len(dirs) < 4 + n_extra:
        dx, dy = rng.randint(-9, 9), rng.randint(-9, 9)
        if (dx, dy) != (0, 0) and math.gcd(dx, dy) == 1:
            dirs.add((dx, dy))
    verts = [(0, pt(0, 0))]
    edges = []
    for dx, dy in sorted(dirs, key=lambda v: math.atan2(v[1], v[0])):
        r = rng.randint(2, 5)
        verts.append((len(verts), pt(r * dx, r * dy)))
        edges.append((0, len(verts) - 1))
        if rng.random() < 0.3:
            verts.append((len(verts), pt((r + 3) * dx, (r + 3) * dy)))
            edges.append((len(verts) - 2, len(verts) - 1))
    return validate_drawing(verts, edges)


def dp_family(name):
    """The drawings of one DP-table digest family."""
    if name == "suns":
        return [sun_drawing(random.Random(n), n) for n in (8, 16, 24, 32, 40)]
    if name == "right-angle stars":
        # each has degree-four entries, built by a join of four arms
        return [four_arm_star()] + [right_angle_star(random.Random(s), 6)
                                    for s in (0, 1, 4, 5, 8)]
    if name == "subdivided trees":
        rng = random.Random(29)
        drawings = []
        while len(drawings) < 6:
            try:
                d = random_tree_drawing(rng, rng.randint(4, 8))
            except GRRError:
                continue
            drawings.append(subdivide(d).drawing)
        return drawings
    return list(tree_fixture_drawings().values())


# digests of every tau and sigma_m entry in both modes, recorded before
# the joins at wide vertices were gated
DP_DIGESTS = {
    "suns":
        "3dc08bff119f6176e3577caa393ede289029b97e0c3ee027763c7c25b045cab2",
    "right-angle stars":
        "abd755b47da25ba039dcf6138a380acdc7d7d49b342f09fa544372dd06422b06",
    "subdivided trees":
        "7b93c8be8e9e633cc01333240f29d778166369245173d370cbb7a13a94388a03",
    "fixtures":
        "5aa6cb4ccb1cbfd7af9034dc6db5fb6ef6647b1f8f0a01187bade71e0cb2e96a",
}


def dp_family_digest(name):
    return hashlib.sha256("".join(
        dp_table_digest(rooted(d), mode) for d in dp_family(name)
        for mode in ("proper", "noncrossing")).encode()).hexdigest()


@pytest.mark.parametrize("name", list(DP_DIGESTS))
def test_dp_tables_are_unchanged(name):
    assert dp_family_digest(name) == DP_DIGESTS[name]


@pytest.mark.parametrize("mode", ["proper", "noncrossing"])
def test_wide_vertex_joins_are_gated(count_calls, mode):
    # the sun's center has 39 children. Ungated, the fill made 20,641
    # joins in either mode; joins whose children cannot share a
    # component are skipped, which leaves 1,610. No four path arms fit
    # together there, so no path pair is built
    rt = rooted(sun_drawing(random.Random(40), 40))
    joins = count_calls(treedecomp, "_join")
    pairs = count_calls(treedecomp, "_path_pair")
    t = fill_gtd_tables(rt, mode)
    assert (joins(), pairs()) == (1610, 0)
    # span tables are sparse: 419 of the center's 780 spans have a sigma
    # entry, and the fill made 1,960 empty span tables before
    for u, sg in t.sigma.items():
        assert all(sg.values())
        assert all(all(per_delta.values())
                   for per_delta in t.sigma_delta[u].values())
        assert not t.sigma_delta[u][4]
        d = len(rt.children[u])
        assert set(t.sigma_m[u]) == {(a, b) for a in range(1, d + 1)
                                     for b in range(a, d + 1)}
    center = max(t.sigma, key=lambda u: len(rt.children[u]))
    assert len(rt.children[center]) == 39
    assert len(t.sigma[center]) == 419


@pytest.mark.parametrize("mode", ["proper", "noncrossing"])
def test_four_arm_joins_fire_on_right_angle_stars(count_calls, mode):
    # each star makes one join of four arms: two path pairs and the join
    # of those, three calls of the kernel where the k-part join made one
    # (240 joins in all before)
    joins = count_calls(treedecomp, "_join")
    pairs = count_calls(treedecomp, "_path_pair")
    fours = 0
    for d in dp_family("right-angle stars"):
        t = fill_gtd_tables(rooted(d), mode)
        fours += sum(len(per_span) for sd in t.sigma_delta.values()
                     for per_span in sd[4].values())
    assert (joins(), pairs(), fours) == (252, 12, 12)


def reference_join(ic, parts, apart, out):
    """The k-part join that the kernel and the path-pair route replaced.

    parts are sorted (key, entry) items in clockwise order. A candidate
    takes one entry of each part and survives when the path from every
    endpoint of an earlier part to every endpoint of a later part is
    increasing-chord. It is keyed by its outermost endpoints, and ties
    keep the first in lexicographic order of the keys.
    """
    extra = 1 - len(parts)
    for ent in apart:
        extra += ent[0]
    # each prefix that passed so far: its first x, its last key, the
    # path-IC rows of the endpoints before that key, its size, its entries
    partial = [(key[0], key, (), ent[0], (ent,)) for key, ent in parts[0]]
    for part in parts[1:]:
        grown = []
        for first, (x1, y1), rows, val, refs in partial:
            rows += (ic[x1],) if x1 == y1 else (ic[x1], ic[y1])
            for key, ent in part:
                if all(key[0] in row and key[1] in row for row in rows):
                    grown.append((first, key, rows, val + ent[0],
                                  refs + (ent,)))
        partial = grown
    for first, (_, y), _, val, refs in partial:
        val += extra
        cur = out.get((first, y))
        if cur is None or val < cur[0]:
            out[(first, y)] = (val, (None, refs, apart))


def random_join_inputs(rng, n_parts, paths):
    """Path-IC rows of a random small tree, n_parts sorted parts of
    single-edge entries keyed by its vertices (path keys (x, x) when
    paths), and one run entry per gap between the parts."""
    while True:
        try:
            d = random_tree_drawing(rng, rng.randint(3, 8))
            break
        except GRRError:
            continue
    ic = precompute_path_ic(rooted(d))
    verts = sorted(ic)
    edges = iter(range(1000))
    parts = []
    for _ in range(n_parts):
        keys = set()
        for _ in range(rng.randint(1, 5)):
            x = rng.choice(verts)
            keys.add((x, x) if paths else (x, rng.choice(verts)))
        parts.append(sorted((key, (rng.randint(1, 4), (next(edges), (), ())))
                            for key in keys))
    runs = [rng.choice((_NOTHING, (rng.randint(1, 3), (next(edges), (), ()))))
            for _ in range(n_parts - 1)]
    return ic, verts, parts, runs


def test_join_kernel_matches_the_k_part_reference():
    rng = random.Random(22)
    built = 0
    for _ in range(300):
        ic, verts, (left, right), runs = random_join_inputs(
            rng, 2, rng.random() < 0.3)
        # entries already in out: a later pair replaces one only when
        # strictly smaller
        held = {(rng.choice(verts), rng.choice(verts)):
                (rng.randint(1, 8), (None, (), ())) for _ in range(3)}
        want, got = dict(held), dict(held)
        reference_join(ic, (left, right), tuple(runs), want)
        treedecomp._join(ic, left, right, runs[0], got)
        assert list(got.items()) == list(want.items())
        built += len(got) - len(held)
    assert built > 300


def test_join_needs_all_four_row_tests():
    # two-edge keys with distinct ends: a pair survives only when both
    # ends of the right key lie on the rows of both ends of the left key,
    # so dropping any one of the four from its rows builds nothing
    x, y, p, q = 0, 1, 2, 3
    left = [((x, y), (1, (10, (), ())))]
    right = [((p, q), (1, (11, (), ())))]
    for drop in ((x, p), (x, q), (y, p), (y, q), ()):
        ic = {v: {x, y, p, q} for v in (x, y, p, q)}
        if drop:
            a, b = drop
            ic[a].discard(b)
            ic[b].discard(a)
        out = {}
        treedecomp._join(ic, left, right, _NOTHING, out)
        assert list(out) == ([] if drop else [(x, q)]), drop


def _entry_shape(ent):
    return ent[0], sorted(sorted(c) for c in _components_of(ent))


def test_path_pair_route_matches_the_four_part_reference():
    rng = random.Random(4)
    built = 0
    for _ in range(300):
        ic, _, parts, (below, mid, above) = random_join_inputs(rng, 4, True)
        want, got = {}, {}
        reference_join(ic, parts, (below, mid, above), want)
        sm = {(2, 1): below, (4, 3): above}
        treedecomp._join(ic, treedecomp._path_pair(ic, parts, sm, {}, 1, 2),
                         treedecomp._path_pair(ic, parts, sm, {}, 3, 4), mid,
                         got)
        assert list(got) == list(want)
        assert ([_entry_shape(ent) for ent in got.values()]
                == [_entry_shape(ent) for ent in want.values()])
        built += len(got)
    assert built > 300


def _tree_outcome(d):
    return (min_gtd_exact(rooted(d), "proper").size,
            min_gtd_exact(rooted(d), "noncrossing").size,
            approx_gtd_proper(d).size, conflicting_pairs(d))


def test_tree_solves_are_similarity_invariant():
    # the maps keep every vertex and edge index, so outcomes compare
    # directly
    rng = random.Random(10)
    drawings = [sun_drawing(rng, n) for n in (8, 10, 12, 14, 16)]
    while len(drawings) < 200:
        try:
            drawings.append(random_tree_drawing(rng, rng.randint(2, 14)))
        except GRRError:
            continue
    for d in drawings:
        want = _tree_outcome(d)
        for m in SIMILARITIES:
            image = validate_drawing(
                [(v, m(d.points[v])) for v in d.vertex_ids], d.edges)
            assert _tree_outcome(image) == want


# optimum sizes of the seeded 32-leg sun, recorded before the joins at
# wide vertices were gated
SUN_32_OPTIMA = {"proper": 30, "noncrossing": 23}


def test_sun_32_solves_exactly():
    d = sun_drawing(random.Random(32), 32)
    parts = {mode: min_gtd_exact(rooted(d), mode) for mode in SUN_32_OPTIMA}
    assert {mode: p.size for mode, p in parts.items()} == SUN_32_OPTIMA
    assert parts["noncrossing"].size <= parts["proper"].size
    for p in parts.values():
        assert validate_partition(d, p).ok


@pytest.fixture(scope="module")
def sawtooth_400():
    """A 400-edge path whose every two-edge subpath conflicts."""
    d = validate_drawing(
        [(i, pt(i, 0 if i % 2 == 0 else 10)) for i in range(401)],
        [(i, i + 1) for i in range(400)])
    return rooted(d)


@pytest.fixture(scope="module")
def sawtooth_1000():
    return rooted(sawtooth(random.Random(1000), 1000))


@pytest.mark.parametrize("mode", ["proper", "noncrossing"])
def test_deep_path_reconstructs_without_recursion(sawtooth_400, sawtooth_1000,
                                                  mode):
    for rt, size in ((sawtooth_400, 400), (sawtooth_1000, 1000)):
        p = min_gtd_exact(rt, mode)
        assert p.size == size
        assert validate_partition(rt.drawing, p).ok


def test_exact_agrees_with_oracle_on_corpus(tree_corpus):
    for rec in tree_corpus["records"]:
        for mode in ("proper", "noncrossing"):
            assert rec["dp"][mode].size == rec["oracle"][mode], rec["name"]


def test_exact_partitions_validate_on_corpus(tree_corpus):
    for rec in tree_corpus["records"]:
        for mode in ("proper", "noncrossing"):
            assert validate_partition(rec["drawing"], rec["dp"][mode]).ok


# -- splitting edges ----------------------------------------------------------------


def test_splits_never_hurt():
    for name, d in tree_fixture_drawings().items():
        exact = min_gtd_exact(rooted(d), "proper").size
        split = min_gtd_with_splits(d, "proper")
        assert split.size <= exact, name


def test_comb_improves_with_splits():
    d = comb_drawing()
    assert min_gtd_exact(rooted(d), "proper").size == 3
    p = min_gtd_with_splits(d, "proper")
    assert p.size == 2
    assert p.origin is not None
    # components refer to the subdivided drawing and validate against it
    inner = Partition(p.components, p.contact_mode)
    assert validate_partition(p.origin.drawing, inner).ok


def test_plus_needs_no_splits():
    p = min_gtd_with_splits(plus_drawing(), "proper")
    assert p.size == 1


# -- multicut bridge ----------------------------------------------------------------


def test_conflict_tree_instance_shape():
    d = star4_cross()
    inst = build_multicut_instance(d)
    # one node per vertex plus one per edge, two instance edges per
    # drawing edge
    assert len(inst.nodes) == d.n_vertices + d.n_edges
    assert inst.n_edges == 2 * d.n_edges
    assert len(inst.terminal_pairs) == 2


def test_partition_multicut_bijection_on_fixtures():
    for name, d in tree_fixture_drawings().items():
        p = min_gtd_exact(rooted(d), "proper")
        inst = build_multicut_instance(d)
        cut = partition_to_multicut(d, p)
        assert cut.total_weight == p.size - 1, name
        assert is_multicut(inst, cut), name
        assert multicut_to_partition(d, inst, cut) == p, name


def test_partition_multicut_bijection_on_corpus(tree_corpus):
    for rec in tree_corpus["records"]:
        d = rec["drawing"]
        p = rec["dp"]["proper"]
        inst = build_multicut_instance(d)
        cut = partition_to_multicut(d, p)
        assert cut.total_weight == p.size - 1
        assert is_multicut(inst, cut)
        assert multicut_to_partition(d, inst, cut) == p


def test_approx_outputs_validate_on_corpus(tree_corpus):
    for rec in tree_corpus["records"]:
        report = validate_partition(rec["drawing"], rec["approx"])
        assert report.ok, rec["name"]


def test_approx_on_conflict_free_drawing_is_single_component():
    p = approx_gtd_proper(plus_drawing())
    assert p.size == 1
