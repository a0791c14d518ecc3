"""JSON round-trips and input validation for every document kind."""

import json
from fractions import Fraction

import pytest

from conftest import comb_drawing, tree_fixture_drawings, ushape_tp
from grrdecomp.drawing import default_root, root_tree
from grrdecomp.errors import CrossingEdgesError, FormatError
from grrdecomp.formats import (
    detect_kind,
    parse_decomposition,
    parse_drawing,
    parse_partition,
    parse_polygon,
    serialize_decomposition,
    serialize_drawing,
    serialize_partition,
    serialize_polygon,
    serialize_triangulated,
)
from grrdecomp.geometry import pt
from grrdecomp.polydecomp import build_dual_tree, decompose_polygon_exact_small
from grrdecomp.treedecomp import Partition, min_gtd_exact, min_gtd_with_splits


# -- drawings -------------------------------------------------------------------


def test_drawing_round_trip_is_exact():
    for name, d in tree_fixture_drawings().items():
        assert parse_drawing(serialize_drawing(d)) == d, name


def test_drawing_rationals_survive_as_strings():
    # the comb has coordinates like 1016/145 that floats cannot hold
    text = serialize_drawing(comb_drawing())
    doc = json.loads(text)
    coords = {v["x"] for v in doc["vertices"]} | {v["y"] for v in doc["vertices"]}
    assert "1016/145" in coords
    assert parse_drawing(text).points[2].y == Fraction(1016, 145)


def test_drawing_accepts_numeric_coordinate_forms():
    text = json.dumps({
        "vertices": [
            {"id": 0, "x": 0, "y": "0"},
            {"id": 1, "x": 0.1, "y": "1/3"},
        ],
        "edges": [[0, 1]],
    })
    d = parse_drawing(text)
    # decimal numbers are read at face value, not as binary floats
    assert d.points[1].x == Fraction(1, 10)
    assert d.points[1].y == Fraction(1, 3)


@pytest.mark.parametrize("text", [
    "not json",
    "[1, 2]",
    '{"edges": []}',
    '{"vertices": {}, "edges": []}',
    '{"vertices": [[0, 1, 2]], "edges": []}',
    '{"vertices": [{"id": true, "x": 0, "y": 0}], "edges": []}',
    '{"vertices": [{"id": 0, "x": 0}], "edges": []}',
    '{"vertices": [{"id": 0, "x": true, "y": 0}], "edges": []}',
    '{"vertices": [{"id": 0, "x": "1/0", "y": 0}], "edges": []}',
    '{"vertices": [{"id": 0, "x": 0, "y": 0}], "edges": {}}',
    '{"vertices": [{"id": 0, "x": 0, "y": 0}], "edges": [[0, 0, 0]]}',
    '{"vertices": [{"id": 0, "x": 0, "y": 0}], "edges": [[0, true]]}',
])
def test_drawing_format_errors(text):
    with pytest.raises(FormatError):
        parse_drawing(text)


def test_drawing_geometry_errors_pass_through():
    text = json.dumps({
        "vertices": [
            {"id": 0, "x": 0, "y": 0}, {"id": 1, "x": 2, "y": 2},
            {"id": 2, "x": 0, "y": 2}, {"id": 3, "x": 2, "y": 0},
        ],
        "edges": [[0, 1], [2, 3]],
    })
    with pytest.raises(CrossingEdgesError):
        parse_drawing(text)


# -- document sniffing ------------------------------------------------------------


def test_detect_kind():
    assert detect_kind('{"boundary": [], "vertices": []}') == "polygon"
    assert detect_kind('{"edges": [], "vertices": []}') == "drawing"
    assert detect_kind('{"components": []}') == "partition"
    assert detect_kind('{"pieces": []}') == "decomposition"
    with pytest.raises(FormatError):
        detect_kind('{"stuff": 1}')


# -- polygons -------------------------------------------------------------------


def test_triangulated_polygon_round_trip():
    tp = ushape_tp()
    poly, diagonals = parse_polygon(serialize_triangulated(tp))
    assert poly.points == tp.polygon.points
    assert tuple(sorted(diagonals)) == tp.diagonals
    rebuilt = build_dual_tree(poly, diagonals)
    assert rebuilt.triangles == tp.triangles
    assert rebuilt.dual_edges == tp.dual_edges


def test_polygon_boundary_ids_map_to_positions():
    text = json.dumps({
        "vertices": [
            {"id": 30, "x": 0, "y": 2},
            {"id": 10, "x": 0, "y": 0},
            {"id": 20, "x": 2, "y": 0},
        ],
        "boundary": [10, 20, 30],
        "diagonals": [],
    })
    poly, diagonals = parse_polygon(text)
    assert poly.points[0] == pt(0, 0)
    assert diagonals == ()


@pytest.mark.parametrize("doc", [
    {"vertices": [{"id": 0, "x": 0, "y": 0}, {"id": 0, "x": 1, "y": 0}],
     "boundary": [0, 0]},
    {"vertices": [{"id": 0, "x": 0, "y": 0}], "boundary": {}},
    {"vertices": [{"id": 0, "x": 0, "y": 0}], "boundary": [0, 1]},
    {"vertices": [{"id": 0, "x": 0, "y": 0}, {"id": 1, "x": 1, "y": 0}],
     "boundary": [0]},
    {"vertices": [{"id": 0, "x": 0, "y": 0}, {"id": 1, "x": 1, "y": 0},
                  {"id": 2, "x": 0, "y": 1}],
     "boundary": [0, 1, 2], "diagonals": [[0, 9]]},
    {"vertices": [{"id": 0, "x": 0, "y": 0}, {"id": 1, "x": 1, "y": 0},
                  {"id": 2, "x": 0, "y": 1}],
     "boundary": [0, 1, 2], "diagonals": {}},
])
def test_polygon_format_errors(doc):
    with pytest.raises(FormatError):
        parse_polygon(json.dumps(doc))


# -- partitions -----------------------------------------------------------------


def test_plain_partition_round_trip():
    d = comb_drawing()
    p = min_gtd_exact(root_tree(d, default_root(d)), "proper")
    back = parse_partition(serialize_partition(p))
    assert back.components == p.components
    assert back.contact_mode == p.contact_mode
    assert back.origin is None


def test_fragment_partition_round_trip():
    d = comb_drawing()
    p = min_gtd_with_splits(d, "proper")
    text = serialize_partition(p)
    # fragments are spelled out with exact parameters
    doc = json.loads(text)
    assert any(isinstance(e, dict) and {"edge", "from", "to"} <= set(e)
               for comp in doc["components"] for e in comp)
    back = parse_partition(text, drawing=d)
    assert back.components == p.components
    assert back.contact_mode == p.contact_mode
    assert back.origin is not None
    assert back.origin.origin == p.origin.origin


def test_fragment_partition_needs_the_drawing():
    p = min_gtd_with_splits(comb_drawing(), "proper")
    with pytest.raises(FormatError):
        parse_partition(serialize_partition(p))


@pytest.mark.parametrize("doc", [
    {"components": [[0]], "contacts": "diagonal"},
    {"components": {}, "contacts": "proper"},
    {"components": [[]], "contacts": "proper"},
    {"components": [[1.5]], "contacts": "proper"},
    {"components": [["x"]], "contacts": "proper"},
    {"components": [[{"edge": 0}]], "contacts": "proper"},
])
def test_partition_format_errors(doc):
    with pytest.raises(FormatError):
        parse_partition(json.dumps(doc), drawing=comb_drawing())


def test_unknown_fragment_is_rejected():
    doc = {"components": [[{"edge": 0, "from": "0", "to": "1/7"}]],
           "contacts": "proper"}
    with pytest.raises(FormatError):
        parse_partition(json.dumps(doc), drawing=comb_drawing())


# -- polygon decompositions -------------------------------------------------------


def test_decomposition_round_trip():
    dec = decompose_polygon_exact_small(ushape_tp())
    back = parse_decomposition(serialize_decomposition(dec))
    assert back == dec


def test_decomposition_orders_pieces_by_smallest_triangle():
    text = json.dumps({"pieces": [[5], [0, 1], [2, 3, 4]],
                       "cut_diagonals": []})
    dec = parse_decomposition(text)
    assert dec.pieces == (frozenset({0, 1}), frozenset({2, 3, 4}),
                          frozenset({5}))


@pytest.mark.parametrize("doc", [
    {"pieces": {}},
    {"pieces": [[]]},
    {"pieces": [[0, True]]},
    {"pieces": [[0]], "cut_diagonals": {}},
    {"pieces": [[0]], "cut_diagonals": [[0, 1, 2]]},
])
def test_decomposition_format_errors(doc):
    with pytest.raises(FormatError):
        parse_decomposition(json.dumps(doc))
