"""SVG rendering: structure, determinism, overlay markers."""

import pytest

from conftest import (
    USHAPE_FAILURE_PAIR,
    comb_drawing,
    lshape_polygon,
    star4_cross,
    ushape_polygon,
    ushape_tp,
)

from grrdecomp.analysis import polygon_is_grr, trace_greedy_path
from grrdecomp.drawing import default_root, root_tree
from grrdecomp.geometry import pt
from grrdecomp.polydecomp import decompose_polygon_exact_small
from grrdecomp.svg import PALETTE, render_svg
from grrdecomp.treedecomp import min_gtd_exact


def test_output_is_svg():
    text = render_svg(lshape_polygon())
    assert text.startswith('<svg xmlns="http://www.w3.org/2000/svg" viewBox=')
    assert text.endswith("</svg>\n")


def test_rendering_is_byte_deterministic():
    d = comb_drawing()
    p = min_gtd_exact(root_tree(d, default_root(d)), "proper")
    assert render_svg(d, p) == render_svg(d, p)


def test_drawing_render_has_edges_and_vertices():
    d = comb_drawing()
    text = render_svg(d)
    assert text.count("<line ") == d.n_edges
    assert text.count("<circle ") == d.n_vertices
    # without a partition every edge is neutral
    assert text.count('stroke="#333333"') == d.n_edges


def test_partition_overlay_colors_components():
    d = star4_cross()
    p = min_gtd_exact(root_tree(d, default_root(d)), "proper")
    text = render_svg(d, p)
    for ci in range(p.size):
        assert PALETTE[ci] in text
    assert text.count('stroke="#333333"') == 0


def test_triangulated_render_shows_pieces_and_diagonals():
    tp = ushape_tp()
    dec = decompose_polygon_exact_small(tp)
    text = render_svg(tp, dec)
    # one filled polygon per triangle plus the outline
    assert text.count("<polygon ") == tp.n_triangles + 1
    assert text.count("stroke-dasharray") == len(tp.diagonals)
    assert PALETTE[0] in text and PALETTE[1] in text


def test_witness_overlay_draws_dashed_normal():
    poly = ushape_polygon()
    w = polygon_is_grr(poly)
    text = render_svg(poly, w)
    assert text.count('stroke="#d62728"') == 1
    assert text.count('fill="#d62728"') == 1
    assert "stroke-dasharray" in text


def test_trace_overlay_marks_failure():
    poly = ushape_polygon()
    s, t = USHAPE_FAILURE_PAIR
    tr = trace_greedy_path(poly, s, t)
    assert not tr.reached
    text = render_svg(poly, tr)
    assert "<polyline " in text
    # start marker plus the open failure ring
    assert text.count('fill="#2ca02c"') == 1
    assert text.count('stroke="#d62728"') == 1


def test_trace_overlay_success_has_no_failure_ring():
    poly = lshape_polygon()
    tr = trace_greedy_path(poly, pt("3/2", "1/2"), pt("1/2", "3/2"))
    assert tr.reached
    text = render_svg(poly, tr)
    assert text.count('stroke="#d62728"') == 0


def test_unrenderable_scene_raises():
    # an empty scene fails fast; a foreign scene with a real overlay is a
    # type error
    with pytest.raises(ValueError):
        render_svg({"not": "a scene"})
    w = polygon_is_grr(ushape_polygon())
    with pytest.raises(TypeError):
        render_svg(42, w)


def test_y_axis_is_flipped():
    text = render_svg(lshape_polygon())
    # the polygon lives in y >= 0, so all rendered y values are <= 0
    attr = text.split('points="')[1].split('"')[0]
    ys = [float(pair.split(",")[1]) for pair in attr.split()]
    assert all(y <= 0 for y in ys)
