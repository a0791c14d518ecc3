"""End-to-end command-line behavior, run in-process."""

import argparse
import json

import pytest

from grrdecomp import cli
from grrdecomp.cli import main
from grrdecomp.drawing import default_root, root_tree, subdivide
from grrdecomp.fixtures import (
    comb_drawing,
    lshape_polygon,
    p_ic,
    star4_cross,
    ushape_polygon,
    ushape_tp,
)
from grrdecomp.formats import (
    parse_decomposition,
    parse_drawing,
    parse_partition,
    serialize_decomposition,
    serialize_drawing,
    serialize_polygon,
    serialize_partition,
    serialize_triangulated,
)
from grrdecomp.geometry import Polygon, pt
from grrdecomp.polydecomp import decompose_polygon_exact_small
from grrdecomp.treedecomp import min_gtd_exact, min_gtd_with_splits


@pytest.fixture()
def files(tmp_path):
    def save(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)
    return save


def test_check_drawing_clean(files, capsys):
    f = files("d.json", serialize_drawing(p_ic()))
    assert main(["check-drawing", f]) == 0
    assert capsys.readouterr().out == "no conflicting edges (2 edges)\n"


def test_check_drawing_reports_pairs(files, capsys):
    f = files("d.json", serialize_drawing(comb_drawing()))
    assert main(["check-drawing", f]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "conflict: edge 0 and edge 2",
        "conflict: edge 0 and edge 4",
        "conflict: edge 1 and edge 3",
        "conflict: edge 1 and edge 4",
        "conflict: edge 2 and edge 3",
    ]


def test_check_polygon_routable(files, capsys):
    f = files("p.json", serialize_polygon(lshape_polygon()))
    assert main(["check-polygon", f]) == 0
    assert capsys.readouterr().out == "greedily routable (6 boundary edges)\n"


def test_check_polygon_conflict(files, capsys):
    f = files("p.json", serialize_polygon(ushape_polygon()))
    assert main(["check-polygon", f]) == 1
    assert capsys.readouterr().out == (
        "conflict: boundary edge 3 and edge 5 "
        "(normal ray from 2,2 hits 1,2)\n")


def test_check_polygon_validates_given_diagonals(files, capsys):
    bad = serialize_polygon(ushape_polygon(), [(0, 2)])
    f = files("p.json", bad)
    assert main(["check-polygon", f]) == 1
    assert "error:" in capsys.readouterr().err


def test_decompose_tree_exact(files, capsys, tmp_path):
    f = files("d.json", serialize_drawing(star4_cross()))
    out_file = str(tmp_path / "part.json")
    assert main(["decompose-tree", f, "-o", out_file]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "components: 3"
    assert f"wrote {out_file}" in out
    d = star4_cross()
    want = min_gtd_exact(root_tree(d, default_root(d)), "proper")
    with open(out_file, encoding="utf-8") as fh:
        assert parse_partition(fh.read()).components == want.components


def test_decompose_tree_noncrossing(files, capsys):
    f = files("d.json", serialize_drawing(star4_cross()))
    assert main(["decompose-tree", f, "--contacts", "noncrossing"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "components: 2"


def test_decompose_tree_stdout_payload_parses(files, capsys):
    f = files("d.json", serialize_drawing(p_ic()))
    assert main(["decompose-tree", f]) == 0
    out = capsys.readouterr().out
    payload = out.split("\n", 1)[1]
    assert parse_partition(payload).size == 1


def test_decompose_tree_approx_requires_proper(files, capsys):
    f = files("d.json", serialize_drawing(star4_cross()))
    code = main(["decompose-tree", f, "--mode", "approx2",
                 "--contacts", "noncrossing"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: --mode approx2 supports only --contacts proper\n")


def test_decompose_tree_approx_runs(files, capsys):
    f = files("d.json", serialize_drawing(comb_drawing()))
    assert main(["decompose-tree", f, "--mode", "approx2"]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first.startswith("components: ")


def test_decompose_tree_with_splits(files, capsys, tmp_path):
    f = files("d.json", serialize_drawing(comb_drawing()))
    out_file = str(tmp_path / "part.json")
    assert main(["decompose-tree", f, "--allow-splits",
                 "-o", out_file]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "components: 2"
    want = min_gtd_with_splits(comb_drawing(), "proper")
    with open(out_file, encoding="utf-8") as fh:
        got = parse_partition(fh.read(), drawing=comb_drawing())
    assert got.components == want.components


def test_decompose_polygon_both_modes(files, capsys):
    f = files("p.json", serialize_triangulated(ushape_tp()))
    assert main(["decompose-polygon", f]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "pieces: 2"
    assert main(["decompose-polygon", f, "--mode", "exact-small"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "pieces: 2"
    payload = out.split("\n", 1)[1]
    assert parse_decomposition(payload) == \
        decompose_polygon_exact_small(ushape_tp())


def test_route_success(files, capsys):
    square = Polygon([pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4)])
    f = files("p.json", serialize_polygon(square))
    assert main(["route", f, "--from", "1,1", "--to", "3,3"]) == 0
    assert capsys.readouterr().out == "1,1\n3,3\nreached\n"


def test_route_failure(files, capsys):
    f = files("p.json", serialize_polygon(ushape_polygon()))
    code = main(["route", f, "--from", "1/2,5/2", "--to", "5/2,5/2"])
    assert code == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "1/2,5/2"
    assert lines[-1] == "failure at 1,5/2"


def test_route_rejects_bad_point(files, capsys):
    f = files("p.json", serialize_polygon(lshape_polygon()))
    assert main(["route", f, "--from", "nope", "--to", "1,1"]) == 1
    assert "error: expected a point" in capsys.readouterr().err


def test_route_rejects_outside_point(files, capsys):
    f = files("p.json", serialize_polygon(lshape_polygon()))
    assert main(["route", f, "--from", "3,3", "--to", "1/2,1/2"]) == 1
    assert "error:" in capsys.readouterr().err


def test_subdivide_writes_refined_drawing(files, capsys, tmp_path):
    f = files("d.json", serialize_drawing(comb_drawing()))
    out_file = str(tmp_path / "sub.json")
    assert main(["subdivide", f, "-o", out_file]) == 0
    assert f"wrote {out_file}" in capsys.readouterr().out
    with open(out_file, encoding="utf-8") as fh:
        got = parse_drawing(fh.read())
    assert got == subdivide(comb_drawing()).drawing
    assert got.n_edges == 11


def test_render_drawing(files, capsys, tmp_path):
    f = files("d.json", serialize_drawing(star4_cross()))
    out_file = str(tmp_path / "out.svg")
    assert main(["render", f, "-o", out_file]) == 0
    with open(out_file, encoding="utf-8") as fh:
        assert fh.read().startswith("<svg ")


def test_render_with_partition_overlay(files, tmp_path, capsys):
    d = star4_cross()
    f = files("d.json", serialize_drawing(d))
    part = files("part.json", serialize_partition(
        min_gtd_exact(root_tree(d, default_root(d)), "proper")))
    out_file = str(tmp_path / "out.svg")
    assert main(["render", f, "--partition", part, "-o", out_file]) == 0
    with open(out_file, encoding="utf-8") as fh:
        text = fh.read()
    assert "#1f77b4" in text


def test_render_fragment_partition_uses_subdivided_scene(files, tmp_path,
                                                         capsys):
    d = comb_drawing()
    f = files("d.json", serialize_drawing(d))
    part = files("part.json",
                 serialize_partition(min_gtd_with_splits(d, "proper")))
    out_file = str(tmp_path / "out.svg")
    assert main(["render", f, "--partition", part, "-o", out_file]) == 0
    with open(out_file, encoding="utf-8") as fh:
        text = fh.read()
    # the scene is the subdivision, which has 11 edges, not 5
    assert text.count("<line ") == 11


def test_render_polygon_with_decomposition(files, tmp_path, capsys):
    tp = ushape_tp()
    f = files("p.json", serialize_triangulated(tp))
    dec = files("dec.json", serialize_decomposition(
        decompose_polygon_exact_small(tp)))
    out_file = str(tmp_path / "out.svg")
    assert main(["render", f, "--partition", dec, "-o", out_file]) == 0
    with open(out_file, encoding="utf-8") as fh:
        text = fh.read()
    assert text.count("<polygon ") == tp.n_triangles + 1


def test_render_rejects_partition_files(files, capsys):
    part = files("part.json",
                 json.dumps({"components": [[0]], "contacts": "proper"}))
    assert main(["render", part]) == 2
    assert capsys.readouterr().err == "error: cannot render a partition file\n"


def test_usage_errors_exit_2(files, capsys):
    assert main([]) == 2
    assert main(["no-such-command"]) == 2
    f = files("d.json", serialize_drawing(p_ic()))
    assert main(["decompose-tree", f, "--contacts", "bogus"]) == 2


def test_parser_is_built_once(files, capsys, monkeypatch):
    f = files("d.json", serialize_drawing(p_ic()))
    assert main(["check-drawing", f]) == 0
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["check-drawing", f]) == 0
    assert main([]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["decompose-tree", f, "--contacts", "bogus"]) == 2
    assert main(["route", f, "--from", "0,0"]) == 2
    assert built == []


def test_missing_file_exits_2(capsys):
    assert main(["check-drawing", "/no/such/file.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_json_exits_1(files, capsys):
    f = files("d.json", "{broken")
    assert main(["check-drawing", f]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("exc, message", [
    (RecursionError("maximum recursion depth exceeded"),
     "error: recursion limit exceeded\n"),
    (MemoryError(), "error: out of memory\n"),
], ids=["recursion", "memory"])
def test_resource_limits_exit_1_without_traceback(files, capsys, monkeypatch,
                                                  exc, message):
    def exhausted(d):
        raise exc

    monkeypatch.setattr(cli, "conflicting_pairs", exhausted)
    f = files("d.json", serialize_drawing(p_ic()))
    assert main(["check-drawing", f]) == 1
    assert capsys.readouterr() == ("", message)
