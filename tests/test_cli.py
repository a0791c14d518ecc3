"""End-to-end command-line behavior, run in-process."""

import argparse
import hashlib
import json
import random
import re
import sys
import time
from pathlib import Path

import pytest

from conftest import sawtooth
from grrdecomp import analysis, cli, drawing, geometry, treedecomp
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
    parse_polygon,
    serialize_decomposition,
    serialize_drawing,
    serialize_polygon,
    serialize_partition,
    serialize_triangulated,
)
from grrdecomp.geometry import Polygon, pt
from grrdecomp.polydecomp import build_dual_tree, decompose_polygon_exact_small
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


@pytest.mark.parametrize("argv", [["subdivide"],
                                  ["decompose-tree", "--allow-splits"]])
def test_oversized_subdivision_exits_1_at_once(files, capsys, count_calls,
                                               argv):
    d = sawtooth(random.Random(360), 360)
    f = files("saw.json", serialize_drawing(d))
    built = count_calls(geometry.Point, "__post_init__")
    t0 = time.perf_counter()
    assert main([argv[0], f, *argv[1:]]) == 1
    assert time.perf_counter() - t0 < 1
    out, err = capsys.readouterr()
    assert out == "" and re.fullmatch(
        r"error: subdivision limited to 20000 edges, got \d+\n", err)
    # only the parsed vertices: the budget is checked before any cut vertex
    assert built() == d.n_vertices


@pytest.mark.parametrize("mode", ["exact", "approx2"])
def test_oversized_split_solve_exits_1_within_seconds(files, capsys,
                                                      count_calls, mode):
    # 19,711 refined edges pass the subdivision budget; approx2 on them
    # ran for over 300 s before split solves had a budget of their own
    f = files("saw.json", serialize_drawing(sawtooth(random.Random(200), 200)))
    rooted = count_calls(drawing, "root_tree", treedecomp)
    scanned = count_calls(analysis, "conflicting_pairs", treedecomp)
    t0 = time.perf_counter()
    assert main(["decompose-tree", f, "--allow-splits", "--mode", mode]) == 1
    assert time.perf_counter() - t0 < 10
    assert capsys.readouterr() == (
        "", "error: split solve limited to 400 refined edges, got 19711\n")
    # the budget is checked before the solve roots or scans anything
    assert rooted() == scanned() == 0


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


def _with_literal(text, literal, path):
    """text with the JSON value at path (a key sequence) spelled literal."""
    doc = json.loads(text)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = "@"
    return json.dumps(doc).replace('"@"', literal)


@pytest.mark.parametrize("literal, shown", [
    ("Infinity", "inf"), ("-Infinity", "-inf"), ("NaN", "nan"),
    ("1e400", "inf")])
@pytest.mark.parametrize("command, text", [
    ("check-drawing", serialize_drawing(p_ic())),
    ("check-polygon", serialize_polygon(lshape_polygon())),
], ids=["drawing", "polygon"])
def test_non_finite_coordinate_exits_1_without_traceback(
        files, capsys, command, text, literal, shown):
    f = files("doc.json", _with_literal(text, literal, ("vertices", 1, "y")))
    assert main([command, f]) == 1
    assert capsys.readouterr() == (
        "", f"error: vertices[1].y: expected a finite number, got {shown}\n")


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python has no integer digit limit")
def test_integer_literal_beyond_the_digit_limit_exits_1(files, capsys):
    text = _with_literal(serialize_drawing(p_ic()), "1" + "0" * 5000,
                         ("vertices", 1, "x"))
    assert main(["check-drawing", files("doc.json", text)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: Exceeds the limit")
    assert err.count("\n") == 1


@pytest.mark.parametrize("case", ["drawing", "route"])
def test_huge_decimal_exponent_exits_1_at_once(files, capsys, case):
    if case == "drawing":
        text = _with_literal(serialize_drawing(p_ic()), '"1e999999999"',
                             ("vertices", 1, "x"))
        argv = ["check-drawing", files("d.json", text)]
        want = "error: vertices[1].x: bad rational '1e999999999'\n"
    else:
        argv = ["route", files("p.json", serialize_polygon(lshape_polygon())),
                "--from=1e999999999,0", "--to=1,1"]
        want = ("error: expected a point as x,y rationals, "
                "got '1e999999999,0'\n")
    start = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - start < 1
    assert capsys.readouterr() == ("", want)


def _fragment_partition(edge, t_from='"0"'):
    return ('{"contacts": "proper", "components": [[{"edge": %s, '
            '"from": %s, "to": "1"}]]}' % (edge, t_from))


@pytest.mark.parametrize("edge", ["[0]", '{"k": 0}', "true"],
                         ids=["list", "object", "bool"])
def test_fragment_edge_must_be_an_integer(files, capsys, edge):
    f = files("d.json", serialize_drawing(comb_drawing()))
    part = files("part.json", _fragment_partition(edge))
    assert main(["render", f, "--partition", part]) == 1
    assert capsys.readouterr() == (
        "", "error: components[0]: fragment edge must be an integer\n")


def test_non_finite_fragment_parameter_exits_1(files, capsys):
    f = files("d.json", serialize_drawing(comb_drawing()))
    part = files("part.json", _fragment_partition("0", "NaN"))
    assert main(["render", f, "--partition", part]) == 1
    assert capsys.readouterr() == (
        "", "error: from: expected a finite number, got nan\n")


FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def _fixture_runs(name, text):
    """argv lists for every subcommand and mode that applies to a fixture
    file, with partition and decomposition overlays written alongside."""
    f = f"{name}.json"
    part = f"{name}.part.json"
    if "edges" in json.loads(text):
        runs = [["check-drawing", f], ["subdivide", f], ["render", f]]
        for contacts in ("proper", "noncrossing"):
            for mode in ("exact", "approx2"):
                for splits in ([], ["--allow-splits"]):
                    runs.append(["decompose-tree", f, "--contacts", contacts,
                                 "--mode", mode, *splits])
        for splits in ([], ["--allow-splits"]):
            runs.append(["decompose-tree", f, *splits, "-o", part])
            runs.append(["render", f, "--partition", part])
        return runs
    poly, diags = parse_polygon(text)
    tp = build_dual_tree(poly, diags)
    ends = []
    for tri in (tp.triangles[0], tp.triangles[-1]):
        a, b, c = (poly.points[k] for k in tri)
        ends.append(f"{(a.x + b.x + c.x) / 3},{(a.y + b.y + c.y) / 3}")
    runs = [["check-polygon", f], ["render", f],
            ["route", f, f"--from={ends[0]}", f"--to={ends[1]}"]]
    for mode in ("approx2", "exact-small"):
        runs.append(["decompose-polygon", f, "--mode", mode])
        runs.append(["decompose-polygon", f, "--mode", mode, "-o", part])
        runs.append(["render", f, "--partition", part])
    return runs


def test_fixture_transcripts_are_golden(tmp_path, monkeypatch, capsys):
    """sha256 over argv, exit code, stdout and stderr of every grr
    subcommand and mode on every fixture file; a change in any verdict,
    count, payload or message changes it."""
    monkeypatch.chdir(tmp_path)
    h = hashlib.sha256()
    for src in sorted(FIXTURE_DIR.glob("*.json")):
        text = src.read_text(encoding="utf-8")
        (tmp_path / src.name).write_text(text, encoding="utf-8")
        for argv in _fixture_runs(src.stem, text):
            code = main(argv)
            out, err = capsys.readouterr()
            h.update(repr((argv, code, out, err)).encode())
    assert h.hexdigest() == (
        "e25c7981dd62a6603ddbf09ce2a9206cb0cda411f7d52765d15f0790a15366a4")
