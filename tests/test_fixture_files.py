"""Each fixture file matches what the formats code writes for it: the file
is the canonical text of the instance it holds, so a file edited by hand
cannot drift into a second spelling of the same instance."""

import pytest

from conftest import (
    FIXTURE_DIR,
    POLYGON_FIXTURES,
    TREE_FIXTURES,
    fixture_text,
)

from grrdecomp.formats import (
    parse_drawing,
    parse_polygon,
    serialize_drawing,
    serialize_triangulated,
)
from grrdecomp.polydecomp import build_dual_tree


@pytest.mark.parametrize("name", sorted(TREE_FIXTURES))
def test_drawing_file_matches_code(name):
    text = fixture_text(name)
    assert serialize_drawing(parse_drawing(text)) == text


@pytest.mark.parametrize("name", sorted(POLYGON_FIXTURES))
def test_polygon_file_matches_code(name):
    text = fixture_text(name)
    tp = build_dual_tree(*parse_polygon(text))
    assert serialize_triangulated(tp) == text


def test_no_stray_fixture_files():
    names = {p.stem for p in FIXTURE_DIR.glob("*.json")}
    assert names == set(TREE_FIXTURES) | set(POLYGON_FIXTURES)
