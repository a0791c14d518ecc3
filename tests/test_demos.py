"""Smoke test: every demo script runs end to end and writes its SVGs."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

# demo script -> the SVG files it writes into demos/out
DEMO_SVGS = {
    "allow_splits.py": ("comb_split.svg",),
    "check_conflicts.py": ("p_ic_conflicts.svg", "comb_conflicts.svg"),
    "decompose_polygon.py": ("ushape_pieces.svg", "two_notch_pieces.svg"),
    "decompose_tree.py": ("star4_proper.svg", "star4_noncrossing.svg"),
    "route_greedy.py": ("lshape_trace.svg", "ushape_trace.svg"),
}


@pytest.fixture(scope="module")
def demo_tree(tmp_path_factory):
    root = tmp_path_factory.mktemp("demo_run")
    shutil.copytree(REPO / "demos", root / "demos",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copytree(REPO / "fixtures", root / "fixtures")
    return root


def test_demo_list_is_complete():
    assert sorted(p.name for p in (REPO / "demos").glob("*.py")) == \
        sorted(DEMO_SVGS)


@pytest.mark.parametrize("script", sorted(DEMO_SVGS))
def test_demo_runs_and_writes_svg(demo_tree, script):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    run = subprocess.run([sys.executable, str(demo_tree / "demos" / script)],
                         cwd=demo_tree, env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    for name in DEMO_SVGS[script]:
        svg = demo_tree / "demos" / "out" / name
        assert svg.read_text(encoding="utf-8").lstrip().startswith("<svg"), \
            name
