"""Tests of the benchmark's generators and op sequences.

    python3 -m pytest -q perfbench

Same seed, same bytes; and every generated file is accepted by the
package's own parsers, so no op fails on a malformed input.
"""
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import gen  # noqa: E402
import workloads  # noqa: E402
from grrdecomp import formats  # noqa: E402
from grrdecomp.analysis import conflicting_pairs  # noqa: E402
from grrdecomp.polydecomp import build_dual_tree  # noqa: E402

SEEDS = (0, 1, 7, 2**40 + 3)
DRAWINGS = [
    (gen.zigzag_path, (18, 25)),
    (gen.sawtooth_path, (60, 130)),
    (gen.sun, (32, 44)),
    (gen.random_tree, (8, 14)),
]


@pytest.mark.parametrize("make,sizes", DRAWINGS)
def test_drawings_are_seeded_and_parse(make, sizes):
    for seed in SEEDS:
        for n in sizes:
            text = make(seed, n)
            assert make(seed, n) == text
            d = formats.parse_drawing(text)
            assert n <= d.n_edges <= (2 * n if make is gen.sun else n)
    assert make(1, sizes[0]) != make(2, sizes[0])


def test_path_families_have_their_optimum_shape():
    for seed in SEEDS:
        assert conflicting_pairs(formats.parse_drawing(
            gen.zigzag_path(seed, 20))) == ()
        d = formats.parse_drawing(gen.sawtooth_path(seed, 30))
        assert {(i, i + 1) for i in range(29)} <= set(conflicting_pairs(d))


def test_polygons_are_seeded_and_parse():
    for seed in SEEDS:
        for n in (12, 40):
            text, tris = gen.random_polygon(seed, n)
            assert gen.random_polygon(seed, n) == (text, tris)
            tp = build_dual_tree(*formats.parse_polygon(text))
            assert tp.n_triangles == n == len(tris)
        for steps in (6, 10):
            text, s, t = gen.staircase(seed, steps)
            assert gen.staircase(seed, steps) == (text, s, t)
            assert formats.parse_polygon(text)[0].n == 2 * steps + 2


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_sequences_are_seeded(workload, tmp_path):
    runs = []
    for k in range(2):
        out = tmp_path / str(k)
        out.mkdir()
        seq = workloads.Sequence(workload, 5, str(out))
        seq.ensure(40)
        runs.append([(op.label, open(op.inst.path, "rb").read())
                     for op in seq.ops])
    assert runs[0] == runs[1]
    labels = [label for label, _ in runs[0]]
    assert len(labels) == len(set(labels))
