"""Trace greedy paths: progress in an L-shape, a dead end in a U-shape.

The greedy rule walks straight at the target while it is visible and
otherwise slides along the boundary, always strictly shrinking the
distance. In the L-shaped room every pair of points connects. In the
U-shape a traveler starting in one arm gets wedged at the inner notch:
at (1, 5/2) no direction both stays inside and gets closer to the
target in the other arm, which certifies the polygon is not greedily
routable on its own.
"""

from pathlib import Path

from grrdecomp.analysis import trace_greedy_path
from grrdecomp.formats import parse_polygon
from grrdecomp.geometry import pt
from grrdecomp.svg import render_svg

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"


def show(name, poly, s, t):
    tr = trace_greedy_path(poly, s, t)
    print(f"{name}: from ({s.x}, {s.y}) to ({t.x}, {t.y})")
    for w in tr.waypoints:
        print(f"  via ({w.x}, {w.y})")
    if tr.reached:
        print("  reached the target")
    else:
        f = tr.failure_at
        print(f"  stuck at ({f.x}, {f.y})")
    svg = OUT / f"{name}_trace.svg"
    svg.write_text(render_svg(poly, tr), encoding="utf-8")
    print(f"  wrote {svg}")


def main():
    OUT.mkdir(exist_ok=True)
    lshape, _ = parse_polygon((ROOT / "fixtures" / "lshape.json").read_text())
    show("lshape", lshape, pt("15/8", "7/8"), pt("7/8", "15/8"))
    ushape, _ = parse_polygon((ROOT / "fixtures" / "ushape.json").read_text())
    show("ushape", ushape, pt("1/2", "5/2"), pt("5/2", "5/2"))


if __name__ == "__main__":
    main()
