"""Command-line interface; exit 0 on success, 1 on validation failure,
2 on usage errors. A run that exceeds a size budget, the recursion limit
or the memory it can get ends with a one-line error and exit 1, never
with a traceback."""
from __future__ import annotations

import argparse
import sys
from typing import Optional

from . import formats
from .analysis import conflicting_pairs, polygon_is_grr, trace_greedy_path
from .drawing import default_root, root_tree, subdivide
from .errors import FormatError, GRRError
from .geometry import Point, frac
from .polydecomp import (
    build_dual_tree,
    decompose_polygon_approx,
    decompose_polygon_exact_small,
)
from .svg import render_svg
from .treedecomp import (
    approx_gtd_proper,
    approx_gtd_with_splits,
    min_gtd_exact,
    min_gtd_with_splits,
)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {path}")


def _parse_point(s: str) -> Point:
    try:
        xs, ys = s.split(",")
        return Point(frac(xs.strip()), frac(ys.strip()))
    except (ValueError, TypeError, ZeroDivisionError):
        raise FormatError(f"expected a point as x,y rationals, got {s!r}")


def _cmd_check_drawing(args) -> int:
    d = formats.parse_drawing(_read(args.file))
    pairs = conflicting_pairs(d)
    if not pairs:
        print(f"no conflicting edges ({d.n_edges} edges)")
        return 0
    for i, j in pairs:
        print(f"conflict: edge {i} and edge {j}")
    return 1


def _cmd_check_polygon(args) -> int:
    poly, diags = formats.parse_polygon(_read(args.file))
    if diags:
        build_dual_tree(poly, diags)
    witness = polygon_is_grr(poly)
    if witness is None:
        print(f"greedily routable ({poly.n} boundary edges)")
        return 0
    print(f"conflict: boundary edge {witness.e} and edge {witness.f} "
          f"(normal ray from {witness.p.x},{witness.p.y} hits "
          f"{witness.hit.x},{witness.hit.y})")
    return 1


def _cmd_decompose_tree(args) -> int:
    d = formats.parse_drawing(_read(args.file))
    if args.mode == "approx2":
        if args.contacts != "proper":
            print("error: --mode approx2 supports only --contacts proper",
                  file=sys.stderr)
            return 2
        if args.allow_splits:
            p = approx_gtd_with_splits(d)
        else:
            p = approx_gtd_proper(d)
    elif args.allow_splits:
        p = min_gtd_with_splits(d, args.contacts)
    else:
        p = min_gtd_exact(root_tree(d, default_root(d)), args.contacts)
    print(f"components: {p.size}")
    _write(args.output, formats.serialize_partition(p))
    return 0


def _cmd_decompose_polygon(args) -> int:
    poly, diags = formats.parse_polygon(_read(args.file))
    tp = build_dual_tree(poly, diags)
    if args.mode == "exact-small":
        dec = decompose_polygon_exact_small(tp)
    else:
        dec = decompose_polygon_approx(tp)
    print(f"pieces: {dec.size}")
    _write(args.output, formats.serialize_decomposition(dec))
    return 0


def _cmd_route(args) -> int:
    poly, _ = formats.parse_polygon(_read(args.file))
    s = _parse_point(args.source)
    t = _parse_point(args.target)
    tr = trace_greedy_path(poly, s, t)
    for w in tr.waypoints:
        print(f"{w.x},{w.y}")
    if tr.reached:
        print("reached")
        return 0
    print(f"failure at {tr.failure_at.x},{tr.failure_at.y}")
    return 1


def _cmd_subdivide(args) -> int:
    d = formats.parse_drawing(_read(args.file))
    sd = subdivide(d)
    _write(args.output, formats.serialize_drawing(sd.drawing))
    return 0


def _cmd_render(args) -> int:
    text = _read(args.file)
    kind = formats.detect_kind(text)
    overlay = None
    if kind == "drawing":
        scene = formats.parse_drawing(text)
        if args.partition:
            overlay = formats.parse_partition(_read(args.partition), scene)
            if overlay.origin is not None:
                scene = overlay.origin.drawing
    elif kind == "polygon":
        poly, diags = formats.parse_polygon(text)
        scene = build_dual_tree(poly, diags) if diags else poly
        if args.partition:
            overlay = formats.parse_decomposition(_read(args.partition))
    else:
        print(f"error: cannot render a {kind} file", file=sys.stderr)
        return 2
    _write(args.output, render_svg(scene, overlay))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grr",
        description="Decompose tree drawings and triangulated polygons "
                    "into greedily routable regions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-drawing",
                       help="report conflicting edge pairs of a drawing")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check_drawing)

    p = sub.add_parser("check-polygon",
                       help="check whether a polygon is greedily routable")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check_polygon)

    p = sub.add_parser("decompose-tree",
                       help="partition a tree drawing into routable regions")
    p.add_argument("file")
    p.add_argument("--contacts", choices=("proper", "noncrossing"),
                   default="proper")
    p.add_argument("--mode", choices=("exact", "approx2"), default="exact")
    p.add_argument("--allow-splits", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_decompose_tree)

    p = sub.add_parser("decompose-polygon",
                       help="cut a triangulated polygon into routable pieces")
    p.add_argument("file")
    p.add_argument("--mode", choices=("approx2", "exact-small"),
                   default="approx2")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_decompose_polygon)

    p = sub.add_parser("route",
                       help="trace a greedy path between interior points")
    p.add_argument("file")
    p.add_argument("--from", dest="source", required=True, metavar="X,Y")
    p.add_argument("--to", dest="target", required=True, metavar="X,Y")
    p.set_defaults(func=_cmd_route)

    p = sub.add_parser("subdivide",
                       help="split every edge at foreign normal lines")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_subdivide)

    p = sub.add_parser("render", help="render a scene to SVG")
    p.add_argument("file")
    p.add_argument("--partition",
                   help="overlay a partition or decomposition file")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_render)
    return parser


_PARSER = _build_parser()  # built once: parse_args keeps no state


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except GRRError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: recursion limit exceeded", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
