"""JSON file formats for drawings, polygons, partitions, decompositions.

Coordinates are exact rationals serialized as strings ("1/3", "-2");
integers and decimal numbers are accepted on input, with decimal
numbers read at face value (0.1 means one tenth) and non-finite ones
(Infinity, NaN, 1e400) rejected, as are strings with a decimal exponent
beyond geometry.MAX_DECIMAL_EXPONENT. parse and serialize are inverses on
everything this package produces.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Optional

from .drawing import Drawing, SubdividedDrawing, subdivide, validate_drawing
from .errors import FormatError
from .geometry import Point, Polygon, frac
from .polydecomp import PolygonDecomposition, TriangulatedPolygon
from .treedecomp import CONTACT_MODES, Partition


def _coord(value, where: str) -> Fraction:
    if isinstance(value, bool):
        raise FormatError(f"{where}: expected a number, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return Fraction(repr(value))
        raise FormatError(f"{where}: expected a finite number, got {value}")
    if isinstance(value, str):
        try:
            return frac(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"{where}: bad rational {value!r}") from exc
    raise FormatError(f"{where}: expected a number, got {value!r}")


def _load(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(
            f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal beyond the digit limit
        raise FormatError(str(exc)) from exc
    if not isinstance(doc, dict):
        raise FormatError("top-level value must be an object")
    return doc


def _int_pair(value, where: str) -> tuple[int, int]:
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool)
                       for x in value)):
        raise FormatError(f"{where}: expected a pair of integers")
    return (value[0], value[1])


def _parse_vertices(doc: dict) -> list[tuple[int, Point]]:
    raw = doc.get("vertices")
    if not isinstance(raw, list):
        raise FormatError('"vertices" must be a list')
    out = []
    for k, item in enumerate(raw):
        where = f"vertices[{k}]"
        if not isinstance(item, dict):
            raise FormatError(f"{where}: expected an object")
        vid = item.get("id")
        if not isinstance(vid, int) or isinstance(vid, bool):
            raise FormatError(f'{where}: "id" must be an integer')
        if "x" not in item or "y" not in item:
            raise FormatError(f'{where}: needs "x" and "y"')
        out.append((vid, Point(_coord(item["x"], where + ".x"),
                               _coord(item["y"], where + ".y"))))
    return out


def detect_kind(text: str) -> str:
    """"drawing", "polygon", "partition", or "decomposition"."""
    doc = _load(text)
    if "boundary" in doc:
        return "polygon"
    if "edges" in doc:
        return "drawing"
    if "components" in doc:
        return "partition"
    if "pieces" in doc:
        return "decomposition"
    raise FormatError("unrecognized document: no boundary, edges, "
                      "components, or pieces")


# -- drawings -------------------------------------------------------------------

def parse_drawing(text: str) -> Drawing:
    doc = _load(text)
    verts = _parse_vertices(doc)
    raw_edges = doc.get("edges")
    if not isinstance(raw_edges, list):
        raise FormatError('"edges" must be a list')
    edges = [_int_pair(e, f"edges[{k}]") for k, e in enumerate(raw_edges)]
    return validate_drawing(verts, edges)


def serialize_drawing(d: Drawing) -> str:
    doc = {
        "vertices": [{"id": v, "x": str(d.points[v].x),
                      "y": str(d.points[v].y)} for v in d.vertex_ids],
        "edges": [[u, v] for u, v in d.edges],
    }
    return json.dumps(doc, indent=2) + "\n"


# -- polygons -------------------------------------------------------------------

def parse_polygon(text: str) -> tuple[Polygon, tuple[tuple[int, int], ...]]:
    """Returns the polygon and its diagonals as boundary-position pairs."""
    doc = _load(text)
    verts = _parse_vertices(doc)
    points = {vid: p for vid, p in verts}
    if len(points) != len(verts):
        raise FormatError("vertex ids repeat")
    boundary = doc.get("boundary")
    if (not isinstance(boundary, list)
            or not all(isinstance(v, int) and not isinstance(v, bool)
                       for v in boundary)):
        raise FormatError('"boundary" must be a list of vertex ids')
    if set(boundary) != set(points) or len(boundary) != len(points):
        raise FormatError('"boundary" must use each vertex id exactly once')
    pos = {vid: k for k, vid in enumerate(boundary)}
    raw_diags = doc.get("diagonals", [])
    if not isinstance(raw_diags, list):
        raise FormatError('"diagonals" must be a list')
    diagonals = []
    for k, item in enumerate(raw_diags):
        a, b = _int_pair(item, f"diagonals[{k}]")
        if a not in pos or b not in pos:
            raise FormatError(f"diagonals[{k}]: unknown vertex id")
        diagonals.append((pos[a], pos[b]))
    return Polygon(points[v] for v in boundary), tuple(diagonals)


def serialize_polygon(poly: Polygon, diagonals=()) -> str:
    doc = {
        "vertices": [{"id": k, "x": str(p.x), "y": str(p.y)}
                     for k, p in enumerate(poly.points)],
        "boundary": list(range(poly.n)),
        "diagonals": [sorted((a, b)) for a, b in diagonals],
    }
    return json.dumps(doc, indent=2) + "\n"


def serialize_triangulated(tp: TriangulatedPolygon) -> str:
    return serialize_polygon(tp.polygon, tp.diagonals)


# -- partitions -----------------------------------------------------------------

def parse_partition(text: str, drawing: Optional[Drawing] = None) -> Partition:
    """Fragment references require the drawing they subdivide."""
    doc = _load(text)
    mode = doc.get("contacts")
    if mode not in CONTACT_MODES:
        raise FormatError(f'"contacts" must be one of {CONTACT_MODES}')
    raw = doc.get("components")
    if not isinstance(raw, list):
        raise FormatError('"components" must be a list')
    has_fragments = any(isinstance(e, dict) for comp in raw if isinstance(comp, list)
                        for e in comp)
    origin: Optional[SubdividedDrawing] = None
    frag_index: dict[tuple, int] = {}
    if has_fragments:
        if drawing is None:
            raise FormatError(
                "partition uses edge fragments; the base drawing is needed")
        origin = subdivide(drawing)
        frag_index = {key: idx for idx, key in origin.origin.items()}
    comps = []
    for ci, comp in enumerate(raw):
        if not isinstance(comp, list) or not comp:
            raise FormatError(f"components[{ci}] must be a non-empty list")
        edges = set()
        for e in comp:
            if isinstance(e, int) and not isinstance(e, bool):
                edges.add(e)
                continue
            if isinstance(e, dict):
                if not {"edge", "from", "to"} <= set(e):
                    raise FormatError(
                        f'components[{ci}]: fragment needs "edge", "from", '
                        f'"to"')
                if type(e["edge"]) is not int:
                    raise FormatError(
                        f"components[{ci}]: fragment edge must be an integer")
                key = (e["edge"], _coord(e["from"], "from"),
                       _coord(e["to"], "to"))
                if key not in frag_index:
                    raise FormatError(
                        f"components[{ci}]: {key} is not a fragment of the "
                        f"subdivided drawing")
                edges.add(frag_index[key])
                continue
            raise FormatError(
                f"components[{ci}]: entries are edge indices or fragments")
        comps.append(frozenset(edges))
    return Partition(components=tuple(comps), contact_mode=mode,
                     origin=origin)


def serialize_partition(p: Partition) -> str:
    comps = []
    for comp in p.components:
        out = []
        for e in sorted(comp):
            if p.origin is None:
                out.append(e)
            else:
                base, t0, t1 = p.origin.origin[e]
                out.append({"edge": base, "from": str(t0), "to": str(t1)})
        comps.append(out)
    doc = {"components": comps, "contacts": p.contact_mode}
    return json.dumps(doc, indent=2) + "\n"


# -- polygon decompositions -------------------------------------------------------

def parse_decomposition(text: str) -> PolygonDecomposition:
    doc = _load(text)
    raw = doc.get("pieces")
    if not isinstance(raw, list):
        raise FormatError('"pieces" must be a list')
    pieces = []
    for k, piece in enumerate(raw):
        if (not isinstance(piece, list) or not piece
                or not all(isinstance(t, int) and not isinstance(t, bool)
                           for t in piece)):
            raise FormatError(f"pieces[{k}] must be a non-empty list of "
                              f"triangle ids")
        pieces.append(frozenset(piece))
    raw_cuts = doc.get("cut_diagonals", [])
    if not isinstance(raw_cuts, list):
        raise FormatError('"cut_diagonals" must be a list')
    cuts = frozenset(_int_pair(c, f"cut_diagonals[{k}]")
                     for k, c in enumerate(raw_cuts))
    return PolygonDecomposition(pieces=tuple(sorted(pieces, key=min)),
                                cut_diagonals=cuts)


def serialize_decomposition(dec: PolygonDecomposition) -> str:
    doc = {
        "pieces": [sorted(piece) for piece in dec.pieces],
        "cut_diagonals": sorted(list(c) for c in dec.cut_diagonals),
    }
    return json.dumps(doc, indent=2) + "\n"
