"""Output checks, run after the timed loop.

Each op's output is checked on its own: every partition re-validates,
every polygon piece re-certifies, and every route strictly closes in on
its target. Checks across ops of one instance follow: noncrossing never
needs more parts than proper, splits never more than no splits, and the
2-approximations stay within 2 * optimum - 1 of the exact answers.
"""
from __future__ import annotations

from fractions import Fraction


def _point(text: str) -> tuple[Fraction, Fraction]:
    x, y = text.split(",")
    return Fraction(x), Fraction(y)


def _arg(op, flag: str) -> str:
    for a in op.args:
        if a.startswith(flag + "="):
            return a[len(flag) + 1:]
    raise ValueError(f"{op.label} has no {flag}")


def _sq_dist(p, q) -> Fraction:
    return (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2


class Checker:
    """Checks ops against the package's own validators, which it imports
    when built, after the timed loop has finished."""

    def __init__(self):
        from grrdecomp import analysis, formats, polydecomp, treedecomp
        self.analysis, self.formats = analysis, formats
        self.polydecomp, self.treedecomp = polydecomp, treedecomp
        self._parsed: dict = {}
        self.results: dict = {}   # (instance name, variant) -> answer

    def _drawing(self, inst):
        if inst.name not in self._parsed:
            self._parsed[inst.name] = self.formats.parse_drawing(inst.text)
        return self._parsed[inst.name]

    def _tp(self, inst):
        if inst.name not in self._parsed:
            poly, diags = self.formats.parse_polygon(inst.text)
            self._parsed[inst.name] = self.polydecomp.build_dual_tree(
                poly, diags)
        return self._parsed[inst.name]

    def check(self, op, rc, out: str):
        """None when the op's output is right, else what is wrong."""
        expect = (0, 1) if op.kind in ("check-drawing", "check-polygon",
                                       "route") else (0,)
        if rc not in expect:
            return f"exit code {rc}, expected {expect}"
        return getattr(self, "_" + op.kind.replace("-", "_"))(op, rc, out)

    # -- tree drawings --------------------------------------------------------

    def _partition(self, op, out: str):
        head, _, body = out.partition("\n")
        k = int(head.removeprefix("components: "))
        d = self._drawing(op.inst)
        p = self.formats.parse_partition(body, d)
        base = p.origin.drawing if p.origin is not None else d
        report = self.treedecomp.validate_partition(base, p)
        if not report.ok:
            return None, "invalid partition: " + "; ".join(report.problems)
        if p.size != k:
            return None, f"summary says {k} components, partition has {p.size}"
        mode = op.args[op.args.index("--contacts") + 1] \
            if "--contacts" in op.args else "proper"
        if p.contact_mode != mode:
            return None, f"contact mode {p.contact_mode}, expected {mode}"
        return p, None

    def _exact(self, op, rc, out):
        p, bad = self._partition(op, out)
        if bad:
            return bad
        d = self._drawing(op.inst)
        fam = op.inst.family
        if fam == "zigzag" and p.size != 1:
            return f"zigzag optimum is 1, got {p.size}"
        if fam == "sawtooth" and p.size != d.n_edges:
            return f"sawtooth optimum is {d.n_edges}, got {p.size}"
        self.results[(op.inst.name, p.contact_mode)] = p.size
        return None

    def _sized(self, op, out):
        p, bad = self._partition(op, out)
        if bad is None:
            self.results[(op.inst.name, op.kind)] = p.size
        return bad

    def _approx2(self, op, rc, out):
        if op.inst.family == "polygon":
            return self._decomposition(op, out)
        return self._sized(op, out)

    def _splits(self, op, rc, out):
        return self._sized(op, out)

    _approx2_splits = _splits

    def _check_drawing(self, op, rc, out):
        lines = out.splitlines()
        pairs = []
        if rc == 0:
            if len(lines) != 1 or not lines[0].startswith(
                    "no conflicting edges"):
                return f"exit 0 with output {lines[:2]}"
        else:
            for line in lines:
                a, _, b = line.removeprefix("conflict: edge ").partition(
                    " and edge ")
                pairs.append((int(a), int(b)))
            if not pairs:
                return "exit 1 without a conflicting pair"
        self.results[(op.inst.name, "conflicts")] = pairs
        return None

    # -- polygons -------------------------------------------------------------

    def _check_polygon(self, op, rc, out):
        line = out.rstrip("\n")
        if rc == 0:
            if not line.startswith("greedily routable"):
                return f"exit 0 with output {line!r}"
        else:
            tail = line.removeprefix("conflict: boundary edge ")
            e, _, rest = tail.partition(" and edge ")
            f = rest.split(" ", 1)[0]
            n = self._tp(op.inst).polygon.n
            if tail == line or not (0 <= int(e) < n and 0 <= int(f) < n
                                    and e != f):
                return f"bad witness line {line!r}"
        self.results[(op.inst.name, "routable")] = rc == 0
        return None

    def _decomposition(self, op, out: str):
        head, _, body = out.partition("\n")
        k = int(head.removeprefix("pieces: "))
        tp = self._tp(op.inst)
        dec = self.formats.parse_decomposition(body)
        seen: set[int] = set()
        for piece in dec.pieces:
            if seen & piece:
                return "pieces overlap"
            seen |= piece
        if seen != set(range(tp.n_triangles)):
            return "pieces do not cover the triangles"
        if dec.size != k or len(dec.cut_diagonals) != k - 1:
            return (f"summary says {k} pieces; {dec.size} pieces and "
                    f"{len(dec.cut_diagonals)} cut diagonals")
        if not set(dec.cut_diagonals) <= set(tp.diagonals):
            return "a cut diagonal is not a diagonal"
        for piece in dec.pieces:
            poly = self.polydecomp.piece_union_polygon(tp, piece)
            if self.analysis.polygon_is_grr(poly) is not None:
                return f"piece {sorted(piece)} is not greedily routable"
        self.results[(op.inst.name, op.kind)] = k
        return None

    def _exact_small(self, op, rc, out):
        return self._decomposition(op, out)

    def _route(self, op, rc, out):
        lines = out.splitlines()
        s, t = _point(_arg(op, "--from")), _point(_arg(op, "--to"))
        last = lines[-1] if lines else ""
        way = [_point(w) for w in lines[:-1]]
        if not way or way[0] != s:
            return "route does not start at its source"
        for a, b in zip(way, way[1:]):
            if not _sq_dist(b, t) < _sq_dist(a, t):
                return f"waypoint {b} does not get closer to the target"
        if rc == 0:
            if last != "reached" or way[-1] != t:
                return "route reports success but does not end at the target"
        elif (not last.startswith("failure at ")
              or _point(last.removeprefix("failure at ")) != way[-1]):
            return f"stuck route ends with {last!r}"
        return None

    def _route_piece(self, op, rc, out):
        # check() has already required exit 0: the route reached its target
        poly, _ = self.formats.parse_polygon(op.inst.text)
        if self.analysis.polygon_is_grr(poly) is not None:
            return "staircase piece is not greedily routable"
        return self._route(op, rc, out)

    # -- across ops of one instance -------------------------------------------

    def cross(self, ops) -> list[tuple[int, str]]:
        """Compare the answers of ops on the same instance; returns
        (op index, problem) for the last op on each instance."""
        last_op = {op.inst.name: op.index for op in ops}
        problems = []
        for name, idx in last_op.items():
            problems += [(idx, p) for p in self._cross_one(name)]
        return problems

    def _cross_one(self, name: str):
        def get(variant):
            return self.results.get((name, variant))

        proper, noncrossing = get("proper"), get("noncrossing")
        if proper is not None and noncrossing is not None \
                and noncrossing > proper:
            yield f"noncrossing {noncrossing} > proper {proper}"
        approx = get("approx2")
        for opt, apx in ((proper, approx),
                         (get("splits"), get("approx2-splits")),
                         (get("exact-small"), approx)):
            if opt is not None and apx is not None \
                    and not opt <= apx <= 2 * opt - 1:
                yield f"approx2 {apx} outside [{opt}, {2 * opt - 1}]"
        splits = get("splits")
        for unsplit in (proper, approx):
            if unsplit is not None and splits is not None \
                    and splits > unsplit:
                yield f"splits {splits} > unsplit {unsplit}"
        conflicts = get("conflicts")
        for variant in ("proper", "approx2", "splits"):
            size = get(variant)
            if conflicts is not None and size is not None \
                    and (not conflicts) != (size == 1):
                yield f"check-drawing disagrees with {variant} size {size}"
        routable = get("routable")
        pieces = approx if approx is not None else get("exact-small")
        if routable is not None and pieces is not None \
                and routable != (pieces == 1):
            yield "check-polygon disagrees with the decomposition"
