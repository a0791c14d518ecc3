"""The benchmark's workloads as endless, seeded op sequences.

A sequence is cut into rounds. Round r of a workload is a fixed pattern
of ops over fresh instances whose geometry comes from (seed, r, slot),
so a run that ends at a round end weighs the op kinds alike whatever
the seed, and no instance is solved twice in one mode. Each op is one
`grr` command line over one input file.
"""
from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

import gen

WORKLOADS = ("tree-deep", "tree-wide", "polygon")

# Each workload uses one size per family, so op costs form a few tight
# clusters, and a round mixes the clusters so that p50 and p90 fall well
# inside one. On the boundary between two clusters a percentile jumps by
# 30% between runs; near the top of a cluster it follows the machine's
# slowest moments.
#
# tree-deep: zigzag paths make path-IC cubic; sawtooth paths make the
# reconstruction deep. A round is 10 zigzag and 2 sawtooth instances in
# both modes, plus one sawtooth path beyond the recursion limit of the
# reconstruction (about 333 edges in proper mode, fewer in noncrossing),
# which fails today with RecursionError: 4% of the ops. Only these ops
# may raise, and only that exception; any other escape is a wrong
# answer. p50 falls among the zigzag solves and p90 among the sawtooth
# ones. Parsing a path validates every edge pair,
# so a 1000-edge sawtooth would spend 13 s in the parser alone.
ZIGZAG_EDGES = 22
SAWTOOTH_EDGES = 100
SAWTOOTH_DEEP_EDGES = 360

# tree-wide: suns drive the sigma join and, through approx2, the
# multicut on many terminal pairs; random trees drive conflict
# detection, the multicut reduction and subdivision. A round is 2 suns
# and 4 random trees; p50 falls among the split ops and p90 among the
# exact sun solves.
SUN_LEGS = 40
TREE_EDGES = 10

# polygon: 8 polygons a round. exact-small runs because the dual tree
# has at most 25 edges. p50 falls among the routes and p90 among the
# decompositions.
POLYGON_TRIANGLES = 24
ROUTES_PER_POLYGON = 5
STAIRCASE_STEPS = (6, 10)


@dataclass
class Instance:
    name: str          # family-size.round.slot, unique within a run
    family: str
    text: str
    triangles: list = field(default_factory=list)
    source: str = ""   # route endpoints of a staircase piece
    target: str = ""
    path: str = ""


@dataclass
class Op:
    index: int
    inst: Instance
    command: str
    args: tuple
    kind: str          # what the checker expects of the output
    may_raise: str = ""  # the one exception type allowed to escape, if any

    @property
    def label(self) -> str:
        return " ".join((self.command, self.inst.name) + self.args)

    def argv(self) -> list[str]:
        return [self.command, self.inst.path, *self.args]


def sub_seed(seed: int, *parts) -> int:
    key = ":".join(str(p) for p in (seed,) + parts).encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


def _instance(seed, r, slot, family, size) -> Instance:
    s = sub_seed(seed, r, slot)
    triangles, ends = [], ("", "")
    if family == "zigzag":
        text = gen.zigzag_path(s, size)
    elif family == "sawtooth":
        text = gen.sawtooth_path(s, size)
    elif family == "sun":
        text = gen.sun(s, size)
    elif family == "tree":
        text = gen.random_tree(s, size)
    elif family == "polygon":
        text, triangles = gen.random_polygon(s, size)
    elif family == "staircase":
        text, *ends = gen.staircase(s, size)
    else:
        raise ValueError(f"unknown family {family!r}")
    return Instance(f"{family}-{size}.{r}.{slot}", family, text, triangles,
                    *ends)


def _pt(p) -> str:
    return f"{p[0]},{p[1]}"


def _centroid(tri) -> tuple[Fraction, Fraction]:
    return (Fraction(sum(p[0] for p in tri), 3),
            Fraction(sum(p[1] for p in tri), 3))


def _tree_deep(seed: int, r: int) -> list[tuple]:
    ops = []
    for k in range(10):
        insts = [_instance(seed, r, k, "zigzag", ZIGZAG_EDGES)]
        if k in (2, 7):
            insts.append(_instance(seed, r, 10 + k, "sawtooth",
                                   SAWTOOTH_EDGES))
        for inst in insts:
            for mode in ("proper", "noncrossing"):
                ops.append((inst, "decompose-tree", ("--contacts", mode),
                            "exact"))
        if k == 4:
            deep = _instance(seed, r, 99, "sawtooth", SAWTOOTH_DEEP_EDGES)
            mode = "proper" if r % 2 == 0 else "noncrossing"
            ops.append((deep, "decompose-tree", ("--contacts", mode),
                        "exact", "RecursionError"))
    return ops


def _tree_wide(seed: int, r: int) -> list[tuple]:
    ops = []
    for k in range(4):
        tree = _instance(seed, r, k, "tree", TREE_EDGES)
        ops += [
            (tree, "check-drawing", (), "check-drawing"),
            (tree, "decompose-tree", ("--mode", "approx2"), "approx2"),
            (tree, "decompose-tree", ("--allow-splits",), "splits"),
            (tree, "decompose-tree", ("--mode", "approx2", "--allow-splits"),
             "approx2-splits"),
        ]
        if k % 2:
            star = _instance(seed, r, 10 + k, "sun", SUN_LEGS)
            ops += [
                (star, "decompose-tree", ("--contacts", "proper"), "exact"),
                (star, "decompose-tree", ("--mode", "approx2"), "approx2"),
                (star, "decompose-tree", ("--contacts", "noncrossing"),
                 "exact"),
            ]
    return ops


def _polygon(seed: int, r: int) -> list[tuple]:
    ops = []
    for k in range(8):
        poly = _instance(seed, r, k, "polygon", POLYGON_TRIANGLES)
        ops.append((poly, "check-polygon", (), "check-polygon"))
        ops.append((poly, "decompose-polygon", ("--mode", "approx2"),
                    "approx2"))
        ops.append((poly, "decompose-polygon", ("--mode", "exact-small"),
                    "exact-small"))
        rng = random.Random(sub_seed(seed, r, k, "routes"))
        for _ in range(ROUTES_PER_POLYGON):
            a, b = rng.sample(poly.triangles, 2)
            # the --opt=value form keeps a leading minus sign from
            # reading as an option
            ops.append((poly, "route", (f"--from={_pt(_centroid(a))}",
                                        f"--to={_pt(_centroid(b))}"),
                        "route"))
        if k % 4 == 3:
            steps = STAIRCASE_STEPS[k // 4]
            st = _instance(seed, r, 50 + k, "staircase", steps)
            ops.append((st, "route",
                        (f"--from={st.source}", f"--to={st.target}"),
                        "route-piece"))
    return ops


_ROUNDS = {"tree-deep": _tree_deep, "tree-wide": _tree_wide,
           "polygon": _polygon}


class Sequence:
    """The op sequence of one workload and seed, generated round by round
    and written under a work directory."""

    def __init__(self, workload: str, seed: int, workdir: str):
        if workload not in _ROUNDS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.ops: list[Op] = []
        self.round_ends: set[int] = set()   # op counts at round boundaries
        self.rounds = 0

    def extend(self) -> None:
        """Generate, write and append the next round."""
        for inst, command, args, kind, *may_raise in _ROUNDS[
                self.workload](self.seed, self.rounds):
            if not inst.path:
                inst.path = os.path.join(self.workdir, inst.name + ".json")
                with open(inst.path, "w", encoding="utf-8") as fh:
                    fh.write(inst.text)
            self.ops.append(Op(len(self.ops), inst, command, args, kind,
                               *may_raise))
        self.round_ends.add(len(self.ops))
        self.rounds += 1

    def ensure(self, n_ops: int) -> None:
        """Generate whole rounds until there are at least n_ops ops."""
        while len(self.ops) < n_ops:
            self.extend()
