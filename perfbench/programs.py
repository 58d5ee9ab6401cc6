"""Seeded random program pairs over an 8-packet universe whose verdict is
known by construction, so the decision procedures are checked against laws
of the paper rather than against themselves.

Four pair kinds, dealt in fixed rounds (``ROUND``) so every seed has the
same mix:

- ``unfold``: ``p*`` against ``skip & p;p*``                         (equal)
- ``choice``: ``p +[1/3] p`` against ``p;skip``                       (equal)
- ``assign``: ``(p;x:=0) & x:=0`` against ``(p;x:=0) & x:=1``   (not equal; every
  nonempty input row is a witness, because only the right side can output a
  packet with x=1)
- ``unroll``: the n-th approximant of ``p*`` against the (n+1)-th      (leq)
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from pnk.syntax import (
    Assign, Choice, Drop, Neg, Program, Seq, Skip, Star, Test, Union,
)
from pnk.universe import FieldDecl, PacketUniverse

FIELDS = ("f", "g", "h")
WEIGHTS = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3),
           Fraction(3, 4))
EXPECTED = {"unfold": "equal", "choice": "equal", "assign": "not-equal",
            "unroll": "leq"}


def universe8() -> PacketUniverse:
    return PacketUniverse([FieldDecl(f, 2) for f in FIELDS])


@dataclass(frozen=True)
class Pair:
    kind: str
    left: Program
    right: Program

    @property
    def expected(self) -> str:
        return EXPECTED[self.kind]


def _leaf(rng: random.Random) -> Program:
    roll = rng.random()
    f, v = rng.choice(FIELDS), rng.randrange(2)
    if roll < 0.05:
        return Drop()
    if roll < 0.15:
        return Skip()
    if roll < 0.25:
        return Neg(Test(f, v))
    return Assign(f, v) if roll < 0.65 else Test(f, v)


def _tree(rng: random.Random, depth: int, ops: tuple) -> Program:
    if depth == 0:
        return _leaf(rng)
    op = rng.choice(ops)
    a, b = _tree(rng, depth - 1, ops), _tree(rng, depth - 1, ops)
    if op == "seq":
        return Seq(a, b)
    if op == "union":
        return Union(a, b)
    return Choice(rng.choice(WEIGHTS), a, b)


def random_program(rng: random.Random, depth: int, probabilistic: bool,
                   star: bool) -> Program:
    """A full binary tree of the given depth over random tests, assignments,
    skip and drop.  Fixing the size, and whether the program has a choice
    (which decides between the 256-row and the singleton-row path of
    ``equiv``), keeps the cost of a run steady from seed to seed.  With
    ``star`` the tree's left half is iterated."""
    ops = ("seq", "seq", "union") + (("choice",) if probabilistic else ())
    left, right = _tree(rng, depth - 1, ops), _tree(rng, depth - 1, ops)
    if star:
        left = Star(left)
    if probabilistic:
        return Choice(rng.choice(WEIGHTS), left, right)
    return Seq(left, right) if rng.random() < 0.67 else Union(left, right)


def unroll(p: Program, n: int) -> Program:
    """The n-th approximant of ``p*``: skip, skip & p;skip, ..."""
    out: Program = Skip()
    for _ in range(n):
        out = Union(Skip(), Seq(p, out))
    return out


def make_pair(kind: str, rng: random.Random, probabilistic: bool, steps: int,
              depth: int = 2) -> Pair:
    if kind == "unfold":
        p = random_program(rng, depth, probabilistic, star=False)
        return Pair(kind, Star(p), Union(Skip(), Seq(p, Star(p))))
    if kind == "choice":
        p = random_program(rng, depth, probabilistic, star=True)
        return Pair(kind, Choice(Fraction(1, 3), p, p), Seq(p, Skip()))
    if kind == "assign":
        x = rng.choice(FIELDS)
        p = Seq(random_program(rng, depth, probabilistic, star=True), Assign(x, 0))
        return Pair(kind, Union(p, Assign(x, 0)), Union(p, Assign(x, 1)))
    if kind == "unroll":
        p = random_program(rng, depth, probabilistic, star=False)
        return Pair(kind, unroll(p, steps), unroll(p, steps + 1))
    raise ValueError(f"unknown pair kind {kind!r}")


# One round of pair kinds, with whether their programs have a choice.  Six of
# ten decisions are cheap (deterministic pairs take equiv's singleton-row path;
# an ``assign`` pair differs on the first nonempty row), three are expensive
# (a choice forces all 256 rows through a star), so the median and the 90th
# percentile fall inside a cluster, not in the gap between two.
ROUND = (
    ("unfold", False), ("assign", False), ("assign", True), ("choice", False),
    ("unfold", False), ("assign", False), ("assign", True), ("choice", True),
    ("unroll", None), ("unfold", True),
)


def make_pairs(seed: int, count: int) -> list[Pair]:
    """``count`` pairs dealt round by round, so every seed has the same mix
    and only the programs vary.  The round's ``unroll`` pair alternates
    between deterministic and probabilistic programs, and over two rounds
    between unrolling depths 0 and 1.  (Deeper probabilistic unrollings make
    ``leq``'s meet closures, and so the run's peak memory, swing widely from
    one program to the next.)"""
    rng = random.Random(seed)
    pairs = []
    for i in range(count):
        r, (kind, probabilistic) = i // len(ROUND), ROUND[i % len(ROUND)]
        if probabilistic is None:
            probabilistic = bool(r % 2)
        pairs.append(make_pair(kind, rng, probabilistic, steps=r // 2 % 2))
    return pairs
