"""Shared test helpers: seeded random program generators over tiny universes."""

import random
from fractions import Fraction

import pytest

from pnk.bigstep import _STATES, Kernel
from pnk.star import DEFAULT_STATE_BUDGET
from pnk.syntax import (
    Assign, Choice, Drop, Neg, Seq, Skip, Star, Test, Union,
)
from pnk.universe import FieldDecl, PacketUniverse

Test.__test__ = False  # an AST node, not a test class

WEIGHTS = [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
           Fraction(2, 3), Fraction(3, 4)]


@pytest.fixture
def uni2x2():
    return PacketUniverse([FieldDecl("f", 2), FieldDecl("g", 2)])


@pytest.fixture
def uni8():
    return PacketUniverse([FieldDecl("f", 2), FieldDecl("g", 2), FieldDecl("h", 2)])


def random_predicate(rng: random.Random, universe: PacketUniverse, depth: int = 2):
    if depth == 0 or rng.random() < 0.45:
        roll = rng.random()
        if roll < 0.15:
            return Drop()
        if roll < 0.3:
            return Skip()
        d = rng.choice(universe.decls)
        return Test(d.name, rng.randrange(d.size))
    op = rng.choice(("neg", "union", "seq"))
    if op == "neg":
        return Neg(random_predicate(rng, universe, depth - 1))
    a = random_predicate(rng, universe, depth - 1)
    b = random_predicate(rng, universe, depth - 1)
    return Union(a, b) if op == "union" else Seq(a, b)


def random_program(rng: random.Random, universe: PacketUniverse, depth: int = 3,
                   stars: int = 1):
    """A random core program; at most ``stars`` nested iteration nodes."""
    if depth == 0:
        roll = rng.random()
        if roll < 0.1:
            return Drop()
        if roll < 0.25:
            return Skip()
        d = rng.choice(universe.decls)
        if roll < 0.6:
            return Assign(d.name, rng.randrange(d.size))
        return Test(d.name, rng.randrange(d.size))
    ops = ["seq", "union", "choice", "leaf", "pred"]
    if stars > 0:
        ops.append("star")
    op = rng.choice(ops)
    if op == "leaf" or op == "pred":
        return (random_predicate(rng, universe, 1) if op == "pred"
                else random_program(rng, universe, 0, stars))
    if op == "star":
        return Star(random_program(rng, universe, depth - 1, stars - 1))
    a = random_program(rng, universe, depth - 1, stars)
    b = random_program(rng, universe, depth - 1, stars)
    if op == "seq":
        return Seq(a, b)
    if op == "union":
        return Union(a, b)
    return Choice(rng.choice(WEIGHTS), a, b)


def random_set(rng: random.Random, universe: PacketUniverse):
    return frozenset(
        p for p in range(universe.packet_count) if rng.random() < 0.5
    )


def random_dist(rng: random.Random, universe: PacketUniverse, support: int = 3):
    """A random exact distribution over packet sets."""
    sets = []
    while len(sets) < support:
        s = random_set(rng, universe)
        if s not in sets:
            sets.append(s)
    cuts = sorted(rng.randrange(1, 24) for _ in range(support - 1))
    probs = []
    prev = 0
    for c in cuts + [24]:
        probs.append(Fraction(c - prev, 24))
        prev = c
    return {s: p for s, p in zip(sets, probs) if p != 0}


def cold_kernel(p, u, **kwargs):
    """A kernel of ``p`` over ``u`` with a state of its own: no kernel over
    an equal universe and budget is alive when it is made, so its state
    differs from that of every kernel made before it, and it is an oracle
    for them.  (Live kernels over equal universes share one state.)"""
    key = (u.decls, kwargs.get("state_budget", DEFAULT_STATE_BUDGET))
    assert key not in _STATES, "a kernel over an equal universe is alive"
    k = Kernel(p, u, **kwargs)
    assert key in _STATES
    return k


def cold_rows(p, u, inputs, **kwargs):
    """The rows of ``p`` on ``inputs`` from one kernel made by
    ``cold_kernel``, which is gone on return."""
    k = cold_kernel(p, u, **kwargs)
    return [k.row(p, a) for a in inputs]
