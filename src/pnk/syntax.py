"""Program syntax: AST nodes, well-formedness, pretty-printing.

Nodes: Drop, Skip, Test, Assign, Neg, Union, Seq, Choice, Star, the
language of the paper.  Its ``if``, ``while``, ``do ... while``, ``var`` and
n-ary ``choice`` are abbreviations, as in NetKAT: ``if_then_else``,
``while_do``, ``do_while``, ``var_in`` and ``nary_choice`` build the nodes
they stand for, so every program is made of these nodes alone.

Nodes are interned (hash-consed) when they are built, through one weak
table keyed by the class, the scalar fields with their types and the
children by identity: equal subterms, within a program and across
programs, are one object, and ``==`` and ``hash`` are those of identity.

``&``, ``;`` and ``+[r]`` chains are n-ary: a ``Union``, ``Seq`` or
``Choice`` holds the ``parts`` of a whole chain, two or more, and every
pass loops over them, so a long chain costs no recursion depth.  ``&`` and
``;`` are associative, so an operand of the same class contributes its
parts: ``Union(Union(a, b), c) is Union(a, Union(b, c)) is Union(a, b, c)``.
A choice keeps its ``weights`` as written: ``Choice(r, a, Choice(s, b, c))``
has parts ``(a, b, c)`` and weights ``(r, s)``.  Only a right operand is
spliced; a left one stays a nested part, since splicing it would rescale
the weights and so change the sampler's draws.

Each node records its facts when it is built, from those of its children
(see ``Program``): its nesting ``depth``, whether a ``choice`` shows in it
and whether it is a ``predicate``.  So a program is a DAG whose facts are
read, never recomputed by a walk, and ``validate`` visits each distinct
node once.  A node deeper than ``MAX_DEPTH`` is a ``WellFormednessError``:
every recursive pass over a program then stays well inside Python's
recursion limit, whoever built it.  So is a choice with a weight that is
not a number in [0, 1], or with other than one weight fewer than its
parts: every ``Choice`` is a distribution once built.

A node is a *predicate* iff it is Drop, Skip, Test, or Neg/Union/Seq of
predicates.  Choice and Star are never predicates, and Neg may only be
applied to predicates.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .errors import WellFormednessError
from .universe import EMPTY, PacketSet, PacketUniverse, field_bit

# Intern key -> weak reference to the one live node of that value.
_NODES: dict = {}

#: The deepest nesting a program may have.  A leaf is 1 deep, a star adds
#: two levels and any other node one: evaluating a star takes about twice
#: the stack of any other node.  Every pass, and the parser, takes at most
#: four frames per level, so a program this deep stays well inside Python's
#: default recursion limit of 1000.
MAX_DEPTH = 150


def _intern(cls, args: tuple, key: tuple, kids=None):
    """The live node under ``key``, or a new ``cls`` node with fields ``args``
    and the facts of ``Program``, read off its child programs ``kids`` (by
    default, the programs among ``args``)."""
    ref = _NODES.get(key)
    node = None if ref is None else ref()
    if node is None:
        depth, choice, predicate = 0, False, True
        for k in args if kids is None else kids:
            if isinstance(k, Program):
                if k.depth > depth:
                    depth = k.depth
                choice |= k.choice
                predicate &= k.predicate
        depth += 2 if cls is Star else 1
        if depth > MAX_DEPTH:
            raise WellFormednessError(f"program nests deeper than {MAX_DEPTH} levels")
        node = object.__new__(cls)
        cls._fill(node, *args)
        object.__setattr__(node, "depth", depth)
        object.__setattr__(node, "choice", cls is Choice or choice)
        object.__setattr__(node, "predicate", predicate and cls in _PREDICATE)
        _NODES[key] = weakref.ref(node, partial(_forget, key))
    return node


def _forget(key: tuple, ref) -> None:
    if _NODES.get(key) is ref:  # not already taken by a newer node
        del _NODES[key]


class Program:
    """Base class for AST nodes.  Nodes are immutable and interned (see
    above): two nodes are equal exactly when they are one object.  Each node
    carries three facts, set when it is built from those of its children;
    they are not fields:

    ``depth``      the nesting depth (see ``MAX_DEPTH``);
    ``choice``     the node is a ``Choice`` or holds one;
    ``predicate``  a predicate (see above).

    A node also keeps its ``footprint`` once it is asked for, and a
    kernel's code for it (see ``bigstep``).
    """

    __slots__ = ("__weakref__", "depth", "choice", "predicate", "_footprint", "_code")

    def __new__(cls, *args):
        return _intern(cls, args, (cls, args, *map(type, args)))


def _node(cls):
    """A frozen, slotted node dataclass whose generated ``__init__`` is
    ``_fill``: a lookup that hits must not set the fields again."""
    cls = dataclass(frozen=True, eq=False, slots=True)(cls)
    cls._fill = cls.__init__
    del cls.__init__
    return cls


@_node
class Drop(Program):
    pass


@_node
class Skip(Program):
    pass


@_node
class Test(Program):
    field: str
    value: int


@_node
class Assign(Program):
    field: str
    value: int


@_node
class Neg(Program):
    body: Program


class _Chain(Program):
    """An n-ary node of an associative operator: ``parts`` are its two or
    more operands; an operand of its own class is spliced in first."""

    __slots__ = ()

    def __new__(cls, *parts: Program):
        if cls in map(type, parts):
            spliced = []
            for q in parts:
                if type(q) is cls:
                    spliced.extend(q.parts)
                else:
                    spliced.append(q)
            parts = tuple(spliced)
        if len(parts) < 2:
            raise WellFormednessError(f"{cls.__name__} needs two or more parts")
        return _intern(cls, (parts,), (cls, parts), parts)


@_node
class Union(_Chain):
    parts: tuple


@_node
class Seq(_Chain):
    parts: tuple


def _ratio(w) -> tuple:
    """A weight's exact ratio (n, d), d > 0; refuses nan and inf."""
    try:
        return w.as_integer_ratio()
    except (ValueError, OverflowError):  # nan, inf
        raise WellFormednessError(f"choice weight {w} is not finite") from None


def _weight_key(w) -> tuple:
    """A choice weight's type and exact ratio (a ``Fraction`` is slow to
    hash and compare); refuses a weight outside [0, 1]."""
    n, d = r = _ratio(w)
    if not 0 <= n <= d:
        raise WellFormednessError(f"choice weight {w} outside [0, 1]")
    return type(w), r


@_node
class Choice(Program):
    parts: tuple  # two or more; the last is never a Choice
    weights: tuple  # weights[i]: the chance of parts[i] if no earlier part is taken

    def __new__(cls, weight, left, right):
        return cls.chain((left, right), (weight,))

    @classmethod
    def chain(cls, parts, weights) -> Program:
        """The choice over ``parts`` with ``weights``, one fewer, each in
        [0, 1], in one intern call; a ``Choice`` last part is spliced in,
        and a lone part is returned."""
        parts, weights = tuple(parts), tuple(weights)
        if len(weights) != len(parts) - 1:
            raise WellFormednessError(
                f"a choice over {len(parts)} parts takes {len(parts) - 1} weights, "
                f"not {len(weights)}")
        if not weights:
            return parts[0]
        if type(parts[-1]) is cls:
            *parts, last = parts
            parts, weights = (*parts, *last.parts), weights + last.weights
        key = (cls, parts, *map(_weight_key, weights))
        return _intern(cls, (parts, weights), key, parts)


@_node
class Star(Program):
    body: Program


# The classes a predicate may have.
_PREDICATE = frozenset({Drop, Skip, Test, Neg, Union, Seq})


def is_predicate(p: Program) -> bool:
    return p.predicate


def validate(p: Program, universe: PacketUniverse) -> None:
    """Check well-formedness against a universe; raises WellFormednessError.
    Each distinct node is checked once."""
    seen = set()

    def go(node):
        if node in seen:
            return
        seen.add(node)
        match node:
            case Drop() | Skip():
                pass
            case Test(f, v) | Assign(f, v):
                if (error := _value_error(f, v, universe)) is not None:
                    raise WellFormednessError(error)
            case Neg(b):
                go(b)
                if not is_predicate(b):
                    raise WellFormednessError("negation applied to a non-predicate")
            case Union(parts) | Seq(parts) | Choice(parts):
                for q in parts:
                    go(q)
            case Star(b):
                go(b)
            case _:
                raise WellFormednessError(f"unknown node {node!r}")

    go(p)


def _value_error(f: str, v: int, universe: PacketUniverse) -> str | None:
    """Why field ``f`` may not hold ``v`` in ``universe``, or None."""
    if not universe.has_field(f):
        return f"unknown field {f!r}"
    if not (0 <= v < universe.field(f).size):
        return f"value {v} out of range for field {f!r}"
    return None


def desugar(p: Program) -> Program:
    """``p`` itself, every program being core: kept for the benchmark's layer
    trace, which patches it here and where ``casestudy`` and ``analysis``
    import it."""
    return p


def has_choice(p: Program) -> bool:
    """True iff the program contains a probabilistic choice."""
    return p.choice


def footprint(p: Program) -> tuple:
    """(fields read, fields written, fields killed, whether a ``Star``
    shows) of the program ``p``, each set of fields a mask of
    ``field_bit``s (see ``universe``).  A field is killed if every path
    assigns it before any step reads it, so the rows of ``p`` do not depend
    on its value.  Made once per node, and kept on it."""
    facts = getattr(p, "_footprint", None)
    if facts is not None:
        return facts
    cls = type(p)  # dispatched by hand: a class ``match`` costs more
    if cls is Test:
        facts = (field_bit(p.field), 0, 0, False)
    elif cls is Assign:
        facts = (0, field_bit(p.field), field_bit(p.field), False)
    elif cls is Neg or cls is Star:
        reads, writes, _, star = footprint(p.body)
        facts = (reads, writes, 0, star or cls is Star)
    elif cls is Seq or cls is Union or cls is Choice:
        reads, writes, kills, star = 0, 0, 0 if cls is Seq else -1, False
        for q in p.parts:
            r, w, k, s = footprint(q)
            # a sequence kills what a part kills before a part reads it;
            # a branching node what every part kills
            kills = kills | (k & ~reads) if cls is Seq else kills & k
            reads, writes, star = reads | r, writes | w, star or s
        facts = (reads, writes, kills, star)
    else:
        facts = (0, 0, 0, False)
    object.__setattr__(p, "_footprint", facts)
    return facts


def restrict(t: Program, aset: PacketSet, universe: PacketUniverse) -> PacketSet:
    """The members of ``aset`` that pass the predicate ``t``: ``aset & b_t``.

    drop -> {} ; skip -> a ; f=n -> {pi in a | pi.f = n} ; !t -> a - b_t ;
    t&u -> (a & b_t) | (a & b_u) ; t;u -> (a & b_t) & b_u.
    The cost grows with ``|aset|``, not with the universe.
    """
    match t:
        case Drop():
            return EMPTY
        case Skip():
            return aset
        case Test(f, v):
            return universe.select(aset, f, v)
        case Neg(b):
            return aset - restrict(b, aset, universe)
        case Union(parts):
            return EMPTY.union(*[restrict(q, aset, universe) for q in parts])
        case Seq(parts):
            for q in parts:
                aset = restrict(q, aset, universe)
            return aset
        case _:
            raise WellFormednessError(f"not a predicate: {excerpt(t)}")


# -- pretty-printing --------------------------------------------------------

# Precedence levels, loosest first: choice, union, seq, neg, star, atom.
_CHOICE, _UNION, _SEQ, _NEG, _STAR, _ATOM = range(6)


# How many characters of a program's text ``excerpt`` keeps.
EXCERPT_CHARS = 300


def pretty(p: Program) -> str:
    """Canonical concrete syntax; ``parse(pretty(p))`` returns ``p``."""
    out: list = []
    _pp(p, _CHOICE, out.append)
    return "".join(out)


class _Spent(Exception):
    """An excerpt has its characters."""


def excerpt(p: Program) -> str:
    """The first ``EXCERPT_CHARS`` characters of ``pretty(p)``, cut with
    ``…`` if there are more: the walk stops there, so a program costs no
    more than that, while the text of nested ``do … while``s doubles with
    each level (each holds its body twice)."""
    out: list = []
    n = 0

    def put(piece: str) -> None:
        nonlocal n
        out.append(piece)
        n += len(piece)
        if n > EXCERPT_CHARS:
            raise _Spent

    try:
        _pp(p, _CHOICE, put)
    except _Spent:
        return "".join(out)[:EXCERPT_CHARS] + "…"
    return "".join(out)


def _pp(p: Program, ctx: int, put) -> None:
    """Hand the text of ``p`` at the precedence ``ctx`` to ``put``, piece
    by piece, left to right."""
    match p:
        case Drop():
            put("drop")
        case Skip():
            put("skip")
        case Test(f, v):
            put(f"{f}={v}")
        case Assign(f, v):
            put(f"{f}:={v}")
        case Neg(b):
            put("(!" if ctx > _NEG else "!")
            _pp(b, _NEG, put)
            if ctx > _NEG:
                put(")")
        case Star(b):
            if ctx > _STAR:
                put("(")
            _pp(b, _ATOM, put)
            put("*)" if ctx > _STAR else "*")
        case Seq(parts) | Union(parts):
            level, sep = (_SEQ, " ; ") if type(p) is Seq else (_UNION, " & ")
            if ctx > level:
                put("(")
            _pp(parts[0], level + 1, put)
            for q in parts[1:]:
                put(sep)
                _pp(q, level + 1, put)
            if ctx > level:
                put(")")
        case Choice(parts, weights):
            if ctx > _CHOICE:
                put("(")
            for q, w in zip(parts, weights):
                _pp(q, _CHOICE + 1, put)
                put(f" +[{w}] ")
            _pp(parts[-1], _CHOICE, put)
            if ctx > _CHOICE:
                put(")")
        case _:
            raise WellFormednessError(f"unknown node {p!r}")


# -- the abbreviations ------------------------------------------------------
# Each builds the nodes its keyword form stands for.  A guard that is not a
# predicate shows as its ``Neg``, which ``validate`` refuses.


def if_then_else(t: Program, p: Program, q: Program) -> Program:
    """``if t then p else q``: ``(t;p) & (!t;q)``."""
    return Union(Seq(t, p), Seq(Neg(t), q))


def while_do(t: Program, p: Program) -> Program:
    """``while t do p``: ``(t;p)* ; !t``."""
    return Seq(Star(Seq(t, p)), Neg(t))


def do_while(p: Program, t: Program) -> Program:
    """``do p while t``: ``p ; (t;p)* ; !t``."""
    return Seq(p, Star(Seq(t, p)), Neg(t))


def var_in(f: str, n: int, p: Program) -> Program:
    """``var f:=n in p``: ``f:=n ; p ; f:=0``, the local field erased."""
    return Seq(Assign(f, n), p, Assign(f, 0))


def nary_choice(branches) -> Program:
    """``choice { w1: p1, ..., wn: pn }`` over the (program, weight)
    ``branches``, one or more with finite weights >= 0 of sum 1: one
    ``Choice`` that takes branch i with its weight over the weight left
    from i on, its parts gathered from the last branch back, in a loop."""
    branches = list(branches)
    if not branches:
        raise WellFormednessError("empty n-ary choice")
    for _, w in branches:
        _ratio(w)  # refuses nan and inf
    if (w := next((w for _, w in branches if w < 0), None)) is not None:
        raise WellFormednessError(f"negative branch weight {w}")
    total = sum((w for _, w in branches), Fraction(0))
    if total != 1:
        raise WellFormednessError(f"n-ary choice weights sum to {total}, expected 1")
    head, total = branches[-1]
    parts, weights = [head], []
    for head, w in reversed(branches[:-1]):
        total += w
        if total == 0:
            parts, weights = [], []  # all-zero tail: any branch carries the (zero) mass
        else:
            weights.append(Fraction(w) / total)
        parts.append(head)
    return Choice.chain(parts[::-1], weights[::-1])


# -- small constructors used throughout -------------------------------------


def seq(*parts: Program) -> Program:
    """Sequence of any number of programs; the empty sequence is skip."""
    if len(parts) < 2:
        return parts[0] if parts else Skip()
    return Seq(*parts)


def union(*parts: Program) -> Program:
    """Union of any number of programs; the empty union is drop."""
    if len(parts) < 2:
        return parts[0] if parts else Drop()
    return Union(*parts)


def uniform(*parts: Program) -> Program:
    """``nary_choice`` over the given programs with equal weights, built
    without its sums: the weights over the weight left are 1/n, ..., 1/2."""
    if not parts:
        raise WellFormednessError("uniform choice over nothing")
    return Choice.chain(parts, [Fraction(1, k) for k in range(len(parts), 1, -1)])
