"""Big-step compilation: programs as kernels from packet sets to output
distributions.

A kernel row is a ``Row`` (see ``row``): positive integer numerators over
one row denominator.  The kernel computes exact rows only; in float mode,
``apply`` and ``row`` hand out the exact row rounded once (``row.rounded``),
so each float weight is the nearest double to the exact probability.

A kernel is a compiler.  On first use it compiles each node whose rows are
requested, and each (star, filter) step of a sequence, once into a row
function from a packet set to a ``Row`` (``Kernel._rows``).  The function
owns its memo, keyed on the input set, so repeated sub-evaluations --
which dominate star exploration, where the same current set recurs under
many accumulators -- are computed once.  Nodes are interned (see
``syntax``), so the row functions key on the node itself: equal subterms
share one function, and its memo.  Rows are shared: the memos, the rows
built from them and the star tables hand out the same row, so nobody
changes one.  One point mass per set serves the whole kernel.

Deterministic subterms are set maps.  A core program without ``+[r]`` is
deterministic and additive: on a set a, its row is the point mass on the
union of its images of the packets in a (Anderson et al., *NetKAT:
Semantic Foundations for Networks*, POPL 2014).  So the kernel compiles
each such node once (``Kernel._set_map``) into a function from a packet
set to a packet set: a test selects, reading one field digit on a
singleton; an assignment is ``PacketUniverse.modify``; ``!t`` maps a to
a - t(a); a sequence folds its parts' maps and stops at the empty set; a
union picks its branches through its guard table (below) and unites their
images; and a star's map is its reachability closure a | m(a) | m(m(a))
| ..., for m its body's map.  The closure maps only the packets new in
each round (m is additive, so the image of the packets already gathered
is already in), grows one mutable set and freezes it once.  Without a
choice, a star's current set follows one path, and the limit of that path
is the point mass on the closure, so no pair chain is built.  The row
function of a deterministic node is the point mass on its map's image.
Such a node gets one only where its rows are requested: as the program,
as a part of a union or choice that holds a choice, or as a step of a
sequence that holds one (below).  No node inside it has a row function
or a memo.

Exact rows are built without ``Fraction``s and reduced by their gcd where
they are made:

- a choice of weight n/d scales the left row's numerators by n and the
  right row's by d - n, over d times the lcm of the two denominators;
- a product (``&``) multiplies the denominators and the numerators, and
  is reduced only when two outcomes merge, since the product of reduced
  rows with distinct outcomes is reduced;
- a bind (one step of ``;``) sums over the lcm of its step rows'
  denominators;
- a point mass is a one-entry row whose numerator equals ``den``.

These are module functions that hold nothing of the kernel, and no row
function refers to its kernel, so a kernel is freed with its last
reference, without the cycle collector.

``Union`` and ``Seq`` nodes are n-ary, and each fixes its plan when it is
compiled.  Every core program is strict: it maps the empty set to the
point mass on the empty set, and that point mass is the unit of ``&``
(the product of the branch rows, pushed forward by union).  A union's
plan names a guard field, the field that most branches test in their
leading run of tests; each such branch is listed under the value it
tests, and the other branches are unguarded.  On an input set, only the
unguarded branches and those listed under a value the guard field takes
in the set are evaluated; every other branch filters the set to empty,
so by strictness its row is the unit and leaves the product unchanged.
The branches picked are multiplied in their order in the union, and each
branch's row function is looked up the first time it is picked.

A sequence is a left-to-right fold of binds (Kleisli composition), one
per step of its plan.  The plan joins each run of consecutive
deterministic parts into one step, their ``Seq``: one set map, and one
memo entry per input set; a choice-free ``p* ; t`` or loop is such a
run.  It folds the predicate parts right after a star whose body has a
choice into one predicate node, that star's filter, so ``p* ; t`` is
solved as one pair chain whose accumulator only gathers the members of
each current set that pass ``t`` (the filter's set map): filters are
predicates.  A point mass on either side of a product, or on the left of
a bind, skips the multiplication.  Rows equal those of any other
bracketing of the chain.  A choice is one n-ary node (see ``syntax``):
its rows are mixed from its last part back, as the right-nested binary
choices it stands for would be.  Its compiled form drops the parts a
weight of 0 or 1 cuts off and keeps each other weight as an integer pair
(n, d).

The row function of a star whose body has a choice, with or without a
filter, owns the star's table of solved rows, which maps a current set a
to the row of the star (then the filter) on a; a chain solved for one
input fills it for every state (a, {}) it meets.  Later chains stop at
every state (a, b) whose a is in the table, with the table's row joined
with b, the same join as a point mass in a product (``row.joined``; see
``star`` for why that row is exact).  The table is the function's memo.
"""

from __future__ import annotations

import weakref
from collections import Counter
from math import lcm

from . import star as star_mod
from .errors import WellFormednessError
from .row import Row, joined, reduced, rounded
from .star import DEFAULT_STATE_BUDGET
from .syntax import (
    Assign, Choice, Drop, Neg, Program, Seq, Skip, Star, Test, Union,
    is_core, is_predicate, pretty, seq,
)
from .universe import EMPTY, PacketSet, PacketUniverse


def _leading_tests(node: Program) -> dict:
    """Field -> value of the tests ``node`` starts with, first test of a
    field first: ``f=1 ; g=2 ; p`` gives ``{f: 1, g: 2}``."""
    tests: dict = {}
    for q in node.parts if isinstance(node, Seq) else (node,):
        if not isinstance(q, Test):
            break
        tests.setdefault(q.field, q.value)
    return tests


def _picked(plan, aset: PacketSet) -> list:
    """The indices, in chain order, of the branches of a union plan to
    evaluate on ``aset``: the unguarded ones and those listed under a
    value the guard field takes in ``aset``.  On a singleton this is one
    digit read and one lookup."""
    read, table, unguarded = plan
    if read is None:
        return unguarded
    if len(aset) == 1:
        for i in aset:
            return table.get(read(i), unguarded)
    values = {read(i) for i in aset}
    if len(values) == 1:
        return table.get(values.pop(), unguarded)
    if not values:
        return unguarded
    merged = set(unguarded)
    for v in values:
        merged.update(table.get(v, ()))
    return sorted(merged)


# -- rows ----------------------------------------------------------------------


def _point_masses():
    """A function from a set to the point mass on it, one row per set,
    since most rows are point masses on few distinct sets."""
    rows: dict = {}

    def dirac(s: PacketSet) -> Row:
        row = rows.get(s)
        if row is None:
            row = rows[s] = Row(1, {s: 1})
        return row
    return dirac


def _memoized(fn):
    """The row function ``fn`` with a memo keyed on the input set."""
    memo: dict = {}

    def rows(a: PacketSet) -> Row:
        row = memo.get(a)
        if row is None:
            row = memo[a] = fn(a)
        return row
    return rows


def _point(row: Row):
    """The set a row puts probability one on, or None."""
    nums = row.nums
    if len(nums) != 1:
        return None
    (s, p), = nums.items()
    return s if p == row.den else None


def _mix(w, left: Row, right: Row) -> Row:
    """Row of a choice of weight n/d, ``w == (n, d)`` with 0 < n < d,
    between two rows."""
    n, d = w
    dl, dr = left.den, right.den
    m = lcm(dl, dr)
    fl, fr = n * (m // dl), (d - n) * (m // dr)
    out = {b: fl * p for b, p in left.nums.items()}
    for b, p in right.nums.items():
        out[b] = out.get(b, 0) + fr * p
    return reduced(d * m, out)


def _product(mu: Row, nu: Row) -> Row:
    """The row of ``l & r`` from the rows of ``l`` and ``r``."""
    s, other = _point(nu), mu
    if s is None:
        s, other = _point(mu), nu
    if s is not None:
        return joined(other, s)
    out = {}
    for b1, p1 in mu.nums.items():
        for b2, p2 in nu.nums.items():
            b = b1 | b2
            out[b] = out.get(b, 0) + p1 * p2
    den = mu.den * nu.den
    if len(out) < len(mu.nums) * len(nu.nums):
        return reduced(den, out)
    return Row(den, out)


def _bind(mu: Row, step) -> Row:
    """The row of ``mu`` followed by the row function ``step``: the sum of
    the step's rows weighted by ``mu``, over the lcm of their
    denominators."""
    c = _point(mu)
    if c is not None:
        return step(c)
    rows = [(p, step(c)) for c, p in mu.nums.items()]
    m = lcm(*[r.den for _, r in rows])
    out = {}
    for p, r in rows:
        f = p * (m // r.den)
        for b, q in r.nums.items():
            out[b] = out.get(b, 0) + f * q
    return reduced(mu.den * m, out)


class Kernel:
    """Compiles a core (desugared) program into row functions.  With
    ``exact`` false, ``apply`` and ``row`` return float rows: the exact
    rows, each weight rounded to the nearest double."""

    def __init__(self, program: Program, universe: PacketUniverse,
                 exact: bool = True, state_budget: int = DEFAULT_STATE_BUDGET):
        if not is_core(program):
            raise WellFormednessError(
                "kernel requires a core program; run desugar() first"
            )
        self.program = program
        self.universe = universe
        self.exact = exact
        self.state_budget = state_budget
        self._maps: dict = {}
        self._fns: dict = {}
        self._dirac = _point_masses()

    def apply(self, aset: PacketSet) -> Row:
        """The output row of the whole program on ``aset``."""
        row = self._rows(self.program)(aset)
        return row if self.exact else rounded(row)

    def row(self, node: Program, aset: PacketSet) -> Row:
        """The row of an arbitrary sub-program on ``aset``; an exact row is
        shared, so the caller must not change it (``as_dict`` gives a fresh
        dict)."""
        row = self._rows(node)(aset)
        return row if self.exact else rounded(row)

    # -- row functions ---------------------------------------------------------

    def _rows(self, node: Program, filt=None):
        """The row function of ``node``, or of the star ``node`` followed by
        the predicate ``filt`` unless None, compiled once per kernel."""
        key = node if filt is None else (node, filt)
        fn = self._fns.get(key)
        if fn is None:
            fn = self._fns[key] = self._compile_rows(node, filt)
        return fn

    def _compile_rows(self, node: Program, filt):
        dirac = self._dirac
        m = self._set_map(node)
        if m is not None:
            return _memoized(lambda a: dirac(m(a)))
        match node:
            case Union(parts):
                plan = self._union_plan(node)
                fns = [None] * len(parts)
                compiled = weakref.WeakMethod(self._rows)
                empty = dirac(EMPTY)

                def union(a):
                    out = None
                    for i in _picked(plan, a):
                        f = fns[i]
                        if f is None:
                            f = fns[i] = compiled()(parts[i])
                        row = f(a)
                        out = row if out is None else _product(out, row)
                    return empty if out is None else out
                return _memoized(union)
            case Seq():
                steps = [self._rows(part, f) for part, f in self._seq_plan(node)]

                def sequence(a):
                    row = dirac(a)
                    for step in steps:
                        row = _bind(row, step)
                    return row
                return _memoized(sequence)
            case Choice(parts, weights):
                # The parts before the first of weight 1 (else before the
                # last part) whose weight is not 0, mixed into ``last``.
                mixed, last = [], parts[-1]
                for part, w in zip(parts, weights):
                    if w == 1:
                        last = part
                        break
                    if w != 0:
                        mixed.append((w.as_integer_ratio(), self._rows(part)))
                last = self._rows(last)

                def choice(a):
                    taken = [(w, f(a)) for w, f in mixed]
                    row = last(a)
                    for w, left in reversed(taken):
                        row = _mix(w, left, row)
                    return row
                return _memoized(choice)
            case Star(body):
                body_rows = self._rows(body)
                keep = None if filt is None else self._set_map(filt)
                cap, table = self.state_budget, {}

                def solved(a):
                    row = table.get(a)
                    if row is None:
                        row = star_mod.star_dist(
                            body_rows, a, cap=cap, keep=keep,
                            program_text=lambda: pretty(node), table=table)
                    return row
                return solved
            case _:
                raise WellFormednessError(f"non-core node {node!r}")

    def _union_plan(self, node: Union):
        """(guard reader, value -> branch indices, unguarded indices) of the
        union chain at ``node``: the reader gives a packet's value of the
        guard field, or is None if no branch starts with a test.  Index
        lists are in chain order, and each value's list includes the
        unguarded branches."""
        leads = [_leading_tests(b) for b in node.parts]
        votes = Counter(f for tests in leads for f in tests)
        guard = votes.most_common(1)[0][0] if votes else None
        table: dict = {}
        unguarded = []
        for i, tests in enumerate(leads):
            if guard in tests:
                table.setdefault(tests[guard], []).append(i)
            else:
                unguarded.append(i)
        for v, listed in table.items():
            self.universe.check_value(guard, v)
            table[v] = sorted(listed + unguarded)
        read = None if guard is None else self.universe.reader(guard)
        return read, table, unguarded

    def _seq_plan(self, node: Seq) -> list:
        """The (part, filter) steps of the sequence at ``node``, in order;
        ``filter`` is the predicate parts after a star whose body has a
        choice as one node, or None; such loops end in exactly such a
        filter.  A run of consecutive deterministic parts, choice-free stars
        and loops included, is one step, their ``Seq``, so one set map."""
        steps = []  # [part, or a list of deterministic parts; filter]
        for q in node.parts:
            if steps and isinstance(steps[-1][0], Star) and is_predicate(q):
                filt = steps[-1][1]
                steps[-1][1] = q if filt is None else Seq(filt, q)
            elif self._set_map(q) is None:
                steps.append([q, None])
            elif steps and isinstance(steps[-1][0], list):
                steps[-1][0].append(q)
            else:
                steps.append([[q], None])
        return [(seq(*part) if isinstance(part, list) else part, filt)
                for part, filt in steps]

    # -- deterministic subterms ----------------------------------------------

    def _set_map(self, node: Program):
        """The compiled set map of ``node``, made once per node: the function
        from a packet set to the one set ``node`` maps it to.  None for a
        node that contains a ``Choice``, or is not core."""
        maps = self._maps
        if node not in maps:
            maps[node] = self._compile(node)
        return maps[node]

    def _compile(self, node: Program):
        """The set map of ``node`` (see the module), or None if ``node``
        contains a ``Choice`` or is not core.  Every map is additive, m(a | b) == m(a) |
        m(b), and reads nothing of the kernel but its universe."""
        u = self.universe
        match node:
            case Drop():
                return lambda a: EMPTY
            case Skip():
                return lambda a: a
            case Test(f, v):
                u.check_value(f, v)
                read = u.reader(f)

                def test(a):
                    if len(a) != 1:
                        return u.select(a, f, v)
                    for i in a:
                        return a if read(i) == v else EMPTY
                return test
            case Assign(f, v):
                u.check_value(f, v)
                return lambda a: u.modify(a, f, v)
            case Neg(t):
                if not is_predicate(t):
                    raise WellFormednessError(f"not a predicate: {pretty(t)}")
                inner = self._set_map(t)

                def neg(a):  # a predicate keeps a subset of its input
                    b = inner(a)
                    return a if not b else EMPTY if len(b) == len(a) else a - b
                return neg
            case Seq(parts):
                maps = [self._set_map(q) for q in parts]
                if None in maps:
                    return None

                def seq(a):
                    for m in maps:
                        if not a:
                            break
                        a = m(a)
                    return a
                return seq
            case Union(parts):
                maps = [self._set_map(q) for q in parts]
                if None in maps:
                    return None
                plan = self._union_plan(node)

                def union(a):
                    out = EMPTY
                    for i in _picked(plan, a):
                        b = maps[i](a)
                        if b:
                            out = out | b if out else b
                    return out
                return union
            case Star(body):
                step = self._set_map(body)
                if step is None:
                    return None

                def closure(a):  # step is additive: map each packet once
                    new = step(a) - a
                    if not new:
                        return a
                    acc = set(a)
                    while new:
                        acc |= new
                        new = step(new) - acc
                    return frozenset(acc)
                return closure
            case _:
                return None
