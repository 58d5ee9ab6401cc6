"""Big-step compilation: programs as kernels from packet sets to output
distributions.

A kernel row is a ``Row`` (see ``row``): positive integer numerators over
one row denominator.  The kernel computes exact rows only; in float mode,
``apply`` and ``row`` hand out the exact row rounded once (``row.rounded``),
so each float weight is the nearest double to the exact probability.
Rows are memoized per (node, input set), so repeated sub-evaluations --
which dominate star exploration, where the same current set recurs under
many accumulators -- are computed once.  Nodes are interned (see
``syntax``), so the memo, the plans and the star tables key on the node
itself: equal subterms share their entries, and a keyed node stays alive
while its entries do.  Rows are shared: the memo, the rows built from
them and the star tables hand out the same row, so nobody changes one.

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
is the point mass on the closure, so no pair chain is built.  The row of
a deterministic node is the point mass on its map's image, with one memo
entry per input set at the node the interpreter reached it from (a part,
or a run of a sequence's parts; see below), and none inside it.  Only
``Choice`` and the ``Star``, ``Union`` and ``Seq`` nodes that contain one
reach the interpreter.  The maps hold no reference to their kernel, so a
kernel is freed with its last reference, without the cycle collector.

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

``Union`` and ``Seq`` nodes are n-ary; each is evaluated through a plan
made on first use.  Every core program is strict: it maps the empty set
to the point mass on the empty set, and that point mass is the unit of
``&`` (the product of the branch rows, pushed forward by union).  A
union's plan names a guard field, the field that most branches test in
their leading run of tests; each such branch is listed under the value
it tests, and the other branches are unguarded.  On an input set, only
the unguarded branches and those listed under a value the guard field
takes in the set are evaluated; every other branch filters the set to
empty, so by strictness its row is the unit and leaves the product
unchanged.  The branches picked are multiplied in their order in the
union.

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
choices it stands for would be.  Its plan, made once, drops the parts a
weight of 0 or 1 cuts off and keeps each other weight as an integer pair
(n, d).

Every star whose body has a choice goes through the kernel's table of
solved rows for its (star node, filter), which maps a current set a to the
star's row on a; a chain solved for one input fills it for every state
(a, {}) it meets.  Later chains stop at every state (a, b) whose a is in
the table, with the table's row joined with b, the same join as a point
mass in a product (``row.joined``; see ``star`` for why that row is
exact).
"""

from __future__ import annotations

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

_UNSET = object()  # a node not yet compiled (see ``Kernel._set_map``)


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


class Kernel:
    """Evaluates a core (desugared) program row by row.  With ``exact``
    false, ``apply`` and ``row`` return float rows: the exact rows, each
    weight rounded to the nearest double."""

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
        self._memo: dict = {}
        self._plans: dict = {}
        self._maps: dict = {}
        self._tables: dict = {}
        self._diracs: dict = {}
        self._empty = self._dirac(EMPTY)

    def _dirac(self, s: PacketSet) -> Row:
        """The point mass on ``s``: one row per set and kernel, since most
        rows are point masses on few distinct sets."""
        row = self._diracs.get(s)
        if row is None:
            row = self._diracs[s] = Row(1, {s: 1})
        return row

    def _point(self, row: Row):
        """The set a row puts probability one on, or None."""
        nums = row.nums
        if len(nums) != 1:
            return None
        (s, p), = nums.items()
        return s if p == row.den else None

    # -- evaluation ----------------------------------------------------------

    def apply(self, aset: PacketSet) -> Row:
        """The output row of the whole program on ``aset``."""
        row = self._eval(self.program, aset)
        return row if self.exact else rounded(row)

    def row(self, node: Program, aset: PacketSet) -> Row:
        """The row of an arbitrary sub-program on ``aset``; an exact row is
        shared, so the caller must not change it (``as_dict`` gives a fresh
        dict)."""
        row = self._eval(node, aset)
        return row if self.exact else rounded(row)

    def _eval(self, node: Program, aset: PacketSet) -> Row:
        key = (node, aset)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        out = self._eval_uncached(node, aset)
        self._memo[key] = out
        return out

    def _eval_uncached(self, node: Program, aset: PacketSet) -> Row:
        fn = self._set_map(node)
        if fn is not None:
            return self._dirac(fn(aset))
        match node:
            case Union():
                return self._union(node, aset)
            case Seq():
                row = self._dirac(aset)
                for part, filt in self._seq_plan(node):
                    row = self._bind(row, part, filt)
                return row
            case Choice():
                return self._choice(node, aset)
            case Star():
                return self._star(node, None, aset)
            case _:
                raise WellFormednessError(f"non-core node {node!r}")

    # -- deterministic subterms ----------------------------------------------

    def _set_map(self, node: Program):
        """The compiled set map of ``node``, made once per node: the function
        from a packet set to the one set ``node`` maps it to.  None for a
        node that contains a ``Choice``, or is not core."""
        fn = self._maps.get(node, _UNSET)
        if fn is _UNSET:
            fn = self._maps[node] = self._compile(node)
        return fn

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

    def _choice(self, node: Choice, aset: PacketSet) -> Row:
        """The row of the choice ``node``: its parts' rows in order, skipping
        a part of weight 0 and stopping after a weight of 1, mixed from the
        last part back, as the right-nested binary choices it stands for
        would be."""
        mixed, last = self._choice_plan(node)
        taken = [(w, self._eval(part, aset)) for part, w in mixed]
        row = self._eval(last, aset)
        for w, left in reversed(taken):
            row = self._mix(w, left, row)
        return row

    def _choice_plan(self, node: Choice):
        """(mixed, last) of the choice ``node``: ``mixed`` lists the parts
        before the first of weight 1 (else before the last part) whose
        weight is not 0, each with its weight as an integer pair (n, d);
        ``last`` is the part they are mixed into."""
        plan = self._plans.get(node)
        if plan is not None:
            return plan
        mixed, last = [], node.parts[-1]
        for part, w in zip(node.parts, node.weights):
            if w == 1:
                last = part
                break
            if w != 0:
                mixed.append((part, w.as_integer_ratio()))
        plan = self._plans[node] = (mixed, last)
        return plan

    @staticmethod
    def _mix(w, left: Row, right: Row) -> Row:
        """Row of a choice of weight n/d, ``w == (n, d)`` with
        0 < n < d, between two rows."""
        n, d = w
        dl, dr = left.den, right.den
        m = lcm(dl, dr)
        fl, fr = n * (m // dl), (d - n) * (m // dr)
        out = {b: fl * p for b, p in left.nums.items()}
        for b, p in right.nums.items():
            out[b] = out.get(b, 0) + fr * p
        return reduced(d * m, out)

    def _union(self, node: Union, aset: PacketSet) -> Row:
        branches = node.parts
        out = None
        for i in _picked(self._union_plan(node), aset):
            row = self._eval(branches[i], aset)
            out = row if out is None else self._product(out, row)
        return self._empty if out is None else out

    def _union_plan(self, node: Union):
        """(guard reader, value -> branch indices, unguarded indices) of the
        union chain at ``node``: the reader gives a packet's value of the
        guard field, or is None if no branch starts with a test.  Index
        lists are in chain order, and each value's list includes the
        unguarded branches."""
        plan = self._plans.get(node)
        if plan is not None:
            return plan
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
        plan = self._plans[node] = (read, table, unguarded)
        return plan

    def _product(self, mu: Row, nu: Row) -> Row:
        """The row of ``l & r`` from the rows of ``l`` and ``r``."""
        s, other = self._point(nu), mu
        if s is None:
            s, other = self._point(mu), nu
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

    def _seq_plan(self, node: Seq) -> list:
        """The (part, filter) steps of the sequence at ``node``, in order;
        ``filter`` is the predicate parts after a star whose body has a
        choice as one node, or None; such loops end in exactly such a
        filter.  A run of consecutive deterministic parts, choice-free stars
        and loops included, is one step, their ``Seq``, so one set map."""
        plan = self._plans.get(node)
        if plan is not None:
            return plan
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
        plan = self._plans[node] = [
            (seq(*part) if isinstance(part, list) else part, filt)
            for part, filt in steps]
        return plan

    def _step(self, node: Program, filt, aset: PacketSet) -> Row:
        """The row of one sequence step: ``node``, or the star ``node``
        followed by the predicate ``filt``."""
        if filt is None:
            return self._eval(node, aset)
        return self._star(node, filt, aset)

    def _star(self, node: Star, filt, aset: PacketSet) -> Row:
        """The row of the star ``node``, whose body has a choice, then the
        predicate ``filt`` unless None, from the (star, filter) table; a
        miss solves and fills it."""
        table = self._tables.setdefault((node, filt), {})
        row = table.get(aset)
        if row is None:
            keep = None if filt is None else self._set_map(filt)
            row = star_mod.star_dist(
                lambda a: self._eval(node.body, a), aset,
                cap=self.state_budget, keep=keep,
                program_text=lambda: pretty(node), table=table,
            )
        return row

    def _bind(self, mu: Row, node: Program, filt) -> Row:
        """The row of ``mu`` followed by one sequence step: the sum of the
        step's rows weighted by ``mu``, over the lcm of their
        denominators."""
        c = self._point(mu)
        if c is not None:
            return self._step(node, filt, c)
        steps = [(p, self._step(node, filt, c)) for c, p in mu.nums.items()]
        m = lcm(*[r.den for _, r in steps])
        out = {}
        for p, r in steps:
            f = p * (m // r.den)
            for b, q in r.nums.items():
                out[b] = out.get(b, 0) + f * q
        return reduced(mu.den * m, out)
