"""Big-step compilation: programs as kernels from packet sets to output
distributions.

A kernel row is a finitely supported distribution over packet sets.  Rows
are memoized per (node, input set), so repeated sub-evaluations -- which
dominate star exploration, where the same current set recurs under many
accumulators -- are computed once.  Rows are shared: the memo, the rows
built from them and the star row function may hand out the same dict, so
code inside this module treats every row as read-only.  ``Kernel.row``
hands callers a copy.

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
per step of its plan.  The plan folds the predicate parts right after a
star into that star's ``collect`` filter, so ``p* ; t`` is solved as one
pair chain whose accumulator only gathers packets that pass ``t``.  A
point mass of probability one on either side of a product, or on the
left of a bind, skips the multiplication.  Exact rows equal those of any
other bracketing of the chain, because ``Fraction`` arithmetic is exact;
float rows may differ in the last bits.

Every star goes through the kernel's table of solved rows for its (star
node, filter), which maps a current set a to the star's row on a; a chain
solved for one input fills it for every state (a, {}) it meets, and later
chains stop there (see ``star`` for why that row is shared).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import star as star_mod
from .errors import WellFormednessError
from .star import DEFAULT_STATE_BUDGET, FLOAT_MASS_TOL
from .syntax import (
    Assign, Choice, Drop, Neg, Program, Seq, Skip, Star, Test, Union,
    is_core, is_predicate, predicate_set, pretty, restrict,
)
from .universe import EMPTY, PacketSet, PacketUniverse


@dataclass(frozen=True)
class OutputDist:
    """Finitely supported distribution over packet sets (one stochastic row)."""

    support: tuple  # tuple of (PacketSet, prob), canonically ordered

    @classmethod
    def from_dict(cls, d: dict) -> "OutputDist":
        items = tuple(sorted(((s, p) for s, p in d.items() if p != 0),
                             key=lambda kv: sorted(kv[0])))
        return cls(items)

    def as_dict(self) -> dict:
        return dict(self.support)

    def mass(self):
        return sum(p for _, p in self.support)

    def prob(self, aset: PacketSet):
        for s, p in self.support:
            if s == aset:
                return p
        return 0

    def validate(self, exact: bool = True) -> None:
        for s, p in self.support:
            if p <= 0:
                raise WellFormednessError(f"non-positive probability {p}")
        m = self.mass()
        if exact:
            if m != 1:
                raise WellFormednessError(f"total mass {m} != 1")
        elif abs(m - 1) > FLOAT_MASS_TOL:
            raise WellFormednessError(
                f"total mass {m} not within {FLOAT_MASS_TOL} of 1")

    def to_jsonable(self, universe: PacketUniverse, input_set: PacketSet | None = None):
        obj = {
            "support": [
                {
                    "set": universe.set_to_records(s),
                    "prob": str(p) if isinstance(p, Fraction) else repr(p),
                }
                for s, p in self.support
            ]
        }
        if input_set is not None:
            obj["input"] = universe.set_to_records(input_set)
        return obj


def _leading_tests(node: Program) -> dict:
    """Field -> value of the tests ``node`` starts with, first test of a
    field first: ``f=1 ; g=2 ; p`` gives ``{f: 1, g: 2}``."""
    tests: dict = {}
    for q in node.parts if isinstance(node, Seq) else (node,):
        if not isinstance(q, Test):
            break
        tests.setdefault(q.field, q.value)
    return tests


class Kernel:
    """Evaluates a core (desugared) program row by row."""

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
        self._unit = Fraction(1) if exact else 1.0
        # The caches key nodes by id(); holding every root a row was asked
        # for keeps each keyed node (a root or a part of one) alive, so no
        # id is reused by another node while its entries exist.
        self._roots: dict = {id(program): program}
        self._memo: dict = {}
        self._plans: dict = {}
        self._tables: dict = {}

    # -- scalar helpers ----------------------------------------------------

    def _weight(self, w: Fraction):
        return w if self.exact else float(w)

    def _point(self, row: dict):
        """The set a row puts probability one on, or None."""
        if len(row) != 1:
            return None
        (s, p), = row.items()
        unit = self._unit
        return s if p is unit or p == unit else None

    # -- evaluation ----------------------------------------------------------

    def apply(self, aset: PacketSet) -> OutputDist:
        """The output distribution of the whole program on ``aset``."""
        return OutputDist.from_dict(self._eval(self.program, aset))

    def row(self, node: Program, aset: PacketSet) -> dict:
        """Raw row (dict set -> prob) of an arbitrary sub-program; a copy
        the caller may change."""
        self._roots[id(node)] = node
        return dict(self._eval(node, aset))

    def _eval(self, node: Program, aset: PacketSet) -> dict:
        key = (id(node), aset)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        out = self._eval_uncached(node, aset)
        self._memo[key] = out
        return out

    def _eval_uncached(self, node: Program, aset: PacketSet) -> dict:
        one = self._unit
        match node:
            case Drop():
                return {EMPTY: one}
            case Skip():
                return {aset: one}
            case Test(f, v):
                return {self.universe.select(aset, f, v): one}
            case Assign(f, v):
                return {self.universe.modify(aset, f, v): one}
            case Neg(t):
                return {aset - restrict(t, aset, self.universe): one}
            case Union():
                return self._union(node, aset)
            case Seq():
                row = {aset: one}
                for part, collect in self._seq_plan(node):
                    row = self._bind(row, part, collect)
                return row
            case Choice(w, l, r):
                w = self._weight(w)
                out = {}
                if w != 0:
                    for b, p in self._eval(l, aset).items():
                        out[b] = out.get(b, 0) + w * p
                if w != 1:
                    cw = one - w
                    for b, p in self._eval(r, aset).items():
                        out[b] = out.get(b, 0) + cw * p
                return {b: p for b, p in out.items() if p != 0}
            case Star():
                return self._star(node, None, aset)
            case _:
                raise WellFormednessError(f"non-core node {node!r}")

    def _union(self, node: Union, aset: PacketSet) -> dict:
        branches, guard, table, unguarded = self._union_plan(node)
        picked = unguarded
        if guard is not None:
            values = self.universe.values(aset, guard)
            if len(values) == 1:
                picked = table.get(next(iter(values)), unguarded)
            elif values:
                merged = set(unguarded)
                for v in values:
                    merged.update(table.get(v, ()))
                picked = sorted(merged)
        out = None
        for i in picked:
            row = self._eval(branches[i], aset)
            out = row if out is None else self._product(out, row)
        return {EMPTY: self._unit} if out is None else out

    def _union_plan(self, node: Union):
        """(branches, guard field, value -> branch indices, unguarded
        indices) of the union chain at ``node``; index lists are in chain
        order, and each value's list includes the unguarded branches."""
        plan = self._plans.get(id(node))
        if plan is not None:
            return plan
        branches = node.parts
        leads = [_leading_tests(b) for b in branches]
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
        plan = (branches, guard, table, unguarded)
        self._plans[id(node)] = plan
        return plan

    def _product(self, mu: dict, nu: dict) -> dict:
        """The row of ``l & r`` from the rows of ``l`` and ``r``."""
        s, other = self._point(nu), mu
        if s is None:
            s, other = self._point(mu), nu
        if s is not None:
            if not s:
                return other
            out: dict = {}
            for b, p in other.items():
                b = b | s
                out[b] = out.get(b, 0) + p
            return out
        out = {}
        for b1, p1 in mu.items():
            for b2, p2 in nu.items():
                b = b1 | b2
                out[b] = out.get(b, 0) + p1 * p2
        return out

    def _seq_plan(self, node: Seq) -> list:
        """The (part, collect) steps of the sequence at ``node``, in order;
        ``collect`` is the packet set of the predicate parts folded into the
        star before them, or None.  Loops end in exactly such a filter."""
        plan = self._plans.get(id(node))
        if plan is not None:
            return plan
        plan = []
        for q in node.parts:
            if plan and isinstance(plan[-1][0], Star) and is_predicate(q):
                star, collect = plan[-1]
                s = predicate_set(q, self.universe)
                plan[-1] = (star, s if collect is None else collect & s)
            else:
                plan.append((q, None))
        self._plans[id(node)] = plan
        return plan

    def _step(self, node: Program, collect, aset: PacketSet) -> dict:
        """The row of one sequence step: ``node``, or the star ``node``
        followed by the filter ``collect``."""
        if collect is None:
            return self._eval(node, aset)
        return self._star(node, collect, aset)

    def _star(self, node: Star, collect, aset: PacketSet) -> dict:
        """The row of the star ``node``, then the filter ``collect`` unless
        None, from the (star, filter) table; a miss solves and fills it."""
        table = self._tables.setdefault((id(node), collect), {})
        row = table.get(aset)
        if row is None:
            row = star_mod.star_dist(
                lambda a: self._eval(node.body, a), aset,
                cap=self.state_budget, exact=self.exact, collect=collect,
                program_text=lambda: pretty(node), table=table,
            )
        return row

    def _bind(self, mu: dict, node: Program, collect) -> dict:
        c = self._point(mu)
        if c is not None:
            return self._step(node, collect, c)
        out: dict = {}
        for c, p in mu.items():
            for b, q in self._step(node, collect, c).items():
                out[b] = out.get(b, 0) + p * q
        return out
