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
or a memo.  The map is additive, so the row function takes the image of
each packet whose singleton row is already in its memo from there and
maps only the rest of a set (``_additive``): the 2^n subset rows of a
decision come in mask order, which meets each singleton before every
larger set that holds it, so those are unions of n kept images.  A set
none of whose singletons was met is mapped whole.  The images are indexed
by packet once a larger set meets them, so a kernel whose inputs are
singletons, as in the F10 case studies, keeps only its memo.

Exact rows are built without ``Fraction``s and reduced by their gcd where
they are made:

- a choice gives each part it can take an integer share n over one
  denominator d, the product of the denominators of its weights
  (``_shares``), and its row is the sum of the parts' rows, each scaled by
  its share, over d times the lcm of their denominators (``row.mixture``);
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
part i takes weight w_i of the mass the parts before it leave, as in the
right-nested binary choices it stands for, and the last part takes the
rest.  Its compiled form keeps only the parts with a nonzero share: a
weight of 0 drops its part, and a weight of 1 cuts off every later part.

The row function of a star whose body has a choice, with or without a
filter, owns the star's table of solved rows, which maps a current set a
to the row of the star (then the filter) on a; a chain solved for one
input fills it for every state (a, {}) it meets.  Later chains stop at
every state (a, b) whose a is in the table, with the table's row joined
with b, the same join as a point mass in a product (``row.joined``; see
``star`` for why that row is exact).  The table is the function's memo.

Deferred coins.  A *coin* is a choice whose parts each assign one field f,
such as a flag flip ``up:=1 +[3/4] up:=0`` or ECMP's ``uniform(pt :=
...)``.  Its row on a nonempty set a is not one outcome per value of f but
one ``Pending`` outcome: the base, a with f at the coin's first value, and
the coin's integer weights (``_coin``).  One coin covers the whole set,
since f := v sets f on every packet of it.  Rows stay exact by two laws of
*Probabilistic NetKAT* (Foster, Kozen, Mamouras, Reitblatt and Silva, ESOP
2016): ``;`` distributes over ``+[r]`` from the left, so a later step may
run on the pending set as on each of its outcomes, and f := v commutes
with any step that neither reads nor writes f.  So every node takes a
pending input by one rule.  First it flips the coins on the fields that
every path through it tests first (``_forced``: one reduced exact row) and
takes its rows on the outcomes, which then meet its memo as eager rows
would.  Then a sequence steps through its parts, inside set maps too
(``_seq_run``), and a union with at most one *live* branch hands the input
to it or gives the empty set: the live branches are those the guard table
picks on the base whose leading tests on fields without a coin pass on it,
and every other branch filters every outcome of the input to the empty
set.  So at a core the guarded topology flips the flag of the one link its
output port leaves by, not those of all the core's links.  Every other
node, a star among them, goes ``_past`` the coins: it drops those it
*kills* (it assigns f on every path before any step reads f, so its rows
do not depend on f, as the hop's flag resets do), runs on the base and
carries those it neither reads nor writes (``_carried``), and flips the
rest before it, so all branches of a union see one draw.  What is still
pending is flipped by ``apply`` and ``row``, at a star body's output, so
pair chains see only sets (rows are scanned for pending sets only once the
kernel has compiled a coin), and on either side of a ``&`` product of two
branch rows, whose coins each branch drew for itself, unless the other
side is the point mass on the empty set.  Coins are flipped in the
universe's field order, so rows and counts do not depend on string
hashing.
"""

from __future__ import annotations

import weakref
from collections import Counter
from functools import partial
from math import prod
from operator import itemgetter

from . import star as star_mod
from .errors import WellFormednessError
from .row import Row, joined, mixture, reduced, rounded
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
    _, read, table, unguarded = plan
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


def _memoized(fn, pending, memo=None):
    """The row function ``fn`` with a memo keyed on the input, which is a
    set (``fn`` computes its row) or a pending set (``pending`` does).
    ``memo`` is a dict that ``fn`` may read, or None for a new one."""
    if memo is None:
        memo = {}

    def rows(a) -> Row:
        row = memo.get(a)
        if row is None:
            row = memo[a] = pending(a) if type(a) is Pending else fn(a)
        return row
    return rows


def _additive(m, dirac, memo: dict):
    """The row function of a deterministic node with the set map ``m``,
    memoized in ``memo``: the point mass on m(a).  ``m`` is additive, so a
    packet whose singleton is already in the memo gives its image from
    there, and only the rest of a set is mapped.  The union of those
    images costs no more than the singleton rows that made them; a set
    none of whose singletons was met is mapped whole.  ``images`` indexes
    the singleton rows' images by packet, filled when a larger set first
    meets the packet: a lookup by packet builds no singleton set."""
    images: dict = {}

    def rows(a) -> Row:
        if len(a) < 2:
            return dirac(m(a))
        out, rest = set(), []
        for x in a:
            b = images.get(x)
            if b is None:
                r = memo.get(frozenset((x,)))
                if r is None:
                    rest.append(x)
                    continue
                b = images[x] = _point(r)
            out |= b
        if len(rest) == len(a):
            return dirac(m(a))
        if rest:
            out |= m(frozenset(rest))
        return dirac(frozenset(out))
    return rows


def _point(row: Row):
    """The set a row puts probability one on, or None."""
    nums = row.nums
    if len(nums) != 1:
        return None
    (s, p), = nums.items()
    return s if p == row.den else None


def _product(mu: Row, nu: Row, universe: PacketUniverse) -> Row:
    """The row of ``l & r`` from the rows of ``l`` and ``r``.  Pending sets
    (see the module) are flipped first, unless the other side is the
    point mass on the empty set, the unit: the coins of each side were
    drawn in its own branch."""
    s, t = _point(nu), _point(mu)
    if s is not None and not s:
        return mu
    if t is not None and not t:
        return nu
    if _holds_pending(mu) or _holds_pending(nu):
        return _product(_settled(mu, universe), _settled(nu, universe), universe)
    if s is not None:
        return joined(mu, s)
    if t is not None:
        return joined(nu, t)
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
    return mixture(mu.den, [(p, step(c)) for c, p in mu.nums.items()])


# -- deferred coins ------------------------------------------------------------


class Pending(tuple):
    """A packet set under pending coins (see the module): the outcome whose
    sets are ``base`` with each coin's field set to a value drawn from the
    coin, one draw per coin for all of its packets.  ``base`` is nonempty
    and holds each coin's first value; ``coins`` are on distinct fields,
    in the universe's field order.  A pair, so it hashes and compares as
    one, and never equals a set."""

    __slots__ = ()

    def __new__(cls, base: PacketSet, coins: tuple):
        return tuple.__new__(cls, (base, coins))

    base = property(itemgetter(0))
    coins = property(itemgetter(1))


def _coin_field(node: Program):
    """The field f of a choice whose parts each assign f, or None."""
    if type(node) is not Choice or type(node.parts[0]) is not Assign:
        return None
    f = node.parts[0].field
    return f if all(type(q) is Assign and q.field == f for q in node.parts) else None


def _shares(node: Choice) -> tuple:
    """(d, [(n, part), ...]): each part the choice ``node`` can take, in
    order, with its chance n/d.  Part i takes weight w_i of the mass the
    parts before it leave, and the last part the rest; a weight of 0 drops
    its part, and a weight of 1 cuts off every part after it."""
    ratios = []
    for w in node.weights:
        n, d = w.as_integer_ratio()
        ratios.append((n, d))
        if n == d:
            break
    else:
        ratios.append((1, 1))
    den = prod(d for _, d in ratios)
    rest, out = den, []  # the mass left, over den: each d divides it
    for part, (n, d) in zip(node.parts, ratios):
        if n:
            share = rest // d * n
            out.append((share, part))
            rest -= share
    return den, out


def _coin(node: Choice, f: str, universe: PacketUniverse) -> tuple:
    """The coin of the choice ``node`` over assignments to ``f``: (f's place
    in the field order, f, d, ((v, n), ...)), for f := v with probability
    n/d, values ascending: the choice's ``_shares`` summed per value."""
    den, shares = _shares(node)
    mass = mixture(den, [(n, Row(1, {q.value: 1})) for n, q in shares])
    for v in mass.nums:
        universe.check_value(f, v)
    order = [decl.name for decl in universe.decls].index(f)
    return order, f, mass.den, tuple(sorted(mass.nums.items()))


def _carried(row: Row, coins: tuple) -> Row:
    """``row`` with ``coins`` pending on each outcome, for a row computed on
    the base of a pending input by a node that neither reads nor writes
    their fields.  Distinct outcomes stay distinct, so ``den`` stands."""
    out = {}
    for b, p in row.nums.items():
        if type(b) is Pending:
            b = Pending(b.base, tuple(sorted(b.coins + coins)))
        elif b:
            b = Pending(b, coins)
        out[b] = p
    return Row(row.den, out)


def _forced(x: Pending, fields, universe: PacketUniverse) -> Row:
    """The row of ``x`` with its coins on ``fields`` (all if None) flipped,
    in field order; the other coins stay pending.  Each coin's row is
    reduced and the outcomes of a nonempty base are distinct, so their
    product is reduced."""
    outs, den, rest = [(x.base, 1)], 1, []
    for coin in x.coins:
        _, f, d, values = coin
        if fields is not None and f not in fields:
            rest.append(coin)
            continue
        v0 = values[0][0]
        den *= d
        outs = [(s if v == v0 else universe.modify(s, f, v), w * n)
                for s, w in outs for v, n in values]
    rest = tuple(rest)
    return Row(den, {(Pending(s, rest) if rest else s): w for s, w in outs})


def _holds_pending(row: Row) -> bool:
    """Whether an outcome of ``row`` is a pending set."""
    for b in row.nums:
        if type(b) is Pending:
            return True
    return False


def _settled(row: Row, universe: PacketUniverse) -> Row:
    """``row`` with every pending coin flipped: a row of packet sets."""
    if not _holds_pending(row):
        return row
    return _bind(row, lambda b: (_forced(b, None, universe) if type(b) is Pending
                                 else Row(1, {b: 1})))


def _past(x: Pending, touch, kills, plain, universe: PacketUniverse) -> Row:
    """The row on ``x`` of a node whose row on a set is ``plain(set)``, and
    which reads or writes the fields ``touch`` and kills ``kills``: the
    coins it kills are dropped, those it reads or writes flipped, and the
    rest carried past it."""
    coins = tuple([c for c in x.coins if c[1] not in kills])
    if not coins:
        return plain(x.base)
    touched = [c[1] for c in coins if c[1] in touch]
    if not touched:
        return _carried(plain(x.base), coins)
    return _bind(_forced(Pending(x.base, coins), touched, universe),
                 lambda y: _carried(plain(y.base), y.coins) if type(y) is Pending else plain(y))


def _settling(fn, coined: list, universe: PacketUniverse):
    """The row function ``fn`` with every pending coin of its rows flipped.
    Only coins make pending sets, so its rows are scanned only once the
    kernel's flag cell ``coined`` is set; it is read after ``fn`` runs,
    which may compile the first coin."""
    def settled(a):
        row = fn(a)
        return _settled(row, universe) if coined[0] else row
    return settled


def _fold(steps, dirac, a) -> Row:
    """The row of the row functions ``steps`` in turn on ``a``, a set or a
    pending set: a left-to-right fold of binds from the point mass on it."""
    row = dirac(a)
    for step in steps:
        row = _bind(row, step)
    return row


def _run(maps, a: PacketSet) -> PacketSet:
    """``a`` through the set maps ``maps`` in turn, up to the empty set."""
    for m in maps:
        if not a:
            break
        a = m(a)
    return a


def _seq_run(state: tuple, i: int, y) -> Row:
    """The row of the deterministic parts ``parts[i:]`` of a sequence on
    ``y`` (see ``Kernel._seq_pending``); ``state`` holds the parts, their
    pending functions as they are made, their facts, the kernel weakly and
    its point masses."""
    parts, fns, maps, touch, kills, kernel, dirac = state
    n = len(parts)
    while True:
        if type(y) is not Pending:
            return dirac(_run(maps[i:], y))
        base, coins = y
        coins = tuple([c for c in coins if c[1] not in kills[i]])
        if not coins:
            return dirac(_run(maps[i:], base))
        while i < n and not any(c[1] in touch[i] for c in coins):
            base = maps[i](base)
            i += 1
            if not base:
                return dirac(EMPTY)
        if i == n:
            return Row(1, {Pending(base, coins): 1})
        f = fns[i]
        if f is None:
            f = fns[i] = kernel()._pending(parts[i])
        row = f(Pending(base, coins))
        i += 1
        if len(row.nums) != 1:
            return _bind(row, lambda z, i=i: _seq_run(state, i, z))
        y, = row.nums


def _first_reads(node: Program, leads=None) -> frozenset:
    """Fields every path through ``node`` tests before any other step: its
    leading tests, or those all branches of a union that leads it share;
    ``leads`` holds the union's ``_leading_tests`` per branch, if made."""
    if isinstance(node, Seq) and isinstance(node.parts[0], Union):
        node = node.parts[0]
    if not isinstance(node, Union):
        return frozenset(_leading_tests(node))
    if leads is None:
        leads = [_leading_tests(q) for q in node.parts]
    out = frozenset(leads[0])
    for tests in leads[1:]:
        if not out:
            break
        out = out.intersection(tests)
    return out


def _passes(tests: list, pending, base: PacketSet) -> bool:
    """Whether a packet of ``base`` passes every test in ``tests``, (field,
    value, reader) triples, on a field that is not ``pending``."""
    if len(base) == 1:
        for i in base:
            return all(read(i) == v for f, v, read in tests if f not in pending)
    for f, v, read in tests:
        if f not in pending:
            base = [i for i in base if read(i) == v]
            if not base:
                return False
    return True


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
        self._pends: dict = {}
        self._facts: dict = {}
        self._plans: dict = {}
        self._dirac = _point_masses()
        # [True] once a coin's row function is compiled: only coins make
        # pending sets.  A cell, so star bodies can read it (``_settling``).
        self._coined = [False]

    def apply(self, aset: PacketSet) -> Row:
        """The output row of the whole program on ``aset``."""
        return self._out(self.program, aset)

    def row(self, node: Program, aset: PacketSet) -> Row:
        """The row of an arbitrary sub-program on ``aset``; an exact row is
        shared, so the caller must not change it (``as_dict`` gives a fresh
        dict)."""
        return self._out(node, aset)

    def _out(self, node: Program, aset: PacketSet) -> Row:
        row = self._rows(node)(aset)
        if self._coined[0] and _holds_pending(row):
            row = _settled(row, self.universe)
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
        u, dirac = self.universe, self._dirac
        pend = self._lazy_pending(node if filt is None else (node, filt))
        m = self._set_map(node)
        if m is not None:
            memo: dict = {}
            return _memoized(_additive(m, dirac, memo), pend, memo)
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
                        out = row if out is None else _product(out, row, u)
                    return empty if out is None else out
                return _memoized(union, pend)
            case Seq():
                return _memoized(self._sequence(node), pend)
            case Choice():
                f = _coin_field(node)
                if f is not None:
                    self._coined[0] = True
                    coins = (_coin(node, f, u),)
                    v0 = coins[0][3][0][0]  # the coin's first value

                    def flip(a):
                        return Row(1, {Pending(u.modify(a, f, v0), coins): 1}) if a else dirac(a)
                    return _memoized(flip, pend)
                den, shares = _shares(node)
                fns = [(n, self._rows(q)) for n, q in shares]

                def choice(a):
                    return mixture(den, [(n, f(a)) for n, f in fns])
                return _memoized(choice, pend)
            case Star(body):
                body_rows = _settling(self._rows(body), self._coined, u)
                keep = None if filt is None else self._set_map(filt)
                cap, table = self.state_budget, {}
                text = partial(pretty, node)

                def solved(a):
                    if type(a) is Pending:
                        return pend(a)
                    row = table.get(a)
                    if row is None:
                        row = star_mod.star_dist(body_rows, a, cap, keep, text, table)
                    return row
                return solved
            case _:
                raise WellFormednessError(f"non-core node {node!r}")

    def _union_plan(self, node: Union):
        """(guard field, guard reader, value -> branch indices, unguarded
        indices) of the union chain at ``node``: the reader gives a packet's
        value of the guard field; both are None if no branch starts with a
        test.  Index lists are in chain order, and each value's list
        includes the unguarded branches.  Made once per node and kernel."""
        plan = self._plans.get(node)
        if plan is None:
            plan = self._plans[node] = self._make_union_plan(node)
        return plan

    def _make_union_plan(self, node: Union):
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
        return guard, read, table, unguarded

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

    def _sequence(self, node: Seq):
        """The rows of the sequence at ``node``, which holds a choice, on a
        set or a pending input, with no memo: ``_fold`` over its steps."""
        return partial(_fold, [self._rows(part, f) for part, f in self._seq_plan(node)],
                       self._dirac)

    # -- pending inputs ------------------------------------------------------

    def _lazy_pending(self, key):
        """The function from a pending input to the row of ``key`` (a node,
        or a (star, filter) step) on it, compiled on its first call.  It
        holds the kernel weakly, so no row function refers to its kernel."""
        kernel = weakref.ref(self)
        return lambda x: kernel()._pending(key)(x)

    def _pending(self, key):
        fn = self._pends.get(key)
        if fn is None:
            fn = self._pends[key] = self._compile_pending(key)
        return fn

    def _compile_pending(self, key):
        """The row of ``key`` on a pending input (see the module): the coins
        on the fields it tests first on every path are flipped and its rows
        taken on the outcomes.  Otherwise a sequence steps through its parts,
        a union with at most one live branch hands the input on or gives the
        empty set, and any other node goes ``_past`` the coins."""
        node, filt = key if isinstance(key, tuple) else (key, None)
        u, m, dirac = self.universe, self._set_map(node), self._dirac
        # The node's row function where it has one, so flipped inputs meet its memo.
        plain = (self._rows(node, filt) if m is None or key in self._fns
                 else lambda a: dirac(m(a)))
        leads = None
        if isinstance(node, Seq):
            rest = self._seq_pending(node, m)
        else:
            rest = self._lazy_past(node if filt is None else Seq(node, filt), plain)
            if isinstance(node, Union):
                leads = [_leading_tests(q) for q in node.parts]
                rest = self._union_pending(node, leads, rest)
        first = _first_reads(node, leads)
        if not first:
            return rest

        def pending(x):
            read = [c[1] for c in x.coins if c[1] in first]
            if not read:
                return rest(x)
            return _bind(_forced(x, read, u),
                         lambda y: rest(y) if type(y) is Pending else plain(y))
        return pending

    def _lazy_past(self, node: Program, plain):
        """``_past`` with the facts of ``node``, taken on its first call: a
        union's are a walk over all its branches, which one live branch
        never needs."""
        u, kernel, facts = self.universe, weakref.ref(self), []

        def past(x):
            if not facts:
                facts.extend(kernel()._facts_of(node)[1:])
            return _past(x, *facts, plain, u)
        return past

    def _union_pending(self, node: Union, tests: list, past):
        """A union's live branches on a pending input whose guard field has
        no coin are those the guard table picks on the base whose leading
        tests (``tests``, per branch) on fields without a coin pass on it;
        the others filter every outcome of the input to the empty set.  One
        live branch gets the input and none gives the empty set; otherwise,
        and when the guard field has a coin, the union goes ``past`` it."""
        u, empty = self.universe, self._dirac(EMPTY)
        plan = self._union_plan(node)
        guard, parts = plan[0], node.parts
        readers: dict = {}
        leads = [[(f, v, readers.get(f) or readers.setdefault(f, u.reader(f)))
                  for f, v in t.items()] for t in tests]
        fns = [None] * len(parts)
        kernel = weakref.ref(self)

        def union(x):
            fields = {c[1] for c in x.coins}
            if guard in fields:
                return past(x)
            base = x.base
            live = [i for i in _picked(plan, base) if _passes(leads[i], fields, base)]
            if len(live) != 1:
                return past(x) if live else empty
            i = live[0]
            f = fns[i]
            if f is None:
                f = fns[i] = kernel()._pending(parts[i])
            return f(x)
        return union

    def _seq_pending(self, node: Seq, m):
        """A sequence that holds a choice folds its steps from the pending
        input.  A deterministic one maps the base through each part that
        neither reads nor writes a coin, drops the coins the rest of its
        parts kill, and hands the input to each other part; once every
        outcome is a set, it maps each through the rest of its parts at
        once.  Only such a part flips a coin, and only a flip branches, so
        this recurses at most once per coin."""
        if m is None:
            return self._sequence(node)
        parts = node.parts
        state = (parts, [None] * len(parts), *self._seq_facts(parts),
                 weakref.ref(self), self._dirac)
        return partial(_seq_run, state, 0)

    def _seq_facts(self, parts: tuple) -> tuple:
        """The set maps of deterministic ``parts``, the fields each part reads
        or writes, and the fields each suffix of the parts kills.  A union
        or a star stands for every field, so the input is handed to it and
        no kill is seen through it: its fields would take a walk over all
        its branches to find."""
        every = frozenset(decl.name for decl in self.universe.decls)
        facts = [(every, every, frozenset()) if isinstance(q, (Union, Star))
                 else self._facts_of(q) for q in parts]
        kills = [frozenset()] * (len(parts) + 1)
        for i in reversed(range(len(parts))):
            r, _, k = facts[i]
            kills[i] = k | (kills[i + 1] - r)
        return [self._set_map(q) for q in parts], [t for _, t, _ in facts], kills

    def _facts_of(self, node: Program) -> tuple:
        """(fields read, fields read or written, fields killed) of ``node``,
        where a field is killed if every path assigns it before any step
        reads it: the node's rows then do not depend on its value."""
        facts = self._facts.get(node)
        if facts is not None:
            return facts
        none = frozenset()
        match node:
            case Test(f, _):
                facts = (frozenset((f,)), frozenset((f,)), none)
            case Assign(f, _):
                facts = (none, frozenset((f,)), frozenset((f,)))
            case Neg(b) | Star(b):
                facts = (*self._facts_of(b)[:2], none)
            case Seq(parts):
                reads = touch = kills = none
                for q in parts:
                    r, t, k = self._facts_of(q)
                    kills |= k - reads
                    reads |= r
                    touch |= t
                facts = (reads, touch, kills)
            case Union(parts) | Choice(parts):
                each = [self._facts_of(q) for q in parts]
                facts = (none.union(*[r for r, _, _ in each]),
                         none.union(*[t for _, t, _ in each]),
                         frozenset.intersection(*[k for _, _, k in each]))
            case _:
                facts = (none, none, none)
        self._facts[node] = facts
        return facts

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
                return partial(_run, maps)
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
