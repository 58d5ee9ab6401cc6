"""Big-step compilation: programs as kernels from packet sets to output
distributions.

A kernel row is a ``Row`` (see ``row``).  The kernel computes exact rows
only; in float mode, ``apply`` and ``row`` round them once.

A kernel is a compiler.  *Node code*, a node's set map (below), union
plan, sequence plan and factor facts, depends on nothing but the node and
its *layout*, the weight and size of each field it reads or writes, so it
is made once per node and layout and kept on the node (``Kernel._code``):
the cells of a table over one topology share it.  *Kernel state* changes
rows: each node whose rows are requested, and each (star, filter) step of
a sequence, is compiled on first use into a row function from a packet
set to a ``Row`` (``Kernel._rows``) that owns its memo, keyed on the input
set.  Nodes are interned (see ``syntax``), so equal subterms share one
function.  Rows are shared, so nobody changes one.  No code or row
function refers to its kernel, so a kernel is freed with its last
reference, without the cycle collector.

Deterministic subterms are set maps.  A core program without ``+[r]`` is
deterministic and additive: its row on a set a is the point mass on the
union of its images of the packets in a (Anderson et al., POPL 2014).  So
each such node is compiled once (``Kernel._set_map``) into a map between
packet sets; a star's is its body's reachability closure.  Such a
node gets a row function only where its rows are requested, and it maps
only the packets whose singleton row is not in its memo (``_additive``).
Exact rows are built without ``Fraction``s and reduced where they are
made: by a choice's integer shares (``_shares``) and a bind's sum
(``row.mixture``), and by a product (``&``) when two outcomes merge.

``Union`` and ``Seq`` nodes are n-ary, and each fixes its plan when it is
compiled.  A union evaluates only the branches its guard table, keyed on
the fields every branch tests first, picks on a set: every other branch
gives the empty set, whose point mass is the unit of ``&`` and where a
bind stops (every core program is strict).  A sequence is a fold of
binds over its plan's steps: a run of deterministic parts, or of factor
nodes (below) that share a field, is one step, and the predicate parts
after a star whose body has a choice are that star's filter, so ``p* ;
t`` is one pair chain.  The row function of such a star owns its table of
solved rows, keyed on the current set, which holds the empty set's from
the start and the chains it solves fill (see ``star``).

Pending factors.  A *factor node* holds a choice and no star, reads only
fields it writes (its fields), and kills one of them: assigns it on every
path before any step reads it.  Its rows on a packet depend only on the
packet's valuation of its *key*, its fields less those it kills.  A
*coin*, a choice whose parts each assign one field (a flag flip, ECMP's
``uniform(pt := ...)``), is the one-field case, with an empty key; at a
bounded k, a core's chain of guarded flips, which also decrement
``budget``, is one factor node keyed on ``budget``.  On a set whose
packets share their key valuation, a factor node's row has one ``Pending``
outcome besides the empty set: the set under one *factor*, an exact
distribution over valuations of its fields, read off the node's row on
one packet once per node and valuation (``_tabled``, ``_table``).  Rows
stay exact by two laws of *Probabilistic NetKAT* (Foster, Kozen,
Mamouras, Reitblatt and Silva, ESOP 2016): ``;`` distributes over
``+[r]`` from the left, so a later step may run on the pending set as on
each of its outcomes, and a sub-program confined to fields F commutes
with any step that neither reads nor writes F: variable elimination
(Holtzen, Van den Broeck and Millstein, OOPSLA 2020).  So a
node takes a pending input by one rule.  First it splits the factors on
the fields every path through it tests first by their marginal, each side
conditioned (``_split``), and takes its rows on the outcomes.  Then a
sequence steps through its parts (``_seq_run``), and a union with at most
one *live* branch, one the guard table picks on the base whose leading
tests on fields without a factor pass, hands the input to it or gives
the empty set: at a core, the guarded topology splits on the flag of the
one link its output port leaves by.  Any other node goes ``_past`` the
factors: it sums out the fields it kills (``_forgotten``; the hop's flag
resets leave a factor over ``budget``), splits on those it touches, runs
on the base and carries the rest (``_carried``).  What is still pending
is settled, every factor split whole (``_settled``), by ``apply`` and
``row``, at a star body's output, so pair chains see only sets, and on
either side of a ``&`` product, whose branches drew their factors each for
itself, unless the other side is the unit.

Shared rows.  By the second law, a node's row on a packet x is its row on
x - c, c being x's valuation of the fields outside its ``footprint``, with
c added to every packet: one evaluation per valuation of the fields it
touches suffices, as a NetKAT decision diagram branches only on the fields
it tests (Smolka et al., ICFP 2015).  So a union, sequence or choice keeps
its row on each input whose base is one packet x by x - c (and the factors)
and hands it to each later such input, moved by c - c0 (``_memoized``):
only digits the node never touches move, so rows stay reduced and exact.
"""

from __future__ import annotations

import weakref
from collections import Counter
from functools import partial
from math import gcd, prod
from operator import itemgetter

from . import star as star_mod
from .errors import WellFormednessError
from .row import Row, joined, mixture, reduced, rounded
from .star import DEFAULT_STATE_BUDGET
from .syntax import (
    Assign, Choice, Drop, Neg, Program, Seq, Skip, Star, Test, Union,
    field_bit, footprint, is_core, is_predicate, pretty, seq,
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
    valuation of the guard fields in ``aset``."""
    _, read, table, unguarded, _ = plan
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

_NOWHERE = Row(1, {EMPTY: 1})
_MAP, _PLAN, _STEPS, _FACTOR = 1, 2, 3, 4  # kinds of node code (see ``Kernel._code``)


def _point_masses():
    """A function from a set to the point mass on it, one row per set."""
    rows: dict = {}

    def dirac(s: PacketSet) -> Row:
        row = rows.get(s)
        if row is None:
            row = rows[s] = Row(1, {s: 1})
        return row
    return dirac


def _memoized(fn, pending, memo=None, clear=None):
    """The row function ``fn`` with a memo keyed on the input, which is a
    set (``fn`` computes its row) or a pending set (``pending`` does).
    ``memo`` is a dict that ``fn`` may read, or None for a new one.  With
    ``clear``, which projects on the fields the node never touches, the
    rows on one packet are shared (see the module)."""
    if memo is None:
        memo = {}
    shared: dict = {}  # x - c, with the factors if pending -> (row, c)

    def rows(a) -> Row:
        row = memo.get(a)
        if row is None:
            row = memo[a] = pending(a) if type(a) is Pending else fn(a)
        return row

    def shared_rows(a) -> Row:
        row = memo.get(a)
        if row is not None:
            return row
        pend = type(a) is Pending
        base = a[0] if pend else a
        if len(base) != 1:
            row = memo[a] = pending(a) if pend else fn(a)
            return row
        x, = base
        c = clear(x)
        key = (x - c, a[1]) if pend else x - c
        hit = shared.get(key)
        if hit is None:
            row = pending(a) if pend else fn(a)
            shared[key] = row, c
        else:
            row = hit[0] if c == hit[1] else _moved(hit[0], c - hit[1])
        memo[a] = row
        return row
    return rows if clear is None else shared_rows


def _moved(row: Row, d: int) -> Row:
    """``row`` with every packet of every outcome moved by ``d``."""
    out = {}
    for b, p in row.nums.items():
        if type(b) is Pending:
            b = Pending(frozenset([i + d for i in b[0]]), b[1])
        elif b:
            b = frozenset([i + d for i in b])
        out[b] = p
    return Row(row.den, out)


def _additive(m, dirac, memo: dict):
    """The row function of a deterministic node with the set map ``m``,
    memoized in ``memo``: the point mass on m(a), with the image of each
    packet whose singleton is in the memo taken from there (``images``
    indexes those a larger set meets, and a set's one packet not so met)."""
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
            b = m(frozenset(rest))
            if len(rest) == 1:
                images[rest[0]] = b
            out |= b
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
    """The row of ``l & r`` from the rows of ``l`` and ``r``, settled first
    unless one side is the unit (see the module)."""
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
    """The row of ``mu`` followed by the strict row function ``step``."""
    c = _point(mu)
    if c is not None:
        return step(c) if c else mu
    return mixture(mu.den, [(p, step(c) if c else _NOWHERE) for c, p in mu.nums.items()])


def _shares(node: Choice) -> tuple:
    """(d, [(n, part), ...]): each part the choice ``node`` can take, in
    order, with its chance n/d.  Part i takes weight w_i of the mass the
    parts before it leave (see ``syntax``), and the last part the rest."""
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


# -- pending factors -----------------------------------------------------------


class Pending(tuple):
    """A packet set under pending factors (see the module): the outcome
    whose sets are ``base`` plus a valuation drawn from each factor, one
    draw for all of its packets.  A factor (fields, d, ((w, n), ...)) has
    its fields in the universe's order and each valuation w of them
    (``PacketUniverse.projector``) with chance n/d, reduced, w ascending.
    The factors are on disjoint fields, in order, and ``base`` is nonempty
    and 0 in their fields.  A pair, so it hashes and compares as one, and
    never equals a set."""

    __slots__ = ()

    def __new__(cls, base: PacketSet, factors: tuple):
        return tuple.__new__(cls, (base, factors))

    base = property(itemgetter(0))
    factors = property(itemgetter(1))


def _factor(fields: tuple, entries: list) -> tuple:
    """(c, factor) of the distribution ``entries``, (valuation, weight)
    pairs over ``fields``, ascending: (0, the reduced factor), or the one
    valuation and None."""
    if len(entries) == 1:
        return entries[0][0], None
    g = gcd(*[n for _, n in entries])
    return 0, (fields, sum([n for _, n in entries]) // g,
               tuple([(w, n // g) for w, n in entries]))


def _groups(factor, fields: tuple, universe: PacketUniverse) -> dict:
    """The entries of ``factor`` by their valuation s of its ``fields``:
    s -> [(w - s, n), ...], ascending."""
    read, out = universe.projector(fields), {}
    for w, n in factor[2]:
        s = read(w)
        out.setdefault(s, []).append((w - s, n))
    return out


def _marginal(factor, hit: tuple, universe: PacketUniverse, marginals: dict) -> tuple:
    """(d, [(s, n, conditional), ...]): each valuation s of the fields
    ``hit`` of ``factor``, its reduced chance n/d and the conditional on
    the other fields (in s if constant); kept in ``marginals``."""
    out = marginals.get((factor, hit))
    if out is None:
        left, parts = tuple([f for f in factor[0] if f not in hit]), []
        for s, es in _groups(factor, hit, universe).items():
            c, cond = _factor(left, es)
            parts.append((s + c, sum([n for _, n in es]), (cond,) if cond else ()))
        g = gcd(factor[1], *[n for _, n, _ in parts])
        out = marginals[factor, hit] = factor[1] // g, [(s, n // g, c) for s, n, c in parts]
    return out


def _split(x: Pending, fields, universe: PacketUniverse, marginals: dict) -> Row:
    """The row of ``x`` with its factors split by their marginals on
    ``fields`` (all if None; see ``_marginal``): each outcome sets those
    fields in the base, and keeps the conditionals pending.  The marginals
    are reduced and the outcomes distinct, so their product is."""
    outs, den, rest = [(0, 1, ())], 1, []
    for factor in x.factors:
        fs, d, entries = factor
        hit = fs if fields is None else tuple([f for f in fs if f in fields])
        if not hit:
            rest.append(factor)
            continue
        if len(hit) == len(fs):
            den *= d
            outs = [(w + v, p * n, cs) for w, p, cs in outs for v, n in entries]
            continue
        d, parts = _marginal(factor, hit, universe, marginals)
        den *= d
        outs = [(w + s, p * n, cs + c) for w, p, cs in outs for s, n, c in parts]
    base, rest = x.base, tuple(rest)
    out = {}
    for w, p, cs in outs:
        b = frozenset([i + w for i in base]) if w else base
        factors = tuple(sorted(rest + cs)) if cs else rest
        out[Pending(b, factors) if factors else b] = p
    return Row(den, out)


def _forgotten(x: Pending, kills, universe: PacketUniverse):
    """``x`` with the fields ``kills`` summed out of its factors: a pending
    set, or its base once no factor is left."""
    if not kills or all(kills.isdisjoint(factor[0]) for factor in x.factors):
        return x
    factors, c = [], 0
    for factor in x.factors:
        left = tuple([f for f in factor[0] if f not in kills])
        if len(left) == len(factor[0]):
            factors.append(factor)
        elif left:
            w, factor = _factor(left, sorted((s, sum([n for _, n in es])) for s, es
                                             in _groups(factor, left, universe).items()))
            c += w
            factors += [factor] if factor else []
    base = frozenset([i + c for i in x.base]) if c else x.base
    return Pending(base, tuple(sorted(factors))) if factors else base


def _carried(row: Row, factors: tuple) -> Row:
    """``row``, computed on a pending input's base by a node that neither
    reads nor writes the fields of ``factors``, with them on each outcome."""
    out = {}
    for b, p in row.nums.items():
        if type(b) is Pending:
            b = Pending(b.base, tuple(sorted(b.factors + factors)))
        elif b:
            b = Pending(b, factors)
        out[b] = p
    return Row(row.den, out)


def _holds_pending(row: Row) -> bool:
    """Whether an outcome of ``row`` is a pending set."""
    for b in row.nums:
        if type(b) is Pending:
            return True
    return False


def _settled(row: Row, universe: PacketUniverse) -> Row:
    """``row`` with every factor split whole: a row of packet sets."""
    if not _holds_pending(row):
        return row
    return _bind(row, lambda b: (_split(b, None, universe, None) if type(b) is Pending
                                 else Row(1, {b: 1})))


def _past(x: Pending, touch, kills, plain, universe: PacketUniverse, marginals: dict) -> Row:
    """The row on ``x`` of a node whose row on a set is ``plain(set)``, and
    which reads or writes the fields ``touch`` and kills ``kills``."""
    x = _forgotten(x, kills, universe)
    if type(x) is not Pending:
        return plain(x)
    touched = [f for factor in x.factors for f in factor[0] if f in touch]
    if not touched:
        return _carried(plain(x.base), x.factors)
    return _bind(_split(x, touched, universe, marginals),
                 lambda y: _carried(plain(y.base), y.factors) if type(y) is Pending else plain(y))


def _tabled(fn, pending, key, fields: tuple, universe: PacketUniverse,
            factored: list):
    """The row function of a factor node (see the module) whose rows ``fn``
    computes as any node's, ``pending`` on a pending set: on a set whose
    packets share their key valuation ``key(packet)``, the row of its
    ``_table``.  Memoized, but ``fn`` on a new set while a table is made."""
    clear, tables, memo = universe.projector(fields), {}, {}

    def rows(a) -> Row:
        row = memo.get(a)
        if row is not None:
            return row
        if type(a) is Pending:
            row = memo[a] = pending(a)
            return row
        if factored[1]:
            return fn(a)
        ks = [key(min(a))] if len(a) == 1 else list({key(i) for i in a})
        t = tables.get(k := ks[0], ()) if len(ks) == 1 else None
        if t == ():
            t = tables[k] = _table(fn, k, min(a), fields, universe, factored)
        if t is None:
            row = fn(a)
        elif not t[2]:
            row = Row(1, {EMPTY: 1})
        else:
            den, empty, n, c, factor = t
            b = frozenset([i - clear(i) + c for i in a])
            b = Pending(b, (factor,)) if factor else b
            row = Row(den, {EMPTY: empty, b: n} if empty else {b: n})
        memo[a] = row
        return row
    return rows


def _table(fn, k, x: int, fields: tuple, universe: PacketUniverse, factored: list):
    """The table of a factor node for its key valuation ``k``, read off its
    row on the packet ``x``, which has it: (den, the empty set's weight,
    the rest's, c, factor), the rest being a set with ``fields`` at c plus
    a valuation drawn from the factor; None if an outcome has two packets."""
    factored[1] += 1
    try:
        row = _settled(fn(frozenset((x,))), universe)
    finally:
        factored[1] -= 1
    clear, empty, entries = universe.projector(fields), row.nums.get(EMPTY, 0), []
    for s, n in row.nums.items():
        if len(s) > 1:
            return None
        entries += [(clear(y), n) for y in s]
    if not entries:
        return 1, 1, 0, 0, None
    entries.sort()
    fixed = tuple([f for f in fields if len({universe.reader(f)(w) for w, _ in entries}) == 1])
    c = universe.projector(fixed)(entries[0][0])  # the fields every outcome sets alike
    w, factor = _factor(tuple([f for f in fields if f not in fixed]),
                        [(w - c, n) for w, n in entries])
    g = gcd(row.den, empty)
    return row.den // g, empty // g, (row.den - empty) // g, c + w, factor


def _settling(fn, factored: list, universe: PacketUniverse):
    """The row function ``fn`` with its rows settled once the kernel's cell
    ``factored`` says a factor node is compiled (``fn`` may compile one)."""
    def settled(a):
        row = fn(a)
        return _settled(row, universe) if factored[0] else row
    return settled


def _names(bits: tuple, mask: int) -> tuple:
    """The fields of the ``footprint`` mask ``mask`` among the (name, bit)
    pairs ``bits``, in their order."""
    return tuple([name for name, bit in bits if bit & mask])


def _pending_of(kernel, key, x) -> Row:
    """The row of ``key`` on ``x`` by the weakly held ``kernel``."""
    return kernel()._pending(key)(x)


def _fold(steps, a) -> Row:
    """The row of the row functions ``steps`` in turn on ``a``."""
    row = steps[0](a)
    for step in steps[1:]:
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
    pending functions, their facts, the kernel weakly and its helpers."""
    parts, fns, maps, touch, kills, kernel, dirac, u = state
    n = len(parts)
    while True:
        if type(y) is Pending:
            y = _forgotten(y, kills[i], u)
        if type(y) is not Pending:
            return dirac(_run(maps[i:], y))
        base, factors = y
        fields = [f for factor in factors for f in factor[0]]
        while i < n and touch[i].isdisjoint(fields):
            base = maps[i](base)
            i += 1
            if not base:
                return dirac(EMPTY)
        if i == n:
            return Row(1, {Pending(base, factors): 1})
        f = fns[i]
        if f is None:
            f = fns[i] = kernel()._pending(parts[i])
        row = f(Pending(base, factors))
        i += 1
        if len(row.nums) != 1:
            return _bind(row, lambda z, i=i: _seq_run(state, i, z))
        y, = row.nums


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
        self._fns: dict = {}
        self._pends: dict = {}
        self._marginals: dict = {}
        self._bits = tuple([(d.name, field_bit(d.name)) for d in universe.decls])
        self._layouts = universe.layouts
        self._dirac = _point_masses()
        # [a factor node, the only maker of pending sets, is compiled; the
        # number of factor tables being made]: a cell row functions read.
        self._factored = [False, 0]

    def apply(self, aset: PacketSet) -> Row:
        """The output row of the whole program on ``aset``."""
        return self._out(self.program, aset)

    def row(self, node: Program, aset: PacketSet) -> Row:
        """The row of an arbitrary sub-program on ``aset``, shared: the
        caller must not change it (``as_dict`` gives a fresh dict)."""
        return self._out(node, aset)

    def _out(self, node: Program, aset: PacketSet) -> Row:
        row = self._rows(node)(aset)
        if self._factored[0] and _holds_pending(row):
            row = _settled(row, self.universe)
        return row if self.exact else rounded(row)

    # -- row functions ---------------------------------------------------------

    def _rows(self, node: Program, filt=None):
        """The row function of ``node``, or of the star ``node`` followed by
        the predicate ``filt`` unless None: kernel state, made once."""
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
                fn = union
            case Seq():
                fn = self._sequence(node)
            case Choice():
                den, shares = _shares(node)
                fns = [(n, self._rows(q)) for n, q in shares]

                def choice(a):
                    return mixture(den, [(n, f(a)) for n, f in fns])
                fn = choice
            case Star(body):
                body_rows = _settling(self._rows(body), self._factored, u)
                keep = None if filt is None else self._set_map(filt)
                cap, table = self.state_budget, {EMPTY: self._dirac(EMPTY)}  # strict
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
        factor = self._factor_fields(node)
        if factor is not None:
            self._factored[0] = True
            fields, key = factor
            return _tabled(fn, pend, u.projector(key), fields, u, self._factored)
        reads, writes, _, _ = footprint(node)
        outside = _names(self._bits, ~(reads | writes))
        return _memoized(fn, pend, clear=u.projector(outside) if outside else None)

    def _factor_fields(self, node: Program):
        """(fields, key) of a factor node (see the module), tuples in the
        universe's order, or None.  A node with no choice, a star, a sequence
        with a star part and a union whose first branch kills nothing are
        none, with no walk of the node."""
        parts = getattr(node, "parts", ())
        if (not node.choice or type(node) is Star or Star in map(type, parts)
                or type(node) is Union and not footprint(parts[0])[2]):
            return None
        return self._code(node, _FACTOR, self._make_factor_fields) or None

    def _make_factor_fields(self, node: Program):
        reads, writes, kills, star = footprint(node)
        if kills and not star and not reads & ~writes:
            return _names(self._bits, writes), _names(self._bits, writes & ~kills)
        return ()

    def _union_plan(self, node: Union):
        """(guard fields, their projector, valuation -> branch indices,
        unguarded indices, fields every branch tests first) of the union
        chain at ``node``: the guard is those fields, or else the field most
        branches test first, and () with no projector if none does.  Index
        lists are in chain order, each including the unguarded branches."""
        return self._code(node, _PLAN, self._make_union_plan)

    def _make_union_plan(self, node: Union):
        leads = [_leading_tests(b) for b in node.parts]
        first = tuple(sorted(frozenset(leads[0]).intersection(*leads[1:])))
        guard = first or tuple([f for f, _ in Counter(f for t in leads for f in t).most_common(1)])
        table, unguarded = {}, []
        for i, tests in enumerate(leads):
            if guard and guard[0] in tests:
                v = self.universe.valuation({f: tests[f] for f in guard})
                table.setdefault(v, []).append(i)
            else:
                unguarded.append(i)
        table = {v: sorted(listed + unguarded) for v, listed in table.items()}
        read = self.universe.projector(guard) if guard else None
        return guard, read, table, unguarded, first

    def _seq_plan(self, node: Seq) -> list:
        """The (part, filter) steps of the sequence at ``node``, in order
        (see the module); ``filter`` is the predicate parts after a star
        whose body has a choice as one node, or None.  A run of deterministic
        parts is one step; so is a run of factor nodes each of which shares a
        field with those before it, unless it is all of ``node``."""
        parts = node.parts
        return [(seq(*parts[i:j]), seq(*parts[j:k]) if k > j else None)
                for i, j, k in self._code(node, _STEPS, self._make_seq_plan)]

    def _make_seq_plan(self, node: Seq) -> tuple:
        """``_seq_plan`` as (i, j, k): the parts i to j, the filter j to k."""
        parts = node.parts
        steps = []  # [i, j, k, a factor run's fields, None for a deterministic run, or False]
        for n, q in enumerate(parts):
            last = steps[-1] if steps else [0, 0, 0, False]
            factor = self._factor_fields(q)
            if last[3] is False and type(parts[last[0]]) is Star and is_predicate(q):
                last[2] = n + 1
            elif factor and last[3] and not last[3].isdisjoint(factor[0]):
                last[1:3] = n + 1, n + 1
                last[3].update(factor[0])
            elif self._set_map(q) is None:
                steps.append([n, n + 1, n + 1, set(factor[0]) if factor else False])
            elif last[3] is None:
                last[1:3] = n + 1, n + 1
            else:
                steps.append([n, n + 1, n + 1, None])
        if steps[0][1] == len(parts):
            return tuple([(n, n + 1, n + 1) for n in range(len(parts))])
        return tuple([(i, j, k) for i, j, k, _ in steps])

    def _sequence(self, node: Seq):
        """The rows of the sequence at ``node``, which holds a choice, on a
        set or a pending input, with no memo: ``_fold`` over its steps."""
        return partial(_fold, [self._rows(part, f) for part, f in self._seq_plan(node)])

    # -- pending inputs ------------------------------------------------------

    def _lazy_pending(self, key):
        """The function from a pending input to the row of ``key`` (a node,
        or a (star, filter) step) on it, compiled on its first call."""
        return partial(_pending_of, weakref.ref(self), key)

    def _pending(self, key):
        fn = self._pends.get(key)
        if fn is None:
            fn = self._pends[key] = self._compile_pending(key)
        return fn

    def _compile_pending(self, key):
        """The row of ``key`` on a pending input (see the module)."""
        node, filt = key if isinstance(key, tuple) else (key, None)
        u, m, dirac, marginals = self.universe, self._set_map(node), self._dirac, self._marginals
        plain = (self._rows(node, filt) if m is None or key in self._fns  # its memo
                 else lambda a: dirac(m(a)))
        if filt is None and self._factor_fields(node):
            return self._go_past(node, plain)
        if isinstance(node, Seq):
            rest = self._seq_pending(node, m)
        else:
            rest = self._go_past(node if filt is None else Seq(node, filt), plain)
            if isinstance(node, Union):
                rest = self._union_pending(node, rest)
        # The fields every path tests first, a union's or its own.
        lead = node.parts[0] if isinstance(node, Seq) else node
        first = (self._union_plan(lead)[4] if isinstance(lead, Union)
                 else frozenset(_leading_tests(node)))
        if not first:
            return rest

        def pending(x):
            read = [f for factor in x.factors for f in factor[0] if f in first]
            if not read:
                return rest(x)
            return _bind(_split(x, read, u, marginals),
                         lambda y: rest(y) if type(y) is Pending else plain(y))
        return pending

    def _go_past(self, node: Program, plain):
        """``_past`` with the facts of ``node``, taken on its first call: a
        union's are a walk over all its branches, which one live branch
        never needs."""
        u, marginals, bits, facts = self.universe, self._marginals, self._bits, []

        def past(x):
            if not facts:
                reads, writes, kills, _ = footprint(node)
                facts.extend((frozenset(_names(bits, reads | writes)), frozenset(_names(bits, kills))))
            return _past(x, *facts, plain, u, marginals)
        return past

    def _union_pending(self, node: Union, past):
        """A union on a pending input (see the module): its one live branch
        gets the input, and none gives the empty set; otherwise, and when
        a guard field has a factor, the union goes ``past`` it."""
        u, empty = self.universe, self._dirac(EMPTY)
        plan = self._union_plan(node)
        guard, parts = plan[0], node.parts
        leads = [None] * len(parts)  # [(field, value, reader)] of each branch's leading tests
        fns = [None] * len(parts)
        kernel = weakref.ref(self)

        def union(x):
            fields = {f for factor in x.factors for f in factor[0]}
            if not fields.isdisjoint(guard):
                return past(x)
            base, live = x.base, []
            for i in _picked(plan, base):
                tests = leads[i]
                if tests is None:
                    tests = leads[i] = [(f, v, u.reader(f))
                                        for f, v in _leading_tests(parts[i]).items()]
                if _passes(tests, fields, base):
                    live.append(i)
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
        input; a deterministic one goes through its parts by ``_seq_run``:
        it maps the base through each part that touches no factor's field,
        sums out the fields the rest of its parts kill, and hands the input
        to each other part."""
        if m is None:
            return self._sequence(node)
        parts = node.parts
        state = (parts, [None] * len(parts), *self._seq_facts(parts),
                 weakref.ref(self), self._dirac, self.universe)
        return partial(_seq_run, state, 0)

    def _seq_facts(self, parts: tuple) -> tuple:
        """The set maps of deterministic ``parts``, the fields each part reads
        or writes, and the fields each suffix of the parts kills.  A union
        or a star stands for every field, so the input is handed to it."""
        facts = [(-1, -1, 0, True) if isinstance(q, (Union, Star)) else footprint(q)
                 for q in parts]
        kills = [0] * (len(parts) + 1)
        for i in reversed(range(len(parts))):
            r, _, k, _ = facts[i]
            kills[i] = k | (kills[i + 1] & ~r)
        return ([self._set_map(q) for q in parts],
                [frozenset(_names(self._bits, r | w)) for r, w, _, _ in facts],
                [frozenset(_names(self._bits, k)) for k in kills])

    # -- deterministic subterms ----------------------------------------------

    def _set_map(self, node: Program):
        """The set map of ``node`` (see ``_compile``): node code, and None
        with no layout work for a node that holds a choice."""
        if node.choice and type(node) is not Neg:
            return None
        return self._code(node, _MAP, self._compile)

    def _code(self, node: Program, kind: int, make):
        """The code ``kind`` of ``node`` for this kernel's layout of it (see
        the module), made by ``make(node)`` once per node and layout and kept
        on the node: its footprint mask, then (layout, set map, union plan,
        sequence plan, factor facts) runs; a layout is each field's bit,
        weight and size, one tuple per universe and mask."""
        codes = getattr(node, "_code", None)
        if codes is None:
            reads, writes, _, _ = footprint(node)
            object.__setattr__(node, "_code", codes := [reads | writes])
        layout = self._layouts.get(codes[0])
        if layout is None:
            mask = codes[0]
            layout = self._layouts[mask] = tuple([x for name, bit in self._bits if bit & mask
                                                  for x in (bit, *self.universe.digit(name))])
        i = 1
        while i < len(codes) and codes[i] is not layout and codes[i] != layout:
            i += 5
        if i == len(codes):
            codes += (layout, None, None, None, None)
        if codes[i + kind] is None:
            codes[i + kind] = make(node)
        return codes[i + kind]

    def _compile(self, node: Program):
        """The set map of ``node`` (see the module), or None if ``node``
        contains a ``Choice`` or is not core.  Every map is additive, and
        reads nothing of the universe but its layout of ``node``."""
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
