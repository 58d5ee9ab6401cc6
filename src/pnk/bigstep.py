"""Big-step compilation: programs as kernels from packet sets to output
distributions.

A kernel row is a ``Row`` (see ``row``).  The kernel computes exact rows
only; in float mode, ``apply`` and ``row`` round them once.

A kernel is a compiler.  *Node code* depends on nothing but the node and
its *layout*, the bit, weight and size of each field it reads or writes,
so it is made once per node and layout and kept on the node
(``_View._code``): the cells of a table over one topology share it.  There
are six kinds: a node's set map (below), a union's plan, a sequence's
steps, a choice's shares, the row facts of a node that holds a choice (a
factor node's fields and projectors, or any other's projector for its
shared rows), and the pending facts (the fields every path tests first,
those it touches and kills, and a deterministic sequence's runs).  A set
of fields is a mask of ``field_bit``s throughout (see ``universe``), as in
``footprint``.  Code is tuples, ints, interned nodes, the universe's
projectors and partials of this module's functions (a test's map is a
closure), so live nodes hold few objects for the cycle collector to scan.

*Kernel state* is what changes rows: each node whose rows are requested,
and each (star, filter) step of a sequence, is compiled on first use into
a row function from a packet set to a ``Row`` (``_View._rows``) that owns
its memo, keyed on the input set, and into a pending function when a
pending input first reaches it (``_View._pending``); star tables, factor
tables, marginals and point masses are kernel state too.  Rows, like code,
are shared by layout.  A row function reads no digit of a packet but
those of its key's fields (a node's, or those of ``Seq(star, filter)``
for a step): the rest of a packet index is an offset it carries
unchanged.  So its rows hold in every universe that lays out those fields
alike, and every live kernel with an equal state budget uses one
``_State``, found in ``_STATES``, which keeps each function under its key
and the key's layout.  The cells of a table built side by side, over one
universe or over universes that differ in a field some subterms never
touch (``budget`` at each failure bound k), compute the rows of the
subterms they share once, as one BDD manager's unique and computed tables
serve every function built over a compatible variable order (Brace,
Rudell and Bryant, DAC 1990), and a NetKAT decision diagram depends only
on the fields it tests (Smolka et al., ICFP 2015).  Kernels that never
live at once start cold.  Each universe's fields have a ``_View`` of the
state: the universe, its layouts and marginals, and front dicts that find
a key's functions by the key alone.  A compile looks its code up and binds
the state's memos and tables to it.  Nodes are interned (see ``syntax``),
so equal subterms share one function.  Rows are shared, so nobody changes
one.  Kernels hold their state and their view; the state holds its views,
a view holds the state's tables but not the state, and no code or row
function refers to a kernel or holds a view but weakly, so a state is
freed with the last kernel over any universe, without the cycle collector.

Deterministic subterms are set maps.  A program without ``+[r]`` is
deterministic and additive: its row on a set a is the point mass on the
union of its images of the packets in a (Anderson et al., POPL 2014).  So
each such node is compiled once (``_View._set_map``) into a map between
packet sets; a star's is its body's reachability closure.  Such a
node gets a row function only where its rows are requested, and it maps
only the packets whose singleton row is not in its memo (``_additive``).
A sequence maps each maximal run of assignments by one rewrite of several
fields (``_runs``, ``PacketUniverse.modify``).
Exact rows are built without ``Fraction``s and reduced where they are
made: by a choice's integer shares (``_shares``) and a bind's sum
(``row.mixture``), and by a product (``&``) when two outcomes merge.

``Union`` and ``Seq`` nodes are n-ary, and each fixes its plan when it is
compiled.  A union evaluates only the branches its guard table, keyed on
the fields every branch tests first, picks on a set: every other branch
gives the empty set, whose point mass is the unit of ``&`` and where a
bind stops (every program is strict).  A sequence is a fold of
binds over its plan's steps: a run of deterministic parts, or of factor
nodes (below) that share a field, is one step, and the predicate parts
after a star whose body has a choice are that star's filter, so ``p* ;
t`` is one pair chain.  The memo of such a star's row function is its
table of solved rows, keyed on the current set, which holds the empty
set's from the start and the chains it solves fill (see ``star``).

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
one packet once per node and valuation (``_tabled``, ``_table``).  A
factor's fields, like every set of fields here, are a mask.  Rows
stay exact by two laws of *Probabilistic NetKAT* (Foster, Kozen,
Mamouras, Reitblatt and Silva, ESOP 2016): ``;`` distributes over
``+[r]`` from the left, so a later step may run on the pending set as on
each of its outcomes, and a sub-program confined to fields F commutes
with any step that neither reads nor writes F: variable elimination
(Holtzen, Van den Broeck and Millstein, OOPSLA 2020).  So a
node takes a pending input by one rule.  First it splits the factors on
the fields every path through it tests first by their marginal, each side
conditioned (``_split``), and takes its rows on the outcomes.  Then a
sequence steps through its runs (``_seq_run``), and a union with at most
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
x - c, c being x's valuation of the fields outside its ``footprint`` (x
less its valuation of those it touches), with c added to every packet:
one evaluation per valuation of the fields it touches suffices, as a
NetKAT decision diagram branches only on the fields it tests (Smolka et
al., ICFP 2015).  So a union, sequence or choice keeps
its row on each input whose base is one packet x by x - c (and the factors)
and hands it to each later such input, moved by c - c0 (``_memoized``):
only digits the node never touches move, so rows stay reduced and exact.
"""

from __future__ import annotations

import weakref
from collections import Counter
from functools import partial, reduce
from math import gcd, prod
from operator import and_, itemgetter

from . import star as star_mod
from .errors import WellFormednessError
from .row import Row, joined, mixture, reduced, rounded
from .star import DEFAULT_STATE_BUDGET
from .syntax import (
    Assign, Choice, Drop, Neg, Program, Seq, Skip, Star, Test, Union,
    excerpt, footprint, is_predicate, seq,
)
from .universe import EMPTY, PacketSet, PacketUniverse, field_bit


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
# The kinds of node code (see ``_View._code``): each is its index in a run,
# whose layout is kind 0.
_LAYOUT, _MAP, _PLAN, _STEPS, _SHARES, _ROW, _PENDING = range(7)
_KINDS = 6


def _point_masses():
    """A function from a set to the point mass on it, one row per set."""
    rows: dict = {}

    def dirac(s: PacketSet) -> Row:
        row = rows.get(s)
        if row is None:
            row = rows[s] = Row(1, {s: 1})
        return row
    return dirac


def _memoized(fn, key, pending, memo=None, touched=None):
    """The row function ``fn`` of the node ``key`` with a memo keyed on the
    input, which is a set (``fn`` computes its row) or a pending set
    (``pending(key, input)`` does).  ``memo`` is a dict that ``fn`` may
    read and fill (a star's table), or None for a new one.  With
    ``touched``, which projects on the fields the node reads or writes, the
    rows on one packet are shared (see the module)."""
    if memo is None:
        memo = {}
    if touched is None:
        def rows(a) -> Row:
            row = memo.get(a)
            if row is None:
                row = memo[a] = pending(key, a) if type(a) is Pending else fn(a)
            return row
        return rows
    shared: dict = {}  # x - c, with the factors if pending -> (row, c)

    def shared_rows(a) -> Row:
        row = memo.get(a)
        if row is not None:
            return row
        pend = type(a) is Pending
        base = a[0] if pend else a
        if len(base) != 1:
            row = memo[a] = pending(key, a) if pend else fn(a)
            return row
        x, = base
        t = touched(x)
        c, slot = x - t, (t, a[1]) if pend else t
        hit = shared.get(slot)
        if hit is None:
            row = pending(key, a) if pend else fn(a)
            shared[slot] = row, c
        else:
            row = hit[0] if c == hit[1] else _moved(hit[0], c - hit[1])
        memo[a] = row
        return row
    return shared_rows


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


def _product(mu: Row, nu: Row) -> Row:
    """The row of ``l & r`` from the rows of ``l`` and ``r``, settled first
    unless one side is the unit (see the module)."""
    s, t = _point(nu), _point(mu)
    if s is not None and not s:
        return mu
    if t is not None and not t:
        return nu
    if _holds_pending(mu) or _holds_pending(nu):
        return _product(_settled(mu), _settled(nu))
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
    """(d, n_1, n_2, ...): the chance n_i/d that the choice ``node`` takes
    its part i, 0 for a part it never takes, up to the last part it can
    take.  Part i takes weight w_i of the mass the parts before it leave
    (see ``syntax``), and the last part the rest."""
    ratios = []
    for w in node.weights:
        n, d = w.as_integer_ratio()
        ratios.append((n, d))
        if n == d:
            break
    else:
        ratios.append((1, 1))
    den = prod(d for _, d in ratios)
    rest, out = den, [den]  # the mass left, over den: each d divides it
    for n, d in ratios:
        share = rest // d * n
        out.append(share)
        rest -= share
    return tuple(out)


# -- pending factors -----------------------------------------------------------


class Pending(tuple):
    """A packet set under pending factors (see the module): the outcome
    whose sets are ``base`` plus a valuation drawn from each factor, one
    draw for all of its packets.  A factor (fields, d, ((w, n), ...)) has
    the mask of its fields and each valuation w of them
    (``PacketUniverse.projector``) with chance n/d, reduced, w ascending.
    The factors are on disjoint fields, in the order of their masks, and
    ``base`` is nonempty and 0 in their fields.  A pair, so it hashes and compares as one, and
    never equals a set."""

    __slots__ = ()

    def __new__(cls, base: PacketSet, factors: tuple):
        return tuple.__new__(cls, (base, factors))

    base = property(itemgetter(0))
    factors = property(itemgetter(1))


def _factor(fields: int, entries: list) -> tuple:
    """(c, factor) of the distribution ``entries``, (valuation, weight)
    pairs over ``fields``, ascending: (0, the reduced factor), or the one
    valuation and None."""
    if len(entries) == 1:
        return entries[0][0], None
    g = gcd(*[n for _, n in entries])
    return 0, (fields, sum([n for _, n in entries]) // g,
               tuple([(w, n // g) for w, n in entries]))


def _digit_runs(fields: int, layout: tuple) -> list:
    """The (weight, size) of each run of adjacent fields of the mask
    ``fields`` in ``layout``, a key's layout (see ``_View._code``), which
    holds them all: a packet's valuation of those fields is the sum of its
    ``i // w % size * w`` over the runs, as ``PacketUniverse.projector``
    reads it."""
    runs = []
    for i in range(0, len(layout), 3):
        bit, w, size = layout[i:i + 3]
        if bit & fields:
            if runs and runs[-1][0] * runs[-1][1] == w:
                runs[-1] = runs[-1][0], runs[-1][1] * size
            else:
                runs.append((w, size))
    return runs


def _groups(factor, fields: int, layout: tuple) -> dict:
    """The entries of ``factor`` by their valuation s of its ``fields``:
    s -> [(w - s, n), ...], ascending.  Read off the digits of ``fields``
    alone in ``layout``: a row function reads no other digit, so that its
    rows hold in every universe that lays out its key's fields alike (see
    the module), and kernel state makes no projector (node code holds
    those)."""
    runs, out = _digit_runs(fields, layout), {}
    for w, n in factor[2]:
        s = sum([w // wt % size * wt for wt, size in runs])
        out.setdefault(s, []).append((w - s, n))
    return out


def _marginal(factor, hit: int, layout: tuple, marginals: dict) -> tuple:
    """(d, [(s, n, conditional), ...]): each valuation s of the fields
    ``hit`` of ``factor``, its reduced chance n/d and the conditional on
    the other fields (in s if constant); kept in ``marginals``."""
    out = marginals.get((factor, hit))
    if out is None:
        left, parts = factor[0] & ~hit, []
        for s, es in _groups(factor, hit, layout).items():
            c, cond = _factor(left, es)
            parts.append((s + c, sum([n for _, n in es]), (cond,) if cond else ()))
        g = gcd(factor[1], *[n for _, n, _ in parts])
        out = marginals[factor, hit] = factor[1] // g, [(s, n // g, c) for s, n, c in parts]
    return out


def _split(x: Pending, fields, layout, marginals) -> Row:
    """The row of ``x`` with its factors split by their marginals on
    ``fields`` (all if None, with no ``layout`` or ``marginals``; see
    ``_marginal``): each outcome sets those
    fields in the base, and keeps the conditionals pending.  The marginals
    are reduced and the outcomes distinct, so their product is."""
    outs, den, rest = [(0, 1, ())], 1, []
    for factor in x.factors:
        fs, d, entries = factor
        hit = fs if fields is None else fs & fields
        if not hit:
            rest.append(factor)
            continue
        if hit == fs:
            den *= d
            outs = [(w + v, p * n, cs) for w, p, cs in outs for v, n in entries]
            continue
        d, parts = _marginal(factor, hit, layout, marginals)
        den *= d
        outs = [(w + s, p * n, cs + c) for w, p, cs in outs for s, n, c in parts]
    base, rest = x.base, tuple(rest)
    out = {}
    for w, p, cs in outs:
        b = frozenset([i + w for i in base]) if w else base
        factors = tuple(sorted(rest + cs)) if cs else rest
        out[Pending(b, factors) if factors else b] = p
    return Row(den, out)


def _forgotten(x: Pending, kills, layout: tuple):
    """``x`` with the fields ``kills`` summed out of its factors: a pending
    set, or its base once no factor is left.  Each valuation w of a factor
    loses its valuation of the killed fields, read off their digits in
    ``layout``, which lays them out: the other fields of a factor may lie
    outside the key whose layout it is."""
    if not kills & sum([factor[0] for factor in x.factors]):
        return x
    factors, c = [], 0
    for factor in x.factors:
        hit = factor[0] & kills
        if not hit:
            factors.append(factor)
        elif hit != factor[0]:
            runs, left = _digit_runs(hit, layout), {}  # valuation of the rest -> weight
            for w, n in factor[2]:
                s = w - sum([w // wt % size * wt for wt, size in runs])
                left[s] = left.get(s, 0) + n
            w, factor = _factor(factor[0] & ~hit, sorted(left.items()))
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


def _settled(row: Row) -> Row:
    """``row`` with every factor split whole: a row of packet sets."""
    if not _holds_pending(row):
        return row
    return _bind(row, lambda b: (_split(b, None, None, None) if type(b) is Pending
                                 else Row(1, {b: 1})))


def _past(touch, kills, plain, layout: tuple, marginals: dict, x: Pending) -> Row:
    """The row on ``x`` of a node whose row on a set is ``plain(set)``, and
    which reads or writes the fields ``touch`` (laid out by ``layout``) and
    kills ``kills``."""
    x = _forgotten(x, kills, layout)
    if type(x) is not Pending:
        return plain(x)
    return _split_first(touch, lambda y: _carried(plain(y.base), y.factors), plain,
                        layout, marginals, x)


def _tabled(fn, node, pending, factor: tuple, layout: tuple, making: list):
    """The row function of the factor node ``node`` (see the module) whose
    rows ``fn`` computes as any node's, ``pending(node, input)`` on a
    pending set, with the factor facts ``factor`` (fields, key, clear) and
    its fields' ``layout``: on a set whose packets share their key
    valuation ``key(packet)``, the row of its ``_table``.  Memoized, but
    ``fn`` on a new set while the state's cell ``making`` counts a table
    being made."""
    fields, key, clear = factor
    tables, memo = {}, {}

    def rows(a) -> Row:
        row = memo.get(a)
        if row is not None:
            return row
        if type(a) is Pending:
            row = memo[a] = pending(node, a)
            return row
        if making[0]:
            return fn(a)
        ks = [key(min(a))] if len(a) == 1 else list({key(i) for i in a})
        t = tables.get(k := ks[0], ()) if len(ks) == 1 else None
        if t == ():
            t = tables[k] = _table(fn, k, min(a), fields, clear, layout, making)
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


def _table(fn, k, x: int, fields: int, clear, layout: tuple, making: list):
    """The table of a factor node for its key valuation ``k``, read off its
    row on the packet ``x``, which has it: (den, the empty set's weight,
    the rest's, c, factor), the rest being a set with ``fields`` (which
    ``clear`` projects on, and ``layout`` lays out) at c plus a valuation
    drawn from the factor; None if an outcome has two packets."""
    making[0] += 1
    try:
        row = _settled(fn(frozenset((x,))))
    finally:
        making[0] -= 1
    empty, entries = row.nums.get(EMPTY, 0), []
    for s, n in row.nums.items():
        if len(s) > 1:
            return None
        entries += [(clear(y), n) for y in s]
    if not entries:
        return 1, 1, 0, 0, None
    entries.sort()
    fixed = c = 0  # the fields every outcome sets alike, and their valuation
    for i in range(0, len(layout), 3):
        bit, wt, size = layout[i:i + 3]
        if bit & fields and len(vs := {w // wt % size for w, _ in entries}) == 1:
            fixed, c = fixed | bit, c + vs.pop() * wt
    w, factor = _factor(fields & ~fixed, [(w - c, n) for w, n in entries])
    g = gcd(row.den, empty)
    return row.den // g, empty // g, (row.den - empty) // g, c + w, factor


def _settling(fn):
    """The row function ``fn`` with its rows settled."""
    def settled(a):
        return _settled(fn(a))
    return settled


def _pending_of(view, key, x) -> Row:
    """The row of ``key`` on ``x`` by the weakly held ``view``."""
    return view()._pending(key)(x)


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


def _dropped(a: PacketSet) -> PacketSet:
    return EMPTY


def _skipped(a: PacketSet) -> PacketSet:
    return a


def _negated(inner, a: PacketSet) -> PacketSet:
    """The packets of ``a`` that fail the predicate whose set map is
    ``inner``: a predicate keeps a subset of its input."""
    b = inner(a)
    return a if not b else EMPTY if len(b) == len(a) else a - b


def _united(maps: tuple, plan, a: PacketSet) -> PacketSet:
    """The union of the images of ``a`` under the set maps ``maps`` of the
    branches a union ``plan`` picks on it."""
    out = EMPTY
    for i in _picked(plan, a):
        b = maps[i](a)
        if b:
            out = out | b if out else b
    return out


def _reached(step, a: PacketSet) -> PacketSet:
    """The packets the set map ``step`` reaches from ``a`` in any number of
    steps: ``step`` is additive, so each packet is mapped once."""
    new = step(a) - a
    if not new:
        return a
    acc = set(a)
    while new:
        acc |= new
        new = step(new) - acc
    return frozenset(acc)


def _rewritten(universe: PacketUniverse, fields, values, a: PacketSet) -> PacketSet:
    """``a`` under ``fields := values``: the universe's ``modify``, looked up
    on each call, is the one implementation of an assignment."""
    return universe.modify(a, fields, values)


def _runs(parts: tuple) -> tuple:
    """The index of the first part of each run of the deterministic
    sequence of ``parts``, then their number: a run is a maximal run of
    assignments, which is one rewrite, or one other part."""
    return tuple([i for i, q in enumerate(parts)
                  if not (type(q) is Assign and i and type(parts[i - 1]) is Assign)]
                 + [len(parts)])


def _seq_run(state: tuple, i: int, y) -> Row:
    """The row of the runs ``i`` on (see ``_runs``) of a deterministic
    sequence on ``y`` (see ``_View._compile_pending``); ``state`` holds its
    parts, its facts (``_View._make_pending``), the runs' pending
    functions, the view that made it weakly, its point masses and its
    layout."""
    parts, (starts, maps, touch, kills), fns, ref, dirac, layout = state
    n = len(maps)
    while True:
        if type(y) is Pending:
            y = _forgotten(y, kills[i], layout)
        if type(y) is not Pending:
            return dirac(_run(maps[i:], y))
        base, factors = y
        fields = sum([factor[0] for factor in factors])
        while i < n and not touch[i] & fields:
            base = maps[i](base)
            i += 1
            if not base:
                return dirac(EMPTY)
        if i == n:
            return Row(1, {Pending(base, factors): 1})
        f = fns[i]
        if f is None:  # a run of assignments kills what it touches: one part
            lo, hi = starts[i], starts[i + 1]
            f = fns[i] = ref()._pending(parts[lo] if hi - lo == 1 else Seq(*parts[lo:hi]))
        row = f(Pending(base, factors))
        i += 1
        if len(row.nums) != 1:
            return _bind(row, lambda z, i=i: _seq_run(state, i, z))
        y, = row.nums


def _passes(tests: list, pending: int, base: PacketSet) -> bool:
    """Whether a packet of ``base`` passes every test in ``tests``, (field
    bit, value, reader) triples, on a field not in the mask ``pending``."""
    if len(base) == 1:
        for i in base:
            return all(read(i) == v for f, v, read in tests if not f & pending)
    for f, v, read in tests:
        if not f & pending:
            base = [i for i in base if read(i) == v]
            if not base:
                return False
    return True


def _union_rows(plan, parts: tuple, ref, empty: Row):
    """The rows of a union with the plan ``plan`` and the branches ``parts``
    on a set: the product of the rows of the branches ``_picked`` on it, the
    row function of each found by the view ``ref()`` on first use."""
    fns = [None] * len(parts)

    def union(a):
        out = None
        for i in _picked(plan, a):
            f = fns[i]
            if f is None:
                f = fns[i] = ref()._rows(parts[i])
            row = f(a)
            out = row if out is None else _product(out, row)
        return empty if out is None else out
    return union


def _chosen(den: int, fns: list, a) -> Row:
    """The row on ``a`` of a choice whose parts have the row functions
    ``fns``, each with its chance: (n, row function) pairs, n over ``den``."""
    return mixture(den, [(n, f(a)) for n, f in fns])


def _solved(body_rows, keep, cap: int, text, table: dict, a: PacketSet) -> Row:
    """The row on ``a`` of a star, or (star, filter) step, that
    ``star.star_dist`` solves, filling ``table``, the step's memo."""
    return star_mod.star_dist(body_rows, a, cap, keep, text, table)


def _mapped(dirac, m, a: PacketSet) -> Row:
    """The point mass on the image of ``a`` under the set map ``m``."""
    return dirac(m(a))


def _split_first(first, rest, plain, layout: tuple, marginals: dict,
                 x: Pending) -> Row:
    """The row on ``x`` of a node whose paths all test the fields ``first``
    first: the factors on those fields are split (``_split``), and ``rest``
    takes each pending outcome and ``plain`` each set."""
    if not first & sum([factor[0] for factor in x.factors]):
        return rest(x)
    return _bind(_split(x, first, layout, marginals),
                 lambda y: rest(y) if type(y) is Pending else plain(y))


# State budget -> a weak reference to the state of the live kernels with
# it, whose callback takes the entry out when the state goes.
_STATES: dict = {}


def _forget_state(budget: int, ref) -> None:
    if _STATES.get(budget) is ref:  # not already taken by a newer state
        del _STATES[budget]


class Kernel:
    """Compiles a program into row functions.  With
    ``exact`` false, ``apply`` and ``row`` return float rows: the exact
    rows, each weight rounded to the nearest double.  Only the benchmark's
    float workload (``perfbench/workloads.py``) and tests build such a
    kernel, since the CLI rounds exact rows itself; ROADMAP.md items 1 and
    12 delete it.  Live kernels with an equal ``state_budget`` share one
    state, which shares rows, like code, by layout; live kernels over
    universes with equal fields also share one view of it (see the
    module)."""

    def __init__(self, program: Program, universe: PacketUniverse,
                 exact: bool = True, state_budget: int = DEFAULT_STATE_BUDGET):
        self.program = program
        self.exact = exact
        ref = _STATES.get(state_budget)
        state = None if ref is None else ref()
        if state is None:
            state = _State(state_budget)
        view = state.views.get(universe.decls)
        if view is None:
            view = state.views[universe.decls] = _View(universe, state)
        self._state, self._view = state, view

    @property
    def universe(self) -> PacketUniverse:
        """The universe of the kernel's view: its fields are those of the
        universe the kernel was made over."""
        return self._view.universe

    def apply(self, aset: PacketSet) -> Row:
        """The output row of the whole program on ``aset``."""
        return self._out(self.program, aset)

    def row(self, node: Program, aset: PacketSet) -> Row:
        """The row of an arbitrary sub-program on ``aset``, shared: the
        caller must not change it (``as_dict`` gives a fresh dict)."""
        return self._out(node, aset)

    def _out(self, node: Program, aset: PacketSet) -> Row:
        row = _settled(self._view._rows(node)(aset))
        return row if self.exact else rounded(row)


class _State:
    """The state of the live kernels with one state budget (see the
    module): their row and pending functions, each under the layout of its
    key's fields and its key, with the memos and tables these own, the
    point masses, the cell that counts the factor tables being made, and
    the views, one per universe's fields.  Kernels hold it, and nothing
    else does but weakly."""

    __slots__ = ("state_budget", "_fns", "_pends", "_dirac", "_making", "views",
                 "__weakref__")

    def __init__(self, state_budget: int):
        self.state_budget = state_budget
        self._fns: dict = {}
        self._pends: dict = {}
        self._dirac = _point_masses()
        self._making = [0]
        self.views: dict = {}
        _STATES[state_budget] = weakref.ref(self, partial(_forget_state, state_budget))


class _View:
    """A state as the kernels over one universe's fields see it (see the
    module): the universe, its layouts and its marginals, and front dicts
    of the row and pending functions it found, keyed by node (or (star,
    filter) step) alone.  It compiles the functions the state lacks.  It
    holds the state's tables but not the state, and the functions it makes
    hold it weakly, so the state holds its views and goes with its last
    kernel, without the cycle collector."""

    def __init__(self, universe: PacketUniverse, state: _State):
        self.universe = universe
        self.state_budget = state.state_budget
        self._layouts = universe.layouts
        self._marginals: dict = {}
        self._fns: dict = {}
        self._pends: dict = {}
        self._state_fns, self._state_pends = state._fns, state._pends
        self._dirac, self._making = state._dirac, state._making
        # Row functions reach the pending row of a key, and the row
        # functions of the parts they meet late, through the view weakly.
        self._ref = weakref.ref(self)
        self._pending_row = partial(_pending_of, self._ref)

    def _found(self, table: dict, key, make):
        """The function under ``key`` (a node, or a (star, filter) step) and
        its fields' layout here in the state's ``table`` (layout -> key ->
        function), or else made by ``make(key, layout)`` and put there."""
        layout = self._code(key if type(key) is not tuple else Seq(*key), _LAYOUT, None)
        fns = table.get(layout)
        if fns is None:
            fns = table[layout] = {}
        fn = fns.get(key)
        if fn is None:
            fn = fns[key] = make(key, layout)
        return fn

    # -- row functions ---------------------------------------------------------

    def _rows(self, node: Program, filt=None):
        """The row function of ``node``, or of the star ``node`` followed by
        the predicate ``filt`` unless None: state, made once per layout."""
        key = node if filt is None else (node, filt)
        fn = self._fns.get(key)
        if fn is None:
            fn = self._fns[key] = self._found(self._state_fns, key, self._compile_rows)
        return fn

    def _compile_rows(self, key, layout: tuple):
        node, filt = key if type(key) is tuple else (key, None)
        dirac, pending = self._dirac, self._pending_row
        m = self._set_map(node)
        if m is not None:
            memo: dict = {}
            return _memoized(_additive(m, dirac, memo), key, pending, memo)
        cls = type(node)
        if cls is Star:
            keep = None if filt is None else self._set_map(filt)
            table = {EMPTY: dirac(EMPTY)}  # strict
            fn = partial(_solved, _settling(self._rows(node.body)), keep,
                         self.state_budget, partial(excerpt, node), table)
            return _memoized(fn, key, pending, table)
        if cls is Union:
            fn = _union_rows(self._union_plan(node), node.parts, self._ref, dirac(EMPTY))
        elif cls is Seq:
            fn = self._sequence(node)
        elif cls is Choice:
            den, *shares = self._code(node, _SHARES, _shares)
            fns = [(n, self._rows(q)) for n, q in zip(shares, node.parts) if n]
            fn = partial(_chosen, den, fns)
        else:
            raise WellFormednessError(f"unknown node {node!r}")
        code = self._code(node, _ROW, self._make_row)
        if type(code) is tuple:
            return _tabled(fn, node, pending, code, layout, self._making)
        u = self.universe
        if node._code[0] & u.mask == u.mask:
            code = None  # no field is left to share rows across
        return _memoized(fn, key, pending, touched=code)

    def _factor_fields(self, node: Program):
        """(fields, key, clear) of a factor node (see the module): the mask of
        its fields, and the projectors on its key and on its fields; or
        None.  A node with no choice and a star are none, with no walk of
        the node."""
        if not node.choice or type(node) is Star:
            return None
        code = self._code(node, _ROW, self._make_row)
        return code if type(code) is tuple else None

    def _make_row(self, node: Program):
        """The row facts of a node that holds a choice: a factor node's
        (fields, key, clear) (see ``_factor_fields``), and any other's
        projector on the fields it reads or writes, for its shared rows."""
        reads, writes, kills, star = footprint(node)
        u = self.universe
        if kills and not star and not reads & ~writes:
            return writes, u.projector(writes & ~kills), u.projector(writes)
        return u.projector(reads | writes)

    def _union_plan(self, node: Union):
        """(guard fields, their projector, valuation -> branch indices,
        unguarded indices, fields every branch tests first) of the union
        chain at ``node``: the guard is those fields, or else the field most
        branches test first, and 0 with no projector if none does.  Index
        tuples are in chain order, each including the unguarded branches."""
        return self._code(node, _PLAN, self._make_union_plan)

    def _make_union_plan(self, node: Union):
        leads = [_leading_tests(b) for b in node.parts]
        masks = [sum([field_bit(f) for f in tests]) for tests in leads]
        first = reduce(and_, masks)
        guard = first or sum([field_bit(f) for f, _ in
                              Counter(f for t in leads for f in t).most_common(1)])
        table, unguarded = {}, []
        for i, tests in enumerate(leads):
            if guard and masks[i] & guard == guard:
                v = self.universe.valuation({f: n for f, n in tests.items()
                                             if field_bit(f) & guard})
                table.setdefault(v, []).append(i)
            else:
                unguarded.append(i)
        table = {v: tuple(sorted(listed + unguarded)) for v, listed in table.items()}
        read = self.universe.projector(guard) if guard else None
        return guard, read, table, tuple(unguarded), first

    def _seq_plan(self, node: Seq) -> tuple:
        """The (part, filter) steps of the sequence at ``node``, in order
        (see the module); ``filter`` is the predicate parts after a star
        whose body has a choice as one node, or None.  A run of deterministic
        parts is one step; so is a run of factor nodes each of which shares a
        field with those before it, unless it is all of ``node``."""
        code = self._code(node, _STEPS, self._make_seq_plan)
        return zip(code[::2], code[1::2])

    def _make_seq_plan(self, node: Seq) -> tuple:
        """``_seq_plan`` as one tuple: part, filter, part, filter..."""
        parts = node.parts
        steps = []  # [i, j, k, a factor run's fields, None for a deterministic run, or False]
        for n, q in enumerate(parts):
            last = steps[-1] if steps else [0, 0, 0, False]
            factor = self._factor_fields(q)
            if last[3] is False and type(parts[last[0]]) is Star and is_predicate(q):
                last[2] = n + 1
            elif factor and last[3] and last[3] & factor[0]:
                last[1:3] = n + 1, n + 1
                last[3] |= factor[0]
            elif self._set_map(q) is None:
                steps.append([n, n + 1, n + 1, factor[0] if factor else False])
            elif last[3] is None:
                last[1:3] = n + 1, n + 1
            else:
                steps.append([n, n + 1, n + 1, None])
        if steps[0][1] == len(parts):
            return tuple([x for q in parts for x in (q, None)])
        return tuple([x for i, j, k, _ in steps
                      for x in (seq(*parts[i:j]), seq(*parts[j:k]) if k > j else None)])

    def _sequence(self, node: Seq):
        """The rows of the sequence at ``node``, which holds a choice, on a
        set or a pending input, with no memo: ``_fold`` over its steps."""
        return partial(_fold, [self._rows(part, f) for part, f in self._seq_plan(node)])

    # -- pending inputs ------------------------------------------------------

    def _pending(self, key):
        """The function from a pending input to the row of ``key`` (a node,
        or a (star, filter) step) on it: state, made once per layout when a
        pending input first reaches ``key``."""
        fn = self._pends.get(key)
        if fn is None:
            fn = self._pends[key] = self._found(self._state_pends, key, self._compile_pending)
        return fn

    def _compile_pending(self, key, layout: tuple):
        """The row of ``key`` on a pending input (see the module)."""
        node, filt = key if type(key) is tuple else (key, None)
        marginals, m = self._marginals, self._set_map(node)
        plain = (self._rows(node, filt) if m is None or key in self._state_fns.get(layout, ())
                 else partial(_mapped, self._dirac, m))  # its memo, if it has one
        first, touch, kills, facts = self._code(node if filt is None else Seq(node, filt),
                                                _PENDING, self._make_pending)
        if filt is None and self._factor_fields(node):
            return partial(_past, touch, kills, plain, layout, marginals)
        if facts is not None:
            state = (node.parts, facts, [None] * len(facts[1]), self._ref, self._dirac, layout)
            rest = partial(_seq_run, state, 0)
        elif type(node) is Seq:
            rest = self._sequence(node)
        else:
            rest = partial(_past, touch, kills, plain, layout, marginals)
            if type(node) is Union:
                rest = self._union_pending(node, rest)
        return partial(_split_first, first, rest, plain, layout, marginals) if first else rest

    def _make_pending(self, node: Program) -> tuple:
        """(first, touch, kills, facts) of ``node`` on a pending input: the
        fields every path through it tests first (a union's, or its own), the
        fields it reads or writes and those it kills; and for a deterministic
        sequence the facts ``_seq_run`` steps through (else None): the first
        part of each run (``_runs``), the runs' set maps, the fields each run
        reads or writes, and the fields each suffix of the runs kills."""
        reads, writes, kills, _ = footprint(node)
        lead = node.parts[0] if type(node) is Seq else node
        first = (self._union_plan(lead)[4] if type(lead) is Union
                 else sum([field_bit(f) for f in _leading_tests(node)]))
        facts = None
        m = self._set_map(node) if type(node) is Seq else None
        if m is not None:
            parts, starts, runs = node.parts, _runs(node.parts), []
            for lo, hi in zip(starts, starts[1:]):
                r = w = k = 0
                for q in parts[lo:hi]:
                    qr, qw, qk, _ = footprint(q)
                    r, w, k = r | qr, w | qw, k | (qk & ~r)
                runs.append((r, w, k))
            suffix = [0] * (len(runs) + 1)
            for i in reversed(range(len(runs))):
                r, _, k = runs[i]
                suffix[i] = k | (suffix[i + 1] & ~r)
            facts = (starts, m.args[0],  # the runs' maps (see ``_compile``)
                     tuple([r | w for r, w, _ in runs]), tuple(suffix))
        return first, reads | writes, kills, facts

    def _union_pending(self, node: Union, past):
        """A union on a pending input (see the module): its one live branch
        gets the input, and none gives the empty set; otherwise, and when
        a guard field has a factor, the union goes ``past`` it.  The branches'
        leading tests read fields the union reads, so their readers read
        only digits of its key."""
        u, empty, ref = self.universe, self._dirac(EMPTY), self._ref
        plan = self._union_plan(node)
        guard, parts = plan[0], node.parts
        leads = [None] * len(parts)  # [(bit, value, reader)] of each branch's leading tests
        fns = [None] * len(parts)

        def union(x):
            fields = sum([factor[0] for factor in x.factors])
            if fields & guard:
                return past(x)
            base, live = x.base, []
            for i in _picked(plan, base):
                tests = leads[i]
                if tests is None:
                    tests = leads[i] = [(field_bit(f), v, u.reader(f))
                                        for f, v in _leading_tests(parts[i]).items()]
                if _passes(tests, fields, base):
                    live.append(i)
            if len(live) != 1:
                return past(x) if live else empty
            i = live[0]
            f = fns[i]
            if f is None:
                f = fns[i] = ref()._pending(parts[i])
            return f(x)
        return union

    # -- deterministic subterms ----------------------------------------------

    def _set_map(self, node: Program):
        """The set map of ``node`` (see ``_compile``): node code, and None
        with no layout work for a node that holds a choice."""
        if node.choice and type(node) is not Neg:
            return None
        return self._code(node, _MAP, self._compile)

    def _code(self, node: Program, kind: int, make):
        """The code ``kind`` of ``node`` for this view's layout of it (see
        the module), made by ``make(node)`` once per node and layout and kept
        on the node: its footprint mask, then one run per layout met, (layout,
        set map, union plan, sequence plan, choice shares, row facts, pending
        facts); a layout is each field's bit, weight and size, one tuple per
        universe and mask.  Everything else is kernel state: the row and
        pending functions with their memos, the union branches and sequence
        runs they reach, star and factor tables, marginals, point masses."""
        codes = getattr(node, "_code", None)
        if codes is None:
            reads, writes, _, _ = footprint(node)
            object.__setattr__(node, "_code", codes := [reads | writes])
        mask = codes[0]
        layout = self._layouts.get(mask)
        if layout is None:
            layout = self._layouts[mask] = tuple([x for digit in self.universe.digits
                                                  if digit[0] & mask for x in digit])
        i = 1
        while i < len(codes) and codes[i] is not layout:
            if codes[i] == layout:  # another universe's: take it, so the next test is `is`
                layout = self._layouts[mask] = codes[i]
                break
            i += _KINDS + 1
        if i == len(codes):
            codes += (layout,) + (None,) * _KINDS
        code = codes[i + kind]
        if code is None:
            code = codes[i + kind] = make(node)
        return code

    def _compile(self, node: Program):
        """The set map of ``node`` (see the module), or None if ``node``
        contains a ``Choice``.  Every map is additive, and
        reads nothing of the universe but its layout of ``node``.  A
        sequence's map runs the maps of its runs (``_runs``): a run of
        assignments is one rewrite of several fields."""
        u = self.universe
        match node:
            case Drop():
                return _dropped
            case Skip():
                return _skipped
            case Test(f, v):
                u.check_value(f, v)
                read = u.reader(f)

                def test(a):  # a closure: the hottest map, and few nodes
                    if len(a) != 1:
                        return u.select(a, f, v)
                    for i in a:
                        return a if read(i) == v else EMPTY
                return test
            case Assign(f, v):
                u.check_value(f, v)
                return partial(_rewritten, u, f, v)
            case Neg(t):
                if not is_predicate(t):
                    raise WellFormednessError(f"not a predicate: {excerpt(t)}")
                return partial(_negated, self._set_map(t))
            case Seq(parts):
                starts, maps = _runs(parts), []
                for lo, hi in zip(starts, starts[1:]):
                    if hi - lo == 1:
                        maps.append(self._set_map(parts[lo]))
                        continue
                    for q in parts[lo:hi]:
                        u.check_value(q.field, q.value)
                    maps.append(partial(_rewritten, u, tuple([q.field for q in parts[lo:hi]]),
                                        tuple([q.value for q in parts[lo:hi]])))
                if None in maps:
                    return None
                return partial(_run, tuple(maps))
            case Union(parts):
                maps = [self._set_map(q) for q in parts]
                if None in maps:
                    return None
                return partial(_united, tuple(maps), self._union_plan(node))
            case Star(body):
                step = self._set_map(body)
                return None if step is None else partial(_reached, step)
            case _:
                return None
