import gc
import importlib.util
import inspect
import itertools
import random
import sys
import time
import weakref
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from pnk import bigstep, netlib
from pnk import star as star_mod
from pnk import syntax as syntax_mod
from pnk.analysis import InputSpec, dist_leq, equiv, estimate, leq, sample_run
from pnk.bigstep import Kernel, Pending
from pnk.errors import BudgetExceededError, UniverseError, WellFormednessError
from pnk.row import Row
from pnk.syntax import (
    Assign, Choice, Drop, Neg, Seq, Skip, Star, Test, Union, desugar, do_while,
    excerpt, footprint, has_choice, pretty, restrict, seq, union, while_do,
)
from pnk.universe import EMPTY, FieldDecl, PacketUniverse, field_bit

from conftest import (
    WEIGHTS, cold_kernel, cold_rows, random_predicate, random_program, random_set,
)
from oracles import SparseMatrix, convex, mat_mul

UF = PacketUniverse([FieldDecl("f", 2)])


def kernel(p, u):
    return Kernel(desugar(p), u)


def row(p, u, a):
    k = kernel(p, u)
    return k.row(k.program, a).as_dict()


def delta(s):
    return {s: Fraction(1)}


def test_drop_sends_everything_to_empty(uni2x2):
    rng = random.Random(0)
    for _ in range(10):
        a = random_set(rng, uni2x2)
        assert row(Drop(), uni2x2, a) == delta(EMPTY)


def test_skip_is_identity(uni2x2):
    a = frozenset({0, 3})
    assert row(Skip(), uni2x2, a) == delta(a)


def test_test_filters(uni2x2):
    u = uni2x2
    a = u.all_packets()
    assert row(Test("f", 1), u, a) == delta(frozenset({u.packet(f=1, g=0),
                                                        u.packet(f=1, g=1)}))
    b = frozenset({u.packet(f=0, g=1), u.packet(f=1, g=1)})
    assert row(Test("f", 1), u, b) == delta(frozenset({u.packet(f=1, g=1)}))


def test_assign_maps(uni2x2):
    u = uni2x2
    a = u.all_packets()
    assert row(Assign("g", 0), u, a) == delta(frozenset({u.packet(f=0, g=0),
                                                         u.packet(f=1, g=0)}))


def test_union_correlates_branches():
    # Independent oracle: enumerate the 2x1 product measure by hand, then
    # push the pairwise union through it.
    u = UF
    pi0, pi1 = u.packet(f=0), u.packet(f=1)
    a = frozenset({pi0})
    left = {frozenset({pi0}): Fraction(1, 2), frozenset({pi1}): Fraction(1, 2)}
    right = {a: Fraction(1)}
    expected = {}
    for (b1, p1), (b2, p2) in itertools.product(left.items(), right.items()):
        expected[b1 | b2] = expected.get(b1 | b2, 0) + p1 * p2
    assert expected == {
        frozenset({pi0}): Fraction(1, 2),
        frozenset({pi0, pi1}): Fraction(1, 2),
    }
    p = Union(Choice(Fraction(1, 2), Assign("f", 0), Assign("f", 1)), Skip())
    assert row(p, u, a) == expected


def test_contradicting_test_after_assign(uni2x2):
    p = Seq(Assign("f", 1), Test("f", 0))
    rng = random.Random(1)
    for _ in range(10):
        a = random_set(rng, uni2x2)
        assert row(p, uni2x2, a) == delta(EMPTY)


def test_rows_are_exactly_stochastic(uni2x2):
    rng = random.Random(2)
    for _ in range(300):
        p = random_program(rng, uni2x2, depth=3, stars=1)
        a = random_set(rng, uni2x2)
        d = row(p, uni2x2, a)
        assert all(v > 0 for v in d.values()) and sum(d.values()) == 1


def test_predicate_law(uni2x2):
    rng = random.Random(3)
    for _ in range(300):
        t = random_predicate(rng, uni2x2, 3)
        a = random_set(rng, uni2x2)
        assert row(t, uni2x2, a) == delta(a & restrict(t, uni2x2.all_packets(), uni2x2))


def test_seq_is_bind_of_rows(uni2x2):
    rng = random.Random(4)
    for _ in range(200):
        p = random_program(rng, uni2x2, 2, stars=0)
        q = random_program(rng, uni2x2, 2, stars=0)
        a = random_set(rng, uni2x2)
        mu = row(p, uni2x2, a)
        expected = {}
        for c, w in mu.items():
            for b, v in row(q, uni2x2, c).items():
                expected[b] = expected.get(b, 0) + w * v
        assert row(Seq(p, q), uni2x2, a) == expected


def test_choice_is_convex_combination(uni2x2):
    rng = random.Random(5)
    for _ in range(100):
        p = random_program(rng, uni2x2, 2, stars=0)
        q = random_program(rng, uni2x2, 2, stars=0)
        r = Fraction(rng.randrange(0, 13), 12)
        a = random_set(rng, uni2x2)
        mu, nu = row(p, uni2x2, a), row(q, uni2x2, a)
        expected = {}
        for b, v in mu.items():
            expected[b] = expected.get(b, 0) + r * v
        for b, v in nu.items():
            expected[b] = expected.get(b, 0) + (1 - r) * v
        expected = {b: v for b, v in expected.items() if v != 0}
        assert row(Choice(r, p, q), uni2x2, a) == expected


def _binary_chain_row(rows, weights) -> dict:
    """The row of a choice chain from its parts' rows: folded from the last
    part back by r * row(p) + (1 - r) * row(rest), in ``Fraction``s."""
    out = rows[-1]
    for mu, w in zip(rows[-2::-1], weights[::-1]):
        r, mix = Fraction(w), {}
        for b, v in mu.items():
            mix[b] = mix.get(b, 0) + r * v
        for b, v in out.items():
            mix[b] = mix.get(b, 0) + (1 - r) * v
        out = {b: v for b, v in mix.items() if v}
    return out


def test_weights_of_0_and_1_cut_off_the_parts_they_leave_no_mass(uni8):
    # A weight of 0 drops its part and a weight of 1 every later part,
    # whether it is a Fraction or a float, at the first, a middle or the
    # last place of a chain of random parts or of a coin, whose four parts
    # over a two-valued field assign some value twice.  Every row over all
    # subsets is the binary definition's, with no entry of zero weight.
    u = uni8
    inputs = all_subsets(u)
    rng = random.Random(26)
    chains = []
    for cut in (Fraction(0), Fraction(1), 0.0, 1.0):
        for place in (0, 1, 2):
            for _ in range(2):
                weights = [rng.choice((*WEIGHTS, 0.25, 0.5)) for _ in range(3)]
                weights[place] = cut
                chains.append(([random_program(rng, u, 2) for _ in range(4)], weights))
                d = rng.choice(u.decls)
                values = rng.sample((0, 0, 1, 1), 4)
                chains.append(([Assign(d.name, v) for v in values], weights))
    for parts, weights in chains:
        p = Choice.chain(parts, weights)
        part_rows = [cold_rows(q, u, inputs) for q in parts]
        k = cold_kernel(p, u)
        for n, a in enumerate(inputs):
            got = k.row(p, a)
            _assert_reduced_integer_row(got)
            want = _binary_chain_row([rows[n].as_dict() for rows in part_rows], weights)
            assert {b: Fraction(n, got.den) for b, n in got.nums.items()} == want, \
                (pretty(p), sorted(a))
        del k


def test_monotone_in_inputs(uni2x2):
    rng = random.Random(6)
    for _ in range(150):
        p = random_program(rng, uni2x2, 2, stars=1)
        small = random_set(rng, uni2x2)
        big = small | random_set(rng, uni2x2)
        assert dist_leq(row(p, uni2x2, small), row(p, uni2x2, big))


def test_union_with_drop_and_drop_seq(uni2x2):
    rng = random.Random(7)
    for _ in range(100):
        p = random_program(rng, uni2x2, 2, stars=0)
        a = random_set(rng, uni2x2)
        assert row(Union(p, Drop()), uni2x2, a) == row(p, uni2x2, a)
        assert row(Seq(Drop(), p), uni2x2, a) == delta(EMPTY)


def _random_branch(rng, u):
    """A union branch: guarded by a leading run of tests, a bare test, or
    unguarded (led by a negation, an assignment, a choice or a star)."""
    tail = lambda: random_program(rng, u, 1, stars=0)
    d = rng.choice(u.decls)
    kind = rng.choice(("guarded", "guarded", "guarded", "test", "neg",
                       "assign", "choice", "star"))
    if kind == "guarded":
        body = tail()
        for e in rng.sample(u.decls, rng.randrange(1, 3)):
            body = Seq(Test(e.name, rng.randrange(e.size)), body)
        return body
    if kind == "test":
        return Test(d.name, rng.randrange(d.size))
    if kind == "neg":
        return Seq(Neg(random_predicate(rng, u, 1)), tail())
    if kind == "assign":
        return Seq(Assign(d.name, rng.randrange(d.size)), tail())
    if kind == "choice":
        return Choice(rng.choice(WEIGHTS), tail(), tail())
    return Seq(Star(tail()), tail())


def _product_of_rows(rows, unit):
    out = {EMPTY: unit}
    for r in rows:
        nxt = {}
        for b1, p1 in out.items():
            for b2, p2 in r.items():
                nxt[b1 | b2] = nxt.get(b1 | b2, 0) + p1 * p2
        out = nxt
    return out


@pytest.mark.parametrize("exact", [True, False])
def test_union_dispatch_obeys_product_law(exact):
    # The n-ary union evaluates only the branches whose guard can match;
    # the expected row multiplies the rows of every branch, each from its
    # own kernel.
    u = PacketUniverse([FieldDecl("f", 3), FieldDecl("g", 2), FieldDecl("h", 2)])
    unit = Fraction(1) if exact else 1.0
    rng = random.Random(8)
    for _ in range(300):
        branches = [_random_branch(rng, u) for _ in range(rng.randrange(2, 9))]
        inputs = [EMPTY, random_set(rng, u),
                  frozenset(rng.sample(range(u.packet_count), 1))]
        branch_rows = [cold_rows(b, u, inputs, exact=exact) for b in branches]
        k = cold_kernel(union(*branches), u, exact=exact)
        for n, a in enumerate(inputs):
            rows = [r[n].as_dict() for r in branch_rows]
            expected = _product_of_rows(rows, unit)
            got = k.row(k.program, a).as_dict()
            if exact:
                assert got == expected
            else:
                assert got.keys() == expected.keys()
                assert all(abs(got[b] - expected[b]) <= 1e-12 for b in got)
        del k


def _star_programs(rng, u):
    """``p*``, ``p* ; t`` and the loop ``(!t ; p)* ; t`` for random p, t."""
    p = random_program(rng, u, 2, stars=1)
    t = random_predicate(rng, u, 2)
    return [Star(p), Seq(Star(p), t), Seq(Star(Seq(Neg(t), p)), t)]


@pytest.mark.parametrize("exact", [True, False])
def test_star_table_rows_equal_fresh_kernels(uni2x2, exact):
    # One kernel keeps one table of solved star rows per (star, filter)
    # and reuses it across input rows; the oracle asks a fresh kernel, with
    # empty tables, for each row.
    u = uni2x2
    inputs = all_subsets(u)
    rng = random.Random(9)
    for _ in range(40):
        for prog in _star_programs(rng, u):
            prog = desugar(prog)
            expected = {}
            for a in inputs:
                expected[a] = cold_rows(prog, u, [a], exact=exact)[0].as_dict()
            order = list(inputs)
            for _ in range(2):
                k = cold_kernel(prog, u, exact=exact)
                for a in order:
                    got = k.row(k.program, a).as_dict()
                    if exact:
                        assert got == expected[a]
                    else:
                        assert got.keys() == expected[a].keys()
                        assert all(abs(got[b] - expected[a][b]) <= 1e-12
                                   for b in got)
                rng.shuffle(order)
                del k


def test_row_hands_out_a_copy(uni2x2):
    k = kernel(Union(Seq(Test("f", 0), Assign("g", 1)),
                     Choice(Fraction(1, 3), Skip(), Drop())), uni2x2)
    a = uni2x2.all_packets()
    first = k.row(k.program, a).as_dict()
    original = dict(first)
    first.clear()
    first[EMPTY] = Fraction(7)
    assert k.row(k.program, a).as_dict() == original
    assert k.apply(a).as_dict() == original


def test_row_of_a_freed_node_is_not_reused():
    # The two Assign nodes are temporaries: the first is gone before the
    # second is built, and CPython may give the second the first one's id.
    k = Kernel(Skip(), UF)
    a = frozenset({UF.packet(f=0)})
    assert k.row(Assign("f", 0), a).as_dict() == delta(a)
    assert k.row(Assign("f", 1), a).as_dict() == delta(frozenset({UF.packet(f=1)}))


# -- deterministic subterms: compiled set maps --------------------------------


def _deterministic_programs(rng, u, n):
    """``n`` random choice-free, star-free core programs."""
    out = []
    while len(out) < n:
        if rng.random() < 0.3:
            p = random_predicate(rng, u, rng.randrange(4))
        else:
            p = random_program(rng, u, rng.randrange(5), stars=0)
        if not has_choice(p):
            out.append(p)
    return out


def test_compiled_set_maps_match_the_sampler(uni8):
    # A choice-free, star-free program is evaluated as a compiled set map;
    # its row must be the point mass on its one run, which the sampler (it
    # shares no code with the kernel) computes exactly.
    u = uni8
    f0, f1, g1 = Test("f", 0), Test("f", 1), Test("g", 1)
    handmade = [
        Neg(Union(f0, g1)),
        Seq(Neg(Seq(f1, Neg(g1))), Assign("h", 1)),
        Union(Assign("f", 1), Assign("g", 0)),  # no guard field
        # Guarded by f, with no branch under f=1 and none unguarded.
        Union(Seq(f0, Assign("g", 1)), Seq(f0, g1, Assign("h", 1))),
        Union(Seq(f1, Assign("f", 0)), Seq(f0, Assign("f", 1)), Assign("h", 1)),
        Seq(Assign("f", 1), Drop(), Assign("g", 1)),
    ]
    rng = random.Random(61)
    sets = [EMPTY, u.all_packets(), *(frozenset({i}) for i in range(u.packet_count))]
    for p in handmade + _deterministic_programs(rng, u, 400):
        k = Kernel(p, u)
        assert k._state._set_map(p) is not None
        for a in sets + [random_set(rng, u) for _ in range(4)]:
            assert k.row(p, a).as_dict() == delta(sample_run(p, a, u, 0))


def _closure(fn):
    return inspect.getclosurevars(fn).nonlocals


def _memos(k):
    """Node -> memo of each memoized row function of ``k``."""
    return {key: c["memo"] for key, fn in k._state._fns.items() if "memo" in (c := _closure(fn))}


def _tables(k):
    """Key (a star node, or a (star, filter) step) -> table of solved rows
    of each star row function of ``k``: its memo."""
    return {key: c["memo"] for key, fn in k._state._fns.items()
            if getattr((c := _closure(fn)).get("fn"), "func", None) is bigstep._solved}


def _images(k):
    """Node -> packet -> image index of each deterministic row function of
    ``k``."""
    out = {}
    for key, fn in k._state._fns.items():
        inner = _closure(fn).get("fn")
        if inspect.isfunction(inner) and "images" in (c := _closure(inner)):
            out[key] = c["images"]
    return out


def _parts(node):
    if isinstance(node, (Union, Seq, Choice)):
        return node.parts
    if isinstance(node, (Neg, Star)):
        return (node.body,)
    return ()


def test_no_memo_entries_inside_deterministic_subterms():
    # Only the row functions hold memo entries (a star's table is its
    # memo).  A node gets one where its rows are requested: the program,
    # the parts of the unions, choices and stars that contain a choice, and
    # the steps of such sequences (a step is a part, or a run of
    # deterministic parts).  So every memo key is one of those; a node that
    # lies inside a deterministic subterm has a key only if it is also
    # (nodes are interned, so shared) one whose rows are requested.
    cm = netlib.build_case_model(netlib.F10_35, netlib.abfattree20(), None)
    k = Kernel(desugar(cm.program), cm.universe)
    for src in cm.in_packets:
        k.apply(frozenset({src}))
    nodes, stack = set(), [k.program]
    while stack:
        node = stack.pop()
        if node not in nodes:
            nodes.add(node)
            stack.extend(_parts(node))
    probabilistic = {n for n in nodes if k._state._set_map(n) is None}
    evaluated = {k.program}
    for n in probabilistic:
        if isinstance(n, Seq):
            evaluated.update(step for step, _ in k._state._seq_plan(n))
        else:
            evaluated.update(_parts(n))
    stored = {**_memos(k), **_tables(k)}
    keys = {key for key, rows in stored.items() if rows and not isinstance(key, tuple)}
    assert keys <= evaluated
    assert any(k._state._set_map(n) is not None for n in keys)
    # The deterministic top nodes hold one entry per input set, and no
    # node inside them has one of its own.
    deterministic = (nodes | evaluated) - probabilistic
    inside = {q for n in deterministic for q in _parts(n)} - evaluated
    assert inside and not keys & inside
    # Every input set is a singleton, so no deterministic row function
    # indexes an image by packet: that index is filled by larger sets.
    images = _images(k)
    assert images and not any(images.values())


def _stars(p):
    """Whether the program ``p`` has a star."""
    return isinstance(p, Star) or any(_stars(q) for q in _parts(p))


def test_deterministic_rows_are_the_point_masses_of_their_set_maps(uni8):
    # On a set of two or more packets, a choice-free node's row is the
    # point mass on the union of the images its memo holds for the set's
    # singletons and the image of the rest.  It must be the point mass on
    # the node's set map, which maps the set whole; a star's map is its
    # reachability closure.  Subsets come smallest first, in mask order and
    # largest first, where no set meets a singleton that was mapped before.
    u = uni8
    rng = random.Random(24)
    rows = all_subsets(u)
    masks = list(InputSpec.all_subsets(sorted(u.all_packets())).rows())
    stars = 0
    for _ in range(80):
        p = random_program(rng, u, rng.randrange(1, 5), stars=1)
        if has_choice(p):
            continue
        for order, indexed in ((rows, True), (masks, True), (rows[::-1], False)):
            k = cold_kernel(p, u)
            m = k._state._set_map(p)
            for a in order:
                assert k.row(p, a).as_dict() == delta(m(a)), (pretty(p), sorted(a))
            images = _images(k)[p]
            assert bool(images) == indexed
            assert all(b == m(frozenset({x})) for x, b in images.items())
            del k
        stars += _stars(p)
    assert stars > 8  # 13 of 61 programs with this seed


def _additive_rows(m):
    """A memoized deterministic row function of the set map ``m``, and the
    list of the sets ``m`` is called on."""
    calls, memo = [], {}
    fn = bigstep._additive(lambda a: calls.append(a) or m(a), bigstep._point_masses(), memo)
    return bigstep._memoized(fn, None, None, memo), calls


def test_a_set_maps_only_its_packets_not_met_alone():
    # A packet whose singleton row is in the memo gives its image from
    # there; the rest of the set is mapped whole, once.  On a counter
    # loop each packet's image holds the rest of its path, so a set none
    # of whose singletons was met costs one closure, as it did before.
    u = PacketUniverse([FieldDecl("f", 8), FieldDecl("g", 2)])
    p = Star(union(*(Seq(Test("f", v), Assign("f", v + 1)) for v in range(7))))
    m = Kernel(p, u)._state._set_map(p)
    rows, calls = _additive_rows(m)
    x = [u.packet(f=v, g=0) for v in range(4)]
    a = frozenset(x)
    assert rows(a).as_dict() == delta(m(a)) and calls == [a]
    rows(frozenset(x[:1]))
    rows(frozenset(x[1:2]))
    calls.clear()
    b = frozenset(x[:3])
    assert rows(b).as_dict() == delta(m(b)) and calls == [frozenset(x[2:3])]
    # Every subset in mask order: only the empty set and the singletons
    # are mapped, and each packet's image is indexed once.
    rows, calls = _additive_rows(m)
    for a in InputSpec.all_subsets(x).rows():
        assert rows(a).as_dict() == delta(m(a))
    assert sorted(calls, key=len) == [EMPTY, *(frozenset((y,)) for y in x)]
    assert _closure(_closure(rows)["fn"])["images"] == {y: m(frozenset((y,))) for y in x}


def test_a_lone_packet_not_met_alone_is_indexed():
    # A node that shares its rows among packets that differ only in fields
    # it never touches skips its children on all but one of them, so their
    # singletons never reach a deterministic child's memo.  A set whose
    # only packet not indexed is such a packet maps it alone and indexes
    # its image, so the next set that holds it maps nothing.
    u = PacketUniverse([FieldDecl("f", 8), FieldDecl("g", 2)])
    p = Star(union(*(Seq(Test("f", v), Assign("f", v + 1)) for v in range(7))))
    m = Kernel(p, u)._state._set_map(p)
    rows, calls = _additive_rows(m)
    x = [u.packet(f=v, g=0) for v in range(3)]
    rows(frozenset(x[:1]))
    a = frozenset(x[:2])
    assert rows(a).as_dict() == delta(m(a)) and calls == [frozenset(x[:1]), frozenset(x[1:2])]
    images = _closure(_closure(rows)["fn"])["images"]
    assert images == {y: m(frozenset((y,))) for y in x[:2]}
    calls.clear()
    b = frozenset(x[1:])
    assert rows(b).as_dict() == delta(m(b)) and calls == [frozenset(x[2:])]
    calls.clear()
    c = frozenset(x)
    assert rows(c).as_dict() == delta(m(c)) and not calls
    # Two packets not met alone are still mapped whole, and not indexed.
    rows, calls = _additive_rows(m)
    assert rows(c).as_dict() == delta(m(c)) and calls == [c]
    assert not _closure(_closure(rows)["fn"])["images"]


def test_a_kernel_is_freed_without_the_cycle_collector(uni8):
    # The compiled maps hold no reference to their kernel, so a kernel goes
    # as soon as its last reference does, memo and all; with coins, so do
    # the functions that run pending sets through the nodes.
    p = Seq(Union(Seq(Test("f", 0), Assign("g", 1)),
                  Seq(Test("f", 1), Neg(Test("h", 1)))),
            Choice(Fraction(1, 3), Assign("h", 0), Star(Assign("f", 1))))
    flips = Seq(Choice(Fraction(1, 2), Assign("g", 0), Assign("g", 1)),
                Choice(Fraction(1, 4), Assign("f", 0), Assign("f", 1)))
    for prog in (p, Seq(flips, p)):
        k = Kernel(prog, uni8)
        for i in range(uni8.packet_count):
            k.row(prog, frozenset({i}))
        assert bool(k._state._pends) == (prog is not p)
        ref = weakref.ref(k)
        gc.disable()
        try:
            del k
            assert ref() is None
        finally:
            gc.enable()


# -- choice-free stars: reachability closures ----------------------------------

U16 = PacketUniverse([FieldDecl("f", 4), FieldDecl("g", 2), FieldDecl("h", 2)])


def _choice_free(rng, u, depth, stars):
    """A random choice-free core program over tests, assignments, ``!``,
    ``&``, ``;`` and at most ``stars`` nested stars."""
    if depth == 0 or rng.random() < 0.2:
        d = rng.choice(u.decls)
        roll = rng.random()
        if roll < 0.15:
            return Neg(random_predicate(rng, u, 1))
        v = rng.randrange(d.size)
        return Assign(d.name, v) if roll < 0.6 else Test(d.name, v)
    op = rng.choice(("seq", "seq", "union") + (("star",) if stars else ()))
    if op == "star":
        return Star(_choice_free(rng, u, depth - 1, stars - 1))
    a, b = (_choice_free(rng, u, depth - 1, stars) for _ in range(2))
    return Seq(a, b) if op == "seq" else Union(a, b)


def _loops(p, t):
    """(program, star body, filter or None) of ``p*``, ``p* ; t`` and
    ``while t do p``."""
    return [(Star(p), p, None), (Seq(Star(p), t), p, t),
            (while_do(t, p), Seq(t, p), Neg(t))]


def _unrolled(body, filt, a, u):
    """The row on ``a`` of X ; filt, for X the fixed point of
    X <- skip & body;X, iterated from drop until its row stops changing."""
    k = cold_kernel(Skip(), u)
    x, last, got = Drop(), None, delta(EMPTY)
    while got != last:
        x, last = Union(Skip(), Seq(body, x)), got
        got = k.row(x, a).as_dict()
    return k.row(x if filt is None else Seq(x, filt), a).as_dict()


def test_choice_free_stars_are_reachability_closures():
    # A star whose body has no choice is compiled into the closure of the
    # body's set map.  Its row must equal both the pair chain's row over
    # the body's rows and the fixed point of the star's unrolling.
    u = U16
    rng = random.Random(20)
    for _ in range(210):
        p = _choice_free(rng, u, rng.randrange(1, 4), 2)
        t = random_predicate(rng, u, 2)
        inputs = [EMPTY, frozenset({rng.randrange(u.packet_count)}),
                  random_set(rng, u), u.all_packets()]
        for prog, body, filt in _loops(p, t):
            k = cold_kernel(prog, u)
            rows = [k.row(prog, a).as_dict() for a in inputs]
            assert k._state._set_map(prog) is not None and not _tables(k)
            del k
            kb = cold_kernel(body, u)
            keep = None if filt is None else (lambda a, filt=filt: restrict(filt, a, u))
            for a, got in zip(inputs, rows):
                chain = star_mod.star_dist(lambda b: kb.row(body, b), a, keep=keep)
                assert got == chain.as_dict()
            del kb
            for a, got in zip(inputs, rows):
                assert got == _unrolled(body, filt, a, u)


def _perfbench_programs():
    """``perfbench/programs.py``, the benchmark's random program pairs."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "programs.py"
    spec = importlib.util.spec_from_file_location("perfbench_programs", path)
    mod = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class _PairChain(Exception):
    pass


def test_choice_free_programs_build_no_pair_chain(monkeypatch):
    # Only a star whose body has a choice is solved as a pair chain; the
    # benchmark's choice-free unfold and unroll pairs, and a loop, are
    # decided without one, and their kernels keep no star table.
    programs = _perfbench_programs()

    def refuse(*args, **kwargs):
        raise _PairChain
    monkeypatch.setattr(star_mod, "star_dist", refuse)
    u = programs.universe8()
    rows = all_subsets(u)
    spec = InputSpec.all_subsets(u.all_packets())
    rng = random.Random(21)
    f0 = Test("f", 0)
    sides = [while_do(f0, Seq(Assign("f", 1), Star(Assign("g", 1))))]
    for kind, decide in (("unfold", equiv), ("unroll", leq)):
        for steps in range(12):
            pair = programs.make_pair(kind, rng, False, steps % 3)
            assert decide(pair.left, pair.right, spec, u).result == pair.expected
            sides += [pair.left, pair.right]
    for prog in sides:
        k = Kernel(prog, u)
        for a in rows:
            k.apply(a)
        assert not _tables(k)
    k = Kernel(Star(Choice(Fraction(1, 2), Assign("f", 1), Seq(f0, Assign("g", 1)))), u)
    with pytest.raises(_PairChain):
        k.apply(frozenset({0}))


def test_a_filtered_star_step_is_compiled_once_per_kernel(uni8, monkeypatch):
    # ``p* ; t`` is one step, keyed on (star, filter) in the kernel, so two
    # sequences that share it share its table: a chain solved for one of
    # them is not solved again for the other.
    calls = []
    solve = star_mod.star_dist
    monkeypatch.setattr(star_mod, "star_dist",
                        lambda *args, **kwargs: calls.append(args[1]) or solve(*args, **kwargs))
    loop = Star(Choice(Fraction(1, 2), Assign("f", 1), Seq(Test("g", 0), Assign("g", 1))))
    t = Test("h", 0)
    left, right = Seq(loop, t, Assign("h", 1)), Seq(loop, t, Assign("f", 0))
    k = Kernel(Union(left, right), uni8)
    for i in range(uni8.packet_count):
        a = frozenset({i})
        k.row(left, a)
        solved = len(calls)
        assert calls.count(a) <= 1
        k.row(right, a)
        assert len(calls) == solved
    assert calls


def test_a_star_solves_a_set_once_and_its_table_is_its_memo(uni8, monkeypatch):
    # A star's row function is memoized as any node's, and its memo is the
    # table of solved rows that ``star.star_dist`` fills: a second row on a
    # set reads it there.
    calls = []
    solve = star_mod.star_dist
    monkeypatch.setattr(star_mod, "star_dist",
                        lambda *args, **kwargs: calls.append(args) or solve(*args, **kwargs))
    loop = Star(Choice(Fraction(1, 2), Assign("f", 1), Seq(Test("g", 0), Assign("g", 1))))
    k = Kernel(loop, uni8)
    a = frozenset({uni8.packet(f=0, g=0, h=0)})
    row = k.row(loop, a)
    assert k.row(loop, a) is row
    (args,) = calls
    memo = _closure(k._state._fns[loop])["memo"]
    assert args[1] == a and args[5] is memo and memo[a] is row
    assert _tables(k) == {loop: memo}


# -- matrices: the "`;` is matrix product" oracle ------------------------------

DEFAULT_MATRIX_ROW_CAP = 4096


@dataclass
class BigStepMatrix:
    """A stochastic matrix over explicit row/column packet-set indices."""

    matrix: SparseMatrix
    row_sets: list
    col_sets: list
    row_index: dict
    col_index: dict


def matrix(k, rows):
    """Stochastic matrix whose i-th row is the kernel ``k`` applied to
    rows[i]; columns are indexed by the union of all supports."""
    dists = [k.row(k.program, a).as_dict() for a in rows]
    col_sets = []
    col_index = {}
    for d in dists:
        for s in sorted(d, key=sorted):
            if s not in col_index:
                col_index[s] = len(col_sets)
                col_sets.append(s)
    m = SparseMatrix(len(rows), len(col_sets))
    for i, d in enumerate(dists):
        m.rows[i] = {col_index[s]: p for s, p in d.items()}
    row_index = {a: i for i, a in enumerate(rows)}
    return BigStepMatrix(m, list(rows), col_sets, row_index, col_index)


def full_matrix(k, row_cap=DEFAULT_MATRIX_ROW_CAP):
    """Matrix of ``k`` over all of 2^Pk, guarded by a row cap."""
    n = k.universe.packet_count
    if (1 << n) > row_cap:
        raise WellFormednessError(
            f"2^{n} rows exceed the cap of {row_cap}; pass explicit rows"
        )
    packets = sorted(k.universe.all_packets())
    rows = [
        frozenset(p for b, p in zip(range(n), packets) if (mask >> b) & 1)
        for mask in range(1 << n)
    ]
    return matrix(k, rows)


def all_subsets(u):
    packets = sorted(u.all_packets())
    return [frozenset(c) for r in range(len(packets) + 1)
            for c in itertools.combinations(packets, r)]


def test_matrix_of_skip_is_identity():
    rows = all_subsets(UF)
    bsm = matrix(kernel(Skip(), UF), rows)
    for i, a in enumerate(rows):
        assert bsm.matrix.rows[i] == {bsm.col_index[a]: Fraction(1)}


def _full(k, rows):
    """The kernel's matrix over ``rows``, columns indexed like the rows."""
    cols = {a: i for i, a in enumerate(rows)}
    bsm = matrix(k, rows)
    m = SparseMatrix(len(rows), len(rows))
    for i in range(len(rows)):
        for j, v in bsm.matrix.rows[i].items():
            m.set(i, cols[bsm.col_sets[j]], v)
    return m


def test_matrix_seq_is_product():
    # Over all subsets the rows are closed under any program, so the
    # sequential composition is literally the matrix product.
    u = UF
    rows = all_subsets(u)
    p = Choice(Fraction(1, 3), Assign("f", 0), Skip())
    q = Union(Test("f", 0), Assign("f", 1))
    mp = _full(cold_kernel(desugar(p), u), rows)
    mq = _full(cold_kernel(desugar(q), u), rows)
    assert _full(cold_kernel(desugar(Seq(p, q)), u), rows) == mat_mul(mp, mq)


def test_matrix_choice_is_convex():
    u = UF
    rows = all_subsets(u)
    p, q = Assign("f", 0), Assign("f", 1)
    r = Fraction(2, 5)

    def full(prog):
        return _full(kernel(prog, u), rows)

    assert full(Choice(r, p, q)) == convex(r, full(p), full(q))


UNI4 = PacketUniverse([FieldDecl("f", 2), FieldDecl("g", 2)])
UNI8 = PacketUniverse([FieldDecl("f", 2), FieldDecl("g", 2), FieldDecl("h", 2)])


def _assert_reduced_integer_row(row):
    nums = list(row.nums.values())
    assert all(type(n) is int and n > 0 for n in nums)
    assert type(row.den) is int and sum(nums) == row.den
    assert gcd(row.den, *nums) == 1


def test_rows_are_reduced_integer_rows():
    # Every exact row is positive integer numerators over a reduced
    # denominator.  On UNI4 each row of p ; q, p +[r] q and p & q, for
    # random p and q with stars, is also the matrix oracle's row: the
    # matrix product, the convex combination and the product of rows of
    # the two sides, each from a fresh kernel.
    rng = random.Random(31)
    rows4 = all_subsets(UNI4)
    for _ in range(40):
        p = random_program(rng, UNI4, 2, stars=1)
        q = random_program(rng, UNI4, 2, stars=1)
        r = rng.choice(WEIGHTS)
        cp, cq = desugar(p), desugar(q)
        mp, mq = _full(cold_kernel(cp, UNI4), rows4), _full(cold_kernel(cq, UNI4), rows4)
        laws = [(Seq(p, q), mat_mul(mp, mq)), (Choice(r, p, q), convex(r, mp, mq))]
        for prog, oracle in laws:
            k = cold_kernel(desugar(prog), UNI4)
            for i, a in enumerate(rows4):
                got = k.row(k.program, a)
                _assert_reduced_integer_row(got)
                assert got.as_dict() == {rows4[j]: v for j, v in oracle.rows[i].items()}
            del k
        rp, rq = cold_rows(cp, UNI4, rows4), cold_rows(cq, UNI4, rows4)
        k = cold_kernel(desugar(Union(p, q)), UNI4)
        for a, mu, nu in zip(rows4, rp, rq):
            got = k.row(k.program, a)
            _assert_reduced_integer_row(got)
            assert got.as_dict() == _product_of_rows([mu.as_dict(), nu.as_dict()],
                                                     Fraction(1))
        del k
    # On UNI8 every row the kernel made on the way holds the invariant too:
    # each memoized row is the row of its node, and each star table row
    # that of its (star, filter).
    for _ in range(200):
        k = kernel(random_program(rng, UNI8, 3, stars=2), UNI8)
        for _ in range(4):
            _assert_reduced_integer_row(k.row(k.program, random_set(rng, UNI8)))
        for memo in _memos(k).values():
            for row in memo.values():
                _assert_reduced_integer_row(row)
        for table in _tables(k).values():
            for row in table.values():
                _assert_reduced_integer_row(row)


def test_full_matrix_cap():
    u = PacketUniverse([FieldDecl("f", 2), FieldDecl("g", 2),
                        FieldDecl("h", 2), FieldDecl("i", 2)])
    with pytest.raises(WellFormednessError):
        full_matrix(kernel(Skip(), u), row_cap=4096)


def test_float_rows_are_the_exact_rows_correctly_rounded(uni2x2):
    # Float mode rounds each exact probability once: int / int division is
    # correctly rounded, so the float row is equal, bit for bit, to the
    # exact row with each weight divided by its denominator.
    rng = random.Random(41)
    for _ in range(300):
        p = desugar(random_program(rng, uni2x2, 3, stars=2))
        a = random_set(rng, uni2x2)
        r = Kernel(p, uni2x2).apply(a)
        got = Kernel(p, uni2x2, exact=False).apply(a)
        assert got.nums == {b: n / r.den for b, n in r.nums.items()}


def test_float_mode_masses():
    u = UF
    p = Choice(Fraction(1, 3), Assign("f", 0), Assign("f", 1))
    k = Kernel(desugar(p), u, exact=False)
    d = k.apply(frozenset({u.packet(f=0)})).as_dict()
    assert abs(sum(d.values()) - 1.0) < 1e-9
    assert all(isinstance(pr, float) for pr in d.values())


# -- pending factors -------------------------------------------------------------
#
# The oracle for a factor node (a coin, a choice whose parts each assign one
# field, among them) is its eager twin, which writes each part q of every
# choice as q & (drop* ; drop): the same program, in which every node that
# holds a choice also holds a star, so no node is a factor node and the kernel
# draws every choice where it stands.

DEAD = Seq(Star(Drop()), Drop())  # drop, holding a star


def _twin(p):
    """``p`` with every choice's parts q written q & (drop* ; drop)."""
    match p:
        case Choice(parts, weights):
            return Choice.chain([Union(_twin(q), DEAD) for q in parts], weights)
        case Union(parts) | Seq(parts):
            return type(p)(*map(_twin, parts))
        case Neg(b) | Star(b):
            return type(p)(_twin(b))
        case _:
            return p


def _coin(rng, u, field=None):
    d = u.field(field) if field else rng.choice(u.decls)
    parts = [Assign(d.name, rng.randrange(d.size)) for _ in range(rng.randrange(2, 4))]
    return Choice.chain(parts, [rng.choice(WEIGHTS) for _ in parts[1:]])


def _coin_program(rng, u, depth):
    """A random core program with coin chains (a field may recur in one),
    stars, ``p* ; t``, and unions of random branches after a chain, which
    read, write or ignore its fields."""
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.5:
            return random_program(rng, u, rng.randrange(3), stars=rng.randrange(2))
        return Seq(*[_coin(rng, u) for _ in range(rng.randrange(1, 4))], Skip())
    a, b = _coin_program(rng, u, depth - 1), _coin_program(rng, u, depth - 1)
    match rng.choice(("seq", "union", "branches", "choice", "star", "filtered")):
        case "seq":
            return Seq(a, b)
        case "union":
            return Union(a, b)
        case "branches":
            return Seq(a, union(*[random_program(rng, u, rng.randrange(3), stars=0)
                                  for _ in range(rng.randrange(2, 4))]))
        case "choice":
            return Choice(rng.choice(WEIGHTS), a, b)
        case "star":
            return Star(a)
    return Seq(Star(a), random_predicate(rng, u, 2))


def _same_rows_as_twin(p, u, inputs):
    want = cold_rows(_twin(p), u, inputs)
    k = cold_kernel(p, u)
    for a, row in zip(inputs, want):
        got = k.row(p, a)
        assert got == row, (pretty(p), sorted(a))
        _assert_reduced_integer_row(got)


def _guarded_flips(rng, fields):
    """A core's failure step at a bounded k, over the 3-valued counter c:
    each flag f in ``fields`` flips down, taking one from c, while c > 0."""
    decrement = union(Seq(Test("c", 2), Assign("c", 1)), Seq(Test("c", 1), Assign("c", 0)),
                      Seq(Test("c", 0), Skip()))
    return seq(*[Union(Seq(Neg(Test("c", 0)),
                           Choice(rng.choice(WEIGHTS), Assign(f, 1), Seq(Assign(f, 0), decrement))),
                       Seq(Test("c", 0), Assign(f, 1))) for f in fields])


def _flip_program(rng, u):
    """A random core program around a chain of guarded flips."""
    flips = _guarded_flips(rng, rng.sample(["f", "g", "h"], rng.randrange(1, 4)))
    body = random_program(rng, u, 2, stars=0)
    return rng.choice([
        Seq(flips, body),
        Seq(flips, union(*[random_program(rng, u, 2, stars=0) for _ in range(3)]),
            Assign("f", 1), Assign("g", 1)),
        Union(flips, body),
        Seq(body, flips),
        Star(Seq(flips, body)),
        Seq(Star(Seq(flips, body)), random_predicate(rng, u, 2)),
        Seq(flips, Star(Union(body, _coin(rng, u)))),
    ])


def test_coins_give_the_rows_of_their_eager_twins(uni8):
    u = uni8
    inputs = all_subsets(u)
    rng = random.Random(22)
    for _ in range(300):
        _same_rows_as_twin(_coin_program(rng, u, 2), u, inputs)
    # Chains of guarded flips over a counter, each flag a coin only while
    # the counter is above 0.
    u = PacketUniverse([FieldDecl(f, 2) for f in "fgh"] + [FieldDecl("c", 3)])
    inputs = [frozenset({i}) for i in range(u.packet_count)]
    inputs += [random_set(rng, u) for _ in range(24)]
    for _ in range(80):
        _same_rows_as_twin(_flip_program(rng, u), u, inputs)


def _same_f10_rows_as_twin(topo, k):
    for scheme in netlib.F10_VARIANTS:
        cm = netlib.build_case_model(scheme, netlib.topology_by_name(topo), k)
        p = desugar(cm.program)
        inputs = [frozenset({src}) for src in cm.in_packets]
        twin = cold_kernel(_twin(p), cm.universe)
        want = [twin.apply(a) for a in inputs]
        assert not [fn for fn in twin._state._fns.values() if "tables" in _closure(fn)]
        del twin
        kern = cold_kernel(p, cm.universe)
        for a, row in zip(inputs, want):
            assert kern.apply(a) == row
        del kern


@pytest.mark.parametrize("topo", ["abfattree20", "abfattree45"])
def test_f10_rows_at_k_inf_are_those_of_the_eager_twin(topo):
    # At k=inf every port flag of a core is a coin, and so is each ECMP
    # choice of an output port.
    _same_f10_rows_as_twin(topo, None)


@pytest.mark.parametrize("topo, k", [("abfattree20", k) for k in (1, 2, 3, 4)]
                         + [("abfattree45", k) for k in (1, 2)])
def test_f10_rows_at_a_bounded_k_are_those_of_the_eager_twin(topo, k):
    # At a bounded k, a core's guarded flips also decrement the budget: the
    # chain of them is one factor node over the core's flags and the budget.
    _same_f10_rows_as_twin(topo, k)


F0, F1 = Assign("f", 0), Assign("f", 1)
FLIP = Choice(Fraction(1, 4), F1, F0)  # f := 1 with chance 1/4


def _unsettled(k, p, a):
    """The row of ``p`` on ``a`` as its row function makes it, coins pending."""
    return k._state._rows(p)(a)


def test_two_live_branches_that_test_one_coin_give_two_outcomes(uni8):
    # Both branches pass h=0 on the base, so both are live and the coin is
    # flipped once, before the union: f=1 and f=0 each take one branch.
    # Flipped in each branch instead, the draws would be independent.
    u = uni8
    p = Seq(FLIP, Union(seq(Test("h", 0), Test("f", 1), Assign("g", 1)),
                        seq(Test("h", 0), Assign("g", 0), Test("f", 0))))
    a = frozenset({u.packet(f=0, g=0, h=0)})
    assert Kernel(p, u).row(p, a).as_dict() == {
        frozenset({u.packet(f=1, g=1, h=0)}): Fraction(1, 4),
        frozenset({u.packet(f=0, g=0, h=0)}): Fraction(3, 4)}
    _same_rows_as_twin(p, u, all_subsets(u))


def test_a_coin_on_the_empty_set_is_the_empty_set(uni8):
    k = Kernel(FLIP, uni8)
    assert _unsettled(k, FLIP, EMPTY).as_dict() == delta(EMPTY)
    assert k.row(FLIP, EMPTY).as_dict() == delta(EMPTY)


def test_a_second_coin_on_a_field_drops_the_first(uni8):
    u = uni8
    second = Choice(Fraction(2, 3), F0, F1)
    p = Seq(FLIP, Assign("g", 1), second)
    k = Kernel(p, u)
    for a in all_subsets(u)[1:]:
        (b,) = _unsettled(k, p, a).nums
        (c,) = _unsettled(k, second, a).nums
        assert isinstance(b, Pending) and b.factors == c.factors
    del k
    _same_rows_as_twin(p, u, all_subsets(u))


def test_a_coin_never_read_stays_pending_to_the_end(uni8):
    u = uni8
    p = seq(FLIP, Assign("g", 1), Union(Assign("h", 1), Assign("h", 0)))
    k = Kernel(p, u)
    a = frozenset({u.packet(f=0, g=0, h=0)})
    (b,) = _unsettled(k, p, a).nums
    assert isinstance(b, Pending) and len(b.base) == 2
    assert len(k.row(p, a).nums) == 2
    del k
    _same_rows_as_twin(p, u, all_subsets(u))


def test_a_coin_a_star_never_touches_stays_pending_past_it(uni8):
    # The star's body neither reads nor writes f, and neither does its
    # filter: the star runs on the base and the coin stays pending on
    # every outcome.
    u = uni8
    loop = Star(Choice(Fraction(1, 2), Assign("g", 1), Assign("h", 1)))
    for p in (Seq(FLIP, loop), Seq(FLIP, loop, Test("g", 1))):
        k = Kernel(p, u)
        for a in all_subsets(u)[1:]:
            assert all(isinstance(b, Pending) for b in _unsettled(k, p, a).nums), sorted(a)
        del k
        _same_rows_as_twin(p, u, all_subsets(u))


def _forcing_cases():
    """(name, program) for each point where a pending coin on f is flipped."""
    g1, h1 = Assign("g", 1), Assign("h", 1)
    return [
        ("a test of f", Seq(FLIP, Test("f", 1), g1)),
        ("a negated test of f", Seq(FLIP, Neg(Test("f", 1)), g1)),
        ("a union that writes f on one path", Seq(FLIP, Union(F0, g1))),
        ("a choice that writes f on one path", Seq(FLIP, Choice(Fraction(1, 2), F0, g1))),
        ("a union guarded by f", Seq(FLIP, Union(Seq(Test("f", 0), g1),
                                                  Seq(Test("f", 1), h1)))),
        ("two live branches that read f", Seq(FLIP, Union(Seq(Test("g", 0), Test("f", 1), h1),
                                                          Seq(Test("g", 0), g1)))),
        ("a star's input", Seq(FLIP, Star(Seq(Test("f", 1), Assign("f", 0), g1)))),
        ("a star body's output", Star(Seq(FLIP, Union(Test("f", 1), g1)))),
        # The coin's branch is compiled the first time a set with g=1 meets
        # the body, inside the body's row function.
        ("a star body's output, its coin compiled in the body",
         Star(Union(Seq(Test("g", 1), FLIP, Assign("g", 0)), Seq(Test("g", 0), h1)))),
        ("a filtered star's input", Seq(FLIP, Star(Choice(Fraction(1, 2), g1, h1)),
                                        Test("f", 0))),
        ("a product with a set", Union(FLIP, g1)),
        ("a product of two coins", Union(FLIP, Choice(Fraction(1, 3), Assign("g", 0), g1))),
        ("a product with the empty set", Union(FLIP, Seq(Test("g", 1), Drop()))),
        ("a product of rows that carry one coin", Seq(FLIP, Union(g1, h1))),
        ("apply and row", FLIP),
    ]


@pytest.mark.parametrize("name", [name for name, _ in _forcing_cases()])
def test_each_forcing_point_gives_the_rows_of_the_eager_twin(uni8, name):
    p = dict(_forcing_cases())[name]
    _same_rows_as_twin(p, uni8, all_subsets(uni8))


def test_two_branches_that_carry_one_coin_keep_it_pending(uni8):
    # Neither live branch reads or writes f: the union runs on the base and
    # the one coin stays pending on the united outcome.
    u = uni8
    p = dict(_forcing_cases())["a product of rows that carry one coin"]
    a = frozenset({u.packet(f=0, g=0, h=0)})
    (b,) = _unsettled(Kernel(p, u), p, a).nums
    assert b == Pending(frozenset({u.packet(f=0, g=1, h=0), u.packet(f=0, g=0, h=1)}),
                        b.factors)


def test_a_core_flips_only_the_flag_its_link_reads():
    # f10_0 at k=inf: a core flips all of its port flags, routing sets the
    # output port o, and the guarded topology then reads up_o alone: the
    # link leaves the other flags pending, and the hop's resets drop them.
    topo = netlib.abfattree20()
    cm = netlib.build_case_model(netlib.F10_0, topo, None)
    u = cm.universe
    core = min(s for s, layer in topo.layers.items() if layer == netlib.CORE)
    ports = sorted(l.srcport for l in topo.failable_links() if l.src == core)
    k = Kernel(desugar(cm.program), u)
    flips = seq(Test("sw", core), *netlib.case_failure(topo, None, Fraction(1, 4))
                .parts[0].parts[1:])
    o = ports[0]
    a = frozenset({u.packet(sw=core, pt=o, default=1, **{f"up{q}": 1 for q in ports})})
    (x,) = _unsettled(k, flips, a).nums
    assert [c[0] for c in x.factors] == sorted(field_bit(f"up{q}") for q in ports)
    guarded = netlib.topo_program(topo, guarded=True)
    row = k._state._pending(guarded)(x)
    assert sorted(len(b.factors) if isinstance(b, Pending) else 0 for b in row.nums) == [
        0, len(ports) - 1]
    assert row.prob(EMPTY) == Fraction(1, 4)


def test_each_union_plan_is_made_once_per_kernel(monkeypatch):
    # A union's set map or row function and its pending function share one
    # plan: on the f10_35 model at k=inf, whose routing unions meet pending
    # flags, no union's plan is made twice.
    made = []
    make = bigstep._State._make_union_plan
    monkeypatch.setattr(bigstep._State, "_make_union_plan",
                        lambda self, node: made.append(node) or make(self, node))
    cm = netlib.build_case_model(netlib.F10_35, netlib.abfattree20(), None)
    k = Kernel(desugar(cm.program), cm.universe)
    for s in cm.in_packets:
        k.apply(frozenset({s}))
    assert any(isinstance(key, Union) for key in k._state._pends)
    assert made and len(made) == len(set(made))


def test_a_factor_table_is_made_once_per_node_and_valuation(monkeypatch):
    # At k=4 a core's chain of guarded flips is a factor node keyed on the
    # budget: every packet that enters a core with one budget shares its
    # table, which is made once.
    made = []
    table = bigstep._table
    monkeypatch.setattr(bigstep, "_table", lambda fn, k, x, fields, *rest: (
        made.append((fn, k, fields)) or table(fn, k, x, fields, *rest)))
    cm = netlib.build_case_model(netlib.F10_3, netlib.abfattree20(), 4)
    kern = Kernel(desugar(cm.program), cm.universe)
    for src in cm.in_packets:
        kern.apply(frozenset({src}))
    keys = [(fn, k) for fn, k, _ in made]
    assert len(keys) == len(set(keys))
    flips = {fn for fn, _, fields in made if fields & field_bit("budget")}
    assert len(flips) == 1 and len([fn for fn, _, _ in made if fn in flips]) <= 5
    rows = [f for node, f in kern._state._fns.items() if isinstance(node, Seq)
            and (kern._state._factor_fields(node) or (0,))[0] & field_bit("budget")]
    entered = {a for f in rows for a in _closure(f)["memo"] if not isinstance(a, Pending)}
    assert len(entered) > 5


def test_rows_shared_across_untouched_fields_are_the_fresh_rows():
    # The universe has two fields, x and y, that no program names, so every
    # node shares its rows on one packet among the packets that differ in
    # them (and in the fields among f, g, h it never touches), moved there.
    # Each singleton row of one kernel, taken in a random order, must equal
    # the row of a fresh kernel that meets that input first, and the row of
    # the eager twin, which makes no pending input.  The coin programs hand
    # pending inputs on one packet to unions and sequences; in the last
    # ones, one union that ignores f meets one base under two coins on f
    # within one row.
    small = PacketUniverse([FieldDecl(f, 2) for f in "fgh"])
    u = PacketUniverse([FieldDecl("f", 2), FieldDecl("x", 3), FieldDecl("g", 2),
                        FieldDecl("h", 2), FieldDecl("y", 2)])
    rng = random.Random(31)
    singles = [frozenset({i}) for i in range(u.packet_count)]
    pending_hits = 0
    for n in range(66):
        p = (random_program(rng, small, rng.randrange(1, 5)) if n % 2
             else _coin_program(rng, small, 2))
        if n >= 60:
            q = Union(Seq(Test("g", 0), _coin(rng, small, "h")), Assign("g", 1))
            p = Union(Seq(Choice(Fraction(1, 4), F0, F1), q), Seq(Choice(Fraction(1, 3), F0, F1), q))
        rng.shuffle(singles)
        inputs = singles + [random_set(rng, u) for _ in range(4)]
        fresh = [cold_rows(p, u, [a])[0] for a in inputs]
        twins = cold_rows(_twin(p), u, inputs)
        k = cold_kernel(p, u)
        for a, row, twin_row in zip(inputs, fresh, twins):
            got = k.row(p, a)
            assert got == row, (pretty(p), [u.record(i) for i in a])
            assert got == twin_row, (pretty(p), [u.record(i) for i in a])
            _assert_reduced_integer_row(got)
        for fn in k._state._fns.values():
            c = _closure(fn)
            if "shared" in c:
                met = [x for x in c["memo"] if isinstance(x, Pending) and len(x.base) == 1]
                pending_hits += len(met) - sum(isinstance(key, tuple) for key in c["shared"])
        del k
    assert pending_hits > 0


def _interleaved(rng, u, n):
    """A deterministic sequence of ``n`` tests and runs of assignments; a
    run may assign a field twice."""
    parts = []
    while len(parts) < n:
        d = rng.choice(u.decls)
        if rng.random() < 0.3:
            parts.append(Test(d.name, rng.randrange(d.size)))
        else:
            names = [rng.choice(u.decls).name for _ in range(rng.randrange(1, 4))] + [d.name]
            parts += [Assign(f, rng.randrange(u.field(f).size)) for f in names]
    return parts


def test_a_run_of_assignments_is_one_rewrite_with_the_rows_of_its_parts(monkeypatch):
    # A deterministic sequence maps each maximal run of its assignments by
    # one ``modify`` over several fields: its set map is the fold of its
    # parts' maps, one part at a time.  Behind coin programs (those of
    # ``test_rows_shared_across_untouched_fields_are_the_fresh_rows``) and a
    # coin, such a sequence meets pending inputs and maps their bases; the
    # rows stay those of the eager twin, and of a fresh kernel.
    small = PacketUniverse([FieldDecl(f, 2) for f in "fgh"])
    u = PacketUniverse([FieldDecl("f", 2), FieldDecl("x", 3), FieldDecl("g", 2),
                        FieldDecl("h", 2), FieldDecl("y", 2)])
    rng = random.Random(41)
    modify, running, fused = PacketUniverse.modify, [0], []

    def counted(universe, a, name, value):
        if isinstance(name, tuple) and running[0]:
            fused.append(len(name))
        return modify(universe, a, name, value)

    def seq_run(state, i, y, run=bigstep._seq_run):
        running[0] += 1
        try:
            return run(state, i, y)
        finally:
            running[0] -= 1
    monkeypatch.setattr(PacketUniverse, "modify", counted)
    monkeypatch.setattr(bigstep, "_seq_run", seq_run)
    sets = [frozenset({i}) for i in range(u.packet_count)]
    for n in range(30):
        parts = _interleaved(rng, u, rng.randrange(3, 9))
        k = Kernel(Seq(*parts), u)
        m = k._state._set_map(Seq(*parts))
        for a in sets + [random_set(rng, u) for _ in range(6)]:
            b = a
            for q in parts:
                b = k._state._set_map(q)(b) if b else b
            assert m(a) == b, ([pretty(q) for q in parts], sorted(a))
    del k
    for n in range(40):
        p = (random_program(rng, small, rng.randrange(1, 4)) if n % 2
             else _coin_program(rng, small, 2))
        prog = Seq(p, _coin(rng, small), *_interleaved(rng, small, rng.randrange(3, 7)))
        inputs = sets[::3] + [random_set(rng, u) for _ in range(3)]
        twins = cold_rows(_twin(prog), u, inputs)
        fresh = [cold_rows(prog, u, [a])[0] for a in inputs]
        k = cold_kernel(prog, u)
        for a, twin_row, row in zip(inputs, twins, fresh):
            got = k.row(prog, a)
            assert got == twin_row, (pretty(prog), [u.record(i) for i in a])
            assert got == row
        del k
    assert fused and max(fused) > 2


def test_f10_latency_evaluates_a_node_once_per_valuation_it_touches(monkeypatch):
    # On the f10-latency model only the hop's increment touches the hop
    # counter, so each node below the hop that holds a choice is evaluated
    # once per valuation of the fields it touches (with the factors, on a
    # pending input), however many counter values meet it.
    evaluated = defaultdict(list)
    compile_rows, memoized, compiling = bigstep._State._compile_rows, bigstep._memoized, []

    def compiled(self, node, filt):
        compiling.append(node)
        try:
            return compile_rows(self, node, filt)
        finally:
            compiling.pop()

    def counted(fn, key, pending, memo=None, touched=None):
        seen = evaluated[compiling[-1]]
        return memoized(lambda a: seen.append(a) or fn(a), key,
                        lambda k, x: seen.append(x) or pending(k, x), memo, touched)
    monkeypatch.setattr(bigstep._State, "_compile_rows", compiled)
    monkeypatch.setattr(bigstep, "_memoized", counted)
    cm = netlib.build_case_model(netlib.F10_35, netlib.abfattree20(), None, counter=True)
    k = Kernel(desugar(cm.program), cm.universe)
    for src in cm.in_packets:
        k.apply(frozenset({src}))
    u = cm.universe
    counter = u.reader("counter")
    nodes = 0
    for node, inputs in evaluated.items():
        reads, writes, _, _ = footprint(node)
        if k._state._set_map(node) is not None or (reads | writes) & field_bit("counter"):
            continue
        nodes += 1
        touched = u.projector(reads | writes)
        keys = [(touched(min(a.base)), a.factors) if isinstance(a, Pending) else touched(min(a))
                for a in inputs if len(a.base if isinstance(a, Pending) else a) == 1]
        assert len(keys) == len(set(keys)), pretty(node)
    assert nodes > 10
    # The scheme meets 278 inputs over all 16 counter values, and is
    # evaluated on 54 of them.
    scheme = desugar(cm.scheme)
    met = _closure(k._state._fns[scheme])["memo"]
    assert len({counter(i) for a in met
                for i in (a.base if isinstance(a, Pending) else a)}) == 16
    assert 4 * len(evaluated[scheme]) < len(met)


def test_coin_chains_match_the_sampler(uni8):
    # The sampler shares no code with the kernel: each program's exact row
    # is within 3 standard errors of the sampled frequencies.
    u = uni8
    rng = random.Random(23)
    n = 300
    for i in range(20):
        chain = Seq(*[_coin(rng, u) for _ in range(3)])
        body = random_program(rng, u, 2, stars=0)
        p = rng.choice([Union(Seq(chain, body), random_program(rng, u, 1, stars=0)),
                        Seq(Star(Seq(chain, body)), random_predicate(rng, u, 1)),
                        Seq(chain, Star(Union(body, _coin(rng, u))))])
        a = random_set(rng, u)
        exact = Kernel(p, u).row(p, a).as_dict()
        est = estimate(p, a, u, n, seed=i)
        assert est.n_truncated == 0
        for b in exact.keys() | est.counts.keys():
            q = float(exact.get(b, 0))
            se = max((q * (1 - q) / n) ** 0.5, 1e-3)
            assert abs(est.prob(b) - q) <= 3 * se, (pretty(p), sorted(b))


# -- node code: compiled once per node and layout --------------------------------


def _compiled(monkeypatch) -> list:
    """The nodes ``_State._compile`` makes a set map for, in order."""
    made = []
    compile_ = bigstep._State._compile
    monkeypatch.setattr(bigstep._State, "_compile",
                        lambda self, node: made.append(node) or compile_(self, node))
    return made


def test_a_kernel_reuses_the_code_of_nodes_its_universe_lays_out_alike(monkeypatch):
    # At k=1 and k=2 the universes differ only in the size of ``budget``,
    # the last field: the second kernel compiles no set map for the shared
    # guarded topology, nor for any node that neither reads nor writes
    # the budget.
    made = _compiled(monkeypatch)
    topo = netlib.abfattree20()
    guarded = netlib.topo_program(topo, guarded=True)
    per_kernel = []
    for k in (1, 2):
        cm = netlib.build_case_model(netlib.F10_3, topo, k)
        kern = Kernel(desugar(cm.program), cm.universe)
        before = len(made)
        for s in cm.in_packets:
            kern.apply(frozenset({s}))
        per_kernel.append(made[before:])
    first, second = per_kernel
    assert guarded in first and guarded not in second
    assert len(second) == len(set(second)) and len(second) < len(first) / 2
    for node in set(first) & set(second):
        reads, writes, _, _ = footprint(node)
        assert (reads | writes) & field_bit("budget"), pretty(node)


def test_a_second_kernel_only_binds_state(monkeypatch):
    # Node code holds every fact of a node and its layout that a row or
    # pending function needs.  The k=2 cell of each scheme, built after its
    # k=1 cell, lays out every field but ``budget`` alike, so its kernel
    # calls ``_shares``, ``projector``, ``seq`` and ``footprint`` only while it
    # makes code (a node or kind that k=1 never reached, since k=2 takes
    # other paths, or a node that reads or writes the budget), or on a node
    # that reads or writes the budget.  It makes no code again that k=1
    # made for a node that does not, and its rows are a cold kernel's.  A
    # topology keeps the programs built from it, and a node its code while
    # it lives, so each scheme's cells share a topology of their own and
    # the cold kernel's model is built over a fresh one.
    budget = syntax_mod.field_bit("budget")
    code, making, made = bigstep._State._code, [], []

    def traced(self, node, kind, make):
        def maker(n):
            made.append((n, kind))
            making.append(n)
            try:
                return make(n)
            finally:
                making.pop()
        # a node's first footprint, for its code's mask, is made here
        making.append(None if hasattr(node, "_code") else node)
        try:
            return code(self, node, kind, maker)
        finally:
            making.pop()

    def touches(node):
        reads, writes, _, _ = syntax_mod.footprint(node)
        return bool((reads | writes) & budget)

    def counted(name, fn, on_budget):
        def wrapper(*args):
            if not any(making) and not on_budget(args):
                calls.append((name, args[1] if name == "projector" else pretty(args[0])))
            return fn(*args)
        return wrapper

    def cell(scheme, k, topo):
        cm = netlib.build_case_model(scheme, topo, k)
        kern = Kernel(desugar(cm.program), cm.universe)
        return kern, [kern.apply(frozenset({s})) for s in cm.in_packets]

    monkeypatch.setattr(bigstep._State, "_code", traced)
    for scheme in netlib.F10_VARIANTS:
        calls, topo = [], netlib.abfattree20()
        first = cell(scheme, 1, topo)
        before, n = set(made), len(made)
        assert (netlib.topo_program(topo, guarded=True), bigstep._MAP) in before
        with monkeypatch.context() as m:
            m.setattr(bigstep, "_shares", counted("_shares", bigstep._shares,
                                                  lambda a: touches(a[0])))
            m.setattr(PacketUniverse, "projector",
                      counted("projector", PacketUniverse.projector,
                              lambda a: bool(a[1] & budget)))
            m.setattr(bigstep, "seq", counted("seq", bigstep.seq, lambda a: False))
            m.setattr(bigstep, "footprint", counted("footprint", bigstep.footprint,
                                                    lambda a: touches(a[0])))
            second = cell(scheme, 2, topo)
        assert calls == [] and any(touches(x) for x, _ in made[n:])
        assert [(pretty(x), kind) for x, kind in set(made[n:]) & before if not touches(x)] == []
        rows = second[1]
        del first, second, before, made[:], topo
        gc.collect()
        assert not hasattr(netlib.topo_program(netlib.abfattree20(), guarded=True), "_code")
        assert cell(scheme, 2, netlib.abfattree20())[1] == rows


def _rows_by_record(p, u) -> dict:
    """The exact row of ``p`` on each packet of ``u``, with every packet
    as its record, so rows over two orders of one field set compare."""
    k = Kernel(p, u)
    key = lambda i: tuple(sorted(u.record(i).items()))
    out = {}
    for i in range(u.packet_count):
        row = k.row(p, frozenset({i})).as_dict()
        out[key(i)] = {frozenset(map(key, b)): q for b, q in row.items()}
    return out


def test_a_field_of_another_size_or_position_gets_fresh_code(monkeypatch):
    # Code is made per layout, the weight and size of each field a node
    # reads or writes: a universe that adds an untouched field reuses it,
    # one that reorders the fields or resizes one gets fresh code, which
    # checks the values again and gives the rows of the reordered packets.
    # (Its fields are its own, so no other test's nodes hold code for them.)
    made = _compiled(monkeypatch)
    f, g, h = "fresh_f", "fresh_g", "fresh_h"
    f4 = PacketUniverse([FieldDecl(f, 4), FieldDecl(g, 2)])
    wider = PacketUniverse([FieldDecl(f, 4), FieldDecl(g, 2), FieldDecl(h, 3)])
    reordered = PacketUniverse([FieldDecl(g, 2), FieldDecl(f, 4)])
    f2 = PacketUniverse([FieldDecl(f, 2), FieldDecl(g, 2)])
    test = Test(f, 3)
    p = Seq(Union(Seq(test, Assign(g, 1)), Seq(Test(f, 1), Assign(f, 3)), Test(g, 1)),
            Choice(Fraction(1, 3), Skip(), Assign(g, 0)))
    rows = _rows_by_record(p, f4)
    assert made.count(test) == 1
    k = Kernel(p, wider)
    for i in range(wider.packet_count):
        k.row(p, frozenset({i}))
    assert made.count(test) == 1
    assert _rows_by_record(p, reordered) == rows
    assert made.count(test) == 2
    with pytest.raises(UniverseError, match="out of range"):
        Kernel(p, f2).apply(frozenset({0}))


def test_node_code_goes_with_its_node():
    # Code is kept on its node and nowhere else, and refers to neither its
    # node nor a kernel: once the program and its kernel go, every node
    # goes at once, without the cycle collector, and no table of the
    # modules has grown.
    def tables():
        return {(mod.__name__, name): len(v) for mod in (bigstep, syntax_mod)
                for name, v in vars(mod).items()
                if isinstance(v, (dict, list, set)) and not name.startswith("__")}
    u = PacketUniverse([FieldDecl("code_f", 3), FieldDecl("code_g", 2)])
    Kernel(Skip(), u)  # the fields' footprint bits, made once per name
    before = tables()
    f, g = "code_f", "code_g"
    p = Seq(Union(Seq(Test(f, 2), Assign(g, 1)), Seq(Test(f, 0), Assign(f, 1))),
            Choice(Fraction(1, 2), Assign(f, 2), Star(Seq(Test(g, 0), Assign(g, 1)))),
            Star(Choice(Fraction(1, 4), Assign(g, 0), Assign(f, 0))))
    k = Kernel(p, u)
    for i in range(u.packet_count):
        k.row(p, frozenset({i}))
    nodes, stack = set(), [p]
    while stack:
        node = stack.pop()
        if node not in nodes:
            nodes.add(node)
            stack.extend(_parts(node))
    assert sum(hasattr(n, "_code") for n in nodes) > 5
    refs = [weakref.ref(n) for n in nodes]
    del node, nodes, stack
    gc.disable()
    try:
        del p, k
        assert [r() for r in refs if r() is not None] == []
    finally:
        gc.enable()
    after = tables()
    assert after.keys() == before.keys()
    assert all(after[name] <= n for name, n in before.items())


def _code_per_node(seed: int, pairs: int = 40) -> float:
    """The GC-tracked objects that the ``_code`` of the nodes of ``pairs``
    seeded random program pairs hold, each counted once, per distinct node
    of the programs, once each pair is decided and its kernels are freed.
    The walk stops at nodes, universes, classes and modules: their objects
    are not node code.  The fields are this function's own, so no node of
    another test holds code for them."""
    u = PacketUniverse([FieldDecl(f"light_{f}", 2) for f in "fgh"])
    spec, rng, programs = InputSpec.all_subsets(u.all_packets()), random.Random(seed), []
    for n in range(pairs):
        p = random_program(rng, u, rng.randrange(2, 5))
        q = Union(p, Drop()) if n % 2 else random_program(rng, u, rng.randrange(2, 5))
        equiv(p, q, spec, u)
        programs += [p, q]
    nodes, stack = set(), list(programs)
    while stack:
        node = stack.pop()
        if node not in nodes:
            nodes.add(node)
            stack.extend(_parts(node))
    stop = (syntax_mod.Program, PacketUniverse, type, type(sys))
    modules = {id(vars(m)) for m in list(sys.modules.values()) if m is not None}
    seen, held, stack = set(), 0, [n._code for n in nodes if hasattr(n, "_code")]
    while stack:
        x = stack.pop()
        if id(x) in seen or id(x) in modules or isinstance(x, stop):
            continue
        seen.add(id(x))
        held += gc.is_tracked(x)
        stack.extend(gc.get_referents(x))
    return held / len(nodes)


# ``_code_per_node(seed)`` of the kernel whose node code was only set maps,
# union and sequence plans and factor facts, each rounded down: the least
# over CPython 3.10 to 3.13 (which read 4.64-4.70, 4.85 and 4.83-4.93).
CODE_PER_NODE_BEFORE = {1: 4.63, 2: 4.84, 3: 4.83}


def test_node_code_stays_light():
    # Node code is tuples, ints, and partials of module functions; the
    # projectors it holds are the universe's.  Kept on live nodes it adds
    # work for the cycle collector, so now that it also holds what kernels
    # used to make each for itself, it still holds no more tracked objects
    # per node than it did then.
    for seed, before in CODE_PER_NODE_BEFORE.items():
        assert _code_per_node(seed) <= before


def test_every_grid_cell_after_the_others_has_the_rows_of_a_cold_kernel():
    # Each cell of the abfattree20 F10 resilience grid, its kernel built
    # while the other 17 cells' kernels live and have run, has the rows it
    # has when it runs alone, on code made for it alone.  A topology keeps
    # the programs built from it, and a node its code while it lives, so
    # each cell is built over a fresh topology.
    cells = [(k, scheme) for k in (0, 1, 2, 3, 4, None) for scheme in netlib.F10_VARIANTS]

    def run(cell):
        cm = netlib.build_case_model(cell[1], netlib.abfattree20(), cell[0])
        kern = Kernel(desugar(cm.program), cm.universe)
        return kern, [kern.apply(frozenset({s})).as_dict() for s in cm.in_packets]

    def cold():
        gc.collect()
        return not hasattr(netlib.topo_program(netlib.abfattree20(), guarded=True), "_code")

    alone = []
    for cell in cells:
        assert cold()
        alone.append(run(cell)[1])
    for cell, rows in zip(cells, alone):
        assert cold()
        others = [run(other)[0] for other in cells if other != cell]
        assert run(cell)[1] == rows
        del others


# -- kernel state: shared by the live kernels over equal universes ---------------


def test_a_state_goes_with_the_last_of_its_kernels():
    # Three kernels over three universes with equal fields share one state.
    # Row functions hold it weakly and kernels strongly, so with the
    # collector off it stays while one of them lives and goes, with its
    # entry in the table of states and every row and pending function, with
    # the last one.
    decls = [FieldDecl("life_f", 2), FieldDecl("life_g", 3)]
    f, g = "life_f", "life_g"
    flip = Choice(Fraction(1, 3), Assign(f, 1), Assign(f, 0))
    loop = Star(Choice(Fraction(1, 2), Assign(g, 1), Seq(Test(f, 0), Assign(g, 2))))
    programs = [Seq(flip, Union(Seq(Test(f, 1), Assign(g, 0)), Test(g, 1))),
                Seq(loop, Test(g, 2)), Seq(flip, loop)]
    key = (tuple(decls), star_mod.DEFAULT_STATE_BUDGET)
    assert key not in bigstep._STATES
    kernels = [Kernel(p, PacketUniverse(decls)) for p in programs]
    assert len({id(k._state) for k in kernels}) == 1 and key in bigstep._STATES
    for k in kernels:
        for i in range(k.universe.packet_count):
            k.apply(frozenset({i}))
    state = kernels[0]._state
    fns = [weakref.ref(fn) for fn in (*state._fns.values(), *state._pends.values())]
    assert len(fns) > len(programs) and state._pends and _tables(kernels[1])
    ref = weakref.ref(state)
    gc.disable()
    try:
        del k, state
        for _ in range(2):
            kernels.pop()
            assert ref() is not None and key in bigstep._STATES
        kernels.pop()
        assert ref() is None and key not in bigstep._STATES
        assert [r for r in fns if r() is not None] == []
    finally:
        gc.enable()


def test_kernels_with_other_budgets_never_share_a_state(uni8):
    # A state's budget refusals are those of a kernel alone: a kernel with
    # a budget of 3 states refuses the chain, with the counts it refuses it
    # with alone, though a kernel with the default budget over an equal
    # universe has solved it and lives.
    p = Star(Choice(Fraction(1, 2), Seq(Test("f", 0), Assign("f", 1)),
                    Choice(Fraction(1, 2), Assign("g", 1), Assign("h", 1))))
    a = frozenset({0})

    def refusal(k):
        with pytest.raises(BudgetExceededError) as info:
            k.apply(a)
        e = info.value
        counts = e.states_reached, e.states_expanded, e.accumulators
        del info, e  # the traceback holds this frame, and so the kernel
        return counts

    alone = refusal(cold_kernel(p, uni8, state_budget=3))
    assert alone[0] is not None
    solved = cold_kernel(p, uni8)
    row = solved.apply(a)
    small = Kernel(p, PacketUniverse(uni8.decls), state_budget=3)
    assert small._state is not solved._state
    assert refusal(small) == alone
    assert solved.apply(a) == row and Kernel(p, uni8)._state is solved._state


def test_a_refused_star_prints_the_start_of_its_text():
    # A do ... while holds its body twice, so the text of a star over 48
    # nested ones (the depth bound allows about that many) has some 2^48
    # pieces.  The refusal prints about EXCERPT_CHARS of it, cut with "…",
    # by a walk that stops there; a short program prints whole.
    head = Choice(Fraction(1, 2), Assign("f", 1), Assign("f", 2))
    body = Assign("g", 0)
    for n in range(48):
        body = do_while(body, Test("g", 1))
        if n == 5:
            shallow = Star(Seq(head, body))
    assert excerpt(head) == pretty(head)
    u = PacketUniverse([FieldDecl("f", 3), FieldDecl("g", 2)])
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError) as info:
        Kernel(Star(Seq(head, body)), u, state_budget=2).apply(frozenset({0}))
    assert time.perf_counter() - start < 1
    message, text = str(info.value), info.value.program_text
    del info  # the traceback holds the kernel
    assert len(message.encode()) < 1024 and message.endswith(f"(while analyzing: {text})")
    assert text.endswith("…") and pretty(shallow).startswith(text[:-1])


def test_a_negated_program_with_a_choice_is_named_by_the_start_of_its_text():
    # The kernel refuses !p for a p with a choice, and names p by its
    # excerpt: over 48 nested do ... while loops its whole text has some
    # 2^48 pieces.
    body = Choice(Fraction(1, 2), Assign("g", 0), Assign("g", 1))
    for _ in range(48):
        body = do_while(body, Test("g", 1))
    u = PacketUniverse([FieldDecl("f", 3), FieldDecl("g", 2)])
    with pytest.raises(WellFormednessError) as info:
        Kernel(Seq(Neg(body), Assign("f", 1)), u).apply(frozenset({0}))
    message = str(info.value)
    del info  # the traceback holds the kernel
    assert message == f"not a predicate: {excerpt(body)}" and len(message.encode()) < 1024


def test_delivery_cells_run_interleaved_have_the_rows_of_each_cell_alone():
    # Nine delivery cells, three schemes at three failure probabilities,
    # are nine programs over equal universes.  Their kernels, all alive and
    # asked for their ingress rows in turn, one row of each cell at a time,
    # share one state and give the rows each cell's kernel gives alone.
    topo = netlib.abfattree20()
    models = [netlib.build_case_model(scheme, topo, None, p)
              for p in (Fraction(1, 10), Fraction(3, 10), Fraction(1, 2))
              for scheme in netlib.F10_VARIANTS]
    programs = [desugar(cm.program) for cm in models]
    assert len(set(programs)) == 9
    assert len({cm.universe.decls for cm in models}) == 1
    inputs = [[frozenset({s}) for s in cm.in_packets] for cm in models]
    alone = [cold_rows(p, cm.universe, sets) for p, cm, sets in zip(programs, models, inputs)]
    kernels = [cold_kernel(programs[0], models[0].universe)]
    kernels += [Kernel(p, cm.universe) for p, cm in zip(programs[1:], models[1:])]
    assert len({id(k._state) for k in kernels}) == 1
    got = [[] for _ in kernels]
    for j in range(max(map(len, inputs))):
        for rows, k, sets in zip(got, kernels, inputs):
            if j < len(sets):
                rows.append(k.apply(sets[j]))
    assert got == alone


def test_a_sequence_stops_at_the_point_mass_on_the_empty_set(uni8, monkeypatch):
    # Every core program is strict, so the steps after one that gives the
    # empty set for sure are not run: the star's chain is never built.
    def refuse(*args, **kwargs):
        raise _PairChain
    monkeypatch.setattr(star_mod, "star_dist", refuse)
    coin = Star(Choice(Fraction(1, 2), Assign("f", 1), Assign("f", 0)))
    p = Seq(Drop(), coin)
    k = Kernel(p, uni8)
    for i in range(uni8.packet_count):
        assert k.row(p, frozenset({i})).as_dict() == delta(EMPTY)
    assert k.row(p, uni8.all_packets()).as_dict() == delta(EMPTY)
    with pytest.raises(_PairChain):
        k.row(coin, frozenset({0}))
    # A bind runs no step on the empty set, whether it is the point mass
    # or one outcome of a mixture.
    def step(a):
        assert a, "a step ran on the empty set"
        return Row(1, {frozenset({i + 1 for i in a}): 1})
    assert bigstep._bind(Row(1, {EMPTY: 1}), step).as_dict() == delta(EMPTY)
    mu = Row(3, {EMPTY: 1, frozenset({0}): 2})
    assert bigstep._bind(mu, step).as_dict() == {EMPTY: Fraction(1, 3),
                                                 frozenset({1}): Fraction(2, 3)}
