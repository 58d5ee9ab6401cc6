import random
from fractions import Fraction

import pytest

from pnk.analysis import dist_leq
from pnk import star as star_mod
from pnk.bigstep import Kernel
from pnk.errors import BudgetExceededError, SingularMatrixError
from pnk.row import Row
from pnk.star import explore, mark_saturated, star_dist, to_dot
from pnk.syntax import (
    Assign, Choice, Drop, Seq, Skip, Star, Test, Union, desugar, restrict,
)
from pnk.universe import EMPTY, FieldDecl, PacketUniverse

from conftest import cold_kernel, cold_rows, random_predicate, random_program, random_set
from oracles import SparseMatrix, mat_mul

UF = PacketUniverse([FieldDecl("f", 2)])
FLIP = Choice(Fraction(1, 2), Assign("f", 0), Assign("f", 1))


def body_row(p, u):
    k = Kernel(desugar(p), u)
    return lambda a: k.row(k.program, a)


def star_row(p, u, a, **kw):
    k = Kernel(desugar(Star(p)), u)
    return k.row(k.program, a).as_dict()


def test_worked_example_graph():
    u = UF
    pi0, pi1 = u.packet(f=0), u.packet(f=1)
    a0 = frozenset({pi0})
    g = mark_saturated(explore(body_row(FLIP, u), a0))
    expect = {
        (frozenset({pi0}), EMPTY),
        (frozenset({pi0}), frozenset({pi0})),
        (frozenset({pi1}), frozenset({pi0})),
        (frozenset({pi0}), frozenset({pi0, pi1})),
        (frozenset({pi1}), frozenset({pi0, pi1})),
    }
    assert set(g.states) == expect
    half = Fraction(1, 2)
    for i, out in enumerate(g.edges):
        assert sorted(Fraction(p, g.dens[i]) for _, p in out) == [half, half]
    # The two full-accumulator states are saturated and communicate.
    sat = {s for i, s in enumerate(g.states) if g.saturated[i]}
    assert sat == {(frozenset({pi0}), frozenset({pi0, pi1})),
                   (frozenset({pi1}), frozenset({pi0, pi1}))}
    idx = g.index
    i, j = idx[(frozenset({pi0}), frozenset({pi0, pi1}))], idx[(frozenset({pi1}), frozenset({pi0, pi1}))]
    assert any(t == j for t, _ in g.edges[i]) and any(t == i for t, _ in g.edges[j])


def test_a_chain_asks_the_body_for_the_start_row_once():
    # star_dist asks for the start's body row to try one step; when that
    # fails, explore takes the row it already has.  In the worked example
    # the current set returns to a0 under two other accumulators.
    u = UF
    a0 = frozenset({u.packet(f=0)})
    rows = body_row(FLIP, u)
    g = explore(rows, a0)
    expanded = sum(1 for i, (a, _) in enumerate(g.states) if a == a0 and i not in g.known)
    calls = []
    star_dist(lambda a: calls.append(a) or rows(a), a0)
    assert calls.count(a0) == expanded == 3


def test_worked_example_distribution():
    u = UF
    a0 = frozenset({u.packet(f=0)})
    assert star_row(FLIP, u, a0) == {u.all_packets(): Fraction(1)}


def test_star_of_skip_and_drop(uni2x2):
    rng = random.Random(0)
    for _ in range(20):
        a = random_set(rng, uni2x2)
        assert star_row(Skip(), uni2x2, a) == {a: Fraction(1)}
        assert star_row(Drop(), uni2x2, a) == {a: Fraction(1)}


def test_star_on_empty_input():
    g = explore(body_row(FLIP, UF), EMPTY)
    assert g.states == [(EMPTY, EMPTY)]
    assert g.edges[0] == [(0, Fraction(1))]
    assert star_row(FLIP, UF, EMPTY) == {EMPTY: Fraction(1)}


def test_budget_exceeded_names_program():
    # From ({0}, {}), the flip reaches ({0}, {0}) and then ({1}, {0}), the
    # third state, before the start state's expansion is done.
    with pytest.raises(BudgetExceededError) as err:
        star_dist(body_row(FLIP, UF), frozenset({0}), cap=2,
                  program_text=lambda: "offender")
    assert "offender" in str(err.value)
    e = err.value
    assert (e.states_reached, e.states_expanded, e.accumulators) == (3, 0, 2)
    assert "3 states reached, 0 expanded, 2 distinct accumulators" in str(e)
    # With room for the start state's successors, the chain expands it and
    # ({0}, {0}), and fails on ({0}, {0, 1}).
    with pytest.raises(BudgetExceededError) as err:
        star_dist(body_row(FLIP, UF), frozenset({0}), cap=3)
    e = err.value
    assert (e.states_reached, e.states_expanded, e.accumulators) == (4, 2, 3)


def test_star_row_mass_is_checked():
    # A body row that loses half its mass cannot come from a program; the
    # star row it induces has mass 1/2.
    with pytest.raises(SingularMatrixError):
        star_dist(lambda a: Row(2, {a: 1}), frozenset({0}))


def test_saturation_of_contained_states():
    # (a, b) with a <= b and every successor staying inside b is saturated.
    u = UF
    g = mark_saturated(explore(body_row(Skip(), u), frozenset({0})))
    for i, (a, b) in enumerate(g.states):
        if a <= b:
            assert g.saturated[i]
    # The start state (a, {}) with a nonempty is never saturated.
    assert not g.saturated[g.start]


def test_empty_current_states_are_saturated(uni2x2):
    rng = random.Random(1)
    for _ in range(50):
        p = random_program(rng, uni2x2, 2, stars=0)
        a0 = random_set(rng, uni2x2)
        g = mark_saturated(explore(body_row(p, uni2x2), a0))
        for i, (a, b) in enumerate(g.states):
            if a == EMPTY:
                assert g.saturated[i]


def test_fixed_point_equation(uni2x2):
    rng = random.Random(2)
    for _ in range(150):
        p = random_program(rng, uni2x2, 2, stars=0)
        q = Union(Skip(), Seq(p, Star(p)))
        inputs = [random_set(rng, uni2x2) for _ in range(3)]
        rows = cold_rows(desugar(Star(p)), uni2x2, inputs)
        kq = cold_kernel(desugar(q), uni2x2)
        for a, row in zip(inputs, rows):
            assert kq.apply(a).as_dict() == row.as_dict()
        del kq


def unrolling(p, n):
    out = Skip()
    for _ in range(n):
        out = Union(Skip(), Seq(p, out))
    return out


def test_unrollings_increase(uni2x2):
    rng = random.Random(3)
    for _ in range(100):
        p = random_program(rng, uni2x2, 2, stars=0)
        a = random_set(rng, uni2x2)
        prev = None
        for n in range(4):
            cur = Kernel(desugar(unrolling(p, n)), uni2x2).apply(a).as_dict()
            if prev is not None:
                assert dist_leq(prev, cur)
            prev = cur


def test_truncated_unrolling_converges_to_closed_form():
    # Contractive bodies: the n-th unrolling is within float tolerance of
    # the absorbing-chain answer for n = 64.
    u = UF
    cases = [FLIP, Choice(Fraction(1, 2), Assign("f", 0), Drop())]
    for p in cases:
        a = frozenset({u.packet(f=1)})
        exact = star_row(p, u, a)
        approx = Kernel(desugar(unrolling(p, 64)), u, exact=False).apply(a).as_dict()
        keys = set(exact) | set(approx)
        for b in keys:
            assert abs(float(exact.get(b, 0)) - approx.get(b, 0)) < 1e-9


# -- the chain-transform identity ------------------------------------------


def chain_matrices(g):
    """Explicit S and U over explored states plus canonical targets."""
    states = list(g.states)
    index = dict(g.index)

    def canon(b):
        s = (EMPTY, b)
        if s not in index:
            index[s] = len(states)
            states.append(s)
        return index[s]

    for i, (a, b) in enumerate(g.states):
        if g.saturated[i]:
            canon(b)
    n = len(states)
    explored = len(g.states)
    S = SparseMatrix(n, n)
    U = SparseMatrix(n, n)
    for i in range(n):
        if i < explored:
            for j, p in g.edges[i]:
                S.add(i, j, Fraction(p, g.dens[i]))
        else:
            S.add(i, i, Fraction(1))  # canonical (0, b) self-loops
    for i, (a, b) in enumerate(states):
        saturated = g.saturated[i] if i < explored else True
        if saturated:
            U.add(i, index[(EMPTY, b)], Fraction(1))
        else:
            U.add(i, i, Fraction(1))
    return S, U


def test_usu_equals_su(uni2x2):
    rng = random.Random(4)
    for _ in range(60):
        p = random_program(rng, uni2x2, 2, stars=0)
        a0 = random_set(rng, uni2x2)
        g = mark_saturated(explore(body_row(p, uni2x2), a0))
        S, U = chain_matrices(g)
        SU = mat_mul(S, U)
        assert mat_mul(U, SU) == SU


def test_accumulator_monotone_on_edges(uni2x2):
    rng = random.Random(5)
    for _ in range(100):
        p = random_program(rng, uni2x2, 2, stars=0)
        a0 = random_set(rng, uni2x2)
        g = explore(body_row(p, uni2x2), a0)
        for i, out in enumerate(g.edges):
            _, b = g.states[i]
            for j, _ in out:
                assert b <= g.states[j][1]


def test_explored_rows_sum_to_one(uni2x2):
    rng = random.Random(6)
    for _ in range(100):
        p = random_program(rng, uni2x2, 2, stars=0)
        g = explore(body_row(p, uni2x2), random_set(rng, uni2x2))
        for i, out in enumerate(g.edges):
            assert sum(p for _, p in out) == g.dens[i]


def test_filtered_star_matches_post_filter(uni2x2):
    # Pushing a trailing predicate into the accumulator must not change
    # the composite result.
    rng = random.Random(7)
    from conftest import random_predicate
    for _ in range(100):
        p = random_program(rng, uni2x2, 2, stars=0)
        t = random_predicate(rng, uni2x2, 2)
        a0 = random_set(rng, uni2x2)
        bt = restrict(t, uni2x2.all_packets(), uni2x2)
        composite = Kernel(desugar(Seq(Star(p), t)), uni2x2).apply(a0).as_dict()
        plain = star_row(p, uni2x2, a0)
        expected = {}
        for b, pr in plain.items():
            expected[b & bt] = expected.get(b & bt, 0) + pr
        assert composite == expected


def test_dot_dump_regression():
    u = UF
    g = mark_saturated(explore(body_row(FLIP, u), frozenset({u.packet(f=0)})))
    dot = to_dot(g)
    assert dot.startswith("digraph")
    assert dot.count("peripheries=2") == 2
    assert dot.count("->") == 10
    assert '"1/2"' in dot


def test_known_states_come_from_the_table():
    # Body: f:=0 (+) f:=1 over f in {0, 1, 2}, filter f=1.  From f=0 the
    # chain passes (f=1, {}), so its table holds the rows of f=0 and f=1.
    # The chain from f=2 then stops at both, and its row is unchanged.
    u = PacketUniverse([FieldDecl("f", 3)])
    body = body_row(FLIP, u)
    keep = lambda a: restrict(Test("f", 1), a, u)
    table = {}
    star_dist(body, frozenset({u.packet(f=0)}), keep=keep, table=table)
    assert set(table) == {frozenset({u.packet(f=0)}), frozenset({u.packet(f=1)})}
    a0 = frozenset({u.packet(f=2)})
    g = mark_saturated(explore(body, a0, keep=keep, table=table))
    assert sorted(g.states[i] for i in g.known) == [
        (frozenset({u.packet(f=0)}), EMPTY), (frozenset({u.packet(f=1)}), EMPTY)]
    assert all(g.edges[i] == [] for i in g.known)
    assert to_dot(g).count("style=dashed") == 2
    assert star_dist(body, a0, keep=keep, table=table) == \
        star_dist(body, a0, keep=keep)


# -- known states: the table row joined with the accumulator ----------------


def random_star_case(rng, u):
    """A random star-free body, a filter (None or the callable that
    restricts a set to a predicate) and the program whose rows the star
    chains of that body compute."""
    p = random_program(rng, u, 2, stars=0)
    if rng.random() < 0.5:
        return p, None, Star(p)
    t = random_predicate(rng, u, 2)
    return p, lambda a: restrict(t, a, u), Seq(Star(p), t)


def test_known_states_carry_the_table_row_joined_with_the_accumulator(uni2x2):
    rng = random.Random(8)
    joined_states = 0
    for _ in range(150):
        p, keep, whole = random_star_case(rng, uni2x2)
        body = body_row(p, uni2x2)
        table = {}
        for _ in range(5):
            star_dist(body, random_set(rng, uni2x2), keep=keep, table=table)
        g = explore(body, random_set(rng, uni2x2), keep=keep, table=table)
        fresh = Kernel(desugar(whole), uni2x2)
        for i, row in g.known.items():
            a, b = g.states[i]
            expected = {}
            for c, pr in fresh.apply(a).as_dict().items():
                expected[c | b] = expected.get(c | b, 0) + pr
            assert row.as_dict() == expected
            assert g.edges[i] == []
            joined_states += bool(b)
    assert joined_states > 30  # 42 with this seed


def test_prefilled_table_gives_the_same_rows(uni2x2):
    rng = random.Random(9)
    for _ in range(150):
        p, keep, _ = random_star_case(rng, uni2x2)
        others = [random_set(rng, uni2x2) for _ in range(3)]
        a0 = random_set(rng, uni2x2)
        body = body_row(p, uni2x2)
        table = {}
        for a in others:
            star_dist(body, a, keep=keep, table=table)
        filled = star_dist(body, a0, keep=keep, table=table)
        assert filled == star_dist(body, a0, keep=keep)


def test_saturation_read_off_the_chain_matches_the_filter_definition(uni2x2):
    # mark_saturated compares each expanded state's accumulator with its
    # successors'.  The definition it replaces reads the filter: a state
    # grows iff keep(a) is not contained in b, or it is a known state whose
    # row is not the point mass on b; it is saturated iff it reaches no
    # growing state.
    rng = random.Random(10)
    filtered = known = 0
    for _ in range(200):
        p, keep, _ = random_star_case(rng, uni2x2)
        body = body_row(p, uni2x2)
        table = {}
        for _ in range(rng.randrange(6)):
            star_dist(body, random_set(rng, uni2x2), keep=keep, table=table)
        g = mark_saturated(explore(body, random_set(rng, uni2x2), keep=keep,
                                   table=table))
        kept = (lambda a: a) if keep is None else keep
        unsat = {i for i, (a, b) in enumerate(g.states)
                 if not kept(a) <= b
                 or (i in g.known and g.known[i].nums.keys() != {b})}
        grew = True
        while grew:
            before = len(unsat)
            unsat |= {i for i, out in enumerate(g.edges)
                      if any(j in unsat for j, _ in out)}
            grew = len(unsat) > before
        assert g.saturated == [i not in unsat for i in range(len(g.states))]
        filtered += keep is not None
        known += bool(g.known)
    assert filtered > 50 and known > 20  # 96 and 31 with this seed


def test_explore_runs_without_a_table():
    g = mark_saturated(explore(body_row(FLIP, UF), frozenset({UF.packet(f=0)})))
    assert g.known == {} and len(g.states) == 5


# -- one-step rows: a start whose successors are all in the table ------------


class _Explored(Exception):
    pass


def _refuse(*args, **kwargs):
    raise _Explored


def _solved_successors(body, a0, keep):
    """A table holding the star row of every outcome of the body's row on
    ``a0`` other than ``a0``, each solved by its own chain, and not ``a0``."""
    table = {}
    for a1 in body(a0).nums:
        if a1 != a0 and a1 not in table:
            star_dist(body, a1, keep=keep, table=table)
    table.pop(a0, None)
    return table


def _without_explore(body, a0, keep=None, table=None):
    """``star_dist`` on ``a0`` with ``explore`` refused."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(star_mod, "explore", _refuse)
        return star_dist(body, a0, keep=keep, table=table)


def test_a_start_whose_successors_are_solved_takes_one_step(uni2x2):
    # Every successor's row is in the table, so the start's row is the
    # body row over them, the self-loop renormalised: no chain is built.
    # It equals the row of the chain built with an empty table.
    rng = random.Random(11)
    filtered = plain = loops = 0
    for _ in range(200):
        p, keep, _ = random_star_case(rng, uni2x2)
        body = body_row(p, uni2x2)
        a0 = random_set(rng, uni2x2)
        nums = body(a0).nums
        if nums.keys() <= {a0}:
            continue  # an empty table holds every successor: no chain to compare
        chain = star_dist(body, a0, keep=keep)
        table = _solved_successors(body, a0, keep)
        assert _without_explore(body, a0, keep, table) == chain
        assert table[a0] == chain
        filtered += keep is not None
        plain += keep is None
        loops += a0 in nums
    assert filtered > 50 and plain > 50 and loops > 15  # 73, 76 and 25 with this seed


def test_one_step_hand_cases():
    u = PacketUniverse([FieldDecl("f", 3)])
    f0, f1, f2 = (frozenset({u.packet(f=v)}) for v in range(3))
    half = Fraction(1, 2)
    keep = lambda a: restrict(Test("f", 1), a, u)
    # A self-loop of 1/2, then f:=1 or drop: the other half of the mass,
    # renormalised, joined with the start.
    body = body_row(Choice(half, Skip(), Choice(half, Assign("f", 1), Drop())), u)
    table = _solved_successors(body, f0, None)
    assert set(table) == {f1, EMPTY}
    got = _without_explore(body, f0, table=table)
    assert got == star_dist(body, f0) and got.as_dict() == {f0 | f1: half, f0: half}
    # The whole mass on the start (s = 1): the point mass on it, or on its
    # filtered part, empty here.
    skip = body_row(Skip(), u)
    assert _without_explore(skip, f0).as_dict() == {f0: 1}
    assert _without_explore(skip, f0, keep).as_dict() == {EMPTY: 1}
    # keep(a0) is empty: the successors' rows as they stand.
    flip = body_row(FLIP, u)
    got = _without_explore(flip, f0, keep, _solved_successors(flip, f0, keep))
    assert got == star_dist(flip, f0, keep=keep) and got.as_dict() == {f1: 1}
    # A lossy body loses mass, whose star row the mass check refuses.
    with pytest.raises(SingularMatrixError):
        _without_explore(lambda a: Row(4, {a: 1, f2: 1}), f0, table={f2: Row(1, {f2: 1})})


def _budget_counts(fn):
    """The counts of the BudgetExceededError ``fn`` raises, or None."""
    try:
        fn()
    except BudgetExceededError as e:
        return e.states_reached, e.states_expanded, e.accumulators
    return None


def test_a_budget_no_larger_than_the_start_row_is_still_enforced(uni2x2):
    # A chain of one step has one state more than the start's body row has
    # outcomes, so a budget of at most that many outcomes goes to explore,
    # which raises with the counts it reached, as it would with no rule.
    rng = random.Random(12)
    raised = 0
    for _ in range(150):
        p, keep, _ = random_star_case(rng, uni2x2)
        body = body_row(p, uni2x2)
        a0 = random_set(rng, uni2x2)
        table = _solved_successors(body, a0, keep)
        for cap in range(1, len(body(a0).nums) + 1):
            counts = _budget_counts(lambda: explore(body, a0, cap, keep, table=dict(table)))
            got = _budget_counts(lambda: star_dist(body, a0, cap, keep, table=dict(table)))
            assert got == counts
            raised += counts is not None
    assert raised > 100  # 174 with this seed
