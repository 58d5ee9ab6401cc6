import math
import random
from fractions import Fraction

import pytest

from pnk import linalg
from pnk.errors import DimensionError, SingularMatrixError
from pnk.linalg import solve_absorption_row

from oracles import (
    SparseMatrix, absorption_residual, convex, fraction_row, identity, mat_mul,
    power_series_absorption, row_solve, solve_absorption,
)


def from_rows(rows):
    m = SparseMatrix(len(rows), len(rows[0]) if rows else 0)
    for i, r in enumerate(rows):
        for j, v in enumerate(r):
            m.set(i, j, Fraction(v))
    return m


def test_identity_is_neutral():
    a = from_rows([[Fraction(1, 3), Fraction(2, 3)], [0, 1]])
    assert mat_mul(identity(2), a) == a
    assert mat_mul(a, identity(2)) == a


def test_convex_degenerate_weight():
    a = from_rows([[1, 0], [0, 1]])
    b = from_rows([[0, 1], [1, 0]])
    assert convex(Fraction(1), a, b) == a
    assert convex(Fraction(0), a, b) == b


def test_stochastic_product_is_stochastic():
    rng = random.Random(11)
    for _ in range(50):
        def rand_stochastic(n):
            m = SparseMatrix(n, n)
            for i in range(n):
                cuts = sorted(rng.randrange(0, 13) for _ in range(n - 1))
                prev = 0
                for j, c in enumerate(cuts + [12]):
                    m.set(i, j, Fraction(c - prev, 12))
                    prev = c
            return m
        a, b = rand_stochastic(4), rand_stochastic(4)
        assert a.is_stochastic() and b.is_stochastic()
        assert mat_mul(a, b).is_stochastic()


def test_mat_mul_dimension_mismatch():
    with pytest.raises(DimensionError):
        mat_mul(SparseMatrix(2, 3), SparseMatrix(2, 3))


def test_solve_one_step_absorption():
    a = solve_absorption(from_rows([[0]]), from_rows([[1]]))
    assert a == from_rows([[1]])


def test_solve_geometric_series():
    a = solve_absorption(from_rows([[Fraction(1, 2)]]),
                         from_rows([[Fraction(1, 2)]]))
    assert a == from_rows([[1]])


def test_solve_two_state_symmetric():
    # Hand-derived: (I-Q) = [[1,-1/2],[-1/2,1]], inverse 4/3*[[1,1/2],[1/2,1]],
    # times R = diag(1/2) gives [[2/3,1/3],[1/3,2/3]].
    q = from_rows([[0, Fraction(1, 2)], [Fraction(1, 2), 0]])
    r = from_rows([[Fraction(1, 2), 0], [0, Fraction(1, 2)]])
    a = solve_absorption(q, r)
    assert a == from_rows([[Fraction(2, 3), Fraction(1, 3)],
                           [Fraction(1, 3), Fraction(2, 3)]])


def _random_absorbing(rng, n, na, q_mass=Fraction(1, 2)):
    """Substochastic Q with row sums <= q_mass (self-loops included) plus R
    making rows stochastic."""
    q = SparseMatrix(n, n)
    r = SparseMatrix(n, na)
    for i in range(n):
        total = Fraction(0)
        for j in range(n):
            if rng.random() < 0.5:
                v = Fraction(rng.randrange(0, 5), 24)
                if total + v <= q_mass:
                    q.set(i, j, v)
                    total += v
        rest = 1 - total
        cols = rng.sample(range(na), k=min(na, 2))
        share = rest / len(cols)
        for c in cols:
            r.add(i, c, share)
    return q, r


def test_solve_rows_are_stochastic_and_residual_zero():
    rng = random.Random(3)
    for _ in range(30):
        q, r = _random_absorbing(rng, 5, 3)
        a = solve_absorption(q, r)
        assert all(sum(row.values()) == 1 for row in a.rows)
        assert absorption_residual(q, r, a) == 0


def _floated(m):
    return SparseMatrix(m.nrows, m.ncols,
                        [{j: float(v) for j, v in row.items()} for row in m.rows])


def test_heavy_cyclic_chains_solve_exactly():
    # Rows send up to 23/24 of their mass back into the chain, self-loops
    # included, so most states lie on cycles and elimination fills in.
    rng = random.Random(17)
    for n in (8, 16, 24, 40):
        q, r = _random_absorbing(rng, n, 3, q_mass=Fraction(23, 24))
        a = solve_absorption(q, r)
        assert absorption_residual(q, r, a) == 0
        assert all(sum(row.values()) == 1 for row in a.rows)
        # The float copies, read as the rationals they are, are a chain
        # within rounding of this one, and so is their solution.
        af = solve_absorption(_floated(q), _floated(r))
        assert af.max_abs_diff(_floated(a)) <= 1e-12


def test_many_row_solve_matches_single_row_solves():
    # A many-row solve eliminates every state of a class, then solves them
    # all by back-substitution; each row must be the one the single-row
    # solve gives.
    rng = random.Random(19)
    for n in (8, 16, 24, 40):
        q, r = _random_absorbing(rng, n, 3, q_mass=Fraction(23, 24))
        single = [row_solve(q, r, i) for i in range(n)]
        assert solve_absorption(q, r).rows == single
        wanted = rng.sample(range(n), rng.randrange(2, n))
        assert row_solve(q, r, wanted) == [single[i] for i in wanted]
        qf, rf = _floated(q), _floated(r)
        for i, row in zip(wanted, row_solve(qf, rf, wanted)):
            assert row.keys() == single[i].keys()
            assert all(abs(v - float(single[i][j])) <= 1e-12 for j, v in row.items())


def test_solve_matches_truncated_power_series():
    rng = random.Random(5)
    for _ in range(30):
        q, r = _random_absorbing(rng, 6, 2)
        a = solve_absorption(q, r)
        series = power_series_absorption(_floated(q), _floated(r), 64)
        assert _floated(a).max_abs_diff(series) < 1e-9


def test_solution_independent_of_state_order():
    rng = random.Random(9)
    for n, q_mass in ((6, Fraction(1, 2)), (24, Fraction(23, 24))):
        q, r = _random_absorbing(rng, n, 2, q_mass)
        a = solve_absorption(q, r)
        perm = list(range(n))
        rng.shuffle(perm)
        qp = SparseMatrix(n, n)
        rp = SparseMatrix(n, 2)
        for i in range(n):
            for j, v in q.rows[i].items():
                qp.set(perm[i], perm[j], v)
            for j, v in r.rows[i].items():
                rp.set(perm[i], j, v)
        ap = solve_absorption(qp, rp)
        for i in range(n):
            assert ap.rows[perm[i]] == a.rows[i]


def test_row_solve_matches_full_solve():
    rng = random.Random(13)
    for _ in range(20):
        q, r = _random_absorbing(rng, 5, 3)
        a = solve_absorption(q, r)
        for i in range(5):
            assert row_solve(q, r, i) == a.rows[i]


def test_singular_system_detected():
    # A transient state that never reaches absorption.
    q = from_rows([[1]])
    r = from_rows([[0]])
    with pytest.raises(SingularMatrixError):
        solve_absorption(q, r)


@pytest.mark.parametrize("exact", [True, False])
def test_row_solve_detects_a_closed_class(exact):
    # State 0 absorbs with 1/2 and enters {1, 2} with 1/2; states 1 and 2
    # hand the chain back and forth and never absorb.  The chain is given
    # as Fractions or as floats, which ``integer_form`` reads exactly.
    half, one = (Fraction(1, 2), Fraction(1)) if exact else (0.5, 1.0)
    q = SparseMatrix(3, 3, [{1: half}, {2: one}, {1: one}])
    r = SparseMatrix(3, 1, [{0: half}, {}, {}])
    for start in range(3):
        with pytest.raises(SingularMatrixError):
            row_solve(q, r, start)


def test_row_solve_checks_dimensions():
    q = from_rows([[0, Fraction(1, 2)], [0, 0]])
    r = from_rows([[Fraction(1, 2)], [1]])
    assert row_solve(q, r, 0) == {0: 1}
    short = from_rows([[Fraction(1, 2)]])
    long = from_rows([[Fraction(1, 2)], [1], [1]])
    for rr, row in ((short, 0), (long, 0), (r, 2), (r, -1)):
        with pytest.raises(DimensionError):
            row_solve(q, rr, row)
    with pytest.raises(DimensionError):
        row_solve(SparseMatrix(2, 3), r, 0)


def test_closed_class_behind_an_absorbing_start_is_singular():
    # The start absorbs 1/2 and enters a closed 3-state class with random
    # weights (each row normalised by its sum).
    rng = random.Random(23)
    for _ in range(2000):
        def weights(k):
            w = [Fraction(rng.randrange(1, 100)) for _ in range(k)]
            total = sum(w)
            return [x / total for x in w]
        half = Fraction(1, 2)
        rows = [{j + 1: half * w for j, w in enumerate(weights(3))}]
        rows += [{j + 1: w for j, w in enumerate(weights(3))} for _ in range(3)]
        q = SparseMatrix(4, 4, rows)
        r = SparseMatrix(4, 1, [{0: half}, {}, {}, {}])
        with pytest.raises(SingularMatrixError):
            row_solve(q, r, 0)
        with pytest.raises(SingularMatrixError):
            solve_absorption(q, r)


# -- the class-by-class solve against the residual oracle --------------------


def _class_chain(rng, keys):
    """A random integer chain (Q, R, den) with self-loops, several cyclic
    classes and acyclic parts between them: the states fall into blocks in
    order, each a cycle with random chords or a run of one-state classes,
    and edges between blocks only go to later blocks, so each block's
    classes are classes of Q.  Every row sums to its denominator, and the
    first state of each block absorbs, as does each state that leaves only
    to itself, so every class absorbs.  R's columns are drawn from
    ``keys``.  Also returns the number of cyclic blocks."""
    n = rng.randrange(2, 40)
    cuts = sorted(rng.sample(range(1, n), rng.randrange(0, min(n - 1, 6))))
    blocks = [range(a, b) for a, b in zip([0, *cuts], [*cuts, n])]
    q = [dict() for _ in range(n)]
    r = [dict() for _ in range(n)]
    rings = 0
    for block in blocks:
        later = range(block.stop, n)
        cyclic = len(block) > 1 and rng.random() < 0.7
        rings += cyclic
        for i in block:
            targets = []
            if cyclic:  # the ring makes the block one class
                targets.append(block.start + (i - block.start + 1) % len(block))
                targets += rng.sample(block, rng.randrange(0, min(3, len(block))))
            elif i + 1 < block.stop and rng.random() < 0.8:
                targets.append(i + 1)
            if rng.random() < 0.4:
                targets.append(i)  # a self-loop
            if later and rng.random() < 0.5:
                targets += rng.sample(later, rng.randrange(1, min(3, len(later)) + 1))
            for j in targets:
                q[i][j] = q[i].get(j, 0) + rng.randrange(1, 6)
            if i == block.start or set(targets) <= {i} or rng.random() < 0.5:
                for key in rng.sample(keys, rng.randrange(1, 3)):
                    r[i][key] = r[i].get(key, 0) + rng.randrange(1, 6)
    den = [sum(a.values()) + sum(b.values()) for a, b in zip(q, r)]
    return (SparseMatrix(n, n, q), SparseMatrix(n, len(set().union(*r)), r), den,
            rings)


def _fractions(m, den):
    return SparseMatrix(m.nrows, m.ncols,
                        [{j: Fraction(v, d) for j, v in row.items()}
                         for row, d in zip(m.rows, den)])


@pytest.mark.parametrize("keyed", ["ints", "packet sets"])
def test_class_by_class_rows_have_zero_residual(keyed):
    # Every row of A = (I - Q)^-1 R at once, checked by A = QA + R with
    # mat_mul, exactly; then random wanted subsets and single rows, which
    # solve only the classes they reach, must be the same rows.
    rng = random.Random(31 if keyed == "ints" else 37)
    keys = (list(range(4)) if keyed == "ints"
            else [frozenset(rng.sample(range(8), rng.randrange(4))) for _ in range(6)])
    several = 0
    for _ in range(150):
        q, r, den, rings = _class_chain(rng, keys)
        n = q.nrows
        q0, r0 = q.copy(), r.copy()
        full = solve_absorption_row(q, r, range(n), den)
        assert (q, r) == (q0, r0)  # the solve changes neither matrix
        for row in full:
            assert sum(row.nums.values()) == row.den
            assert math.gcd(row.den, *row.nums.values()) == 1
            assert set(row.nums) <= set(keys)
        a = SparseMatrix(n, r.ncols, [fraction_row(row) for row in full])
        assert absorption_residual(_fractions(q, den), _fractions(r, den), a) == 0
        wanted = rng.sample(range(n), rng.randrange(1, n + 1))
        assert solve_absorption_row(q, r, wanted, den) == [full[i] for i in wanted]
        i = rng.randrange(n)
        assert solve_absorption_row(q, r, [i], den) == [full[i]]
        several += rings > 1
    assert several > 40


def test_a_closed_class_behind_an_acyclic_part_is_singular():
    # 0 -> 1 -> {2, 3}, where 2 and 3 hand the chain back and forth (3
    # with a self-loop) and never absorb; 0 and 1 absorb a part of their
    # mass in a packet-set column.
    out = frozenset({1})
    q = SparseMatrix(4, 4, [{1: 1}, {2: 1}, {3: 2}, {2: 1, 3: 1}])
    r = SparseMatrix(4, 1, [{out: 1}, {out: 1}, {}, {}])
    for start in range(4):
        with pytest.raises(SingularMatrixError):
            solve_absorption_row(q, r, [start], [2, 2, 2, 2])


@pytest.mark.parametrize("forward", [True, False])
def test_a_long_acyclic_chain_solves_without_recursion(forward):
    # 5,000 states in a line, each going on with 1/2 and absorbing with
    # 1/2 in the column of its parity; the last one absorbs at once.  Either
    # way, the walk over the classes is 5,000 states deep.
    n = 5000
    step = 1 if forward else -1
    end = n - 1 if forward else 0
    q = SparseMatrix(n, n, [{} if i == end else {i + step: 1} for i in range(n)])
    r = SparseMatrix(n, 2, [{i % 2: 2 if i == end else 1} for i in range(n)])
    start = n - 1 - end
    (row,) = solve_absorption_row(q, r, [start], [2] * n)
    # From the start, the chain absorbs at the k-th state with 1/2^(k+1),
    # and at the last one with the 1/2^(n-1) left.
    even = Fraction(2, 3) * (1 - Fraction(1, 4 ** (n // 2)))  # k = 0, 2, ..., n - 2
    odd = 1 - even
    if not forward:  # the start is state n - 1, which is odd
        even, odd = odd, even
    assert fraction_row(row) == {0: even, 1: odd}


def test_a_long_cycle_solves_without_recursion():
    # 2,000 states in a ring, each going on with 1/2 and absorbing with
    # 1/2 in the column of its parity.  The ring turned by one swaps the
    # parities, so from state 0, p = 1/2 + (1 - p)/2: p = 2/3.
    n = 2000
    q = SparseMatrix(n, n, [{(i + 1) % n: 1} for i in range(n)])
    r = SparseMatrix(n, 2, [{i % 2: 1} for i in range(n)])
    (row,) = solve_absorption_row(q, r, [0], [2] * n)
    assert fraction_row(row) == {0: Fraction(2, 3), 1: Fraction(1, 3)}
    rows = solve_absorption_row(q, r, [0, 1, n - 1], [2] * n)
    assert [fraction_row(x) for x in rows] == [
        {0: Fraction(2, 3), 1: Fraction(1, 3)}, {0: Fraction(1, 3), 1: Fraction(2, 3)},
        {0: Fraction(1, 3), 1: Fraction(2, 3)}]


def test_rows_given_as_a_generator_are_read_once():
    q = SparseMatrix(2, 2, [{1: 1}, {0: 1}])
    r = SparseMatrix(2, 2, [{0: 1}, {1: 1}])
    rows = solve_absorption_row(q, r, [0, 1], [2, 2])
    assert [fraction_row(x) for x in rows] == [
        {0: Fraction(2, 3), 1: Fraction(1, 3)}, {0: Fraction(1, 3), 1: Fraction(2, 3)}]
    assert solve_absorption_row(q, r, (i for i in [0, 1]), [2, 2]) == rows


def test_a_cyclic_class_is_eliminated_alike_whichever_rows_are_wanted(monkeypatch):
    # A 120-state ring with two random chords per state is one cyclic class.
    # Its eliminations, counted by the gcd reductions they make, are the
    # same whether one row or every row is wanted.
    rng = random.Random(31)
    n = 120
    qrows, rrows = [], []
    for i in range(n):
        q = {(i + 1) % n: rng.randrange(1, 9)}
        for j in rng.sample(range(n), 2):
            q[j] = q.get(j, 0) + rng.randrange(1, 9)
        qrows.append(q)
        rrows.append({i % 3: rng.randrange(1, 9)})
    den = [sum(q.values()) + sum(r.values()) for q, r in zip(qrows, rrows)]
    q, r = SparseMatrix(n, n, qrows), SparseMatrix(n, 3, rrows)
    calls = []

    def counted(*args):
        calls.append(1)
        return math.gcd(*args)

    monkeypatch.setattr(linalg, "gcd", counted)
    one = solve_absorption_row(q, r, [0], den)
    counts = [len(calls)]
    calls.clear()
    every = solve_absorption_row(q, r, range(n), den)
    counts.append(len(calls))
    assert counts[0] == counts[1] > 0
    assert one == every[:1]


# -- lumping a cyclic class ---------------------------------------------------


def _recorded_lumpings(monkeypatch):
    """(class size, blocks) of every lumping the solve makes from now on."""
    seen = []
    lumping = linalg._lumping

    def recorded(members, *args):
        rep = lumping(members, *args)
        seen.append((len(members), len(set(rep.values()))))
        return rep

    monkeypatch.setattr(linalg, "_lumping", recorded)
    return seen


def _unlumped(q, r, rows, den, monkeypatch):
    """The rows solved with every member of a class its own block."""
    with monkeypatch.context() as m:
        m.setattr(linalg, "_lumping", lambda members, *args: {k: k for k in members})
        return solve_absorption_row(q, r, rows, den)


def _copied_class(rng, keys):
    """A random chain whose states are symmetric copies of the states of a
    random cyclic base chain, and the list of each base state's copies.
    The base is a ring with random chords, and its R rows are drawn from
    two rows, so that states with one R row differ in their futures.  A
    copy of base state s has the R row of s and the mass of each base edge
    s -> s', both scaled by the copy's own factor, and the edge's mass is
    split at random over every copy of s', which are entered in a random
    order: the copies of s have equal normalised rows into the copies of
    each base state."""
    size = rng.randrange(2, 12)
    pool = [{key: rng.randrange(1, 6) for key in rng.sample(keys, 2)} for _ in range(2)]
    base_q, base_r = [], []
    for s in range(size):
        q = {(s + 1) % size: rng.randrange(3, 9)}
        for t in rng.sample(range(size), rng.randrange(0, min(3, size))):
            q[t] = q.get(t, 0) + rng.randrange(3, 9)
        base_q.append(q)
        base_r.append(rng.choice(pool) if s else {keys[-1]: 1})  # one R row is rare
    copies, n = [], 0
    for s in range(size):
        k = rng.randrange(1, 4)
        copies.append(list(range(n, n + k)))
        n += k
    qrows, rrows = [], []
    for s in range(size):
        for _ in copies[s]:
            f = rng.randrange(1, 4)
            q = {}
            for t, w in base_q[s].items():
                left, targets = f * w, copies[t][:]
                rng.shuffle(targets)
                for rest, j in enumerate(targets[:-1], start=1):
                    q[j] = rng.randrange(1, left - len(targets) + rest + 1)
                    left -= q[j]
                q[targets[-1]] = left
            items = list(q.items())
            rng.shuffle(items)
            qrows.append(dict(items))
            rrows.append({x: f * v for x, v in base_r[s].items()})
    den = [sum(a.values()) + sum(b.values()) for a, b in zip(qrows, rrows)]
    return (SparseMatrix(n, n, qrows), SparseMatrix(n, len(keys), rrows), den,
            copies)


def test_symmetric_copies_lump_and_keep_exact_rows(monkeypatch):
    # Every row of a chain of planted copies at once: zero residual, copies
    # of one base state get equal rows, and every row is the row solved with
    # no lumping.  The lumping merges copies, so the blocks never outnumber
    # the base states.
    rng = random.Random(41)
    keys = [frozenset({0}), frozenset({1, 2}), frozenset(), frozenset({3})]
    seen = _recorded_lumpings(monkeypatch)
    merged = 0
    for _ in range(150):
        q, r, den, copies = _copied_class(rng, keys)
        n = q.nrows
        seen.clear()
        full = solve_absorption_row(q, r, range(n), den)
        a = SparseMatrix(n, r.ncols, [fraction_row(row) for row in full])
        assert absorption_residual(_fractions(q, den), _fractions(r, den), a) == 0
        for group in copies:
            assert all(full[i] == full[group[0]] for i in group)
        assert full == _unlumped(q, r, range(n), den, monkeypatch)
        assert sum(blocks for _, blocks in seen) <= len(copies)
        merged += n > len(copies)
    assert merged > 100


def test_a_class_with_no_lumpable_states_keeps_its_rows(monkeypatch):
    # Random weights make every state of a ring with chords its own block,
    # and the rows are those solved with no lumping.
    rng = random.Random(43)
    seen = _recorded_lumpings(monkeypatch)
    for n in (2, 5, 30):
        qrows, rrows = [], []
        for i in range(n):
            q = {(i + 1) % n: rng.randrange(1, 1000)}
            for j in rng.sample(range(n), min(2, n)):
                q[j] = q.get(j, 0) + rng.randrange(1, 1000)
            qrows.append(q)
            rrows.append({i % 2: rng.randrange(1, 1000)})
        den = [sum(q.values()) + sum(r.values()) for q, r in zip(qrows, rrows)]
        q, r = SparseMatrix(n, n, qrows), SparseMatrix(n, 2, rrows)
        seen.clear()
        rows = solve_absorption_row(q, r, range(n), den)
        assert seen == [(n, n)]
        assert rows == _unlumped(q, r, range(n), den, monkeypatch)


def test_a_lumped_closed_class_is_still_singular(monkeypatch):
    # State 0 absorbs 1/2 and enters a closed class of 6 states that each
    # go to the next two with equal weights and never absorb: the class
    # lumps to one block, which must still raise.
    seen = _recorded_lumpings(monkeypatch)
    n = 7
    qrows = [{1: 1}] + [{1 + i % 6: 1, 1 + (i + 1) % 6: 1} for i in range(1, 7)]
    q = SparseMatrix(n, n, qrows)
    r = SparseMatrix(n, 1, [{0: 1}] + [{}] * 6)
    for start in range(n):
        with pytest.raises(SingularMatrixError):
            solve_absorption_row(q, r, [start], [2] * n)
    assert (6, 1) in seen


def test_lumping_a_ring_costs_about_linear_work(monkeypatch):
    # A ring where every state goes on with 1/2 and absorbs with 1/2 in
    # column 0, but state 0 absorbs in column 1: no two states lump, and a
    # refinement that re-signed every state until nothing changed would take
    # n rounds.  The work, counted by gcd calls, at most about doubles from
    # 500 to 1,000 states.  From state 0 the chain absorbs in column 1 with
    # 1/2 + 1/2^(n+1) + ... = (1/2) / (1 - 1/2^n).
    calls = []

    def counted(*args):
        calls.append(1)
        return math.gcd(*args)

    monkeypatch.setattr(linalg, "gcd", counted)
    counts = []
    for n in (500, 1000):
        q = SparseMatrix(n, n, [{(i + 1) % n: 1} for i in range(n)])
        r = SparseMatrix(n, 2, [{int(i == 0): 1} for i in range(n)])
        calls.clear()
        (row,) = solve_absorption_row(q, r, [0], [2] * n)
        counts.append(len(calls))
        assert row.prob(1) == Fraction(1, 2) / (1 - Fraction(1, 2 ** n))
    assert 0 < counts[1] <= 2.2 * counts[0]


def test_row_solve_checks_the_number_of_denominators():
    q = SparseMatrix(2, 2, [{1: 1}, {0: 1}])
    r = SparseMatrix(2, 2, [{0: 1}, {1: 1}])
    assert solve_absorption_row(q, r, [0], [2, 2])[0].prob(0) == Fraction(2, 3)
    for den in ([2], [2, 2, 2]):
        with pytest.raises(DimensionError):
            solve_absorption_row(q, r, [0], den)
