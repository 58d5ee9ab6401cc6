import random
from fractions import Fraction

import pytest

from pnk.errors import DimensionError, SingularMatrixError
from pnk.linalg import (
    SparseMatrix, absorption_residual, convex, identity, mat_mul,
    power_series_absorption, solve_absorption, solve_absorption_row,
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


def _random_absorbing(rng, n, na):
    """Substochastic Q with row sums <= 1/2 plus R making rows stochastic."""
    q = SparseMatrix(n, n)
    r = SparseMatrix(n, na)
    for i in range(n):
        total = Fraction(0)
        for j in range(n):
            if rng.random() < 0.5:
                v = Fraction(rng.randrange(0, 5), 24)
                if total + v <= Fraction(1, 2):
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


def test_solve_matches_truncated_power_series():
    rng = random.Random(5)
    for _ in range(30):
        q, r = _random_absorbing(rng, 6, 2)
        qf = SparseMatrix(6, 6, [{j: float(v) for j, v in row.items()} for row in q.rows])
        rf = SparseMatrix(6, 2, [{j: float(v) for j, v in row.items()} for row in r.rows])
        a = solve_absorption(qf, rf, exact=False)
        series = power_series_absorption(qf, rf, 64)
        assert a.max_abs_diff(series) < 1e-9


def test_solution_independent_of_state_order():
    rng = random.Random(9)
    q, r = _random_absorbing(rng, 6, 2)
    a = solve_absorption(q, r)
    perm = list(range(6))
    rng.shuffle(perm)
    qp = SparseMatrix(6, 6)
    rp = SparseMatrix(6, 2)
    for i in range(6):
        for j, v in q.rows[i].items():
            qp.set(perm[i], perm[j], v)
        for j, v in r.rows[i].items():
            rp.set(perm[i], j, v)
    ap = solve_absorption(qp, rp)
    for i in range(6):
        assert ap.rows[perm[i]] == a.rows[i]


def test_row_solve_matches_full_solve():
    rng = random.Random(13)
    for _ in range(20):
        q, r = _random_absorbing(rng, 5, 3)
        a = solve_absorption(q, r)
        for i in range(5):
            assert solve_absorption_row(q, r, i) == a.rows[i]


def test_singular_system_detected():
    # A transient state that never reaches absorption.
    q = from_rows([[1]])
    r = from_rows([[0]])
    with pytest.raises(SingularMatrixError):
        solve_absorption(q, r)
