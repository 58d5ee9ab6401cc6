import random
from fractions import Fraction

import pytest

from pnk.errors import DimensionError, SingularMatrixError
from pnk.linalg import (
    SparseMatrix, absorption_residual, convex, fraction_row, identity,
    integer_form, mat_mul, power_series_absorption, solve_absorption,
    solve_absorption_row,
)


def row_solve(q, r, rows):
    """``solve_absorption_row`` on matrices of ``Fraction``s (or floats,
    read as the rationals they are): the input goes through
    ``integer_form``, and the solved rows come back as dicts column ->
    ``Fraction``."""
    q, r, den = integer_form(q, r)
    out = solve_absorption_row(q, r, rows, den)
    return fraction_row(out) if isinstance(rows, int) else list(map(fraction_row, out))


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
    # A many-row solve eliminates the other states first, then the wanted
    # ones, and back-substitutes among them; each row must be the one the
    # single-row solve gives.
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
