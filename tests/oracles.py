"""Independent oracles for the laws of the stochastic-matrix semantics.

A program's meaning is a stochastic matrix over packet sets, and three laws
tie the matrices of its parts to it: ``;`` is the matrix product
(``mat_mul``), ``+[r]`` the convex combination (``convex``), and the
absorption rows of ``p*`` the limit of a power series
(``power_series_absorption``).  ``dist_leq_bruteforce`` is the
distribution order by its definition, over every subset of the packets.
These four call no ``pnk`` function: the matrix they build is
``pnk.linalg``'s bare carrier, every method used on it is defined here, and
``test_source`` checks that they stay that way, so an oracle never shares
code with what it checks.  They are generic over ``Fraction``s and floats.

``row_solve`` is the ``Fraction`` entry to the engine's solve,
``linalg.solve_absorption_row``, which works on integer rows:
``integer_form`` moves each row onto the lcm of its denominators, and
``fraction_row`` turns a solved row back into ``Fraction``s.
``solve_absorption`` is every row of it as a matrix.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm

from pnk import linalg
from pnk.errors import DimensionError


class SparseMatrix(linalg.SparseMatrix):
    """The solve's carrier, with the methods only the tests use."""

    def set(self, i: int, j: int, v) -> None:
        if v == 0:
            self.rows[i].pop(j, None)
        else:
            self.rows[i][j] = v

    def add(self, i: int, j: int, v) -> None:
        self.set(i, j, self.rows[i].get(j, 0) + v)

    def row_sums(self) -> list:
        return [sum(r.values()) if r else 0 for r in self.rows]

    def is_stochastic(self, tol=0) -> bool:
        return all(abs(s - 1) <= tol for s in self.row_sums())

    def copy(self) -> "SparseMatrix":
        return SparseMatrix(self.nrows, self.ncols, [dict(r) for r in self.rows])

    def __eq__(self, other):
        return (
            isinstance(other, SparseMatrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and all(a == b for a, b in zip(self.rows, other.rows))
        )

    def max_abs_diff(self, other: "SparseMatrix"):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionError("matrix shapes differ")
        worst = 0
        for ra, rb in zip(self.rows, other.rows):
            for j in ra.keys() | rb.keys():
                d = abs(ra.get(j, 0) - rb.get(j, 0))
                if d > worst:
                    worst = d
        return worst

    def __repr__(self):
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={sum(map(len, self.rows))})"


def identity(n: int) -> SparseMatrix:
    m = SparseMatrix(n, n)
    for i in range(n):
        m.rows[i][i] = Fraction(1)
    return m


def mat_mul(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    if a.ncols != b.nrows:
        raise DimensionError(f"cannot multiply {a.ncols}-col by {b.nrows}-row")
    out = SparseMatrix(a.nrows, b.ncols)
    for i, ra in enumerate(a.rows):
        acc = out.rows[i]
        for k, v in ra.items():
            for j, w in b.rows[k].items():
                acc[j] = acc.get(j, 0) + v * w
        out.rows[i] = {j: v for j, v in acc.items() if v != 0}
    return out


def convex(r, a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    if (a.nrows, a.ncols) != (b.nrows, b.ncols):
        raise DimensionError("convex combination of different shapes")
    if not (0 <= r <= 1):
        raise DimensionError(f"weight {r} outside [0, 1]")
    s = 1 - r
    out = SparseMatrix(a.nrows, a.ncols)
    for i in range(a.nrows):
        acc = {}
        for j, v in a.rows[i].items():
            acc[j] = r * v
        for j, v in b.rows[i].items():
            acc[j] = acc.get(j, 0) + s * v
        out.rows[i] = {j: v for j, v in acc.items() if v != 0}
    return out


def power_series_absorption(Q: SparseMatrix, R: SparseMatrix, terms: int) -> SparseMatrix:
    """Truncated Neumann series sum_{k<terms} Q^k R."""
    acc = R.copy()
    for _ in range(terms - 1):
        nxt = mat_mul(Q, acc)
        for i in range(R.nrows):
            row = nxt.rows[i]
            for j, v in R.rows[i].items():
                row[j] = row.get(j, 0) + v
        acc = nxt
    return acc


def absorption_residual(Q: SparseMatrix, R: SparseMatrix, A: SparseMatrix):
    """Max-norm of (I - Q) A - R; exactly zero in rational mode."""
    QA = mat_mul(Q, A)
    worst = 0
    for i in range(A.nrows):
        cols = A.rows[i].keys() | QA.rows[i].keys() | R.rows[i].keys()
        for j in cols:
            d = abs(A.rows[i].get(j, 0) - QA.rows[i].get(j, 0) - R.rows[i].get(j, 0))
            if d > worst:
                worst = d
    return worst


def dist_leq_bruteforce(mu: dict, nu: dict, packets, tol: float = 0) -> bool:
    """mu <= nu (dicts from packet sets to probabilities) by the definition:
    mu(up a) <= nu(up a) + tol for every subset a of ``packets``."""
    packets = sorted(packets)
    for r in range(len(packets) + 1):
        for combo in itertools.combinations(packets, r):
            a = frozenset(combo)
            up_mu = sum(p for b, p in mu.items() if a <= b)
            up_nu = sum(p for b, p in nu.items() if a <= b)
            if up_mu > up_nu + tol:
                return False
    return True


# -- the Fraction entry to the solve ------------------------------------------


def integer_form(Q: SparseMatrix, R: SparseMatrix):
    """(Q', R', den): each row of Q and R over ``Fraction``s (or floats,
    read as the rationals they are) put on the lcm ``den[i]`` of its
    denominators, as integer numerators."""
    iq, ir, den = SparseMatrix(Q.nrows, Q.ncols), SparseMatrix(R.nrows, R.ncols), []
    for q, r, qi, ri in zip(Q.rows, R.rows, iq.rows, ir.rows):
        d = lcm(*[Fraction(v).denominator for v in (*q.values(), *r.values())])
        for src, dst in ((q, qi), (r, ri)):
            for j, v in src.items():
                v = Fraction(v)
                dst[j] = v.numerator * (d // v.denominator)
        den.append(d)
    return iq, ir, den


def fraction_row(row) -> dict:
    """Column -> ``Fraction`` probability of a solved row."""
    return {j: Fraction(v, row.den) for j, v in row.nums.items()}


def row_solve(q: SparseMatrix, r: SparseMatrix, rows):
    """``linalg.solve_absorption_row`` on matrices of ``Fraction``s or
    floats: the rows ``rows`` as dicts column -> ``Fraction``, or for an
    int ``rows`` that one row."""
    single = isinstance(rows, int)
    q, r, den = integer_form(q, r)
    out = linalg.solve_absorption_row(q, r, [rows] if single else rows, den)
    return fraction_row(out[0]) if single else list(map(fraction_row, out))


def solve_absorption(Q: SparseMatrix, R: SparseMatrix) -> SparseMatrix:
    """Absorption probabilities A = (I - Q)^-1 R of an absorbing chain over
    ``Fraction``s, every row by ``row_solve``: every transient state must
    reach an absorbing state, or the solve raises SingularMatrixError."""
    return SparseMatrix(Q.nrows, R.ncols, row_solve(Q, R, range(Q.nrows)))
