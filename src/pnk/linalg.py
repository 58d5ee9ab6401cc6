"""Sparse matrices and exact absorbing-chain solves.

Matrices are row-major: ``rows[i]`` is a dict column -> nonzero scalar.
The scalar type is whatever the entries carry; ``mat_mul``, ``convex`` and
``power_series_absorption`` are generic over ``Fraction``s and floats, and
are independent checks of the laws for ``;``, ``+[r]`` and iteration.

``solve_absorption_row(Q, R, i, den=...)`` computes row i of
A = (I - Q)^-1 R by eliminating every other transient state from the chain,
fewest fill first.  It works on the pair chain's own rows: row i of Q and
R holds integer numerators over ``den[i]``.  It keeps one denominator per
row, reduces a row by its gcd after each fold, and returns reduced
``Row``s, so the result is exact and A = Q A + R holds with zero residual,
with no ``Fraction`` built.  ``solve_absorption`` is the thin wrapper for
``Fraction`` matrices: it moves each row onto the lcm of its denominators,
solves, and turns the rows back into ``Fraction``s.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .errors import DimensionError, SingularMatrixError
from .row import Row, ratio, reduced


class SparseMatrix:
    def __init__(self, nrows: int, ncols: int, rows=None):
        self.nrows = nrows
        self.ncols = ncols
        self.rows: list[dict] = rows if rows is not None else [dict() for _ in range(nrows)]

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i].get(j, 0)

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


def identity(n: int, one=Fraction(1)) -> SparseMatrix:
    m = SparseMatrix(n, n)
    for i in range(n):
        m.rows[i][i] = one
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


# -- state elimination ------------------------------------------------------


def solve_absorption(Q: SparseMatrix, R: SparseMatrix) -> SparseMatrix:
    """Absorption probabilities A = (I - Q)^-1 R of an absorbing chain.

    Q is the transient-to-transient block, R the transient-to-absorbing
    block, over ``Fraction``s; every transient state must reach an
    absorbing state (otherwise the system is singular, which signals a bug
    upstream).  The rows are those of ``solve_absorption_row`` on
    ``integer_form(Q, R)``, as ``Fraction``s.
    """
    Q, R, den = integer_form(Q, R)
    rows = solve_absorption_row(Q, R, range(Q.nrows), den)
    return SparseMatrix(Q.nrows, R.ncols, [fraction_row(r) for r in rows])


def integer_form(Q: SparseMatrix, R: SparseMatrix):
    """(Q', R', den): each row of Q and R over ``Fraction``s put on the lcm
    ``den[i]`` of its denominators, as integer numerators."""
    iq, ir, den = SparseMatrix(Q.nrows, Q.ncols), SparseMatrix(R.nrows, R.ncols), []
    for q, r, qi, ri in zip(Q.rows, R.rows, iq.rows, ir.rows):
        d = lcm(*[Fraction(v).denominator for v in (*q.values(), *r.values())])
        for src, dst in ((q, qi), (r, ri)):
            for j, v in src.items():
                v = Fraction(v)
                dst[j] = v.numerator * (d // v.denominator)
        den.append(d)
    return iq, ir, den


def fraction_row(row: Row) -> dict:
    """Column -> ``Fraction`` probability of a solved row."""
    return {j: ratio(v, row.den) for j, v in row.nums.items()}


def solve_absorption_row(Q: SparseMatrix, R: SparseMatrix, row, den=None):
    """Row ``row`` of (I - Q)^-1 R as a ``Row`` over absorbing columns, in
    column order; for a sequence of rows, the list of their rows.

    Row i of Q and R holds integer numerators over ``den[i]`` (1 for every
    row when ``den`` is None).  Removes every transient state from the chain, the
    unwanted ones first, each time the one with the fewest live
    predecessors x row entries (ties by index).  Removing state k folds
    q_ik / (1 - q_kk) * row_k into each predecessor i.  A removed wanted
    state keeps its row and stays a predecessor, so later removals
    back-substitute into it, among the wanted states only.  Entries are
    sums of positive terms, so none cancel: a state whose row is empty once
    its self-loop is popped lies in a closed class that never absorbs (the
    last one removed from such a class always is), and raises
    SingularMatrixError.
    """
    single = isinstance(row, int)
    wanted = (row,) if single else row
    n = Q.nrows
    if Q.ncols != n or R.nrows != n:
        raise DimensionError(f"Q is {n}x{Q.ncols} and R has {R.nrows} rows")
    for k in wanted:
        if not 0 <= k < n:
            raise DimensionError(f"row {k} outside a {n}-state chain")
    # rows[i] maps transient column j to q_ij and absorbing column j to r_ij
    # under key n + j, over denominator den[i]; pred[j] holds the live or
    # wanted i != j with q_ij != 0.
    den = [1] * n if den is None else list(den)
    rows: list = []
    pred: list[set[int]] = [set() for _ in range(n)]
    for i, (q, r) in enumerate(zip(Q.rows, R.rows)):
        for j in q:
            if j != i:
                pred[j].add(i)
        ri = dict(q)
        for j, v in r.items():
            ri[n + j] = v
        rows.append(ri)
    degree = [len(p) * len(r) for p, r in zip(pred, rows)]
    # held: the wanted states while others are live, then those removed.
    held = set(wanted)
    heap = [(d, k) for k, d in enumerate(degree) if k not in held]
    heapify(heap)
    last = False
    while heap or not last:
        if not heap:
            if len(held) < 2:
                break  # no other wanted state to remove: see below
            heap = [(degree[k], k) for k in held]
            heapify(heap)
            held = set()
            last = True
        deg, k = heappop(heap)
        if deg != degree[k] or rows[k] is None or k in held:
            continue  # a stale heap entry
        rk = rows[k]
        e = _pivot(rk, k, den[k])
        g = gcd(e, *rk.values())
        if g > 1:
            e //= g
            rk = {j: v // g for j, v in rk.items()}
        for i in pred[k]:
            ri = rows[i]
            c = ri.pop(k)
            g = gcd(c, e)
            c //= g
            m = e // g
            if m != 1:
                for j in ri:
                    ri[j] *= m
                den[i] *= m
            for j, v in rk.items():
                ri[j] = ri.get(j, 0) + c * v
            g = gcd(den[i], *ri.values())
            if g > 1:
                den[i] //= g
                for j in ri:
                    ri[j] //= g
        if last:
            rows[k], den[k] = rk, e
            held.add(k)
        else:
            rows[k] = None
        succ = [j for j in rk if j < n]
        for j in succ:
            if not last:
                pred[j].discard(k)
            pred[j].update(i for i in pred[k] if i != j)
        for i in (*pred[k], *succ):
            degree[i] = len(pred[i]) * len(rows[i])
            if i not in held:
                heappush(heap, (degree[i], i))
    if not last:
        for k in held:  # the one wanted state, alone in the chain
            den[k] = _pivot(rows[k], k, den[k])
    out = [reduced(den[k], {j - n: v for j, v in sorted(rows[k].items())})
           for k in wanted]
    return out[0] if single else out


def _pivot(r: dict, k: int, d: int) -> int:
    """Pops q_kk from row k, held over denominator d, and returns
    d * (1 - q_kk), which must be positive; a row with nothing left is a
    state that never absorbs."""
    e = d - r.pop(k, 0)
    if not r or e <= 0:
        raise SingularMatrixError(f"state {k} never absorbs (1 - q_kk = {e / d})")
    return e


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


def power_series_absorption(Q: SparseMatrix, R: SparseMatrix, terms: int) -> SparseMatrix:
    """Truncated Neumann series sum_{k<terms} Q^k R, an independent check."""
    acc = R.copy()
    for _ in range(terms - 1):
        nxt = mat_mul(Q, acc)
        for i in range(R.nrows):
            row = nxt.rows[i]
            for j, v in R.rows[i].items():
                row[j] = row.get(j, 0) + v
        acc = nxt
    return acc
