"""Sparse matrices over exact rationals or floats, and absorbing-chain solves.

Matrices are row-major: ``rows[i]`` is a dict column -> nonzero scalar.
The scalar type is whatever the entries carry (Fraction in exact mode,
float otherwise); the algorithms are generic over both.

``solve_absorption(Q, R)`` computes A = (I - Q)^-1 R by Gaussian
elimination with partial pivoting.  In exact mode the result is exact and
A = Q A + R holds with zero residual; in float mode the estimated residual
is reported on the result.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DimensionError, SingularMatrixError

_PIVOT_EPS = 1e-300


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


# -- Gaussian elimination ---------------------------------------------------


def _eliminate(rows: list[dict], rhs_width: int, exact: bool):
    """In-place forward elimination with partial pivoting on an augmented
    system.  ``rows[i]`` maps columns ``0..n-1`` (system) and ``n..n+rhs_width-1``
    (right-hand sides).  Returns the pivot order (list of row ids per column).
    """
    n = len(rows)
    # Occupancy index: system column -> set of undone row ids with a nonzero.
    occ: dict[int, set[int]] = {}
    for i, r in enumerate(rows):
        for j in r:
            if j < n:
                occ.setdefault(j, set()).add(i)
    done: list[bool] = [False] * n
    pivot_of_col: list[int] = [-1] * n
    for col in range(n):
        candidates = [i for i in occ.get(col, ()) if not done[i]]
        if not candidates:
            raise SingularMatrixError(f"no pivot for column {col}")
        pivot = max(candidates, key=lambda i: abs(rows[i][col]))
        pv = rows[pivot][col]
        if not exact and abs(pv) < _PIVOT_EPS:
            raise SingularMatrixError(f"pivot for column {col} is numerically zero")
        done[pivot] = True
        pivot_of_col[col] = pivot
        prow = rows[pivot]
        inv = (Fraction(1) / pv) if exact else (1.0 / pv)
        for j in list(prow):
            prow[j] = prow[j] * inv
        prow[col] = 1 if exact else 1.0
        for i in [i for i in occ.get(col, ()) if not done[i]]:
            factor = rows[i].pop(col)
            occ[col].discard(i)
            target = rows[i]
            for j, v in prow.items():
                if j == col:
                    continue
                nv = target.get(j, 0) - factor * v
                if nv == 0:
                    target.pop(j, None)
                    if j < n:
                        s = occ.get(j)
                        if s:
                            s.discard(i)
                else:
                    if j not in target and j < n:
                        occ.setdefault(j, set()).add(i)
                    target[j] = nv
    return pivot_of_col


def _back_substitute(rows: list[dict], pivot_of_col: list[int], rhs_width: int, exact: bool):
    """Back-substitution over an eliminated system; returns dense solution rows
    ``x[col][k]`` for each rhs k (as dicts col -> value)."""
    n = len(pivot_of_col)
    x: list[dict] = [dict() for _ in range(n)]
    for col in range(n - 1, -1, -1):
        r = rows[pivot_of_col[col]]
        sol: dict = {}
        for j, v in r.items():
            if j >= n:
                sol[j - n] = sol.get(j - n, 0) + v
            elif j != col:
                for k, xv in x[j].items():
                    nv = sol.get(k, 0) - v * xv
                    if nv == 0:
                        sol.pop(k, None)
                    else:
                        sol[k] = nv
        x[col] = sol
    return x


def solve_absorption(Q: SparseMatrix, R: SparseMatrix, exact: bool = True) -> SparseMatrix:
    """Absorption probabilities A = (I - Q)^-1 R of an absorbing chain.

    Q is the transient-to-transient block, R the transient-to-absorbing
    block; every transient state must reach an absorbing state (otherwise
    the system is singular, which signals a bug upstream).
    """
    n = Q.nrows
    if Q.ncols != n:
        raise DimensionError("Q must be square")
    if R.nrows != n:
        raise DimensionError("R must have as many rows as Q")
    rows: list[dict] = []
    one = Fraction(1) if exact else 1.0
    for i in range(n):
        r = {j: -v for j, v in Q.rows[i].items()}
        r[i] = r.get(i, 0) + one
        if r[i] == 0:
            del r[i]
        for j, v in R.rows[i].items():
            r[n + j] = v
        rows.append(r)
    pivots = _eliminate(rows, R.ncols, exact)
    x = _back_substitute(rows, pivots, R.ncols, exact)
    out = SparseMatrix(n, R.ncols)
    for i in range(n):
        out.rows[i] = {k: v for k, v in x[i].items() if v != 0}
    return out


def solve_absorption_row(Q: SparseMatrix, R: SparseMatrix, row: int, exact: bool = True) -> dict:
    """One row of (I - Q)^-1 R, via the transposed system (I - Q)^T y = e_row.

    Equivalent to ``solve_absorption(Q, R).rows[row]`` but solves a single
    right-hand side, which is what the star construction needs.
    """
    n = Q.nrows
    if Q.ncols != n:
        raise DimensionError("Q must be square")
    one = Fraction(1) if exact else 1.0
    rows: list[dict] = [dict() for _ in range(n)]
    for i in range(n):
        for j, v in Q.rows[i].items():
            rows[j][i] = -v
    for i in range(n):
        rows[i][i] = rows[i].get(i, 0) + one
        if rows[i][i] == 0:
            del rows[i][i]
    rows[row][n] = one  # single augmented column: e_row
    pivots = _eliminate(rows, 1, exact)
    x = _back_substitute(rows, pivots, 1, exact)
    y = {i: x[i][0] for i in range(n) if x[i].get(0, 0) != 0}
    dist: dict = {}
    for i, w in y.items():
        for j, v in R.rows[i].items():
            nv = dist.get(j, 0) + w * v
            if nv == 0:
                dist.pop(j, None)
            else:
                dist[j] = nv
    return dist


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
