"""The exact absorbing-chain solve.

``solve_absorption_row(Q, R, rows, den)`` computes the wanted rows of
A = (I - Q)^-1 R by state elimination ordered by the strongly connected
classes of Q (Daws, ICTAC 2004): it walks the classes that the wanted rows
reach, each after the classes it leaves to, solves a one-state class by
direct substitution, and eliminates the states of a cyclic class, fewest
fill first, then solves them by the same substitution from the last
removed back.  A cyclic class is first lumped: its states are partitioned
into the coarsest ordinary lumping (the probabilistic bisimulation of
Larsen and Skou, POPL 1989), refined by splitters (Valmari and
Franceschinis, TACAS 2010), and only one state per block is eliminated.
This is exact, because states in one block have equal absorption rows
(Kemeny and Snell, *Finite Markov Chains*, 1960).  It works on the pair
chain's own rows: row i of Q and R holds integer numerators over
``den[i]``, and R's columns are any hashable keys (a pair chain's are its
accumulator sets), which the solved rows keep.
Every solved row is a reduced ``Row``.  The weighted sums of solved rows,
each substitution and the exits a cyclic class's members fold into their
R rows, are ``row.mixture``s; the elimination inside a cyclic class keeps
one denominator per row and reduces a row by its gcd after each fold.  So
the result is exact and A = Q A + R holds with zero residual, with no
``Fraction`` built.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd

from .errors import DimensionError, SingularMatrixError
from .row import Row, mixture


class SparseMatrix:
    """Q or R of a chain: ``nrows`` x ``ncols``, row-major, ``rows[i]`` a
    dict column -> nonzero entry."""

    def __init__(self, nrows: int, ncols: int, rows=None):
        self.nrows = nrows
        self.ncols = ncols
        self.rows: list[dict] = rows if rows is not None else [dict() for _ in range(nrows)]


def solve_absorption_row(Q: SparseMatrix, R: SparseMatrix, rows, den) -> list:
    """The list of rows ``rows`` (an iterable of state indices, read once)
    of (I - Q)^-1 R, each a ``Row`` keyed by R's absorbing columns.

    Row i of Q and R holds integer numerators over ``den[i]``.  R's
    columns are any hashable keys (ints, or a pair chain's accumulator
    sets), and a solved row is keyed by them.  Only the strongly connected
    classes of Q that the wanted rows reach are solved, one at a time, each
    after every class it reaches (``_classes``).  Solved rows are reduced
    ``Row``s.  A one-state class is solved by substitution: A_k = (R_k +
    sum_j q_kj A_j) / (den_k - q_kk), one ``row.mixture``
    (``_substituted``).  A larger class is lumped into blocks of states
    with equal futures, whose representatives are eliminated, then solved
    by the same substitution from the last removed back; each other state
    takes its representative's row (``_solve_class``).  Entries are sums
    of positive terms, so none cancel: a state whose row is empty once its
    self-loop is popped lies in a closed class that never absorbs, and
    raises SingularMatrixError.  Q and R are not changed.
    """
    wanted = tuple(rows)
    n = Q.nrows
    if Q.ncols != n or R.nrows != n:
        raise DimensionError(f"Q is {n}x{Q.ncols} and R has {R.nrows} rows")
    for k in wanted:
        if not 0 <= k < n:
            raise DimensionError(f"row {k} outside a {n}-state chain")
    if len(den) != n:
        raise DimensionError(f"{len(den)} denominators for a {n}-state chain")
    qrows, rrows = Q.rows, R.rows
    solved: list = [None] * n  # solved[k]: the reduced row of state k
    for members in _classes(qrows, wanted):
        if len(members) == 1:
            k = members[0]
            solved[k] = _substituted(k, qrows[k], rrows[k], den[k], solved)
        else:
            _solve_class(members, qrows, rrows, den, solved)
    return [solved[k] for k in wanted]


def _classes(qrows: list, roots) -> list:
    """The strongly connected classes of Q that ``roots`` reach, each after
    every class it reaches, by an iterative Tarjan.  A class's states get a
    number past every depth-first number once it is emitted, so no
    on-stack flags are kept."""
    n = len(qrows)
    num = [0] * n
    low = [0] * n
    done = n + 1
    stack: list[int] = []
    classes: list = []
    count = 0
    for root in roots:
        if num[root]:
            continue
        count += 1
        num[root] = low[root] = count
        stack.append(root)
        work = [(root, iter(qrows[root]))]
        while work:
            v, succ = work[-1]
            for w in succ:
                if not num[w]:
                    count += 1
                    num[w] = low[w] = count
                    stack.append(w)
                    work.append((w, iter(qrows[w])))
                    break
                if num[w] < low[v]:
                    low[v] = num[w]
            else:
                work.pop()
                lv = low[v]
                if lv != num[v]:
                    u = work[-1][0]
                    if lv < low[u]:
                        low[u] = lv
                elif stack[-1] == v:
                    stack.pop()
                    num[v] = done
                    classes.append((v,))
                else:
                    members = []
                    while True:
                        w = stack.pop()
                        num[w] = done
                        members.append(w)
                        if w == v:
                            break
                    classes.append(members)
    return classes


def _substituted(k: int, q: dict, r: dict, d: int, solved: list) -> Row:
    """The row of state k, (R_k + sum_j q_kj A_j) / (den_k - q_kk), over
    the solved rows A_j of its other successors: k is alone in its class,
    or was removed from a cyclic class before each j (``_solve_class``)."""
    e = d - q.get(k, 0)
    out = [(c, solved[j]) for j, c in q.items() if j != k]
    if e <= 0 or not (out or r):
        raise SingularMatrixError(f"state {k} never absorbs (1 - q_kk = {e / d})")
    return mixture(e, [(1, Row(1, r)), *out])


def _solve_class(members, qrows: list, rrows: list, den: list,
                 solved: list) -> None:
    """Solves every row of a cyclic class.

    Each member's row keeps its Q entries inside the class; the solved rows
    of the states it leaves to are folded into its R row.  Then the class is
    lumped (``_lumping``), and only one representative per block is
    eliminated, with its Q row summed per block: members of one block of an
    ordinary lumping have equal absorption rows (Kemeny and Snell, *Finite
    Markov Chains*, 1960), so every other member takes its representative's
    solved row.  The representatives are removed one at a time, each time
    the one with the fewest live predecessors x row entries (ties by
    index).  Removing state k folds q_ik / (1 - q_kk) * row_k into each
    live predecessor i, and k keeps its row as it stands, whose Q entries
    are representatives removed after it.  So they are solved by
    substitution from the last removed back.
    """
    inside = set(members)
    qs, rs, ds = {}, {}, {}
    into: dict = {k: [] for k in members}  # into[j]: the members that enter j
    for i in members:
        qi, terms = {}, [(1, Row(1, rrows[i]))]
        for j, c in qrows[i].items():
            if j in inside:
                qi[j] = c
                into[j].append(i)
            else:
                terms.append((c, solved[j]))
        ri = mixture(1, terms)  # a fresh dict: the loop below changes it
        m = ri.den
        if m != 1:
            qi = {j: c * m for j, c in qi.items()}
        qs[i], rs[i], ds[i] = qi, ri.nums, den[i] * m
    rep = _lumping(members, qs, rs, ds, into)
    reps = [k for k in members if rep[k] == k]
    pred: dict = {k: set() for k in reps}
    for i in reps:
        qi = {}
        for j, c in qs[i].items():
            j = rep[j]
            qi[j] = qi.get(j, 0) + c
            if j != i:
                pred[j].add(i)
        qs[i] = qi
    degree = {k: len(pred[k]) * (len(qs[k]) + len(rs[k])) for k in reps}
    heap = [(d, k) for k, d in degree.items()]
    heapify(heap)
    removed = []
    while heap:
        deg, k = heappop(heap)
        if degree.get(k) != deg:
            continue  # a stale heap entry, or a removed state
        del degree[k]
        qk, rk = qs[k], rs[k]
        e = _pivot(qk, rk, k, ds[k])
        g = gcd(e, *qk.values(), *rk.values())
        if g > 1:
            e //= g
            qk = {j: v // g for j, v in qk.items()}
            rk = {x: v // g for x, v in rk.items()}
        for i in pred[k]:
            qi, ri = qs[i], rs[i]
            c = qi.pop(k)
            g = gcd(c, e)
            c //= g
            m = e // g
            if m != 1:
                for j in qi:
                    qi[j] *= m
                for x in ri:
                    ri[x] *= m
                ds[i] *= m
            for j, v in qk.items():
                qi[j] = qi.get(j, 0) + c * v
            for x, v in rk.items():
                ri[x] = ri.get(x, 0) + c * v
            g = gcd(ds[i], *qi.values(), *ri.values())
            if g > 1:
                ds[i] //= g
                for j in qi:
                    qi[j] //= g
                for x in ri:
                    ri[x] //= g
        removed.append((k, qk, rk, e))
        for j in qk:
            pred[j].discard(k)
            pred[j].update(i for i in pred[k] if i != j)
        for i in (*pred[k], *qk):
            degree[i] = len(pred[i]) * (len(qs[i]) + len(rs[i]))
            heappush(heap, (degree[i], i))
    for k, qk, rk, e in reversed(removed):
        solved[k] = _substituted(k, qk, rk, e, solved)
    for k in members:
        solved[k] = solved[rep[k]]


def _lumping(members, qs: dict, rs: dict, ds: dict, into: dict) -> dict:
    """Member -> the least member of its block in the coarsest ordinary
    lumping of a cyclic class whose member i has Q row ``qs[i]`` inside the
    class and R row ``rs[i]``, over ``ds[i]``.  Members share a block when
    they have the same R row and the same Q mass into every block: the
    probabilistic bisimulation of Larsen and Skou (POPL 1989).

    The blocks start as the members with equal R rows and are refined by
    splitters (Valmari and Franceschinis, *Simple O(m log n) Time Markov
    Chain Lumping*, TACAS 2010): the members that enter a splitter
    (``into``) sum their mass into it, and each block they are in splits
    by that mass.  As in Hopcroft's algorithm, the largest part keeps the
    block's id and every other part is a new splitter, so a member is in
    at most 1 + log2(n) splitters.  Weights are compared as reduced integer
    pairs, never as ``Fraction``s."""
    first: dict = {}
    for i in members:
        key = frozenset((x, _weight(v, ds[i])) for x, v in rs[i].items())
        first.setdefault(key, []).append(i)
    blocks = [set(part) for part in first.values()]
    block = {i: b for b, part in enumerate(blocks) for i in part}
    queue = list(range(len(blocks)))
    while queue:
        mass: dict = {}
        for j in blocks[queue.pop()]:
            for i in into[j]:
                mass[i] = mass.get(i, 0) + qs[i][j]
        split: dict = {}
        for i, v in mass.items():
            split.setdefault(block[i], {}).setdefault(_weight(v, ds[i]), []).append(i)
        for b, by in split.items():
            old, parts = blocks[b], sorted(by.values(), key=len)
            rest = len(old) - sum(map(len, parts))  # no mass into the splitter
            if not rest and len(parts) == 1:
                continue
            for part in parts:
                old.difference_update(part)
            if rest < len(parts[-1]):  # the largest part keeps b
                blocks[b] = set(parts.pop())
                if old:
                    parts.append(old)
            for part in parts:
                block.update(dict.fromkeys(part, len(blocks)))
                queue.append(len(blocks))
                blocks.append(set(part))
    rep = {}
    for part in blocks:
        rep.update(dict.fromkeys(part, min(part)))
    return rep


def _weight(v: int, d: int) -> tuple:
    """The weight v / d as a reduced integer pair."""
    g = gcd(v, d)
    return v // g, d // g


def _pivot(q: dict, r: dict, k: int, d: int) -> int:
    """Pops q_kk from row k, held over denominator d, and returns
    d * (1 - q_kk), which must be positive; a row with nothing left is a
    state that never absorbs."""
    e = d - q.pop(k, 0)
    if not (q or r) or e <= 0:
        raise SingularMatrixError(f"state {k} never absorbs (1 - q_kk = {e / d})")
    return e
