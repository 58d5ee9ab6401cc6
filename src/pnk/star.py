"""Iteration semantics via an absorbing chain over (current, accumulator) pairs.

One transition models one unrolling of ``p*``: from state (a, b) the chain
moves to (a', b | a) with the probability the body's kernel gives to a' on
input a.  A state is *saturated* once its accumulator can never grow again;
redirecting every saturated state (a, b) to a canonical absorbing state
(0, b) turns the chain into an absorbing one.  A state's row of absorption
probabilities (I - Q)^-1 R is the output distribution of ``p*`` from it;
``solve_absorption_row`` computes the wanted rows exactly, one strongly
connected class of the chain at a time (see ``linalg``).

The kernel builds this chain only for a star whose body has a choice.
Without one, the current set follows one path, and the star's row is the
point mass on its body's reachability closure, which the kernel computes
directly (see ``bigstep``); the chain gives the same row, and the tests
use it as the oracle for those stars.

Every row here is a ``Row`` (see ``row``).  ``explore`` keeps the body
row's denominator per state and its numerators on the edges; ``star_dist``
fills Q and R with those numerators, one denominator per transient state.
R's columns are the accumulator sets themselves, so the solve returns
reduced rows over the star's outcomes, and a star row is built without
``Fraction``s or any renumbering of its outcomes.

For ``p* ; t`` the accumulator gathers only the packets that pass the
predicate t: the filter ``keep`` is a callable (the kernel's is t's set
map, a -> restrict(t, a)), and b' = b | keep(a); an unfiltered star has
none.

The current-set process never reads the accumulator, so the row of a
state (a, {}) is the star's row on input a in every chain of the same (star,
filter).  ``star_dist`` puts the row of every unsaturated (a, {}) state it
solves in the caller's table for that (star, filter).  From a state (a, b)
the current sets then run as from (a, {}), and the final accumulator is
b | F, where F is the final accumulator from (a, {}); with a filter, b' =
b | keep(a) gathers the same way.  So the row of (a, b) is the table's
row of a joined with b (``row.joined``), and ``explore`` does not expand
any later state whose current set is in the table: it is a known state,
and the solve reads its row as it stands.

Once a table fills, most chains are one step long: every outcome a1 of
the body's row on the start a0, other than a0 itself, is in the table.
``star_dist`` then settles the start's row X by substitution (Daws, ICTAC
2004) and builds no chain (``_one_step``).  Let k be the accumulator after
the first step (keep(a0), or a0 unfiltered) and s the body row's weight on
a0, the self-loop.  From (a0, k) the current sets run as from the start,
so its row is X joined with k, which is X, since every outcome of X holds
k.  So X = s X + sum p1 (table[a1] | k) over the other outcomes: their
weighted sum, joined with k and renormalised by 1 - s, the mass that
leaves a0.  If s is the whole mass, the current set never leaves a0 and
X is the point mass on k.  Any other start goes through ``explore``,
``mark_saturated`` and ``solve_absorption_row``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import BudgetExceededError, SingularMatrixError
from .linalg import SparseMatrix, solve_absorption_row
from .row import Row, joined, mixture, ratio
from .universe import EMPTY, PacketSet

DEFAULT_STATE_BUDGET = 200_000


@dataclass
class PairStateGraph:
    """Reachable fragment of the pair chain from ``(a0, {})``.

    states[i] is the pair (current, accumulator); edges[i] lists
    (successor index, weight), the weights being the body row's numerators
    over its denominator ``dens[i]``, which they sum to (a known state's
    ``dens`` entry is its row's).  Every successor of an expanded state
    carries the same accumulator, b | a, or b | keep(a) under a filter;
    ``flat`` lists, in order, the expanded states whose successors keep
    their accumulator b.  ``known`` maps each state (a, b) left
    unexpanded, edgeless, to its row: the table's row of a joined with b.
    """

    states: list[tuple[PacketSet, PacketSet]]
    edges: list[list[tuple[int, object]]]
    dens: list = field(default_factory=list)
    start: int = 0
    saturated: list[bool] | None = None
    index: dict = field(default_factory=dict)
    known: dict = field(default_factory=dict)
    flat: list[int] = field(default_factory=list)


def explore(row_fn, a0: PacketSet, cap: int = DEFAULT_STATE_BUDGET,
            keep=None, program_text=None, table=None, start_row=None) -> PairStateGraph:
    """BFS closure of the pair chain from (a0, {}) under b' = b | a, or
    b' = b | keep(a) under the filter ``keep``, a callable (see the module).

    ``row_fn(a)`` must return the body kernel's ``Row`` on input ``a``;
    ``start_row``, if given, is its row on ``a0``.  A state (a, b) other
    than the start whose a is a key of ``table`` (current set -> solved
    row) is not expanded: it is known, with the table's row of a joined
    with b.  Raises BudgetExceededError, with the
    counts reached so far, when more than ``cap`` states become reachable.
    """
    if table is None:
        table = {}
    if start_row is None:
        start_row = row_fn(a0)
    start = (a0, EMPTY)
    index = {start: 0}
    states = [start]
    edges: list[list[tuple[int, object]]] = [[]]
    flat: list[int] = []
    dens: list = [1]
    known: dict = {}
    work = [0]  # grows while it is walked
    for sid in work:
        a, b = states[sid]
        b2 = b | (a if keep is None else keep(a))
        if len(b2) == len(b):  # b2 contains b: it is b
            flat.append(sid)
        row = row_fn(a) if sid else start_row
        dens[sid] = row.den
        out = []
        for a2, p in row.nums.items():
            succ = (a2, b2)
            tid = index.get(succ)
            if tid is None:
                tid = len(states)
                if tid >= cap:
                    text = program_text() if callable(program_text) else program_text
                    raise BudgetExceededError(
                        f"pair-state budget of {cap} states exceeded", text,
                        states_reached=tid + 1,
                        states_expanded=work.index(sid),
                        accumulators=len({b for _, b in states} | {b2}),
                    )
                index[succ] = tid
                states.append(succ)
                edges.append([])
                solved = table.get(a2)
                if solved is None:
                    dens.append(1)  # set when the state is expanded
                    work.append(tid)
                else:
                    row2 = known[tid] = joined(solved, b2)
                    dens.append(row2.den)
            out.append((tid, p))
        edges[sid] = out
    return PairStateGraph(states, edges, dens, 0, None, index, known, flat)


def mark_saturated(g: PairStateGraph) -> PairStateGraph:
    """Flag states whose accumulator has reached its final value.

    An expanded state grows iff its successors' accumulator differs from
    its own (it is not ``flat``), and a known state (a, b) iff its row is
    not the point mass on b.  A state can still grow iff it reaches (in
    zero or more steps) a growing state; saturation is the complement.  A
    growing state is never saturated, so only the edges of flat states
    matter: the walk goes back along them from the growing states they
    enter.
    """
    states, known, flat = g.states, g.known, g.flat
    sat = [False] * len(states)
    for i in flat:
        sat[i] = True
    for i, row in known.items():
        sat[i] = len(row.nums) == 1 and states[i][1] in row.nums
    if flat:
        edges = g.edges
        preds: dict = {}
        for i in flat:
            for j, _ in edges[i]:
                preds.setdefault(j, []).append(i)
        work = [j for j in preds if not sat[j]]
        for j in work:  # grows while it is walked
            for i in preds.get(j, ()):
                if sat[i]:
                    sat[i] = False
                    work.append(i)
    g.saturated = sat
    return g


def star_dist(row_fn, a0: PacketSet, cap: int = DEFAULT_STATE_BUDGET,
              keep=None, program_text=None, table=None) -> Row:
    """Output row of ``p*`` on input ``a0``.

    A start whose successors other than itself are all in ``table`` takes
    its row in one step (see the module).  Otherwise this explores the
    reachable pair chain, redirects saturated states to their canonical
    absorbing state, and solves the absorbing system for the rows of the
    start and of every other unsaturated state (a, {}).  Each row goes in
    ``table``.  With the filter ``keep`` (a callable, see
    ``explore``) of a predicate t, computes the composite ``p* ; t``.
    """
    if table is None:
        table = {}
    first = row_fn(a0)
    dist = _one_step(first, a0, cap, keep, table)
    if dist is not None:
        return _checked(table, a0, dist)
    g = mark_saturated(explore(row_fn, a0, cap, keep, program_text, table, first))
    sat = g.saturated
    if sat[g.start]:
        # The accumulator can never grow: the final value is the empty set.
        dist = table[a0] = Row(1, {EMPTY: 1})
        return dist

    # Q and R range over the unsaturated states, in exploration order.  R's
    # columns are the accumulators: a saturated state (a, b) is absorbed at
    # once in the column b, and a known state's row is its R row as it
    # stands.  Row t holds numerators over den[t].
    states, known, dens, edges = g.states, g.known, g.dens, g.edges
    order = [i for i, s in enumerate(sat) if not s]
    nt = len(order)
    # A transient state's index in Q; the identity while no saturated state
    # comes before a transient one.
    pos = range(nt) if order[-1] == nt - 1 else dict(zip(order, range(nt)))
    qrows, rrows, den = [], [], []
    # Unsaturated, unknown states (a, {}), the start first, go in the table.
    wanted: list[int] = []
    for i in order:
        den.append(dens[i])
        out = edges[i]
        if not out:  # a known state
            qrows.append({})
            rrows.append(known[i].nums)
            continue
        if not states[i][1]:
            wanted.append(len(qrows))
        q = {}
        r = 0
        for j, p in out:
            if sat[j]:
                r += p
            else:
                q[pos[j]] = p
        qrows.append(q)
        if not r:
            rrows.append({})
            continue
        if not q and r == den[-1]:  # absorbed at once: a reduced row
            den[-1] = r = 1
        # Every successor carries the same accumulator.
        rrows.append({states[out[0][0]][1]: r})
    Q = SparseMatrix(nt, nt, qrows)
    R = SparseMatrix(nt, len(set().union(*rrows)), rrows)
    rows = solve_absorption_row(Q, R, wanted, den=den)
    for t, row in zip(wanted, rows):
        _checked(table, states[order[t]][0], row)
    return table[a0]


def _one_step(row: Row, a0: PacketSet, cap: int, keep, table: dict):
    """The star's row on ``a0`` from the body's row on it, when every
    outcome other than ``a0`` is in ``table``, else None (see the module).
    The chain holds the start and a state per outcome, so a row of ``cap``
    outcomes or more is left to ``explore``, which enforces the budget."""
    nums = row.nums
    if len(nums) >= cap:
        return None
    terms = []
    for a1, p in nums.items():
        if a1 != a0:
            solved = table.get(a1)
            if solved is None:
                return None
            terms.append((p, solved))
    k = a0 if keep is None else keep(a0)
    s = nums.get(a0, 0)  # the self-loop
    if s == row.den:
        return Row(1, {k: 1})
    return joined(mixture(row.den - s, terms), k)


def _checked(table: dict, a: PacketSet, row: Row) -> Row:
    """``row``, put in ``table`` for ``a`` once its mass is checked."""
    total = sum(row.nums.values())
    if total != row.den:
        raise SingularMatrixError(
            f"the absorbing solve gave a star row of mass {total}/{row.den}, not 1")
    table[a] = row
    return row


def to_dot(g: PairStateGraph) -> str:
    """GraphViz dump; states labeled ``a|b``, saturated doubled, known dashed."""
    lines = ["digraph pairs {"]
    for i, pair in enumerate(g.states):
        label = "|".join("{%s}" % ",".join(map(str, sorted(s))) for s in pair)
        extra = ""
        if g.saturated is not None and g.saturated[i]:
            extra = ", peripheries=2"
        if i in g.known:
            extra += ", style=dashed"
        lines.append(f'  s{i} [label="{label}"{extra}];')
    for i, out in enumerate(g.edges):
        for j, p in sorted(out):
            lines.append(f'  s{i} -> s{j} [label="{ratio(p, g.dens[i])}"];')
    lines.append("}")
    return "\n".join(lines)
