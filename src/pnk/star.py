"""Iteration semantics via an absorbing chain over (current, accumulator) pairs.

One transition models one unrolling of ``p*``: from state (a, b) the chain
moves to (a', b | a) with the probability the body's kernel gives to a' on
input a.  A state is *saturated* once its accumulator can never grow again;
redirecting every saturated state (a, b) to a canonical absorbing state
(0, b) turns the chain into an absorbing one.  A state's row of absorption
probabilities (I - Q)^-1 R is the output distribution of ``p*`` from it;
``solve_absorption_row`` computes the wanted rows exactly by eliminating
the other transient states from the chain.

The kernel builds this chain only for a star whose body has a choice.
Without one, the current set follows one path, and the star's row is the
point mass on its body's reachability closure, which the kernel computes
directly (see ``bigstep``); the chain gives the same row, and the tests
use it as the oracle for those stars.

Every row here is a ``Row`` (see ``row``).  ``explore`` keeps the body
row's denominator per state and its numerators on the edges; ``star_dist``
fills Q and R with those numerators, one denominator per transient state,
and the solve returns reduced rows, so a star row is built without
``Fraction``s.

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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .errors import BudgetExceededError, SingularMatrixError
from .linalg import SparseMatrix, solve_absorption_row
from .row import Row, joined, ratio
from .universe import EMPTY, PacketSet

DEFAULT_STATE_BUDGET = 200_000


@dataclass
class PairStateGraph:
    """Reachable fragment of the pair chain from ``(a0, {})``.

    states[i] is the pair (current, accumulator); edges[i] lists
    (successor index, weight), the weights being the body row's numerators
    over its denominator ``dens[i]``, which they sum to (a known state's
    ``dens`` entry is its row's); preds[j] lists the states with an edge
    to j, in the order the edges were added.  Every successor of an
    expanded state carries the same accumulator, b | a, or b | keep(a)
    under a filter.  ``known`` maps each state (a, b) left unexpanded,
    edgeless, to its row: the table's row of a joined with b.
    """

    states: list[tuple[PacketSet, PacketSet]]
    edges: list[list[tuple[int, object]]]
    dens: list = field(default_factory=list)
    start: int = 0
    saturated: list[bool] | None = None
    index: dict = field(default_factory=dict)
    known: dict = field(default_factory=dict)
    preds: list[list[int]] = field(default_factory=list)


def explore(row_fn, a0: PacketSet, cap: int = DEFAULT_STATE_BUDGET,
            keep=None, program_text=None, table=None) -> PairStateGraph:
    """BFS closure of the pair chain from (a0, {}) under b' = b | a, or
    b' = b | keep(a) under the filter ``keep``, a callable (see the module).

    ``row_fn(a)`` must return the body kernel's ``Row`` on input ``a``.  A
    state (a, b) other than the start whose a is a key of ``table``
    (current set -> solved row) is not expanded: it is known, with the
    table's row of a joined with b.  Raises BudgetExceededError, with the
    counts reached so far, when more than ``cap`` states become reachable.
    """
    if table is None:
        table = {}
    start = (a0, EMPTY)
    index = {start: 0}
    states = [start]
    edges: list[list[tuple[int, object]]] = [[]]
    preds: list[list[int]] = [[]]
    dens: list = [1]
    known: dict = {}
    work = deque([0])
    expanded = 0
    while work:
        sid = work.popleft()
        a, b = states[sid]
        b2 = b | (a if keep is None else keep(a))
        row = row_fn(a)
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
                        states_reached=tid + 1, states_expanded=expanded,
                        accumulators=len({b for _, b in states} | {b2}),
                    )
                index[succ] = tid
                states.append(succ)
                edges.append([])
                preds.append([])
                solved = table.get(a2)
                if solved is None:
                    dens.append(1)  # set when the state is expanded
                    work.append(tid)
                else:
                    row2 = known[tid] = joined(solved, b2)
                    dens.append(row2.den)
            out.append((tid, p))
            preds[tid].append(sid)
        edges[sid] = out
        expanded += 1
    return PairStateGraph(states=states, edges=edges, dens=dens, start=0,
                          index=index, known=known, preds=preds)


def mark_saturated(g: PairStateGraph) -> PairStateGraph:
    """Flag states whose accumulator has reached its final value.

    An expanded state grows iff its successors' accumulator differs from
    its own, and a known state (a, b) iff its row is not the point mass on
    b.  A state can still grow iff it reaches (in zero or more steps) a
    growing state; saturation is the complement, computed by walking the
    predecessor lists back from the growing states.
    """
    states, edges, known, preds = g.states, g.edges, g.known, g.preds
    unsat = [False] * len(states)
    work = deque()
    for i, (_, b) in enumerate(states):
        row = known.get(i)
        if row is None:
            # The successors' accumulator contains b: it differs iff it is larger.
            grows = len(states[edges[i][0][0]][1]) != len(b)
        else:
            grows = row.nums.keys() != {b}
        if grows:
            unsat[i] = True
            work.append(i)
    while work:
        j = work.popleft()
        for i in preds[j]:
            if not unsat[i]:
                unsat[i] = True
                work.append(i)
    g.saturated = [not u for u in unsat]
    return g


def star_dist(row_fn, a0: PacketSet, cap: int = DEFAULT_STATE_BUDGET,
              keep=None, program_text=None, table=None) -> Row:
    """Output row of ``p*`` on input ``a0``.

    Explores the reachable pair chain, redirects saturated states to their
    canonical absorbing state, and solves the absorbing system for the rows
    of the start and of every other unsaturated state (a, {}), each of
    which goes in ``table``.  With the filter ``keep`` (a callable, see
    ``explore``) of a predicate t, computes the composite ``p* ; t``.
    """
    if table is None:
        table = {}
    g = mark_saturated(explore(row_fn, a0, cap=cap, keep=keep,
                               program_text=program_text, table=table))
    sat = g.saturated
    if sat[g.start]:
        # The accumulator can never grow: the final value is the empty set.
        dist = table[a0] = Row(1, {EMPTY: 1})
        return dist

    # Q and R range over the unsaturated states, in exploration order; a
    # saturated state (a, b) is absorbed at once in the column of its
    # accumulator b.  Row ti holds numerators over den[ti].
    states, known, dens = g.states, g.known, g.dens
    transient: dict[int, int] = {}
    for i, s in enumerate(sat):
        if not s:
            transient[i] = len(transient)
    abs_index: dict[PacketSet, int] = {}
    nt = len(transient)
    Q = SparseMatrix(nt, nt)
    R = SparseMatrix(nt, 0)
    den = [1] * nt
    # Unsaturated, unknown states (a, {}), the start first, go in the table.
    wanted: list[int] = []
    wanted_sets: list[PacketSet] = []
    for i, ti in transient.items():
        rrow = R.rows[ti]
        den[ti] = dens[i]
        if i in known:
            for b, p in known[i].nums.items():
                rrow[abs_index.setdefault(b, len(abs_index))] = p
            continue
        a, b = states[i]
        if not b:
            wanted.append(ti)
            wanted_sets.append(a)
        qrow = Q.rows[ti]
        for j, p in g.edges[i]:
            if sat[j]:
                c = abs_index.setdefault(states[j][1], len(abs_index))
                rrow[c] = rrow.get(c, 0) + p
            else:
                qrow[transient[j]] = p
    R.ncols = len(abs_index)
    abs_keys = list(abs_index)
    rows = solve_absorption_row(Q, R, wanted, den=den)
    for a, row in zip(wanted_sets, rows):
        total = sum(row.nums.values())
        if total != row.den:
            raise SingularMatrixError(
                f"the absorbing solve gave a star row of mass {total}/{row.den}, not 1")
        table[a] = Row(row.den, {abs_keys[c]: p for c, p in row.nums.items()})
    return table[a0]


def to_dot(g: PairStateGraph, labeler=None) -> str:
    """GraphViz dump; states labeled ``a|b``, saturated doubled, known dashed."""
    if labeler is None:
        labeler = lambda s: "{%s}" % ",".join(map(str, sorted(s)))
    lines = ["digraph pairs {"]
    for i, (a, b) in enumerate(g.states):
        label = f"{labeler(a)}|{labeler(b)}"
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
