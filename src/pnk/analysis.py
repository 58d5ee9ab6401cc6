"""Decision procedures, quantitative queries, and a Monte Carlo oracle.

``equiv`` and ``leq`` compare two programs row by row over an input
specification, producing a verdict with a reproducible counterexample on
the negative side.  Both sides are decided in one kernel, and since nodes
are interned (see ``syntax``), a subterm the two programs have in common,
such as the ``p*`` of an unfolding, is one node: it is evaluated and its
stars solved once.  A permutation of the valuations of the fields
neither program reads or writes commutes with both (the law by which
``bigstep`` shares rows), so the input rows in one orbit of it get one
verdict, and only the first row of each orbit is evaluated: every row of
an orbit fails if one does, so the first failing row, and with it the
witness, is unchanged (see ``_decide``).  A program without history is a
mixture of deterministic programs, each of which distributes over
unions, so a packet that both programs map to one point mass joins the
same set to every row that holds it, and an all-subsets decision leaves
such packets out of its rows, as it does every packet whose singleton
passes in a pair without choice (see ``_decide``).  ``dist_leq`` implements
the distribution order via principal up-set probabilities, and ``query``
evaluates scalar measures of an output distribution.  All of them compute
on exact rows and return exact numbers; a tolerance ``tol`` (0, an exact
decision, by default) only widens the one comparison of two probabilities.
``sample_run``/``estimate`` form an operational sampler that is independent
of the matrix pipeline and is used as a statistical oracle in tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .bigstep import Kernel
from .errors import BudgetExceededError, ConditioningError, WellFormednessError
from .row import Row, ratio
from .star import DEFAULT_STATE_BUDGET
from .syntax import (  # desugar unused: the benchmark's layer trace patches it here
    Assign, Choice, Drop, Neg, Program, Seq, Skip, Star, Test, Union, desugar,
    footprint, has_choice, restrict,
)
from .universe import EMPTY, PacketSet, PacketUniverse

DEFAULT_SUBSET_CAP = 12


# -- input specifications ------------------------------------------------


def _exceeds(n: int, cap: int):
    return WellFormednessError(f"all-subsets over {n} packets exceeds the cap of {cap}")


@dataclass(frozen=True)
class InputSpec:
    """Either an explicit list of input sets or all subsets of a packet list.

    The subset cap bounds the rows a decision lists, at 2^cap: a pair with a
    choice may need all 2^n subsets of n packets, so n may not exceed the
    cap, while a choice-free pair needs only the empty set and at most the
    n singletons (see ``_decide``).  ``check_rows`` checks the count before
    any row is listed."""

    explicit: tuple | None = None
    subset_base: tuple | range | None = None  # packet indices
    cap: int = DEFAULT_SUBSET_CAP

    @classmethod
    def of_sets(cls, sets) -> "InputSpec":
        sets = tuple(sets)
        if not sets:
            raise WellFormednessError("empty input specification")
        return cls(explicit=sets)

    @classmethod
    def all_subsets(cls, packets, cap: int = DEFAULT_SUBSET_CAP) -> "InputSpec":
        """All subsets of ``packets``; ``check_rows`` bounds the rows."""
        return cls(subset_base=tuple(sorted(packets)), cap=cap)

    @classmethod
    def full_universe(cls, universe: PacketUniverse,
                      cap: int = DEFAULT_SUBSET_CAP) -> "InputSpec":
        """All subsets of the universe, whose packet count is checked against
        the fewest rows any pair needs before any packet is listed (``len``
        of a range stops at 2^63)."""
        n = universe.packet_count
        if n.bit_length() > cap:  # n >= 2^cap, without building 2^cap
            raise _exceeds(n, cap)
        return cls(subset_base=range(n), cap=cap)

    def check_rows(self, choice_free: bool) -> None:
        """Refuse an all-subsets spec whose rows for a pair, choice-free or
        not, would be more than 2^cap."""
        n = len(self.subset_base)
        if (n.bit_length() > self.cap) if choice_free else n > self.cap:
            raise _exceeds(n, self.cap)

    def check_packets(self, universe: PacketUniverse) -> None:
        """Refuse a packet outside ``universe``: the sorted base's two ends,
        or the extremes of the explicit sets."""
        base = self.subset_base
        if base is None:
            sets = [a for a in self.explicit if a]
            if sets:
                universe.check_packets(min(map(min, sets)), max(map(max, sets)))
        elif base:
            universe.check_packets(base[0], base[-1])

    def rows(self):
        """The explicit sets, or every subset of the base in mask order (see
        ``_subsets``)."""
        return iter(self.explicit) if self.explicit is not None else _subsets(self.subset_base)


def _subsets(packets):
    """Every subset of ``packets`` in mask order: bit i of the mask takes
    the i-th packet.  Each subset is the one without its lowest packet,
    which comes before it, plus that packet: a union sizes the set for its
    packets, where one grown from a generator takes about half again as
    much memory from five packets on.  The next packet is taken from
    ``packets`` only once every subset of those before it is out."""
    subsets, taken = [EMPTY], []
    yield EMPTY
    for x in packets:
        taken.append(x)
        for mask in range(len(subsets), 2 * len(subsets)):
            low = mask & -mask
            s = subsets[mask ^ low] | {taken[low.bit_length() - 1]}
            subsets.append(s)
            yield s


# -- verdicts ---------------------------------------------------------------


@dataclass(frozen=True)
class Witness:
    input_set: PacketSet
    output_set: PacketSet
    left_prob: object
    right_prob: object


@dataclass(frozen=True)
class Verdict:
    result: str  # 'equal' | 'not-equal' | 'leq' | 'not-leq'
    witness: Witness | None = None
    tolerance: float = 0

    def holds(self) -> bool:
        return self.result in ("equal", "leq")


def _set_key(s: PacketSet):
    return sorted(s)


def equiv(p: Program, q: Program, inputs: InputSpec, universe: PacketUniverse,
          tol: float = 0, state_budget: int = DEFAULT_STATE_BUDGET) -> Verdict:
    """Decide whether the kernels of ``p`` and ``q`` agree (within ``tol``)
    on every input row; the least disagreeing output set of the first
    disagreeing row is the witness.  A packet of ``inputs`` outside
    ``universe`` raises UniverseError, here and in ``leq``."""
    return _decide(p, q, inputs, universe, tol, state_budget,
                   _mismatch, ("equal", "not-equal"))


def _decide(p: Program, q: Program, inputs: InputSpec, universe: PacketUniverse,
            tol: float, state_budget: int, excess, verdict) -> Verdict:
    """The first input row on which ``excess`` finds the row of ``p`` too
    far from that of ``q`` gives the witness and ``verdict[1]``; with no
    such row the verdict is ``verdict[0]``.  Both rows come from one exact
    kernel over the two programs: its row functions serve the two sides
    alike, and a subterm the two have in common is one node (nodes are
    interned).  Exact rows are reduced, so two equal rows are one
    distribution, which neither order finds too far from itself at any
    ``tol`` >= 0: such a row is passed over without a scan.

    One row per orbit.  Let U be the fields outside the footprints of both
    programs (the fields neither reads nor writes).  A permutation phi of
    the valuations of U, applied to each packet, commutes with every test,
    assignment, ``&``, ``;``, ``+[r]`` and ``*`` of both programs (Foster
    et al., ESOP 2016), so the rows on phi(a) are the rows on a with phi
    applied to every output set.  That map is a bijection on packet sets,
    so equality, ``tol``-closeness and the up-set order hold on a row
    exactly when they hold on its image.  A row is therefore skipped when
    an earlier row of the spec lies in its orbit, or in the orbit of a row
    it decides as (``_orbit_firsts``): when a row fails, so does the first
    row that decides as it, which comes no later, and the first failing
    row, the verdict and the witness are unchanged (symmetry reduction,
    Kwiatkowska, Norman and Parker, CAV 2006).  This holds for every spec,
    explicit or all-subsets alike.  With every field touched, no key is
    computed.

    Packets that join one set.  A program without history is a mixture,
    over the ways its choices resolve, of deterministic programs, each of
    which distributes over unions (Anderson et al., POPL 2014; Foster et
    al., ESOP 2016).  So when the rows of both programs on {x} are the one
    point mass on S, every resolution maps x to S, and the row of either
    program on a set a that holds x is its row on a - {x} with S joined to
    every outcome.  Joining S keeps equal rows equal, and it keeps the
    up-set order at any ``tol``, since the up-set of c pulls back to the
    up-set of c - S.  It can merge two outcomes, though, and add their
    differences, so for ``equiv`` at ``tol`` > 0 only S = {} qualifies.
    Such a row fails only if the row on a - {x} fails, which comes earlier
    in mask order, so the first failing row holds no such packet.  For
    ``leq`` the two sets may differ: when ``p`` maps {x} to the point mass
    on S and ``q`` to the one on T, with S <= T, the up-set of b has mass
    p(a - {x})(up(b - S)) on the left and q(a - {x})(up(b - T)) on the
    right, and up(b - S) is inside up(b - T), so again the row on a fails
    only if the row on a - {x} does.  When neither program has a choice,
    every packet whose singleton passes joins, at any ``tol``: the row of
    either program on a is the point mass on the union of its images of
    the packets of a, and two point masses pass within ``tol`` < 1 only
    when equal (for ``leq``, nested), which a union with the images of a
    passing packet keeps, and always within ``tol`` >= 1.  For an
    all-subsets spec, the rows are therefore the subsets of the base
    without D, in mask order, one per orbit, where D are the packets that
    join before the first singleton that fails or exceeds the state
    budget: for a choice-free pair, the empty row and the first failing
    singleton, if any.  A packet's singleton row is read, one per orbit (a
    singleton's orbit is fixed by its packet's projection on the touched
    fields, and phi maps {} to itself), once every row of the packets
    before it has passed, and the packet's own rows follow unless it
    joins: so no singleton past the first failing row is read.  These rows
    come in the order of all subsets, and the first failing row is among
    them, so the verdict and the witness are those of every row.  A row
    left out is not evaluated, so it can neither fail nor exceed the
    budget.
    """
    inputs.check_packets(universe)
    k = Kernel(p, universe, state_budget=state_budget)
    base = inputs.subset_base
    choice_free = not has_choice(p) and not has_choice(q)
    if base is not None:
        inputs.check_rows(choice_free)
    (rp, wp, _, _), (rq, wq, _, _) = footprint(p), footprint(q)
    untouched = universe.mask & ~(rp | wp | rq | wq)
    clear = universe.projector(untouched) if untouched else None
    read = {}  # a singleton ``_unjoined`` read -> its two rows, or its refusal
    if base is None:
        rows = inputs.rows()
    else:
        rows = _subsets(_unjoined(k, p, q, base, clear, excess, tol, choice_free, read))
    if clear is not None:
        rows = _orbit_firsts(rows, clear)
    for a in rows:
        if isinstance(read.get(a), BudgetExceededError):
            raise read.pop(a)  # bound to no name, so no frame of this call holds it
        mu, nu = read.pop(a, None) or (k.row(p, a), k.row(q, a))
        if mu == nu:
            continue  # reduced rows: the same distribution, within any tol
        bad = excess(mu, nu, tol)
        if bad is not None:
            return Verdict(verdict[1], Witness(a, *bad), tol)
    return Verdict(verdict[0], tolerance=tol)


def _unjoined(k: Kernel, p: Program, q: Program, base, clear, excess, tol,
              choice_free: bool, read: dict):
    """The packets of ``base``, in order, but those before the first
    failing singleton (by ``excess``, or one that exceeds the state
    budget) whose rows on both sides are one point mass on a set S, with S
    empty for ``equiv`` at ``tol`` > 0, or for ``leq`` point masses on S
    and T with S <= T; every one of them when the pair is ``choice_free``
    (see ``_decide``).  A packet's singleton is read when the packet is
    asked for, and one per projection on the touched fields (every
    packet's own, when ``clear`` is None); from the first that fails on,
    the packets are passed on unread.  Each singleton read goes into
    ``read``, with its two rows or the ``BudgetExceededError`` it raised,
    so the decision does not ask for them again."""
    order = excess is _upset_excess
    joins = {}  # a singleton's projection -> whether it joins
    for n, x in enumerate(base):
        key = x if clear is None else x - clear(x)
        if key not in joins:
            a = frozenset((x,))
            try:
                mu, nu = read[a] = k.row(p, a), k.row(q, a)
                fails = mu != nu and excess(mu, nu, tol) is not None
            except BudgetExceededError as e:
                read[a], fails = e.with_traceback(None), True  # it holds no frame
            if fails:
                yield from base[n:]
                return
            joins[key] = choice_free or (
                len(mu.nums) == 1 == len(nu.nums)
                and (next(iter(mu.nums)) <= next(iter(nu.nums)) if order
                     # closeness survives joining {} alone
                     else mu == nu and (not tol or EMPTY in mu.nums)))
        if not joins[key]:
            yield x


def _orbit_firsts(rows, clear):
    """The rows of ``rows`` whose key no earlier row has, where ``clear``
    projects a packet on the untouched fields U, its *class*.
    A row's orbit key is the set, over the classes it meets, of the set of
    projections x - clear(x) on the touched fields of its packets in that
    class.  A permutation of U's valuations maps a row to every row with
    the same multiset of those sets.  And classes that hold the same
    projections move in lockstep, since no resolution of a choice reads U
    (see ``_decide``): a repeated class only copies, packet for packet,
    what the first class with those projections outputs, a one-to-one map
    on output sets that keeps equality, closeness and the up-set order,
    so the row decides as the row without the repeat.  Two rows with one
    key therefore fail together.  Each projection is a bit, numbered as
    first met, so the key is a frozenset of small ints, one per distinct
    class mask."""
    seen, bits = set(), {}
    packets = {}  # packet -> (its class, the bit of its projection)
    for a in rows:
        classes = {}
        for x in a:
            cb = packets.get(x)
            if cb is None:
                c = clear(x)
                cb = packets[x] = c, bits.setdefault(x - c, 1 << len(bits))
            c, b = cb
            classes[c] = classes.get(c, 0) | b
        key = frozenset(classes.values())
        if key not in seen:
            seen.add(key)
            yield a


def _scaled(mu: Row, nu: Row, tol: float):
    """The one comparison, in integers: x/d_mu - y/d_nu > tol = t/d exactly
    when x*sx - y*sy > bound, for the returned triple."""
    t, d = tol.as_integer_ratio()
    return nu.den * d, mu.den * d, t * mu.den * nu.den


def _mismatch(mu: Row, nu: Row, tol: float):
    """The least output set on which the rows differ by more than ``tol``
    (see ``_dist_mismatch``) and its two probabilities, or None."""
    bad = _dist_mismatch(mu, nu, tol)
    return None if bad is None else (bad, mu.prob(bad), nu.prob(bad))


def _dist_mismatch(mu: Row, nu: Row, tol: float):
    """Lexicographically least output set on which the rows' probabilities
    differ by more than ``tol``, or None."""
    sx, sy, bound = _scaled(mu, nu, tol)
    bad = None
    m, n = mu.nums, nu.nums
    for b in m.keys() | n.keys():
        if (abs(m.get(b, 0) * sx - n.get(b, 0) * sy) > bound
                and (bad is None or _set_key(b) < _set_key(bad))):
            bad = b
    return bad


# -- the distribution order -----------------------------------------------


def upset_prob(mu: dict, aset: PacketSet):
    """mu of the principal up-set of ``aset`` (for a row's ``nums``, the
    numerator of that probability)."""
    return sum(p for b, p in mu.items() if aset <= b)


def _meet_closure(sets) -> set:
    """Closure of a family of sets under pairwise intersection."""
    family = set(sets)
    frontier = set(family)
    while frontier:
        new = set()
        for x in frontier:
            for y in family:
                z = x & y
                if z not in family and z not in new:
                    new.add(z)
        family |= new
        frontier = new
    return family


def _upset_excess(mu: Row, nu: Row, tol: float):
    """The least set a (by ``_set_key``) with mu(up a) > nu(up a) + tol and
    those two probabilities, or None.  Checking a over the
    intersection-closure of the two supports (plus the empty set) suffices:
    for any a, the up-set of a meets the supports exactly where the up-set
    of the intersection of all supersets of a in the closure does."""
    sx, sy, bound = _scaled(mu, nu, tol)
    for a in sorted(_meet_closure(set(mu.nums) | set(nu.nums) | {EMPTY}), key=_set_key):
        x, y = upset_prob(mu.nums, a), upset_prob(nu.nums, a)
        if x * sx - y * sy > bound:
            return a, ratio(x, mu.den), ratio(y, nu.den)
    return None


def dist_leq(mu, nu, tol: float = 0) -> bool:
    """The order mu <= nu on two distributions (dicts from sets to
    probabilities, read as rows over 1): mu(up a) <= nu(up a) + tol for
    every a."""
    return _upset_excess(Row(1, mu), Row(1, nu), tol) is None


def leq(p: Program, q: Program, inputs: InputSpec, universe: PacketUniverse,
        tol: float = 0, state_budget: int = DEFAULT_STATE_BUDGET) -> Verdict:
    """Pointwise distribution order (within ``tol``) over the input rows;
    the witness is the least principal up-set of the first failing row."""
    return _decide(p, q, inputs, universe, tol, state_budget,
                   _upset_excess, ("leq", "not-leq"))


# -- quantitative queries ------------------------------------------------------


@dataclass(frozen=True)
class QuerySpec:
    """One of: prob_nonempty; prob_satisfies(pred, 'all'|'some');
    expected_field(f); field_cdf(f, threshold).  Field measures condition
    on nonempty output."""

    kind: str
    predicate: Program | None = None
    quantifier: str = "all"
    field: str | None = None
    threshold: int | None = None

    @classmethod
    def prob_nonempty(cls):
        return cls("prob_nonempty")

    @classmethod
    def prob_satisfies(cls, predicate: Program, quantifier: str = "all"):
        if quantifier not in ("all", "some"):
            raise WellFormednessError("quantifier must be 'all' or 'some'")
        return cls("prob_satisfies", predicate=predicate, quantifier=quantifier)

    @classmethod
    def expected_field(cls, field: str):
        return cls("expected_field", field=field)

    @classmethod
    def field_cdf(cls, field: str, threshold: int):
        return cls("field_cdf", field=field, threshold=threshold)


def query(p: Program, a: PacketSet, measure: QuerySpec, universe: PacketUniverse,
          state_budget: int = DEFAULT_STATE_BUDGET):
    """``measure`` of the output distribution of ``p`` on ``a``; a packet
    of ``a`` outside ``universe`` raises UniverseError."""
    if a:
        universe.check_packets(min(a), max(a))
    k = Kernel(p, universe, state_budget=state_budget)
    return query_dist(k.apply(a).as_dict(), measure, universe)


def query_dist(mu: dict, measure: QuerySpec, universe: PacketUniverse):
    """``measure`` of ``mu`` (set -> probability), exact when ``mu`` is."""
    zero = Fraction(0)
    if measure.kind == "prob_nonempty":
        return sum((p for b, p in mu.items() if b), zero)
    if measure.kind == "prob_satisfies":
        t = measure.predicate
        if measure.quantifier == "all":
            keep = lambda b: restrict(t, b, universe) == b
        else:
            keep = lambda b: bool(restrict(t, b, universe))
        return sum((p for b, p in mu.items() if keep(b)), zero)
    if measure.kind in ("expected_field", "field_cdf"):
        universe.field(measure.field)  # an unknown field raises UniverseError
        cond = sum((p for b, p in mu.items() if b), zero)
        if cond == 0:
            raise ConditioningError("conditioning on nonempty output, which has probability 0")
        acc = zero
        for b, p in mu.items():
            if not b:
                continue
            vals = {universe.field_value(i, measure.field) for i in b}
            if len(vals) != 1:
                raise ConditioningError(
                    f"field {measure.field!r} not constant on an outcome set"
                )
            v = next(iter(vals))
            if measure.kind == "expected_field":
                acc += p * v
            elif v <= measure.threshold:
                acc += p
        return acc / cond
    raise WellFormednessError(f"unknown measure {measure.kind!r}")


# -- Monte Carlo sampler -------------------------------------------------------


class TruncatedRun(Exception):
    """A star iteration hit the depth cap before stabilizing."""


DEFAULT_STAR_DEPTH = 256
# A star run stops once its accumulator has not grown for this many
# iterations.  Each level of star nesting multiplies the work by about
# 26-40, since every outer iteration runs the inner star to its own stall:
# one run of ``f:=1`` under four nested stars takes about 6 s on a 2-core
# host, where the kernel takes under a millisecond.
STALL_STEPS = 40
_TWO_53 = float(1 << 53)


def sample_run(p: Program, a: PacketSet, universe: PacketUniverse,
               seed, star_depth: int = DEFAULT_STAR_DEPTH) -> PacketSet:
    """One operational run; raises TruncatedRun if a star fails to stabilize,
    and UniverseError for a packet of ``a`` outside ``universe``.

    ``seed`` is an integer (or any hashable) or an already-constructed
    ``random.Random``.
    """
    if a:
        universe.check_packets(min(a), max(a))
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    return _sample(p, a, universe, rng, star_depth)


def _below(r: float, w) -> bool:
    """``r < w`` for a draw ``r`` of ``random.random()`` and a rational
    weight ``w``.  The draw is ``k / 2**53`` for an integer ``k``, so the
    comparison is exact in integers, without building a ``Fraction``."""
    return int(r * _TWO_53) * w.denominator < w.numerator << 53


def _sample(node: Program, a: PacketSet, universe, rng, star_depth) -> PacketSet:
    """One run of ``node`` on ``a``.  A choice draws once per weight, in
    order, until a part is taken, as its nested binary form would."""
    match node:
        case Drop():
            return EMPTY
        case Skip():
            return a
        case Test(f, v):
            return universe.select(a, f, v)
        case Assign(f, v):
            return universe.modify(a, f, v)
        case Neg(t):
            return a - restrict(t, a, universe)
        case Union(parts):
            return EMPTY.union(*[_sample(q, a, universe, rng, star_depth)
                                 for q in parts])
        case Seq(parts):
            for q in parts:
                a = _sample(q, a, universe, rng, star_depth)
            return a
        case Choice(parts, weights):
            for q, w in zip(parts, weights):
                if _below(rng.random(), w):
                    break
            else:
                q = parts[-1]
            return _sample(q, a, universe, rng, star_depth)
        case Star(body):
            acc = EMPTY
            cur = a
            stall = 0
            for _ in range(star_depth):
                grew = not cur <= acc
                acc = acc | cur
                stall = 0 if grew else stall + 1
                if stall >= STALL_STEPS:
                    return acc
                cur = _sample(body, cur, universe, rng, star_depth)
            raise TruncatedRun()
        case _:
            raise WellFormednessError(f"unknown node {node!r}")


@dataclass
class Estimate:
    counts: dict  # PacketSet -> int, over completed runs
    n_completed: int
    n_truncated: int

    def prob(self, b: PacketSet) -> float:
        return self.counts.get(b, 0) / self.n_completed if self.n_completed else 0.0

    def as_dict(self) -> dict:
        return {b: c / self.n_completed for b, c in self.counts.items()}

    def stderr(self, b: PacketSet) -> float:
        if not self.n_completed:
            return 0.0
        ph = self.prob(b)
        return (ph * (1 - ph) / self.n_completed) ** 0.5


def estimate(p: Program, a: PacketSet, universe: PacketUniverse, n_samples: int,
             seed: int = 0, star_depth: int = DEFAULT_STAR_DEPTH) -> Estimate:
    """Empirical output distribution from ``n_samples`` independent runs.

    Each run draws from its own seeded generator, so runs are reproducible
    and independent of evaluation order.  Truncated runs are counted and
    excluded, never silently folded into the estimate.  A packet of ``a``
    outside ``universe`` raises UniverseError.
    """
    if a:
        universe.check_packets(min(a), max(a))
    counts: dict = {}
    truncated = 0
    for i in range(n_samples):
        rng = random.Random(f"{seed}:{i}")
        try:
            out = _sample(p, a, universe, rng, star_depth)
        except TruncatedRun:
            truncated += 1
            continue
        counts[out] = counts.get(out, 0) + 1
    return Estimate(counts, n_samples - truncated, truncated)
