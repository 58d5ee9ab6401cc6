import itertools
import json
import random
from fractions import Fraction
from functools import partial

import pytest

from pnk import analysis, star
from pnk.analysis import (
    InputSpec, QuerySpec, TruncatedRun, Verdict, Witness, _below,
    _dist_mismatch, _meet_closure, dist_leq, equiv, estimate, leq, query,
    sample_run, upset_prob,
)
from pnk.bigstep import Kernel
from pnk.cli import FLOAT_TOL, _rounded, main
from pnk.errors import (
    BudgetExceededError, ConditioningError, UniverseError, WellFormednessError,
)
from pnk.parser import parse
from pnk.row import Row, ratio
from pnk.syntax import (
    Assign, Choice, Drop, Neg, Seq, Skip, Star, Test, Union, desugar, footprint,
    has_choice, nary_choice, pretty, seq, union, validate,
)
from pnk.universe import EMPTY, FieldDecl, PacketUniverse

from conftest import (
    WEIGHTS, cold_kernel, cold_rows, random_dist, random_predicate, random_program,
    random_set,
)
from oracles import dist_leq_bruteforce

UF = PacketUniverse([FieldDecl("f", 2)])


def delta(s):
    return {s: Fraction(1)}


@pytest.mark.parametrize("gap", [1e-12, 1e-6])
def test_dist_mismatch_honours_tol(gap):
    # nu moves `gap` of mu's mass from {0} to {0, 1}; the least differing
    # set is {0}, and FLOAT_TOL = 1e-9 lies between the two gaps.
    lo, hi, both = frozenset({0}), frozenset({1}), frozenset({0, 1})
    mu = Row(1, {lo: 0.5, hi: 0.5})
    nu = Row(1, {lo: 0.5 - gap, hi: 0.5, both: gap})
    assert _dist_mismatch(mu, mu, 0) is None
    assert _dist_mismatch(mu, nu, 0) == lo
    assert _dist_mismatch(nu, mu, 0) == lo
    assert _dist_mismatch(mu, nu, FLOAT_TOL) == (None if gap < FLOAT_TOL else lo)


# -- long union chains --------------------------------------------------------

def test_long_union_chain_decides_without_recursion_error(tmp_path, capsys):
    # 3,000 distinct guarded assignments f=i ; g=j ; h:=k in one union.
    u = PacketUniverse([FieldDecl("f", 15), FieldDecl("g", 10), FieldDecl("h", 20)])
    branches = [Seq(Test("f", i), Seq(Test("g", j), Assign("h", k)))
                for i in range(15) for j in range(10) for k in range(20)]
    p = union(*branches)
    q = union(*reversed(branches))
    assert not has_choice(p)
    assert desugar(p).parts == tuple(branches)
    validate(p, u)
    assert parse(pretty(p), u) == p
    rng = random.Random(11)
    hit = u.packet(f=0, g=0, h=3)  # the first branch maps it to h=0
    sets = [EMPTY, frozenset({hit}),
            frozenset(rng.sample(range(u.packet_count), 7)) | {hit}]
    assert equiv(p, q, InputSpec.of_sets(sets), u).result == "equal"
    assert equiv(p, union(*branches[1:]), InputSpec.of_sets(sets),
                 u).result == "not-equal"
    out = frozenset(u.packet(f=0, g=0, h=k) for k in range(20))
    est = estimate(p, frozenset({hit}), u, 5)
    assert est.counts == {out: 5}
    path = tmp_path / "chain.pnk"
    path.write_text("fields { f : 15 ; g : 10 ; h : 20 }\n" + pretty(p))
    assert main(["dist", str(path), "--on", '[{"f": 0, "g": 0, "h": 3}]']) == 0
    assert '"support"' in capsys.readouterr().out
    # 3,000 assignments in one sequence: the last one wins.
    s = seq(*[Assign("h", k % 20) for k in range(3000)])
    k = Kernel(s, u)
    assert k.row(s, frozenset({hit})).as_dict() == {
        frozenset({u.packet(f=0, g=0, h=19)}): Fraction(1)}


def test_long_choice_spine_decides_without_recursion_error(tmp_path, capsys):
    # choice { 1/2000: f:=0, 1/2000: f:=1, ... } is one Choice of 2,000
    # parts, which every pass, and the parser, walks with a loop.
    u = UF
    n = 2000
    branches = tuple((Assign("f", i % 2), Fraction(1, n)) for i in range(n))
    p, q = nary_choice(branches), nary_choice(branches[::-1])
    core = desugar(p)
    assert core is p and has_choice(core)
    assert type(core) is Choice and len(core.parts) == n
    a = frozenset({u.packet(f=0)})
    half = {frozenset({u.packet(f=v)}): Fraction(1, 2) for v in (0, 1)}
    assert Kernel(core, u).apply(a).as_dict() == half
    assert equiv(p, q, InputSpec.full_universe(u), u).result == "equal"
    est = estimate(p, a, u, 200, seed=5)
    assert est.n_completed == 200 and set(est.counts) == set(half)
    text = "choice { " + ", ".join(f"1/{n}: f:={i % 2}" for i in range(n)) + " }"
    assert parse(text, u) is p
    path = tmp_path / "spine.pnk"
    path.write_text("fields { f : 2 }\n" + text)
    assert main(["dist", str(path), "--on", '[{"f": 0}]']) == 0
    out = json.loads(capsys.readouterr().out)
    assert [s["prob"] for s in out["support"]] == ["1/2", "1/2"]


# -- the distribution order ---------------------------------------------------

def test_bottom_below_everything(uni2x2):
    rng = random.Random(0)
    for _ in range(50):
        mu = random_dist(rng, uni2x2)
        assert dist_leq(delta(EMPTY), mu)


def test_superset_point_mass_dominates(uni2x2):
    a = frozenset({0})
    b = frozenset({0, 1})
    assert dist_leq(delta(a), delta(b))
    assert not dist_leq(delta(b), delta(a))


def test_incomparable_pair():
    # Enumerated by hand over the two-packet universe: mixing over singletons
    # and a point mass on one singleton disagree in both directions.
    u = UF
    pi0, pi1 = frozenset({u.packet(f=0)}), frozenset({u.packet(f=1)})
    mu = {pi0: Fraction(1, 2), pi1: Fraction(1, 2)}
    nu = delta(pi0)
    assert not dist_leq(mu, nu)  # up-set of {pi1} has mass 1/2 vs 0
    assert not dist_leq(nu, mu)  # up-set of {pi0} has mass 1 vs 1/2
    assert not dist_leq_bruteforce(mu, nu, u.all_packets())
    assert not dist_leq_bruteforce(nu, mu, u.all_packets())


def test_meet_closure_matches_bruteforce(uni8):
    rng = random.Random(1)
    for _ in range(300):
        mu = random_dist(rng, uni8, support=rng.randrange(1, 4))
        nu = random_dist(rng, uni8, support=rng.randrange(1, 4))
        fast = dist_leq(mu, nu)
        slow = dist_leq_bruteforce(mu, nu, uni8.all_packets())
        assert fast == slow


# -- equivalence and ordering ---------------------------------------------------

def test_self_mixing_is_identity(uni2x2):
    rng = random.Random(2)
    for _ in range(50):
        p = random_program(rng, uni2x2, 2, stars=1)
        v = equiv(Choice(Fraction(1, 2), p, p), p,
                  InputSpec.full_universe(uni2x2), uni2x2)
        assert v.result == "equal"


def test_loop_termination_example():
    u = UF
    loop = parse("while !(f=0) do (skip +[1/2] f:=0)", u)
    v = equiv(loop, parse("f:=0", u), InputSpec.full_universe(u), u)
    assert v.result == "equal"


def test_witness_on_distinct_assignments():
    u = UF
    pi0 = frozenset({u.packet(f=0)})
    v = equiv(parse("f:=0", u), parse("f:=1", u), InputSpec.of_sets([pi0]), u)
    assert v.result == "not-equal"
    w = v.witness
    assert w.input_set == pi0
    # The earliest differing output set in index order.
    assert w.output_set == pi0
    assert (w.left_prob, w.right_prob) == (1, 0)
    # The side off the support stays the int 0, as in the witness repr.
    assert type(w.right_prob) is int and repr(w).endswith("left_prob=Fraction(1, 1), right_prob=0)")
    v = leq(parse("f:=0", u), parse("f:=1", u), InputSpec.of_sets([pi0]), u)
    assert (v.witness.left_prob, v.witness.right_prob) == (1, 0)
    assert type(v.witness.right_prob) is int
    # Within a tolerance the witness is still exact; float mode prints it
    # rounded, and the 0 stays an int.
    v = equiv(parse("f:=0", u), parse("f:=1", u), InputSpec.of_sets([pi0]), u,
              tol=FLOAT_TOL)
    assert repr((v.witness.left_prob, v.witness.right_prob)) == "(Fraction(1, 1), 0)"
    assert repr(_rounded((v.witness.left_prob, v.witness.right_prob))) == "[1.0, 0]"


def test_witness_reproduces_discrepancy(uni2x2):
    rng = random.Random(3)
    found = 0
    while found < 30:
        p = random_program(rng, uni2x2, 2, stars=0)
        q = random_program(rng, uni2x2, 2, stars=0)
        v = equiv(p, q, InputSpec.full_universe(uni2x2), uni2x2)
        if v.result != "not-equal":
            continue
        found += 1
        kp, kq = Kernel(desugar(p), uni2x2), Kernel(desugar(q), uni2x2)
        w = v.witness
        assert kp.apply(w.input_set).prob(w.output_set) == w.left_prob
        assert kq.apply(w.input_set).prob(w.output_set) == w.right_prob


def test_drop_below_everything(uni2x2):
    rng = random.Random(4)
    for _ in range(30):
        p = random_program(rng, uni2x2, 2, stars=0)
        assert leq(Drop(), p, InputSpec.full_universe(uni2x2), uni2x2).result == "leq"


def test_union_enlarges(uni2x2):
    rng = random.Random(5)
    for _ in range(100):
        p = random_program(rng, uni2x2, 2, stars=0)
        q = random_program(rng, uni2x2, 2, stars=0)
        assert leq(p, Union(p, q), InputSpec.full_universe(uni2x2),
                   uni2x2).result == "leq"


def test_order_axioms(uni2x2):
    rng = random.Random(6)
    spec = InputSpec.full_universe(uni2x2)
    for _ in range(25):
        p = random_program(rng, uni2x2, 2, stars=0)
        q = random_program(rng, uni2x2, 2, stars=0)
        assert equiv(p, p, spec, uni2x2).result == "equal"
        assert leq(p, p, spec, uni2x2).result == "leq"
        pq = equiv(p, q, spec, uni2x2).result == "equal"
        qp = equiv(q, p, spec, uni2x2).result == "equal"
        assert pq == qp
        if pq:
            assert leq(p, q, spec, uni2x2).result == "leq"
            assert leq(q, p, spec, uni2x2).result == "leq"


def test_leq_transitive(uni2x2):
    rng = random.Random(7)
    spec = InputSpec.full_universe(uni2x2)
    for _ in range(40):
        p = random_program(rng, uni2x2, 1, stars=0)
        q = Union(p, random_program(rng, uni2x2, 1, stars=0))
        r = Union(q, random_program(rng, uni2x2, 1, stars=0))
        assert leq(p, q, spec, uni2x2).result == "leq"
        assert leq(q, r, spec, uni2x2).result == "leq"
        assert leq(p, r, spec, uni2x2).result == "leq"


def test_leq_witness_is_failing_upset(uni2x2):
    u = uni2x2
    p, q = Assign("f", 0), Assign("f", 1)
    v = leq(p, q, InputSpec.full_universe(u), u)
    assert v.result == "not-leq"
    kp, kq = Kernel(p, u), Kernel(q, u)
    w = v.witness
    mu = kp.apply(w.input_set).as_dict()
    nu = kq.apply(w.input_set).as_dict()
    up_mu = sum(pr for b, pr in mu.items() if w.output_set <= b)
    up_nu = sum(pr for b, pr in nu.items() if w.output_set <= b)
    assert (up_mu, up_nu) == (w.left_prob, w.right_prob)
    assert up_mu > up_nu


def test_det_fast_path_agrees_with_full_enumeration(uni2x2):
    rng = random.Random(8)
    for _ in range(40):
        p = random_program(rng, uni2x2, 2, stars=0)
        q = random_program(rng, uni2x2, 2, stars=0)
        if any("Choice" in repr(x) for x in (p, q)):
            continue
        spec = InputSpec.full_universe(uni2x2)
        explicit = InputSpec.of_sets(list(spec.rows()))
        assert (equiv(p, q, spec, uni2x2).result
                == equiv(p, q, explicit, uni2x2).result)


def test_float_mode_reports_tolerance(uni2x2):
    p = Choice(Fraction(1, 2), Skip(), Skip())
    v = equiv(p, Skip(), InputSpec.full_universe(uni2x2), uni2x2, tol=1e-9)
    assert v.result == "equal" and v.tolerance == 1e-9


# -- one kernel for both sides ---------------------------------------------------

def _singleton_rows(spec) -> list:
    """The empty set, then the singleton of each packet of the base of the
    all-subsets ``spec``: a choice-free pair's rows decide all of its rows."""
    return [EMPTY] + [frozenset({x}) for x in spec.subset_base]


def _two_kernel_verdict(decide, p, q, inputs, u, tol):
    """The verdict of ``decide`` from a fresh exact kernel per side, with
    probabilities compared as ``Fraction``s within ``tol``."""
    p, q = desugar(p), desugar(q)
    kp, kq = Kernel(p, u), Kernel(q, u)
    slack = Fraction(tol)
    if decide is equiv:
        det = not has_choice(p) and not has_choice(q)
        for a in _singleton_rows(inputs) if det else inputs.rows():
            mu, nu = kp.row(p, a), kq.row(q, a)
            bad = [b for b in set(mu.nums) | set(nu.nums)
                   if abs(mu.prob(b) - nu.prob(b)) > slack]
            if bad:
                b = min(bad, key=sorted)
                return Verdict("not-equal", Witness(a, b, mu.prob(b), nu.prob(b)), tol)
        return Verdict("equal", tolerance=tol)
    for a in inputs.rows():
        mu, nu = kp.row(p, a), kq.row(q, a)
        for gen in sorted(_meet_closure(set(mu.nums) | set(nu.nums) | {EMPTY}), key=sorted):
            x = ratio(upset_prob(mu.nums, gen), mu.den)
            y = ratio(upset_prob(nu.nums, gen), nu.den)
            if x > y + slack:
                return Verdict("not-leq", Witness(a, gen, x, y), tol)
    return Verdict("leq", tolerance=tol)


def _unroll(p, n):
    out = Skip()
    for _ in range(n):
        out = Union(Skip(), Seq(p, out))
    return out


def _oracle_pairs(rng, u, count):
    """(decide, left, right): the four constructed kinds of pair, whose
    sides share subterms, each built apart, then two unrelated pairs, the
    first with a deterministic left side."""
    for i in range(count):
        p = random_program(rng, u, 2, stars=1)
        copy = lambda: parse(pretty(p), u)  # noqa: E731 -- equal, built apart
        x = rng.choice(u.decls).name
        yield equiv, Star(p), Union(Skip(), Seq(copy(), Star(copy())))
        yield equiv, Choice(Fraction(1, 3), p, copy()), Seq(copy(), Skip())
        yield (equiv, Union(Seq(p, Assign(x, 0)), Assign(x, 0)),
               Union(Seq(copy(), Assign(x, 0)), Assign(x, 1)))
        yield leq, _unroll(p, i % 3), _unroll(copy(), i % 3 + 1)
        yield (equiv, Seq(random_predicate(rng, u), Assign(x, 1)),
               random_program(rng, u, 2, stars=1))
        yield (rng.choice((equiv, leq)), random_program(rng, u, 2, stars=1),
               random_program(rng, u, 2, stars=1))


@pytest.mark.parametrize("tol", [0, FLOAT_TOL], ids=["exact", "float"])
def test_shared_kernel_verdicts_equal_two_kernels(uni2x2, tol):
    rng = random.Random(17)
    spec = InputSpec.full_universe(uni2x2)
    seen = set()
    for decide, p, q in _oracle_pairs(rng, uni2x2, 40):
        got = decide(p, q, spec, uni2x2, tol=tol)
        assert got == _two_kernel_verdict(decide, p, q, spec, uni2x2, tol)
        seen.add(got.result)
    assert seen == {"equal", "not-equal", "leq", "not-leq"}


def _rounded_prob(text: str) -> str:
    """A witness probability of exact output as float output prints it."""
    return text if text == "0" else str(float(Fraction(text)))


def test_float_equiv_at_zero_tol_is_equal_where_exact_equiv_is(uni2x2, tmp_path, capsys):
    # Float mode decides on the exact rows, here with a tolerance of 0, so
    # `--float --tol 0` prints every verdict and witness of `--exact`, its
    # probabilities rounded.  When float `leq` summed rounded weights, the
    # up-set of the empty set in pair 129 (`skip` against `skip & ((f=0
    # +[1/3] g:=0) & (f=0 +[3/4] f:=1)) ; skip`) read 1.0 against
    # 0.9999999999999999.
    rng = random.Random(17)
    files = [str(tmp_path / "p.pnk"), str(tmp_path / "q.pnk")]
    seen = {"equal": 0, "not-equal": 0, "leq": 0, "not-leq": 0}
    for decide, p, q in _oracle_pairs(rng, uni2x2, 40):
        for path, prog in zip(files, (p, q)):
            with open(path, "w") as fh:
                fh.write("fields { f : 2 ; g : 2 }\n" + pretty(prog))
        cmd = [decide.__name__, *files]
        code = main(cmd + ["--exact"])
        exact = json.loads(capsys.readouterr().out)
        assert main(cmd + ["--float", "--tol", "0"]) == code
        rounded = json.loads(capsys.readouterr().out)
        assert (exact.pop("exact"), rounded.pop("exact"), rounded.pop("tolerance")) == (True, False, 0)
        if "witness" in exact:
            w = exact["witness"]
            w["left_prob"], w["right_prob"] = map(_rounded_prob, (w["left_prob"], w["right_prob"]))
        assert rounded == exact
        seen[exact["result"]] += 1
    assert seen["equal"] >= 80 and seen["leq"] >= 40 and seen["not-leq"] >= 10


def test_shared_kernel_solves_each_star_row_once(uni8, monkeypatch):
    calls = []
    solve = star.star_dist

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(star, "star_dist", counting)
    rng = random.Random(23)
    rows = InputSpec.of_sets(list(InputSpec.full_universe(uni8).rows()))
    for _ in range(6):
        p = random_program(rng, uni8, 3, stars=1)
        k = Kernel(Star(p), uni8)
        for a in rows.rows():
            k.row(k.program, a)
        alone = len(calls)
        q = parse(pretty(p), uni8)
        assert equiv(Star(p), Union(Skip(), Seq(q, Star(q))), rows,
                     uni8).result == "equal"
        assert len(calls) - alone <= alone
        calls.clear()


@pytest.mark.parametrize("decide", [equiv, leq])
def test_identical_sides_over_budget_still_raise(decide):
    p = parse("(f:=0 +[1/2] f:=1)*", UF)
    spec = InputSpec.full_universe(UF)
    for q in (p, parse(pretty(p), UF)):
        with pytest.raises(BudgetExceededError):
            decide(p, q, spec, UF, state_budget=2)


@pytest.mark.parametrize("decide", [equiv, leq])
def test_decisions_refuse_packets_outside_the_universe(decide):
    # Over six packets, the kernel maps packet 99 under f:=1 to packet 100,
    # and a decision would compare such rows.  Each spec's packets are
    # checked before any row is read: a subset base by its ends, explicit
    # sets by their extremes.
    u = PacketUniverse([FieldDecl("f", 2), FieldDecl("g", 3)])
    p = Assign("f", 1)
    inside = frozenset({0, 5})
    for bad in (99, 6, -1):
        for spec in (InputSpec.all_subsets([0, 3, bad]),
                     InputSpec.of_sets([inside, frozenset(), frozenset({2, bad})])):
            with pytest.raises(UniverseError, match=f"packet index {bad} out of range"):
                decide(p, p, spec, u)
        with pytest.raises(UniverseError, match=f"packet index {bad} out of range"):
            query(p, frozenset({1, bad}), QuerySpec.prob_nonempty(), u)
    assert decide(p, p, InputSpec.of_sets([inside, frozenset()]), u).holds()
    assert decide(p, p, InputSpec.all_subsets(range(6)), u).holds()
    assert query(p, frozenset(), QuerySpec.prob_nonempty(), u) == 0


def test_sampling_refuses_packets_outside_the_universe():
    # The sampler would return {99} for f:=1 on {99}, where the kernel
    # gives {100}: a run, like a decision, checks its input packets first.
    u = PacketUniverse([FieldDecl("f", 2), FieldDecl("g", 3)])
    p = Assign("f", 1)
    for bad in (99, 6, -1):
        with pytest.raises(UniverseError, match=f"packet index {bad} out of range"):
            sample_run(p, frozenset({bad}), u, 0)
        with pytest.raises(UniverseError, match=f"packet index {bad} out of range"):
            estimate(p, frozenset({1, bad}), u, 5)
    assert sample_run(p, frozenset({0, 5}), u, 0) == frozenset({1, 5})
    assert estimate(p, frozenset(), u, 5).counts == {frozenset(): 5}

# -- queries -------------------------------------------------------------------

def test_query_drop_nonempty_is_zero(uni2x2):
    assert query(Drop(), uni2x2.all_packets(), QuerySpec.prob_nonempty(),
                 uni2x2) == 0


def test_query_prob_satisfies(uni2x2):
    u = uni2x2
    p = Choice(Fraction(1, 3), Assign("f", 0), Assign("f", 1))
    a = frozenset({u.packet(f=0, g=0)})
    assert query(p, a, QuerySpec.prob_satisfies(Test("f", 0), "all"), u) \
        == Fraction(1, 3)
    assert query(p, a, QuerySpec.prob_satisfies(Neg(Test("f", 0)), "some"), u) \
        == Fraction(2, 3)


def test_query_expected_field_and_cdf():
    u = PacketUniverse([FieldDecl("f", 4)])
    p = Choice(Fraction(1, 4), Assign("f", 3),
               Choice(Fraction(1, 3), Assign("f", 1), Drop()))
    a = frozenset({u.packet(f=0)})
    # Outcomes: f=3 w.p. 1/4, f=1 w.p. 1/4, drop w.p. 1/2.
    assert query(p, a, QuerySpec.expected_field("f"), u) == Fraction(2)
    assert query(p, a, QuerySpec.field_cdf("f", 1), u) == Fraction(1, 2)
    assert query(p, a, QuerySpec.field_cdf("f", 3), u) == 1


def test_query_conditioning_on_impossible_event(uni2x2):
    # Both field measures condition on nonempty output and need one value
    # of the field on each outcome set.
    mixed = frozenset({uni2x2.packet(f=0, g=0), uni2x2.packet(f=1, g=0)})
    for measure in (QuerySpec.expected_field("f"), QuerySpec.field_cdf("f", 0)):
        with pytest.raises(ConditioningError, match="probability 0"):
            query(Drop(), uni2x2.all_packets(), measure, uni2x2)
        with pytest.raises(ConditioningError, match="not constant"):
            query(Skip(), mixed, measure, uni2x2)


def test_query_on_an_unknown_field_raises_universe_error(uni2x2):
    # The field is checked first, so the error names it even where the
    # output is empty only and the conditioning would fail.
    a = frozenset({uni2x2.packet(f=0, g=0)})
    for measure in (QuerySpec.expected_field("h"), QuerySpec.field_cdf("h", 0)):
        for p in (Skip(), Drop()):
            with pytest.raises(UniverseError, match="unknown field 'h'"):
                query(p, a, measure, uni2x2)


# -- the sampler ----------------------------------------------------------------

def test_sample_skip_is_identity(uni2x2):
    rng = random.Random(9)
    for _ in range(20):
        a = random_set(rng, uni2x2)
        assert sample_run(Skip(), a, uni2x2, random.Random(1)) == a


def test_below_is_exact_comparison():
    rng = random.Random(12)
    pairs = [(rng.random(), Fraction(rng.randrange(0, 1000), rng.randrange(1, 1000)))
             for _ in range(2000)]
    edge_draws = [0.0, 0.5, 0.25, 1 - 2.0 ** -53, 2.0 ** -53]
    pairs += [(r, w) for r in edge_draws for w in (Fraction(0), Fraction(1), 0, 1)]
    pairs += [(0.5, Fraction(1, 2)), (0.25, Fraction(1, 4)),
              (0.75, Fraction(3, 4))]
    for r, _ in pairs[:200]:
        exact = Fraction(r)
        pairs += [(r, exact), (r, exact + Fraction(1, 2 ** 60)),
                  (r, exact - Fraction(1, 2 ** 60))]
    for r, w in pairs:
        assert _below(r, w) == (r < w), (r, w)
    assert not _below(0.5, Fraction(1, 2))


def test_estimate_bernoulli_within_three_sigma():
    u = UF
    p = Choice(Fraction(1, 2), Assign("f", 0), Assign("f", 1))
    a = frozenset({u.packet(f=0)})
    est = estimate(p, a, u, 10_000, seed=42)
    assert est.n_truncated == 0
    for b in (frozenset({u.packet(f=0)}), frozenset({u.packet(f=1)})):
        assert abs(est.prob(b) - 0.5) <= 3 * est.stderr(b) + 1e-12


def test_estimate_star_mass():
    u = UF
    p = Star(Choice(Fraction(1, 2), Assign("f", 0), Assign("f", 1)))
    a = frozenset({u.packet(f=0)})
    est = estimate(p, a, u, 10_000, seed=7, star_depth=64)
    assert est.n_truncated == 0
    assert est.prob(u.all_packets()) >= 1 - 2 ** -60


def test_truncation_is_reported_not_hidden():
    u = UF
    p = Star(Choice(Fraction(1, 2), Assign("f", 0), Assign("f", 1)))
    a = frozenset({u.packet(f=0)})
    est = estimate(p, a, u, 50, seed=3, star_depth=5)
    assert est.n_truncated == 50 and est.n_completed == 0
    with pytest.raises(TruncatedRun):
        sample_run(p, a, u, random.Random(0), star_depth=5)


def test_sampler_agrees_with_exact_pipeline(uni2x2):
    rng = random.Random(10)
    for _ in range(15):
        p = random_program(rng, uni2x2, 2, stars=1)
        a = random_set(rng, uni2x2)
        exact = Kernel(desugar(p), uni2x2).apply(a).as_dict()
        est = estimate(p, a, uni2x2, 4000, seed=rng.randrange(10 ** 6))
        assert est.n_truncated == 0
        for b in set(exact) | set(est.counts):
            p_exact = float(exact.get(b, 0))
            se = max(est.stderr(b), (p_exact * (1 - p_exact) / 4000) ** 0.5)
            assert abs(est.prob(b) - p_exact) <= 3 * se + 1e-9


def test_query_matches_estimate(uni2x2):
    rng = random.Random(11)
    for _ in range(10):
        p = random_program(rng, uni2x2, 2, stars=0)
        a = random_set(rng, uni2x2)
        exact = float(query(p, a, QuerySpec.prob_nonempty(), uni2x2))
        est = estimate(p, a, uni2x2, 4000, seed=rng.randrange(10 ** 6))
        emp = sum(est.prob(b) for b in est.counts if b)
        se = max((exact * (1 - exact) / 4000) ** 0.5, 1e-3)
        assert abs(emp - exact) <= 3 * se + 1e-9


def test_input_spec_guards():
    with pytest.raises(WellFormednessError):
        InputSpec.of_sets([])
    with pytest.raises(WellFormednessError):
        InputSpec.all_subsets(range(20), cap=12).check_rows(False)


@pytest.mark.parametrize("order", ["sorted", "unsorted"])
def test_subset_rows_are_every_subset_in_mask_order(order):
    # Bit i of the mask takes the i-th packet of the base, in the base's
    # order, whether or not it is sorted.
    rng = random.Random(31)
    for n in range(11):
        base = rng.sample(range(40), n)
        if order == "sorted":
            base.sort()
        rows = list(InputSpec(subset_base=tuple(base)).rows())
        assert rows == [frozenset(p for i, p in enumerate(base) if (mask >> i) & 1)
                        for mask in range(1 << n)]
    base = sorted(rng.sample(range(40), 6))
    assert list(InputSpec.all_subsets(base).rows()) == \
        list(InputSpec.all_subsets(base[::-1]).rows())


def _no_enumeration(monkeypatch):
    def refuse(self):
        raise AssertionError("the universe's packets were enumerated")
    monkeypatch.setattr(PacketUniverse, "all_packets", refuse)


def test_full_universe_checks_the_packet_count_before_the_packets(monkeypatch):
    u = PacketUniverse([FieldDecl("f", 1 << 10), FieldDecl("g", 1 << 10)])
    _no_enumeration(monkeypatch)
    with pytest.raises(WellFormednessError,
                       match="over 1048576 packets exceeds the cap of 12"):
        InputSpec.full_universe(u)


def test_the_engine_never_enumerates_the_universe(uni2x2, monkeypatch):
    # Star filters restrict the sets a chain meets and prob-satisfies
    # restricts each outcome, so no step builds a predicate's packet set
    # over the universe.  Every result equals a reference taken before
    # all_packets is made to raise.
    from pnk import casestudy, netlib
    topo, u = netlib.abfattree12(), uni2x2
    rng = random.Random(14)
    cases = []
    for _ in range(40):
        p = random_program(rng, u, 2, stars=0)
        filters = [random_predicate(rng, u, 2) for _ in range(rng.randrange(1, 3))]
        cases.append((p, seq(Star(p), *filters), random_predicate(rng, u, 2),
                      random_set(rng, u)))
    spec = InputSpec.all_subsets(range(u.packet_count))

    def run():
        out = [casestudy._ingress_rows(
            [netlib.build_case_model(scheme, topo, k, Fraction(1, 4))
             for scheme in netlib.F10_VARIANTS], star.DEFAULT_STATE_BUDGET)
            for k in (2, None)]
        for p, whole, t, a in cases:
            other = Seq(Star(p), t)
            out.append((equiv(whole, other, spec, u), leq(whole, other, spec, u),
                        leq(other, whole, spec, u)))
            out.append([query(whole, a, QuerySpec.prob_satisfies(t, quantifier), u)
                        for quantifier in ("all", "some")])
        return out

    reference = run()
    _no_enumeration(monkeypatch)
    assert run() == reference
    verdicts = [v.result for triple in reference[2::2] for v in triple]
    assert {"equal", "not-equal", "leq", "not-leq"} <= set(verdicts)


def test_choice_free_pairs_are_decided_on_the_singletons(uni8, monkeypatch):
    # Both decisions take a choice-free pair on the empty row and the
    # singletons alone; their verdicts and witnesses must be those of all
    # 2^n rows, which an explicit spec of the same rows in mask order
    # evaluates one by one.
    rng = random.Random(73)
    spec = InputSpec.all_subsets(uni8.all_packets())
    oracle = InputSpec.of_sets(spec.rows())
    calls = []
    row = Kernel.row
    monkeypatch.setattr(Kernel, "row", lambda k, p, a: calls.append(a) or row(k, p, a))
    results, pairs = set(), 0
    while pairs < 240:
        p = random_program(rng, uni8, 3, stars=1)
        q = rng.choice((random_program(rng, uni8, 3, stars=1), p,
                        Union(p, random_predicate(rng, uni8, 2)),
                        Seq(random_predicate(rng, uni8, 2), p)))
        if has_choice(p) or has_choice(q):
            continue
        pairs += 1
        for decide in (equiv, leq):
            calls.clear()
            got = decide(p, q, spec, uni8)
            assert len(calls) <= 2 * (uni8.packet_count + 1)
            assert got == decide(p, q, oracle, uni8)
            results.add(got.result)
    assert results == {"equal", "not-equal", "leq", "not-leq"}


# -- one row per orbit of the untouched fields --------------------------------

def _fresh_verdict(decide, rows, tol):
    """The verdict of ``decide`` on ``rows``, triples (input, row of the
    left side, row of the right side) in the spec's order: the first row
    with a failing output set, and the least such set, its probabilities
    compared as ``Fraction``s within ``tol``."""
    slack = Fraction(tol)
    for a, mu, nu in rows:
        if decide is equiv:
            sides = [(b, mu.prob(b), nu.prob(b)) for b in set(mu.nums) | set(nu.nums)]
            bad = [w for w in sides if abs(w[1] - w[2]) > slack]
        else:
            sides = [(b, ratio(upset_prob(mu.nums, b), mu.den),
                      ratio(upset_prob(nu.nums, b), nu.den))
                     for b in _meet_closure(set(mu.nums) | set(nu.nums) | {EMPTY})]
            bad = [w for w in sides if w[1] > w[2] + slack]
        if bad:
            result = "not-equal" if decide is equiv else "not-leq"
            return Verdict(result, Witness(a, *min(bad, key=lambda w: sorted(w[0]))), tol)
    return Verdict("equal" if decide is equiv else "leq", tolerance=tol)


def _valuation_perms(u, names):
    """Every permutation of the valuations of the fields ``names``, each a
    function that applies it to every packet of a set."""
    at = [i for i, d in enumerate(u.decls) if d.name in names]
    vals = sorted({tuple(u.decode(x)[i] for i in at) for x in range(u.packet_count)})

    def moved(phi, aset):
        out = set()
        for x in aset:
            v = list(u.decode(x))
            for i, w in zip(at, phi[tuple(v[i] for i in at)]):
                v[i] = w
            out.add(u.encode(v))
        return frozenset(out)
    return [partial(moved, dict(zip(vals, perm))) for perm in itertools.permutations(vals)]


def _orbit_cases():
    """(universe, names): random programs over the fields ``names`` only,
    which leave two, one or none of the universe's fields untouched; the
    untouched ones lie below, between and above the touched ones, and
    some have three values."""
    u8 = PacketUniverse([FieldDecl(n, 2) for n in "fgh"])
    u6 = PacketUniverse([FieldDecl("f", 2), FieldDecl("g", 3)])
    return [(u8, "f"), (u8, "g"), (u8, "fg"), (u8, "fh"), (u6, "f"), (u6, "g"),
            (u8, "fgh")]


def _orbit_pairs(rng, u, names):
    """Pairs over the fields ``names``: the constructed kinds of
    ``_oracle_pairs``, three choice-free pairs, which take the singleton
    path, and, over two fields or more, a field written where another
    passes a test and never read.  With every field named, only pairs that
    touch them all."""
    sub = PacketUniverse([d for d in u.decls if d.name in names])

    def kept(p, q):
        if len(names) < len(u.decls):
            return True
        (rp, wp, _, _), (rq, wq, _, _) = footprint(desugar(p)), footprint(desugar(q))
        return bin(rp | wp | rq | wq).count("1") == len(names)
    pairs = []
    while len(pairs) < 6:
        pairs += [(p, q) for _, p, q in _oracle_pairs(rng, sub, 1) if kept(p, q)]
    while len(pairs) < 9:
        p, q = (random_program(rng, sub, 2, stars=1) for _ in range(2))
        if not has_choice(p) and not has_choice(q) and kept(p, q):
            pairs.append((p, q))
    if len(sub.decls) > 1 and len(names) < len(u.decls):
        x, y = rng.sample([d.name for d in sub.decls], 2)
        pairs.append((Union(Seq(Test(x, 0), Assign(y, 0)), Neg(Test(x, 0))), Skip()))
    return pairs


@pytest.mark.parametrize("tol", [0, 0.125], ids=["exact", "tol"])
def test_one_row_per_orbit_keeps_every_verdict_and_witness(tol):
    # Both decisions, on all subsets and on an explicit spec whose rows
    # include images of earlier rows under a permutation of the untouched
    # fields' valuations, in a shuffled order, must give the verdicts and
    # witnesses of a fresh kernel per side on every row of the spec.
    rng = random.Random(41)
    seen, pairs = set(), 0
    for u, names in _orbit_cases():
        untouched = [d.name for d in u.decls if d.name not in names]
        perms = _valuation_perms(u, untouched)
        subsets = InputSpec.all_subsets(u.all_packets())
        for p, q in _orbit_pairs(rng, u, names):
            pairs += 1
            sets = [random_set(rng, u) for _ in range(6)]
            sets += [rng.choice(perms)(a) for a in sets if untouched]
            rng.shuffle(sets)
            cp, cq = desugar(p), desugar(q)
            for spec in (subsets, InputSpec.of_sets(sets)):
                rows = [(a, Kernel(cp, u).row(cp, a), Kernel(cq, u).row(cq, a))
                        for a in spec.rows()]
                for decide in (equiv, leq):
                    got = decide(p, q, spec, u, tol=tol)
                    assert got == _fresh_verdict(decide, rows, tol), (pretty(p), pretty(q))
                    seen.add(got.result)
    assert pairs >= 60
    assert seen == {"equal", "not-equal", "leq", "not-leq"}


def _first_of_each_orbit(u, names, rows):
    """The rows that no earlier row decides alike, each permutation of the
    valuations of the fields ``names`` tried: a row stands for its
    reduction, which keeps, of the classes (valuations of ``names``) that
    hold one set of projections on the other fields, only the least, and
    two rows decide alike when a permutation maps one reduction to the
    other."""
    perms = _valuation_perms(u, names)
    at = [i for i, d in enumerate(u.decls) if d.name in names]

    def reduced(a):
        held = {}  # class -> the projections its packets hold
        for x in a:
            v = u.decode(x)
            c = tuple(v[i] for i in at)
            held.setdefault(c, set()).add(tuple(w for i, w in enumerate(v) if i not in at))
        firsts = {}
        for c in sorted(held):
            firsts.setdefault(frozenset(held[c]), c)
        keep = set(firsts.values())
        return frozenset(x for x in a if tuple(u.decode(x)[i] for i in at) in keep)
    firsts, seen = [], set()
    for a in rows:
        r = reduced(a)
        if r not in seen:
            firsts.append(a)
            seen.update(phi(r) for phi in perms)
    return firsts


def _joins(decide, mu, nu, tol):
    """Whether a packet whose singleton rows are ``mu`` and ``nu`` is left
    out of the rows: one point mass on both sides, on the empty set for
    ``equiv`` at a ``tol`` above 0; for ``leq``, point masses on S and T
    with S <= T."""
    if decide is leq:
        return len(mu.nums) == 1 == len(nu.nums) and min(mu.nums) <= min(nu.nums)
    return mu == nu and len(mu.nums) == 1 and (not tol or EMPTY in mu.nums)


def _expected_rows(decide, p, q, u, untouched, tol=0):
    """The rows a decision over all subsets reads, once per side, in order:
    for a choice-free pair the empty row and the singletons; otherwise two
    scans merged.  One reads the singletons, one per orbit, up to the first
    that fails; the other the subsets of the packets not left out before it
    (``_joins``), one per orbit, up to the first that fails.  A packet's
    singleton comes after the rows of the packets before it and before its
    own, and no singleton of a packet after the first failing row's last
    one is read.  A singleton that both scans meet is read once, by the
    first.  Orbits as ``_first_of_each_orbit`` finds them; rows from a
    kernel per side."""
    cp, cq = desugar(p), desugar(q)
    spec = InputSpec.all_subsets(u.all_packets())
    if not has_choice(cp) and not has_choice(cq):
        return _first_of_each_orbit(u, untouched, _singleton_rows(spec))
    kp, kq = Kernel(cp, u), Kernel(cq, u)
    singletons = [frozenset({x}) for x in spec.subset_base]
    firsts = set(_first_of_each_orbit(u, untouched, singletons))
    scan, left_out = [], set()
    for a in singletons:
        mu, nu = kp.row(cp, a), kq.row(cq, a)
        if a in firsts:
            scan.append(a)
            if not _fresh_verdict(decide, [(a, mu, nu)], tol).holds():
                break
        if _joins(decide, mu, nu, tol):
            left_out |= a
    kept = InputSpec.all_subsets(set(spec.subset_base) - left_out)
    rows, last = [], len(spec.subset_base)
    for a in _first_of_each_orbit(u, untouched, list(kept.rows())):
        rows.append(a)
        if not _fresh_verdict(decide, [(a, kp.row(cp, a), kq.row(cq, a))], tol).holds():
            last = max(a, default=-1)
            break
    merged = [(x, 0, a) for a in scan for x in a if x <= last]
    once = {a for *_, a in merged}
    merged += [(max(a, default=-1), 1, a) for a in rows if a not in once]
    return [a for *_, a in sorted(merged, key=lambda m: m[:2])]


def _counting_rows(monkeypatch):
    """The inputs of every ``Kernel.row`` call from now on, in order."""
    calls = []
    row = Kernel.row
    monkeypatch.setattr(Kernel, "row", lambda k, p, a: calls.append(a) or row(k, p, a))
    return calls


@pytest.mark.parametrize("left,right,untouched", [
    # a star and its unfolding, each touching f and g
    ("(f:=1 +[1/3] g:=0)*", "skip & (f:=1 +[1/3] g:=0) ; (f:=1 +[1/3] g:=0)*", "h"),
    ("f=0 ; (f:=1 +[1/2] skip)", "f=0 ; (skip +[1/2] f:=1)", "gh"),
    # g is written and never read
    ("g:=1 +[1/2] g:=0", "g:=0 +[1/2] g:=1", "fh"),
    # choice-free: the empty row and the singletons
    ("f:=1 & f=0", "f=0 & f:=1", "gh"),
    ("h:=0 ; g:=1", "g:=1 ; h:=0", "f"),
    # every field touched: every row but those holding a packet that both
    # sides map to one point mass (g=0 ones, dropped, in the first pair)
    ("(f:=1 +[1/3] h:=0)* ; g=1", "g=1 ; (f:=1 +[1/3] h:=0)*", ""),
    ("f=1 ; g:=0 & h:=1", "h:=1 & g:=0 ; f=1", ""),
])
def test_the_kernel_is_called_once_per_orbit_per_side(uni8, monkeypatch, left, right,
                                                      untouched):
    p, q = parse(left, uni8), parse(right, uni8)
    spec = InputSpec.all_subsets(uni8.all_packets())
    det = not has_choice(desugar(p)) and not has_choice(desugar(q))
    rows = _singleton_rows(spec) if det else list(spec.rows())
    firsts = _first_of_each_orbit(uni8, untouched, rows)
    assert len(firsts) < len(rows) if untouched else firsts == rows
    calls = _counting_rows(monkeypatch)
    for decide in (equiv, leq):
        want = _expected_rows(decide, p, q, uni8, untouched)
        calls.clear()
        assert decide(p, q, spec, uni8).holds()
        assert calls == [a for a in want for _ in "pq"]


def test_an_explicit_spec_in_one_orbit_is_evaluated_once(uni8, monkeypatch):
    # Both programs touch f alone; each of the first three rows holds an f=0
    # packet and an f=1 packet with two different valuations of g and h, so
    # a permutation of those valuations maps each row to each.  The last row holds
    # both in one valuation, another orbit.
    pk = uni8.packet
    p, q = parse("f:=1 +[1/2] f:=0", uni8), parse("f:=0 +[1/2] f:=1", uni8)
    sets = [frozenset({pk(f=0, g=0, h=0), pk(f=1, g=1, h=0)}),
            frozenset({pk(f=0, g=1, h=1), pk(f=1, g=0, h=0)}),
            frozenset({pk(f=0, g=0, h=1), pk(f=1, g=1, h=1)}),
            frozenset({pk(f=0, g=1, h=0), pk(f=1, g=1, h=0)})]
    calls = _counting_rows(monkeypatch)
    assert equiv(p, q, InputSpec.of_sets(sets[:3]), uni8).result == "equal"
    assert calls == [sets[0]] * 2
    calls.clear()
    assert equiv(p, q, InputSpec.of_sets(sets), uni8).result == "equal"
    assert calls == [sets[0]] * 2 + [sets[3]] * 2


# -- packets that both sides map to one point mass ------------------------------

def _choice_free(rng, u):
    while True:
        d = random_program(rng, u, 2, stars=1)
        if not has_choice(d):
            return d


def _nudged(choice, step):
    """``choice`` with its first weight moved by ``step``, or back by it
    where that would leave (0, 1)."""
    w = choice.weights[0]
    w = w + step if 0 < w + step < 1 else w - step
    return Choice.chain(choice.parts, (w, *choice.weights[1:]))


def _joining_pairs(rng, u, count):
    """(decide, left, right), each side ``t ; d & !t ; r`` with a random
    guard t, a choice-free d (so both sides map each packet t passes to
    one point mass, often the same) and a random binary choice r.  The
    right side is the left built apart; the left with r's weight moved by
    1/16 (equal within 0.125) or 3/16; with r's coins flipped once per
    value of a field, which keeps every singleton row; with d or r
    replaced; or, for ``leq``, the left joined with a random branch,
    either way round."""
    def side(t, d, r):
        return Union(Seq(t, d), Seq(Neg(t), r))
    for _ in range(count):
        t, d = random_predicate(rng, u, 2), _choice_free(rng, u)
        r = Choice(rng.choice(WEIGHTS), *(random_program(rng, u, 2, stars=1) for _ in "ab"))
        if rng.random() < 0.3:
            d = Seq(d, random_predicate(rng, u, 1))  # some point masses on {}
        p = side(t, d, r)
        copy = lambda prog: parse(pretty(prog), u)  # noqa: E731 -- equal, built apart
        yield equiv, p, copy(p)
        for step in (Fraction(1, 16), Fraction(3, 16)):
            yield rng.choice((equiv, leq)), p, side(copy(t), copy(d), _nudged(r, step))
        x = rng.choice(u.decls).name  # r's coins flipped once per value of x
        split = Union(Seq(Test(x, 0), copy(r)), Seq(Test(x, 1), copy(r)))
        yield rng.choice((equiv, leq)), p, side(t, d, split)
        yield equiv, p, side(t, _choice_free(rng, u), r)
        yield equiv, p, side(t, d, random_program(rng, u, 2, stars=1))
        wider = Union(p, Seq(random_predicate(rng, u, 1), random_program(rng, u, 1, stars=0)))
        yield (leq, p, wider) if rng.random() < 0.5 else (leq, wider, p)


@pytest.mark.parametrize("tol", [0, 0.125], ids=["exact", "tol"])
def test_leaving_out_joined_packets_keeps_every_verdict_and_witness(uni8, tol):
    # Over all 256 input sets, both decisions must give the verdict and
    # witness of a kernel per side that reads every row, with and without
    # packets that both sides map to one point mass.
    rng = random.Random(59)
    spec = InputSpec.all_subsets(uni8.all_packets())
    seen, pairs, joined = set(), 0, 0
    for decide, p, q in _joining_pairs(rng, uni8, 20):
        pairs += 1
        cp, cq = desugar(p), desugar(q)
        kp, kq = cold_kernel(cp, uni8), Kernel(cq, uni8)
        rows = [(a, kp.row(cp, a), kq.row(cq, a)) for a in spec.rows()]
        joined += any(_joins(decide, mu, nu, tol) for a, mu, nu in rows if len(a) == 1)
        del kp, kq  # the decision's kernel starts cold
        got = decide(p, q, spec, uni8, tol=tol)
        assert got == _fresh_verdict(decide, rows, tol), (pretty(p), pretty(q))
        seen.add(got.result)
    assert pairs >= 60 and joined >= pairs // 2
    assert seen == {"equal", "not-equal", "leq", "not-leq"}


def _nested_pairs(rng, u, count):
    """(left, right), each side ``t ; d & !t ; r`` as in ``_joining_pairs``:
    the right side's d is the left's joined with a random choice-free e, so
    the left maps each packet t passes to a point mass on a subset of the
    right's set; its r is the left's, moved by 1/16, or another; and the
    pair swapped, so the left's sets hold the right's."""
    def side(t, d, r):
        return Union(Seq(t, d), Seq(Neg(t), r))
    for _ in range(count):
        t, d, e = random_predicate(rng, u, 2), _choice_free(rng, u), _choice_free(rng, u)
        r = Choice(rng.choice(WEIGHTS), *(random_program(rng, u, 2, stars=1) for _ in "ab"))
        p = side(t, d, r)
        for r2 in (r, _nudged(r, Fraction(1, 16)), random_program(rng, u, 2, stars=1)):
            q = side(t, Union(d, e), r2)
            yield p, q
            yield q, p


def test_leq_leaves_out_packets_it_maps_to_nested_point_masses(uni8):
    # A packet that the left side maps to the point mass on S and the right
    # to the one on T, with S <= T, is left out of a leq decision over all
    # subsets.  Verdicts and witnesses must be those of every row, each
    # checked over every subset of the universe by the brute-force order,
    # with rows from a kernel per side made once the decision's is gone.
    rng = random.Random(71)
    spec = InputSpec.all_subsets(uni8.all_packets())
    packets, base = sorted(uni8.all_packets()), list(spec.subset_base)
    seen, pairs, fired = set(), 0, 0
    for p, q in _nested_pairs(rng, uni8, 12):
        pairs += 1
        got = leq(p, q, spec, uni8)
        cp, cq = desugar(p), desugar(q)
        rows = list(spec.rows())
        left, right = cold_rows(cp, uni8, rows), cold_rows(cq, uni8, rows)
        first = next(((a, mu, nu) for a, mu, nu in zip(rows, left, right)
                      if not dist_leq_bruteforce(mu.as_dict(), nu.as_dict(), packets)), None)
        if first is None:
            assert got == Verdict("leq", tolerance=0), (pretty(p), pretty(q))
        else:
            a, mu, nu = first
            w = got.witness
            assert got.result == "not-leq" and w.input_set == a, (pretty(p), pretty(q))
            up = (ratio(upset_prob(mu.nums, w.output_set), mu.den),
                  ratio(upset_prob(nu.nums, w.output_set), nu.den))
            assert up == (w.left_prob, w.right_prob) and up[0] > up[1]
        seen.add(got.result)
        # The packets the decision leaves out that the rule of equal point
        # masses would keep.
        k = cold_kernel(cp, uni8)
        kept = set(analysis._unjoined(k, cp, cq, base, None, analysis._upset_excess, 0,
                                      False, {}))
        del k
        singles = dict(zip(rows, zip(left, right)))
        fired += any(singles[frozenset({x})][0] != singles[frozenset({x})][1]
                     for x in set(base) - kept)
    assert pairs >= 60 and fired >= 12  # 13 of 72 pairs with this seed
    assert seen == {"leq", "not-leq"}


def test_a_point_mass_on_a_nonempty_set_is_kept_within_a_tolerance(uni8):
    # f=1 packets go to v = {f1g1h1} on both sides; an f=0 packet takes
    # {} or v with 1/2 each on the left, and {}, v, w or z with 2/5, 2/5,
    # 1/10, 1/10 on the right, within 1/8.  On {f0g0h0, f1g0h0} the join
    # with v merges {} and v on the left alone, so the rows differ by 1/5
    # on v: without the f=1 packets the pair would be equal within 1/8.
    pk = uni8.packet
    v = frozenset({pk(f=1, g=1, h=1)})
    to_v = "f:=1 ; g:=1 ; h:=1"
    p = parse(f"f=1 ; {to_v} & f=0 ; (drop +[1/2] {to_v})", uni8)
    q = parse(f"f=1 ; {to_v} & f=0 ; choice {{ 2/5: drop, 2/5: {to_v}, "
              "1/10: g:=0 ; h:=0, 1/10: g:=1 ; h:=0 }", uni8)
    spec = InputSpec.all_subsets(uni8.all_packets())
    a = frozenset({pk(f=0, g=0, h=0), pk(f=1, g=0, h=0)})
    want = Verdict("not-equal", Witness(a, v, Fraction(1), Fraction(4, 5)), 0.125)
    assert equiv(p, q, spec, uni8, tol=0.125) == want
    assert equiv(p, q, InputSpec.of_sets(spec.rows()), uni8, tol=0.125) == want
    f0 = InputSpec.all_subsets([x for x in uni8.all_packets() if uni8.decode(x)[0] == 0])
    assert equiv(p, q, f0, uni8, tol=0.125).result == "equal"
    assert leq(p, q, spec, uni8, tol=0.125) == leq(p, q, InputSpec.of_sets(spec.rows()),
                                                   uni8, tol=0.125)


# One coin for both f=0 packets on the left, one per value of h on the
# right: the rows agree on every singleton and first differ on
# {f0g0h0, f0g0h1}, mask 17, 1/2 against 1/4.
COIN = "(g:=1 +[1/2] g:=0)"
ONE_COIN = f"f=0 ; {COIN}"
TWO_COINS = f"f=0 ; h=0 ; {COIN} & f=0 ; h=1 ; {COIN}"


@pytest.mark.parametrize("decide", [equiv, leq])
def test_a_singleton_over_budget_after_the_verdict_is_not_raised(uni8, decide):
    # The f1g0h1 packet enters a star whose chain exceeds a budget of 2
    # states; its singleton comes after the failing row in mask order, so
    # every row up to the verdict is decided as when each row was read in
    # turn, and the star is never reached.
    big = "f=1 ; g=0 ; h=1 ; (f:=0 +[1/2] f:=1)*"
    p, q = parse(f"{ONE_COIN} & {big}", uni8), parse(f"{TWO_COINS} & {big}", uni8)
    pk = uni8.packet
    spec = InputSpec.all_subsets(uni8.all_packets())
    with pytest.raises(BudgetExceededError):
        decide(p, q, InputSpec.of_sets([frozenset({pk(f=1, g=0, h=1)})]), uni8,
               state_budget=2)
    got = decide(p, q, spec, uni8, state_budget=2)
    assert got == decide(p, q, InputSpec.of_sets(spec.rows()), uni8, state_budget=2)
    assert got.witness.input_set == {pk(f=0, g=0, h=0), pk(f=0, g=0, h=1)}
    assert (got.witness.left_prob, got.witness.right_prob) == (Fraction(1, 2), Fraction(1, 4))


def test_the_singletons_are_read_up_to_the_first_that_fails(uni8, monkeypatch):
    # The f0g0h1 singleton, the fifth, fails: the right side sets g where
    # the left flips a coin.  The f=1 packets before it go to {} on both
    # sides and are left out; each singleton is read once, when the rows of
    # the packets before it have passed, and the rows run to the failing one.
    p = parse(f"f=1 ; h:=1 ; drop & {ONE_COIN}", uni8)
    q = parse(f"f=1 ; drop & f=0 ; h=0 ; {COIN} & f=0 ; h=1 ; g:=1", uni8)
    spec = InputSpec.all_subsets(uni8.all_packets())
    calls = _counting_rows(monkeypatch)
    for decide in (equiv, leq):
        want = _expected_rows(decide, p, q, uni8, "")
        calls.clear()
        got = decide(p, q, spec, uni8)
        assert got.witness.input_set == {uni8.packet(f=0, g=0, h=1)}
        assert want == [frozenset(), frozenset({0}), frozenset({1}), frozenset({2}),
                        frozenset({0, 2}), frozenset({3}), frozenset({4})]
        assert calls == [a for a in want for _ in "pq"]


def _budget_counts(fn):
    """The counts of the BudgetExceededError ``fn`` raises, or None."""
    try:
        fn()
    except BudgetExceededError as e:
        return e.states_reached, e.states_expanded, e.accumulators
    return None


@pytest.mark.parametrize("decide", [equiv, leq])
def test_a_singleton_over_budget_is_read_once_and_raised_with_its_counts(uni8, monkeypatch,
                                                                       decide):
    # The first packet's star chain exceeds a budget of 3 states.  The
    # decision reads the empty row, then that singleton once, on the left,
    # and raises what the singleton raised as the rows reach it.  Its
    # kernel is gone on return (the next case's cold kernel checks that).
    big = "(f:=1 +[1/2] g:=1)* ; (h:=1 +[1/2] f:=0)*"
    p, q = parse(big, uni8), parse("skip ; " + big, uni8)
    first = frozenset({0})
    assert _budget_counts(lambda: cold_kernel(p, uni8, state_budget=3).row(p, first)) == (
        4, 1, 3)
    calls = _counting_rows(monkeypatch)
    spec = InputSpec.all_subsets(uni8.all_packets())
    assert _budget_counts(lambda: decide(p, q, spec, uni8, state_budget=3)) == (4, 1, 3)
    assert calls == [EMPTY, EMPTY, first]


@pytest.mark.parametrize("decide,left,right", [
    (equiv, "f=1 ; h:=1 & " + ONE_COIN, "f=1 ; h:=1 & " + TWO_COINS),
    (leq, "f=1 ; h:=1 & " + TWO_COINS, "f=1 ; h:=1 & " + ONE_COIN),
])
def test_no_singleton_past_the_first_failing_row_is_read(uni8, monkeypatch, decide,
                                                         left, right):
    # The CI pair: the f=1 packets go to {f1h1 with their g} on both sides
    # and are left out, and the first failing row is {f0g0h0, f0g0h1}, mask
    # 17.  The singletons of the packets after it, f1g0h1, f0g1h1 and
    # f1g1h1 (masks 32 to 128), are never read, nor is any row that holds one.
    p, q = parse(left, uni8), parse(right, uni8)
    spec = InputSpec.all_subsets(uni8.all_packets())
    want = _expected_rows(decide, p, q, uni8, "")
    calls = _counting_rows(monkeypatch)
    got = decide(p, q, spec, uni8)
    assert got.witness.input_set == {0, 4}
    assert calls == [a for a in want for _ in "pq"]
    assert calls[-2:] == [frozenset({0, 4})] * 2
    assert all(max(a, default=-1) < 5 for a in calls)


# -- pairs without a choice ------------------------------------------------------

@pytest.mark.parametrize("tol", [0, 1e-9, 0.5, 1, 2])
def test_choice_free_decisions_are_those_of_every_subset(uni8, tol):
    # A pair without a choice takes the one decision path: every packet
    # whose singleton passes is left out of the rows, so the decision reads
    # the empty row and the singletons up to the first that fails.  Its
    # verdicts and witnesses must be those of all 256 rows, from a kernel
    # per side made once the decision's is gone: for equiv the first
    # failing row and its least failing set; for leq the first row out of
    # order over every subset by the brute-force order, and a witness
    # up-set out of order by more than tol, with the rows' probabilities.
    rng = random.Random(89)
    spec = InputSpec.all_subsets(uni8.all_packets())
    rows, packets = list(spec.rows()), sorted(uni8.all_packets())
    seen = set()
    for _ in range(5):
        d, e = _choice_free(rng, uni8), _choice_free(rng, uni8)
        for p, q in ((d, e), (d, Union(d, e)), (Union(d, e), d), (d, Union(d, Drop()))):
            cp, cq = desugar(p), desugar(q)
            left, right = cold_rows(cp, uni8, rows), cold_rows(cq, uni8, rows)
            got = equiv(p, q, spec, uni8, tol=tol)
            assert got == _fresh_verdict(equiv, zip(rows, left, right), tol), (
                pretty(p), pretty(q))
            seen.add(got.result)
            got = leq(p, q, spec, uni8, tol=tol)
            first = next(((a, mu, nu) for a, mu, nu in zip(rows, left, right)
                          if not dist_leq_bruteforce(mu.as_dict(), nu.as_dict(), packets,
                                                     tol)), None)
            seen.add(got.result)
            if first is None:
                assert got == Verdict("leq", tolerance=tol), (pretty(p), pretty(q))
                continue
            a, mu, nu = first
            w = got.witness
            assert got.result == "not-leq" and w.input_set == a, (pretty(p), pretty(q))
            up = (ratio(upset_prob(mu.nums, w.output_set), mu.den),
                  ratio(upset_prob(nu.nums, w.output_set), nu.den))
            assert up == (w.left_prob, w.right_prob) and up[0] > up[1] + Fraction(tol)
    assert seen == ({"equal", "leq"} if tol >= 1 else {"equal", "not-equal", "leq", "not-leq"})


@pytest.mark.parametrize("tol", [1, 2])
def test_a_choice_free_pair_within_a_tolerance_of_1_reads_a_row_per_packet(monkeypatch, tol):
    # Two point masses are within 1 of each other, so at a tol of 1 or more
    # every singleton of a pair without a choice passes and is left out:
    # over all 2^4096 subsets of a 12-field universe, whose every field
    # the pair touches, the decision reads the empty row and the 4096
    # singletons, each once per side, in order.
    u = PacketUniverse([FieldDecl(f"wide_{i}", 2) for i in range(12)])
    p = seq(*[Assign(d.name, 1) for d in u.decls])
    q = Assign(u.decls[0].name, 0)
    spec = InputSpec.full_universe(u, cap=13)
    calls, row = [], Kernel.row

    def counted(k, prog, a):  # stops a decision that reads past the singletons
        calls.append(a)
        assert len(calls) <= 2 * (1 + u.packet_count), "a row past the singletons"
        return row(k, prog, a)
    monkeypatch.setattr(Kernel, "row", counted)
    for decide in (equiv, leq):
        calls.clear()
        assert decide(p, q, spec, u, tol=tol).holds()
        assert calls == [a for a in [EMPTY] + [frozenset({x}) for x in range(4096)]
                         for _ in "pq"]
    with pytest.raises(WellFormednessError, match="exceeds the cap"):
        equiv(p, q, InputSpec.all_subsets(u.all_packets(), cap=12), u, tol=tol)
