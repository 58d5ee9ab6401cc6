"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.
"""

import functools
import random
import time
from fractions import Fraction

from pnk import netlib
from pnk.analysis import (
    InputSpec, QuerySpec, dist_leq, equiv, estimate, query_dist,
)
from pnk.bigstep import Kernel
from pnk.casestudy import (
    delivery_sweep, fattree_scheme_equivalence, hop_cdf, resilience_grid,
    toy_overview,
)
from pnk.parser import parse
from pnk.star import explore, mark_saturated
from pnk.syntax import (
    Assign, Choice, Seq, Skip, Star, Union, desugar, restrict,
)
from pnk.universe import EMPTY, FieldDecl, PacketUniverse

from conftest import (
    cold_kernel, cold_rows, random_dist, random_predicate, random_program, random_set,
)
from oracles import (
    SparseMatrix, dist_leq_bruteforce, mat_mul, power_series_absorption, solve_absorption,
)
from test_star import chain_matrices, unrolling


def criterion(num, desc, limit=None):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            t0 = time.monotonic()
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {num}: FAIL — {desc}")
                raise
            elapsed = time.monotonic() - t0
            print(f"ACCEPTANCE {num}: PASS ({elapsed:.2f}s) — {desc}")
            if limit is not None:
                assert elapsed < limit, f"criterion {num} took {elapsed:.1f}s (limit {limit}s)"
        return run
    return wrap


# -- 1: toy-network delivery probabilities ------------------------------------

@criterion(1, "toy network under f2: delivery exactly 4/5 (naive) and 24/25 (resilient)",
           limit=5.0)
def test_criterion_1():
    net = netlib.toy()
    src = frozenset({net.source_packet()})
    f2 = net.f2(Fraction(1, 5))
    for scheme, expected in ((net.p, Fraction(4, 5)), (net.p_hat, Fraction(24, 25))):
        k = Kernel(desugar(net.wrapped(scheme, f2)), net.universe)
        got = query_dist(k.apply(src).as_dict(), QuerySpec.prob_nonempty(),
                         net.universe)
        assert got == expected


# -- 2: toy-network equivalence suite -------------------------------------------

@criterion(2, "toy-network equivalence suite, exact mode, each check under 30s")
def test_criterion_2():
    checks = []

    def timed(fn):
        t0 = time.monotonic()
        out = fn()
        checks.append(time.monotonic() - t0)
        return out

    net = netlib.toy()
    u = net.universe
    src = frozenset({net.source_packet()})
    flag0 = InputSpec.all_subsets(net.flag_zero_packets(), cap=20)
    in_rows = InputSpec.of_sets([EMPTY, src])
    tele = Seq(net.in_pred, net.teleport)
    f2 = net.f2(Fraction(1, 5))

    assert timed(lambda: equiv(net.M(net.p), net.M_hat(net.p, net.f0),
                               flag0, u)).result == "equal"
    assert timed(lambda: equiv(net.wrapped(net.p_hat, net.f0), tele,
                               flag0, u)).result == "equal"
    assert timed(lambda: equiv(net.wrapped(net.p_hat, net.f1), tele,
                               in_rows, u)).result == "equal"
    naive = timed(lambda: equiv(net.wrapped(net.p, net.f1), tele, in_rows, u))
    assert naive.result == "not-equal" and naive.witness is not None

    def strictly_below():
        lo = net.wrapped(net.p, f2)
        hi = net.wrapped(net.p_hat, f2)
        from pnk.analysis import leq
        return (leq(lo, hi, in_rows, u).result == "leq"
                and equiv(lo, hi, in_rows, u).result == "not-equal")

    assert timed(strictly_below)
    assert all(t < 30 for t in checks)


# -- 3: loop termination ----------------------------------------------------------

@criterion(3, "probabilistic while loop equivalent to f:=0 over all inputs", limit=1.0)
def test_criterion_3():
    u = PacketUniverse([FieldDecl("f", 2)])
    loop = parse("while !(f=0) do (skip +[1/2] f:=0)", u)
    v = equiv(loop, parse("f:=0", u), InputSpec.full_universe(u), u)
    assert v.result == "equal" and v.tolerance == 0


# -- 4: the five-state pair chain ---------------------------------------------------

@criterion(4, "pair chain of the coin-flip star: 5 states, half-weighted edges, "
              "point mass on both packets", limit=1.0)
def test_criterion_4():
    u = PacketUniverse([FieldDecl("f", 2)])
    flip = Choice(Fraction(1, 2), Assign("f", 0), Assign("f", 1))
    k = Kernel(desugar(Star(flip)), u)
    pi0, pi1 = u.packet(f=0), u.packet(f=1)
    a0 = frozenset({pi0})
    g = mark_saturated(explore(lambda a: k.row(k.program.body, a), a0))
    assert set(g.states) == {
        (frozenset({pi0}), EMPTY),
        (frozenset({pi0}), frozenset({pi0})),
        (frozenset({pi1}), frozenset({pi0})),
        (frozenset({pi0}), frozenset({pi0, pi1})),
        (frozenset({pi1}), frozenset({pi0, pi1})),
    }
    assert all(Fraction(p, g.dens[i]) == Fraction(1, 2)
               for i, out in enumerate(g.edges) for _, p in out)
    assert k.apply(a0).as_dict() == {frozenset({pi0, pi1}): Fraction(1)}


# -- 5: property suites, 500 random cases each --------------------------------------

UNI8 = PacketUniverse([FieldDecl("f", 2), FieldDecl("g", 2), FieldDecl("h", 2)])
UNI4 = PacketUniverse([FieldDecl("f", 2), FieldDecl("g", 2)])
CASES = 500


@criterion(5, f"property suites, {CASES} random exact cases each")
def test_criterion_5():
    rng = random.Random(20_26)

    # Row-stochasticity of every compiled row.
    for _ in range(CASES):
        p = random_program(rng, UNI8, 2, stars=1)
        k = Kernel(desugar(p), UNI8)
        d = k.apply(random_set(rng, UNI8)).as_dict()
        assert all(v > 0 for v in d.values()) and sum(d.values()) == 1

    # Predicate law.
    for _ in range(CASES):
        t = random_predicate(rng, UNI8, 3)
        a = random_set(rng, UNI8)
        k = Kernel(desugar(t), UNI8)
        assert k.apply(a).as_dict() == {a & restrict(t, UNI8.all_packets(), UNI8): Fraction(1)}
    del k

    # Sequential composition is the bind of rows.
    for _ in range(CASES):
        p = random_program(rng, UNI8, 2, stars=0)
        q = random_program(rng, UNI8, 2, stars=0)
        a = random_set(rng, UNI8)
        mu = cold_rows(desugar(p), UNI8, [a])[0].as_dict()
        cq = desugar(q)
        nus = cold_rows(cq, UNI8, list(mu))
        expected = {}
        for (c, w), nu in zip(mu.items(), nus):
            for b, v in nu.as_dict().items():
                expected[b] = expected.get(b, 0) + w * v
        assert cold_kernel(desugar(Seq(p, q)), UNI8).apply(a).as_dict() == expected

    # Star fixed point, extensionally on explored rows.
    for _ in range(CASES):
        p = random_program(rng, UNI4, 2, stars=0)
        star = Star(p)
        q = Union(Skip(), Seq(p, star))
        a = random_set(rng, UNI4)
        row = cold_rows(desugar(star), UNI4, [a])[0]
        assert cold_kernel(desugar(q), UNI4).apply(a).as_dict() == row.as_dict()

    # Redirecting saturated states commutes with one chain step: USU = SU.
    for _ in range(CASES):
        p = random_program(rng, UNI4, 2, stars=0)
        k = Kernel(desugar(p), UNI4)
        g = mark_saturated(explore(lambda a: k.row(k.program, a),
                                   random_set(rng, UNI4)))
        S, U = chain_matrices(g)
        SU = mat_mul(S, U)
        assert mat_mul(U, SU) == SU

    # Accumulators only grow along stored edges.
    for _ in range(CASES):
        p = random_program(rng, UNI4, 2, stars=0)
        k = Kernel(desugar(p), UNI4)
        g = explore(lambda a: k.row(k.program, a), random_set(rng, UNI4))
        for i, out in enumerate(g.edges):
            for j, _ in out:
                assert g.states[i][1] <= g.states[j][1]

    # Meet-closure order check agrees with the all-subsets oracle.
    for _ in range(CASES):
        mu = random_dist(rng, UNI8, support=rng.randrange(1, 4))
        nu = random_dist(rng, UNI8, support=rng.randrange(1, 4))
        assert dist_leq(mu, nu) == dist_leq_bruteforce(mu, nu, UNI8.all_packets())

    # Unrollings increase in the distribution order.
    for _ in range(CASES):
        p = random_program(rng, UNI4, 1, stars=0)
        a = random_set(rng, UNI4)
        n = rng.randrange(0, 3)
        lo = Kernel(desugar(unrolling(p, n)), UNI4).apply(a).as_dict()
        hi = Kernel(desugar(unrolling(p, n + 1)), UNI4).apply(a).as_dict()
        assert dist_leq(lo, hi)


# -- 6: oracle agreement --------------------------------------------------------------

@criterion(6, "exact pipeline vs Monte Carlo on 100 random programs (3 sigma), "
              "and the closed form vs the truncated series (1e-9)")
def test_criterion_6():
    rng = random.Random(99)
    n = 10_000
    for _ in range(100):
        p = random_program(rng, UNI4, 2, stars=1)
        a = random_set(rng, UNI4)
        exact = Kernel(desugar(p), UNI4).apply(a).as_dict()
        est = estimate(p, a, UNI4, n, seed=rng.randrange(10 ** 9))
        assert est.n_truncated == 0
        for b in set(exact) | set(est.counts):
            pe = float(exact.get(b, 0))
            se = max(est.stderr(b), (pe * (1 - pe) / n) ** 0.5)
            assert abs(est.prob(b) - pe) <= 3 * se + 1e-9

    # Exact solve against the 64-term truncated series, in floats, on
    # contractive chains.
    for _ in range(50):
        size = rng.randrange(2, 7)
        q = SparseMatrix(size, size)
        r = SparseMatrix(size, 2)
        for i in range(size):
            total = 0
            for j in range(size):
                if rng.random() < 0.5:
                    v = Fraction(rng.randrange(0, 5), 24)
                    if total + v <= Fraction(1, 2):
                        q.set(i, j, v)
                        total += v
            r.set(i, rng.randrange(2), 1 - total)
        a = solve_absorption(q, r)
        qf, rf = (SparseMatrix(m.nrows, m.ncols,
                               [{j: float(v) for j, v in row.items()} for row in m.rows])
                  for m in (q, r))
        assert a.max_abs_diff(power_series_absorption(qf, rf, 64)) < 1e-9


# -- 7: the resilience table -----------------------------------------------------------

@criterion(7, "20-switch AB FatTree resilience grid matches, and the two first "
              "refinements agree on the plain FatTree for every bound",
           limit=1800.0)
def test_criterion_7():
    ab = netlib.abfattree20()
    grid = resilience_grid(ab, ks=(0, 1, 2, 3, 4, None), p_fail=Fraction(1, 4))
    expected = {
        "0": ("yes", "yes", "yes"),
        "1": ("no", "yes", "yes"),
        "2": ("no", "yes", "yes"),
        "3": ("no", "no", "yes"),
        "4": ("no", "no", "no"),
        "inf": ("no", "no", "no"),
    }
    for row in grid:
        want = expected[row["k"]]
        got = (row["f10_0"], row["f10_3"], row["f10_35"])
        assert got == want, f"k={row['k']}: {got} != {want}"

    # Resilience is monotone: once a scheme loses teleport-equivalence at
    # some k it stays lost for larger k.
    for scheme in netlib.F10_VARIANTS:
        seen_no = False
        for row in grid:
            if row[scheme] == "no":
                seen_no = True
            assert not (seen_no and row[scheme] == "yes")

    ft = netlib.fattree20()
    for row in fattree_scheme_equivalence(ft, ks=(0, 1, 2, 3, 4, None),
                                          p_fail=Fraction(1, 4)):
        assert row["f10_0_eq_f10_3"] == "yes"


# -- 8: delivery and latency tables ------------------------------------------------------

@criterion(8, "delivery monotone in failure probability, refinements ordered "
              "pointwise, and equal traffic within four hops")
def test_criterion_8():
    ab = netlib.abfattree20()
    sweep = delivery_sweep(ab, [Fraction(1, 10), Fraction(1, 5), Fraction(3, 10),
                                Fraction(2, 5), Fraction(1, 2)])
    for scheme in netlib.F10_VARIANTS:
        values = [row[scheme] for row in sweep]
        assert all(x >= y for x, y in zip(values, values[1:])), scheme
    for row in sweep:
        assert row["f10_0"] <= row["f10_3"] <= row["f10_35"]

    table = hop_cdf(ab, Fraction(1, 4))
    cdfs = {s: d["cdf"] for s, d in table["schemes"].items()}
    at4 = {s: cdf[4] for s, cdf in cdfs.items()}
    assert len(set(at4.values())) == 1, at4
    # Sanity on the tables themselves: CDFs are monotone in the hop count.
    for cdf in cdfs.values():
        assert all(x <= y for x, y in zip(cdf, cdf[1:]))


# -- the overview suite doubles as a CLI-level regression ----------------------------


def test_overview_casestudy_summary():
    checks = toy_overview()
    assert checks["delivery_naive_f2"] == Fraction(4, 5)
    assert checks["delivery_resilient_f2"] == Fraction(24, 25)
    assert checks["model_eq_refined_f0"] == "equal"
    assert checks["resilient_f0_eq_teleport"] == "equal"
    assert checks["resilient_f1_eq_teleport"] == "equal"
    assert checks["naive_f1_eq_teleport"] == "not-equal"
    assert checks["naive_lt_resilient_f2"] is True
