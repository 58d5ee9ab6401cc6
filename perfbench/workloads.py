"""The benchmark workloads.

Each workload has a ``setup(seed)`` that builds everything the measured work
needs and returns a list of operations, and a ``check(results)`` that compares
the operations' results with references that do not come from the pipeline
and returns the indices of the operations that disagree.  An operation is one
closed-loop decision: the next starts only when the previous one returns.

Every call into pnk goes through a module attribute (``netlib.build_case_model``,
``syntax.desugar``, ``parser.parse``, ``analysis.equiv``...), so the trace can
patch the binding this code looks up.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from pnk import analysis, bigstep, netlib, parser, syntax

import programs
from topo import abfattree

P_FAIL = Fraction(1, 4)
K_VALUES = (0, 1, 2, 3, 4, None)
FLOAT_TOL = 1e-9

# The F10 resilience table of the paper for abfattree20 at p=1/4:
# is each scheme equivalent to teleportation under at most k failures?
PAPER_TABLE = {
    0: ("yes", "yes", "yes"),
    1: ("no", "yes", "yes"),
    2: ("no", "yes", "yes"),
    3: ("no", "no", "yes"),
    4: ("no", "no", "no"),
    None: ("no", "no", "no"),
}


# Trace spans (see layertrace.SPAN_METRICS) each workload must reach.
KERNEL_SPANS = frozenset({"desugar", "init", "apply", "body", "star", "explore",
                          "saturate", "solve", "modify"})
F10_SPANS = KERNEL_SPANS | {"build"}
EQUIV_SPANS = KERNEL_SPANS | {"parser", "decide"}


@dataclass
class Workload:
    """Why each workload exists, and what its operations are, is in
    METRICS.md and BENCHMARK.json."""

    name: str
    spans: frozenset
    setup: Callable[[int], list]
    check: Callable[[list], set]


def _kernel(scheme, topo, k, p_fail, exact, counter=False):
    cm = netlib.build_case_model(scheme, topo, k, p_fail, counter=counter)
    return bigstep.Kernel(syntax.desugar(cm.program), cm.universe, exact=exact), cm


def _rows(kern, cm) -> list[dict]:
    return [kern.apply(frozenset({s})).as_dict() for s in cm.in_packets]


def _delivered(row: dict, target: int):
    return row.get(frozenset({target}), 0)


def _stray(row: dict, target: int):
    return sum(p for b, p in row.items() if b and b != frozenset({target}))


# -- grid20-exact ----------------------------------------------------------------


def grid_setup(seed: int) -> list:
    topo = netlib.abfattree20()
    ops = []
    for k in K_VALUES:
        for scheme in netlib.F10_VARIANTS:
            kern, cm = _kernel(scheme, topo, k, P_FAIL, exact=True)
            ops.append(lambda kern=kern, cm=cm: (cm.target_packet, _rows(kern, cm)))
    return ops


def grid_check(results: list) -> set:
    bad = set()
    cells = [(k, i) for k in K_VALUES for i in range(len(netlib.F10_VARIANTS))]
    for op, ((k, i), (target, rows)) in enumerate(zip(cells, results)):
        if any(sum(r.values()) != 1 or _stray(r, target) != 0 for r in rows):
            bad.add(op)
        verdict = "yes" if all(_delivered(r, target) == 1 for r in rows) else "no"
        if verdict != PAPER_TABLE[k][i]:
            bad.add(op)
    return bad


# -- abft45-inf-exact --------------------------------------------------------------

ABFT_K = 6
ABFT_SCHEMES = (netlib.F10_0, netlib.F10_35)


def abft_setup(seed: int) -> list:
    topo = abfattree(ABFT_K)
    ops = []
    for scheme in ABFT_SCHEMES:
        kern, cm = _kernel(scheme, topo, None, P_FAIL, exact=True)
        for src in cm.in_packets:
            # Edge switches are numbered pod by pod from 1.
            pod = (cm.universe.field_value(src, "sw") - 1) // (ABFT_K // 2)
            ops.append(lambda kern=kern, cm=cm, src=src, pod=pod: (
                pod, cm.target_packet, kern.apply(frozenset({src})).as_dict()))
    return ops


def abft_check(results: list) -> set:
    """Every row has mass exactly 1 and delivers only the target packet.
    f10_0 delivers exactly 1 inside the destination's pod (switch 1 is an
    edge switch of pod 0) and exactly 1 - p elsewhere, where the one core
    downlink on the path fails with probability p, so its minimum is 1 - p;
    f10_35 delivers at least as much on every row.  The generator reproduces
    abfattree20 at k=4."""
    bad = set()
    n = len(results) // len(ABFT_SCHEMES)
    for op, (_, target, row) in enumerate(results):
        if sum(row.values()) != 1 or _stray(row, target) != 0:
            bad.add(op)
    f0 = [_delivered(row, target) for _, target, row in results[:n]]
    f35 = [_delivered(row, target) for _, target, row in results[n:]]
    for i, (pod, _, _) in enumerate(results[:n]):
        if f0[i] != (1 if pod == 0 else 1 - P_FAIL):
            bad.add(i)
        if not f0[i] <= f35[i] <= 1:
            bad.update((i, n + i))
    if min(f0, default=None) != 1 - P_FAIL:
        bad.update(range(n))
    if abfattree(4).links != netlib.abfattree20().links:
        bad.update(range(len(results)))
    return bad


# -- latency20-float ---------------------------------------------------------------

SWEEP_P = (Fraction(1, 10), Fraction(3, 10), Fraction(1, 2))
HOPS = netlib.COUNTER_DOMAIN


def _hop_entry(kern, cm) -> tuple:
    """The hop-count CDF of one scheme (traffic uniform over ingress rows),
    as ``casestudy.hop_cdf`` computes it, plus each row's mass."""
    n = len(cm.in_packets)
    mass_at = [0.0] * HOPS
    masses = []
    for row in _rows(kern, cm):
        masses.append(sum(row.values()))
        for b, p in row.items():
            if b:
                hops = {cm.universe.field_value(i, "counter") for i in b}
                if len(hops) != 1:
                    raise ValueError(f"delivered set spans hop counts {hops}")
                mass_at[hops.pop()] += p / n
    cdf, acc = [], 0.0
    for m in mass_at:
        acc += m
        cdf.append(acc)
    return cdf, masses


def _delivery_entry(kern, cm) -> tuple:
    rows = _rows(kern, cm)
    delivered = sum(sum(p for b, p in row.items() if b) for row in rows)
    return delivered / len(rows), [sum(row.values()) for row in rows]


def latency_setup(seed: int) -> list:
    topo = netlib.abfattree20()
    ops = []
    for scheme in netlib.F10_VARIANTS:
        kern, cm = _kernel(scheme, topo, None, P_FAIL, exact=False, counter=True)
        ops.append(lambda kern=kern, cm=cm: _hop_entry(kern, cm))
    for p in SWEEP_P:
        for scheme in netlib.F10_VARIANTS:
            kern, cm = _kernel(scheme, topo, None, p, exact=False)
            ops.append(lambda kern=kern, cm=cm: _delivery_entry(kern, cm))
    return ops


def latency_check(results: list) -> set:
    """Row masses are 1; each CDF is monotone and all schemes agree within
    four hops (rerouting only adds longer paths); f10_0 average delivery is
    (1 + 6(1-p))/7 (one of the seven ingress switches shares the
    destination's pod); delivery is ordered f10_0 <= f10_3 <= f10_35."""
    bad = set()
    ns = len(netlib.F10_VARIANTS)
    close = lambda x, y: abs(x - y) <= FLOAT_TOL
    for op, (_, masses) in enumerate(results):
        if not all(close(m, 1.0) for m in masses):
            bad.add(op)
    cdfs = [cdf for cdf, _ in results[:ns]]
    for op, cdf in enumerate(cdfs):
        if any(b < a - FLOAT_TOL for a, b in zip(cdf, cdf[1:])):
            bad.add(op)
        if not close(cdf[4], cdfs[0][4]):
            bad.update((0, op))
    for j, p in enumerate(SWEEP_P):
        base = ns + j * ns
        d0, d3, d35 = (results[base + i][0] for i in range(ns))
        if not close(d0, (1 + 6 * (1 - float(p))) / 7):
            bad.add(base)
        if not (d0 <= d3 + FLOAT_TOL and d3 <= d35 + FLOAT_TOL):
            bad.update(range(base, base + ns))
    return bad


# -- equiv8-exact ------------------------------------------------------------------

EQUIV_PAIRS = 300


def equiv_setup(seed: int) -> list:
    u = programs.universe8()
    rows = analysis.InputSpec.all_subsets(u.all_packets())
    ops = []
    for pair in programs.make_pairs(seed, EQUIV_PAIRS):
        texts = (syntax.pretty(pair.left), syntax.pretty(pair.right))
        ops.append(lambda pair=pair, texts=texts: (pair, _decide(pair, texts, rows, u)))
    return ops


def _decide(pair, texts, rows, u):
    left, right = (syntax.desugar(parser.parse(t, u)) for t in texts)
    decide = analysis.leq if pair.kind == "unroll" else analysis.equiv
    return decide(left, right, rows, u)


def equiv_check(results: list) -> set:
    bad = set()
    for op, (pair, verdict) in enumerate(results):
        if verdict.result != pair.expected:
            bad.add(op)
        elif pair.kind == "assign":
            w = verdict.witness
            if w is None or not w.input_set or w.left_prob == w.right_prob:
                bad.add(op)
    return bad


WORKLOADS = {
    w.name: w for w in (
        Workload("grid20-exact", F10_SPANS, grid_setup, grid_check),
        Workload("abft45-inf-exact", F10_SPANS, abft_setup, abft_check),
        Workload("equiv8-exact", EQUIV_SPANS, equiv_setup, equiv_check),
        Workload("latency20-float", F10_SPANS, latency_setup, latency_check),
    )
}
