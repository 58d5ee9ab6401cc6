"""Case-study runners: the three-switch overview suite, the F10 resilience
grid, and the F10 latency/delivery tables.

All runners return plain dicts/lists so the CLI can render them as JSON or
CSV.  They compute on exact rows and report exact numbers: every
``Fraction`` in a report is a computed probability or expectation (the
parameters a report echoes are strings), and a verdict compares within
``tol`` (0, an exact decision, by default).

The F10 runners keep one kernel per model live while they compute the
rows of all the models over one universe: all schemes of a failure bound
k, and all (scheme, p) pairs of a sweep.  Live kernels share one state,
whose rows, like node code, are shared by layout (see ``bigstep``), and
the programs share the topology and routing subterms, which are interned,
so the models share rows: each shared subterm's rows are computed once.
The kernels of one bound go before the next bound's are built, so a grid
holds one bound's rows at a time; a caller that keeps the kernels of every
bound live, as the benchmark does, also shares the rows of the subterms
that never touch ``budget`` across bounds.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import netlib
from .analysis import InputSpec, QuerySpec, _dist_mismatch, equiv, leq, query
from .bigstep import Kernel
from .errors import ConditioningError
from .row import Row
from .star import DEFAULT_STATE_BUDGET
from .syntax import desugar, seq  # desugar unused: the benchmark's layer trace patches it here
from .universe import EMPTY

K_VALUES = (0, 1, 2, 3, 4, None)


def _k_label(k) -> str:
    return "inf" if k is None else str(k)


def _parse_k(text: str):
    return None if text in ("inf", "infinity", "oo") else int(text)


def _ingress_rows(models: list[netlib.CaseModel], state_budget: int) -> list[list[Row]]:
    """Per model, its exact output row on each pinned ingress packet, in
    ``cm.in_packets`` order, from one kernel per model, all live at once."""
    kernels = [Kernel(cm.program, cm.universe, state_budget=state_budget) for cm in models]
    return [[kern.apply(frozenset({src})) for src in cm.in_packets]
            for kern, cm in zip(kernels, models)]


# -- the overview (three-switch) suite ----------------------------------------


def toy_overview(tol: float = 0, state_budget: int = DEFAULT_STATE_BUDGET) -> dict:
    """Every §-overview check: the two delivery probabilities under f2 and
    the five (in)equivalences, decided within ``tol``."""
    net = netlib.toy()
    u = net.universe
    src = frozenset({net.source_packet()})
    f2 = net.f2(Fraction(1, 5))
    flag0 = InputSpec.all_subsets(net.flag_zero_packets(), cap=20)
    in_rows = InputSpec.of_sets([EMPTY, src])
    teleport = seq(net.in_pred, net.teleport)

    def decide(decision, p, q, rows):
        return decision(p, q, rows, u, tol=tol, state_budget=state_budget)

    def delivery(scheme):
        return query(net.wrapped(scheme, f2), src, QuerySpec.prob_nonempty(), u,
                     state_budget=state_budget)

    naive_f1 = decide(equiv, net.wrapped(net.p, net.f1), teleport, in_rows)
    naive, resilient = net.wrapped(net.p, f2), net.wrapped(net.p_hat, f2)
    return {
        "delivery_naive_f2": delivery(net.p),
        "delivery_resilient_f2": delivery(net.p_hat),
        "model_eq_refined_f0": decide(
            equiv, net.M(net.p), net.M_hat(net.p, net.f0), flag0).result,
        "resilient_f0_eq_teleport": decide(
            equiv, net.wrapped(net.p_hat, net.f0), teleport, flag0).result,
        "resilient_f1_eq_teleport": decide(
            equiv, net.wrapped(net.p_hat, net.f1), teleport, in_rows).result,
        "naive_f1_eq_teleport": naive_f1.result,
        "naive_f1_witness": naive_f1.witness is not None,
        "naive_lt_resilient_f2": (
            decide(leq, naive, resilient, in_rows).result == "leq"
            and decide(equiv, naive, resilient, in_rows).result == "not-equal"),
    }


# -- F10 resilience grid -------------------------------------------------------


def _resilience(topo: netlib.Topology, ks, p_fail: Fraction, schemes, tol: float,
                state_budget: int) -> tuple[list[dict], list[dict]]:
    """``resilience_grid``'s rows and, when the schemes include f10_0 and
    f10_3, ``fattree_scheme_equivalence``'s, from one kernel per k."""
    grid, same = [], []
    for k in ks:
        models = [netlib.build_case_model(scheme, topo, k, p_fail) for scheme in schemes]
        shared = _ingress_rows(models, state_budget)
        row = {"k": _k_label(k)}
        for scheme, cm, dists in zip(schemes, models, shared):
            target = frozenset({cm.target_packet})
            teleported = Row(1, {target: 1})
            agrees = all(_dist_mismatch(dist, teleported, tol) is None for dist in dists)
            row[scheme] = "yes" if agrees else "no"
            row[f"{scheme}_min_delivery"] = min((dist.prob(target) for dist in dists),
                                                default=None)
        grid.append(row)
        by_scheme = dict(zip(schemes, shared))
        if netlib.F10_0 in by_scheme and netlib.F10_3 in by_scheme:
            agree = all(_dist_mismatch(r0, r3, tol) is None for r0, r3 in
                        zip(by_scheme[netlib.F10_0], by_scheme[netlib.F10_3]))
            same.append({"k": _k_label(k), "f10_0_eq_f10_3": "yes" if agree else "no"})
    return grid, same


def resilience_grid(topo: netlib.Topology, ks=K_VALUES,
                    p_fail: Fraction = Fraction(1, 4), tol: float = 0,
                    state_budget: int = DEFAULT_STATE_BUDGET) -> list[dict]:
    """Per failure bound k, does each scheme behave like teleportation, and
    what is its smallest per-source delivery probability?

    Both sides produce point distributions on every pinned ingress packet
    when they agree (the model delivers with probability one and the
    delivered packet is normalized), so agreement on all ingress singletons
    settles all ingress subsets.  A row agrees with the point mass on the
    target when every probability is within ``tol`` of it.
    """
    return _resilience(topo, ks, p_fail, netlib.F10_VARIANTS, tol, state_budget)[0]


def fattree_scheme_equivalence(topo: netlib.Topology, ks=K_VALUES,
                               p_fail: Fraction = Fraction(1, 4),
                               tol: float = 0,
                               state_budget: int = DEFAULT_STATE_BUDGET) -> list[dict]:
    """Per-ingress equivalence of f10_0 and f10_3 under each failure bound;
    on the plain FatTree 3-hop rerouting never fires, so they must agree."""
    return _resilience(topo, ks, p_fail, (netlib.F10_0, netlib.F10_3), tol,
                       state_budget)[1]


# -- delivery and latency tables ----------------------------------------------


def delivery_sweep(topo: netlib.Topology, p_values,
                   state_budget: int = DEFAULT_STATE_BUDGET) -> list[dict]:
    """Average delivery probability per (scheme, link-failure probability),
    with no bound on the failures."""
    p_values = [Fraction(p) for p in p_values]
    rows = [{"p": str(p_fail)} for p_fail in p_values]
    cells = [(row, scheme, netlib.build_case_model(scheme, topo, None, p_fail))
             for row, p_fail in zip(rows, p_values) for scheme in netlib.F10_VARIANTS]
    shared = _ingress_rows([cm for _, _, cm in cells], state_budget)
    for (row, scheme, cm), dists in zip(cells, shared):
        delivered = sum((p for dist in dists
                         for b, p in dist.as_dict().items() if b), Fraction(0))
        row[scheme] = delivered / len(cm.in_packets)
    return rows


def hop_cdf(topo: netlib.Topology, p_fail: Fraction = Fraction(1, 4),
            state_budget: int = DEFAULT_STATE_BUDGET) -> dict:
    """Fraction of traffic delivered within each hop count up to the
    counter's largest value (not conditioned), plus the expected hop count
    conditioned on delivery, per scheme, with no bound on the failures.
    Traffic is uniform over the ingress switches."""
    max_hops = netlib.COUNTER_DOMAIN - 1
    out: dict = {"max_hops": max_hops, "schemes": {}}
    schemes = netlib.F10_VARIANTS
    models = [netlib.build_case_model(scheme, topo, None, p_fail, counter=True)
              for scheme in schemes]
    for scheme, cm, dists in zip(schemes, models, _ingress_rows(models, state_budget)):
        n = len(cm.in_packets)
        mass_at = [Fraction(0)] * (max_hops + 1)  # summed over the ingresses
        for dist in dists:
            for b, p in dist.as_dict().items():
                if not b:
                    continue
                counts = {cm.universe.field_value(i, "counter") for i in b}
                if len(counts) != 1:
                    raise ConditioningError("hop counter not constant on an outcome set")
                mass_at[next(iter(counts))] += p
        within = list(itertools.accumulate(mass_at))
        delivered = within[-1]
        hops = sum(h * m for h, m in enumerate(mass_at))
        out["schemes"][scheme] = {
            "cdf": [m / n for m in within],
            "delivered": delivered / n,
            "expected_hops_given_delivery": hops / delivered if delivered else None,
        }
    return out


def run_casestudy(name: str, topo_name: str = "abfattree20", ks=None,
                  p_fail=Fraction(1, 4), p_values=None, tol: float = 0,
                  state_budget: int = DEFAULT_STATE_BUDGET) -> dict:
    """Dispatch for the CLI; returns a jsonable report of exact numbers."""
    if name == "toy-overview":
        return {"casestudy": name,
                "checks": toy_overview(tol=tol, state_budget=state_budget)}
    topo = netlib.topology_by_name(topo_name)
    ks = K_VALUES if ks is None else ks
    report = {"casestudy": name, "topology": topo_name, "p_fail": str(p_fail)}
    if name == "f10-resilience":
        report["grid"], same = _resilience(topo, ks, p_fail, netlib.F10_VARIANTS,
                                           tol, state_budget)
        if topo_name == "fattree20":
            report["f10_0_eq_f10_3"] = same
        return report
    if name == "f10-latency":
        p_values = p_values or [Fraction(1, 10), Fraction(1, 5), Fraction(3, 10),
                                Fraction(2, 5), Fraction(1, 2)]
        report["hop_cdf"] = hop_cdf(topo, p_fail, state_budget=state_budget)
        report["delivery_vs_p"] = delivery_sweep(topo, p_values, state_budget=state_budget)
        return report
    raise ValueError(f"unknown case study {name!r}")
