"""A parametric AB FatTree built from the public ``netlib.Link`` and
``netlib.Topology`` types.

``abfattree(k)`` follows the wiring and port numbering of
``netlib.abfattree20`` (which it reproduces exactly at k=4): k pods of k/2
edge and k/2 aggregation switches, (k/2)^2 cores, pods alternating type A
(aggregation j to the j-th block of k/2 cores) and type B (aggregation j to
every (k/2)-th core from j).  Switch ids run edges, then aggregations, then
cores, from 1.  Ports number downlinks first, then uplinks, ascending by
neighbour id; only core-to-aggregation links fail.
"""

from __future__ import annotations

from pnk.netlib import AGG, CORE, EDGE, Link, Topology


def abfattree(k: int) -> Topology:
    if k < 2 or k % 2:
        raise ValueError(f"AB FatTree arity must be even and at least 2, got {k}")
    h = k // 2
    first_agg = k * h + 1
    first_core = 2 * k * h + 1
    cores = [first_core + c for c in range(h * h)]
    layers = {c: CORE for c in cores}
    agg_type: dict[int, str] = {}
    pods = []
    for i in range(k):
        typ = "AB"[i % 2]
        edges = [1 + h * i + j for j in range(h)]
        aggs = [first_agg + h * i + j for j in range(h)]
        for e in edges:
            layers[e], agg_type[e] = EDGE, typ
        for a in aggs:
            layers[a], agg_type[a] = AGG, typ
        pods.append((edges, aggs, typ))

    uplinks: dict[int, list[int]] = {}
    core_down: dict[int, list[int]] = {c: [] for c in cores}
    for _, aggs, typ in pods:
        for j, a in enumerate(aggs):
            if typ == "A":
                uplinks[a] = [first_core + j * h + m for m in range(h)]
            else:
                uplinks[a] = [first_core + m * h + j for m in range(h)]
            for c in uplinks[a]:
                core_down[c].append(a)

    links: list[Link] = []
    for edges, aggs, _ in pods:
        for e in edges:
            for i, a in enumerate(aggs):
                eport, aport = 1 + i, 1 + edges.index(e)
                links.append(Link(e, eport, a, aport))
                links.append(Link(a, aport, e, eport))
    for edges, aggs, _ in pods:
        for a in aggs:
            for i, c in enumerate(sorted(uplinks[a])):
                aport = len(edges) + 1 + i
                cport = 1 + sorted(core_down[c]).index(a)
                links.append(Link(a, aport, c, cport))
                links.append(Link(c, cport, a, aport, failable=True))
    return Topology(cores[-1], links, layers, agg_type, f"abfattree{cores[-1]}")
