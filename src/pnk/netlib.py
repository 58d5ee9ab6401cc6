"""Network vocabulary as program generators.

Topologies are lists of directed links; a link matches packets sitting at
its source (switch, port) and moves them to the destination (switch, port).
Failable links carry a per-port health flag ``up<srcport>``; the guarded
topology drops packets that try to cross a link whose flag is down.

This module also ships the three-switch example network used throughout
the test suite, one generator of k-ary FatTrees and AB FatTrees (``fattree``,
``abfattree``; ``TOPOLOGIES`` names its instances by switch count), and the
three-stage F10 routing scheme with 3-hop and 5-hop rerouting.

A topology keeps the programs that depend only on it, made on first use
(``Topology.kept``): its link programs, routing, F10 schemes and failure
steps.  The models of a grid over one topology share them, and F10 builds
the policy of each shape of switch once, so building a model costs little
beyond its own wrapping.  A topology is read-only once a model is built
from it; nothing here changes one.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

from .errors import WellFormednessError
from .syntax import (
    Assign, Choice, Drop, Neg, Program, Seq, Skip, Star, Test, Union, do_while,
    nary_choice, seq, union, uniform, var_in,
)
from .universe import FieldDecl, PacketUniverse

EDGE, AGG, CORE = "edge", "agg", "core"


@dataclass(frozen=True)
class Link:
    src: int
    srcport: int
    dst: int
    dstport: int
    failable: bool = False


@dataclass
class Topology:
    """Switches, links and, for the F10 schemes, each switch's layer and
    subtree type.  It keeps the programs derived from it (see ``kept``), so
    it is read-only once one is built."""

    switches: int
    links: list[Link]
    layers: dict[int, str] = field(default_factory=dict)
    agg_type: dict[int, str] = field(default_factory=dict)
    name: str = ""
    _kept: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        seen = set()
        for l in self.links:
            if (l.src, l.srcport) in seen:
                raise WellFormednessError(
                    f"duplicate source port {l.srcport} on switch {l.src}"
                )
            seen.add((l.src, l.srcport))

    def kept(self, make, *args):
        """``make(self, *args)``, made on first use and kept on this topology
        under the arguments and their types, as the intern key is (a failure
        probability of ``0.25`` and one of ``Fraction(1, 4)`` make different
        nodes).  Only values are kept: an error is raised on every call."""
        key = (make, *args, *map(type, args))
        try:
            return self._kept[key]
        except KeyError:
            value = self._kept[key] = make(self, *args)
            return value

    def adjacency(self) -> dict[int, list[tuple[int, int]]]:
        adj: dict[int, list[tuple[int, int]]] = {}
        for l in self.links:
            adj.setdefault(l.src, []).append((l.srcport, l.dst))
        for v in adj.values():
            v.sort()
        return adj

    def max_port(self) -> int:
        return max((max(l.srcport, l.dstport) for l in self.links), default=0)

    def failable_links(self) -> list[Link]:
        return [l for l in self.links if l.failable]

    def flag_fields(self) -> list[str]:
        return sorted({flag_name(l) for l in self.failable_links()},
                      key=lambda n: int(n[2:]))


def flag_name(link: Link) -> str:
    return f"up{link.srcport}"


def link_program(link: Link, guarded: bool = False) -> Program:
    """sw=i ; pt=j ; sw:=j' ; pt:=i'; the guarded form tests the port flag."""
    body = seq(Test("sw", link.src), Test("pt", link.srcport),
               Assign("sw", link.dst), Assign("pt", link.dstport))
    if guarded and link.failable:
        return Seq(Test(flag_name(link), 1), body)
    return body


def topo_program(topo: Topology, guarded: bool = False) -> Program:
    return topo.kept(_topo_program, bool(guarded))


def _topo_program(topo: Topology, guarded: bool) -> Program:
    return union(*[link_program(l, guarded) for l in topo.links])


def model(p: Program, topo: Topology) -> Program:
    """(p;t)* ; p over the unguarded topology."""
    t = topo_program(topo, guarded=False)
    return Seq(Star(Seq(p, t)), p)


def refined_model(p: Program, topo: Topology, f: Program) -> Program:
    """Failure-aware model: health flags are declared as local variables
    initialized to 1, and the failure program runs before the policy at
    every hop: var up_i:=1 in ... ((f;p);t-guarded)* ; (f;p)."""
    t = topo_program(topo, guarded=True)
    hop = Seq(f, p)
    body = Seq(Star(Seq(hop, t)), hop)
    for flag in reversed(topo.flag_fields()):
        body = var_in(flag, 1, body)
    return body


# -- the three-switch example network ---------------------------------------


@dataclass
class ToyNet:
    """The running three-switch example: Source at switch 1 port 1,
    Destination at switch 2 port 2, links 1->2, 1->3, 3->2 with the two
    switch-1 links failable."""

    universe: PacketUniverse
    topo: Topology
    p: Program
    p_hat: Program
    t: Program
    t_hat: Program
    f0: Program
    f1: Program
    in_pred: Program
    out_pred: Program
    teleport: Program

    def f2(self, fail_p: Fraction = Fraction(1, 5)) -> Program:
        keep = 1 - fail_p
        return Seq(
            Choice(keep, Assign("up2", 1), Assign("up2", 0)),
            Choice(keep, Assign("up3", 1), Assign("up3", 0)),
        )

    def M(self, p: Program) -> Program:
        return model(p, self.topo)

    def M_hat(self, p: Program, f: Program) -> Program:
        return refined_model(p, self.topo, f)

    def wrapped(self, p: Program, f: Program) -> Program:
        """in ; M_hat(p, t_hat, f) ; out"""
        return seq(self.in_pred, self.M_hat(p, f), self.out_pred)

    def flag_zero_packets(self) -> list[int]:
        u = self.universe
        return sorted(
            pk for pk in range(u.packet_count)
            if u.field_value(pk, "up2") == 0 and u.field_value(pk, "up3") == 0
        )

    def source_packet(self) -> int:
        return self.universe.packet(sw=1, pt=1, up2=0, up3=0)


def toy() -> ToyNet:
    universe = PacketUniverse([
        FieldDecl("sw", 4), FieldDecl("pt", 4),
        FieldDecl("up2", 2), FieldDecl("up3", 2),
    ])
    topo = Topology(
        switches=3,
        links=[
            Link(1, 2, 2, 1, failable=True),
            Link(1, 3, 3, 1, failable=True),
            Link(3, 2, 2, 3, failable=False),
        ],
        layers={},
        name="toy",
    )
    fwd = Assign("pt", 2)
    p = union(*[Seq(Test("sw", i), fwd) for i in (1, 2, 3)])
    p1_hat = Union(
        Seq(Test("up2", 1), Assign("pt", 2)),
        Seq(Test("up2", 0), Assign("pt", 3)),
    )
    p_hat = union(
        Seq(Test("sw", 1), p1_hat),
        Seq(Test("sw", 2), fwd),
        Seq(Test("sw", 3), fwd),
    )
    f0 = Seq(Assign("up2", 1), Assign("up3", 1))
    f1 = nary_choice((
        (f0, Fraction(1, 2)),
        (Seq(Assign("up2", 0), Assign("up3", 1)), Fraction(1, 4)),
        (Seq(Assign("up2", 1), Assign("up3", 0)), Fraction(1, 4)),
    ))
    # The ingress pins the health flags at their canonical out-of-scope
    # value so both sides of an equivalence see identical inputs.
    in_pred = seq(Test("sw", 1), Test("pt", 1), Test("up2", 0), Test("up3", 0))
    out_pred = Seq(Test("sw", 2), Test("pt", 2))
    teleport = Seq(Assign("sw", 2), Assign("pt", 2))
    return ToyNet(universe, topo, p, p_hat,
                  topo_program(topo, guarded=False),
                  topo_program(topo, guarded=True),
                  f0, f1, in_pred, out_pred, teleport)


# -- FatTree and AB FatTree generators ----------------------------------------


def _fattree(k: int, pod_types: str) -> Topology:
    """A 3-level tree with one pod per letter of ``pod_types``, each of k/2
    edge and k/2 aggregation switches, over (k/2)^2 cores.  Switch ids run
    edges, aggregations, then cores, from 1, pod by pod.  Aggregation j of a
    type-A pod links to the j-th block of k/2 cores, of a type-B pod to every
    (k/2)-th core from j: each core has one neighbour per pod, on port 1 + pod.
    Ports number downlinks first, then uplinks, ascending by neighbour id;
    only core-to-aggregation links fail.  The name gives the switch count."""
    if k < 2 or k % 2:
        raise WellFormednessError(f"FatTree arity must be even and at least 2, got {k}")
    h = k // 2
    first_agg, first_core = len(pod_types) * h + 1, 2 * len(pod_types) * h + 1
    layers = dict.fromkeys(range(first_core, first_core + h * h), CORE)
    agg_type: dict[int, str] = {}
    links: list[Link] = []
    for i, typ in enumerate(pod_types):
        edges = range(1 + h * i, 1 + h * (i + 1))
        aggs = range(first_agg + h * i, first_agg + h * (i + 1))
        layers |= dict.fromkeys(edges, EDGE) | dict.fromkeys(aggs, AGG)
        agg_type |= dict.fromkeys([*edges, *aggs], typ)
        for je, e in enumerate(edges):
            for ja, a in enumerate(aggs):
                links += [Link(e, 1 + ja, a, 1 + je), Link(a, 1 + je, e, 1 + ja)]
    for i, typ in enumerate(pod_types):
        for j in range(h):
            a = first_agg + h * i + j
            for m in range(h):
                c = first_core + (j * h + m if typ == "A" else m * h + j)
                links += [Link(a, h + 1 + m, c, 1 + i),
                          Link(c, 1 + i, a, h + 1 + m, failable=True)]
    nsw = first_core + h * h - 1
    name = f"{'ab' if 'B' in pod_types else ''}fattree{nsw}"
    return Topology(nsw, links, layers, agg_type, name)


def fattree(k: int) -> Topology:
    """The k-ary FatTree: k pods, all of type A."""
    return _fattree(k, "A" * k)


def abfattree(k: int) -> Topology:
    """The k-ary AB FatTree: k pods alternating type A and type B, so every
    core sees aggregation switches of both types."""
    return _fattree(k, "AB" * (k // 2))


def fattree20() -> Topology:
    return fattree(4)


def abfattree20() -> Topology:
    return abfattree(4)


def abfattree12() -> Topology:
    """The first two pods of ``abfattree20``, renumbered: cores have degree
    2, so there are no same-type rerouting targets; a small smoke instance."""
    return _fattree(4, "AB")


# -- F10 routing -------------------------------------------------------------

F10_0, F10_3, F10_35 = "f10_0", "f10_3", "f10_35"
F10_VARIANTS = (F10_0, F10_3, F10_35)


def routing_info(topo: Topology, dest: int):
    """Hop distances to ``dest``, the minimum-length ports per switch and
    the adjacency, kept on ``topo``: read them, do not change them."""
    return topo.kept(_routing_info, dest)


def _routing_info(topo: Topology, dest: int):
    adj = topo.adjacency()
    radj: dict[int, list[int]] = {}
    for l in topo.links:
        radj.setdefault(l.dst, []).append(l.src)
    dist = {dest: 0}
    work = deque([dest])
    while work:
        n = work.popleft()
        for s in radj.get(n, ()):
            if s not in dist:
                dist[s] = dist[n] + 1
                work.append(s)
    min_ports: dict[int, list[int]] = {}
    for s, neigh in adj.items():
        if s == dest or s not in dist:
            continue
        min_ports[s] = sorted(
            q for q, n in neigh if dist.get(n, None) == dist[s] - 1
        )
    return dist, min_ports, adj


def _up_cases(ports: list[int], hit, miss: Program) -> Program:
    """Branch on every up/down combination of the given port flags; ``hit``
    builds the body from the list of healthy ports, ``miss`` handles the
    all-down case."""
    if not ports:
        return miss
    branches = []
    for mask in range(1 << len(ports)):
        healthy = [q for i, q in enumerate(ports) if (mask >> i) & 1]
        down = [q for i, q in enumerate(ports) if not (mask >> i) & 1]
        guard = seq(*[Test(f"up{q}", 1) for q in healthy],
                    *[Test(f"up{q}", 0) for q in down])
        body = hit(healthy) if healthy else miss
        branches.append(Seq(guard, body))
    return union(*branches)


def f10(variant: str, topo: Topology, dest: int) -> Program:
    """The F10 switch policy in one of its three refinement stages.

    f10_0: forward out a uniformly random minimum-length port, excluding
    the arrival port.  f10_3 adds, at core switches whose downward port is
    unhealthy, rerouting to a healthy port toward an aggregation switch of
    the opposite subtree type.  f10_35 additionally falls back to a
    same-type aggregation switch, marking the packet (default := 0) so the
    next hop forwards it downward and restores the mark; the mark is
    initialized to 1 at the ingress.  The policy is kept on ``topo``.
    """
    return topo.kept(_f10, variant, dest)


def _f10(topo: Topology, variant: str, dest: int) -> Program:
    """``f10``'s policy; a switch's policy depends only on its ports' roles
    (its shape), so it is built once per shape."""
    if variant not in F10_VARIANTS:
        raise WellFormednessError(f"unknown F10 variant {variant!r}")
    if not topo.layers:
        raise WellFormednessError(f"{variant} needs layer annotations on the topology")
    if variant != F10_0 and not topo.agg_type:
        raise WellFormednessError(f"{variant} needs subtree types on the topology")
    dist, min_ports, adj = routing_info(topo, dest)
    with_mark = variant == F10_35
    shapes: dict = {}

    def shaped(make, *shape) -> Program:
        key = (make, *shape)
        pol = shapes.get(key)
        if pol is None:
            pol = shapes[key] = make(*shape)
        return pol

    def ecmp(arrivals: tuple, min_ports: tuple, init_mark_on: int | None) -> Program:
        branches = []
        for r in arrivals:
            ports = [q for q in min_ports if q != r]
            body = uniform(*[Assign("pt", q) for q in ports]) if ports else Drop()
            if init_mark_on is not None and r == init_mark_on:
                body = Seq(Assign("default", 1), body)
            branches.append(Seq(Test("pt", r), body))
        return union(*branches)

    def core_policy(o: int, opposite: tuple, same: tuple) -> Program:
        dead_end = Assign("pt", o)  # dropped by the guarded link
        if variant == F10_3:
            fallback = dead_end
        else:
            fallback = _up_cases(
                same,
                lambda healthy: Seq(Assign("default", 0),
                                    uniform(*[Assign("pt", q) for q in healthy])),
                dead_end,
            )
        reroute = _up_cases(
            opposite,
            lambda healthy: uniform(*[Assign("pt", q) for q in healthy]),
            fallback,
        )
        return Union(Seq(Test(f"up{o}", 1), Assign("pt", o)),
                     Seq(Test(f"up{o}", 0), reroute))

    def agg_policy(arrivals: tuple, min_ports: tuple, downs: tuple) -> Program:
        normal = ecmp(arrivals, min_ports, None)
        if not with_mark:
            return normal
        marked = Seq(Assign("default", 1),
                     uniform(*[Assign("pt", q) for q in downs]))
        return Union(Seq(Test("default", 0), marked),
                     Seq(Test("default", 1), normal))

    branches = []
    for s in sorted(adj):
        if s == dest:
            continue
        layer = topo.layers[s]
        ports = tuple(q for q, _ in adj[s])
        if layer == EDGE:
            pol = shaped(ecmp, (0, *ports), tuple(min_ports[s]),
                         0 if with_mark else None)
        elif layer == AGG:
            downs = tuple(q for q, n in adj[s] if topo.layers[n] == EDGE) if with_mark else ()
            pol = shaped(agg_policy, ports, tuple(min_ports[s]), downs)
        else:
            onpath = min_ports[s]
            if len(onpath) != 1:
                raise WellFormednessError(
                    f"core {s} has {len(onpath)} minimum-length ports, expected 1")
            o = onpath[0]
            if variant == F10_0:
                pol = Assign("pt", o)
            else:
                target_type = topo.agg_type[dict(adj[s])[o]]
                opposite = tuple(q for q, n in adj[s]
                                 if q != o and topo.agg_type[n] != target_type)
                same = tuple(q for q, n in adj[s]
                             if q != o and topo.agg_type[n] == target_type)
                pol = shaped(core_policy, o, opposite, same)
        branches.append(Seq(Test("sw", s), pol))
    return union(*branches)


# -- case-study model assembly -------------------------------------------------

COUNTER_DOMAIN = 16


def _decrement(fld: str, top: int) -> Program:
    """Total decrement-by-one on a field with domain 0..top (0 stays 0)."""
    branches = [Seq(Test(fld, v), Assign(fld, v - 1)) for v in range(top, 0, -1)]
    branches.append(Seq(Test(fld, 0), Skip()))
    return union(*branches)


def _saturating_increment(fld: str, top: int) -> Program:
    branches = [Seq(Test(fld, v), Assign(fld, v + 1)) for v in range(top)]
    branches.append(Seq(Test(fld, top), Skip()))
    return union(*branches)


def case_universe(topo: Topology, k: int | None, counter: bool = False) -> PacketUniverse:
    decls = [FieldDecl("sw", topo.switches + 1),
             FieldDecl("pt", topo.max_port() + 1),
             FieldDecl("default", 2)]
    for flag in topo.flag_fields():
        decls.append(FieldDecl(flag, 2))
    if k is not None and k > 0:
        decls.append(FieldDecl("budget", k + 1))
    if counter:
        decls.append(FieldDecl("counter", COUNTER_DOMAIN))
    return PacketUniverse(decls)


def case_failure(topo: Topology, k: int | None, p_fail: Fraction) -> Program:
    """Per-hop failure step for the big instances: at a core switch the
    flags of its (downward) ports are re-flipped, gated on the shared
    failure budget when k is finite; elsewhere it is a no-op.  Flags are
    freshly sampled each hop, so a flag only describes the current
    switch's ports.  The step is kept on ``topo``."""
    return topo.kept(_case_failure, k, p_fail)


def _case_failure(topo: Topology, k: int | None, p_fail: Fraction) -> Program:
    """``case_failure``'s step; the flips of a set of ports are built once."""
    if k == 0:
        return Skip()
    by_core: dict[int, list[int]] = {}
    for l in topo.failable_links():
        by_core.setdefault(l.src, []).append(l.srcport)
    if not by_core:
        return Skip()
    keep = 1 - p_fail
    if k is not None:
        decrement = _decrement("budget", k)

    def flip(fl: str) -> Program:
        if k is None:
            return Choice(keep, Assign(fl, 1), Assign(fl, 0))
        return Union(
            Seq(Neg(Test("budget", 0)),
                Choice(keep, Assign(fl, 1), Seq(Assign(fl, 0), decrement))),
            Seq(Test("budget", 0), Assign(fl, 1)),
        )

    flips: dict[tuple, Program] = {}
    branches = []
    core_tests = []
    for c in sorted(by_core):
        ports = tuple(sorted(by_core[c]))
        if ports not in flips:
            flips[ports] = seq(*[flip(f"up{q}") for q in ports])
        branches.append(Seq(Test("sw", c), flips[ports]))
        core_tests.append(Test("sw", c))
    branches.append(Seq(Neg(union(*core_tests)), Skip()))
    return union(*branches)


@dataclass
class CaseModel:
    """A fully assembled failure-aware routing model plus its teleport
    specification over the same universe."""

    topo: Topology
    universe: PacketUniverse
    scheme: Program
    program: Program      # in ; var_in-wrapped do_while ; pt:=0, in core nodes
    teleport: Program     # in ; sw:=dest ; pt:=0
    in_packets: list[int]  # one pinned ingress packet per source switch
    target_packet: int    # the packet every delivered/teleported packet becomes


def build_case_model(variant: str, topo: Topology, k: int | None,
                     p_fail: Fraction = Fraction(1, 4),
                     counter: bool = False) -> CaseModel:
    """The F10 model of ``variant`` on ``topo``, routing to switch 1."""
    dest = 1
    if not (0 <= p_fail < 1):
        raise WellFormednessError(f"failure probability {p_fail} outside [0, 1)")
    if k is not None and k < 0:
        raise WellFormednessError(f"negative failure bound {k}")
    universe = case_universe(topo, k, counter)
    scheme = f10(variant, topo, dest)
    flags = topo.flag_fields()
    hop = seq(case_failure(topo, k, p_fail),
              scheme,
              topo_program(topo, guarded=True))
    if counter:
        hop = Seq(hop, _saturating_increment("counter", COUNTER_DOMAIN - 1))
    if flags:
        hop = Seq(hop, seq(*[Assign(fl, 1) for fl in flags]))
    loop = do_while(hop, Neg(Test("sw", dest)))
    body = Seq(loop, Assign("pt", 0))
    if k is not None and k > 0:
        body = var_in("budget", k, body)
    for fl in reversed(flags):
        body = var_in(fl, 1, body)

    sources = sorted(s for s, layer in topo.layers.items()
                     if layer == EDGE and s != dest)
    pinned = {"pt": 0, "default": 1}
    for fl in flags:
        pinned[fl] = 0
    if k is not None and k > 0:
        pinned["budget"] = 0
    if counter:
        pinned["counter"] = 0

    tests = [Test(f, v) for f, v in pinned.items()]
    in_pred = union(*[seq(Test("sw", s), *tests) for s in sources])
    program = Seq(in_pred, body)
    teleport = seq(in_pred, Assign("sw", dest), Assign("pt", 0))
    in_packets = [universe.packet(sw=s, **pinned) for s in sources]
    target = universe.packet(sw=dest, **pinned)
    return CaseModel(topo, universe, scheme, program, teleport, in_packets, target)


TOPOLOGIES = {"fattree20": fattree20, "abfattree20": abfattree20,
              "abfattree12": abfattree12, "abfattree45": partial(abfattree, 6),
              "abfattree80": partial(abfattree, 8), "abfattree125": partial(abfattree, 10),
              "abfattree180": partial(abfattree, 12), "abfattree245": partial(abfattree, 14)}


def topology_by_name(name: str) -> Topology:
    if name not in TOPOLOGIES:
        raise WellFormednessError(f"unknown topology {name!r}")
    return TOPOLOGIES[name]()
