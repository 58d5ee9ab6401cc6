import hashlib
import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from pnk import netlib
from pnk.analysis import InputSpec, equiv, leq
from pnk.bigstep import Kernel
from pnk.errors import WellFormednessError
from pnk.netlib import (
    Link, Topology, abfattree12, abfattree20, case_failure, fattree20,
    link_program, model, refined_model, routing_info, topo_program, toy,
)
from pnk.syntax import Drop, Seq, desugar, pretty, seq, validate
from pnk.universe import EMPTY, FieldDecl, PacketUniverse

from conftest import cold_kernel, cold_rows


def krow(p, u, a, exact=True):
    k = Kernel(desugar(p), u, exact=exact)
    return k.row(k.program, a).as_dict()


# -- links and topologies -----------------------------------------------------

def test_toy_topology_program_shape():
    net = toy()
    assert pretty(net.t) == (
        "sw=1 ; pt=2 ; sw:=2 ; pt:=1 & sw=1 ; pt=3 ; sw:=3 ; pt:=1"
        " & sw=3 ; pt=2 ; sw:=2 ; pt:=3"
    )
    assert pretty(net.t_hat).startswith("up2=1 ; sw=1 ; pt=2 ; sw:=2 ; pt:=1 &")


def test_empty_topology_is_drop():
    assert topo_program(Topology(0, [])) == Drop()


def test_guarded_link_with_flag_down_drops():
    net = toy()
    u = net.universe
    ell12 = link_program(net.topo.links[0], guarded=True)
    down = frozenset({u.packet(sw=1, pt=2, up2=0, up3=1)})
    up = frozenset({u.packet(sw=1, pt=2, up2=1, up3=1)})
    assert krow(ell12, u, down) == {EMPTY: Fraction(1)}
    assert krow(ell12, u, up) == {frozenset({u.packet(sw=2, pt=1, up2=1, up3=1)}): Fraction(1)}


def test_duplicate_ports_rejected():
    with pytest.raises(WellFormednessError):
        Topology(2, [Link(1, 1, 2, 1), Link(1, 1, 2, 2)])


# -- failure models --------------------------------------------------------------

def test_f0_yields_all_up_point_mass():
    net = toy()
    u = net.universe
    a = frozenset({u.packet(sw=1, pt=1, up2=0, up3=0)})
    assert krow(net.f0, u, a) == {frozenset({u.packet(sw=1, pt=1, up2=1, up3=1)}): Fraction(1)}


def test_f2_four_outcomes():
    net = toy()
    u = net.universe
    a = frozenset({u.packet(sw=1, pt=1, up2=0, up3=0)})
    got = krow(net.f2(Fraction(1, 5)), u, a)
    pk = lambda b2, b3: frozenset({u.packet(sw=1, pt=1, up2=b2, up3=b3)})
    assert got == {
        pk(1, 1): Fraction(16, 25),
        pk(0, 1): Fraction(4, 25),
        pk(1, 0): Fraction(4, 25),
        pk(0, 0): Fraction(1, 25),
    }


def test_f1_literal_outcomes():
    net = toy()
    u = net.universe
    a = frozenset({u.packet(sw=1, pt=1, up2=0, up3=0)})
    got = krow(desugar(net.f1), u, a)
    pk = lambda b2, b3: frozenset({u.packet(sw=1, pt=1, up2=b2, up3=b3)})
    assert got == {
        pk(1, 1): Fraction(1, 2),
        pk(0, 1): Fraction(1, 4),
        pk(1, 0): Fraction(1, 4),
    }


def one_core(ports) -> Topology:
    """Switch 1 with a failable link out of each of ``ports``."""
    return Topology(len(ports) + 1,
                    [Link(1, q, i + 2, 1, True) for i, q in enumerate(ports)])


def test_budget_gated_failures():
    # Two links, at most one failure, p = 1/4: no-failure 9/16,
    # first-only 1/4 (second flip is forced up), second-only 3/16.
    u = PacketUniverse([FieldDecl("sw", 2), FieldDecl("up2", 2),
                        FieldDecl("up3", 2), FieldDecl("budget", 2)])
    f = case_failure(one_core((2, 3)), 1, Fraction(1, 4))
    validate(f, u)
    a = frozenset({u.packet(sw=1, up2=0, up3=0, budget=1)})
    got = krow(f, u, a)
    pk = lambda b2, b3, bud: frozenset({u.packet(sw=1, up2=b2, up3=b3, budget=bud)})
    assert got == {
        pk(1, 1, 1): Fraction(9, 16),
        pk(0, 1, 0): Fraction(1, 4),
        pk(1, 0, 0): Fraction(3, 16),
    }


def test_unbounded_failure_marginals():
    # Each flag ends down with probability exactly p.
    u = PacketUniverse([FieldDecl("sw", 2), FieldDecl("up2", 2),
                        FieldDecl("up3", 2), FieldDecl("up4", 2)])
    topo = one_core((2, 3, 4))
    for p in (Fraction(1, 5), Fraction(2, 7)):
        f = case_failure(topo, None, p)
        a = frozenset({u.packet(sw=1, up2=1, up3=1, up4=1)})
        dist = krow(f, u, a)
        for fld in ("up2", "up3", "up4"):
            down = sum(pr for b, pr in dist.items()
                       if u.field_value(next(iter(b)), fld) == 0)
            assert down == p


def test_failure_model_validation():
    for k, p in ((None, Fraction(1)), (1, Fraction(3, 2)),
                 (None, Fraction(-1, 4)), (-1, Fraction(1, 2))):
        with pytest.raises(WellFormednessError):
            netlib.build_case_model(netlib.F10_0, abfattree12(), k, p)


# -- generated topologies ----------------------------------------------------------

def layer_counts(t):
    return {layer: sum(1 for s in t.layers.values() if s == layer)
            for layer in ("edge", "agg", "core")}


def test_fattree_shapes():
    ft, ab = fattree20(), abfattree20()
    for t in (ft, ab):
        assert t.switches == 20
        assert layer_counts(t) == {"edge": 8, "agg": 8, "core": 4}
        # Cores have degree 4; only core->agg links are failable.
        adj = t.adjacency()
        for s, layer in t.layers.items():
            if layer == "core":
                assert len(adj[s]) == 4
        assert all(t.layers[l.src] == "core" and t.layers[l.dst] == "agg"
                   for l in t.failable_links())
        assert len(t.failable_links()) == 16
    assert set(ft.layers) == set(ab.layers)
    assert set(ab.agg_type.values()) == {"A", "B"}
    assert len(set(ft.agg_type.values())) == 1
    assert {(l.src, l.dst) for l in ft.links} != {(l.src, l.dst) for l in ab.links}


def test_abfattree_cores_see_both_types():
    ab = abfattree20()
    adj = ab.adjacency()
    for c, layer in ab.layers.items():
        if layer != "core":
            continue
        types = {ab.agg_type[n] for _, n in adj[c]}
        assert types == {"A", "B"}


def test_reduced_abfattree_shape():
    t = abfattree12()
    assert t.switches == 12
    assert layer_counts(t) == {"edge": 4, "agg": 4, "core": 4}
    adj = t.adjacency()
    for c, layer in t.layers.items():
        if layer == "core":
            assert len(adj[c]) == 2


# Pinned digests (see topo_digest) of the named instances: their wiring,
# port numbers and link order must not move, since the pinned case-study
# results are taken on them.  topo_program unions the links in order; the
# rows do not depend on that order, but the program text does.
DIGESTS = {
    "fattree20": "c5ff9ef45257ea8d057d6158052878a5f4daf4bf98a8dabf595a5f72e9a93dc0",
    "abfattree20": "b325aa2e0e0b0ec438b70f6fc8a159e058a5bbb8343e9f2ccc355887e6b05346",
    "abfattree12": "32733fb988b8953e6eb4739e212772a33134eb8fa578cb03bc36f813968ac11f",
}


def topo_digest(t: Topology) -> str:
    links = [(l.src, l.srcport, l.dst, l.dstport, l.failable) for l in t.links]
    fields = (t.switches, t.name, links, sorted(t.layers.items()),
              sorted(t.agg_type.items()))
    return hashlib.sha256(repr(fields).encode()).hexdigest()


@pytest.mark.parametrize("name", DIGESTS)
def test_named_instances_keep_their_wiring(name):
    assert topo_digest(getattr(netlib, name)()) == DIGESTS[name]


@pytest.fixture
def reference_abfattree(monkeypatch):
    """``abfattree`` of the benchmark's own copy, loaded without writing a
    bytecode cache next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = Path(__file__).resolve().parents[1] / "perfbench" / "topo.py"
    spec = importlib.util.spec_from_file_location("perfbench_topo", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.abfattree


@pytest.mark.parametrize("k", (2, 4, 6, 8))
def test_abfattree_matches_the_benchmark_reference(reference_abfattree, k):
    got, ref = netlib.abfattree(k), reference_abfattree(k)
    assert topo_digest(got) == topo_digest(ref)
    assert got.name == f"abfattree{5 * k * k // 4}"


@pytest.mark.parametrize("k", (2, 4, 6, 8))
def test_fattree_shapes_by_arity(k):
    h = k // 2
    for t in (netlib.fattree(k), netlib.abfattree(k)):
        assert t.switches == 5 * h * h
        assert layer_counts(t) == {"edge": k * h, "agg": k * h, "core": h * h}
        adj = t.adjacency()
        assert all(len(adj[s]) == k for s, layer in t.layers.items()
                   if layer != "edge")
        assert len(t.failable_links()) == k * h * h
    assert set(netlib.fattree(k).agg_type.values()) == {"A"}
    assert set(netlib.abfattree(k).agg_type.values()) == {"A", "B"}


@pytest.mark.parametrize("k", (0, 3, -2))
def test_fattree_arity_must_be_even_and_positive(k):
    with pytest.raises(WellFormednessError):
        netlib.fattree(k)


def test_routing_info_distances():
    ab = abfattree20()
    dist, min_ports, adj = routing_info(ab, 1)
    assert dist[2] == 2  # same-pod edge: two hops via an aggregation switch
    assert dist[7] == 4  # distant edge: up, core, down, down
    for c, layer in ab.layers.items():
        if layer == "core":
            assert len(min_ports[c]) == 1


def test_f10_programs_typecheck():
    for name in netlib.TOPOLOGIES:
        topo = netlib.topology_by_name(name)
        for variant in netlib.F10_VARIANTS:
            for k in (0, 2, None):
                cm = netlib.build_case_model(variant, topo, k)
                validate(cm.program, cm.universe)
                validate(cm.teleport, cm.universe)


def test_f10_rejects_core_with_two_minimum_ports():
    # Core 4 reaches the destination edge 1 through aggregation switch 2
    # and through aggregation switch 3 in the same number of hops.
    links = [Link(1, 1, 2, 1), Link(2, 1, 1, 1), Link(1, 2, 3, 1), Link(3, 1, 1, 2),
             Link(2, 2, 4, 1), Link(4, 1, 2, 2, True),
             Link(3, 2, 4, 2), Link(4, 2, 3, 2, True)]
    topo = Topology(4, links, layers={1: "edge", 2: "agg", 3: "agg", 4: "core"},
                    agg_type={1: "A", 2: "A", 3: "B"})
    assert routing_info(topo, 1)[1][4] == [1, 2]
    for variant in netlib.F10_VARIANTS:
        with pytest.raises(WellFormednessError):
            netlib.f10(variant, topo, 1)


def test_f10_needs_annotations():
    bare = Topology(3, [Link(1, 1, 2, 1), Link(2, 1, 1, 1)])
    with pytest.raises(WellFormednessError):
        netlib.f10(netlib.F10_0, bare, 1)
    with pytest.raises(WellFormednessError):
        netlib.f10("f10_99", fattree20(), 1)


def test_saturating_counter_never_decreases():
    inc = netlib._saturating_increment("c", 3)
    u = PacketUniverse([FieldDecl("c", 4)])
    for v in range(4):
        out = krow(inc, u, frozenset({u.packet(c=v)}))
        ((b, pr),) = out.items()
        assert pr == 1
        assert u.field_value(next(iter(b)), "c") == min(v + 1, 3)


def test_refinement_chain_on_abfattree():
    # drop < f10_0 < f10_3 < f10_35 < teleport under unbounded failures.
    ab = abfattree20()
    models = [netlib.build_case_model(v, ab, None, Fraction(1, 4))
              for v in netlib.F10_VARIANTS]
    u = models[0].universe
    rows = InputSpec.of_sets([frozenset({s}) for s in models[0].in_packets])
    programs = [Drop()] + [m.program for m in models] + [models[0].teleport]
    for lo, hi in zip(programs, programs[1:]):
        assert leq(lo, hi, rows, u).result == "leq"
        assert equiv(lo, hi, rows, u).result == "not-equal"


def test_star_table_rows_equal_fresh_kernels_on_abfattree20():
    # f10_35 at k=inf: one kernel over every ingress row reuses the star
    # rows solved for the rows before; a fresh kernel per row does not.
    cm = netlib.build_case_model(netlib.F10_35, abfattree20(), None,
                                 Fraction(1, 4))
    prog = desugar(cm.program)
    inputs = [frozenset({s}) for s in cm.in_packets]
    fresh = [cold_rows(prog, cm.universe, [a])[0] for a in inputs]
    shared = cold_kernel(prog, cm.universe)
    for a, row in zip(inputs, fresh):
        assert shared.row(prog, a) == row


def test_default_flag_restored_on_delivery():
    # Delivered packets always carry default=1: composing the model with
    # the default=1 filter changes nothing, for bounded and unbounded k.
    from pnk.syntax import Test as T
    ab = abfattree20()
    for k in (2, None):
        cm = netlib.build_case_model(netlib.F10_35, ab, k, Fraction(1, 4))
        u = cm.universe
        rows = InputSpec.of_sets([frozenset({s}) for s in cm.in_packets])
        filtered = Seq(cm.program, T("default", 1))
        assert equiv(cm.program, filtered, rows, u).result == "equal"


def test_ingress_init_fixes_marked_packets():
    # An ingress packet arriving with default=0 is re-marked by f10_35 and
    # still delivered under the failure-free model.
    ab = abfattree20()
    cm = netlib.build_case_model(netlib.F10_35, ab, 0)
    u = cm.universe
    bad = u.packet(sw=7, pt=0, default=0, up1=0, up2=0, up3=0, up4=0)
    k = Kernel(desugar(cm.program), u)
    # The pinned ingress predicate rejects it at the model boundary; route
    # the raw wrapped body, every part after it, instead to exercise the
    # scheme itself.
    body = seq(*cm.program.parts[1:])
    kb = Kernel(desugar(body), u)
    dist = kb.apply(frozenset({bad})).as_dict()
    ((b, pr),) = dist.items()
    assert pr == 1
    assert u.field_value(next(iter(b)), "default") == 1
    assert u.field_value(next(iter(b)), "sw") == 1


def test_model_forms():
    net = toy()
    m = model(net.p, net.topo)
    mh = refined_model(net.p, net.topo, net.f0)
    validate(m, net.universe)
    validate(mh, net.universe)
    # The health flags are local: set to 1 first, and erased last.
    text = pretty(mh)
    assert text.startswith("up2:=1 ; up3:=1 ; ") and text.endswith(" ; up3:=0 ; up2:=0")


def test_case_failure_only_flips_at_cores():
    ab = abfattree20()
    f = case_failure(ab, None, Fraction(1, 4))
    u = netlib.case_universe(ab, None)
    agg_pkt = frozenset({u.packet(sw=9, pt=1, default=1, up1=1, up2=1, up3=1, up4=1)})
    assert krow(f, u, agg_pkt) == {agg_pkt: Fraction(1)}
    core_pkt = frozenset({u.packet(sw=17, pt=1, default=1, up1=1, up2=1, up3=1, up4=1)})
    dist = krow(f, u, core_pkt)
    assert len(dist) == 16 and sum(dist.values()) == 1


def test_grid_of_an_unnamed_instance_runs():
    # The grid takes a topology object, so one not listed in TOPOLOGIES
    # runs too.
    from pnk.casestudy import resilience_grid
    topo = netlib.fattree(2)
    assert topo.name not in netlib.TOPOLOGIES
    grid = resilience_grid(topo, ks=(0, None))
    assert [row["f10_0"] for row in grid] == ["yes", "no"]


def test_case_studies_share_one_kernel_state_per_universe(monkeypatch):
    # Each model gets a kernel of its own, and the kernels of all models
    # over one universe live at once, so they share one kernel state: the
    # schemes of each k of the grid and of the scheme comparison, the
    # fattree20 report's grid and comparison together, and the two
    # universes of f10-latency (the hop CDF's, with its counter, and the
    # sweep's).  Each row equals the row of a fresh kernel on its model.
    from pnk import bigstep, casestudy
    made, rows = {"kernels": 0, "states": 0}, []

    class Counting(Kernel):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made["kernels"] += 1

        def apply(self, aset):
            out = super().apply(aset)
            rows.append((self.universe, self.program, aset, out))
            return out

    init = bigstep._State.__init__

    def counted(self, *args):
        made["states"] += 1
        init(self, *args)
    monkeypatch.setattr(casestudy, "Kernel", Counting)
    monkeypatch.setattr(bigstep._State, "__init__", counted)
    topo, ks = netlib.abfattree12(), casestudy.K_VALUES
    for run, models, states in (
            (lambda: casestudy.resilience_grid(topo, ks), 3 * len(ks), len(ks)),
            (lambda: casestudy.fattree_scheme_equivalence(topo, ks), 2 * len(ks), len(ks)),
            (lambda: casestudy.run_casestudy("f10-resilience", "fattree20", ks),
             3 * len(ks), len(ks)),
            (lambda: casestudy.run_casestudy("f10-latency", "abfattree12"), 3 + 3 * 5, 2)):
        made.update(kernels=0, states=0)
        run()
        assert made == {"kernels": models, "states": states}
    assert rows
    fresh = {}
    for universe, program, aset, row in rows:
        if (universe, program) not in fresh:
            fresh[universe, program] = Kernel(program, universe)
        assert fresh[universe, program].apply(aset) == row


# -- the programs a topology keeps ----------------------------------------------

GRID = [(k, v) for k in (0, 1, 2, 3, 4, None) for v in netlib.F10_VARIANTS]


def _core_shapes(topo, dest=1):
    """Each core's on-path port and its other ports of the opposite and of
    the same subtree type, as F10 routes from it."""
    _, min_ports, adj = routing_info(topo, dest)
    shapes = set()
    for s, layer in topo.layers.items():
        if layer == "core":
            (o,) = min_ports[s]
            kinds = {q: topo.agg_type[n] == topo.agg_type[dict(adj[s])[o]] for q, n in adj[s]}
            shapes.add((o, tuple(q for q in kinds if q != o and not kinds[q]),
                        tuple(q for q in kinds if q != o and kinds[q])))
    return shapes


def test_models_of_one_topology_share_its_parts(monkeypatch):
    # The guarded topology, each scheme and each failure step are built
    # once per topology: later models take the very nodes the first made.
    made = []
    for name in ("_topo_program", "_f10", "_case_failure", "_routing_info"):
        fn = getattr(netlib, name)
        monkeypatch.setattr(netlib, name, lambda *a, fn=fn, name=name:
                            made.append(name) or fn(*a))
    topo = abfattree20()
    first = netlib.build_case_model(netlib.F10_3, topo, 2)
    assert sorted(made) == ["_case_failure", "_f10", "_routing_info", "_topo_program"]
    again = netlib.build_case_model(netlib.F10_3, topo, 2)
    other_k = netlib.build_case_model(netlib.F10_3, topo, 4)
    assert len(made) == 5  # k=4's failure step alone is new
    assert again.scheme is first.scheme is other_k.scheme
    assert again.program is first.program
    guarded = topo_program(topo, guarded=True)
    assert guarded is topo_program(topo, True)
    assert case_failure(topo, 2, Fraction(1, 4)) is case_failure(topo, 2, Fraction(1, 4))
    for m, k in ((first, 2), (other_k, 4)):
        parts = _subterms(m.program).keys()
        assert {id(first.scheme), id(guarded), id(case_failure(topo, k, Fraction(1, 4)))} <= parts
    assert len(made) == 5


def _subterms(p) -> dict:
    """Every node of ``p``, by id."""
    seen, stack = {}, [p]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node.parts if hasattr(node, "parts") else
                         [node.body] if hasattr(node, "body") else [])
    return seen


def test_a_switch_policy_is_built_once_per_shape(monkeypatch):
    # On abfattree45 every core reaches the destination through pod 0, so
    # all 9 cores have one shape: f10_3 branches on the flags of its
    # opposite-type ports once, and f10_35 also on its same-type ports.
    calls = []
    up_cases = netlib._up_cases
    monkeypatch.setattr(netlib, "_up_cases", lambda *a: calls.append(a[0]) or up_cases(*a))
    topo = netlib.topology_by_name("abfattree45")
    shapes = _core_shapes(topo)
    assert len(shapes) < sum(layer == "core" for layer in topo.layers.values())
    for variant, per_shape in ((netlib.F10_0, 0), (netlib.F10_3, 1), (netlib.F10_35, 2)):
        calls.clear()
        netlib.f10(variant, topo, 1)
        netlib.f10(variant, topo, 1)
        assert len(calls) == per_shape * len(shapes)


def test_errors_are_never_kept():
    # A refused build raises again on the next call: only values are kept.
    links = [Link(1, 1, 2, 1), Link(2, 1, 1, 1), Link(1, 2, 3, 1), Link(3, 1, 1, 2),
             Link(2, 2, 4, 1), Link(4, 1, 2, 2, True),
             Link(3, 2, 4, 2), Link(4, 2, 3, 2, True)]
    two_ports = Topology(4, links, layers={1: "edge", 2: "agg", 3: "agg", 4: "core"},
                         agg_type={1: "A", 2: "A", 3: "B"})
    bare = Topology(3, [Link(1, 1, 2, 1), Link(2, 1, 1, 1)])
    for _ in range(2):
        with pytest.raises(WellFormednessError, match="unknown F10 variant"):
            netlib.f10("f10_99", fattree20(), 1)
        with pytest.raises(WellFormednessError, match="2 minimum-length ports"):
            netlib.f10(netlib.F10_3, two_ports, 1)
        with pytest.raises(WellFormednessError, match="layer annotations"):
            netlib.build_case_model(netlib.F10_0, bare, None)


def test_a_float_failure_probability_is_kept_apart_from_its_fraction():
    # 0.25 and 1/4 are equal and hash alike, but make different nodes
    # (+[0.75] and +[3/4]), so the memo keys them by type as well.
    topo = abfattree20()
    exact = netlib.build_case_model(netlib.F10_35, topo, None, Fraction(1, 4))
    rounded = netlib.build_case_model(netlib.F10_35, topo, None, 0.25)
    assert rounded.program is netlib.build_case_model(netlib.F10_35, abfattree20(),
                                                      None, 0.25).program
    assert rounded.program is not exact.program
    assert "+[0.75]" in pretty(case_failure(topo, None, 0.25))
    assert "+[3/4]" in pretty(case_failure(topo, None, Fraction(1, 4)))


# The intern calls that building the 18 grid models of one abfattree80
# topology makes: 182,466 when every model was built from scratch, 6,917
# since a topology keeps its parts and F10 builds a policy once per shape.
GRID80_INTERN_CALLS = 9_000


def test_the_grid_of_one_topology_makes_few_intern_calls(monkeypatch):
    from pnk import syntax
    calls = [0]
    intern = syntax._intern

    def counted(*args):
        calls[0] += 1
        return intern(*args)
    topo = netlib.topology_by_name("abfattree80")
    monkeypatch.setattr(syntax, "_intern", counted)
    models = [netlib.build_case_model(v, topo, k) for k, v in GRID]
    assert len(models) == 18 and calls[0] <= GRID80_INTERN_CALLS


def test_grid_cells_over_one_topology_equal_cells_over_fresh_ones():
    # The 18 abfattree20 cells, built over one topology with every kernel
    # live (as the case study runs them), have the rows of cells each built
    # over a fresh topology and run by a kernel of its own.
    topo = abfattree20()
    shared = [netlib.build_case_model(v, topo, k) for k, v in GRID]
    kernels = [Kernel(cm.program, cm.universe) for cm in shared]
    rows = [[kern.apply(frozenset({s})) for s in cm.in_packets]
            for kern, cm in zip(kernels, shared)]
    del kernels
    for (k, v), cm, got in zip(GRID, shared, rows):
        fresh = netlib.build_case_model(v, abfattree20(), k)
        assert fresh.program is cm.program and fresh.in_packets == cm.in_packets
        assert cold_rows(fresh.program, fresh.universe,
                         [frozenset({s}) for s in fresh.in_packets]) == got
