import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pnk.errors import ParseError, WellFormednessError
from pnk.parser import parse, parse_file_text
from pnk.syntax import (
    Assign, Choice, DoWhile, Drop, If, NaryChoice, Neg, Seq, Skip, Star,
    Test, Union, Var, While, desugar, is_predicate, predicate_set, pretty,
    restrict, share, validate,
)
from pnk.universe import FieldDecl, PacketUniverse

from conftest import random_predicate, random_program, random_set

U = PacketUniverse([FieldDecl("sw", 4), FieldDecl("pt", 4), FieldDecl("f", 8)])


# -- parsing ----------------------------------------------------------------

def test_parse_drop():
    assert parse("drop", U) == Drop()


def test_parse_seq_of_test_and_assign():
    assert parse("sw=1 ; pt:=2", U) == Seq(Test("sw", 1), Assign("pt", 2))


def test_parse_starred_choice():
    assert parse("(pt:=2 +[1/2] pt:=3)*", U) == Star(
        Choice(Fraction(1, 2), Assign("pt", 2), Assign("pt", 3))
    )


def test_parse_decimal_weight_is_exact():
    p = parse("skip +[0.8] drop", U)
    assert p.weight == Fraction(4, 5)


def test_parse_comments_and_whitespace():
    text = """
    // route to port 2
    sw=1 ;   // the test
    pt:=2
    """
    assert parse(text, U) == Seq(Test("sw", 1), Assign("pt", 2))


def test_precedence_star_tighter_than_seq():
    assert parse("sw=1 ; pt:=2*", U) == Seq(Test("sw", 1), Star(Assign("pt", 2)))


def test_precedence_seq_tighter_than_union():
    p = parse("sw=1 ; pt:=2 & sw=2 ; pt:=3", U)
    assert p == Union(Seq(Test("sw", 1), Assign("pt", 2)),
                      Seq(Test("sw", 2), Assign("pt", 3)))


def test_precedence_union_tighter_than_choice():
    p = parse("skip & drop +[1/2] drop", U)
    assert p == Choice(Fraction(1, 2), Union(Skip(), Drop()), Drop())


def test_neg_binds_tighter_than_seq():
    assert parse("!sw=1 ; pt:=2", U) == Seq(Neg(Test("sw", 1)), Assign("pt", 2))


def test_parse_sugar_forms():
    assert parse("if sw=1 then pt:=2 else pt:=3", U) == If(
        Test("sw", 1), Assign("pt", 2), Assign("pt", 3))
    assert parse("while !(f=0) do f:=0", U) == While(Neg(Test("f", 0)), Assign("f", 0))
    assert parse("do f:=1 while f=0", U) == DoWhile(Assign("f", 1), Test("f", 0))
    assert parse("var f:=5 in skip", U) == Var("f", 5, Skip())
    p = parse("choice { 1/3: skip, 1/3: drop, 1/3: f:=1 }", U)
    assert p == NaryChoice(((Skip(), Fraction(1, 3)), (Drop(), Fraction(1, 3)),
                            (Assign("f", 1), Fraction(1, 3))))


def test_parse_error_has_position():
    with pytest.raises(ParseError) as err:
        parse("sw=1 ;\n; pt:=2", U)
    assert err.value.line == 2


def test_parse_unknown_field():
    with pytest.raises(WellFormednessError):
        parse("bogus=1", U)


def test_parse_value_out_of_domain():
    with pytest.raises(WellFormednessError):
        parse("sw=9", U)


def test_neg_of_non_predicate_rejected():
    with pytest.raises(WellFormednessError):
        parse("!(f:=1)", U)


def test_loop_guard_must_be_predicate():
    with pytest.raises(WellFormednessError):
        parse("while f:=1 do skip", U)


def test_nary_weights_must_sum_to_one():
    with pytest.raises(WellFormednessError):
        parse("choice { 1/2: skip, 1/3: drop }", U)


def test_fields_header():
    universe, prog = parse_file_text("fields { a : 2 ; b : 3 }\na=1 ; b:=2")
    assert universe == PacketUniverse([FieldDecl("a", 2), FieldDecl("b", 3)])
    assert prog == Seq(Test("a", 1), Assign("b", 2))


def test_fields_header_universe_mismatch():
    with pytest.raises(WellFormednessError):
        parse_file_text("fields { a : 2 }\na=1", U)


# -- pretty-printing ---------------------------------------------------------

def test_pretty_atoms():
    assert pretty(Drop()) == "drop"
    assert pretty(Star(Skip())) == "skip*"
    assert pretty(Choice(Fraction(1, 4), Skip(), Drop())) == "skip +[1/4] drop"


def test_pretty_parenthesizes_star_operand():
    assert pretty(Star(Seq(Test("sw", 1), Assign("pt", 2)))) == "(sw=1 ; pt:=2)*"


ATOMS = [Drop(), Skip(), Test("sw", 1), Test("f", 3), Assign("pt", 2), Assign("f", 0)]


def ast_strategy():
    def extend(children):
        pred = st.builds(Neg, children.filter(is_predicate))
        return st.one_of(
            st.builds(Seq, children, children),
            st.builds(Union, children, children),
            st.builds(Choice, st.sampled_from([Fraction(1, 2), Fraction(1, 3),
                                               Fraction(7, 10)]),
                      children, children),
            st.builds(Star, children),
            pred,
            st.builds(If, children.filter(is_predicate), children, children),
            st.builds(While, children.filter(is_predicate), children),
            st.builds(DoWhile, children, children.filter(is_predicate)),
            st.builds(lambda v, b: Var("f", v, b), st.integers(0, 7), children),
            st.builds(
                lambda a, b: NaryChoice(((a, Fraction(1, 4)), (b, Fraction(3, 4)))),
                children, children),
        )
    return st.recursive(st.sampled_from(ATOMS), extend, max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(ast_strategy())
def test_parse_pretty_roundtrip(p):
    assert parse(pretty(p), U) == p


@settings(max_examples=200, deadline=None)
@given(ast_strategy())
def test_desugar_idempotent(p):
    d = desugar(p)
    assert desugar(d) == d


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_desugar_preserves_predicates(data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    t = random_predicate(rng, U, 3)
    assert is_predicate(desugar(t))


# -- desugaring shapes --------------------------------------------------------

def test_desugar_if():
    t, p, q = Test("sw", 1), Assign("pt", 2), Assign("pt", 3)
    assert desugar(If(t, p, q)) == Union(Seq(t, p), Seq(Neg(t), q))


def test_desugar_var_erases():
    assert desugar(Var("f", 5, Skip())) == Seq(Seq(Assign("f", 5), Skip()),
                                               Assign("f", 0))


def test_desugar_while():
    t, p = Test("f", 0), Assign("f", 1)
    assert desugar(While(t, p)) == Seq(Star(Seq(t, p)), Neg(t))


def test_desugar_dowhile():
    t, p = Test("f", 0), Assign("f", 1)
    assert desugar(DoWhile(p, t)) == Seq(Seq(p, Star(Seq(t, p))), Neg(t))


def test_desugar_nary_rescales():
    p, q, s = Assign("f", 1), Assign("f", 2), Assign("f", 3)
    third = Fraction(1, 3)
    got = desugar(NaryChoice(((p, third), (q, third), (s, third))))
    assert got == Choice(third, p, Choice(Fraction(1, 2), q, s))


def test_validate_choice_weight_range():
    with pytest.raises(WellFormednessError):
        validate(Choice(Fraction(3, 2), Skip(), Drop()), U)


# -- predicate sets -----------------------------------------------------------

def test_predicate_set_base_cases():
    u = PacketUniverse([FieldDecl("f", 2)])
    assert predicate_set(Drop(), u) == frozenset()
    assert predicate_set(Neg(Skip()), u) == frozenset()
    assert predicate_set(Test("f", 1), u) == frozenset({u.packet(f=1)})


def test_predicate_set_contradiction_and_excluded_middle():
    u = PacketUniverse([FieldDecl("f", 3)])
    t = Test("f", 1)
    assert predicate_set(Seq(t, Neg(t)), u) == frozenset()
    assert predicate_set(Union(t, Neg(t)), u) == u.all_packets()


def test_predicate_set_de_morgan():
    u = PacketUniverse([FieldDecl("f", 2), FieldDecl("g", 3)])
    rng = random.Random(7)
    for _ in range(200):
        t = random_predicate(rng, u, 3)
        s = random_predicate(rng, u, 3)
        lhs = predicate_set(Neg(Union(t, s)), u)
        rhs = predicate_set(Seq(Neg(t), Neg(s)), u)
        assert lhs == rhs


def test_predicate_set_rejects_programs():
    with pytest.raises(WellFormednessError):
        predicate_set(Assign("f", 1), U)


def passes(t, record) -> bool:
    """Per-packet reference semantics of a predicate on one field record."""
    match t:
        case Drop():
            return False
        case Skip():
            return True
        case Test(f, v):
            return record[f] == v
        case Neg(b):
            return not passes(b, record)
        case Union(parts):
            return any(passes(q, record) for q in parts)
        case Seq(parts):
            return all(passes(q, record) for q in parts)
    raise AssertionError(f"not a predicate: {t!r}")


@pytest.mark.parametrize("sizes", [(2, 2, 2), (3, 2)])
def test_restrict_matches_per_packet_evaluation(sizes):
    u = PacketUniverse([FieldDecl(n, k) for n, k in zip("fgh", sizes)])
    rng = random.Random(11)
    for _ in range(300):
        t = random_predicate(rng, u, 3)
        a = random_set(rng, u)
        expected = frozenset(i for i in a if passes(t, u.record(i)))
        assert restrict(t, a, u) == expected


# -- sharing equal subterms ------------------------------------------------------

def _nodes(p):
    """Every node object of a program DAG, iteratively."""
    seen, stack = {}, [p]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen[id(node)] = node
        match node:
            case Union(parts) | Seq(parts):
                stack.extend(parts)
            case Neg(b) | Star(b):
                stack.append(b)
            case Choice(_, l, r):
                stack.extend((l, r))
    return list(seen.values())


def test_share_keeps_values_and_merges_equal_subterms():
    rng = random.Random(5)
    u = PacketUniverse([FieldDecl("f", 2), FieldDecl("g", 2)])
    for _ in range(60):
        p, q = random_program(rng, u, 3, 2), random_program(rng, u, 3, 2)
        for given in ((p,), (p, q), (p, Seq(q, p), Star(p))):
            out = share(*given)
            assert out == given
            nodes = [n for root in out for n in _nodes(root)]
            by_value = {}
            for n in nodes:
                assert by_value.setdefault(n, n) is n  # one object per value
            assert all(a is b for a, b in zip(share(*out), out))


def test_share_merges_across_programs():
    def body():  # a fresh copy on every call
        return Seq(Test("f", 1), Choice(Fraction(1, 3), Assign("f", 0), Skip()))

    p = Star(body())
    q = Union(Skip(), Seq(body(), Star(body())))  # the unfolding of p
    sp, sq = share(p, q)
    assert (sp, sq) == (p, q)
    assert sp is p  # nothing in p needed replacing
    step = sq.parts[1]
    assert step.parts[-1] is sp
    assert step.parts[0] is sp.body.parts[0] and step.parts[1] is sp.body.parts[1]
    (c,) = share(Choice(Fraction(1, 2), p, Star(body())))
    assert c.left is c.right


def test_share_keeps_different_values_apart():
    pairs = [
        (Choice(Fraction(1, 3), Skip(), Drop()), Choice(Fraction(2, 3), Skip(), Drop())),
        (Test("f", 0), Test("g", 0)),
        (Test("f", 0), Test("f", 1)),
        (Test("f", 0), Assign("f", 0)),
        (Union(Test("f", 0), Assign("f", 1)), Seq(Test("f", 0), Assign("f", 1))),
        (Neg(Test("f", 0)), Star(Test("f", 0))),
        (Seq(Assign("f", 0), Assign("g", 1)), Seq(Assign("g", 1), Assign("f", 0))),
    ]
    for x, y in pairs:
        sx, sy = share(x, y)
        assert (sx, sy) == (x, y)
        assert sx is not sy and sx != sy


def test_share_long_chains_without_recursion_error():
    tests = [Test("f", i % 8) for i in range(3000)]
    for chain in (Union(*tests), Seq(*tests)):
        copy = type(chain)(*[Test(t.field, t.value) for t in tests])
        out, other = share(chain, copy)
        assert out == chain and other is out
        assert len({id(t) for t in out.parts}) == 8
