import gc
import hashlib
import itertools
import random
import re
import weakref
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pnk import parser, syntax
from pnk.analysis import estimate, sample_run
from pnk.bigstep import Kernel
from pnk.errors import ParseError, PnkError, UniverseError, WellFormednessError
from pnk.netlib import (
    F10_0, F10_3, F10_35, F10_VARIANTS, build_case_model, toy, topology_by_name,
)
from pnk.parser import parse, parse_file_text
from pnk.syntax import (
    Assign, Choice, Drop, Neg, Program, Seq, Skip, Star, Test, Union, desugar,
    do_while, if_then_else, is_predicate, nary_choice, pretty, restrict,
    uniform, validate, var_in, while_do,
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
    assert p.weights == (Fraction(4, 5),)


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
    assert parse("if sw=1 then pt:=2 else pt:=3", U) is if_then_else(
        Test("sw", 1), Assign("pt", 2), Assign("pt", 3))
    assert parse("while !(f=0) do f:=0", U) is while_do(Neg(Test("f", 0)), Assign("f", 0))
    assert parse("do f:=1 while f=0", U) is do_while(Assign("f", 1), Test("f", 0))
    assert parse("var f:=5 in skip", U) is var_in("f", 5, Skip())
    p = parse("choice { 1/3: skip, 1/3: drop, 1/3: f:=1 }", U)
    assert p is nary_choice(((Skip(), Fraction(1, 3)), (Drop(), Fraction(1, 3)),
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
            st.builds(if_then_else, children.filter(is_predicate), children, children),
            st.builds(while_do, children.filter(is_predicate), children),
            st.builds(do_while, children, children.filter(is_predicate)),
            st.builds(lambda v, b: var_in("f", v, b), st.integers(0, 7), children),
            st.builds(
                lambda a, b: nary_choice(((a, Fraction(1, 4)), (b, Fraction(3, 4)))),
                children, children),
        )
    return st.recursive(st.sampled_from(ATOMS), extend, max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(ast_strategy())
def test_parse_pretty_roundtrip(p):
    assert parse(pretty(p), U) == p


def _reference_lex(src):
    """The lexer as one character at a time: the oracle for ``_lex``."""
    symbols = [":=", "+[", "=", ";", "&", "!", "*", "(", ")", "{", "}", ":", ",", "]", "/"]
    toks, i, line, col, n = [], 0, 1, 1, len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            i, line, col = i + 1, line + 1, 1
        elif c in " \t\r":
            i, col = i + 1, col + 1
        elif src.startswith("//", i):
            while i < n and src[i] != "\n":
                i += 1
        elif c.isdecimal() or c.isalpha() or c == "_":
            j, kind = i, "ident"
            if c.isdecimal():
                kind = "nat"
                while j < n and src[j].isdecimal():
                    j += 1
                if j + 1 < n and src[j] == "." and src[j + 1].isdecimal():
                    kind, j = "number", j + 1
                    while j < n and src[j].isdecimal():
                        j += 1
            else:
                while j < n and (src[j].isalnum() or src[j] == "_"):
                    j += 1
            toks.append((kind, src[i:j], line, col))
            i, col = j, col + j - i
        else:
            sym = next((s for s in symbols if src.startswith(s, i)), None)
            if sym is None:
                raise ParseError(f"unexpected character {c!r}", line, col)
            toks.append((sym, sym, line, col))
            i, col = i + len(sym), col + len(sym)
    return toks + [("eof", "", line, col)]


def _lexed(lex, src):
    """The tokens of ``src`` as (kind, text, line, col), or the lexer's error
    as (message, line, col).  ``parser._lex`` gives the token texts, up to
    the first eof; their kinds, positions and error come from the parser's
    own helpers."""
    try:
        toks = lex(src)
        if lex is parser._lex:
            toks = toks[:toks.index("") + 1]
            parser._check_chars(src, toks)
            toks = [(parser._kind(t), t, *parser._where(src, j)) for j, t in enumerate(toks)]
        return toks
    except ParseError as e:
        return str(e), e.line, e.col


@settings(max_examples=300, deadline=None)
@given(ast_strategy())
def test_lexer_gives_the_tokens_of_the_reference_lexer(p):
    text = pretty(p)
    for src in (text, text.replace(" ; ", " ;\n\t").replace(" & ", " // x\r\n& ") + " //",
                "fields { f : 8 }\n" + text + "\n"):
        assert _lexed(parser._lex, src) == _lexed(_reference_lex, src)


@pytest.mark.parametrize("src", [
    "", "\n\n", "f := 1.5 +[0.25] skip", "f=1.", "1.2.3", "x_1 := _y2", "é:=2 ; ñ3=٣",
    "f=1 // trailing", "// only\n", "a\r\nb", "f=1 ; $", "f:=1 +[1/2]\n  g := 2 #",
    "½", "a\x0cb", "sw=1 ;\n; pt:=2", "f=²",
])
def test_lexer_gives_the_tokens_and_errors_of_the_reference_lexer(src):
    assert _lexed(parser._lex, src) == _lexed(_reference_lex, src)


# Malformed sources and the error each raises: its class, message, line
# and column (None for an error with no position).  A ``file`` source is a
# program file, parsed with ``U`` when it has a ``fields`` header.
MALFORMED = [
    ("unclosed", "(sw=1 ; pt:=2", False, ParseError, "expected ')', found 'eof'", 1, 14),
    ("unclosed-inner", "((skip) & drop", False, ParseError, "expected ')', found 'eof'", 1, 15),
    ("no-bracket", "skip +[1/2 drop", False, ParseError, "expected ']', found 'drop'", 1, 12),
    ("assign-at-end", "sw=1 ; pt :=", False, ParseError, "expected 'nat', found 'eof'", 1, 13),
    ("keyword-var", "var then := 1 in skip", False, ParseError, "'then' is a reserved word", 1, 5),
    ("keyword-field", "then=1", False, ParseError, "unexpected keyword 'then'", 1, 1),
    ("empty-choice", "choice {}", False, ParseError, "expected a weight, found '}'", 1, 9),
    ("char-after-comment", "skip // a comment\n  $ drop", False, ParseError,
     "unexpected character '$'", 2, 3),
    ("line-3-crlf-tabs", "sw=1 ;\r\n\tpt:=2 ;\r\n\t\t)", False, ParseError,
     "expected a program, found ')'", 3, 3),
    ("line-2-crlf-tab", "sw=1 ;\r\n\t@", False, ParseError, "unexpected character '@'", 2, 2),
    ("syntax-after-unknown", "bogus=1 ; (", False, ParseError,
     "expected a program, found 'eof'", 1, 12),
    ("unknown-first", "bogus=1 ; sw=9", False, WellFormednessError, "unknown field 'bogus'",
     None, None),
    ("zero-denominator", "sw=9 ; f:=1 +[1/0] skip", False, ParseError,
     "weight denominator is zero", 1, 15),
    ("weight-above-1", "skip +[3/2] drop", False, ParseError, "weight 3/2 outside [0, 1]", 1, 8),
    ("decimal-above-1", "skip +[1.5] drop", False, ParseError, "weight 3/2 outside [0, 1]", 1, 8),
    ("trailing", "skip skip", False, ParseError, "trailing input 'skip'", 1, 6),
    ("not-a-letter", "f:=\u00bd", False, ParseError, "unexpected character '\u00bd'", 1, 4),
    ("not-a-decimal", "f=\u00b2", False, ParseError, "unexpected character '\u00b2'", 1, 3),
    ("too-deep", "(" * 151 + "skip" + ")" * 151, False, ParseError,
     "program nests deeper than 150 levels", 1, 151),
    ("eof-after-comment", "sw=1 ; // trailing", False, ParseError,
     "expected a program, found 'eof'", 1, 8),
    ("guard-first", "while f:=1 do bogus=1", False, WellFormednessError,
     "loop guard is not a predicate", None, None),
    ("syntax-after-guard", "if !(f:=1) then skip else drop ; ; ", False, ParseError,
     "expected a program, found ';'", 1, 34),
    ("nary-sum", "choice { 1/2: skip, 1/3: drop } ; pt=7", False, WellFormednessError,
     "n-ary choice weights sum to 5/6, expected 1", None, None),
    ("if-guard-first", "if f:=1 then bogus=1 else skip", False, WellFormednessError,
     "if-guard is not a predicate", None, None),
    ("var-value-first", "var f:=9 in bogus=1", False, WellFormednessError,
     "value 9 out of range for field 'f'", None, None),
    ("if-is-no-guard", "while (if f=3 then drop else f=3) do f:=0", False,
     WellFormednessError, "loop guard is not a predicate", None, None),
    ("choice-is-no-predicate", "!choice { 1: f=1 }", False, WellFormednessError,
     "negation applied to a non-predicate", None, None),
    ("header-colon", "fields { sw : 4 ; pt 4 }\nskip", True, ParseError,
     "expected ':', found '4'", 1, 22),
    ("char-after-header", "fields { sw : 4 }\nsw=1 $", True, ParseError,
     "unexpected character '$'", 2, 6),
    ("header-duplicate", "fields { sw : 4 ; sw : 2 }\nskip", True, UniverseError,
     "duplicate field 'sw'", None, None),
    ("no-universe", "sw=1", True, WellFormednessError,
     "no universe: pass one or add a fields header", None, None),
]


@pytest.mark.parametrize("src,file,cls,msg,line,col", [m[1:] for m in MALFORMED],
                         ids=[m[0] for m in MALFORMED])
def test_malformed_sources_raise_their_pinned_errors(src, file, cls, msg, line, col):
    with pytest.raises(PnkError) as err:
        if file:
            parse_file_text(src, U if src.startswith("fields") else None)
        else:
            parse(src, U)
    e = err.value
    assert type(e) is cls
    assert (str(e), getattr(e, "line", None), getattr(e, "col", None)) == (
        msg if line is None else f"{line}:{col}: {msg}", line, col)


def faulty_strategy():
    """``ast_strategy()`` trees with one or two ill-formed nodes: an unknown
    field, a value out of range, or a non-predicate under ``!`` or as a
    guard; among them, faults in an ``if`` guard and its branches and in a
    ``do ... while`` body and its guard.  (Weights that do not sum to 1
    build no tree: ``nary_choice`` refuses them.)"""
    trees = ast_strategy()
    non_preds = trees.filter(lambda q: not is_predicate(q))
    fault = st.one_of(
        st.sampled_from([Test("bogus", 1), Assign("nope", 0), Test("sw", 4), Assign("f", 8)]),
        st.builds(lambda v, b: var_in("f", v, b), st.integers(8, 12), trees),
        st.builds(lambda b: var_in("bogus", 0, b), trees),
        st.builds(Neg, non_preds),
        st.builds(if_then_else, non_preds, trees, trees),
        st.builds(while_do, non_preds, trees),
        st.builds(do_while, trees, non_preds),
    )
    spot = st.one_of(fault, st.builds(Seq, trees, fault), st.builds(Union, fault, trees),
                     st.builds(Star, fault), st.builds(Neg, fault))
    return st.one_of(
        spot,
        st.builds(if_then_else, spot, trees, trees),
        st.builds(if_then_else, trees.filter(is_predicate), spot, spot),
        st.builds(if_then_else, spot, spot, trees),
        st.builds(do_while, spot, trees.filter(is_predicate)),
        st.builds(do_while, trees, spot),
        st.builds(do_while, spot, spot),
        st.builds(Seq, spot, spot),
    )


@settings(max_examples=300, deadline=None)
@given(faulty_strategy())
def test_parse_raises_what_validate_raises(p):
    with pytest.raises(WellFormednessError) as want:
        validate(p, U)
    with pytest.raises(WellFormednessError) as got:
        parse(pretty(p), U)
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


def _relaid(text, rng):
    """``text`` with one of a space, newline, tab, CRLF or ``//`` comment
    between each two tokens."""
    layout = [" ", "\n", "\t", "\r\n", " // note\n", "\t// x := 1 +[\r\n"]
    return "".join(t + rng.choice(layout) for t in re.findall(r":=|\+\[|\w+|\S", text))


@pytest.mark.parametrize("topo", ["abfattree20", "abfattree45"])
def test_case_study_programs_parse_back(topo):
    # Texts of 4-32 KB, every F10 scheme at k = 0, 2 and inf.
    rng = random.Random(11)
    for scheme, k in itertools.product([F10_0, F10_3, F10_35], [0, 2, None]):
        cm = build_case_model(scheme, topology_by_name(topo), k)
        text = pretty(cm.program)
        assert parse(text, cm.universe) is cm.program
        assert parse(_relaid(text, rng), cm.universe) is cm.program


def test_case_study_programs_print_as_their_desugared_forms_did():
    # The pretty text of every F10 model (program and teleport) on three
    # trees, at k = 0, 1, 2 and inf, with and without the hop counter, and
    # of the toy network's programs, as one sha256: the digest of
    # ``pretty(desugar(...))`` when the keyword forms were nodes of their
    # own, so building them as core nodes changes no program.
    digest = hashlib.sha256()
    for topo, k, counter, scheme in itertools.product(
            ["abfattree20", "fattree20", "abfattree45"], [0, 1, 2, None], [False, True],
            F10_VARIANTS):
        cm = build_case_model(scheme, topology_by_name(topo), k, counter=counter)
        for p in (cm.program, cm.teleport):
            digest.update(pretty(p).encode() + b"\n")
    t = toy()
    for p in (t.p, t.p_hat, t.t, t.t_hat, t.f0, t.f1, t.in_pred, t.out_pred, t.teleport,
              t.f2(), t.M(t.p), t.M_hat(t.p_hat, t.f1), t.wrapped(t.p_hat, t.f1)):
        digest.update(pretty(p).encode() + b"\n")
    assert digest.hexdigest() == (
        "dcbbcf7e2f909bf265ec7860abf94e66a9ec6142939a77c1767b927c6310d8f6")


@settings(max_examples=200, deadline=None)
@given(ast_strategy())
def test_desugar_idempotent(p):
    # Every program is built of core nodes, so ``desugar`` is the identity.
    assert desugar(p) is p


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_desugar_preserves_predicates(data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    t, p, q = (random_predicate(rng, U, 3) for _ in range(3))
    assert is_predicate(desugar(t)) and is_predicate(if_then_else(t, p, q))


# -- the abbreviations' shapes ----------------------------------------------------

def test_desugar_if():
    t, p, q = Test("sw", 1), Assign("pt", 2), Assign("pt", 3)
    assert if_then_else(t, p, q) is Union(Seq(t, p), Seq(Neg(t), q))


def test_desugar_var_erases():
    assert var_in("f", 5, Skip()) is Seq(Seq(Assign("f", 5), Skip()), Assign("f", 0))


def test_desugar_while():
    t, p = Test("f", 0), Assign("f", 1)
    assert while_do(t, p) is Seq(Star(Seq(t, p)), Neg(t))


def test_desugar_dowhile():
    t, p = Test("f", 0), Assign("f", 1)
    assert do_while(p, t) is Seq(Seq(p, Star(Seq(t, p))), Neg(t))


def test_desugar_nary_rescales():
    p, q, s = Assign("f", 1), Assign("f", 2), Assign("f", 3)
    third = Fraction(1, 3)
    got = nary_choice(((p, third), (q, third), (s, third)))
    assert got is Choice(third, p, Choice(Fraction(1, 2), q, s))
    assert uniform(p, q, s) is got and uniform(p) is p
    # An all-zero tail is dropped: the branch before it carries its mass.
    assert nary_choice(((p, Fraction(1)), (q, 0), (s, 0))) is Choice(Fraction(1), p, q)


def test_validate_choice_weight_range():
    # A weight outside [0, 1] is refused when the choice is built.
    for w in (Fraction(3, 2), Fraction(-1, 4), 1.5, -0.5):
        with pytest.raises(WellFormednessError, match=r"outside \[0, 1\]"):
            Choice(w, Skip(), Drop())
    with pytest.raises(WellFormednessError, match=r"choice weight 3/2 outside \[0, 1\]"):
        Choice.chain((Skip(), Drop(), Skip()), (Fraction(1, 2), Fraction(3, 2)))


def test_a_choice_outside_the_unit_interval_is_never_built():
    # A weight of 3/2 made a kernel row with a negative probability,
    # {f=1: 3/2, f=2: -1/2}, with no error.
    u = PacketUniverse([FieldDecl("f", 3)])
    with pytest.raises(WellFormednessError, match="outside"):
        Kernel(Choice(Fraction(3, 2), Assign("f", 1), Assign("f", 2)), u)
    row = Kernel(Choice(Fraction(1), Assign("f", 1), Assign("f", 2)), u).apply(
        frozenset({u.packet(f=0)}))
    assert row.as_dict() == {frozenset({u.packet(f=1)}): 1}


def test_a_choice_takes_one_weight_fewer_than_its_parts():
    # Three parts with one weight printed as a two-part choice, which the
    # kernel and the sampler read differently.
    a, b, c = Assign("f", 1), Assign("f", 2), Assign("f", 3)
    half = Fraction(1, 2)
    for parts, weights in (((a, b, c), (half,)), ((a, b), ()), ((a, b), (half, half)),
                           ((), ())):
        with pytest.raises(WellFormednessError, match="weights, not"):
            Choice.chain(parts, weights)
    assert Choice.chain((a,), ()) is a
    assert Choice.chain((a, b, c), (half, half)) is Choice(half, a, Choice(half, b, c))


@pytest.mark.parametrize("w", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_choice_weight_is_ill_formed(w):
    with pytest.raises(WellFormednessError):
        Choice(w, Skip(), Drop())
    with pytest.raises(WellFormednessError, match="not finite"):
        nary_choice(((Skip(), w), (Drop(), 0.5)))


@pytest.mark.parametrize("branches,msg", [
    ((), "empty n-ary choice"),
    (((Skip(), Fraction(3, 2)), (Drop(), Fraction(-1, 2))), "negative branch weight -1/2"),
    (((Skip(), Fraction(1, 2)), (Drop(), Fraction(1, 3))),
     "n-ary choice weights sum to 5/6, expected 1"),
    (((Skip(), 0.5), (Drop(), 0.25)), "n-ary choice weights sum to 0.75, expected 1"),
], ids=["empty", "negative", "sum", "float-sum"])
def test_nary_choice_refuses_what_validate_refused(branches, msg):
    with pytest.raises(WellFormednessError) as err:
        nary_choice(branches)
    assert str(err.value) == msg


# -- predicate sets: restrict on the whole universe -----------------------------

def test_predicate_set_base_cases():
    u = PacketUniverse([FieldDecl("f", 2)])
    assert restrict(Drop(), u.all_packets(), u) == frozenset()
    assert restrict(Neg(Skip()), u.all_packets(), u) == frozenset()
    assert restrict(Test("f", 1), u.all_packets(), u) == frozenset({u.packet(f=1)})


def test_predicate_set_contradiction_and_excluded_middle():
    u = PacketUniverse([FieldDecl("f", 3)])
    t = Test("f", 1)
    assert restrict(Seq(t, Neg(t)), u.all_packets(), u) == frozenset()
    assert restrict(Union(t, Neg(t)), u.all_packets(), u) == u.all_packets()


def test_predicate_set_de_morgan():
    u = PacketUniverse([FieldDecl("f", 2), FieldDecl("g", 3)])
    rng = random.Random(7)
    for _ in range(200):
        t = random_predicate(rng, u, 3)
        s = random_predicate(rng, u, 3)
        lhs = restrict(Neg(Union(t, s)), u.all_packets(), u)
        rhs = restrict(Seq(Neg(t), Neg(s)), u.all_packets(), u)
        assert lhs == rhs


def test_predicate_set_rejects_programs():
    with pytest.raises(WellFormednessError):
        restrict(Assign("f", 1), U.all_packets(), U)


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


# -- interning: one object per value --------------------------------------------

def _census(*roots):
    """(distinct node objects, distinct node values) of program DAGs, where
    a value is the class, the typed scalars and the values of the children."""
    value, values, stack = {}, {}, list(roots)
    while stack:
        node = stack[-1]
        if id(node) in value:
            stack.pop()
            continue
        match node:
            case Union(kids) | Seq(kids):
                scalars = ()
            case Neg(b) | Star(b):
                scalars, kids = (), (b,)
            case Choice(kids, weights):
                scalars = tuple((type(w), w) for w in weights)
            case Test(f, v) | Assign(f, v):
                scalars, kids = (f, (type(v), v)), ()
            case _:
                scalars, kids = (), ()
        todo = [k for k in kids if id(k) not in value]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        sig = (type(node), scalars, tuple(value[id(k)] for k in kids))
        value[id(node)] = values.setdefault(sig, len(values))
    return len(value), len(values)


def _rebuild(p):
    """The program ``p`` built again from fresh constructor calls."""
    match p:
        case Drop() | Skip():
            return type(p)()
        case Test(f, v) | Assign(f, v):
            return type(p)("".join(list(f)), int(str(v)))
        case Neg(b) | Star(b):
            return type(p)(_rebuild(b))
        case Union(parts) | Seq(parts):
            return type(p)(*[_rebuild(q) for q in parts])
        case Choice(parts, weights):
            out = _rebuild(parts[-1])
            for q, w in reversed(list(zip(parts, weights))):
                out = Choice(Fraction(w.numerator, w.denominator), _rebuild(q), out)
            return out
    raise AssertionError(f"not a core node: {p!r}")


def test_intern_merges_equal_values_within_and_across_programs():
    rng = random.Random(5)
    u = PacketUniverse([FieldDecl("f", 2), FieldDecl("g", 2)])
    for _ in range(60):
        p, q = random_program(rng, u, 3, 2), random_program(rng, u, 3, 2)
        assert _rebuild(p) is p and _rebuild(q) is q
        for given in ((p,), (p, q), (p, Seq(q, p), Star(p))):
            objects, values = _census(*given)
            assert objects == values  # one object per value


def test_intern_merges_unfolding_across_programs():
    def body():  # a fresh build on every call
        return Seq(Test("f", 1), Choice(Fraction(1, 3), Assign("f", 0), Skip()))

    p = Star(body())
    q = Union(Skip(), Seq(body(), Star(body())))  # the unfolding of p
    step = q.parts[1]
    assert step.parts[-1] is p
    assert step.parts[0] is p.body.parts[0] and step.parts[1] is p.body.parts[1]
    c = Choice(Fraction(1, 2), p, Star(body()))
    assert c.parts[0] is c.parts[1]


def test_intern_keeps_different_values_apart():
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
        assert x is not y and x != y


def test_intern_splices_chains_before_the_lookup():
    a, b, c = Test("f", 0), Assign("g", 1), Skip()
    for chain in (Union, Seq):
        assert chain(chain(a, b), c) is chain(a, chain(b, c)) is chain(a, b, c)
    r, s = Fraction(1, 3), Fraction(1, 4)
    right = Choice(r, a, Choice(s, b, c))
    assert right is Choice(r, a, Choice(s, b, c)) is Choice.chain((a, b, c), (r, s))
    assert right.parts == (a, b, c) and right.weights == (r, s)
    left = Choice(r, Choice(s, a, b), c)  # a left operand stays one part
    assert left.parts == (Choice(s, a, b), c) and left.weights == (r,)
    u = PacketUniverse([FieldDecl("f", 2), FieldDecl("g", 2)])
    for p in (right, left, Choice(r, a, left), Choice(s, left, right)):
        assert parse(pretty(p), u) is p
    assert pretty(left) == "(f=0 +[1/4] g:=1) +[1/3] skip"


def test_intern_keeps_scalar_types():
    a, b = Test("f", 0), Skip()
    half, exact = Choice(0.5, a, b), Choice(Fraction(1, 2), a, b)
    assert half is not exact
    assert type(half.weights[0]) is float and type(exact.weights[0]) is Fraction
    assert Choice(0.5, a, b) is half and Choice(Fraction(1, 2), a, b) is exact
    assert Test("f", True) is not Test("f", 1)
    n1 = nary_choice(((a, 0.5), (b, 0.5)))
    n2 = nary_choice(((a, Fraction(1, 2)), (b, Fraction(1, 2))))
    assert n1 is half and n2 is exact


def test_intern_table_drops_unheld_nodes():
    gc.collect()
    before = len(syntax._NODES)
    node = Union(Test("probe", 7), Assign("probe", 6))
    assert len(syntax._NODES) == before + 3
    ref = weakref.ref(node)
    del node
    gc.collect()
    assert ref() is None
    assert len(syntax._NODES) == before


def test_intern_long_chains_without_recursion_error():
    tests = [Test("f", i % 8) for i in range(3000)]
    for chain in (Union(*tests), Seq(*tests)):
        assert type(chain)(*[Test(t.field, t.value) for t in tests]) is chain
        assert len({id(t) for t in chain.parts}) == 8


def test_long_binary_choice_chain_without_recursion_error():
    u = PacketUniverse([FieldDecl("f", 2)])
    half = Fraction(1, 2)
    p = Assign("f", 1999 % 2)
    for i in reversed(range(1999)):
        p = Choice(half, Assign("f", i % 2), p)
    validate(p, u)
    assert len(p.parts) == 2000 and p.weights == (half,) * 1999
    assert repr(p).startswith("Choice(parts=(Assign(field='f', value=0), ")
    assert str(p) == repr(p)
    assert parse(pretty(p), u) is p
    assert parse(" +[1/2] ".join(f"f:={i % 2}" for i in range(2000)), u) is p
    assert desugar(p) is p
    hash(p)
    a = frozenset({u.packet(f=0)})
    to0 = sum(half ** (i + 1) for i in range(0, 1999, 2))
    assert Kernel(p, u).row(p, a).as_dict() == {
        frozenset({u.packet(f=0)}): to0, frozenset({u.packet(f=1)}): 1 - to0,
    }


# -- the facts a node carries ------------------------------------------------------

def _old_is_predicate(p):
    """The recursive definition the ``predicate`` fact replaces."""
    match p:
        case Drop() | Skip() | Test():
            return True
        case Neg(body):
            return _old_is_predicate(body)
        case Union(parts) | Seq(parts):
            return all(_old_is_predicate(q) for q in parts)
        case _:
            return False


def _old_has_choice(p):
    """The recursive definition the ``choice`` fact replaces."""
    match p:
        case Choice():
            return True
        case Neg(b) | Star(b):
            return _old_has_choice(b)
        case Union(parts) | Seq(parts):
            return any(_old_has_choice(q) for q in parts)
        case _:
            return False


def _all_nodes(p):
    """Every distinct node of the program DAG ``p``."""
    seen, stack = set(), [p]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        for f in fields(node):
            v = getattr(node, f.name)
            stack.extend(x for x in (v if isinstance(v, tuple) else [v])
                         if isinstance(x, Program))
    return seen


@settings(max_examples=300, deadline=None)
@given(ast_strategy())
def test_each_fact_equals_its_recursive_definition(p):
    for node in _all_nodes(p):
        assert node.choice is _old_has_choice(node) is syntax.has_choice(node)
        assert node.predicate is _old_is_predicate(node) is is_predicate(node)


def test_shared_subterms_cost_their_distinct_nodes_not_their_paths(monkeypatch):
    u = PacketUniverse([FieldDecl("f", 2), FieldDecl("g", 2)])
    p = Choice(Fraction(1, 2), Assign("g", 1), Assign("g", 0))
    for i in range(18):  # 18 branchings, 2^18 paths
        p = if_then_else(Test("f", i % 2), p, p)
    calls = 0

    def has_field(universe, name):
        nonlocal calls
        calls += 1
        return real(universe, name)

    real = PacketUniverse.has_field
    monkeypatch.setattr(PacketUniverse, "has_field", has_field)
    validate(p, u)
    assert calls <= 4  # f=0, f=1, g:=1, g:=0
    assert _census(p)[0] <= 4 * 18 + 5  # four nodes per branching
    assert syntax.has_choice(p)
    then, other = p.parts
    assert then.parts[0] is Test("f", 1) and then.parts[-1] is other.parts[-1]


# -- the depth bound ------------------------------------------------------------

UD = PacketUniverse([FieldDecl("f", 2), FieldDecl("g", 2)])

# Each builder wraps a program in one more level of nesting (two for a star).
DEEPENERS = {
    "star": lambda p, i: Star(p),
    "left choice": lambda p, i: Choice(Fraction(1, 2), p, Assign("f", i % 2)),
    "negation": lambda p, i: Neg(p),
    "seq/union": lambda p, i: (Seq(p, Test("g", i % 2)) if i % 2
                               else Union(p, Assign("f", 1))),
    "star/choice": lambda p, i: (Star(p) if i % 2
                                 else Choice(Fraction(1, 3), p, Skip())),
}


def deepest(kind: str):
    """A test wrapped by ``kind`` as often as the depth bound allows."""
    p = Test("f", 1)
    for i in itertools.count():
        try:
            p = DEEPENERS[kind](p, i)
        except WellFormednessError:
            return p


def test_depth_counts_a_star_twice():
    t, half = Test("f", 1), Fraction(1, 2)
    assert (t.depth, Neg(t).depth, Star(t).depth) == (1, 2, 3)
    assert Seq(Star(t), Neg(t), t).depth == 4
    assert Choice(half, Neg(t), Choice(half, t, Neg(Neg(t)))).depth == 4
    assert nary_choice(((t, half), (Star(t), half))).depth == 4


@pytest.mark.parametrize("kind", DEEPENERS)
def test_every_pass_works_at_the_depth_bound(kind):
    p = deepest(kind)
    # A star's two levels may stop the wrapping one short of the bound.
    assert syntax.MAX_DEPTH - ("star" in kind) <= p.depth <= syntax.MAX_DEPTH
    validate(p, UD)
    assert desugar(p) is p
    assert parse(pretty(p), UD) is p
    a = frozenset({UD.packet(f=0, g=0)})
    exact = Kernel(p, UD).apply(a)
    assert sum(exact.as_dict().values()) == 1
    assert Kernel(p, UD, exact=False).apply(a).as_dict().keys() == exact.as_dict().keys()
    if "star" in kind:
        # The sampler runs a star until it stalls, so nested stars cost it
        # exponential time; one iteration per star still walks every level.
        est = estimate(p, a, UD, 1, star_depth=1)
        assert est.n_completed + est.n_truncated == 1
    else:
        assert sample_run(p, a, UD, 0) in exact.as_dict()


def test_one_level_past_the_depth_bound_is_ill_formed():
    p = Test("f", 1)
    for _ in range(syntax.MAX_DEPTH - 1):
        p = Neg(p)
    assert p.depth == syntax.MAX_DEPTH
    for wrap in (Neg, lambda q: Union(Skip(), q), lambda q: Seq(q, Skip()),
                 lambda q: Choice(Fraction(1, 2), q, Skip()), Star,
                 lambda q: Star(p.body)):
        with pytest.raises(WellFormednessError, match="nests deeper"):
            wrap(p)


def test_long_left_nested_choice_is_ill_formed_not_a_recursion_error():
    p = Assign("f", 0)
    with pytest.raises(WellFormednessError, match="nests deeper"):
        for i in range(2000):
            p = Choice(Fraction(1, 2), p, Assign("f", i % 2))


def test_desugaring_past_the_depth_bound_is_ill_formed():
    # A loop is built three or four levels deeper than its body, and one
    # past the bound is refused as it is built.
    p, loops = Assign("f", 1), 0
    with pytest.raises(WellFormednessError, match="nests deeper"):
        while loops <= syntax.MAX_DEPTH:
            p, loops = while_do(Test("f", 0), p), loops + 1
    assert syntax.MAX_DEPTH - 4 < p.depth <= syntax.MAX_DEPTH
    with pytest.raises(WellFormednessError, match="nests deeper"):
        parse("while f=0 do " * (loops + 1) + "f:=1", UD)


@pytest.mark.parametrize("text", [
    "(" * 200 + "f:=1" + ")" * 200,
    "(" * 5000 + "f:=1",
    "!" * 200 + "f=1",
    "var f:=1 in " * 200 + "skip",
])
def test_deep_input_is_a_parse_error(text):
    with pytest.raises(ParseError, match="nests deeper") as err:
        parse(text, UD)
    assert err.value.line == 1 and err.value.col > syntax.MAX_DEPTH


@pytest.mark.parametrize("wrap,opening,closing", [
    (lambda p: if_then_else(Test("f", 0), p, Skip()), "if f=0 then ", " else skip"),
    (lambda p: do_while(p, Test("f", 0)), "do ", " while f=0"),
], ids=["if-then", "do-while"])
def test_keyword_bodies_at_the_depth_bound_parse_back(wrap, opening, closing):
    # A keyword closes the body of `then` and of `do`, so a body needs no
    # parentheses there, and each level costs the parser one level.
    p, n = Assign("f", 1), 0
    while True:
        try:
            p, n = wrap(p), n + 1
        except WellFormednessError:
            break
    assert p.depth > syntax.MAX_DEPTH - 4
    assert parse(opening * n + "f:=1" + closing * n, UD) is p
    assert parse(f"{opening}skip +[1/2] drop{closing}", UD) is wrap(
        Choice(Fraction(1, 2), Skip(), Drop()))
    # The core form of ``do`` holds its body twice, so its text doubles
    # with each level: the printed form is read back ten levels deep.
    p = Assign("f", 1)
    for _ in range(10):
        p = wrap(p)
    assert parse(pretty(p), UD) is p


def test_parentheses_at_the_depth_bound_parse():
    n = syntax.MAX_DEPTH - 1  # the outermost expression is one level
    assert parse("(" * n + "f:=1" + ")" * n, UD) is Assign("f", 1)
    with pytest.raises(ParseError):
        parse("(" * (n + 1) + "f:=1" + ")" * (n + 1), UD)
