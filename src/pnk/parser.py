"""Concrete syntax: lexer and recursive-descent parser.

Grammar (loosest binding first):

    expr    := union ('+[' weight ']' union)*         -- one n-ary node
    union   := seqexp ('&' seqexp)*                   -- one n-ary node
    seqexp  := unary (';' unary)*                     -- one n-ary node
    unary   := '!' unary | postfix
    postfix := atom '*'*
    atom    := 'drop' | 'skip' | IDENT '=' NAT | IDENT ':=' NAT
             | 'if' expr 'then' expr 'else' expr
             | 'while' expr 'do' expr
             | 'do' expr 'while' expr
             | 'var' IDENT ':=' NAT 'in' expr
             | 'choice' '{' weight ':' expr (',' weight ':' expr)* '}'
             | '(' expr ')'

A keyword form is built as the nodes it abbreviates (``syntax.if_then_else``
and the like) where it is parsed, so its expansion counts toward the bound
on a program's depth, ``MAX_DEPTH``.  Parentheses, keyword bodies and ``!``
may nest at most that deep, and deeper input is a ``ParseError``: the
pretty-printed form of a program within the bound always parses.

Weights are ``a/b`` rationals, integers, or decimal literals (converted
exactly, e.g. ``0.8`` becomes ``4/5``).  ``//`` comments run to end of line.
A program file may start with a header ``fields { name : size ; ... }``
declaring the universe.

The lexer is one regex pass that yields the token texts, and the parser
reads them by index; a token's kind follows from its text, and its line
and column are worked out only for an error.  Well-formedness is checked
as soon as the operands of a form are parsed (fields and values against
the universe, predicates under ``!`` and as guards, n-ary weights): a
failed check only marks its message, and the parse goes on, so a syntax
error anywhere wins.  Once the parse ends, the first message marked is
raised as a ``WellFormednessError``.  A predicate is written without
keyword forms: ``!`` and a guard refuse an operand that holds one, even
where its expansion is a predicate (``if t then u else v`` of predicates).
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

from .errors import ParseError, PnkError, WellFormednessError
from .syntax import (
    MAX_DEPTH, Assign, Choice, Drop, Neg, Program, Skip, Star, Test, _value_error,
    do_while, if_then_else, nary_choice, seq, union, uniform, var_in, while_do,
)
from .universe import FieldDecl, PacketUniverse

KEYWORDS = {
    "drop", "skip", "if", "then", "else", "while", "do", "var", "in",
    "choice", "fields",
}

_SYMBOLS = (":=", "+[", "=", ";", "&", "!", "*", "(", ")", "{", "}", ":", ",", "]", "/")

# One match per token: the blanks, newlines and comments before it, then the
# token text, the one group.  Its alternatives, in order: an identifier (a
# ``\w`` that is not a digit, then ``\w``s), a symbol, a natural number or a
# decimal, any other character and, at the end of the input only, the empty
# text: eof.  A token of no kind (``_kind``: another character, or a word
# that starts with neither a letter nor "_") is the lexer's error, looked
# for only once a parse has failed.  The group always
# matches, so the blanks and comments are never given back to it.  The eof
# may come twice (after trailing blanks); the parser stops at the first.
_TOKENS = re.compile(r"(?:[ \t\r\n]+|//[^\n]*)*([^\W\d]\w*|"
                     + "|".join(map(re.escape, _SYMBOLS)) + r"|\d+(?:\.\d+)?|.|)")
_lex = _TOKENS.findall


def _kind(text: str) -> str | None:
    """'ident', 'nat', 'number', the symbol or 'eof' that a token text is,
    or None for a character that starts no token."""
    c = text[:1]
    if c.isalpha() or c == "_":
        return "ident"
    if c.isdecimal():
        return "nat" if text.isdecimal() else "number"
    return text if text in _SYMBOLS else None if text else "eof"


def _where(src: str, j: int) -> tuple[int, int]:
    """The line and column, both from 1, of token ``j`` of ``src``; a
    comment adds no column."""
    at = next(itertools.islice(_TOKENS.finditer(src), j, None)).start(1)
    start = src.rfind("\n", 0, at) + 1
    comment = src.find("//", start, at)  # only the eof follows a comment on its line
    return src.count("\n", 0, at) + 1, (at if comment < 0 else comment) - start + 1


def _check_chars(src: str, toks: list) -> None:
    """The lexer's error, at the first token text of no kind, if there is one."""
    for j, t in enumerate(toks):
        if _kind(t) is None:
            raise ParseError(f"unexpected character {t[0]!r}", *_where(src, j))


def _parse(src: str, universe: PacketUniverse | None,
           header: bool) -> tuple[PacketUniverse, Program]:
    """``(universe, program)`` of ``src``, with a ``fields`` header read
    first when ``header`` is set.  An error at a character that starts no
    token comes first, as if the whole text were lexed before it is
    parsed."""
    toks = _lex(src)
    i = depth = 0  # the next token; nested ``expr`` calls and ``!``s
    marks = []  # the well-formedness errors found, in the order checked
    forms = 0  # the keyword forms built so far
    digits = None  # the universe's field -> (weight, size)

    def fail(msg, at=None):
        raise ParseError(msg, *_where(src, i if at is None else at))

    def expect(word):
        nonlocal i
        if toks[i] != word:
            fail(f"expected {word!r}, found {toks[i] or 'eof'!r}")
        i += 1

    def enter():
        """One level deeper; past ``MAX_DEPTH`` a ``ParseError``, raised
        before the recursion could exhaust the stack."""
        nonlocal depth
        depth += 1
        if depth > MAX_DEPTH:
            fail(f"program nests deeper than {MAX_DEPTH} levels")

    def nat():
        nonlocal i
        t = toks[i]
        if not t.isdecimal():
            fail(f"expected 'nat', found {t or 'eof'!r}")
        i += 1
        return int(t)

    def weight():
        nonlocal i
        at, t = i, toks[i]
        if t.isdecimal():
            i += 1
            if toks[i] == "/":
                i += 1
                den = nat()
                if den == 0:
                    fail("weight denominator is zero", at)
                w = Fraction(int(t), den)
            else:
                w = Fraction(int(t))
        elif t[:1].isdecimal():
            i += 1
            w = Fraction(t)  # exact decimal conversion
        else:
            fail(f"expected a weight, found {t or 'eof'!r}")
        if not (0 <= w <= 1):
            fail(f"weight {w} outside [0, 1]", at)
        return w

    def field_name():
        nonlocal i
        t = toks[i]
        if not (t[:1].isalpha() or t[:1] == "_"):
            fail(f"expected 'ident', found {t or 'eof'!r}")
        if t in KEYWORDS:
            fail(f"{t!r} is a reserved word")
        i += 1
        return t

    def expr() -> Program:
        """``expr``, ``union`` and ``seqexp`` of the grammar, as loops in one
        frame: a level of parentheses costs three frames (expr, unary, atom)."""
        nonlocal i, depth
        enter()
        parts, weights = [], []
        while True:
            unions = []
            while True:
                seqs = [unary()]
                while toks[i] == ";":
                    i += 1
                    seqs.append(unary())
                unions.append(seq(*seqs))
                if toks[i] != "&":
                    break
                i += 1
            parts.append(union(*unions))
            if toks[i] != "+[":
                break
            i += 1
            weights.append(weight())
            expect("]")
        depth -= 1
        return Choice.chain(parts, weights)

    def guard(message) -> Program:
        """An ``expr``, marking ``message`` unless a predicate with no keyword form."""
        start = forms
        cond = expr()
        if not cond.predicate or forms != start:
            marks.append(message)
        return cond

    def unary() -> Program:
        """``unary`` and ``postfix`` of the grammar: ``!``s, an atom, ``*``s."""
        nonlocal i, depth
        negs = 0
        while toks[i] == "!":
            i += 1
            enter()
            negs += 1
        start = forms
        out = atom()
        while toks[i] == "*":
            i += 1
            out = Star(out)
        if negs:
            if not out.predicate or forms != start:
                marks.append("negation applied to a non-predicate")
            for _ in range(negs):
                out = Neg(out)
            depth -= negs
        return out

    def atom() -> Program:
        nonlocal i, forms
        t = toks[i]
        i += 1
        if t not in KEYWORDS and t != "(":  # a field test or assignment
            if not (t[:1].isalpha() or t[:1] == "_"):
                fail(f"expected a program, found {t or 'eof'!r}", i - 1)
            op = toks[i]
            if op != "=" and op != ":=":
                fail(f"expected '=' or ':=' after field {t!r}")
            i += 1
            value = nat()
            if value >= digits.get(t, (0, 0))[1]:  # an unknown field has size 0
                marks.append(_value_error(t, value, universe))
            return Test(t, value) if op == "=" else Assign(t, value)
        if t == "(":
            out = expr()
            expect(")")
            return out
        if t == "drop":
            return Drop()
        if t == "skip":
            return Skip()
        forms += 1
        if t == "if":
            cond = guard("if-guard is not a predicate")
            expect("then")
            then = expr()
            expect("else")
            return if_then_else(cond, then, expr())
        if t == "while":
            cond = guard("loop guard is not a predicate")
            expect("do")
            return while_do(cond, expr())
        if t == "do":
            body = expr()
            expect("while")
            return do_while(body, guard("loop guard is not a predicate"))
        if t == "var":
            name = field_name()
            expect(":=")
            value = nat()
            if value >= digits.get(name, (0, 0))[1]:
                marks.append(_value_error(name, value, universe))
            expect("in")
            return var_in(name, value, expr())
        if t == "choice":
            expect("{")
            branches = []
            while True:
                w = weight()
                expect(":")
                branches.append((expr(), w))
                if toks[i] != ",":
                    break
                i += 1
            expect("}")
            try:
                return nary_choice(branches)
            except WellFormednessError as e:  # parsed weights lie in [0, 1]: a sum off 1,
                marks.append(str(e))  # or too deep, which ``uniform`` raises again
                return uniform(*[q for q, _ in branches])
        fail(f"unexpected keyword {t!r}", i - 1)

    try:
        if header and toks[0] == "fields":
            i = 1
            expect("{")
            decls = []
            while toks[i] != "}":
                name = field_name()
                expect(":")
                decls.append(FieldDecl(name, nat()))
                if toks[i] == ";":
                    i += 1
            expect("}")
            declared = PacketUniverse(decls)
            if universe is not None and declared != universe:
                raise WellFormednessError("program header disagrees with the supplied universe")
            universe = declared
        if universe is None:
            raise WellFormednessError("no universe: pass one or add a fields header")
        digits = universe._digits
        prog = expr()
        if toks[i]:
            fail(f"trailing input {toks[i]!r}")
    except PnkError:
        _check_chars(src, toks)
        raise
    if marks:
        raise WellFormednessError(marks[0])
    return universe, prog


def parse(text: str, universe: PacketUniverse) -> Program:
    """Parse a program expression and validate it against ``universe``."""
    return _parse(text, universe, False)[1]


def parse_file_text(text: str, universe: PacketUniverse | None = None):
    """Parse an optional ``fields`` header followed by one program expression.

    Returns ``(universe, program)``.  A universe passed in must agree with
    the header if both are present.
    """
    return _parse(text, universe, True)
