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

Parentheses, keyword bodies and ``!`` may nest at most ``MAX_DEPTH`` deep,
the bound on a program's depth, and deeper input is a ``ParseError``: the
pretty-printed form of a core program within the bound always parses.

Weights are ``a/b`` rationals, integers, or decimal literals (converted
exactly, e.g. ``0.8`` becomes ``4/5``).  ``//`` comments run to end of line.
A program file may start with a header ``fields { name : size ; ... }``
declaring the universe.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError, WellFormednessError
from .syntax import (
    MAX_DEPTH, Assign, Choice, DoWhile, Drop, If, NaryChoice, Neg, Program,
    Skip, Star, Test, Var, While, seq, union, validate,
)
from .universe import FieldDecl, PacketUniverse

KEYWORDS = {
    "drop", "skip", "if", "then", "else", "while", "do", "var", "in",
    "choice", "fields",
}

# One alternative per kind of token, tried in order at each position; the
# unnamed ones are blanks.  Identifiers start with a letter or "_" and go on
# with letters, digits and "_" (``str.isalnum``), as ``\w`` does.
_TOKENS = re.compile(r"""
    (?P<newline>\n) | [ \t\r]+ | (?P<comment>//[^\n]*)
  | (?P<number>\d+\.\d+) | (?P<nat>\d+) | (?P<ident>[^\W\d]\w*)
  | (?P<symbol>:= | \+\[ | [=;&!*(){}:,\]/])
""", re.VERBOSE)


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind  # 'ident' | 'nat' | 'number' | symbol text | 'eof'
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return f"Token({self.kind!r}, {self.text!r})"


def _lex(src: str) -> list[_Token]:
    """The tokens of ``src``, in one pass of ``_TOKENS``.  A column counts
    characters from 1, and a comment adds none."""
    toks, match = [], _TOKENS.match
    pos, line, start, n = 0, 1, 0, len(src)  # start: where the line starts
    while pos < n:
        m = match(src, pos)
        kind = m and m.lastgroup
        if m is None or kind == "ident" and not (src[pos].isalpha() or src[pos] == "_"):
            raise ParseError(f"unexpected character {src[pos]!r}", line, pos - start + 1)
        end = m.end()
        if kind == "newline":
            line, start = line + 1, end
        elif kind == "comment":
            start += end - pos
        elif kind is not None:
            text = m.group()
            toks.append(_Token(text if kind == "symbol" else kind, text, line, pos - start + 1))
        pos = end
    toks.append(_Token("eof", "", line, pos - start + 1))
    return toks


class _Parser:
    def __init__(self, toks):
        self.toks = toks
        self.pos = 0
        self.depth = 0  # nested ``expr`` calls and ``!``s

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def next(self) -> _Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind) -> _Token:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(f"expected {kind!r}, found {t.text or t.kind!r}", t.line, t.col)
        return self.next()

    def enter(self) -> None:
        """One level deeper; past ``MAX_DEPTH`` a ``ParseError``, raised
        before the recursion could exhaust the stack."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            t = self.peek()
            raise ParseError(f"program nests deeper than {MAX_DEPTH} levels", t.line, t.col)

    def accept(self, kind) -> bool:
        """Take the next token if it is a ``kind``."""
        if self.peek().kind != kind:
            return False
        self.pos += 1
        return True

    def at_keyword(self, word) -> bool:
        t = self.peek()
        return t.kind == "ident" and t.text == word

    def expect_keyword(self, word) -> _Token:
        t = self.peek()
        if not self.at_keyword(word):
            raise ParseError(f"expected {word!r}, found {t.text or t.kind!r}", t.line, t.col)
        return self.next()

    # -- weights ---------------------------------------------------------

    def weight(self) -> Fraction:
        t = self.peek()
        if t.kind == "number":
            self.next()
            w = Fraction(t.text)  # exact decimal conversion
        elif t.kind == "nat":
            self.next()
            num = int(t.text)
            if self.accept("/"):
                den = int(self.expect("nat").text)
                if den == 0:
                    raise ParseError("weight denominator is zero", t.line, t.col)
                w = Fraction(num, den)
            else:
                w = Fraction(num)
        else:
            raise ParseError(f"expected a weight, found {t.text or t.kind!r}", t.line, t.col)
        if not (0 <= w <= 1):
            raise ParseError(f"weight {w} outside [0, 1]", t.line, t.col)
        return w

    def nat(self) -> int:
        return int(self.expect("nat").text)

    # -- expression grammar ------------------------------------------------

    def expr(self) -> Program:
        """``expr``, ``union`` and ``seqexp`` of the grammar, as loops in one
        frame: a level of parentheses costs three frames (expr, unary, atom)."""
        self.enter()
        parts, weights = [], []
        while True:
            unions = []
            while True:
                seqs = [self.unary()]
                while self.accept(";"):
                    seqs.append(self.unary())
                unions.append(seq(*seqs))
                if not self.accept("&"):
                    break
            parts.append(union(*unions))
            if not self.accept("+["):
                break
            weights.append(self.weight())
            self.expect("]")
        self.depth -= 1
        return Choice.chain(parts, weights)

    def unary(self) -> Program:
        """``unary`` and ``postfix`` of the grammar: ``!``s, an atom, ``*``s."""
        negs = 0
        while self.accept("!"):
            self.enter()
            negs += 1
        out = self.atom()
        while self.accept("*"):
            out = Star(out)
        for _ in range(negs):
            out = Neg(out)
        self.depth -= negs
        return out

    def atom(self) -> Program:
        t = self.peek()
        if t.kind == "(":
            self.next()
            out = self.expr()
            self.expect(")")
            return out
        if t.kind != "ident":
            raise ParseError(f"expected a program, found {t.text or t.kind!r}", t.line, t.col)
        word = t.text
        if word == "drop":
            self.next()
            return Drop()
        if word == "skip":
            self.next()
            return Skip()
        if word == "if":
            self.next()
            guard = self.expr()
            self.expect_keyword("then")
            then = self.expr()
            self.expect_keyword("else")
            other = self.expr()
            return If(guard, then, other)
        if word == "while":
            self.next()
            guard = self.expr()
            self.expect_keyword("do")
            return While(guard, self.expr())
        if word == "do":
            self.next()
            body = self.expr()
            self.expect_keyword("while")
            return DoWhile(body, self.expr())
        if word == "var":
            self.next()
            name = self.field_name()
            self.expect(":=")
            value = self.nat()
            self.expect_keyword("in")
            return Var(name, value, self.expr())
        if word == "choice":
            self.next()
            self.expect("{")
            branches = []
            while True:
                w = self.weight()
                self.expect(":")
                branches.append((self.expr(), w))
                if not self.accept(","):
                    break
            self.expect("}")
            return NaryChoice(tuple((q, w) for q, w in branches))
        if word in KEYWORDS:
            raise ParseError(f"unexpected keyword {word!r}", t.line, t.col)
        # Field test or assignment.
        self.next()
        nxt = self.peek()
        if nxt.kind == "=":
            self.next()
            return Test(word, self.nat())
        if nxt.kind == ":=":
            self.next()
            return Assign(word, self.nat())
        raise ParseError(f"expected '=' or ':=' after field {word!r}", nxt.line, nxt.col)

    def field_name(self) -> str:
        t = self.expect("ident")
        if t.text in KEYWORDS:
            raise ParseError(f"{t.text!r} is a reserved word", t.line, t.col)
        return t.text

    # -- fields header -------------------------------------------------------

    def fields_header(self) -> PacketUniverse | None:
        if not self.at_keyword("fields"):
            return None
        self.next()
        self.expect("{")
        decls = []
        while not self.peek().kind == "}":
            name = self.field_name()
            self.expect(":")
            size = self.nat()
            decls.append(FieldDecl(name, size))
            self.accept(";")
        self.expect("}")
        return PacketUniverse(decls)


def parse(text: str, universe: PacketUniverse) -> Program:
    """Parse a program expression and validate it against ``universe``."""
    p = _Parser(_lex(text))
    prog = p.expr()
    t = p.peek()
    if t.kind != "eof":
        raise ParseError(f"trailing input {t.text!r}", t.line, t.col)
    validate(prog, universe)
    return prog


def parse_file_text(text: str, universe: PacketUniverse | None = None):
    """Parse an optional ``fields`` header followed by one program expression.

    Returns ``(universe, program)``.  A universe passed in must agree with
    the header if both are present.
    """
    p = _Parser(_lex(text))
    header = p.fields_header()
    if header is not None and universe is not None and header != universe:
        raise WellFormednessError("program header disagrees with the supplied universe")
    uni = header or universe
    if uni is None:
        raise WellFormednessError("no universe: pass one or add a fields header")
    prog = p.expr()
    t = p.peek()
    if t.kind != "eof":
        raise ParseError(f"trailing input {t.text!r}", t.line, t.col)
    validate(prog, uni)
    return uni, prog
