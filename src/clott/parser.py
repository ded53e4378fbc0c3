"""Concrete syntax: tokenizer, syntax table and precedence-climbing parser.

Surface syntax (see README for the grammar):

    fun x -> x                        lambda
    tick a : k -> t                   tick abstraction
    clock k -> t                      clock abstraction
    t [a]        t @ k                tick / clock application
    later (a : k) -> A   later k A    delay type (dependent / simple)
    forall-clk k -> A                 clock quantification
    (x : A) -> B    A -> B            dependent / simple function type
    (x : A) * B     A * B             dependent / simple pair type
    A + B,  unit,  empty,  Id A t u   sums, units, identity type
    U{k1,k2}   Prop{k}                universes
    El t,  Prf p,  In{d => d'} t      decoding and universe inclusion
    cpi/csig (x : a) -> b, csum a b,  universe codes
    cid a t u, clater (a:k) -> t,
    cforall k -> t
    ptop, pbot, p /\\ q, p \\/ q,     proposition formers
    exists (x : a) -> p, all (x : a) -> p,
    peq a t u, plater (a:k) -> p, pforall-clk k -> p

Files use `--` line comments and `def NAME : TYPE = TERM` declarations.

The tokenizer matches one compiled regular expression, an alternation of
every token kind, at each position; columns count characters from the
start of the line.

One table below lists the binder keywords by shape, the prefix keywords
and the infix symbols with their precedence; the printer reads it too.
`term` parses a binder form or a dependent function or pair type, and
otherwise climbs precedence over the infix symbols with applications as
operands (Pratt, "Top down operator precedence", POPL 1973).  A level of
parentheses costs four Python frames (atom, term, app, postfix), so
about 240 levels parse under the default recursion limit.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .terms import (
    AOp, AVar, Ann, App, Case, ClockAbs, ClockApp, Const, CONSTANTS, El,
    Forall, ForallCode, Fst, Id, IdCode, Incl, Inl, Inr, Lam, Later,
    LaterCode, PAnd, PEq, PExists, PForall, PForallClk, PLater, POr, Pair,
    Pi, PiCode, Prf, PropU, Sigma, SigmaCode, Snd, Sum, SumCode, Term,
    TickAbs, TickApp, Univ, Var,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


@dataclass(slots=True)
class Token:
    kind: str          # 'name', 'num', 'sym', 'eof'
    value: str
    line: int
    col: int


# Blanks, then one alternation tried in this order: a newline, the end of
# the text (after a `--` comment that reaches it), a `--` comment (up to
# the newline), a name, a number, a symbol (longest first where one is a
# prefix of another), and any other character, which is an error.
_TOKEN_RE = re.compile(r"""
    [ \t\r]*
    (?:
      (?P<newline>\n)
    | (?P<eof>(?:--[^\n]*)?\Z)
    | (?P<comment>--[^\n]*)
    | (?P<name>[A-Za-z_][A-Za-z0-9_'\-]*)
    | (?P<num>[0-9]+)
    | (?P<sym>/\\|\\/|->|=>|[(){}\[\],:*+@=|/])
    | (?P<bad>.)
    )
""", re.VERBOSE | re.DOTALL)


def tokenize(text: str) -> list[Token]:
    """Tokens with 1-based line and column; the eof token sits where the
    text ends, or where a comment at the end began."""
    toks: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        start, end = m.span(kind)
        if kind == "newline":
            line += 1
            line_start = end
        elif kind == "eof":
            toks.append(Token("eof", "", line, start - line_start + 1))
            break
        elif kind == "bad":
            raise ParseError(f"unexpected character {m.group(kind)!r}", line,
                             start - line_start + 1)
        elif kind != "comment":
            toks.append(Token(kind, m.group(kind), line,
                              start - line_start + 1))
    return toks


# -- the concrete syntax: read by the parser below and by the printer -------

# `KW k -> body`
CLOCK_BINDERS = {"clock": ClockAbs, "forall-clk": Forall,
                 "cforall": ForallCode, "pforall-clk": PForallClk}
# `KW (x : dom) -> body`
TYPED_BINDERS = {"exists": PExists, "all": PForall, "cpi": PiCode,
                 "csig": SigmaCode}
# `KW (a : k) -> body`, or `KW k A` binding the tick `_tick`
DELAYS = {"later": Later, "clater": LaterCode, "plater": PLater}
# `KW a1 .. an`: the arguments are postfix terms in constructor order
PREFIX = {"fst": Fst, "snd": Snd, "inl": Inl, "inr": Inr, "El": El,
          "Prf": Prf, "Id": Id, "peq": PEq, "cid": IdCode, "csum": SumCode}
# Infix symbols, loosest first: (symbol, class, right-associative).  Pi and
# Sigma bind the name `_` when written infix, and x in the dependent forms
# `(x : A) -> B` and `(x : A) * B`.
INFIX = (("->", Pi, True), ("*", Sigma, True), ("+", Sum, False),
         ("\\/", POr, False), ("/\\", PAnd, False))

_BINDER_KEYWORDS = {"fun", "tick", "case", *CLOCK_BINDERS, *TYPED_BINDERS,
                    *DELAYS}
KEYWORDS = _BINDER_KEYWORDS | {*PREFIX, "In", "U", "Prop", "def"}
_NOT_ARGUMENTS = _BINDER_KEYWORDS | {"def", "of"}
_ARITY = {cls: len(cls.__match_args__) for cls in PREFIX.values()}
_PRECEDENCE = {sym: (prec, cls, right)
               for prec, (sym, cls, right) in enumerate(INFIX, 1)}


class _Parser:
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.pos = 0

    def peek(self, k: int = 0) -> Token:
        # callers look past a token only when it is not eof, so the index
        # stays inside the list, which ends with eof
        return self.toks[self.pos + k]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def error(self, msg: str) -> ParseError:
        t = self.peek()
        return ParseError(msg + (f" (got {t.value!r})" if t.value else " (got end of input)"),
                          t.line, t.col)

    def expect_sym(self, s: str) -> Token:
        t = self.peek()
        if t.kind == "sym" and t.value == s:
            return self.next()
        raise self.error(f"expected {s!r}")

    def expect_name(self) -> str:
        t = self.peek()
        if t.kind == "name" and t.value not in KEYWORDS and t.value not in CONSTANTS:
            return self.next().value
        raise self.error("expected a name")

    def at_sym(self, s: str) -> bool:
        t = self.toks[self.pos]
        return t.kind == "sym" and t.value == s

    def at_name(self, s: str) -> bool:
        t = self.toks[self.pos]
        return t.kind == "name" and t.value == s

    def expect_keyword(self, s: str) -> None:
        if not self.at_name(s):
            raise self.error(f"expected {s!r}")
        self.next()

    # -- terms ------------------------------------------------------------

    def term(self, prec: int = 0) -> Term:
        """A term whose infix operators have precedence `prec` or more; at
        0 also a binder form or a dependent function or pair type."""
        t = self.peek()
        if prec == 0 and t.kind == "name":
            kw = t.value
            if kw == "fun":
                self.next()
                names = [self.expect_name()]
                while self.peek().kind == "name" \
                        and self.peek().value not in KEYWORDS:
                    names.append(self.expect_name())
                self.expect_sym("->")
                body = self.term()
                for x in reversed(names):
                    body = Lam(x, body)
                return body
            if kw == "tick":
                self.next()
                a = self.expect_name()
                self.expect_sym(":")
                k = self.expect_name()
                self.expect_sym("->")
                return TickAbs(a, k, self.term())
            if kw in CLOCK_BINDERS:
                self.next()
                k = self.expect_name()
                self.expect_sym("->")
                return CLOCK_BINDERS[kw](k, self.term())
            if kw in TYPED_BINDERS:
                self.next()
                self.expect_sym("(")
                x = self.expect_name()
                self.expect_sym(":")
                dom = self.term()
                self.expect_sym(")")
                self.expect_sym("->")
                return TYPED_BINDERS[kw](x, dom, self.term())
            if kw == "case":
                self.next()
                scrut = self.term()
                self.expect_sym("{")
                self.expect_keyword("inl")
                x = self.expect_name()
                self.expect_sym("->")
                left = self.term()
                self.expect_sym("|")
                self.expect_keyword("inr")
                y = self.expect_name()
                self.expect_sym("->")
                right = self.term()
                self.expect_sym("}")
                return Case(scrut, x, left, y, right)
        elif prec == 0 and t.kind == "sym" and t.value == "(" \
                and self.peek(1).kind == "name" \
                and self.peek(1).value not in KEYWORDS \
                and self.peek(1).value not in CONSTANTS \
                and self.peek(2).kind == "sym" and self.peek(2).value == ":":
            save = self.pos
            self.next()
            x = self.expect_name()
            self.expect_sym(":")
            dom = self.term()
            self.expect_sym(")")
            if self.at_sym("->") or self.at_sym("*"):
                cls = Pi if self.next().value == "->" else Sigma
                return cls(x, dom, self.term())
            self.pos = save  # plain annotation; reparse as an atom
        left = self.app()
        while True:
            # only a symbol token can spell an infix symbol
            op = _PRECEDENCE.get(self.toks[self.pos].value)
            if op is None or op[0] < prec:
                return left
            self.next()
            op_prec, cls, right_assoc = op
            if op_prec == 1:
                # the loosest symbol, `->`, takes a whole term on its right
                return cls("_", left, self.term())
            right = self.term(op_prec if right_assoc else op_prec + 1)
            left = cls("_", left, right) if cls is Sigma else cls(left, right)

    def app(self) -> Term:
        head = self.postfix()
        # an argument starts with `(` or with a name that opens no binder
        while (t := self.peek()).value == "(" or (
                t.kind == "name" and t.value not in _NOT_ARGUMENTS):
            head = App(head, self.postfix())
        return head

    def postfix(self) -> Term:
        t = self.atom()
        while True:
            if self.at_sym("["):
                self.next()
                a = self.expect_name()
                self.expect_sym("]")
                t = TickApp(t, a)
            elif self.at_sym("@"):
                self.next()
                k = self.expect_name()
                t = ClockApp(t, k)
            else:
                return t

    def _names(self, *ends: str) -> tuple[str, ...]:
        """Names, each optionally followed by a comma, up to one of `ends`."""
        names: list[str] = []
        while self.peek().value not in ends:
            names.append(self.expect_name())
            if self.at_sym(","):
                self.next()
        return tuple(names)

    def atom(self) -> Term:
        t = self.peek()
        if t.kind == "sym" and t.value == "(":
            self.next()
            inner = self.term()
            if self.at_sym(","):
                self.next()
                snd = self.term()
                self.expect_sym(")")
                return Pair(inner, snd)
            if self.at_sym(":"):
                self.next()
                ty = self.term()
                self.expect_sym(")")
                return Ann(inner, ty)
            self.expect_sym(")")
            return inner
        if t.kind != "name":
            raise self.error("expected a term")
        kw = t.value
        if kw == "U" or kw == "Prop":
            self.next()
            self.expect_sym("{")
            names = self._names("}", "=>")
            self.expect_sym("}")
            return Univ(names) if kw == "U" else PropU(names)
        if kw == "In":
            self.next()
            self.expect_sym("{")
            small = self._names("}", "=>")
            self.expect_sym("=>")
            big = self._names("}")
            self.expect_sym("}")
            return Incl(small, big, self.postfix())
        if kw in DELAYS:
            cls = DELAYS[kw]
            self.next()
            if self.at_sym("("):
                self.next()
                a = self.expect_name()
                self.expect_sym(":")
                k = self.expect_name()
                self.expect_sym(")")
                self.expect_sym("->")
                return cls(a, k, self.term())
            k = self.expect_name()
            return cls("_tick", k, self.postfix())
        if kw in PREFIX:
            self.next()
            cls = PREFIX[kw]
            return cls(*[self.postfix() for _ in range(_ARITY[cls])])
        if kw in CONSTANTS:
            self.next()
            return Const(kw)
        if kw in KEYWORDS:
            raise self.error(f"unexpected keyword {kw!r}")
        if kw == "_":
            raise self.error("'_' only names a binder, never a variable")
        self.next()
        return Var(kw)


def parse_term(text: str) -> Term:
    """Parse a single term; raises ParseError with position information."""
    p = _Parser(tokenize(text))
    t = p.term()
    if p.peek().kind != "eof":
        raise p.error("trailing input after term")
    return t


@dataclass(frozen=True)
class Declaration:
    name: str
    type_: Term
    body: Term


def parse_declarations(text: str) -> list[Declaration]:
    """Parse a .clott file: a sequence of `def NAME : TYPE = TERM`."""
    p = _Parser(tokenize(text))
    decls: list[Declaration] = []
    while p.peek().kind != "eof":
        p.expect_keyword("def")
        name = p.expect_name()
        p.expect_sym(":")
        ty = p.term()
        p.expect_sym("=")
        body = p.term()
        decls.append(Declaration(name, ty, body))
    return decls


# ---------------------------------------------------------------------------
# Algebraic theory files (.thy)
# ---------------------------------------------------------------------------

def parse_alg_term(text: str, ops: dict[str, int]) -> AVar | AOp:
    p = _Parser(tokenize(text))
    t = _alg_term(p, ops)
    if p.peek().kind != "eof":
        raise p.error("trailing input after term")
    return t


def _alg_term(p: _Parser, ops: dict[str, int]) -> AVar | AOp:
    tok = p.peek()
    if tok.kind != "name":
        raise p.error("expected a variable or operation")
    name = p.next().value
    if name in ops:
        args: list = []
        if p.at_sym("("):
            p.next()
            if not p.at_sym(")"):
                args.append(_alg_term(p, ops))
                while p.at_sym(","):
                    p.next()
                    args.append(_alg_term(p, ops))
            if not p.at_sym(")"):
                raise p.error("expected ',' or ')' after an argument")
            p.next()
        if len(args) != ops[name]:
            raise ParseError(
                f"operation {name!r} has arity {ops[name]}, got {len(args)} arguments",
                tok.line, tok.col)
        return AOp(name, tuple(args))
    return AVar(name)


def _eq_side(text: str, ops: dict[str, int], line: int, col: int):
    """One side of an equation that starts at line:col of its file."""
    try:
        return parse_alg_term(text, ops)
    except ParseError as exc:
        raise ParseError(exc.message, line, col + exc.col - 1) from None


def parse_theory_file(text: str):
    """Parse a .thy file into (ops, equations, builtin_tag).

    Format: `op NAME/ARITY`, `eq LHS = RHS`, optional `builtin NAME`,
    `--` comments.  Operation parameters (convex choice weights) are part of
    the operation name, e.g. `op choice_1/2 / 2` is not supported; use
    `op choice(1/2)/2` style names without spaces.
    """
    ops: dict[str, int] = {}
    equations: list[tuple[AVar | AOp, AVar | AOp]] = []
    builtin: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("--")[0].strip()
        if not line:
            continue
        if line.startswith("builtin "):
            builtin = line[len("builtin "):].strip()
            continue
        if line.startswith("op "):
            rest = line[3:].strip()
            if "/" not in rest:
                raise ParseError("expected 'op NAME/ARITY'", lineno, 1)
            name, _, arity = rest.rpartition("/")
            name = name.strip()
            try:
                n = int(arity.strip())
            except ValueError:
                n = -1
            if n < 0:
                raise ParseError(f"bad arity {arity.strip()!r}", lineno, 1)
            ops[name] = n
            continue
        if line.startswith("eq "):
            rest = line[3:]
            if "=" not in rest:
                raise ParseError("expected 'eq LHS = RHS'", lineno, 1)
            lhs_s, _, rhs_s = rest.partition("=")
            # columns of the two sides in the raw line
            col = len(raw) - len(raw.lstrip()) + len(line) - len(rest) + 1
            equations.append((_eq_side(lhs_s, ops, lineno, col),
                              _eq_side(rhs_s, ops, lineno,
                                       col + len(lhs_s) + 1)))
            continue
        raise ParseError(f"unrecognised line {line!r}", lineno, 1)
    return ops, equations, builtin
