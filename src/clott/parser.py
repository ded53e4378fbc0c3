"""Concrete syntax: tokenizer and recursive-descent parser.

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
        self.line = line
        self.col = col


@dataclass(frozen=True, slots=True)
class Token:
    kind: str          # 'name', 'num', 'sym', 'eof'
    value: str
    line: int
    col: int


# One alternation, tried in this order at each position: blanks, a newline,
# a `--` comment (up to the newline), a name, a number, a symbol (longest
# first where one is a prefix of another), and any other character, which
# is an error.
_TOKEN_RE = re.compile(r"""
    (?P<blank>[ \t\r]+)
  | (?P<newline>\n)
  | (?P<comment>--[^\n]*)
  | (?P<name>[A-Za-z_][A-Za-z0-9_'\-]*)
  | (?P<num>[0-9]+)
  | (?P<sym>/\\|\\/|->|=>|[(){}\[\],:*+@=|/])
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)


def tokenize(text: str) -> list[Token]:
    """Tokens with 1-based line and column; the eof token sits where the
    last token or blank ended, or where a comment at the end began."""
    toks: list[Token] = []
    line, line_start = 1, 0
    end = 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        start = m.start()
        end = m.end()
        if kind == "blank":
            continue
        if kind == "newline":
            line += 1
            line_start = end
        elif kind == "comment":
            end = start
        elif kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", line,
                             start - line_start + 1)
        else:
            toks.append(Token(kind, m.group(), line, start - line_start + 1))
    toks.append(Token("eof", "", line, end - line_start + 1))
    return toks


_BINDER_KEYWORDS = {"fun", "tick", "clock", "later", "forall-clk", "clater",
                    "cforall", "exists", "all", "plater", "pforall-clk",
                    "case", "cpi", "csig"}
_PREFIX_KEYWORDS = {"fst", "snd", "inl", "inr", "El", "Prf", "Id", "peq",
                    "cid", "csum", "In", "U", "Prop"}
KEYWORDS = _BINDER_KEYWORDS | _PREFIX_KEYWORDS | {"def"}


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

    # -- terms ------------------------------------------------------------

    def term(self) -> Term:
        t = self.peek()
        if t.kind == "name":
            kw = t.value
            if kw == "fun":
                self.next()
                names = [self.expect_name()]
                while self.peek().kind == "name" and not self.at_sym("->"):
                    if self.peek().value in KEYWORDS:
                        break
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
            if kw == "clock":
                self.next()
                k = self.expect_name()
                self.expect_sym("->")
                return ClockAbs(k, self.term())
            if kw in ("forall-clk", "cforall", "pforall-clk"):
                cls = {"forall-clk": Forall, "cforall": ForallCode,
                       "pforall-clk": PForallClk}[kw]
                self.next()
                k = self.expect_name()
                self.expect_sym("->")
                return cls(k, self.term())
            if kw in ("exists", "all", "cpi", "csig"):
                cls = {"exists": PExists, "all": PForall,
                       "cpi": PiCode, "csig": SigmaCode}[kw]
                self.next()
                self.expect_sym("(")
                x = self.expect_name()
                self.expect_sym(":")
                dom = self.term()
                self.expect_sym(")")
                self.expect_sym("->")
                return cls(x, dom, self.term())
            if kw == "case":
                self.next()
                scrut = self.term()
                self.expect_sym("{")
                if not self.at_name("inl"):
                    raise self.error("expected 'inl'")
                self.next()
                x = self.expect_name()
                self.expect_sym("->")
                left = self.term()
                self.expect_sym("|")
                if not self.at_name("inr"):
                    raise self.error("expected 'inr'")
                self.next()
                y = self.expect_name()
                self.expect_sym("->")
                right = self.term()
                self.expect_sym("}")
                return Case(scrut, x, left, y, right)
        return self.arrow()

    def arrow(self) -> Term:
        if self.at_sym("(") and self.peek(1).kind == "name" \
                and self.peek(1).value not in KEYWORDS \
                and self.peek(1).value not in CONSTANTS \
                and self.peek(2).kind == "sym" and self.peek(2).value == ":":
            save = self.pos
            self.next()
            x = self.expect_name()
            self.expect_sym(":")
            dom = self.term()
            self.expect_sym(")")
            if self.at_sym("->"):
                self.next()
                return Pi(x, dom, self.term())
            if self.at_sym("*"):
                self.next()
                return Sigma(x, dom, self.term())
            self.pos = save  # plain annotation; reparse as an atom
        left = self.sigma()
        if self.at_sym("->"):
            self.next()
            return Pi("_", left, self.term())
        return left

    def sigma(self) -> Term:
        left = self.sum()
        if self.at_sym("*"):
            self.next()
            return Sigma("_", left, self.sigma())
        return left

    def sum(self) -> Term:
        left = self.por()
        while self.at_sym("+"):
            self.next()
            left = Sum(left, self.por())
        return left

    def por(self) -> Term:
        left = self.pand()
        while self.at_sym("\\/"):
            self.next()
            left = POr(left, self.pand())
        return left

    def pand(self) -> Term:
        left = self.app()
        while self.at_sym("/\\"):
            self.next()
            left = PAnd(left, self.app())
        return left

    def _at_atom_start(self) -> bool:
        t = self.peek()
        if t.kind == "name":
            return t.value not in _BINDER_KEYWORDS and t.value != "def" \
                and t.value != "of"
        return t.kind == "sym" and t.value in ("(",)

    def app(self) -> Term:
        head = self.postfix()
        while self._at_atom_start():
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

    def _clockset(self) -> tuple[str, ...]:
        self.expect_sym("{")
        names: list[str] = []
        while not self.at_sym("}") and not self.at_sym("=>"):
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
            names = self._clockset()
            self.expect_sym("}")
            return Univ(names) if kw == "U" else PropU(names)
        if kw == "In":
            self.next()
            small = self._clockset()
            self.expect_sym("=>")
            big: list[str] = []
            while not self.at_sym("}"):
                big.append(self.expect_name())
                if self.at_sym(","):
                    self.next()
            self.expect_sym("}")
            return Incl(small, tuple(big), self.postfix())
        if kw in ("later", "clater", "plater"):
            cls = {"later": Later, "clater": LaterCode, "plater": PLater}[kw]
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
        if kw in ("fst", "snd", "inl", "inr", "El", "Prf"):
            self.next()
            cls = {"fst": Fst, "snd": Snd, "inl": Inl, "inr": Inr,
                   "El": El, "Prf": Prf}[kw]
            return cls(self.postfix())
        if kw in ("Id", "peq", "cid"):
            self.next()
            cls = {"Id": Id, "peq": PEq, "cid": IdCode}[kw]
            return cls(self.postfix(), self.postfix(), self.postfix())
        if kw == "csum":
            self.next()
            return SumCode(self.postfix(), self.postfix())
        if kw in CONSTANTS:
            self.next()
            return Const(kw)
        if kw in KEYWORDS:
            raise self.error(f"unexpected keyword {kw!r}")
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
        if not p.at_name("def"):
            raise p.error("expected 'def'")
        p.next()
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
            while not p.at_sym(")"):
                args.append(_alg_term(p, ops))
                if p.at_sym(","):
                    p.next()
            p.next()
        if len(args) != ops[name]:
            raise ParseError(
                f"operation {name!r} has arity {ops[name]}, got {len(args)} arguments",
                tok.line, tok.col)
        return AOp(name, tuple(args))
    return AVar(name)


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
                ops[name] = int(arity.strip())
            except ValueError:
                raise ParseError(f"bad arity {arity.strip()!r}", lineno, 1)
            continue
        if line.startswith("eq "):
            rest = line[3:]
            if "=" not in rest:
                raise ParseError("expected 'eq LHS = RHS'", lineno, 1)
            lhs_s, _, rhs_s = rest.partition("=")
            equations.append((parse_alg_term(lhs_s, ops),
                              parse_alg_term(rhs_s, ops)))
            continue
        raise ParseError(f"unrecognised line {line!r}", lineno, 1)
    return ops, equations, builtin
