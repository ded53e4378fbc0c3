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

The tokenizer is one `findall` of one compiled pattern: blanks and
comments, then a group holding the token text, which is empty at the end
of the input.  A token is a plain string and its first character gives
its kind: a letter or `_` starts a name, a digit a number, and anything
else is a symbol, so a symbol test is string equality.  A character that
starts no token is a one-character token of its own, and one pass over
the distinct token texts finds it.  Lines and columns (columns count
characters from the start of the line) are computed only for an error
message, from the same pattern's matches.

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
from itertools import islice

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


_SYMBOLS = ("/\\", "\\/", "->", "=>", *"(){}[],:*+@=|/")
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_WORD_START = _NAME_START | frozenset("0123456789")

# Blanks and comments, then the token: a name, a number, a symbol (longest
# first), any other character (an error), or nothing at the end of the text.
# The group matches wherever the blanks stop, so they never backtrack.
_TOKEN_RE = re.compile(r"(?:[ \t\r\n]+|--[^\n]*)*"
                       r"([A-Za-z_][A-Za-z0-9_'\-]*|[0-9]+|"
                       + "|".join(map(re.escape, _SYMBOLS)) + "|.|)")


def tokenize(text: str) -> list[str]:
    """The token texts, ending with the eof token ""."""
    toks = _TOKEN_RE.findall(text)
    if len(toks) > 1 and not toks[-2]:
        toks.pop()  # findall's second, empty match after blanks at the end
    bad = [t for t in set(toks)
           if t and t[0] not in _WORD_START and t not in _SYMBOLS]
    if bad:
        i = min(map(toks.index, bad))
        raise ParseError(f"unexpected character {toks[i]!r}", *position(text, i))
    return toks


def token_positions(text: str):
    """Yield the 1-based line and column of each token of `tokenize(text)`;
    the eof token sits where the text ends, or where a comment at the end
    began."""
    line, seen = 1, 0
    for m in _TOKEN_RE.finditer(text):
        offset = m.start(1)
        if offset == len(text):
            tail = m.group()
            comment = tail.find("--", tail.rfind("\n") + 1)
            if comment >= 0:
                offset = m.start() + comment
        line += text.count("\n", seen, offset)
        seen = offset
        yield line, offset - text.rfind("\n", 0, offset)


def position(text: str, i: int) -> tuple[int, int]:
    """The line and column of token i of `tokenize(text)`."""
    return next(islice(token_positions(text), i, None))


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
_RESERVED = KEYWORDS | CONSTANTS
_ARITY = {cls: len(cls.__match_args__) for cls in PREFIX.values()}
_PRECEDENCE = {sym: (prec, cls, right)
               for prec, (sym, cls, right) in enumerate(INFIX, 1)}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = tokenize(text)
        self.pos = 0

    def peek(self, k: int = 0) -> str:
        # callers look past a token only when it is not eof, so the index
        # stays inside the list, which ends with eof (the per-node paths
        # index `toks` directly, which saves a call per token)
        return self.toks[self.pos + k]

    def error(self, msg: str) -> ParseError:
        t = self.toks[self.pos]
        return ParseError(msg + (f" (got {t!r})" if t else " (got end of input)"),
                          *position(self.text, self.pos))

    def expect(self, s: str) -> None:
        """Step over the symbol or keyword s."""
        if self.toks[self.pos] != s:
            raise self.error(f"expected {s!r}")
        self.pos += 1

    def expect_name(self) -> str:
        t = self.toks[self.pos]
        if t[:1] not in _NAME_START or t in _RESERVED:
            raise self.error("expected a name")
        self.pos += 1
        return t

    # -- terms ------------------------------------------------------------

    def term(self, prec: int = 0) -> Term:
        """A term whose infix operators have precedence `prec` or more; at
        0 also a binder form or a dependent function or pair type."""
        kw = self.toks[self.pos]
        if prec == 0 and kw in _BINDER_KEYWORDS:
            if kw == "fun":
                self.pos += 1
                names = [self.expect_name()]
                while (t := self.peek())[:1] in _NAME_START \
                        and t not in KEYWORDS:
                    names.append(self.expect_name())
                self.expect("->")
                body = self.term()
                for x in reversed(names):
                    body = Lam(x, body)
                return body
            if kw == "tick":
                self.pos += 1
                a = self.expect_name()
                self.expect(":")
                k = self.expect_name()
                self.expect("->")
                return TickAbs(a, k, self.term())
            if kw in CLOCK_BINDERS:
                self.pos += 1
                k = self.expect_name()
                self.expect("->")
                return CLOCK_BINDERS[kw](k, self.term())
            if kw in TYPED_BINDERS:
                self.pos += 1
                self.expect("(")
                x = self.expect_name()
                self.expect(":")
                dom = self.term()
                self.expect(")")
                self.expect("->")
                return TYPED_BINDERS[kw](x, dom, self.term())
            if kw == "case":
                self.pos += 1
                scrut = self.term()
                self.expect("{")
                self.expect("inl")
                x = self.expect_name()
                self.expect("->")
                left = self.term()
                self.expect("|")
                self.expect("inr")
                y = self.expect_name()
                self.expect("->")
                right = self.term()
                self.expect("}")
                return Case(scrut, x, left, y, right)
        elif prec == 0 and kw == "(" and (x := self.peek(1))[:1] in _NAME_START \
                and x not in _RESERVED and self.peek(2) == ":":
            save = self.pos
            self.pos += 1
            x = self.expect_name()
            self.expect(":")
            dom = self.term()
            self.expect(")")
            op = self.peek()
            if op == "->" or op == "*":
                self.pos += 1
                return (Pi if op == "->" else Sigma)(x, dom, self.term())
            self.pos = save  # plain annotation; reparse as an atom
        left = self.app()
        while True:
            op = _PRECEDENCE.get(self.toks[self.pos])
            if op is None or op[0] < prec:
                return left
            self.pos += 1
            op_prec, cls, right_assoc = op
            if op_prec == 1:
                # the loosest symbol, `->`, takes a whole term on its right
                return cls("_", left, self.term())
            right = self.term(op_prec if right_assoc else op_prec + 1)
            left = cls("_", left, right) if cls is Sigma else cls(left, right)

    def app(self) -> Term:
        head = self.postfix()
        # an argument starts with `(` or with a name that opens no binder
        while (t := self.toks[self.pos]) == "(" or (
                t[:1] in _NAME_START and t not in _NOT_ARGUMENTS):
            head = App(head, self.postfix())
        return head

    def postfix(self) -> Term:
        t = self.atom()
        while (op := self.toks[self.pos]) == "[" or op == "@":
            self.pos += 1
            if op == "[":
                t = TickApp(t, self.expect_name())
                self.expect("]")
            else:
                t = ClockApp(t, self.expect_name())
        return t

    def _names(self, *ends: str) -> tuple[str, ...]:
        """Names, each optionally followed by a comma, up to one of `ends`."""
        names: list[str] = []
        while self.peek() not in ends:
            names.append(self.expect_name())
            if self.peek() == ",":
                self.pos += 1
        return tuple(names)

    def atom(self) -> Term:
        kw = self.toks[self.pos]
        if kw == "(":
            self.pos += 1
            inner = self.term()
            if self.peek() == ",":
                self.pos += 1
                snd = self.term()
                self.expect(")")
                return Pair(inner, snd)
            if self.peek() == ":":
                self.pos += 1
                ty = self.term()
                self.expect(")")
                return Ann(inner, ty)
            self.expect(")")
            return inner
        if kw[:1] not in _NAME_START:
            raise self.error("expected a term")
        if kw not in _RESERVED:
            if kw == "_":
                raise self.error("'_' only names a binder, never a variable")
            self.pos += 1
            return Var(kw)
        if kw in CONSTANTS:
            self.pos += 1
            return Const(kw)
        if kw == "U" or kw == "Prop":
            self.pos += 1
            self.expect("{")
            names = self._names("}", "=>")
            self.expect("}")
            return Univ(names) if kw == "U" else PropU(names)
        if kw == "In":
            self.pos += 1
            self.expect("{")
            small = self._names("}", "=>")
            self.expect("=>")
            big = self._names("}")
            self.expect("}")
            return Incl(small, big, self.postfix())
        if kw in DELAYS:
            cls = DELAYS[kw]
            self.pos += 1
            if self.peek() == "(":
                self.pos += 1
                a = self.expect_name()
                self.expect(":")
                k = self.expect_name()
                self.expect(")")
                self.expect("->")
                return cls(a, k, self.term())
            k = self.expect_name()
            return cls("_tick", k, self.postfix())
        if kw in PREFIX:
            self.pos += 1
            cls = PREFIX[kw]
            return cls(*[self.postfix() for _ in range(_ARITY[cls])])
        raise self.error(f"unexpected keyword {kw!r}")


def parse_term(text: str) -> Term:
    """Parse a single term; raises ParseError with position information."""
    p = _Parser(text)
    t = p.term()
    if p.peek():
        raise p.error("trailing input after term")
    return t


@dataclass(frozen=True)
class Declaration:
    name: str
    type_: Term
    body: Term


def parse_declarations(text: str) -> list[Declaration]:
    """Parse a .clott file: a sequence of `def NAME : TYPE = TERM`."""
    p = _Parser(text)
    decls: list[Declaration] = []
    while p.peek():
        p.expect("def")
        name = p.expect_name()
        p.expect(":")
        ty = p.term()
        p.expect("=")
        body = p.term()
        decls.append(Declaration(name, ty, body))
    return decls


# ---------------------------------------------------------------------------
# Algebraic theory files (.thy)
# ---------------------------------------------------------------------------

def parse_alg_term(text: str, ops: dict[str, int]) -> AVar | AOp:
    p = _Parser(text)
    t = _alg_term(p, ops)
    if p.peek():
        raise p.error("trailing input after term")
    return t


def _alg_term(p: _Parser, ops: dict[str, int]) -> AVar | AOp:
    at, name = p.pos, p.peek()
    if name[:1] not in _NAME_START:
        raise p.error("expected a variable or operation")
    p.pos += 1
    if name in ops:
        args: list = []
        if p.peek() == "(":
            p.pos += 1
            if p.peek() != ")":
                args.append(_alg_term(p, ops))
                while p.peek() == ",":
                    p.pos += 1
                    args.append(_alg_term(p, ops))
            if p.peek() != ")":
                raise p.error("expected ',' or ')' after an argument")
            p.pos += 1
        if len(args) != ops[name]:
            raise ParseError(
                f"operation {name!r} has arity {ops[name]}, got {len(args)} arguments",
                *position(p.text, at))
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
