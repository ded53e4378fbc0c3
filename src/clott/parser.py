"""Concrete syntax: tokenizer, syntax table and Pratt parser.

The grammar is in README.  Its keyword forms are written once, in the
table `FORMS` below, which the printer reads too.

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

The syntax table below gives each keyword-led form as the pieces it
prints: literal text, and slots for a name, a term or an argument.  The
parser tokenizes the literals once at import and reads every form by one
loop over its pieces; the printer joins the same pieces.  A second table
gives the infix symbols with their precedence.  `term` is one Pratt loop
(Pratt, "Top down operator precedence", POPL 1973): it reads a variable,
a keyword form, `fun`, a dependent function or pair type or an atom, and
then postfix tick and clock applications, application by juxtaposition
and the infix symbols by precedence.  A level of parentheses costs two
Python frames (term, atom) and a binder one, so about 490 levels of
parentheses parse under the default recursion limit.

`read_words` reads the side syntaxes over the same tokenizer: functor
expressions, delay terms and `.thy` terms, each `word`, `word(t, …)` or
`word{w, …}`, built node by node by a function per language.
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
    TickAbs, TickApp, Univ, Var, free_names, fresh,
)


class ParseError(ValueError):
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
_NAME = r"[A-Za-z_][A-Za-z0-9_'\-]*"
_TOKEN_RE = re.compile(r"(?:[ \t\r\n]+|--[^\n]*)*"
                       rf"({_NAME}|[0-9]+|"
                       + "|".join(map(re.escape, _SYMBOLS)) + "|.|)")
# a line up to its comment: `--` inside a name such as `a--b` is part of
# the name, as for the tokenizer
UNCOMMENTED_RE = re.compile(rf"(?:{_NAME}|[^-]|-(?!-))*")


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

# The keyword-led forms as they print: literal text, and slots in the class's
# field order for a name `{n}`, a term `{t}` or an argument `{a}` (a postfix
# term).  A form with a term slot is a binder.  A delay also has the short
# form `later k A`, which binds a tick not free in A.
FORMS = {
    TickAbs: "tick {n} : {n} -> {t}", ClockAbs: "clock {n} -> {t}",
    Forall: "forall-clk {n} -> {t}", ForallCode: "cforall {n} -> {t}",
    PForallClk: "pforall-clk {n} -> {t}",
    PExists: "exists ({n} : {t}) -> {t}", PForall: "all ({n} : {t}) -> {t}",
    PiCode: "cpi ({n} : {t}) -> {t}", SigmaCode: "csig ({n} : {t}) -> {t}",
    Case: "case {t} { inl {n} -> {t} | inr {n} -> {t} }",
    Later: "later ({n} : {n}) -> {t}", LaterCode: "clater ({n} : {n}) -> {t}",
    PLater: "plater ({n} : {n}) -> {t}",
    Fst: "fst {a}", Snd: "snd {a}", Inl: "inl {a}", Inr: "inr {a}",
    El: "El {a}", Prf: "Prf {a}", SumCode: "csum {a} {a}",
    Id: "Id {a} {a} {a}", PEq: "peq {a} {a} {a}", IdCode: "cid {a} {a} {a}",
}
_DELAYS = (Later, LaterCode, PLater)
# Infix symbols, loosest first: (symbol, class, right-associative).  Pi and
# Sigma bind the name `_` when written infix, and x in the dependent forms
# `(x : A) -> B` and `(x : A) * B`.  Application binds tighter, at APP, and
# the postfix `t [a]` and `t @ k` tighter still, at POSTFIX.
INFIX = (("->", Pi, True), ("*", Sigma, True), ("+", Sum, False),
         ("\\/", POr, False), ("/\\", PAnd, False))
APP = len(INFIX) + 1
POSTFIX = APP + 1
NAME = "name"
_SLOTS = {"n": NAME, "t": 0, "a": POSTFIX, None: None}


def _pieces(cls: type, form: str) -> tuple:
    """(literal text, its tokens, slot, field) per piece of the form: a slot
    is NAME or the level of the term it holds, or None after the last."""
    parts = re.split(r"\{([nta])\}", form) + [None]  # text, slot, ..., None
    fields = iter(cls.__match_args__)
    return tuple((text, tokenize(text)[:-1], _SLOTS[slot],
                  slot and next(fields))
                 for text, slot in zip(parts[::2], parts[1::2])
                 if text or slot)


PIECES = {cls: _pieces(cls, form) for cls, form in FORMS.items()}
BINDERS = {cls for cls, pieces in PIECES.items()
           if any(slot == 0 for _, _, slot, _ in pieces)}
# keyword (a form's first token) -> (class, pieces, the highest level at
# which the form is read): a binder only where a whole term may stand, a
# delay (for its short form) and a prefix form anywhere
_READ = {pieces[0][1][0]: (cls, pieces, POSTFIX if cls in _DELAYS
                           or cls not in BINDERS else 0)
         for cls, pieces in PIECES.items()}
_BINDER_KEYWORDS = {"fun"} | {kw for kw, (cls, _, _) in _READ.items()
                              if cls in BINDERS}
KEYWORDS = _BINDER_KEYWORDS | {*_READ, "In", "U", "Prop", "def"}
_NOT_ARGUMENTS = _BINDER_KEYWORDS | {"def"}
_RESERVED = KEYWORDS | CONSTANTS
_PRECEDENCE = {sym: (prec, cls, right)
               for prec, (sym, cls, right) in enumerate(INFIX, 1)}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = tokenize(text)
        self.pos = 0

    def peek(self) -> str:
        # the per-node paths index `toks` directly, which saves a call per
        # token; they look past a token only when it is not eof, so the
        # index stays inside the list, which ends with eof
        return self.toks[self.pos]

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
        """A term whose operators bind at level `prec` or tighter: at 0 also
        a binder form, at POSTFIX no application."""
        toks = self.toks
        kw = toks[self.pos]
        if kw[:1] in _NAME_START and kw not in _RESERVED and kw != "_":
            self.pos += 1
            left = Var(kw)
        elif (form := _READ.get(kw)) is not None and prec <= form[2]:
            cls, pieces, top = form
            if cls in _DELAYS and toks[self.pos + 1] != "(":
                self.pos += 1
                k = self.expect_name()
                body = self.term(POSTFIX)
                left = cls(fresh("_tick", free_names(body).ticks), k, body)
            else:
                args = []
                for _, lits, slot, _ in pieces:
                    for s in lits:
                        self.expect(s)
                    if slot == NAME:
                        args.append(self.expect_name())
                    elif slot is not None:
                        args.append(self.term(slot))
                left = cls(*args)
                if top == 0:  # a binder is no operand and takes no argument
                    return left
        elif prec == 0 and kw == "fun":
            self.pos += 1
            names = [self.expect_name()]
            while (t := toks[self.pos])[:1] in _NAME_START \
                    and t not in KEYWORDS:
                names.append(self.expect_name())
            self.expect("->")
            body = self.term()
            for x in reversed(names):
                body = Lam(x, body)
            return body
        elif prec == 0 and kw == "(" \
                and (x := toks[self.pos + 1])[:1] in _NAME_START \
                and x not in _RESERVED and toks[self.pos + 2] == ":":
            save = self.pos
            self.pos += 3
            dom = self.term()
            self.expect(")")
            op = toks[self.pos]
            if op == "->" or op == "*":
                self.pos += 1
                return (Pi if op == "->" else Sigma)(x, dom, self.term())
            self.pos = save  # plain annotation; reparse as an atom
            left = self.atom()
        else:
            left = self.atom()
        while True:
            t = toks[self.pos]
            if t == "[" or t == "@":
                self.pos += 1
                if t == "[":
                    left = TickApp(left, self.expect_name())
                    self.expect("]")
                else:
                    left = ClockApp(left, self.expect_name())
            elif prec == POSTFIX:
                return left
            # an argument starts with `(` or with a name that opens no binder
            elif t == "(" or (t[:1] in _NAME_START
                              and t not in _NOT_ARGUMENTS):
                left = App(left, self.term(POSTFIX))
            else:
                op = _PRECEDENCE.get(t)
                if op is None or op[0] < prec:
                    return left
                self.pos += 1
                op_prec, cls, right_assoc = op
                if op_prec == 1:
                    # the loosest symbol, `->`, takes a whole term on its right
                    return cls("_", left, self.term())
                right = self.term(op_prec if right_assoc else op_prec + 1)
                left = cls("_", left, right) if cls is Sigma else cls(left, right)

    def _names(self, *ends: str) -> tuple[str, ...]:
        """Names, each optionally followed by a comma, up to one of `ends`."""
        names: list[str] = []
        while self.peek() not in ends:
            names.append(self.expect_name())
            if self.peek() == ",":
                self.pos += 1
        return tuple(names)

    def atom(self) -> Term:
        """A parenthesised term, pair or annotation, a variable or constant,
        a universe or a universe inclusion."""
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
        if kw == "_":
            raise self.error("'_' only names a binder, never a variable")
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
            return Incl(small, big, self.term(POSTFIX))
        raise self.error("unexpected keyword")


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
# Word terms (functor expressions, delay terms) and .thy files
# ---------------------------------------------------------------------------

def read_words(text: str, noun: str, build, parens, braces=()):
    """Read one `word`, `word(t, …)` or `word{w, …}` term: only a word of
    `parens` takes terms in parentheses, only one of `braces` words in
    braces.  Each node goes, children first, to `build(word, args)`, args
    None for a bare word; a ValueError from build is a ParseError at the
    word.  Open parentheses are a list, not Python frames."""
    p = _Parser(text)
    toks, stack = p.toks, []    # per open `word(`: word, its index, args
    while True:
        at, word, args = p.pos, toks[p.pos], None
        if word[:1] not in _NAME_START:
            raise p.error(f"expected {noun}")
        p.pos += 1
        if toks[p.pos] == "(" and word in parens:
            p.pos += 1
            if toks[p.pos] != ")":
                stack.append((word, at, []))
                continue
            p.pos += 1
            args = []
        elif toks[p.pos] == "{" and word in braces:
            p.pos += 1
            args = []
            while toks[p.pos] != "}" or toks[p.pos - 1] == ",":  # not `,}`
                if toks[p.pos][:1] not in _NAME_START:
                    raise p.error("expected a word")
                args.append(toks[p.pos])
                p.pos += 1
                if toks[p.pos] != "}":
                    p.expect(",")
            p.pos += 1
        while True:     # build the node, and each node it completes
            try:
                built = build(word, args)
            except ValueError as exc:
                raise ParseError(str(exc), *position(text, at)) from None
            if not stack:
                if toks[p.pos]:
                    raise p.error("trailing input after term")
                return built
            word, at, args = stack[-1]
            args.append(built)
            if toks[p.pos] == ",":
                p.pos += 1
                break   # read the next argument
            if toks[p.pos] != ")":
                raise p.error("expected ',' or ')' after an argument")
            p.pos += 1
            stack.pop()


def parse_alg_term(text: str, ops: dict[str, int]) -> AVar | AOp:
    def build(word: str, args):
        n = len(args or ())
        if word in ops and n != ops[word]:
            raise ValueError(f"operation {word!r} has arity {ops[word]}, "
                             f"got {n} argument{'' if n == 1 else 's'}")
        return AOp(word, tuple(args or ())) if word in ops else AVar(word)
    return read_words(text, "a variable or operation", build, ops)


def _eq_side(text: str, ops: dict[str, int], line: int, col: int):
    """One side of an equation that starts at line:col of its file."""
    try:
        return parse_alg_term(text, ops)
    except ParseError as exc:
        raise ParseError(exc.message, line, col + exc.col - 1) from None


def parse_theory_file(text: str):
    """Parse a .thy file into (ops, equations, builtin_tag).

    Format: `op NAME/ARITY`, `eq LHS = RHS`, optional `builtin NAME`,
    `--` comments; `theories.BUILTIN_THY` writes the builtins in it.
    """
    ops: dict[str, int] = {}
    equations: list[tuple[AVar | AOp, AVar | AOp]] = []
    builtin: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = UNCOMMENTED_RE.match(raw).group().strip()
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
            if name in ops:
                raise ParseError(f"operation {name!r} is already declared",
                                 lineno, raw.index(rest) + 1)
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
