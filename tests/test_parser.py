"""Parser and printer: round trips, error reporting, and agreement with
the recursive-descent parser and per-class printer they replaced."""
import importlib
import os
import re
import subprocess
import sys
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clott
from clott.parser import (KEYWORDS, _BINDER_KEYWORDS, Declaration,
                          ParseError, parse_alg_term, parse_declarations,
                          parse_term, parse_theory_file, token_positions,
                          tokenize)
from clott.printer import show_alg_term, show_term
from clott.terms import _SPEC, TERM, free_names
from clott.terms import (
    AOp, AVar, Ann, App, Case, ClockAbs, ClockApp, Const, CONSTANTS, El,
    Forall, ForallCode, Fst, Id, IdCode, Incl, Inl, Inr, Lam, Later,
    LaterCode, PAnd, PEq, PExists, PForall, PForallClk, PLater, POr, Pair,
    Pi, PiCode, Prf, PropU, Sigma, SigmaCode, Snd, Sum, SumCode, Term,
    TickAbs, TickApp, Univ, Var,
)

from .strategies import alg_terms, terms


@settings(max_examples=300)
@given(terms())
def test_roundtrip(t):
    assert parse_term(show_term(t)) == t


@given(alg_terms())
def test_alg_roundtrip(t):
    ops = {"f": 2, "g": 1, "c": 0}
    assert parse_alg_term(show_alg_term(t), ops) == t


# source texts from a small grammar, with `_` in binder and variable places
_BINDER_NAMES = st.sampled_from(["_", "x", "y"])
_SOURCES = st.recursive(
    st.sampled_from(["_", "x", "y", "f", "tt", "A"]),
    lambda ch: st.one_of(
        st.tuples(_BINDER_NAMES, ch).map("fun {0[0]} -> {0[1]}".format),
        st.tuples(_BINDER_NAMES, ch, ch, st.sampled_from(["->", "*"])).map(
            "({0[0]} : {0[1]}) {0[3]} {0[2]}".format),
        st.tuples(ch, ch, st.sampled_from(["->", "*", "+", ""])).map(
            "({0[0]}) {0[2]} ({0[1]})".format),
        ch.map("El ({})".format),
        st.tuples(ch, _BINDER_NAMES, ch, _BINDER_NAMES, ch).map(
            "case {0[0]} {{ inl {0[1]} -> {0[2]} | inr {0[3]} -> {0[4]} }}"
            .format)),
    max_leaves=8)


def test_lambda_sugar():
    assert parse_term("fun x y -> x") == Lam("x", Lam("y", Var("x")))


def test_arrow_right_associative():
    t = parse_term("A -> B -> C")
    assert t == Pi("_", Var("A"), Pi("_", Var("B"), Var("C")))


def test_sigma_binds_tighter_than_arrow():
    t = parse_term("A * B -> C")
    assert t == Pi("_", Sigma("_", Var("A"), Var("B")), Var("C"))


def test_dependent_arrow_with_binder_rhs():
    t = parse_term("(x : A) -> forall-clk k -> B")
    assert isinstance(t, Pi) and t.name == "x"


def test_tick_abs_and_app():
    t = parse_term("tick a : k -> d [a]")
    assert isinstance(t, TickAbs) and (t.tick, t.clock) == ("a", "k")
    assert t.body.tick == "a" and t.body.fn == Var("d")


def test_later_simple_and_dependent():
    simple = parse_term("later k A")
    dep = parse_term("later (a : k) -> A")
    assert isinstance(simple, Later) and simple.tick == "_tick"
    assert isinstance(dep, Later) and dep.tick == "a"


def test_declarations():
    decls = parse_declarations(
        "-- comment\ndef f : unit = tt\ndef g : unit = tt\n")
    assert [d.name for d in decls] == ["f", "g"]


def test_parse_error_has_position():
    with pytest.raises(ParseError) as exc:
        parse_term("fun ->")
    assert exc.value.line == 1


def test_underscore_names_binders_only():
    assert parse_term("fun _ -> tt") == Lam("_", Const("tt"))
    assert parse_term("(_ : A) -> B") == Pi("_", Var("A"), Var("B"))
    assert parse_term("case s { inl _ -> tt | inr _ -> tt }") == Case(
        Var("s"), "_", Const("tt"), "_", Const("tt"))
    for text, col in (("El _", 4), ("fun x -> _", 10), ("f _ x", 3),
                      ("(_ : A)", 2), ("(_ : U{}) -> El _ -> El _", 17)):
        with pytest.raises(ParseError) as exc:
            parse_term(text)
        assert (exc.value.line, exc.value.col) == (1, col), text
        assert exc.value.message.startswith("'_' only names a binder")


def _var_names(t):
    """The names of every Var node of t, bound or free."""
    if type(t) is Var:
        return {t.name}
    return set().union(*(_var_names(getattr(t, f)) for f, role, _ in
                         _SPEC[type(t)] if role == TERM))


@settings(max_examples=500)
@given(_SOURCES)
def test_parsed_terms_never_mention_underscore(text):
    # the kernel skips substituting for `_`, which is sound only because
    # no parsed term uses `_` as a variable
    try:
        t = parse_term(text)
    except ParseError as exc:
        assert exc.message.startswith("'_' only names a binder"), text
        return
    assert "_" not in free_names(t).vars and "_" not in _var_names(t)


def test_unbalanced_paren_rejected():
    with pytest.raises(ParseError):
        parse_term("(tt")


def test_theory_file():
    ops, eqs, builtin = parse_theory_file(
        "op f/2\neq f(x, y) = f(y, x)\n")
    assert ops == {"f": 2}
    assert eqs == [(AOp("f", (AVar("x"), AVar("y"))),
                    AOp("f", (AVar("y"), AVar("x"))))]
    assert builtin is None


def test_theory_file_builtin():
    _, _, builtin = parse_theory_file("builtin truncation\n")
    assert builtin == "truncation"


def test_theory_file_dashes_inside_a_name_are_not_a_comment():
    ops, eqs, _ = parse_theory_file("op a--b/1\neq a--b(x) = x\n")
    assert ops == {"a--b": 1}
    assert eqs == [(AOp("a--b", (AVar("x"),)), AVar("x"))]
    ops, eqs, _ = parse_theory_file(
        "op f/1 -- note\n-- a line of comment\neq f(x) = x--c\n")
    assert ops == {"f": 1}
    assert eqs == [(AOp("f", (AVar("x"),)), AVar("x--c"))]
    ops, _, _ = parse_theory_file("op g/2--note\n")
    assert ops == {"g": 2}


@pytest.mark.parametrize("n, noun", [(0, "arguments"), (1, "argument"),
                                     (3, "arguments")])
def test_arity_message_agrees_in_number(n, noun):
    args = ", ".join("x" * n)
    with pytest.raises(ParseError, match=f"arity 2, got {n} {noun}$"):
        parse_theory_file(f"op f/2\neq f({args}) = x\n")


@pytest.mark.parametrize("text, where", [
    ("op f/1\neq f(x) = x\nop f/2\n", (3, 4)),
    ("op g/2\n  op  g/2 -- again\n", (2, 7)),
    ("op a--b/1\nop a--b/3\n", (2, 4))])
def test_theory_file_second_op_line_for_a_name_is_an_error(text, where):
    # also with the same arity: one name, one declaration
    with pytest.raises(ParseError, match="is already declared$") as err:
        parse_theory_file(text)
    assert (err.value.line, err.value.col) == where


def test_theory_file_bad_line():
    with pytest.raises(ParseError):
        parse_theory_file("nonsense here\n")


@pytest.mark.parametrize("text, where", [
    ("op f/2\neq f(x y) = f(y, x)\n", (2, 8)),
    ("op f/2\n  eq f(x, y) = f(x,y,)\n", (2, 22)),
    ("op f/2\neq f(x,) = x\n", (2, 8)),
    ("op f/2\neq f(x, y = x\n", (2, 11)),
    ("op f/1\neq f(,x) = x\n", (2, 6))])
def test_theory_file_argument_commas_are_required(text, where):
    # a missing comma, a trailing comma or a leading one is an error at
    # its place in the file, not a silently accepted argument list
    with pytest.raises(ParseError) as err:
        parse_theory_file(text)
    assert (err.value.line, err.value.col) == where


def test_data_theory_files_parse():
    data = os.path.join(os.path.dirname(clott.__file__), "data")
    for name in sorted(os.listdir(data)):
        if name.endswith(".thy"):
            with open(os.path.join(data, name), encoding="utf-8") as fh:
                parse_theory_file(fh.read())


# -- tokenizer -----------------------------------------------------------------

_SYMBOLS = ["/\\", "\\/", "->", "=>", "(", ")", "{", "}", "[", "]",
            ",", ":", "*", "+", "@", "=", "|", "/"]
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_'\-]*")
_NUM_RE = re.compile(r"[0-9]+")


@dataclass(slots=True)
class Token:
    kind: str          # 'name', 'num', 'sym', 'eof'
    value: str
    line: int
    col: int


def reference_tokenize(text: str) -> list[Token]:
    """The character-stepping tokenizer that `tokenize` replaced, kept as
    its oracle."""
    toks: list[Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("--", i):
            j = text.find("\n", i)
            i = n if j < 0 else j
            continue
        m = _NAME_RE.match(text, i)
        if m:
            toks.append(Token("name", m.group(), line, col))
            col += len(m.group())
            i = m.end()
            continue
        m = _NUM_RE.match(text, i)
        if m:
            toks.append(Token("num", m.group(), line, col))
            col += len(m.group())
            i = m.end()
            continue
        for s in _SYMBOLS:
            if text.startswith(s, i):
                toks.append(Token("sym", s, line, col))
                i += len(s)
                col += len(s)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(Token("eof", "", line, col))
    return toks


def _kind(tok: str) -> str:
    if not tok:
        return "eof"
    if tok[0].isascii() and (tok[0].isalpha() or tok[0] == "_"):
        return "name"
    return "num" if tok[0].isdigit() else "sym"


def _tokens(text: str) -> list[Token]:
    """`tokenize` with each token's kind and its position from
    `token_positions`, for comparison with the reference at every token."""
    toks = tokenize(text)
    return [Token(_kind(t), t, line, col)
            for t, (line, col) in zip(toks, token_positions(text))]


def _outcome(fn, text):
    try:
        return fn(text)
    except ParseError as exc:
        return ("error", str(exc), exc.line, exc.col)


_PIECES = (list("abxyzAZ_09'-/\\(){}[],:*+@=|>.$#!\u00e9")
           + [" ", "\t", "\r", "\n", "--", "->", "=>", "/\\", "\\/",
              "fun", "x1", "42", "-- note", "\u00a0"])


@settings(max_examples=1000)
@given(st.lists(st.sampled_from(_PIECES), max_size=30).map("".join))
def test_tokenize_matches_reference(text):
    assert _outcome(_tokens, text) == _outcome(reference_tokenize, text)


@pytest.mark.parametrize("text", [
    "", "tt", "tt -- comment at end", "-- only a comment", "tt --",
    "def f : unit = tt\n-- trailing\n", "a -- c\n$", "x\t\ry\r\n-- c\n$",
    "fun x -> x /\\ y \\/ z", "a--b -> c", "f'-x 12ab", "\n\n  \u00e9",
    "-", "->-", "=>=", "((tt))\n  ]",
])
def test_tokenize_matches_reference_on_edge_cases(text):
    assert _outcome(_tokens, text) == _outcome(reference_tokenize, text)


def test_eof_after_trailing_comment_keeps_comment_column():
    assert _tokens("tt -- bye")[-1] == Token("eof", "", 1, 4)
    assert _tokens("tt -- bye\n")[-1] == Token("eof", "", 2, 1)
    assert _tokens("(tt)-- bye")[-1] == Token("eof", "", 1, 5)
    assert _tokens("tt \n  -- a -- b")[-1] == Token("eof", "", 2, 3)
    # findall adds an empty match after blanks at the end; it is dropped
    assert tokenize("tt \n-- c") == ["tt", ""] == tokenize("tt")


def test_unexpected_character_after_comment_has_position():
    with pytest.raises(ParseError) as exc:
        tokenize("tt -- note\n  $")
    assert (exc.value.line, exc.value.col) == (2, 3)
    assert str(exc.value) == "2:3: unexpected character '$'"


def test_data_files_tokenize_as_reference():
    from importlib import resources
    for path in resources.files("clott.data").iterdir():
        if path.name.endswith(".clott"):
            text = path.read_text(encoding="utf-8")
            assert _tokens(text) == reference_tokenize(text)


# -- reference parser and printer -----------------------------------------------

_REF_BINDER_KEYWORDS = {"fun", "tick", "clock", "later", "forall-clk", "clater",
                        "cforall", "exists", "all", "plater", "pforall-clk",
                        "case", "cpi", "csig"}
_REF_PREFIX_KEYWORDS = {"fst", "snd", "inl", "inr", "El", "Prf", "Id", "peq",
                        "cid", "csum", "In", "U", "Prop"}
_REF_KEYWORDS = _REF_BINDER_KEYWORDS | _REF_PREFIX_KEYWORDS | {"def"}


class _ReferenceParser:
    """The nine-level recursive descent (term, arrow, sigma, sum, por, pand,
    app, postfix, atom) that precedence climbing replaced, kept as its
    oracle, over the tokens of `reference_tokenize`."""

    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.pos = 0

    def peek(self, k: int = 0) -> Token:
        return self.toks[self.pos + k]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def error(self, msg: str) -> ParseError:
        t = self.peek()
        return ParseError(msg + (f" (got {t.value!r})" if t.value
                                 else " (got end of input)"), t.line, t.col)

    def expect_sym(self, s: str) -> Token:
        t = self.peek()
        if t.kind == "sym" and t.value == s:
            return self.next()
        raise self.error(f"expected {s!r}")

    def at_sym(self, s: str) -> bool:
        t = self.toks[self.pos]
        return t.kind == "sym" and t.value == s

    def at_name(self, s: str) -> bool:
        t = self.toks[self.pos]
        return t.kind == "name" and t.value == s

    def expect_name(self) -> str:
        t = self.peek()
        if t.kind == "name" and t.value not in _REF_KEYWORDS \
                and t.value not in CONSTANTS:
            return self.next().value
        raise self.error("expected a name")

    def term(self) -> Term:
        t = self.peek()
        if t.kind == "name":
            kw = t.value
            if kw == "fun":
                self.next()
                names = [self.expect_name()]
                while self.peek().kind == "name" and not self.at_sym("->"):
                    if self.peek().value in _REF_KEYWORDS:
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
                and self.peek(1).value not in _REF_KEYWORDS \
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
            return t.value not in _REF_BINDER_KEYWORDS and t.value != "def" \
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
        if kw in _REF_KEYWORDS:
            raise self.error(f"unexpected keyword {kw!r}")
        if kw == "_":
            raise self.error("'_' only names a binder, never a variable")
        self.next()
        return Var(kw)



def reference_parse_term(text: str) -> Term:
    p = _ReferenceParser(reference_tokenize(text))
    t = p.term()
    if p.peek().kind != "eof":
        raise p.error("trailing input after term")
    return t


def reference_parse_declarations(text: str) -> list[Declaration]:
    p = _ReferenceParser(reference_tokenize(text))
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


# precedence levels, loosest first
_TERM = 0      # binder forms
_ARROW = 1
_SIGMA = 2
_SUM = 3
_POR = 4
_PAND = 5
_APP = 6
_POSTFIX = 7
_ATOM = 8



def reference_show_term(t: Term) -> str:
    """The per-class printer that the syntax table replaced, kept as its
    oracle."""
    return _show(t, _TERM)


def _wrap(s: str, level: int, minimum: int) -> str:
    return f"({s})" if level < minimum else s


def _clockset(names: tuple[str, ...]) -> str:
    return "{" + ", ".join(names) + "}"


def _show(t: Term, minimum: int) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        return t.name
    if isinstance(t, Lam):
        return _wrap(f"fun {t.name} -> {_show(t.body, _TERM)}", _TERM, minimum)
    if isinstance(t, TickAbs):
        return _wrap(f"tick {t.tick} : {t.clock} -> {_show(t.body, _TERM)}",
                     _TERM, minimum)
    if isinstance(t, ClockAbs):
        return _wrap(f"clock {t.clock} -> {_show(t.body, _TERM)}", _TERM, minimum)
    if isinstance(t, (Later, LaterCode, PLater)):
        kw = {Later: "later", LaterCode: "clater", PLater: "plater"}[type(t)]
        return _wrap(f"{kw} ({t.tick} : {t.clock}) -> {_show(t.body, _TERM)}",
                     _TERM, minimum)
    if isinstance(t, (Forall, ForallCode, PForallClk)):
        kw = {Forall: "forall-clk", ForallCode: "cforall",
              PForallClk: "pforall-clk"}[type(t)]
        return _wrap(f"{kw} {t.clock} -> {_show(t.body, _TERM)}", _TERM, minimum)
    if isinstance(t, Pi):
        if t.name == "_":
            return _wrap(f"{_show(t.dom, _SIGMA)} -> {_show(t.cod, _ARROW)}",
                         _ARROW, minimum)
        return _wrap(f"({t.name} : {_show(t.dom, _TERM)}) -> {_show(t.cod, _ARROW)}",
                     _ARROW, minimum)
    if isinstance(t, Sigma):
        if t.name == "_":
            return _wrap(f"{_show(t.dom, _SUM)} * {_show(t.cod, _SIGMA)}",
                         _SIGMA, minimum)
        return _wrap(f"({t.name} : {_show(t.dom, _TERM)}) * {_show(t.cod, _SIGMA)}",
                     _SIGMA, minimum)
    if isinstance(t, (PiCode, SigmaCode)):
        kw = "cpi" if isinstance(t, PiCode) else "csig"
        return _wrap(f"{kw} ({t.name} : {_show(t.dom, _TERM)}) -> {_show(t.cod, _TERM)}",
                     _TERM, minimum)
    if isinstance(t, (PExists, PForall)):
        kw = "exists" if isinstance(t, PExists) else "all"
        return _wrap(f"{kw} ({t.name} : {_show(t.dom, _TERM)}) -> {_show(t.body, _TERM)}",
                     _TERM, minimum)
    if isinstance(t, Sum):
        return _wrap(f"{_show(t.left, _SUM)} + {_show(t.right, _POR)}",
                     _SUM, minimum)
    if isinstance(t, POr):
        return _wrap(f"{_show(t.left, _POR)} \\/ {_show(t.right, _PAND)}",
                     _POR, minimum)
    if isinstance(t, PAnd):
        return _wrap(f"{_show(t.left, _PAND)} /\\ {_show(t.right, _APP)}",
                     _PAND, minimum)
    if isinstance(t, App):
        return _wrap(f"{_show(t.fn, _APP)} {_show(t.arg, _POSTFIX)}",
                     _APP, minimum)
    if isinstance(t, TickApp):
        return _wrap(f"{_show(t.fn, _POSTFIX)} [{t.tick}]", _POSTFIX, minimum)
    if isinstance(t, ClockApp):
        return _wrap(f"{_show(t.fn, _POSTFIX)} @ {t.clock}", _POSTFIX, minimum)
    if isinstance(t, (Fst, Snd, Inl, Inr)):
        kw = {Fst: "fst", Snd: "snd", Inl: "inl", Inr: "inr"}[type(t)]
        return _wrap(f"{kw} {_show(t.arg, _POSTFIX)}", _APP, minimum)
    if isinstance(t, El):
        return _wrap(f"El {_show(t.code, _POSTFIX)}", _APP, minimum)
    if isinstance(t, Prf):
        return _wrap(f"Prf {_show(t.prop, _POSTFIX)}", _APP, minimum)
    if isinstance(t, Id):
        return _wrap(f"Id {_show(t.type_, _POSTFIX)} {_show(t.lhs, _POSTFIX)} "
                     f"{_show(t.rhs, _POSTFIX)}", _APP, minimum)
    if isinstance(t, IdCode):
        return _wrap(f"cid {_show(t.code, _POSTFIX)} {_show(t.lhs, _POSTFIX)} "
                     f"{_show(t.rhs, _POSTFIX)}", _APP, minimum)
    if isinstance(t, PEq):
        return _wrap(f"peq {_show(t.code, _POSTFIX)} {_show(t.lhs, _POSTFIX)} "
                     f"{_show(t.rhs, _POSTFIX)}", _APP, minimum)
    if isinstance(t, SumCode):
        return _wrap(f"csum {_show(t.left, _POSTFIX)} {_show(t.right, _POSTFIX)}",
                     _APP, minimum)
    if isinstance(t, Incl):
        return _wrap(f"In{{{', '.join(t.small)} => {', '.join(t.big)}}} "
                     f"{_show(t.code, _POSTFIX)}", _APP, minimum)
    if isinstance(t, Univ):
        return "U" + _clockset(t.clocks)
    if isinstance(t, PropU):
        return "Prop" + _clockset(t.clocks)
    if isinstance(t, Pair):
        return f"({_show(t.fst, _TERM)}, {_show(t.snd, _TERM)})"
    if isinstance(t, Ann):
        return f"({_show(t.term, _TERM)} : {_show(t.type_, _TERM)})"
    if isinstance(t, Case):
        return _wrap(f"case {_show(t.scrut, _TERM)} {{ inl {t.lname} -> "
                     f"{_show(t.left, _TERM)} | inr {t.rname} -> "
                     f"{_show(t.right, _TERM)} }}", _TERM, minimum)
    raise AssertionError(f"unhandled term node {type(t).__name__}")


def test_keywords_match_reference():
    assert KEYWORDS == _REF_KEYWORDS
    assert _BINDER_KEYWORDS == _REF_BINDER_KEYWORDS


@settings(max_examples=200)
@given(terms())
def test_printer_and_parser_match_reference_on_terms(t):
    shown = show_term(t)
    assert shown == reference_show_term(t)
    assert _outcome(parse_term, shown) == _outcome(reference_parse_term, shown)


# the grammar's keywords, constants and symbols, some names, and fragments
# that make whole binder forms likely
_SOUP = (sorted(_REF_KEYWORDS) + sorted(CONSTANTS) + _SYMBOLS
         + ["x", "y", "k", "a", "of", "1", "_", "x'", "fun x ->", "(x : A)",
            "later k", "case x {", "inl a ->", "| inr b ->", "f x"])


@settings(max_examples=1000)
@given(st.lists(st.sampled_from(_SOUP), max_size=14).map(" ".join))
def test_parser_matches_reference_on_token_soup(text):
    assert _outcome(parse_term, text) == _outcome(reference_parse_term, text)
    decls = "def d : " + text
    assert (_outcome(parse_declarations, decls)
            == _outcome(reference_parse_declarations, decls))


_INFIX_SYMBOLS = ["->", "*", "+", "\\/", "/\\"]
_OPERANDS = ["f x", "fst x y", "Id A x y", "later k x", "later (a : k) -> x",
             "fun y -> y", "fun y fst -> y", "fun y tt -> y", "(x : A)",
             "(x : A) -> B", "(x : A) * B", "cpi (x : A) -> B", "clock k -> x",
             "case x { inl a -> a | inr b -> b }", "(x, y)", "x [a] @ k",
             "In{k => l} x", "U{k}", "tt", "", "( x"]


def _precedence_corpus():
    """Every pair and triple of infix symbols between plain operands, and
    every pair with one operand replaced by another form."""
    ops = _INFIX_SYMBOLS
    yield from (f"x {o} y {p} z {q} w" for o in ops for p in ops for q in ops)
    for o in ops:
        for p in ops:
            for u in _OPERANDS:
                yield f"{u} {o} y {p} z"
                yield f"x {o} {u} {p} z"
                yield f"x {o} y {p} {u}"


def test_parser_matches_reference_on_operator_combinations():
    for text in _precedence_corpus():
        assert (_outcome(parse_term, text)
                == _outcome(reference_parse_term, text)), text


@pytest.mark.parametrize("text", [
    "", "(", ")", "->", "A ->", "(x : A)", "(x : A) + B", "(x :", "(x : A) ->",
    "fun x y -> x", "fun -> x", "fst", "Id A B", "later k", "later (a : k)",
    "In{k => } x", "In{k => l => m} x", "A + fun x -> x", "f later k A",
    "A -> case c { inl x -> x | inr y -> y } + B",
])
def test_parser_matches_reference_on_edge_cases(text):
    assert _outcome(parse_term, text) == _outcome(reference_parse_term, text)


def test_data_files_parse_as_reference():
    from importlib import resources
    for path in resources.files("clott.data").iterdir():
        if path.name.endswith(".clott"):
            text = path.read_text(encoding="utf-8")
            decls = parse_declarations(text)
            assert decls == reference_parse_declarations(text)
            for d in decls:
                for t in (d.type_, d.body):
                    assert show_term(t) == reference_show_term(t)


def test_python_dash_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(clott.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-m", "clott", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "usage: clott" in done.stdout
    # importing the module, as a walk over the package does, runs nothing
    importlib.import_module("clott.__main__")


def test_nested_parentheses_cost_four_frames_per_level():
    # a fresh interpreter, so that pytest's own stack depth does not count:
    # 230 levels fit under the default recursion limit of 1,000 frames
    # only at four frames (atom, term, app, postfix) per level
    src = os.path.dirname(os.path.dirname(clott.__file__))
    code = ("from clott.parser import parse_term\n"
            "parse_term('(' * 230 + 'tt' + ')' * 230)\n")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
