"""Parser and printer: round trips and error reporting."""
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clott.parser import (ParseError, Token, parse_alg_term,
                          parse_declarations, parse_term, parse_theory_file,
                          tokenize)
from clott.printer import show_alg_term, show_term
from clott.terms import (AOp, AVar, App, Lam, Later, Pi, Sigma, TickAbs,
                         Var)

from .strategies import alg_terms, terms


@settings(max_examples=300)
@given(terms())
def test_roundtrip(t):
    assert parse_term(show_term(t)) == t


@given(alg_terms())
def test_alg_roundtrip(t):
    ops = {"f": 2, "g": 1, "c": 0}
    assert parse_alg_term(show_alg_term(t), ops) == t


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


def test_theory_file_bad_line():
    with pytest.raises(ParseError):
        parse_theory_file("nonsense here\n")


# -- tokenizer -----------------------------------------------------------------

_SYMBOLS = ["/\\", "\\/", "->", "=>", "(", ")", "{", "}", "[", "]",
            ",", ":", "*", "+", "@", "=", "|", "/"]
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_'\-]*")
_NUM_RE = re.compile(r"[0-9]+")


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
    assert _outcome(tokenize, text) == _outcome(reference_tokenize, text)


@pytest.mark.parametrize("text", [
    "", "tt", "tt -- comment at end", "-- only a comment", "tt --",
    "def f : unit = tt\n-- trailing\n", "a -- c\n$", "x\t\ry\r\n-- c\n$",
    "fun x -> x /\\ y \\/ z", "a--b -> c", "f'-x 12ab", "\n\n  \u00e9",
    "-", "->-", "=>=", "((tt))\n  ]",
])
def test_tokenize_matches_reference_on_edge_cases(text):
    assert _outcome(tokenize, text) == _outcome(reference_tokenize, text)


def test_eof_after_trailing_comment_keeps_comment_column():
    assert tokenize("tt -- bye")[-1] == Token("eof", "", 1, 4)
    assert tokenize("tt -- bye\n")[-1] == Token("eof", "", 2, 1)


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
            assert tokenize(text) == reference_tokenize(text)
