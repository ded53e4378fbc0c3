"""Canonical pretty-printer; round-trips with the parser up to alpha-equivalence.

It reads the parser's syntax table in reverse: a keyword form joins the
pieces of its form, parenthesised as a binder or an application, and an
infix form is parenthesised from its precedence and associativity.
"""
from __future__ import annotations

from operator import attrgetter

from .parser import APP, BINDERS, INFIX, NAME, PIECES, POSTFIX
from .terms import (AOp, AVar, Ann, App, ClockApp, Const, Incl, Lam, Pair,
                    PropU, Term, TickApp, Univ, Var)

# class -> (level, pieces) of a keyword form: a binder stands alone only
# where a whole term may, and a prefix form where an application may
_FORMS = {cls: (0 if cls in BINDERS else APP, pieces)
          for cls, pieces in PIECES.items()}
# class -> (symbol, field getter, precedence, left and right operand levels)
_INFIX = {cls: (sym, attrgetter(*cls.__match_args__), prec,
                *((prec + 1, prec) if right else (prec, prec + 1)))
          for prec, (sym, cls, right) in enumerate(INFIX, 1)}


def show_term(t: Term) -> str:
    return _show(t, 0)


def _wrap(s: str, level: int, minimum: int) -> str:
    return f"({s})" if level < minimum else s


def _show(t: Term, minimum: int) -> str:
    cls = type(t)
    form = _FORMS.get(cls)
    if form is not None:
        level, pieces = form
        parts = []
        for text, _, slot, field in pieces:
            parts.append(text)
            if slot == NAME:
                parts.append(getattr(t, field))
            elif slot is not None:
                parts.append(_show(getattr(t, field), slot))
        return _wrap("".join(parts), level, minimum)
    if cls is Var or cls is Const:
        return t.name
    if cls in _INFIX:
        sym, get, prec, lp, rp = _INFIX[cls]
        *name, left, right = get(t)
        lhs = (f"({name[0]} : {_show(left, 0)})" if name and name[0] != "_"
               else _show(left, lp))
        return _wrap(f"{lhs} {sym} {_show(right, rp)}", prec, minimum)
    if cls is Lam:
        return _wrap(f"fun {t.name} -> {_show(t.body, 0)}", 0, minimum)
    if cls is App:
        return _wrap(f"{_show(t.fn, APP)} {_show(t.arg, POSTFIX)}",
                     APP, minimum)
    if cls is TickApp:
        return _wrap(f"{_show(t.fn, POSTFIX)} [{t.tick}]", POSTFIX, minimum)
    if cls is ClockApp:
        return _wrap(f"{_show(t.fn, POSTFIX)} @ {t.clock}", POSTFIX, minimum)
    if cls is Incl:
        return _wrap(f"In{{{', '.join(t.small)} => {', '.join(t.big)}}} "
                     f"{_show(t.code, POSTFIX)}", APP, minimum)
    if cls is Univ or cls is PropU:
        return f"{'U' if cls is Univ else 'Prop'}{{{', '.join(t.clocks)}}}"
    if cls is Pair:
        return f"({_show(t.fst, 0)}, {_show(t.snd, 0)})"
    if cls is Ann:
        return f"({_show(t.term, 0)} : {_show(t.type_, 0)})"
    raise AssertionError(f"unhandled term node {cls.__name__}")


def show_alg_term(t: AVar | AOp) -> str:
    if isinstance(t, AVar):
        return t.name
    if not t.args:
        return t.op
    return f"{t.op}({', '.join(show_alg_term(a) for a in t.args)})"
