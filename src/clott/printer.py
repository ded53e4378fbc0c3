"""Canonical pretty-printer; round-trips with the parser up to alpha-equivalence.

It reads the parser's syntax table in reverse: an infix form is
parenthesised from its precedence and associativity, a prefix form prints
its fields in constructor order, and a binder prints by its shape.
"""
from __future__ import annotations

from operator import attrgetter

from .parser import CLOCK_BINDERS, DELAYS, INFIX, PREFIX, TYPED_BINDERS
from .terms import (AOp, AVar, Ann, App, Case, ClockApp, Const, Incl, Lam,
                    Pair, PropU, Term, TickAbs, TickApp, Univ, Var)

# Precedence levels: 0 for the binder forms, 1 .. len(INFIX) for the infix
# symbols loosest first, then application and postfix.
_APP = len(INFIX) + 1
_POSTFIX = _APP + 1


# class -> (shape, keyword or symbol, field getter[, precedence, left and
# right operand levels]); the field order is read once, here
_FORMS: dict[type, tuple] = {
    **{cls: ("clock", kw, None) for kw, cls in CLOCK_BINDERS.items()},
    **{cls: ("typed", kw, attrgetter(*cls.__match_args__))
       for kw, cls in TYPED_BINDERS.items()},
    **{cls: ("delay", kw, None) for kw, cls in DELAYS.items()},
    **{cls: ("prefix", kw, tuple(map(attrgetter, cls.__match_args__)))
       for kw, cls in PREFIX.items()},
    **{cls: ("infix", sym, attrgetter(*cls.__match_args__), prec,
             *((prec + 1, prec) if right else (prec, prec + 1)))
       for prec, (sym, cls, right) in enumerate(INFIX, 1)},
}


def show_term(t: Term) -> str:
    return _show(t, 0)


def _wrap(s: str, level: int, minimum: int) -> str:
    return f"({s})" if level < minimum else s


def _show(t: Term, minimum: int) -> str:
    cls = type(t)
    form = _FORMS.get(cls)
    if form is not None:
        shape, kw, get = form[:3]
        if shape == "infix":
            prec, lp, rp = form[3:]
            *name, left, right = get(t)
            lhs = (f"({name[0]} : {_show(left, 0)})" if name and name[0] != "_"
                   else _show(left, lp))
            return _wrap(f"{lhs} {kw} {_show(right, rp)}", prec, minimum)
        if shape == "prefix":
            args = " ".join([_show(g(t), _POSTFIX) for g in get])
            return _wrap(f"{kw} {args}", _APP, minimum)
        if shape == "clock":
            s = f"{kw} {t.clock} -> {_show(t.body, 0)}"
        elif shape == "delay":
            s = f"{kw} ({t.tick} : {t.clock}) -> {_show(t.body, 0)}"
        else:
            x, dom, body = get(t)
            s = f"{kw} ({x} : {_show(dom, 0)}) -> {_show(body, 0)}"
        return _wrap(s, 0, minimum)
    if cls is Var or cls is Const:
        return t.name
    if cls is Lam:
        return _wrap(f"fun {t.name} -> {_show(t.body, 0)}", 0, minimum)
    if cls is TickAbs:
        return _wrap(f"tick {t.tick} : {t.clock} -> {_show(t.body, 0)}",
                     0, minimum)
    if cls is App:
        return _wrap(f"{_show(t.fn, _APP)} {_show(t.arg, _POSTFIX)}",
                     _APP, minimum)
    if cls is TickApp:
        return _wrap(f"{_show(t.fn, _POSTFIX)} [{t.tick}]", _POSTFIX, minimum)
    if cls is ClockApp:
        return _wrap(f"{_show(t.fn, _POSTFIX)} @ {t.clock}", _POSTFIX, minimum)
    if cls is Incl:
        return _wrap(f"In{{{', '.join(t.small)} => {', '.join(t.big)}}} "
                     f"{_show(t.code, _POSTFIX)}", _APP, minimum)
    if cls is Univ or cls is PropU:
        return f"{'U' if cls is Univ else 'Prop'}{{{', '.join(t.clocks)}}}"
    if cls is Pair:
        return f"({_show(t.fst, 0)}, {_show(t.snd, 0)})"
    if cls is Ann:
        return f"({_show(t.term, 0)} : {_show(t.type_, 0)})"
    if cls is Case:
        return _wrap(f"case {_show(t.scrut, 0)} {{ inl {t.lname} -> "
                     f"{_show(t.left, 0)} | inr {t.rname} -> "
                     f"{_show(t.right, 0)} }}", 0, minimum)
    raise AssertionError(f"unhandled term node {cls.__name__}")


def show_alg_term(t: AVar | AOp) -> str:
    if isinstance(t, AVar):
        return t.name
    if not t.args:
        return t.op
    return f"{t.op}({', '.join(show_alg_term(a) for a in t.args)})"
