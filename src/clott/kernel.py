"""Bidirectional typechecker and conversion checker.

Identity types are intensional (refl only); the constants tirr, cirr and
force are registered axioms.  Guarded fixed points unfold judgementally,
but only within a fuel budget; conversion is three-valued and never
reports `apart` when the budget ran out.

Binders are opened by one rule, in conversion as in checking: a binder is
renamed, and its body walked, only when its name is taken (Coquand, "An
algorithm for type-checking dependent types", SCP 1996).  The parser
rejects `_` as a variable, so `_` is never free in a parsed term, and
renaming avoids capture: a variable binder `_` binds nothing, and
instantiating it, like instantiating x with x, returns the body as it is.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

from . import parser
from .printer import show_term
from .terms import (
    Ann, App, Case, ClockAbs, ClockApp, Const, El, Forall, ForallCode, Fst,
    Id, IdCode, Incl, Inl, Inr, Lam, Later, LaterCode, PAnd, PEq, PExists,
    PForall, PForallClk, PLater, POr, Pair, Pi, PiCode, Prf, PropU, Sigma,
    SigmaCode, Snd, Sum, SumCode, Term, TickAbs, TickApp, Univ, Var,
    alpha_eq, clock_subst, free_names, fresh, rename, subst, tick_subst,
)


class TypeCheckError(Exception):
    def __init__(self, rule: str, message: str):
        super().__init__(f"[{rule}] {message}")
        self.rule = rule


class UnknownConversion(Exception):
    """Raised when typechecking is blocked by a fuel-limited conversion."""


class Verdict(enum.Enum):
    EQUAL = "equal"
    APART = "apart"
    UNKNOWN = "unknown"


@dataclass
class Fuel:
    """Budget for fix-unfolding during conversion; strictly decreases."""
    remaining: int = 32

    def spend(self) -> bool:
        if self.remaining <= 0:
            return False
        self.remaining -= 1
        return True


# ---------------------------------------------------------------------------
# Contexts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VarEntry:
    name: str
    type_: Term | None   # None for opaque entries introduced by conversion


@dataclass(frozen=True)
class ClockEntry:
    name: str


@dataclass(frozen=True)
class TickEntry:
    name: str
    clock: str


Entry = VarEntry | ClockEntry | TickEntry


@dataclass(frozen=True)
class Context:
    entries: tuple[Entry, ...] = ()

    @cached_property
    def _names(self) -> frozenset[str]:
        return frozenset([e.name for e in self.entries])

    def names(self) -> frozenset[str]:
        return self._names

    def bind_var(self, name: str, type_: Term | None) -> "Context":
        return Context(self.entries + (VarEntry(name, type_),))

    def bind_clock(self, name: str) -> "Context":
        return Context(self.entries + (ClockEntry(name),))

    def bind_tick(self, name: str, clock: str) -> "Context":
        return Context(self.entries + (TickEntry(name, clock),))

    def lookup_var(self, name: str) -> Term | None:
        for e in reversed(self.entries):
            if isinstance(e, VarEntry) and e.name == name:
                return e.type_
        return None

    def has_var(self, name: str) -> bool:
        return any(isinstance(e, VarEntry) and e.name == name
                   for e in self.entries)

    def has_clock(self, name: str) -> bool:
        return any(isinstance(e, ClockEntry) and e.name == name
                   for e in self.entries)

    def lookup_tick(self, name: str) -> str | None:
        for e in self.entries:
            if isinstance(e, TickEntry) and e.name == name:
                return e.clock
        return None

    def split_at_tick(self, name: str) -> "Context":
        """Prefix of the context strictly before the tick entry."""
        for i, e in enumerate(self.entries):
            if isinstance(e, TickEntry) and e.name == name:
                return Context(self.entries[:i])
        raise TypeCheckError("tick-app", f"tick {name!r} not in context")


# ---------------------------------------------------------------------------
# Weak-head normalisation
# ---------------------------------------------------------------------------

def whnf(ctx: Context, t: Term, fuel: Fuel) -> tuple[Term, bool]:
    """Reduce to weak-head normal form.  Returns (term, complete); complete
    is False when a fix-unfolding was blocked by exhausted fuel."""
    complete = True
    while True:
        if isinstance(t, Ann):
            t = t.term
            continue
        if isinstance(t, Incl):
            t = t.code
            continue
        if isinstance(t, App):
            fn, c = whnf(ctx, t.fn, fuel)
            complete = complete and c
            if isinstance(fn, Lam):
                t = _instantiate(fn.body, fn.name, t.arg)
                continue
            if isinstance(fn, Const) and fn.name == "fix":
                unfolded = _unfold_fix(ctx, t.arg, fuel)
                if unfolded is None:
                    return App(fn, t.arg), complete
                if unfolded is False:
                    return App(fn, t.arg), False
                t = unfolded
                continue
            return App(fn, t.arg), complete
        if isinstance(t, Fst):
            p, c = whnf(ctx, t.arg, fuel)
            complete = complete and c
            if isinstance(p, Pair):
                t = p.fst
                continue
            return Fst(p), complete
        if isinstance(t, Snd):
            p, c = whnf(ctx, t.arg, fuel)
            complete = complete and c
            if isinstance(p, Pair):
                t = p.snd
                continue
            return Snd(p), complete
        if isinstance(t, Case):
            s, c = whnf(ctx, t.scrut, fuel)
            complete = complete and c
            if isinstance(s, Inl):
                t = _instantiate(t.left, t.lname, s.arg)
                continue
            if isinstance(s, Inr):
                t = _instantiate(t.right, t.rname, s.arg)
                continue
            return Case(s, t.lname, t.left, t.rname, t.right), complete
        if isinstance(t, TickApp):
            fn, c = whnf(ctx, t.fn, fuel)
            complete = complete and c
            if isinstance(fn, TickAbs):
                t = tick_subst(fn.body, fn.tick, t.tick)
                continue
            return TickApp(fn, t.tick), complete
        if isinstance(t, ClockApp):
            fn, c = whnf(ctx, t.fn, fuel)
            complete = complete and c
            if isinstance(fn, ClockAbs):
                t = clock_subst(fn.body, fn.clock, t.clock)
                continue
            return ClockApp(fn, t.clock), complete
        if isinstance(t, El):
            code, c = whnf(ctx, t.code, fuel)
            complete = complete and c
            decoded = _decode_type_code(code)
            if decoded is None:
                return El(code), complete
            t = decoded
            continue
        if isinstance(t, Prf):
            p, c = whnf(ctx, t.prop, fuel)
            complete = complete and c
            decoded = _decode_prop(p)
            if decoded is None:
                return Prf(p), complete
            t = decoded
            continue
        return t, complete


def _instantiate(body: Term, x: str, u: Term) -> Term:
    """body[x := u] for the body of a variable binder x."""
    if x == "_" or (type(u) is Var and u.name == x):
        return body
    return subst(body, x, u)


def _unfold_fix(ctx: Context, g: Term, fuel: Fuel):
    """Unfold `fix g` once: g (tick a : k -> fix g).  Returns the unfolded
    term, None when the clock cannot be determined (stuck), or False when
    fuel ran out."""
    try:
        gty = infer(ctx, g, Fuel(fuel.remaining))
        gty, _ = whnf(ctx, gty, Fuel(fuel.remaining))
    except (TypeCheckError, UnknownConversion):
        return None
    if not (isinstance(gty, Pi) and isinstance(gty.dom, Later)):
        return None
    if not fuel.spend():
        return False
    kappa = gty.dom.clock
    a = fresh("a", free_names(g).all() | {kappa})
    return App(g, TickAbs(a, kappa, App(Const("fix"), g)))


def _decode_type_code(code: Term) -> Term | None:
    if isinstance(code, SumCode):
        return Sum(El(code.left), El(code.right))
    if isinstance(code, PiCode):
        return Pi(code.name, El(code.dom), El(code.cod))
    if isinstance(code, SigmaCode):
        return Sigma(code.name, El(code.dom), El(code.cod))
    if isinstance(code, IdCode):
        return Id(El(code.code), code.lhs, code.rhs)
    if isinstance(code, LaterCode):
        return Later(code.tick, code.clock, El(code.body))
    if isinstance(code, ForallCode):
        return Forall(code.clock, El(code.body))
    return None


def _decode_prop(p: Term) -> Term | None:
    if isinstance(p, Const) and p.name == "ptop":
        return Const("unit")
    if isinstance(p, Const) and p.name == "pbot":
        return Const("empty")
    if isinstance(p, PAnd):
        # a non-dependent pair; `_` may be a variable of q (`fun _ -> ...`
        # binds it), and then the binder must not capture it
        return Sigma(fresh("_", free_names(p.right).vars), Prf(p.left),
                     Prf(p.right))
    if isinstance(p, POr):
        return Sum(Prf(p.left), Prf(p.right))
    if isinstance(p, PExists):
        return Sigma(p.name, El(p.dom), Prf(p.body))
    if isinstance(p, PForall):
        return Pi(p.name, El(p.dom), Prf(p.body))
    if isinstance(p, PEq):
        return Id(El(p.code), p.lhs, p.rhs)
    if isinstance(p, PLater):
        return Later(p.tick, p.clock, Prf(p.body))
    if isinstance(p, PForallClk):
        return Forall(p.clock, Prf(p.body))
    return None


# ---------------------------------------------------------------------------
# Conversion
# ---------------------------------------------------------------------------

def convert(ctx: Context, t: Term, u: Term, fuel: Fuel | None = None) -> Verdict:
    fuel = fuel or Fuel()
    # no upfront erasure: annotations are needed to unfold fix, and whnf
    # strips Ann/Incl at the head of every subterm the recursion visits
    return _conv(ctx, t, u, fuel)


def _open2(ctx: Context, x1: str, b1: Term, x2: str, b2: Term):
    """Open two binder bodies under one name z that ctx does not bind.  A
    shared name keeps itself; otherwise a side keeps its name when the
    other body does not mention it.  `rename` to the same name is free."""
    taken = ctx.names()
    if x1 == x2 and x1 not in taken:
        return x1, b1, b2
    fv1, fv2 = free_names(b1).all(), free_names(b2).all()
    if x1 not in taken and x1 not in fv2:
        z = x1
    elif x2 not in taken and x2 not in fv1:
        z = x2
    else:
        z = fresh(x1, fv1 | fv2 | taken)
    return z, rename(b1, {x1: z}), rename(b2, {x2: z})


def _combine(verdicts: list[Verdict]) -> Verdict:
    if any(v is Verdict.APART for v in verdicts):
        return Verdict.APART
    if any(v is Verdict.UNKNOWN for v in verdicts):
        return Verdict.UNKNOWN
    return Verdict.EQUAL


def _conv(ctx: Context, t: Term, u: Term, fuel: Fuel) -> Verdict:
    if alpha_eq(t, u):
        return Verdict.EQUAL
    tw, tc = whnf(ctx, t, fuel)
    uw, uc = whnf(ctx, u, fuel)
    complete = tc and uc
    if alpha_eq(tw, uw):
        return Verdict.EQUAL

    # eta for functions and pairs
    if isinstance(tw, Lam) and not isinstance(uw, Lam):
        z = fresh(tw.name, free_names(tw).all() | free_names(uw).all() | ctx.names())
        body = rename(tw.body, {tw.name: z})
        return _soften(_conv(ctx.bind_var(z, None), body, App(uw, Var(z)), fuel),
                       complete)
    if isinstance(uw, Lam) and not isinstance(tw, Lam):
        return _conv(ctx, uw, tw, fuel)
    if isinstance(tw, Pair) and not isinstance(uw, Pair):
        return _soften(_combine([
            _conv(ctx, tw.fst, Fst(uw), fuel),
            _conv(ctx, tw.snd, Snd(uw), fuel)]), complete)
    if isinstance(uw, Pair) and not isinstance(tw, Pair):
        return _conv(ctx, uw, tw, fuel)

    if type(tw) is not type(uw):
        return Verdict.APART if complete else Verdict.UNKNOWN

    verdicts: list[Verdict] = []
    if isinstance(tw, Var):
        return Verdict.EQUAL if tw.name == uw.name else (
            Verdict.APART if complete else Verdict.UNKNOWN)
    if isinstance(tw, Const):
        return Verdict.EQUAL if tw.name == uw.name else (
            Verdict.APART if complete else Verdict.UNKNOWN)
    if isinstance(tw, (Univ, PropU)):
        return Verdict.EQUAL if tw.clocks == uw.clocks else Verdict.APART
    if isinstance(tw, Lam):
        z, b1, b2 = _open2(ctx, tw.name, tw.body, uw.name, uw.body)
        return _soften(_conv(ctx.bind_var(z, None), b1, b2, fuel), complete)
    if isinstance(tw, App):
        verdicts = [_conv(ctx, tw.fn, uw.fn, fuel),
                    _conv(ctx, tw.arg, uw.arg, fuel)]
        return _soften(_combine(verdicts), complete)
    if isinstance(tw, (Pi, Sigma, PiCode, SigmaCode)):
        verdicts.append(_conv(ctx, tw.dom, uw.dom, fuel))
        z, c1, c2 = _open2(ctx, tw.name, tw.cod, uw.name, uw.cod)
        dom = tw.dom if isinstance(tw, (Pi, Sigma)) else El(tw.dom)
        verdicts.append(_conv(ctx.bind_var(z, dom), c1, c2, fuel))
        return _soften(_combine(verdicts), complete)
    if isinstance(tw, (PExists, PForall)):
        verdicts.append(_conv(ctx, tw.dom, uw.dom, fuel))
        z, c1, c2 = _open2(ctx, tw.name, tw.body, uw.name, uw.body)
        verdicts.append(_conv(ctx.bind_var(z, El(tw.dom)), c1, c2, fuel))
        return _soften(_combine(verdicts), complete)
    if isinstance(tw, (Sum, SumCode, PAnd, POr)):
        verdicts = [_conv(ctx, tw.left, uw.left, fuel),
                    _conv(ctx, tw.right, uw.right, fuel)]
        return _soften(_combine(verdicts), complete)
    if isinstance(tw, (Id, IdCode, PEq)):
        a1, a2, a3 = (tw.type_, tw.lhs, tw.rhs) if isinstance(tw, Id) else \
            (tw.code, tw.lhs, tw.rhs)
        b1, b2, b3 = (uw.type_, uw.lhs, uw.rhs) if isinstance(uw, Id) else \
            (uw.code, uw.lhs, uw.rhs)
        verdicts = [_conv(ctx, a1, b1, fuel), _conv(ctx, a2, b2, fuel),
                    _conv(ctx, a3, b3, fuel)]
        return _soften(_combine(verdicts), complete)
    if isinstance(tw, (Later, LaterCode, PLater, TickAbs)):
        if tw.clock != uw.clock:
            return Verdict.APART
        z, b1, b2 = _open2(ctx, tw.tick, tw.body, uw.tick, uw.body)
        return _soften(_conv(ctx.bind_tick(z, tw.clock), b1, b2, fuel), complete)
    if isinstance(tw, (Forall, ForallCode, PForallClk, ClockAbs)):
        z, b1, b2 = _open2(ctx, tw.clock, tw.body, uw.clock, uw.body)
        return _soften(_conv(ctx.bind_clock(z), b1, b2, fuel), complete)
    if isinstance(tw, TickApp):
        if tw.tick != uw.tick:
            return Verdict.APART if complete else Verdict.UNKNOWN
        return _soften(_conv(ctx, tw.fn, uw.fn, fuel), complete)
    if isinstance(tw, ClockApp):
        if tw.clock != uw.clock:
            return Verdict.APART if complete else Verdict.UNKNOWN
        return _soften(_conv(ctx, tw.fn, uw.fn, fuel), complete)
    if isinstance(tw, (Fst, Snd, Inl, Inr, El, Prf)):
        sub = tw.arg if hasattr(tw, "arg") else (
            tw.code if isinstance(tw, El) else tw.prop)
        sub2 = uw.arg if hasattr(uw, "arg") else (
            uw.code if isinstance(uw, El) else uw.prop)
        return _soften(_conv(ctx, sub, sub2, fuel), complete)
    if isinstance(tw, Pair):
        verdicts = [_conv(ctx, tw.fst, uw.fst, fuel),
                    _conv(ctx, tw.snd, uw.snd, fuel)]
        return _soften(_combine(verdicts), complete)
    if isinstance(tw, Case):
        verdicts = [_conv(ctx, tw.scrut, uw.scrut, fuel)]
        z, l1, l2 = _open2(ctx, tw.lname, tw.left, uw.lname, uw.left)
        verdicts.append(_conv(ctx.bind_var(z, None), l1, l2, fuel))
        z, r1, r2 = _open2(ctx, tw.rname, tw.right, uw.rname, uw.right)
        verdicts.append(_conv(ctx.bind_var(z, None), r1, r2, fuel))
        return _soften(_combine(verdicts), complete)
    raise AssertionError(f"conversion: unhandled node {type(tw).__name__}")


def _soften(v: Verdict, complete: bool) -> Verdict:
    """Downgrade apart to unknown when head reduction was fuel-limited."""
    if v is Verdict.APART and not complete:
        return Verdict.UNKNOWN
    return v


def _require_equal(ctx: Context, t: Term, u: Term, fuel: Fuel, rule: str) -> None:
    v = convert(ctx, t, u, Fuel(fuel.remaining))
    if v is Verdict.UNKNOWN:
        raise UnknownConversion(
            f"[{rule}] cannot decide {show_term(t)} = {show_term(u)} within fuel")
    if v is Verdict.APART:
        raise TypeCheckError(rule, f"{show_term(t)} is not convertible "
                             f"with {show_term(u)}")


# ---------------------------------------------------------------------------
# Type validity
# ---------------------------------------------------------------------------

def is_type(ctx: Context, a: Term, fuel: Fuel) -> None:
    aw, _ = whnf(ctx, a, fuel)
    if isinstance(aw, (Univ, PropU)):
        for k in aw.clocks:
            if not ctx.has_clock(k):
                raise TypeCheckError("univ-form",
                                     f"clock {k!r} not in context")
        return
    if isinstance(aw, Const) and aw.name in ("unit", "empty"):
        return
    if isinstance(aw, Pi) or isinstance(aw, Sigma):
        is_type(ctx, aw.dom, fuel)
        # `_` binds nothing, so binding it twice shadows no reference
        name, cod = ("_", aw.cod) if aw.name == "_" else \
            _fresh_binder(ctx, aw.name, aw.cod)
        is_type(ctx.bind_var(name, aw.dom), cod, fuel)
        return
    if isinstance(aw, Sum):
        is_type(ctx, aw.left, fuel)
        is_type(ctx, aw.right, fuel)
        return
    if isinstance(aw, Id):
        is_type(ctx, aw.type_, fuel)
        check(ctx, aw.lhs, aw.type_, fuel)
        check(ctx, aw.rhs, aw.type_, fuel)
        return
    if isinstance(aw, Later):
        if not ctx.has_clock(aw.clock):
            raise TypeCheckError("later-form",
                                 f"clock {aw.clock!r} not in context")
        name, body = _fresh_binder(ctx, aw.tick, aw.body)
        is_type(ctx.bind_tick(name, aw.clock), body, fuel)
        return
    if isinstance(aw, Forall):
        name, body = _fresh_binder(ctx, aw.clock, aw.body)
        is_type(ctx.bind_clock(name), body, fuel)
        return
    if isinstance(aw, El):
        u = infer(ctx, aw.code, fuel)
        uw, _ = whnf(ctx, u, fuel)
        if not isinstance(uw, Univ):
            raise TypeCheckError("el-form", "El expects a universe code, "
                                 f"got one of type {show_term(uw)}")
        return
    if isinstance(aw, Prf):
        u = infer(ctx, aw.prop, fuel)
        uw, _ = whnf(ctx, u, fuel)
        if not isinstance(uw, PropU):
            raise TypeCheckError("prf-form", "Prf expects a proposition, "
                                 f"got one of type {show_term(uw)}")
        return
    raise TypeCheckError("type-form", f"{show_term(aw)} is not a type")


def _fresh_binder(ctx: Context, name: str, body: Term) -> tuple[str, Term]:
    if name in ctx.names():
        z = fresh(name, ctx.names() | free_names(body).all())
        return z, rename(body, {name: z})
    return name, body


# ---------------------------------------------------------------------------
# Axiom constants
# ---------------------------------------------------------------------------

_AXIOM_SOURCES = {
    # two-tick comparison: all tick applications of a delayed value agree
    "tirr": """
        forall-clk k -> (a : U{k}) -> (t : later (al : k) -> El a) ->
        later (b : k) -> later (b2 : k) -> Id (El a) (t [b]) (t [b2])
    """,
    # the canonical map from a clock-free type into its clock quantification
    # is an isomorphism: inverse plus both round-trip identities
    "cirr": """
        (a : U{}) ->
        (g : (forall-clk k -> El a) -> El a) *
        ((x : El a) -> Id (El a) (g (clock k -> x)) x) *
        ((f : forall-clk k -> El a) ->
            Id (forall-clk k -> El a) (clock k -> g f) f)
    """,
    # inverse data for the canonical map (forall k. A) -> forall k. later k A
    "force": """
        (a : forall-clk k -> U{k}) ->
        (g : (forall-clk k -> later (al : k) -> El (a @ k)) ->
             forall-clk k -> El (a @ k)) *
        ((x : forall-clk k -> El (a @ k)) ->
            Id (forall-clk k -> El (a @ k))
               (g (clock k -> tick al : k -> x @ k)) x) *
        ((f : forall-clk k -> later (al : k) -> El (a @ k)) ->
            Id (forall-clk k -> later (al : k) -> El (a @ k))
               (clock k -> tick al : k -> (g f) @ k) f)
    """,
}

_AXIOM_TYPES: dict[str, Term] | None = None


def axioms() -> list[tuple[str, Term]]:
    """The axiom constants available in every context, with their types."""
    global _AXIOM_TYPES
    if _AXIOM_TYPES is None:
        _AXIOM_TYPES = {name: parser.parse_term(src)
                        for name, src in _AXIOM_SOURCES.items()}
    return [(n, _AXIOM_TYPES[n]) for n in ("tirr", "cirr", "force")]


def _axiom_type(name: str) -> Term:
    return dict(axioms())[name]


# ---------------------------------------------------------------------------
# Inference and checking
# ---------------------------------------------------------------------------

def infer(ctx: Context, t: Term, fuel: Fuel) -> Term:
    if isinstance(t, Var):
        ty = ctx.lookup_var(t.name)
        if ty is None:
            raise TypeCheckError("var", f"variable {t.name!r} not in context"
                                 if not ctx.has_var(t.name)
                                 else f"variable {t.name!r} is opaque here")
        return ty
    if isinstance(t, Const):
        if t.name == "tt":
            return Const("unit")
        if t.name in ("tirr", "cirr", "force"):
            return _axiom_type(t.name)
        raise TypeCheckError("infer", f"constant {t.name!r} cannot be "
                             "inferred; annotate or use check mode")
    if isinstance(t, Ann):
        is_type(ctx, t.type_, fuel)
        check(ctx, t.term, t.type_, fuel)
        return t.type_
    if isinstance(t, App):
        if isinstance(t.fn, Const) and t.fn.name == "fix":
            return _infer_fix_app(ctx, t.arg, fuel)
        fty = infer(ctx, t.fn, fuel)
        fw, _ = whnf(ctx, fty, fuel)
        if not isinstance(fw, Pi):
            raise TypeCheckError("app", f"applying a non-function of type "
                                 f"{show_term(fw)}")
        check(ctx, t.arg, fw.dom, fuel)
        return _instantiate(fw.cod, fw.name, t.arg)
    if isinstance(t, Fst):
        pty = infer(ctx, t.arg, fuel)
        pw, _ = whnf(ctx, pty, fuel)
        if not isinstance(pw, Sigma):
            raise TypeCheckError("fst", f"projection from non-pair type "
                                 f"{show_term(pw)}")
        return pw.dom
    if isinstance(t, Snd):
        pty = infer(ctx, t.arg, fuel)
        pw, _ = whnf(ctx, pty, fuel)
        if not isinstance(pw, Sigma):
            raise TypeCheckError("snd", f"projection from non-pair type "
                                 f"{show_term(pw)}")
        return _instantiate(pw.cod, pw.name, Fst(t.arg))
    if isinstance(t, TickAbs):
        if not ctx.has_clock(t.clock):
            raise TypeCheckError("tick-abs",
                                 f"clock {t.clock!r} not in context")
        name, body = _fresh_binder(ctx, t.tick, t.body)
        bty = infer(ctx.bind_tick(name, t.clock), body, fuel)
        return Later(name, t.clock, bty)
    if isinstance(t, TickApp):
        kappa = ctx.lookup_tick(t.tick)
        if kappa is None:
            raise TypeCheckError("tick-app",
                                 f"tick {t.tick!r} not in context")
        prefix = ctx.split_at_tick(t.tick)
        fty = infer(prefix, t.fn, fuel)
        fw, _ = whnf(prefix, fty, fuel)
        if not (isinstance(fw, Later) and fw.clock == kappa):
            raise TypeCheckError(
                "tick-app", f"tick application needs a delayed value on "
                f"clock {kappa!r}, got type {show_term(fw)}")
        return tick_subst(fw.body, fw.tick, t.tick)
    if isinstance(t, ClockAbs):
        name, body = _fresh_binder(ctx, t.clock, t.body)
        bty = infer(ctx.bind_clock(name), body, fuel)
        return Forall(name, bty)
    if isinstance(t, ClockApp):
        if not ctx.has_clock(t.clock):
            raise TypeCheckError("clock-app",
                                 f"clock {t.clock!r} not in context")
        fty = infer(ctx, t.fn, fuel)
        fw, _ = whnf(ctx, fty, fuel)
        if not isinstance(fw, Forall):
            raise TypeCheckError("clock-app",
                                 f"clock application to a value of type "
                                 f"{show_term(fw)}")
        return clock_subst(fw.body, fw.clock, t.clock)
    if isinstance(t, Incl):
        if not set(t.small) <= set(t.big):
            raise TypeCheckError("incl", "inclusion requires the small clock "
                                 "set to be contained in the big one")
        for k in t.big:
            if not ctx.has_clock(k):
                raise TypeCheckError("incl", f"clock {k!r} not in context")
        cty = infer(ctx, t.code, fuel)
        cw, _ = whnf(ctx, cty, fuel)
        if isinstance(cw, Univ) and set(cw.clocks) <= set(t.small):
            return Univ(t.big)
        if isinstance(cw, PropU) and set(cw.clocks) <= set(t.small):
            return PropU(t.big)
        raise TypeCheckError("incl", f"cannot include a code of type "
                             f"{show_term(cw)} into U{{{', '.join(t.big)}}}")
    if isinstance(t, SumCode):
        d = _infer_universe(ctx, t.left, fuel)
        check(ctx, t.right, Univ(d), fuel)
        return Univ(d)
    if isinstance(t, (PiCode, SigmaCode)):
        d = _infer_universe(ctx, t.dom, fuel)
        name, cod = _fresh_binder(ctx, t.name, t.cod)
        check(ctx.bind_var(name, El(t.dom)), cod, Univ(d), fuel)
        return Univ(d)
    if isinstance(t, IdCode):
        d = _infer_universe(ctx, t.code, fuel)
        check(ctx, t.lhs, El(t.code), fuel)
        check(ctx, t.rhs, El(t.code), fuel)
        return Univ(d)
    if isinstance(t, LaterCode):
        name, body = _fresh_binder(ctx, t.tick, t.body)
        if not ctx.has_clock(t.clock):
            raise TypeCheckError("later-code",
                                 f"clock {t.clock!r} not in context")
        d = _infer_universe(ctx.bind_tick(name, t.clock), body, fuel)
        if t.clock not in d:
            raise TypeCheckError(
                "later-code", f"universe U{{{', '.join(d)}}} is not closed "
                f"under delay on clock {t.clock!r}")
        return Univ(d)
    if isinstance(t, ForallCode):
        name, body = _fresh_binder(ctx, t.clock, t.body)
        d = _infer_universe(ctx.bind_clock(name), body, fuel)
        return Univ(tuple(k for k in d if k != name))
    if isinstance(t, (PExists, PForall)):
        d = _infer_universe(ctx, t.dom, fuel)
        name, body = _fresh_binder(ctx, t.name, t.body)
        check(ctx.bind_var(name, El(t.dom)), body, PropU(d), fuel)
        return PropU(d)
    if isinstance(t, PEq):
        d = _infer_universe(ctx, t.code, fuel)
        check(ctx, t.lhs, El(t.code), fuel)
        check(ctx, t.rhs, El(t.code), fuel)
        return PropU(d)
    if isinstance(t, PLater):
        name, body = _fresh_binder(ctx, t.tick, t.body)
        if not ctx.has_clock(t.clock):
            raise TypeCheckError("plater",
                                 f"clock {t.clock!r} not in context")
        pty = infer(ctx.bind_tick(name, t.clock), body, fuel)
        pw, _ = whnf(ctx, pty, fuel)
        if not isinstance(pw, PropU):
            raise TypeCheckError("plater", "expected a proposition")
        if t.clock not in pw.clocks:
            raise TypeCheckError(
                "plater", f"Prop{{{', '.join(pw.clocks)}}} is not closed "
                f"under delay on clock {t.clock!r}")
        return pty
    if isinstance(t, PForallClk):
        name, body = _fresh_binder(ctx, t.clock, t.body)
        pty = infer(ctx.bind_clock(name), body, fuel)
        pw, _ = whnf(ctx, pty, fuel)
        if not isinstance(pw, PropU):
            raise TypeCheckError("pforall-clk", "expected a proposition")
        return PropU(tuple(k for k in pw.clocks if k != name))
    if isinstance(t, (PAnd, POr)):
        l = infer(ctx, t.left, fuel)
        lw, _ = whnf(ctx, l, fuel)
        if not isinstance(lw, PropU):
            raise TypeCheckError("pconn", "expected a proposition")
        check(ctx, t.right, lw, fuel)
        return lw
    raise TypeCheckError("infer", f"cannot infer a type for "
                         f"{show_term(t)}; use an annotation")


def _infer_universe(ctx: Context, code: Term, fuel: Fuel) -> tuple[str, ...]:
    u = infer(ctx, code, fuel)
    uw, _ = whnf(ctx, u, fuel)
    if not isinstance(uw, Univ):
        raise TypeCheckError("code", f"expected a universe code, got a term "
                             f"of type {show_term(uw)}")
    return uw.clocks


def _infer_fix_app(ctx: Context, g: Term, fuel: Fuel) -> Term:
    gty = infer(ctx, g, fuel)
    gw, _ = whnf(ctx, gty, fuel)
    if not (isinstance(gw, Pi) and isinstance(gw.dom, Later)):
        raise TypeCheckError("fix", "fix expects an argument of type "
                             "(later k A) -> A, got " + show_term(gw))
    lat = gw.dom
    if not ctx.has_clock(lat.clock):
        raise TypeCheckError("fix", f"clock {lat.clock!r} not in context")
    if lat.tick in free_names(lat.body).ticks:
        raise TypeCheckError("fix", "fix requires a non-dependent delay")
    if gw.name in free_names(gw.cod).vars:
        raise TypeCheckError("fix", "fix requires a non-dependent function")
    _require_equal(ctx, lat.body, gw.cod, fuel, "fix")
    return gw.cod


def check(ctx: Context, t: Term, a: Term, fuel: Fuel) -> None:
    aw, _ = whnf(ctx, a, fuel)
    if isinstance(t, Lam):
        if not isinstance(aw, Pi):
            raise TypeCheckError("lam", f"a function cannot have type "
                                 f"{show_term(aw)}")
        name, body = _fresh_binder(ctx, t.name, t.body)
        cod = _instantiate(aw.cod, aw.name, Var(name))
        check(ctx.bind_var(name, aw.dom), body, cod, fuel)
        return
    if isinstance(t, Pair):
        if not isinstance(aw, Sigma):
            raise TypeCheckError("pair", f"a pair cannot have type "
                                 f"{show_term(aw)}")
        check(ctx, t.fst, aw.dom, fuel)
        check(ctx, t.snd, _instantiate(aw.cod, aw.name, t.fst), fuel)
        return
    if isinstance(t, Inl):
        if not isinstance(aw, Sum):
            raise TypeCheckError("inl", f"an injection cannot have type "
                                 f"{show_term(aw)}")
        check(ctx, t.arg, aw.left, fuel)
        return
    if isinstance(t, Inr):
        if not isinstance(aw, Sum):
            raise TypeCheckError("inr", f"an injection cannot have type "
                                 f"{show_term(aw)}")
        check(ctx, t.arg, aw.right, fuel)
        return
    if isinstance(t, Case):
        sty = infer(ctx, t.scrut, fuel)
        sw, _ = whnf(ctx, sty, fuel)
        if not isinstance(sw, Sum):
            raise TypeCheckError("case", f"case scrutinee has non-sum type "
                                 f"{show_term(sw)}")
        lname, left = _fresh_binder(ctx, t.lname, t.left)
        check(ctx.bind_var(lname, sw.left), left, aw, fuel)
        rname, right = _fresh_binder(ctx, t.rname, t.right)
        check(ctx.bind_var(rname, sw.right), right, aw, fuel)
        return
    if isinstance(t, TickAbs):
        if not isinstance(aw, Later):
            raise TypeCheckError("tick-abs", f"a tick abstraction cannot "
                                 f"have type {show_term(aw)}")
        if aw.clock != t.clock:
            raise TypeCheckError("tick-abs", f"clock mismatch: abstraction "
                                 f"on {t.clock!r}, type on {aw.clock!r}")
        if not ctx.has_clock(t.clock):
            raise TypeCheckError("tick-abs",
                                 f"clock {t.clock!r} not in context")
        name, body = _fresh_binder(ctx, t.tick, t.body)
        target = tick_subst(aw.body, aw.tick, name)
        check(ctx.bind_tick(name, t.clock), body, target, fuel)
        return
    if isinstance(t, ClockAbs):
        if not isinstance(aw, Forall):
            raise TypeCheckError("clock-abs", f"a clock abstraction cannot "
                                 f"have type {show_term(aw)}")
        name, body = _fresh_binder(ctx, t.clock, t.body)
        target = clock_subst(aw.body, aw.clock, name)
        check(ctx.bind_clock(name), body, target, fuel)
        return
    if isinstance(t, Const):
        if t.name == "refl":
            if not isinstance(aw, Id):
                raise TypeCheckError("refl", f"refl cannot have type "
                                     f"{show_term(aw)}")
            _require_equal(ctx, aw.lhs, aw.rhs, fuel, "refl")
            return
        if t.name == "fix":
            _check_fix_constant(ctx, aw, fuel)
            return
        if t.name in ("ptop", "pbot"):
            if not isinstance(aw, PropU):
                raise TypeCheckError("pconst", f"{t.name} is a proposition, "
                                     f"not a {show_term(aw)}")
            return
    if isinstance(t, (PAnd, POr)) and isinstance(aw, PropU):
        check(ctx, t.left, aw, fuel)
        check(ctx, t.right, aw, fuel)
        return
    if isinstance(t, (PExists, PForall)) and isinstance(aw, PropU):
        d = _infer_universe(ctx, t.dom, fuel)
        if not set(d) <= set(aw.clocks):
            raise TypeCheckError("pquant", "the quantification domain lives "
                                 f"in U{{{', '.join(d)}}}, outside "
                                 f"Prop{{{', '.join(aw.clocks)}}}")
        name, body = _fresh_binder(ctx, t.name, t.body)
        check(ctx.bind_var(name, El(t.dom)), body, aw, fuel)
        return
    if isinstance(t, PEq) and isinstance(aw, PropU):
        d = _infer_universe(ctx, t.code, fuel)
        if not set(d) <= set(aw.clocks):
            raise TypeCheckError("peq", "the equality domain lives in "
                                 f"U{{{', '.join(d)}}}, outside "
                                 f"Prop{{{', '.join(aw.clocks)}}}")
        check(ctx, t.lhs, El(t.code), fuel)
        check(ctx, t.rhs, El(t.code), fuel)
        return
    if isinstance(t, PLater) and isinstance(aw, PropU):
        if t.clock not in aw.clocks:
            raise TypeCheckError(
                "plater", f"Prop{{{', '.join(aw.clocks)}}} is not closed "
                f"under delay on clock {t.clock!r}")
        name, body = _fresh_binder(ctx, t.tick, t.body)
        check(ctx.bind_tick(name, t.clock), body, aw, fuel)
        return
    if isinstance(t, PForallClk) and isinstance(aw, PropU):
        name, body = _fresh_binder(ctx, t.clock, t.body)
        check(ctx.bind_clock(name), body,
              PropU(aw.clocks + (name,)), fuel)
        return
    if isinstance(t, SumCode) and isinstance(aw, Univ):
        check(ctx, t.left, aw, fuel)
        check(ctx, t.right, aw, fuel)
        return
    if isinstance(t, (PiCode, SigmaCode)) and isinstance(aw, Univ):
        check(ctx, t.dom, aw, fuel)
        name, cod = _fresh_binder(ctx, t.name, t.cod)
        check(ctx.bind_var(name, El(t.dom)), cod, aw, fuel)
        return
    if isinstance(t, IdCode) and isinstance(aw, Univ):
        check(ctx, t.code, aw, fuel)
        check(ctx, t.lhs, El(t.code), fuel)
        check(ctx, t.rhs, El(t.code), fuel)
        return
    if isinstance(t, LaterCode) and isinstance(aw, Univ):
        if t.clock not in aw.clocks:
            raise TypeCheckError(
                "later-code", f"universe U{{{', '.join(aw.clocks)}}} is not "
                f"closed under delay on clock {t.clock!r}")
        name, body = _fresh_binder(ctx, t.tick, t.body)
        check(ctx.bind_tick(name, t.clock), body, aw, fuel)
        return
    if isinstance(t, ForallCode) and isinstance(aw, Univ):
        name, body = _fresh_binder(ctx, t.clock, t.body)
        check(ctx.bind_clock(name), body, Univ(aw.clocks + (name,)), fuel)
        return
    inferred = infer(ctx, t, fuel)
    _require_equal(ctx, inferred, aw, fuel, "conv")


def _check_fix_constant(ctx: Context, aw: Term, fuel: Fuel) -> None:
    ok = (isinstance(aw, Pi) and isinstance(whnf(ctx, aw.dom, fuel)[0], Pi))
    if ok:
        inner, _ = whnf(ctx, aw.dom, fuel)
        lat, _ = whnf(ctx, inner.dom, fuel)
        ok = isinstance(lat, Later)
    if not ok:
        raise TypeCheckError("fix", f"fix cannot have type {show_term(aw)}; "
                             "expected ((later k A) -> A) -> A")
    if not ctx.has_clock(lat.clock):
        raise TypeCheckError("fix", f"clock {lat.clock!r} not in context")
    if lat.tick in free_names(lat.body).ticks:
        raise TypeCheckError("fix", "fix requires a non-dependent delay")
    _require_equal(ctx, lat.body, inner.cod, fuel, "fix")
    _require_equal(ctx, inner.cod, aw.cod, fuel, "fix")


# ---------------------------------------------------------------------------
# Declaration checking (used by the CLI)
# ---------------------------------------------------------------------------

def check_declarations(decls, fuel_budget: int = 32) -> None:
    """Check a list of parsed declarations; earlier definitions are in
    scope as opaque constants of their declared type."""
    ctx = Context()
    for d in decls:
        fuel = Fuel(fuel_budget)
        is_type(ctx, d.type_, fuel)
        check(ctx, d.body, d.type_, fuel)
        ctx = ctx.bind_var(d.name, d.type_)
