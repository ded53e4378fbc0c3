"""Bidirectional typechecker and conversion checker.

Identity types are intensional (refl only); the constants tirr, cirr and
force are registered axioms.  Guarded fixed points unfold judgementally,
but only within a fuel budget; conversion is three-valued and never
reports `apart` when the budget ran out.

Weak-head normalisation is one head-reduction rule: strip annotations and
inclusions, reduce the eliminator's head (`_HEADS`), then contract
through the table `_REDEX` keyed by (eliminator, head class), which holds
the beta rules and the decodings of El and Prf.  Unfolding `fix` is the
only other step.  A stuck eliminator whose head came back unchanged is
returned as it is; one whose head reduced is rebuilt around the reduct.

Conversion is weak-head normalisation, eta for functions and pairs, then
one congruence rule read off `terms._SPEC` for every node class: the
fields that are not subterms (names, atoms, clock sets) agree, and the
subterms convert in spec order, each under the binder scoping over it.
Terms are compared up to alpha again after reduction only if one reduced.

A context is a chain of local binders, innermost first, over the table of
the declarations checked so far, which `check_declarations` owns and only
adds to.  Binding is O(1); lookups walk the local binders, then read the
table, and so does `name in ctx`, which `fresh` asks instead of a set of
all names.

Code and proposition formers are checked by one rule, `_check_former`,
which walks the former's parts in spec order against a universe; `check`
uses it when the universe matches the former, and `infer` after reading
the universe off the first part.  `_bind` types every binder the same
way in the former rule and in conversion: a tick on the node's clock, a
clock, or a variable typed by its domain, by the domain's decoding, or
by nothing.

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
from functools import cache

from . import parser
from .printer import show_term
from .terms import (
    Ann, App, Case, ClockAbs, ClockApp, Const, El, Forall, ForallCode, Fst,
    Id, IdCode, Incl, Inl, Inr, Lam, Later, LaterCode, PAnd, PEq, PExists,
    PForall, PForallClk, PLater, POr, Pair, Pi, PiCode, Prf, PropU, Sigma,
    SigmaCode, Snd, Sum, SumCode, Term, TickAbs, TickApp, Univ, Var,
    alpha_eq, clock_subst, free_names, fresh, rename, subst, tick_subst,
)
from .terms import _PLANS, _rebuild, BIND_CLOCK, BIND_TICK, NAME_CLOCK, TERM


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


class Context:
    """Its innermost local entry and the context outside it (none at the
    root), over a table from each declared name to its latest type."""
    __slots__ = ("decls", "entry", "outer")

    def __init__(self, decls: dict[str, Term] | None = None,
                 entry: Entry | None = None, outer: Context | None = None):
        self.decls = {} if decls is None else decls
        self.entry, self.outer = entry, outer

    @property
    def entries(self) -> tuple[Entry, ...]:
        local, c = [], self
        while (e := c.entry) is not None:
            local.append(e)
            c = c.outer
        return (*(VarEntry(n, ty) for n, ty in self.decls.items()),
                *reversed(local))

    def __repr__(self) -> str:
        return f"Context(entries={self.entries!r})"

    def _find(self, name: str, kind: type | None = None,
              outermost: bool = False) -> Context | None:
        """The context whose entry is the innermost (or the outermost)
        local entry named name, of class kind if given."""
        found, c = None, self
        while (e := c.entry) is not None:
            if e.name == name and (kind is None or type(e) is kind):
                if not outermost:
                    return c
                found = c
            c = c.outer
        return found

    def __contains__(self, name: str) -> bool:
        return name in self.decls or self._find(name) is not None

    def names(self) -> frozenset[str]:
        return frozenset([e.name for e in self.entries])

    def bind_var(self, name: str, type_: Term | None) -> Context:
        return Context(self.decls, VarEntry(name, type_), self)

    def bind_clock(self, name: str) -> Context:
        return Context(self.decls, ClockEntry(name), self)

    def bind_tick(self, name: str, clock: str) -> Context:
        return Context(self.decls, TickEntry(name, clock), self)

    def lookup_var(self, name: str) -> Term | None:
        c = self._find(name, VarEntry)
        return self.decls.get(name) if c is None else c.entry.type_

    def has_var(self, name: str) -> bool:
        return name in self.decls or self._find(name, VarEntry) is not None

    def has_clock(self, name: str) -> bool:
        return self._find(name, ClockEntry) is not None

    def lookup_tick(self, name: str) -> str | None:
        c = self._find(name, TickEntry, outermost=True)
        return None if c is None else c.entry.clock

    def split_at_tick(self, name: str) -> Context:
        """Prefix of the context strictly before the tick entry."""
        c = self._find(name, TickEntry, outermost=True)
        if c is None:
            raise TypeCheckError("tick-app", f"tick {name!r} not in context")
        return c.outer


# ---------------------------------------------------------------------------
# Weak-head normalisation
# ---------------------------------------------------------------------------

# the field of each eliminator that whnf reduces first: its head
_HEADS = {App: "fn", Fst: "arg", Snd: "arg", Case: "scrut", TickApp: "fn",
          ClockApp: "fn", El: "code", Prf: "prop"}

# (eliminator class, head class) -> contraction of the eliminator t whose
# head reduced to h, or None when it is stuck: the beta rules, then the
# decodings of type codes and of propositions
_REDEX = {
    (App, Lam): lambda t, h: _instantiate(h.body, h.name, t.arg),
    (Fst, Pair): lambda t, h: h.fst,
    (Snd, Pair): lambda t, h: h.snd,
    (Case, Inl): lambda t, h: _instantiate(t.left, t.lname, h.arg),
    (Case, Inr): lambda t, h: _instantiate(t.right, t.rname, h.arg),
    (TickApp, TickAbs): lambda t, h: tick_subst(h.body, h.tick, t.tick),
    (ClockApp, ClockAbs): lambda t, h: clock_subst(h.body, h.clock, t.clock),
    (El, SumCode): lambda t, c: Sum(El(c.left), El(c.right)),
    (El, PiCode): lambda t, c: Pi(c.name, El(c.dom), El(c.cod)),
    (El, SigmaCode): lambda t, c: Sigma(c.name, El(c.dom), El(c.cod)),
    (El, IdCode): lambda t, c: Id(El(c.code), c.lhs, c.rhs),
    (El, LaterCode): lambda t, c: Later(c.tick, c.clock, El(c.body)),
    (El, ForallCode): lambda t, c: Forall(c.clock, El(c.body)),
    (Prf, Const): lambda t, p: _PROP_CONSTS.get(p.name),
    # a non-dependent pair; `_` may be a variable of q (`fun _ -> ...`
    # binds it), and then the binder must not capture it
    (Prf, PAnd): lambda t, p: Sigma(fresh("_", free_names(p.right).vars),
                                    Prf(p.left), Prf(p.right)),
    (Prf, POr): lambda t, p: Sum(Prf(p.left), Prf(p.right)),
    (Prf, PExists): lambda t, p: Sigma(p.name, El(p.dom), Prf(p.body)),
    (Prf, PForall): lambda t, p: Pi(p.name, El(p.dom), Prf(p.body)),
    (Prf, PEq): lambda t, p: Id(El(p.code), p.lhs, p.rhs),
    (Prf, PLater): lambda t, p: Later(p.tick, p.clock, Prf(p.body)),
    (Prf, PForallClk): lambda t, p: Forall(p.clock, Prf(p.body)),
}
_PROP_CONSTS = {"ptop": Const("unit"), "pbot": Const("empty")}


def whnf(ctx: Context, t: Term, fuel: Fuel) -> tuple[Term, bool]:
    """Reduce to weak-head normal form.  Returns (term, complete); complete
    is False when a fix-unfolding was blocked by exhausted fuel."""
    complete = True
    while True:
        cls = type(t)
        if cls is Ann or cls is Incl:
            t = t.term if cls is Ann else t.code
            continue
        field = _HEADS.get(cls)
        if field is None:
            return t, complete
        head, c = whnf(ctx, getattr(t, field), fuel)
        complete = complete and c
        rule = _REDEX.get((cls, type(head)))
        if rule is not None:
            reduct = rule(t, head)
        elif cls is App and type(head) is Const and head.name == "fix":
            reduct = _unfold_fix(ctx, t.arg, fuel)
            if reduct is False:
                complete, reduct = False, None
        else:
            reduct = None
        if reduct is None:
            return (t if head is getattr(t, field) else
                    _rebuild(t, _PLANS[cls], {field: head})), complete
        t = reduct


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
    if x1 == x2 and x1 not in ctx:
        return x1, b1, b2
    fv1, fv2 = free_names(b1).all(), free_names(b2).all()
    if x1 not in ctx and x1 not in fv2:
        z = x1
    elif x2 not in ctx and x2 not in fv1:
        z = x2
    else:
        z = fresh(x1, fv1 | fv2, ctx)
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
    if (tw is not t or uw is not u) and alpha_eq(tw, uw):
        return Verdict.EQUAL

    # eta for functions and pairs
    if isinstance(tw, Lam) and not isinstance(uw, Lam):
        z = fresh(tw.name, free_names(tw).all() | free_names(uw).all(), ctx)
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

    # congruence: names, atoms and clock sets agree before fuel is spent
    cls = type(tw)
    if cls is not type(uw):
        return Verdict.APART if complete else Verdict.UNKNOWN
    plan = _PLANS[cls]
    for field, role, _ in plan.entries:
        if role != TERM and getattr(tw, field) != getattr(uw, field):
            return Verdict.APART if complete else Verdict.UNKNOWN
    verdicts: list[Verdict] = []
    for field, binder in plan.terms:
        a, b = getattr(tw, field), getattr(uw, field)
        inner = ctx
        if binder is not None:
            z, a, b = _open2(ctx, getattr(tw, binder), a,
                             getattr(uw, binder), b)
            inner = _bind(ctx, tw, binder, z)
        verdicts.append(_conv(inner, a, b, fuel))
    return _soften(_combine(verdicts), complete)


def _bind(ctx: Context, node: Term, binder: str, z: str) -> Context:
    """ctx extended by node's binder field `binder`, opened as z: a tick on
    the node's clock, a clock, or a variable.  Pi and Sigma type the
    variable by their domain, codes and quantifiers by its decoding, and
    Lam and Case give it no type."""
    kind = _PLANS[type(node)].roles[binder]
    if kind == BIND_TICK:
        return ctx.bind_tick(z, node.clock)
    if kind == BIND_CLOCK:
        return ctx.bind_clock(z)
    dom = getattr(node, "dom", None)
    if dom is not None and type(node) not in (Pi, Sigma):
        dom = El(dom)
    return ctx.bind_var(z, dom)


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
    if name in ctx:
        z = fresh(name, ctx, free_names(body).all())
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


@cache
def _axiom_types() -> dict[str, Term]:
    return {name: parser.parse_term(src)
            for name, src in _AXIOM_SOURCES.items()}


def axioms() -> list[tuple[str, Term]]:
    """The axiom constants available in every context, with their types."""
    return list(_axiom_types().items())


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
            return _axiom_types()[t.name]
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
    if type(t) in _INFERRED_FORMERS:
        # the first part's universe is the former's, for the other parts
        first = _PLANS[type(t)].terms[0][0]
        u = _FORMERS[type(t)](_infer_universe(ctx, getattr(t, first), fuel))
        _check_former(ctx, t, u, fuel, 1)
        return u
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
    if _FORMERS.get(type(t)) is type(aw):
        _check_former(ctx, t, aw, fuel)
        return
    inferred = infer(ctx, t, fuel)
    _require_equal(ctx, inferred, aw, fuel, "conv")


def _check_fix_constant(ctx: Context, aw: Term, fuel: Fuel) -> None:
    inner = whnf(ctx, aw.dom, fuel)[0] if isinstance(aw, Pi) else None
    lat = whnf(ctx, inner.dom, fuel)[0] if isinstance(inner, Pi) else None
    if not isinstance(lat, Later):
        raise TypeCheckError("fix", f"fix cannot have type {show_term(aw)}; "
                             "expected ((later k A) -> A) -> A")
    if not ctx.has_clock(lat.clock):
        raise TypeCheckError("fix", f"clock {lat.clock!r} not in context")
    if lat.tick in free_names(lat.body).ticks:
        raise TypeCheckError("fix", "fix requires a non-dependent delay")
    _require_equal(ctx, lat.body, inner.cod, fuel, "fix")
    _require_equal(ctx, inner.cod, aw.cod, fuel, "fix")


# the universe each code and proposition former lives in, the formers
# whose type `infer` reads off their first part, and the rules naming the
# side conditions: a delay's clock, and the domain of a quantifier or an
# equation proposition
_FORMERS = {**dict.fromkeys((SumCode, PiCode, SigmaCode, IdCode, LaterCode,
                             ForallCode), Univ),
            **dict.fromkeys((PAnd, POr, PExists, PForall, PEq, PLater,
                             PForallClk), PropU)}
_INFERRED_FORMERS = frozenset((SumCode, PiCode, SigmaCode, IdCode, PExists,
                               PForall, PEq))
_DELAY_RULES = {LaterCode: "later-code", PLater: "plater"}
_DOMAIN_RULES = {PExists: ("pquant", "quantification"),
                 PForall: ("pquant", "quantification"),
                 PEq: ("peq", "equality")}


def _check_former(ctx: Context, t: Term, u: Term, fuel: Fuel,
                  start: int = 0) -> None:
    """Check the parts of the former t, from its start-th on in spec order,
    for t to lie in the universe u.  The sides of an equation have the
    decoding of its code as type; the domain of a proposition is a code of
    a universe within u; a delay's clock lies in u; a clock binder widens
    u by the clock for its body; every other part lies in u, under the
    binder scoping over it."""
    cls, plan = type(t), _PLANS[type(t)]
    for field, role, binder in plan.entries[start:]:
        part = getattr(t, field)
        if role == NAME_CLOCK:
            if part not in u.clocks:
                where = show_term(u) if type(u) is PropU else \
                    f"universe {show_term(u)}"
                raise TypeCheckError(_DELAY_RULES[cls], f"{where} is not "
                                     f"closed under delay on clock {part!r}")
        elif field in ("lhs", "rhs"):
            check(ctx, part, El(t.code), fuel)
        elif binder is None and cls in _DOMAIN_RULES:
            d = _infer_universe(ctx, part, fuel)
            if not set(d) <= set(u.clocks):
                rule, noun = _DOMAIN_RULES[cls]
                raise TypeCheckError(rule, f"the {noun} domain lives in "
                                     f"{show_term(Univ(d))}, outside "
                                     f"{show_term(u)}")
        else:
            inner, target = ctx, u
            if binder is not None:
                z, part = _fresh_binder(ctx, getattr(t, binder), part)
                inner = _bind(ctx, t, binder, z)
                if plan.roles[binder] == BIND_CLOCK:
                    target = type(u)(u.clocks + (z,))
            check(inner, part, target, fuel)


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
        ctx.decls[d.name] = d.type_
