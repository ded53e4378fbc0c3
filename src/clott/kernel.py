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

Typing has one rule per judgement form.  The former rule, `_check_former`,
walks a former's parts in spec order, each a type or in a universe: for
`is_type`, for `check` at the former's universe, and for `infer` once the
first part, under its binder, gave the universe.  `_bind` types a binder
alike there and in conversion.  Introductions are checked against the
parts of their type's former (`_INTROS`), eliminations read their type
off their head's (`_ELIMS`), and both forms of `fix` share `_fix_rule`.

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
from .terms import (_PLANS, _rebuild, BIND_CLOCK, BIND_TICK, BIND_VAR,
                    NAME_CLOCK, TERM)


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


def _require_clock(ctx: Context, k: str, rule: str) -> None:
    if not ctx.has_clock(k):
        raise TypeCheckError(rule, f"clock {k!r} not in context")


# ---------------------------------------------------------------------------
# Type validity
# ---------------------------------------------------------------------------

def is_type(ctx: Context, a: Term, fuel: Fuel) -> None:
    """A universe over clocks in context, unit or empty, a type former by
    the former rule, or the decoding of a code or of a proposition."""
    aw, _ = whnf(ctx, a, fuel)
    cls = type(aw)
    if cls is Univ or cls is PropU:
        for k in aw.clocks:
            _require_clock(ctx, k, "univ-form")
    elif cls in _TYPE_FORMERS:
        _check_former(ctx, aw, None, fuel)
    elif cls in _DECODINGS:
        universe, rule, what = _DECODINGS[cls]
        uw, _ = whnf(ctx, infer(ctx, getattr(aw, _HEADS[cls]), fuel), fuel)
        if type(uw) is not universe:
            raise TypeCheckError(rule, f"{what}, got one of type "
                                 f"{show_term(uw)}")
    elif not (cls is Const and aw.name in ("unit", "empty")):
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
    cls = type(t)
    if cls is Var:
        ty = ctx.lookup_var(t.name)
        if ty is None:
            raise TypeCheckError("var", f"variable {t.name!r} not in context"
                                 if not ctx.has_var(t.name)
                                 else f"variable {t.name!r} is opaque here")
        return ty
    if cls is Const:
        if t.name == "tt":
            return Const("unit")
        if t.name in ("tirr", "cirr", "force"):
            return _axiom_types()[t.name]
        raise TypeCheckError("infer", f"constant {t.name!r} cannot be "
                             "inferred; annotate or use check mode")
    if cls is Ann:
        is_type(ctx, t.type_, fuel)
        check(ctx, t.term, t.type_, fuel)
        return t.type_
    if cls is App and type(t.fn) is Const and t.fn.name == "fix":
        gw, _ = whnf(ctx, infer(ctx, t.arg, fuel), fuel)
        if not (type(gw) is Pi and type(gw.dom) is Later):
            raise TypeCheckError("fix", "fix expects an argument of type "
                                 "(later k A) -> A, got " + show_term(gw))
        _fix_rule(ctx, gw.dom, [gw], fuel)
        return gw.cod
    if cls in _ELIMS:
        # the head's type reduces to the former, and the type is read off it
        former, rule, what, result = _ELIMS[cls]
        if cls is ClockApp:
            _require_clock(ctx, t.clock, rule)
        w, _ = whnf(ctx, infer(ctx, getattr(t, _HEADS[cls]), fuel), fuel)
        if type(w) is not former:
            raise TypeCheckError(rule, f"{what} {show_term(w)}")
        if cls is App:
            check(ctx, t.arg, w.dom, fuel)
        return result(t, w)
    if cls is TickAbs:
        _require_clock(ctx, t.clock, "tick-abs")
        inner, z, body = _open(ctx, t, "tick", t.body)
        return Later(z, t.clock, infer(inner, body, fuel))
    if cls is TickApp:
        # the prefix before the tick, or the error that the tick is unbound
        prefix, kappa = ctx.split_at_tick(t.tick), ctx.lookup_tick(t.tick)
        fty = infer(prefix, t.fn, fuel)
        fw, _ = whnf(prefix, fty, fuel)
        if not (isinstance(fw, Later) and fw.clock == kappa):
            raise TypeCheckError(
                "tick-app", f"tick application needs a delayed value on "
                f"clock {kappa!r}, got type {show_term(fw)}")
        return tick_subst(fw.body, fw.tick, t.tick)
    if cls is ClockAbs:
        inner, z, body = _open(ctx, t, "clock", t.body)
        return Forall(z, infer(inner, body, fuel))
    if cls is Incl:
        if not set(t.small) <= set(t.big):
            raise TypeCheckError("incl", "inclusion requires the small clock "
                                 "set to be contained in the big one")
        for k in t.big:
            _require_clock(ctx, k, "incl")
        cty = infer(ctx, t.code, fuel)
        cw, _ = whnf(ctx, cty, fuel)
        if isinstance(cw, Univ) and set(cw.clocks) <= set(t.small):
            return Univ(t.big)
        if isinstance(cw, PropU) and set(cw.clocks) <= set(t.small):
            return PropU(t.big)
        raise TypeCheckError("incl", f"cannot include a code of type "
                             f"{show_term(cw)} into U{{{', '.join(t.big)}}}")
    if cls in _FORMERS:
        # the universe of the first part, under its binder and less a clock
        # that binder binds, is the former's, for the other parts
        plan = _PLANS[cls]
        first, binder = plan.terms[0]
        inner, part = ctx, getattr(t, first)
        if binder is not None:
            if cls in _DELAY_RULES:
                _require_clock(ctx, t.clock, _DELAY_RULES[cls])
            inner, z, part = _open(ctx, t, binder, part)
        clocks = _infer_universe(inner, part, fuel,
                                 _FIRST_PARTS.get(cls, "code"))
        if binder is not None and plan.roles[binder] == BIND_CLOCK:
            clocks = tuple(k for k in clocks if k != z)
        u = _FORMERS[cls](clocks)
        _check_former(ctx, t, u, fuel, first)
        return u
    raise TypeCheckError("infer", f"cannot infer a type for "
                         f"{show_term(t)}; use an annotation")


def _infer_universe(ctx: Context, part: Term, fuel: Fuel,
                    rule: str = "code") -> tuple[str, ...]:
    """The clocks of the universe that part lies in: one of codes under
    the rule `code`, one of propositions under the others."""
    uw, _ = whnf(ctx, infer(ctx, part, fuel), fuel)
    if type(uw) is not (Univ if rule == "code" else PropU):
        raise TypeCheckError(rule, "expected a proposition" if rule != "code"
                             else "expected a universe code, got a term of "
                             f"type {show_term(uw)}")
    return uw.clocks


def _fix_rule(ctx: Context, lat: Later, fns: list[Pi], fuel: Fuel) -> None:
    """The side conditions of `fix` at the delay lat and the functions fns,
    innermost first: lat's clock is in the context, none of them depends
    on its binder, and lat's type and fns' codomains convert in turn."""
    _require_clock(ctx, lat.clock, "fix")
    if lat.tick in free_names(lat.body).ticks:
        raise TypeCheckError("fix", "fix requires a non-dependent delay")
    if any(f.name in free_names(f.cod).vars for f in fns):
        raise TypeCheckError("fix", "fix requires a non-dependent function")
    cods = [f.cod for f in fns]
    for a, b in zip([lat.body, *cods], cods):
        _require_equal(ctx, a, b, fuel, "fix")


def check(ctx: Context, t: Term, a: Term, fuel: Fuel) -> None:
    aw, _ = whnf(ctx, a, fuel)
    cls = type(t)
    if cls in _INTROS:
        former, rule, noun, typed_by = _INTROS[cls]
        if type(aw) is not former:
            raise TypeCheckError(rule, f"{noun} cannot have type "
                                 f"{show_term(aw)}")
        # each entry against the former's part that types it: a clock agrees
        # and is in the context, an abstraction's body is opened under its
        # type's binder, and a pair's second component is typed at the first
        last = None
        for field, role, binder, ffield, fbinder in typed_by:
            part, target, inner = getattr(t, field), getattr(aw, ffield), ctx
            if role == NAME_CLOCK:
                if part != target:
                    raise TypeCheckError(rule, f"clock mismatch: abstraction "
                                         f"on {part!r}, type on {target!r}")
                _require_clock(ctx, part, rule)
                continue
            if binder is not None:
                z, part = _fresh_binder(ctx, getattr(t, binder), part)
                inner, x = _bind(ctx, aw, fbinder, z), getattr(aw, fbinder)
                target = _instantiate(target, x, Var(z)) if cls is Lam else \
                    rename(target, {x: z})
            elif fbinder is not None:
                target = _instantiate(target, getattr(aw, fbinder), last)
            check(inner, part, target, fuel)
            last = part
        return
    if cls is Case:
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
    if cls is Const:
        if t.name == "refl":
            if not isinstance(aw, Id):
                raise TypeCheckError("refl", f"refl cannot have type "
                                     f"{show_term(aw)}")
            _require_equal(ctx, aw.lhs, aw.rhs, fuel, "refl")
            return
        if t.name == "fix":
            inner = whnf(ctx, aw.dom, fuel)[0] if type(aw) is Pi else None
            lat = whnf(ctx, inner.dom, fuel)[0] if type(inner) is Pi else None
            if type(lat) is not Later:
                raise TypeCheckError("fix", f"fix cannot have type "
                                     f"{show_term(aw)}; expected "
                                     "((later k A) -> A) -> A")
            _fix_rule(ctx, lat, [inner, aw], fuel)
            return
        if t.name in ("ptop", "pbot"):
            if not isinstance(aw, PropU):
                raise TypeCheckError("pconst", f"{t.name} is a proposition, "
                                     f"not a {show_term(aw)}")
            return
    if _FORMERS.get(cls) is type(aw):
        _check_former(ctx, t, aw, fuel)
        return
    inferred = infer(ctx, t, fuel)
    _require_equal(ctx, inferred, aw, fuel, "conv")


# the universe each code and proposition former lives in, and the type
# formers; the rules naming the side conditions: a delay's clock, the
# domain of a quantifier or an equation proposition, a first part that
# must be a proposition, and the universe of El's code or Prf's proposition
_FORMERS = {**dict.fromkeys((SumCode, PiCode, SigmaCode, IdCode, LaterCode,
                             ForallCode), Univ),
            **dict.fromkeys((PAnd, POr, PExists, PForall, PEq, PLater,
                             PForallClk), PropU)}
_TYPE_FORMERS = frozenset((Pi, Sigma, Sum, Id, Later, Forall))
_DELAY_RULES = {Later: "later-form", LaterCode: "later-code", PLater: "plater"}
_DOMAIN_RULES = {PExists: ("pquant", "quantification"),
                 PForall: ("pquant", "quantification"),
                 PEq: ("peq", "equality")}
_FIRST_PARTS = {PLater: "plater", PForallClk: "pforall-clk", PAnd: "pconn",
                POr: "pconn"}
_DECODINGS = {El: (Univ, "el-form", "El expects a universe code"),
              Prf: (PropU, "prf-form", "Prf expects a proposition")}
# introduction -> (its type's former, rule, noun, and per entry of the
# introduction its field, role and binder, the former's field that types
# it, and the binder over that field)
_INTROS = {cls: (former, rule, noun, tuple(
               (*entry, f, dict(_PLANS[former].terms).get(f))
               for entry, f in zip(_PLANS[cls].entries, fields)))
           for cls, (former, rule, noun, fields) in {
               Lam: (Pi, "lam", "a function", ("cod",)),
               Pair: (Sigma, "pair", "a pair", ("dom", "cod")),
               Inl: (Sum, "inl", "an injection", ("left",)),
               Inr: (Sum, "inr", "an injection", ("right",)),
               TickAbs: (Later, "tick-abs", "a tick abstraction",
                         ("clock", "body")),
               ClockAbs: (Forall, "clock-abs", "a clock abstraction",
                          ("body",))}.items()}
# eliminator -> (the former its head's type reduces to, rule, message, its
# type given the eliminator t and the head's reduced type w)
_ELIMS = {
    App: (Pi, "app", "applying a non-function of type",
          lambda t, w: _instantiate(w.cod, w.name, t.arg)),
    Fst: (Sigma, "fst", "projection from non-pair type", lambda t, w: w.dom),
    Snd: (Sigma, "snd", "projection from non-pair type",
          lambda t, w: _instantiate(w.cod, w.name, Fst(t.arg))),
    ClockApp: (Forall, "clock-app", "clock application to a value of type",
               lambda t, w: clock_subst(w.body, w.clock, t.clock)),
}


def _check_former(ctx: Context, t: Term, u: Term | None, fuel: Fuel,
                  done: str | None = None) -> None:
    """Check the parts of the former t but `done`, in spec order, for t to
    be a type if u is None and to lie in the universe u otherwise.  A
    delay's clock is in the context, or in u; an equation's sides have its
    type, or its code's decoding, as type; a proposition's domain is a code
    of a universe within u; any other part is a type, or lies in u (widened
    by a clock binder over it), under the binder scoping over it."""
    cls, plan = type(t), _PLANS[type(t)]
    for field, role, binder in plan.entries:
        if field == done:
            continue
        part = getattr(t, field)
        if role == NAME_CLOCK:
            if u is None:
                _require_clock(ctx, part, _DELAY_RULES[cls])
            elif part not in u.clocks:
                where = show_term(u) if type(u) is PropU else \
                    f"universe {show_term(u)}"
                raise TypeCheckError(_DELAY_RULES[cls], f"{where} is not "
                                     f"closed under delay on clock {part!r}")
        elif field in ("lhs", "rhs"):
            check(ctx, part, t.type_ if u is None else El(t.code), fuel)
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
                inner, z, part = _open(ctx, t, binder, part)
                if u is not None and plan.roles[binder] == BIND_CLOCK:
                    target = type(u)(u.clocks + (z,))
            if u is None:
                is_type(inner, part, fuel)
            else:
                check(inner, part, target, fuel)


def _open(ctx: Context, t: Term, binder: str,
          part: Term) -> tuple[Context, str, Term]:
    """ctx extended by the binder field `binder` of the former t, the name
    it binds there, and part under it.  A variable binder `_` binds
    nothing the parts mention, so it is bound again as it is."""
    z = getattr(t, binder)
    if z != "_" or _PLANS[type(t)].roles[binder] != BIND_VAR:
        z, part = _fresh_binder(ctx, z, part)
    return _bind(ctx, t, binder, z), z, part


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
