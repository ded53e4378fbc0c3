"""Abstract syntax with clock, tick and variable binders.

Three kinds of names live in terms: ordinary variables, clock names and
tick names.  Binders use locally-unique string names with on-demand
freshening; all traversals below are capture-avoiding.

`_SPEC` gives the role of every field of every node class (subterm, free
name, binder and the fields it scopes over, clock set, plain data).  At
import, a traversal plan per class is derived from it once: the binders
with their scopes, the subterms with the binder scoping over each, the
name fields and the constructor's field order.  `free_names`, `_subst`
and `alpha_eq` read the plans, so a node costs a dictionary lookup and
loops over short tuples.  Term nodes are slotted frozen dataclasses.

`_subst` is the one substitution: it replaces free variables by terms and
free names of any kind by names, at once.  `subst` (beta steps) and
`rename` (tick substitution t[b/a], clock substitution A[k'/k] and the
renaming of binders apart) are its instances.

`alpha_eq` numbers binders in one environment per side; while the binders
above agreed in name, both sides share one, and a subterm that is the
same object on both sides is equal without a walk.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Container


# ---------------------------------------------------------------------------
# Term nodes
# ---------------------------------------------------------------------------

class Term:
    """Base class of the term nodes."""
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Var(Term):
    name: str


@dataclass(frozen=True, slots=True)
class Const(Term):
    """Nullary constants: tt, refl, fix, unit, empty, ptop, pbot and the
    axiom constants tirr, cirr, force."""
    name: str


@dataclass(frozen=True, slots=True)
class Lam(Term):
    name: str
    body: Term


@dataclass(frozen=True, slots=True)
class App(Term):
    fn: Term
    arg: Term


@dataclass(frozen=True, slots=True)
class Ann(Term):
    """Type-annotated term (t : A); lets check-only terms appear in
    inference position."""
    term: Term
    type_: Term


@dataclass(frozen=True, slots=True)
class Pair(Term):
    fst: Term
    snd: Term


@dataclass(frozen=True, slots=True)
class Fst(Term):
    arg: Term


@dataclass(frozen=True, slots=True)
class Snd(Term):
    arg: Term


@dataclass(frozen=True, slots=True)
class Inl(Term):
    arg: Term


@dataclass(frozen=True, slots=True)
class Inr(Term):
    arg: Term


@dataclass(frozen=True, slots=True)
class Case(Term):
    scrut: Term
    lname: str
    left: Term
    rname: str
    right: Term


@dataclass(frozen=True, slots=True)
class Pi(Term):
    name: str
    dom: Term
    cod: Term


@dataclass(frozen=True, slots=True)
class Sigma(Term):
    name: str
    dom: Term
    cod: Term


@dataclass(frozen=True, slots=True)
class Sum(Term):
    left: Term
    right: Term


@dataclass(frozen=True, slots=True)
class Id(Term):
    type_: Term
    lhs: Term
    rhs: Term


@dataclass(frozen=True, slots=True)
class TickAbs(Term):
    tick: str
    clock: str
    body: Term


@dataclass(frozen=True, slots=True)
class TickApp(Term):
    fn: Term
    tick: str


@dataclass(frozen=True, slots=True)
class ClockAbs(Term):
    clock: str
    body: Term


@dataclass(frozen=True, slots=True)
class ClockApp(Term):
    fn: Term
    clock: str


@dataclass(frozen=True, slots=True)
class Later(Term):
    """Delay type, binding a tick on the given clock over the body."""
    tick: str
    clock: str
    body: Term


@dataclass(frozen=True, slots=True)
class Forall(Term):
    """Universal quantification over a clock."""
    clock: str
    body: Term


@dataclass(frozen=True, slots=True)
class Univ(Term):
    """Universe annotated with a finite set of clock names, kept sorted."""
    clocks: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "clocks", tuple(sorted(set(self.clocks))))


@dataclass(frozen=True, slots=True)
class PropU(Term):
    """Universe of propositions, annotated like Univ."""
    clocks: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "clocks", tuple(sorted(set(self.clocks))))


@dataclass(frozen=True, slots=True)
class El(Term):
    code: Term


@dataclass(frozen=True, slots=True)
class Prf(Term):
    """Decoding of a proposition code to a type."""
    prop: Term


@dataclass(frozen=True, slots=True)
class Incl(Term):
    """Universe inclusion from the small clock set into the big one."""
    small: tuple[str, ...]
    big: tuple[str, ...]
    code: Term

    def __post_init__(self):
        object.__setattr__(self, "small", tuple(sorted(set(self.small))))
        object.__setattr__(self, "big", tuple(sorted(set(self.big))))


@dataclass(frozen=True, slots=True)
class LaterCode(Term):
    tick: str
    clock: str
    body: Term


@dataclass(frozen=True, slots=True)
class ForallCode(Term):
    clock: str
    body: Term


@dataclass(frozen=True, slots=True)
class PiCode(Term):
    name: str
    dom: Term
    cod: Term


@dataclass(frozen=True, slots=True)
class SigmaCode(Term):
    name: str
    dom: Term
    cod: Term


@dataclass(frozen=True, slots=True)
class SumCode(Term):
    left: Term
    right: Term


@dataclass(frozen=True, slots=True)
class IdCode(Term):
    code: Term
    lhs: Term
    rhs: Term


@dataclass(frozen=True, slots=True)
class PAnd(Term):
    left: Term
    right: Term


@dataclass(frozen=True, slots=True)
class POr(Term):
    left: Term
    right: Term


@dataclass(frozen=True, slots=True)
class PExists(Term):
    """Existential proposition over the elements of a type code."""
    name: str
    dom: Term
    body: Term


@dataclass(frozen=True, slots=True)
class PForall(Term):
    name: str
    dom: Term
    body: Term


@dataclass(frozen=True, slots=True)
class PEq(Term):
    code: Term
    lhs: Term
    rhs: Term


@dataclass(frozen=True, slots=True)
class PLater(Term):
    tick: str
    clock: str
    body: Term


@dataclass(frozen=True, slots=True)
class PForallClk(Term):
    clock: str
    body: Term


CONSTANTS = frozenset(
    {"tt", "refl", "fix", "unit", "empty", "ptop", "pbot",
     "tirr", "cirr", "force"}
)


# ---------------------------------------------------------------------------
# Field roles, used by the generic traversals
# ---------------------------------------------------------------------------

TERM = "term"
NAME_VAR = "var"
NAME_CLOCK = "clock"
NAME_TICK = "tick"
NAMESET = "nameset"          # tuple of clock names (universe annotations)
ATOM = "atom"                # plain data, compared for equality, never renamed
BIND_VAR = "bind-var"
BIND_CLOCK = "bind-clock"
BIND_TICK = "bind-tick"

# cls -> list of (field, role, scope) where scope is the tuple of term
# fields the binder scopes over (empty for non-binders).
_SPEC: dict[type, list[tuple[str, str, tuple[str, ...]]]] = {
    Var: [("name", NAME_VAR, ())],
    Const: [("name", ATOM, ())],
    Lam: [("name", BIND_VAR, ("body",)), ("body", TERM, ())],
    App: [("fn", TERM, ()), ("arg", TERM, ())],
    Ann: [("term", TERM, ()), ("type_", TERM, ())],
    Pair: [("fst", TERM, ()), ("snd", TERM, ())],
    Fst: [("arg", TERM, ())],
    Snd: [("arg", TERM, ())],
    Inl: [("arg", TERM, ())],
    Inr: [("arg", TERM, ())],
    Case: [("scrut", TERM, ()),
           ("lname", BIND_VAR, ("left",)), ("left", TERM, ()),
           ("rname", BIND_VAR, ("right",)), ("right", TERM, ())],
    Pi: [("dom", TERM, ()), ("name", BIND_VAR, ("cod",)), ("cod", TERM, ())],
    Sigma: [("dom", TERM, ()), ("name", BIND_VAR, ("cod",)), ("cod", TERM, ())],
    Sum: [("left", TERM, ()), ("right", TERM, ())],
    Id: [("type_", TERM, ()), ("lhs", TERM, ()), ("rhs", TERM, ())],
    TickAbs: [("clock", NAME_CLOCK, ()),
              ("tick", BIND_TICK, ("body",)), ("body", TERM, ())],
    TickApp: [("fn", TERM, ()), ("tick", NAME_TICK, ())],
    ClockAbs: [("clock", BIND_CLOCK, ("body",)), ("body", TERM, ())],
    ClockApp: [("fn", TERM, ()), ("clock", NAME_CLOCK, ())],
    Later: [("clock", NAME_CLOCK, ()),
            ("tick", BIND_TICK, ("body",)), ("body", TERM, ())],
    Forall: [("clock", BIND_CLOCK, ("body",)), ("body", TERM, ())],
    Univ: [("clocks", NAMESET, ())],
    PropU: [("clocks", NAMESET, ())],
    El: [("code", TERM, ())],
    Prf: [("prop", TERM, ())],
    Incl: [("small", NAMESET, ()), ("big", NAMESET, ()), ("code", TERM, ())],
    LaterCode: [("clock", NAME_CLOCK, ()),
                ("tick", BIND_TICK, ("body",)), ("body", TERM, ())],
    ForallCode: [("clock", BIND_CLOCK, ("body",)), ("body", TERM, ())],
    PiCode: [("dom", TERM, ()), ("name", BIND_VAR, ("cod",)), ("cod", TERM, ())],
    SigmaCode: [("dom", TERM, ()), ("name", BIND_VAR, ("cod",)), ("cod", TERM, ())],
    SumCode: [("left", TERM, ()), ("right", TERM, ())],
    IdCode: [("code", TERM, ()), ("lhs", TERM, ()), ("rhs", TERM, ())],
    PAnd: [("left", TERM, ()), ("right", TERM, ())],
    POr: [("left", TERM, ()), ("right", TERM, ())],
    PExists: [("dom", TERM, ()), ("name", BIND_VAR, ("body",)), ("body", TERM, ())],
    PForall: [("dom", TERM, ()), ("name", BIND_VAR, ("body",)), ("body", TERM, ())],
    PEq: [("code", TERM, ()), ("lhs", TERM, ()), ("rhs", TERM, ())],
    PLater: [("clock", NAME_CLOCK, ()),
             ("tick", BIND_TICK, ("body",)), ("body", TERM, ())],
    PForallClk: [("clock", BIND_CLOCK, ("body",)), ("body", TERM, ())],
}

_BIND_ROLES = {BIND_VAR: NAME_VAR, BIND_CLOCK: NAME_CLOCK, BIND_TICK: NAME_TICK}
_NAME_ROLES = (NAME_VAR, NAME_CLOCK, NAME_TICK)


class _Plan:
    """The traversal plan of one term class, derived from its `_SPEC` entry.

    `binders` holds (binder field, scope) pairs; `terms` holds (term field,
    binder field scoping over it or None); `names` holds (name field,
    role); `entries` holds (field, role, binder field scoping over it or
    None) for every field but the binders, in `_SPEC` order; `roles` maps
    every field to its role; `fields` is the constructor's field order.
    """
    __slots__ = ("fields", "binders", "terms", "names", "namesets",
                 "entries", "roles")

    def __init__(self, cls: type, spec) -> None:
        binder_of = {sf: f for f, role, scope in spec if role in _BIND_ROLES
                     for sf in scope}
        self.fields = tuple(f.name for f in fields(cls))
        self.binders = tuple((f, scope) for f, role, scope in spec
                             if role in _BIND_ROLES)
        self.terms = tuple((f, binder_of.get(f)) for f, role, _ in spec
                           if role == TERM)
        self.names = tuple((f, role) for f, role, _ in spec
                           if role in _NAME_ROLES)
        self.namesets = tuple(f for f, role, _ in spec if role == NAMESET)
        self.entries = tuple((f, role, binder_of.get(f))
                             for f, role, _ in spec if role not in _BIND_ROLES)
        self.roles = {f: role for f, role, _ in spec}


_PLANS: dict[type, _Plan] = {cls: _Plan(cls, spec)
                             for cls, spec in _SPEC.items()}


def _rebuild(t: Term, plan: _Plan, updates: dict[str, object]) -> Term:
    return type(t)(*[updates[f] if f in updates else getattr(t, f)
                     for f in plan.fields])


def fresh(base: str, *avoid: Container[str]) -> str:
    """base, or else its stem numbered 1, 2, ...: the first name that no
    container in avoid holds."""
    stem, name, i = base.rstrip("0123456789") or base, base, 0
    while any(name in names for names in avoid):
        i += 1
        name = f"{stem}{i}"
    return name


# ---------------------------------------------------------------------------
# Free names
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class FreeNames:
    vars: frozenset[str]
    clocks: frozenset[str]
    ticks: frozenset[str]

    def all(self) -> frozenset[str]:
        return self.vars | self.clocks | self.ticks


def free_names(t: Term) -> FreeNames:
    vs: set[str] = set()
    cs: set[str] = set()
    ts: set[str] = set()
    sink = {NAME_VAR: vs, NAME_CLOCK: cs, NAME_TICK: ts}
    todo = [(t, frozenset())]
    while todo:
        t, bound = todo.pop()
        if type(t) is Var:
            if t.name not in bound:
                vs.add(t.name)
            continue
        plan = _PLANS[type(t)]
        for field, role in plan.names:
            val = getattr(t, field)
            if val not in bound:
                sink[role].add(val)
        for field in plan.namesets:
            cs.update(k for k in getattr(t, field) if k not in bound)
        for field, binder in plan.terms:
            if binder is None:
                todo.append((getattr(t, field), bound))
            else:
                todo.append((getattr(t, field), bound | {getattr(t, binder)}))
    return FreeNames(frozenset(vs), frozenset(cs), frozenset(ts))


# ---------------------------------------------------------------------------
# Renaming and substitution
# ---------------------------------------------------------------------------

def rename(t: Term, mapping: dict[str, str]) -> Term:
    """Capture-avoiding renaming of free names of any kind; clock
    substitution A[k'/k] and tick substitution t[b/a] are instances."""
    names = {k: v for k, v in mapping.items() if k != v}
    if not names:
        return t
    return _subst(t, {k: Var(v) for k, v in names.items()}, names, [])


def subst(t: Term, x: str, u: Term) -> Term:
    """Capture-avoiding substitution of the term u for the variable x."""
    return _subst(t, {x: u}, {}, [])


def _subst(t: Term, terms: dict[str, Term], names: dict[str, str],
           memo: list) -> Term:
    """t with each free variable x replaced by terms[x] and each free name
    n of another kind by names[n], simultaneously.

    At the first binder, memo takes the free names of each replacement and
    every string the entries hold; a binder whose string is not among them
    hides no entry and captures nothing, so the entries pass it as they are.
    """
    cls = type(t)
    if cls is Var:
        return terms.get(t.name, t)
    plan = _PLANS[cls]
    updates: dict[str, object] = {}
    if names:
        for field, _ in plan.names:
            val = getattr(t, field)
            if val in names:
                updates[field] = names[val]
        for field in plan.namesets:
            val = getattr(t, field)
            if not names.keys().isdisjoint(val):
                updates[field] = tuple(map(names.get, val, val))
    if not plan.binders:
        for field, _ in plan.terms:
            val = getattr(t, field)
            v = _subst(val, terms, names, memo)
            if v is not val:
                updates[field] = v
        return _rebuild(t, plan, updates) if updates else t
    if not memo:
        free = {k: free_names(u).all() for k, u in terms.items()}
        memo += free, set().union(terms, names, names.values(), *free.values())
    scopes = {}
    for field, scope in plan.binders:
        b = getattr(t, field)
        if b in memo[1]:
            scopes[field] = _apart(t, scope, b, terms, names, memo[0])
    for field, binder in plan.terms:
        val = v = getattr(t, field)
        if binder not in scopes:
            v = _subst(val, terms, names, memo)
        else:
            ts, ns, new = scopes[binder]
            if new is not None:
                updates[binder] = new
                v = rename(v, {getattr(t, binder): new})
            if ts or ns:
                v = _subst(v, ts, ns, memo)
        if v is not val:
            updates[field] = v
    return _rebuild(t, plan, updates) if updates else t


def _apart(t: Term, scope: tuple, b: str, terms: dict[str, Term],
           names: dict[str, str], free: dict[str, frozenset[str]]):
    """The entries that go under the binder b of t, and b's new name if one
    of them is free in its scope and mentions b, else None."""
    ts = {k: u for k, u in terms.items() if k != b}
    ns = {k: n for k, n in names.items() if k != b}
    if b not in set(ns.values()).union(*map(free.get, ts)):
        return ts, ns, None
    scope_free = [free_names(getattr(t, sf)) for sf in scope]
    in_scope = frozenset().union(*(f.all() for f in scope_free))
    ts = {k: u for k, u in ts.items() if any(k in f.vars for f in scope_free)}
    ns = {k: n for k, n in ns.items() if k in in_scope}
    mentioned = set(ns.values()).union(*map(free.get, ts))
    return ts, ns, fresh(b, in_scope, mentioned) if b in mentioned else None


# ---------------------------------------------------------------------------
# Alpha equivalence
# ---------------------------------------------------------------------------

def alpha_eq(t: Term, u: Term) -> bool:
    if t is u:
        return True
    env: dict[str, int] = {}
    return _alpha(t, u, env, env, [0])


def _nameset_key(e):
    # entries are bound-binder indices (int) or ("free", name)
    return (0, e, "") if isinstance(e, int) else (1, -1, e[1])


def _alpha(t: Term, u: Term, env1: dict[str, int], env2: dict[str, int],
           counter: list[int]) -> bool:
    if type(t) is not type(u):
        return False
    for field, role, binder in _PLANS[type(t)].entries:
        v1, v2 = getattr(t, field), getattr(u, field)
        if role == TERM:
            e1, e2 = env1, env2
            if binder is not None:
                b1, b2 = getattr(t, binder), getattr(u, binder)
                n = counter[0]
                counter[0] += 1
                e1 = {**env1, b1: n}
                e2 = e1 if env1 is env2 and b1 == b2 else {**env2, b2: n}
            if (v1 is not v2 or e1 is not e2) and \
                    not _alpha(v1, v2, e1, e2, counter):
                return False
        elif role == NAMESET:
            s1 = sorted((env1.get(k, ("free", k)) for k in v1),
                        key=_nameset_key)
            s2 = sorted((env2.get(k, ("free", k)) for k in v2),
                        key=_nameset_key)
            if s1 != s2:
                return False
        elif role == ATOM:
            if v1 != v2:
                return False
        elif env1.get(v1, ("free", v1)) != env2.get(v2, ("free", v2)):
            return False
    return True


# ---------------------------------------------------------------------------
# Algebraic-theory terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AVar:
    name: str


@dataclass(frozen=True)
class AOp:
    op: str
    args: tuple


AlgTerm = AVar | AOp


def alg_free_vars(t: AlgTerm) -> frozenset[str]:
    if isinstance(t, AVar):
        return frozenset({t.name})
    out: set[str] = set()
    for a in t.args:
        out |= alg_free_vars(a)
    return frozenset(out)
