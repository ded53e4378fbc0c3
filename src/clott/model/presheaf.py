"""Finite presheaves over the truncated time category.

Covariant presheaves carry explicit fibers and an action for every
morphism of the enumerated category.  The delay modality and clock
quantification are computed as honest chain limits (families compatible
along the stage-lowering morphisms); at finite truncation these limits
collapse to the top-stage fiber, which is exactly the truncation artifact
the force checker reports.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

from ..theories import Budget, BudgetExceeded, csorted
from .timecat import (ElObj, FinCategory, TimeMor, TimeObj, _id_sigma,
                      _time_of, enumerate_category, mor_key, obj_key,
                      pool_names, slice_category)


class FreshClockExhausted(Exception):
    pass


@dataclass
class Model:
    """Shared context: the enumerated time category and its slice by Clk."""
    pool: int = 2
    bound: int = 4
    budget: Budget = field(default_factory=Budget)

    def __post_init__(self):
        self.names = pool_names(self.pool)
        self.time = enumerate_category(self.pool, self.bound)
        self.slice = slice_category(self.time)
        # full subcategories of objects that keep a clock name in reserve;
        # clock quantification produces presheaves over these
        self.time_inner = _full_subcat(
            self.time, lambda o: len(o.names) < self.pool)
        self.slice_inner = _full_subcat(
            self.slice, lambda o: len(o.time.names) < self.pool)

    def fresh_clock(self, e: TimeObj) -> str:
        for n in self.names:
            if n not in e.names:
                return n
        raise FreshClockExhausted(
            f"object already uses the full pool {self.names}")

    def cat(self, kind: str) -> FinCategory:
        return self.time if kind == "time" else self.slice

    @cached_property
    def fresh_tops(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Ids in the slice of each inner object and morphism with the
        deterministic fresh clock added at the top stage N−1 and marked;
        the slice's stage shift gives the lower stages."""
        top = self.bound - 1
        obj_id, mor_id = self.slice.obj_id, self.slice.mor_id
        fresh = {o: self.fresh_clock(o) for o in self.time_inner.objects}

        def marked(o: TimeObj) -> ElObj:
            return ElObj(o.add_clock(fresh[o], top), fresh[o])
        objs = tuple(obj_id[marked(o)] for o in self.time_inner.objects)
        mors = tuple(
            mor_id[TimeMor(marked(m.src), marked(m.dst), tuple(sorted(
                m.sigma + ((fresh[m.src], fresh[m.dst]),))))]
            for m in self.time_inner.morphisms)
        return objs, mors


def _full_subcat(cat: FinCategory, keep) -> FinCategory:
    objs = tuple(o for o in cat.objects if keep(o))
    kept = set(objs)
    mors = tuple(m for m in cat.morphisms
                 if m.src in kept and m.dst in kept)
    return FinCategory(objs, mors, cat.kind)


def restrict_to(x: Psh, sub: FinCategory) -> Psh:
    """Restrict a presheaf to a full subcategory of its base."""
    return Psh(sub, {o: x.fib[o] for o in sub.objects},
               {m: x.act[m] for m in sub.morphisms})


def align(a: Psh, b: Psh) -> tuple[Psh, Psh]:
    """Put two presheaves over the same base by restricting the larger
    one to the smaller's (full sub)category."""
    if len(a.cat.objects) > len(b.cat.objects):
        return restrict_to(a, b.cat), b
    if len(b.cat.objects) > len(a.cat.objects):
        return a, restrict_to(b, a.cat)
    return a, b


@dataclass
class Psh:
    """Fibers and action; the action dicts are read-only (may be shared)."""
    cat: FinCategory
    fib: dict      # obj -> tuple of elements, canonical order
    act: dict      # TimeMor -> dict element -> element


def const_psh(cat: FinCategory, elems) -> Psh:
    elems = tuple(csorted(elems))
    ident = {x: x for x in elems}
    return Psh(cat, {o: elems for o in cat.objects},
               dict.fromkeys(cat.morphisms, ident))


def clk_psh(cat: FinCategory) -> Psh:
    """The presheaf of clocks in scope — the canonical non-example for
    invariance under clock introduction."""
    assert cat.kind == "time"
    return Psh(cat, {o: o.names for o in cat.objects},
               {m: {a: m.apply(a) for a in m.src.names}
                for m in cat.morphisms})


def product(a: Psh, b: Psh) -> Psh:
    a, b = align(a, b)
    fib = {o: tuple(("pair", x, y) for x in a.fib[o] for y in b.fib[o])
           for o in a.cat.objects}
    act = {m: {("pair", x, y): ("pair", a.act[m][x], b.act[m][y])
               for x in a.fib[m.src] for y in b.fib[m.src]}
           for m in a.cat.morphisms}
    return Psh(a.cat, fib, act)


def coproduct(a: Psh, b: Psh) -> Psh:
    a, b = align(a, b)
    fib = {o: tuple(itertools.chain((("inl", x) for x in a.fib[o]),
                                    (("inr", y) for y in b.fib[o])))
           for o in a.cat.objects}
    act = {}
    for m in a.cat.morphisms:
        d = {("inl", x): ("inl", a.act[m][x]) for x in a.fib[m.src]}
        d.update({("inr", y): ("inr", b.act[m][y]) for y in b.fib[m.src]})
        act[m] = d
    return Psh(a.cat, fib, act)


# ---------------------------------------------------------------------------
# Exponentials
# ---------------------------------------------------------------------------

def arrow(a: Psh, b: Psh, budget: Budget | None = None) -> Psh:
    """The exponential B^A: fiber at c is the set of natural families
    φ_f : A(d) → B(d) indexed by morphisms f : c → d.  Elements encode φ
    positionally over the canonically sorted list of morphisms out of c."""
    budget = budget or Budget()
    a, b = align(a, b)
    cat = a.cat
    a_act = [a.act[m] for m in cat.morphisms]
    b_act = [b.act[m] for m in cat.morphisms]
    fib = {c: tuple(_nats_at(i, a, b, a_act, b_act, budget))
           for i, c in enumerate(cat.objects)}
    succ, table, out, pos = cat.succ, cat.table, cat.out, cat.pos
    act = {}
    for j, m in enumerate(cat.morphisms):
        d = cat.dst_ids[j]
        # entry of f (out of dst m) in the image: the entry of f∘m in φ
        place = [0] * len(out[d])
        for f, fm in zip(succ[d], table[j]):
            place[pos[f]] = pos[fm]
        act[m] = {phi: ("nat", tuple([phi[1][p] for p in place]))
                  for phi in fib[m.src]}
    return Psh(cat, fib, act)


def _nats_at(c: int, a: Psh, b: Psh, a_act, b_act, budget: Budget):
    cat = a.cat
    succ, table, pos, dst = cat.succ, cat.table, cat.pos, cat.dst_ids
    mors = cat.out[c]
    dst_objs = [cat.objects[dst[f]] for f in mors]
    variables = [(i, x) for i, d in enumerate(dst_objs) for x in a.fib[d]]

    def propagate(assign, queue):
        # assign is closed under naturality except for the queued entries
        while queue:
            (i, x), y = queue.pop()
            f = mors[i]
            for g, gf in zip(succ[dst[f]], table[f]):
                j = pos[gf]
                x2, y2 = a_act[g][x], b_act[g][y]
                cur = assign.get((j, x2))
                if cur is None:
                    assign[(j, x2)] = y2
                    queue.append(((j, x2), y2))
                elif cur != y2:
                    return False
        return True

    results = []

    def search(assign):
        if len(results) > budget.max_elements:
            raise BudgetExceeded("exponential fiber exceeds budget")
        for v in variables:
            if v not in assign:
                i, x = v
                for y in b.fib[dst_objs[i]]:
                    trial = dict(assign)
                    trial[v] = y
                    if propagate(trial, [(v, y)]):
                        search(trial)
                return
        # encode positionally: per morphism f (sorted), the images of
        # A(dst f) in canonical fiber order
        results.append(("nat", tuple(
            tuple(assign[(i, x)] for x in a.fib[d])
            for i, d in enumerate(dst_objs))))

    search({})
    return csorted(set(results))


# ---------------------------------------------------------------------------
# Chain limits, delay, clock quantification
# ---------------------------------------------------------------------------

def _chain_limit(cat: FinCategory, fib: dict, act, chain) -> list:
    """Limit of a finite inverse chain o_0 ← o_1 ← … of slice objects, given
    by their ids in cat (one object at marked stages 0, 1, …), over the
    fibers fib and the action act(morphism id) -> dict: the families
    (x_0, x_1, …) compatible with the stage-lowering maps, in canonical
    order.  The top element determines the family; the empty chain has one
    empty family."""
    if not chain:
        return [()]
    downs = cat.stage_shift[1]
    steps = [act(downs[i]) for i in reversed(chain[1:])]
    families = []
    for x in fib[cat.objects[chain[-1]]]:
        family = [x]
        for step in steps:
            family.append(step[family[-1]])
        families.append(tuple(reversed(family)))
    return csorted(set(families))


def _families(x: Psh, chain) -> tuple:
    """The chain limit of x over chain, encoded ("tup", ((0,x_0), …))."""
    return tuple(("tup", tuple(enumerate(fam))) for fam in _chain_limit(
        x.cat, x.fib, lambda j: x.act[x.cat.morphisms[j]], chain))


def _stagewise(x: Psh, fams, stage_mors) -> dict:
    """Act on encoded families stage by stage along stage_mors (ids in
    x.cat, one per stage of the target)."""
    acts = [x.act[x.cat.morphisms[j]] for j in stage_mors]
    return {fam: ("tup", tuple((beta, act[e]) for (beta, e), act
                               in zip(fam[1], acts)))
            for fam in fams}


def later(model: Model, x: Psh) -> Psh:
    """▷X: the fiber at (E, θ, λ) is the limit of X over the stages below
    θ(λ); a singleton at stage 0."""
    assert x.cat.kind == "slice"
    cat = x.cat
    chains, _, shifted = cat.stage_shift
    fib = {o: _families(x, chains[i][:o.time.theta(o.clock)])
           for i, o in enumerate(cat.objects)}
    act = {m: _stagewise(x, fib[m.src],
                         shifted[j][:m.dst.time.theta(m.dst.clock)])
           for j, m in enumerate(cat.morphisms)}
    return Psh(cat, fib, act)


def forall_clk(model: Model, x: Psh) -> Psh:
    """∀κ.X: at (E, θ) the limit over all stages of X at a deterministic
    fresh clock.  The result lives over the inner subcategory of objects
    that keep a clock name in reserve; the argument must live over the
    full slice so that the fresh clock can be added everywhere."""
    assert x.cat.kind == "slice"
    if x.cat is not model.slice:
        raise FreshClockExhausted(
            "clock quantification needs a presheaf over the full slice "
            "(nested quantifiers exceed the clock pool)")
    cat = model.time_inner
    chains, _, shifted = x.cat.stage_shift
    top_objs, top_mors = model.fresh_tops
    fib = {o: _families(x, chains[top_objs[i]])
           for i, o in enumerate(cat.objects)}
    act = {m: _stagewise(x, fib[m.src], shifted[top_mors[j]])
           for j, m in enumerate(cat.morphisms)}
    return Psh(cat, fib, act)


def weaken(model: Model, x: Psh) -> Psh:
    """Reindex a presheaf on the time category along the projection from
    the slice (forget the marked clock)."""
    assert x.cat.kind == "time"
    cat = model.slice if x.cat is model.time else model.slice_inner
    fib = {o: x.fib[o.time] for o in cat.objects}
    act = {m: x.act[TimeMor(m.src.time, m.dst.time, m.sigma)]
           for m in cat.morphisms}
    return Psh(cat, fib, act)


# ---------------------------------------------------------------------------
# Structural checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckOutcome:
    ok: bool
    counterexample: object = None


def check_functoriality(x: Psh) -> CheckOutcome:
    """Whether x(id) = id and x(g∘f) = x(g)∘x(f); the counterexample is the
    first failure over the identities, then the pairs by f's and g's ids.

    The pairs with g a generator (`timecat._is_generator`) decide it.  A
    morphism σ : (E,θ) → (E',θ') is merges to one clock per fiber of σ at
    the fiber's least stage, a rename onto σ(E), decrements to θ', adds of
    E' ∖ σ(E) at the top stage and decrements to θ'; no object on the way
    has more clocks than E or E', so inner subcategories contain it, and
    in a slice each factor carries the marked clock.  By induction on h
    as a word in generators, x((g∘h)∘f) = x(g)∘x(h∘f) = x(g)∘x(h)∘x(f)
    = x(g∘h)∘x(f).  Only a failing generator pair starts the full scan."""
    cat = x.cat
    for o in cat.objects:
        ident = cat.identity(o)
        for e in x.fib[o]:
            if x.act[ident][e] != e:
                return CheckOutcome(False, ("identity", obj_key(o), e))
    if _generators_commute(x):
        return CheckOutcome(True)
    # the composable pairs (g, f) by f's id, then g's id
    acts = [x.act[m] for m in cat.morphisms]
    succ, table, dst = cat.succ, cat.table, cat.dst_ids
    for fi, f in enumerate(cat.morphisms):
        act_f, elems = acts[fi], x.fib[f.src]
        for gi, gfi in zip(succ[dst[fi]], table[fi]):
            act_g, act_gf = acts[gi], acts[gfi]
            for e in elems:
                if act_gf[e] != act_g[act_f[e]]:
                    return CheckOutcome(False, (
                        "composition", mor_key(f),
                        mor_key(cat.morphisms[gi]), e))
    return CheckOutcome(True)


def _generators_commute(x: Psh) -> bool:
    """Whether x(g∘f) = x(g)∘x(f) for every generator g, compared on the
    positions of images in their fibers (False if one lies outside)."""
    cat = x.cat
    where = [{e: i for i, e in enumerate(x.fib[o])} for o in cat.objects]
    try:
        acts = [list(map(where[d].__getitem__,
                         map(x.act[m].__getitem__, x.fib[m.src])))
                for m, d in zip(cat.morphisms, cat.dst_ids)]
    except KeyError:
        return False
    return all([acts[g][i] for i in act_f] == acts[gf]
               for act_f, d, row in zip(acts, cat.dst_ids, cat.gen_table)
               for g, gf in zip(cat.gens[d], row))


def clock_intros(model: Model, kind: str):
    """All clock-introduction morphisms ι : o → o+λ@α with λ fresh."""
    out = []
    for o in model.cat(kind).objects:
        t = _time_of(o)
        for lam in model.names:
            if lam in t.names:
                continue
            for alpha in range(model.bound):
                wide = t.add_clock(lam, alpha)
                out.append(TimeMor(o, wide if kind == "time" else
                                   ElObj(wide, o.clock), _id_sigma(t)))
    return out


def check_invariance(model: Model, x: Psh) -> CheckOutcome:
    """Def.-1 invariance: every clock-introduction map acts bijectively."""
    domain = set(x.cat.objects)
    for m in clock_intros(model, x.cat.kind):
        if m.src not in domain or m.dst not in domain:
            continue
        img = [x.act[m][e] for e in x.fib[m.src]]
        if len(set(img)) != len(x.fib[m.src]) or \
                set(img) != set(x.fib[m.dst]):
            return CheckOutcome(False, mor_key(m))
    return CheckOutcome(True)
