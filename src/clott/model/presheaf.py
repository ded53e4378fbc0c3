"""Finite presheaves over the truncated time category.

A `Psh` holds its fibers as a tuple by object id and its action as a
tuple by morphism id (see the integer encoding in `timecat`); each action
is a dict element -> element, read-only and often shared between ids.
`Psh.fib` maps each object to its fiber, for readers at the boundary.
The delay modality and clock quantification are computed as honest chain
limits (families compatible along the stage-lowering morphisms); at
finite truncation these limits collapse to the top-stage fiber, which is
exactly the truncation artifact the force checker reports.

A `Model` refuses a category larger than its budget before enumerating
it (`timecat.check_size`).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

from ..theories import Budget, BudgetExceeded, csorted
from .timecat import (ElObj, FinCategory, TimeObj, _time_of, check_size,
                      enumerate_category, full_subcat, mor_key, obj_key,
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
        check_size(self.pool, self.bound, self.budget.max_elements)
        self.names = pool_names(self.pool)
        self.time = enumerate_category(self.pool, self.bound)
        self.slice = slice_category(self.time)
        # full subcategories of objects that keep a clock name in reserve;
        # clock quantification produces presheaves over these
        self.time_inner = full_subcat(
            self.time, lambda o: len(o.names) < self.pool)
        self.slice_inner = full_subcat(
            self.slice, lambda o: len(o.time.names) < self.pool,
            self.time_inner)

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
        objs, places = [], []
        for o in self.time_inner.objects:
            fresh = self.fresh_clock(o)
            wide = o.add_clock(fresh, top)
            objs.append(obj_id[ElObj(wide, fresh)])
            # the positions in wide of o's names, then of the fresh clock
            places.append([wide.names.index(n) for n in o.names + (fresh,)])

        def widened(s, d, images):
            wide_images = [0] * len(places[s])
            for k, y in zip(places[s], images + (-1,)):
                wide_images[k] = places[d][y]
            return mor_id[objs[s], objs[d], tuple(wide_images)]
        return tuple(objs), tuple(widened(*m) for m in self.time_inner.mors)


def _reindex(x: Psh, cat: FinCategory, link) -> Psh:
    """The presheaf over cat with, by link = (x.cat, object ids, morphism
    ids), x's fiber at objs[i] at object i and x's action at mors[j] at
    morphism j."""
    base, objs, mors = link
    assert base is x.cat
    return Psh(cat, tuple(map(x.fibs.__getitem__, objs)),
               tuple(map(x.acts.__getitem__, mors)))


def restrict_to(x: Psh, sub: FinCategory) -> Psh:
    """Restrict a presheaf to an inner subcategory of its base."""
    return _reindex(x, sub, sub.parent)


def align(a: Psh, b: Psh) -> tuple[Psh, Psh]:
    """Put two presheaves over the same base by restricting the larger
    one to the smaller's (inner sub)category."""
    if len(a.cat.objects) > len(b.cat.objects):
        return restrict_to(a, b.cat), b
    if len(b.cat.objects) > len(a.cat.objects):
        return a, restrict_to(b, a.cat)
    return a, b


@dataclass
class Psh:
    """Fibers by object id, actions by morphism id; the action dicts are
    read-only (may be shared)."""
    cat: FinCategory
    fibs: tuple    # per object id: tuple of elements, canonical order
    acts: tuple    # per morphism id: dict element -> element

    @cached_property
    def fib(self):
        """The fibers by object, read-only."""
        return MappingProxyType(dict(zip(self.cat.objects, self.fibs)))


def const_psh(cat: FinCategory, elems) -> Psh:
    elems = tuple(csorted(elems))
    return Psh(cat, (elems,) * len(cat.objects),
               ({x: x for x in elems},) * len(cat.mors))


def clk_psh(cat: FinCategory) -> Psh:
    """The presheaf of clocks in scope — the canonical non-example for
    invariance under clock introduction."""
    assert cat.kind == "time"
    objs = cat.objects
    return Psh(cat, tuple(o.names for o in objs), tuple(
        dict(zip(objs[s].names, map(objs[d].names.__getitem__, images)))
        for s, d, images in cat.mors))


def _shared(memo: dict, f, *args):
    """f(*args), computed once per memo for arguments equal by identity;
    the arguments outlive memo, so their ids are not reused meanwhile."""
    key = (f, *map(id, args))
    out = memo.get(key)
    if out is None:
        out = memo[key] = f(*args)
    return out


def _pointwise(a: Psh, b: Psh, fiber, action) -> Psh:
    """The fibers fiber(fa, fb) over those of a and b and the actions
    action(act_a, act_b, fa, fb) at the source fibers, each shared."""
    a, b = align(a, b)
    memo: dict = {}
    fibs = tuple(_shared(memo, fiber, fa, fb)
                 for fa, fb in zip(a.fibs, b.fibs))
    return Psh(a.cat, fibs, tuple(
        _shared(memo, action, act_a, act_b, a.fibs[s], b.fibs[s])
        for s, act_a, act_b in zip(a.cat.src_ids, a.acts, b.acts)))


def product(a: Psh, b: Psh) -> Psh:
    return _pointwise(
        a, b, lambda fa, fb: tuple(("pair", x, y) for x in fa for y in fb),
        lambda act_a, act_b, fa, fb: {
            ("pair", x, y): ("pair", act_a[x], act_b[y])
            for x in fa for y in fb})


def coproduct(a: Psh, b: Psh) -> Psh:
    return _pointwise(
        a, b, lambda fa, fb: (*(("inl", x) for x in fa),
                              *(("inr", y) for y in fb)),
        lambda act_a, act_b, fa, fb: {
            **{("inl", x): ("inl", act_a[x]) for x in fa},
            **{("inr", y): ("inr", act_b[y]) for y in fb}})


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
    fibs = tuple(_nats_at(i, a, b, budget) for i in range(len(cat.objects)))
    succ, table, out, pos = cat.succ, cat.table, cat.out, cat.pos
    acts = []
    for j, (s, d, _) in enumerate(cat.mors):
        # entry of f (out of dst m) in the image: the entry of f∘m in φ
        place = [0] * len(out[d])
        for f, fm in zip(succ[d], table[j]):
            place[pos[f]] = pos[fm]
        acts.append({phi: ("nat", tuple([phi[1][p] for p in place]))
                     for phi in fibs[s]})
    return Psh(cat, fibs, tuple(acts))


def _nats_at(c: int, a: Psh, b: Psh, budget: Budget):
    cat = a.cat
    succ, table, pos, dst = cat.succ, cat.table, cat.pos, cat.dst_ids
    a_act, b_act = a.acts, b.acts
    mors = cat.out[c]
    dsts = [dst[f] for f in mors]
    variables = [(i, x) for i, d in enumerate(dsts) for x in a.fibs[d]]

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
                for y in b.fibs[dsts[i]]:
                    trial = dict(assign)
                    trial[v] = y
                    if propagate(trial, [(v, y)]):
                        search(trial)
                return
        # encode positionally: per morphism f (sorted), the images of
        # A(dst f) in canonical fiber order
        results.append(("nat", tuple(
            tuple(assign[(i, x)] for x in a.fibs[d])
            for i, d in enumerate(dsts))))

    search({})
    return tuple(csorted(set(results)))


# ---------------------------------------------------------------------------
# Chain limits, delay, clock quantification
# ---------------------------------------------------------------------------

def _chain(cat: FinCategory, fibs, act, chain) -> tuple:
    """A finite inverse chain o_0 ← o_1 ← … of slice objects, given by
    their ids in cat (one object at marked stages 0, 1, …), over the
    fibers fibs (by object id) and the action act(morphism id) -> dict:
    the fiber at its top (None if it is empty) and the stage-lowering
    actions from the top down."""
    downs = cat.stage_shift[1]
    return (fibs[chain[-1]] if chain else None,
            [act(downs[i]) for i in reversed(chain[1:])])


def _chain_limit(top, steps) -> list:
    """The limit of a chain given by `_chain`: the families (x_0, x_1, …)
    compatible with the stage-lowering maps, in canonical order.  The top
    element determines the family; the empty chain has one empty
    family."""
    if top is None:
        return [()]
    families = []
    for x in top:
        family = [x]
        for step in steps:
            family.append(step[family[-1]])
        families.append(tuple(reversed(family)))
    return csorted(set(families))


def _families(top, *steps) -> tuple:
    """The chain limit encoded ("tup", ((0,x_0), …))."""
    return tuple(("tup", tuple(enumerate(fam)))
                 for fam in _chain_limit(top, steps))


def _stagewise(fams, *acts) -> dict:
    """Act on encoded families stage by stage, one action per stage of
    the target."""
    return {fam: ("tup", tuple((beta, act[e]) for (beta, e), act
                               in zip(fam[1], acts)))
            for fam in fams}


def _limits(x: Psh, chains, stage_mors, srcs) -> tuple[tuple, tuple]:
    """Fibers: the encoded chain limits of x over chains; actions: per
    morphism, _stagewise on the fiber at its source srcs[j] along
    stage_mors[j].  Equal arguments, by identity, share one result."""
    memo: dict = {}
    fibs = tuple(_shared(memo, _families, top, *steps) for top, steps in (
        _chain(x.cat, x.fibs, x.acts.__getitem__, c) for c in chains))
    return fibs, tuple(
        _shared(memo, _stagewise, fibs[s], *map(x.acts.__getitem__, js))
        for s, js in zip(srcs, stage_mors))


def later(model: Model, x: Psh) -> Psh:
    """▷X: the fiber at (E, θ, λ) is the limit of X over the stages below
    θ(λ); a singleton at stage 0."""
    assert x.cat.kind == "slice"
    cat = x.cat
    chains, _, shifted = cat.stage_shift
    stage = cat.marked_stage
    return Psh(cat, *_limits(
        x, [chain[:k] for chain, k in zip(chains, stage)],
        [js[:stage[d]] for js, d in zip(shifted, cat.dst_ids)], cat.src_ids))


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
    return Psh(cat, *_limits(x, [chains[i] for i in top_objs],
                             [shifted[j] for j in top_mors], cat.src_ids))


def weaken(model: Model, x: Psh) -> Psh:
    """Reindex a presheaf on the time category along the projection from
    the slice (forget the marked clock)."""
    assert x.cat.kind == "time"
    cat = model.slice if x.cat is model.time else model.slice_inner
    return _reindex(x, cat, cat.over)


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
    cat, acts = x.cat, x.acts
    for i, fib in enumerate(x.fibs):
        ident = acts[cat.identity(i)]
        for e in fib:
            if ident[e] != e:
                return CheckOutcome(False, ("identity",
                                            obj_key(cat.objects[i]), e))
    if _generators_commute(x):
        return CheckOutcome(True)
    # the composable pairs (g, f) by f's id, then g's id
    succ, table = cat.succ, cat.table
    for fi, (s, d, _) in enumerate(cat.mors):
        act_f, elems = acts[fi], x.fibs[s]
        for gi, gfi in zip(succ[d], table[fi]):
            act_g, act_gf = acts[gi], acts[gfi]
            for e in elems:
                if act_gf[e] != act_g[act_f[e]]:
                    return CheckOutcome(False, (
                        "composition", mor_key(cat.decode(fi)),
                        mor_key(cat.decode(gi)), e))
    return CheckOutcome(True)


def _generators_commute(x: Psh) -> bool:
    """Whether x(g∘f) = x(g)∘x(f) for every generator g, compared on the
    positions of images in their fibers (False if one lies outside).
    Actions and fibers equal by identity share one position list, and
    morphisms f with the same lists for f, the g and the g∘f are compared
    once."""
    cat = x.cat
    where: dict = {}
    for fib in x.fibs:
        if id(fib) not in where:
            where[id(fib)] = {e: i for i, e in enumerate(fib)}
    lists, index, cls = [], {}, []    # cls[j]: the position list of x(j)
    try:
        for (s, d, _), act in zip(cat.mors, x.acts):
            src, dst = x.fibs[s], x.fibs[d]
            key = id(act), id(src), id(dst)
            if key not in index:
                index[key] = len(lists)
                lists.append(list(map(where[id(dst)].__getitem__,
                                      map(act.__getitem__, src))))
            cls.append(index[key])
    except KeyError:
        return False
    gens = [tuple(map(cls.__getitem__, row)) for row in cat.gens]
    seen = set()
    for c, d, row in zip(cls, cat.dst_ids, cat.gen_table):
        key = c, gens[d], tuple(map(cls.__getitem__, row))
        if key not in seen:
            seen.add(key)
            place = lists[c]
            if any([lists[g][i] for i in place] != lists[gf]
                   for g, gf in zip(key[1], key[2])):
                return False
    return True


def clock_intro(cat: FinCategory, i: int, lam: str, alpha: int):
    """The id in cat of the clock introduction from object i that adds
    the clock lam at stage alpha, or None where cat lacks its target."""
    o = cat.objects[i]
    t = _time_of(o)
    wide = t.add_clock(lam, alpha)
    d = cat.obj_id.get(wide if cat.kind == "time" else ElObj(wide, o.clock))
    if d is None:
        return None
    return cat.mor_id[i, d, tuple(map(wide.names.index, t.names))]


def clock_intros(model: Model, cat: FinCategory):
    """The ids of all clock-introduction morphisms ι : o → o+λ@α of cat
    with λ fresh, by o, λ and α."""
    for i, o in enumerate(cat.objects):
        for lam in model.names:
            if lam in _time_of(o).names:
                continue
            for alpha in range(model.bound):
                j = clock_intro(cat, i, lam, alpha)
                if j is not None:
                    yield j


def check_invariance(model: Model, x: Psh) -> CheckOutcome:
    """Def.-1 invariance: every clock-introduction map acts bijectively."""
    cat = x.cat
    for j in clock_intros(model, cat):
        s, d, _ = cat.mors[j]
        act, src = x.acts[j], x.fibs[s]
        img = [act[e] for e in src]
        if len(set(img)) != len(src) or set(img) != set(x.fibs[d]):
            return CheckOutcome(False, mor_key(cat.decode(j)))
    return CheckOutcome(True)
