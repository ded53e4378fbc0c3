"""Finite presheaves over the truncated time category.

A `Psh` holds its fibers as a tuple by object id and its actions by
morphism id (see the integer encoding in `timecat`).  A fiber is
a tuple of elements in canonical order; an action is a tuple of
positions, the k-th the position in the target fiber of the image of the
source fiber's k-th element (the C-set encoding of Patterson, Lynch and
Fairbanks).  Every construction works on positions.  Since positions
order as the elements they stand for, sorting tuples of positions gives
canonical order, and elements are built only for the fibers and decoded
only at the boundary: `Psh.fib` maps each object to its fiber, and
counterexamples name elements.  Actions are read-only and often shared
between ids.

A construction makes each fiber and action once per class of inputs
equal by identity (`_per_class`), so shared inputs give shared outputs,
and `_generators_commute` compares each class once.

The delay modality, clock quantification and guarded fixpoints are
computed as honest chain limits (families compatible along the
stage-lowering morphisms, `_chain_limit`); at finite truncation these
limits collapse to the top-stage fiber, which is exactly the truncation
artifact the force checker reports.  Their actions are made when first
read (`_limits`), so a job that reads their fibers builds no morphism.

A `Model` refuses a category larger than its budget, slice included,
before enumerating it (`timecat.check_size`); it builds the slice and the
inner subcategories on first read, so time-only jobs never build them.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from operator import getitem
from types import MappingProxyType

from ..theories import Budget, BudgetExceeded, csorted
from .timecat import (ElObj, FinCategory, TimeObj, check_size,
                      enumerate_category, full_subcat, mor_key, obj_key,
                      pool_names, slice_category)


class FreshClockExhausted(Exception):
    pass


@dataclass
class Model:
    """Shared context: the enumerated time category and, built on first
    read, its slice by Clk and their inner subcategories."""
    pool: int = 2
    bound: int = 4
    budget: Budget = field(default_factory=Budget)

    def __post_init__(self):
        check_size(self.pool, self.bound, self.budget.max_elements)
        self.names = pool_names(self.pool)
        self.time = enumerate_category(self.pool, self.bound)

    @cached_property
    def slice(self) -> FinCategory:
        return slice_category(self.time)

    # full subcategories of objects that keep a clock name in reserve;
    # clock quantification produces presheaves over these
    @cached_property
    def time_inner(self) -> FinCategory:
        return full_subcat(self.time, lambda o: len(o.names) < self.pool)

    @cached_property
    def slice_inner(self) -> FinCategory:
        return full_subcat(self.slice,
                           lambda o: len(o.time.names) < self.pool,
                           self.time_inner)

    def fresh_clock(self, e: TimeObj) -> str:
        for n in self.names:
            if n not in e.names:
                return n
        raise FreshClockExhausted(
            f"object already uses the full pool {self.names}")

    @cached_property
    def fresh_top_objs(self) -> tuple[int, ...]:
        """The slice id of each inner object with the deterministic fresh
        clock added at the top stage N−1 and marked."""
        top, inner = self.bound - 1, self.time_inner.objects
        return tuple(self.slice.obj_id[ElObj(o.add_clock(n, top), n)]
                     for o, n in zip(inner, map(self.fresh_clock, inner)))

    @cached_property
    def fresh_top_mors(self) -> tuple[int, ...]:
        """The slice id of each inner morphism so widened at its ends."""
        objs, slc = self.fresh_top_objs, self.slice
        # per inner object, where its names, then the fresh clock, widen to
        places = [[slc.objects[i].time.names.index(n)
                   for n in o.names + (slc.objects[i].clock,)]
                  for o, i in zip(self.time_inner.objects, objs)]

        def widened(s, d, images):
            wide_images = [0] * len(places[s])
            for k, y in zip(places[s], images + (-1,)):
                wide_images[k] = places[d][y]
            return slc.mor_id[objs[s], objs[d], tuple(wide_images)]
        return tuple(widened(*m) for m in self.time_inner.mors)


def _reindex(x: Psh, cat: FinCategory, link, mors) -> Psh:
    """The presheaf over cat with x's fiber at objs[i] at object i, by link
    = (x.cat, objs), and x's action at mors[j] at morphism j."""
    assert link[0] is x.cat
    return Psh(cat, tuple(map(x.fibs.__getitem__, link[1])),
               tuple(map(x.acts.__getitem__, mors)))


def restrict_to(x: Psh, sub: FinCategory) -> Psh:
    """Restrict a presheaf to an inner subcategory of its base."""
    return _reindex(x, sub, sub.parent, sub.parent_mors)


def align(a: Psh, b: Psh) -> tuple[Psh, Psh]:
    """Put two presheaves over the same base by restricting the larger
    one to the smaller's (inner sub)category."""
    if len(a.cat.objects) > len(b.cat.objects):
        return restrict_to(a, b.cat), b
    if len(b.cat.objects) > len(a.cat.objects):
        return a, restrict_to(b, a.cat)
    return a, b


class Psh:
    """Fibers by object id, actions by morphism id.  act(j)[k] is the
    position in the fiber at j's target of the image of the k-th element
    of the fiber at j's source; action tuples may be shared.  A presheaf
    is made with its actions' tuple by id or with a maker that answers one
    id (`_limits`); `acts`, on first read, is the maker over every id,
    which then replaces the maker."""

    def __init__(self, cat: FinCategory, fibs: tuple, acts):
        self.cat, self.fibs, self.act = cat, fibs, acts
        if not callable(acts):
            self.acts, self.act = acts, acts.__getitem__

    @cached_property
    def acts(self) -> tuple:
        acts = tuple(map(self.act, range(self.cat.mor_count)))
        self.act = acts.__getitem__
        return acts

    @cached_property
    def fib(self):
        """The fibers by object, read-only."""
        return MappingProxyType(dict(zip(self.cat.objects, self.fibs)))


def const_psh(cat: FinCategory, elems) -> Psh:
    elems = tuple(csorted(elems))
    return Psh(cat, (elems,) * len(cat.objects),
               (tuple(range(len(elems))),) * cat.mor_count)


def clk_psh(cat: FinCategory) -> Psh:
    """The presheaf of clocks in scope — the canonical non-example for
    invariance under clock introduction.  A morphism acts by its images."""
    assert cat.kind == "time"
    return Psh(cat, tuple(o.names for o in cat.objects),
               tuple(images for _, _, images in cat.mors))


def _first(keys: list) -> dict:
    """The first index of each distinct key."""
    return dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))


def _per_class(keys: list, make) -> tuple:
    """Per index, make(i) for the first index i with an equal key, made
    in the order of those first indices.  Keys hold the ids of inputs
    that outlive them, so no id is reused."""
    first = _first(keys)
    made = {key: make(first[key]) for key in dict.fromkeys(keys)}
    return tuple(map(made.__getitem__, keys))


def _pointwise(a: Psh, b: Psh, fiber, action) -> Psh:
    """The fibers fiber(fa, fb) over those of a and b and the actions
    action(act_a, act_b, fa, fb) with the target fibers, each made once
    per class of its inputs."""
    a, b = align(a, b)
    fa, fb, dst = list(map(id, a.fibs)), list(map(id, b.fibs)), a.cat.dst_ids
    fibs = _per_class(list(zip(fa, fb)),
                      lambda i: fiber(a.fibs[i], b.fibs[i]))
    keys = list(zip(map(id, a.acts), map(id, b.acts),
                    map(fa.__getitem__, dst), map(fb.__getitem__, dst)))
    return Psh(a.cat, fibs, _per_class(keys, lambda j: action(
        a.acts[j], b.acts[j], a.fibs[dst[j]], b.fibs[dst[j]])))


def product(a: Psh, b: Psh) -> Psh:
    """Pairs in row-major order: (x, y) at position x·|B| + y."""
    return _pointwise(
        a, b, lambda fa, fb: tuple(("pair", x, y) for x in fa for y in fb),
        lambda act_a, act_b, fa, fb: tuple(
            x * len(fb) + y for x in act_a for y in act_b))


def coproduct(a: Psh, b: Psh) -> Psh:
    """The left summand's positions, then the right's shifted by |A|."""
    return _pointwise(
        a, b, lambda fa, fb: (*(("inl", x) for x in fa),
                              *(("inr", y) for y in fb)),
        lambda act_a, act_b, fa, fb: (*act_a,
                                      *(len(fa) + y for y in act_b)))


# ---------------------------------------------------------------------------
# Exponentials
# ---------------------------------------------------------------------------

def arrow(a: Psh, b: Psh, budget: Budget | None = None) -> Psh:
    """The exponential B^A: fiber at c is the set of natural families
    φ_f : A(d) → B(d) indexed by morphisms f : c → d.  Elements encode φ
    positionally over the canonically sorted list of morphisms out of c:
    ("nat", per f the images of A(d) in canonical fiber order).

    A generator g acts by its `pre_table` row (φ's entry of f∘g is the
    image's entry of f), counted against the budget first; every other
    morphism along its factorization g∘f (`factors`), exactly, as
    (B^A)(g∘f)(φ) = φ(− ∘ g ∘ f) = (B^A)(g)((B^A)(f)(φ))."""
    budget = budget or Budget()
    a, b = align(a, b)
    cat = a.cat
    pairs = sum(map(len, map(cat.succ.__getitem__,
                             compress(cat.dst_ids, cat.gen_flags))))
    if pairs > budget.max_elements:
        raise BudgetExceeded(
            f"exponential over {len(cat.objects)} objects needs {pairs} "
            f"generator-precomposition pairs, over the max_elements budget "
            f"{budget.max_elements}")
    nats = [_nats_at(i, a, b, budget) for i in range(len(cat.objects))]
    index = [{phi: k for k, phi in enumerate(fam)} for fam in nats]
    fibs = []
    for row, fam in zip(cat.out, nats):
        cods = [b.fibs[cat.dst_ids[f]] for f in row]
        fibs.append(tuple(("nat", tuple(tuple(map(cod.__getitem__, images))
                                        for cod, images in zip(cods, phi)))
                          for phi in fam))
    acts: list = [None] * len(cat.mors)
    for j, fam in zip(cat.identities, nats):
        acts[j] = tuple(range(len(fam)))
    for g, place in cat.pre_table:
        into = index[cat.dst_ids[g]]
        acts[g] = tuple(into[tuple(map(phi.__getitem__, place))]
                        for phi in nats[cat.src_ids[g]])
    for m, g, f in cat.factors:
        acts[m] = tuple(map(acts[g].__getitem__, acts[f]))
    return Psh(cat, tuple(fibs), tuple(acts))


def _nats_at(c: int, a: Psh, b: Psh, budget: Budget) -> list:
    """The natural families at object c in canonical order: per morphism
    f out of c (`cat.out[c]`), the positions in B(dst f) of the images of
    A(dst f).  Naturality is propagated along generators only; as A and B
    are functors, that gives it along every morphism (the induction in
    `check_functoriality`)."""
    cat = a.cat
    gens, gen_table, pos, dst = cat.gens, cat.gen_table, cat.pos, cat.dst_ids
    a_act, b_act = a.acts, b.acts
    mors = cat.out[c]
    dsts = [dst[f] for f in mors]
    variables = [(i, x) for i, d in enumerate(dsts)
                 for x in range(len(a.fibs[d]))]

    def propagate(assign, queue):
        # assign is closed under naturality except for the queued entries
        while queue:
            (i, x), y = queue.pop()
            f = mors[i]
            for g, gf in zip(gens[dst[f]], gen_table[f]):
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
                for y in range(len(b.fibs[dsts[i]])):
                    trial = dict(assign)
                    trial[v] = y
                    if propagate(trial, [(v, y)]):
                        search(trial)
                return
        results.append(tuple(
            tuple([assign[(i, x)] for x in range(len(a.fibs[d]))])
            for i, d in enumerate(dsts)))

    search({})
    return sorted(results)


# ---------------------------------------------------------------------------
# Chain limits, delay, clock quantification
# ---------------------------------------------------------------------------

def _chain_limit(downs, fibs, act, chain) -> tuple[list, dict]:
    """The limit over a finite inverse chain o_0 ← o_1 ← … of slice
    objects, given by their ids (one object at marked stages 0, 1, …), of
    the fibers fibs (by object id) along the stage-lowering actions
    act(downs[o]): the compatible families (x_0, x_1, …) as tuples of
    positions, sorted and so in canonical order, and the index of each.
    The top element determines the family; the empty chain has one empty
    family."""
    if not chain:
        return [()], {(): 0}
    cols = [range(len(fibs[chain[-1]]))]
    for o in reversed(chain[1:]):
        cols.append(list(map(act(downs[o]).__getitem__, cols[-1])))
    families = sorted(zip(*reversed(cols)))
    return families, {fam: n for n, fam in enumerate(families)}


def _stagewise(src: tuple, dst: tuple, *acts) -> tuple:
    """The action between chain limits src and dst (as `_chain_limit`
    gives them) stage by stage, one action per stage of dst: the position
    in dst of the image of each family of src."""
    families, index = src[0], dst[1]
    if not acts:
        return (0,) * len(families)
    return tuple(map(index.__getitem__, zip(*[
        list(map(act.__getitem__, col))
        for act, col in zip(acts, zip(*families))])))


def _limits(x: Psh | None, cat: FinCategory, chains, ends, fiber,
            action) -> Psh:
    """The presheaf over cat with (made[i], fiber i) = fiber(limit, chains[i])
    for the limit of x (of itself for x None, by chain length) over
    chains[i], and at j, on first read, action(made[s], made[d], *x's
    actions at row), (s, d, row) = ends(j).  Classes as in `_per_class`:
    by the fibers and down-actions of a chain, and by made[s], made[d] and
    the actions at row."""
    made, fibs = [None] * len(cat.objects), [None] * len(cat.objects)
    by_id, by_class, limits = {}, {}, {}

    def act(j):     # the result's maker (see `Psh`)
        if j not in by_id:
            s, d, row = ends(j)
            stage = list(map(x_act, row))
            key = (id(made[s]), id(made[d]), *map(id, stage))
            if key not in by_class:
                by_class[key] = action(made[s], made[d], *stage)
            by_id[j] = by_class[key]
        return by_id[j]
    downs, x_fibs, x_act = (cat.downs, fibs, act) if x is None else (
        x.cat.downs, x.fibs, x.act)
    for i in sorted(range(len(chains)), key=lambda i: len(chains[i])):
        key = tuple((id(x_fibs[o]), downs[o] if downs[o] is None else id(
            x_act(downs[o]))) for o in chains[i])
        if key not in limits:
            limits[key] = fiber(_chain_limit(downs, x_fibs, x_act, chains[i]),
                                chains[i])
        made[i], fibs[i] = limits[key]
    return Psh(cat, tuple(fibs), act)


def _tuples(x: Psh):
    """Chain limits of x as families ("tup", ((0, x_0), …))."""
    return lambda lim, chain: (lim, tuple(("tup", tuple(enumerate(map(
        getitem, map(x.fibs.__getitem__, chain), fam)))) for fam in lim[0]))


def later(model: Model, x: Psh) -> Psh:
    """▷X: the fiber at (E, θ, λ) is the limit of X over the stages below
    θ(λ); a singleton at stage 0."""
    assert x.cat.kind == "slice"
    cat = x.cat
    return _limits(x, cat, [chain[:k] for chain, k in zip(
        cat.chains, cat.marked_stage)], cat.shift, _tuples(x), _stagewise)


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
    inner = model.time_inner

    def ends(j):    # the row of j's widening t: t's `shifted` row, then t
        t = model.fresh_top_mors[j]
        return inner.src_ids[j], inner.dst_ids[j], x.cat.shifted[t] + (t,)
    return _limits(x, inner, list(map(x.cat.chains.__getitem__,
                                      model.fresh_top_objs)), ends,
                   _tuples(x), _stagewise)


def weaken(model: Model, x: Psh) -> Psh:
    """Reindex a presheaf on the time category along the projection from
    the slice (forget the marked clock)."""
    assert x.cat.kind == "time"
    cat = model.slice if x.cat is model.time else model.slice_inner
    return _reindex(x, cat, cat.over, cat.over_mors)


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

    The pairs with g a generator (`FinCategory.gen_flags`) decide it.  A
    morphism σ : (E,θ) → (E',θ') is merges to one clock per fiber of σ at
    the fiber's least stage, a rename onto σ(E), decrements to θ', adds of
    E' ∖ σ(E) at the top stage and decrements to θ'; no object on the way
    has more clocks than E or E', so inner subcategories contain it, and
    in a slice each factor carries the marked clock.  By induction on h
    as a word in generators, x((g∘h)∘f) = x(g)∘x(h∘f) = x(g)∘x(h)∘x(f)
    = x(g∘h)∘x(f).  Only a failing generator pair starts the full scan,
    which composes each pair as it reaches it."""
    cat, acts = x.cat, x.acts
    for i, (j, fib) in enumerate(zip(cat.identities, x.fibs)):
        ident = acts[j]
        for p, e in enumerate(fib):
            if ident[p] != p:
                return CheckOutcome(False, ("identity",
                                            obj_key(cat.objects[i]), e))
    if _generators_commute(x):
        return CheckOutcome(True)
    # the composable pairs (g, f) by f's id, then g's id
    mors, mor_id = cat.mors, cat.mor_id
    for fi, (s, d, f_images) in enumerate(mors):
        act_f, elems = acts[fi], x.fibs[s]
        for gi in cat.succ[d]:
            _, t, g_images = mors[gi]
            act_g = acts[gi]
            act_gf = acts[mor_id[s, t, tuple([g_images[i]
                                              for i in f_images])]]
            for p, e in enumerate(elems):
                if act_gf[p] != act_g[act_f[p]]:
                    return CheckOutcome(False, (
                        "composition", mor_key(cat.decode(fi)),
                        mor_key(cat.decode(gi)), e))
    return CheckOutcome(True)


def _generators_commute(x: Psh) -> bool:
    """Whether x(g∘f) = x(g)∘x(f) for every generator g.  Actions equal
    by identity are one class, named by its first morphism, and morphisms
    f with the same classes for f, the g and the g∘f are compared once."""
    cat, acts = x.cat, x.acts
    ids = list(map(id, acts))
    cls = list(map(_first(ids).__getitem__, ids))
    gens = [tuple(map(cls.__getitem__, row)) for row in cat.gens]
    keys = set(zip(cls, map(gens.__getitem__, cat.dst_ids),
                   [tuple(map(cls.__getitem__, row))
                    for row in cat.gen_table]))
    return all(tuple(map(acts[g].__getitem__, acts[c])) == acts[gf]
               for c, g_row, gf_row in keys
               for g, gf in zip(g_row, gf_row))


def check_invariance(model: Model, x: Psh) -> CheckOutcome:
    """Def.-1 invariance: every clock-introduction map ι : o → o+λ@α with
    λ fresh acts bijectively, tried by o, λ and α (`FinCategory.intros`)."""
    cat = x.cat
    for row in cat.intros:
        for j, d in (p for pairs in row.values() for p in pairs):
            if not _bijective(x.act(j), len(x.fibs[d])):
                return CheckOutcome(False, mor_key(cat.decode(j)))
    return CheckOutcome(True)


def _bijective(act, n: int) -> bool:
    """Whether a tuple of positions in a fiber of n elements is a
    bijection onto it: injective, between fibers of one size."""
    return len(act) == n == len(set(act))
