"""Finite presheaves over the truncated time category.

A `Psh` holds its fibers as a tuple by object id and its actions as a
tuple by morphism id (see the integer encoding in `timecat`).  A fiber is
a tuple of elements in canonical order; an action is a tuple of
positions, the k-th the position in the target fiber of the image of the
source fiber's k-th element (the C-set encoding of Patterson, Lynch and
Fairbanks).  Every construction works on positions.  Since positions
order as the elements they stand for, sorting tuples of positions gives
canonical order, and elements are built only for the fibers and decoded
only at the boundary: `Psh.fib` maps each object to its fiber, and
counterexamples name elements.  Actions are read-only and often shared
between ids.

The delay modality, clock quantification and guarded fixpoints are
computed as honest chain limits (families compatible along the
stage-lowering morphisms, `_chain_limit`); at finite truncation these
limits collapse to the top-stage fiber, which is exactly the truncation
artifact the force checker reports.

A `Model` refuses a category larger than its budget, slice included,
before enumerating it (`timecat.check_size`); it builds the slice and the
inner subcategories on first read, so time-only jobs never build them.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import getitem
from types import MappingProxyType

from ..theories import Budget, BudgetExceeded, csorted
from .timecat import (ElObj, FinCategory, TimeObj, _time_of, check_size,
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
    """Fibers by object id, actions by morphism id.  acts[j][k] is the
    position in the fiber at j's target of the image of the k-th element
    of the fiber at j's source; action tuples may be shared."""
    cat: FinCategory
    fibs: tuple    # per object id: tuple of elements, canonical order
    acts: tuple    # per morphism id: tuple of positions

    @cached_property
    def fib(self):
        """The fibers by object, read-only."""
        return MappingProxyType(dict(zip(self.cat.objects, self.fibs)))


def const_psh(cat: FinCategory, elems) -> Psh:
    elems = tuple(csorted(elems))
    return Psh(cat, (elems,) * len(cat.objects),
               (tuple(range(len(elems))),) * len(cat.mors))


def clk_psh(cat: FinCategory) -> Psh:
    """The presheaf of clocks in scope — the canonical non-example for
    invariance under clock introduction.  A morphism acts by its images."""
    assert cat.kind == "time"
    return Psh(cat, tuple(o.names for o in cat.objects),
               tuple(images for _, _, images in cat.mors))


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
    action(act_a, act_b, fa, fb) with the target fibers, each shared."""
    a, b = align(a, b)
    memo: dict = {}
    fibs = tuple(_shared(memo, fiber, fa, fb)
                 for fa, fb in zip(a.fibs, b.fibs))
    return Psh(a.cat, fibs, tuple(
        _shared(memo, action, act_a, act_b, a.fibs[d], b.fibs[d])
        for d, act_a, act_b in zip(a.cat.dst_ids, a.acts, b.acts)))


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
    ("nat", per f the images of A(d) in canonical fiber order)."""
    budget = budget or Budget()
    a, b = align(a, b)
    cat = a.cat
    succ, table, out, pos = cat.succ, cat.table, cat.out, cat.pos
    nats = [_nats_at(i, a, b, budget) for i in range(len(cat.objects))]
    index = [{phi: k for k, phi in enumerate(fam)} for fam in nats]
    fibs = []
    for row, fam in zip(out, nats):
        cods = [b.fibs[cat.dst_ids[f]] for f in row]
        fibs.append(tuple(("nat", tuple(tuple(map(cod.__getitem__, images))
                                        for cod, images in zip(cods, phi)))
                          for phi in fam))
    acts = []
    for j, (s, d, _) in enumerate(cat.mors):
        # entry of f (out of dst m) in the image: the entry of f∘m in φ
        place = [0] * len(out[d])
        for f, fm in zip(succ[d], table[j]):
            place[pos[f]] = pos[fm]
        acts.append(tuple(index[d][tuple([phi[p] for p in place])]
                          for phi in nats[s]))
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

def _chain_limit(cat: FinCategory, fibs, act, chain) -> tuple[list, dict]:
    """The limit over a finite inverse chain o_0 ← o_1 ← … of slice
    objects, given by their ids in cat (one object at marked stages 0, 1,
    …), of the fibers fibs (by object id) along the stage-lowering actions
    act(morphism id): the compatible families (x_0, x_1, …) as tuples of
    positions, sorted and so in canonical order, and the index of each.
    The top element determines the family; the empty chain has one empty
    family."""
    if not chain:
        return [()], {(): 0}
    downs = cat.stage_shift[1]
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


def _chain_key(fibs, act, downs, chain) -> tuple:
    """The identities of the fibers and down-actions along a chain, which
    determine its limit; they must outlive the key, like `_shared`'s."""
    return (*(id(fibs[o]) for o in chain),
            *(id(act(downs[o])) for o in chain[1:]))


def _limits(x: Psh, cat: FinCategory, chains, stage_mors) -> Psh:
    """The presheaf over cat with, at object i, the chain limit of x over
    chains[i], its families encoded ("tup", ((0, x_0), …)), and at
    morphism j `_stagewise` along stage_mors[j].  Chains over the same
    fibers and actions, by identity, share one limit, and morphisms
    between the same limits along the same actions one action."""
    downs = x.cat.stage_shift[1]
    limits: dict = {}
    lims, fibs = [], []
    for chain in chains:
        fibers = [x.fibs[o] for o in chain]
        key = _chain_key(x.fibs, x.acts.__getitem__, downs, chain)
        if key not in limits:
            lim = _chain_limit(x.cat, x.fibs, x.acts.__getitem__, chain)
            limits[key] = lim, tuple(
                ("tup", tuple(enumerate(map(getitem, fibers, fam))))
                for fam in lim[0])
        lims.append(limits[key][0])
        fibs.append(limits[key][1])
    memo: dict = {}
    return Psh(cat, tuple(fibs), tuple(
        _shared(memo, _stagewise, lims[s], lims[d],
                *map(x.acts.__getitem__, js))
        for s, d, js in zip(cat.src_ids, cat.dst_ids, stage_mors)))


def later(model: Model, x: Psh) -> Psh:
    """▷X: the fiber at (E, θ, λ) is the limit of X over the stages below
    θ(λ); a singleton at stage 0."""
    assert x.cat.kind == "slice"
    cat = x.cat
    chains, _, shifted = cat.stage_shift
    stage = cat.marked_stage
    return _limits(x, cat, [chain[:k] for chain, k in zip(chains, stage)],
                   [js[:stage[d]] for js, d in zip(shifted, cat.dst_ids)])


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
    chains, _, shifted = x.cat.stage_shift
    top_objs, top_mors = model.fresh_tops
    return _limits(x, model.time_inner, [chains[i] for i in top_objs],
                   [shifted[j] for j in top_mors])


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

    The pairs with g a generator (`FinCategory.gen_flags`) decide it.  A
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
        for p, e in enumerate(fib):
            if ident[p] != p:
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
            for p, e in enumerate(elems):
                if act_gf[p] != act_g[act_f[p]]:
                    return CheckOutcome(False, (
                        "composition", mor_key(cat.decode(fi)),
                        mor_key(cat.decode(gi)), e))
    return CheckOutcome(True)


def _generators_commute(x: Psh) -> bool:
    """Whether x(g∘f) = x(g)∘x(f) for every generator g.  Actions equal
    by identity are one class, and morphisms f with the same classes for
    f, the g and the g∘f are compared once."""
    cat, acts = x.cat, x.acts
    index: dict = {}
    cls = [index.setdefault(id(act), j) for j, act in enumerate(acts)]
    gens = [tuple(map(cls.__getitem__, row)) for row in cat.gens]
    seen = set()
    for c, d, row in zip(cls, cat.dst_ids, cat.gen_table):
        key = c, gens[d], tuple(map(cls.__getitem__, row))
        if key not in seen:
            seen.add(key)
            place = acts[c]
            if any(tuple(map(acts[g].__getitem__, place)) != acts[gf]
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
        if not _bijective(x.acts[j], len(x.fibs[cat.dst_ids[j]])):
            return CheckOutcome(False, mor_key(cat.decode(j)))
    return CheckOutcome(True)


def _bijective(act, n: int) -> bool:
    """Whether a tuple of positions in a fiber of n elements is a
    bijection onto it: injective, between fibers of one size."""
    return len(act) == n == len(set(act))
