"""The truncated time category and its category of elements by Clk.

Objects are pairs (E, θ) of a finite set of clock names from a fixed pool
with a stage assignment θ : E → {0, …, N−1}; morphisms σ : (E,θ) → (E',θ')
are functions with θ'∘σ ≤ θ pointwise.  The slice category by Clk has
objects (E, θ, λ) with λ ∈ E and morphisms preserving the marked clock.

Integer encoding.  A `FinCategory` lists its objects (`TimeObj` or
`ElObj`, a few hundred at most) in `obj_key` order, and an object's id is
its position.  A morphism is the tuple (source id, target id, images),
where images[k] is the position of the image of the k-th source name
among the target's names; the tuple is also its key in `mor_id`, and its
position in `mors` is its id.  Composition is index arithmetic: g∘f has
images tuple(g_images[i] for i in f_images).  A slice object's id is the
first slice id of its time object plus the marked clock's position; a
slice records the time objects and morphisms under its own (`over`,
`over_mors`), an inner subcategory their parent ids (`parent`,
`parent_mors`).  `TimeMor` objects exist only at the boundary: `decode`
builds one and `morphisms` all, for counterexamples and tests.

A category is made with its objects.  `mor_index` ranks a morphism as
its (source, target) block's offset (`offsets`) plus the mixed-radix rank
of its images (Knuth, TAOCP 4A §7.2.1.1), in a slice times the source's
clocks plus the marked one, so `identities`, a slice's `downs` and
`intros` build no morphism.  The morphisms and their tables (out-lists,
`gen_table`, `pre_table`, `factors`, `shifted`; a slice's `chains` and
`downs` are by object) are built on first use and shared, and look their
ids up in `mor_id`; none holds all composable pairs.

Sizes in closed form (`category_sizes`), so that `check_size` can refuse
a category over budget before its objects are listed.  With a pool of P
clocks and N stages there are (N+1)^P objects.  A source clock at stage s
may go to any y of a target b with θ_b(y) ≤ s, which gives
S_b = Σ_{y∈b} (N − θ_b(y)) choices of stage and image per present clock,
so there are Σ_b (1+S_b)^P time morphisms and, with one of the P clocks
marked, Σ_b P·S_b·(1+S_b)^(P−1) slice morphisms.
"""
from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property, partial, reduce
from itertools import repeat
from operator import mul

from ..theories import BudgetExceeded


@dataclass(frozen=True, slots=True)
class TimeObj:
    names: tuple[str, ...]          # E, sorted
    stages: tuple[int, ...]         # θ(names[i]) = stages[i]

    def theta(self, name: str) -> int:
        return self.stages[self.names.index(name)]

    def add_clock(self, name: str, stage: int) -> "TimeObj":
        assert name not in self.names
        pairs = sorted(zip(self.names + (name,), self.stages + (stage,)))
        return TimeObj(tuple(n for n, _ in pairs),
                       tuple(s for _, s in pairs))


@dataclass(frozen=True, slots=True)
class ElObj:
    """Object of the category of elements of Clk: a time object with a
    marked clock."""
    time: TimeObj
    clock: str


@dataclass(frozen=True, slots=True)
class TimeMor:
    """A decoded morphism, for reports and tests."""
    src: object       # TimeObj or ElObj
    dst: object
    sigma: tuple[tuple[str, str], ...]    # graph of σ, sorted by source


def _time_of(o) -> TimeObj:
    return o.time if isinstance(o, ElObj) else o


@dataclass(eq=False)
class FinCategory:
    objects: tuple
    kind: str                 # "time" | "slice"
    # a slice category: (time category, the id there of the time object
    # under each object)
    over: tuple | None = None
    # an inner subcategory: (parent category, the parent id of each object)
    parent: tuple | None = None

    @cached_property
    def mors(self) -> tuple:
        """(source id, target id, images) by id."""
        if self.kind == "slice":
            t, under = self.over
            starts = [bisect_left(under, i) for i in range(len(t.objects))]
            return tuple((starts[s] + k, starts[d] + y, images)
                         for s, d, images in t.mors
                         for k, y in enumerate(images))
        top = 1 + max((s for o in self.objects for s in o.stages), default=0)
        # per target and source stage, the positions of the admissible images
        admissible = [[tuple(y for y, t in enumerate(b.stages) if t <= s)
                       for s in range(top)] for b in self.objects]
        return tuple((i, d, images) for i, a in enumerate(self.objects)
                     for d, adm in enumerate(admissible)
                     for images in itertools.product(
                         *map(adm.__getitem__, a.stages)))

    def decode(self, j: int) -> TimeMor:
        s, d, images = self.mors[j]
        a, b = self.objects[s], self.objects[d]
        return TimeMor(a, b, tuple(zip(_time_of(a).names, map(
            _time_of(b).names.__getitem__, images))))

    @cached_property
    def morphisms(self) -> tuple:
        return tuple(map(self.decode, range(len(self.mors))))

    def compose(self, g: TimeMor, f: TimeMor) -> TimeMor:
        """g ∘ f for f : A → B, g : B → C, on decoded morphisms."""
        assert f.dst == g.src
        image = dict(g.sigma)
        return TimeMor(f.src, g.dst, tuple((a, image[b]) for a, b in f.sigma))

    # -- the tables over ids (built on first use) ----------------------------

    @cached_property
    def obj_id(self) -> dict:
        return {o: i for i, o in enumerate(self.objects)}

    @cached_property
    def mor_id(self) -> dict:
        return {m: j for j, m in enumerate(self.mors)}

    @cached_property
    def offsets(self) -> list[int]:
        """At s·n + d for time objects s, d (in a slice, under its objects),
        the id of the first of the Π_k |admissible images of clock k| (in a
        slice, times |k|) morphisms from s to d; then the count."""
        t = self.over[0] if self.kind == "slice" else self
        stages = [tuple(sorted(o.stages)) for o in t.objects]
        # per source stage s, per target: its clocks at stages ≤ s
        cols = [tuple(map(bisect_right, stages, repeat(s))) for s in
                range(1 + max((u for key in stages for u in key), default=0))]
        blocks = {key: tuple(reduce(
            partial(map, mul), map(cols.__getitem__, key),
            repeat(len(key) if t is not self else 1, len(stages))))
            for key in set(stages)}
        return list(itertools.accumulate(itertools.chain.from_iterable(
            map(blocks.__getitem__, stages)), initial=0))

    @cached_property
    def mor_count(self) -> int:
        """The number of morphisms, the last offset."""
        return self.offsets[-1]

    def mor_index(self, s: int, d: int, images) -> int | None:
        """The id of (s, d, images), or None if it is no morphism, in
        closed form; bulk lookups over built morphisms use `mor_id`."""
        if not (0 <= s < len(self.objects) and 0 <= d < len(self.objects)):
            return None
        t, k, m = self, 0, 1
        if self.kind == "slice":
            (t, under), src, dst = self.over, self.objects[s], self.objects[d]
            k, m = src.time.names.index(src.clock), len(images)
            if k >= m or images[k] != dst.time.names.index(dst.clock):
                return None
            s, d = under[s], under[d]
        a, b = t.objects[s].stages, t.objects[d].stages
        if len(images) != len(a):
            return None
        rank = 0
        for stage, y in zip(a, images):
            if not 0 <= y < len(b) or b[y] > stage:
                return None
            below = [u <= stage for u in b]
            rank = rank * sum(below) + sum(below[:y])
        return self.offsets[s * len(t.objects) + d] + rank * m + k

    @cached_property
    def over_mors(self) -> tuple[int, ...]:
        """For a slice, the id of the time morphism under each morphism."""
        return tuple(j for j, (_, _, images) in enumerate(self.over[0].mors)
                     for _ in images)

    @cached_property
    def parent_mors(self) -> tuple[int, ...]:
        """For an inner subcategory, the parent id of each morphism."""
        cat, keep = self.parent[0], set(self.parent[1])
        return tuple(j for j, (s, d, _) in enumerate(cat.mors)
                     if s in keep and d in keep)

    @cached_property
    def identities(self) -> tuple[int, ...]:
        """The id of the identity on each object."""
        return tuple(self.mor_index(i, i, tuple(range(len(_time_of(o).names))))
                     for i, o in enumerate(self.objects))

    @cached_property
    def src_ids(self) -> tuple[int, ...]:
        return tuple(m[0] for m in self.mors)

    @cached_property
    def dst_ids(self) -> tuple[int, ...]:
        return tuple(m[1] for m in self.mors)

    @cached_property
    def succ(self) -> tuple[tuple[int, ...], ...]:
        rows: list = [[] for _ in self.objects]
        for j, s in enumerate(self.src_ids):
            rows[s].append(j)
        return tuple(map(tuple, rows))

    @cached_property
    def out(self) -> tuple[tuple[int, ...], ...]:
        # ids order as obj_key and, within one target, image positions as
        # image names, so the morphism tuples order as mor_key
        return tuple(tuple(sorted(row, key=self.mors.__getitem__))
                     for row in self.succ)

    @cached_property
    def pos(self) -> list[int]:
        """The place of each morphism id in the out-list of its source."""
        pos = [0] * len(self.mors)
        for row in self.out:
            for i, j in enumerate(row):
                pos[j] = i
        return pos

    def _composites(self, ids, outs) -> tuple[tuple[int, ...], ...]:
        """Per morphism f in ids, the ids of g∘f for g in outs[dst f].  The
        targets and images of the composites depend only on f's target
        and images, so they are computed once per such pair."""
        mors, mor_id = self.mors, self.mor_id
        after: dict = {}
        rows = []
        for s, d, images in map(mors.__getitem__, ids):
            ends = after.get((d, images))
            if ends is None:
                gs = [mors[g] for g in outs[d]]
                ends = after[d, images] = (
                    [e for _, e, _ in gs],
                    [tuple([g_images[i] for i in images])
                     for _, _, g_images in gs])
            rows.append(tuple(map(mor_id.__getitem__,
                                  zip(repeat(s), *ends))))
        return tuple(rows)

    @cached_property
    def gen_flags(self) -> tuple[bool, ...]:
        """Whether each morphism is a generator, read off the parent or, in
        a slice, the time morphism under it; a time category builds them by
        construction (`_generators`; the tests hold a predicate oracle)."""
        if self.over or self.parent:
            cat = (self.over or self.parent)[0]
            ids = self.over_mors if self.over else self.parent_mors
            return tuple(map(cat.gen_flags.__getitem__, ids))
        flags = [False] * len(self.mors)
        for key in _generators(self.objects, self.obj_id):
            flags[self.mor_id[key]] = True
        return tuple(flags)

    @cached_property
    def gens(self) -> tuple[tuple[int, ...], ...]:
        flags = self.gen_flags
        return tuple(tuple(j for j in row if flags[j]) for row in self.succ)

    @cached_property
    def gen_table(self) -> tuple[tuple[int, ...], ...]:
        return self._composites(range(len(self.mors)), self.gens)

    @cached_property
    def pre_table(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """Per generator g, by id: (g, the places in out[src g] of f∘g for
        f in out[dst g])."""
        gens = list(itertools.compress(range(len(self.mors)), self.gen_flags))
        return tuple((g, tuple(map(self.pos.__getitem__, row)))
                     for g, row in zip(gens, self._composites(gens, self.out)))

    @cached_property
    def factors(self) -> tuple[tuple[int, int, int], ...]:
        """(g∘f, g, f), g a generator, for each morphism that is no identity
        and no generator, after the triple of its f: a breadth-first pass
        along `gen_table` from the generators."""
        queue = list(itertools.compress(range(len(self.mors)), self.gen_flags))
        seen, out = set(queue).union(self.identities), []
        for f in queue:
            for g, gf in zip(self.gens[self.dst_ids[f]], self.gen_table[f]):
                if gf not in seen:
                    seen.add(gf)
                    out.append((gf, g, f))
                    queue.append(gf)
        return tuple(out)

    @cached_property
    def intros(self) -> tuple[dict, ...]:
        """Per object, for each clock λ of the category that it lacks, the
        (id, target id) of the introductions of λ at stages 0, 1, … whose
        targets the category has (`clock_intro`)."""
        times = list(map(_time_of, self.objects))
        names = sorted({n for t in times for n in t.names})
        stages = range(1 + max((s for t in times for s in t.stages),
                               default=0))
        return tuple({lam: tuple(p for p in (clock_intro(self, i, lam, a)
                                             for a in stages) if p is not None)
                      for lam in names if lam not in t.names}
                     for i, t in enumerate(times))

    @cached_property
    def marked_stage(self) -> tuple[int, ...]:
        """The stage of the marked clock of each object of a slice."""
        return tuple(o.time.theta(o.clock) for o in self.objects)

    @cached_property
    def chains(self) -> tuple[tuple[int, ...], ...]:
        """For a slice, per object: the ids of the object with its marked
        clock at stages 0, 1, …"""
        assert self.kind == "slice"
        stage, groups = self.marked_stage, {}
        for i, o in enumerate(self.objects):
            t = o.time
            k = t.names.index(o.clock)
            groups.setdefault((t.names, t.stages[:k] + t.stages[k + 1:], k),
                              {})[stage[i]] = i
        chains: list = [None] * len(self.objects)
        for by_stage in groups.values():
            chain = tuple(by_stage[a] for a in range(len(by_stage)))
            for i in chain:
                chains[i] = chain
        return tuple(chains)

    @cached_property
    def downs(self) -> tuple:
        """For a slice, per object: the id (`mor_index`) of the identity-σ
        morphism to the object one stage lower, None at stage 0."""
        return tuple(None if k == 0 else self.mor_index(
            i, chain[k - 1], tuple(range(len(o.time.names))))
            for i, o, chain, k in zip(itertools.count(), self.objects,
                                      self.chains, self.marked_stage))

    @cached_property
    def shifted(self) -> tuple[tuple[int, ...], ...]:
        """For a slice, per morphism m: for β below θ(marked clock of dst
        m), the id of the morphism with m's σ between m's ends with their
        marked clocks at stage β."""
        chains, mor_id = self.chains, self.mor_id
        # m's row is a prefix of the diagonal of its ends' chains and its
        # images, which may leave the category (None) above the prefix
        keys = list(zip(map(chains.__getitem__, self.src_ids),
                        map(chains.__getitem__, self.dst_ids),
                        (images for _, _, images in self.mors)))
        diagonals = {key: tuple(map(mor_id.get, zip(*key[:2], repeat(key[2]))))
                     for key in dict.fromkeys(keys)}
        return tuple(diagonals[key][:self.marked_stage[d]]
                     for key, d in zip(keys, self.dst_ids))

    @cached_property
    def chain_shifts(self) -> dict:
        """For a slice, `shift` of each identity and down by id: the
        identities on its chain below its target, with no morphism built."""
        out, ident = {}, self.identities
        for ids, lower in (ident, 0), (self.downs, 1):
            for i, j in enumerate(ids):
                if j is not None:
                    chain, k = self.chains[i], self.marked_stage[i] - lower
                    out[j] = i, chain[k], tuple(map(ident.__getitem__,
                                                    chain[:k]))
        return out

    def shift(self, j: int) -> tuple:
        """(source, target, `shifted` row) of morphism j of a slice; an
        identity or a down is answered from `chain_shifts`."""
        return self.chain_shifts.get(j) or (
            self.src_ids[j], self.dst_ids[j], self.shifted[j])


def clock_intro(cat: FinCategory, i: int, lam: str, alpha: int):
    """(id, target id) in cat of the clock introduction from object i that
    adds the clock lam at stage alpha, or None where cat lacks its target."""
    o = cat.objects[i]
    t = _time_of(o)
    wide = t.add_clock(lam, alpha)
    d = cat.obj_id.get(wide if cat.kind == "time" else ElObj(wide, o.clock))
    return None if d is None else \
        (cat.mor_index(i, d, tuple(map(wide.names.index, t.names))), d)


def pool_names(pool: int) -> tuple[str, ...]:
    return tuple(f"l{i}" for i in range(pool))


def _check_size_args(pool: int, bound: int) -> None:
    if pool < 1 or bound < 2:
        raise ValueError("need pool >= 1 and bound >= 2")


def category_sizes(pool: int, bound: int) -> tuple[int, int, int]:
    """(objects, time morphisms, slice morphisms) of the truncated time
    category, from the closed forms in the module docstring."""
    _check_size_args(pool, bound)
    # targets by S_b: each clock is absent (adds 0) or at stage t (adds
    # bound - t)
    count = {0: 1}
    for _ in range(pool):
        step: dict = {}
        for s, c in count.items():
            for add in range(bound + 1):
                step[s + add] = step.get(s + add, 0) + c
        count = step
    time = sum(c * (1 + s) ** pool for s, c in count.items())
    slice_ = sum(c * pool * s * (1 + s) ** (pool - 1)
                 for s, c in count.items())
    return (bound + 1) ** pool, time, slice_


def check_size(pool: int, bound: int, limit: int) -> None:
    """Refuse, before it is enumerated, a category with more than limit
    objects or slice morphisms."""
    _check_size_args(pool, bound)
    where = f"time category with pool {pool} and bound {bound}"
    # exact for small pools; else at least 3^bit_length(limit) > limit
    objects = (bound + 1) ** min(pool, limit.bit_length())
    if objects > limit:
        raise BudgetExceeded(f"{where} has {bound + 1}^{pool} objects, "
                             f"over the max_elements budget {limit}")
    slice_mors = category_sizes(pool, bound)[2]
    if slice_mors > limit:
        raise BudgetExceeded(
            f"{where} has {objects} objects and {slice_mors} slice "
            f"morphisms, over the max_elements budget {limit}")


def enumerate_category(pool: int, bound: int) -> FinCategory:
    """The truncated time category with clock pool size `pool` and stages
    below `bound`: its objects, and its morphisms on first read."""
    _check_size_args(pool, bound)
    names = pool_names(pool)
    return FinCategory(tuple(
        TimeObj(subset, stages) for r in range(pool + 1)
        for subset in itertools.combinations(names, r)
        for stages in itertools.product(range(bound), repeat=r)), "time")


def _generators(objects, obj_id):
    """The keys of the generators out of each time object a: the stage
    decrements (identity σ, one clock lowered by 1), the adds of one clock
    at the top stage, and the maps that move one clock onto another (a
    merge) or rename bijectively onto their image, each image at the least
    stage of its preimages."""
    names = sorted({n for o in objects for n in o.names})
    top = max((s for o in objects for s in o.stages), default=0)
    for i, a in enumerate(objects):
        n = len(a.names)
        for k, s in enumerate(a.stages):
            if s:
                lower = a.stages[:k] + (s - 1,) + a.stages[k + 1:]
                yield i, obj_id[TimeObj(a.names, lower)], tuple(range(n))
        for c in names:
            if c not in a.names:
                b = a.add_clock(c, top)
                yield i, obj_id[b], tuple(map(b.names.index, a.names))
        merges = (a.names[:k] + (y,) + a.names[k + 1:]
                  for k, x in enumerate(a.names) for y in a.names if y != x)
        for targets in itertools.chain(itertools.permutations(names, n),
                                       merges):
            if targets != a.names:
                image = tuple(sorted(set(targets)))
                b = TimeObj(image, tuple(min(s for y, s in zip(
                    targets, a.stages) if y == z) for z in image))
                yield i, obj_id[b], tuple(map(image.index, targets))


def slice_category(t: FinCategory) -> FinCategory:
    """Category of elements of the presheaf Clk (fiber E): objects gain a
    marked clock, morphisms must map it to the target's marked clock."""
    objects, under = zip(*((ElObj(o, n), i) for i, o in enumerate(t.objects)
                           for n in o.names))
    return FinCategory(objects, "slice", over=(t, under))


def full_subcat(cat: FinCategory, keep,
                base: FinCategory | None = None) -> FinCategory:
    """The full subcategory of cat on the objects that satisfy keep.  For
    a slice cat, base is the inner subcategory of cat's time category that
    the result lies over."""
    obj_ids = tuple(i for i, o in enumerate(cat.objects) if keep(o))
    over = None if base is None else (base, tuple(
        base.obj_id[cat.objects[i].time] for i in obj_ids))
    return FinCategory(tuple(map(cat.objects.__getitem__, obj_ids)),
                       cat.kind, over=over, parent=(cat, obj_ids))


def obj_key(o):
    t = _time_of(o)
    k = (len(t.names), t.names, t.stages)
    return k + (o.clock,) if isinstance(o, ElObj) else k


def mor_key(m: TimeMor):
    return (obj_key(m.src), obj_key(m.dst), m.sigma)
