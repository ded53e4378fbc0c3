"""The truncated time category and its category of elements by Clk.

Objects are pairs (E, θ) of a finite set of clock names from a fixed pool
with a stage assignment θ : E → {0, …, N−1}; morphisms σ : (E,θ) → (E',θ')
are functions with θ'∘σ ≤ θ pointwise.  The slice category by Clk has
objects (E, θ, λ) with λ ∈ E and morphisms preserving the marked clock.

Objects and morphisms hash once and keep the hash.  The id of an object or
morphism of a `FinCategory` is its position in `objects` or `morphisms`.
The tables over ids are built on first use and shared by every later call
on the category: per-object out-lists (`succ` in id order, `out` sorted by
`mor_key`, `gens` the generators), the composites `table` of all
composable pairs and `gen_table` of those with a generator second and,
for slice categories, the stage-shift map `stage_shift` from an object or
morphism to the same one with the marked clock at each stage.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter


class _Hashed:
    """Keeps the hash in a slot outside the dataclass fields, so that it is
    neither compared nor pickled."""
    __slots__ = ("_hash",)

    def __hash__(self) -> int:
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash(self._fields(self))
            object.__setattr__(self, "_hash", h)
        return h


@dataclass(frozen=True, slots=True)
class TimeObj(_Hashed):
    names: tuple[str, ...]          # E, sorted
    stages: tuple[int, ...]         # θ(names[i]) = stages[i]
    __hash__ = _Hashed.__hash__
    _fields = attrgetter("names", "stages")

    def theta(self, name: str) -> int:
        return self.stages[self.names.index(name)]

    def add_clock(self, name: str, stage: int) -> "TimeObj":
        assert name not in self.names
        pairs = sorted(zip(self.names + (name,), self.stages + (stage,)))
        return TimeObj(tuple(n for n, _ in pairs),
                       tuple(s for _, s in pairs))


@dataclass(frozen=True, slots=True)
class ElObj(_Hashed):
    """Object of the category of elements of Clk: a time object with a
    marked clock."""
    time: TimeObj
    clock: str
    __hash__ = _Hashed.__hash__
    _fields = attrgetter("time", "clock")


@dataclass(frozen=True, slots=True)
class TimeMor(_Hashed):
    src: object       # TimeObj or ElObj
    dst: object
    sigma: tuple[tuple[str, str], ...]    # graph of σ, sorted by source
    __hash__ = _Hashed.__hash__
    _fields = attrgetter("src", "dst", "sigma")

    def apply(self, name: str) -> str:
        for a, b in self.sigma:
            if a == name:
                return b
        raise KeyError(name)


def _time_of(o) -> TimeObj:
    return o.time if isinstance(o, ElObj) else o


def _id_sigma(o) -> tuple[tuple[str, str], ...]:
    return tuple((n, n) for n in _time_of(o).names)


@dataclass
class FinCategory:
    objects: tuple
    morphisms: tuple          # all TimeMors
    kind: str                 # "time" | "slice"

    def identity(self, o) -> TimeMor:
        return self.morphisms[self.mor_id[TimeMor(o, o, _id_sigma(o))]]

    def compose(self, g: TimeMor, f: TimeMor) -> TimeMor:
        """g ∘ f for f : A → B, g : B → C."""
        assert f.dst == g.src
        return TimeMor(f.src, g.dst,
                       tuple((a, g.apply(b)) for a, b in f.sigma))

    # -- dense ids and the tables over them (built on first use) ------------

    @cached_property
    def obj_id(self) -> dict:
        return {o: i for i, o in enumerate(self.objects)}

    @cached_property
    def mor_id(self) -> dict:
        return {m: i for i, m in enumerate(self.morphisms)}

    @cached_property
    def dst_ids(self) -> tuple[int, ...]:
        obj_id = self.obj_id
        return tuple(obj_id[m.dst] for m in self.morphisms)

    @cached_property
    def succ(self) -> tuple[tuple[int, ...], ...]:
        rows: dict = {o: [] for o in self.objects}
        for j, m in enumerate(self.morphisms):
            rows[m.src].append(j)
        return tuple(map(tuple, rows.values()))

    @cached_property
    def out(self) -> tuple[tuple[int, ...], ...]:
        keys = [obj_key(o) for o in self.objects]
        mors, dst = self.morphisms, self.dst_ids
        return tuple(tuple(sorted(row, key=lambda j: (keys[dst[j]],
                                                      mors[j].sigma)))
                     for row in self.succ)

    @cached_property
    def pos(self) -> dict:
        """The place of each morphism id in the out-list of its source."""
        return {j: i for row in self.out for i, j in enumerate(row)}

    @cached_property
    def key_id(self) -> dict:
        """Morphism ids, in order, by key: (source id, target id, positions
        of the images among the target's names)."""
        obj_id = self.obj_id
        return {(obj_id[m.src], d, tuple(_time_of(m.dst).names.index(b)
                                         for _, b in m.sigma)): j
                for j, (m, d) in enumerate(zip(self.morphisms, self.dst_ids))}

    def _composites(self, outs) -> tuple[tuple[int, ...], ...]:
        """Per morphism f, the ids of g∘f for g in outs[dst f]."""
        key_id = self.key_id
        keys = tuple(key_id)
        return tuple(
            tuple(key_id[s, keys[g][1], tuple([keys[g][2][i] for i in img])]
                  for g in outs[d])
            for s, d, img in keys)

    @cached_property
    def table(self) -> tuple[tuple[int, ...], ...]:
        return self._composites(self.succ)

    @cached_property
    def gens(self) -> tuple[tuple[int, ...], ...]:
        top = max((s for o in self.objects for s in _time_of(o).stages),
                  default=0)
        return tuple(tuple(j for j in row
                           if _is_generator(self.morphisms[j], top))
                     for row in self.succ)

    @cached_property
    def gen_table(self) -> tuple[tuple[int, ...], ...]:
        return self._composites(self.gens)

    @cached_property
    def stage_shift(self) -> tuple[tuple, tuple, tuple]:
        """(chains, downs, shifted) for a slice category: chains[o] lists
        the ids of object o with its marked clock at stages 0, 1, …;
        downs[o] is the id of the identity-σ morphism from o to the same
        object one stage lower (None at stage 0); shifted[m] lists, for
        β = 0 … θ(marked clock of dst m), the id of the morphism with m's
        σ between m's ends with their marked clocks at stage β."""
        assert self.kind == "slice"
        stage, groups = [], {}
        for i, o in enumerate(self.objects):
            t = o.time
            k = t.names.index(o.clock)
            stage.append(t.stages[k])
            groups.setdefault(
                (t.names, t.stages[:k] + t.stages[k + 1:], o.clock),
                {})[t.stages[k]] = i
        chains: list = [None] * len(self.objects)
        for by_stage in groups.values():
            chain = tuple(by_stage[a] for a in range(len(by_stage)))
            for i in chain:
                chains[i] = chain
        # morphisms that differ only in their marked stages, by those stages
        obj_id, dst = self.obj_id, self.dst_ids
        by_ends: dict = {}
        for j, m in enumerate(self.morphisms):
            s, d = obj_id[m.src], dst[j]
            by_ends.setdefault((chains[s], chains[d], m.sigma),
                               {})[stage[s], stage[d]] = j
        downs = tuple(None if stage[i] == 0 else by_ends[
            chains[i], chains[i], _id_sigma(o)][stage[i], stage[i] - 1]
            for i, o in enumerate(self.objects))
        shifted = tuple(
            tuple(by_ends[chains[obj_id[m.src]], chains[dst[j]], m.sigma][b, b]
                  for b in range(stage[dst[j]] + 1))
            for j, m in enumerate(self.morphisms))
        return tuple(chains), downs, shifted


def pool_names(pool: int) -> tuple[str, ...]:
    return tuple(f"l{i}" for i in range(pool))


def enumerate_category(pool: int, bound: int) -> FinCategory:
    """All objects and morphisms of the truncated time category with clock
    pool size `pool` and stages below `bound`."""
    if pool < 1 or bound < 2:
        raise ValueError("need pool >= 1 and bound >= 2")
    names = pool_names(pool)
    objects = []
    for r in range(pool + 1):
        for sub in itertools.combinations(names, r):
            for stages in itertools.product(range(bound), repeat=r):
                objects.append(TimeObj(sub, stages))
    morphisms = [m for a in objects for b in objects
                 for m in _homs(a, b)]
    return FinCategory(tuple(objects), tuple(morphisms), "time")


def _homs(a: TimeObj, b: TimeObj):
    # admissible images in the order of b's names: lexicographic output
    admissible = [[y for y, t in zip(b.names, b.stages) if t <= s]
                  for s in a.stages]
    for images in itertools.product(*admissible):
        yield TimeMor(a, b, tuple(zip(a.names, images)))


def _is_generator(m: TimeMor, top: int) -> bool:
    """Whether m is a stage decrement (identity σ, one clock lowered by 1),
    a merge (one clock sent to another, at the lower of their stages), a
    bijective rename carrying the stages, or an add of one clock at top."""
    a, b = _time_of(m.src), _time_of(m.dst)
    moved = sum(x != y for x, y in m.sigma)
    if not moved:
        if b.names == a.names:
            return sum(a.stages) - sum(b.stages) == 1
        new = set(b.names).difference(a.names)
        return len(new) == 1 and b == a.add_clock(new.pop(), top)
    low: dict = {}      # each image at the least stage of its preimages
    for (_, y), s in zip(m.sigma, a.stages):
        low[y] = min(s, low.get(y, s))
    names = tuple(sorted(low))
    return (moved == 1 or len(low) == len(a.names)) and \
        b == TimeObj(names, tuple(low[y] for y in names))


def slice_category(t: FinCategory) -> FinCategory:
    """Category of elements of the presheaf Clk (fiber E): objects gain a
    marked clock, morphisms must map it to the target's marked clock."""
    objects = tuple(ElObj(o, n) for o in t.objects for n in o.names)
    marked = {(o.time, o.clock): o for o in objects}
    morphisms = []
    for m in t.morphisms:
        for n, img in m.sigma:
            morphisms.append(TimeMor(marked[m.src, n], marked[m.dst, img],
                                     m.sigma))
    return FinCategory(objects, tuple(morphisms), "slice")


def obj_key(o):
    t = _time_of(o)
    k = (len(t.names), t.names, t.stages)
    return k + (o.clock,) if isinstance(o, ElObj) else k


def mor_key(m: TimeMor):
    return (obj_key(m.src), obj_key(m.dst), m.sigma)
