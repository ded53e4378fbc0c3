"""Finite presheaf model over the truncated time category."""
import collections
import functools
import hashlib
import itertools
import operator
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from clott.coalgebra import parse_functor
from clott.model import (CheckOutcome, FreshClockExhausted, MArrow, MClk,
                         MEq, MExists, MFin, MForall, MForallFam, MLater, MMu, MProd,
                         MSum, MTop, Model, ElObj, Psh, TimeMor, TimeObj,
                         align, arrow, category_sizes, check_forall_prod_dist,
                         check_forall_sum_dist,
                         check_force, check_functoriality, check_invariance,
                         clk_psh, const_psh, coproduct, enumerate_category,
                         eval_type, exists_forall_experiment, forall_clk,
                         later, mor_key, mu, obj_key, pool_names, product,
                         restrict_to, slice_category, unique_exists_check,
                         weaken)
from clott.cli import main
from clott.coalgebra import functor_eval, functor_map_all, functor_plan
from clott.model import presheaf, timecat
from clott.model.presheaf import _chain_limit, _stagewise
from clott.model.timecat import FinCategory
from clott.report import Report
from clott.theories import Budget, BudgetExceeded, csorted

from .test_cli import run_model_suite
from .test_coalgebra import reference_functor_eval, reference_functor_map_all


MODEL = Model(pool=2, bound=4)


# -- the time category --------------------------------------------------------

def test_category_hand_counts_pool1_bound2():
    cat = enumerate_category(1, 2)
    # objects: {}, {l0 @ 0}, {l0 @ 1}; morphisms: 3 identities,
    # {}-inclusions into both singletons, and l0@1 -> l0@0
    assert len(cat.objects) == 3
    assert len(cat.morphisms) == 6


def test_category_counts_pool2_bound2():
    cat = enumerate_category(2, 2)
    # 1 empty + 2*2 singletons + 4 two-clock assignments
    assert len(cat.objects) == 9


def test_morphisms_respect_stage_order():
    cat = enumerate_category(2, 3)
    for m in cat.morphisms:
        if isinstance(m.src, TimeObj):
            for n, img in m.sigma:
                assert m.dst.theta(img) <= m.src.theta(n)


def composable_pairs(cat):
    """Oracle: every composable pair (g, f), by f's id and then g's id."""
    by_src: dict = {}
    for m in cat.morphisms:
        by_src.setdefault(m.src, []).append(m)
    for f in cat.morphisms:
        for g in by_src.get(f.dst, []):
            yield g, f


def reference_table(cat):
    """Oracle: per morphism f, the ids of g∘f for every g out of dst f in
    id order, the full composition table that `FinCategory.table` held.
    The targets and images of the composites depend only on f's target
    and images, so they are computed once per such pair."""
    mors, mor_id = cat.mors, cat.mor_id
    after: dict = {}
    rows = []
    for s, d, images in mors:
        ends = after.get((d, images))
        if ends is None:
            gs = [mors[g] for g in cat.succ[d]]
            ends = after[d, images] = (
                [e for _, e, _ in gs],
                [tuple([g_images[i] for i in images])
                 for _, _, g_images in gs])
        rows.append(tuple(map(mor_id.__getitem__,
                              zip(itertools.repeat(s), *ends))))
    return tuple(rows)


def reference_homs(a, b):
    """Oracle: every function between the clock sets, filtered by θ'∘σ ≤ θ."""
    for images in itertools.product(b.names, repeat=len(a.names)):
        if all(b.theta(img) <= a.theta(n)
               for n, img in zip(a.names, images)):
            yield TimeMor(a, b, tuple(zip(a.names, images)))


# the (pool, bound) sizes of the benchmark's model jobs
MODEL_GRID = ([(1, b) for b in range(2, 7)] + [(2, b) for b in range(2, 5)]
              + [(3, 2)])


@pytest.mark.parametrize("pool,bound", MODEL_GRID)
def test_homs_match_filtered_product(pool, bound):
    cat = enumerate_category(pool, bound)
    assert cat.morphisms == tuple(m for a in cat.objects for b in cat.objects
                                  for m in reference_homs(a, b))


def test_category_laws():
    cat = enumerate_category(1, 3)
    for k, o in enumerate(cat.objects):
        i = cat.morphisms[cat.identities[k]]
        assert i.src == o and i.dst == o
    for g, f in composable_pairs(cat):
        gf = cat.compose(g, f)
        assert gf in cat.morphisms


def test_slice_category_preserves_marked_clock():
    cat = enumerate_category(2, 2)
    sl = slice_category(cat)
    for m in sl.morphisms:
        assert dict(m.sigma)[m.src.clock] == m.dst.clock


# -- the interned category against the plain one -------------------------------

GRID = [(1, b) for b in range(2, 6)] + [(2, 2), (2, 3), (3, 2)]


def _categories(pool, bound):
    m = Model(pool=pool, bound=bound)
    return [m.time, m.slice, m.time_inner, m.slice_inner]


def _ident(o):
    return TimeMor(o, o, tuple((n, n) for n in getattr(o, "time", o).names))


@pytest.mark.parametrize("pool,bound", GRID)
def test_composition_table_matches_compose(pool, bound):
    for cat in _categories(pool, bound):
        mors, table = cat.morphisms, reference_table(cat)
        walked = ((mors[g], f, mors[gf])
                  for fi, f in enumerate(mors)
                  for g, gf in zip(cat.succ[cat.dst_ids[fi]], table[fi]))
        for (g, f, gf), pair in itertools.zip_longest(
                walked, composable_pairs(cat)):
            assert (g, f) == pair
            assert gf == cat.compose(g, f)


@pytest.mark.parametrize("pool,bound", GRID)
def test_generator_table_matches_compose(pool, bound):
    for cat in _categories(pool, bound):
        mors = cat.morphisms
        for fi, f in enumerate(mors):
            outs = cat.gens[cat.dst_ids[fi]]
            assert len(outs) == len(cat.gen_table[fi])
            for g, gf in zip(outs, cat.gen_table[fi]):
                assert mors[g].src == f.dst
                assert mors[gf] == cat.compose(mors[g], f)


@pytest.mark.parametrize("pool,bound", GRID)
def test_precomposition_table_and_factors_match_compose(pool, bound):
    for cat in _categories(pool, bound):
        mors, out = cat.morphisms, cat.out
        gens = [j for j, flag in enumerate(cat.gen_flags) if flag]
        assert [g for g, _ in cat.pre_table] == gens
        for g, places in cat.pre_table:
            s, d = cat.src_ids[g], cat.dst_ids[g]
            assert [mors[out[s][p]] for p in places] == \
                [cat.compose(mors[f], mors[g]) for f in out[d]]
        # one factorization g∘f of every other morphism, f made before it
        made = set(gens).union(cat.identities)
        for m, g, f in cat.factors:
            assert g in gens and f in made and m not in made
            assert mors[m] == cat.compose(mors[g], mors[f])
            made.add(m)
        assert made == set(range(len(mors)))


def _time_generators(cat, top):
    """The generators of the time category cat, built from their
    definition: decrements, merges, bijective renames and adds."""
    names = sorted({n for o in cat.objects for n in o.names})
    for a in cat.objects:
        ident = tuple((n, n) for n in a.names)
        for k, s in enumerate(a.stages):
            if s > 0:
                lower = a.stages[:k] + (s - 1,) + a.stages[k + 1:]
                yield TimeMor(a, TimeObj(a.names, lower), ident)
        for x in a.names:
            for y in a.names:
                if x != y:
                    kept = [(n, min(s, a.theta(x)) if n == y else s)
                            for n, s in zip(a.names, a.stages) if n != x]
                    yield TimeMor(a, TimeObj(*map(tuple, zip(*kept))),
                                  tuple((n, y if n == x else n)
                                        for n in a.names))
        for perm in itertools.permutations(names, len(a.names)):
            if perm != a.names:
                pairs = sorted(zip(perm, a.stages))
                yield TimeMor(a, TimeObj(tuple(n for n, _ in pairs),
                                         tuple(s for _, s in pairs)),
                              tuple(zip(a.names, perm)))
        for c in names:
            if c not in a.names:
                yield TimeMor(a, a.add_clock(c, top), ident)


def _underlying(m):
    """The time morphism under a slice morphism."""
    return TimeMor(getattr(m.src, "time", m.src),
                   getattr(m.dst, "time", m.dst), m.sigma)


GEN_GRID = [(1, b) for b in range(2, 6)] + [(2, b) for b in range(2, 5)] \
    + [(3, 2)]


def _is_generator(a, b, images, top):
    """Oracle: whether the time morphism a → b with these images is a
    stage decrement (identity σ, one clock lowered by 1), a merge (one
    clock sent to another, at the lower of their stages), a bijective
    rename carrying the stages, or an add of one clock at top."""
    targets = [b.names[y] for y in images]
    moved = sum(x != y for x, y in zip(a.names, targets))
    if not moved:
        if b.names == a.names:
            return sum(a.stages) - sum(b.stages) == 1
        new = set(b.names).difference(a.names)
        return len(new) == 1 and b == a.add_clock(new.pop(), top)
    low: dict = {}      # each image at the least stage of its preimages
    for y, s in zip(targets, a.stages):
        low[y] = min(s, low.get(y, s))
    names = tuple(sorted(low))
    return (moved == 1 or len(low) == len(a.names)) and \
        b == TimeObj(names, tuple(low[y] for y in names))


def _oracle_gen_flags(cat, top):
    objs = [getattr(o, "time", o) for o in cat.objects]
    return tuple(_is_generator(objs[s], objs[d], images, top)
                 for s, d, images in cat.mors)


@pytest.mark.parametrize("pool,bound", GEN_GRID)
def test_gen_flags_match_predicate_oracle(pool, bound):
    # generators built by construction are exactly the morphisms the
    # predicate accepts, in all four categories
    for cat in _categories(pool, bound):
        assert cat.gen_flags == _oracle_gen_flags(cat, bound - 1)


def test_gen_flags_match_predicate_oracle_pool3_bound3():
    cat = enumerate_category(3, 3)
    assert cat.gen_flags == _oracle_gen_flags(cat, 2)


@pytest.mark.parametrize("pool,bound", GEN_GRID)
def test_generators_generate(pool, bound):
    """Every non-identity morphism is a composite of generators, in the
    time category, its slice and both inner subcategories; and the
    generators are exactly the morphisms of the four kinds."""
    model = Model(pool=pool, bound=bound)
    built = set(_time_generators(model.time, bound - 1))
    for cat in _categories(pool, bound):
        mors = cat.morphisms
        gens = {mors[j] for row in cat.gens for j in row}
        assert {_underlying(m) for m in gens} == \
            built.intersection(map(_underlying, mors))
        out: dict = {}
        for g in gens:
            out.setdefault(g.src, []).append(g)
        reached, todo = set(gens), list(gens)
        while todo:
            f = todo.pop()
            for g in out.get(f.dst, ()):
                gf = cat.compose(g, f)
                if gf not in reached:
                    reached.add(gf)
                    todo.append(gf)
        assert reached | {mors[cat.identities[i]]
                          for i in range(len(cat.objects))} == set(mors)


@pytest.mark.parametrize("pool,bound", GRID)
def test_ids_and_out_lists(pool, bound):
    for cat in _categories(pool, bound):
        for i, o in enumerate(cat.objects):
            assert cat.obj_id[o] == i
            out = sorted((m for m in cat.morphisms if m.src == o),
                         key=mor_key)
            assert [cat.morphisms[j] for j in cat.out[i]] == out
            assert [cat.pos[j] for j in cat.out[i]] == list(range(len(out)))
            assert cat.morphisms[cat.identities[i]] == _ident(o)
        for j, m in enumerate(cat.morphisms):
            assert cat.mor_id[cat.mors[j]] == j
            assert cat.objects[cat.dst_ids[j]] == m.dst


def _non_keys(cat, s, d, images, marks):
    """Keys next to the morphism (s, d, images) of cat that name none:
    each image moved to a clock of the target at a higher stage, the
    target moved outside the category and, in a slice, onto the other
    marks of its time object (marks[d])."""
    a, b = (getattr(cat.objects[i], "time", cat.objects[i]) for i in (s, d))
    for k, t in enumerate(a.stages):
        for y, u in enumerate(b.stages):
            if u > t:
                yield s, d, images[:k] + (y,) + images[k + 1:]
    yield s, len(cat.objects), images
    yield from ((s, e, images) for e in marks[d] if e != d)


@pytest.mark.parametrize("pool,bound,inner",
                         [(p, b, True) for p, b in GRID] + [(2, 10, False)])
def test_closed_form_ids_match_enumeration(pool, bound, inner):
    # the enumerated morphisms are the oracle; the ranks come from a
    # second model whose categories never build theirs
    names = ("time", "slice", "time_inner", "slice_inner")[:4 if inner else 1]
    built = Model(pool=pool, bound=bound)
    ranked = Model(pool=pool, bound=bound)
    sizes = dict(zip(("time", "slice"), category_sizes(pool, bound)[1:]))
    for name in names:
        oracle, cat = getattr(built, name), getattr(ranked, name)
        under = cat.over[1] if cat.over else range(len(cat.objects))
        marks = [[e for e, u in enumerate(under) if u == t] for t in under]
        for j, (s, d, images) in enumerate(oracle.mors):
            assert cat.mor_index(s, d, images) == j
            for key in _non_keys(cat, s, d, images, marks):
                assert cat.mor_index(*key) is None, key
        assert cat.offsets[-1] == cat.mor_count == len(oracle.mors) == \
            sizes.get(name, len(oracle.mors))
        assert cat.intros == oracle.intros
        for row in cat.intros:
            for j, d in (p for pairs in row.values() for p in pairs):
                assert oracle.dst_ids[j] == d
        assert "mors" not in vars(cat)


def test_example4_path_builds_no_morphism():
    model = Model(pool=2, bound=10)
    x = const_psh(model.time, range(10))

    def phi(u, e):
        return u.time.theta(u.clock) <= e
    verdicts = exists_forall_experiment(model, x, phi)
    unique = unique_exists_check(model, x, phi, n=9)
    for cat in (model.time, model.time_inner, model.slice):
        assert "mors" not in vars(cat)
    assert sorted({v.witness for v in verdicts.values()}) == [9]
    assert unique["hypothesis_holds"] and unique["commutes"]


def _at_stage(o, alpha):
    t = o.time
    return ElObj(TimeObj(t.names, tuple(
        alpha if n == o.clock else s for n, s in zip(t.names, t.stages))),
        o.clock)


@pytest.mark.parametrize("pool,bound", GRID)
def test_stage_shift_matches_construction(pool, bound):
    for cat in _categories(pool, bound)[1::2]:
        # the shifts of identities and downs come before any morphism
        ident = list(map(cat.shift, cat.identities))
        down = [None if j is None else cat.shift(j) for j in cat.downs]
        assert "mors" not in cat.__dict__
        chains, downs, shifted = cat.chains, cat.downs, cat.shifted
        for i, o in enumerate(cat.objects):
            k = o.time.theta(o.clock)
            assert [cat.objects[c] for c in chains[i]] == \
                [_at_stage(o, a) for a in range(bound)]
            assert ident[i] == (i, i, shifted[cat.identities[i]])
            if k == 0:
                assert downs[i] is None
            else:
                assert cat.morphisms[downs[i]] == TimeMor(
                    o, _at_stage(o, k - 1), _ident(o).sigma)
                assert downs[i] == cat.mor_id[
                    i, chains[i][k - 1], tuple(range(len(o.time.names)))]
                assert down[i] == (i, chains[i][k - 1], shifted[downs[i]])
        for j, m in enumerate(cat.morphisms):
            k2 = m.dst.time.theta(m.dst.clock)
            assert [cat.morphisms[s] for s in shifted[j]] == [
                TimeMor(_at_stage(m.src, b), _at_stage(m.dst, b), m.sigma)
                for b in range(k2)]
            assert cat.shift(j) == (cat.src_ids[j], cat.dst_ids[j],
                                    shifted[j])


def _element_acts(x):
    """x's actions decoded to dicts element -> element, by morphism id."""
    return [dict(zip(x.fibs[s], map(x.fibs[d].__getitem__, act)))
            for (s, d, _), act in zip(x.cat.mors, x.acts)]


def _reference_functoriality(x):
    """check_functoriality written over every composable pair and
    compose, on decoded morphisms and elements."""
    act = dict(zip(x.cat.morphisms, _element_acts(x)))
    for o in x.cat.objects:
        for e in x.fib[o]:
            if act[_ident(o)][e] != e:
                return CheckOutcome(False, ("identity", obj_key(o), e))
    for g, f in composable_pairs(x.cat):
        gf = x.cat.compose(g, f)
        for e in x.fib[f.src]:
            if act[gf][e] != act[g][act[f][e]]:
                return CheckOutcome(False, ("composition", mor_key(f),
                                            mor_key(g), e))
    return CheckOutcome(True)


SMALL = {(1, 3): Model(pool=1, bound=3), (2, 2): Model(pool=2, bound=2),
         (2, 3): Model(pool=2, bound=3)}
SMALL_TYPES = [(MFin(3), False), (MClk(), False), (MClk(), True),
               (MSum(MFin(1), MClk()), True), (MLater(MFin(2)), True),
               (MProd(MFin(2), MClk()), False),
               (MMu(parse_functor("sum(const{u},id)")), True),
               (MArrow(MFin(2), MClk()), False),
               (MArrow(MSum(MFin(1), MClk()), MClk()), True)]


@functools.cache
def _evaluated(pb, t):
    return eval_type(SMALL[pb], *SMALL_TYPES[t])


def _by_kind(cat, kind):
    """The ids of the generators, the identities or the morphisms derived
    along a factorization (`FinCategory.factors`) of cat."""
    if kind == "generator":
        return [j for j, flag in enumerate(cat.gen_flags) if flag]
    if kind == "identity":
        return list(cat.identities)
    return [m for m, _, _ in cat.factors]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(SMALL)), st.integers(0, len(SMALL_TYPES) - 1),
       st.sampled_from(["generator", "identity", "derived"]), st.data())
def test_planted_error_gives_reference_counterexample(pb, t, kind, data):
    """A wrong image position planted at one morphism, a generator, an
    identity or a derived one, gives the reference's first
    counterexample, also over an exponential, whose derived actions are
    composites of others."""
    x = _evaluated(pb, t)
    ids = _by_kind(x.cat, kind)
    assume(ids)
    j = data.draw(st.sampled_from(ids))
    m = x.cat.morphisms[j]
    assume(x.fib[m.src] and len(x.fib[m.dst]) >= 2)
    p = data.draw(st.integers(0, len(x.fib[m.src]) - 1))
    wrong = data.draw(st.sampled_from(
        [y for y in range(len(x.fib[m.dst])) if y != x.acts[j][p]]))
    acts = list(x.acts)
    acts[j] = (*acts[j][:p], wrong, *acts[j][p + 1:])
    planted = Psh(x.cat, x.fibs, tuple(acts))
    found = check_functoriality(planted)
    assert found == _reference_functoriality(planted)
    if kind == "identity":
        assert found.counterexample[0] == "identity"


def _shared_inclusions():
    """Over {} -> {l0@0}, {l0@1}: one action tuple shared by both
    inclusions of the empty object, whose image is 1 in one target fiber
    and 2 in the other."""
    cat = Model(pool=1, bound=2).time
    inc = (1,)
    acts = {(0, 0, ()): (0,), (0, 1, ()): inc, (0, 2, ()): inc,
            (1, 1, (0,)): (0, 1), (2, 1, (0,)): (0, 1),
            (2, 2, (0,)): (0, 1)}
    return Psh(cat, ((1,), (0, 1), (1, 2)),
               tuple(map(acts.__getitem__, cat.mors)))


def test_functoriality_leaves_composition_table_unbuilt():
    model = Model(pool=2, bound=3)
    for x in (const_psh(model.time, (0, 1)),
              later(model, const_psh(model.slice, (0, 1))),
              _shared_inclusions()):
        assert check_functoriality(x).ok
        assert "pre_table" not in x.cat.__dict__
        assert "gen_table" in x.cat.__dict__


def test_verify_all_builds_no_full_composition_table(monkeypatch, capsys):
    # every table of composites a category builds is smaller than the
    # table of all its composable pairs
    built: dict = {}
    composites = FinCategory._composites

    def recorded(cat, ids, outs):
        rows = composites(cat, ids, outs)
        built.setdefault(cat, []).append(sum(map(len, rows)))
        return rows
    monkeypatch.setattr(FinCategory, "_composites", recorded)
    assert main(["model", "verify", "all", "--pool", "2", "--bound", "3"]) == 0
    assert len(built) >= 4
    for cat, sizes in built.items():
        pairs = sum(len(cat.succ[d]) for d in cat.dst_ids)
        assert max(sizes) < pairs
        assert not hasattr(cat, "table")


def test_clock_intro_runs_once_per_introduction_per_category(monkeypatch):
    calls: collections.Counter = collections.Counter()
    clock_intro = timecat.clock_intro

    def counted(cat, i, lam, alpha):
        calls[id(cat), i, lam, alpha] += 1
        return clock_intro(cat, i, lam, alpha)
    monkeypatch.setattr(timecat, "clock_intro", counted)
    model, rep = Model(pool=2, bound=3), Report("model verify")
    assert run_model_suite(model, "invariance", rep) == 0
    # 13 checks of invariance over the time category, the slice and the
    # inner time category
    assert len(rep.checks) == 13
    assert len({cat for cat, *_ in calls}) == 3
    assert set(calls.values()) == {1}


def test_arrow_pairs_counted_before_any_is_built(monkeypatch):
    # over the time category at (2, 2): as many generator-precomposition
    # pairs as the generator oracle and the out-lists give, refused one
    # below that before a composite or a family is made
    cat = Model(pool=2, bound=2).time
    out = collections.Counter(m.src for m in cat.morphisms)
    count = sum(out[m.dst] for m, flag in zip(
        cat.morphisms, _oracle_gen_flags(cat, 1)) if flag)
    assert count == 276
    a, b = const_psh(cat, (0, 1)), const_psh(cat, ("x",))
    assert arrow(a, b, Budget(max_elements=count)).fibs
    fresh = Model(pool=2, bound=2).time

    def unreachable(*args):
        raise AssertionError("built before the budget was checked")
    monkeypatch.setattr(FinCategory, "_composites", unreachable)
    monkeypatch.setattr(presheaf, "_nats_at", unreachable)
    with pytest.raises(BudgetExceeded,
                       match=f"needs {count} generator-precomposition "
                             f"pairs, over the max_elements budget "
                             f"{count - 1}"):
        arrow(const_psh(fresh, (0, 1)), const_psh(fresh, ("x",)),
              Budget(max_elements=count - 1))
    assert "pre_table" not in vars(fresh)


def test_time_only_jobs_leave_slice_unbuilt():
    # the witness sweep and eval_type over the time category read neither
    # the slice nor its inner subcategory
    model = Model(pool=2, bound=4)
    exists_forall_experiment(model, const_psh(model.time, (0, 1, 2, 3)),
                             lambda u, e: u.time.theta(u.clock) <= e)
    assert "slice" not in vars(model) and "slice_inner" not in vars(model)
    model = Model(pool=2, bound=4)
    eval_type(model, MArrow(MFin(1), MFin(2)))
    assert "slice" not in vars(model) and "slice_inner" not in vars(model)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        enumerate_category(0, 4)
    with pytest.raises(ValueError):
        enumerate_category(1, 1)


# -- the integer encoding against the object-based constructions --------------

def reference_enumerate_category(pool, bound):
    """Oracle: the objects and TimeMors of the time category, built from
    the definition."""
    objects = [TimeObj(sub, stages) for r in range(pool + 1)
               for sub in itertools.combinations(pool_names(pool), r)
               for stages in itertools.product(range(bound), repeat=r)]
    return objects, [m for a in objects for b in objects
                     for m in reference_homs(a, b)]


def reference_slice_category(objects, morphisms):
    """Oracle: the category of elements of Clk over the objects and
    morphisms of a time category."""
    return ([ElObj(o, n) for o in objects for n in o.names],
            [TimeMor(ElObj(m.src, n), ElObj(m.dst, img), m.sigma)
             for m in morphisms for n, img in m.sigma])


def reference_full_subcat(objects, morphisms, keep):
    objs = [o for o in objects if keep(o)]
    kept = set(objs)
    return objs, [m for m in morphisms if m.src in kept and m.dst in kept]


def reference_categories(pool, bound):
    """The time category, its slice and both inner subcategories, as
    (objects, morphisms) in the order of Model's categories."""
    time_ = reference_enumerate_category(pool, bound)
    slc = reference_slice_category(*time_)
    return [time_, slc,
            reference_full_subcat(*time_, lambda o: len(o.names) < pool),
            reference_full_subcat(*slc, lambda o: len(o.time.names) < pool)]


def _compose(g, f):
    image = dict(g.sigma)
    return TimeMor(f.src, g.dst, tuple((a, image[b]) for a, b in f.sigma))


def reference_tables(objects, morphisms, generators):
    """succ, out, table, gens and gen_table of the old object-based
    FinCategory: out-lists by source, composites by composition of
    decoded morphisms, generators by their underlying time morphism."""
    mor_id = {m: j for j, m in enumerate(morphisms)}
    by_src = {o: [] for o in objects}
    for j, m in enumerate(morphisms):
        by_src[m.src].append(j)
    succ = list(by_src.values())
    out = [sorted(row, key=lambda j: mor_key(morphisms[j])) for row in succ]
    gens = [[j for j in row if _underlying(morphisms[j]) in generators]
            for row in succ]
    obj_id = {o: i for i, o in enumerate(objects)}

    def composites(outs):
        return [[mor_id[_compose(morphisms[g], f)]
                 for g in outs[obj_id[f.dst]]] for f in morphisms]
    return succ, out, composites(succ), gens, composites(gens)


def reference_fresh_tops(model):
    """The old fresh_tops: the fresh clock added at the top stage and
    marked, looked up as objects and TimeMors."""
    top = model.bound - 1
    obj_id = {o: i for i, o in enumerate(model.slice.objects)}
    mor_id = {m: j for j, m in enumerate(model.slice.morphisms)}
    fresh = {o: model.fresh_clock(o) for o in model.time_inner.objects}

    def marked(o):
        return ElObj(o.add_clock(fresh[o], top), fresh[o])
    return (tuple(obj_id[marked(o)] for o in model.time_inner.objects),
            tuple(mor_id[TimeMor(marked(m.src), marked(m.dst), tuple(sorted(
                m.sigma + ((fresh[m.src], fresh[m.dst]),))))]
                for m in model.time_inner.morphisms))


REFERENCE_GRID = [(1, b) for b in range(2, 6)] + \
    [(2, b) for b in range(2, 5)] + [(3, 2)]


@pytest.mark.parametrize("pool,bound", REFERENCE_GRID)
def test_integer_categories_match_reference(pool, bound):
    model = Model(pool=pool, bound=bound)
    generators = set(_time_generators(model.time, bound - 1))
    for cat, (objects, morphisms) in zip(
            _categories(pool, bound), reference_categories(pool, bound)):
        assert list(cat.objects) == objects
        assert list(cat.morphisms) == morphisms
        succ, out, table, gens, gen_table = reference_tables(
            objects, morphisms, generators)
        assert list(map(list, cat.succ)) == succ
        assert list(map(list, cat.out)) == out
        assert list(map(list, cat.gens)) == gens
        assert list(map(list, cat.gen_table)) == gen_table
        assert list(map(list, reference_table(cat))) == table
    assert (model.fresh_top_objs, model.fresh_top_mors) == \
        reference_fresh_tops(model)


@pytest.mark.parametrize("pool,bound", [(1, 2), (2, 3), (2, 10), (3, 2),
                                        (3, 3)])
def test_category_sizes_closed_form(pool, bound):
    model = Model(pool=pool, bound=bound)
    assert category_sizes(pool, bound) == (
        len(model.time.objects), len(model.time.mors), len(model.slice.mors))


def test_oversized_category_refused_before_enumeration():
    start = time.monotonic()
    # 59,049 objects and far more slice morphisms
    with pytest.raises(BudgetExceeded, match="59049 objects"):
        Model(pool=5, bound=8)
    with pytest.raises(BudgetExceeded, match="max_elements budget"):
        Model(pool=40, bound=1000)
    assert time.monotonic() - start < 2
    # (2, 4) has 25 objects and 1,200 slice morphisms
    with pytest.raises(BudgetExceeded, match="1200 slice morphisms"):
        Model(pool=2, bound=4, budget=Budget(max_elements=1199))
    Model(pool=2, bound=4, budget=Budget(max_elements=1200))
    with pytest.raises(BudgetExceeded, match=r"5\^2 objects"):
        Model(pool=2, bound=4, budget=Budget(max_elements=24))
    with pytest.raises(ValueError):
        Model(pool=0, bound=4)


def test_boundary_mappings():
    """What readers outside the model rely on: fibers by object and
    decoded morphisms."""
    model = Model(pool=1, bound=3)
    p = mu(model, parse_functor("sum(const{u},id)"))
    cat = model.slice
    assert [p.fib[o] for o in cat.objects] == list(p.fibs)
    assert list(p.fib.values()) == list(p.fibs)
    with pytest.raises(TypeError):
        p.fib[cat.objects[0]] = ()
    for j, (s, d, images) in enumerate(cat.mors):
        m = cat.morphisms[j]
        assert m == cat.decode(j)
        assert (m.src, m.dst) == (cat.objects[s], cat.objects[d])
        assert m.sigma == tuple(zip(m.src.time.names, (
            m.dst.time.names[y] for y in images)))


def _digest(p):
    """Fibers by object key and actions by morphism key, in order, each
    action decoded to its pairs (element, image)."""
    h = hashlib.sha256()
    for o in p.cat.objects:
        h.update(repr((obj_key(o), p.fib[o])).encode())
    for m, act in zip(p.cat.morphisms, _element_acts(p)):
        h.update(repr((mor_key(m), list(act.items()))).encode())
    return h.hexdigest()[:16]


def _type_expr(e):
    if e[0] == "fin":
        return MFin(e[1])
    return {"prod": MProd, "sum": MSum, "arrow": MArrow, "later": MLater,
            "forall": MForall}[e[0]](*map(_type_expr, e[1:]))


_F1, _F2 = ["fin", 1], ["fin", 2]
# The closed types of the benchmark's type catalogue, in both operand
# orders, at pool 2 and bound 3, with whether they are evaluated over the
# slice; and the digests of their fibers and actions as the object-keyed
# presheaves computed them.
CATALOGUE = [
    (["prod", _F2, _F2], False, "30d03da0be5f0fb3"),
    (["sum", _F2, _F2], False, "3dd5d7c5bc7a2037"),
    (["later", _F1], True, "705ec17e83d9e2be"),
    (["arrow", _F1, _F1], False, "2791eed89965714d"),
    (["sum", ["sum", _F1, _F1], _F2], False, "808374b5c1c53fe0"),
    (["sum", _F2, ["sum", _F1, _F1]], False, "c5ea6830db77802d"),
    (["prod", ["sum", _F1, _F1], _F2], False, "628671484dd81fe1"),
    (["prod", _F2, ["sum", _F1, _F1]], False, "ee729388e65bc9f1"),
    (["forall", _F2], False, "eb9db7bea19a4030"),
    (["forall", ["later", _F2]], False, "38d3bb7ee75428e0"),
    (["later", _F2], True, "2fca7a81d7707062"),
    (["arrow", _F1, _F2], False, "880ee5c4c37d14a4"),
    (["prod", ["later", _F1], _F2], True, "44b4257df28cbfb0"),
    (["prod", _F2, ["later", _F1]], True, "8b76913d8f4a42b7"),
    (["forall", ["prod", _F2, _F2]], False, "5c7a325f03071046"),
]


@pytest.mark.parametrize("expr,sliced,digest", CATALOGUE,
                         ids=[repr(c[0]) for c in CATALOGUE])
def test_catalogue_fibers_and_actions_unchanged(expr, sliced, digest):
    p = eval_type(SMALL[2, 3], _type_expr(expr), slice_=sliced)
    assert _digest(p) == digest


# The benchmark's guarded fixpoints at pool 1, and fixpoints at pool 2,
# where objects whose marked chains meet equal fibers share them, with the
# digests of the object-keyed presheaves: (functor, bound, digest[, pool]).
MU_DIGESTS = [("pf(id)", 4, "78d168e56eb52f4c"),
              ("pf(prod(const{l},id))", 3, "63a96af0f7195af3"),
              ("pf(id)", 3, "2f56829220099adb"),
              ("sum(const{u},id)", 4, "310b06c42fe2b324"),
              ("sum(const{u},id)", 6, "dd1913bd30e68b27"),
              ("prod(const{a,b},id)", 4, "7d5ccbe5b66d1941"),
              ("prod(const{a,b},id)", 6, "371df0d4c3285fd3"),
              ("df(const{a,b})", 4, "b9d6ecf818ac49b4"),
              ("sum(const{u},id)", 4, "4634c7e4fc7e4081", 2),
              ("sum(const{u},id)", 6, "8ea6debc55f64dc0", 2),
              ("pf(id)", 3, "4a3b9d7a44047ef5", 2),
              ("prod(const{a,b},id)", 4, "f2e6a9c17c89c997", 2)]


@pytest.mark.parametrize("fs,bound,digest,pool",
                         [(*row, 1)[:4] for row in MU_DIGESTS],
                         ids=["-".join(map(str, row)) for row in MU_DIGESTS])
def test_mu_fibers_and_actions_unchanged(fs, bound, digest, pool):
    assert _digest(mu(Model(pool=pool, bound=bound), parse_functor(fs))) == \
        digest


# -- presheaf constructions ----------------------------------------------------

def test_const_psh_functorial_and_invariant():
    x = const_psh(MODEL.time, (0, 1, 2))
    assert check_functoriality(x).ok
    assert check_invariance(MODEL, x).ok


def test_clk_fails_invariance():
    bad = check_invariance(MODEL, clk_psh(MODEL.time))
    assert not bad.ok and bad.counterexample is not None


def test_product_coproduct_fiber_counts():
    a = const_psh(MODEL.time, (0, 1))
    b = const_psh(MODEL.time, ("x", "y", "z"))
    p, s = product(a, b), coproduct(a, b)
    for o in MODEL.time.objects:
        assert len(p.fib[o]) == len(a.fib[o]) * len(b.fib[o])
        assert len(s.fib[o]) == len(a.fib[o]) + len(b.fib[o])
    assert check_functoriality(p).ok and check_functoriality(s).ok


def _brute_nats(a, b):
    """Oracle: all natural families a => b by direct enumeration."""
    objs = list(a.cat.objects)
    pools = [list(itertools.product(b.fib[o], repeat=len(a.fib[o])))
             for o in objs]
    acts = list(zip(a.cat.morphisms, _element_acts(a), _element_acts(b)))
    out = []
    for choice in itertools.product(*pools):
        comp = {o: dict(zip(a.fib[o], images))
                for o, images in zip(objs, choice)}
        if all(comp[m.dst][act_a[e]] == act_b[comp[m.src][e]]
               for m, act_a, act_b in acts
               for e in a.fib[m.src]):
            out.append(comp)
    return out


def test_arrow_fibers_match_brute_force_oracle():
    small = Model(pool=1, bound=2)
    a = const_psh(small.time, (0, 1))
    b = const_psh(small.time, ("x", "y"))
    h = arrow(a, b)
    # the fiber at o is the set of natural families on the coslice under o;
    # at the initial object (empty clock set) that is every natural
    # transformation a => b
    empty = TimeObj((), ())
    assert len(h.fib[empty]) == len(_brute_nats(a, b))
    assert check_functoriality(h).ok


def reference_nats_at(c, a, b):
    """The fiber of B^A at object c as `arrow` built it before positional
    actions: a search over elements that propagates naturality along
    every morphism (the full composition table), sorted with canon_key."""
    cat = a.cat
    succ, table, pos, dst = cat.succ, reference_table(cat), cat.pos, \
        cat.dst_ids
    a_act, b_act = _element_acts(a), _element_acts(b)
    mors = cat.out[c]
    dsts = [dst[f] for f in mors]
    variables = [(i, x) for i, d in enumerate(dsts) for x in a.fibs[d]]

    def propagate(assign, queue):
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
        for v in variables:
            if v not in assign:
                i, x = v
                for y in b.fibs[dsts[i]]:
                    trial = dict(assign)
                    trial[v] = y
                    if propagate(trial, [(v, y)]):
                        search(trial)
                return
        results.append(("nat", tuple(
            tuple(assign[(i, x)] for x in a.fibs[d])
            for i, d in enumerate(dsts))))

    search({})
    return tuple(csorted(set(results)))


# the arrow types of CATALOGUE at (pool, bound) (2, 3) and (3, 2), and two
# whose operands act non-trivially at (2, 3)
ARROWS = [(_type_expr(e[1]), _type_expr(e[2]), pb)
          for pb in ((2, 3), (3, 2)) for e, _, _ in CATALOGUE
          if e[0] == "arrow"] + [
    (MClk(), MClk(), (2, 3)), (MSum(MClk(), MFin(1)), MClk(), (2, 3))]


@pytest.mark.parametrize("dom,cod,pb", ARROWS)
def test_arrow_generator_search_matches_full_table_oracle(dom, cod, pb):
    # propagating naturality along generators only finds the natural
    # families that propagating it along every morphism finds
    model = SMALL.get(pb) or Model(*pb)
    a, b = eval_type(model, dom), eval_type(model, cod)
    h = arrow(a, b)
    assert [reference_nats_at(c, a, b) for c in range(len(h.fibs))] == \
        list(h.fibs)


def test_later_shifts_stages():
    x = const_psh(MODEL.slice, (0, 1, 2))
    lx = later(MODEL, x)
    for o in MODEL.slice.objects:
        k = o.time.theta(o.clock)
        assert len(lx.fib[o]) == (1 if k == 0 else 3)
    assert check_functoriality(lx).ok


def test_forall_requires_full_slice():
    inner = const_psh(MODEL.slice_inner, (0, 1))
    with pytest.raises(FreshClockExhausted):
        forall_clk(MODEL, inner)


def test_forall_constant_is_constant():
    x = const_psh(MODEL.slice, (0, 1))
    fx = forall_clk(MODEL, x)
    assert all(len(fx.fib[o]) == 2 for o in fx.cat.objects)
    assert check_functoriality(fx).ok


def test_weaken_moves_time_to_slice():
    x = const_psh(MODEL.time, (0, 1))
    w = weaken(MODEL, x)
    assert w.cat is MODEL.slice
    for o in MODEL.slice.objects:
        assert len(w.fib[o]) == len(x.fib[o.time])
    assert check_functoriality(w).ok


def test_restrict_and_align():
    x = const_psh(MODEL.time, (0, 1))
    r = restrict_to(x, MODEL.time_inner)
    assert r.cat is MODEL.time_inner
    y = const_psh(MODEL.time_inner, ("a",))
    a2, b2 = align(x, y)
    assert a2.cat is b2.cat is MODEL.time_inner


# -- eval_type corpus ---------------------------------------------------------

CORPUS = [
    ("fin", MFin(3), False),
    ("prod", MProd(MFin(2), MFin(2)), False),
    ("sum", MSum(MFin(1), MFin(2)), False),
    ("arrow", MArrow(MFin(2), MFin(2)), False),
    ("forall-later", MForall(MLater(MFin(2))), False),
    ("later", MLater(MFin(2)), True),
    ("mu", MMu(parse_functor("sum(const{u},id)")), True),
    ("eq", MEq(MFin(2)), False),
    ("top", MTop(), False),
    ("exists", MExists(MFin(3), lambda o, e: e >= 1), False),
    ("forall-fam", MForallFam(MFin(2), lambda o, e: True), False),
]


@pytest.mark.parametrize("name,expr,sliced", CORPUS,
                         ids=[c[0] for c in CORPUS])
def test_eval_type_functorial_and_invariant(name, expr, sliced):
    psh = eval_type(MODEL, expr, slice_=sliced)
    assert check_functoriality(psh).ok
    assert check_invariance(MODEL, psh).ok


def test_later_and_mu_require_slice():
    with pytest.raises(Exception):
        eval_type(MODEL, MLater(MFin(2)), slice_=False)


def test_prop_fibers_are_subsingletons():
    psh = eval_type(MODEL, MExists(MFin(3), lambda o, e: e >= 1))
    for o in psh.cat.objects:
        assert len(psh.fib[o]) <= 1


# -- distribution of clock quantification -------------------------------------

def test_forall_distributes_over_sum_and_product():
    a = const_psh(MODEL.slice, (0, 1))
    b = const_psh(MODEL.slice, ("x", "y", "z"))
    assert check_forall_sum_dist(MODEL, a, b).ok
    assert check_forall_prod_dist(MODEL, a, b).ok


# -- guarded fixpoints ---------------------------------------------------------

@pytest.mark.parametrize("fs", ["sum(const{u},id)", "prod(const{a,b},id)",
                                "pf(prod(const{l},id))"])
def test_mu_stage_law(fs):
    small = Model(pool=1, bound=4)
    f = parse_functor(fs)
    p = mu(small, f)
    sizes = {o.time.theta(o.clock): len(p.fib[o])
             for o in small.slice.objects}
    n, oracle = 1, {}
    for k in range(small.bound):
        n = len(functor_eval(f, range(n), Budget()))
        oracle[k] = n
    assert sizes == oracle
    assert check_functoriality(p).ok


def reference_chain_limit(cat, fib, act, chain):
    """The compatible families of elements over a chain of slice object
    ids, walked down from each top element along the dict actions
    act(morphism id), in canonical order."""
    if not chain:
        return [()]
    downs = cat.downs
    families = set()
    for x in fib[chain[-1]]:
        family = [x]
        for o in reversed(chain[1:]):
            family.append(act(downs[o])[family[-1]])
        families.add(tuple(reversed(family)))
    return csorted(families)


def reference_mu(model, f):
    """μX.F(▷X) with fibers by reference_functor_eval and actions by
    reference_functor_map_all as dicts element -> element, chain limits
    of elements, and one fresh fiber per object, as before positional
    plans and actions."""
    cat = model.slice
    chains = cat.chains
    # keyed by object and morphism id
    fib, lat_decode, lat_encode, memo = {}, {}, {}, {}

    def act(j):
        if j in memo:
            return memo[j]
        m = cat.morphisms[j]
        s, d = cat.obj_id[m.src], cat.obj_id[m.dst]
        k2 = m.dst.time.theta(m.dst.clock)
        stage_acts = [act(t) for t in cat.shifted[j][:k2]]
        label_map = {lbl: lat_encode[d][tuple(
            stage_acts[beta][fam[beta]] for beta in range(k2))]
            for lbl, fam in lat_decode[s].items()}
        memo[j] = reference_functor_map_all(f, label_map, fib[s])
        return memo[j]

    stage = [o.time.theta(o.clock) for o in cat.objects]
    for i in sorted(range(len(stage)), key=stage.__getitem__):
        families = reference_chain_limit(cat, fib, act,
                                         chains[i][:stage[i]])
        lat_decode[i] = dict(enumerate(families))
        lat_encode[i] = {fam: n for n, fam in enumerate(families)}
        fib[i] = reference_functor_eval(f, range(len(families)),
                                        model.budget)
    return fib, {j: act(j) for j in range(len(cat.mors))}


MU_FUNCTORS = ["pf(id)", "pf(prod(const{l},id))", "sum(const{u},id)",
               "prod(const{a,b},id)", "df(const{a,b})"]


# every functor up to (2, 3); at (2, 4) those whose reference takes well
# under a second (pf(prod(const{l},id)) takes minutes and pf(id) more)
@pytest.mark.parametrize("pool,bound,fs", [
    (pool, bound, fs) for pool, bound in [(1, 2), (1, 3), (2, 3)]
    for fs in MU_FUNCTORS] + [
    (2, 4, fs) for fs in ("prod(const{a,b},id)", "df(const{a,b})")])
def test_mu_matches_reference(pool, bound, fs):
    # every fiber and every action, element by element and in order
    model = Model(pool=pool, bound=bound)
    p = mu(model, parse_functor(fs))
    fib, act = reference_mu(model, parse_functor(fs))
    for i, o in enumerate(model.slice.objects):
        assert p.fib[o] == fib[i]
    for j, decoded in enumerate(_element_acts(p)):
        assert list(decoded.items()) == list(act[j].items())


# -- the per-morphism constructions, as oracles --------------------------------

def _shared(memo, f, *args):
    """f(*args), computed once per memo for arguments equal by identity;
    the arguments outlive memo, so their ids are not reused meanwhile."""
    key = (f, *map(id, args))
    out = memo.get(key)
    if out is None:
        out = memo[key] = f(*args)
    return out


def reference_pointwise(a, b, fiber, action):
    """`_pointwise` with one memo call per object and per morphism."""
    a, b = align(a, b)
    memo: dict = {}
    fibs = tuple(_shared(memo, fiber, fa, fb)
                 for fa, fb in zip(a.fibs, b.fibs))
    return Psh(a.cat, fibs, tuple(
        _shared(memo, action, act_a, act_b, a.fibs[d], b.fibs[d])
        for d, act_a, act_b in zip(a.cat.dst_ids, a.acts, b.acts)))


def reference_product(a, b):
    return reference_pointwise(
        a, b, lambda fa, fb: tuple(("pair", x, y) for x in fa for y in fb),
        lambda act_a, act_b, fa, fb: tuple(
            x * len(fb) + y for x in act_a for y in act_b))


def reference_coproduct(a, b):
    return reference_pointwise(
        a, b, lambda fa, fb: (*(("inl", x) for x in fa),
                              *(("inr", y) for y in fb)),
        lambda act_a, act_b, fa, fb: (*act_a,
                                      *(len(fa) + y for y in act_b)))


def reference_arrow(a, b, budget=None):
    """`arrow` with every action read off the full composition table."""
    budget = budget or Budget()
    a, b = align(a, b)
    cat = a.cat
    succ, table, out, pos = cat.succ, reference_table(cat), cat.out, cat.pos
    nats = [presheaf._nats_at(i, a, b, budget)
            for i in range(len(cat.objects))]
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


def _chain_key(fibs, act, downs, chain):
    """The identities of the fibers and down-actions along a chain, which
    determine its limit; they must outlive the key, like `_shared`'s."""
    return (*(id(fibs[o]) for o in chain),
            *(id(act(downs[o])) for o in chain[1:]))


def reference_limits(x, cat, chains, stage_mors):
    """`_limits` with one memo call per object and per morphism."""
    downs = x.cat.downs
    limits: dict = {}
    lims, fibs = [], []
    for chain in chains:
        fibers = [x.fibs[o] for o in chain]
        key = _chain_key(x.fibs, x.acts.__getitem__, downs, chain)
        if key not in limits:
            lim = _chain_limit(x.cat.downs, x.fibs, x.acts.__getitem__,
                               chain)
            limits[key] = lim, tuple(
                ("tup", tuple(enumerate(map(operator.getitem, fibers, fam))))
                for fam in lim[0])
        lims.append(limits[key][0])
        fibs.append(limits[key][1])
    memo: dict = {}
    return Psh(cat, tuple(fibs), tuple(
        _shared(memo, _stagewise, lims[s], lims[d],
                *map(x.acts.__getitem__, js))
        for s, d, js in zip(cat.src_ids, cat.dst_ids, stage_mors)))


def reference_later(model, x):
    cat = x.cat
    chains, shifted = cat.chains, cat.shifted
    stage = cat.marked_stage
    return reference_limits(
        x, cat, [chain[:k] for chain, k in zip(chains, stage)],
        [js[:stage[d]] for js, d in zip(shifted, cat.dst_ids)])


def reference_forall_clk(model, x):
    if x.cat is not model.slice:
        raise FreshClockExhausted(
            "clock quantification needs a presheaf over the full slice "
            "(nested quantifiers exceed the clock pool)")
    chains, shifted = x.cat.chains, x.cat.shifted
    top_objs, top_mors = model.fresh_top_objs, model.fresh_top_mors
    return reference_limits(x, model.time_inner, [chains[i] for i in top_objs],
                            [shifted[j] + (j,) for j in top_mors])


def _reference_mu_act(src, dst, src_plan, dst_plan, *stage_acts):
    label_map = _stagewise(src, dst, *stage_acts)
    if src_plan is dst_plan and label_map == tuple(range(len(label_map))):
        return tuple(range(src_plan.size))
    return tuple(functor_map_all(src_plan, dst_plan, label_map))


def reference_mu_recursive(model, f):
    """`mu` with each action made by a recursive memo call per morphism,
    in the order the objects' chain limits ask for them."""
    cat = model.slice
    chains, downs, shifted = cat.chains, cat.downs, cat.shifted
    stage = cat.marked_stage
    n_obj = len(cat.objects)
    fibs: list = [None] * n_obj
    plans: list = [None] * n_obj
    lims: list = [None] * n_obj
    acts: list = [None] * len(cat.mors)
    by_labels: dict = {}
    limits: dict = {}
    memo: dict = {}

    def act(j):
        if acts[j] is None:
            s, d = cat.src_ids[j], cat.dst_ids[j]
            acts[j] = _shared(memo, _reference_mu_act, lims[s], lims[d],
                              plans[s], plans[d],
                              *map(act, shifted[j][:stage[d]]))
        return acts[j]

    for i in sorted(range(n_obj), key=stage.__getitem__):
        chain = chains[i][:stage[i]]
        n = len(fibs[chain[-1]]) if chain else 1
        if n not in by_labels:
            plan = functor_plan(f, n, model.budget)
            by_labels[n] = (plan, plan.elements(tuple(range(n))))
        key = _chain_key(fibs, act, downs, chain)
        if key not in limits:
            limits[key] = _chain_limit(cat.downs, fibs, act, chain)
        lims[i] = limits[key]
        plans[i], fibs[i] = by_labels[n]
    return Psh(cat, tuple(fibs), tuple(map(act, range(len(cat.mors)))))


def reference_eval(model, e, slice_=False):
    """eval_type on prod, sum, arrow, later, forall and mu through the
    oracles above."""
    if isinstance(e, (MFin, MClk)):
        return eval_type(model, e, slice_)
    if isinstance(e, (MProd, MSum, MArrow)):
        build = {MProd: reference_product, MSum: reference_coproduct,
                 MArrow: functools.partial(reference_arrow,
                                           budget=model.budget)}[type(e)]
        return build(*(reference_eval(model, part, slice_)
                       for part in vars(e).values()))
    if isinstance(e, MLater):
        return reference_later(model, reference_eval(model, e.body, True))
    if isinstance(e, MForall):
        quantified = reference_forall_clk(
            model, reference_eval(model, e.body, True))
        return weaken(model, quantified) if slice_ else quantified
    return reference_mu_recursive(model, e.functor)


_DIFF_FUNCTORS = ("sum(const{u},id)", "prod(const{a,b},id)",
                  "df(const{a,b})")


@st.composite
def model_types(draw, sliced, depth=3):
    """Type expressions over fin, prod, sum, arrow, later, forall and mu;
    later and mu only where the slice clock is in scope.  Clk is a leaf
    too: objects with the same clocks share its fiber by identity, while
    its actions are all distinct."""
    kinds = ["fin", "clk"] + ["mu"] * sliced
    if depth:
        kinds += ["prod", "sum", "arrow", "forall"] + ["later"] * sliced
    kind = draw(st.sampled_from(kinds))
    if kind in ("fin", "clk"):
        return MFin(draw(st.integers(0, 2))) if kind == "fin" else MClk()
    if kind == "mu":
        return MMu(parse_functor(draw(st.sampled_from(_DIFF_FUNCTORS))))
    if kind in ("later", "forall"):
        body = draw(model_types(True, depth - 1))
        return MLater(body) if kind == "later" else MForall(body)
    if kind == "arrow":
        # a small domain keeps the natural families few
        dom = MFin(draw(st.integers(0, 2)))
        if sliced and draw(st.booleans()):
            dom = MLater(dom)
        return MArrow(dom, draw(model_types(sliced, 0)))
    cls = MProd if kind == "prod" else MSum
    return cls(draw(model_types(sliced, depth - 1)),
               draw(model_types(sliced, depth - 1)))


def _outcome(evaluate, *args):
    try:
        return evaluate(*args)
    except (BudgetExceeded, FreshClockExhausted) as exc:
        return type(exc).__name__, str(exc)


def _sharing(items):
    """Per position, the first position holding the same object."""
    first: dict = {}
    return [first.setdefault(id(item), k) for k, item in enumerate(items)]


DIFF_MODELS = {pb: Model(*pb, budget=Budget(max_elements=2000))
               for pb in [(1, 3), (2, 2), (2, 3)]}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(DIFF_MODELS)), st.booleans(), st.data())
def test_constructions_match_per_morphism_oracles(pb, sliced, data):
    # equal fibers and actions, and actions shared by identity exactly
    # where the oracles share them (_generators_commute reads the sharing)
    model = DIFF_MODELS[pb]
    expr = data.draw(model_types(sliced))
    got = _outcome(eval_type, model, expr, sliced)
    want = _outcome(reference_eval, model, expr, sliced)
    if isinstance(want, tuple):
        assert got == want
        return
    assert got.cat is want.cat
    assert got.fibs == want.fibs and got.acts == want.acts
    assert _sharing(got.acts) == _sharing(want.acts)
    assert _sharing(got.fibs) == _sharing(want.fibs)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(DIFF_MODELS)),
       st.sampled_from(["later", "forall", "mu"]), st.data())
def test_actions_read_in_any_order_match_oracles(pb, kind, data):
    # actions read one at a time, at a drawn subset of ids in a drawn
    # order, then all at once: the oracles' values and sharing
    model = DIFF_MODELS[pb]
    if kind == "mu":
        f = parse_functor(data.draw(st.sampled_from(_DIFF_FUNCTORS)))
        build, oracle, arg = mu, reference_mu_recursive, f
    else:
        arg = _outcome(eval_type, model, data.draw(model_types(True)), True)
        assume(not isinstance(arg, tuple))
        build, oracle = {"later": (later, reference_later),
                         "forall": (forall_clk, reference_forall_clk)}[kind]
    got = _outcome(build, model, arg)
    if isinstance(got, tuple):
        assert got == _outcome(oracle, model, arg)
        return
    n = got.cat.mor_count
    ids = data.draw(st.permutations(range(n)))[:data.draw(
        st.integers(0, min(n, 40)))]
    read = [got.act(j) for j in ids]
    want = oracle(model, arg)
    assert got.fibs == want.fibs
    assert read == [want.acts[j] for j in ids]
    assert got.acts == want.acts
    assert all(got.acts[j] is act for j, act in zip(ids, read))
    assert _sharing(got.acts) == _sharing(want.acts)
    assert _sharing(got.fibs) == _sharing(want.fibs)


def test_pointwise_classes_hold_the_target_fibers():
    # the shared inclusion action has targets of different sizes beside a
    # fiber of two, so the product and the sum act differently along them
    x = _shared_inclusions()
    y = const_psh(x.cat, ("a", "b"))
    for a, b in [(x, y), (y, x)]:
        for build, reference in [(product, reference_product),
                                 (coproduct, reference_coproduct)]:
            got, want = build(a, b), reference(a, b)
            assert got.fibs == want.fibs and got.acts == want.acts
            assert _sharing(got.acts) == _sharing(want.acts)
            assert check_functoriality(got).ok


@pytest.mark.parametrize("pool,bound,fs", [
    (pool, bound, fs) for pool, bound in [(1, 4), (2, 3)]
    for fs in MU_FUNCTORS])
def test_mu_matches_recursive_oracle(pool, bound, fs):
    model = Model(pool=pool, bound=bound)
    got = mu(model, parse_functor(fs))
    want = reference_mu_recursive(model, parse_functor(fs))
    assert got.fibs == want.fibs and got.acts == want.acts
    assert _sharing(got.acts) == _sharing(want.acts)
    assert _sharing(got.fibs) == _sharing(want.fibs)


# -- force ---------------------------------------------------------------------

def test_force_constant_family_iso():
    r = check_force(MODEL, const_psh(MODEL.slice, (0, 1)))
    assert r.iso and r.first_failure is None


def test_force_delay_truncation_artifact():
    delay = mu(MODEL, parse_functor("sum(const{u},id)"))
    r = check_force(MODEL, delay)
    assert not r.iso
    assert r.truncation_artifact
    assert r.first_failure is not None


@pytest.mark.parametrize("pool,bound", [(3, 2), (2, 6)])
def test_force_builds_no_morphism_table(pool, bound):
    # the force comparison reads fibers and the fresh clocks' down-actions
    # only, so neither category lists its morphisms or the shifted rows
    model = Model(pool=pool, bound=bound)
    for a in (const_psh(model.slice, (0, 1)),
              mu(model, parse_functor("sum(const{u},id)"))):
        check_force(model, a)
        assert "mors" not in model.slice.__dict__
        assert "shifted" not in model.slice.__dict__
        assert "mors" not in model.time_inner.__dict__


# -- experiments ---------------------------------------------------------------

def test_example4_witness_is_bound_minus_one():
    for n in (3, 4, 5):
        m = Model(pool=2, bound=n)
        x = const_psh(m.time, tuple(range(n)))
        vs = exists_forall_experiment(
            m, x, lambda u, e: u.time.theta(u.clock) <= e)
        assert all(v.witness == n - 1 for v in vs.values()), n
        assert all(v.lhs and v.rhs for v in vs.values())


def test_downward_closed_predicates_commute():
    two = const_psh(MODEL.time, (0, 1))
    for mask in range(4):
        keep = {e for e in (0, 1) if mask & (1 << e)}

        def phi(u, e, keep=keep):
            return e in keep or u.time.theta(u.clock) == 0
        vs = exists_forall_experiment(MODEL, two, phi)
        assert all(v.lhs == v.rhs for v in vs.values()), mask


def test_unique_exists_commutes():
    two = const_psh(MODEL.time, (0, 1))
    out = unique_exists_check(
        MODEL, two, lambda u, e: e == 1 or u.time.theta(u.clock) == 0, n=1)
    assert out["hypothesis_holds"] and out["commutes"]


def test_non_unique_witnesses_flagged():
    two = const_psh(MODEL.time, (0, 1))
    out = unique_exists_check(MODEL, two, lambda u, e: True, n=0)
    assert not out["hypothesis_holds"]
    assert out["counterexample"] is not None
