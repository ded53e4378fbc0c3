"""Finite presheaf model over the truncated time category."""
import functools
import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from clott.coalgebra import parse_functor
from clott.model import (CheckOutcome, FreshClockExhausted, MArrow, MClk,
                         MEq, MExists, MFin, MForall, MForallFam, MLater, MMu, MProd,
                         MSum, MTop, Model, ElObj, Psh, TimeMor, TimeObj,
                         align, arrow, check_forall_prod_dist,
                         check_forall_sum_dist,
                         check_force, check_functoriality, check_invariance,
                         clk_psh, const_psh, coproduct, enumerate_category,
                         eval_type, exists_forall_experiment, forall_clk,
                         later, mor_key, mu, obj_key, product, restrict_to,
                         slice_category, unique_exists_check, weaken)
from clott.coalgebra import functor_eval
from clott.model.presheaf import _chain_limit
from clott.theories import Budget

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
    for o in cat.objects:
        i = cat.identity(o)
        assert i.src == o and i.dst == o
    for g, f in composable_pairs(cat):
        gf = cat.compose(g, f)
        assert gf in cat.morphisms


def test_slice_category_preserves_marked_clock():
    cat = enumerate_category(2, 2)
    sl = slice_category(cat)
    for m in sl.morphisms:
        assert m.apply(m.src.clock) == m.dst.clock


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
        mors = cat.morphisms
        walked = ((mors[g], f, mors[gf])
                  for fi, f in enumerate(mors)
                  for g, gf in zip(cat.succ[cat.dst_ids[fi]], cat.table[fi]))
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
        assert reached | {cat.identity(o) for o in cat.objects} == set(mors)


@pytest.mark.parametrize("pool,bound", GRID)
def test_ids_and_out_lists(pool, bound):
    for cat in _categories(pool, bound):
        for i, o in enumerate(cat.objects):
            assert cat.obj_id[o] == i
            out = sorted((m for m in cat.morphisms if m.src == o),
                         key=mor_key)
            assert [cat.morphisms[j] for j in cat.out[i]] == out
            assert [cat.pos[j] for j in cat.out[i]] == list(range(len(out)))
            assert cat.identity(o) == _ident(o)
        for j, m in enumerate(cat.morphisms):
            assert cat.mor_id[m] == j
            assert cat.objects[cat.dst_ids[j]] == m.dst


def _at_stage(o, alpha):
    t = o.time
    return ElObj(TimeObj(t.names, tuple(
        alpha if n == o.clock else s for n, s in zip(t.names, t.stages))),
        o.clock)


@pytest.mark.parametrize("pool,bound", GRID)
def test_stage_shift_matches_construction(pool, bound):
    for cat in _categories(pool, bound)[1::2]:
        chains, downs, shifted = cat.stage_shift
        for i, o in enumerate(cat.objects):
            k = o.time.theta(o.clock)
            assert [cat.objects[c] for c in chains[i]] == \
                [_at_stage(o, a) for a in range(bound)]
            if k == 0:
                assert downs[i] is None
            else:
                assert cat.morphisms[downs[i]] == TimeMor(
                    o, _at_stage(o, k - 1), _ident(o).sigma)
        for j, m in enumerate(cat.morphisms):
            k2 = m.dst.time.theta(m.dst.clock)
            assert [cat.morphisms[s] for s in shifted[j]] == [
                TimeMor(_at_stage(m.src, b), _at_stage(m.dst, b), m.sigma)
                for b in range(k2 + 1)]


def _reference_functoriality(x):
    """check_functoriality written over every composable pair and
    compose."""
    for o in x.cat.objects:
        for e in x.fib[o]:
            if x.act[_ident(o)][e] != e:
                return CheckOutcome(False, ("identity", obj_key(o), e))
    for g, f in composable_pairs(x.cat):
        gf = x.cat.compose(g, f)
        for e in x.fib[f.src]:
            if x.act[gf][e] != x.act[g][x.act[f][e]]:
                return CheckOutcome(False, ("composition", mor_key(f),
                                            mor_key(g), e))
    return CheckOutcome(True)


SMALL = {(1, 3): Model(pool=1, bound=3), (2, 2): Model(pool=2, bound=2),
         (2, 3): Model(pool=2, bound=3)}
SMALL_TYPES = [(MFin(3), False), (MClk(), False), (MClk(), True),
               (MSum(MFin(1), MClk()), True), (MLater(MFin(2)), True),
               (MProd(MFin(2), MClk()), False),
               (MMu(parse_functor("sum(const{u},id)")), True)]


@functools.cache
def _evaluated(pb, t):
    return eval_type(SMALL[pb], *SMALL_TYPES[t])


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(SMALL)), st.integers(0, len(SMALL_TYPES) - 1),
       st.booleans(), st.data())
def test_planted_error_gives_reference_counterexample(pb, t, generator,
                                                      data):
    """A wrong image planted at one morphism, a generator or not, gives
    the reference's first counterexample."""
    x = _evaluated(pb, t)
    gens = {j for row in x.cat.gens for j in row}
    m = data.draw(st.sampled_from([
        m for j, m in enumerate(x.cat.morphisms) if (j in gens) == generator
    ]))
    assume(x.fib[m.src] and len(x.fib[m.dst]) >= 2)
    e = data.draw(st.sampled_from(x.fib[m.src]))
    wrong = data.draw(st.sampled_from(
        [y for y in x.fib[m.dst] if y != x.act[m][e]]))
    act = dict(x.act)
    act[m] = {**act[m], e: wrong}
    planted = Psh(x.cat, x.fib, act)
    found = check_functoriality(planted)
    assert found == _reference_functoriality(planted)
    if m == _ident(m.src):
        assert found.counterexample[0] == "identity"


def test_functoriality_leaves_composition_table_unbuilt():
    model = Model(pool=2, bound=3)
    for x in (const_psh(model.time, (0, 1)),
              later(model, const_psh(model.slice, (0, 1)))):
        assert check_functoriality(x).ok
        assert "table" not in x.cat.__dict__
        assert "gen_table" in x.cat.__dict__


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        enumerate_category(0, 4)
    with pytest.raises(ValueError):
        enumerate_category(1, 1)


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
    out = []
    for choice in itertools.product(*pools):
        comp = {o: dict(zip(a.fib[o], images))
                for o, images in zip(objs, choice)}
        if all(comp[m.dst][a.act[m][e]] == b.act[m][comp[m.src][e]]
               for m in a.cat.morphisms for e in a.fib[m.src]):
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


def reference_mu(model, f):
    """μX.F(▷X) with fibers by reference_functor_eval and actions by
    reference_functor_map_all, one fresh fiber per object, as before
    positional plans."""
    cat = model.slice
    chains = cat.stage_shift[0]
    fib, lat_decode, lat_encode, memo = {}, {}, {}, {}

    def act(j):
        if j in memo:
            return memo[j]
        m = cat.morphisms[j]
        k2 = m.dst.time.theta(m.dst.clock)
        stage_acts = [act(s) for s in cat.stage_shift[2][j][:k2]]
        label_map = {lbl: lat_encode[m.dst][tuple(
            stage_acts[beta][fam[beta]] for beta in range(k2))]
            for lbl, fam in lat_decode[m.src].items()}
        memo[j] = reference_functor_map_all(f, label_map, fib[m.src])
        return memo[j]

    stage = [o.time.theta(o.clock) for o in cat.objects]
    for i in sorted(range(len(stage)), key=stage.__getitem__):
        o = cat.objects[i]
        families = _chain_limit(cat, fib, act, chains[i][:stage[i]])
        lat_decode[o] = dict(enumerate(families))
        lat_encode[o] = {fam: n for n, fam in enumerate(families)}
        fib[o] = reference_functor_eval(f, range(len(families)),
                                        model.budget)
    return fib, {m: act(j) for j, m in enumerate(cat.morphisms)}


@pytest.mark.parametrize("fs", ["pf(id)", "pf(prod(const{l},id))",
                                "sum(const{u},id)", "prod(const{a,b},id)",
                                "df(const{a,b})"])
@pytest.mark.parametrize("pool, bound", [(1, 2), (1, 3), (2, 3)])
def test_mu_matches_reference(fs, pool, bound):
    # every fiber and every action dict, element by element and in order
    model = Model(pool=pool, bound=bound)
    p = mu(model, parse_functor(fs))
    fib, act = reference_mu(model, parse_functor(fs))
    for o in model.slice.objects:
        assert p.fib[o] == fib[o]
    for m in model.slice.morphisms:
        assert list(p.act[m].items()) == list(act[m].items())


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
