"""Properties of the raw syntax: substitution, free names, alpha-equality."""
from dataclasses import fields

from hypothesis import given, settings
from hypothesis import strategies as st

from clott import terms as T
from clott.terms import (AOp, AVar, App, Const, Forall, Lam, Later, Pi,
                         TickAbs, Var, alg_free_vars, alpha_eq, clock_subst,
                         free_names, fresh, rename, subst, tick_subst)

from .strategies import alg_terms, clocks, names, terms, ticks


@given(terms())
def test_alpha_eq_reflexive(t):
    assert alpha_eq(t, t)


def test_alpha_eq_binders():
    assert alpha_eq(Lam("x", Var("x")), Lam("y", Var("y")))
    assert not alpha_eq(Lam("x", Var("x")), Lam("y", Var("x")))
    assert alpha_eq(Pi("x", Const("unit"), Var("x")),
                    Pi("z", Const("unit"), Var("z")))
    assert alpha_eq(TickAbs("a", "k", Var("x")),
                    TickAbs("b", "k", Var("x")))
    assert not alpha_eq(Forall("k", Later("a", "k", Const("unit"))),
                        Forall("k2", Later("a", "k", Const("unit"))))


@given(terms(), names)
def test_subst_identity_on_nonfree(t, x):
    if x not in free_names(t).vars:
        assert subst(t, x, Const("tt")) == t


@given(terms(), names)
def test_subst_removes_free_variable(t, x):
    r = subst(t, x, Const("tt"))
    assert x not in free_names(r).vars


@given(terms(), names)
def test_subst_var_for_itself_is_alpha_identity(t, x):
    assert alpha_eq(subst(t, x, Var(x)), t)


@given(terms())
def test_rename_clock_swaps_free_clocks(t):
    r = clock_subst(t, "k1", "k2")
    assert "k1" not in free_names(r).clocks


@given(terms())
def test_tick_subst_removes_free_tick(t):
    r = tick_subst(t, "a1", "a2")
    assert "a1" not in free_names(r).ticks


@given(terms())
def test_rename_preserves_alpha_class_on_fresh_targets(t):
    # renaming into entirely fresh names and back is the identity up to alpha
    there = rename(t, {"x": "x_tmp", "y": "y_tmp"})
    back = rename(there, {"x_tmp": "x", "y_tmp": "y"})
    assert alpha_eq(back, t)


def test_fresh_avoids():
    assert fresh("x", {"x"}) != "x"
    assert fresh("x", set()) == "x"
    assert fresh("x1", {"x1", "x2"}) not in {"x1", "x2"}


def test_free_names_app():
    t = App(Lam("x", Var("x")), Var("y"))
    fn = free_names(t)
    assert fn.vars == frozenset({"y"})


@given(alg_terms())
def test_alg_free_vars_subterm_monotone(t):
    if isinstance(t, AOp):
        for a in t.args:
            assert alg_free_vars(a) <= alg_free_vars(t)
    else:
        assert alg_free_vars(t) == frozenset({t.name})


# -- the traversals against their _SPEC-walking oracles --------------------------
#
# These are the generic traversals that the per-class plans replaced: they
# walk `_SPEC` afresh at every node and rebuild nodes through `fields()`.

def _reference_rebuild(t, updates):
    return type(t)(**{f.name: updates.get(f.name, getattr(t, f.name))
                      for f in fields(t)})


def reference_free_names(t) -> T.FreeNames:
    vs, cs, ts = set(), set(), set()

    def go(t, bound):
        spec = T._SPEC[type(t)]
        binder_of = {sf: f for f, role, scope in spec
                     if role in T._BIND_ROLES for sf in scope}
        for field, role, scope in spec:
            val = getattr(t, field)
            if role == T.TERM:
                if field in binder_of:
                    go(val, bound | {getattr(t, binder_of[field])})
                else:
                    go(val, bound)
            elif role == T.NAME_VAR and val not in bound:
                vs.add(val)
            elif role == T.NAME_CLOCK and val not in bound:
                cs.add(val)
            elif role == T.NAME_TICK and val not in bound:
                ts.add(val)
            elif role == T.NAMESET:
                cs.update(k for k in val if k not in bound)

    go(t, frozenset())
    return T.FreeNames(frozenset(vs), frozenset(cs), frozenset(ts))


def reference_rename(t, mapping):
    mapping = {k: v for k, v in mapping.items() if k != v}
    return _reference_rename(t, mapping) if mapping else t


def _reference_rename(t, mapping):
    spec = T._SPEC[type(t)]
    updates = {}
    scope_maps, scope_pre = {}, {}
    for field, role, scope in spec:
        if role not in T._BIND_ROLES:
            continue
        b = getattr(t, field)
        inner = {k: v for k, v in mapping.items() if k != b}
        if inner:
            scope_free = frozenset().union(
                *(reference_free_names(getattr(t, sf)).all() for sf in scope))
            inner = {k: v for k, v in inner.items() if k in scope_free}
        pre = {}
        if inner and b in inner.values():
            avoid = set(inner.values()) | set(inner.keys())
            for sf in scope:
                avoid |= reference_free_names(getattr(t, sf)).all()
            b2 = fresh(b, avoid)
            pre = {b: b2}
            updates[field] = b2
        for sf in scope:
            scope_maps[sf] = inner
            scope_pre[sf] = pre
    for field, role, scope in spec:
        val = getattr(t, field)
        if role == T.TERM:
            v = val
            if scope_pre.get(field):
                v = _reference_rename(v, scope_pre[field])
            m = scope_maps.get(field, mapping)
            if m:
                v = _reference_rename(v, m)
            if v is not val:
                updates[field] = v
        elif role in (T.NAME_VAR, T.NAME_CLOCK, T.NAME_TICK):
            if val in mapping:
                updates[field] = mapping[val]
        elif role == T.NAMESET:
            new = tuple(sorted({mapping.get(k, k) for k in val}))
            if new != val:
                updates[field] = new
    return _reference_rebuild(t, updates) if updates else t


def reference_subst(t, x, u):
    return _reference_subst(t, x, u, reference_free_names(u).all() | {x})


def _reference_subst(t, x, u, avoid):
    if isinstance(t, Var):
        return u if t.name == x else t
    spec = T._SPEC[type(t)]
    updates = {}
    skip, scope_pre = set(), {}
    for field, role, scope in spec:
        if role not in T._BIND_ROLES:
            continue
        b = getattr(t, field)
        if b == x:
            skip.update(scope)
            continue
        if b in avoid and any(x in reference_free_names(getattr(t, sf)).vars
                              for sf in scope):
            scope_free = set()
            for sf in scope:
                scope_free |= reference_free_names(getattr(t, sf)).all()
            b2 = fresh(b, avoid | scope_free)
            updates[field] = b2
            for sf in scope:
                scope_pre[sf] = {b: b2}
    for field, role, scope in spec:
        if role != T.TERM or field in skip:
            continue
        val = getattr(t, field)
        v = val
        if field in scope_pre:
            v = _reference_rename(v, scope_pre[field])
        v = _reference_subst(v, x, u, avoid)
        if v is not val:
            updates[field] = v
    return _reference_rebuild(t, updates) if updates else t


def reference_alpha_eq(t, u):
    return _reference_alpha(t, u, {}, {}, [0])


def _reference_alpha(t, u, env1, env2, counter):
    if type(t) is not type(u):
        return False
    spec = T._SPEC[type(t)]
    binder_of = {sf: f for f, role, scope in spec
                 if role in T._BIND_ROLES for sf in scope}
    for field, role, scope in spec:
        v1, v2 = getattr(t, field), getattr(u, field)
        if role == T.TERM:
            e1, e2 = env1, env2
            if field in binder_of:
                n = counter[0]
                counter[0] += 1
                e1 = {**env1, getattr(t, binder_of[field]): n}
                e2 = {**env2, getattr(u, binder_of[field]): n}
            if not _reference_alpha(v1, v2, e1, e2, counter):
                return False
        elif role in (T.NAME_VAR, T.NAME_CLOCK, T.NAME_TICK):
            if env1.get(v1, ("free", v1)) != env2.get(v2, ("free", v2)):
                return False
        elif role == T.NAMESET:
            def key(e):
                return (0, e, "") if isinstance(e, int) else (1, -1, e[1])
            if (sorted((env1.get(k, ("free", k)) for k in v1), key=key)
                    != sorted((env2.get(k, ("free", k)) for k in v2),
                              key=key)):
                return False
        elif role == T.ATOM and v1 != v2:
            return False
    return True


# Terms from `terms()` over a small variable pool (with a numbered name, so
# that freshened binders can collide with free names) that mention a free variable, tick and clock
# of the pools, under up to three binders drawn from the same pools: binders
# then shadow, and substituted terms and renaming targets hit them.
_pool = st.sampled_from(["x", "y", "y1"])
_any_name = st.one_of(_pool, clocks, ticks)
_mappings = st.dictionaries(_any_name, _any_name, max_size=3)


@st.composite
def _capture_prone(draw, body):
    t = draw(body)
    t = App(t, T.ClockApp(T.TickApp(Var(draw(_pool)), draw(ticks)),
                          draw(clocks)))
    for wrap in draw(st.lists(st.integers(0, 3), max_size=3)):
        if wrap == 0:
            t = Lam(draw(_pool), t)
        elif wrap == 1:
            t = Pi(draw(_pool), Var(draw(_pool)), t)
        elif wrap == 2:
            t = T.ClockAbs(draw(clocks), t)
        else:
            t = TickAbs(draw(ticks), draw(clocks), t)
    return t


_terms = st.one_of(terms(), _capture_prone(terms(names=_pool)))
_small_terms = _capture_prone(terms(4, names=_pool))


@settings(max_examples=200)
@given(_terms)
def test_free_names_matches_reference(t):
    assert free_names(t) == reference_free_names(t)


@settings(max_examples=200)
@given(_terms, _mappings)
def test_rename_matches_reference(t, mapping):
    assert rename(t, mapping) == reference_rename(t, mapping)


@settings(max_examples=200)
@given(_terms, _pool, _small_terms)
def test_subst_matches_reference(t, x, u):
    assert subst(t, x, u) == reference_subst(t, x, u)


def _rebind(t, rnd):
    """t with every binder renamed to a random name of its pool and no
    occurrence changed: the same shape, often another binding structure."""
    pools = {T.BIND_VAR: ["x", "y", "y1"], T.BIND_CLOCK: ["k1", "k2"],
             T.BIND_TICK: ["a1", "a2"]}
    updates = {}
    for field, role, _ in T._SPEC[type(t)]:
        if role == T.TERM:
            updates[field] = _rebind(getattr(t, field), rnd)
        elif role in pools:
            updates[field] = rnd.choice(pools[role])
    return _reference_rebuild(t, updates)


@settings(max_examples=150)
@given(_terms, _terms, _mappings, st.randoms(use_true_random=False))
def test_alpha_eq_matches_reference(t, u, mapping, rnd):
    renamed = rename(t, mapping)
    rebound = _rebind(t, rnd)
    copy = _reference_rebuild(t, {})
    for a, b in ((t, u), (t, renamed), (renamed, t), (t, rebound),
                 (rebound, t), (t, copy)):
        assert alpha_eq(a, b) == reference_alpha_eq(a, b)


def _example(cls):
    """An instance of a term class, with placeholder values by field role."""
    role = {f: r for f, r, _ in T._SPEC[cls]}
    value = {T.TERM: Var("x"), T.NAMESET: ("k2", "k1")}
    return cls(*[value.get(role[f.name], "x") for f in fields(cls)])


def test_term_nodes_are_slotted():
    for cls in T._SPEC:
        t = _example(cls)
        assert not hasattr(t, "__dict__"), cls.__name__
        values = tuple(getattr(t, f.name) for f in fields(cls))
        assert t == cls(*values) and t is not cls(*values)
        assert hash(t) == hash(values)
        assert repr(t) == (f"{cls.__name__}(" + ", ".join(
            f"{f.name}={getattr(t, f.name)!r}" for f in fields(cls)) + ")")
    assert Pi("x", Var("A"), Var("B")) != T.Sigma("x", Var("A"), Var("B"))
    assert T.Univ(("k2", "k1", "k2")).clocks == ("k1", "k2")
