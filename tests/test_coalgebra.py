"""Functor expressions, terminal sequences, final coalgebras,
bisimilarity, and weak bisimilarity on the truncated delay monad."""
import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from clott.coalgebra import (BOT, Budget, BudgetExceeded, Coalgebra,
                             FConst, FFree, FId, FProd, FSum,
                             FunctorParseError, NotConverged, UNIT,
                             bisimilarity,
                             brute_force_bisimilarity,
                             final_coalgebra, functor_eval, functor_map,
                             functor_map_all, functor_plan,
                             now,
                             parse_coalgebra_file,
                             parse_functor, show_functor, step,
                             terminal_sequence, weak_bisim_delay)
from clott import coalgebra, theories
from clott.parser import UNCOMMENTED_RE
from clott.theories import canon_key, csorted


# -- functor expressions ------------------------------------------------------

def test_parse_show_roundtrip():
    for text in ["id", "const{a,b}", "sum(const{u}, id)",
                 "prod(const{l}, id)", "pf(prod(const{l}, id))",
                 "df(sum(const{u}, id))"]:
        f = parse_functor(text)
        assert parse_functor(show_functor(f)) == f


def test_parse_errors():
    for text in ("sum(id", "id id", "const{a b}", "const{a b c}",
                 "const{,a,,b,}", "const{a,}", "const{(}", "const{a",
                 "const{a,b,a}"):
        with pytest.raises(FunctorParseError):
            parse_functor(text)


def test_const_elements():
    assert parse_functor("const{}") == FConst(())
    assert parse_functor("const{ b1 , a_2 }") == FConst(("a_2", "b1"))


@pytest.mark.parametrize("text", [
    "id", "const{a,b}", "sum(const{u}, id)", "prod(const{a,b}, id)",
    "pf(id)", "pf(prod(const{l}, id))", "prod(pf(id), sum(id, id))",
    "df(id)", "df(prod(const{a,b}, id))", "sum(df(id), pf(id))"])
def test_functor_size_exact_without_df_else_lower_bound(text):
    f = parse_functor(text)
    for n in range(4):
        size = len(functor_eval(f, range(n)))
        if "df" in text:
            assert functor_plan(f, n, Budget()).size <= size
        else:
            assert functor_plan(f, n, Budget()).size == size


@pytest.mark.parametrize("text", ["pf(id)", "prod(id, id)",
                                  "sum(pf(id), id)", "df(id)"])
def test_functor_size_refuses_like_functor_eval(text):
    # exact sizes are refused exactly when functor_eval refuses; df only
    # once its lower bound exceeds the budget
    f = parse_functor(text)
    budget = Budget(max_elements=20)
    for n in range(8):
        try:
            predicted = functor_plan(f, n, budget).size
        except BudgetExceeded as exc:
            with pytest.raises(BudgetExceeded, match=str(exc)):
                functor_eval(f, range(n), budget)
            continue
        try:
            assert predicted <= len(functor_eval(f, range(n), budget))
        except BudgetExceeded:
            assert text == "df(id)"


def test_functor_eval_shapes():
    assert functor_eval(FId(), (0, 1)) == (0, 1)
    assert functor_eval(parse_functor("sum(const{u}, id)"), (0, 1)) == \
        (("inl", "u"), ("inr", 0), ("inr", 1))
    assert len(functor_eval(parse_functor("prod(const{a,b}, id)"),
                            (0, 1, 2))) == 6
    assert len(functor_eval(parse_functor("pf(id)"), (0, 1, 2))) == 8


FUNCTORS = [parse_functor(s) for s in
            ["id", "sum(const{u}, id)", "prod(const{a,b}, id)",
             "pf(prod(const{l}, id))", "df(id)"]]


@pytest.mark.parametrize("f", FUNCTORS, ids=show_functor)
def test_functor_map_identity_and_composition(f):
    base = (0, 1, 2)
    ident = {x: x for x in base}
    g = {0: "p", 1: "q", 2: "p"}
    h = {"p": 7, "q": 8}
    for v in functor_eval(f, base, Budget(max_denominator=3)):
        assert functor_map(f, ident, v) == v
        assert functor_map(f, {x: h[g[x]] for x in base}, v) == \
            functor_map(f, h, functor_map(f, g, v))


# -- carriers built element by element: the oracles of the plans ---------------

def reference_functor_eval(f, base, budget=None):
    """F(X) built element by element and sorted with canon_key at every
    node, as before positional plans (no size guards)."""
    budget = budget or Budget()
    base = tuple(csorted(base))
    if isinstance(f, FId):
        return base
    if isinstance(f, FConst):
        return f.elems
    if isinstance(f, (FProd, FSum)):
        ls = reference_functor_eval(f.left, base, budget)
        rs = reference_functor_eval(f.right, base, budget)
        if isinstance(f, FProd):
            return tuple(("pair", l, r) for l in ls for r in rs)
        return tuple([("inl", l) for l in ls] + [("inr", r) for r in rs])
    inner = reference_functor_eval(f.inner, base, budget)
    if f.theory == "semilattice":
        return tuple(csorted(("set", tuple(csorted(s)))
                             for r in range(len(inner) + 1)
                             for s in itertools.combinations(inner, r)))
    elems = set()
    for d in range(1, budget.max_denominator + 1):
        for masses in theories._compositions(d, len(inner)):
            elems.add(("dist", tuple((x, Fraction(m, d))
                                     for x, m in zip(inner, masses) if m)))
    return tuple(csorted(elems))


def reference_functor_map_all(f, fn: dict, values) -> dict:
    """F(fn) over a fiber by one compiled mapping function per node, each
    caching its results and sorting pf images with canon_key, as before
    positional plans."""
    keys: dict = {}

    def ckey(v):
        if v not in keys:
            keys[v] = canon_key(v)
        return keys[v]

    act = _reference_node_map(f, fn, ckey)
    return {v: v if act is None else act(v) for v in values}


def _reference_node_map(fx, fn: dict, ckey):
    if isinstance(fx, FId):
        return fn.__getitem__
    if isinstance(fx, FConst):
        return None
    cache: dict = {}
    if isinstance(fx, FProd):
        left = _reference_node_map(fx.left, fn, ckey)
        right = _reference_node_map(fx.right, fn, ckey)

        def act(v):
            if v not in cache:
                _, a, b = v
                cache[v] = ("pair", a if left is None else left(a),
                            b if right is None else right(b))
            return cache[v]
    elif isinstance(fx, FSum):
        sides = {"inl": _reference_node_map(fx.left, fn, ckey),
                 "inr": _reference_node_map(fx.right, fn, ckey)}

        def act(v):
            if v not in cache:
                tag, u = v
                side = sides[tag]
                cache[v] = (tag, u if side is None else side(u))
            return cache[v]
    else:
        inner = _reference_node_map(fx.inner, fn, ckey)

        def act(v):
            if v not in cache:
                if v[0] == "set":
                    mapped = set(v[1] if inner is None else map(inner, v[1]))
                    cache[v] = ("set", tuple(sorted(mapped, key=ckey)))
                else:
                    acc: dict = {}
                    for x, m in v[1]:
                        y = x if inner is None else inner(x)
                        acc[y] = acc.get(y, Fraction(0)) + m
                    cache[v] = ("dist", tuple(sorted(acc.items(), key=ckey)))
            return cache[v]
    return act


def reference_terminal_sequence(f, max_steps: int, budget=None):
    """Stages by reference_functor_eval and connectors, as dicts, by
    reference_functor_map_all and index lookups."""
    budget = budget or Budget()
    stages, indices, connectors = [(UNIT,)], [{UNIT: 0}], []
    convergence = None
    for k in range(max_steps):
        nxt = reference_functor_eval(f, range(len(stages[k])), budget)
        index = {v: i for i, v in enumerate(nxt)}
        if k == 0:
            conn = {i: 0 for i in range(len(nxt))}
        else:
            mapped = reference_functor_map_all(f, connectors[k - 1], nxt)
            conn = {index[v]: indices[k][mapped[v]] for v in nxt}
        stages.append(nxt)
        indices.append(index)
        connectors.append(conn)
        if len(nxt) == len(stages[k]) and \
                len(set(conn.values())) == len(stages[k]):
            convergence = k
            break
    return stages, connectors, convergence


# the functors of the carriers benchmark
BENCH_FUNCTORS = ["const{a,b}", "sum(const{u},id)", "prod(const{a,b},id)",
                  "pf(id)", "df(const{a,b})", "pf(prod(const{l},id))",
                  "df(prod(const{a,b},id))", "prod(const{a},id)",
                  "sum(const{a,b},const{c})", "df(const{a})"]


@pytest.mark.parametrize("text", BENCH_FUNCTORS)
def test_plan_elements_match_reference(text):
    f = parse_functor(text)
    for n in range(4):
        for base in (range(n), tuple(f"s{i}" for i in reversed(range(n))),
                     (7, 3, 11)[:n]):
            for budget in (Budget(), Budget(max_denominator=3)):
                elems = functor_eval(f, base, budget)
                assert elems == reference_functor_eval(f, base, budget)
                assert len(elems) == functor_plan(f, n, budget).size


@pytest.mark.parametrize("text", BENCH_FUNCTORS + ["df(id)",
                                                   "pf(sum(id, const{u}))"])
def test_functor_map_all_matches_functor_map_on_fixed_maps(text):
    # permutations, collapses and maps into fewer labels, which reorder
    # the members of pf and df images
    f = parse_functor(text)
    budget = Budget(max_denominator=3)
    for fn in ([2, 1, 0], [1, 0, 1], [0, 0, 0], [1, 2, 0], [1, 0]):
        k = max(fn) + 1
        src, dst = functor_plan(f, len(fn), budget), functor_plan(f, k, budget)
        xs = functor_eval(f, range(len(fn)), budget)
        ys = functor_eval(f, range(k), budget)
        assert [ys[p] for p in functor_map_all(src, dst, fn)] == \
            [functor_map(f, dict(enumerate(fn)), x) for x in xs]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_plan_elements_match_reference_random(data):
    f = data.draw(_FUNCTORS)
    n = data.draw(st.integers(0, 3))
    base = tuple(range(n)) if data.draw(st.booleans()) \
        else tuple(f"s{i}" for i in range(n))
    budget = Budget(max_elements=3000,
                    max_denominator=data.draw(st.integers(1, 4)))
    try:
        size = functor_plan(f, n, budget).size
    except BudgetExceeded:
        assume(False)
    elems = functor_eval(f, base, budget)
    assert elems == reference_functor_eval(f, base, budget)
    assert len(elems) == size


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_plain_sort_is_canonical_on_functor_elements(data):
    # one atom type per position: int or string states, string consts,
    # Fraction masses, tags first
    f = data.draw(_FUNCTORS)
    states = tuple(range(4)) if data.draw(st.booleans()) \
        else tuple(f"s{i}" for i in range(4))
    xs = [_draw_element(data, f, states)
          for _ in range(data.draw(st.integers(0, 8)))]
    assert sorted(xs) == csorted(xs)


@pytest.mark.parametrize("text", BENCH_FUNCTORS)
def test_terminal_sequence_matches_reference(text):
    f = parse_functor(text)
    # the next stage of df(prod(...)) is over the budget
    steps = 2 if text.startswith("df(prod") else 3 if "pf" in text else 4
    seq = terminal_sequence(f, steps)
    stages, connectors, convergence = reference_terminal_sequence(f, steps)
    assert seq.stages == tuple(stages)
    assert [dict(enumerate(c)) for c in seq.connectors] == connectors
    assert seq.convergence == convergence and not seq.budget_hit


@pytest.mark.parametrize("text", BENCH_FUNCTORS)
def test_terminal_sequence_decodes_stages_only_when_read(text, monkeypatch):
    # sizes, connectors and convergence come from the plans alone; each
    # stage is decoded, once, when .stages is read
    f = parse_functor(text)
    steps = 2 if text.startswith("df(prod") else 3 if "pf" in text else 4
    decoded = []
    for cls in (coalgebra._IdPlan, coalgebra._ConstPlan, coalgebra._ProdPlan,
                coalgebra._SumPlan, coalgebra._FreePlan):
        def spy(self, base, elements=cls.elements):
            decoded.append(len(base))
            return elements(self, base)
        monkeypatch.setattr(cls, "elements", spy)
    seq = terminal_sequence(f, steps)
    stages, connectors, convergence = reference_terminal_sequence(f, steps)
    assert seq.sizes() == [len(s) for s in stages]
    assert [dict(enumerate(c)) for c in seq.connectors] == connectors
    assert seq.convergence == convergence and not seq.budget_hit
    assert decoded == []
    assert seq.stages == tuple(stages)
    assert decoded
    del decoded[:]
    assert seq.stages == tuple(stages) and decoded == []


def test_terminal_sequence_builds_no_stage_element(monkeypatch):
    # the 65,536-element stage of pf(id) is counted and mapped, not built
    monkeypatch.setattr(coalgebra._FreePlan, "elements", None)
    seq = terminal_sequence(parse_functor("pf(id)"), 4)
    assert seq.sizes() == [1, 2, 4, 16, 65536]
    assert len(set(seq.connectors[-1])) == 16


# -- terminal sequences -------------------------------------------------------

def test_powerset_stage_sizes():
    # [DERIVED] |F^k(1)| for F = Pf({l} x X): 1, 2, 4, 16, 65536
    seq = terminal_sequence(parse_functor("pf(prod(const{l}, id))"), 4,
                            Budget(max_elements=200_000))
    assert [len(s) for s in seq.stages] == [1, 2, 4, 16, 65536]
    assert seq.convergence is None and not seq.budget_hit


def test_delay_stage_sizes():
    seq = terminal_sequence(parse_functor("sum(const{u}, id)"), 6)
    assert [len(s) for s in seq.stages] == [1, 2, 3, 4, 5, 6, 7]


def test_stream_stage_sizes():
    seq = terminal_sequence(parse_functor("prod(const{a,b}, id)"), 5)
    assert [len(s) for s in seq.stages] == [2 ** k for k in range(6)]


def test_constant_functor_converges_at_one():
    seq = terminal_sequence(parse_functor("const{a,b,c}"), 8)
    assert seq.convergence == 1
    assert len(seq.stages[1]) == 3


def test_connectors_cohere():
    # connector at k maps stage k+1 labels onto stage k labels compatibly
    # with the functor action
    f = parse_functor("pf(prod(const{l}, id))")
    seq = terminal_sequence(f, 3)
    for k in range(1, len(seq.connectors)):
        conn, prev = seq.connectors[k], seq.connectors[k - 1]
        stage = seq.stages[k + 1]
        index = {v: i for i, v in enumerate(seq.stages[k])}
        for i, v in enumerate(stage):
            assert conn[i] == index[functor_map(f, prev, v)]


def test_budget_cap_flags_budget_hit():
    seq = terminal_sequence(parse_functor("pf(prod(const{l}, id))"), 6,
                            Budget(max_elements=100))
    assert seq.budget_hit and seq.convergence is None


# -- final coalgebras ---------------------------------------------------------

def test_final_coalgebra_identity_functor():
    co, seq, rep = final_coalgebra(parse_functor("id"))
    assert len(co.states) == 1 and seq.convergence == 0 and rep.verified


def test_final_coalgebra_constant_functor():
    co, seq, rep = final_coalgebra(parse_functor("df(const{a,b})"),
                                   verify_size_bound=2)
    assert seq.convergence == 1
    assert len(co.states) == 7     # dists over {a,b} with denominator <= 4
    assert rep.verified and rep.coalgebras_checked > 0


def test_final_coalgebra_structure_is_bijective():
    co, _, _ = final_coalgebra(parse_functor("df(const{a,b})"),
                               verify_size_bound=1)
    fx = functor_eval(co.functor, co.states)
    assert sorted(co.structure) == sorted(co.states)
    assert sorted(map(repr, co.structure.values())) == sorted(map(repr, fx))


def test_divergent_sequence_raises():
    with pytest.raises(NotConverged):
        final_coalgebra(parse_functor("sum(const{u}, id)"), max_steps=5)


def reference_finality(f, max_steps, budget=None, verify_size_bound=3):
    """The finality check element by element, as before it ran on plan
    positions: each structure on n states, decoded by functor_eval, is
    tried against every map into the final coalgebra with functor_map."""
    budget = budget or Budget()
    seq = terminal_sequence(f, max_steps, budget)
    if seq.convergence is None:
        raise NotConverged(
            f"no bijective connector within {max_steps} steps; stage sizes "
            f"{seq.sizes()}")
    k = seq.convergence
    carrier = tuple(range(seq.sizes()[k]))
    conn = seq.connectors[k]
    structure = {conn[i]: v for i, v in enumerate(seq.stage(k + 1))}
    spaces = [functor_eval(f, tuple(range(n)), budget)
              for n in range(verify_size_bound + 1)]
    work = sum((len(fx) * len(carrier)) ** n for n, fx in enumerate(spaces))
    if work > budget.max_elements:
        raise BudgetExceeded(
            f"finality check over coalgebras on at most {verify_size_bound} "
            f"states tries {work} candidate maps, exceeds budget "
            f"{budget.max_elements}")
    checked = 0
    for n, fx in enumerate(spaces):
        for xi in itertools.product(fx, repeat=n):
            checked += 1
            homs = [h for h in itertools.product(carrier, repeat=n)
                    if all(functor_map(f, dict(enumerate(h)), xi[s]) ==
                           structure[h[s]] for s in range(n))]
            if len(homs) != 1:
                return structure, coalgebra.FinalityReport(
                    False, verify_size_bound, checked)
    return structure, coalgebra.FinalityReport(True, verify_size_bound,
                                               checked)


def _finality_outcome(run):
    try:
        return run()
    except (NotConverged, BudgetExceeded) as exc:
        return type(exc).__name__, str(exc)


_CONVERGING = ["const{a,b}", "prod(const{a},id)", "sum(const{a,b},const{c})",
               "df(const{a})", "id", "const{a}", "df(const{a,b})",
               "pf(const{a})", "prod(const{a,b},const{c})",
               "sum(const{a},const{b,c})", "df(sum(const{a},const{b}))"]
# no convergence within 4 steps, and two finality checks over the budget
_UNDECIDED = ["sum(const{u},id)", "df(const{a,b,c})", "pf(id)"]


@pytest.mark.parametrize("text", _CONVERGING + _UNDECIDED)
def test_finality_on_positions_matches_reference(text):
    f = parse_functor(text)

    def positional():
        final, _, rep = final_coalgebra(f, 4)
        return final.structure, rep

    got = _finality_outcome(positional)
    assert got == _finality_outcome(lambda: reference_finality(f, 4))
    assert got[1].verified if text in _CONVERGING else got[0] in (
        "NotConverged", "BudgetExceeded")


@pytest.mark.parametrize("image", [lambda c: c, lambda c: 1 - c],
                         ids=["two-morphisms", "no-morphism"])
def test_finality_check_sees_a_wrong_action(image):
    # F(h) that depends on h on const{a,b} makes either both maps out of
    # the first one-state coalgebra morphisms, or neither
    f = parse_functor("const{a,b}")
    _, seq, rep = final_coalgebra(f)
    assert rep.verified

    def act(self, fn, dst):
        return [image(fn[0]) if fn else i for i in range(self.size)]

    with mock.patch.object(coalgebra, "terminal_sequence",
                           lambda *args: seq), \
            mock.patch.object(coalgebra._ConstPlan, "act", act):
        _, _, rep = final_coalgebra(f)
    assert rep == coalgebra.FinalityReport(False, 3, 2)


# -- bisimilarity -------------------------------------------------------------

def round_based_bisimilarity(coalg):
    """Reference: recompute every state's signature each round until the
    numbered partition repeats."""
    states = tuple(csorted(coalg.states))
    if not states:
        return ()
    class_of = {s: 0 for s in states}
    while True:
        sigs = {s: functor_map(coalg.functor, class_of, coalg.structure[s])
                for s in states}
        blocks: dict = {}
        for s in states:
            blocks.setdefault((class_of[s], sigs[s]), []).append(s)
        new_class = {}
        for i, key in enumerate(sorted(blocks, key=canon_key)):
            for s in blocks[key]:
                new_class[s] = i
        if new_class == class_of:
            break
        class_of = new_class
    out: dict = {}
    for s in states:
        out.setdefault(class_of[s], []).append(s)
    return tuple(sorted((tuple(b) for b in out.values()), key=canon_key))


def _all_coalgebras(f, states):
    fx = functor_eval(f, states, Budget(max_denominator=4))
    for xi in itertools.product(fx, repeat=len(states)):
        yield Coalgebra(f, states, dict(zip(states, xi)))


@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("alpha", ["a", "a,b"])
def test_bisimilarity_matches_brute_force_exhaustive(n, alpha):
    f = parse_functor(f"pf(prod(const{{{alpha}}}, id))")
    for co in _all_coalgebras(f, tuple(range(n))):
        assert bisimilarity(co) == brute_force_bisimilarity(co)


def test_bisimilarity_matches_brute_force_three_states():
    f = parse_functor("pf(prod(const{a}, id))")
    for co in _all_coalgebras(f, (0, 1, 2)):
        assert bisimilarity(co) == brute_force_bisimilarity(co)


def test_bisimilarity_with_frozenset_constants():
    # frozensets compare by inclusion, so signatures that hold them are
    # sorted canonically, not plainly
    labels = (frozenset({2}), frozenset({1, 3}), frozenset())
    f = FFree("semilattice", FProd(FConst(labels), FId()))
    for co in _all_coalgebras(f, (0, 1)):
        assert bisimilarity(co) == brute_force_bisimilarity(co)
    value = ("set", (("pair", frozenset({2}), 0),
                     ("pair", frozenset({1, 3}), 1)))
    sig = functor_map(f, {0: 0, 1: 0}, value)
    assert list(sig[1]) == csorted(sig[1])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bisimilarity_matches_brute_force_random(data):
    alpha = data.draw(st.sampled_from(["a", "a,b"]))
    n = data.draw(st.integers(min_value=1, max_value=4))
    f = parse_functor(f"pf(prod(const{{{alpha}}}, id))")
    states = tuple(range(n))
    fx = functor_eval(f, states)
    xi = {s: data.draw(st.sampled_from(fx)) for s in states}
    co = Coalgebra(f, states, xi)
    assert bisimilarity(co) == brute_force_bisimilarity(co)


def test_bisimilarity_random_convex_coalgebras():
    f = parse_functor("prod(const{a,b}, df(id))")
    rng = random.Random(20260823)
    for _ in range(50):
        states = tuple(range(rng.randrange(2, 5)))
        fx = functor_eval(f, states, Budget(max_denominator=4))
        co = Coalgebra(f, states, {s: rng.choice(fx) for s in states})
        assert bisimilarity(co) == brute_force_bisimilarity(co)


_LEAVES = st.one_of(
    st.just(FId()),
    st.lists(st.sampled_from("abc"), min_size=1, max_size=3,
             unique=True).map(lambda xs: FConst(tuple(sorted(xs)))))
_FUNCTORS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.builds(FProd, inner, inner), st.builds(FSum, inner, inner),
        st.builds(FFree, st.sampled_from(["semilattice", "convex"]),
                  inner)),
    max_leaves=5)


def _draw_element(data, f, states):
    """One element of F(states) in canonical normal form, drawn without
    enumerating F(states)."""
    if isinstance(f, FId):
        return data.draw(st.sampled_from(states))
    if isinstance(f, FConst):
        return data.draw(st.sampled_from(f.elems))
    if isinstance(f, FProd):
        return ("pair", _draw_element(data, f.left, states),
                _draw_element(data, f.right, states))
    if isinstance(f, FSum):
        if data.draw(st.booleans()):
            return ("inl", _draw_element(data, f.left, states))
        return ("inr", _draw_element(data, f.right, states))
    size = data.draw(st.integers(f.theory == "convex", 3))
    members = {_draw_element(data, f.inner, states) for _ in range(size)}
    if f.theory == "semilattice":
        return ("set", tuple(csorted(members)))
    weights = [data.draw(st.integers(1, 3)) for _ in members]
    return ("dist", tuple(csorted(
        (x, Fraction(w, sum(weights))) for x, w in zip(members, weights))))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_functor_map_all_matches_functor_map(data):
    # non-injective maps, into ints or into strings.  Elements drawn from a
    # few states, so that members are shared between elements, go through
    # the single-value action and the compiled action it replaced, also
    # where F is too large to enumerate; where the fibers fit the budget,
    # the positional action is compared with both over the whole fiber
    f = data.draw(_FUNCTORS)
    n = data.draw(st.integers(2, 5))
    states = tuple(range(n)) if data.draw(st.booleans()) \
        else tuple(f"s{i}" for i in range(n))
    k = data.draw(st.integers(1, n - 1))
    targets = tuple(range(k)) if data.draw(st.booleans()) \
        else tuple(f"t{j}" for j in range(k))
    fn = {s: data.draw(st.sampled_from(targets)) for s in states}
    vs = [_draw_element(data, f, states)
          for _ in range(data.draw(st.integers(1, 6)))]
    assert list(reference_functor_map_all(f, fn, vs).items()) == \
        [(v, functor_map(f, fn, v)) for v in dict.fromkeys(vs)]
    budget = Budget(max_elements=3000)
    try:
        src, dst = functor_plan(f, n, budget), functor_plan(f, k, budget)
    except BudgetExceeded:
        return
    xs, ys = functor_eval(f, states, budget), functor_eval(f, targets, budget)
    label = {t: j for j, t in enumerate(targets)}
    positions = functor_map_all(src, dst, [label[fn[s]] for s in states])
    images = [ys[p] for p in positions]
    assert images == [functor_map(f, fn, x) for x in xs]
    assert images == list(reference_functor_map_all(f, fn, xs).values())


_MIXED_CONSTANTS = {"a": ("a", 1), "b": frozenset({2}), "c": frozenset({1, 3})}


def _with_mixed_constants(f):
    """f with the constants a, b, c replaced by a tuple and two frozensets
    that inclusion does not order."""
    if isinstance(f, FConst):
        return FConst(tuple(csorted(_MIXED_CONSTANTS[e] for e in f.elems)))
    if isinstance(f, (FProd, FSum)):
        return type(f)(_with_mixed_constants(f.left),
                       _with_mixed_constants(f.right))
    if isinstance(f, FFree):
        return FFree(f.theory, _with_mixed_constants(f.inner))
    return f


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_bisimilarity_matches_round_based_reference(data):
    # up to 40 states, where brute force is out of reach; drawing the
    # structure from a few shared values makes bisimilar states common.
    # States are ints, strings or both, which plain sorting cannot order,
    # and constants may be tuples and frozensets
    f = data.draw(_FUNCTORS)
    if data.draw(st.booleans()):
        f = _with_mixed_constants(f)
    n = data.draw(st.integers(1, 40))
    kinds = data.draw(st.sampled_from([(int,), (str,), (int, str)]))
    states = tuple(i if data.draw(st.sampled_from(kinds)) is int else f"s{i}"
                   for i in range(n))
    pool = [_draw_element(data, f, states)
            for _ in range(data.draw(st.integers(1, 4)))]
    xi = {s: data.draw(st.sampled_from(pool)) for s in states}
    co = Coalgebra(f, states, xi)
    assert bisimilarity(co) == round_based_bisimilarity(co)


def test_bisimilarity_planted_chains():
    # two a-chains of 100 states each, with crossing edges: the states at
    # equal distance from the deadlocked ends are bisimilar, nothing else
    lines = ["state c099y"]
    for i in range(99):
        lines.append(f"c{i:03d}x a c{i + 1:03d}x")
        lines.append(f"c{i:03d}y a c{i + 1:03d}{'x' if i % 3 else 'y'}")
    co = parse_coalgebra_file("\n".join(lines) + "\n")
    assert len(co.states) == 200
    expected = tuple((f"c{i:03d}x", f"c{i:03d}y") for i in range(100))
    assert bisimilarity(co) == expected == round_based_bisimilarity(co)


def test_bisimilarity_collapses_redundant_states():
    co = parse_coalgebra_file("p a p\nq a q\nr a r\nr b r\n")
    assert bisimilarity(co) == (("p", "q"), ("r",))


def _set(*members):
    return ("set", tuple(csorted(members)))


def _dist(*pairs):
    return ("dist", tuple(csorted((x, Fraction(p)) for x, p in pairs)))


@pytest.mark.parametrize("text,structure,expected", [
    # 1 ~ 3 deadlock and 2 ~ 4 loop, so 0 and 5 reach the same classes
    # through members listed in opposite orders
    ("df(pf(id))",
     {0: _dist((_set(1), "1/2"), (_set(4), "1/2")), 1: _dist((_set(), 1)),
      2: _dist((_set(2), 1)), 3: _dist((_set(), 1)), 4: _dist((_set(4), 1)),
      5: _dist((_set(2), "1/2"), (_set(3), "1/2"))},
     ((0, 5), (1, 3), (2, 4))),
    # the same inside a pf layer (0, 5) and inside a df layer (6, 7)
    ("pf(df(id))",
     {0: _set(_dist((1, 1)), _dist((4, 1))), 1: _set(),
      2: _set(_dist((2, 1))), 3: _set(), 4: _set(_dist((4, 1))),
      5: _set(_dist((2, 1)), _dist((3, 1))),
      6: _set(_dist((1, "1/2"), (4, "1/2"))),
      7: _set(_dist((2, "1/2"), (3, "1/2")))},
     ((0, 5), (1, 3), (2, 4), (6, 7))),
])
def test_bisimilarity_nested_signatures_equal_up_to_member_order(
        text, structure, expected):
    co = Coalgebra(parse_functor(text), tuple(structure), structure)
    assert bisimilarity(co) == expected == round_based_bisimilarity(co)


# -- coalgebra files ----------------------------------------------------------

def reference_parse_coalgebra_file(text: str) -> Coalgebra:
    """The element-level reader that `parse_coalgebra_file` replaced, as
    an oracle: a dict in file order of ("set", (("pair", a, t), ...))."""
    states: dict[str, None] = {}
    edges: dict[str, set] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        if "--" in raw:
            raw = UNCOMMENTED_RE.match(raw).group()
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "state" and len(parts) == 2:
            states[parts[1]] = None
            continue
        if len(parts) != 3:
            raise FunctorParseError("expected `x label y` or `state x`",
                                    lineno, 1)
        src, label, dst = parts
        states[src] = states[dst] = None
        edges.setdefault(src, set()).add((label, dst))
    labels = {a for out in edges.values() for a, _ in out}
    functor = FFree("semilattice", FProd(FConst(tuple(sorted(labels))), FId()))
    structure = {
        s: ("set", tuple(("pair", a, t)
                         for a, t in sorted(edges.get(s, ()))))
        for s in states}
    return Coalgebra(functor, tuple(sorted(states)), structure)


# names with `--` inside, `state` as a name, digit-leading names; `0--1`
# reads as the name 0 and a comment
_SOURCES = ("x", "y", "z", "state", "a--b", "x--", "1", "0x")
_LABELS = ("a", "b", "c--d", "0")
_GAPS = (" ", "  ", "\t", " \t ")


@st.composite
def coalg_texts(draw):
    """A `.coalg` text with comments, blank and whitespace lines, `state`
    lines, duplicate edges and self-loops, LF or CRLF ends, and now and
    then one bad line."""
    gap = st.sampled_from(_GAPS)
    lines: list[str] = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(
            ["edge"] * 5 + ["state", "comment", "blank", "repeat"]))
        if kind == "repeat" and lines:
            lines.append(draw(st.sampled_from(lines)))
        elif kind == "state":
            lines.append(f"state{draw(gap)}{draw(st.sampled_from(_SOURCES))}")
        elif kind == "comment":
            lines.append(draw(st.sampled_from(["-- note", " -- x a y"])))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t "])))
        else:
            src = draw(st.sampled_from(_SOURCES))
            dst = draw(st.sampled_from((src, "0--1") + _SOURCES))
            lines.append(draw(gap).lstrip(" ") + src + draw(gap)
                         + draw(st.sampled_from(_LABELS)) + draw(gap) + dst
                         + draw(st.sampled_from(["", " ", " -- c", "--c"])))
    if draw(st.integers(0, 3)) == 0:
        bad = draw(st.sampled_from(
            ["x", "x a", " state", "x a y z", "state x y z -- c",
             "x 0--1 y", "x a y\tz "]))
        lines.insert(draw(st.integers(0, len(lines))), bad)
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


@settings(max_examples=300, deadline=None)
@given(coalg_texts())
def test_parse_coalgebra_file_matches_reference_reader(text):
    try:
        ref = reference_parse_coalgebra_file(text)
    except FunctorParseError as exc:
        with pytest.raises(FunctorParseError, match=rf"^{exc.line}:\d+: "):
            parse_coalgebra_file(text)
        return
    co = parse_coalgebra_file(text)
    assert (co.states, co.functor) == (ref.states, ref.functor)
    assert len(co.structure) == len(ref.structure)
    assert list(co.structure) == list(ref.structure)
    assert all(co.structure[s] == ref.structure[s] for s in ref.states)
    assert co.structure == ref.structure and ref.structure == co.structure
    partition = bisimilarity(co)
    assert partition == bisimilarity(ref) == round_based_bisimilarity(ref)
    if len(co.states) <= 6:
        assert partition == brute_force_bisimilarity(co)


def test_parse_coalgebra_file():
    co = parse_coalgebra_file(
        "-- two-state loop\nx a y\ny a x\nstate z\n")
    assert co.states == ("x", "y", "z")
    assert co.structure["z"] == ("set", ())
    # the structure is a read-only mapping decoded on read
    assert co.structure == {"x": ("set", (("pair", "a", "y"),)),
                            "y": ("set", (("pair", "a", "x"),)),
                            "z": ("set", ())}
    assert "z" in co.structure and "w" not in co.structure
    assert 5 not in co.structure and co.structure.get("w") is None
    with pytest.raises(KeyError):
        co.structure["w"]
    with pytest.raises(TypeError):
        co.structure["w"] = ("set", ())


def test_coalgebra_file_dashes_inside_a_name_are_not_a_comment():
    # `--` starts a comment where the `.thy` reader reads one
    co = parse_coalgebra_file("x a--b y -- note\ny b x--c\nstate z\n"
                              "-- a line of comment\nz c 0--1 z\n")
    assert co.states == ("0", "x", "x--c", "y", "z")
    assert co.structure["x"] == ("set", (("pair", "a--b", "y"),))
    assert co.structure["z"] == ("set", (("pair", "c", "0"),))
    # a name does not start with a digit, so `--` after one is a comment
    with pytest.raises(FunctorParseError, match="^2:4: "):
        parse_coalgebra_file("x a y\nx 0--1 y\n")


def test_parse_coalgebra_file_bad_line():
    # the first token that fits neither `x a y` nor `state x`, or one past
    # the line's content when a token is missing
    for text, where in [("x a\n", "1:4"), ("  x  \n", "1:4"),
                        ("state\n", "1:6"), ("x a y z\n", "1:7"),
                        ("state x y\tz -- c\n", "1:11"),
                        ("x a y\r\n\r\n x a b c\r\n", "3:8"),
                        ("x a -- y\n", "1:4")]:
        with pytest.raises(FunctorParseError, match=f"^{where}: expected"):
            parse_coalgebra_file(text)


# -- weak bisimilarity on the truncated delay monad --------------------------

def _stepn(d, k):
    for _ in range(k):
        d = step(d)
    return d


def test_now_weakly_bisimilar_to_finite_delays():
    eq = lambda p, q: p == q
    for n in range(2, 7):
        for k in range(n):
            v = weak_bisim_delay(now("a"), _stepn(now("a"), k), eq, n)
            assert v["all"], (n, k)


def test_different_values_not_weakly_bisimilar():
    eq = lambda p, q: p == q
    assert not weak_bisim_delay(now("a"), now("b"), eq, 4)["all"]
    assert not weak_bisim_delay(now("a"), _stepn(now("b"), 2), eq, 4)["all"]


def test_step_clause_consumes_one_stage():
    # step(bot) vs now(a): false at every stage; step(x) vs step(y)
    # defers to x vs y with one stage fewer
    eq = lambda p, q: p == q
    x, y = _stepn(now("a"), 1), _stepn(now("b"), 1)
    inner = weak_bisim_delay(now("a"), now("b"), eq, 3)
    outer = weak_bisim_delay(x, y, eq, 4)
    assert outer[0] is True                 # stage 0 holds trivially
    for s in range(3):
        assert outer[s + 1] == inner[s]


def test_bot_is_weakly_bisimilar_only_to_divergence():
    eq = lambda p, q: p == q
    assert weak_bisim_delay(BOT, BOT, eq, 5)["all"]
    assert weak_bisim_delay(BOT, _stepn(BOT, 3), eq, 5)["all"]
    assert not weak_bisim_delay(BOT, now("a"), eq, 5)["all"]
    # truncation artifact: at n_bound 2 a deep delay of a different value
    # is indistinguishable from divergence
    assert weak_bisim_delay(BOT, _stepn(now("a"), 5), eq, 2)["all"]


def delay_depth(d) -> int:
    n = 0
    while d[0] == "step":
        n += 1
        d = d[1]
    return n


def test_delay_depth():
    assert delay_depth(now("a")) == 0
    assert delay_depth(_stepn(now("a"), 3)) == 3
    assert delay_depth(BOT) == 0
