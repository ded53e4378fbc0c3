"""Algebraic theories: drop equations, free-model monads, minimal
support, and the finite preservation checks."""
import functools
import itertools
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clott import theories
from clott.terms import AOp, AVar, alg_free_vars
from clott.theories import (BUILTINS, CONVEX_WEIGHTS, STAR, Budget,
                            BudgetExceeded, CheckResult, Theory, TheoryError,
                            _compositions, check_preserves_monos,
                            check_preserves_pullbacks_of_monos,
                            convex_size, enumerate_terms,
                            drop_equations, fmap, free_model,
                            is_drop_equation,
                            csorted, minimal_support, psorted,
                            summed_masses, theory_from_file)

from .strategies import alg_terms


def has_drop_equations(t: Theory) -> bool:
    return bool(drop_equations(t))


def class_equal(model, a, b) -> str:
    """Three-valued equality on a custom free model: equal | unknown."""
    if a == b:
        return "equal"
    if not model.theory.equations:
        return "apart"      # no equations: the free model is the term model
    return "unknown"

LEFTZERO = theory_from_file(
    {"f": 2}, [(AOp("f", (AVar("x"), AVar("y"))), AVar("x"))], None,
    "leftzero")


# -- drop equations -----------------------------------------------------------

def test_drop_detection():
    assert is_drop_equation((AOp("f", (AVar("x"), AVar("y"))), AVar("x")))
    assert not is_drop_equation((AOp("f", (AVar("x"), AVar("y"))),
                                 AOp("f", (AVar("y"), AVar("x")))))
    assert has_drop_equations(LEFTZERO)
    assert has_drop_equations(BUILTINS["truncation"])
    for name in ("semilattice", "convex", "monoid", "commutative-monoid"):
        assert not has_drop_equations(BUILTINS[name]), name


def test_drop_equations_listed():
    assert drop_equations(LEFTZERO) == [
        (AOp("f", (AVar("x"), AVar("y"))), AVar("x"))]
    assert drop_equations(BUILTINS["semilattice"]) == []


# -- carriers ----------------------------------------------------------------

def test_semilattice_carrier_is_powerset():
    t = BUILTINS["semilattice"]
    for n in range(5):
        m = free_model(t, tuple(range(n)))
        assert m.exact
        assert len(m.elements) == 2 ** n


@pytest.mark.parametrize("base", [
    tuple(range(10)), tuple("jihgfedcba"),
    (3, "b", ("pair", 1, 2), 0, "a", ("inl", "u"), 7)])
def test_semilattice_carrier_in_canonical_order(base):
    # the subsets come out in canonical order, as sorting them would give
    t = BUILTINS["semilattice"]
    for n in range(len(base) + 1):
        reference = csorted(("set", tuple(csorted(s)))
                            for r in range(n + 1)
                            for s in itertools.combinations(base[:n], r))
        assert free_model(t, base[:n]).elements == tuple(reference)


def _recursive_compositions(total, parts):
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _recursive_compositions(total - first, parts - 1):
            yield (first,) + rest


def test_compositions_match_recursive_reference():
    for total in range(7):
        for parts in range(6):
            assert list(_compositions(total, parts)) == \
                list(_recursive_compositions(total, parts))


def test_convex_carrier_refused_before_enumeration():
    # C(5855, 4) distributions with masses in (1/4)N; the recursive
    # enumeration overflowed the stack at this size
    with pytest.raises(BudgetExceeded, match="convex carrier too large"):
        free_model(BUILTINS["convex"], range(5852))
    assert len(next(_compositions(2, 5000))) == 5000


def test_monoid_carrier_counts():
    t = BUILTINS["monoid"]
    for n in range(4):
        m = free_model(t, tuple(range(n)), Budget(max_len=3))
        assert len(m.elements) == sum(n ** k for k in range(4))


def test_commutative_monoid_carrier_counts():
    t = BUILTINS["commutative-monoid"]
    m = free_model(t, (0, 1), Budget(max_len=3))
    # multisets of size <= 3 over two generators: 1 + 2 + 3 + 4
    assert len(m.elements) == 10


@pytest.mark.parametrize("name, layer, total", [
    ("monoid", "product", 1 + 3 + 9 + 27),
    ("commutative-monoid", "combinations_with_replacement", 1 + 3 + 6 + 10)])
def test_monoid_carrier_refused_before_any_layer(monkeypatch, name, layer,
                                                 total):
    t, base = BUILTINS[name], (0, 1, 2)
    built = []
    real = getattr(itertools, layer)
    monkeypatch.setattr(theories.itertools, layer,
                        lambda *a, **k: built.append(a) or real(*a, **k))
    m = free_model(t, base, Budget(max_len=3, max_elements=total))
    assert len(m.elements) == total and len(built) == 4
    built.clear()
    with pytest.raises(BudgetExceeded, match=f"{name} carrier too large"):
        free_model(t, base, Budget(max_len=3, max_elements=total - 1))
    assert built == []
    # the empty word alone over no generators
    assert free_model(t, (), Budget(max_len=3, max_elements=1)).elements == \
        (("list" if name == "monoid" else "bag", ()),)


def test_truncation_carrier():
    t = BUILTINS["truncation"]
    assert free_model(t, ()).elements == ()
    assert free_model(t, (0, 1, 2)).elements == (("star",),)


def test_convex_carrier_denominator_bound():
    t = BUILTINS["convex"]
    m = free_model(t, (0, 1), Budget(max_denominator=4))
    masses = {frac for e in m.elements for _, frac in e[1]}
    assert all(q.denominator <= 4 for q in masses)
    assert ("dist", ((0, __import__("fractions").Fraction(1, 2)),
                     (1, __import__("fractions").Fraction(1, 2)))) \
        in m.elements


def reference_free_model(t, base, budget):
    """Builtin carriers built on the raw base and sorted with canon_key,
    as before they were built on positions."""
    base = tuple(csorted(base))
    b = t.builtin
    if b == "semilattice":
        return tuple(csorted(("set", s) for r in range(len(base) + 1)
                             for s in itertools.combinations(base, r)))
    if b == "convex":
        return tuple(csorted({
            ("dist", tuple((x, Fraction(m, d))
                           for x, m in zip(base, masses) if m))
            for d in range(1, budget.max_denominator + 1)
            for masses in _compositions(d, len(base))}))
    words = [w for n in range(budget.max_len + 1) for w in (
        itertools.product(base, repeat=n) if b == "monoid" else
        itertools.combinations_with_replacement(base, n))]
    return tuple(csorted({("list" if b == "monoid" else "bag", tuple(w))
                          for w in words}))


# the element-level monad structure of the builtin free models: the
# carriers must be closed under it and satisfy the monad laws and the
# theories' equations

def unit(t, x):
    """Monad unit: the variable x as an element of T(X)."""
    b = t.builtin
    if b == "semilattice":
        return ("set", (x,))
    if b == "convex":
        return ("dist", ((x, Fraction(1)),))
    if b in ("monoid",):
        return ("list", (x,))
    if b == "commutative-monoid":
        return ("bag", (x,))
    if b == "truncation":
        return STAR
    return ("class", _gen(x))


def interpret(t, term, env):
    """Evaluate an algebraic term in T(X) with variables bound to elements
    of T(X) by env."""
    if isinstance(term, AVar):
        return env[term.name]
    args = [interpret(t, a, env) for a in term.args]
    return apply_op(t, term.op, args)


def apply_op(t, op, args):
    b = t.builtin
    if b == "semilattice":
        if op == "bot":
            return ("set", ())
        acc = set()
        for _, xs in args:
            acc.update(xs)
        return ("set", tuple(psorted(acc)))
    if b == "convex":
        p = CONVEX_WEIGHTS[op]
        (_, d1), (_, d2) = args
        acc = summed_masses([*((x, p * m) for x, m in d1),
                             *((x, (1 - p) * m) for x, m in d2)])
        return ("dist", tuple(psorted([(x, m) for x, m in acc.items() if m])))
    if b in ("monoid", "commutative-monoid"):
        if op == "e":
            return ("list" if b == "monoid" else "bag", ())
        (tag, w1), (_, w2) = args
        w = w1 + w2
        return (tag, w if tag == "list" else tuple(psorted(w)))
    if b == "truncation":
        raise TheoryError("truncation has no operations")
    raise TheoryError(f"interpret: custom theory {t.name!r}; use the "
                      "congruence-class model")


def mult(t, elem):
    """Monad multiplication T(T(X)) -> T(X): flatten one layer."""
    tag = elem[0]
    if tag == "set":
        acc = set()
        for inner in elem[1]:
            acc.update(inner[1])
        return ("set", tuple(psorted(acc)))
    if tag == "dist":
        acc = summed_masses((x, m * mx) for inner, m in elem[1]
                            for x, mx in inner[1])
        return ("dist", tuple(psorted(acc.items())))
    if tag == "list":
        return ("list", tuple(x for inner in elem[1] for x in inner[1]))
    if tag == "bag":
        out = []
        for inner in elem[1]:
            out.extend(inner[1])
        return ("bag", tuple(psorted(out)))
    if tag == "star":
        return STAR
    raise TheoryError("mult is only defined for builtin theories")


def reference_fmap(t, f, elem, least=None):
    """T(f) on one element, for every builtin normal form and class terms,
    the images in canonical order by `psorted`, as before carriers acted
    on positions.  A class term's relabelled term goes to the least term
    of its class in the target, by least (`reference_least_members`)."""
    tag = elem[0]
    if tag == "list":
        return ("list", tuple(f[x] for x in elem[1]))
    if tag == "bag":
        return ("bag", tuple(psorted(f[x] for x in elem[1])))
    if tag == "star":
        return elem
    if tag == "class":
        return ("class", least[reference_subst_gens(elem[1], f)])
    return fmap(t, f, elem)


def reference_subst_gens(term, f):
    """A class term with each leaf ("gen", x) renamed to ("gen", f[x])."""
    if isinstance(term, AVar):
        _, x = term.name
        return _gen(f[x])
    return AOp(term.op, tuple(reference_subst_gens(a, f) for a in term.args))


def reference_carrier(t, base, budget):
    """T(X) with a custom theory's classes from the AlgTerm oracle."""
    if t.builtin is None:
        return tuple(("class", rep) for rep in
                     reference_congruence_classes(t, tuple(base), budget))
    return free_model(t, base, budget).elements


@pytest.mark.parametrize("name", ["semilattice", "convex", "monoid",
                                  "commutative-monoid"])
@pytest.mark.parametrize("base", [
    tuple(range(4)), tuple("dcba"), (3, "b", ("pair", 1, 2), "a"),
    (("inr", 2), ("inl", "u"), ("inl", "t"))])
def test_builtin_carriers_match_reference(name, base):
    # positions decoded over the sorted base, in canonical order, also
    # over bases of mixed type
    t = BUILTINS[name]
    for budget in (Budget(max_len=2, max_denominator=3),
                   Budget(max_len=3, max_denominator=4)):
        assert free_model(t, base, budget).elements == \
            reference_free_model(t, base, budget)


def test_convex_size_is_exact():
    for n in range(6):
        for d in range(7):
            budget = Budget(max_denominator=d)
            assert convex_size(n, budget) == len(
                reference_free_model(BUILTINS["convex"], range(n), budget))


@pytest.mark.parametrize("xs", [
    [3, 1, 2], ["b", "a"], [("set", (1, 2)), ("set", (1,)), ("set", ())],
    [("dist", ((0, Fraction(1, 2)), (1, Fraction(1, 2)))),
     ("dist", ((0, Fraction(1)),))],
    [("inr", 0), ("inl", "a")], [3, "b", ("pair", 1, 2), 0, "a"],
    [("pair", "a", 1), ("pair", 0, 1)],
    # ints and Fractions at one position are ordered by value
    [1, Fraction(1, 2), 0, Fraction(3, 2)],
    [("pair", 1, "x"), ("pair", Fraction(1, 2), "y")],
    [("set", (1,)), ("set", (Fraction(1, 2),))],
    # frozensets compare by inclusion, a partial order
    [frozenset({2}), frozenset({1, 3})],
    [frozenset({1, 3}), frozenset(), frozenset({2}), frozenset({0, 1})],
    [(frozenset({2}), Fraction(1, 2)), (frozenset({1, 3}), Fraction(1, 2))],
    [("set", (frozenset({2}),)), ("set", (frozenset({1, 3}),))],
    # members of different shapes: the first sorted member holds none
    [("set", (frozenset({2}),)), ("set", ()), ("set", (frozenset({1, 3}),))],
    [("inl", 1), ("inr", frozenset({2})), ("inr", frozenset({1, 3}))]])
def test_psorted_is_csorted(xs):
    # plain order on one atom type per position; csorted on mixed bases
    # and where members hold frozensets
    assert theories.psorted(xs) == csorted(xs)
    assert theories.psorted(iter(xs)) == csorted(xs)


def test_fmap_bag_with_images_of_mixed_type():
    # the images come as a generator, which the failed plain sort must not
    # spend before csorted sees them
    t = BUILTINS["commutative-monoid"]
    assert reference_fmap(t, {0: 1, 1: "a"}, ("bag", (1, 0, 1))) == \
        ("bag", (1, "a", "a"))


def test_operations_order_frozenset_members_as_free_model():
    t = BUILTINS["semilattice"]
    base = (frozenset({2}), frozenset({1, 3}))
    elems = free_model(t, base).elements
    f = {0: frozenset({2}), 1: frozenset({1, 3})}
    assert fmap(t, f, ("set", (0, 1))) == \
        ("set", (frozenset({1, 3}), frozenset({2})))
    assert fmap(t, f, ("set", (0, 1))) in elems
    joined = apply_op(t, "or", [unit(t, x) for x in base])
    assert joined in elems
    assert mult(t, ("set", tuple(unit(t, x) for x in base))) == joined
    convex = BUILTINS["convex"]
    half = apply_op(convex, "c12", [unit(convex, x) for x in base])
    assert half in free_model(convex, base, Budget(max_denominator=2)).elements


@pytest.mark.parametrize("name", ["semilattice", "convex",
                                  "commutative-monoid"])
def test_operations_stay_in_carrier_over_ints_and_fractions(name):
    # fmap, apply_op and mult sort plainly; on a base mixing ints and
    # Fractions their results are the carrier's own elements
    t = BUILTINS[name]
    base = (1, Fraction(1, 2), 0, Fraction(3, 2))
    budget = Budget(max_len=2, max_denominator=2)
    elems = set(free_model(t, base, budget).elements)
    ident = {x: x for x in base}
    for e in elems:
        assert reference_fmap(t, ident, e) in elems
        assert mult(t, unit(t, e)) in elems
    op = {"semilattice": "or", "convex": "c12",
          "commutative-monoid": "mul"}[name]
    for x, y in itertools.product(base, repeat=2):
        joined = apply_op(t, op, [unit(t, x), unit(t, y)])
        assert joined in elems
    semilattice = BUILTINS["semilattice"]
    assert apply_op(semilattice, "or", [
        ("set", (1,)), ("set", (Fraction(1, 2),))]) in \
        free_model(semilattice, (1, Fraction(1, 2))).elements


# -- custom theories: congruence oracle --------------------------------------

def _leftzero_normal(term):
    """Independent oracle: f(x, y) rewrites to x, so every ground term
    normalizes to its leftmost leaf."""
    while isinstance(term, AOp):
        term = term.args[0]
    return term


def test_leftzero_classes_match_rewriting_oracle():
    m = free_model(LEFTZERO, ("a", "b"), Budget(term_size=3))
    # every class representative must be a normal form (a bare generator)
    reps = {e[1] for e in m.elements}
    assert reps == {AVar(("gen", "a")), AVar(("gen", "b"))}
    assert not m.exact


def test_class_equal_three_valued():
    m = free_model(LEFTZERO, ("a",), Budget(term_size=2))
    e = m.elements[0]
    assert class_equal(m, e, e) == "equal"
    assert class_equal(m, e, ("class", AVar(("gen", "zz")))) == "unknown"
    noeq = theory_from_file({"g": 1}, [], None, "freeop")
    mn = free_model(noeq, ("a",), Budget(term_size=2))
    assert class_equal(mn, mn.elements[0], mn.elements[1]) == "apart"


def test_custom_interpret_rejected():
    with pytest.raises(TheoryError):
        interpret(LEFTZERO, AOp("f", (AVar("x"), AVar("x"))),
                  {"x": unit(LEFTZERO, "a")})


def _v(n: str) -> AVar:
    return AVar(n)


def _op(o: str, *args) -> AOp:
    return AOp(o, tuple(args))


_MONOID_EQUATIONS = (
    (_op("mul", _op("mul", _v("x"), _v("y")), _v("z")),
     _op("mul", _v("x"), _op("mul", _v("y"), _v("z")))),
    (_op("mul", _v("x"), _op("e")), _v("x")),
    (_op("mul", _op("e"), _v("x")), _v("x")),
)
# the builtins as they were built by hand before `BUILTIN_THY` wrote them
REFERENCE_BUILTINS = {
    "semilattice": Theory(
        "semilattice",
        (("or", 2), ("bot", 0)),
        (
            (_op("or", _v("x"), _v("y")), _op("or", _v("y"), _v("x"))),
            (_op("or", _op("or", _v("x"), _v("y")), _v("z")),
             _op("or", _v("x"), _op("or", _v("y"), _v("z")))),
            (_op("or", _v("x"), _v("x")), _v("x")),
            (_op("or", _v("x"), _op("bot")), _v("x")),
        ),
        builtin="semilattice"),
    "convex": Theory(
        "convex",
        tuple((o, 2) for o in sorted(CONVEX_WEIGHTS)),
        (
            (_op("c12", _v("x"), _v("x")), _v("x")),
            (_op("c12", _v("x"), _v("y")), _op("c12", _v("y"), _v("x"))),
            (_op("c13", _v("x"), _v("y")), _op("c23", _v("y"), _v("x"))),
            (_op("c14", _v("x"), _v("y")), _op("c34", _v("y"), _v("x"))),
            (_op("c12", _op("c12", _v("x"), _v("y")), _v("z")),
             _op("c14", _v("x"), _op("c13", _v("y"), _v("z")))),
        ),
        builtin="convex"),
    "monoid": Theory("monoid", (("mul", 2), ("e", 0)), _MONOID_EQUATIONS,
                     builtin="monoid"),
    "commutative-monoid": Theory(
        "commutative-monoid",
        (("mul", 2), ("e", 0)),
        _MONOID_EQUATIONS
        + ((_op("mul", _v("x"), _v("y")), _op("mul", _v("y"), _v("x"))),),
        builtin="commutative-monoid"),
    "truncation": Theory("truncation", (), ((_v("x"), _v("y")),),
                         builtin="truncation"),
}


def test_builtins_written_in_thy_equal_the_reference():
    # names, ops in order, equations, builtin tag and key order
    assert list(BUILTINS) == list(REFERENCE_BUILTINS)
    for name, ref in REFERENCE_BUILTINS.items():
        t = BUILTINS[name]
        assert (t.name, t.ops, t.equations, t.builtin) \
            == (ref.name, ref.ops, ref.equations, ref.builtin), name


def test_theory_from_file_validates():
    with pytest.raises(TheoryError, match="applied to 1 argument$"):
        theory_from_file({"f": 2}, [(AOp("f", (AVar("x"),)), AVar("x"))],
                         None)
    with pytest.raises(TheoryError, match="applied to 0 arguments$"):
        theory_from_file({"f": 2}, [(AOp("f", ()), AVar("x"))], None)
    with pytest.raises(TheoryError):
        theory_from_file({}, [], "no-such-builtin")
    assert theory_from_file({}, [], "monoid") is BUILTINS["monoid"]


# -- equations hold in the free models ----------------------------------------

def _env_product(m, variables):
    return ({v: e for v, e in zip(variables, choice)}
            for choice in itertools.product(m.elements,
                                            repeat=len(variables)))


@pytest.mark.parametrize("name", ["semilattice", "convex", "monoid",
                                  "commutative-monoid"])
def test_equations_hold(name):
    t = BUILTINS[name]
    m = free_model(t, (0, 1), Budget(max_len=2, max_denominator=2))
    from clott.terms import alg_free_vars
    for lhs, rhs in t.equations:
        variables = sorted(alg_free_vars(lhs) | alg_free_vars(rhs))
        for env in _env_product(m, variables):
            assert interpret(t, lhs, env) == interpret(t, rhs, env)


# -- monad laws ---------------------------------------------------------------

BUILTIN_NAMES = ["semilattice", "convex", "monoid", "commutative-monoid",
                 "truncation"]


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_monad_left_unit(name):
    t = BUILTINS[name]
    m = free_model(t, (0, 1), Budget(max_len=2, max_denominator=3))
    for e in m.elements:
        assert mult(t, unit(t, e)) == e


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_monad_right_unit(name):
    t = BUILTINS[name]
    m = free_model(t, (0, 1), Budget(max_len=2, max_denominator=3))
    lift = {x: unit(t, x) for x in m.base}
    for e in m.elements:
        assert mult(t, reference_fmap(t, lift, e)) == e


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_monad_associative(name):
    t = BUILTINS[name]
    m = free_model(t, (0,), Budget(max_len=2, max_denominator=2))
    mm = free_model(t, m.elements, Budget(max_len=2, max_denominator=2))
    mmm = free_model(t, mm.elements, Budget(max_len=2, max_denominator=2))
    flat = {inner: mult(t, inner) for inner in mm.elements}
    for e in mmm.elements:
        assert mult(t, mult(t, e)) == mult(t, reference_fmap(t, flat, e))


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_fmap_functorial(name):
    t = BUILTINS[name]
    m = free_model(t, (0, 1, 2), Budget(max_len=2, max_denominator=3))
    ident = {x: x for x in m.base}
    f = {0: "p", 1: "q", 2: "p"}
    g = {"p": 10, "q": 11}
    for e in m.elements:
        assert reference_fmap(t, ident, e) == e
        assert reference_fmap(t, {x: g[f[x]] for x in m.base}, e) == \
            reference_fmap(t, g, reference_fmap(t, f, e))


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_unit_is_natural(name):
    t = BUILTINS[name]
    f = {0: "p", 1: "q"}
    for x in (0, 1):
        assert reference_fmap(t, f, unit(t, x)) == unit(t, f[x])


# -- minimal support -----------------------------------------------------------

def _brute_support(t, base, elem, budget):
    best = None
    for r in range(len(base) + 1):
        for sub in itertools.combinations(base, r):
            if elem in free_model(t, sub, budget).elements:
                if best is None or len(sub) < len(best):
                    best = sub
        if best is not None:
            return frozenset(best)
    raise AssertionError("element not found in any sub-carrier")


@pytest.mark.parametrize("name", ["semilattice", "convex", "monoid",
                                  "commutative-monoid"])
def test_minimal_support_matches_brute_force(name):
    t = BUILTINS[name]
    budget = Budget(max_len=3, max_denominator=3)
    for n in range(1, 5):
        base = tuple(range(n))
        m = free_model(t, base, budget)
        for e in m.elements:
            assert minimal_support(t, e) == _brute_support(t, base, e,
                                                           budget)


def test_truncation_support_not_unique():
    with pytest.raises(TheoryError):
        minimal_support(BUILTINS["truncation"], ("star",))


# -- preservation of monos and pullbacks ---------------------------------------

@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_all_builtins_preserve_monos(name):
    r = check_preserves_monos(BUILTINS[name], size_bound=3)
    assert isinstance(r, CheckResult) and r.ok


@pytest.mark.parametrize("name", ["semilattice", "convex", "monoid",
                                  "commutative-monoid"])
def test_nondrop_builtins_preserve_pullbacks(name):
    assert check_preserves_pullbacks_of_monos(BUILTINS[name],
                                              size_bound=3).ok


def test_truncation_fails_pullbacks_with_canonical_square():
    r = check_preserves_pullbacks_of_monos(BUILTINS["truncation"],
                                           size_bound=3)
    assert not r.ok
    square = dict(r.counterexample)
    # the square: X = {0} maps into Y = {0,1} missing Z = {0}, so the
    # pullback carrier P is empty while T(X) x_{T(Y)} T(Z) is a point
    assert square["P"] == ()
    assert square["X"] == (0,) and square["Z"] == (0,)
    assert square["f"] == ((0, 1),)


def test_leftzero_preservation_checks_run_on_custom_theories():
    # f(x, y) = x collapses every term to its leftmost leaf, so the free
    # functor acts like the identity and both finite checks go through
    monos = check_preserves_monos(LEFTZERO, size_bound=2,
                                  budget=Budget(term_size=2))
    pullbacks = check_preserves_pullbacks_of_monos(
        LEFTZERO, size_bound=2, budget=Budget(term_size=2))
    assert monos.ok and pullbacks.ok


def test_leftzero_pullbacks_at_size_three():
    # the nested-loop join over T(X) x T(Z) took minutes at this size; a
    # return of it shows up as a hung run
    r = check_preserves_pullbacks_of_monos(LEFTZERO, size_bound=3)
    assert r.ok and r.counterexample is None


# -- the checks on positions against element-level references ---------------

def reference_preserves_monos(t, size_bound=3, budget=None, mutate=None):
    """Oracle: every element of T(X) mapped by reference_fmap under every
    injection, and the images compared as elements.  mutate as for
    reference_pullbacks_of_monos."""
    budget = budget or Budget()
    for x in theories._sets_upto(size_bound):
        mx = reference_carrier(t, x, budget)
        for y in theories._sets_upto(size_bound):
            if len(y) < len(x):
                continue
            least = reference_least_members(t, y, budget)
            for images in itertools.permutations(y, len(x)):
                f = dict(zip(x, images))
                seen: dict = {}
                for e in mx:
                    img = reference_fmap(t, f, e, least)
                    if mutate is not None:
                        img = mutate(x, y, f, e, img)
                    if img in seen and seen[img] != e:
                        return CheckResult(False, (x, y, tuple(
                            sorted(f.items())), seen[img], e),
                            {"size_bound": size_bound})
                    seen[img] = e
    return CheckResult(True, None, {"size_bound": size_bound})


def reference_pullbacks_of_monos(t, size_bound=3, budget=None, mutate=None):
    """Oracle: the pullback of T(X) -> T(Y) <- T(Z) by a nested loop over
    T(X) x T(Z) that maps both sides of every pair by reference_fmap,
    with every free model rebuilt where it is used.  mutate(src, dst, f,
    e, image), if given, may replace the image of e under f: src -> dst."""
    budget = budget or Budget()

    def image(src, dst, f, e):
        img = reference_fmap(t, f, e, reference_least_members(t, dst,
                                                              budget))
        return img if mutate is None else mutate(src, dst, f, e, img)

    for y in theories._sets_upto(size_bound):
        for z in theories._subsets(y):
            mz = reference_carrier(t, z, budget)
            incl = {v: v for v in z}
            for x in theories._sets_upto(size_bound):
                mx = reference_carrier(t, x, budget)
                for f_images in itertools.product(y, repeat=len(x)):
                    f = dict(zip(x, f_images))
                    p = tuple(v for v in x if f[v] in z)
                    mp = reference_carrier(t, p, budget)
                    pb = {(u, v)
                          for u in mx for v in mz
                          if image(x, y, f, u) == image(z, y, incl, v)}
                    can = [(image(p, x, {v: v for v in p}, e),
                            image(p, z, {v: f[v] for v in p}, e))
                           for e in mp]
                    if len(set(can)) == len(can) and set(can) == pb:
                        continue
                    square = {"X": x, "Y": y, "Z": z, "P": p,
                              "f": tuple(sorted(f.items()))}
                    return CheckResult(False, tuple(sorted(square.items())),
                                       {"size_bound": size_bound})
    return CheckResult(True, None, {"size_bound": size_bound})


@pytest.mark.parametrize("size_bound", [1, 2, 3])
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_pullbacks_match_nested_loop_reference(name, size_bound):
    t = BUILTINS[name]
    assert check_preserves_pullbacks_of_monos(t, size_bound) == \
        reference_pullbacks_of_monos(t, size_bound)


CHECK_BUDGETS = [Budget()] + [Budget(max_len=2, max_denominator=d)
                              for d in (2, 3, 4)]


@pytest.mark.parametrize("budget", CHECK_BUDGETS,
                         ids=["default", "d2", "d3", "d4"])
@pytest.mark.parametrize("size_bound", [1, 2, 3])
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_checks_on_positions_match_element_references(name, size_bound,
                                                      budget):
    t = BUILTINS[name]
    assert check_preserves_monos(t, size_bound, budget) == \
        reference_preserves_monos(t, size_bound, budget)
    if budget != Budget():      # the default is the test above
        assert check_preserves_pullbacks_of_monos(t, size_bound, budget) == \
            reference_pullbacks_of_monos(t, size_bound, budget)


def test_leftzero_monos_match_element_reference():
    budget = Budget(term_size=2)
    assert check_preserves_monos(LEFTZERO, 2, budget) == \
        reference_preserves_monos(LEFTZERO, 2, budget)


@pytest.mark.parametrize("name", BUILTIN_NAMES + ["leftzero"])
def test_plans_decode_as_free_model(name):
    t = LEFTZERO if name == "leftzero" else BUILTINS[name]
    budget = Budget(max_len=2, max_denominator=3, term_size=2)
    for base in ((), ("a",), ("b", "a"), (3, "b", ("pair", 1, 2))):
        base = tuple(csorted(base))
        assert theories.free_plan(t, len(base), budget).elements(base) == \
            free_model(t, base, budget).elements


@pytest.mark.parametrize("name", BUILTIN_NAMES + ["leftzero"])
def test_plan_act_matches_reference_fmap(name):
    # every map between sets of at most three labels, each image a
    # position
    t = LEFTZERO if name == "leftzero" else BUILTINS[name]
    budget = Budget(max_len=2, max_denominator=3, term_size=2)
    for n, m in itertools.product(range(4), repeat=2):
        src, dst = (theories.free_plan(t, k, budget) for k in (n, m))
        xs = src.elements(tuple(range(n)))
        ys = dst.elements(tuple(range(m)))
        assert len(xs) == src.size and len(ys) == dst.size
        least = reference_least_members(t, range(m), budget)
        for fn in itertools.product(range(m), repeat=n):
            images = list(map(ys.__getitem__, src.act(fn, dst)))
            assert images == [reference_fmap(t, dict(enumerate(fn)), x,
                                             least) for x in xs]


def test_pullback_square_count_and_budget():
    # Σ_{|Y|<=s} 2^|Y| · Σ_{|X|<=s} |Y|^|X|, counted by the nested loops
    for s in range(5):
        squares = sum(1 for y in theories._sets_upto(s)
                      for _ in theories._subsets(y)
                      for x in theories._sets_upto(s)
                      for _ in itertools.product(y, repeat=len(x)))
        assert theories._pullback_squares(s, 10 ** 6) == squares
    assert theories._pullback_squares(3, 10 ** 6) == 389
    assert theories._pullback_squares(4, 10 ** 6) == 6559
    t = BUILTINS["semilattice"]
    assert check_preserves_pullbacks_of_monos(
        t, 3, Budget(max_elements=389)).ok
    with pytest.raises(BudgetExceeded, match="389 squares"):
        check_preserves_pullbacks_of_monos(t, 3, Budget(max_elements=388))


def test_leftzero_pullbacks_match_nested_loop_reference():
    assert check_preserves_pullbacks_of_monos(LEFTZERO, 2) == \
        reference_pullbacks_of_monos(LEFTZERO, 2)


def _perturbed(t, budget, n, pos, wrong, maps):
    """The image of position pos of T over n labels replaced by position
    wrong of the target under the maps that `maps` selects: the identities
    on labels (label i to label i), the others, or all of them.  Returns
    (free_plan, mutate): the mutant plans for the check on positions, and
    the same change at element level for reference_pullbacks_of_monos."""
    free_plan = theories.free_plan

    def chosen(labels, dst_size):
        identity = list(labels) == list(range(len(labels)))
        return wrong < dst_size and maps in (
            "all", "identity" if identity else "other")

    def mutant_plan(t, k, budget):
        plan = free_plan(t, k, budget)
        if k == n:
            act = plan.act

            def perturbed(fn, dst):
                image = list(act(fn, dst))
                if chosen(fn, dst.size):
                    image[pos] = wrong
                return image
            plan.act = perturbed
        return plan

    def mutate(src, dst, f, e, img):
        if len(src) != n or \
                free_model(t, src, budget).elements.index(e) != pos:
            return img
        target = free_model(t, dst, budget).elements
        return target[wrong] if chosen(
            [dst.index(f[v]) for v in src], len(target)) else img

    return mutant_plan, mutate


def test_perturbed_monos_image_is_a_counterexample(monkeypatch):
    # {0} over one label goes where the empty set goes, under every map
    t, budget = BUILTINS["semilattice"], Budget()
    mutant_plan, mutate = _perturbed(t, budget, 1, 1, 0, "all")
    monkeypatch.setattr(theories, "free_plan", mutant_plan)
    r = check_preserves_monos(t, 2, budget)
    assert r == CheckResult(False, ((0,), (0,), ((0, 0),), ("set", ()),
                                    ("set", (0,))), {"size_bound": 2})
    assert r == reference_preserves_monos(t, 2, budget, mutate)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_perturbed_monos_give_the_reference_counterexample(data):
    name = data.draw(st.sampled_from(BUILTIN_NAMES[:4]))
    t = BUILTINS[name]
    budget = Budget(max_len=2, max_denominator=2)
    n = data.draw(st.integers(1, 2))
    pos = data.draw(st.integers(0, theories.free_plan(t, n, budget).size - 1))
    wrong = data.draw(st.integers(0, theories.free_plan(t, 2, budget).size))
    maps = data.draw(st.sampled_from(["all", "identity", "other"]))
    mutant_plan, mutate = _perturbed(t, budget, n, pos, wrong, maps)
    expected = reference_preserves_monos(t, 2, budget, mutate)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(theories, "free_plan", mutant_plan)
        assert check_preserves_monos(t, 2, budget) == expected


def test_perturbed_image_is_a_counterexample(monkeypatch):
    # the image of {0} over one label is the empty set under every map
    # that is not the identity on labels
    t, budget = BUILTINS["semilattice"], Budget()
    mutant_plan, mutate = _perturbed(t, budget, 1, 1, 0, "other")
    monkeypatch.setattr(theories, "free_plan", mutant_plan)
    r = check_preserves_pullbacks_of_monos(t, 2, budget)
    assert not r.ok
    assert r == reference_pullbacks_of_monos(t, 2, budget, mutate)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_perturbed_fmap_gives_the_reference_counterexample(data):
    name = data.draw(st.sampled_from(BUILTIN_NAMES[:4]))
    t = BUILTINS[name]
    budget = Budget(max_len=2, max_denominator=2)
    n = data.draw(st.integers(1, 2))
    pos = data.draw(st.integers(0, theories.free_plan(t, n, budget).size - 1))
    wrong = data.draw(st.integers(0, theories.free_plan(t, 2, budget).size))
    maps = data.draw(st.sampled_from(["all", "identity", "other"]))
    mutant_plan, mutate = _perturbed(t, budget, n, pos, wrong, maps)
    expected = reference_pullbacks_of_monos(t, 2, budget, mutate)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(theories, "free_plan", mutant_plan)
        r = check_preserves_pullbacks_of_monos(t, 2, budget)
    assert r == expected


# -- term enumeration: layers counted before they are built ------------------

def _gen(x):
    # ground terms over a carrier reuse AVar leaves tagged with the element
    return AVar(("gen", x))


def reference_enumerate_terms(t, base, size_budget, max_terms):
    """Each size layer built in full as AlgTerms, then checked against
    max_terms."""
    by_size = [[_gen(x) for x in csorted(base)]]
    nullary = [AOp(o, ()) for o, n in t.ops if n == 0]
    total = len(by_size[0])
    for size in range(1, size_budget + 1):
        layer = list(nullary) if size == 1 else []
        for o, n in t.ops:
            for sizes in (_compositions(size - 1, n) if n else ()):
                for args in itertools.product(*[by_size[s] for s in sizes]):
                    layer.append(AOp(o, tuple(args)))
        by_size.append(layer)
        total += len(layer)
        if total > max_terms:
            raise BudgetExceeded(f"term universe exceeds {max_terms}")
    return [u for layer in by_size for u in layer]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except BudgetExceeded as exc:
        return str(exc)


def _decoded_terms(t, base, size_budget, max_terms):
    """The interned table over the sorted base, every id decoded."""
    base = tuple(csorted(base))
    terms = enumerate_terms(t, len(base), size_budget, max_terms)
    return [terms.decode(i, base) for i in range(len(terms))]


@pytest.mark.parametrize("ops", [{"f": 2}, {"f": 2, "c": 0},
                                 {"g": 1, "h": 3, "c": 0}, {"c": 0}])
def test_enumerate_terms_refuses_like_reference(ops):
    # the universe order is kept: layer by layer, nullaries first in layer
    # 1, then each operation's terms by child sizes and child order
    t = theory_from_file(ops, [], None)
    for base in ((), ("b",), (1, 0), ("b", 0, "a")):
        for depth in range(4):
            for max_terms in (5, 40, 300, 200_000):
                args = (t, base, depth, max_terms)
                assert _outcome(_decoded_terms, *args) == \
                    _outcome(reference_enumerate_terms, *args)


def test_enumerate_terms_refuses_wide_layer_unbuilt():
    # 3^14 size-1 terms of f/14 over two generators and c: counted, not
    # built
    t = theory_from_file({"f": 14, "c": 0}, [], None)
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="term universe exceeds 200000"):
        enumerate_terms(t, 2, 3, 200_000)
    assert time.perf_counter() - t0 < 2


# -- congruence closure on ids against the AlgTerm oracle --------------------

def _term_size(term):
    if isinstance(term, AVar):
        return 0
    return 1 + sum(_term_size(a) for a in term.args)


def _occurrences(term, v):
    if isinstance(term, AVar):
        return 1 if term.name == v else 0
    return sum(_occurrences(a, v) for a in term.args)


def _subst_vars(term, assign):
    if isinstance(term, AVar):
        return assign.get(term.name, term)
    return AOp(term.op, tuple(_subst_vars(a, assign) for a in term.args))


def reference_assignments(variables, universe, room, occmap):
    """Oracle: every universe term is tried for every variable, its size
    recomputed each time, with no early stop."""

    def rec(i, assign, lsize, rsize):
        if i == len(variables):
            yield dict(assign)
            return
        v = variables[i]
        lo, ro = occmap[v]
        for u in universe:
            s = _term_size(u)
            nl, nr = lsize + lo * s, rsize + ro * s
            if nl > room or nr > room:
                continue
            assign.append((v, u))
            yield from rec(i + 1, assign, nl, nr)
            assign.pop()

    yield from rec(0, [], 0, 0)


def reference_sized_assignments(variables, universe, room, occmap):
    """The assignments of reference_assignments by a scan of the universe
    by ascending size that stops for a variable at the first term that
    overflows a side: every later term does too."""
    sized = [(u, _term_size(u)) for u in universe]

    def rec(i, assign, lsize, rsize):
        if i == len(variables):
            yield dict(assign)
            return
        v = variables[i]
        lo, ro = occmap[v]
        for u, s in sized:
            nl, nr = lsize + lo * s, rsize + ro * s
            if nl > room or nr > room:
                break
            assign.append((v, u))
            yield from rec(i + 1, assign, nl, nr)
            assign.pop()

    yield from rec(0, [], 0, 0)


def _equation_shape(lhs, rhs, budget):
    variables = sorted(alg_free_vars(lhs) | alg_free_vars(rhs))
    room = budget.term_size - max(_term_size(lhs), _term_size(rhs))
    occmap = {v: (_occurrences(lhs, v), _occurrences(rhs, v))
              for v in variables}
    return variables, room, occmap


def reference_term_keys(universe, index) -> list:
    """The sort key (size, 0, name) or (size, 1, op, argument keys) of each
    universe term, built bottom-up: a term's arguments come before it."""
    keys: list = []
    for u in universe:
        if isinstance(u, AVar):
            keys.append((0, 0, theories.canon_key(u.name[1])))
        else:
            args = tuple([keys[index[a]] for a in u.args])
            keys.append((1 + sum(k[0] for k in args), 1, u.op, args))
    return keys


def reference_congruence_classes(t, base, budget,
                                 assignments=reference_sized_assignments):
    """The least terms of the classes of `reference_closure`, in the
    order of reference_term_keys."""
    universe, keys, least = reference_closure(t, base, budget, assignments)
    return [universe[i] for i in sorted(set(least), key=keys.__getitem__)]


@functools.lru_cache(maxsize=256)
def reference_least_members(t, base, budget):
    """Each term of the universe over base mapped to the least term of its
    class (`reference_closure`); None for a builtin theory."""
    if t.builtin is not None:
        return None
    universe, _, least = reference_closure(t, tuple(base), budget)
    return dict(zip(universe, map(universe.__getitem__, least)))


@functools.lru_cache(maxsize=256)
def reference_closure(t, base, budget,
                      assignments=reference_sized_assignments):
    """Oracle: bounded congruence closure over AlgTerm dataclasses, as
    before terms were interned.  Every equation instance whose sides both
    lie in the universe merges them, found by the given scan; the
    universe is rescanned until equal arguments give equal applications.
    The universe, its reference_term_keys, and per term the index of the
    least term of its class under those keys."""
    universe = reference_enumerate_terms(t, base, budget.term_size,
                                         budget.max_terms)
    index = {u: i for i, u in enumerate(universe)}
    keys = reference_term_keys(universe, index)
    parent = list(range(len(universe)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    def union(i, j):
        i, j = sorted((find(i), find(j)))
        parent[j] = i
        return i != j

    for lhs, rhs in t.equations:
        variables, room, occmap = _equation_shape(lhs, rhs, budget)
        for assign in assignments(variables, universe, room, occmap):
            li = index.get(_subst_vars(lhs, assign))
            ri = index.get(_subst_vars(rhs, assign))
            if li is not None and ri is not None:
                union(li, ri)
    changed = True
    while changed:
        changed, sig = False, {}
        for i, u in enumerate(universe):
            key = (("gen", u.name) if isinstance(u, AVar) else
                   (u.op, tuple(find(index[a]) for a in u.args)))
            j = sig.setdefault(key, i)
            if j != i and union(i, j):
                changed = True
    classes: dict = {}
    for i in range(len(universe)):
        r = find(i)
        if r not in classes or keys[i] < keys[classes[r]]:
            classes[r] = i
    return universe, keys, [classes[find(i)] for i in range(len(universe))]


def _assert_closure_matches_reference(t, base, budget):
    classes = reference_congruence_classes(t, base, budget)
    assert classes == reference_congruence_classes(t, base, budget,
                                                   reference_assignments)
    assert free_model(t, base, budget).elements == \
        tuple(("class", rep) for rep in classes)


@pytest.mark.parametrize("size,depth", [(2, 4), (3, 3)])
def test_leftzero_closure_matches_unsized_scan(size, depth):
    _assert_closure_matches_reference(LEFTZERO, tuple(range(size)),
                                      Budget(term_size=depth))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(alg_terms(max_leaves=4), alg_terms(max_leaves=4)),
                min_size=1, max_size=2),
       st.sampled_from([(1, 1), (1, 2), (1, 3), (2, 1), (2, 2)]))
def test_generated_closure_matches_unsized_scan(equations, shape):
    t = theory_from_file({"f": 2, "g": 1, "c": 0}, equations, None,
                         "generated")
    size, depth = shape
    _assert_closure_matches_reference(t, tuple(range(size)),
                                      Budget(term_size=depth))


def test_equation_instances_counted_before_any_is_made(monkeypatch):
    # leftzero over two labels up to size 4: as many instances as the
    # oracle's scan finds, refused one below that before a side is built
    budget = Budget(term_size=4)
    universe = reference_enumerate_terms(LEFTZERO, (0, 1), 4, 200_000)
    [(lhs, rhs)] = LEFTZERO.equations
    variables, room, occmap = _equation_shape(lhs, rhs, budget)
    count = len(list(reference_assignments(variables, universe, room,
                                           occmap)))
    assert count == 548
    assert free_model(LEFTZERO, (0, 1), Budget(term_size=4,
                                               max_elements=count)).elements
    # the sides compile to functions that no instance calls
    monkeypatch.setattr(theories, "_instance", lambda side, slots, ids: None)
    with pytest.raises(BudgetExceeded,
                       match=f"at least {count} equation instances over 2 "
                             "labels up to size 4, over the max_elements "
                             f"budget {count - 1}"):
        free_model(LEFTZERO, (0, 1), Budget(term_size=4,
                                            max_elements=count - 1))


# -- term ranks against the recursive key ------------------------------------

def _term_key(term):
    """Oracle: the sort key of a term, recomputing sizes at every level."""
    if isinstance(term, AVar):
        return (_term_size(term), 0, theories.canon_key(term.name[1]))
    return (_term_size(term), 1, term.op,
            tuple(_term_key(a) for a in term.args))


def _assert_table_matches_reference(t, base, budget):
    # one table lists the oracle's universe in its order, and its ranks
    # sort the terms as the recursive key does
    universe = reference_enumerate_terms(t, base, budget.term_size,
                                         budget.max_terms)
    terms = enumerate_terms(t, len(base), budget.term_size, budget.max_terms)
    assert [terms.decode(i, base) for i in range(len(terms))] == universe
    keys = [_term_key(u) for u in universe]
    assert sorted(range(len(terms)), key=terms.rank.__getitem__) == \
        sorted(range(len(terms)), key=keys.__getitem__)
    return universe, keys


@pytest.mark.parametrize("size,depth", [(2, 4), (3, 3), (2, 5)])
def test_leftzero_term_keys_match_recursive_keys(size, depth):
    budget, base = Budget(term_size=depth), tuple(range(size))
    universe, keys = _assert_table_matches_reference(LEFTZERO, base, budget)
    index = {u: i for i, u in enumerate(universe)}
    assert reference_term_keys(universe, index) == keys
    assert free_model(LEFTZERO, base, budget).elements == \
        reference_carrier(LEFTZERO, base, budget)


# -- custom theories on ids against the AlgTerm oracles ----------------------

COMMUTATIVE = (AOp("f", (AVar("x"), AVar("y"))),
               AOp("f", (AVar("y"), AVar("x"))))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(alg_terms(max_leaves=4), alg_terms(max_leaves=4)),
                max_size=2),
       st.booleans(), st.sampled_from([1, 2]))
def test_generated_theories_on_ids_match_the_oracles(equations, commutative,
                                                     depth):
    # classes, carriers, T(fn) for every map between label sets of at most
    # three labels, and both checks; the commutative equation sends a
    # representative f(0, 1) to f(1, 0), a member of its class that is
    # not its least
    t = theory_from_file({"f": 2, "g": 1, "c": 0},
                         equations + [COMMUTATIVE] * commutative, None,
                         "generated")
    budget = Budget(term_size=depth)
    plans, carriers = [], []
    for n in range(4):
        base = tuple(range(n))
        _assert_table_matches_reference(t, base, budget)
        carriers.append(reference_carrier(t, base, budget))
        plans.append(theories.free_plan(t, n, budget))
        assert plans[n].elements(base) == carriers[n]
    for n, m in itertools.product(range(4), repeat=2):
        least = reference_least_members(t, range(m), budget)
        for fn in itertools.product(range(m), repeat=n):
            images = plans[n].act(fn, plans[m])
            assert all(isinstance(p, int) for p in images)
            assert list(map(carriers[m].__getitem__, images)) == [
                reference_fmap(t, dict(enumerate(fn)), x, least)
                for x in carriers[n]]
    assert check_preserves_monos(t, 2, budget) == \
        reference_preserves_monos(t, 2, budget)
    assert check_preserves_pullbacks_of_monos(t, 2, budget) == \
        reference_pullbacks_of_monos(t, 2, budget)


def test_commutative_swap_image_is_its_class():
    # T(swap) sends the representative f(0, 1) to f(1, 0), a member of the
    # same class, so to its position; with no drop equation the pullback
    # check passes (it reported the swap square on Y = Z = {0, 1} while an
    # image that was no representative stayed a term)
    t = theory_from_file({"f": 2}, [COMMUTATIVE], None, "commutative")
    budget = Budget(term_size=2)
    plan = theories.free_plan(t, 2, budget)
    elems = plan.elements((0, 1))
    f01 = elems.index(("class", AOp("f", (_gen(0), _gen(1)))))
    assert plan.act((1, 0), plan)[f01] == f01
    r = check_preserves_pullbacks_of_monos(t, 2, budget)
    assert r == reference_pullbacks_of_monos(t, 2, budget)
    assert r.ok and r.counterexample is None
