"""Typechecker: accepting tests per rule, rejecting tests per side
condition, and the three-valued conversion."""
import contextlib
import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clott import kernel
from clott import terms as T
from clott.cli import data_path
from clott.kernel import (Context, Fuel, TypeCheckError, UnknownConversion,
                          Verdict, axioms, check, check_declarations,
                          convert, infer, is_type, whnf)
from clott.parser import parse_declarations, parse_term
from clott.printer import show_term
from clott.terms import alpha_eq, free_names, fresh, rename

from .strategies import clocks, ticks
from .test_cli import church_table_text
from .test_terms import _mappings, _rebind, _reference_rebuild, _terms


def chk(src_term: str, src_type: str, fuel: int = 32, ctx=None):
    check(ctx or Context(), parse_term(src_term), parse_term(src_type),
          Fuel(fuel))


def rejected(src_term: str, src_type: str, ctx=None):
    with pytest.raises(TypeCheckError):
        chk(src_term, src_type, ctx=ctx)


# -- accepting: one test per rule -------------------------------------------

def test_var_lam_app():
    chk("fun x -> x", "unit -> unit")
    chk("(fun f -> fun x -> f x)", "(unit -> unit) -> unit -> unit")


def test_dependent_app():
    chk("fun A -> fun x -> x", "(A : U{}) -> El A -> El A")


def test_pair_fst_snd():
    chk("(tt, tt)", "unit * unit")
    chk("fun p -> (snd p, fst p)", "unit * unit -> unit * unit")


def test_dependent_pair():
    chk("fun A -> fun x -> (x, x)",
        "(A : U{}) -> El A -> (y : El A) * El A")


def test_sum_and_case():
    chk("fun s -> case s { inl x -> x | inr y -> y }",
        "unit + unit -> unit")
    chk("inl tt", "unit + empty")
    chk("inr tt", "empty + unit")


def test_unit_id_refl():
    chk("tt", "unit")
    chk("refl", "Id unit tt tt")


def test_tick_abs_app():
    chk("clock k -> fun x -> tick a : k -> x",
        "forall-clk k -> unit -> later (a : k) -> unit")
    chk("clock k -> fun d -> tick b : k -> d [b]",
        "forall-clk k -> (later (a : k) -> unit) -> later (b : k) -> unit")


def test_clock_abs_app():
    chk("fun f -> clock k2 -> f @ k2",
        "(forall-clk k -> unit) -> forall-clk k2 -> unit")


def test_fix():
    chk("clock k -> fix ((fun d -> tt) : (later (a : k) -> unit) -> unit)",
        "forall-clk k -> unit")


def test_universe_codes():
    chk("fun A -> fun B -> cpi (x : A) -> B", "(A : U{}) -> U{} -> U{}")
    chk("fun A -> fun B -> csig (x : A) -> B", "(A : U{}) -> U{} -> U{}")
    chk("fun A -> csum A A", "(A : U{}) -> U{}")
    chk("fun A -> fun x -> cid A x x", "(A : U{}) -> (x : El A) -> U{}")
    chk("clock k -> fun A -> clater (a : k) -> A",
        "forall-clk k -> U{k} -> U{k}")
    chk("fun A -> cforall k -> In{ => k} A", "(A : U{}) -> U{}")


def test_el_computes():
    chk("fun A -> fun x -> x", "(A : U{}) -> El (cpi (x : A) -> A)")


def test_incl():
    chk("fun A -> clock k -> In{ => k} A", "(A : U{}) -> forall-clk k -> U{k}")


def test_prop_formers():
    chk("ptop /\\ pbot", "Prop{}")
    chk("ptop \\/ pbot", "Prop{}")
    chk("fun A -> exists (x : A) -> ptop", "(A : U{}) -> Prop{}")
    chk("fun A -> all (x : A) -> ptop", "(A : U{}) -> Prop{}")
    chk("fun A -> fun x -> peq A x x", "(A : U{}) -> (x : El A) -> Prop{}")
    chk("clock k -> plater (a : k) -> ptop", "forall-clk k -> Prop{k}")
    chk("pforall-clk k -> ptop", "Prop{}")
    chk("tt", "Prf ptop")


# -- rejecting: one test per side condition ----------------------------------

def test_reject_unbound_var():
    rejected("nope", "unit")


def test_reject_wrong_codomain():
    rejected("fun x -> x", "unit -> empty")


def test_reject_tick_abs_without_clock():
    # the clock k is not in context
    rejected("fun x -> tick a : k -> x", "unit -> later (a : k) -> unit")


def test_reject_strict_tick_application():
    # t [a] demands t be typable before a was introduced; d depends on a
    rejected("clock k -> fun d -> tick a : k -> (d [a]) [a]",
             "forall-clk k -> (later (a : k) -> later (b : k) -> unit) "
             "-> later (c : k) -> unit")


def test_reject_clock_app_out_of_scope():
    rejected("fun f -> f @ k9", "(forall-clk k -> unit) -> unit")


def test_reject_universe_clock_side_condition():
    # U{k} is only a type when k is a clock in context
    with pytest.raises(TypeCheckError):
        is_type(Context(), parse_term("U{k}"), Fuel())


def test_reject_clater_clock_not_in_delta():
    # clater (a:k) -> A needs k in the universe's clock set
    rejected("clock k -> fun A -> clater (a : k) -> A",
             "forall-clk k -> U{} -> U{}")


def test_reject_incl_not_subset():
    # In{k => } would shrink the clock set
    rejected("clock k -> fun A -> In{k => } A",
             "forall-clk k -> U{k} -> U{}")


def test_reject_fix_unannotated_argument():
    # fix needs to infer its argument's type
    rejected("clock k -> fix (fun d -> tt)", "forall-clk k -> unit")


def test_reject_prop_universe_mismatch():
    # plater over k cannot live in Prop{}
    rejected("clock k -> plater (a : k) -> ptop", "forall-clk k -> Prop{}")


def test_reject_case_on_non_sum():
    rejected("case tt { inl x -> tt | inr y -> tt }", "unit")


# x : unit under the clocks k and k2; k9 is not a clock here
_REJECTIONS = [
    ("is_type", "U{k9}", "univ-form", "clock 'k9' not in context"),
    ("is_type", "later (a : k9) -> unit", "later-form",
     "clock 'k9' not in context"),
    ("is_type", "tt", "type-form", "tt is not a type"),
    ("is_type", "El x", "el-form",
     "El expects a universe code, got one of type unit"),
    ("is_type", "Prf x", "prf-form",
     "Prf expects a proposition, got one of type unit"),
    ("infer", "pforall-clk k3 -> x", "pforall-clk", "expected a proposition"),
    ("infer", "x /\\ ptop", "pconn", "expected a proposition"),
    ("infer", "x \\/ ptop", "pconn", "expected a proposition"),
    ("infer", "plater (a : k) -> x", "plater", "expected a proposition"),
    ("infer", "plater (a : k9) -> ptop", "plater",
     "clock 'k9' not in context"),
    ("infer", "clater (a : k9) -> x", "later-code",
     "clock 'k9' not in context"),
    ("infer", "cforall k3 -> x", "code",
     "expected a universe code, got a term of type unit"),
    ("infer", "x tt", "app", "applying a non-function of type unit"),
    ("infer", "fst x", "fst", "projection from non-pair type unit"),
    ("infer", "snd x", "snd", "projection from non-pair type unit"),
    ("infer", "x @ k", "clock-app",
     "clock application to a value of type unit"),
    ("infer", "x @ k9", "clock-app", "clock 'k9' not in context"),
    ("check", ("fun y -> y", "unit"), "lam",
     "a function cannot have type unit"),
    ("check", ("(tt, tt)", "unit"), "pair", "a pair cannot have type unit"),
    ("check", ("inl tt", "unit"), "inl", "an injection cannot have type unit"),
    ("check", ("inr tt", "unit"), "inr", "an injection cannot have type unit"),
    ("check", ("tick a : k -> tt", "unit"), "tick-abs",
     "a tick abstraction cannot have type unit"),
    ("check", ("tick a : k -> tt", "later (b : k2) -> unit"), "tick-abs",
     "clock mismatch: abstraction on 'k', type on 'k2'"),
    ("check", ("tick a : k9 -> tt", "later (b : k9) -> unit"), "tick-abs",
     "clock 'k9' not in context"),
    ("check", ("clock k3 -> tt", "unit"), "clock-abs",
     "a clock abstraction cannot have type unit"),
]


@pytest.mark.parametrize("judgement,src,rule,message", _REJECTIONS)
def test_rejection_names_rule_and_message(judgement, src, rule, message):
    ctx = Context().bind_var("x", T.Const("unit")).bind_clock("k") \
        .bind_clock("k2")
    args = [parse_term(s) for s in ((src,) if isinstance(src, str) else src)]
    with pytest.raises(TypeCheckError) as exc:
        getattr(kernel, judgement)(ctx, *args, Fuel())
    assert (exc.value.rule, str(exc.value)) == (rule, f"[{rule}] {message}")


# -- conversion ---------------------------------------------------------------

def cv(a: str, b: str, fuel: int = 32) -> Verdict:
    return convert(Context(), parse_term(a), parse_term(b), Fuel(fuel))


def test_convert_beta():
    assert cv("(fun x -> x) tt", "tt") is Verdict.EQUAL


def test_convert_eta():
    assert cv("fun x -> fst (x, x)", "fun y -> y") is Verdict.EQUAL


def test_convert_pair_eta():
    # surjective pairing against a variable of pair type
    ctx = Context().bind_var("p", parse_term("unit * unit"))
    v = convert(ctx, parse_term("(fst p, snd p)"), parse_term("p"), Fuel())
    assert v is Verdict.EQUAL


def test_convert_apart():
    assert cv("tt", "fun x -> x") is Verdict.APART
    assert cv("inl tt", "inr tt") is Verdict.APART


def test_convert_reflexive_needs_no_fuel():
    assert cv("fix ((fun d -> tt) : (later (a : k) -> unit) -> unit)",
              "fix ((fun d -> tt) : (later (a : k) -> unit) -> unit)",
              fuel=0) is Verdict.EQUAL


def test_unknown_not_apart_under_fuel_exhaustion():
    ctx = Context().bind_var("A", parse_term("U{}")).bind_clock("k")
    fix_src = ("fix ((fun d -> csum (In{ => k} A) (clater (a : k) -> d [a]))"
               " : (later (b : k) -> U{k}) -> U{k})")
    d = parse_term(fix_src)
    unfolded = parse_term(
        f"csum (In{{ => k}} A) (clater (a : k) -> ({fix_src}))")
    assert convert(ctx, d, unfolded, Fuel(1)) is Verdict.EQUAL
    assert convert(ctx, d, unfolded, Fuel(0)) is Verdict.UNKNOWN


def test_whnf_reports_incomplete_on_fuel_exhaustion():
    ctx = Context().bind_clock("k")
    t = parse_term("fix ((fun d -> tt) : (later (a : k) -> unit) -> unit)")
    _, complete = whnf(ctx, t, Fuel(0))
    assert not complete


def test_convert_symmetric_on_corpus():
    pairs = [("(fun x -> x) tt", "tt"), ("tt", "fun x -> x"),
             ("fst (tt, tt)", "snd (tt, tt)")]
    for a, b in pairs:
        assert cv(a, b) is cv(b, a)


# -- axioms -------------------------------------------------------------------

def test_axiom_types_are_well_formed():
    ctx = Context()
    for name, ty in axioms():
        is_type(ctx, ty, Fuel())


def test_axioms_inferable_as_constants():
    for name, ty in axioms():
        got = infer(Context(), parse_term(name), Fuel())
        assert alpha_eq(got, ty)


def test_declarations_sequence_scope():
    decls = parse_declarations(
        "def one : unit = tt\ndef two : unit = one\n")
    check_declarations(decls)


def test_declarations_forward_reference_rejected():
    decls = parse_declarations(
        "def one : unit = two\ndef two : unit = tt\n")
    with pytest.raises(TypeCheckError):
        check_declarations(decls)


_REDEFINED = ("def one : unit = tt\n"
              "def two : unit = one\n"
              "def one : unit -> unit = fun x -> x\n"
              "def three : unit = one tt\n")


def test_declarations_redefinition_later_wins():
    # each declaration sees the latest earlier one of a name, and no later
    check_declarations(parse_declarations(_REDEFINED))
    with pytest.raises(TypeCheckError, match="not convertible"):
        check_declarations(parse_declarations(
            _REDEFINED + "def four : unit = one\n"))
    # a declaration is not in scope in its own body
    with pytest.raises(TypeCheckError, match="'one' not in context"):
        check_declarations(parse_declarations("def one : unit = one\n"))


# -- contexts: the tuple-scan oracle ------------------------------------------

class ReferenceContext:
    """The context as one tuple of entries, outermost first, copied on
    every bind and scanned on every lookup, kept as the oracle of the
    chain of local binders over a declaration table."""

    def __init__(self, entries=()):
        self.entries = tuple(entries)

    def names(self):
        return frozenset(e.name for e in self.entries)

    def __contains__(self, name):
        return name in self.names()

    def bind_var(self, name, type_):
        return ReferenceContext(self.entries + (kernel.VarEntry(name, type_),))

    def bind_clock(self, name):
        return ReferenceContext(self.entries + (kernel.ClockEntry(name),))

    def bind_tick(self, name, clock):
        return ReferenceContext(self.entries
                                + (kernel.TickEntry(name, clock),))

    def lookup_var(self, name):
        for e in reversed(self.entries):
            if isinstance(e, kernel.VarEntry) and e.name == name:
                return e.type_
        return None

    def has_var(self, name):
        return any(isinstance(e, kernel.VarEntry) and e.name == name
                   for e in self.entries)

    def has_clock(self, name):
        return any(isinstance(e, kernel.ClockEntry) and e.name == name
                   for e in self.entries)

    def lookup_tick(self, name):
        for e in self.entries:
            if isinstance(e, kernel.TickEntry) and e.name == name:
                return e.clock
        return None

    def split_at_tick(self, name):
        for i, e in enumerate(self.entries):
            if isinstance(e, kernel.TickEntry) and e.name == name:
                return ReferenceContext(self.entries[:i])
        raise TypeCheckError("tick-app", f"tick {name!r} not in context")


def _names(ctx):
    """The names that ctx binds, read off its entries."""
    return frozenset(e.name for e in ctx.entries)


# "n" names a declaration, a variable, a clock and a tick
_CTX_NAMES = ("x", "y", "n", "k", "k2", "a", "d", "unbound")
_ctx_types = st.sampled_from([None, T.Const("unit"), T.Var("x")])
_binds = st.lists(st.one_of(
    st.tuples(st.just("var"), st.sampled_from(["x", "y", "n"]), _ctx_types),
    st.tuples(st.just("clock"), st.sampled_from(["k", "n"])),
    st.tuples(st.just("tick"), st.sampled_from(["a", "n"]),
              st.sampled_from(["k", "k2", "n"]))), max_size=12)
_decl_tables = st.dictionaries(st.sampled_from(["x", "d", "n"]),
                               _ctx_types.filter(lambda ty: ty is not None),
                               max_size=3)


def _context_answers(ctx):
    answers = {"entries": ctx.entries}
    for name in _CTX_NAMES:
        try:
            prefix = ctx.split_at_tick(name).entries
        except TypeCheckError as exc:
            prefix = str(exc)
        answers[name] = (ctx.lookup_var(name), ctx.has_var(name),
                         ctx.has_clock(name), ctx.lookup_tick(name), prefix,
                         name in ctx, fresh(name, ctx, {"n1"}))
    return answers


@settings(max_examples=300, deadline=None)
@given(_decl_tables, _binds)
def test_context_matches_reference_context(table, binds):
    ctxs = [Context(dict(table))]
    refs = [ReferenceContext(kernel.VarEntry(n, ty)
                             for n, ty in table.items())]
    for kind, *args in binds:
        ctxs.append(getattr(ctxs[-1], f"bind_{kind}")(*args))
        refs.append(getattr(refs[-1], f"bind_{kind}")(*args))
    # every context along the way, after all binds: binding copies nothing
    # and changes no context it extends
    for ctx, ref in zip(ctxs, refs):
        assert _context_answers(ctx) == _context_answers(ref)


def test_deep_context_answers_ticks_without_recursion():
    # the outermost tick of a name wins, 1,500 binders deep
    ctx = Context({"d": T.Const("unit")}).bind_tick("a", "k0")
    for i in range(1500):
        ctx = ctx.bind_tick("a", f"k{i}") if i % 3 == 0 else \
            ctx.bind_var(f"v{i}", None)
    assert ctx.lookup_tick("a") == "k0"
    decl = kernel.VarEntry("d", T.Const("unit"))
    assert ctx.split_at_tick("a").entries == (decl,)
    assert len(ctx.entries) == 1502 and ctx.lookup_var("d") == T.Const("unit")
    assert "v1499" in ctx and "k0" not in ctx


def reference_check_declarations(decls, fuel_budget=32):
    """`check_declarations` over a `ReferenceContext` that each declaration
    extends by one entry."""
    ctx = ReferenceContext()
    for d in decls:
        fuel = Fuel(fuel_budget)
        kernel.is_type(ctx, d.type_, fuel)
        kernel.check(ctx, d.body, d.type_, fuel)
        ctx = ctx.bind_var(d.name, d.type_)


@pytest.mark.parametrize("source", ["figures.clott", "next.clott",
                                    "church-add", "redefined"])
def test_declarations_match_reference_context(source):
    if source == "church-add":
        text = church_table_text("add", 4, 13, wrong=True)
    elif source == "redefined":
        text = _REDEFINED + "def four : unit = one\n"
    else:
        text = data_path(source).read_text(encoding="utf-8")
    decls = parse_declarations(text)
    got = _kernel_outcome(lambda _: check_declarations(decls), 0,
                          limit=10**7)
    assert got == _kernel_outcome(lambda _: reference_check_declarations(
        decls), 0, limit=10**7)
    assert got[0] is None or got[0][0] in ("refl", "conv")


# -- opening binders: the always-renaming oracle ------------------------------

def reference_open2(ctx, x1, b1, x2, b2):
    """The `_open2` that renamed both bodies to a fresh name at every pair
    of binders, kept as the oracle of the one that keeps names."""
    avoid = free_names(b1).all() | free_names(b2).all() | _names(ctx)
    z = fresh(x1, avoid)
    return z, rename(b1, {x1: z}), rename(b2, {x2: z})


class _Diverged(Exception):
    pass


def _kernel_outcome(run, fuel, patches=(), limit=2000):
    """What run(fuel) returns, or the rule and message of its type error,
    the text of its unknown conversion or how it failed to end, with the
    fuel left and the number of weak-head calls.  `patches` replace kernel
    functions for the run; more than `limit` weak-head calls count as
    divergence."""
    budget, steps = Fuel(fuel), [0]
    with contextlib.ExitStack() as stack:
        for name, fn in dict(patches).items():
            stack.enter_context(mock.patch.object(kernel, name, fn))
        real = kernel.whnf

        def whnf(*args):
            steps[0] += 1
            if steps[0] > limit:
                raise _Diverged
            return real(*args)

        stack.enter_context(mock.patch.object(kernel, "whnf", whnf))
        try:
            result = run(budget)
        except TypeCheckError as exc:
            result = exc.rule, str(exc)
        except UnknownConversion as exc:
            result = "unknown", str(exc)
        except (_Diverged, RecursionError) as exc:
            result = type(exc).__name__
    return result, budget.remaining, steps[0]


def _convert_outcome(ctx, t, u, fuel=2, conv=kernel._conv, limit=2000):
    """The verdict of conv, or how it failed to end, with the fuel left and
    the number of weak-head calls: a run of more than `limit` weak-head
    calls counts as divergence (beta steps spend no fuel, so a
    self-application never finishes)."""
    return _kernel_outcome(lambda budget: conv(ctx, t, u, budget), fuel,
                           limit=limit)


def _blank_unused(t):
    """t with every variable binder that binds nothing renamed to `_`."""
    updates = {}
    for field, role, scope in T._SPEC[type(t)]:
        if role == T.TERM:
            updates[field] = _blank_unused(getattr(t, field))
        elif role == T.BIND_VAR and not any(
                getattr(t, field) in free_names(getattr(t, sf)).vars
                for sf in scope):
            updates[field] = "_"
    return _reference_rebuild(t, updates)


_CONTEXTS = (Context(),
             Context().bind_var("x", None).bind_var("y1", None)
             .bind_clock("k1").bind_tick("a2", "k1"))


# where the `fix` of `_unfoldings` unfolds, spending fuel
_FIX_CONTEXT = Context().bind_var("A", T.Univ(())).bind_clock("k")
_FIX_LASTS = ("({fix})", "A", "(A, A)")
_fix_shapes = st.tuples(st.integers(0, 3), st.sampled_from(_FIX_LASTS))


def _fix_mix(t, u, shapes, rnd):
    """Pairs of `fix` unfoldings of the given (depth, last) shapes, with
    binders renamed and beside the terms t and u."""
    a, b = (parse_term(_unfoldings(*shape)) for shape in shapes)
    return [(a, b), (a, _rebind(b, rnd)), (_rebind(a, rnd), a),
            (T.Pair(t, a), T.Pair(_rebind(t, rnd), b)),
            (T.Pair(a, t), T.Pair(b, u))]


def _matches_reference_open2(ctx, a, b):
    got = _convert_outcome(ctx, a, b)
    with mock.patch.object(kernel, "_open2", reference_open2):
        assert got == _convert_outcome(ctx, a, b), (ctx, a, b)
    return got


@settings(max_examples=150, deadline=None)
@given(_terms, _terms, _mappings, st.randoms(use_true_random=False),
       st.tuples(_fix_shapes, _fix_shapes))
def test_convert_matches_reference_open2(t, u, mapping, rnd, shapes):
    pairs = [(t, u), (t, rename(t, mapping)), (t, _rebind(t, rnd)),
             (_blank_unused(t), _rebind(t, rnd)),
             (t, _blank_unused(_rebind(t, rnd)))]
    for ctx in _CONTEXTS:
        for a, b in pairs:
            _matches_reference_open2(ctx, a, b)
    for a, b in _fix_mix(t, u, shapes, rnd):
        _matches_reference_open2(_FIX_CONTEXT, a, b)


def test_fix_mix_spends_fuel_and_ends_unknown():
    # the unfoldings that test_convert_matches_reference_open2 mixes in
    # spend fuel, and some run out of it
    t, u, rnd = T.Var("x"), T.Const("tt"), random.Random(0)
    shapes = list(itertools.product(range(4), _FIX_LASTS))
    outcomes = [_matches_reference_open2(_FIX_CONTEXT, a, b)
                for pair in itertools.product(shapes, repeat=2)
                for a, b in _fix_mix(t, u, pair, rnd)]
    assert any(left < 2 for _, left, _ in outcomes)
    assert any(verdict is Verdict.UNKNOWN for verdict, _, _ in outcomes)
    assert {verdict for verdict, _, _ in outcomes} == set(Verdict)


def _declarations_outcome(text):
    try:
        check_declarations(parse_declarations(text))
    except (TypeCheckError, UnknownConversion) as exc:
        return type(exc).__name__, getattr(exc, "rule", None), str(exc)
    return "pass"


@pytest.mark.parametrize("source", ["figures.clott", "next.clott",
                                    "church-add", "church-mul"])
def test_declarations_match_reference_open2(source):
    if source.startswith("church-"):
        text = church_table_text(source[len("church-"):], 5, 29, wrong=True)
    else:
        text = data_path(source).read_text(encoding="utf-8")
    got = _declarations_outcome(text)
    with mock.patch.object(kernel, "_open2", reference_open2):
        assert got == _declarations_outcome(text)
    assert got == ("pass" if not source.startswith("church-") else
                   ("TypeCheckError", "refl", got[2]))


@pytest.mark.parametrize("binder", ["_", "y"])
def test_conjunction_decodes_without_capturing_underscore(binder):
    # `fun _` binds `_` as a variable, so the codomain mentions it; the
    # pair type that `p /\ q` decodes to must not capture it
    check_declarations(parse_declarations(
        "def f : (A : U{}) -> (x : El A) -> Prf (ptop /\\ peq A x x)"
        " -> (w : unit) * Id (El A) x x"
        f" = fun A {binder} p -> p"), 32)


def test_conjunction_converts_with_underscore_in_context():
    A, u = T.Var("A"), T.Var("_")
    ctx = Context().bind_var("A", T.Univ(())).bind_var("_", T.El(A))
    p = T.Prf(T.PAnd(T.Const("ptop"), T.PEq(A, u, u)))
    pair = lambda x: T.Sigma("w", T.Const("unit"), T.Id(T.El(A), x, x))
    assert convert(ctx, p, pair(T.Var("w"))) is Verdict.APART
    assert convert(ctx, p, pair(u)) is Verdict.EQUAL


# -- congruence: the per-class oracle ------------------------------------------

def reference_conv(ctx, t, u, fuel):
    """The conversion with one congruence case per node class, kept as the
    oracle of the one rule read off `terms._SPEC`."""
    conv, open2 = reference_conv, kernel._open2
    soften, combine = kernel._soften, kernel._combine
    if alpha_eq(t, u):
        return Verdict.EQUAL
    tw, tc = kernel.whnf(ctx, t, fuel)
    uw, uc = kernel.whnf(ctx, u, fuel)
    complete = tc and uc
    if alpha_eq(tw, uw):
        return Verdict.EQUAL

    # eta for functions and pairs
    if isinstance(tw, T.Lam) and not isinstance(uw, T.Lam):
        z = fresh(tw.name, free_names(tw).all() | free_names(uw).all()
                  | _names(ctx))
        body = rename(tw.body, {tw.name: z})
        return soften(conv(ctx.bind_var(z, None), body, T.App(uw, T.Var(z)),
                           fuel), complete)
    if isinstance(uw, T.Lam) and not isinstance(tw, T.Lam):
        return conv(ctx, uw, tw, fuel)
    if isinstance(tw, T.Pair) and not isinstance(uw, T.Pair):
        return soften(combine([
            conv(ctx, tw.fst, T.Fst(uw), fuel),
            conv(ctx, tw.snd, T.Snd(uw), fuel)]), complete)
    if isinstance(uw, T.Pair) and not isinstance(tw, T.Pair):
        return conv(ctx, uw, tw, fuel)

    if type(tw) is not type(uw):
        return Verdict.APART if complete else Verdict.UNKNOWN

    verdicts = []
    if isinstance(tw, T.Var):
        return Verdict.EQUAL if tw.name == uw.name else (
            Verdict.APART if complete else Verdict.UNKNOWN)
    if isinstance(tw, T.Const):
        return Verdict.EQUAL if tw.name == uw.name else (
            Verdict.APART if complete else Verdict.UNKNOWN)
    if isinstance(tw, (T.Univ, T.PropU)):
        return Verdict.EQUAL if tw.clocks == uw.clocks else Verdict.APART
    if isinstance(tw, T.Lam):
        z, b1, b2 = open2(ctx, tw.name, tw.body, uw.name, uw.body)
        return soften(conv(ctx.bind_var(z, None), b1, b2, fuel), complete)
    if isinstance(tw, T.App):
        verdicts = [conv(ctx, tw.fn, uw.fn, fuel),
                    conv(ctx, tw.arg, uw.arg, fuel)]
        return soften(combine(verdicts), complete)
    if isinstance(tw, (T.Pi, T.Sigma, T.PiCode, T.SigmaCode)):
        verdicts.append(conv(ctx, tw.dom, uw.dom, fuel))
        z, c1, c2 = open2(ctx, tw.name, tw.cod, uw.name, uw.cod)
        dom = tw.dom if isinstance(tw, (T.Pi, T.Sigma)) else T.El(tw.dom)
        verdicts.append(conv(ctx.bind_var(z, dom), c1, c2, fuel))
        return soften(combine(verdicts), complete)
    if isinstance(tw, (T.PExists, T.PForall)):
        verdicts.append(conv(ctx, tw.dom, uw.dom, fuel))
        z, c1, c2 = open2(ctx, tw.name, tw.body, uw.name, uw.body)
        verdicts.append(conv(ctx.bind_var(z, T.El(tw.dom)), c1, c2, fuel))
        return soften(combine(verdicts), complete)
    if isinstance(tw, (T.Sum, T.SumCode, T.PAnd, T.POr)):
        verdicts = [conv(ctx, tw.left, uw.left, fuel),
                    conv(ctx, tw.right, uw.right, fuel)]
        return soften(combine(verdicts), complete)
    if isinstance(tw, (T.Id, T.IdCode, T.PEq)):
        a1, a2, a3 = (tw.type_, tw.lhs, tw.rhs) if isinstance(tw, T.Id) else \
            (tw.code, tw.lhs, tw.rhs)
        b1, b2, b3 = (uw.type_, uw.lhs, uw.rhs) if isinstance(uw, T.Id) else \
            (uw.code, uw.lhs, uw.rhs)
        verdicts = [conv(ctx, a1, b1, fuel), conv(ctx, a2, b2, fuel),
                    conv(ctx, a3, b3, fuel)]
        return soften(combine(verdicts), complete)
    if isinstance(tw, (T.Later, T.LaterCode, T.PLater, T.TickAbs)):
        if tw.clock != uw.clock:
            return Verdict.APART
        z, b1, b2 = open2(ctx, tw.tick, tw.body, uw.tick, uw.body)
        return soften(conv(ctx.bind_tick(z, tw.clock), b1, b2, fuel),
                      complete)
    if isinstance(tw, (T.Forall, T.ForallCode, T.PForallClk, T.ClockAbs)):
        z, b1, b2 = open2(ctx, tw.clock, tw.body, uw.clock, uw.body)
        return soften(conv(ctx.bind_clock(z), b1, b2, fuel), complete)
    if isinstance(tw, T.TickApp):
        if tw.tick != uw.tick:
            return Verdict.APART if complete else Verdict.UNKNOWN
        return soften(conv(ctx, tw.fn, uw.fn, fuel), complete)
    if isinstance(tw, T.ClockApp):
        if tw.clock != uw.clock:
            return Verdict.APART if complete else Verdict.UNKNOWN
        return soften(conv(ctx, tw.fn, uw.fn, fuel), complete)
    if isinstance(tw, (T.Fst, T.Snd, T.Inl, T.Inr, T.El, T.Prf)):
        sub = tw.arg if hasattr(tw, "arg") else (
            tw.code if isinstance(tw, T.El) else tw.prop)
        sub2 = uw.arg if hasattr(uw, "arg") else (
            uw.code if isinstance(uw, T.El) else uw.prop)
        return soften(conv(ctx, sub, sub2, fuel), complete)
    if isinstance(tw, T.Pair):
        verdicts = [conv(ctx, tw.fst, uw.fst, fuel),
                    conv(ctx, tw.snd, uw.snd, fuel)]
        return soften(combine(verdicts), complete)
    if isinstance(tw, T.Case):
        verdicts = [conv(ctx, tw.scrut, uw.scrut, fuel)]
        z, l1, l2 = open2(ctx, tw.lname, tw.left, uw.lname, uw.left)
        verdicts.append(conv(ctx.bind_var(z, None), l1, l2, fuel))
        z, r1, r2 = open2(ctx, tw.rname, tw.right, uw.rname, uw.right)
        verdicts.append(conv(ctx.bind_var(z, None), r1, r2, fuel))
        return soften(combine(verdicts), complete)
    raise AssertionError(f"conversion: unhandled node {type(tw).__name__}")


@settings(max_examples=400, deadline=None)
@given(_terms, _terms, _mappings, st.randoms(use_true_random=False))
def test_congruence_matches_reference_conv(t, u, mapping, rnd):
    # verdict, fuel left and weak-head calls agree: the rule converts the
    # same subterms, in the same order, as the per-class cases
    pairs = [(t, u), (t, rename(t, mapping)), (t, _rebind(t, rnd)),
             (_blank_unused(t), _rebind(t, rnd)),
             (t, _blank_unused(_rebind(t, rnd)))]
    for ctx in _CONTEXTS:
        for a, b in pairs:
            for fuel in range(4):
                assert _convert_outcome(ctx, a, b, fuel) == \
                    _convert_outcome(ctx, a, b, fuel, reference_conv), \
                    (ctx, a, b, fuel)


@settings(max_examples=100, deadline=None)
@given(_terms, _terms, st.randoms(use_true_random=False),
       st.tuples(_fix_shapes, _fix_shapes))
def test_congruence_matches_reference_conv_spending_fuel(t, u, rnd, shapes):
    # the drawn pairs above never unfold `fix`; these do, so fuel runs out
    # at some of fuel 0-4, beside drawn terms
    for a, b in _fix_mix(t, u, shapes, rnd):
        for fuel in range(5):
            assert _convert_outcome(_FIX_CONTEXT, a, b, fuel) == \
                _convert_outcome(_FIX_CONTEXT, a, b, fuel, reference_conv), \
                (a, b, fuel)


_SAMPLE = {T.TERM: None, T.NAME_VAR: "n", T.NAME_CLOCK: "k", T.NAME_TICK: "a",
           T.ATOM: "tt", T.NAMESET: ("k",), T.BIND_VAR: "x",
           T.BIND_CLOCK: "k9", T.BIND_TICK: "b"}
_CHANGED = {T.NAME_VAR: "n2", T.NAME_CLOCK: "k2", T.NAME_TICK: "a2",
            T.ATOM: "refl", T.NAMESET: ("k", "k2")}


def _sample(cls, changed=None):
    """A neutral or canonical node of cls whose subterms are distinct free
    variables; `changed` names a field set to another value."""
    fields = {}
    for i, (field, role, _) in enumerate(T._SPEC[cls]):
        fields[field] = T.Var(f"v{i}") if role == T.TERM else _SAMPLE[role]
        if field == changed:
            fields[field] = T.Var("w") if role == T.TERM else _CHANGED[role]
    return cls(**fields)


# whnf erases these fields: an annotation and the inclusion's clock sets
_ERASED = {(T.Ann, "type_"), (T.Incl, "small"), (T.Incl, "big")}


@pytest.mark.parametrize("cls", list(T._SPEC), ids=lambda c: c.__name__)
def test_congruence_per_field(cls):
    ctx = Context()
    assert convert(ctx, _sample(cls), _sample(cls), Fuel(0)) is Verdict.EQUAL
    for field, role, _ in T._SPEC[cls]:
        if role in T._BIND_ROLES:
            continue
        want = Verdict.EQUAL if (cls, field) in _ERASED else Verdict.APART
        got = convert(ctx, _sample(cls), _sample(cls, field), Fuel(0))
        assert got is want, (cls.__name__, field)


def _unfoldings(depth, last="({fix})"):
    """`fix g` for the guarded stream of codes g, unfolded depth times,
    with `last` in place of the innermost `fix g`."""
    g = ("((fun d -> csum (In{ => k} A) (clater (a : k) -> d [a])) : "
         "(later (b : k) -> U{k}) -> U{k})")
    t = last.format(fix=f"fix {g}")
    for _ in range(depth):
        t = f"csum (In{{ => k}} A) (clater (a : k) -> {t})"
    return t


# `fix f` unfolds where f is bound with the type of a guarded recursive
# definition, so the binder's type decides these pairs: Pi and Sigma bind
# their domain; a code binds the decoding El(T) of its domain, no function
# type (bound with T itself, f would unfold and the codes would convert);
# a lambda binds no type
_GUARDED = "(later (a : k) -> unit) -> unit"
_BINDER_CASES = [("(f : {T}) -> Id unit ({b}) tt", Verdict.EQUAL),
                 ("(f : {T}) * Id unit ({b}) tt", Verdict.EQUAL),
                 ("cpi (f : {T}) -> cid unit ({b}) tt", Verdict.APART),
                 ("fun f -> {b}", Verdict.APART)]


def _binder_pair(template):
    return tuple(parse_term(template.format(T=_GUARDED, b=b))
                 for b in ("fix f", "f (tick b : k -> fix f)"))


@pytest.mark.parametrize("template,want", _BINDER_CASES)
def test_binders_type_their_variable(template, want):
    ctx = Context().bind_clock("k")
    assert convert(ctx, *_binder_pair(template), Fuel()) is want


# pairs that unfold `fix`, so that fuel runs out at some of fuel 0-5:
# equal, apart and unknown verdicts, spent fuel and softened apartness,
# subterms that share the fuel in spec order, and ticks that differ under
# a blocked head
_FIX_PAIRS = [(_unfoldings(0), _unfoldings(d)) for d in (1, 2, 3)] + [
    (_unfoldings(0), _unfoldings(d, "A")) for d in (1, 2)] + [
    (_unfoldings(1), _unfoldings(2, "(A, A)")),
    (f"csum {_unfoldings(0)} {_unfoldings(0)}", f"csum ({_unfoldings(1)}) A"),
    (f"{_unfoldings(0)} [b]", f"{_unfoldings(0)} [c]")]


@pytest.mark.parametrize(
    "pair", [tuple(map(parse_term, p)) for p in _FIX_PAIRS]
    + [_binder_pair(t) for t, _ in _BINDER_CASES])
def test_congruence_matches_reference_conv_on_fix(pair):
    ctx = Context().bind_var("A", parse_term("U{}")).bind_clock("k")
    for fuel in range(6):
        assert _convert_outcome(ctx, *pair, fuel) == \
            _convert_outcome(ctx, *pair, fuel, reference_conv), fuel


# -- head reduction and formers: the per-case oracles ---------------------------

def reference_decode_type_code(code):
    if isinstance(code, T.SumCode):
        return T.Sum(T.El(code.left), T.El(code.right))
    if isinstance(code, T.PiCode):
        return T.Pi(code.name, T.El(code.dom), T.El(code.cod))
    if isinstance(code, T.SigmaCode):
        return T.Sigma(code.name, T.El(code.dom), T.El(code.cod))
    if isinstance(code, T.IdCode):
        return T.Id(T.El(code.code), code.lhs, code.rhs)
    if isinstance(code, T.LaterCode):
        return T.Later(code.tick, code.clock, T.El(code.body))
    if isinstance(code, T.ForallCode):
        return T.Forall(code.clock, T.El(code.body))
    return None


def reference_decode_prop(p):
    if isinstance(p, T.Const) and p.name == "ptop":
        return T.Const("unit")
    if isinstance(p, T.Const) and p.name == "pbot":
        return T.Const("empty")
    if isinstance(p, T.PAnd):
        return T.Sigma(fresh("_", free_names(p.right).vars), T.Prf(p.left),
                       T.Prf(p.right))
    if isinstance(p, T.POr):
        return T.Sum(T.Prf(p.left), T.Prf(p.right))
    if isinstance(p, T.PExists):
        return T.Sigma(p.name, T.El(p.dom), T.Prf(p.body))
    if isinstance(p, T.PForall):
        return T.Pi(p.name, T.El(p.dom), T.Prf(p.body))
    if isinstance(p, T.PEq):
        return T.Id(T.El(p.code), p.lhs, p.rhs)
    if isinstance(p, T.PLater):
        return T.Later(p.tick, p.clock, T.Prf(p.body))
    if isinstance(p, T.PForallClk):
        return T.Forall(p.clock, T.Prf(p.body))
    return None


def reference_whnf(ctx, t, fuel):
    """The weak-head normaliser with one case per eliminator and the two
    decoders, kept as the oracle of the head-reduction rule read off
    `kernel._REDEX`.  It recurses through `kernel.whnf`, so that a patch
    there sees its calls."""
    whnf, inst = kernel.whnf, kernel._instantiate
    complete = True
    while True:
        if isinstance(t, T.Ann):
            t = t.term
            continue
        if isinstance(t, T.Incl):
            t = t.code
            continue
        if isinstance(t, T.App):
            fn, c = whnf(ctx, t.fn, fuel)
            complete = complete and c
            if isinstance(fn, T.Lam):
                t = inst(fn.body, fn.name, t.arg)
                continue
            if isinstance(fn, T.Const) and fn.name == "fix":
                unfolded = kernel._unfold_fix(ctx, t.arg, fuel)
                if unfolded is None:
                    return T.App(fn, t.arg), complete
                if unfolded is False:
                    return T.App(fn, t.arg), False
                t = unfolded
                continue
            return T.App(fn, t.arg), complete
        if isinstance(t, (T.Fst, T.Snd)):
            p, c = whnf(ctx, t.arg, fuel)
            complete = complete and c
            if isinstance(p, T.Pair):
                t = p.fst if isinstance(t, T.Fst) else p.snd
                continue
            return type(t)(p), complete
        if isinstance(t, T.Case):
            s, c = whnf(ctx, t.scrut, fuel)
            complete = complete and c
            if isinstance(s, T.Inl):
                t = inst(t.left, t.lname, s.arg)
                continue
            if isinstance(s, T.Inr):
                t = inst(t.right, t.rname, s.arg)
                continue
            return T.Case(s, t.lname, t.left, t.rname, t.right), complete
        if isinstance(t, T.TickApp):
            fn, c = whnf(ctx, t.fn, fuel)
            complete = complete and c
            if isinstance(fn, T.TickAbs):
                t = rename(fn.body, {fn.tick: t.tick})
                continue
            return T.TickApp(fn, t.tick), complete
        if isinstance(t, T.ClockApp):
            fn, c = whnf(ctx, t.fn, fuel)
            complete = complete and c
            if isinstance(fn, T.ClockAbs):
                t = rename(fn.body, {fn.clock: t.clock})
                continue
            return T.ClockApp(fn, t.clock), complete
        if isinstance(t, (T.El, T.Prf)):
            el = isinstance(t, T.El)
            sub, c = whnf(ctx, t.code if el else t.prop, fuel)
            complete = complete and c
            decoded = (reference_decode_type_code if el else
                       reference_decode_prop)(sub)
            if decoded is None:
                return type(t)(sub), complete
            t = decoded
            continue
        return t, complete


_real_check, _real_infer = kernel.check, kernel.infer
_FORMER_CLASSES = (T.PAnd, T.POr, T.PExists, T.PForall, T.PEq, T.PLater,
                   T.PForallClk, T.SumCode, T.PiCode, T.SigmaCode, T.IdCode,
                   T.LaterCode, T.ForallCode)
_INTRO_CLASSES = (T.Lam, T.Pair, T.Inl, T.Inr, T.TickAbs, T.ClockAbs)
_ELIM_CLASSES = (T.App, T.Fst, T.Snd, T.ClockApp)


def _is_fix(t):
    return isinstance(t, T.Const) and t.name == "fix"


def reference_is_type(ctx, a, fuel):
    """`is_type` with one case per type former and per decoding, kept as
    the oracle of the former rule for types."""
    whnf, check, infer = kernel.whnf, kernel.check, kernel.infer
    is_type, fresh_binder = kernel.is_type, kernel._fresh_binder
    aw, _ = whnf(ctx, a, fuel)
    if isinstance(aw, (T.Univ, T.PropU)):
        for k in aw.clocks:
            if not ctx.has_clock(k):
                raise TypeCheckError("univ-form",
                                     f"clock {k!r} not in context")
        return
    if isinstance(aw, T.Const) and aw.name in ("unit", "empty"):
        return
    if isinstance(aw, (T.Pi, T.Sigma)):
        is_type(ctx, aw.dom, fuel)
        name, cod = ("_", aw.cod) if aw.name == "_" else \
            fresh_binder(ctx, aw.name, aw.cod)
        is_type(ctx.bind_var(name, aw.dom), cod, fuel)
        return
    if isinstance(aw, T.Sum):
        is_type(ctx, aw.left, fuel)
        is_type(ctx, aw.right, fuel)
        return
    if isinstance(aw, T.Id):
        is_type(ctx, aw.type_, fuel)
        check(ctx, aw.lhs, aw.type_, fuel)
        check(ctx, aw.rhs, aw.type_, fuel)
        return
    if isinstance(aw, T.Later):
        if not ctx.has_clock(aw.clock):
            raise TypeCheckError("later-form",
                                 f"clock {aw.clock!r} not in context")
        name, body = fresh_binder(ctx, aw.tick, aw.body)
        is_type(ctx.bind_tick(name, aw.clock), body, fuel)
        return
    if isinstance(aw, T.Forall):
        name, body = fresh_binder(ctx, aw.clock, aw.body)
        is_type(ctx.bind_clock(name), body, fuel)
        return
    if isinstance(aw, T.El):
        uw, _ = whnf(ctx, infer(ctx, aw.code, fuel), fuel)
        if not isinstance(uw, T.Univ):
            raise TypeCheckError("el-form", "El expects a universe code, "
                                 f"got one of type {show_term(uw)}")
        return
    if isinstance(aw, T.Prf):
        uw, _ = whnf(ctx, infer(ctx, aw.prop, fuel), fuel)
        if not isinstance(uw, T.PropU):
            raise TypeCheckError("prf-form", "Prf expects a proposition, "
                                 f"got one of type {show_term(uw)}")
        return
    raise TypeCheckError("type-form", f"{show_term(aw)} is not a type")


def reference_fix_conditions(ctx, lat, fns, fuel):
    """The side conditions of `fix` at the delay lat and the functions fns,
    innermost first, one check after another."""
    if not ctx.has_clock(lat.clock):
        raise TypeCheckError("fix", f"clock {lat.clock!r} not in context")
    if lat.tick in free_names(lat.body).ticks:
        raise TypeCheckError("fix", "fix requires a non-dependent delay")
    for fn in fns:
        if fn.name in free_names(fn.cod).vars:
            raise TypeCheckError("fix",
                                 "fix requires a non-dependent function")
    kernel._require_equal(ctx, lat.body, fns[0].cod, fuel, "fix")
    if len(fns) == 2:
        kernel._require_equal(ctx, fns[0].cod, fns[1].cod, fuel, "fix")


def reference_check(ctx, t, a, fuel):
    """`check` with one case per introduction, code and proposition former
    and the `fix` constant, kept as the oracle of the introduction rule,
    `kernel._check_former` and the `fix` rule; other terms go to
    `kernel.check`."""
    if not (isinstance(t, _FORMER_CLASSES + _INTRO_CLASSES) or _is_fix(t)):
        return _real_check(ctx, t, a, fuel)
    check, fresh_binder = kernel.check, kernel._fresh_binder
    infer_universe, inst = kernel._infer_universe, kernel._instantiate
    whnf = kernel.whnf
    aw, _ = whnf(ctx, a, fuel)
    if isinstance(t, T.Lam):
        if not isinstance(aw, T.Pi):
            raise TypeCheckError("lam", f"a function cannot have type "
                                 f"{show_term(aw)}")
        name, body = fresh_binder(ctx, t.name, t.body)
        cod = inst(aw.cod, aw.name, T.Var(name))
        check(ctx.bind_var(name, aw.dom), body, cod, fuel)
        return
    if isinstance(t, T.Pair):
        if not isinstance(aw, T.Sigma):
            raise TypeCheckError("pair", f"a pair cannot have type "
                                 f"{show_term(aw)}")
        check(ctx, t.fst, aw.dom, fuel)
        check(ctx, t.snd, inst(aw.cod, aw.name, t.fst), fuel)
        return
    if isinstance(t, (T.Inl, T.Inr)):
        if not isinstance(aw, T.Sum):
            raise TypeCheckError("inl" if isinstance(t, T.Inl) else "inr",
                                 f"an injection cannot have type "
                                 f"{show_term(aw)}")
        check(ctx, t.arg, aw.left if isinstance(t, T.Inl) else aw.right,
              fuel)
        return
    if isinstance(t, T.TickAbs):
        if not isinstance(aw, T.Later):
            raise TypeCheckError("tick-abs", f"a tick abstraction cannot "
                                 f"have type {show_term(aw)}")
        if aw.clock != t.clock:
            raise TypeCheckError("tick-abs", f"clock mismatch: abstraction "
                                 f"on {t.clock!r}, type on {aw.clock!r}")
        if not ctx.has_clock(t.clock):
            raise TypeCheckError("tick-abs",
                                 f"clock {t.clock!r} not in context")
        name, body = fresh_binder(ctx, t.tick, t.body)
        target = rename(aw.body, {aw.tick: name})
        check(ctx.bind_tick(name, t.clock), body, target, fuel)
        return
    if isinstance(t, T.ClockAbs):
        if not isinstance(aw, T.Forall):
            raise TypeCheckError("clock-abs", f"a clock abstraction cannot "
                                 f"have type {show_term(aw)}")
        name, body = fresh_binder(ctx, t.clock, t.body)
        target = rename(aw.body, {aw.clock: name})
        check(ctx.bind_clock(name), body, target, fuel)
        return
    if _is_fix(t):
        inner = whnf(ctx, aw.dom, fuel)[0] if isinstance(aw, T.Pi) else None
        lat = whnf(ctx, inner.dom, fuel)[0] if isinstance(inner, T.Pi) \
            else None
        if not isinstance(lat, T.Later):
            raise TypeCheckError("fix", f"fix cannot have type "
                                 f"{show_term(aw)}; expected "
                                 "((later k A) -> A) -> A")
        reference_fix_conditions(ctx, lat, [inner, aw], fuel)
        return
    if isinstance(t, (T.PAnd, T.POr)) and isinstance(aw, T.PropU):
        check(ctx, t.left, aw, fuel)
        check(ctx, t.right, aw, fuel)
        return
    if isinstance(t, (T.PExists, T.PForall)) and isinstance(aw, T.PropU):
        d = infer_universe(ctx, t.dom, fuel)
        if not set(d) <= set(aw.clocks):
            raise TypeCheckError("pquant", "the quantification domain lives "
                                 f"in U{{{', '.join(d)}}}, outside "
                                 f"Prop{{{', '.join(aw.clocks)}}}")
        name, body = fresh_binder(ctx, t.name, t.body)
        check(ctx.bind_var(name, T.El(t.dom)), body, aw, fuel)
        return
    if isinstance(t, T.PEq) and isinstance(aw, T.PropU):
        d = infer_universe(ctx, t.code, fuel)
        if not set(d) <= set(aw.clocks):
            raise TypeCheckError("peq", "the equality domain lives in "
                                 f"U{{{', '.join(d)}}}, outside "
                                 f"Prop{{{', '.join(aw.clocks)}}}")
        check(ctx, t.lhs, T.El(t.code), fuel)
        check(ctx, t.rhs, T.El(t.code), fuel)
        return
    if isinstance(t, T.PLater) and isinstance(aw, T.PropU):
        if t.clock not in aw.clocks:
            raise TypeCheckError(
                "plater", f"Prop{{{', '.join(aw.clocks)}}} is not closed "
                f"under delay on clock {t.clock!r}")
        name, body = fresh_binder(ctx, t.tick, t.body)
        check(ctx.bind_tick(name, t.clock), body, aw, fuel)
        return
    if isinstance(t, T.PForallClk) and isinstance(aw, T.PropU):
        name, body = fresh_binder(ctx, t.clock, t.body)
        check(ctx.bind_clock(name), body, T.PropU(aw.clocks + (name,)), fuel)
        return
    if isinstance(t, T.SumCode) and isinstance(aw, T.Univ):
        check(ctx, t.left, aw, fuel)
        check(ctx, t.right, aw, fuel)
        return
    if isinstance(t, (T.PiCode, T.SigmaCode)) and isinstance(aw, T.Univ):
        check(ctx, t.dom, aw, fuel)
        name, cod = fresh_binder(ctx, t.name, t.cod)
        check(ctx.bind_var(name, T.El(t.dom)), cod, aw, fuel)
        return
    if isinstance(t, T.IdCode) and isinstance(aw, T.Univ):
        check(ctx, t.code, aw, fuel)
        check(ctx, t.lhs, T.El(t.code), fuel)
        check(ctx, t.rhs, T.El(t.code), fuel)
        return
    if isinstance(t, T.LaterCode) and isinstance(aw, T.Univ):
        if t.clock not in aw.clocks:
            raise TypeCheckError(
                "later-code", f"universe U{{{', '.join(aw.clocks)}}} is not "
                f"closed under delay on clock {t.clock!r}")
        name, body = fresh_binder(ctx, t.tick, t.body)
        check(ctx.bind_tick(name, t.clock), body, aw, fuel)
        return
    if isinstance(t, T.ForallCode) and isinstance(aw, T.Univ):
        name, body = fresh_binder(ctx, t.clock, t.body)
        check(ctx.bind_clock(name), body, T.Univ(aw.clocks + (name,)), fuel)
        return
    inferred = kernel.infer(ctx, t, fuel)
    kernel._require_equal(ctx, inferred, aw, fuel, "conv")


def reference_infer(ctx, t, fuel):
    """`infer` with one case per eliminator and per code and proposition
    former, kept as the oracle of the elimination rule, of reading a
    former's universe off its first part and of the `fix` rule; other
    terms go to `kernel.infer`."""
    if not isinstance(t, _FORMER_CLASSES + _ELIM_CLASSES):
        return _real_infer(ctx, t, fuel)
    check, fresh_binder, whnf = kernel.check, kernel._fresh_binder, kernel.whnf
    infer, infer_universe = kernel.infer, kernel._infer_universe
    inst = kernel._instantiate
    if isinstance(t, T.App) and _is_fix(t.fn):
        gw, _ = whnf(ctx, infer(ctx, t.arg, fuel), fuel)
        if not (isinstance(gw, T.Pi) and isinstance(gw.dom, T.Later)):
            raise TypeCheckError("fix", "fix expects an argument of type "
                                 "(later k A) -> A, got " + show_term(gw))
        reference_fix_conditions(ctx, gw.dom, [gw], fuel)
        return gw.cod
    if isinstance(t, T.App):
        fw, _ = whnf(ctx, infer(ctx, t.fn, fuel), fuel)
        if not isinstance(fw, T.Pi):
            raise TypeCheckError("app", f"applying a non-function of type "
                                 f"{show_term(fw)}")
        check(ctx, t.arg, fw.dom, fuel)
        return inst(fw.cod, fw.name, t.arg)
    if isinstance(t, (T.Fst, T.Snd)):
        rule = "fst" if isinstance(t, T.Fst) else "snd"
        pw, _ = whnf(ctx, infer(ctx, t.arg, fuel), fuel)
        if not isinstance(pw, T.Sigma):
            raise TypeCheckError(rule, f"projection from non-pair type "
                                 f"{show_term(pw)}")
        return pw.dom if rule == "fst" else \
            inst(pw.cod, pw.name, T.Fst(t.arg))
    if isinstance(t, T.ClockApp):
        if not ctx.has_clock(t.clock):
            raise TypeCheckError("clock-app",
                                 f"clock {t.clock!r} not in context")
        fw, _ = whnf(ctx, infer(ctx, t.fn, fuel), fuel)
        if not isinstance(fw, T.Forall):
            raise TypeCheckError("clock-app",
                                 f"clock application to a value of type "
                                 f"{show_term(fw)}")
        return rename(fw.body, {fw.clock: t.clock})
    if isinstance(t, T.SumCode):
        d = infer_universe(ctx, t.left, fuel)
        check(ctx, t.right, T.Univ(d), fuel)
        return T.Univ(d)
    if isinstance(t, (T.PiCode, T.SigmaCode)):
        d = infer_universe(ctx, t.dom, fuel)
        name, cod = fresh_binder(ctx, t.name, t.cod)
        check(ctx.bind_var(name, T.El(t.dom)), cod, T.Univ(d), fuel)
        return T.Univ(d)
    if isinstance(t, T.IdCode):
        d = infer_universe(ctx, t.code, fuel)
        check(ctx, t.lhs, T.El(t.code), fuel)
        check(ctx, t.rhs, T.El(t.code), fuel)
        return T.Univ(d)
    if isinstance(t, (T.PExists, T.PForall)):
        d = infer_universe(ctx, t.dom, fuel)
        name, body = fresh_binder(ctx, t.name, t.body)
        check(ctx.bind_var(name, T.El(t.dom)), body, T.PropU(d), fuel)
        return T.PropU(d)
    if isinstance(t, T.PEq):
        d = infer_universe(ctx, t.code, fuel)
        check(ctx, t.lhs, T.El(t.code), fuel)
        check(ctx, t.rhs, T.El(t.code), fuel)
        return T.PropU(d)
    if isinstance(t, T.LaterCode):
        name, body = fresh_binder(ctx, t.tick, t.body)
        if not ctx.has_clock(t.clock):
            raise TypeCheckError("later-code",
                                 f"clock {t.clock!r} not in context")
        d = infer_universe(ctx.bind_tick(name, t.clock), body, fuel)
        if t.clock not in d:
            raise TypeCheckError(
                "later-code", f"universe U{{{', '.join(d)}}} is not closed "
                f"under delay on clock {t.clock!r}")
        return T.Univ(d)
    if isinstance(t, T.ForallCode):
        name, body = fresh_binder(ctx, t.clock, t.body)
        d = infer_universe(ctx.bind_clock(name), body, fuel)
        return T.Univ(tuple(k for k in d if k != name))
    # the body's type is reduced under the body's binder, and `plater`
    # returns the universe itself, as the codes do
    if isinstance(t, T.PLater):
        name, body = fresh_binder(ctx, t.tick, t.body)
        if not ctx.has_clock(t.clock):
            raise TypeCheckError("plater",
                                 f"clock {t.clock!r} not in context")
        inner = ctx.bind_tick(name, t.clock)
        pw, _ = whnf(inner, infer(inner, body, fuel), fuel)
        if not isinstance(pw, T.PropU):
            raise TypeCheckError("plater", "expected a proposition")
        if t.clock not in pw.clocks:
            raise TypeCheckError(
                "plater", f"Prop{{{', '.join(pw.clocks)}}} is not closed "
                f"under delay on clock {t.clock!r}")
        return T.PropU(pw.clocks)
    if isinstance(t, T.PForallClk):
        name, body = fresh_binder(ctx, t.clock, t.body)
        inner = ctx.bind_clock(name)
        pw, _ = whnf(inner, infer(inner, body, fuel), fuel)
        if not isinstance(pw, T.PropU):
            raise TypeCheckError("pforall-clk", "expected a proposition")
        return T.PropU(tuple(k for k in pw.clocks if k != name))
    lw, _ = whnf(ctx, infer(ctx, t.left, fuel), fuel)
    if not isinstance(lw, T.PropU):
        raise TypeCheckError("pconn", "expected a proposition")
    check(ctx, t.right, lw, fuel)
    return lw


# the kernel with every rewritten rule replaced by its oracle
_REFERENCE_KERNEL = {"whnf": reference_whnf, "check": reference_check,
                     "infer": reference_infer, "is_type": reference_is_type,
                     "_conv": reference_conv}


def _agrees_with_reference(run, fuel):
    got = _kernel_outcome(run, fuel)
    assert got == _kernel_outcome(run, fuel, _REFERENCE_KERNEL)
    return got


_ELIMINATORS = (T.App, T.Fst, T.Snd, T.Case, T.TickApp, T.ClockApp, T.El,
                T.Prf)
_POOLS = {T.NAME_VAR: ["x", "y"], T.NAME_CLOCK: ["k1", "k2", "k"],
          T.NAME_TICK: ["a1", "a2"], T.ATOM: sorted(T.CONSTANTS),
          T.NAMESET: [(), ("k1",)], T.BIND_VAR: ["x", "y", "_"],
          T.BIND_CLOCK: ["k1", "k2"], T.BIND_TICK: ["a1", "a2"]}


def _node(cls, parts, rnd):
    """A cls node whose subterms are the parts in turn, its names drawn
    from small pools."""
    parts = itertools.cycle(parts)
    return cls(**{f: next(parts) if role == T.TERM else
                  rnd.choice(_POOLS[role]) for f, role, _ in T._SPEC[cls]})


def _redexes(parts, rnd):
    """Every eliminator whose head (its first subterm) is a node of every
    class or every constant, the other subterms taken from parts."""
    heads = [_node(cls, parts, rnd) for cls in T._SPEC if cls is not T.Const]
    heads += [T.Const(name) for name in sorted(T.CONSTANTS)]
    return [_node(elim, [head, *parts], rnd)
            for elim in _ELIMINATORS for head in heads]


def _whnf_run(ctx, t):
    return lambda fuel: kernel.whnf(ctx, t, fuel)


@settings(max_examples=40, deadline=None)
@given(st.lists(_terms, min_size=1, max_size=3),
       st.randoms(use_true_random=False), st.tuples(_fix_shapes, _fix_shapes),
       st.integers(0, 3))
def test_whnf_matches_reference_whnf(parts, rnd, shapes, fuel):
    # term, completeness and fuel left agree on redexes of every eliminator
    # over drawn parts, and of `fix` unfoldings that spend the fuel
    for ctx in _CONTEXTS:
        for t in _redexes(parts, rnd):
            _agrees_with_reference(_whnf_run(ctx, t), fuel)
    unfoldings = [t for pair in _fix_mix(parts[0], parts[-1], shapes, rnd)
                  for t in pair]
    for t in unfoldings + _redexes(unfoldings[:2] + parts, rnd):
        _agrees_with_reference(_whnf_run(_FIX_CONTEXT, t), fuel)


def test_redexes_hit_every_table_key():
    hit = set()

    def recorded(key, rule):
        def contract(t, head):
            hit.add(key)
            return rule(t, head)
        return contract

    table = {key: recorded(key, rule) for key, rule in kernel._REDEX.items()}
    parts = [T.Var("x"), T.Const("tt")]
    with mock.patch.dict(kernel._REDEX, table):
        for t in _redexes(parts, random.Random(0)):
            _kernel_outcome(_whnf_run(_CONTEXTS[1], t), 2)
    assert hit == set(kernel._REDEX)
    # ptop and pbot decode, and nothing else contracts under Prf
    decoded = {name: whnf(Context(), T.Prf(T.Const(name)), Fuel())[0]
               for name in T.CONSTANTS}
    assert {n: d for n, d in decoded.items() if type(d) is not T.Prf} == \
        {"ptop": T.Const("unit"), "pbot": T.Const("empty")}


def _stuck_eliminators():
    f, x = T.Var("f"), T.Var("x")
    return [T.App(f, x), T.App(T.App(f, x), x), T.Fst(f), T.Snd(f),
            T.Case(f, "x", x, "y", T.Var("y")), T.TickApp(f, "a1"),
            T.ClockApp(f, "k1"), T.El(f), T.Prf(f)]


@pytest.mark.parametrize("t", _stuck_eliminators(), ids=repr)
def test_whnf_returns_stuck_eliminator_as_it_is(t):
    assert whnf(_CONTEXTS[1], t, Fuel()) == (t, True)
    assert whnf(_CONTEXTS[1], t, Fuel())[0] is t
    # a head that reduces, here by dropping an annotation, is rebuilt
    field = kernel._HEADS[type(t)]
    wrapped = _reference_rebuild(t, {field: T.Ann(getattr(t, field),
                                                  T.Const("unit"))})
    got, complete = whnf(_CONTEXTS[1], wrapped, Fuel())
    assert complete and got == t and got is not t


def test_conv_compares_again_only_after_reduction():
    calls = []

    def counted(t, u):
        calls.append((t, u))
        return alpha_eq(t, u)

    x, y = T.Var("x"), T.Var("y")
    pair = T.Pair(x, y)
    with mock.patch.object(kernel, "alpha_eq", counted):
        # neither side reduces: one comparison, then congruence
        assert kernel._conv(_CONTEXTS[1], x, y, Fuel()) is Verdict.APART
        assert calls == [(x, y)]
        calls.clear()
        # one side reduces to the other: compared again, no congruence
        redex = T.App(T.Lam("w", pair), x)
        assert kernel._conv(_CONTEXTS[1], redex, pair, Fuel()) is \
            Verdict.EQUAL
        assert calls == [(redex, pair), (pair, pair)]


# A : U{}, B : U{k1} and P : Prop{}, for formers that typecheck
_FORMER_CONTEXT = (Context().bind_clock("k1").bind_var("A", T.Univ(()))
                   .bind_var("B", T.Univ(("k1",)))
                   .bind_var("P", T.PropU(())))
_UNIVERSES = (T.Univ(()), T.Univ(("k1",)), T.PropU(()), T.PropU(("k1",)))
_TYPING_CONTEXTS = (*_CONTEXTS, _FORMER_CONTEXT, _FIX_CONTEXT)
_former_leaves = st.sampled_from(
    [T.Var(n) for n in ("A", "B", "P", "x", "y")]
    + [T.Const(n) for n in ("ptop", "pbot", "tt")]
    + [T.Incl((), (k,), T.Var("A")) for k in ("k1", "k2")])
_binder_names = st.sampled_from(["x", "y", "_"])


def _formers_over(ch):
    return st.one_of(
        st.tuples(ch, ch).map(lambda t: T.SumCode(*t)),
        st.tuples(_binder_names, ch, ch).map(lambda t: T.PiCode(*t)),
        st.tuples(_binder_names, ch, ch).map(lambda t: T.SigmaCode(*t)),
        st.tuples(ch, ch, ch).map(lambda t: T.IdCode(*t)),
        st.tuples(ticks, clocks, ch).map(lambda t: T.LaterCode(*t)),
        st.tuples(clocks, ch).map(lambda t: T.ForallCode(*t)),
        st.tuples(ch, ch).map(lambda t: T.PAnd(*t)),
        st.tuples(ch, ch).map(lambda t: T.POr(*t)),
        st.tuples(_binder_names, ch, ch).map(lambda t: T.PExists(*t)),
        st.tuples(_binder_names, ch, ch).map(lambda t: T.PForall(*t)),
        st.tuples(ch, ch, ch).map(lambda t: T.PEq(*t)),
        st.tuples(ticks, clocks, ch).map(lambda t: T.PLater(*t)),
        st.tuples(clocks, ch).map(lambda t: T.PForallClk(*t)))


# formers over typed leaves: most are ill-typed somewhere, many typecheck
_formers = _formers_over(st.one_of(
    _former_leaves,
    st.recursive(_former_leaves, _formers_over, max_leaves=5)))


def _typing_outcomes(ctx, t, types, fuel):
    """`infer` on t, then `check` of t against each type, each agreeing with
    the oracle kernel."""
    runs = [lambda f: kernel.infer(ctx, t, f)]
    runs += [lambda f, a=a: kernel.check(ctx, t, a, f) for a in types]
    return [_agrees_with_reference(run, fuel) for run in runs]


@settings(max_examples=150, deadline=None)
@given(_formers, _terms, st.integers(0, 3))
def test_formers_match_reference_check(t, a, fuel):
    for ctx in _TYPING_CONTEXTS:
        _typing_outcomes(ctx, t, (a, *_UNIVERSES), fuel)


@settings(max_examples=150, deadline=None)
@given(_terms, _terms, st.integers(0, 3))
def test_check_matches_reference_check(t, a, fuel):
    for ctx in _CONTEXTS:
        _typing_outcomes(ctx, t, (a, *_UNIVERSES), fuel)


def _outcome(result):
    """The rule of a run's type error or unknown conversion, else what it
    returned: a pass (None) or an inferred type."""
    return (result[0] if isinstance(result, tuple) else
            "pass" if result is None else
            "inferred" if isinstance(result, T.Term) else result)


def test_former_outcomes_cover_every_rule():
    # the former strategy reaches passes and the failures of every side
    # condition of the rule, in check mode and in infer mode
    outcomes = set()
    for t in _examples(_formers, 400):
        for result, _, _ in _typing_outcomes(_FORMER_CONTEXT, t, _UNIVERSES,
                                             3):
            outcomes.add(_outcome(result))
    assert {"pass", "inferred", "later-code", "plater", "pquant", "peq",
            "code", "conv"} <= outcomes, outcomes


def _examples(strategy, n):
    """n examples of strategy, drawn deterministically."""
    out = []

    @settings(max_examples=n, database=None, derandomize=True,
              deadline=None)
    @given(strategy)
    def collect(x):
        out.append(x)

    collect()
    return out


# -- type formation, introductions and eliminations --------------------------

# leaves typed in _FORMER_CONTEXT or in _FIX_CONTEXT, where the guarded
# stream code unfolds `fix` and spends fuel, and leaves typed in neither
_STREAM = [parse_term(_unfoldings(d, last))
           for d, last in ((0, "({fix})"), (1, "A"), (1, "({fix})"))]
_typing_leaves = st.sampled_from(
    [T.Const(n) for n in ("unit", "empty", "tt", "ptop", "refl", "fix")]
    + [T.Univ(()), T.Univ(("k",)), T.Univ(("k2",)), T.PropU(("k1",))]
    + [T.Var(n) for n in ("A", "B", "P", "x")]
    + [T.El(T.Var("A")), T.El(T.Var("x")), T.El(T.Const("tt")),
       T.Prf(T.Var("P")), T.Prf(T.Var("A"))]
    + [cls(T.Const("tt")) for cls in (T.Fst, T.Snd)]
    + [T.App(T.Const("tt"), T.Const("tt"))]
    + _STREAM + [T.El(code) for code in _STREAM])
# k is a clock of _FIX_CONTEXT, k1 of the others, k2 of none
_typing_clocks = st.sampled_from(["k", "k1", "k2"])


def _types_over(ch, parts):
    return st.one_of(
        st.tuples(_binder_names, ch, ch).map(lambda t: T.Pi(*t)),
        st.tuples(_binder_names, ch, ch).map(lambda t: T.Sigma(*t)),
        st.tuples(ch, ch).map(lambda t: T.Sum(*t)),
        st.tuples(ch, parts, parts).map(lambda t: T.Id(*t)),
        st.tuples(ticks, _typing_clocks, ch).map(lambda t: T.Later(*t)),
        st.tuples(_typing_clocks, ch).map(lambda t: T.Forall(*t)))


# type formers over types, codes, terms and other type formers: many parts
# are ill-typed, many are types
_types = _types_over(st.one_of(_typing_leaves, st.recursive(
    _typing_leaves, lambda ch: _types_over(ch, _typing_leaves),
    max_leaves=5)), _typing_leaves)


def _intros_elims_over(ch):
    return st.one_of(
        st.tuples(_binder_names, ch).map(lambda t: T.Lam(*t)),
        st.tuples(ch, ch).map(lambda t: T.Pair(*t)),
        ch.map(T.Inl), ch.map(T.Inr),
        st.tuples(ticks, _typing_clocks, ch).map(lambda t: T.TickAbs(*t)),
        st.tuples(_typing_clocks, ch).map(lambda t: T.ClockAbs(*t)),
        st.tuples(ch, ch).map(lambda t: T.App(*t)),
        ch.map(T.Fst), ch.map(T.Snd),
        st.tuples(ch, _typing_clocks).map(lambda t: T.ClockApp(*t)),
        st.tuples(ch, _types).map(lambda t: T.Ann(*t)))


# introductions, eliminations and formers over the same leaves, with
# annotated heads
def _typed_over(ch):
    return st.one_of(_intros_elims_over(ch), _formers_over(ch))


_typed_terms = _typed_over(st.one_of(
    _typing_leaves, st.recursive(_typing_leaves, _typed_over, max_leaves=5)))
# (term, type) pairs, well-typed in the contexts that bind their clock and
# variables: leaves (among them `fix`, equations whose `refl` unfolds `fix`
# and spends fuel, a dependent pair, its second projection and a dependent
# application), and every introduction on pairs and elimination of an
# annotated introduction; and `fix` at the types where it needs
# non-dependent functions, which it does not have
_DEPENDENT = "(y : unit) * Id unit y tt"
_TYPED_LEAVES = [tuple(map(parse_term, pair)) for pair in [
    ("tt", "unit"), ("refl", "Id unit tt tt"), ("ptop", "Prop{}"),
    ("A", "U{}"), ("fix", "((later (a : k) -> unit) -> unit) -> unit"),
    (_unfoldings(0), "U{k}"),
    ("refl", f"Id U{{k}} ({_unfoldings(0)}) ({_unfoldings(1)})"),
    ("refl", f"Id U{{k}} ({_unfoldings(1)}) ({_unfoldings(2, 'A')})"),
    ("(tt, refl)", _DEPENDENT),
    (f"snd ((tt, refl) : {_DEPENDENT})", "Id unit tt tt"),
    ("((fun y -> refl) : (y : unit) -> Id unit y y) tt", "Id unit tt tt"),
    ("fix", "((d : later (a : k) -> unit) -> (fun _ -> unit) d) -> unit"),
    ("fix", "(g : (later (a : k) -> unit) -> unit) -> (fun _ -> unit) g")]]
_doms = st.sampled_from([parse_term(src) for src in ("unit", "U{}", "El A")]
                        + [T.El(code) for code in _STREAM])


def _typed_pairs_over(ch):
    return st.one_of(
        st.tuples(_binder_names, ch, _doms).map(
            lambda t: (T.Lam(t[0], t[1][0]), T.Pi(t[0], t[2], t[1][1]))),
        _doms.map(lambda d: (T.Lam("x", T.Var("x")), T.Pi("x", d, d))),
        st.tuples(ch, ch).map(lambda t: (T.Pair(t[0][0], t[1][0]),
                                         T.Sigma("_", t[0][1], t[1][1]))),
        st.tuples(ch, _doms).map(
            lambda t: (T.Inl(t[0][0]), T.Sum(t[0][1], t[1]))),
        st.tuples(ch, _doms).map(
            lambda t: (T.Inr(t[0][0]), T.Sum(t[1], t[0][1]))),
        st.tuples(ticks, _typing_clocks, ch).map(
            lambda t: (T.TickAbs(t[0], t[1], t[2][0]),
                       T.Later(t[0], t[1], t[2][1]))),
        st.tuples(_typing_clocks, ch).map(
            lambda t: (T.ClockAbs(t[0], t[1][0]), T.Forall(t[0], t[1][1]))),
        st.tuples(ch, ch).map(lambda t: (
            T.App(T.Ann(T.Lam("x", t[0][0]), T.Pi("x", t[1][1], t[0][1])),
                  t[1][0]), t[0][1])),
        st.tuples(ch, ch).map(lambda t: (
            T.Fst(T.Ann(T.Pair(t[0][0], t[1][0]),
                        T.Sigma("_", t[0][1], t[1][1]))), t[0][1])),
        st.tuples(ch, ch).map(lambda t: (
            T.Snd(T.Ann(T.Pair(t[0][0], t[1][0]),
                        T.Sigma("_", t[0][1], t[1][1]))), t[1][1])),
        st.tuples(ch, _typing_clocks).map(lambda t: (
            T.ClockApp(T.Ann(T.ClockAbs("k3", t[0][0]),
                             T.Forall("k3", t[0][1])), t[1]), t[0][1])),
        ch.map(lambda p: (T.Ann(*p), p[1])))


_typed_pairs = st.recursive(st.sampled_from(_TYPED_LEAVES), _typed_pairs_over,
                            max_leaves=4)


def _is_type_run(ctx, a):
    return lambda fuel: kernel.is_type(ctx, a, fuel)


@settings(max_examples=150, deadline=None)
@given(st.one_of(_types, _typed_pairs.map(lambda p: p[1])), st.integers(0, 3))
def test_types_match_reference_is_type(a, fuel):
    for ctx in _TYPING_CONTEXTS:
        _agrees_with_reference(_is_type_run(ctx, a), fuel)


def _pairs_outcomes(pairs, t, fuel):
    """Each term of the pairs and t inferred, and checked against every
    type of the pairs, its own among them, in every context."""
    types = [ty for _, ty in pairs]
    return [outcome for ctx in _TYPING_CONTEXTS
            for u in [*(term for term, _ in pairs), t]
            for outcome in _typing_outcomes(ctx, u, types, fuel)]


@settings(max_examples=150, deadline=None)
@given(st.lists(_typed_pairs, min_size=1, max_size=3), _typed_terms,
       st.integers(0, 3))
def test_intros_and_elims_match_reference(pairs, t, fuel):
    # infer and check agree with the per-case oracles on well-typed
    # introductions and eliminations, at their own type and at others,
    # and on terms of every form over typed and ill-typed leaves
    _pairs_outcomes(pairs, t, fuel)


def test_typing_outcomes_cover_every_rule():
    # the strategies reach passes, fuel spent and unknown conversions, and
    # the failures of every rule of type formation, of a former's first
    # part, of introductions, of eliminations and of `fix`
    outcomes, spent = set(), set()
    for a in _examples(st.one_of(_types, _typed_pairs.map(lambda p: p[1])),
                       300):
        for ctx in _TYPING_CONTEXTS:
            outcomes.add("type-" + _outcome(
                _agrees_with_reference(_is_type_run(ctx, a), 3)[0]))
    for t in _examples(_formers, 200):
        for ctx in _TYPING_CONTEXTS:
            outcomes.update(_outcome(result) for result, _, _ in
                            _typing_outcomes(ctx, t, (), 3))
    draws = st.tuples(st.lists(_typed_pairs, min_size=1, max_size=3),
                      _typed_terms)
    for pairs, t in _examples(draws, 500):
        for result, left, _ in _pairs_outcomes(pairs, t, 2):
            outcomes.add(_outcome(result))
            spent.add(left)
    assert {"type-pass", "type-univ-form", "type-later-form",
            "type-type-form", "type-el-form", "type-prf-form", "type-conv",
            "pass", "inferred", "unknown", "code", "later-code", "plater",
            "pforall-clk", "pconn", "lam", "pair", "inl", "inr", "tick-abs",
            "clock-abs", "app", "fst", "snd", "clock-app", "fix",
            "conv"} <= outcomes, outcomes
    assert spent == {0, 1, 2}, spent


def test_plater_infers_its_universe():
    # the body's type reaches Prop{k} by a beta step; `plater` has the
    # universe itself as type, as every former has
    t = parse_term("plater (a : k) -> (ptop : (fun y -> Prop{k}) tt)")
    assert infer(Context().bind_clock("k"), t, Fuel()) == T.PropU(("k",))
