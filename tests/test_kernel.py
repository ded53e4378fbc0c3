"""Typechecker: accepting tests per rule, rejecting tests per side
condition, and the three-valued conversion."""
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
from clott.terms import alpha_eq, free_names, fresh, rename

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


# -- opening binders: the always-renaming oracle ------------------------------

def reference_open2(ctx, x1, b1, x2, b2):
    """The `_open2` that renamed both bodies to a fresh name at every pair
    of binders, kept as the oracle of the one that keeps names."""
    avoid = free_names(b1).all() | free_names(b2).all() | ctx.names()
    z = fresh(x1, avoid)
    return z, rename(b1, {x1: z}), rename(b2, {x2: z})


class _Diverged(Exception):
    pass


def _convert_outcome(ctx, t, u, limit=2000):
    """The verdict of convert, or how it failed to end: a run of more than
    `limit` weak-head steps counts as divergence (beta steps spend no fuel,
    so a self-application never finishes)."""
    real, steps = kernel.whnf, [0]

    def whnf(*args):
        steps[0] += 1
        if steps[0] > limit:
            raise _Diverged
        return real(*args)

    with mock.patch.object(kernel, "whnf", whnf):
        try:
            return convert(ctx, t, u, Fuel(2))
        except (_Diverged, RecursionError) as exc:
            return type(exc).__name__


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


@settings(max_examples=150, deadline=None)
@given(_terms, _terms, _mappings, st.randoms(use_true_random=False))
def test_convert_matches_reference_open2(t, u, mapping, rnd):
    pairs = [(t, u), (t, rename(t, mapping)), (t, _rebind(t, rnd)),
             (_blank_unused(t), _rebind(t, rnd)),
             (t, _blank_unused(_rebind(t, rnd)))]
    for ctx in _CONTEXTS:
        for a, b in pairs:
            got = _convert_outcome(ctx, a, b)
            with mock.patch.object(kernel, "_open2", reference_open2):
                assert got == _convert_outcome(ctx, a, b), (ctx, a, b)


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
