"""Hypothesis strategies shared by the syntax tests."""
from hypothesis import strategies as st

from clott import terms as T

names = st.sampled_from(["x", "y", "z", "w"])
clocks = st.sampled_from(["k1", "k2"])
ticks = st.sampled_from(["a1", "a2"])

_CONSTS = ["tt", "refl", "unit", "empty", "ptop", "pbot",
           "fix", "tirr", "cirr", "force"]


def terms(max_leaves: int = 12, names=names, clocks=clocks, ticks=ticks):
    clock_sets = st.lists(clocks, max_size=2, unique=True).map(tuple)
    base = st.one_of(
        names.map(T.Var),
        st.sampled_from(_CONSTS).map(T.Const),
        clock_sets.map(T.Univ),
        clock_sets.map(T.PropU),
    )

    def extend(ch):
        return st.one_of(
            st.tuples(names, ch).map(lambda t: T.Lam(*t)),
            st.tuples(ch, ch).map(lambda t: T.App(*t)),
            st.tuples(ch, ch).map(lambda t: T.Pair(*t)),
            ch.map(T.Fst), ch.map(T.Snd), ch.map(T.Inl), ch.map(T.Inr),
            st.tuples(ch, names, ch, names, ch).map(lambda t: T.Case(*t)),
            st.tuples(names, ch, ch).map(lambda t: T.Pi(*t)),
            st.tuples(names, ch, ch).map(lambda t: T.Sigma(*t)),
            st.tuples(ch, ch).map(lambda t: T.Sum(*t)),
            st.tuples(ch, ch, ch).map(lambda t: T.Id(*t)),
            st.tuples(ch, ch).map(lambda t: T.Ann(*t)),
            st.tuples(ticks, clocks, ch).map(lambda t: T.TickAbs(*t)),
            st.tuples(ch, ticks).map(lambda t: T.TickApp(*t)),
            st.tuples(clocks, ch).map(lambda t: T.ClockAbs(*t)),
            st.tuples(ch, clocks).map(lambda t: T.ClockApp(*t)),
            st.tuples(ticks, clocks, ch).map(lambda t: T.Later(*t)),
            st.tuples(clocks, ch).map(lambda t: T.Forall(*t)),
            ch.map(T.El), ch.map(T.Prf),
            st.tuples(clock_sets, clock_sets, ch).map(lambda t: T.Incl(*t)),
            st.tuples(ch, ch).map(lambda t: T.SumCode(*t)),
            st.tuples(names, ch, ch).map(lambda t: T.PiCode(*t)),
            st.tuples(names, ch, ch).map(lambda t: T.SigmaCode(*t)),
            st.tuples(ch, ch, ch).map(lambda t: T.IdCode(*t)),
            st.tuples(ticks, clocks, ch).map(lambda t: T.LaterCode(*t)),
            st.tuples(clocks, ch).map(lambda t: T.ForallCode(*t)),
            st.tuples(ch, ch).map(lambda t: T.PAnd(*t)),
            st.tuples(ch, ch).map(lambda t: T.POr(*t)),
            st.tuples(names, ch, ch).map(lambda t: T.PExists(*t)),
            st.tuples(names, ch, ch).map(lambda t: T.PForall(*t)),
            st.tuples(ch, ch, ch).map(lambda t: T.PEq(*t)),
            st.tuples(ticks, clocks, ch).map(lambda t: T.PLater(*t)),
            st.tuples(clocks, ch).map(lambda t: T.PForallClk(*t)),
        )

    return st.recursive(base, extend, max_leaves=max_leaves)


def alg_terms(ops=(("f", 2), ("g", 1), ("c", 0)), max_leaves: int = 8):
    base = st.sampled_from(["x", "y", "z"]).map(T.AVar)

    def extend(ch):
        return st.one_of(*[
            st.tuples(*([ch] * arity)).map(
                lambda args, op=op: T.AOp(op, tuple(args)))
            for op, arity in ops if arity > 0
        ] + [st.just(T.AOp(op, ())) for op, arity in ops if arity == 0])

    return st.recursive(base, extend, max_leaves=max_leaves)
