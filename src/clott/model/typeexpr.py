"""Model-level type expressions and their presheaf evaluation.

Expressions are evaluated either over the time category (closed types) or
over its slice by Clk (types mentioning the one slice clock).  Guarded
fixpoints μX.F(▷X) are computed by well-founded recursion on the marked
clock's stage, reusing the coalgebra module's functor machinery.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..coalgebra import (FunctorExpr, functor_eval, functor_map_all,
                         functor_plan, functor_size)
from .presheaf import (Model, Psh, _chain_limit, arrow, clk_psh,
                       coproduct, const_psh, forall_clk, later, product,
                       weaken)
from .timecat import obj_key


class TypeExprM:
    pass


@dataclass(frozen=True)
class MFin(TypeExprM):
    size: int


@dataclass(frozen=True)
class MClk(TypeExprM):
    """The presheaf of clocks — the stated non-example for invariance."""


@dataclass(frozen=True)
class MProd(TypeExprM):
    left: TypeExprM
    right: TypeExprM


@dataclass(frozen=True)
class MSum(TypeExprM):
    left: TypeExprM
    right: TypeExprM


@dataclass(frozen=True)
class MArrow(TypeExprM):
    dom: TypeExprM
    cod: TypeExprM


@dataclass(frozen=True)
class MLater(TypeExprM):
    body: TypeExprM


@dataclass(frozen=True)
class MForall(TypeExprM):
    body: TypeExprM


@dataclass(frozen=True)
class MMu(TypeExprM):
    """μX.F(▷X) for a coalgebra functor expression F."""
    functor: FunctorExpr


@dataclass(frozen=True)
class MTop(TypeExprM):
    pass


@dataclass(frozen=True)
class MBot(TypeExprM):
    pass


@dataclass(frozen=True)
class MAnd(TypeExprM):
    left: TypeExprM
    right: TypeExprM


@dataclass(frozen=True)
class MOr(TypeExprM):
    left: TypeExprM
    right: TypeExprM


@dataclass(frozen=True)
class MEq(TypeExprM):
    """The equality predicate of a type, as the diagonal subpresheaf of
    its square."""
    arg: TypeExprM


@dataclass(frozen=True)
class MExists(TypeExprM):
    """∃ over a family given as a monotone predicate callable(obj, elem)."""
    arg: TypeExprM
    pred: object


@dataclass(frozen=True)
class MForallFam(TypeExprM):
    arg: TypeExprM
    pred: object


PRF = ("prf",)


def eval_type(model: Model, e: TypeExprM, slice_: bool = False) -> Psh:
    """Evaluate a type expression to a finite presheaf over the time
    category (slice_=False) or over its slice by Clk (slice_=True)."""
    cat = model.cat("slice" if slice_ else "time")
    if isinstance(e, MFin):
        return const_psh(cat, tuple(range(e.size)))
    if isinstance(e, MClk):
        clk = clk_psh(model.time)
        return weaken(model, clk) if slice_ else clk
    if isinstance(e, MProd):
        return product(eval_type(model, e.left, slice_),
                       eval_type(model, e.right, slice_))
    if isinstance(e, MSum):
        return coproduct(eval_type(model, e.left, slice_),
                         eval_type(model, e.right, slice_))
    if isinstance(e, MArrow):
        return arrow(eval_type(model, e.dom, slice_),
                     eval_type(model, e.cod, slice_), model.budget)
    if isinstance(e, MLater):
        if not slice_:
            raise ValueError("the delay modality needs the slice clock")
        return later(model, eval_type(model, e.body, True))
    if isinstance(e, MForall):
        body = eval_type(model, e.body, True)
        quantified = forall_clk(model, body)
        return weaken(model, quantified) if slice_ else quantified
    if isinstance(e, MMu):
        if not slice_:
            raise ValueError("guarded fixpoints need the slice clock")
        return mu(model, e.functor)
    if isinstance(e, MTop):
        return const_psh(cat, (PRF,))
    if isinstance(e, MBot):
        return const_psh(cat, ())
    if isinstance(e, (MAnd, MOr)):
        l = eval_type(model, e.left, slice_)
        r = eval_type(model, e.right, slice_)
        fib = {o: (PRF,) if (bool(l.fib[o]) and bool(r.fib[o])
                             if isinstance(e, MAnd)
                             else bool(l.fib[o]) or bool(r.fib[o])) else ()
               for o in cat.objects}
        return _prop_psh(cat, fib)
    if isinstance(e, MEq):
        x = eval_type(model, e.arg, slice_)
        fib = {o: tuple(("pair", a, a) for a in x.fib[o])
               for o in cat.objects}
        act = {m: {("pair", a, a): ("pair", x.act[m][a], x.act[m][a])
                   for a in x.fib[m.src]} for m in cat.morphisms}
        return Psh(cat, fib, act)
    if isinstance(e, (MExists, MForallFam)):
        x = eval_type(model, e.arg, slice_)
        quant = any if isinstance(e, MExists) else all
        fib = {o: (PRF,) if quant(e.pred(o, a) for a in x.fib[o]) else ()
               for o in cat.objects}
        return _prop_psh(cat, fib)
    raise TypeError(f"unknown type expression {type(e).__name__}")


def _prop_psh(cat, fib) -> Psh:
    proof, empty = {PRF: PRF}, {}
    act = {m: (proof if fib[m.src] else empty) for m in cat.morphisms}
    bad = [m for m in cat.morphisms if fib[m.src] and not fib[m.dst]]
    if bad:
        raise ValueError("predicate family is not monotone along "
                         "restriction; not a presheaf")
    return Psh(cat, fib, act)


# ---------------------------------------------------------------------------
# Guarded fixpoints
# ---------------------------------------------------------------------------

def mu(model: Model, f: FunctorExpr) -> Psh:
    """μX.F(▷X): the fiber at stage k is F applied to the chain limit of
    the fibers at stages below k, so stage k is F^{k+1}(1) up to
    isomorphism (the cross-module stage law).

    The ▷-fibers are relabelled with small integers before F is applied,
    so the elements stay shallow even when the fibers blow up (compare the
    relabelled terminal sequences in the coalgebra module).  Objects with
    equally many labels share one fiber and one plan of F, and each action
    is computed on positions and read off the fibers' own elements."""
    cat = model.slice
    chains = cat.stage_shift[0]
    fib: dict = {}          # object -> tuple of F(labels) elements
    plan: dict = {}         # object -> F's plan over its labels
    lat_decode: dict = {}   # object -> families of fib elems, by label
    lat_encode: dict = {}   # object -> family tuple -> label
    by_labels: dict = {}    # number of labels -> (plan, fiber)
    memo: dict = {}

    def act(j: int) -> dict:
        return _mu_act(fib, plan, lat_decode, lat_encode, model, j, memo)

    stage = [o.time.theta(o.clock) for o in cat.objects]
    for i in sorted(range(len(stage)), key=stage.__getitem__):
        o = cat.objects[i]
        chain = chains[i][:stage[i]]
        # the chain limit is as large as the fiber at its top, so an
        # oversized stage is refused before the chain is mapped
        functor_size(f, len(fib[cat.objects[chain[-1]]]) if chain else 1,
                     model.budget)
        families = _chain_limit(cat, fib, act, chain)
        lat_decode[o] = families
        lat_encode[o] = {fam: n for n, fam in enumerate(families)}
        n = len(families)
        if n not in by_labels:
            by_labels[n] = (functor_plan(f, n, model.budget),
                            functor_eval(f, range(n), model.budget))
        plan[o], fib[o] = by_labels[n]

    act_all = {m: act(j) for j, m in enumerate(cat.morphisms)}
    return Psh(cat, fib, act_all)


def _mu_act(fib, plan, lat_decode, lat_encode, model: Model, j: int,
            memo: dict):
    if j in memo:
        return memo[j]
    cat = model.slice
    m = cat.morphisms[j]
    k2 = m.dst.time.theta(m.dst.clock)
    stage_acts = [_mu_act(fib, plan, lat_decode, lat_encode, model, s, memo)
                  for s in cat.stage_shift[2][j][:k2]]
    encode = lat_encode[m.dst]
    label_map = [encode[tuple(stage_acts[beta][fam[beta]]
                              for beta in range(k2))]
                 for fam in lat_decode[m.src]]
    src, dst = fib[m.src], fib[m.dst]
    if m.src == m.dst and label_map == list(range(len(label_map))):
        out = dict(zip(src, src))
    else:
        out = dict(zip(src, map(dst.__getitem__, functor_map_all(
            plan[m.src], plan[m.dst], label_map))))
    memo[j] = out
    return out


# ---------------------------------------------------------------------------
# Force
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ForceReport:
    iso: bool
    first_failure: object          # (object key, stage) or None
    truncation_artifact: bool
    stabilized: bool               # chain maps bijective from stage N-2 up


def check_force(model: Model, a: Psh) -> ForceReport:
    """Compare the canonical map (∀κ.A) → ∀κ.▷κA fiberwise.

    At finite truncation the map forgets the top-stage component, so it is
    an isomorphism exactly when A's fresh-clock chain stabilizes by stage
    N−2; a failure in the non-stabilized case is flagged as a truncation
    artifact rather than a genuine one.
    """
    assert a.cat.kind == "slice"
    lhs = forall_clk(model, a)
    rhs = forall_clk(model, later(model, a))
    n = model.bound
    slc = model.slice
    chains, downs, _ = slc.stage_shift
    stabilized = True
    failure = None
    for i, o in enumerate(model.time_inner.objects):
        # the fresh clock, marked, at stages 0 … N−1
        chain = chains[model.fresh_tops[0][i]]
        top, below = slc.objects[chain[n - 1]], slc.objects[chain[n - 2]]
        step = a.act[slc.morphisms[downs[chain[n - 1]]]]
        img = [step[e] for e in a.fib[top]]
        if len(set(img)) != len(a.fib[top]) or set(img) != set(a.fib[below]):
            stabilized = False
        # canonical map: truncate each family
        image = set()
        injective = True
        for fam in lhs.fib[o]:
            entries = dict(fam[1])
            trunc = ("tup", tuple(
                (alpha, ("tup", tuple((b, entries[b]) for b in range(alpha))))
                for alpha in range(n)))
            if trunc in image:
                injective = False
            image.add(trunc)
        if injective and image == set(rhs.fib[o]):
            continue
        if failure is None:
            sizes = [len(a.fib[slc.objects[u]]) for u in chain]
            failure = (obj_key(o), _first_failure_stage(sizes))
    if failure is None:
        return ForceReport(True, None, False, stabilized)
    return ForceReport(False, failure, not stabilized, stabilized)


def _first_failure_stage(sizes: list[int]) -> int:
    """Least stage m whose forgetful map from the limit over stages < m+1
    to the limit over stages < m fails to be bijective, given the fiber
    sizes at the fresh clock's stages."""
    # the limit over stages < m is the fiber at m-1 (1 when m = 0)
    lim = [1] + sizes
    for m in range(len(sizes)):
        if lim[m + 1] != lim[m]:
            return m
    return len(sizes) - 1
