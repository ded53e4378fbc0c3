"""Model-level type expressions and their presheaf evaluation.

Expressions are evaluated either over the time category (closed types) or
over its slice by Clk (types mentioning the one slice clock).  Guarded
fixpoints μX.F(▷X) are computed by well-founded recursion on the marked
clock's stage, reusing the coalgebra module's functor machinery; each
action is made when it is first read.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..coalgebra import FunctorExpr, functor_map_all, functor_plan
from .presheaf import (Model, Psh, _bijective, _limits, _stagewise, arrow,
                       clk_psh, coproduct, const_psh, forall_clk, later,
                       product, weaken)
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
    cat = model.slice if slice_ else model.time
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
    if isinstance(e, MEq):
        x = eval_type(model, e.arg, slice_)
        return Psh(x.cat, tuple(tuple(("pair", a, a) for a in fib)
                                for fib in x.fibs), x.act)
    if isinstance(e, (MExists, MForallFam)):
        x = eval_type(model, e.arg, slice_)
        quant = any if isinstance(e, MExists) else all
        return _prop_psh(x.cat, tuple(
            (PRF,) if quant(e.pred(o, a) for a in fib) else ()
            for o, fib in zip(x.cat.objects, x.fibs)))
    raise TypeError(f"unknown type expression {type(e).__name__}")


def _prop_psh(cat, fibs) -> Psh:
    if any(fibs[s] and not fibs[d] for s, d, _ in cat.mors):
        raise ValueError("predicate family is not monotone along "
                         "restriction; not a presheaf")
    return Psh(cat, fibs, tuple((0,) if fibs[s] else () for s in cat.src_ids))


# ---------------------------------------------------------------------------
# Guarded fixpoints
# ---------------------------------------------------------------------------

def mu(model: Model, f: FunctorExpr) -> Psh:
    """μX.F(▷X): the fiber at stage k is F applied to the chain limit of
    the fibers at stages below k, so stage k is F^{k+1}(1) up to
    isomorphism (the cross-module stage law).

    The ▷-families are relabelled by their positions in the chain limit
    before F is applied, so the elements stay shallow even when the
    fibers blow up (compare the relabelled terminal sequences in the
    coalgebra module).  An action is F's positional action
    (`functor_map_all`) on the label map, and the label map is the chain
    limit's own stage-by-stage action (`_stagewise`).

    `presheaf._limits` builds the fibers stage by stage, along their own
    down-actions, and each action on first read; the fibers with as many
    labels share one fiber and plan of F."""
    cat = model.slice
    by_labels: dict = {}    # number of labels -> (plan, fiber)

    def fiber(lim, chain):
        # the chain limit is as large as the fibers below, so F's plan over
        # its labels refuses an oversized stage before it is mapped
        n = len(lim[0])
        if n not in by_labels:
            plan = functor_plan(f, n, model.budget)
            by_labels[n] = (plan, plan.elements(tuple(range(n))))
        return (lim, by_labels[n][0]), by_labels[n][1]
    return _limits(None, cat, [chain[:k] for chain, k in zip(
        cat.chains, cat.marked_stage)], cat.shift, fiber, _mu_act)


def _mu_act(src: tuple, dst: tuple, *stage_acts):
    """F's action between the fibers over src and dst, each (chain limit,
    plan of F over its labels), along the stage actions of the label
    map."""
    (src_lim, src_plan), (dst_lim, dst_plan) = src, dst
    label_map = _stagewise(src_lim, dst_lim, *stage_acts)
    if src_plan is dst_plan and label_map == tuple(range(len(label_map))):
        return tuple(range(src_plan.size))
    return tuple(functor_map_all(src_plan, dst_plan, label_map))


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
    artifact rather than a genuine one.  It reads fibers and A at `downs`.
    """
    assert a.cat.kind == "slice"
    lhs = forall_clk(model, a)
    rhs = forall_clk(model, later(model, a))
    n = model.bound
    chains, downs = model.slice.chains, model.slice.downs
    stabilized = True
    failure = None
    for i, top_obj in enumerate(model.fresh_top_objs):
        # the fresh clock, marked, at stages 0 … N−1
        chain = chains[top_obj]
        if not _bijective(a.act(downs[chain[n - 1]]),
                          len(a.fibs[chain[n - 2]])):
            stabilized = False
        # canonical map: truncate each family
        image = {("tup", tuple((alpha, ("tup", fam[1][:alpha]))
                               for alpha in range(n)))
                 for fam in lhs.fibs[i]}
        if len(image) == len(lhs.fibs[i]) and image == set(rhs.fibs[i]):
            continue
        if failure is None:
            sizes = [len(a.fibs[u]) for u in chain]
            failure = (obj_key(model.time_inner.objects[i]),
                       _first_failure_stage(sizes))
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
