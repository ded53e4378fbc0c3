"""Quantifier-commutation experiments in the presheaf model.

These check, fiberwise and by exhaustive enumeration, when ∃x.∀κ.φ and
∀κ.∃x.φ agree, and verify the canonical distribution maps for clock
quantification over sums and products.
"""
from __future__ import annotations

from dataclasses import dataclass

from .presheaf import (Model, Psh, _bijective, coproduct, forall_clk,
                       product)
from .timecat import ElObj, obj_key


@dataclass(frozen=True)
class FiberVerdict:
    lhs: bool          # ∃x. ∀κ. φ(x)
    rhs: bool          # ∀κ. ∃x. φ(x)
    witness: object    # least uniform witness in canonical order, or None


def exists_forall_experiment(model: Model, x: Psh, phi) -> dict:
    """Evaluate both quantifier orders at every object that keeps a fresh
    clock in reserve.

    x is a presheaf over the full time category and phi(u, e) a predicate
    on elements e ∈ x at marked-clock objects u.  The left side looks for
    a single element whose restriction satisfies phi at every stage of the
    fresh clock; the right side asks for a (possibly different) element at
    each stage.
    """
    cat = x.cat
    assert cat is model.time
    out = {}
    for i in model.time_inner.parent[1]:
        # per stage of the fresh clock: the target of its introduction,
        # marked, the action and the target fiber
        fresh = model.fresh_clock(cat.objects[i])
        intros = [(ElObj(cat.objects[d], fresh), x.act(j), x.fibs[d])
                  for j, d in cat.intros[i][fresh]]
        witness = None
        for p, e in enumerate(x.fibs[i]):
            if all(phi(u, fib[act[p]]) for u, act, fib in intros):
                witness = e
                break
        rhs = all(any(phi(u, e2) for e2 in fib) for u, _, fib in intros)
        out[obj_key(cat.objects[i])] = FiberVerdict(witness is not None,
                                                   rhs, witness)
    return out


def unique_exists_check(model: Model, x: Psh, phi, n: int) -> dict:
    """Check the uniqueness hypothesis behind quantifier commutation.

    hypothesis_holds: at every marked-clock object u, any two phi-witnesses
    coincide unless the marked clock's stage is below n.  commutes: the two
    quantifier orders of exists_forall_experiment agree everywhere.
    """
    assert x.cat is model.time
    hypothesis = True
    counterexample = None
    slc = model.slice
    for u, t, stage in zip(slc.objects, slc.over[1], slc.marked_stage):
        sats = [e for e in x.fibs[t] if phi(u, e)]
        for i, e1 in enumerate(sats):
            for e2 in sats[i + 1:]:
                if e1 != e2 and stage >= n:
                    hypothesis = False
                    counterexample = (obj_key(u), e1, e2)
    verdicts = exists_forall_experiment(model, x, phi)
    commutes = all(v.lhs == v.rhs for v in verdicts.values())
    return {"hypothesis_holds": hypothesis,
            "counterexample": counterexample,
            "commutes": commutes,
            "fibers": verdicts}


# ---------------------------------------------------------------------------
# Distribution of ∀κ over sums and products
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistReport:
    bijective: bool
    natural: bool

    @property
    def ok(self) -> bool:
        return self.bijective and self.natural


def _check_canonical(src: Psh, dst: Psh, send) -> DistReport:
    """send(e): the element of dst that the canonical map sends e to;
    check that the map is a natural bijection, on positions in dst."""
    mapping = []
    for fib, dst_fib in zip(src.fibs, dst.fibs):
        where = {e: k for k, e in enumerate(dst_fib)}
        mapping.append([where[send(e)] for e in fib])
    bijective = all(_bijective(to, len(dst_fib))
                    for to, dst_fib in zip(mapping, dst.fibs))
    natural = all(
        dst_act[mapping[s][p]] == mapping[d][q]
        for (s, d, _), src_act, dst_act in zip(src.cat.mors, src.acts,
                                                dst.acts)
        for p, q in enumerate(src_act))
    return DistReport(bijective, natural)


def check_forall_sum_dist(model: Model, a: Psh, b: Psh) -> DistReport:
    """(∀κ.A) + (∀κ.B) → ∀κ.(A + B): inject every stage of a family."""
    lhs = coproduct(forall_clk(model, a), forall_clk(model, b))
    rhs = forall_clk(model, coproduct(a, b))

    def send(e):
        tag, fam = e
        return ("tup", tuple((alpha, (tag, comp)) for alpha, comp in fam[1]))

    return _check_canonical(lhs, rhs, send)


def check_forall_prod_dist(model: Model, a: Psh, b: Psh) -> DistReport:
    """∀κ.(A × B) → (∀κ.A) × (∀κ.B): split a family componentwise."""
    lhs = forall_clk(model, product(a, b))
    rhs = product(forall_clk(model, a), forall_clk(model, b))

    def send(e):
        entries = e[1]
        fam_a = tuple((alpha, pair[1]) for alpha, pair in entries)
        fam_b = tuple((alpha, pair[2]) for alpha, pair in entries)
        return ("pair", ("tup", fam_a), ("tup", fam_b))

    return _check_canonical(lhs, rhs, send)
