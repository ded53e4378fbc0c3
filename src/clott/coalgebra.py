"""Set-endofunctor expressions, terminal sequences, final coalgebras,
and bisimilarity engines.

The functor grammar is `const{a,b} | id | prod(F,G) | sum(F,G) | pf(F) |
df(F)`, read by `parser.read_words` through the head table
`FUNCTOR_HEADS`, where pf is the finite-powerset monad (free semilattice)
and df the finitely-supported-distribution monad (free convex algebra).

Carrier-level actions run on integer positions.  `functor_plan` gives F
over the labels 0..n-1: its size in closed form (so oversized stages are
refused before they are built), its elements numbered in canonical order
by construction, and F(fn) for a label map given as a list, as a list of
positions (`functor_map_all`): pf and df wrap their theory's plan
(`theories.free_plan`: bitmasks, integer masses over a common
denominator) around the inner plan, prod positions are i·|R| + j and sum
positions offset.  Elements are decoded only where they are read:
`functor_eval` sorts a user-given base once with `csorted` and decodes
over it, a terminal sequence decodes a stage when `stages` or `stage` is
read, and `mu` decodes each fiber from its plan; relabelled stages never
call `canon_key` per element.  The finality check runs on positions too:
a small coalgebra's structure is a tuple of positions of F's plan.

Bisimilarity is the coarsest stable partition, computed by signature
refinement on state indices with a signature function compiled from F: a
state's signature is recomputed only after one of its successors changed
block id, and only the smaller parts of a split block change id
(O(m log n) signatures in all).  A `.coalg` file is read straight into
those indices; `brute_force_bisimilarity` is the oracle.
"""
from __future__ import annotations

import itertools
import re
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

from . import theories
from .parser import UNCOMMENTED_RE, ParseError, read_words
from .theories import BUILTINS, Budget, BudgetExceeded, canon_key, csorted


# ---------------------------------------------------------------------------
# Functor expressions
# ---------------------------------------------------------------------------

class FunctorExpr:
    pass


@dataclass(frozen=True)
class FConst(FunctorExpr):
    elems: tuple


@dataclass(frozen=True)
class FId(FunctorExpr):
    pass


@dataclass(frozen=True)
class FProd(FunctorExpr):
    left: FunctorExpr
    right: FunctorExpr


@dataclass(frozen=True)
class FSum(FunctorExpr):
    left: FunctorExpr
    right: FunctorExpr


@dataclass(frozen=True)
class FFree(FunctorExpr):
    """Composition T ∘ G for the free-model monad T of a builtin theory."""
    theory: str     # "semilattice" (pf) or "convex" (df)
    inner: FunctorExpr


# head word -> (class, the theory of a free-model head): a head takes the
# class's other fields as functor arguments, and `const` its words
FUNCTOR_HEADS = {"id": (FId, None), "const": (FConst, None),
                 "prod": (FProd, None), "sum": (FSum, None),
                 "pf": (FFree, "semilattice"), "df": (FFree, "convex")}
_FUNCTOR_WORDS = {head: word for word, head in FUNCTOR_HEADS.items()}
FunctorParseError = ParseError  # malformed functor, delay or edge-list syntax


def _functor_node(word: str, args) -> FunctorExpr:
    cls, theory = FUNCTOR_HEADS.get(word, (None, None))
    if cls is FConst and args is not None and len(set(args)) == len(args):
        return FConst(tuple(csorted(args)))
    fields = ([theory] if theory else []) + list(args or ())
    if cls not in (None, FConst) and len(fields) == len(cls.__match_args__):
        return cls(*fields)
    raise ValueError(f"unknown functor {word!r}" if cls is None else
                     "repeated const element" if cls is FConst and args else
                     f"bad arguments to {word!r}")


def parse_functor(text: str) -> FunctorExpr:
    return read_words(text, "a functor", _functor_node,
                      ("prod", "sum", "pf", "df"), ("const",))


def show_functor(f: FunctorExpr) -> str:
    if isinstance(f, FConst):
        return "const{" + ",".join(str(e) for e in f.elems) + "}"
    word = _FUNCTOR_WORDS[type(f), getattr(f, "theory", None)]
    args = [show_functor(getattr(f, field)) for field in f.__match_args__
            if field != "theory"]
    return f"{word}({', '.join(args)})" if args else word


# ---------------------------------------------------------------------------
# Functor action on sets and functions
# ---------------------------------------------------------------------------

def functor_eval(f: FunctorExpr, base, budget: Budget | None = None) -> tuple:
    """The set F(X) in canonical order.  X is sorted once (a range of ints
    already is) and the positions of F's plan are decoded over it."""
    budget = budget or Budget()
    base = tuple(base) if isinstance(base, range) and base.step > 0 \
        else tuple(csorted(base))
    return functor_plan(f, len(base), budget).elements(base)


def functor_plan(f: FunctorExpr, n: int, budget: Budget):
    """The plan of F over the labels 0..n-1: its `size`, its elements in
    canonical order by construction (`elements(base)` decodes them over a
    canonically sorted base of n elements), and `act(fn, dst)`, the action
    F(fn) on positions for a label map fn given as a list of labels of
    dst's base.  Sizes are closed forms, so a plan is cheap to build, and
    an oversized stage is refused before any element exists; the tables
    behind pf and df actions are built on first use."""
    if isinstance(f, FId):
        return _IdPlan(n)
    if isinstance(f, FConst):
        return _ConstPlan(f.elems)
    if isinstance(f, (FProd, FSum)):
        left = functor_plan(f.left, n, budget)
        right = functor_plan(f.right, n, budget)
        plan = (_ProdPlan if isinstance(f, FProd) else _SumPlan)(left, right)
        if plan.size > budget.max_elements:
            raise BudgetExceeded(f"functor stage of size {plan.size} exceeds "
                                 f"budget {budget.max_elements}")
        return plan
    if isinstance(f, FFree):
        inner = functor_plan(f.inner, n, budget)
        return _FreePlan(
            theories.free_plan(BUILTINS[f.theory], inner.size, budget), inner)
    raise AssertionError(type(f).__name__)


class _IdPlan:
    def __init__(self, n: int):
        self.size = n

    def elements(self, base) -> tuple:
        return tuple(base)

    def act(self, fn, dst):
        return fn


class _ConstPlan:
    def __init__(self, elems: tuple):
        self.elems, self.size = elems, len(elems)

    def elements(self, base) -> tuple:
        return self.elems

    def act(self, fn, dst):
        return range(self.size)


class _ProdPlan:
    """("pair", l, r) sits at i·|R| + j for l at i and r at j."""

    def __init__(self, left, right):
        self.left, self.right = left, right
        self.size = left.size * right.size

    def elements(self, base) -> tuple:
        rs = self.right.elements(base)
        return tuple(("pair", l, r) for l in self.left.elements(base)
                     for r in rs)

    def act(self, fn, dst):
        width = dst.right.size
        rf = self.right.act(fn, dst.right)
        return [i * width + j for i in self.left.act(fn, dst.left)
                for j in rf]


class _SumPlan:
    """("inl", l) keeps l's position; ("inr", r) is offset by |L|."""

    def __init__(self, left, right):
        self.left, self.right = left, right
        self.size = left.size + right.size

    def elements(self, base) -> tuple:
        return tuple(itertools.chain(
            (("inl", l) for l in self.left.elements(base)),
            (("inr", r) for r in self.right.elements(base))))

    def act(self, fn, dst):
        off = dst.left.size
        return [*self.left.act(fn, dst.left),
                *(off + j for j in self.right.act(fn, dst.right))]


class _FreePlan:
    """T ∘ G: the plan of the builtin theory T (`theories.free_plan`) over
    the positions of G's plan, which are its labels."""

    def __init__(self, outer, inner):
        self.outer, self.inner, self.size = outer, inner, outer.size

    def elements(self, base) -> tuple:
        return self.outer.elements(self.inner.elements(base))

    def act(self, fn, dst):
        return self.outer.act(self.inner.act(fn, dst.inner), dst.outer)


def functor_map(f: FunctorExpr, fn: dict, value):
    """The function F(fn) applied to one element of F(X), members of
    free-theory layers ordered as `theories.fmap` orders them."""
    if isinstance(f, FId):
        return fn[value]
    if isinstance(f, FConst):
        return value
    if isinstance(f, FProd):
        _, l, r = value
        return ("pair", functor_map(f.left, fn, l),
                functor_map(f.right, fn, r))
    if isinstance(f, FSum):
        tag, v = value
        side = f.left if tag == "inl" else f.right
        return (tag, functor_map(side, fn, v))
    if isinstance(f, FFree):
        theory = BUILTINS[f.theory]
        members = value[1] if value[0] == "set" else [x for x, _ in value[1]]
        inner_fn = {m: functor_map(f.inner, fn, m) for m in members}
        return theories.fmap(theory, inner_fn, value)
    raise AssertionError(type(f).__name__)


def functor_map_all(src, dst, fn) -> list:
    """F(fn) over a whole fiber, on positions: src and dst are the plans of
    F over n and m labels, fn lists the image in range(m) of each label,
    and the result lists the position in dst of the image of each
    position of src."""
    return src.act(fn, dst)


# ---------------------------------------------------------------------------
# Terminal sequences and final coalgebras
# ---------------------------------------------------------------------------

UNIT = ("unit",)


@dataclass(frozen=True)
class TerminalSeq:
    """Stages are relabelled: stage k+1 is F applied to the integer labels
    0..|stage k|-1, so position i of stage k is label i, and plans[k] is
    F's plan over those labels.  Connectors are label-to-label.  A stage
    is decoded from its plan only when it is read."""
    plans: tuple             # plans[k] = F's plan over the labels of stage k
    connectors: tuple        # connectors[k][label(k+1)] = label(k)
    convergence: int | None  # first k with connectors[k] bijective
    budget_hit: bool = False

    def sizes(self) -> list[int]:
        return [1, *(p.size for p in self.plans)]

    def stage(self, k: int) -> tuple:
        """The raw elements of F^k(1)."""
        if k == 0:
            return (UNIT,)
        return self.plans[k - 1].elements(tuple(range(self.sizes()[k - 1])))

    @cached_property
    def stages(self) -> tuple:
        return tuple(map(self.stage, range(len(self.plans) + 1)))


class NotConverged(Exception):
    pass


def terminal_sequence(f: FunctorExpr, max_steps: int,
                      budget: Budget | None = None) -> TerminalSeq:
    budget = budget or Budget()
    plans: list = []
    connectors: list[tuple] = []
    convergence = None
    budget_hit = False
    n = 1
    for k in range(max_steps):
        try:
            plan = functor_plan(f, n, budget)
        except BudgetExceeded:
            budget_hit = True
            break
        # connector k is F(connector k-1); connector 0 is F(1) -> 1
        conn = tuple(functor_map_all(plan, plans[-1], connectors[-1])
                     if k else [0] * plan.size)
        plans.append(plan)
        connectors.append(conn)
        if plan.size == n and len(set(conn)) == n:
            convergence = k
            break
        n = plan.size
    return TerminalSeq(tuple(plans), tuple(connectors), convergence,
                       budget_hit)


@dataclass(frozen=True)
class Coalgebra:
    """ξ = structure: state -> F(states), read only (`EdgeCodes`)."""
    functor: FunctorExpr
    states: tuple
    structure: Mapping


@dataclass(frozen=True)
class FinalityReport:
    verified: bool
    size_bound: int
    coalgebras_checked: int


def final_coalgebra(f: FunctorExpr, max_steps: int = 16,
                    budget: Budget | None = None,
                    verify_size_bound: int = 3
                    ) -> tuple[Coalgebra, TerminalSeq, FinalityReport]:
    """Carrier and structure from the converged terminal sequence, plus a
    bounded finality check (uniqueness of the morphism from every
    F-coalgebra with at most verify_size_bound states), on positions: a
    structure ξ lists a position of F's plan over the states for each
    state, and F(h) of a candidate map h is computed once by the plan's
    action.  Raises BudgetExceeded, before the check starts, when the
    number of candidate maps it would try exceeds the budget."""
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
    final = Coalgebra(f, carrier, structure)
    plans = [functor_plan(f, n, budget) for n in range(verify_size_bound + 1)]
    # each of the |F(n)|^n structures on n states is tried against each of
    # the |carrier|^n maps into the final coalgebra
    work = sum((p.size * len(carrier)) ** n for n, p in enumerate(plans))
    if work > budget.max_elements:
        raise BudgetExceeded(
            f"finality check over coalgebras on at most {verify_size_bound} "
            f"states tries {work} candidate maps, exceeds budget "
            f"{budget.max_elements}")
    checked = 0
    for n, plan in enumerate(plans):
        # h is a morphism from ξ when conn takes F(h)(ξ(s)) to h(s) for
        # every state s, conn being the inverse of the final structure
        maps = [(h, plan.act(h, seq.plans[k]))
                for h in itertools.product(carrier, repeat=n)]
        for xi in itertools.product(range(plan.size), repeat=n):
            checked += 1
            homs = sum(all(conn[fh[x]] == h[s] for s, x in enumerate(xi))
                       for h, fh in maps)
            if homs != 1:
                return final, seq, FinalityReport(False, verify_size_bound,
                                                  checked)
    return final, seq, FinalityReport(True, verify_size_bound, checked)


# ---------------------------------------------------------------------------
# Bisimilarity by signature refinement (smaller-half rule)
# ---------------------------------------------------------------------------

def bisimilarity(coalg: Coalgebra) -> tuple:
    """Coarsest partition P with P = ker(F(quotient) ∘ ξ), as a tuple of
    canonically sorted state blocks ordered by their least member.

    Worklist signature refinement after Paige and Tarjan, generic over the
    functor as in Deifel, Milius, Schröder and Wißmann, on the indices of
    the sorted states: ξ is encoded once over them unless a parsed file
    brings its codes (`EdgeCodes`), and the signature F(class_of)(ξ(s))
    (`_compile`) is recomputed only when a state at an id leaf of ξ(s)
    changed block id.  When a block splits, its largest part keeps the id,
    so a state changes id at most log2(n) times: O(m log n) signatures."""
    states = tuple(theories.psorted(coalg.states))
    index = {s: i for i, s in enumerate(states)}
    class_of = [0] * len(states)
    leaves: list = []
    encode, signature = _compile(coalg.functor, index, class_of, leaves)
    signature = signature or (lambda code: code)
    if isinstance(coalg.structure, EdgeCodes):
        xi, preds = coalg.structure.codes, coalg.structure.preds
    else:
        xi, preds = [], [[] for _ in states]
        for i, s in enumerate(states):
            xi.append(encode(coalg.structure[s]))
            for t in leaves:
                preds[t].append(i)
            leaves.clear()
    members = {0: set(range(len(states)))}
    # block id -> the signature shared by its states that are not dirty
    block_sig: dict = {}
    dirty = set(members[0])
    while dirty:
        regroup: dict = {}
        for s in dirty:
            regroup.setdefault(class_of[s], {}).setdefault(
                signature(xi[s]), []).append(s)
        todo, dirty = dirty, set()
        for b, groups in regroup.items():
            block = members[b]
            sizes = {sig: len(g) for sig, g in groups.items()}
            clean = len(block) - sum(sizes.values())
            if clean:
                # the states not recomputed keep the block's signature
                old = block_sig[b]
                groups.setdefault(old, [])
                sizes[old] = sizes.get(old, 0) + clean
            keep = block_sig[b] = max(sizes, key=sizes.__getitem__)
            if len(sizes) == 1:
                continue
            for sig, part in groups.items():
                if sig == keep:
                    continue
                if clean and sig == old:
                    part = part + [s for s in block if s not in todo]
                block.difference_update(part)
                fresh = len(members)
                members[fresh] = set(part)
                block_sig[fresh] = sig
                for s in part:
                    class_of[s] = fresh
                    dirty.update(preds[s])
    out: dict = {}
    for i, s in enumerate(states):
        out.setdefault(class_of[i], []).append(s)
    return tuple(tuple(b) for b in out.values())


def _compile(f: FunctorExpr, index: dict, class_of: list,
             leaves: list) -> tuple:
    """F compiled for `bisimilarity` as (encode, signature).  encode(v)
    gives the code of v ∈ F(states): each state its index, also appended
    to leaves, each constant its position in FConst.elems, sum tags 0/1,
    pf and df elements tuples of member codes and of (code, mass) pairs.
    signature(code) is F(class_of)(code) with pf and df layers as
    frozensets (df's of (member, summed mass) pairs): signatures are only
    compared.  It is None where f has no id leaf: the code is its own."""
    if isinstance(f, FId):
        def encode(v):
            leaves.append(index[v])
            return leaves[-1]
        return encode, class_of.__getitem__
    if isinstance(f, FConst):
        return {e: i for i, e in enumerate(f.elems)}.__getitem__, None
    if isinstance(f, FFree):
        me, ms = _compile(f.inner, index, class_of, leaves)
        if f.theory == "semilattice":
            return (lambda v: tuple(map(me, v[1])),
                    ms and (lambda v: frozenset(map(ms, v))))
        return (lambda v: tuple([(me(x), p) for x, p in v[1]]),
                ms and (lambda v: frozenset(theories.summed_masses(
                    (ms(x), p) for x, p in v).items())))
    (le, ls), (re_, rs) = (_compile(g, index, class_of, leaves)
                           for g in (f.left, f.right))
    if isinstance(f, FSum):
        def encode(v):
            return (0, le(v[1])) if v[0] == "inl" else (1, re_(v[1]))

        def signature(v):
            side = (ls, rs)[v[0]]
            return v if side is None else (v[0], side(v[1]))
    else:
        def encode(v):
            return le(v[1]), re_(v[2])

        def signature(v):
            return (v[0] if ls is None else ls(v[0]),
                    v[1] if rs is None else rs(v[1]))
    return encode, None if ls is None and rs is None else signature


def brute_force_bisimilarity(coalg: Coalgebra) -> tuple:
    """Oracle: enumerate every partition of the state set and return the
    coarsest stable one (a partition is stable when states in a common
    block have equal structure maps after quotienting by the partition)."""
    states = tuple(csorted(coalg.states))
    best = None
    for partition in _all_partitions(list(states)):
        class_of = {s: i for i, block in enumerate(partition) for s in block}
        stable = all(
            functor_map(coalg.functor, class_of, coalg.structure[x]) ==
            functor_map(coalg.functor, class_of, coalg.structure[y])
            for block in partition for x in block for y in block)
        if stable and (best is None or len(partition) < len(best)):
            best = partition
    return tuple(tuple(block) for block in
                 sorted(best, key=lambda b: canon_key(tuple(b))))


def _all_partitions(xs: list):
    if not xs:
        yield []
        return
    first, rest = xs[0], xs[1:]
    for sub in _all_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1:]
        yield [[first]] + sub


# ---------------------------------------------------------------------------
# Weak bisimilarity on the truncated delay monad
# ---------------------------------------------------------------------------

BOT = ("bot",)


def now(a):
    return ("now", a)


def step(d):
    return ("step", d)


def _strip_to_now(d, cap: int):
    """Follow step constructors (at most cap of them) to a now, if any."""
    n = 0
    while d[0] == "step" and n <= cap:
        d = d[1]
        n += 1
    if d[0] == "now":
        return n, d[1]
    return None


def weak_bisim_delay(x, y, rel, n_bound: int) -> dict:
    """Per-stage verdicts for x ~_R y on the truncated delay monad.

    rel is a predicate on pairs of base values; the existential in the
    now-clause ranges over n <= n_bound; the step/step clause consumes one
    stage, and stage 0 holds trivially for it.  Returns {stage: bool} for
    stages 0..n_bound-1 plus "all": the conjunction.
    """
    verdicts = {s: _wb(x, y, rel, s, n_bound) for s in range(n_bound)}
    verdicts["all"] = all(verdicts[s] for s in range(n_bound))
    return verdicts


def _wb(x, y, rel, stage: int, cap: int) -> bool:
    if x[0] == "now":
        hit = _strip_to_now(y, cap)
        return hit is not None and rel(x[1], hit[1])
    if y[0] == "now":
        hit = _strip_to_now(x, cap)
        return hit is not None and rel(hit[1], y[1])
    # both are step or bot; bot behaves as an infinite step chain
    if stage == 0:
        return True
    x2 = x[1] if x[0] == "step" else BOT
    y2 = y[1] if y[0] == "step" else BOT
    return _wb(x2, y2, rel, stage - 1, cap)


# ---------------------------------------------------------------------------
# Edge-list coalgebra files, F(X) = pf(prod(const{labels}, id))
# ---------------------------------------------------------------------------

def parse_coalgebra_file(text: str) -> Coalgebra:
    """Lines `x a y` (transition x --a--> y) and `state x`; `--` starts a
    comment except inside a name, as in `.thy` files.  A bad line raises
    at `line:col:` of its fourth token, or one past its end if it is short;
    states and labels are numbered in sorted order (`EdgeCodes`)."""
    index, edges = {}, []    # index: state -> None, then its position
    for lineno, raw in enumerate(text.splitlines(), 1):
        raw = UNCOMMENTED_RE.match(raw)[0] if "--" in raw else raw
        parts = raw.split()
        if len(parts) == 3:
            index[parts[0]] = index[parts[2]] = None
            edges.append(parts)
        elif len(parts) == 2 and parts[0] == "state":
            index[parts[1]] = None
        elif parts:
            col = len(re.match(r"\s*(?:\S+\s+){3}(?=\S)|.*\S", raw)[0]) + 1
            raise ParseError("expected `x label y` or `state x`", lineno, col)
    states = tuple(sorted(index))
    index.update(zip(states, range(len(states))))
    labels = tuple(sorted({a for _, a, _ in edges}))
    at = {a: i for i, a in enumerate(labels)}
    succ, preds = [set() for _ in states], [[] for _ in states]
    for s, a, t in edges:
        i, j = index[s], index[t]
        succ[i].add((at[a], j))
        preds[j].append(i)
    return Coalgebra(FFree("semilattice", FProd(FConst(labels), FId())),
                     states, EdgeCodes(states, labels, index, succ, preds))


class EdgeCodes(Mapping):
    """A parsed file's ξ, decoded on read, keys in file order: codes[i] is
    ξ(states[i]) as `_compile` codes it, preds[j] the sources into j."""

    def __init__(self, states, labels, index, succ, preds):
        self.states, self.labels, self.index = states, labels, index
        self.codes, self.preds = [tuple(sorted(x)) for x in succ], preds

    def __getitem__(self, s):
        return ("set", tuple(("pair", self.labels[a], self.states[t])
                             for a, t in self.codes[self.index[s]]))

    def __iter__(self):
        return iter(self.index)

    def __len__(self):
        return len(self.index)
