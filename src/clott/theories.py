"""Algebraic theories, free-model monads on finite sets, and the finite
preservation checks behind the drop-equation criterion.

Builtin theories (semilattice, convex, monoid, commutative-monoid,
truncation) come with exact canonical normal forms.  Custom theories fall
back on bounded term enumeration plus congruence closure, with
three-valued equality: distinct classes are only `unknown` apart, never
`apart`, since a bigger budget might merge them.

Carriers on positions.  Each builtin free model has one plan over the
labels 0..n-1 (`free_plan`): a closed-form size, refused over the budget
before anything is built; codes numbered in canonical order (bitmasks,
integer masses over a common denominator, sorted words, one point); and
T(f) as a map from positions to positions.  `free_model` and the pf and
df functors of the coalgebra module decode it, and the preservation
checks run on it: elements, and with them `Fraction` masses, are built
only for a monos counterexample and for the callers that read them.

Custom carriers on ids.  A custom theory's bounded terms over n labels
are interned in one table (`enumerate_terms`) as labels and (operation,
child ids) pairs.  Equation instances, counted against the budget first,
and congruence closure look such pairs up, and T(f) relabels ids and
sends each image to its class's least term; `AlgTerm`s are decoded only
for representatives.

Canonical order and the boundary rule.  Carriers are listed in the order
of `canon_key`, a total order across numbers (ints and Fractions by
value), strings, tuples and frozensets; it costs a call per atom, so it
runs only at the boundary.
Each public entry point sorts its base once with `csorted`, builds the
carrier on the positions 0..n-1, and decodes positions over the sorted
base only where elements are needed; positions are order-isomorphic to
the sorted base, so decoding keeps the order.  Inside, plain `sorted` is
already the canonical order: on data whose atoms are int labels, const
strings and Fraction masses, every encoding has one atom type per
position (tags at index 0, ("inl", x) and ("inr", y) decided by their
tags, set and distribution tuples compared lexicographically with the
shorter-prefix rule under Python's order and under `canon_key` alike),
so sorted(xs) == csorted(xs) there, and wherever plain comparison is
defined on numbers, strings and tuples of them.  Bases of mixed type and
of frozensets stay part of the API: `psorted` falls back to `csorted` when
plain comparison fails on them or a member holds a frozenset.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .terms import AOp, AVar, AlgTerm, alg_free_vars


class TheoryError(Exception):
    pass


class BudgetExceeded(Exception):
    pass


@dataclass(frozen=True)
class Theory:
    name: str
    ops: tuple[tuple[str, int], ...]            # (operation, arity)
    equations: tuple[tuple[AlgTerm, AlgTerm], ...]
    builtin: str | None = None

    def arity(self, op: str) -> int:
        for o, n in self.ops:
            if o == op:
                return n
        raise TheoryError(f"unknown operation {op!r}")


@dataclass(frozen=True)
class Budget:
    term_size: int = 4          # operation nodes per term (custom theories)
    max_terms: int = 200_000
    max_len: int = 3            # list/multiset length (monoid builtins)
    max_denominator: int = 4    # convex distributions
    max_elements: int = 1_000_000


def _v(n: str) -> AVar:
    return AVar(n)


def _op(o: str, *args: AlgTerm) -> AOp:
    return AOp(o, tuple(args))


# representative weights for the convex-choice family; the associativity
# instance at p = q = 1/2 needs 1/4, 1/3 and their mirror weights
CONVEX_WEIGHTS = {
    "c12": Fraction(1, 2), "c13": Fraction(1, 3), "c14": Fraction(1, 4),
    "c23": Fraction(2, 3), "c34": Fraction(3, 4),
}

BUILTINS: dict[str, Theory] = {
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
            # idempotence, commutativity (p vs 1-p), associativity at 1/2
            (_op("c12", _v("x"), _v("x")), _v("x")),
            (_op("c12", _v("x"), _v("y")), _op("c12", _v("y"), _v("x"))),
            (_op("c13", _v("x"), _v("y")), _op("c23", _v("y"), _v("x"))),
            (_op("c14", _v("x"), _v("y")), _op("c34", _v("y"), _v("x"))),
            (_op("c12", _op("c12", _v("x"), _v("y")), _v("z")),
             _op("c14", _v("x"), _op("c13", _v("y"), _v("z")))),
        ),
        builtin="convex"),
    "monoid": Theory(
        "monoid",
        (("mul", 2), ("e", 0)),
        (
            (_op("mul", _op("mul", _v("x"), _v("y")), _v("z")),
             _op("mul", _v("x"), _op("mul", _v("y"), _v("z")))),
            (_op("mul", _v("x"), _op("e")), _v("x")),
            (_op("mul", _op("e"), _v("x")), _v("x")),
        ),
        builtin="monoid"),
    "commutative-monoid": Theory(
        "commutative-monoid",
        (("mul", 2), ("e", 0)),
        (
            (_op("mul", _op("mul", _v("x"), _v("y")), _v("z")),
             _op("mul", _v("x"), _op("mul", _v("y"), _v("z")))),
            (_op("mul", _v("x"), _op("e")), _v("x")),
            (_op("mul", _op("e"), _v("x")), _v("x")),
            (_op("mul", _v("x"), _v("y")), _op("mul", _v("y"), _v("x"))),
        ),
        builtin="commutative-monoid"),
    "truncation": Theory(
        "truncation",
        (),
        ((_v("x"), _v("y")),),
        builtin="truncation"),
}


def theory_from_file(ops: dict[str, int],
                     equations: list[tuple[AlgTerm, AlgTerm]],
                     builtin: str | None,
                     name: str = "theory") -> Theory:
    if builtin is not None:
        if builtin not in BUILTINS:
            raise TheoryError(f"unknown builtin theory {builtin!r}")
        return BUILTINS[builtin]
    t = Theory(name, tuple(sorted(ops.items())), tuple(equations))
    for lhs, rhs in t.equations:
        for side in (lhs, rhs):
            _check_arities(t, side)
    return t


def _check_arities(t: Theory, term: AlgTerm) -> None:
    if isinstance(term, AOp):
        if t.arity(term.op) != len(term.args):
            n = len(term.args)
            raise TheoryError(f"operation {term.op!r} applied to {n} "
                              f"argument{'' if n == 1 else 's'}")
        for a in term.args:
            _check_arities(t, a)


# ---------------------------------------------------------------------------
# Drop equations
# ---------------------------------------------------------------------------

def is_drop_equation(eq: tuple[AlgTerm, AlgTerm]) -> bool:
    lhs, rhs = eq
    return alg_free_vars(lhs) != alg_free_vars(rhs)


def drop_equations(t: Theory) -> list[tuple[AlgTerm, AlgTerm]]:
    return [eq for eq in t.equations if is_drop_equation(eq)]


# ---------------------------------------------------------------------------
# Canonical element order
# ---------------------------------------------------------------------------

def canon_key(v):
    """Total order key across the mixed canonical encodings (numbers,
    strings, tagged tuples).  Ints and Fractions are one kind, ordered by
    value as Python orders them, so plain comparison, wherever it is
    defined, orders numbers, strings and tuples of them as canon_key does."""
    if isinstance(v, bool):
        return (0, int(v))
    if isinstance(v, (int, Fraction)):
        return (0, v)
    if isinstance(v, str):
        return (2, v)
    if isinstance(v, tuple):
        return (3, tuple(canon_key(x) for x in v))
    if isinstance(v, frozenset):
        return (4, tuple(sorted((canon_key(x) for x in v))))
    raise TypeError(f"no canonical order for {type(v).__name__}")


def csorted(xs):
    return sorted(xs, key=canon_key)


def psorted(xs):
    """csorted by plain comparison, which agrees with canon_key wherever it
    is defined on numbers, strings and tuples of them (see canon_key);
    csorted where a mixed-type base makes plain comparison fail, and where
    a member is or holds a frozenset, since frozensets compare by
    inclusion, a partial order.  Members differ in shape (sum tags,
    tuples of any length), so each is checked."""
    out = list(xs)      # an iterator would be spent by a failed sort
    try:
        out.sort()
    except TypeError:
        return csorted(out)
    if len(out) > 1 and any(map(holds_frozenset, out)):
        return csorted(out)
    return out


_NESTED = frozenset((tuple, frozenset))


def holds_frozenset(v) -> bool:
    """Whether v is or holds a frozenset, by type."""
    if type(v) is tuple:
        for x in v:
            if type(x) in _NESTED and holds_frozenset(x):
                return True
        return False
    return type(v) is frozenset


# ---------------------------------------------------------------------------
# Free models
# ---------------------------------------------------------------------------

STAR = ("star",)


@dataclass(frozen=True)
class FreeModel:
    theory: Theory
    base: tuple
    elements: tuple
    exact: bool     # False for budget-bounded custom carriers (lower bound)


def free_model(t: Theory, base, budget: Budget | None = None) -> FreeModel:
    """The carrier of T(X) in canonical normal forms (builtins) or as
    congruence classes of bounded terms (custom): the base is sorted once,
    and the carrier is its plan decoded over it."""
    budget = budget or Budget()
    base = tuple(csorted(base))
    return FreeModel(t, base, free_plan(t, len(base), budget).elements(base),
                     t.builtin is not None)


def free_plan(t: Theory, n: int, budget: Budget):
    """The plan of T over the labels 0..n-1: its `size`, `elements(base)`
    decoding it over a canonically sorted base of n elements, and
    `act(fn, dst)`, T(fn) as the positions in dst of the images of its
    positions, for fn the labels in dst's base of its n labels.  A builtin
    plan's size is a closed form, refused over the budget before any code
    exists; its codes, in canonical order by construction, are built on
    first use.  A custom theory's plan codes its congruence classes by the
    ids of their representatives in an interned term table and acts by
    relabelling ids (`_ClassPlan`)."""
    b = t.builtin
    if b is None:
        return _ClassPlan(t, n, budget)
    if b == "semilattice":
        return _SetPlan(n, budget)
    if b == "convex":
        return _DistPlan(n, budget)
    if b == "truncation":
        return _PointPlan(n)
    return _WordPlan(n, budget, b)


class _Plan:
    """`codes[i]` encodes the element at position i, and `rank`, built on
    first use, maps a code to its position."""

    @functools.cached_property
    def rank(self) -> dict:
        return {c: i for i, c in enumerate(self.codes)}


class _SetPlan(_Plan):
    """Subsets as bitmasks over the labels, in the lexicographic order of
    their sorted member tuples (`_subsets_lex`)."""

    def __init__(self, n: int, budget: Budget):
        if n > 64 or 2 ** n > budget.max_elements:
            raise BudgetExceeded(f"powerset of a {n}-element set exceeds "
                                 f"budget {budget.max_elements}")
        self.n, self.size = n, 2 ** n

    @functools.cached_property
    def codes(self) -> list:
        return _subsets_lex([1 << j for j in range(self.n)], 0, operator.or_)

    def elements(self, base) -> tuple:
        return tuple(("set", s) for s in
                     _subsets_lex([(x,) for x in base], (), operator.add))

    def act(self, fn, dst) -> list:
        # img[m] = img[m ^ low] | bit(fn[low]), filled a bit at a time: the
        # masks below 2^(i+1) with bit i set are those below 2^i plus bit i
        img = [0]
        for j in fn:
            bit = 1 << j
            img += [m | bit for m in img]
        rank = dst.rank
        return [rank[img[m]] for m in self.codes]


class _DistPlan(_Plan):
    """Distributions as tuples of (label, mass) pairs, with integer masses
    over the common denominator lcm(1..max_denominator)."""

    def __init__(self, n: int, budget: Budget):
        self.n, self.max_denominator = n, budget.max_denominator
        self.size = convex_size(n, budget)
        self.denom = math.lcm(*range(1, budget.max_denominator + 1))

    @functools.cached_property
    def codes(self) -> list:
        codes = set()
        for d in range(1, self.max_denominator + 1):
            for masses in _compositions(d, self.n):
                codes.add(tuple((x, m * (self.denom // d))
                                for x, m in enumerate(masses) if m))
        return sorted(codes)

    def elements(self, base) -> tuple:
        mass = [Fraction(m, self.denom) for m in range(self.denom + 1)]
        return tuple(("dist", tuple((base[x], mass[m]) for x, m in code))
                     for code in self.codes)

    def act(self, fn, dst) -> list:
        rank = dst.rank
        out = []
        for code in self.codes:
            acc: dict = {}
            for x, m in code:
                y = fn[x]
                acc[y] = acc.get(y, 0) + m
            out.append(rank[tuple(sorted(acc.items()))])
        return out


class _WordPlan(_Plan):
    """Words of length at most max_len as tuples of labels (monoid), or
    the nondecreasing ones (commutative monoid: multisets): a slice of an
    infinite free model, still exact on the listed elements."""

    def __init__(self, n: int, budget: Budget, name: str):
        self.n, self.max_len = n, budget.max_len
        self.tag = "list" if name == "monoid" else "bag"
        # n^k words or C(n+k-1, k) multisets of length k over n labels
        # (one of length 0)
        self.size = sum(n ** k if self.tag == "list" else
                        math.comb(n + k - 1, k) if k else 1
                        for k in range(self.max_len + 1))
        if self.size > budget.max_elements:
            raise BudgetExceeded(f"{name} carrier too large")

    @functools.cached_property
    def codes(self) -> list:
        words = [w for k in range(self.max_len + 1) for w in (
            itertools.product(range(self.n), repeat=k) if self.tag == "list"
            else itertools.combinations_with_replacement(range(self.n), k))]
        words.sort()
        return words

    def elements(self, base) -> tuple:
        return tuple((self.tag, tuple(map(base.__getitem__, w)))
                     for w in self.codes)

    def act(self, fn, dst) -> list:
        rank, image = dst.rank, fn.__getitem__
        if self.tag == "list":
            return [rank[tuple(map(image, w))] for w in self.codes]
        return [rank[tuple(sorted(map(image, w)))] for w in self.codes]


class _PointPlan:
    """Truncation: one point over a nonempty set, none over the empty one."""

    def __init__(self, n: int):
        self.size = 1 if n else 0

    def elements(self, base) -> tuple:
        return (STAR,) * self.size

    def act(self, fn, dst) -> list:
        return [0] * self.size


class _ClassPlan(_Plan):
    """A custom theory's congruence classes over the labels, coded by the
    ids of their least terms in the term table (`_closure`).  T(fn)
    relabels the table bottom-up up to the last representative, one
    lookup per term in dst's table, and sends each image to the least
    term of its class there."""

    def __init__(self, t: Theory, n: int, budget: Budget):
        self.terms, self.codes, self.least = _closure(t, n, budget)
        self.size = len(self.codes)
        self.steps = [(i, *self.terms[i])
                      for i in range(n, max(self.codes, default=n - 1) + 1)]

    def elements(self, base) -> tuple:
        return tuple(("class", self.terms.decode(i, base))
                     for i in self.codes)

    def act(self, fn, dst) -> list:
        img, ids, rank = dict(enumerate(fn)), dst.terms.ids, dst.rank
        for i, op, kids in self.steps:
            img[i] = ids[op, tuple([img[k] for k in kids])]
        return [rank[dst.least[img[c]]] for c in self.codes]


def _subsets_lex(units, empty, join) -> list:
    """The subsets of a canonically sorted base in the lexicographic order
    of their sorted member tuples, which is their canonical order: the
    subsets of base[i:] are the empty one, then base[i] joined to each
    subset of base[i+1:], then the nonempty subsets of base[i+1:].  A
    subset is built from `empty` by `join(unit, subset)` over the units
    of its members: 1-tuples and `operator.add` give sorted tuples, bits
    and `operator.or_` bitmasks."""
    subsets = [empty]
    for u in reversed(units):
        subsets = [empty] + [join(u, s) for s in subsets] + subsets[1:]
    return subsets


def convex_size(n: int, budget: Budget) -> int:
    """The size of the convex carrier over n generators, refused before
    enumeration when it exceeds the budget.  The grid (1/d)N^n holds
    C(d + n - 1, n - 1) distributions, and a distribution lies on the grids
    of the multiples of its least denominator; so the distributions with
    least denominator d are the grid's less those of d's proper divisors."""
    least: list[int] = []
    for d in range(1, budget.max_denominator + 1 if n else 1):
        least.append(math.comb(d + n - 1, n - 1) - sum(
            least[e - 1] for e in range(1, d) if d % e == 0))
    if sum(least) > budget.max_elements:
        raise BudgetExceeded("convex carrier too large")
    return sum(least)


def _compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative ints summing to `total`, in
    lexicographic order."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    c = [0] * parts
    c[-1] = total
    while True:
        yield tuple(c)
        # the successor raises the rightmost entry with mass after it and
        # moves the rest of that mass to the last entry
        i, tail = parts - 2, c[-1]
        while i >= 0 and tail == 0:
            tail += c[i]
            i -= 1
        if i < 0:
            return
        c[i] += 1
        c[i + 1:] = [0] * (parts - i - 2) + [tail - 1]


def summed_masses(pairs) -> dict:
    """The masses of (member, mass) pairs added up per member."""
    acc: dict = {}
    for x, m in pairs:
        acc[x] = acc.get(x, 0) + m
    return acc


def fmap(t: Theory, f: dict, elem):
    """Functor action T(f) on one set or distribution element: rename its
    members, the images in canonical order by `psorted`.  Carriers act on
    positions (`free_plan`)."""
    tag = elem[0]
    if tag == "set":
        return ("set", tuple(psorted({f[x] for x in elem[1]})))
    if tag == "dist":
        acc = summed_masses((f[x], m) for x, m in elem[1])
        return ("dist", tuple(psorted(acc.items())))
    raise TheoryError(f"unknown element tag {tag!r}")


# ---------------------------------------------------------------------------
# Custom theories: an interned term table and bounded congruence closure
# ---------------------------------------------------------------------------

class _Terms(list):
    """Ground terms interned as ids: term i is the label i for i < n, else
    the pair (operation, child ids) at index i, and `ids` maps each pair
    back to its id.  Terms are numbered a size layer at a time, smallest
    first, so children come before their parents; `layers[s]` is the
    range of ids with s operation nodes."""

    def __init__(self, n: int):
        super().__init__(range(n))
        self.n, self.layers = n, [range(n)]

    @functools.cached_property
    def rank(self) -> list:
        """Each term's place in the canonical order: by size, operation
        name and children's ranks, as the key (size, 1, op, child keys)."""
        rank = list(range(len(self)))
        for layer in self.layers[1:]:
            order = sorted(layer, key=lambda i: (
                self[i][0], tuple([rank[k] for k in self[i][1]])))
            for r, i in enumerate(order, layer.start):
                rank[i] = r
        return rank

    def decode(self, i: int, base) -> AlgTerm:
        """Term i with the labels' elements of base at its leaves."""
        if i < self.n:
            return AVar(("gen", base[i]))
        op, kids = self[i]
        return AOp(op, tuple([self.decode(k, base) for k in kids]))


def enumerate_terms(t: Theory, n: int, size_budget: int,
                    max_terms: int) -> _Terms:
    """All ground terms over the labels 0..n-1 with at most size_budget
    operation nodes, interned, smallest first.  Each size layer is counted
    before it is built, and a layer that would take the universe past
    max_terms is refused unbuilt."""
    terms = _Terms(n)
    layers = terms.layers
    nullary = [(o, ()) for o, k in t.ops if k == 0]
    for size in range(1, size_budget + 1):
        count = (len(nullary) if size == 1 else 0) + sum(
            math.prod(len(layers[s]) for s in sizes)
            for _, k in t.ops if k for sizes in _compositions(size - 1, k))
        if len(terms) + count > max_terms:
            raise BudgetExceeded(f"term universe exceeds {max_terms}")
        start = len(terms)
        if size == 1:
            terms += nullary
        for o, k in t.ops:
            # distribute size-1 operation nodes among k children
            for sizes in (_compositions(size - 1, k) if k else ()):
                terms += [(o, kids) for kids in
                          itertools.product(*[layers[s] for s in sizes])]
        layers.append(range(start, len(terms)))
    terms.ids = dict(zip(terms[n:], range(n, len(terms))))
    return terms


def _shape(term: AlgTerm) -> tuple[int, list]:
    """A term's operation nodes and its variables, once per occurrence."""
    if isinstance(term, AVar):
        return 0, [term.name]
    shapes = [_shape(a) for a in term.args]
    return 1 + sum(s for s, _ in shapes), [v for _, vs in shapes for v in vs]


def _closure(t: Theory, n: int, budget: Budget) -> tuple[_Terms, list, list]:
    """The term table over n labels up to term_size operation nodes, the
    id of the least term of each congruence class, in canonical order,
    and per term id the id of its class's least term, under the equation
    instances whose sides both fit the table.
    All instances are counted from the layer sizes, and refused past
    max_elements, before any is made."""
    terms = enumerate_terms(t, n, budget.term_size, budget.max_terms)
    counts = [len(layer) for layer in terms.layers]
    shapes, total = [], 0
    for lhs, rhs in t.equations:
        (lsize, lvars), (rsize, rvars) = _shape(lhs), _shape(rhs)
        variables = sorted(set(lvars + rvars))
        occ = [(lvars.count(v), rvars.count(v)) for v in variables]
        room = budget.term_size - max(lsize, rsize)
        slots = {v: k for k, v in enumerate(variables)}
        shapes.append((_instance(lhs, slots, terms.ids),
                       _instance(rhs, slots, terms.ids), occ, room))
        for sizes in _instance_sizes(occ, room, counts):
            total += math.prod(counts[s] for s in sizes)
            if total > budget.max_elements:
                raise BudgetExceeded(
                    f"at least {total} equation instances over {n} labels "
                    f"up to size {budget.term_size}, over the max_elements "
                    f"budget {budget.max_elements}")
    parent = list(range(len(terms)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j) -> bool:
        i, j = sorted((find(i), find(j)))
        parent[j] = i
        return i != j

    for left, right, occ, room in shapes:
        for sizes in _instance_sizes(occ, room, counts):
            for env in itertools.product(*[terms.layers[s] for s in sizes]):
                union(left(env), right(env))
    # congruence: equal children force equal applications; rescan with a
    # signature table keyed by (op, child roots) until nothing merges
    changed = True
    while changed:
        changed, sig = False, {}
        for i in range(n, len(terms)):
            op, kids = terms[i]
            j = sig.setdefault((op, tuple([find(k) for k in kids])), i)
            if j != i and union(i, j):
                changed = True
    reps, least = {}, [0] * len(terms)
    for i in sorted(range(len(terms)), key=terms.rank.__getitem__):
        least[i] = reps.setdefault(find(i), i)
    return terms, list(reps.values()), least


def _instance_sizes(occ, room: int, counts: list):
    """The sizes of terms for variables occurring (lo, ro) times in an
    equation's sides such that each side gains at most room operation
    nodes; only sizes with counts[s] > 0 terms, so each tuple is used."""

    def rec(i, left, right):
        if i == len(occ):
            yield ()
            return
        lo, ro = occ[i]
        for s, c in enumerate(counts):
            if max(left + lo * s, right + ro * s) > room:
                break
            if c:
                for rest in rec(i + 1, left + lo * s, right + ro * s):
                    yield (s,) + rest

    return rec(0, 0, 0) if room >= 0 else ()


def _instance(side: AlgTerm, slots: dict, ids: dict):
    """The id of a side's instance as a function of the tuple of the ids
    assigned to the variables, each at its slot."""
    if isinstance(side, AVar):
        return operator.itemgetter(slots[side.name])
    op, args = side.op, [_instance(a, slots, ids) for a in side.args]
    return lambda env: ids[op, tuple([a(env) for a in args])]


# ---------------------------------------------------------------------------
# Minimal support
# ---------------------------------------------------------------------------

def minimal_support(t: Theory, elem) -> frozenset:
    """The least subset X' of the carrier with elem in T(X').

    For truncation the minimum is not unique (any singleton carries the
    point); ties break toward the canonically least element.
    """
    tag = elem[0]
    if tag in ("set", "list", "bag"):
        return frozenset(elem[1])
    if tag == "dist":
        return frozenset(x for x, _ in elem[1])
    if tag == "star":
        raise TheoryError("truncation support is not unique; use "
                          "brute force with a tie-break")
    raise TheoryError("minimal_support requires a builtin normal form")


# ---------------------------------------------------------------------------
# Preservation checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    ok: bool
    counterexample: tuple | None
    bounds: dict


def _sets_upto(bound: int):
    for n in range(bound + 1):
        yield tuple(range(n))


def check_preserves_monos(t: Theory, size_bound: int = 3,
                          budget: Budget | None = None) -> CheckResult:
    """Exhaustively check that T sends injections X >-> Y (sets of size at
    most size_bound) to injections, on positions: T's plan over each size
    is built once, X and Y are 0..n-1, so an injection is its tuple of
    images, and T(f) is `act` of X's plan.  Elements are decoded only for
    a counterexample."""
    budget = budget or Budget()
    plans = [free_plan(t, n, budget) for n in range(size_bound + 1)]
    for x in _sets_upto(size_bound):
        px = plans[len(x)]
        for y in _sets_upto(size_bound):
            if len(y) < len(x):
                continue
            py = plans[len(y)]
            for images in itertools.permutations(y, len(x)):
                keys = px.act(images, py)
                if len(set(keys)) == len(keys):
                    continue
                i = next(i for i, key in enumerate(keys)
                         if keys.index(key) < i)
                elems = px.elements(x)
                return CheckResult(False, (
                    x, y, tuple(zip(x, images)),
                    elems[keys.index(keys[i])], elems[i]),
                    {"size_bound": size_bound})
    return CheckResult(True, None, {"size_bound": size_bound})


def check_preserves_pullbacks_of_monos(
        t: Theory, size_bound: int = 3,
        budget: Budget | None = None) -> CheckResult:
    """Exhaustively compare T(f^{-1}Z) with the pullback of T(X) -> T(Y)
    <- T(Z) over all f: X -> Y and subsets Z of Y with |X|, |Y| at most
    size_bound.  First counterexample in canonical enumeration order.

    The check runs on positions: T's plan over each size is built once,
    X and Y are 0..n-1, and Z and P = f^{-1}Z are sorted tuples whose
    positions are the labels of the plan of their size; each map T(fn)
    between two plans is computed once.  The pullback is a hash join: T(Z)
    is indexed once per Z by its image under T(incl), and each position
    of T(X) is paired with the positions of T(Z) under its image.  A work
    budget refuses more than max_elements squares before any plan is
    built."""
    budget = budget or Budget()
    squares = _pullback_squares(size_bound, budget.max_elements)
    if squares > budget.max_elements:
        raise BudgetExceeded(
            f"pullback check up to size {size_bound} has at least {squares} "
            f"squares, over the max_elements budget {budget.max_elements}")
    plans = [free_plan(t, n, budget) for n in range(size_bound + 1)]
    # T(fn) from the plan over n labels to the plan over m labels
    act = functools.cache(lambda n, fn, m: plans[n].act(fn, plans[m]))
    for y in _sets_upto(size_bound):
        for z in _subsets(y):
            zpos = {v: j for j, v in enumerate(z)}
            # T(Z) indexed by its image in T(Y)
            over: dict = {}
            for j, key in enumerate(act(len(z), z, len(y))):
                over.setdefault(key, []).append(j)
            for x in _sets_upto(size_bound):
                for f in itertools.product(y, repeat=len(x)):
                    p = tuple(v for v in x if f[v] in zpos)
                    # pullback of T(X) --T(f)--> T(Y) <--T(incl)-- T(Z)
                    pb = {(i, j)
                          for i, key in enumerate(act(len(x), f, len(y)))
                          for j in over.get(key, ())}
                    # image of the canonical map T(P) -> T(X) x T(Z)
                    can = list(zip(act(len(p), p, len(x)), act(
                        len(p), tuple(zpos[f[v]] for v in p), len(z))))
                    if len(set(can)) == len(can) and set(can) == pb:
                        continue
                    square = {"X": x, "Y": y, "Z": z, "P": p,
                              "f": tuple(zip(x, f))}
                    return CheckResult(False, tuple(sorted(square.items())),
                                       {"size_bound": size_bound})
    return CheckResult(True, None, {"size_bound": size_bound})


def _pullback_squares(size_bound: int, cap: int) -> int:
    """The number of squares (f: X -> Y, Z ⊆ Y) with |X|, |Y| at most
    size_bound, Σ_{|Y|} 2^|Y| · Σ_{|X|} |Y|^|X|, or a partial sum past
    cap: sizes beyond cap's bit length add at least 2^that > cap."""
    n = min(size_bound, cap.bit_length()) + 1
    total = 0
    for y in range(n):
        total += sum(y ** x for x in range(n)) << y
        if total > cap:
            break
    return total


def _subsets(y):
    for r in range(len(y) + 1):
        yield from itertools.combinations(y, r)
