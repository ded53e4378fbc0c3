"""Seeded job lists for the three workloads.

A job is a JSON-ready dict:

- ``id``: unique name, stable across seeds;
- ``kind``: ``cli`` (one ``clott.cli.main(argv)`` call with ``--json -``)
  or ``fn`` (one call into the public model/coalgebra API, see worker.FNS);
- ``argv`` or ``fn`` + ``args``;
- ``keys``: the report fields (``check:field``) that go into the digest;
- ``expect``: the expected digest, built from an independent answer, or
  ``None`` when the expected digest is the seed commit's output recorded
  in ``expected_seed.json`` (only jobs whose input does not depend on the
  seed);
- ``facts``: for recorded jobs, the part of the digest that has an
  independent answer, checked against the recording and at run time;
- ``size``: the size parameters written to the scaling rows;
- ``probe``: hostile inputs that break the verdict contract at the seed.

Sizes are fixed per workload; the seed changes names, order, shapes and
which entries are false, so the cost of a pass barely moves across seeds.
"""
from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("typecheck", "model", "carriers")

DATA = "src/clott/data"
HERE = Path(__file__).resolve().parent
EXPECTED_FILE = HERE / "expected_seed.json"

# Jobs left out of every workload, with the reason and the time measured
# at the seed commit (2-core machine, Python 3.11).
EXCLUDED = (
    {"argv": ["eval", "(fun x -> x x) (fun x -> x x)"],
     "reason": "never returns: beta reduction spends no fuel",
     "seed_time": "no result after 300 s"},
    {"argv": ["model", "verify", "all", "--bound", "5"],
     "reason": "uncaught BudgetExceeded after a long run",
     "seed_time": "38 s, then exit 1 with a traceback"},
    {"argv": ["model", "verify", "invariance", "--pool", "3", "--bound", "2"],
     "reason": "longer than a whole run",
     "seed_time": "59 s"},
    {"argv": ["theory", "pullbacks", "leftzero.thy", "--size", "3"],
     "reason": "longer than a whole run",
     "seed_time": "450 s"},
    {"argv": ["theory", "pullbacks", "convex.thy", "--size", "4"],
     "reason": "longer than a whole run",
     "seed_time": "63 s"},
    {"argv": ["model", "verify", "fixpoints", "--pool", "1", "--bound", "4"],
     "reason": "its mu of pf(prod(const{l},id)) at bound 4 alone swung "
               "5.9-9.1 s between identical runs; the 65,536-element "
               "fiber is built by mu of pf(id) at bound 4 instead",
     "seed_time": "15.9 s"},
    {"argv": ["coalg", "terminal", "pf(prod(const{l},id))", "--steps", "4"],
     "reason": "the same 65,536-element stage is built by the pf(id) "
               "terminal sweep",
     "seed_time": "5.4-8.9 s"},
    {"argv": ["theory", "free", "leftzero.thy", "--size", "2",
              "--depth", "5"],
     "reason": "swung 5.9-8.8 s between identical runs; depth 4 at size 2 "
               "and depth 3 at size 3 run the same congruence closure",
     "seed_time": "4.6-8.8 s"},
)


def build(workload: str, seed: int, workdir: Path) -> list[dict]:
    """Write the inputs of one workload into workdir and return its jobs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    jobs = {"typecheck": _typecheck, "model": _model,
            "carriers": _carriers}[workload](rng, _Files(workdir))
    ids = [j["id"] for j in jobs]
    if len(set(ids)) != len(ids):
        raise AssertionError("duplicate job ids")
    for j in jobs:
        j.setdefault("keys", [])
        j.setdefault("probe", False)
    return jobs


def attach_expected(jobs: list[dict]) -> list[str]:
    """Fill in the recorded answers; return the ids still without one."""
    recorded = (json.loads(EXPECTED_FILE.read_text(encoding="utf-8"))
                if EXPECTED_FILE.exists() else {})
    for j in jobs:
        if j["expect"] is None:
            j["expect"] = recorded.get(j["id"])
    return [j["id"] for j in jobs if j["expect"] is None]


class _Files:
    def __init__(self, root: Path):
        self.root = root

    def write(self, name: str, text: str) -> str:
        path = self.root / name
        path.write_text(text, encoding="utf-8")
        return str(path)


def _cli(jid, argv, expect=None, keys=(), size=None, facts=None,
         probe=False):
    return {"id": jid, "kind": "cli", "argv": list(argv), "expect": expect,
            "keys": list(keys), "size": size or {}, "facts": facts or {},
            "probe": probe}


def _fn(jid, fn, args, expect=None, size=None, facts=None):
    return {"id": jid, "kind": "fn", "fn": fn, "args": args,
            "expect": expect, "size": size or {}, "facts": facts or {}}


def cli_digest(exit_code, verdicts, evidence=None):
    return {"exit": exit_code, "verdicts": [list(v) for v in verdicts],
            "evidence": evidence or {}}


# ---------------------------------------------------------------------------
# typecheck: parser, terms and kernel
# ---------------------------------------------------------------------------

def _nat(A, s, z):
    return f"(({A} : U{{}}) -> (El {A} -> El {A}) -> El {A} -> El {A})"


def _church(n, A, s, z):
    body = z
    for _ in range(n):
        body = f"{s} ({body})"
    return f"(fun {A} -> fun {s} -> fun {z} -> {body})"


def _church_decl(rng, name, op, a, b, c):
    A, s, z = (rng.choice(p) for p in (("A", "T", "X"), ("s", "f", "g"),
                                       ("z", "o", "e")))
    m, n = rng.choice((("m", "n"), ("p", "q"), ("u", "v")))
    nat = _nat(A, s, z)
    if op == "add":
        fn = (f"((fun {m} -> fun {n} -> fun {A} -> fun {s} -> fun {z} -> "
              f"{m} {A} {s} ({n} {A} {s} {z})) : {nat} -> {nat} -> {nat})")
    else:
        fn = (f"((fun {m} -> fun {n} -> fun {A} -> fun {s} -> "
              f"{m} {A} ({n} {A} {s})) : {nat} -> {nat} -> {nat})")
    ca, cb, cc = (_church(k, A, s, z) for k in (a, b, c))
    return f"def {name} : Id {nat} ({fn} {ca} {cb}) {cc} = refl\n"


CHURCH_MAX = 8          # Church numerals 1..8, products up to 64
CHURCH_FILES = 16       # small files of 8 equalities each
CHURCH_FALSE = 5        # small files that end in one false equality
FIX_DEPTHS = (1, 2, 3, 4)
FIX_FUELS = (0, 1, 2, 3, 4, 5)
CHAIN_LENGTHS = (10, 20, 30, 40, 50, 60)
DECL_COUNTS = (50, 100, 150, 200, 250, 300, 350, 400)
EVAL_JOBS = 60
EVAL_DEPTHS = (10, 15, 20, 25, 30, 35)


def _typecheck(rng, files: _Files) -> list[dict]:
    jobs = []
    pairs = [(op, a, b) for op in ("add", "mul")
             for a in range(1, CHURCH_MAX + 1)
             for b in range(1, CHURCH_MAX + 1)]

    def value(op, a, b):
        return a + b if op == "add" else a * b

    # full 8x8 tables, seeded order
    for op in ("add", "mul"):
        table = [p for p in pairs if p[0] == op]
        rng.shuffle(table)
        text = "".join(_church_decl(rng, f"{op}_{i}", o, a, b, value(o, a, b))
                       for i, (o, a, b) in enumerate(table))
        path = files.write(f"church-{op}-table.clott", text)
        jobs.append(_cli(f"church/{op}-table", ["check", path],
                         cli_digest(0, [("declarations", "pass")],
                                    {"declarations:count": len(table)}),
                         keys=["declarations:count"],
                         size={"church_k": CHURCH_MAX, "decls": len(table)}))
    # small files: every pair once, a seeded share ends in a false one
    shuffled = list(pairs)
    rng.shuffle(shuffled)
    false_files = set(rng.sample(range(CHURCH_FILES), CHURCH_FALSE))
    per = len(shuffled) // CHURCH_FILES
    for i in range(CHURCH_FILES):
        chunk = shuffled[i * per:(i + 1) * per]
        text = "".join(_church_decl(rng, f"eq{j}", o, a, b, value(o, a, b))
                       for j, (o, a, b) in enumerate(chunk))
        if i in false_files:
            o, a, b = rng.choice(pairs)
            v = value(o, a, b)
            wrong = v + 1 if v == 0 or rng.random() < 0.5 else v - 1
            text += _church_decl(rng, "wrong", o, a, b, wrong)
            expect = cli_digest(1, [("declarations", "fail")],
                                {"declarations:rule": "refl"})
            keys = ["declarations:rule"]
        else:
            expect = cli_digest(0, [("declarations", "pass")],
                                {"declarations:count": len(chunk)})
            keys = ["declarations:count"]
        path = files.write(f"church-{i:02d}.clott", text)
        jobs.append(_cli(f"church/file-{i:02d}", ["check", path], expect,
                         keys=keys,
                         size={"church_k": max(max(a, b) for _, a, b in chunk),
                               "decls": len(chunk) + (i in false_files)}))
    # guarded fix unfoldings: pass when decided; low fuel may end unknown
    for depth in FIX_DEPTHS:
        for fuel in FIX_FUELS:
            k, a, b, d = (rng.choice(p) for p in (
                ("k", "c", "kk"), ("a", "t", "al"), ("b", "u", "be"),
                ("d", "r", "dd")))
            g = (f"((fun {d} -> csum (In{{ => {k}}} A) (clater ({a} : {k}) "
                 f"-> {d} [{a}])) : (later ({b} : {k}) -> U{{{k}}}) "
                 f"-> U{{{k}}})")
            rhs = f"fix {g}"
            for _ in range(depth):
                rhs = f"csum (In{{ => {k}}} A) (clater ({a} : {k}) -> {rhs})"
            text = (f"def q : (A : U{{}}) -> forall-clk {k} -> Id U{{{k}}} "
                    f"(fix {g}) ({rhs}) = fun A -> clock {k} -> refl\n")
            path = files.write(f"fix-{depth}-{fuel}.clott", text)
            jobs.append(_cli(
                f"fix/depth-{depth}-fuel-{fuel}",
                ["check", path, "--fuel", str(fuel)],
                cli_digest(0, [("declarations", "pass")],
                           {"declarations:count": 1}),
                keys=["declarations:count"],
                size={"unfold_depth": depth, "fuel": fuel}))
    # annotated beta-redex chains below the parser's depth limit
    for n in CHAIN_LENGTHS:
        for variant in range(2):
            path = files.write(f"chain-{n}-{variant}.clott",
                               "def r : unit = "
                               + _redex_chain(rng, n) + "\n")
            jobs.append(_cli(f"chain/{n}-{variant}", ["check", path],
                             cli_digest(0, [("declarations", "pass")],
                                        {"declarations:count": 1}),
                             keys=["declarations:count"],
                             size={"chain": n}))
    # many declarations: the context lookup is linear
    for count in DECL_COUNTS:
        stem = rng.choice(("n", "f", "h", "w"))
        lines = []
        for i in range(count):
            y = rng.choice(("y", "v", "x"))
            body = f"{stem}{i - 1} {y}" if i else y
            lines.append(f"def {stem}{i} : unit -> unit = fun {y} -> {body}\n")
        path = files.write(f"decls-{count}.clott", "".join(lines))
        jobs.append(_cli(f"decls/{count}", ["check", path],
                         cli_digest(0, [("declarations", "pass")],
                                    {"declarations:count": count}),
                         keys=["declarations:count"],
                         size={"decls": count}))
    # the golden corpora
    for name in ("figures.clott", "next.clott"):
        jobs.append(_cli(f"corpus/{name}", ["check", f"{DATA}/{name}"],
                         keys=["declarations:count"],
                         facts={"exit": 0}, size={"corpus": name}))
    jobs.append(_cli("corpus/suite-figures", ["suite", "figures"],
                     facts={"exit": 0}))
    # eval: closed terms whose weak-head normal form is known
    for i in range(EVAL_JOBS):
        depth = EVAL_DEPTHS[i % len(EVAL_DEPTHS)]
        target = rng.choice(("tt", "refl"))
        jobs.append(_cli(f"eval/{i:02d}", ["eval", _eval_term(rng, depth,
                                                               target)],
                         cli_digest(0, [("eval", "pass")],
                                    {"eval:whnf": target,
                                     "eval:complete": True}),
                         keys=["eval:whnf", "eval:complete"],
                         size={"redexes": depth}))
    # contract probes: valid inputs that overflow the recursion limit
    path = files.write("probe-chain-200.clott",
                       "def r : unit = " + _redex_chain(rng, 200) + "\n")
    jobs.append(_cli("probe/chain-200", ["check", path],
                     cli_digest(0, [("declarations", "pass")],
                                {"declarations:count": 1}),
                     keys=["declarations:count"], size={"chain": 200},
                     probe=True))
    jobs.append(_cli("probe/parens-3000",
                     ["eval", "(" * 3000 + "tt" + ")" * 3000],
                     cli_digest(0, [("eval", "pass")],
                                {"eval:whnf": "tt", "eval:complete": True}),
                     keys=["eval:whnf", "eval:complete"],
                     size={"parens": 3000}, probe=True))
    return jobs


def _redex_chain(rng, n: int) -> str:
    t = "tt"
    for _ in range(n):
        x = rng.choice(("x", "y", "z", "w"))
        t = f"((fun {x} -> {x}) : unit -> unit) ({t})"
    return t


_JUNK = ("tt", "(tt, tt)", "fun q -> q", "inl tt", "refl")


def _eval_term(rng, depth: int, target: str) -> str:
    """A closed term that reduces at the head to `target` in `depth`
    steps: projections of pairs, identity redexes, K redexes and case
    splits on injections."""
    t = target
    for _ in range(depth):
        junk = rng.choice(_JUNK)
        x, y = rng.sample(("a", "b", "c", "x", "y"), 2)
        t = rng.choice((
            f"fst ({t}, {junk})",
            f"snd ({junk}, {t})",
            f"(fun {x} -> {x}) ({t})",
            f"(fun {x} -> fun {y} -> {x}) ({t}) ({junk})",
            f"case inl ({t}) {{ inl {x} -> {x} | inr {y} -> {junk} }}",
            f"case inr ({t}) {{ inl {x} -> {junk} | inr {y} -> {y} }}",
        ))
    return t


# ---------------------------------------------------------------------------
# model: time category, presheaves, type evaluation, experiments
# ---------------------------------------------------------------------------

MODEL_GRID = ([(1, b) for b in range(2, 7)] + [(2, b) for b in range(2, 5)]
              + [(3, 2)])
MODEL_SUITES = ("invariance", "force", "distribution", "experiments")
TYPE_EXPRS = 40
TYPE_POOL_BOUND = (2, 3)


def _model(rng, files: _Files) -> list[dict]:
    jobs = []
    for pool, bound in MODEL_GRID:
        for suite in MODEL_SUITES:
            if (suite, pool, bound) == ("invariance", 3, 2):
                continue        # 59 s at the seed, see EXCLUDED
            keys = {
                "invariance": ["invariance/clk-non-example:counterexample"],
                "force": ["force/delay-unit:first_failure"],
                "distribution": [],
                "experiments": ["experiments/example4-witness:witnesses"],
            }[suite]
            jobs.append(_cli(
                f"verify/{suite}-p{pool}-b{bound}",
                ["model", "verify", suite, "--pool", str(pool),
                 "--bound", str(bound)],
                keys=keys, facts={"exit": 0},
                size={"pool": pool, "bound": bound}))
    # seeded closed type expressions: Def. 1 holds for every Clk-free type.
    # The shapes come from a fixed catalogue, so every seed pays the same
    # cost; the seed swaps operands and picks the order.
    pool, bound = TYPE_POOL_BOUND
    catalogue = _type_catalogue()
    order = list(range(len(catalogue)))
    rng.shuffle(order)
    for i in order:
        expr = _swap_operands(rng, catalogue[i])
        jobs.append(_fn(f"types/{i:02d}", "typeexpr",
                        {"pool": pool, "bound": bound, "expr": expr,
                         "slice": _has_free_later(expr)},
                        {"verdict": "pass", "functorial": True,
                         "invariant": True},
                        size={"pool": pool, "bound": bound,
                              "nodes": _nodes(expr)}))
    # the witness-growth sweep (N = 3..8 in scripts/witness_growth.py,
    # extended to 10 so the tail of the job times has no gap) and the
    # force scan
    for n in range(3, 11):
        jobs.append(_fn(f"sweep/witness-N{n}", "witness",
                        {"pool": 2, "bound": n},
                        size={"pool": 2, "bound": n},
                        facts={"verdict": "pass", "witnesses": [n - 1],
                               "pointwise": True}))
    for n in range(3, 7):
        jobs.append(_fn(f"sweep/force-N{n}", "force_scan",
                        {"pool": 2, "bound": n},
                        size={"pool": 2, "bound": n},
                        facts={"verdict": "truncation_artifact",
                               "constant_iso": True, "delay_iso": False,
                               "artifact": True}))
    # contract probe: an invalid bound raises an uncaught ValueError
    jobs.append(_cli("probe/pool3-bound1",
                     ["model", "verify", "invariance", "--pool", "3",
                      "--bound", "1"],
                     {"exit": 2}, size={"pool": 3, "bound": 1}, probe=True))
    return jobs


_F1, _F2 = ["fin", 1], ["fin", 2]
# Shapes of about equal cost (fibers of about four elements at (2, 3)):
# most jobs come from here, so the median job time sits inside one dense
# cluster instead of on a slope where small shifts move it.
TYPE_CLUSTER = (["prod", _F2, _F2], ["sum", _F2, _F2], ["later", _F1],
                ["arrow", _F1, _F1], ["sum", ["sum", _F1, _F1], _F2],
                ["prod", ["sum", _F1, _F1], _F2])
TYPE_VARIETY = (["forall", _F2], ["forall", ["later", _F2]], ["later", _F2],
                ["arrow", _F1, _F2], ["prod", ["later", _F1], _F2],
                ["forall", ["prod", _F2, _F2]])


def _type_catalogue() -> list:
    """TYPE_EXPRS closed type expressions as nested lists, for example
    ["prod", ["fin", 2], ["later", ["fin", 1]]]; the same for every seed."""
    shapes = list(TYPE_CLUSTER) * 5 + list(TYPE_VARIETY) * 2
    return shapes[:TYPE_EXPRS]


def _swap_operands(rng, e):
    if e[0] == "fin":
        return e
    args = [_swap_operands(rng, x) for x in e[1:]]
    if e[0] in ("prod", "sum") and rng.random() < 0.5:
        args.reverse()
    return [e[0], *args]


def _has_free_later(e) -> bool:
    if e[0] == "fin":
        return False
    if e[0] == "later":
        return True
    if e[0] == "forall":
        return False
    return any(_has_free_later(x) for x in e[1:])


def _nodes(e) -> int:
    if e[0] == "fin":
        return 1
    return 1 + sum(_nodes(x) for x in e[1:])


# ---------------------------------------------------------------------------
# carriers: mu, coalgebra and theories
# ---------------------------------------------------------------------------

# closed forms: stage k of the terminal sequence of each functor
def _tower(k):
    n = 1
    for _ in range(k):
        n = 2 ** n
    return n


DIST2 = len({Fraction(m, d) for d in range(1, 5) for m in range(d + 1)})

STAGE_LAWS = {
    "sum(const{u},id)": lambda k: k + 1,
    "prod(const{a,b},id)": lambda k: 2 ** k,
    "pf(id)": _tower,
    "pf(prod(const{l},id))": _tower,
    "df(const{a,b})": lambda k: 1 if k == 0 else DIST2,
    "const{a,b}": lambda k: 1 if k == 0 else 2,
}

MU_JOBS = (("pf(id)", 4, False),
           ("pf(prod(const{l},id))", 3, True),
           ("pf(id)", 3, True),
           ("sum(const{u},id)", 4, True),
           ("sum(const{u},id)", 6, True),
           ("prod(const{a,b},id)", 4, True),
           ("prod(const{a,b},id)", 6, True),
           ("df(const{a,b})", 4, True))
TERMINAL_SWEEP = ("const{a,b}", "sum(const{u},id)", "prod(const{a,b},id)",
                  "pf(id)", "df(const{a,b})")
SMALL_LTS = 40
SMALL_LTS_STATES = (3, 4, 5, 6, 7, 8)
# a size sweep, then a cluster of equal-cost jobs where p90 falls, so the
# tail percentile sits on a flat part of the distribution
SHALLOW_LTS = tuple(range(100, 900, 100)) + (1000,) * 8
CHAIN_LTS = ((200, 100, 1.0), (400, 200, 1.0), (600, 300, 1.0),
             (300, 150, 0.5))
WEAK_BOUNDS = (2, 4, 8)
DROP_THEORIES = 15


def _carriers(rng, files: _Files) -> list[dict]:
    jobs = []
    for f, bound, functorial in MU_JOBS:
        law = STAGE_LAWS[f]
        expect = {"verdict": "pass",
                  "fiber_sizes": [law(k + 1) for k in range(bound)]}
        if functorial:
            expect["functorial"] = True
        jobs.append(_fn(f"mu/{f}-b{bound}", "mu_stage",
                        {"functor": f, "pool": 1, "bound": bound,
                         "functorial": functorial}, expect,
                        size={"functor": f, "pool": 1, "bound": bound,
                              "fiber": law(bound)}))
    # the terminal-growth sweep: stage sizes have closed forms; constant
    # functors converge at step 1
    for f in TERMINAL_SWEEP:
        law = STAGE_LAWS[f]
        conv = 1 if f.startswith(("const", "df(const")) else None
        sizes = [law(k) for k in range(3 if conv else 5)]
        jobs.append(_fn(f"sweep/terminal-{f}", "terminal",
                        {"functor": f, "steps": 4, "max_elements": 200_000},
                        {"verdict": "pass" if conv else "unknown",
                         "sizes": sizes, "convergence": conv,
                         "budget_hit": False},
                        size={"functor": f, "steps": 4}))
    # terminal and final sequences through the CLI
    for f, steps in (("sum(const{u},id)", 8), ("prod(const{a,b},id)", 6),
                     ("pf(prod(const{l},id))", 3)):
        law = STAGE_LAWS[f]
        jobs.append(_cli(f"coalg/terminal-{f}-{steps}",
                         ["coalg", "terminal", f, "--steps", str(steps)],
                         cli_digest(3, [("terminal-sequence", "unknown")],
                                    {"terminal-sequence:stage_sizes":
                                     [law(k) for k in range(steps + 1)]}),
                         keys=["terminal-sequence:stage_sizes"],
                         size={"functor": f, "steps": steps}))
    for f in ("const{a,b}", "df(const{a,b})"):
        law = STAGE_LAWS[f]
        jobs.append(_cli(f"coalg/terminal-{f}",
                         ["coalg", "terminal", f, "--steps", "4"],
                         cli_digest(0, [("terminal-sequence", "pass")],
                                    {"terminal-sequence:stage_sizes":
                                     [law(0), law(1), law(2)],
                                     "terminal-sequence:convergence": 1}),
                         keys=["terminal-sequence:stage_sizes",
                               "terminal-sequence:convergence"],
                         size={"functor": f, "steps": 4}))
    for f in ("const{a,b}", "prod(const{a},id)", "sum(const{a,b},const{c})",
              "df(const{a})"):
        jobs.append(_cli(f"coalg/final-{f}",
                         ["coalg", "final", f, "--steps", "4"],
                         keys=["final-coalgebra:carrier_size",
                               "final-coalgebra:stage_sizes",
                               "final-coalgebra:coalgebras_checked"],
                         facts={"exit": 0}, size={"functor": f}))
    # bisimilarity: small LTSs against brute force, large ones planted
    for i in range(SMALL_LTS):
        n = SMALL_LTS_STATES[i % len(SMALL_LTS_STATES)]
        states, edges = _random_lts(rng, n)
        blocks = _brute_force_blocks(states, edges)
        path = files.write(f"small-{i:02d}.coalg", _coalg_text(states, edges))
        jobs.append(_cli(f"bisim/small-{i:02d}", ["coalg", "bisim", path],
                         cli_digest(0, [("bisimilarity", "pass")],
                                    {"bisimilarity:blocks": blocks}),
                         keys=["bisimilarity:blocks"],
                         size={"states": n, "chain_share": 0.0}))
    for i, n in enumerate(SHALLOW_LTS):
        states, edges, blocks = _planted_lts(rng, n, n // 20, 0.0)
        path = files.write(f"shallow-{i:02d}.coalg",
                           _coalg_text(states, edges))
        jobs.append(_cli(f"bisim/shallow-{i:02d}-{n}",
                         ["coalg", "bisim", path],
                         cli_digest(0, [("bisimilarity", "pass")],
                                    {"bisimilarity:blocks": blocks}),
                         keys=["bisimilarity:blocks"],
                         size={"states": n, "chain_share": 0.0}))
    for n, quotient, share in CHAIN_LTS:
        states, edges, blocks = _planted_lts(rng, n, quotient, share)
        path = files.write(f"chain-{n}.coalg", _coalg_text(states, edges))
        jobs.append(_cli(f"bisim/chain-{n}-{share}",
                         ["coalg", "bisim", path],
                         cli_digest(0, [("bisimilarity", "pass")],
                                    {"bisimilarity:blocks": blocks}),
                         keys=["bisimilarity:blocks"],
                         size={"states": n, "chain_share": share}))
    # weak bisimilarity on delay trees: a fixed sweep around each bound
    for bound in WEAK_BOUNDS:
        for k in range(bound + 3):
            jobs.append(_cli(f"weak/now-step{k}-b{bound}",
                             ["coalg", "weakbisim", "now(a)",
                              _steps("now(a)", k), "--bound", str(bound)],
                             keys=["weak-bisimilarity:stages"],
                             size={"steps": k, "bound": bound}))
        jobs.append(_cli(f"weak/bot-step{bound}-b{bound}",
                         ["coalg", "weakbisim", "bot",
                          _steps("now(a)", bound), "--bound", str(bound)],
                         keys=["weak-bisimilarity:stages"],
                         size={"steps": bound, "bound": bound}))
        jobs.append(_cli(f"weak/diff-b{bound}",
                         ["coalg", "weakbisim", _steps("now(a)", 1),
                          "now(b)", "--bound", str(bound)],
                         keys=["weak-bisimilarity:stages"],
                         size={"steps": 1, "bound": bound}))
    # theories
    for size, depth in ((2, 4), (3, 3)):
        jobs.append(_cli(f"theory/free-leftzero-s{size}-d{depth}",
                         ["theory", "free", f"{DATA}/leftzero.thy",
                          "--size", str(size), "--depth", str(depth)],
                         keys=["free-model:carrier_size", "free-model:exact"],
                         size={"theory": "leftzero", "size": size,
                               "depth": depth}))
    for name, size in (("semilattice", 3), ("monoid", 3), ("convex", 3),
                       ("truncation", 3)):
        path = files.write(f"{name}.thy", f"builtin {name}\n")
        jobs.append(_cli(f"theory/pullbacks-{name}-s{size}",
                         ["theory", "pullbacks", path, "--size", str(size)],
                         keys=["preserves-pullbacks:counterexample"],
                         facts={"exit": 1 if name == "truncation" else 0},
                         size={"theory": name, "size": size}))
    jobs.append(_cli("theory/monos-leftzero",
                     ["theory", "monos", f"{DATA}/leftzero.thy",
                      "--size", "2", "--depth", "4"],
                     keys=["preserves-monos:counterexample"],
                     facts={"exit": 0},
                     size={"theory": "leftzero", "size": 2, "depth": 4}))
    for i in range(DROP_THEORIES):
        text, drops = _drop_theory(rng)
        path = files.write(f"drop-{i:02d}.thy", text)
        jobs.append(_cli(f"theory/drop-{i:02d}", ["theory", "drop", path],
                         cli_digest(0, [("drop-equations", "pass")],
                                    {"drop-equations:count": drops,
                                     "drop-equations:drop": drops > 0}),
                         keys=["drop-equations:count", "drop-equations:drop"],
                         size={"equations": text.count("\neq ")}))
    # contract probe: the convex carrier recursion overflows the stack
    jobs.append(_cli("probe/terminal-df-prod",
                     ["coalg", "terminal", "df(prod(const{a,b},id))",
                      "--steps", "5"],
                     cli_digest(3, [("terminal-sequence", "unknown")]),
                     size={"functor": "df(prod(const{a,b},id))", "steps": 5},
                     probe=True))
    return jobs


def _steps(core: str, k: int) -> str:
    return "step(" * k + core + ")" * k


def _state_names(rng, n):
    names = set()
    while len(names) < n:
        names.add(f"s{rng.getrandbits(24):06x}")
    out = sorted(names)
    rng.shuffle(out)
    return out


def _random_lts(rng, n):
    states = _state_names(rng, n)
    edges = set()
    for s in states:
        for _ in range(rng.randint(0, 2)):
            edges.add((s, rng.choice("ab"), rng.choice(states)))
    return states, sorted(edges)


def _coalg_text(states, edges) -> str:
    lines = [f"state {s}" for s in states]
    lines += [f"{x} {a} {y}" for x, a, y in edges]
    return "\n".join(lines) + "\n"


def _canon_blocks(blocks):
    return sorted(sorted(b) for b in blocks)


def _brute_force_blocks(states, edges):
    """Coarsest stable partition by enumerating every partition (the
    brute-force oracle, for at most 8 states)."""
    succ = {s: set() for s in states}
    for x, a, y in edges:
        succ[x].add((a, y))
    best = None
    for labels in _restricted_growth(len(states)):
        cls = dict(zip(states, labels))
        sig = {s: frozenset((a, cls[t]) for a, t in succ[s]) for s in states}
        stable = all(sig[x] == sig[y] for x in states for y in states
                     if cls[x] == cls[y])
        if stable and (best is None or max(labels) < max(best.values())):
            best = cls
    groups: dict = {}
    for s, c in best.items():
        groups.setdefault(c, []).append(s)
    return _canon_blocks(groups.values())


def _restricted_growth(n):
    def rec(prefix, top):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for v in range(top + 2):
            prefix.append(v)
            yield from rec(prefix, max(top, v))
            prefix.pop()
    if n == 0:
        yield ()
        return
    yield from rec([0], 0)


def _planted_lts(rng, n, quotient, chain_share):
    """An LTS whose coarsest bisimulation is known by construction.

    A minimal quotient LTS Q is expanded: each state of Q gets n/|Q|
    copies, and each copy gets one edge to a copy of every Q-successor,
    so the copies of one Q-state are bisimilar and nothing else is.  Q is
    minimal because its shallow states carry distinct three-label sets
    (split in one round) and its chain states have distinct distances to
    the deadlock at the chain's end (one round per link).  Sizes and
    degrees are fixed, so the seed changes the shape but not the cost."""
    chain_len = round(quotient * chain_share)
    shallow = quotient - chain_len
    q_edges: dict[int, list] = {q: [] for q in range(quotient)}
    for q in range(chain_len - 1):
        q_edges[q].append(("a", q + 1))
    label_sets = rng.sample(list(itertools.combinations("abcdefghi", 3)),
                            shallow)
    for j, labels in enumerate(label_sets):
        q_edges[chain_len + j] = [(a, rng.randrange(quotient))
                                  for a in labels]
    counts = [n // quotient] * quotient
    for q in rng.sample(range(quotient), n % quotient):
        counts[q] += 1
    names = _state_names(rng, n)
    copies, pos = [], 0
    for q in range(quotient):
        copies.append(names[pos:pos + counts[q]])
        pos += counts[q]
    edges = {(c, a, rng.choice(copies[q2]))
             for q in range(quotient) for c in copies[q]
             for a, q2 in q_edges[q]}
    states = list(names)
    rng.shuffle(states)
    return states, sorted(edges), _canon_blocks(copies)


def _drop_theory(rng):
    """A custom theory with a known number of drop equations."""
    ops = [("f", 2), ("g", 1), ("h", 2)]
    lines = [f"op {o}/{n}" for o, n in ops]
    drops = 0
    for _ in range(rng.randint(2, 5)):
        lhs, lvars = _alg(rng, ops, 2)
        rhs, rvars = _alg(rng, ops, 2)
        drops += lvars != rvars
        lines.append(f"eq {lhs} = {rhs}")
    return "\n".join(lines) + "\n", drops


def _alg(rng, ops, depth):
    if depth == 0 or rng.random() < 0.3:
        v = rng.choice("xyz")
        return v, {v}
    o, n = rng.choice(ops)
    args = [_alg(rng, ops, depth - 1) for _ in range(n)]
    return (f"{o}(" + ", ".join(a for a, _ in args) + ")",
            set().union(*(vs for _, vs in args)))
