"""Command-line entry point.

Subcommands: check, eval, model verify, theory {drop,free,monos,pullbacks},
coalg {terminal,final,bisim,weakbisim}, suite.  Exit codes: 0 all pass,
1 any fail, 2 usage/parse error, 3 unknown verdicts with no fail.

Boundary rule: a command adds its records and raises when it cannot
decide; `args.check` names the check it is deciding.  Only `main` maps
exceptions: parse and I/O errors (and integer options below their least
value) to a one-line usage error, exit 2; `UNDECIDED` ones (recursion
overflow, budgets, fresh clocks, no convergence, blocked conversion) to
an unknown record under `args.check`; a type error to a fail record.
Commands catch only to write a record that says more than the exception.
"""
from __future__ import annotations

import argparse
import functools
import re
import sys
from importlib import resources
from typing import Callable, NamedTuple

from . import coalgebra, kernel, theories
from .coalgebra import (BOT, FunctorParseError, NotConverged, bisimilarity,
                        final_coalgebra, now, parse_coalgebra_file,
                        parse_functor, show_functor, step, terminal_sequence,
                        weak_bisim_delay)
from .kernel import Context, Fuel, TypeCheckError, UnknownConversion, whnf
from .model import (FreshClockExhausted, MArrow, MClk, MEq, MExists, MFin,
                    MForall, MLater, MMu, MProd, MSum, MTop, Model,
                    check_forall_prod_dist, check_forall_sum_dist,
                    check_functoriality, check_force, check_invariance,
                    const_psh, eval_type, exists_forall_experiment, mu,
                    unique_exists_check)
from .parser import (ParseError, parse_declarations, parse_term,
                     parse_theory_file)
from .printer import show_alg_term, show_term
from .report import (FAIL, PASS, TRUNCATION_ARTIFACT, UNKNOWN, Report)
from .theories import (BUILTINS, Budget, BudgetExceeded, TheoryError,
                       check_preserves_monos,
                       check_preserves_pullbacks_of_monos, drop_equations,
                       free_model, theory_from_file)

EXIT_USAGE = 2


class UsageError(Exception):
    """Arguments that parse but that no command accepts."""


USAGE_ERRORS = (OSError, UnicodeDecodeError, ParseError, FunctorParseError,
                TheoryError, UsageError)
UNDECIDED = (RecursionError, BudgetExceeded, FreshClockExhausted,
             NotConverged, UnknownConversion)


def data_path(name: str):
    return resources.files("clott.data") / name


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _reason(exc: Exception) -> str:
    """The reason of an unknown verdict: `<Exception>: <message>`."""
    message = (f"input nesting exceeds the recursion limit "
               f"({sys.getrecursionlimit()} frames)"
               if isinstance(exc, RecursionError) else exc)
    return f"{type(exc).__name__}: {message}"


# ---------------------------------------------------------------------------
# check / eval
# ---------------------------------------------------------------------------

def cmd_check(args, rep: Report) -> None:
    decls = parse_declarations(_read(args.file))
    kernel.check_declarations(decls, args.fuel)
    rep.add("declarations", PASS, {"count": len(decls)})


def cmd_eval(args, rep: Report) -> None:
    w, complete = whnf(Context(), parse_term(args.expr), Fuel(args.fuel))
    shown = show_term(w)
    print(shown)
    rep.add("eval", PASS if complete else UNKNOWN,
            {"input": args.expr, "whnf": shown,
             "complete": complete})


# ---------------------------------------------------------------------------
# model verify
# ---------------------------------------------------------------------------

# Closed model-level types exercised by the invariance suite.  Every
# eval_type output must satisfy Def.-1 invariance; Clk is the deliberate
# non-example checked separately.
TYPE_CORPUS = (
    ("fin2", MFin(2), False),
    ("fin3", MFin(3), False),
    ("prod", MProd(MFin(2), MFin(3)), False),
    ("sum", MSum(MFin(2), MFin(1)), False),
    ("arrow", MArrow(MFin(2), MFin(2)), False),
    ("forall-sum", MForall(MSum(MFin(2), MFin(1))), False),
    ("forall-later", MForall(MLater(MFin(2))), False),
    ("later", MLater(MFin(2)), True),
    ("mu-delay", MMu(parse_functor("sum(const{u},id)")), True),
    ("eq", MEq(MFin(2)), False),
    ("top", MTop(), False),
    ("exists", MExists(MFin(3), lambda o, e: e >= 1), False),
)

def _suite_invariance(model: Model, rep: Report) -> None:
    for name, expr, sliced in TYPE_CORPUS:
        psh = eval_type(model, expr, slice_=sliced)
        fun = check_functoriality(psh)
        inv = check_invariance(model, psh)
        ok = fun.ok and inv.ok
        rep.add(f"invariance/{name}", PASS if ok else FAIL,
                {"functorial": fun.ok, "invariant": inv.ok,
                 "counterexample": inv.counterexample},
                anchor="Def. 1 invariance under clock introduction")
    clk = eval_type(model, MClk())
    bad = check_invariance(model, clk)
    rep.add("invariance/clk-non-example",
            PASS if not bad.ok else FAIL,
            {"clk_fails_as_expected": not bad.ok,
             "counterexample": bad.counterexample},
            anchor="Clk is not invariant under clock introduction")


def _suite_force(model: Model, rep: Report) -> None:
    const = const_psh(model.slice, (0, 1))
    r = check_force(model, const)
    rep.add("force/constant", PASS if r.iso else FAIL,
            {"iso": r.iso, "stabilized": r.stabilized},
            anchor="force: canonical map for a constant family")
    delay = mu(model, parse_functor("sum(const{u},id)"))
    r2 = check_force(model, delay)
    if r2.iso:
        verdict = FAIL      # the truncated delay type must not be iso
    else:
        verdict = TRUNCATION_ARTIFACT if r2.truncation_artifact else FAIL
    rep.add("force/delay-unit", verdict,
            {"iso": r2.iso, "first_failure": r2.first_failure,
             "truncation_artifact": r2.truncation_artifact,
             "stabilized": r2.stabilized},
            anchor="force on the truncated delay type; failure expected "
                   "at finite bound (limit-ordinal step unavailable)")


def _suite_distribution(model: Model, rep: Report) -> None:
    a = const_psh(model.slice, (0, 1))
    b = const_psh(model.slice, ("x", "y", "z"))
    s = check_forall_sum_dist(model, a, b)
    rep.add("distribution/forall-sum", PASS if s.ok else FAIL,
            {"bijective": s.bijective, "natural": s.natural},
            anchor="clock quantification distributes over sums")
    p = check_forall_prod_dist(model, a, b)
    rep.add("distribution/forall-prod", PASS if p.ok else FAIL,
            {"bijective": p.bijective, "natural": p.natural},
            anchor="clock quantification distributes over products")


def _suite_experiments(model: Model, rep: Report) -> None:
    n = model.bound
    x = const_psh(model.time, tuple(range(n)))
    verdicts = exists_forall_experiment(
        model, x, lambda u, e: u.time.theta(u.clock) <= e)
    witnesses = {str(k): v.witness for k, v in verdicts.items()}
    ok = all(v.witness == n - 1 for v in verdicts.values())
    rep.add("experiments/example4-witness", PASS if ok else FAIL,
            {"expected": n - 1, "witnesses": witnesses},
            anchor="Example 4: least uniform witness grows with the bound")
    two = const_psh(model.time, (0, 1))
    down_ok = True
    for mask in range(4):
        keep = {e for e in (0, 1) if mask & (1 << e)}

        def phi(u, e, keep=keep):
            # downward closed in the stage: true below a per-element cutoff
            return e in keep or u.time.theta(u.clock) == 0
        vs = exists_forall_experiment(model, two, phi)
        if any(v.lhs != v.rhs for v in vs.values()):
            down_ok = False
    rep.add("experiments/downward-closed-commute",
            PASS if down_ok else FAIL, {"predicates_checked": 4},
            anchor="downward-closed predicates commute (Thm. 6 finite shadow)")
    uniq = unique_exists_check(
        model, two, lambda u, e: e == 1 or u.time.theta(u.clock) == 0, n=1)
    ok = uniq["hypothesis_holds"] and uniq["commutes"]
    rep.add("experiments/unique-exists", PASS if ok else FAIL,
            {"hypothesis_holds": uniq["hypothesis_holds"],
             "commutes": uniq["commutes"]},
            anchor="Thm. 7: essentially unique witnesses commute")


def _suite_fixpoints(model: Model, rep: Report) -> None:
    small = Model(pool=1, bound=model.bound, budget=model.budget)
    for fs in ("sum(const{u},id)", "prod(const{a,b},id)",
               "pf(prod(const{l},id))"):
        f = parse_functor(fs)
        p = mu(small, f)
        sizes = {o.time.theta(o.clock): len(p.fib[o])
                 for o in small.slice.objects}
        n, oracle = 1, {}
        for k in range(small.bound):
            n = len(coalgebra.functor_eval(f, range(n), theories.Budget()))
            oracle[k] = n
        ok = sizes == oracle and check_functoriality(p).ok
        rep.add(f"fixpoints/{fs}", PASS if ok else FAIL,
                {"fiber_sizes": {str(k): v for k, v in sizes.items()},
                 "terminal_stages": {str(k): v for k, v in oracle.items()}},
                anchor="mu stage law: fiber at stage k is the (k+1)-st "
                       "terminal stage")


_MODEL_SUITE_RUNNERS = {"invariance": _suite_invariance,
                        "force": _suite_force,
                        "distribution": _suite_distribution,
                        "experiments": _suite_experiments,
                        "fixpoints": _suite_fixpoints}
MODEL_SUITES = (*_MODEL_SUITE_RUNNERS, "all")


def _run_suites(args, rep: Report, runners: dict, name: str, target) -> None:
    """The suite runner of `model verify` and `suite`: run suite `name`
    (every one for "all") on target into rep.  An exception that leaves a
    suite undecided ends the run as `<suite>/budget`."""
    for suite in runners if name == "all" else (name,):
        args.check = f"{suite}/budget"
        runners[suite](target, rep)


def run_model_suite(model: Model, suite: str, rep: Report) -> int:
    """Run one model suite (or all of them) over model into rep, as
    `model verify` does, and return the exit code."""
    def run(args, rep):
        _run_suites(args, rep, _MODEL_SUITE_RUNNERS, suite, model)
    return _decide(run, argparse.Namespace(), rep)


def cmd_model(args, rep: Report) -> None:
    _run_suites(args, rep, _MODEL_SUITE_RUNNERS, args.suite,
                Model(pool=args.pool, bound=args.bound))


# ---------------------------------------------------------------------------
# theory
# ---------------------------------------------------------------------------

THEORY_CHECKS = {"drop": "drop-equations", "free": "free-model",
                 "monos": "preserves-monos",
                 "pullbacks": "preserves-pullbacks"}


def cmd_theory(args, rep: Report) -> None:
    args.check = THEORY_CHECKS[args.action]
    ops, eqs, builtin = parse_theory_file(_read(args.file))
    t = theory_from_file(ops, eqs, builtin)
    budget = Budget(term_size=args.depth)
    if args.action == "drop":
        drops = drop_equations(t)
        rep.add(args.check, PASS,
                {"drop": bool(drops), "count": len(drops),
                 "equations": [f"{show_alg_term(l)} = {show_alg_term(r)}"
                               for l, r in drops]},
                anchor="drop equation: free variables differ across sides")
    elif args.action == "free":
        m = free_model(t, tuple(range(args.size)), budget)
        rep.add(args.check, PASS if m.exact else UNKNOWN,
                {"base_size": args.size, "carrier_size": len(m.elements),
                 "exact": m.exact,
                 "note": None if m.exact else
                 "budget-bounded congruence classes: lower bound only"},
                anchor="free-model monad carrier T(X)")
    else:
        checker = (check_preserves_monos if args.action == "monos"
                   else check_preserves_pullbacks_of_monos)
        r = checker(t, size_bound=args.size, budget=budget)
        rep.add(args.check, PASS if r.ok else FAIL,
                {"counterexample": r.counterexample, "bounds": r.bounds},
                anchor="preservation of monos / pullbacks of monos")


# ---------------------------------------------------------------------------
# coalg
# ---------------------------------------------------------------------------

def _steps(d, k):
    for _ in range(k):
        d = step(d)
    return d


_DELAY_NAME = re.compile(r"[A-Za-z0-9_]+")
_DELAY_TOKEN = re.compile(rf"{_DELAY_NAME.pattern}|\S")


def parse_delay(text: str):
    """Parse `step(step(now(a)))` / `bot` into a delay tree.  Spaces may
    separate tokens but not split them."""
    ts = _DELAY_TOKEN.findall(text)
    depth = 0
    while ts[2 * depth:2 * depth + 2] == ["step", "("]:
        depth += 1
    core = ts[2 * depth:len(ts) - depth]
    if ts[len(ts) - depth:] == [")"] * depth:
        if core == ["bot"]:
            return _steps(BOT, depth)
        if len(core) == 4 and core[:2] == ["now", "("] and core[3] == ")" \
                and _DELAY_NAME.fullmatch(core[2]):
            return _steps(now(core[2]), depth)
    raise FunctorParseError(f"bad delay term {text!r}")


def _functor(args, rep: Report):
    f = parse_functor(args.functor)
    rep.parameters["functor"] = show_functor(f)
    return f


def cmd_terminal(args, rep: Report) -> None:
    seq = terminal_sequence(_functor(args, rep), args.steps)
    rep.add("terminal-sequence",
            PASS if seq.convergence is not None else UNKNOWN,
            {"stage_sizes": seq.sizes(), "convergence": seq.convergence,
             "budget_hit": seq.budget_hit},
            anchor="terminal sequence 1 <- F(1) <- F^2(1) <- ...")


def cmd_final(args, rep: Report) -> None:
    f = _functor(args, rep)
    try:
        coalg, seq, finality = final_coalgebra(f, args.steps)
    except BudgetExceeded as exc:
        rep.add("final-coalgebra", UNKNOWN,
                {"reason": _reason(exc), "coalgebras_checked": 0})
        return
    rep.add("final-coalgebra", PASS if finality.verified else UNKNOWN,
            {"carrier_size": len(coalg.states), "stage_sizes": seq.sizes(),
             "finality_bound": finality.size_bound,
             "coalgebras_checked": finality.coalgebras_checked},
            anchor="final coalgebra from the converged sequence")


def cmd_bisim(args, rep: Report) -> None:
    if len(args.states) not in (0, 2):
        raise UsageError("supply zero or two states")
    coalg = parse_coalgebra_file(_read(args.file))
    for state in args.states:
        if state not in coalg.states:
            raise UsageError(f"unknown state {state!r}")
    partition = bisimilarity(coalg)
    evidence = {"blocks": [list(b) for b in partition]}
    verdict = PASS
    if args.states:
        x, y = args.states
        same = any(x in b and y in b for b in partition)
        evidence["pair"] = [x, y]
        evidence["bisimilar"] = same
        verdict = PASS if same else FAIL
    rep.add("bisimilarity", verdict, evidence,
            anchor="partition refinement = coarsest bisimulation")


def cmd_weakbisim(args, rep: Report) -> None:
    stages = weak_bisim_delay(parse_delay(args.left), parse_delay(args.right),
                              lambda a, b: a == b, args.bound)
    rep.add("weak-bisimilarity", PASS if stages["all"] else FAIL,
            {"stages": {str(k): v for k, v in stages.items() if k != "all"},
             "all": stages["all"]},
            anchor="weak bisimilarity on the truncated delay monad")


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def _suite_requirements(args, rep: Report) -> None:
    budget = Budget(term_size=args.depth)
    for name in ("semilattice", "convex"):
        r = check_preserves_pullbacks_of_monos(BUILTINS[name],
                                               size_bound=args.size,
                                               budget=budget)
        rep.add(f"requirements/pullbacks-{name}", PASS if r.ok else FAIL,
                {"bounds": r.bounds},
                anchor="free-model monads commute with the pullback squares "
                       "of quotient-inductive constructors")
    model = Model(pool=args.pool, bound=args.bound)
    _suite_experiments(model, rep)


def _suite_figures(args, rep: Report) -> None:
    for name in ("figures.clott", "next.clott"):
        decls = parse_declarations(data_path(name).read_text(encoding="utf-8"))
        try:
            kernel.check_declarations(decls, args.fuel)
            verdict, evidence = PASS, {"declarations": len(decls)}
        except UnknownConversion as exc:
            verdict, evidence = UNKNOWN, {"reason": _reason(exc)}
        except TypeCheckError as exc:
            verdict, evidence = FAIL, {"message": str(exc)}
        rep.add(f"figures/{name}", verdict, evidence,
                anchor="Fig. 1/2 typing rules golden corpus")


def _suite_theories(args, rep: Report) -> None:
    budget = Budget(term_size=args.depth)
    for name, t in BUILTINS.items():
        drops = drop_equations(t)
        rep.add(f"theories/{name}/drop", PASS,
                {"drop": bool(drops), "count": len(drops)},
                anchor="drop-equation detection")
        r = check_preserves_pullbacks_of_monos(t, size_bound=args.size,
                                               budget=budget)
        # Thm. 5: pullbacks of monos are preserved exactly when no equation
        # drops a variable; a drop equation must show its non-example square
        rep.add(f"theories/{name}/pullbacks",
                PASS if r.ok != bool(drops) else FAIL,
                {"counterexample": r.counterexample, "bounds": r.bounds},
                anchor="Thm. 5 finite instances / non-example square")


def _suite_coalgebra(args, rep: Report) -> None:
    seq = terminal_sequence(parse_functor("pf(id)"), 8)
    rep.add("coalgebra/terminal-pf", PASS,
            {"stage_sizes": seq.sizes(), "budget_hit": seq.budget_hit},
            anchor="Pf terminal sequence growth")
    coalg, _, finality = final_coalgebra(parse_functor("const{a,b}"), 4)
    rep.add("coalgebra/final-const",
            PASS if finality.verified else UNKNOWN,
            {"carrier_size": len(coalg.states)},
            anchor="constant functors converge at step 1")
    c = parse_coalgebra_file(
        data_path("stream.coalg").read_text(encoding="utf-8"))
    partition = bisimilarity(c)
    pq = any("p" in b and "q" in b for b in partition)
    pr = any("p" in b and "r" in b for b in partition)
    rep.add("coalgebra/bisim-example", PASS if pq and not pr else FAIL,
            {"blocks": [list(b) for b in partition]},
            anchor="bisimilarity by partition refinement")
    bound = args.bound
    t = now("a")
    ok = all(weak_bisim_delay(t, _steps(now("a"), k),
                              lambda a, b: a == b, bound)["all"]
             for k in range(bound))
    rep.add("coalgebra/weakbisim-now-step", PASS if ok else FAIL,
            {"bound": bound},
            anchor="now(a) weakly bisimilar to step^k(now(a))")


_SUITE_RUNNERS = {"requirements": _suite_requirements,
                  "figures": _suite_figures, "theories": _suite_theories,
                  "coalgebra": _suite_coalgebra}
SUITES = tuple(_SUITE_RUNNERS)


def cmd_suite(args, rep: Report) -> None:
    _run_suites(args, rep, _SUITE_RUNNERS, args.name, args)


# ---------------------------------------------------------------------------
# the command table and the boundary
# ---------------------------------------------------------------------------

class Command(NamedTuple):
    """A row of the command table: subcommand words, handler fn(args, rep),
    the check an exception escaping fn is recorded under (None: fn names
    it), help, report title and parameters (formatted from and read from
    args), positional arguments as (name, argparse keywords) and integer
    options as (option, default, least value)."""
    path: str
    fn: Callable
    check: str | None
    help: str | None
    title: str
    params: tuple
    positionals: tuple
    ints: tuple = ()


_FUEL = (("fuel", 32, 0),)
_POOL_BOUND = (("pool", 2, 1), ("bound", 4, 2))
_SIZE_DEPTH = (("size", 3, 0), ("depth", 4, 0))
_FUNCTOR = (("functor", {}),)
_STEPS = (("steps", 8, 0),)

COMMANDS = (
    Command("check", cmd_check, "declarations", "typecheck a .clott file",
            "check", ("file", "fuel"), (("file", {}),), _FUEL),
    Command("eval", cmd_eval, "eval", "weak-head normalize a term", "eval",
            ("fuel",), (("expr", {}),), _FUEL),
    Command("model verify", cmd_model, "model/budget", "run a model suite",
            "model verify", ("suite", "pool", "bound"),
            (("suite", {"choices": MODEL_SUITES}),), _POOL_BOUND),
    Command("theory", cmd_theory, None, "algebraic theory checks",
            "theory {action}", ("file", "size", "depth"),
            (("action", {"choices": THEORY_CHECKS}),
             ("file", {"help": "a .thy theory file"})), _SIZE_DEPTH),
    Command("coalg terminal", cmd_terminal, "terminal-sequence", None,
            "coalg terminal", ("steps",), _FUNCTOR, _STEPS),
    Command("coalg final", cmd_final, "final-coalgebra", None, "coalg final",
            ("steps",), _FUNCTOR, _STEPS),
    Command("coalg bisim", cmd_bisim, "bisimilarity", None, "coalg bisim",
            ("file",),
            (("file", {"help": "a .coalg edge-list file"}),
             ("states", {"nargs": "*", "metavar": "STATE",
                         "help": "optional pair of states to compare"}))),
    Command("coalg weakbisim", cmd_weakbisim, "weak-bisimilarity", None,
            "coalg weakbisim", ("left", "right", "bound"),
            (("left", {"help": "delay term, e.g. step(now(a))"}),
             ("right", {})), (("bound", 4, 1),)),
    Command("suite", cmd_suite, "{name}/budget", "run a curated battery",
            "suite {name}", ("pool", "bound", "fuel", "size", "depth"),
            (("name", {"choices": SUITES}),),
            _POOL_BOUND + _FUEL + _SIZE_DEPTH),
)
_GROUPS = {"model": "presheaf model checks", "coalg": "coalgebra checks"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):           # one line, no usage block
        self.exit(EXIT_USAGE, f"{self.prog}: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by later ones
    (parsing leaves it unchanged)."""
    p = _Parser(prog="clott",
                description="Workbench for Clocked Type Theory: typechecker, "
                            "finite presheaf model, algebraic theories, "
                            "coalgebra.")
    sub = p.add_subparsers(dest="cmd", required=True)
    groups = {}
    for c in COMMANDS:
        head, _, leaf = c.path.partition(" ")
        if leaf and head not in groups:
            groups[head] = sub.add_parser(head, help=_GROUPS[head]) \
                .add_subparsers(dest="action", required=True)
        sp = (groups[head] if leaf else sub).add_parser(leaf or head,
                                                        help=c.help)
        for name, kw in c.positionals:
            sp.add_argument(name, **kw)
        for name, default, least in c.ints:
            sp.add_argument(f"--{name}", type=int, default=default,
                            help=f"at least {least} (default {default})")
        sp.add_argument("--json", metavar="PATH",
                        help="write the JSON report to PATH ('-' = stdout)")
        sp.set_defaults(command=c)
    return p


def _check_ints(c: Command, args) -> None:
    low = [f"--{o} {getattr(args, o)}" for o, _, least in c.ints
           if getattr(args, o) < least]
    if low:
        need = " and ".join(f"--{o} >= {least}" for o, _, least in c.ints)
        raise UsageError(f"need {need} (got {', '.join(low)})")


def _decide(fn, args, rep: Report) -> int:
    """Run fn(args, rep); what it raises when it cannot decide becomes the
    verdict of the check named by args.check."""
    try:
        fn(args, rep)
    except UNDECIDED as exc:
        rep.add(args.check, UNKNOWN, {"reason": _reason(exc)})
    except TypeCheckError as exc:
        rep.add(args.check, FAIL, {"rule": exc.rule, "message": str(exc)})
    return rep.exit_code()


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else EXIT_USAGE
    c, fields = args.command, vars(args)
    rep = Report(c.title.format_map(fields), {k: fields[k] for k in c.params})
    args.check = c.check and c.check.format_map(fields)
    try:
        _check_ints(c, args)
        code = _decide(c.fn, args, rep)
        print(rep.summary())
        if args.json == "-":
            sys.stdout.write(rep.dumps())
        elif args.json:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(rep.dumps())
    except USAGE_ERRORS as exc:
        print(f"clott {c.path}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
