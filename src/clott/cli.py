"""Command-line entry point.

Subcommands: check, eval, model verify, theory {drop,free,monos,pullbacks},
coalg {terminal,final,bisim,weakbisim}, suite.  Exit codes: 0 all pass,
1 any fail, 2 usage/parse error, 3 unknown verdicts with no fail.
"""
from __future__ import annotations

import argparse
import re
import sys
from importlib import resources

from . import coalgebra, kernel, theories
from .coalgebra import (BOT, bisimilarity, final_coalgebra, now,
                        parse_coalgebra_file, parse_functor, show_functor,
                        step, terminal_sequence, weak_bisim_delay)
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
from .theories import (BUILTINS, Budget, BudgetExceeded, CheckResult,
                       check_preserves_monos,
                       check_preserves_pullbacks_of_monos, drop_equations,
                       free_model, theory_from_file)

EXIT_USAGE = 2


def data_path(name: str):
    return resources.files("clott.data") / name


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# check / eval
# ---------------------------------------------------------------------------

def _too_deep(rep: Report, check: str) -> tuple[int, Report]:
    """A term nested deeper than the recursive parser, checker or printer
    can follow: the verdict is unknown, not a crash."""
    rep.add(check, UNKNOWN,
            {"reason": "term nesting exceeds the recursion limit "
                       f"({sys.getrecursionlimit()} frames)"})
    return 3, rep


def cmd_check(args) -> tuple[int, Report]:
    rep = Report("check", {"file": args.file, "fuel": args.fuel})
    try:
        decls = parse_declarations(_read(args.file))
    except (OSError, ParseError) as exc:
        print(f"clott check: {exc}", file=sys.stderr)
        return EXIT_USAGE, rep
    except RecursionError:
        return _too_deep(rep, "declarations")
    try:
        kernel.check_declarations(decls, args.fuel)
    except UnknownConversion as exc:
        rep.add("declarations", UNKNOWN, {"reason": str(exc)})
        return 3, rep
    except TypeCheckError as exc:
        rep.add("declarations", FAIL, {"rule": exc.rule, "message": str(exc)})
        return 1, rep
    except RecursionError:
        return _too_deep(rep, "declarations")
    rep.add("declarations", PASS, {"count": len(decls)})
    return 0, rep


def cmd_eval(args) -> tuple[int, Report]:
    rep = Report("eval", {"fuel": args.fuel})
    try:
        t = parse_term(args.expr)
    except ParseError as exc:
        print(f"clott eval: {exc}", file=sys.stderr)
        return EXIT_USAGE, rep
    except RecursionError:
        return _too_deep(rep, "eval")
    try:
        w, complete = whnf(Context(), t, Fuel(args.fuel))
        shown = show_term(w)
    except RecursionError:
        return _too_deep(rep, "eval")
    print(shown)
    rep.add("eval", PASS if complete else UNKNOWN,
            {"input": args.expr, "whnf": shown,
             "complete": complete})
    return rep.exit_code(), rep


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


def _model_args_ok(cmd: str, args) -> bool:
    """The time category needs a clock pool and at least two stages."""
    if args.pool >= 1 and args.bound >= 2:
        return True
    print(f"clott {cmd}: need --pool >= 1 and --bound >= 2 "
          f"(got --pool {args.pool} --bound {args.bound})", file=sys.stderr)
    return False


def run_model_suite(model: Model, suite: str, rep: Report) -> int:
    """Run one model suite (or all of them) into rep.  A budget overrun
    ends the run with an unknown verdict that carries the reason."""
    for name in _MODEL_SUITE_RUNNERS if suite == "all" else (suite,):
        try:
            _MODEL_SUITE_RUNNERS[name](model, rep)
        except (BudgetExceeded, FreshClockExhausted) as exc:
            rep.add(f"{name}/budget", UNKNOWN,
                    {"reason": f"{type(exc).__name__}: {exc}"})
            break
    return rep.exit_code()


def cmd_model(args) -> tuple[int, Report]:
    rep = Report("model verify",
                 {"suite": args.suite, "pool": args.pool,
                  "bound": args.bound})
    if args.suite not in MODEL_SUITES:
        print(f"clott model verify: unknown suite {args.suite!r} "
              f"(choose from {', '.join(MODEL_SUITES)})", file=sys.stderr)
        return EXIT_USAGE, rep
    if not _model_args_ok("model verify", args):
        return EXIT_USAGE, rep
    try:
        model = Model(pool=args.pool, bound=args.bound)
    except BudgetExceeded as exc:
        rep.add("model/budget", UNKNOWN,
                {"reason": f"{type(exc).__name__}: {exc}"})
        return rep.exit_code(), rep
    return run_model_suite(model, args.suite, rep), rep


# ---------------------------------------------------------------------------
# theory
# ---------------------------------------------------------------------------

def _load_theory(path: str):
    ops, eqs, builtin = parse_theory_file(_read(path))
    return theory_from_file(ops, eqs, builtin)


def cmd_theory(args) -> tuple[int, Report]:
    rep = Report(f"theory {args.action}",
                 {"file": args.file, "size": args.size, "depth": args.depth})
    try:
        t = _load_theory(args.file)
    except (OSError, ParseError, theories.TheoryError) as exc:
        print(f"clott theory: {exc}", file=sys.stderr)
        return EXIT_USAGE, rep
    budget = Budget(term_size=args.depth)
    try:
        _theory_action(args, t, budget, rep)
    except BudgetExceeded as exc:
        name = "free-model" if args.action == "free" \
            else f"preserves-{args.action}"
        rep.add(name, UNKNOWN, {"reason": f"{type(exc).__name__}: {exc}"})
    return rep.exit_code(), rep


def _theory_action(args, t, budget: Budget, rep: Report) -> None:
    if args.action == "drop":
        drops = drop_equations(t)
        rep.add("drop-equations", PASS,
                {"drop": bool(drops), "count": len(drops),
                 "equations": [f"{show_alg_term(l)} = {show_alg_term(r)}"
                               for l, r in drops]},
                anchor="drop equation: free variables differ across sides")
    elif args.action == "free":
        base = tuple(range(args.size))
        m = free_model(t, base, budget)
        rep.add("free-model", PASS if m.exact else UNKNOWN,
                {"base_size": args.size, "carrier_size": len(m.elements),
                 "exact": m.exact,
                 "note": None if m.exact else
                 "budget-bounded congruence classes: lower bound only"},
                anchor="free-model monad carrier T(X)")
    else:
        checker = (check_preserves_monos if args.action == "monos"
                   else check_preserves_pullbacks_of_monos)
        r: CheckResult = checker(t, size_bound=args.size, budget=budget)
        rep.add(f"preserves-{args.action}", PASS if r.ok else FAIL,
                {"counterexample": r.counterexample, "bounds": r.bounds},
                anchor="preservation of monos / pullbacks of monos")


# ---------------------------------------------------------------------------
# coalg
# ---------------------------------------------------------------------------

def _steps(d, k):
    for _ in range(k):
        d = step(d)
    return d


def parse_delay(text: str):
    """Parse `step(step(now(a)))` / `bot` into a delay tree."""
    text = text.replace(" ", "")
    depth = 0
    while text.startswith("step("):
        depth += 1
        text = text[len("step("):]
    if depth and not text.endswith(")" * depth):
        raise ValueError(f"unbalanced delay term {text!r}")
    text = text[: len(text) - depth] if depth else text
    if text == "bot":
        core = BOT
    else:
        m = re.fullmatch(r"now\(([A-Za-z0-9_]+)\)", text)
        if not m:
            raise ValueError(f"bad delay term {text!r}")
        core = now(m.group(1))
    return _steps(core, depth)


def cmd_coalg(args) -> tuple[int, Report]:
    rep = Report(f"coalg {args.action}", {})
    try:
        return _coalg(args, rep)
    except (coalgebra.FunctorParseError, ValueError, OSError) as exc:
        print(f"clott coalg: {exc}", file=sys.stderr)
        return EXIT_USAGE, rep


def _coalg(args, rep: Report) -> tuple[int, Report]:
    if args.action in ("terminal", "final"):
        f = parse_functor(args.functor)
        rep.parameters.update({"functor": show_functor(f),
                               "steps": args.steps})
        if args.action == "terminal":
            seq = terminal_sequence(f, args.steps)
            verdict = PASS if seq.convergence is not None else UNKNOWN
            rep.add("terminal-sequence", verdict,
                    {"stage_sizes": seq.sizes(),
                     "convergence": seq.convergence,
                     "budget_hit": seq.budget_hit},
                    anchor="terminal sequence 1 <- F(1) <- F^2(1) <- ...")
        else:
            try:
                coalg, seq, finality = final_coalgebra(f, args.steps)
            except coalgebra.NotConverged as exc:
                rep.add("final-coalgebra", UNKNOWN, {"reason": str(exc)})
                return rep.exit_code(), rep
            except BudgetExceeded as exc:
                rep.add("final-coalgebra", UNKNOWN,
                        {"reason": str(exc), "coalgebras_checked": 0})
                return rep.exit_code(), rep
            rep.add("final-coalgebra",
                    PASS if finality.verified else UNKNOWN,
                    {"carrier_size": len(coalg.states),
                     "stage_sizes": seq.sizes(),
                     "finality_bound": finality.size_bound,
                     "coalgebras_checked": finality.coalgebras_checked},
                    anchor="final coalgebra from the converged sequence")
    elif args.action == "bisim":
        c = parse_coalgebra_file(_read(args.file))
        rep.parameters["file"] = args.file
        partition = bisimilarity(c)
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
    else:   # weakbisim
        x = parse_delay(args.left)
        y = parse_delay(args.right)
        rep.parameters.update({"left": args.left, "right": args.right,
                               "bound": args.bound})
        stages = weak_bisim_delay(x, y, lambda a, b: a == b, args.bound)
        rep.add("weak-bisimilarity",
                PASS if stages["all"] else FAIL,
                {"stages": {str(k): v for k, v in stages.items()
                            if k != "all"},
                 "all": stages["all"]},
                anchor="weak bisimilarity on the truncated delay monad")
    return rep.exit_code(), rep


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
        text = data_path(name).read_text(encoding="utf-8")
        decls = parse_declarations(text)
        try:
            kernel.check_declarations(decls, args.fuel)
            rep.add(f"figures/{name}", PASS, {"declarations": len(decls)},
                    anchor="Fig. 1/2 typing rules golden corpus")
        except UnknownConversion as exc:
            rep.add(f"figures/{name}", UNKNOWN, {"reason": str(exc)})
        except TypeCheckError as exc:
            rep.add(f"figures/{name}", FAIL, {"message": str(exc)})


def _suite_theories(args, rep: Report) -> None:
    budget = Budget(term_size=args.depth)
    for name, t in BUILTINS.items():
        drops = drop_equations(t)
        rep.add(f"theories/{name}/drop", PASS,
                {"drop": bool(drops), "count": len(drops)},
                anchor="drop-equation detection")
        r = check_preserves_pullbacks_of_monos(t, size_bound=args.size,
                                               budget=budget)
        rep.add(f"theories/{name}/pullbacks", PASS if r.ok else FAIL,
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


def cmd_suite(args) -> tuple[int, Report]:
    rep = Report(f"suite {args.name}",
                 {"pool": args.pool, "bound": args.bound, "fuel": args.fuel,
                  "size": args.size, "depth": args.depth})
    if args.name not in SUITES:
        print(f"clott suite: unknown suite {args.name!r} "
              f"(choose from {', '.join(SUITES)})", file=sys.stderr)
        return EXIT_USAGE, rep
    if args.name == "requirements" and not _model_args_ok("suite", args):
        return EXIT_USAGE, rep
    try:
        _SUITE_RUNNERS[args.name](args, rep)
    except BudgetExceeded as exc:
        rep.add(f"{args.name}/budget", UNKNOWN,
                {"reason": f"{type(exc).__name__}: {exc}"})
    return rep.exit_code(), rep


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="clott",
        description="Workbench for Clocked Type Theory: typechecker, "
                    "finite presheaf model, algebraic theories, coalgebra.")
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp):
        sp.add_argument("--json", metavar="PATH",
                        help="write the JSON report to PATH ('-' = stdout)")

    sp = sub.add_parser("check", help="typecheck a .clott file")
    sp.add_argument("file")
    sp.add_argument("--fuel", type=int, default=32)
    common(sp)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("eval", help="weak-head normalize a term")
    sp.add_argument("expr")
    sp.add_argument("--fuel", type=int, default=32)
    common(sp)
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("model", help="presheaf model checks")
    msub = sp.add_subparsers(dest="model_cmd", required=True)
    mv = msub.add_parser("verify", help="run a model suite")
    mv.add_argument("suite", help=f"one of: {', '.join(MODEL_SUITES)}")
    mv.add_argument("--pool", type=int, default=2)
    mv.add_argument("--bound", type=int, default=4)
    common(mv)
    mv.set_defaults(fn=cmd_model)

    sp = sub.add_parser("theory", help="algebraic theory checks")
    sp.add_argument("action", choices=["drop", "free", "monos", "pullbacks"])
    sp.add_argument("file", help="a .thy theory file")
    sp.add_argument("--size", type=int, default=3)
    sp.add_argument("--depth", type=int, default=4)
    common(sp)
    sp.set_defaults(fn=cmd_theory)

    sp = sub.add_parser("coalg", help="coalgebra checks")
    csub = sp.add_subparsers(dest="action", required=True)
    ct = csub.add_parser("terminal")
    ct.add_argument("functor")
    ct.add_argument("--steps", type=int, default=8)
    common(ct)
    ct.set_defaults(fn=cmd_coalg, action="terminal")
    cf = csub.add_parser("final")
    cf.add_argument("functor")
    cf.add_argument("--steps", type=int, default=8)
    common(cf)
    cf.set_defaults(fn=cmd_coalg, action="final")
    cb = csub.add_parser("bisim")
    cb.add_argument("file", help="a .coalg edge-list file")
    cb.add_argument("states", nargs="*", metavar="STATE",
                    help="optional pair of states to compare")
    common(cb)
    cb.set_defaults(fn=cmd_coalg, action="bisim")
    cw = csub.add_parser("weakbisim")
    cw.add_argument("left", help="delay term, e.g. step(now(a))")
    cw.add_argument("right")
    cw.add_argument("--bound", type=int, default=4)
    common(cw)
    cw.set_defaults(fn=cmd_coalg, action="weakbisim")

    sp = sub.add_parser("suite", help="run a curated battery")
    sp.add_argument("name", help=f"one of: {', '.join(SUITES)}")
    sp.add_argument("--pool", type=int, default=2)
    sp.add_argument("--bound", type=int, default=4)
    sp.add_argument("--fuel", type=int, default=32)
    sp.add_argument("--size", type=int, default=3)
    sp.add_argument("--depth", type=int, default=4)
    common(sp)
    sp.set_defaults(fn=cmd_suite)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    if args.fn is cmd_coalg and getattr(args, "states", None) and \
            len(args.states) not in (0, 2):
        print("clott coalg bisim: supply zero or two states",
              file=sys.stderr)
        return EXIT_USAGE
    code, rep = args.fn(args)
    if code != EXIT_USAGE:
        print(rep.summary())
        if getattr(args, "json", None):
            payload = rep.dumps()
            if args.json == "-":
                sys.stdout.write(payload)
            else:
                with open(args.json, "w", encoding="utf-8") as fh:
                    fh.write(payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
