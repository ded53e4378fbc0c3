"""Command-line interface: exit codes, report shape, determinism."""
import argparse
import contextlib
import io
import json
import random
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clott import cli
from clott.cli import data_path, main, parse_delay
from clott.coalgebra import BOT, now, step
from clott.kernel import TypeCheckError, UnknownConversion
from clott.model import Model
from clott.report import SCHEMA_VERSION, Report
from clott.theories import Budget


DATA = "src/clott/data"


def run(argv, capsys=None):
    code = main(argv)
    return code


def run_json(argv, tmp_path, name="out.json"):
    path = tmp_path / name
    code = main(argv + ["--json", str(path)])
    return code, json.loads(path.read_text())


# -- check / eval --------------------------------------------------------------

def test_check_pass(tmp_path):
    f = tmp_path / "ok.clott"
    f.write_text("def i : unit -> unit = fun x -> x\n")
    assert run(["check", str(f)]) == 0


def test_check_type_error(tmp_path):
    f = tmp_path / "bad.clott"
    f.write_text("def i : unit = fun x -> x\n")
    assert run(["check", str(f)]) == 1


def test_check_parse_error(tmp_path):
    f = tmp_path / "broken.clott"
    f.write_text("def i : unit = (tt\n")
    assert run(["check", str(f)]) == 2


def test_check_underscore_variable_is_usage_error(tmp_path, capsys):
    # `El _ -> El _` once parsed as a Pi binding the user's `_`, so the
    # declaration failed to check; `_` names binders only
    f = tmp_path / "under.clott"
    f.write_text("def f : (_ : U{}) -> El _ -> El _ = fun A -> fun x -> x\n")
    assert run(["check", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "1:25: '_' only names a binder" in err


def test_check_missing_file():
    assert run(["check", "/no/such/file.clott"]) == 2


def test_check_fuel_exhaustion_is_unknown(tmp_path):
    # proving the delay code equal to its one-step unfolding needs one
    # fix unfolding; at fuel 0 the verdict is unknown, not a failure
    g = ("((fun d -> csum (In{ => k} A) (clater (a : k) -> d [a]))"
         " : (later (b : k) -> U{k}) -> U{k})")
    f = tmp_path / "fuel.clott"
    f.write_text(
        f"def q : (A : U{{}}) -> forall-clk k -> Id U{{k}} (fix {g}) "
        f"(csum (In{{ => k}} A) (clater (a : k) -> fix {g})) "
        f"= fun A -> clock k -> refl\n")
    assert run(["check", str(f), "--fuel", "0"]) == 3
    assert run(["check", str(f), "--fuel", "1"]) == 0


# `fix` at a codomain that mentions the function's binder, though it
# reduces to one that does not: the constant's inner function, its outer
# function, and an applied `fix`'s argument
_DEPENDENT_FIX = [
    "((d : later (a : k) -> unit) -> (fun _ -> unit) d) -> unit = "
    "clock k -> fix",
    "(g : (later (a : k) -> unit) -> unit) -> (fun _ -> unit) g = "
    "clock k -> fix",
    "unit = clock k -> fix ((fun d -> tt) : "
    "(d : later (a : k) -> unit) -> (fun _ -> unit) d)",
]


@pytest.mark.parametrize("decl", _DEPENDENT_FIX)
def test_fix_requires_non_dependent_functions(tmp_path, decl):
    # the constant and the applied `fix` share one rule, and it rejects all
    # three
    f = tmp_path / "fix.clott"
    f.write_text(f"def f : forall-clk k -> {decl}\n")
    code, doc = run_json(["check", str(f)], tmp_path)
    assert code == 1
    assert [(c["verdict"], c["evidence"]) for c in doc["checks"]] == [
        ("fail", {"rule": "fix",
                  "message": "[fix] fix requires a non-dependent function"})]


def test_eval_whnf(capsys):
    assert run(["eval", "(fun x -> x) tt"]) == 0
    assert "tt" in capsys.readouterr().out


def test_eval_parse_error():
    assert run(["eval", "(tt"]) == 2


def _assert_too_deep(code, doc, capsys):
    assert code == 3
    (entry,) = doc["checks"]
    assert entry["verdict"] == "unknown"
    assert "recursion limit" in entry["evidence"]["reason"]
    assert list(entry["evidence"]) == ["reason"]
    assert "Traceback" not in capsys.readouterr().err


def _redex_chain(n):
    t = "tt"
    for _ in range(n):
        t = f"((fun x -> x) : unit -> unit) ({t})"
    return f"def r : unit = {t}\n"


def test_check_nesting_beyond_recursion_limit_is_unknown(tmp_path, capsys):
    f = tmp_path / "deep.clott"
    f.write_text(_redex_chain(1000))
    code, doc = run_json(["check", str(f)], tmp_path)
    _assert_too_deep(code, doc, capsys)


def test_check_redex_chain_of_200_passes(tmp_path):
    f = tmp_path / "chain.clott"
    f.write_text(_redex_chain(200))
    code, doc = run_json(["check", str(f)], tmp_path)
    assert code == 0
    assert [c["verdict"] for c in doc["checks"]] == ["pass"]


def test_check_5000_chained_declarations_passes(tmp_path, capsys):
    # each declaration calls the one before it, and its binder `y` is
    # freshened against the declared `y`; the file's length costs no
    # recursion depth
    f = tmp_path / "long.clott"
    f.write_text("def y : unit = tt\n" + "".join(
        f"def n{i} : unit -> unit = fun y -> {f'n{i - 1} y' if i else 'y'}\n"
        for i in range(5000)))
    code, doc = run_json(["check", str(f)], tmp_path)
    assert code == 0
    assert [(c["verdict"], c["evidence"]) for c in doc["checks"]] == \
        [("pass", {"count": 5001})]
    assert "Traceback" not in capsys.readouterr().err


def test_eval_nesting_beyond_recursion_limit_is_unknown(tmp_path, capsys):
    code, doc = run_json(["eval", "(" * 3000 + "tt" + ")" * 3000], tmp_path)
    _assert_too_deep(code, doc, capsys)


# -- model ---------------------------------------------------------------------

def test_model_invariance_suite(tmp_path):
    code, doc = run_json(["model", "verify", "invariance",
                          "--bound", "3"], tmp_path)
    assert code == 0
    assert doc["schema"] == SCHEMA_VERSION
    names = [c["name"] for c in doc["checks"]]
    assert "invariance/clk-non-example" in names
    assert all(c["verdict"] == "pass" for c in doc["checks"])


def test_model_force_records_truncation_artifact(tmp_path):
    code, doc = run_json(["model", "verify", "force", "--bound", "3"],
                         tmp_path)
    assert code == 0      # truncation artifacts count as passing
    by_name = {c["name"]: c for c in doc["checks"]}
    assert by_name["force/constant"]["verdict"] == "pass"
    assert by_name["force/delay-unit"]["verdict"] == "truncation_artifact"


def test_model_experiments_just_under_the_budget(tmp_path):
    # (2, 24) has 880,000 slice morphisms, just under the element budget;
    # the experiments suite reads objects and clock introductions only
    code, doc = run_json(["model", "verify", "experiments", "--pool", "2",
                          "--bound", "24"], tmp_path)
    assert code == 0
    by_name = {c["name"]: c for c in doc["checks"]}
    witness = by_name["experiments/example4-witness"]["evidence"]
    assert witness["expected"] == 23
    assert set(witness["witnesses"].values()) == {23}


def test_model_unknown_suite_is_usage_error():
    assert run(["model", "verify", "nonsense"]) == 2


@pytest.mark.parametrize("argv", [
    ["model", "verify", "invariance", "--pool", "3", "--bound", "1"],
    ["model", "verify", "all", "--pool", "0"],
    ["suite", "requirements", "--bound", "1"],
    ["suite", "requirements", "--pool", "0"],
])
def test_model_invalid_parameters_are_usage_errors(argv, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert "--pool >= 1 and --bound >= 2" in captured.err


def run_model_suite(model: Model, suite: str, rep: Report) -> int:
    """Run one model suite (or all of them) over model into rep, as
    `model verify` does, and return the exit code."""
    def run(args, rep):
        cli._run_suites(args, rep, cli._MODEL_SUITE_RUNNERS, suite, model)
    return cli._decide(run, argparse.Namespace(), rep)


def test_model_budget_overrun_is_unknown():
    # the guarded fixpoint of prod(const{a,b},id) has 8 elements at stage
    # 2; 6 is the least budget that admits the category itself (4 objects,
    # 6 slice morphisms)
    model = Model(pool=1, bound=3, budget=Budget(max_elements=6))
    rep = Report("model verify")
    assert run_model_suite(model, "fixpoints", rep) == 3
    last = rep.checks[-1]
    assert last.name == "fixpoints/budget" and last.verdict == "unknown"
    assert "BudgetExceeded" in last.evidence["reason"]
    assert "exceeds budget 6" in last.evidence["reason"]


def test_model_oversized_fixpoint_stage_refused_early(tmp_path):
    # stage 4 of mu pf(prod(const{l},id)) is the powerset of a
    # 65,536-element set; it is refused before the chain below is mapped
    code, doc = run_json(["model", "verify", "fixpoints", "--pool", "1",
                          "--bound", "5"], tmp_path)
    assert code == 3
    last = doc["checks"][-1]
    assert last["name"] == "fixpoints/budget"
    assert "powerset of a 65536-element set" in last["evidence"]["reason"]


@pytest.mark.parametrize("argv", [
    ["model", "verify", "invariance", "--pool", "5", "--bound", "8"],
    ["model", "verify", "all", "--pool", "60", "--bound", "9"],
    ["suite", "requirements", "--pool", "5", "--bound", "8"]])
def test_model_oversized_category_is_unknown(tmp_path, capsys, argv):
    # (5, 8) has 59,049 objects; the category is refused before it is
    # enumerated
    t0 = time.perf_counter()
    code, doc = run_json(argv, tmp_path)
    assert time.perf_counter() - t0 < 5
    assert code == 3
    last = doc["checks"][-1]
    assert last["name"].endswith("/budget") and last["verdict"] == "unknown"
    assert "max_elements budget 1000000" in last["evidence"]["reason"]
    assert "Traceback" not in capsys.readouterr().err


def test_model_invariance_exponential_over_budget_is_unknown(tmp_path):
    # at (3, 3) the exponential's precomposition table has 133,920 pairs
    # and every check passes; at (4, 2) it would have 2,324,376, and the
    # table is refused before it is built
    code, doc = run_json(["model", "verify", "invariance", "--pool", "3",
                          "--bound", "3"], tmp_path)
    assert code == 0 and len(doc["checks"]) == 13
    t0 = time.perf_counter()
    code, doc = run_json(["model", "verify", "invariance", "--pool", "4",
                          "--bound", "2"], tmp_path)
    assert time.perf_counter() - t0 < 10
    assert code == 3
    last = doc["checks"][-1]
    assert last["name"] == "invariance/budget"
    assert "needs 2324376 generator-precomposition pairs, over the " \
        "max_elements budget 1000000" in last["evidence"]["reason"]


# -- theory --------------------------------------------------------------------

def test_theory_drop(tmp_path):
    code, doc = run_json(["theory", "drop", f"{DATA}/truncation.thy"],
                         tmp_path)
    assert code == 0
    assert doc["checks"][0]["evidence"]["drop"] is True


def test_theory_free(tmp_path):
    code, doc = run_json(["theory", "free", f"{DATA}/semilattice.thy",
                          "--size", "3"], tmp_path)
    assert code == 0
    assert doc["checks"][0]["evidence"]["carrier_size"] == 8


def test_theory_pullbacks_failure_exit_code():
    assert run(["theory", "pullbacks", f"{DATA}/truncation.thy"]) == 1


def test_theory_monos_pass():
    assert run(["theory", "monos", f"{DATA}/semilattice.thy",
                "--size", "2"]) == 0


def test_theory_custom_free_model_is_unknown(tmp_path):
    code, doc = run_json(["theory", "free", f"{DATA}/leftzero.thy",
                          "--size", "2"], tmp_path)
    assert code == 3
    assert doc["checks"][0]["verdict"] == "unknown"


def test_theory_missing_file():
    assert run(["theory", "drop", "/no/such.thy"]) == 2


@pytest.mark.parametrize("action", ["free", "pullbacks"])
def test_theory_negative_arity_is_a_parse_error(tmp_path, capsys, action):
    f = tmp_path / "neg.thy"
    f.write_text("op f/-1\nop c/0\n")
    assert run(["theory", action, str(f), "--size", "1", "--depth", "2"]) == 2
    err = capsys.readouterr().err
    assert "bad arity '-1'" in err and "Traceback" not in err


@pytest.mark.parametrize("text, argv", [
    ("op f/2\nop c/0\neq f(x, y) = x\n",
     ["free", "--size", "60", "--depth", "2"]),
    ("op f/14\nop c/0\n", ["free", "--size", "2", "--depth", "3"]),
    ("op f/14\nop c/0\n", ["pullbacks", "--size", "2", "--depth", "3"])])
def test_theory_term_budget_overrun_is_unknown(tmp_path, text, argv):
    # the size layer that would pass max_terms is counted, not built, so
    # the overrun is reported at once; f/14 over three leaves alone has
    # 3^14 size-1 terms
    f = tmp_path / "big.thy"
    f.write_text(text)
    t0 = time.perf_counter()
    code, doc = run_json(["theory", argv[0], str(f), *argv[1:]], tmp_path)
    assert time.perf_counter() - t0 < 5
    assert code == 3
    [check] = doc["checks"]
    assert check["verdict"] == "unknown"
    assert check["evidence"]["reason"] == \
        "BudgetExceeded: term universe exceeds 200000"


@pytest.mark.parametrize("action", ["free", "pullbacks"])
def test_theory_equation_instances_over_budget_are_unknown(tmp_path, action):
    # 5,930,847 instances of the equation over three labels up to size 4
    # are counted from the layer sizes and refused before any is made;
    # congruence closure over them ran about a minute
    f = tmp_path / "fg.thy"
    f.write_text("op f/2\nop g/1\neq f(x, c) = g(y)\n")
    t0 = time.perf_counter()
    code, doc = run_json(["theory", action, str(f)], tmp_path)
    assert time.perf_counter() - t0 < 5
    assert code == 3
    [check] = doc["checks"]
    assert check["verdict"] == "unknown"
    reason = check["evidence"]["reason"]
    assert "equation instances over 3 labels up to size 4" in reason
    assert "over the max_elements budget 1000000" in reason


def test_theory_pullbacks_of_a_free_operation_at_the_defaults(tmp_path):
    # no equations, so T(3) holds every term of f/2 up to size 4; the
    # check maps about a million elements
    f = tmp_path / "f.thy"
    f.write_text("op f/2\n")
    t0 = time.perf_counter()
    code, doc = run_json(["theory", "pullbacks", str(f), "--size", "3",
                          "--depth", "4"], tmp_path)
    assert time.perf_counter() - t0 < 5
    assert code == 0
    assert doc["checks"][0]["verdict"] == "pass"


def test_theory_pullbacks_of_a_commutative_operation_pass(tmp_path):
    # T(swap) sends f(0, 1) to f(1, 0), the same class; with no drop
    # equation the free model preserves pullbacks of monos
    f = tmp_path / "comm.thy"
    f.write_text("op f/2\neq f(x, y) = f(y, x)\n")
    code, doc = run_json(["theory", "pullbacks", str(f), "--size", "2",
                          "--depth", "2"], tmp_path)
    assert code == 0
    assert doc["checks"][0]["verdict"] == "pass"


def test_theory_pullbacks_square_budget_is_unknown(tmp_path, capsys):
    f = tmp_path / "convex.thy"
    f.write_text("builtin convex\n")
    t0 = time.perf_counter()
    code, doc = run_json(["theory", "pullbacks", str(f), "--size", "80"],
                         tmp_path)
    assert time.perf_counter() - t0 < 5
    assert code == 3
    [check] = doc["checks"]
    assert check["verdict"] == "unknown"
    assert "over the max_elements budget 1000000" in \
        check["evidence"]["reason"]
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("eq, where", [("f(x y) = f(y, x)", "2:8:"),
                                       ("f(x,y,) = x", "2:10:")])
def test_theory_argument_commas_are_required(tmp_path, capsys, eq, where):
    f = tmp_path / "commas.thy"
    f.write_text(f"op f/2\neq {eq}\n")
    assert run(["theory", "drop", str(f)]) == 2
    err = capsys.readouterr().err
    assert where in err and "Traceback" not in err


# -- coalg ---------------------------------------------------------------------

def test_coalg_terminal_converges(tmp_path):
    code, doc = run_json(["coalg", "terminal", "const{a,b}"], tmp_path)
    assert code == 0
    assert doc["checks"][0]["evidence"]["convergence"] == 1


def test_coalg_terminal_divergent_is_unknown():
    assert run(["coalg", "terminal", "sum(const{u},id)",
                "--steps", "4"]) == 3


def test_coalg_terminal_convex_overflow_is_unknown(tmp_path, capsys):
    code, doc = run_json(["coalg", "terminal", "df(prod(const{a,b},id))",
                          "--steps", "5"], tmp_path)
    assert code == 3
    assert doc["checks"][0]["evidence"]["stage_sizes"] == [1, 7, 2926]
    assert doc["checks"][0]["evidence"]["budget_hit"] is True
    assert "Traceback" not in capsys.readouterr().err


def test_coalg_final(tmp_path):
    code, doc = run_json(["coalg", "final", "const{a,b}"], tmp_path)
    assert code == 0
    assert doc["checks"][0]["evidence"]["carrier_size"] == 2


def test_coalg_final_refuses_oversized_finality_check(tmp_path):
    # 1 + 22*22 + (22*22)^2 + (22*22)^3 candidate maps over coalgebras on
    # at most 3 states, for a 22-element F(n) and a 22-element carrier
    code, doc = run_json(["coalg", "final", "df(const{a,b,c})",
                          "--steps", "3"], tmp_path)
    assert code == 3
    evidence = doc["checks"][0]["evidence"]
    assert evidence["coalgebras_checked"] == 0
    assert "113614645 candidate maps" in evidence["reason"]
    assert "budget 1000000" in evidence["reason"]
    # 1 + 49 + 49^2 + 49^3 = 120,100 maps stay within the budget
    code, doc = run_json(["coalg", "final", "df(const{a,b})",
                          "--steps", "3"], tmp_path, "small.json")
    assert code == 0
    assert doc["checks"][0]["evidence"]["coalgebras_checked"] == 400


def test_coalg_bad_functor_is_usage_error(capsys):
    for functor in ("sum(id", "const{a b}", "const{,a,,b,}"):
        assert run(["coalg", "terminal", functor]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1


def test_coalg_functor_with_surrounding_spaces(tmp_path):
    # leading, inner and trailing spaces are not part of the functor
    # (pf(id) does not converge within two steps: unknown)
    for functor, exit_code, sizes in (("id ", 0, [1, 1]),
                                      (" pf( id ) ", 3, [1, 2, 4])):
        code, doc = run_json(["coalg", "terminal", functor, "--steps", "2"],
                             tmp_path)
        assert code == exit_code
        assert doc["checks"][0]["evidence"]["stage_sizes"] == sizes


def test_coalg_bisim_pair(tmp_path):
    assert run(["coalg", "bisim", f"{DATA}/stream.coalg", "p", "q"]) == 0
    assert run(["coalg", "bisim", f"{DATA}/stream.coalg", "p", "r"]) == 1


def test_coalg_bisim_wrong_state_count():
    assert run(["coalg", "bisim", f"{DATA}/stream.coalg", "p"]) == 2


def test_coalg_bisim_unknown_state_is_usage_error(capsys):
    assert run(["coalg", "bisim", f"{DATA}/stream.coalg", "p",
                "nosuchstate"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [
        "clott coalg bisim: unknown state 'nosuchstate'"]


def test_coalg_weakbisim():
    assert run(["coalg", "weakbisim", "now(a)", "step(step(now(a)))"]) == 0
    assert run(["coalg", "weakbisim", "now(a)", "now(b)"]) == 1
    assert run(["coalg", "weakbisim", "bot", "bot"]) == 0


def test_parse_delay():
    assert parse_delay("now(a)") == now("a")
    assert parse_delay("step(step(now(a)))") == step(step(now("a")))
    assert parse_delay("bot") == BOT
    assert parse_delay("step(bot)") == step(BOT)
    assert parse_delay(" step ( now ( a_1 ) ) ") == step(now("a_1"))
    for text in ("later(now(a))", "step(now(a)", "step(now(a)))", "now(a b)",
                 "st ep(now(a))", "now()", "now(-)", ""):
        with pytest.raises(ValueError):
            parse_delay(text)


# -- suites --------------------------------------------------------------------

def test_suite_figures():
    assert run(["suite", "figures"]) == 0


def test_suite_theories_reports_truncation_non_example(tmp_path):
    # Thm. 5: truncation drops a variable, so finding its non-example
    # square is the expected outcome; without the square it fails
    code, doc = run_json(["suite", "theories", "--size", "2"], tmp_path)
    assert code == 0
    by_name = {c["name"]: c for c in doc["checks"]}
    truncation = by_name["theories/truncation/pullbacks"]
    assert truncation["verdict"] == "pass"
    square = dict(truncation["evidence"]["counterexample"])
    assert square["P"] == [] and len(square["X"]) == 1
    assert len(square["Z"]) == 1 and len(square["Y"]) == 2
    assert square["f"][0][1] not in square["Z"]
    assert by_name["theories/semilattice/pullbacks"]["verdict"] == "pass"
    code, doc = run_json(["suite", "theories", "--size", "1"], tmp_path,
                         "size1.json")
    assert code == 1
    by_name = {c["name"]: c for c in doc["checks"]}
    assert by_name["theories/truncation/pullbacks"]["verdict"] == "fail"
    assert by_name["theories/truncation/pullbacks"]["evidence"][
        "counterexample"] is None


def test_suite_coalgebra():
    assert run(["suite", "coalgebra"]) == 0


def test_suite_unknown_name():
    assert run(["suite", "nope"]) == 2


def test_every_suite_check_carries_an_anchor(tmp_path, monkeypatch):
    for argv in (["suite", "requirements"], ["suite", "figures"],
                 ["suite", "theories"], ["suite", "coalgebra"],
                 ["model", "verify", "all", "--pool", "1", "--bound", "3"],
                 ["model", "verify", "all", "--pool", "2", "--bound", "3"]):
        _, doc = run_json(argv, tmp_path)
        assert doc["checks"] and all(c.get("anchor") for c in doc["checks"])
    # the unknown and fail records of the figures corpus carry it too
    for exc in (UnknownConversion("blocked"), TypeCheckError("app", "bad")):
        def check(decls, fuel, exc=exc):
            raise exc
        monkeypatch.setattr("clott.kernel.check_declarations", check)
        code, doc = run_json(["suite", "figures"], tmp_path)
        assert code == (3 if isinstance(exc, UnknownConversion) else 1)
        assert all(c.get("anchor") for c in doc["checks"])


# -- the boundary: every input ends in a verdict or a usage error ------------

@pytest.mark.parametrize("argv", [
    ["coalg", "weakbisim", "now(a)", "now(b)", "--bound", "0"],
    ["theory", "pullbacks", f"{DATA}/truncation.thy", "--size", "-1"],
    ["theory", "free", f"{DATA}/semilattice.thy", "--depth", "-1"],
    ["suite", "theories", "--size", "-1"],
    ["suite", "coalgebra", "--bound", "-3"],
    ["suite", "figures", "--pool", "0"],
    ["check", f"{DATA}/figures.clott", "--fuel", "-1"],
    ["eval", "tt", "--fuel", "-2"],
    ["coalg", "terminal", "id", "--steps", "-1"],
    ["coalg", "final", "id", "--steps", "-1"]])
def test_integer_options_below_least_value_are_usage_errors(argv, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and " >= " in captured.err


def test_integer_options_at_least_value_are_accepted():
    assert run(["coalg", "weakbisim", "now(a)", "now(a)", "--bound", "1"]) == 0
    assert run(["eval", "tt", "--fuel", "0"]) == 0
    assert run(["theory", "pullbacks", f"{DATA}/truncation.thy",
                "--size", "0", "--depth", "0"]) == 0
    assert run(["suite", "coalgebra", "--pool", "1", "--bound", "2"]) == 0


_DEEP_FUNCTOR = "pf(" * 1500 + "id" + ")" * 1500


@pytest.mark.parametrize("argv, check", [
    (["coalg", "terminal", _DEEP_FUNCTOR], "terminal-sequence"),
    (["coalg", "final", _DEEP_FUNCTOR], "final-coalgebra"),
    (["theory", "drop"], "drop-equations"),
    (["theory", "free"], "free-model"),
    (["theory", "monos"], "preserves-monos"),
    (["theory", "pullbacks"], "preserves-pullbacks")])
def test_deep_input_is_unknown(tmp_path, capsys, argv, check):
    if argv[0] == "theory":
        f = tmp_path / "deep.thy"
        f.write_text("op f/1\nop c/0\neq " + "f(" * 1500 + "c" + ")" * 1500
                     + " = c\n")
        argv = argv + [str(f)]
    code, doc = run_json(argv, tmp_path)
    assert doc["checks"][0]["name"] == check
    _assert_too_deep(code, doc, capsys)


def test_unwritable_json_path_is_usage_error(tmp_path, capsys):
    assert main(["coalg", "terminal", "const{a}",
                 "--json", str(tmp_path / "no" / "report.json")]) == 2
    assert "Traceback" not in capsys.readouterr().err


_functors = st.recursive(
    st.sampled_from(["id", "const{a,b}", "const{}", "const{u}"]),
    lambda inner: st.one_of(
        st.tuples(st.sampled_from(["sum", "prod"]), inner, inner).map(
            lambda t: f"{t[0]}({t[1]},{t[2]})"),
        st.tuples(st.sampled_from(["pf", "df"]), inner).map(
            lambda t: f"{t[0]}({t[1]})")),
    max_leaves=3)
_delays = st.tuples(st.integers(0, 3), st.sampled_from(
    ["now(a)", "now(b)", "bot"])).map(lambda t: f"{'step(' * t[0]}{t[1]}"
                                                f"{')' * t[0]}")
# well-formed texts twice as often as token soup
_functor_texts = st.one_of(_functors, _functors, st.lists(st.sampled_from(
    ["id", "const{", "a", "b", ",", "}", "pf(", "sum(", ")", " "]),
    max_size=8).map("".join))
_delay_texts = st.one_of(_delays, _delays, st.lists(st.sampled_from(
    ["step(", "now(", "a", "b", ")", "bot", " "]), max_size=6).map("".join))
_thy_texts = st.lists(st.sampled_from(
    ["op f/2", "op g/1", "op c/0", "eq f(x, y) = x", "eq g(x) = x",
     "eq f(x, c) = g(y)", "builtin semilattice", "builtin truncation",
     "-- note", "op h/-1", "eq f(x y) = x", "junk"]),
    max_size=4).map("\n".join)
# in -3..3, mostly at or above the least value 0
_ints = st.one_of(st.integers(0, 3), st.integers(0, 3),
                  st.integers(-3, 3)).map(str)


def _options(**ranges):
    # every option is given, so the defaults (bound 4, depth 4) stay
    # outside the fuzzed ranges; at depth 4, congruence closure on small
    # custom theories still runs for a minute (ROADMAP aim 3, still open)
    return st.tuples(*ranges.values()).map(
        lambda values: [a for n, v in zip(ranges, values)
                        for a in (f"--{n}", v)])


_POOL, _BOUND = st.integers(0, 2).map(str), st.integers(1, 3).map(str)
_argvs = st.one_of(
    st.tuples(st.just(["coalg"]),
              st.sampled_from(["terminal", "final"]).map(lambda a: [a]),
              _functor_texts.map(lambda f: [f]), _options(steps=_ints)),
    st.tuples(st.just(["coalg", "weakbisim"]), _delay_texts.map(lambda d: [d]),
              _delay_texts.map(lambda d: [d]), _options(bound=_ints)),
    st.tuples(st.just(["theory"]),
              st.sampled_from(["drop", "free", "monos", "pullbacks"]).map(
                  lambda a: [a, "THY"]),
              _options(size=_ints, depth=_ints)),
    st.tuples(st.just(["model", "verify"]),
              st.sampled_from(["invariance", "force", "distribution",
                               "experiments", "fixpoints", "all", "x"]).map(
                  lambda s: [s]), _options(pool=_POOL, bound=_BOUND)),
    st.tuples(st.just(["suite"]),
              st.sampled_from(["requirements", "figures", "theories",
                               "coalgebra", "x"]).map(lambda s: [s]),
              _options(pool=_POOL, bound=_BOUND, fuel=_ints, size=_ints,
                       depth=_ints)),
    st.lists(st.sampled_from(["coalg", "theory", "suite", "--json", "-",
                              "--bound", "x", "1"]), max_size=4).map(
        lambda a: [a]))


@settings(max_examples=120, deadline=30_000)
@given(parts=_argvs, thy=_thy_texts)
def test_argv_fuzz_ends_in_an_exit_code(parts, thy):
    # any argv ends in exit 0-3 with no traceback, within the deadline
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.thy"
        path.write_text(thy)
        argv = [str(path) if a == "THY" else a for p in parts for a in p]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--json", "-"])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code != 2:
        doc = json.loads(out.getvalue()[out.getvalue().index("\n{") + 1:])
        assert doc["checks"] and all(c["name"] for c in doc["checks"])


# -- report determinism --------------------------------------------------------

def test_json_reports_are_byte_identical(tmp_path):
    argv = ["model", "verify", "distribution", "--bound", "3"]
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(argv + ["--json", str(p1)]) == 0
    assert main(argv + ["--json", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_json_to_stdout(capsys):
    assert main(["coalg", "terminal", "const{a}", "--json", "-"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out[out.index("{"):])
    assert doc["command"] == "coalg terminal"


# -- one argument parser per process -------------------------------------------

def _shared_parser_argv(data: str) -> list[list[str]]:
    """Every command with small parameters, usage errors (a bad choice, an
    integer below its least value, a malformed or unknown option), help,
    and `--json PATH`."""
    return [
        ["check", f"{data}/figures.clott"], ["eval", "tt"],
        ["model", "verify", "all", "--pool", "1", "--bound", "2"],
        *(["theory", action, f"{data}/semilattice.thy", "--size", "2",
           "--depth", "2"] for action in ("drop", "free", "monos",
                                          "pullbacks")),
        ["coalg", "terminal", "sum(const{u},id)", "--steps", "2"],
        ["coalg", "final", "const{a}", "--steps", "1"],
        ["coalg", "bisim", f"{data}/stream.coalg", "p", "q"],
        ["coalg", "weakbisim", "now(a)", "step(now(a))"],
        ["suite", "requirements", "--pool", "1", "--bound", "2", "--size",
         "2", "--depth", "2"],
        ["suite", "figures"], ["suite", "theories", "--size", "2", "--depth",
                               "2"],
        ["suite", "coalgebra", "--bound", "2"],
        ["model", "verify", "nope"], ["suite", "nope"], ["coalg", "nope"], [],
        ["eval", "tt", "--fuel", "-1"], ["model", "verify", "all", "--bound",
                                         "1"],
        ["eval", "tt", "--fuel", "x"], ["check", "--nope", "f.clott"],
        ["eval", "tt", "extra"], ["-h"], ["coalg", "-h"], ["theory", "--help"],
        ["check", f"{data}/figures.clott", "--json", "report.json"],
        ["eval", "fun x -> x", "--json", "report.json"],
    ]


def _shared_parser_transcript(argv_list, capsys) -> list:
    """Exit code, stdout, stderr and the `--json report.json` file of each
    call, run from the current directory."""
    out = []
    for argv in argv_list:
        code = main(argv)
        captured = capsys.readouterr()
        report = Path("report.json")
        out.append((code, captured.out, captured.err,
                    report.read_text(encoding="utf-8") if report.exists()
                    else None))
        report.unlink(missing_ok=True)
    return out


def test_shared_parser_answers_as_fresh_parsers(tmp_path, monkeypatch,
                                                 capsys):
    # main builds its argument parser once per process; every call must
    # answer exactly as on a parser built for that call alone
    argv_list = _shared_parser_argv(str(data_path("")))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "100")
    shared = _shared_parser_transcript(argv_list * 2, capsys)
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = _shared_parser_transcript(argv_list * 2, capsys)
    assert shared == fresh
    assert sum(r is not None for _, _, _, r in shared) == 4
    assert {code for code, _, _, _ in shared} == {0, 2, 3}


# -- golden bisimilarity reports ------------------------------------------------

GOLDEN = Path(__file__).parent / "golden"


def planted_lts_text(quotient=50, copies=20, seed=11) -> str:
    """An LTS on quotient * copies states: each state copies one state of
    a random quotient LTS, and each quotient edge q -a-> t becomes an edge
    from every copy of q to a random copy of t, so copies of one quotient
    state are bisimilar.  Names are shuffled, so blocks interleave."""
    rng = random.Random(seed)
    edges = [[(rng.choice("abc"), rng.randrange(quotient))
              for _ in range(rng.randrange(4))] for _ in range(quotient)]
    names = [f"s{i:04d}" for i in range(quotient * copies)]
    rng.shuffle(names)
    lines = []
    for q in range(quotient):
        for c in range(copies):
            src = names[q * copies + c]
            lines.append(f"state {src}")
            lines += [f"{src} {a} {names[t * copies + rng.randrange(copies)]}"
                      for a, t in edges[q]]
    return "\n".join(lines) + "\n"


def chain_lts_text(quotient=100, copies=2, seed=12) -> str:
    """A chain-heavy LTS on quotient * copies states: copies of the chain
    q0 -a-> q1 -a-> ... ending in a deadlock, each copy of q stepping to a
    random copy of q+1, so that copies at equal distance from the end are
    bisimilar and refinement takes one round per link.  Names are
    shuffled, so blocks interleave."""
    rng = random.Random(seed)
    names = [f"c{i:04d}" for i in range(quotient * copies)]
    rng.shuffle(names)
    lines = []
    for q in range(quotient):
        for c in range(copies):
            src = names[q * copies + c]
            if q == quotient - 1:
                lines.append(f"state {src}")
            else:
                dst = names[(q + 1) * copies + rng.randrange(copies)]
                lines.append(f"{src} a {dst}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", ["stream", "planted-1000", "chain-200"])
def test_bisim_report_bytes_are_pinned(name, tmp_path, monkeypatch, capsys):
    # the bytes of `coalg bisim FILE --json -` are pinned, so that a
    # faster partition refinement cannot change one
    if name == "stream":
        path = f"{DATA}/stream.coalg"
    else:
        monkeypatch.chdir(tmp_path)
        if name == "planted-1000":
            path, text = "planted.coalg", planted_lts_text()
        else:
            path, text = "chain.coalg", chain_lts_text()
        Path(path).write_text(text, encoding="utf-8")
    assert main(["coalg", "bisim", path, "--json", "-"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (GOLDEN / f"bisim-{name}.out").read_text(
        encoding="utf-8")


def _assert_model_report_pinned(suite, pool, bound, capsys):
    assert main(["model", "verify", suite, "--pool", str(pool),
                 "--bound", str(bound), "--json", "-"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (GOLDEN / f"model-{suite}-{pool}-{bound}.out"
                            ).read_text(encoding="utf-8")


@pytest.mark.parametrize("pool,bound", [(1, 4), (2, 3), (2, 4)])
def test_model_report_bytes_are_pinned(pool, bound, capsys):
    # the bytes of `model verify all --json -` are pinned, so that a
    # change of the presheaf encoding cannot change one
    _assert_model_report_pinned("all", pool, bound, capsys)


@pytest.mark.parametrize("suite,pool,bound", [("force", 2, 6),
                                              ("experiments", 2, 8),
                                              ("force", 3, 2),
                                              ("distribution", 3, 2)])
def test_model_suite_report_bytes_are_pinned(suite, pool, bound, capsys):
    # larger categories than `all` reaches in a test: μ at pool 2 with
    # objects that share stages, the witness sweep, and the largest force
    # and distribution inputs of the benchmark, at pool 3
    _assert_model_report_pinned(suite, pool, bound, capsys)


# -- golden typecheck reports ----------------------------------------------------

def _church(n: int, A: str, s: str, z: str) -> str:
    body = z
    for _ in range(n):
        body = f"{s} ({body})"
    return f"(fun {A} -> fun {s} -> fun {z} -> {body})"


def church_table_text(op: str, top: int, seed: int, wrong: bool = False) -> str:
    """`def` lines stating m op n = value for the Church numerals 1..top,
    with binder names drawn by `seed`; `wrong` appends a false equality."""
    rng = random.Random(seed)
    rows = [(a, b, a + b if op == "add" else a * b)
            for a in range(1, top + 1) for b in range(1, top + 1)]
    if wrong:
        rows.append((top, top, rows[-1][2] + 1))
    lines = []
    for i, (a, b, c) in enumerate(rows):
        A, s, z = (rng.choice(p) for p in (("A", "T", "X"), ("s", "f", "g"),
                                           ("z", "o", "e")))
        m, n = rng.choice((("m", "n"), ("p", "q"), ("u", "v")))
        nat = f"(({A} : U{{}}) -> (El {A} -> El {A}) -> El {A} -> El {A})"
        inner = f"{m} {A} {s} ({n} {A} {s} {z})" if op == "add" \
            else f"{m} {A} ({n} {A} {s})"
        lam = f"fun {m} -> fun {n} -> fun {A} -> fun {s} -> " + (
            f"fun {z} -> {inner}" if op == "add" else inner)
        fn = f"(({lam}) : {nat} -> {nat} -> {nat})"
        lines.append(f"def {op}_{i} : Id {nat} ({fn} {_church(a, A, s, z)} "
                     f"{_church(b, A, s, z)}) {_church(c, A, s, z)} = refl\n")
    return "".join(lines)


def fix_family_text(depth: int) -> str:
    """`fix g` against `depth` of its unfoldings, at the universe level."""
    g = ("((fun d -> csum (In{ => k} A) (clater (a : k) -> d [a])) : "
         "(later (b : k) -> U{k}) -> U{k})")
    rhs = f"fix {g}"
    for _ in range(depth):
        rhs = f"csum (In{{ => k}} A) (clater (a : k) -> {rhs})"
    return (f"def q : (A : U{{}}) -> forall-clk k -> Id U{{k}} (fix {g}) "
            f"({rhs}) = fun A -> clock k -> refl\n")


# small files whose verdicts and messages depend on how binders are opened:
# `_` binders, a taken `_`, an unbound `_1`, shared and differing names
BINDER_CASES = (
    "def f : (A : U{}) -> El A -> El A -> El A = fun _ -> fun x -> fun y -> tt",
    "def g : U{} -> U{} -> El _1 = fun a -> fun b -> tt",
    "def h : (A : U{}) -> (B : El A -> U{}) -> (x : El A) -> El (B x)"
    " = fun A -> fun B -> fun _ -> tt",
    "def i : (A : U{}) -> (x : El A) -> (y : El A) -> Id (El A) x y"
    " = fun A -> fun _ -> fun _ -> refl",
    "def j : unit -> unit -> Id (unit -> unit) (fun _ -> tt) (fun z -> z)"
    " = fun a -> fun b -> refl",
    "def k : (A : U{}) -> El A * El A -> El A = fun A -> fun p -> snd p",
    "def l : unit + unit -> unit = fun s -> case s { inl _ -> tt | inr _ -> s }",
    "def m : unit = ((fun _ -> tt) : unit -> unit) tt",
    "def n : Id ((A : U{}) -> El A -> El A) (fun B -> fun y -> y)"
    " (fun A -> fun x -> x) = refl",
    "def o : Id ((A : U{}) -> El A -> El A) (fun B -> fun y -> y)"
    " (fun A -> fun _ -> fun x -> x) = refl",
    "def p : (A : U{}) -> (El A -> El A) -> El A -> El A"
    " = fun A -> fun x -> fun x -> x",
    "def r : (u : unit) -> (v : unit) -> Id (unit * unit) (u, v) (v, u)"
    " = fun v -> fun u -> refl",
)

EVAL_TERMS = (
    "(fun x -> x) x", "(fun x -> fun y -> x y) y", "(fun _ -> tt) refl",
    "(fun x -> fun x1 -> x) x1", "case inl tt { inl _ -> refl | inr y -> y }",
    "fst ((fun x -> (x, x)) tt)", "snd ((fun x -> fun y -> (y, x)) tt refl)",
    "(fun x -> fun _ -> x) tt refl",
    "(fun a -> fun b -> a) (fst (tt, refl)) (case inr tt { inl x -> refl"
    " | inr y -> y })",
)


def _typecheck_cases(name: str, tmp_path: Path) -> list[list[str]]:
    """The argv lists of one golden group; input files go to tmp_path."""
    def write(fname: str, text: str) -> str:
        (tmp_path / fname).write_text(text, encoding="utf-8")
        return fname
    if name == "corpora":
        return [["check", write(corpus, data_path(corpus).read_text(
            encoding="utf-8"))] for corpus in ("figures.clott", "next.clott")
        ] + [["suite", "figures"]]
    if name == "church":
        return [["check", write(f"church-{op}-{wrong}.clott",
                                church_table_text(op, 4, 13, wrong))]
                for op in ("add", "mul") for wrong in (False, True)]
    if name == "fix":
        return [["check", write(f"fix-{depth}.clott", fix_family_text(depth)),
                 "--fuel", str(fuel)]
                for depth in (1, 2, 3, 4) for fuel in range(6)]
    if name == "binders":
        return [["check", write(f"binders-{i}.clott", text + "\n")]
                for i, text in enumerate(BINDER_CASES)]
    assert name == "eval"
    return [["eval", term] for term in EVAL_TERMS]


def typecheck_transcript(name: str, tmp_path: Path, capsys) -> str:
    """Each command of the group with its exit code and `--json -` stdout;
    run from tmp_path, so that the reports name the inputs relatively."""
    out = []
    for argv in _typecheck_cases(name, tmp_path):
        code = main(argv + ["--json", "-"])
        captured = capsys.readouterr()
        assert captured.err == ""
        out.append(f"$ clott {' '.join(argv)}\nexit {code}\n{captured.out}")
    return "".join(out)


@pytest.mark.parametrize("name", ["corpora", "church", "fix", "binders",
                                  "eval"])
def test_typecheck_report_bytes_are_pinned(name, tmp_path, monkeypatch,
                                           capsys):
    # exit codes and the bytes of `check`/`eval --json -` are pinned, so
    # that a cheaper way of opening binders cannot change a verdict or a
    # message
    monkeypatch.chdir(tmp_path)
    got = typecheck_transcript(name, tmp_path, capsys)
    assert got == (GOLDEN / f"typecheck-{name}.out").read_text(
        encoding="utf-8")


# -- golden parse errors -------------------------------------------------------

# malformed inputs whose exit code, one-line message and position are pinned,
# so that a faster scanner cannot move a line or a column: (command, input)
# where the input is a file's text for `check` and `theory`, and the term for
# `eval`
PARSE_ERROR_CASES = (
    ("check", "def f : unit = tt -- note\n  $\n"),
    ("check", "def f : unit = tt -- bye"),
    ("check", "def f : unit = tt -- bye\n"),
    ("check", "def f : unit = -- bye"),
    ("check", "def f : unit = -- bye\n"),
    ("check", "def f : unit -> unit = fun x -> _\n"),
    ("check", "def f : unit = tt )\n"),
    ("check", "def f : unit = (tt\n"),
    ("check", "def f : unit = -\n"),
    ("check", "def f : unit = 1\n"),
    ("check", "def f\u00e9 : unit = tt\n"),
    ("check", "def f : unit =\u00a0tt\n"),
    ("check", "def f : unit = tt\r\ndef g : unit = tt\r\n"),
    ("check", "def f : unit = tt\r\n\r\ndef g : unit = $\r\n"),
    ("eval", "tt -- bye"),
    ("eval", "tt -- bye\n"),
    ("eval", "fun x -> -- bye"),
    ("eval", "fun x -> _"),
    ("eval", "tt tt )"),
    ("eval", "(tt"),
    ("eval", "tt - tt"),
    ("eval", "42"),
    ("eval", "\u00e9"),
    ("eval", "tt\u00a0"),
    ("eval", "a -- c\n$"),
    ("theory", "op f/2\neq f(x) = x\n"),
    ("theory", "op f/2\n  eq  f(x, y) = f(y, $)\n"),
    ("theory", "op f/2\neq f(x, y) = f(y)\n"),
    ("theory", "op f/2\neq x = f(x, y\n"),
    ("theory", "op f/2\neq x =\u00e9\n"),
    ("theory", "op f/1\r\neq f(x) = f(f(x) -- c\r\n"),
    ("theory", "op f/1\neq f(x) = x\nop f/2\n"),
    ("theory", "op g/2\n  op  g/2 -- again\n"),
    ("theory", "op a--b/1\nop a--b/1\n"),
    ("coalg bisim", "x a y\n  x a\n"),
    ("coalg bisim", "x a y\nx a  y z w -- c\n"),
    ("coalg bisim", "x a y\nx 0--1 y\n"),
    ("coalg bisim", "x a y\r\n\r\n state\r\n"),
)

# the extension and the argv before the file name of each file command
_FILE_COMMANDS = {"check": ("clott", ["check"]),
                  "theory": ("thy", ["theory", "free"]),
                  "coalg bisim": ("coalg", ["coalg", "bisim"])}


def parse_error_transcript(tmp_path: Path, capsys) -> str:
    """Each case with its exit code, stderr and `--json -` stdout; run from
    tmp_path, so that messages name the inputs relatively."""
    out = []
    for i, (cmd, text) in enumerate(PARSE_ERROR_CASES):
        if cmd == "eval":
            argv = ["eval", text]
        else:
            ext, argv = _FILE_COMMANDS[cmd]
            name = f"case-{i}.{ext}"
            (tmp_path / name).write_text(text, encoding="utf-8", newline="")
            argv = [*argv, name]
        code = main(argv + ["--json", "-"])
        captured = capsys.readouterr()
        out.append(f"$ clott {' '.join(argv[:-1])} {text!r}\nexit {code}\n"
                   f"stderr: {captured.err}stdout: {captured.out}\n")
    return "".join(out)


def test_parse_error_bytes_are_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    got = parse_error_transcript(tmp_path, capsys)
    assert got == (GOLDEN / "parse-errors.out").read_text(encoding="utf-8")
