"""One pass over a job list, in a process of its own.

Usage: worker.py ROOT setup
       worker.py ROOT run JOBS.json OUT.json ORDER_SEED [TRACE_DIR]
       worker.py ROOT record JOBS.json OUT.json

The worker imports every `clott` module from ROOT/src and prints READY
with the reference snippet's time around the imports (see `reference_s`)
and the time those snippets took; the parent's set-up time ends when it
reads that line.  It then runs the
jobs one after another (one client, one thread, closed loop), judges each
answer outside the timed region, and releases the job's objects and
collects garbage before the next timer starts.  A run pass takes the jobs
in an order shuffled by ORDER_SEED, so that jobs of one kind do not all
meet the same stretch of machine speed; the rows keep the list's order.
Between jobs the worker times a fixed reference snippet, and each job's
time is also given scaled to the reference speed (see `reference_s`).
With TRACE_DIR the layers are traced and the spans are written there when
the pass ends.
"""
from __future__ import annotations

import contextlib
import gc
import importlib
import io
import json
import pkgutil
import random
import resource
import signal
import sys
import time
from pathlib import Path

DEADLINE_S = 60.0          # per job; a job past it breaks the contract
REFERENCE_S = 0.002        # nominal time of the reference snippet (s)
EXIT_CODES = (0, 1, 2, 3)
DEFINITE = ("pass", "fail", "truncation_artifact")


class DeadlineExceeded(Exception):
    pass


def import_clott(root: Path) -> None:
    """Import every clott module from the checkout's source tree."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import clott
    if Path(clott.__file__).resolve().parent.parent != src:
        raise ImportError(f"clott imported from {clott.__file__}, "
                          f"not from {src}")
    for info in pkgutil.walk_packages(clott.__path__, "clott."):
        importlib.import_module(info.name)


# ---------------------------------------------------------------------------
# Jobs that call the public API directly
# ---------------------------------------------------------------------------

def _type_expr(e):
    from clott.model import MArrow, MFin, MForall, MLater, MProd, MSum
    head = e[0]
    if head == "fin":
        return MFin(e[1])
    args = [_type_expr(x) for x in e[1:]]
    return {"prod": MProd, "sum": MSum, "arrow": MArrow, "later": MLater,
            "forall": MForall}[head](*args)


def fn_typeexpr(pool, bound, expr, slice):
    from clott.model import (Model, check_functoriality, check_invariance,
                             eval_type)
    model = Model(pool=pool, bound=bound)
    psh = eval_type(model, _type_expr(expr), slice_=slice)
    fun = check_functoriality(psh).ok
    inv = check_invariance(model, psh).ok
    return {"verdict": "pass" if fun and inv else "fail",
            "functorial": fun, "invariant": inv}


def fn_mu_stage(functor, pool, bound, functorial):
    from clott.coalgebra import parse_functor
    from clott.model import Model, check_functoriality, mu
    model = Model(pool=pool, bound=bound)
    p = mu(model, parse_functor(functor))
    sizes = {}
    for o in model.slice.objects:
        sizes.setdefault(o.time.theta(o.clock), set()).add(len(p.fib[o]))
    out = {"verdict": "pass",
           "fiber_sizes": [min(sizes[k]) if len(sizes[k]) == 1 else
                           sorted(sizes[k]) for k in sorted(sizes)]}
    if functorial:
        out["functorial"] = check_functoriality(p).ok
        if not out["functorial"]:
            out["verdict"] = "fail"
    return out


def fn_witness(pool, bound):
    from clott.model import Model, const_psh, exists_forall_experiment
    model = Model(pool=pool, bound=bound)
    x = const_psh(model.time, tuple(range(bound)))
    verdicts = exists_forall_experiment(
        model, x, lambda u, e: u.time.theta(u.clock) <= e)
    return {"verdict": "pass",
            "witnesses": sorted({v.witness for v in verdicts.values()}),
            "pointwise": all(v.rhs for v in verdicts.values()),
            "commute": sum(v.lhs == v.rhs for v in verdicts.values()),
            "fibers": len(verdicts)}


def fn_force_scan(pool, bound):
    from clott.coalgebra import parse_functor
    from clott.model import Model, check_force, const_psh, mu
    model = Model(pool=pool, bound=bound)
    const = check_force(model, const_psh(model.slice, (0, 1)))
    delay = check_force(model, mu(model, parse_functor("sum(const{u},id)")))
    ok = const.iso and not delay.iso and delay.truncation_artifact
    return {"verdict": "truncation_artifact" if ok else "fail",
            "constant_iso": const.iso, "delay_iso": delay.iso,
            "artifact": delay.truncation_artifact,
            "first_failure": delay.first_failure}


def fn_terminal(functor, steps, max_elements):
    from clott.coalgebra import Budget, parse_functor, terminal_sequence
    seq = terminal_sequence(parse_functor(functor), steps,
                            Budget(max_elements=max_elements))
    return {"verdict": "pass" if seq.convergence is not None else "unknown",
            "sizes": seq.sizes(), "convergence": seq.convergence,
            "budget_hit": seq.budget_hit}


FNS = {"typeexpr": fn_typeexpr, "mu_stage": fn_mu_stage,
       "witness": fn_witness, "force_scan": fn_force_scan,
       "terminal": fn_terminal}


# ---------------------------------------------------------------------------
# Running and judging one job
# ---------------------------------------------------------------------------

def _plain(v):
    return json.loads(json.dumps(v))


REPORT_START = '{\n  "checks"'


def report_digest(code: int, stdout: str, keys) -> dict:
    if code == 2:
        return {"exit": 2}
    at = stdout.find(REPORT_START)
    if at < 0:
        return {"exit": code, "verdicts": None, "evidence": {}}
    report = json.loads(stdout[at:])
    checks = {c["name"]: c for c in report["checks"]}
    evidence = {}
    for key in keys:
        name, field = key.split(":")
        evidence[key] = checks.get(name, {}).get("evidence", {}).get(field)
    return {"exit": code,
            "verdicts": [[c["name"], c["verdict"]] for c in report["checks"]],
            "evidence": evidence}


def verdict_of(job, digest) -> str:
    if job["kind"] == "fn":
        return digest["verdict"]
    return {0: "pass", 1: "fail", 2: "usage", 3: "unknown"}[digest["exit"]]


def judge(job, digest) -> str | None:
    """None when the answer agrees with the job's expected answer, else a
    description of the difference.  An unknown verdict where a definite
    one is expected is an undecided job, not a wrong answer."""
    expect = job["expect"]
    if expect is None:
        return "no expected answer recorded"
    verdict = verdict_of(job, digest)
    if verdict == "unknown" and verdict_of(job, expect) in DEFINITE:
        return None
    for key, value in job["facts"].items():
        if digest.get(key) != value:
            return f"{key} is {digest.get(key)!r}, expected {value!r}"
    if digest != expect:
        diff = sorted(k for k in set(digest) | set(expect)
                      if digest.get(k) != expect.get(k))
        return (f"digest differs in {diff}: got "
                f"{ {k: digest.get(k) for k in diff} }, expected "
                f"{ {k: expect.get(k) for k in diff} }")
    return None


def _on_alarm(signum, frame):
    raise DeadlineExceeded(f"job exceeded {DEADLINE_S} s")


# ---------------------------------------------------------------------------
# Machine speed
# ---------------------------------------------------------------------------

def _snippet() -> int:
    """Pure-Python work of the kinds clott does (tuples, frozensets, dict
    lookups, sorting, calls); it uses no clott code, so no change to the
    program moves its time."""
    table = {}
    for i in range(1200):
        key = (i % 97, i % 13, i)
        table[key] = frozenset((key[0], key[1], j) for j in range(3))
    keys = sorted(table, key=lambda k: (k[1], k[0], -k[2]))
    return sum(len(table[k] & table[keys[0]]) for k in keys)


def reference_s() -> float:
    """Median time of three runs of the reference snippet, with the
    garbage collector off so that the size of the heap does not enter.

    The speed of this shared machine drifts by a fifth or more over a few
    seconds, and the drift moves every job alike; timing the snippet just
    before and just after a job measures the speed the job ran at.  A
    job's scaled time is its time * REFERENCE_S / (mean snippet time):
    the time it would take at nominal speed."""
    times = []
    gc.disable()
    try:
        for _ in range(3):
            t0 = time.perf_counter()
            _snippet()
            times.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return sorted(times)[1]


def run_job(job, tracer=None, keep_digest=False) -> dict:
    from clott.cli import main
    out, err = io.StringIO(), io.StringIO()
    result = code = None
    error = None
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    span = tracer.open("job") if tracer else None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if job["kind"] == "cli":
                code = main(job["argv"] + ["--json", "-"])
            else:
                result = FNS[job["fn"]](**job["args"])
    except KeyboardInterrupt:
        raise
    except BaseException as exc:      # any escape, SystemExit too, breaks
        # the verdict contract and is recorded as the job's failure
        error = f"{type(exc).__name__}: {str(exc)[:200]}"
    finally:
        elapsed = time.perf_counter() - t0
        if span is not None:
            tracer.close_all()
        signal.setitimer(signal.ITIMER_REAL, 0)
    if error is None and job["kind"] == "cli" and code not in EXIT_CODES:
        error = f"exit code {code!r} outside {EXIT_CODES}"
    if error is None and "Traceback" in err.getvalue():
        error = "traceback printed"
    row = {"id": job["id"], "time_s": elapsed, "failed": error is not None,
           "error": error, "verdict": None, "wrong": None}
    if error is None:
        digest = _plain(report_digest(code, out.getvalue(), job["keys"])
                        if job["kind"] == "cli" else result)
        row["verdict"] = verdict_of(job, digest)
        if keep_digest:
            row["digest"] = digest
        else:
            row["wrong"] = judge(job, digest)
            if row["wrong"]:
                row["digest"] = digest
    return row


def run_pass(jobs, trace_dir: Path | None, keep_digest=False,
             order_seed: int | None = None) -> dict:
    order = list(range(len(jobs)))
    if order_seed is not None:
        random.Random(order_seed).shuffle(order)
    tracer = None
    if trace_dir is not None:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    signal.signal(signal.SIGALRM, _on_alarm)
    rows = [None] * len(jobs)
    if tracer:
        tracer.gc_paused = True
    gc.collect()
    before = reference_s()
    for i in order:
        if tracer:
            tracer.job = i
            tracer.gc_paused = False
        rows[i] = run_job(jobs[i], tracer, keep_digest)
        if tracer:
            tracer.gc_paused = True
        gc.collect()
        after = reference_s()
        ref = (before + after) / 2
        rows[i]["ref_s"] = ref
        rows[i]["scaled_s"] = rows[i]["time_s"] * REFERENCE_S / ref
        before = after
    out = {"jobs": rows,
           "peak_rss_mb": resource.getrusage(
               resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = layer_metrics(tracer, {
            i: row["scaled_s"] / row["time_s"] for i, row in enumerate(rows)
            if row["time_s"] > 0})
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(trace_dir / "spans.tsv")
    return out


def layer_metrics(tracer, scale) -> dict:
    """Per-layer metrics of a traced pass; times are scaled per job to
    the reference speed, like the job times."""
    totals = tracer.layer_totals(scale)
    counts = tracer.counts
    out = {f"{name}.self_s": s for name, s in totals.items()}
    out.update(counts)
    conv = counts.get("kernel.convert.calls", 0)
    out["kernel.convert.unknown_ratio"] = (
        counts.get("kernel.convert.unknown", 0) / conv if conv else 0.0)
    terms = counts.get("theories.enumerate_terms.terms", 0)
    out["theories.free_model.class_ratio"] = (
        counts.get("theories.free_model.custom_elements", 0) / terms
        if terms else 0.0)
    out["runtime.gc_s"] = tracer.gc_s(scale)
    out["runtime.gc_collections"] = tracer.gc_collections
    return out


def main(argv) -> int:
    root = Path(argv[1])
    t0 = time.perf_counter()
    before = reference_s()
    spent = time.perf_counter() - t0
    import_clott(root)
    t0 = time.perf_counter()
    after = reference_s()
    spent += time.perf_counter() - t0
    print(f"READY {(before + after) / 2!r} {spent!r}", flush=True)
    if argv[2] == "setup":
        return 0
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    jobs = json.loads(Path(argv[3]).read_text(encoding="utf-8"))
    if argv[2] == "record":
        result = run_pass(jobs, None, keep_digest=True)
    else:
        trace_dir = Path(argv[6]) if len(argv) > 6 else None
        result = run_pass(jobs, trace_dir, order_seed=int(argv[5]))
    Path(argv[4]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
