#!/usr/bin/env python3
"""The clott benchmark: seeded job mixes, checked answers, end-to-end and
per-layer metrics.

    python3 bench/run.py --workload typecheck|model|carriers --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout; it imports `clott` from `src/`.  Each
pass over the workload's job list runs in a fresh worker process with one
closed-loop client (a job starts when the previous one has returned).
Job times enter the metrics scaled to a nominal machine speed, measured
next to each job with a fixed snippet (worker.reference_s).
Passes repeat until the next one would end after S seconds.  With
--trace 1 every untraced pass is followed by a traced one; the traced
passes give the per-layer metrics, and the spans and one scaling row per
job go to .bench_work/trace/<workload>-seed<N>/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A job whose definite verdict or
evidence differs from its expected answer stops the run with exit code 1,
naming the job, and no result is printed.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import jobs as joblists          # noqa: E402
import stats                     # noqa: E402
import tracing                   # noqa: E402
from worker import DEADLINE_S, DEFINITE, REFERENCE_S    # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORK = ROOT / ".bench_work"
SETUP_SPAWNS = 8            # extra set-up-only workers per run
PASS_TIMEOUT_S = 170.0
TAIL = 90

END_TO_END = (("wall_s", "s"), ("verdict_p50_s", "s"),
              ("verdict_p90_s", "s"), ("decided_ratio", "1"),
              ("failed_ratio", "1"), ("peak_rss_mb", "MiB"),
              ("setup_s", "s"))

_SPAN_LAYERS = tuple(dict.fromkeys(layer
                                   for _, _, layer in tracing.SPANNED))
PER_LAYER = tuple((f"{layer}.self_s", "s") for layer in _SPAN_LAYERS) + (
    ("parser.nodes", "count"),
    ("terms.free_names.calls", "count"),
    ("kernel.whnf.calls", "count"),
    ("kernel.convert.calls", "count"),
    ("kernel.convert.unknown_ratio", "1"),
    ("kernel.fuel_spent", "count"),
    ("model.timecat.objects", "count"),
    ("model.timecat.morphisms", "count"),
    ("model.timecat.composable_pairs", "count"),
    ("model.timecat.compose.calls", "count"),
    ("model.presheaf.fiber_elements", "count"),
    ("model.typeexpr.mu.fiber_elements", "count"),
    ("coalgebra.functor_eval.elements", "count"),
    ("coalgebra.functor_map.calls", "count"),
    ("coalgebra.bisimilarity.states", "count"),
    ("coalgebra.bisimilarity.blocks", "count"),
    ("theories.free_model.elements", "count"),
    ("theories.enumerate_terms.terms", "count"),
    ("theories.free_model.class_ratio", "1"),
    ("theories.canon_key.calls", "count"),
    ("theories.fmap.calls", "count"),
    ("report.bytes", "count"),
    ("runtime.gc_s", "s"),
    ("runtime.gc_collections", "count"),
    ("trace.overhead_s", "s"),
)


class BenchError(Exception):
    """The run cannot produce a result; the message says why."""


# ---------------------------------------------------------------------------
# Workers
# ---------------------------------------------------------------------------

def spawn(args, hash_seed=0) -> tuple[subprocess.Popen, float]:
    """Start a worker; return it with its set-up time (spawn to READY,
    less the worker's reference snippets), scaled like the job times by
    the snippet's time in the worker around its imports.  The two cores
    of a small VM can run at different speeds, so the speed is measured
    in the worker, not here.

    The hash seed moves some jobs' times by up to a third, so worker i of
    a run always gets hash seed i: runs of two commits then see the same
    hash layouts."""
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), str(ROOT), *args],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            env=env)
    line = proc.stdout.readline().split()
    setup = time.perf_counter() - t0
    if len(line) != 3 or line[0] != "READY":
        proc.wait(timeout=PASS_TIMEOUT_S)
        raise BenchError(f"worker did not start (exit {proc.returncode}); "
                         "is this the root of a clott checkout?")
    ref, spent = float(line[1]), float(line[2])
    return proc, (setup - spent) * REFERENCE_S / ref


def finish(proc: subprocess.Popen) -> None:
    try:
        rest = proc.communicate(timeout=PASS_TIMEOUT_S)[0]
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker ran past {PASS_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {rest}")


def run_pass(jobs_file: Path, out_file: Path, index: int, trace_dir=None):
    """Pass number index: its worker's hash seed and job order seed."""
    args = ["run", str(jobs_file), str(out_file), str(index)]
    if trace_dir is not None:
        args.append(str(trace_dir))
    proc, setup = spawn(args, index)
    finish(proc)
    result = json.loads(out_file.read_text(encoding="utf-8"))
    result["setup_s"] = setup
    for row in result["jobs"]:
        if row["wrong"]:
            raise BenchError(f"wrong answer from job {row['id']}: "
                             f"{row['wrong']}")
    return result


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def pass_wall(result) -> float:
    """The measured time of one pass, unscaled (printed, not reported)."""
    return sum(row["time_s"] for row in result["jobs"])


def typical_wall(passes) -> float:
    """Time for one pass, summed over jobs from each job's median scaled
    time across the passes."""
    return sum(stats.median([p["jobs"][i]["scaled_s"] for p in passes])
               for i in range(len(passes[0]["jobs"])))


def verdict_times(passes) -> list[float]:
    """Scaled time to verdict of every job; a job that broke the contract
    counts as missing the deadline."""
    return [DEADLINE_S if row["failed"] else row["scaled_s"]
            for p in passes for row in p["jobs"]]


def end_to_end(passes, setups, check_tail=True) -> dict:
    rows = [row for p in passes for row in p["jobs"]]
    times = verdict_times(passes)
    p90, beyond = stats.percentile(times, TAIL)
    if check_tail and beyond < stats.MIN_BEYOND:
        raise BenchError(f"only {beyond} samples beyond p{TAIL}")
    return {
        "wall_s": typical_wall(passes),
        "verdict_p50_s": stats.percentile(times, 50)[0],
        "verdict_p90_s": p90,
        "decided_ratio": sum(r["verdict"] in DEFINITE for r in rows)
        / len(rows),
        "failed_ratio": sum(r["failed"] for r in rows) / len(rows),
        "peak_rss_mb": stats.median([p["peak_rss_mb"] for p in passes]),
        "setup_s": stats.median(setups),
    }, {"samples": len(times), "beyond_p90": beyond,
        "passes": len(passes), "setups": len(setups)}


def per_layer(untraced, traced) -> dict:
    out = {}
    for name, _ in PER_LAYER:
        if name == "trace.overhead_s":
            out[name] = typical_wall(traced) - typical_wall(untraced)
        else:
            out[name] = stats.median([p["layers"].get(name, 0)
                                      for p in traced])
    return out


def write_trace_outputs(trace_root: Path, jobs, untraced, traced) -> None:
    with open(trace_root / "scaling.jsonl", "w", encoding="utf-8") as fh:
        for i, job in enumerate(jobs):
            rows = [p["jobs"][i] for p in untraced]
            trows = [p["jobs"][i] for p in traced]
            fh.write(json.dumps({
                "job": job["id"], "size": job["size"],
                "time_s": stats.median([r["time_s"] for r in rows]),
                "scaled_s": stats.median([r["scaled_s"] for r in rows]),
                "traced_time_s": stats.median([r["time_s"] for r in trows]),
                "verdict": rows[0]["verdict"], "failed": rows[0]["failed"],
            }) + "\n")
    (trace_root / "layers.json").write_text(
        json.dumps([p["layers"] for p in traced], indent=1, sort_keys=True),
        encoding="utf-8")


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: int, trace: bool):
    if not (ROOT / "src" / "clott" / "__init__.py").is_file():
        raise BenchError(f"no clott sources under {ROOT / 'src'}")
    run_dir = WORK / f"run-{workload}-{seed}-{time.time_ns()}"
    try:
        jobs = joblists.build(workload, seed, run_dir / "inputs")
        missing = joblists.attach_expected(jobs)
        if missing:
            raise BenchError(f"no expected answer recorded for {missing}")
        jobs_file = run_dir / "jobs.json"
        jobs_file.write_text(json.dumps(jobs), encoding="utf-8")
        trace_root = WORK / "trace" / f"{workload}-seed{seed}"
        if trace:
            shutil.rmtree(trace_root, ignore_errors=True)
            trace_root.mkdir(parents=True)

        setups = []
        for i in range(SETUP_SPAWNS):
            proc, setup = spawn(["setup"], i)
            finish(proc)
            setups.append(setup)

        untraced, traced = [], []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            p = run_pass(jobs_file, run_dir / f"pass{len(untraced)}.json",
                         len(untraced))
            untraced.append(p)
            setups.append(p["setup_s"])
            if trace:
                t = run_pass(jobs_file, run_dir / f"traced{len(traced)}.json",
                             len(traced), trace_root / f"pass{len(traced)}")
                traced.append(t)
                setups.append(t["setup_s"])
            now = time.perf_counter()
            # traced runs report no percentiles, so they need no tail
            enough = trace or stats.tail_ok(verdict_times(untraced), TAIL)
            if enough and now - start + (now - t0) > seconds:
                break
            if now - start + (now - t0) > 150:
                raise BenchError("too few samples beyond the tail "
                                 "percentile within the time limit")
        metrics, counts = end_to_end(untraced, setups, not trace)
        if trace:
            write_trace_outputs(trace_root, jobs, untraced, traced)
            return per_layer(untraced, traced), PER_LAYER, counts, \
                untraced, traced
        return metrics, END_TO_END, counts, untraced, traced
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=joblists.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        metrics, spec, counts, passes, traced = measure(
            args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    rows = [row for p in passes for row in p["jobs"]]
    print(f"{args.workload} seed {args.seed}: {counts['passes']} passes, "
          f"{len(rows)} jobs, {counts['samples']} verdict samples "
          f"({counts['beyond_p90']} beyond p90), "
          f"{counts['setups']} set-up samples")
    print("  measured (unscaled) pass times, s: "
          + " ".join(f"{pass_wall(p):.3f}" for p in passes))
    for label, group in (("failed", passes), ("failed when traced", traced)):
        for jid, err in sorted({(r["id"], r["error"]) for p in group
                                for r in p["jobs"] if r["failed"]}):
            print(f"  {label}: {jid}: {err}")
    for name, unit in spec:
        print(f"  {name:<44} {metrics[name]:>14.6g} {unit}")
    print(json.dumps({
        "correct": True, "attempted": len(rows),
        "failed": sum(r["failed"] for r in rows),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in spec}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
