"""Tests of the benchmark harness itself.

    python3 -m pytest bench/tests -q
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import jobs as joblists          # noqa: E402
import run                       # noqa: E402
import stats                     # noqa: E402
import tracing                   # noqa: E402
import worker                    # noqa: E402


# -- the generator ------------------------------------------------------------

def _snapshot(workload, seed, tmp: Path):
    jobs = joblists.build(workload, seed, tmp)
    text = json.dumps(jobs).replace(str(tmp), "<dir>")
    files = {p.name: p.read_bytes() for p in sorted(tmp.iterdir())}
    return text, files


@pytest.mark.parametrize("workload", joblists.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    a = _snapshot(workload, 11, tmp_path / "a")
    b = _snapshot(workload, 11, tmp_path / "b")
    assert a == b


@pytest.mark.parametrize("workload", joblists.WORKLOADS)
def test_different_seeds_give_different_inputs(workload, tmp_path):
    a = _snapshot(workload, 11, tmp_path / "a")
    b = _snapshot(workload, 12, tmp_path / "b")
    assert a != b


@pytest.mark.parametrize("workload", joblists.WORKLOADS)
def test_recorded_jobs_do_not_depend_on_the_seed(workload, tmp_path):
    def recorded(seed):
        d = tmp_path / str(seed)
        return {j["id"]: json.dumps([j.get("argv"), j.get("args")])
                .replace(str(d), "<dir>")
                for j in joblists.build(workload, seed, d)
                if j["expect"] is None}
    assert recorded(1) == recorded(2)


@pytest.mark.parametrize("workload", joblists.WORKLOADS)
def test_every_job_has_an_expected_answer(workload, tmp_path):
    jobs = joblists.build(workload, 3, tmp_path)
    assert joblists.attach_expected(jobs) == []
    for j in jobs:
        for key, value in j["facts"].items():
            assert j["expect"][key] == value, j["id"]


@pytest.mark.parametrize("workload", joblists.WORKLOADS)
def test_excluded_jobs_stay_out(workload, tmp_path):
    def norm(argv):
        return [Path(a).name if "/" in a else a for a in argv]
    excluded = [norm(e["argv"]) for e in joblists.EXCLUDED]
    for j in joblists.build(workload, 1, tmp_path):
        if j["kind"] == "cli":
            assert norm(j["argv"]) not in excluded, j["id"]


def test_planted_lts_blocks_are_the_copies(tmp_path):
    import random
    rng = random.Random(5)
    states, edges, blocks = joblists._planted_lts(rng, 120, 30, 0.5)
    assert sorted(states) == sorted(s for b in blocks for s in b)
    assert len(blocks) == 30
    small_states, small_edges = joblists._random_lts(rng, 6)
    # the brute-force oracle agrees with the program's own oracle
    from clott.coalgebra import brute_force_bisimilarity, \
        parse_coalgebra_file
    coalg = parse_coalgebra_file(
        joblists._coalg_text(small_states, small_edges))
    assert joblists._brute_force_blocks(small_states, small_edges) == \
        joblists._canon_blocks(brute_force_bisimilarity(coalg))


# -- self time ----------------------------------------------------------------

def test_self_time_on_nested_spans():
    # root [0,10] has children A [1,4] and B [3,6]; A has child C [2,3]
    names = ["root", "A", "B", "C"]
    starts = [0.0, 1.0, 3.0, 2.0]
    ends = [10.0, 4.0, 6.0, 3.0]
    parents = [-1, 0, 0, 1]
    assert tracing.self_times(names, starts, ends, parents) == \
        [5.0, 2.0, 3.0, 1.0]


def test_self_time_clips_children_to_the_parent():
    assert tracing.self_times(["p", "c"], [0.0, 1.0], [2.0, 5.0],
                              [-1, 0]) == [1.0, 4.0]


def test_tracer_attributes_self_time_per_layer():
    ticks = iter(range(100))
    tr = tracing.Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return 1

    def inner(n):
        return inner(n - 1) if n else wrapped_leaf()

    wrapped_leaf = tr.spanned("leaf", leaf)
    inner_w = tr.spanned("inner", inner)
    inner = inner_w            # recursion goes through the wrapper
    outer = tr.spanned("outer", lambda: inner_w(3))
    outer()
    totals = tr.layer_totals()
    # clock reads: outer opens 0, inner opens 1, leaf 2-3, inner closes 4,
    # outer closes 5; the re-entrant inner calls share one span
    assert totals == {"outer": 2.0, "inner": 2.0, "leaf": 1.0}
    assert tr.counts["inner.calls"] == 4


def test_layer_totals_scale_each_job():
    ticks = iter(range(100))
    tr = tracing.Tracer(clock=lambda: float(next(ticks)))
    f = tr.spanned("f", lambda: None)
    tr.job = 0
    f()
    tr.job = 1
    f()
    assert tr.layer_totals() == {"f": 2.0}
    assert tr.layer_totals({0: 0.5}) == {"f": 1.5}


# -- percentiles --------------------------------------------------------------

def _hd_by_integration(values, p, steps=20000):
    """Harrell-Davis by midpoint integration of the Beta density."""
    import math
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    total = 0.0
    for k in range(steps):
        t = (k + 0.5) / steps
        w = math.exp(log_norm + (a - 1) * math.log(t)
                     + (b - 1) * math.log1p(-t)) / steps
        total += w * xs[min(int(t * n), n - 1)]
    return total


@pytest.mark.parametrize("p", [0.5, 0.9])
def test_harrell_davis_matches_integration(p):
    import random
    rng = random.Random(4)
    values = [rng.lognormvariate(0, 1) for _ in range(130)]
    assert stats.harrell_davis(values, p) == \
        pytest.approx(_hd_by_integration(values, p), rel=1e-4)


def test_harrell_davis_of_symmetric_and_constant_samples():
    assert stats.harrell_davis(list(range(1, 102)), 0.5) == \
        pytest.approx(51.0)
    assert stats.harrell_davis([0.25] * 40, 0.9) == pytest.approx(0.25)


def test_percentile_and_samples_beyond():
    values = [float(v) for v in range(1, 121)]
    p, beyond = stats.percentile(values, 90)
    assert 108 < p < 110
    assert beyond == sum(v > p for v in values) >= 11
    assert stats.tail_ok(values, 90)


def test_too_few_samples_beyond_the_tail():
    values = [float(v) for v in range(1, 61)]
    assert stats.percentile(values, 90)[1] < 10
    assert not stats.tail_ok(values, 90)


def test_end_to_end_refuses_a_thin_tail():
    passes = [{"jobs": [{"scaled_s": 0.1, "failed": False, "verdict": "pass"}
                        for _ in range(50)], "peak_rss_mb": 1.0}]
    with pytest.raises(run.BenchError):
        run.end_to_end(passes, [0.1])


def test_failed_jobs_count_as_missing_the_deadline():
    rows = [{"scaled_s": 0.01, "failed": False, "verdict": "pass"}] * 119 + \
        [{"scaled_s": 0.01, "failed": True, "verdict": None}]
    metrics, counts = run.end_to_end([{"jobs": rows, "peak_rss_mb": 2.0}],
                                     [0.2, 0.4, 0.3], check_tail=False)
    assert metrics["failed_ratio"] == pytest.approx(1 / 120)
    assert metrics["decided_ratio"] == pytest.approx(119 / 120)
    assert metrics["setup_s"] == pytest.approx(0.3)
    assert max(run.verdict_times([{"jobs": rows}])) == worker.DEADLINE_S


# -- patching -----------------------------------------------------------------

def _clott_modules():
    worker.import_clott(ROOT)
    return {n: m for n, m in sys.modules.items()
            if n == "clott" or n.startswith("clott.")}


def test_every_entry_point_is_patched_where_imported():
    mods = _clott_modules()
    originals = {}
    for modname, attr, _ in tracing.SPANNED + tracing.COUNTED:
        originals[(modname, attr)] = tracing._resolve(modname, attr)
    tr = tracing.Tracer()
    tr.install()
    try:
        for (modname, attr), orig in originals.items():
            if "." in attr:
                cls, meth = attr.split(".")
                now = vars(getattr(mods[modname], cls))[meth]
                assert now.__wrapped__ is orig
                continue
            for name, mod in mods.items():
                for key, val in vars(mod).items():
                    assert val is not orig, f"{name}.{key} not patched"
        import clott.cli
        assert clott.cli.bisimilarity.__wrapped__ is \
            originals[("clott.coalgebra", "bisimilarity")]
        assert clott.cli.mu.__wrapped__ is \
            originals[("clott.model.typeexpr", "mu")]
    finally:
        tr.uninstall()
    import clott.cli
    assert clott.cli.mu is originals[("clott.model.typeexpr", "mu")]


def test_traced_job_records_layers_and_keeps_the_answer(tmp_path):
    _clott_modules()
    job = {"id": "t", "kind": "cli", "argv": ["eval", "(fun x -> x) tt"],
           "keys": ["eval:whnf"], "facts": {},
           "expect": joblists.cli_digest(0, [("eval", "pass")],
                                         {"eval:whnf": "tt"})}
    result = worker.run_pass([job], tmp_path)
    row = result["jobs"][0]
    assert row["verdict"] == "pass" and row["wrong"] is None
    layers = result["layers"]
    assert layers["parser.calls"] >= 1
    assert layers["kernel.whnf.calls"] >= 1
    assert layers["cli.self_s"] > 0
    assert (tmp_path / "spans.tsv").is_file()


def test_pass_shuffles_the_run_order_and_keeps_the_row_order(monkeypatch):
    ran = []

    def fake_run_job(job, tracer=None, keep_digest=False):
        ran.append(job["id"])
        return {"id": job["id"], "time_s": 0.5}

    monkeypatch.setattr(worker, "run_job", fake_run_job)
    monkeypatch.setattr(worker, "reference_s", lambda: worker.REFERENCE_S)
    jobs = [{"id": str(i)} for i in range(20)]
    rows = worker.run_pass(jobs, None, order_seed=3)["jobs"]
    assert [r["id"] for r in rows] == [j["id"] for j in jobs]
    assert sorted(ran) == sorted(j["id"] for j in jobs)
    assert ran != [j["id"] for j in jobs]
    assert all(r["scaled_s"] == pytest.approx(0.5) for r in rows)
    first = list(ran)
    ran.clear()
    worker.run_pass(jobs, None, order_seed=3)
    assert ran == first


def test_scaled_time_uses_the_snippet_on_both_sides(monkeypatch):
    refs = iter([1.0, 3.0, 1.0])
    monkeypatch.setattr(worker, "run_job",
                        lambda job, tracer=None, keep_digest=False:
                        {"id": job["id"], "time_s": 4.0})
    monkeypatch.setattr(worker, "reference_s",
                        lambda: next(refs) * worker.REFERENCE_S)
    rows = worker.run_pass([{"id": "a"}, {"id": "b"}], None)["jobs"]
    # each job ran at half the nominal speed: 4 s measured, 2 s scaled
    assert [r["scaled_s"] for r in rows] == [pytest.approx(2.0)] * 2


def test_typical_wall_sums_per_job_medians():
    def p(*times):
        return {"jobs": [{"scaled_s": t} for t in times]}
    passes = [p(1.0, 9.0), p(2.0, 1.0), p(3.0, 2.0)]
    assert run.typical_wall(passes) == pytest.approx(2.0 + 2.0)


def test_setup_time_is_measured_and_scaled():
    proc, setup = run.spawn(["setup"])
    run.finish(proc)
    assert 0 < setup < 60


# -- judging answers ----------------------------------------------------------

def _job(expect, facts=None):
    return {"id": "j", "kind": "cli", "expect": expect, "facts": facts or {}}


def test_unknown_where_a_definite_answer_is_expected_is_undecided():
    expect = joblists.cli_digest(0, [("declarations", "pass")])
    got = joblists.cli_digest(3, [("declarations", "unknown")])
    assert worker.judge(_job(expect), got) is None


def test_a_different_definite_answer_is_wrong():
    expect = joblists.cli_digest(0, [("declarations", "pass")])
    got = joblists.cli_digest(1, [("declarations", "fail")])
    assert "exit" in worker.judge(_job(expect), got)


def test_different_evidence_is_wrong():
    expect = joblists.cli_digest(0, [("b", "pass")], {"b:blocks": [["x"]]})
    got = joblists.cli_digest(0, [("b", "pass")], {"b:blocks": [["y"]]})
    assert worker.judge(_job(expect), got)


# -- the benchmark definition -------------------------------------------------

def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == \
        list(joblists.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
