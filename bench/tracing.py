"""Layer tracing from outside the program.

The tracer wraps public functions of `clott` and rebinds every name that
refers to them, in the defining module and in each `clott` module that
imported the name, so calls between modules go through the wrapper.  A
wrapped call records a span (layer name, start, end, parent span, job);
a re-entrant call of the layer that is already innermost is folded into
that span, so recursion costs no extra spans.  Hot leaf functions get a
call count and no span.  Spans stay in memory until the pass ends.
"""
from __future__ import annotations

import dataclasses
import gc
import sys
import time
from array import array

# Layers timed by span: (module, attribute, layer name).  Attributes with a
# dot are methods, patched on their class.
SPANNED = (
    ("clott.cli", "main", "cli"),
    ("clott.parser", "parse_term", "parser"),
    ("clott.parser", "parse_declarations", "parser"),
    ("clott.parser", "parse_theory_file", "parser"),
    ("clott.terms", "subst", "terms.subst"),
    ("clott.terms", "rename", "terms.rename"),
    ("clott.terms", "alpha_eq", "terms.alpha_eq"),
    ("clott.kernel", "infer", "kernel.infer"),
    ("clott.kernel", "check", "kernel.check"),
    ("clott.kernel", "whnf", "kernel.whnf"),
    ("clott.kernel", "convert", "kernel.convert"),
    ("clott.model.timecat", "enumerate_category",
     "model.timecat.enumerate_category"),
    ("clott.model.timecat", "slice_category", "model.timecat.slice_category"),
    ("clott.model.presheaf", "product", "model.presheaf.product"),
    ("clott.model.presheaf", "arrow", "model.presheaf.arrow"),
    ("clott.model.presheaf", "later", "model.presheaf.later"),
    ("clott.model.presheaf", "forall_clk", "model.presheaf.forall_clk"),
    ("clott.model.presheaf", "check_functoriality",
     "model.presheaf.check_functoriality"),
    ("clott.model.presheaf", "check_invariance",
     "model.presheaf.check_invariance"),
    ("clott.model.typeexpr", "eval_type", "model.typeexpr.eval_type"),
    ("clott.model.typeexpr", "check_force", "model.typeexpr.check_force"),
    ("clott.model.typeexpr", "mu", "model.typeexpr.mu"),
    ("clott.model.experiments", "exists_forall_experiment",
     "model.experiments"),
    ("clott.model.experiments", "unique_exists_check", "model.experiments"),
    ("clott.model.experiments", "check_forall_sum_dist", "model.experiments"),
    ("clott.model.experiments", "check_forall_prod_dist",
     "model.experiments"),
    ("clott.coalgebra", "functor_eval", "coalgebra.functor_eval"),
    ("clott.coalgebra", "functor_map_all", "coalgebra.functor_map_all"),
    ("clott.coalgebra", "terminal_sequence", "coalgebra.terminal_sequence"),
    ("clott.coalgebra", "final_coalgebra", "coalgebra.final_coalgebra"),
    ("clott.coalgebra", "weak_bisim_delay", "coalgebra.weak_bisim_delay"),
    ("clott.coalgebra", "parse_coalgebra_file",
     "coalgebra.parse_coalgebra_file"),
    ("clott.coalgebra", "bisimilarity", "coalgebra.bisimilarity"),
    ("clott.theories", "free_model", "theories.free_model"),
    ("clott.theories", "enumerate_terms", "theories.enumerate_terms"),
    ("clott.theories", "check_preserves_monos",
     "theories.check_preserves_monos"),
    ("clott.theories", "check_preserves_pullbacks_of_monos",
     "theories.check_preserves_pullbacks_of_monos"),
    ("clott.theories", "csorted", "theories.csorted"),
    ("clott.report", "Report.dumps", "report.dumps"),
)

# Hot leaf functions: call counts only.
COUNTED = (
    ("clott.theories", "canon_key", "theories.canon_key.calls"),
    ("clott.model.timecat", "FinCategory.compose",
     "model.timecat.compose.calls"),
    ("clott.kernel", "Fuel.spend", "kernel.fuel.calls"),
    ("clott.coalgebra", "functor_map", "coalgebra.functor_map.calls"),
    ("clott.theories", "fmap", "theories.fmap.calls"),
    ("clott.terms", "free_names", "terms.free_names.calls"),
)

# Span name for the harness's own work inside a traced call.
OVERHEAD = "trace"


def self_times(names, starts, ends, parents):
    """Self time of each span: its duration minus the part of it that its
    child spans cover (children are clipped to the parent's interval and
    overlapping children are counted once)."""
    n = len(names)
    children: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        p = parents[i]
        if p >= 0:
            children[p].append(i)
    out = [0.0] * n
    for i in range(n):
        lo, hi = starts[i], ends[i]
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children[i], key=lambda c: starts[c]):
            a, b = max(starts[c], lo), min(ends[c], hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[i] = (hi - lo) - covered
    return out


class Tracer:
    """Span and counter sink for one traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.stack: list[int] = []      # open span indices
        self.stack_names: list[int] = []
        self.job = -1
        self.counts: dict[str, float] = {}
        self.gc_s_by_job: dict[int, float] = {}
        self.gc_collections = 0
        self._gc_t0 = None
        self.gc_paused = False      # set while the harness collects
        self._patched: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def _nid(self, name: str) -> int:
        i = self.name_id.get(name)
        if i is None:
            i = self.name_id[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name: str) -> int:
        i = len(self.span_name)
        nid = self._nid(name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_job.append(self.job)
        self.span_end.append(0.0)
        self.stack.append(i)
        self.stack_names.append(nid)
        self.span_start.append(self.clock())
        return i

    def close(self, i: int) -> None:
        self.span_end[i] = self.clock()
        self.stack.pop()
        self.stack_names.pop()

    def close_all(self) -> None:
        """Close every open span, including any left open by an exception
        raised inside a wrapper itself (a RecursionError can be)."""
        now = self.clock()
        for i in self.stack:
            self.span_end[i] = now
        self.stack.clear()
        self.stack_names.clear()

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def spanned(self, name: str, fn, on_result=None):
        """Wrap fn in a span named `name`; on_result(args, result) runs after
        the span closes, inside a span of the harness's own."""
        nid = self._nid(name)
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            self.counts[calls] = self.counts.get(calls, 0) + 1
            if self.stack_names and self.stack_names[-1] == nid:
                return fn(*args, **kwargs)
            i = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if on_result is not None:
                j = self.open(OVERHEAD)
                try:
                    on_result(args, result)
                finally:
                    self.close(j)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def counted(self, key: str, fn, on_result=None):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        return wrapper

    # -- garbage collector ----------------------------------------------------

    def gc_callback(self, phase, info):
        if self.gc_paused:
            self._gc_t0 = None
        elif phase == "start":
            self._gc_t0 = time.perf_counter()
        elif self._gc_t0 is not None:
            self.gc_s_by_job[self.job] = (self.gc_s_by_job.get(self.job, 0.0)
                                          + time.perf_counter() - self._gc_t0)
            self.gc_collections += 1
            self._gc_t0 = None

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced entry point and rebind all references to it."""
        hooks = _result_hooks(self)
        for modname, attr, layer in SPANNED:
            orig = _resolve(modname, attr)
            self._replace(modname, attr, orig,
                          self.spanned(layer, orig, hooks.get(layer)))
        for modname, attr, key in COUNTED:
            orig = _resolve(modname, attr)
            self._replace(modname, attr, orig,
                          self.counted(key, orig, hooks.get(key)))
        gc.callbacks.append(self.gc_callback)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()
        if self.gc_callback in gc.callbacks:
            gc.callbacks.remove(self.gc_callback)

    def _replace(self, modname: str, attr: str, orig, wrapper) -> None:
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(sys.modules[modname], cls_name)
            self._patched.append((cls, meth, orig))
            setattr(cls, meth, wrapper)
            return
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "clott" or
                                   name.startswith("clott.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._patched.append((mod, key, orig))
                    setattr(mod, key, wrapper)

    # -- results --------------------------------------------------------------

    def layer_totals(self, scale=None) -> dict[str, float]:
        """Self seconds per span name, summed over the pass; a span of job
        j counts scale[j] times its duration (1 without a scale)."""
        st = self_times(self.span_name, self.span_start, self.span_end,
                        self.span_parent)
        scale = scale or {}
        out: dict[str, float] = {}
        for i, s in enumerate(st):
            name = self.names[self.span_name[i]]
            out[name] = (out.get(name, 0.0)
                         + s * scale.get(self.span_job[i], 1.0))
        return out

    def gc_s(self, scale=None) -> float:
        """Seconds in the garbage collector during jobs, scaled per job
        like layer_totals."""
        scale = scale or {}
        return sum(s * scale.get(j, 1.0) for j, s in self.gc_s_by_job.items())

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\tjob\n")
            for i in range(len(self.span_name)):
                fh.write(f"{self.names[self.span_name[i]]}\t"
                         f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\t"
                         f"{self.span_parent[i]}\t{self.span_job[i]}\n")


def _resolve(modname: str, attr: str):
    mod = sys.modules[modname]
    if "." in attr:
        cls_name, meth = attr.split(".")
        return vars(getattr(mod, cls_name))[meth]
    return getattr(mod, attr)


def _fiber_elements(psh) -> int:
    return sum(len(v) for v in psh.fib.values())


def count_terms(obj) -> int:
    """Number of term nodes reachable from a parse result."""
    from clott.terms import Term
    n = 0
    todo = [obj]
    while todo:
        x = todo.pop()
        if isinstance(x, (list, tuple)):
            todo.extend(x)
        elif dataclasses.is_dataclass(x) and not isinstance(x, type):
            if isinstance(x, Term):
                n += 1
            todo.extend(getattr(x, f.name) for f in dataclasses.fields(x))
    return n


def _result_hooks(tr: Tracer) -> dict:
    """Per-layer work counts read from arguments and results."""
    from clott.kernel import Verdict

    def parser(args, result):
        tr.count("parser.nodes", count_terms(result))

    def convert(args, result):
        if result is Verdict.UNKNOWN:
            tr.count("kernel.convert.unknown")

    def fuel(args, result):
        if result:
            tr.count("kernel.fuel_spent")

    def category(args, cat):
        tr.count("model.timecat.objects", len(cat.objects))
        tr.count("model.timecat.morphisms", len(cat.morphisms))
        out_deg: dict = {}
        for m in cat.morphisms:
            out_deg[m.src] = out_deg.get(m.src, 0) + 1
        tr.count("model.timecat.composable_pairs",
                 sum(out_deg.get(m.dst, 0) for m in cat.morphisms))

    def presheaf(args, result):
        tr.count("model.presheaf.fiber_elements", _fiber_elements(result))

    def mu(args, result):
        tr.count("model.typeexpr.mu.fiber_elements", _fiber_elements(result))

    def functor_eval(args, result):
        tr.count("coalgebra.functor_eval.elements", len(result))

    def bisim(args, result):
        tr.count("coalgebra.bisimilarity.states", len(args[0].states))
        tr.count("coalgebra.bisimilarity.blocks", len(result))

    def free_model(args, result):
        tr.count("theories.free_model.elements", len(result.elements))
        if result.theory.builtin is None:
            tr.count("theories.free_model.custom_elements",
                     len(result.elements))

    def enumerate_terms(args, result):
        tr.count("theories.enumerate_terms.terms", len(result))

    def dumps(args, result):
        tr.count("report.bytes", len(result.encode("utf-8")))

    hooks = {"parser": parser, "kernel.convert": convert,
             "kernel.fuel.calls": fuel,
             "model.timecat.enumerate_category": category,
             "model.timecat.slice_category": category,
             "model.typeexpr.mu": mu,
             "coalgebra.functor_eval": functor_eval,
             "coalgebra.bisimilarity": bisim,
             "theories.free_model": free_model,
             "theories.enumerate_terms": enumerate_terms,
             "report.dumps": dumps}
    for layer in ("product", "arrow", "later", "forall_clk"):
        hooks["model.presheaf." + layer] = presheaf
    return hooks
