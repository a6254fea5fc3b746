"""Span tracing around the public functions of each `jonq` layer.

The wrappers live here, in the benchmark, not in the library.  A wrapper is
installed on every module namespace that binds the function, so calls made
through a name imported elsewhere (`rees.inverse`, `groebner.syzygies`) are
seen too.  Spans stay in memory as [name, start, end, parent, case, error]
and are written out as JSONL at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from time import perf_counter

# layer -> public functions whose spans the benchmark records
LAYERS = {
    "polycore": ("Polynomial.mul", "substitute", "exact_div", "gcd", "transport"),
    "groebner": ("buchberger", "eliminate", "colon", "saturate", "intersect",
                 "ideal_equal", "normal_form", "hilbert_series_numerator"),
    "resolutions": ("syzygies", "minimal_generators", "minimal_free_resolution"),
    "cremona": ("compose", "inversion_certificate"),
    "dejonq": ("construct", "downgraded_sequence", "inverse", "resolution",
               "structural_checks"),
    "rees": ("rees_ideal", "verify_main_theorem", "colon_lemma_checks", "cone_betti",
             "projdim_probe", "specialization_check"),
}
SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)
CASE_SPAN = "bench.case"


def _observe_buchberger(counters, args, result):
    counters["groebner.buchberger.basis_len_max"] = max(
        counters.get("groebner.buchberger.basis_len_max", 0), len(result.basis))


def _observe_syzygies(counters, args, result):
    counters["resolutions.syzygies.columns_out"] = (
        counters.get("resolutions.syzygies.columns_out", 0) + len(result))


def _observe_minimal_generators(counters, args, result):
    for key, value in (("offered", len(args[0])), ("kept", len(result))):
        key = f"resolutions.minimal_generators.{key}"
        counters[key] = counters.get(key, 0) + value


OBSERVERS = {
    "groebner.buchberger": _observe_buchberger,
    "resolutions.syzygies": _observe_syzygies,
    "resolutions.minimal_generators": _observe_minimal_generators,
}


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self.case = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), None, stack[-1] if stack else None,
                    self.case, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(counters, args, result)
            return result

        return traced

    def install(self):
        """Wrap every binding of every traced function in the loaded jonq modules."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "jonq" or name.startswith("jonq.")}
        wrappers = {}
        for layer, fns in LAYERS.items():
            home = modules[f"jonq.{layer}"]
            for fn in fns:
                if fn == "Polynomial.mul":
                    cls = home.Polynomial
                    wrapper = self._wrap(f"{layer}.{fn}", cls.__mul__)
                    for attr in ("__mul__", "__rmul__"):
                        self._undo.append((cls, attr, cls.__dict__[attr]))
                        setattr(cls, attr, wrapper)
                    continue
                original = getattr(home, fn)
                wrappers[id(original)] = (original, self._wrap(f"{layer}.{fn}", original))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    @contextlib.contextmanager
    def case_span(self, case_id):
        """A root span for one case; the spans opened inside it carry its id."""
        span = [CASE_SPAN, perf_counter(), None, None, case_id, None]
        depth = len(self._stack)
        self.case = case_id
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        except BaseException as exc:
            span[5] = type(exc).__name__
            raise
        finally:
            now = perf_counter()
            # a timeout signal can land between a wrapper's push and its try
            for idx in self._stack[depth:]:
                if self.spans[idx][2] is None:
                    self.spans[idx][2] = now
            del self._stack[depth:]
            self.case = None

    def write_jsonl(self, path):
        keys = ("name", "start", "end", "parent", "case", "error")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def layer_metrics(tracer: Tracer, ncases: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from a finished trace: name -> (value, unit)."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child[parent] += end - start
    calls = dict.fromkeys(SPAN_NAMES, 0)
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    incl_s = dict.fromkeys(SPAN_NAMES, 0.0)
    uncovered = 0.0
    bound_errors = 0
    for k, (name, start, end, parent, _, error) in enumerate(spans):
        if name == CASE_SPAN:
            uncovered += end - start - child[k]
            continue
        calls[name] += 1
        self_s[name] += end - start - child[k]
        incl_s[name] += end - start
        if name == "rees.projdim_probe" and error == "ResolutionBoundError":
            bound_errors += 1
    out: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_s[name], "s")
        if name.startswith("rees."):
            out[f"{name}.incl_s"] = (incl_s[name], "s")
    for name in ("rees.rees_ideal", "dejonq.downgraded_sequence", "groebner.buchberger"):
        out[f"{name}.calls_per_case"] = (calls[name] / ncases, "calls/case")
    c = tracer.counters
    out["groebner.buchberger.basis_len_max"] = (
        c.get("groebner.buchberger.basis_len_max", 0), "count")
    out["resolutions.syzygies.columns_out"] = (
        c.get("resolutions.syzygies.columns_out", 0), "count")
    offered = c.get("resolutions.minimal_generators.offered", 0)
    out["resolutions.minimal_generators.kept_ratio"] = (
        c.get("resolutions.minimal_generators.kept", 0) / offered if offered else 0.0,
        "ratio")
    out["rees.projdim_probe.bound_errors"] = (bound_errors, "count")
    out["trace.uncovered_s"] = (uncovered, "s")
    return out
