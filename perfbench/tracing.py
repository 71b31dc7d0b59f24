"""Tracing of moldkit from outside: wrappers installed at run time.

Every public function of each layer module is rebound, in every moldkit
namespace that imported it, to a wrapper that records a span (name,
start, end, parent span, op id).  Field and matrix operators and the
census kernel run millions of times, so they are patched on their class
or module with wrappers that only count.  Spans stay in memory until
``summary`` reduces them; a span's self time is its duration minus the
part covered by its child spans.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time
from collections import Counter, defaultdict

LAYERS = ("fields", "mat2", "linalg", "words", "invariants", "mold", "canon", "census", "cli")
FIELD_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
             "__truediv__", "__neg__", "__pow__")

_clock = time.perf_counter


def _cache_state(directory: str | None):
    """{file: (size, mtime)} of the census cache directory."""
    if not directory or not os.path.isdir(directory):
        return {}
    out = {}
    for name in os.listdir(directory):
        st = os.stat(os.path.join(directory, name))
        out[name] = (st.st_size, st.st_mtime_ns)
    return out


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index, op id]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = 0
        self.chart_ops: set[int] = set()
        self._undo: list[tuple] = []

    # --- wrappers -------------------------------------------------------------

    def _spanned(self, name, fn, after=None):
        spans, stack = self.spans, self.stack
        counts = self.counts

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, _clock(), 0.0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = _clock()
            counts[name + "_calls"] += 1
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, modules, original, wrapper):
        """Replace `original` in every namespace that holds it."""
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._set(mod, attr, wrapper)

    # --- installation ---------------------------------------------------------

    def install(self):
        mods = {name: importlib.import_module(f"moldkit.{name}") for name in LAYERS}
        namespaces = [importlib.import_module("moldkit"), *mods.values()]
        hooks = self._hooks()
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__ or inspect.isgeneratorfunction(fn)):
                    continue
                name = f"{layer}.{attr}"
                if name == "census.classify_packed":
                    wrapper = self._counted("census.classify_packed_calls", fn)
                else:
                    wrapper = self._spanned(name, fn, hooks.get(name))
                self._rebind(namespaces, fn, wrapper)

        fe = mods["fields"].FieldElement
        for op in FIELD_OPS:
            self._set(fe, op, self._counted("fields.elem_ops", fe.__dict__[op]))
        self._set(fe, "inv", self._counted("fields.inv_calls", fe.__dict__["inv"]))
        mat = mods["mat2"].Mat2
        self._set(mat, "__mul__", self._counted("mat2.mul_calls", mat.__dict__["__mul__"]))
        self._set(mat, "inverse", self._counted("mat2.inverse_calls", mat.__dict__["inverse"]))
        counts = self.counts
        chart = mods["canon"].ABChart
        for attr in ("a", "b"):
            def chart_eval(ch, w, _fn=chart.__dict__[attr]):
                counts["canon.abchart_eval_calls"] += 1
                self.chart_ops.add(self.op)
                return _fn(ch, w)

            self._set(chart, attr, chart_eval)
        rep = mods["words"].RepTuple
        evaluate = rep.__dict__["evaluate"]

        def counted_evaluate(tup, w):
            counts["words.evaluate_calls"] += 1
            counts["words.letters_evaluated"] += len(w)
            return evaluate(tup, w)

        self._set(rep, "evaluate", counted_evaluate)
        tables = mods["census"].FieldTables
        self._set(tables, "pgl_perms",
                  self._spanned("census.pgl_perms", tables.__dict__["pgl_perms"]))
        self._cli_handlers(mods["cli"], namespaces)
        self._observe_cache(mods["census"], namespaces)

    def _hooks(self):
        counts = self.counts

        def rref_rows(args, kwargs, result):
            counts["linalg.rref_rows_in"] += len(args[0])

        def traces(args, kwargs, result):
            counts["invariants.traces_emitted"] += len(result.traces)

        def intertwiner(args, kwargs, result):
            counts["canon.intertwiner_dim_sum"] += len(result)

        return {"linalg.rref": rref_rows, "invariants.invariant_vector": traces,
                "canon.intertwiner_basis": intertwiner}

    def _cli_handlers(self, cli, namespaces):
        """Time the subcommand handler that build_parser attaches to the parsed
        arguments, through the parser it returns."""
        build = cli.build_parser
        tracer = self

        def build_parser(*args, **kwargs):
            parser = build(*args, **kwargs)
            parse = parser.parse_args

            def parse_args(*a, **k):
                ns = parse(*a, **k)
                if hasattr(ns, "handler"):
                    ns.handler = tracer._spanned("cli.handler", ns.handler)
                return ns

            parser.parse_args = parse_args
            return parser

        self._rebind(namespaces, build, build_parser)

    def _observe_cache(self, census_mod, namespaces):
        """Classify census calls as cache reads, writes and misses from the
        cache directory before and after the call and the kernel calls made."""
        counts = self.counts
        for attr in ("stratum_census", "orbit_census"):
            fn = getattr(census_mod, attr)

            def observed(*args, _fn=fn, **kwargs):
                directory = os.environ.get("MOLDKIT_CACHE")
                before = _cache_state(directory)
                kernel = counts["census.classify_packed_calls"]
                result = _fn(*args, **kwargs)
                if kwargs.get("use_cache", True):
                    if counts["census.classify_packed_calls"] == kernel:
                        counts["census.cache_reads"] += 1
                    else:
                        counts["census.cache_misses"] += 1
                    if _cache_state(directory) != before:
                        counts["census.cache_writes"] += 1
                return result

            self._rebind(namespaces, fn, observed)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # --- reduction ------------------------------------------------------------

    def summary(self) -> dict:
        """Counts, and per span name and per layer: total and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            total[name] += end - start
            self_s[name.split(".")[0]] += end - start - child[i]
        return {"counts": dict(self.counts), "total_s": dict(total), "self_s": dict(self_s),
                "chart_ops": len(self.chart_ops), "spans": len(self.spans)}
