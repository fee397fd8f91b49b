"""Outside-in tracing of hmpx: wraps public callables, keeps spans in memory.

Each wrapped call records a span (name, start, end, parent, op id).  Jet
arithmetic runs hundreds of thousands of times per pass, so jet calls are
not stored as spans: their count and time are added to the enclosing span
instead.  A jet call made inside another jet call (MultiJet subtraction
adds internally) is part of the outer call and is not counted again.

A span's self time is its duration minus the time its child spans and jet
calls cover.  Calls are strictly nested on one thread, so that coverage is
the sum of the children's durations.

Wrapping replaces every binding of the original function in the hmpx
modules (``from .engine import block_entropy`` makes a second binding in
``hmpx.series``), and the jet methods on their classes; ``uninstall``
puts the originals back.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

# (layer, module, public function names).  The layer prefixes the span name.
FUNCTIONS = (
    ("model", "hmpx.model", (
        "make_model", "model_from_dict", "load_model", "random_model",
        "random_transition", "random_noise", "validate_transition",
        "validate_noise", "emission_at")),
    ("engine", "hmpx.engine", (
        "block_entropy", "conditional_entropy", "multi_site_F",
        "mixed_partial_F", "sequence_probability", "enumerate_sequences")),
    ("series", "hmpx.series", (
        "entropy_rate_series", "settling_table", "evaluate_series",
        "run_lemma_battery", "verify_lemma_blocking",
        "verify_lemma_zero_prepend", "verify_lemma_no_hole")),
    ("estimation", "hmpx.estimation", (
        "conditional_bounds", "mc_entropy_rate", "sample_paths",
        "path_log_likelihood")),
    ("cli", "hmpx.cli", ("main",)),
)

# Jet methods grouped into the operation they perform.
JET_METHODS = {
    "__mul__": "mul", "__rmul__": "mul",
    "__add__": "add", "__radd__": "add", "__sub__": "add", "__rsub__": "add",
    "log": "log",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "child", "jets", "info")

    def __init__(self, name, parent, op):
        self.name = name
        self.parent = parent
        self.op = op
        self.child = 0.0
        self.jets = {}
        self.info = None
        self.start = perf_counter()
        self.end = None

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_time(self):
        return self.duration - self.child

    def to_dict(self, index):
        return {"id": index, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "op": self.op,
                "self_s": self.self_time, "jets": self.jets, "info": self.info}


class Tracer:
    """In-memory span recorder; ``op`` is set by the caller before each op."""

    def __init__(self, annotate=None):
        # annotate: {span name: f(args, kwargs, result) -> dict}, stored as span.info
        self.annotate = annotate or {}
        self.spans = []
        self.stack = []
        self.op = None
        self._in_jet = False
        self._root = Span("root", None, None)
        self._saved = []

    # -- recording ---------------------------------------------------------

    def _wrap_function(self, name, fn):
        annotate = self.annotate.get(name)

        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            span = Span(name, parent, self.op)
            index = len(self.spans)
            self.spans.append(span)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self.stack.pop()
                self._enclosing().child += span.duration
            if annotate is not None:
                span.info = annotate(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _enclosing(self):
        return self.spans[self.stack[-1]] if self.stack else self._root

    def _wrap_jet(self, key, fn, cls=None):
        # cls set for multiplication: jet x scalar is counted under
        # key + ".scalar" because it costs K+1 products, not (K+1)(K+2)/2.
        scalar_key = key + ".scalar"

        def traced(*args):
            if self._in_jet:
                return fn(*args)
            name = key if cls is None or isinstance(args[1], cls) else scalar_key
            self._in_jet = True
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                took = perf_counter() - start
                self._in_jet = False
                span = self._enclosing()
                span.child += took
                slot = span.jets.get(name)
                if slot is None:
                    span.jets[name] = [1, took]
                else:
                    slot[0] += 1
                    slot[1] += took

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def install(self):
        from hmpx.jets import MultiJet, UniJet

        wrappers = {}
        for layer, module_name, names in FUNCTIONS:
            module = importlib.import_module(module_name)
            for name in names:
                fn = getattr(module, name)
                wrappers[id(fn)] = (fn, self._wrap_function(f"{layer}.{name}", fn))
        for module_name, module in list(sys.modules.items()):
            if module_name != "hmpx" and not module_name.startswith("hmpx."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])
        for cls, kind in ((UniJet, "uni"), (MultiJet, "multi")):
            for attr, op in JET_METHODS.items():
                fn = cls.__dict__.get(attr)
                if fn is None:
                    continue
                self._saved.append((cls, attr, fn))
                setattr(cls, attr, self._wrap_jet(f"jets.{kind}.{op}", fn,
                                                  cls if op == "mul" else None))
        return self

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- summaries ---------------------------------------------------------

    def totals(self):
        """{span or jet name: [calls, self seconds]} over everything recorded."""
        out = {}
        for span in [self._root] + self.spans:
            if span is not self._root:
                slot = out.setdefault(span.name, [0, 0.0])
                slot[0] += 1
                slot[1] += span.self_time
            for key, (count, took) in span.jets.items():
                slot = out.setdefault(key, [0, 0.0])
                slot[0] += count
                slot[1] += took
        return out

    def outermost(self, prefix):
        """Spans whose name starts with prefix and that have no such ancestor."""
        found = []
        for span in self.spans:
            parent = span.parent
            while parent is not None and not self.spans[parent].name.startswith(prefix):
                parent = self.spans[parent].parent
            if span.name.startswith(prefix) and parent is None:
                found.append(span)
        return found

    def dump(self, path):
        doc = {"root_jets": self._root.jets,
               "spans": [s.to_dict(i) for i, s in enumerate(self.spans)]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
