"""Span tracing of qcomb's public functions, installed from outside the package.

`Tracer.install()` replaces each traced function with a timing wrapper in
every ``qcomb`` module that binds it, because several modules import
functions by name (``categories`` and ``linreal`` bind
``enumerate_partitions``, ``projmod`` binds ``all_members``).  Methods and
cached properties are wrapped on their class.  Nothing under ``src/`` is
edited.

Spans are aggregated in memory as they close (calls, busy seconds and self
seconds per span name, plus busy and self seconds per layer), because the
hot spans such as ``Partition.compose`` close millions of times.  Busy time
counts a span only when no span of the same name (or, for a layer, of the
same layer) is open around it, so nested calls are not counted twice.
Self time is a span's duration minus the time its child spans cover.

Known blind spots: a function bound as a default argument at definition
time (``fusion.wreath_product(base=product_u)``) keeps calling the
original, and private helpers are not traced; their time is self time of
the public span that calls them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

from metrics import LAYERS

# The traced public functions of each module.  A dotted path names a
# method or cached property on a class.
TRACED = {
    "partitions": ["enumerate_partitions", "Partition.compose", "Partition.tensor"],
    "categories": ["enumerate_members", "all_members"],
    "projmod": [
        "PartitionUniverse.__init__",
        "PartitionUniverse.equivalence_classes",
        "PartitionUniverse.dominated_by",
        "closure",
        "catalog",
        "distinct_generated_modules",
        "word_module",
    ],
    "words": ["classify", "generate", "truncation", "reduce", "sample_peak_word"],
    "fusion": [
        "product_u",
        "fold_product",
        "restricted_product",
        "wreath_product",
        "psi",
        "psi_inverse",
        "psi_vector",
    ],
    "linreal": [
        "realize",
        "check_laws",
        "small_partitions",
        "gram_exponents",
        "gram_rank",
        "fixed_points_dim",
        "rank",
    ],
    "qgraph": [
        "check_delta_form",
        "QuantumTree.__init__",
        "QuantumTree.state_is_unital",
        "schur_constants",
        "embedding_scalars",
    ],
    "cli": ["main"],
}

# Separates a traced process's own stdout from its span statistics.
TRACE_MARKER = "\n@@qcomb-bench-trace@@ "


def _bell(n: int) -> int:
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def _double_factorial_odd(n: int) -> int:
    """(n-1)!! for even n: the number of perfect matchings of n points."""
    if n % 2:
        return 0
    out = 1
    for k in range(n - 1, 0, -2):
        out *= k
    return out


class _Span:
    __slots__ = ("name", "child")

    def __init__(self, name: str):
        self.name = name
        self.child = 0.0  # seconds covered by child spans


class Tracer:
    """Aggregated span statistics for one process."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.layer_busy = dict.fromkeys(LAYERS, 0.0)
        self.layer_self = dict.fromkeys(LAYERS, 0.0)
        self.counts: dict[str, float] = {
            "partitions.constructed": 0,
            "linreal.gram_pairs": 0,
            "categories.enumerate_members.diagrams": 0,
            "categories.enum_kept": 0,
            "categories.enum_candidates": 0,
            "words.generate.members": 0,
            "words.classify.headroom_max": 0,
        }
        self._stack: list[_Span] = []
        self._open_names: dict[str, int] = {}
        self._open_layers = dict.fromkeys(LAYERS, 0)
        self._after = {
            "partitions.enumerate_partitions": self._after_enumerate,
            "categories.enumerate_members": self._after_members,
            "linreal.gram_exponents": self._after_gram_exponents,
            "words.generate": self._after_generate,
        }

    # -- hooks that turn a call into exact counts -----------------------------

    def _after_enumerate(self, args, kwargs, result, parent):
        # only frames enumerated cold by a category count towards the yield;
        # the lru_cache in categories means a repeat frame never gets here
        if parent is None or parent.name != "categories.enumerate_members":
            return
        n = len(args[0]) + len(args[1])
        candidates = _double_factorial_odd(n) if kwargs.get("pair_only") else _bell(n)
        self.counts["categories.enum_kept"] += len(result)
        self.counts["categories.enum_candidates"] += candidates

    def _after_members(self, args, kwargs, result, parent):
        self.counts["categories.enumerate_members.diagrams"] += len(result)

    def _after_gram_exponents(self, args, kwargs, result, parent):
        n = len(args[0])
        self.counts["linreal.gram_pairs"] += n * (n + 1) // 2

    def _after_generate(self, args, kwargs, result, parent):
        self.counts["words.generate.members"] += len(result.members)
        if parent is not None and parent.name == "words.classify":
            headroom = args[2] if len(args) > 2 else kwargs.get("headroom", 0)
            c = self.counts
            c["words.classify.headroom_max"] = max(c["words.classify.headroom_max"], headroom)

    # -- wrapping -----------------------------------------------------------

    def wrap(self, name: str, fn, drain: bool = False):
        """Timing wrapper for fn.  With drain, fn is a generator function
        and the wrapper drains it inside the span and returns a list."""
        layer = name.split(".", 1)[0]
        after = self._after.get(name)
        stack = self._stack
        open_names = self._open_names
        open_layers = self._open_layers
        self.calls.setdefault(name, 0)
        self.busy.setdefault(name, 0.0)
        self.self_s.setdefault(name, 0.0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = _Span(name)
            stack.append(span)
            outer_name = open_names.get(name, 0) == 0
            outer_layer = open_layers[layer] == 0
            open_names[name] = open_names.get(name, 0) + 1
            open_layers[layer] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if drain:
                    result = list(result)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                open_names[name] -= 1
                open_layers[layer] -= 1
                self.calls[name] += 1
                own = dt - span.child
                self.self_s[name] += own
                self.layer_self[layer] += own
                if outer_name:
                    self.busy[name] += dt
                if outer_layer:
                    self.layer_busy[layer] += dt
                if parent is not None:
                    parent.child += dt
            if after is not None:
                after(args, kwargs, result, parent)
            return result

        return traced

    def install(self, span_names: dict[str, str] | None = None) -> None:
        """Wrap every function in TRACED.  span_names maps a default span
        name to the name to record it under."""
        span_names = span_names or {}
        modules = {m: importlib.import_module(f"qcomb.{m}") for m in TRACED}
        for mod_name, paths in TRACED.items():
            mod = modules[mod_name]
            for path in paths:
                name = span_names.get(f"{mod_name}.{path}", f"{mod_name}.{path}")
                if "." in path:
                    self._wrap_member(mod, path, name)
                    continue
                original = getattr(mod, path)
                wrapper = self.wrap(name, original, drain=inspect.isgeneratorfunction(original))
                for other in list(sys.modules.values()):
                    if getattr(other, "__name__", "").startswith("qcomb"):
                        for attr, value in list(vars(other).items()):
                            if value is original:
                                setattr(other, attr, wrapper)
        self._count_constructions(modules["partitions"].Partition)

    def _wrap_member(self, mod, path: str, name: str) -> None:
        cls_name, attr = path.split(".")
        cls = getattr(mod, cls_name)
        original = cls.__dict__[attr]
        if isinstance(original, functools.cached_property):
            prop = functools.cached_property(self.wrap(name, original.func))
            prop.__set_name__(cls, attr)
            setattr(cls, attr, prop)
        else:
            setattr(cls, attr, self.wrap(name, original))

    def _count_constructions(self, partition_cls) -> None:
        # a counter, not a span: a span per construction would dominate
        original = partition_cls.__post_init__
        counts = self.counts

        def counted(obj):
            counts["partitions.constructed"] += 1
            original(obj)

        partition_cls.__post_init__ = counted

    # -- report -------------------------------------------------------------

    def report(self) -> dict:
        return {
            "calls": dict(self.calls),
            "busy": dict(self.busy),
            "self": dict(self.self_s),
            "layer_busy": dict(self.layer_busy),
            "layer_self": dict(self.layer_self),
            "counts": dict(self.counts),
        }
