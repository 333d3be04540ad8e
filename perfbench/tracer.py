"""Span tracing of freewreath's layers, installed from outside the package.

A :class:`Tracer` replaces every public function of each layer module, and
the category and lattice methods of ``Partition``, ``SparseMap`` and
``TLDiagram``, with a wrapper that records one span per call: name, start,
end, parent span and the id of the workload item being run.  Because
``from .x import f`` copies a binding, the wrapper is written into every
``freewreath`` module that holds the original object, not only the defining
one.  ``QNum``/``Fraction`` arithmetic and ``Partition.__init__`` are left
alone: they are called millions of times and would drown the trace.

Spans live in flat arrays in memory; :meth:`Tracer.summary` turns them into
per-layer calls, self time (duration minus the time covered by child spans)
and errors, plus the layer counters named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import math
import time
from array import array
from collections import Counter

LAYERS = ("partition", "qnum", "exactmat", "fusion", "homspaces", "freeprob",
          "linmaps", "weingarten", "tl", "cli")

METHODS = {
    "partition": ("Partition", ("tensor", "compose", "involute", "join", "refines")),
    "linmaps": ("SparseMap", ("scale", "tensor", "compose", "adjoint", "trace",
                              "inner")),
    "tl": ("TLDiagram", ("tensor", "involute")),
}

PARTITION_GROUPS = {
    "enumerate": ("partition.enumerate_partitions",),
    "category_ops": ("partition.Partition.tensor", "partition.Partition.compose",
                     "partition.Partition.involute"),
    "lattice": ("partition.Partition.join", "partition.Partition.refines",
                "partition.kernel"),
}

# counters that are summed over calls; the exactmat size counters take maxima
SUM_COUNTERS = (
    "partition.enumerated", "linmaps.tp_built", "linmaps.tp_nonzeros",
    "exactmat.matrices", "exactmat.cubic_ops", "qnum.cheb_evals",
    "fusion.products.direct", "fusion.products.free_product",
    "fusion.words_out", "fusion.dims", "homspaces.queries.partition",
    "homspaces.queries.fusion", "homspaces.nc_examined", "homspaces.admissible",
    "freeprob.eps_words", "weingarten.tables", "weingarten.indices",
    "weingarten.haar_queries", "tl.diagrams", "tl.composed",
)
MAX_COUNTERS = ("exactmat.max_dim", "exactmat.max_bits")


def _catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def _matrix_size(c, args, kwargs, result):
    n = len(args[0])
    c["exactmat.matrices"] += 1
    c["exactmat.cubic_ops"] += n ** 3
    c["exactmat.max_dim"] = max(c["exactmat.max_dim"], n)


def _det_rank(c, args, kwargs, result):
    _matrix_size(c, args, kwargs, result)
    c["exactmat.max_bits"] = max(c["exactmat.max_bits"],
                                 abs(result[1]).bit_length())


def _inverse(c, args, kwargs, result):
    _matrix_size(c, args, kwargs, result)
    bits = max((x.denominator.bit_length() for row in result for x in row),
               default=0)
    c["exactmat.max_bits"] = max(c["exactmat.max_bits"], bits)


def _hom_terms(c, args, kwargs, result):
    if kwargs.get("admissible_only", args[3] if len(args) > 3 else True):
        c["homspaces.nc_examined"] += _catalan(len(args[0]) + len(args[1]))
        c["homspaces.admissible"] += len(result)


def _add(key, size=None):
    def hook(c, args, kwargs, result):
        c[key] += 1 if size is None else size(result)
    return hook


# span name -> counter hook(counters, args, kwargs, result)
HOOKS = {
    "partition.enumerate_partitions": _add("partition.enumerated", len),
    "linmaps.build_tp": lambda c, a, k, r: c.update({
        "linmaps.tp_built": 1, "linmaps.tp_nonzeros": len(r.entries)}),
    "exactmat.bareiss_det_rank": _det_rank,
    "exactmat.bareiss_inverse": _inverse,
    "exactmat.gauss_jordan_inverse": _inverse,
    "exactmat.kernel_vector": _matrix_size,
    "qnum.cheb_poly": _add("qnum.cheb_evals"),
    "qnum.cheb_eval_sqrtN": _add("qnum.cheb_evals"),
    "fusion.fuse_direct": lambda c, a, k, r: c.update({
        "fusion.products.direct": 1, "fusion.words_out": len(r)}),
    "fusion.fuse_via_reduced": lambda c, a, k, r: c.update({
        "fusion.products.free_product": 1, "fusion.words_out": len(r)}),
    "fusion.dim_wreath": _add("fusion.dims"),
    "homspaces.dim_hom_partition": _add("homspaces.queries.partition"),
    "homspaces.dim_hom_fusion": _add("homspaces.queries.fusion"),
    "homspaces.hom_terms": _hom_terms,
    "freeprob.character_moment_wreath": _add("freeprob.eps_words"),
    "freeprob.free_cumulants_to_moments": _add("freeprob.eps_words", len),
    "freeprob.moments_to_free_cumulants": _add("freeprob.eps_words", len),
    "weingarten.wg_table": lambda c, a, k, r: c.update({
        "weingarten.tables": 1, "weingarten.indices": len(r.indices)}),
    "weingarten.haar_state": _add("weingarten.haar_queries"),
    "tl.tl_enumerate": _add("tl.diagrams", len),
    "tl.tl_compose": _add("tl.composed"),
}


def _is_public_function(mod, name, obj) -> bool:
    if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
        return False
    return inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)


class Tracer:
    """Records spans for every wrapped call while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item = array("i")
        self.current_item = -1
        self.counters: Counter = Counter()
        self.errors: Counter = Counter()
        self._stack = [-1]
        self._undo: list = []

    # -- installation ------------------------------------------------------

    def _wrapper(self, fn, span_name: str):
        nid = len(self.names)
        self.names.append(span_name)
        self.layer_of.append(LAYERS.index(span_name.split(".", 1)[0]))
        hook = HOOKS.get(span_name)
        names, start, end, parent, item = (self.span_name, self.start, self.end,
                                           self.parent, self.item)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parent.append(stack[-1])
            item.append(tracer.current_item)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._count_error(exc, span_name)
                raise
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if hook is not None:
                hook(tracer.counters, args, kwargs, result)
            return result

        return wrapper

    def _count_error(self, exc, span_name):
        # an exception crossing several wrapped frames counts once, where raised
        if getattr(exc, "_perfbench_counted", False):
            return
        try:
            exc._perfbench_counted = True
        except AttributeError:
            pass
        self.errors[span_name.split(".", 1)[0]] += 1

    def install(self) -> "Tracer":
        modules = {layer: importlib.import_module(f"freewreath.{layer}")
                   for layer in LAYERS}
        everywhere = list(modules.values()) + [importlib.import_module("freewreath")]
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if not _is_public_function(mod, name, obj):
                    continue
                wrapped = self._wrapper(obj, f"{layer}.{name}")
                for holder in everywhere:
                    for key, val in list(vars(holder).items()):
                        if val is obj:
                            self._undo.append((holder, key, val))
                            setattr(holder, key, wrapped)
            if layer in METHODS:
                cls_name, methods = METHODS[layer]
                cls = getattr(mod, cls_name)
                for meth in methods:
                    orig = cls.__dict__[meth]
                    self._undo.append((cls, meth, orig))
                    setattr(cls, meth,
                            self._wrapper(orig, f"{layer}.{cls_name}.{meth}"))
        return self

    def uninstall(self) -> None:
        for holder, key, val in reversed(self._undo):
            setattr(holder, key, val)
        self._undo.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- results -----------------------------------------------------------

    def self_times(self) -> list[float]:
        n = len(self.span_name)
        dur = [e - s for s, e in zip(self.start, self.end)]
        covered = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += dur[i]
        return [d - c for d, c in zip(dur, covered)]

    def summary(self) -> dict:
        """Per-layer calls/self_s/errors, partition groups and counters."""
        calls = Counter()
        self_s = Counter()
        by_name = Counter()
        self_t = self.self_times()
        for nid, st in zip(self.span_name, self_t):
            layer = LAYERS[self.layer_of[nid]]
            calls[layer] += 1
            self_s[layer] += st
            by_name[self.names[nid]] += st
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
            out[f"{layer}.errors"] = self.errors[layer]
        for group, names in PARTITION_GROUPS.items():
            out[f"partition.{group}.self_s"] = sum(by_name[n] for n in names)
        out["linmaps.pairs_checked"] = self._pairs_checked()
        for key in SUM_COUNTERS + MAX_COUNTERS:
            out[key] = self.counters[key]
        return out

    def _pairs_checked(self) -> int:
        """Partition category operations called directly by the linmaps check."""
        try:
            verify = self.names.index("linmaps.verify_category_relations")
        except ValueError:
            return 0
        ops = {self.names.index(n) for n in PARTITION_GROUPS["category_ops"]
               if n in self.names}
        names = self.span_name
        return sum(1 for nid, p in zip(names, self.parent)
                   if nid in ops and p >= 0 and names[p] == verify)

    def write_spans(self, path: str) -> None:
        """Write all spans: one JSON header line, then the raw arrays."""
        header = {"names": self.names, "count": len(self.span_name),
                  "arrays": [["name", "i"], ["start", "d"], ["end", "d"],
                             ["parent", "i"], ["item", "i"]]}
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.start, self.end, self.parent,
                        self.item):
                fh.write(arr.tobytes())


def merge(summaries: list[dict]) -> dict:
    """Combine summaries of separate processes (the CLI calls)."""
    out: dict = {}
    for s in summaries:
        for key, val in s.items():
            if key in MAX_COUNTERS:
                out[key] = max(out.get(key, 0), val)
            else:
                out[key] = out.get(key, 0) + val
    return out


def read_spans(path: str) -> dict:
    """Inverse of :meth:`Tracer.write_spans`: names plus one array per field."""
    with gzip.open(path, "rb") as fh:
        header = json.loads(fh.readline())
        out = {"names": header["names"]}
        for field, code in header["arrays"]:
            arr = array(code)
            arr.frombytes(fh.read(arr.itemsize * header["count"]))
            out[field] = arr
    return out
