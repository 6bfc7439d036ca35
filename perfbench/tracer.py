"""Outside-in tracing of dqmat: spans and counters recorded from the benchmark.

`Tracer.install()` rebinds the public functions of each dqmat layer, in every
dqmat module that binds them by name, to timing wrappers.  Each call of a
wrapped function becomes a span whose parent is the innermost open span; the
benchmark opens one `request` span per CLI call.  The four hot leaves
(matrix product, span, echelon reduction, membership) are not spans: each
call adds to a count and a summed time on the innermost open span.  Self time
is a call's duration minus the time of the wrapped calls inside it.

Spans stay in memory; `dump()` returns them for writing out when a run ends.
Install on a freshly imported dqmat: the wrappers stay until the modules are
dropped from sys.modules.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# (module, function) pairs recorded as spans, named "<module>.<function>"
SPAN_FUNCTIONS = [
    ("serialize", "document_to_algebra"), ("serialize", "dump_json"),
    ("classify", "iso_invariants"), ("classify", "is_isomorphic_maxdim"),
    ("classify", "canonical_block_conjugator"), ("classify", "enumerate_max_types"),
    ("classify", "count_iso_classes"),
    ("structure", "min_dq"), ("structure", "is_maximal_dq"), ("structure", "block_triangulate"),
    ("structure", "detect_type"), ("structure", "check_dq_bruteforce"),
    ("algebra", "commutator_ideal"), ("algebra", "two_sided_ideal"),
    ("algebra", "nilpotency_index"), ("algebra", "radical"), ("algebra", "centralizer"),
    ("algebra", "product_space"),
]
CLI_COMMANDS = ["analyze", "classify", "enumerate", "verify"]


class Span:
    __slots__ = ("id", "parent", "name", "attrs", "total_s", "self_s", "leaves", "child_s")

    def __init__(self, sid, parent, name, attrs):
        self.id = sid
        self.parent = parent
        self.name = name
        self.attrs = attrs
        self.total_s = 0.0
        self.self_s = 0.0
        self.leaves = {}  # leaf name -> [calls, total_s, self_s, extra counters...]
        self.child_s = 0.0


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []  # frames: Span objects and one-element [child_s] lists for leaves

    # -- spans -----------------------------------------------------------------

    def _innermost_span(self) -> Span:
        for frame in reversed(self._open):
            if isinstance(frame, Span):
                return frame
        raise RuntimeError("dqmat was called outside a request span")

    def _close(self, frame, dt):
        if self._open:
            top = self._open[-1]
            if isinstance(top, Span):
                top.child_s += dt
            else:
                top[0] += dt

    def run_span(self, name, attrs, fn, *args, **kwargs):
        """Call fn inside a new span; returns (result, span)."""
        parent = self._innermost_span().id if self._open else None
        span = Span(len(self.spans), parent, name, attrs)
        self.spans.append(span)
        self._open.append(span)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs), span
        finally:
            dt = perf_counter() - t0
            self._open.pop()
            span.total_s = dt
            span.self_s = dt - span.child_s
            self._close(span, dt)

    def _span_wrapper(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result, span = self.run_span(name, None, fn, *args, **kwargs)
            if on_result is not None:
                span.attrs = on_result(result)
            return result
        return wrapper

    # -- leaves ----------------------------------------------------------------

    def _leaf_wrapper(self, name, fn, extra=None):
        """Count and time calls on the innermost span; extra(args, result) gives more counters."""
        opened = self._open

        @functools.wraps(fn)
        def wrapper(*args):
            frame = [0.0]
            opened.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args)
            finally:
                dt = perf_counter() - t0
                opened.pop()
                self._close(frame, dt)
            leaves = self._innermost_span().leaves
            stats = leaves.get(name)
            more = extra(args, result) if extra else ()
            if stats is None:
                leaves[name] = [1, dt, dt - frame[0], *more]
            else:
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[0]
                for i, v in enumerate(more):
                    stats[3 + i] += v
            return result
        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self):
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "dqmat" or name.startswith("dqmat.")}
        for modname, fname in SPAN_FUNCTIONS:
            original = getattr(mods["dqmat." + modname], fname)
            on_result = (lambda r: {"rounds": r.saturation_rounds}) \
                if fname == "two_sided_ideal" else None
            _rebind(mods, original, self._span_wrapper(f"{modname}.{fname}", original, on_result))
        cli = mods["dqmat.cli"]
        for command in CLI_COMMANDS:
            # main() dispatches through the _HANDLERS table
            cli._HANDLERS[command] = self._span_wrapper(f"cli.{command}", cli._HANDLERS[command])

        linalg = mods["dqmat.linalg"]
        matrix, subspace = linalg.Matrix, linalg.Subspace
        matrix.__mul__ = self._leaf_wrapper("linalg.matmul", matrix.__mul__)
        subspace.contains_vector = self._leaf_wrapper("linalg.contains", subspace.contains_vector)
        # rref_in_place drops the zero rows it produces, so count its input rows first
        rref = linalg.rref_in_place
        rref_leaf = self._leaf_wrapper("linalg.rref", lambda field, rows, _: rref(field, rows),
                                       lambda args, result: (args[2],))
        _rebind(mods, rref, lambda field, rows: rref_leaf(field, rows, len(rows)))
        span_fn = subspace.__dict__["span"].__func__
        span_leaf = self._leaf_wrapper("linalg.span", span_fn,
                                       lambda args, result: (len(args[3]), result.dim))
        subspace.span = classmethod(
            lambda cls, field, ambient_dim, vectors: span_leaf(cls, field, ambient_dim, list(vectors)))

    def dump(self) -> list:
        return [{"id": s.id, "parent": s.parent, "name": s.name, "attrs": s.attrs,
                 "total_s": s.total_s, "self_s": s.self_s,
                 "leaves": dict(s.leaves)} for s in self.spans]


def _rebind(mods, original, wrapper):
    for mod in mods.values():
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
