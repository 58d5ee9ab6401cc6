"""Outside-in layer trace: wrappers around the public functions of each pnk
layer, installed by patching the binding the caller looks up and restored
afterwards.  No pnk source is touched.

A span is opened around every wrapped call.  A layer's self time is the
span's duration minus the durations of the spans opened inside it, so the
self times of nested layers add up to the traced wall time without double
counting.  Counts are read off the objects the layer functions take and
return (pair-state graphs, Q/R matrices, desugared trees), never off pnk
internals.
"""

from __future__ import annotations

import functools
import time
import weakref
from contextlib import contextmanager
from dataclasses import fields

from pnk import analysis, bigstep, casestudy, netlib, parser, star, syntax
from pnk.syntax import Program
from pnk.universe import PacketUniverse

# Span name -> per-layer metric holding its self time.
SPAN_METRICS = {
    "parser": "parser.parse_s",
    "desugar": "syntax.desugar_s",
    "build": "netlib.build_s",
    "modify": "universe.modify_s",
    "init": "bigstep.init_s",
    "apply": "bigstep.apply_s",
    "body": "bigstep.body_s",
    "star": "star.assemble_s",
    "explore": "star.explore_s",
    "saturate": "star.saturate_s",
    "solve": "linalg.solve_s",
    "decide": "analysis.decide_s",
}

COUNT_METRICS = (
    "parser.calls", "parser.chars",
    "syntax.core_nodes", "syntax.distinct_core_nodes", "syntax.core_values",
    "universe.packets", "universe.modify_calls",
    "bigstep.body_rows", "bigstep.body_rows_repeat",
    "star.calls", "star.pair_states", "star.pair_states_max",
    "star.accumulators", "star.saturated", "star.edges",
    "linalg.solves", "linalg.q_order", "linalg.q_order_max", "linalg.q_nnz",
    "linalg.q_cyclic_states", "linalg.abs_cols",
    "analysis.rows",
)

# (owner, attribute, span) for every patched binding.  Several bindings of
# one function are patched where pnk modules import it by name.
PATCHES = (
    (parser, "parse", "parser"),
    (syntax, "desugar", "desugar"),
    (casestudy, "desugar", "desugar"),
    (analysis, "desugar", "desugar"),
    (netlib, "build_case_model", "build"),
    (PacketUniverse, "modify", "modify"),
    (bigstep.Kernel, "__init__", "init"),
    (bigstep.Kernel, "apply", "apply"),
    (bigstep.Kernel, "row", "apply"),
    (star, "star_dist", "star"),
    (star, "explore", "explore"),
    (star, "mark_saturated", "saturate"),
    (star, "solve_absorption_row", "solve"),
    (analysis, "equiv", "decide"),
    (analysis, "leq", "decide"),
)


def _children(node) -> list:
    out = []
    for f in fields(node):
        v = getattr(node, f.name)
        if isinstance(v, Program):
            out.append(v)
        elif isinstance(v, tuple):
            out.extend(x for x in v if isinstance(x, Program))
    return out


def tree_census(root: Program) -> tuple[int, int, int]:
    """(tree size counting shared subtrees once per occurrence, distinct
    node objects, distinct node values) of a program DAG, iteratively."""
    size: dict[int, int] = {}
    value: dict[int, int] = {}
    values: dict[tuple, int] = {}
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        key = id(node)
        if key in size:
            continue
        kids = _children(node)
        if not expanded:
            stack.append((node, True))
            stack.extend((k, False) for k in kids if id(k) not in size)
            continue
        size[key] = 1 + sum(size[id(k)] for k in kids)
        scalars = tuple(getattr(node, f.name) for f in fields(node)
                        if not isinstance(getattr(node, f.name), (Program, tuple)))
        sig = (type(node).__name__, scalars, tuple(value[id(k)] for k in kids))
        value[key] = values.setdefault(sig, len(values))
    return size[id(root)], len(size), len(values)


def cyclic_states(Q) -> int:
    """States of Q in a cyclic strongly connected component (size > 1 or a
    self-loop), by an iterative Tarjan."""
    n = Q.nrows
    adj = [list(r) for r in Q.rows]
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    counter = 0
    cyclic = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, i = work.pop()
            if i == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            if i < len(adj[v]):
                work.append((v, i + 1))
                w = adj[v][i]
                if index[w] == -1:
                    work.append((w, 0))
                elif on_stack[w]:
                    low[v] = min(low[v], index[w])
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                if len(comp) > 1 or v in Q.rows[v]:
                    cyclic += len(comp)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return cyclic


class Tracer:
    """Per-layer self times and counts of one traced run."""

    def __init__(self):
        self.self_s = {name: 0.0 for name in SPAN_METRICS}
        self.fired = {name: 0 for name in SPAN_METRICS}
        self.counts = {name: 0 for name in COUNT_METRICS}
        self._open: list[list] = []       # [span, start, child seconds]
        self._kernels: list = []          # kernels whose rows are being computed
        self._seen = weakref.WeakKeyDictionary()  # kernel -> body rows requested
        self._desugaring = False
        self._deciding = 0

    # -- spans ---------------------------------------------------------------

    def _enter(self, span: str) -> None:
        self.fired[span] += 1
        self._open.append([span, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        span, start, child = self._open.pop()
        dur = time.perf_counter() - start
        self.self_s[span] += dur - child
        if self._open:
            self._open[-1][2] += dur

    def _timed(self, span: str, fn, *args, **kwargs):
        self._enter(span)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit()

    def _count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def _max(self, name: str, n: int) -> None:
        self.counts[name] = max(self.counts[name], n)

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, span: str, fn):
        make = getattr(self, f"_wrap_{span}", None)
        if make is not None:
            wrapper = make(fn)
        else:
            def wrapper(*args, **kwargs):
                return self._timed(span, fn, *args, **kwargs)
        return functools.wraps(fn)(wrapper)

    def _wrap_parser(self, fn):
        def wrapper(text, *args, **kwargs):
            self._count("parser.calls")
            self._count("parser.chars", len(text))
            return self._timed("parser", fn, text, *args, **kwargs)
        return wrapper

    def _wrap_desugar(self, fn):
        def wrapper(p):
            if self._desugaring:  # desugar recurses through its module binding
                return fn(p)
            self._desugaring = True
            try:
                out = self._timed("desugar", fn, p)
            finally:
                self._desugaring = False
            total, objects, values = tree_census(out)
            self._count("syntax.core_nodes", total)
            self._count("syntax.distinct_core_nodes", objects)
            self._count("syntax.core_values", values)
            return out
        return wrapper

    def _wrap_modify(self, fn):
        def wrapper(universe, *args, **kwargs):
            self._count("universe.modify_calls")
            return self._timed("modify", fn, universe, *args, **kwargs)
        return wrapper

    def _wrap_init(self, fn):
        def wrapper(kernel, program, universe, *args, **kwargs):
            self._max("universe.packets", universe.packet_count)
            return self._timed("init", fn, kernel, program, universe, *args, **kwargs)
        return wrapper

    def _wrap_apply(self, fn):
        is_row = fn.__name__ == "row"

        def wrapper(kernel, *args, **kwargs):
            if self._deciding and is_row:
                self._count("analysis.rows")
            self._kernels.append(kernel)
            try:
                return self._timed("apply", fn, kernel, *args, **kwargs)
            finally:
                self._kernels.pop()
        return wrapper

    def _wrap_star(self, fn):
        def wrapper(*args, **kwargs):
            self._count("star.calls")
            return self._timed("star", fn, *args, **kwargs)
        return wrapper

    def _wrap_explore(self, fn):
        def wrapper(row_fn, a0, *args, **kwargs):
            # Rows are attributed to the kernel whose apply/row is running.
            kernel = self._kernels[-1] if self._kernels else None
            seen = self._seen.setdefault(kernel, set()) if kernel else set()
            # The row function is a fresh closure per star evaluation; its
            # captured objects (the kernel and the star node) identify the
            # body, so a repeated (body, input) request is a memo hit.
            body = tuple(id(c.cell_contents) for c in row_fn.__closure__ or ())

            def traced_row(a):
                self._count("bigstep.body_rows")
                key = (body, a)
                if key in seen:
                    self._count("bigstep.body_rows_repeat")
                else:
                    seen.add(key)
                return self._timed("body", row_fn, a)

            g = self._timed("explore", fn, traced_row, a0, *args, **kwargs)
            self._count("star.pair_states", len(g.states))
            self._max("star.pair_states_max", len(g.states))
            self._count("star.accumulators", len({b for _, b in g.states}))
            self._count("star.edges", sum(len(e) for e in g.edges))
            return g
        return wrapper

    def _wrap_saturate(self, fn):
        def wrapper(g):
            out = self._timed("saturate", fn, g)
            self._count("star.saturated", sum(out.saturated))
            return out
        return wrapper

    def _wrap_solve(self, fn):
        def wrapper(Q, R, *args, **kwargs):
            self._count("linalg.solves")
            self._count("linalg.q_order", Q.nrows)
            self._max("linalg.q_order_max", Q.nrows)
            self._count("linalg.q_nnz", sum(len(r) for r in Q.rows))
            self._count("linalg.q_cyclic_states", cyclic_states(Q))
            self._count("linalg.abs_cols", R.ncols)
            return self._timed("solve", fn, Q, R, *args, **kwargs)
        return wrapper

    def _wrap_decide(self, fn):
        def wrapper(*args, **kwargs):
            self._deciding += 1
            try:
                return self._timed("decide", fn, *args, **kwargs)
            finally:
                self._deciding -= 1
        return wrapper

    # -- installation ----------------------------------------------------------

    @contextmanager
    def installed(self):
        """Patch every binding in PATCHES for the duration of the block."""
        saved = []
        try:
            for owner, attr, span in PATCHES:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(span, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def metrics(self) -> dict:
        out = {SPAN_METRICS[s]: v for s, v in self.self_s.items()}
        out.update(self.counts)
        return out


def per_layer_units() -> dict:
    units = {m: "s" for m in SPAN_METRICS.values()}
    units.update((m, "count") for m in COUNT_METRICS)
    units["trace.overhead_s"] = "s"
    return units


def originals() -> list:
    """The objects currently bound at every patched binding."""
    return [vars(owner)[attr] for owner, attr, _ in PATCHES]
