"""Outside-in layer trace for the sra benchmark.

The tracer wraps public names of a freshly imported ``sra`` package from the
outside: spans (name, start, end, parent) around calls into each layer, plain
call counters on the scalar hot paths, distinct-argument counts where a layer
memoizes, and a counting proxy for the normal-form memo of ``Frame``.

A wrapper is installed on every binding of the original object inside the
``sra`` modules (module globals and class attributes), because modules bind
names at import time (``from .linalg import kernel_basis``) and a wrapper on
the defining module alone would silently read zero.  A name that no longer
exists is skipped and then reports zero calls.

The ``nf_word`` recursion is counted through its memo's ``get`` rather than a
wrapper, so tracing adds no frame per recursion level and cannot change
where a ``RecursionError`` happens.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

perf = time.perf_counter

# (metric prefix, module, class or None, attribute)
SPANS = [
    ("group.build", "sra.group", None, "builtin"),
    ("group.build", "sra.group", None, "close"),
    ("group.e_grading", "sra.group", "Group", "e_grading"),
    ("linalg.det", "sra.linalg", None, "det"),
    ("linalg.kernel_basis", "sra.linalg", None, "kernel_basis"),
    ("linalg.eigen_decompose", "sra.linalg", None, "eigen_decompose"),
    ("linalg.darboux_basis", "sra.linalg", None, "darboux_basis"),
    ("linalg.inverse", "sra.linalg", None, "inverse"),
    ("scalar.exact_divide", "sra.scalar", "EtaPolynomial", "exact_divide"),
    ("algebra.init", "sra.algebra", "Algebra", "__init__"),
    ("algebra.chart", "sra.algebra", "EigenbasisChart", "__init__"),
    ("algebra.mul", "sra.algebra", "AlgebraElement", "__mul__"),
    ("traces.solve_glc", "sra.traces", None, "solve_glc"),
    ("traces.verify_glc", "sra.traces", None, "verify_glc"),
    ("traces.evaluate", "sra.traces", "TraceFunctional", "evaluate"),
    ("traces.gram", "sra.traces", None, "gram"),
    ("expr.parse", "sra.expr", None, "parse"),
    ("cli.main", "sra.cli", None, "main"),
]

COUNTS = [
    ("scalar.cyc_mul", "sra.scalar", "Cyclotomic", "__mul__"),
    ("scalar.cyc_inverse", "sra.scalar", "Cyclotomic", "inverse"),
    ("scalar.eta_mul", "sra.scalar", "EtaPolynomial", "__mul__"),
]

# counted with the number of distinct (receiver, arguments) seen
DISTINCT = [
    ("group.mul", "sra.group", "Group", "mul"),
]

# (metric prefix, module, class, memo attribute set by __init__)
MEMOS = [
    ("algebra.nf_word", "sra.algebra", "Frame", "_nf_cache"),
]


def _sra_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "sra" or name.startswith("sra."))]


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.on = False
        self.spans: list[list] = []     # [name, start, end, parent index, nested]
        self.stack: list[int] = []
        self.active: Counter = Counter()
        self.calls: Counter = Counter()
        self.extra: Counter = Counter()  # quantities the jobs report, e.g. bytes
        self.seen: dict[str, set] = {}
        self.memos: dict[str, list] = {}
        self.keep: dict[int, object] = {}  # keeps receivers alive so ids stay unique
        self.missing: list[str] = []

    # -- installation ---------------------------------------------------------

    def install(self):
        """Wrap the names above in the currently imported sra modules."""
        modules = _sra_modules()
        for name, mod, cls, attr in SPANS:
            self._patch(modules, name, mod, cls, attr, self._span)
        for name, mod, cls, attr in COUNTS:
            self._patch(modules, name, mod, cls, attr, self._count)
        for name, mod, cls, attr in DISTINCT:
            self._patch(modules, name, mod, cls, attr, self._distinct)
        for name, mod, cls, attr in MEMOS:
            self._patch(modules, name, mod, cls, "__init__",
                        lambda n, fn, attr=attr: self._memo(n, fn, attr))

    def _patch(self, modules, name, mod, cls, attr, make):
        owner = sys.modules.get(mod)
        if owner is not None and cls is not None:
            owner = getattr(owner, cls, None)
        orig = getattr(owner, attr, None) if owner is not None else None
        if orig is None:
            self.missing.append(f"{mod}.{cls + '.' if cls else ''}{attr}")
            return
        wrapper = make(name, orig)
        for m in modules:
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, wrapper)
                elif isinstance(val, type) and val.__module__.startswith("sra"):
                    for ckey, cval in list(vars(val).items()):
                        if cval is orig:
                            setattr(val, ckey, wrapper)

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn):
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tr.on:
                return fn(*args, **kwargs)
            idx = tr.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tr.close(idx)
        return wrapper

    def _count(self, name, fn):
        tr = self
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tr.on:
                calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _distinct(self, name, fn):
        tr = self
        calls = self.calls
        seen = self.seen.setdefault(name, set())

        @functools.wraps(fn)
        def wrapper(receiver, *args):
            if tr.on:
                calls[name] += 1
                seen.add((id(receiver),) + args)
                tr.keep[id(receiver)] = receiver
            return fn(receiver, *args)
        return wrapper

    def _memo(self, name, init, attr):
        tr = self
        calls = self.calls
        memos = self.memos.setdefault(name, [])

        class CountingMemo(dict):
            """A memo dict whose lookups count the calls of the memoized method."""

            __slots__ = ()

            def get(self, key, default=None):
                if tr.on:
                    calls[name] += 1
                return dict.get(self, key, default)

        @functools.wraps(init)
        def wrapper(receiver, *args, **kwargs):
            init(receiver, *args, **kwargs)
            memo = getattr(receiver, attr, None)
            if tr.on and type(memo) is dict:
                memo = CountingMemo(memo)
                setattr(receiver, attr, memo)
                memos.append(memo)
        return wrapper

    # -- spans ------------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.calls[name] += 1
        self.spans.append([name, perf(), 0.0, self.stack[-1] if self.stack else -1,
                           self.active[name] > 0])
        self.active[name] += 1
        self.stack.append(idx)
        return idx

    def close(self, idx: int):
        span = self.spans[idx]
        span[2] = perf()
        self.active[span[0]] -= 1
        if self.stack and self.stack[-1] == idx:
            self.stack.pop()

    def unwind(self, depth: int):
        """Close every span above `depth` after an exception cut them short."""
        while len(self.stack) > depth:
            self.close(self.stack[-1])

    # -- summaries ----------------------------------------------------------------

    def total_s(self, name: str) -> float:
        """Time inside outermost spans of `name` (recursive calls count once)."""
        return sum(s[2] - s[1] for s in self.spans if s[0] == name and not s[4])

    def self_s(self, name: str, minus=None) -> float:
        """Span time minus the direct children named in `minus` (all if None)."""
        child_time: Counter = Counter()
        for s in self.spans:
            if s[3] >= 0 and (minus is None or s[0] in minus):
                child_time[s[3]] += s[2] - s[1]
        return sum(s[2] - s[1] - child_time[i] for i, s in enumerate(self.spans)
                   if s[0] == name and not s[4])

    def distinct(self, name: str) -> int:
        if name in self.memos:
            return sum(len(m) for m in self.memos[name])
        return len(self.seen.get(name, ()))

    def write(self, path: str, labels: dict):
        """Write the spans as JSON lines: id, name, start, end, parent."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"labels": labels, "missing": self.missing}) + "\n")
            for i, (name, t0, t1, parent, _) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": round(t0, 7),
                                     "end": round(t1, 7), "parent": parent}) + "\n")
