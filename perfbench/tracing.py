"""In-memory span tracer that wraps library functions from outside.

Spans are recorded only while an op is open (`Tracer.op` is set), so the
benchmark's own correctness checks, which call the same library functions,
never show up in the per-layer numbers.  A span is the list
`[name, start, end, parent, op_id, tag]`; `parent` is the index of the
enclosing span or None, and `tag` is what the wrapper's tag function said
about the call's arguments (or None).  Self time is a span's duration minus the durations of its
direct children (one thread, so children nest strictly inside parents).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

NAME, START, END, PARENT, OP, TAG = range(6)


class Tracer:
    """Records spans and counters; `install` patches the library in place."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op: int | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def open(self, name: str, tag=None) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent, self.op, tag])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed out of order")

    def begin_op(self, name: str) -> int:
        """Open a root span for one benchmark op; spans below carry its id."""
        self.op = len(self.spans)
        return self.open(name)

    def end_op(self, idx: int) -> None:
        self.close(idx)
        self.op = None

    def self_times(self) -> list[float]:
        """Duration minus the durations of direct children, per span."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] is not None:
                child[s[PARENT]] += s[END] - s[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    # -- wrappers ------------------------------------------------------

    def span_wrapper(self, fn, name: str, on_result=None, tag=None):
        """Wrap `fn` so each call inside an op becomes a span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            idx = tracer.open(name, tag(args, kwargs) if tag else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if on_result is not None:
                on_result(tracer.counts, result)
            return result

        return wrapper

    def count_wrapper(self, fn, name: str):
        """Wrap `fn` so calls inside an op only bump a counter (hot paths)."""
        tracer = self
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is not None:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, package: str, functions, methods) -> None:
        """Patch every reference to each listed function and method.

        `functions` holds (module, attribute, metric name, on_result, tag);
        the wrapper replaces the function in every loaded module of
        `package` that holds it, because callers that did
        `from .codebook import validate_codebook` look it up in their own
        namespace.  `methods` holds (class, attribute, metric name) and is
        counted only.
        """
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == package or key.startswith(package + "."))
        ]
        for module, attr, name, on_result, tag in functions:
            original = getattr(module, attr)
            wrapped = self.span_wrapper(original, name, on_result, tag)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapped)
        for cls, attr, name in methods:
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self.count_wrapper(original, name))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- aggregation ---------------------------------------------------

    def summary(self, op_filter=None) -> dict[str, dict[str, float]]:
        """Per span name: calls and summed self time, over ops accepted by
        `op_filter(op_span_name)` (all ops when None)."""
        selfs = self.self_times()
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0}
        )
        for s, st in zip(self.spans, selfs):
            if s[OP] is None:
                continue
            if op_filter is not None and not op_filter(self.spans[s[OP]][NAME]):
                continue
            out[s[NAME]]["calls"] += 1
            out[s[NAME]]["self_s"] += st
        return dict(out)
