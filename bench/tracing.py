"""Spans and counters around calls into the simulator's modules, installed
from outside the program.

A wrapper replaces a module attribute for the time the tracer is installed,
so it sees exactly the calls that look that attribute up at call time (for
example ``phylink.waterfill`` as called from ``phylink.svd_precoder``).
Spans live in memory as ``[name, start, end, parent]`` records and are only
reduced to per-stage self times when a report is asked for. Leaving the
``with`` block puts every original attribute back.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter, defaultdict


class Tracer:
    """In-memory span recorder with per-stage self times and counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.stage_of: dict[str, str] = {}
        self.counts: Counter = Counter()
        self.keys: defaultdict = defaultdict(list)
        self._stack: list[tuple[int, bool]] = []  # (span index, leaf)
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def open(self, name: str, stage: str | None = None, leaf: bool = False) -> int:
        self.stage_of.setdefault(name, stage or name)
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append([name, self.clock(), None, parent])
        index = len(self.spans) - 1
        self._stack.append((index, leaf))
        return index

    def close(self, index: int):
        top, _ = self._stack.pop()
        if top != index:
            raise RuntimeError(f"span {self.spans[index][0]!r} closed out of order")
        self.spans[index][2] = self.clock()

    def in_leaf(self) -> bool:
        """True while the innermost open span is a leaf: calls made inside a
        leaf are charged to it instead of opening spans of their own."""
        return bool(self._stack) and self._stack[-1][1]

    def enclosing(self, names) -> str | None:
        """Name of the innermost open span among ``names``."""
        for index, _ in reversed(self._stack):
            if self.spans[index][0] in names:
                return self.spans[index][0]
        return None

    # -- installing wrappers ---------------------------------------------
    def wrap(self, module, attr: str, stage: str, leaf: bool = True, on_call=None):
        """Replace ``module.attr`` by a wrapper that records a span named
        ``<module short name>.<attr>`` charged to ``stage``. ``on_call(tracer,
        arguments)`` runs at the span boundary with the call's arguments bound
        by name (defaults filled in), for counters and keys."""
        original = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        signature = inspect.signature(original)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if tracer.in_leaf():
                return original(*args, **kwargs)
            if on_call is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                on_call(tracer, bound.arguments)
            index = tracer.open(name, stage, leaf)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close(index)

        self._patched.append((module, attr, original))
        setattr(module, attr, wrapper)

    def restore(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- reporting -----------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Seconds per stage: each span's duration minus the time its direct
        children cover, summed over the spans charged to the stage."""
        if self._stack:
            raise RuntimeError("spans are still open")
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), covered in zip(self.spans, child):
            out[self.stage_of[name]] += (end - start) - covered
        return dict(out)

    def unique_frac(self, key: str) -> float:
        """Distinct recorded keys over recorded keys (0 when none were seen)."""
        seen = self.keys.get(key, [])
        return len(set(seen)) / len(seen) if seen else 0.0
