"""Outside-in span tracer used by the benchmark's traced run.

The tracer wraps methods of the simulator's classes at class level, so
every call into a layer's public surface opens a span.  Open spans sit
on a stack; when a span closes, its duration is folded into per-label
totals and its *self time* (duration minus the time covered by the
spans it caused) is credited to its label.  The nesting is kept as a
``(parent label, label) -> calls`` call tree, which is what gets
written out at the end of a run: the raw span stream of a radix-64
sweep runs to millions of spans and would not fit in memory.

Labels are ``"<layer>/<method>"``; :func:`layer_of` recovers the layer.
Every wrapped method is restored by :meth:`SpanTracer.restore`.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Tuple, Union

#: A span label, or a function of the call's positional arguments that
#: returns one (used to name a span after the receiver's class).
Namer = Union[str, Callable[[tuple], str]]

#: Attribute a wrapper carries that points at the function it replaced.
ORIGINAL = "__perfbench_original__"


def layer_of(label: str) -> str:
    """The layer part of a ``"<layer>/<method>"`` span label."""
    return label.split("/", 1)[0]


class SpanTracer:
    """Collects nested spans and counts from class-level wrappers."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._stack: List[list] = []  # open spans: [label, child seconds]
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Calls whose return value was not None (grants, packets made).
        self.hits: Dict[str, int] = defaultdict(int)
        self.edges: Dict[Tuple[str, str], int] = defaultdict(int)
        self._patched: List[Tuple[type, str, Any]] = []
        #: Every ``(class, attribute)`` ever patched, kept after restore.
        self.targets: List[Tuple[type, str]] = []
        #: ``Class.method`` targets that no class defines any more.
        self.missing: List[str] = []

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------

    def span(self, name: Namer, fn: Callable, hits: bool = False) -> Callable:
        """Return ``fn`` wrapped so that each call records one span."""
        stack = self._stack
        clock = self.clock
        self_s, total_s = self.self_s, self.total_s
        calls, edges, hit = self.calls, self.edges, self.hits
        fixed = name if isinstance(name, str) else None

        def traced(*args, **kwargs):
            label = fixed if fixed is not None else name(args)
            parent = stack[-1] if stack else None
            frame = [label, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[label] += elapsed - frame[1]
                total_s[label] += elapsed
                calls[label] += 1
                if parent is None:
                    edges[("", label)] += 1
                else:
                    parent[1] += elapsed
                    edges[(parent[0], label)] += 1
            if hits and result is not None:
                hit[label] += 1
            return result

        return traced

    def counter(self, label: str, fn: Callable) -> Callable:
        """Return ``fn`` wrapped so that each call only bumps a count."""
        calls = self.calls

        def counted(*args, **kwargs):
            calls[label] += 1
            return fn(*args, **kwargs)

        return counted

    # ------------------------------------------------------------------
    # Class-level patching
    # ------------------------------------------------------------------

    def patch(
        self, cls: type, attr: str, make: Callable[[Callable], Callable]
    ) -> None:
        """Replace ``cls.attr`` and every subclass override of it.

        ``make(original)`` builds the wrapper.  Overrides are wrapped
        separately, so a subclass that later gains its own version of a
        traced method stays traced; a call that reaches the base through
        ``super()`` then nests one span inside another of the same
        label, which self time accounts for exactly.
        """
        found = False
        for klass in _family(cls):
            original = klass.__dict__.get(attr)
            if original is None:
                continue
            if not callable(original):
                raise TypeError(f"{klass.__name__}.{attr} is not a method")
            wrapper = make(original)
            setattr(wrapper, ORIGINAL, original)
            setattr(klass, attr, wrapper)
            self._patched.append((klass, attr, original))
            self.targets.append((klass, attr))
            found = True
        if not found:
            self.missing.append(f"{cls.__name__}.{attr}")

    def restore(self) -> None:
        """Put every original method back, newest patch first."""
        while self._patched:
            klass, attr, original = self._patched.pop()
            setattr(klass, attr, original)

    @contextmanager
    def installed(self, plan: Callable[["SpanTracer"], None]) -> Iterator[None]:
        """Apply ``plan(self)`` for the duration of the block."""
        try:
            plan(self)
            yield
        finally:
            self.restore()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def still_wrapped(self) -> List[str]:
        """``Class.attr`` of every patched target not yet restored."""
        return [
            f"{klass.__name__}.{attr}" for klass, attr in self.targets
            if hasattr(klass.__dict__.get(attr), ORIGINAL)
        ]

    def attributed_s(self) -> float:
        """Self time of all spans: the traced time inside any span."""
        return sum(self.self_s.values())

    def call_tree(self) -> List[Dict[str, Any]]:
        """One row per label: totals plus the labels that called it."""
        callers: Dict[str, Dict[str, int]] = defaultdict(dict)
        for (parent, label), n in self.edges.items():
            callers[label][parent or "<root>"] = n
        rows = []
        for label in sorted(self.calls):
            rows.append({
                "label": label,
                "calls": self.calls[label],
                "hits": self.hits.get(label, 0),
                "self_s": self.self_s.get(label, 0.0),
                "total_s": self.total_s.get(label, 0.0),
                "callers": dict(sorted(callers.get(label, {}).items())),
            })
        return rows


def _family(cls: type) -> List[type]:
    """``cls`` and all of its subclasses, each once, base first."""
    seen: List[type] = []
    todo = [cls]
    while todo:
        klass = todo.pop(0)
        if klass in seen:
            continue
        seen.append(klass)
        todo.extend(klass.__subclasses__())
    return seen
