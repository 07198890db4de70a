"""Host-clock spans recorded from outside the program.

The benchmark never edits the package under test.  It times layers by
replacing public callables at the attribute their callers look up
(a module global such as ``repro.backends.fast.nm_spmm_fast``, or a
class attribute such as ``NMSpMM.execute``) with a wrapper that opens
a span, calls the original, and closes the span.  :func:`instrument`
undoes every replacement on exit, also when the body raises.

Spans nest by call order: the span open when a wrapped callable is
entered is its parent.  A span's self time is its duration minus the
time its direct children cover; the process is single-threaded, so
children never overlap and that cover is their summed duration.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence, Union

__all__ = [
    "Span",
    "SpanStats",
    "SpanRecorder",
    "Target",
    "instrument",
    "self_times",
]

#: A span name, or a function of the wrapped call's positional
#: arguments that returns one (used to split one class attribute into
#: per-instance spans, e.g. one span name per layer kind).
SpanName = Union[str, Callable[..., str]]


@dataclass(frozen=True)
class Span:
    """One finished span (kept only when the recorder retains spans)."""

    span_id: int
    name: str
    parent_id: "int | None"
    start_ns: int
    end_ns: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


@dataclass
class SpanStats:
    """Running totals of every span with one name."""

    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0

    @property
    def mean_us(self) -> float:
        return self.total_ns / self.calls / 1e3 if self.calls else 0.0


@dataclass
class _Frame:
    span_id: int
    child_ns: int = 0


@dataclass
class SpanRecorder:
    """Aggregates spans by name; optionally keeps every span.

    ``keep`` retains each :class:`Span` for inspection (the tests check
    nesting and self-time closure on them).  Benchmark runs leave it
    off: the simulator workloads open millions of spans, so only the
    per-name :class:`SpanStats` are kept.
    """

    keep: bool = False
    stats: "dict[str, SpanStats]" = field(default_factory=dict)
    spans: "list[Span]" = field(default_factory=list)
    #: Summed duration of spans opened with no parent.
    root_ns: int = 0
    #: Free-form counters that wrappers add to (computed work counts).
    counters: "dict[str, float]" = field(default_factory=dict)
    _stack: "list[_Frame]" = field(default_factory=list)
    _next_id: int = 0

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        parent = self._stack[-1] if self._stack else None
        frame = _Frame(self._next_id)
        self._next_id += 1
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            duration = end - start
            stats = self.stats.get(name)
            if stats is None:
                stats = self.stats[name] = SpanStats()
            stats.calls += 1
            stats.total_ns += duration
            stats.self_ns += duration - frame.child_ns
            if parent is None:
                self.root_ns += duration
            else:
                parent.child_ns += duration
            if self.keep:
                self.spans.append(
                    Span(
                        frame.span_id,
                        name,
                        None if parent is None else parent.span_id,
                        start,
                        end,
                    )
                )

    def wrap(self, name: SpanName, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with every call recorded as a span."""
        if isinstance(name, str):
            label = name

            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                return self.call(label, fn, *args, **kwargs)

        else:
            namer = name

            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                return self.call(namer(*args), fn, *args, **kwargs)

        return wrapper

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0.0) + value

    def get(self, name: str) -> SpanStats:
        """Totals for ``name`` (all zero when it never ran)."""
        return self.stats.get(name, SpanStats())

    def matching(self, prefix: str) -> SpanStats:
        """Totals summed over every span name starting with ``prefix``."""
        out = SpanStats()
        for name, stats in self.stats.items():
            if name.startswith(prefix):
                out.calls += stats.calls
                out.total_ns += stats.total_ns
                out.self_ns += stats.self_ns
        return out

    @property
    def total_self_ns(self) -> int:
        return sum(stats.self_ns for stats in self.stats.values())


@dataclass(frozen=True)
class Target:
    """One callable to wrap: ``owner.attr`` (a module or a class)."""

    owner: Any
    attr: str
    name: SpanName
    #: Optional replacement factory ``(recorder, original) -> callable``
    #: for wrappers that also add counters; the default is
    #: ``recorder.wrap(name, original)``.
    factory: "Callable[[SpanRecorder, Callable[..., Any]], Callable[..., Any]] | None" = None


@contextlib.contextmanager
def instrument(
    recorder: SpanRecorder, targets: Sequence[Target]
) -> Iterator[SpanRecorder]:
    """Wrap every target for the duration of the block."""
    saved: "list[tuple[Any, str, bool, Any]]" = []
    try:
        for target in targets:
            owner, attr = target.owner, target.attr
            own = attr in vars(owner)
            original = vars(owner)[attr] if own else None
            current = getattr(owner, attr)
            if target.factory is not None:
                replacement = target.factory(recorder, current)
            else:
                replacement = recorder.wrap(target.name, current)
            setattr(owner, attr, replacement)
            saved.append((owner, attr, own, original))
        yield recorder
    finally:
        for owner, attr, own, original in reversed(saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def self_times(spans: Sequence[Span]) -> "dict[int, int]":
    """Self time of each kept span, from interval arithmetic alone:
    duration minus the union of its direct children's intervals."""
    children: "dict[int, list[Span]]" = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
    out: "dict[int, int]" = {}
    for span in spans:
        covered = 0
        cursor = span.start_ns
        for child in sorted(children.get(span.span_id, ()), key=lambda s: s.start_ns):
            lo = max(child.start_ns, cursor)
            hi = min(child.end_ns, span.end_ns)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.span_id] = span.duration_ns - covered
    return out
