"""In-memory spans around module functions, installed from outside the package.

A Tracer replaces module attributes with thin wrappers for the duration of a
`with` block and puts the originals back on exit. The package's callers look
functions up through their module at call time (``nn.forward``, or a module
global such as ``loss_and_gradients`` inside ``nn``), so every such call lands
in a wrapper without any change to the package itself.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

Note = Callable[[tuple, dict, Any], dict]


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: `module.attr`, recorded under `name`.

    `note`, when given, runs after a successful call and returns small facts
    about it (row counts, FLOPs, references the output checks need).
    """

    module: Any
    attr: str
    name: str
    note: Note | None = None


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    trace_id: int
    end: float = 0.0
    error: str | None = None
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records a span per call to each target while active.

    Spans are kept in `spans`, in start order; `parent` is the index of the
    enclosing span. All spans recorded between two `begin` calls share the
    trace id passed to the first.
    """

    def __init__(self, targets: Sequence[Target], clock: Callable[[], float] = time.perf_counter):
        self.targets = list(targets)
        self.clock = clock
        self.spans: list[Span] = []
        self.trace_id = 0
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def begin(self, trace_id: int) -> None:
        self.spans = []
        self.trace_id = trace_id

    def __enter__(self) -> "Tracer":
        try:
            for target in self.targets:
                original = getattr(target.module, target.attr)
                self._saved.append((target.module, target.attr, original))
                setattr(target.module, target.attr, self._wrap(original, target))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        stack, clock = self._stack, self.clock

        def wrapper(*args, **kwargs):
            spans = self.spans
            span = Span(target.name, 0.0, stack[-1] if stack else None, self.trace_id)
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = clock()
                span.error = type(exc).__name__
                raise
            finally:
                stack.pop()
            span.end = clock()
            if target.note is not None:
                span.info = target.note(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: list[list[Span]] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    return [span.duration - _covered(span, kids) for span, kids in zip(spans, children)]


def _covered(span: Span, kids: Iterable[Span]) -> float:
    total, reach = 0.0, span.start
    for kid in sorted(kids, key=lambda s: s.start):
        lo, hi = max(kid.start, reach), min(kid.end, span.end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total
