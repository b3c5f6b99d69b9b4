"""In-memory span recorder that wraps functions of the program under test.

The recorder lives in the benchmark, not in the program: it replaces a
module attribute (or class attribute) with a wrapper that records a span
around each call, and puts the original back when the tracer is closed.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 for a root
    op: int | str | None  # operation id shared by every span of one operation


def span_name(fn) -> str:
    """``<module>.<qualname>`` with the package prefix dropped, e.g. ``graphs.laplacian``."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


class Tracer:
    """Records a span around every call of the functions it wraps.

    Spans stay in memory until ``write``. Every span recorded while
    ``op`` is set carries that operation id. ``restore`` puts every
    wrapped attribute back to its original.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: int | str | None = None
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, observe=None) -> None:
        """Wrap ``owner.attr``; ``observe(args, kwargs, result)`` runs after the span closes."""
        original = getattr(owner, attr)
        name = span_name(original)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            result = self._record(name, original, args, kwargs)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        self._originals.append((owner, attr, original))
        setattr(owner, attr, traced)

    def _record(self, name, fn, args, kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, 0.0, 0.0, parent, self.op))  # placeholder keeps child order
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self.op)

    def restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the part of it that its child spans cover."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for span in self.spans:
            if span.parent >= 0:
                children[span.parent].append((span.start, span.end))
        result = []
        for index, span in enumerate(self.spans):
            covered, reach = 0.0, span.start
            for start, end in sorted(children.get(index, ())):
                start = max(start, reach)
                if end > start:
                    covered += end - start
                    reach = end
            result.append(span.end - span.start - covered)
        return result

    def write(self, path) -> None:
        """Write one JSON object per span: name, start, end, parent, op."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")
