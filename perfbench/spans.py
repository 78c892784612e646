"""In-memory span recorder for the traced run.

Spans are recorded from outside the package: ``instrument`` replaces public
functions on ebfkit's modules with wrappers for the length of a ``with``
block, so calls the package makes to its own modules (``ebf_t`` calling
``t_expected_bias``, ``multi_ebf`` calling the mixture kernel) are caught
too.  Nothing under ``src/`` changes.  Each span holds a name, start, end,
parent span and op id; ``self_times`` derives each layer's self time from
them: the span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: str | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op: str | None = None
        self.enabled = True
        self._t0 = time.perf_counter()

    @contextmanager
    def paused(self):
        """Run the enclosed block without recording (the output checks)."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    @contextmanager
    def span(self, name, **attrs):
        """Record the enclosed block as one span; yields its attrs dict."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op, attrs))
        self._stack.append(index)
        try:
            yield attrs
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def wrap(self, fn, name, label=None, after=None):
        """A wrapper recording each call of ``fn``.  ``label(args, kwargs)``
        may return a suffix for the span name; ``after(result, attrs)`` may
        add attributes from the result."""
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            full = name if label is None else f"{name}.{label(args, kwargs)}"
            with self.span(full) as attrs:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, attrs)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def children(self) -> dict[int, list[int]]:
        kids = defaultdict(list)
        for i, s in enumerate(self.spans):
            if s.parent is not None:
                kids[s.parent].append(i)
        return kids

    def self_times(self) -> dict[str, dict]:
        """Per span name: calls, total time and self time, in seconds."""
        kids = self.children()
        out: dict[str, dict] = {}
        for i, s in enumerate(self.spans):
            covered = sum(self.spans[k].duration for k in kids.get(i, ()))
            row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s.duration
            row["self_s"] += s.duration - covered
        return out

    def has_descendant(self, index, predicate) -> bool:
        kids = self.children()
        todo = list(kids.get(index, ()))
        while todo:
            k = todo.pop()
            if predicate(self.spans[k]):
                return True
            todo.extend(kids.get(k, ()))
        return False

    def durations(self, name, where=None) -> list[float]:
        return [s.duration for i, s in enumerate(self.spans)
                if s.name == name and (where is None or where(i, s))]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "start": s.start - self._t0, "end": s.end - self._t0,
                    "parent": s.parent, "op": s.op, **s.attrs}) + "\n")


@contextmanager
def instrument(recorder: Recorder, targets):
    """Patch ``(owner, attribute, span name, label, after)`` targets with
    recording wrappers; restore the originals on exit."""
    saved = []
    try:
        for owner, attr, name, label, after in targets:
            raw = vars(owner)[attr]  # keeps a class's staticmethod wrapper
            saved.append((owner, attr, raw))
            wrapper = recorder.wrap(getattr(owner, attr), name, label, after)
            setattr(owner, attr, staticmethod(wrapper) if isinstance(raw, staticmethod)
                    else wrapper)
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
