"""Span recording for the traced run.

The traced run wraps, from outside the program, the names the pipeline
calls into each layer.  A wrapper records a span (name, start, end,
parent) while recording is on and is a plain pass-through otherwise, so
the benchmark's own checks between timed stages leave no spans.  A name
that no longer exists is reported as absent instead of failing the run.
"""
from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.recording = False
        self.absent: set[str] = set()
        self.wrapped: set[str] = set()
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, owner: object, attr: str, name: str,
             on_result: Callable[[tuple, object], None] | None = None) -> None:
        """Replace `owner.attr` (a module or class attribute) by a
        recording wrapper; `on_result(args, result)` sees every call."""
        fn = getattr(owner, attr, None)
        if not callable(fn):
            self.absent.add(name)
            return
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, fn))
        self.wrapped.add(name)

    def unwrap_all(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def clear(self) -> None:
        self.spans.clear()

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per span name: total time, self time (minus direct children)
        and number of calls."""
        total: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for name, start, end, parent in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _) in enumerate(self.spans):
            own[name] += end - start - child[idx]
        return dict(total), dict(own), dict(calls)
