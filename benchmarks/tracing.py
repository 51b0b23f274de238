"""Span recorder for the traced benchmark run.

Spans are taken at module boundaries from the benchmark's own code:
`Recorder.installed` rebinds public names in a calling module (say
`twrelay.cli.solve_switching`) to a timing wrapper and puts the originals
back on exit. The program itself is not edited. Spans stay in memory as
small lists and are written out when the run ends.

A span is `[name, parent, start, end, payload]`: `name` is
"layer.function", `parent` the index of the enclosing span (-1 for a
root), times are `perf_counter` seconds, and `payload` holds
`(args, kwargs, result)` for boundaries installed with `keep=True`, or
the exception when the call raised. Calls run on one thread, so the
child spans of a span never overlap and its self time is its duration
minus the sum of its direct children's durations.
"""

from __future__ import annotations

import contextlib
from time import perf_counter

NAME, PARENT, START, END, PAYLOAD = range(5)


class Recorder:
    """Collects the spans of one traced op at a time."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def reset(self) -> list[list]:
        """Hand over the spans recorded so far and start an empty list."""
        spans, self.spans = self.spans, []
        return spans

    def wrap(self, name: str, fn, keep: bool = False):
        """`fn` with a span named `name` around every call."""
        rec = self
        stack = self._stack

        def traced(*args, **kwargs):
            spans = rec.spans  # reset() swaps the list, so look it up per call
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
                if keep:
                    span[PAYLOAD] = (args, kwargs, out)
                return out
            except Exception as err:
                span[PAYLOAD] = err
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self, boundaries):
        """Rebind each `(module, attr, span_name, keep)` boundary while inside."""
        saved = []
        try:
            for module, attr, name, keep in boundaries:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, keep))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def duration(span: list) -> float:
    return span[END] - span[START]


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += duration(s)
    return [duration(s) - c for s, c in zip(spans, child)]


def layer(span: list) -> str:
    return span[NAME].split(".", 1)[0]


def compact(spans: list[list]) -> dict:
    """JSON-ready form: span names once, times relative to the first span."""
    names = sorted({s[NAME] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    t0 = spans[0][START] if spans else 0.0
    rows = [[index[s[NAME]], s[PARENT], round(s[START] - t0, 9), round(s[END] - t0, 9),
             isinstance(s[PAYLOAD], Exception)] for s in spans]
    return {"names": names, "columns": ["name", "parent", "start_s", "end_s", "raised"],
            "spans": rows}
