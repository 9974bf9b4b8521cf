"""In-memory spans around calls into fdmud's modules, for the traced run.

A span records (id, parent id, op id, name, start, end).  Spans are opened
either by benchmark code around a call (``Tracer.span``) or by a wrapper
installed over a public function at the name its calling module looks up
(``Tracer.patch``), e.g. ``fdmud.detect.invert_hpd``.  Nothing under ``src/``
is edited; ``Tracer.restore`` puts every original function back.

A span's self time is its duration minus the durations of its direct
children, so the self times of one op add up to the op's root span.
"""

from __future__ import annotations

import csv
import time
from collections import defaultdict
from contextlib import nullcontext

_NULL = nullcontext()


class NullTracer:
    """Tracing off: spans and counts cost one attribute lookup and a no-op."""

    op = -1

    def span(self, name: str):
        return _NULL

    def count(self, key: str, n: int) -> None:
        pass


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op = -1  # op id of the spans opened now; -1 outside timed ops
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter_ns()

    def _open(self) -> tuple[int, int]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid: int, parent: int, name: str, start: int) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans.append((sid, parent, self.op, name, start, end))

    def span(self, name: str):
        return _Span(self, name)

    def count(self, key: str, n: int) -> None:
        if self.op >= 0:
            self.counts[key] += n

    def patch(self, module, attr: str, name: str, count=None) -> None:
        """Replace ``module.attr`` by a wrapper that records a span ``name``.

        ``name`` may be a function of the call's positional arguments.
        ``count(args, result)`` returns a ``(key, n)`` to add to the counts.
        """
        original = getattr(module, attr)
        tracer = self

        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            sid, parent = tracer._open()
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(sid, parent, label, start)
            if count is not None:
                tracer.count(*count(args, result))
            return result

        self._patched.append((module, attr, original))
        setattr(module, attr, traced)

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _self_times(self):
        """Yield (op, name, self ns, inclusive ns) for every span of a timed op."""
        child_ns: dict[int, int] = defaultdict(int)
        for sid, parent, op, name, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for sid, parent, op, name, start, end in self.spans:
            if op >= 0:
                yield op, name, end - start - child_ns[sid], end - start

    def per_name(self) -> dict[str, dict[str, int]]:
        """Total self ns, inclusive ns and calls per span name, over timed ops."""
        out: dict[str, dict[str, int]] = defaultdict(lambda: {"self": 0, "incl": 0, "calls": 0})
        for op, name, self_ns, incl_ns in self._self_times():
            row = out[name]
            row["self"] += self_ns
            row["incl"] += incl_ns
            row["calls"] += 1
        return dict(out)

    def self_ns_by_op(self, exclude: str) -> dict[int, int]:
        """Summed self time of each op's spans, leaving out spans named ``exclude``."""
        totals: dict[int, int] = defaultdict(int)
        for op, name, self_ns, _ in self._self_times():
            if name != exclude:
                totals[op] += self_ns
        return dict(totals)

    def write_csv(self, path, workload: str, mode: str = "w") -> None:
        with open(path, mode, newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            if mode == "w":
                writer.writerow(["workload", "op", "span", "parent", "name", "start_ns", "end_ns"])
            for sid, parent, op, name, start, end in self.spans:
                writer.writerow([workload, op, sid, parent, name, start - self._t0, end - self._t0])


class _Span:
    __slots__ = ("tracer", "name", "sid", "parent", "start")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.sid, self.parent = self.tracer._open()
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.sid, self.parent, self.name, self.start)
        return False
