"""In-memory span tracer that instruments a program from outside.

A span is (id, name, start_ns, end_ns, parent_id, run_id).  Spans are
opened by wrappers patched onto class methods or module attributes, kept in
memory and written out once at the end.  Counts recorded at the same
boundaries travel with them.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.spans = []
        self.counts = defaultdict(list)
        self._stack = []
        self._patches = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([sid, name, time.perf_counter_ns(), 0, parent, self.run_id])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][3] = time.perf_counter_ns()
        self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counts[name].append(float(value))

    # -- instrumentation -------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, hook=None) -> None:
        """Replace ``owner.attr`` by a traced version until :meth:`restore`.

        ``hook(args, kwargs, result)`` runs inside the span, so counting
        stays charged to the layer that is counted."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            sid = tracer.open(name)
            try:
                result = original(*args, **kwargs)
                if hook is not None:
                    hook(args, kwargs, result)
                return result
            finally:
                tracer.close(sid)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output -----------------------------------------------------------------

    def dump(self, path, **extra) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts), **extra}, fh)


def self_times_ns(spans) -> dict:
    """Span id -> duration minus the time covered by its direct children.

    Spans nest strictly within one process, so children never overlap."""
    child = defaultdict(int)
    for sid, _name, start, end, parent, _run in spans:
        if parent >= 0:
            child[parent] += end - start
    return {s[0]: (s[3] - s[2]) - child[s[0]] for s in spans}
