"""In-memory spans recorded around calls into fracou's layers.

A span is (name, trace_id, parent, start, end).  The layer of a span is the
part of its name before the first dot (`fbm.sample_circulant` -> `fbm`); the
replay root is named `op` and its self time is the benchmark's own glue.
Spans nest through a stack, so a span's parent is the innermost open span.
"""

import contextlib
import json
import time
from collections import defaultdict

_NULL = contextlib.nullcontext()


class NullTracer:
    """Records nothing; used for the untraced end-to-end run."""

    enabled = False

    def span(self, name, trace_id):
        return _NULL

    def count(self, name, value=1):
        pass


class Tracer:
    """Keeps every span and counter in memory until the run ends."""

    enabled = True

    def __init__(self):
        self.spans = []  # [name, trace_id, parent_index, start, end]
        self.counters = defaultdict(float)
        self._stack = []

    @contextlib.contextmanager
    def span(self, name, trace_id):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, trace_id, parent, time.perf_counter(), None]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[4] = time.perf_counter()
            self._stack.pop()

    def count(self, name, value=1):
        self.counters[name] += value

    def durations(self, name):
        return [s[4] - s[3] for s in self.spans if s[0] == name]

    def self_times(self):
        """Self time of every span: its duration minus its children's."""
        out = [s[4] - s[3] for s in self.spans]
        for s in self.spans:
            if s[2] >= 0:
                out[s[2]] -= s[4] - s[3]
        return out

    def layer_self_seconds(self, root="op"):
        """Total self time per layer over the subtrees rooted at `root` spans."""
        selfs = self.self_times()
        under_root = [False] * len(self.spans)
        totals = defaultdict(float)
        for i, s in enumerate(self.spans):
            parent = s[2]
            under_root[i] = s[0] == root or (parent >= 0 and under_root[parent])
            if under_root[i]:
                layer = "bench" if s[0] == root else s[0].split(".", 1)[0]
                totals[layer] += selfs[i]
        return dict(totals)

    def dump(self, dest, provenance):
        """Write provenance, counters and every span as JSON lines."""
        with open(dest, "w") as fh:
            fh.write(json.dumps({"provenance": provenance, "counters": self.counters}) + "\n")
            for name, trace_id, parent, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "id": trace_id, "parent": parent,
                         "start": start, "end": end}
                    )
                    + "\n"
                )
