"""In-memory span tracer for the benchmark's traced runs.

The spans are recorded from the benchmark's side: each traced function
is replaced, in the module where its caller looks the name up, by a
wrapper that opens a span around the call.  Nothing in ``src/`` changes.

A span is ``(name, start, end, parent)``, where ``parent`` is the index
of the enclosing span in :attr:`Tracer.spans` (-1 at the top level).  A
layer's self time is the duration of its spans minus the part of that
interval covered by their child spans; the runs are single-threaded, so
child spans nest inside their parent and never overlap.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.open = defaultdict(int)  # layer name -> spans of it now open
        self._stack = []  # [span index, start, time covered by child spans]

    def span(self, name, fn, count=None):
        """``fn`` wrapped in a span named ``name``.

        ``count(args, result)``, when given, is called after each call
        that returns, to record the layer's work counters.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        self_s, counts, open_ = self.self_s, self.counts, self.open
        calls_key = name + ".calls"

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            frame = [index, clock(), 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            open_[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                open_[name] -= 1
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                self_s[name] += duration - frame[2]
                counts[calls_key] += 1
                spans[index] = (name, frame[1], end, parent)
            if count is not None:
                count(args, result)
            return result

        return traced

    def counter(self, key, fn):
        """``fn`` wrapped to count its calls under ``key``, without a span."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def write(self, path):
        """Write the spans as CSV lines ``name,start,end,parent``."""
        with open(path, "w") as handle:
            handle.write("name,start,end,parent\n")
            for name, start, end, parent in self.spans:
                handle.write(f"{name},{start:.9f},{end:.9f},{parent}\n")
