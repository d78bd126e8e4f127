"""In-memory spans and counters around calls into splitgnn's public functions.

The program is not edited: each function is replaced, for the length of a
traced run, by a wrapper installed on the object its caller looks it up
on (``models.metapath_edges``, not ``graph.metapath_edges``), so the wrapper
sees exactly the calls the program makes.  A span records its name, its
parent span, and its start and end; counters record work at the same
boundaries.  Spans stay in memory, and the run summarises them when it ends.
"""

from __future__ import annotations

import time
from collections import Counter

perf = time.perf_counter


class Tracer:
    """A span tree plus named counters, kept in memory for one process."""

    def __init__(self):
        # each span is [name, parent index or -1, start, end]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, perf(), 0.0])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][3] = perf()

    def wrap(self, owner, attr: str, name, count=None) -> None:
        """Time every call of ``owner.attr`` as a span.

        ``name`` is a span name or a function of the call's arguments that
        returns one; ``count`` is an optional ``(counter, fn(args))`` pair
        added to on every call.
        """
        orig = getattr(owner, attr)

        def traced(*args, **kwargs):
            if count is not None:
                self.counts[count[0]] += count[1](args)
            idx = self.open(name if isinstance(name, str) else name(args))
            try:
                return orig(*args, **kwargs)
            finally:
                self.close(idx)

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, orig))

    def count_calls(self, owner, attr: str, counter: str, amount) -> None:
        """Count work passed to ``owner.attr`` without opening a span; used
        for kernels called thousands of times per round."""
        orig = getattr(owner, attr)

        def counted(*args, **kwargs):
            self.counts[counter] += amount(args)
            return orig(*args, **kwargs)

        setattr(owner, attr, counted)
        self._restore.append((owner, attr, orig))

    def unwrap_all(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- reading -------------------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def roots(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[0] == name]

    def within(self, root: int) -> dict[str, list[float]]:
        """Per span name inside the span ``root`` (itself included, at every
        depth): ``[total seconds, self seconds, calls]``.  Self time is a
        span's duration minus the part its direct children cover."""
        end = self.spans[root][3]
        members = [root]
        child_time: dict[int, float] = {}
        for i in range(root + 1, len(self.spans)):
            _, parent, start, stop = self.spans[i]
            if start > end:
                break
            members.append(i)
            child_time[parent] = child_time.get(parent, 0.0) + (stop - start)
        out: dict[str, list[float]] = {}
        for i in members:
            name, _, start, stop = self.spans[i]
            acc = out.setdefault(name, [0.0, 0.0, 0])
            acc[0] += stop - start
            acc[1] += stop - start - child_time.get(i, 0.0)
            acc[2] += 1
        return out
