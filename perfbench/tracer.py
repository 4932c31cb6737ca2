"""In-memory span tracing around the program's public functions.

The benchmark wraps functions of the program from its own files: every
module attribute bound to a target function is rebound to a wrapper that
opens a span, calls the original and closes the span, and ``uninstall``
puts the originals back. Spans stay in memory until the run ends.

A span is (name, start, end, parent, op, n): ``name`` is ``layer.function``,
``parent`` the index of the enclosing span (-1 at the root), ``op`` the id of
the CLI command or request it belongs to, and ``n`` a work count (windows,
for instance) filled in after the span closes. Audit phase transitions form a
second track of spans named ``phase.<phase>``, which overlap the call tree
freely and are therefore kept out of self-time accounting.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "pipeline", "data", "model", "losses", "clustering",
          "calibration", "baselines")


class Span(list):
    """[name, start, end, parent, op, n] with named accessors."""

    __slots__ = ()
    name = property(lambda s: s[0])
    start = property(lambda s: s[1])
    end = property(lambda s: s[2])
    parent = property(lambda s: s[3])
    op = property(lambda s: s[4])
    n = property(lambda s: s[5])


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.open_names: Counter = Counter()
        self.counters: Counter = Counter()
        self.errors: Counter = Counter()
        self.op = None
        self.active = False  # spans are recorded only inside run_op
        self._phases: dict[int, int] = {}
        self._restore: list[tuple[object, str, object]] = []

    # spans ------------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span([name, self.clock(), None, parent, self.op, 0]))
        self.stack.append(idx)
        self.open_names[name] += 1
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = self.clock()
        popped = self.stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {span.name} closed out of order")
        self.open_names[span.name] -= 1

    def phase(self, key: int, phase: str) -> None:
        """Close the open phase span of audit ``key`` and open ``phase``."""
        now = self.clock()
        if key in self._phases:
            self.spans[self._phases[key]][2] = now
        self._phases[key] = len(self.spans)
        self.spans.append(Span([f"phase.{phase}", now, None, -1, self.op, 0]))

    def close_phases(self) -> None:
        now = self.clock()
        for idx in self._phases.values():
            self.spans[idx][2] = now
        self._phases.clear()

    def run_op(self, op: str, fn, *args, **kwargs):
        """Run one command or request as the root span ``cli.main``."""
        self.op, self.active = op, True
        idx = self.open("cli.main")
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)
            self.close_phases()
            self.op, self.active = None, False

    # wrapping ---------------------------------------------------------------

    def wrap(self, fn, name: str, work=None, observe=None):
        """Wrapper around ``fn`` that records a span named ``name``.

        ``work(args, result)`` gives the span's work count and
        ``observe(tracer, args, result)`` updates counters; both run after the
        span has closed, with ``args`` bound to ``fn``'s parameter names.
        """
        sig = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(idx)
                tracer.errors[(name, type(exc).__name__)] += 1
                raise
            tracer.close(idx)
            if work is not None or observe is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                if work is not None:
                    tracer.spans[idx][5] = work(bound.arguments, result)
                if observe is not None:
                    observe(tracer, bound.arguments, result)
            return result

        return traced

    def patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def rebind(self, modules, old, new) -> int:
        """Point every module attribute bound to ``old`` at ``new``."""
        hits = 0
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is old:
                    self.patch(mod, attr, new)
                    hits += 1
        return hits

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    # aggregation ------------------------------------------------------------

    def totals(self):
        """Per span name: (calls, total seconds, total work)."""
        calls, secs, work = Counter(), defaultdict(float), Counter()
        for s in self.spans:
            calls[s.name] += 1
            secs[s.name] += s.end - s.start
            work[s.name] += s.n
        return calls, secs, work

    def self_times(self) -> dict[str, float]:
        """Per layer: span durations minus the time covered by child spans.

        Calls are single-threaded and nested, so a span's children cover
        disjoint intervals inside it and their durations simply add up.
        """
        child = defaultdict(float)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out = {layer: 0.0 for layer in LAYERS}
        for i, s in enumerate(self.spans):
            if s.name.startswith("phase."):
                continue
            layer = s.name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (s.end - s.start) - child[i]
        return out

    def write_csv(self, path: str) -> None:
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("id,name,start_us,end_us,parent,op,n\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s.name},{(s.start - t0) * 1e6:.1f},"
                         f"{(s.end - t0) * 1e6:.1f},{s.parent},{s.op},{s.n}\n")
