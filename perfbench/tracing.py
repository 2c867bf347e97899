"""In-memory span recorder that times dagformer from the outside.

A `Tracer` replaces functions and methods with timing wrappers. Each call
becomes one span: name, start, end, parent span and the fit it belongs to.
Spans stay in memory until the run writes them out. Nothing inside
dagformer is changed; the wrappers are removed by `uninstall`.
"""

import functools
import sys
import time
from contextlib import contextmanager

# fields of one span record, in order
SPAN_FIELDS = ("id", "name", "start", "end", "parent", "fit")

# span name for the benchmark's own counting work inside a traced call; it is
# a child span, so it never inflates the self time of the span around it
PROBE = "bench.probe"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.fit = None
        self.counts: dict[str, list] = {}
        self._open: list[int] = []
        self._patches: list[tuple] = []

    # -- spans ----------------------------------------------------------------

    def _begin(self, name: str) -> list:
        parent = self._open[-1] if self._open else None
        record = [len(self.spans), name, self.clock(), None, parent, self.fit]
        self.spans.append(record)
        self._open.append(record[0])
        return record

    def _finish(self, record: list):
        record[3] = self.clock()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        record = self._begin(name)
        try:
            yield record
        finally:
            self._finish(record)

    def count(self, name: str, value):
        """Record one observation of a counter for the current fit."""
        self.counts.setdefault(name, []).append((self.fit, value))

    # -- wrapping ---------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, before=None, after=None):
        """Time every call of owner.attr as a span called `name`.

        `owner` is a class or a module. For a module, every loaded dagformer
        module that imported the same function by name is patched as well,
        so calls through either name are seen. `before(tracer, args)` and
        `after(tracer, args, result)` run inside probe spans.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if before is not None:
                with tracer.span(PROBE):
                    before(tracer, args)
            record = tracer._begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._finish(record)
            if after is not None:
                with tracer.span(PROBE):
                    after(tracer, args, result)
            return result

        if isinstance(owner, type):
            targets = [owner]
        else:
            targets = [mod for mod_name, mod in list(sys.modules.items())
                       if mod_name.split(".")[0] == owner.__name__.split(".")[0]
                       and getattr(mod, attr, None) is original]
        for target in targets:
            self._patches.append((target, attr, original))
            setattr(target, attr, traced)

    def uninstall(self):
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)


def self_time(start: float, end: float, children) -> float:
    """Span duration minus the part of [start, end] its children cover.

    Overlapping children are counted once and child time outside the span
    is ignored.
    """
    covered = 0.0
    run_start = run_end = None
    for s, e in sorted((max(s, start), min(e, end)) for s, e in children):
        if e <= s:
            continue
        if run_end is None or s > run_end:
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = s, e
        else:
            run_end = max(run_end, e)
    if run_end is not None:
        covered += run_end - run_start
    return (end - start) - covered
