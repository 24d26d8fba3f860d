"""In-memory call tracer that instruments a program from outside.

A ``Tracer`` replaces functions at the names where callers look them up
(a module global or a class attribute) with thin wrappers.  Each wrapper
counts calls and keeps inclusive and self time: a stack of per-frame
child time lets self time exclude the time spent inside other wrapped
functions.  Wrappers marked as phases also record a span (name, parent
span, start, end).  Nothing is written until ``to_dict`` is called at
the end of a run; ``restore`` puts every original back.
"""

import contextlib
import functools
import time

_clock = time.perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.stats: dict = {}  # name -> [calls, total_ns, self_ns]
        self.spans: list = []  # [name, parent index or None, start_ns, end_ns]
        self._child_ns = [0]  # child time of each active wrapped frame
        self._open_spans: list = []
        self._patches: list = []  # (owner, attribute, original raw value)
        self.origin_ns = _clock()

    # -- wrapping -----------------------------------------------------------

    def wrap(self, name: str, fn, phase: bool = False):
        """Return ``fn`` wrapped so its calls accumulate under ``name``.

        Several functions may share one name; their figures add up.
        """
        stat = self.stats.setdefault(name, [0, 0, 0])
        child_ns = self._child_ns

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            child_ns.append(0)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                inner = child_ns.pop()
                child_ns[-1] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - inner

        if not phase:
            return timed
        span = self.span

        @functools.wraps(fn)
        def phased(*args, **kwargs):
            with span(name):
                return timed(*args, **kwargs)

        return phased

    def patch(self, owner, attribute: str, name: str, phase: bool = False) -> None:
        """Replace ``owner.attribute`` (module global or class attribute)
        with a traced wrapper; class- and static methods stay what they are."""
        raw = vars(owner)[attribute]
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(self.wrap(name, raw.__func__, phase))
        else:
            replacement = self.wrap(name, raw, phase)
        self._patches.append((owner, attribute, raw))
        setattr(owner, attribute, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attribute, raw = self._patches.pop()
            setattr(owner, attribute, raw)

    # -- spans --------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span nested under the innermost open span."""
        parent = self._open_spans[-1] if self._open_spans else None
        record = [name, parent, _clock(), None]
        self._open_spans.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[3] = _clock()
            self._open_spans.pop()

    # -- results ------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0, 0))[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0, 0))[2] / 1e9

    def total_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0, 0))[1] / 1e9

    def to_dict(self) -> dict:
        return {
            "functions": {
                name: {"calls": c, "total_s": t / 1e9, "self_s": s / 1e9}
                for name, (c, t, s) in sorted(self.stats.items())
            },
            "spans": [
                {
                    "name": name,
                    "parent": parent,
                    "start_s": (start - self.origin_ns) / 1e9,
                    "end_s": None if end is None else (end - self.origin_ns) / 1e9,
                }
                for name, parent, start, end in self.spans
            ],
        }
