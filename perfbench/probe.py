"""Spans at the program's layer boundaries, recorded from outside the program.

A probe replaces a function under the name its callers look it up by (a
module global such as ``pess.heuristic.place_on_path``, or a class attribute
such as ``NetworkState.release``) with a wrapper that times the call. Spans
nest: a span's self time is its duration minus the time of the spans it
called. An ``after`` hook runs outside the span once the call returns; the
benchmark's correctness checks run there, at the root of the span stack, and
their time is subtracted from the timed phase, so checks count in no metric.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter


class Probe:
    def __init__(self) -> None:
        # One child-time accumulator per open span; the bottom one belongs
        # to the benchmark's own loop (the root).
        self.frames: list[list[float]] = [[0.0]]
        self.calls: Counter = Counter()
        self.seconds: Counter = Counter()
        self.self_seconds: Counter = Counter()
        self.excluded = 0.0
        self.active = False
        self.phase_start = 0.0

    def span(self, name: str, fn, after=None, tally=None):
        """Wrap ``fn`` so each call records span ``name``; ``after(result,
        elapsed, args, kwargs)`` runs once the span has closed, and
        ``tally(result)`` may name one more counter to increment."""
        frames = self.frames

        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                frames.pop()
                frames[-1][0] += elapsed
                if self.active:
                    self.calls[name] += 1
                    self.seconds[name] += elapsed
                    self.self_seconds[name] += elapsed - frame[0]
            if tally is not None and self.active:
                extra = tally(result)
                if extra is not None:
                    self.calls[extra] += 1
            if after is not None:
                hook_start = perf_counter()
                after(result, elapsed, args, kwargs)
                spent = perf_counter() - hook_start
                self.excluded += spent
                frames[-1][0] += spent
            return result

        return wrapper

    def install(self, owner, attr: str, name: str, after=None, tally=None) -> None:
        setattr(owner, attr, self.span(name, getattr(owner, attr), after, tally))

    def exclude(self, seconds: float) -> None:
        """Account check time spent by the caller outside any wrapper."""
        self.excluded += seconds
        self.frames[-1][0] += seconds

    # -- timed phases -------------------------------------------------------

    def start_phase(self) -> None:
        self.calls.clear()
        self.seconds.clear()
        self.self_seconds.clear()
        self.frames[0][0] = 0.0
        self.excluded = 0.0
        self.active = True
        self.phase_start = perf_counter()

    def end_phase(self) -> dict:
        """Close the timed phase; returns its wall time without checks, and
        the root loop's own share of it."""
        wall = perf_counter() - self.phase_start - self.excluded
        self.active = False
        return {
            "timed_s": wall,
            "root_self_s": wall - (self.frames[0][0] - self.excluded),
            "calls": Counter(self.calls),
            "seconds": Counter(self.seconds),
            "self_seconds": Counter(self.self_seconds),
        }
