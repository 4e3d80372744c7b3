"""Estimators and the span tracer the benchmark measures with.

Every workload is deterministic: cycle *i* of a batch run, and
transaction *i* of the serve stream, do the same work in every
repetition.  Host speed drifts by tens of percent within a minute, and
drift can only add time to a unit, never take it away.  So a timing is
the *minimum* of the same unit across the repetitions of one run, and
a latency distribution is built from per-unit minima, not from pooled
samples.
"""

from __future__ import annotations

import multiprocessing
import resource
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from itertools import count
from time import perf_counter
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

#: Samples a tail percentile must leave above it.
TAIL_BEYOND = 10
#: Repetitions a run makes however short its time budget.
MIN_REPS = 3


def unit_minima(reps: Sequence[Mapping[Hashable, float]]) -> Dict[Hashable, float]:
    """Per-unit minimum across repetitions.

    Each repetition maps a unit key (a cycle number, or a
    connection/session/transaction triple) to its time.  A unit that
    failed in some repetition is absent from it and is judged only on
    the repetitions where it completed.
    """
    best: Dict[Hashable, float] = {}
    for rep in reps:
        for key, value in rep.items():
            if key not in best or value < best[key]:
                best[key] = value
    return best


def tail(samples: Sequence[float]) -> Tuple[float, float]:
    """The highest nearest-rank percentile with ``TAIL_BEYOND`` samples
    above it: returns ``(value, percentile)``.

    With nearest rank, percentile ``p`` of ``n`` samples is the sample
    at rank ``ceil(n * p / 100)``; the highest ``p`` whose rank leaves
    ten samples beyond it is ``100 * (n - 10) / n``.
    """
    n = len(samples)
    if n <= TAIL_BEYOND:
        raise ValueError(
            f"a tail needs more than {TAIL_BEYOND} samples, got {n}"
        )
    rank = n - TAIL_BEYOND
    return sorted(samples)[rank - 1], 100.0 * rank / n


def another_rep(started: float, seconds: float, reps: int) -> bool:
    """Whether to start another repetition: always below ``MIN_REPS``,
    then while one as long as the average so far ends within
    ``seconds`` of ``started``."""
    if reps < MIN_REPS:
        return True
    elapsed = perf_counter() - started
    return elapsed + elapsed / reps <= seconds


def workers_peak_kb() -> int:
    """Sum of the live child processes' peak resident set (VmHWM).

    Forked match processes share the control process's pages copy on
    write; each process's figure counts the shared pages it maps.
    """
    total = 0
    for proc in multiprocessing.active_children():
        try:
            with open(f"/proc/{proc.pid}/status", encoding="ascii") as fh:
                total += next(int(line.split()[1]) for line in fh
                              if line.startswith("VmHWM:"))
        except (OSError, StopIteration):
            pass  # the process ended, or the platform has no procfs
    return total


def peak_rss_mb(workers_kb: int) -> float:
    """Peak resident memory of this process plus its match processes."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (self_kb + workers_kb) / 1024


class NoTrace:
    """The untraced run: spans cost nothing and nothing is patched."""

    def span(self, name: str):
        return nullcontext()

    def patch(self, owner, attr: str, name: str, note=None) -> None:
        pass

    def unpatch(self) -> None:
        pass


NO_TRACE = NoTrace()


class Tracer:
    """Spans around calls into the program's layers, kept in memory.

    A span is ``(id, name, start, end, parent id, tag)``.  Calls are
    timed from outside: :meth:`patch` replaces a public function or
    method with a wrapper that opens a span around it, and
    :meth:`unpatch` restores every original.  Spans nest on one stack,
    so a wrapped call must not be open across an ``await``; the
    program's layer calls are all synchronous, and only the root span
    of a serve stream spans awaits.

    A layer's self time is its span time minus the time of the spans
    nested directly inside it.
    """

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self._stack: List[list] = []
        self._ids = count(1)
        self._undo: List[tuple] = []

    def _open(self) -> list:
        parent = self._stack[-1][0] if self._stack else None
        frame = [next(self._ids), parent, 0.0, perf_counter()]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, name: str, tag) -> None:
        end = perf_counter()
        self._stack.pop()
        sid, parent, child_s, start = frame
        took = end - start
        self.spans.append((sid, name, start, end, parent, tag))
        self.total_s[name] += took
        self.self_s[name] += took - child_s
        if self._stack:
            self._stack[-1][2] += took

    @contextmanager
    def span(self, name: str):
        frame = self._open()
        try:
            yield
        finally:
            self._close(frame, name, None)

    def wrap(self, name: str, fn: Callable, note: Optional[Callable] = None) -> Callable:
        """``fn`` inside a span; ``note(*args)`` becomes the span's tag."""
        def traced(*args, **kwargs):
            tag = note(*args, **kwargs) if note is not None else None
            frame = self._open()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame, name, tag)

        return traced

    def patch(self, owner, attr: str, name: str, note: Optional[Callable] = None) -> None:
        """Trace ``owner.attr`` (a module function, a class's method or
        static method, or an instance's bound method) until
        :meth:`unpatch`."""
        raw = vars(owner)[attr] if attr in vars(owner) else getattr(owner, attr)
        if isinstance(raw, staticmethod):
            replacement = staticmethod(self.wrap(name, raw.__func__, note))
        else:
            replacement = self.wrap(name, raw, note)
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, raw))

    def unpatch(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def named(self, name: str) -> List[tuple]:
        return [s for s in self.spans if s[1] == name]

    def durations(self, name: str) -> List[float]:
        return [s[3] - s[2] for s in self.spans if s[1] == name]
