"""Schedule policies: who gets the turn at each yield point.

A policy sees the name-sorted list of parked threads with the yield
label each is parked at, and returns the thread to run next.  All
policies are deterministic functions of their seed and the decision
sequence, which (thanks to the scheduler's start gate) is itself
deterministic — so a seed fully pins a schedule.

Three families, per the harness design:

* :class:`SeededRandomPolicy` — uniform random over runnable threads;
  the workhorse for broad differential fuzzing.
* :class:`PCTPolicy` — PCT-style random priorities (Burckhardt et al.,
  "A Randomized Scheduler with Probabilistic Guarantees of Finding
  Bugs"): run the highest-priority runnable thread, demoting the
  leader at ``depth - 1`` pre-sampled change points.  Finds
  ordering bugs that need a specific small number of preemptions with
  much higher probability than uniform random.
* :class:`AdversarialPolicy` — targeted schedules keyed on yield
  labels: delay the ``+`` twin of every conjugate pair
  (``delay-plus``), delay every delete (``delay-deletes``, the
  deep-chain blow-up trigger), starve quiescence detection
  (``starve-quiescence``), or starve one match process
  (``starve-worker``).
* :class:`BurstPolicy` — timeslice emulation (``burst:<quantum>``):
  each thread runs a long run of consecutive decisions, the shape a
  preemptive interpreter actually produces.

Every policy carries the same livelock guard: a thread parked at a
*waiting* label (spin, idle, quiescence poll — see
:data:`repro.parallel.hooks.WAIT_LABELS`) is never chosen more than
``patience`` times in a row while a non-waiting thread is runnable,
since a waiting thread cannot make progress until somebody else does.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from ..parallel.hooks import WAIT_LABELS

Runnable = List[Tuple[str, str]]  # name-sorted (thread name, yield label)


class _GuardMixin:
    """Shared deterministic anti-livelock bookkeeping.

    After ``patience`` consecutive choices of threads parked at waiting
    labels, the guard overrides the policy: it picks a non-waiting
    thread if one exists, else rotates round-robin through the waiting
    set — so even a policy that would fixate on one spinning thread
    (e.g. PCT's priority leader polling an empty queue) makes global
    progress, deterministically.
    """

    patience = 8

    def __init__(self) -> None:
        self._wait_streak = 0
        self._rotor = 0

    def _guard(self, runnable: Runnable, choice: Tuple[str, str]) -> Tuple[str, str]:
        name, label = choice
        if label not in WAIT_LABELS:
            self._wait_streak = 0
            return choice
        self._wait_streak += 1
        if self._wait_streak <= self.patience:
            return choice
        busy = [r for r in runnable if r[1] not in WAIT_LABELS]
        pool = busy or runnable
        self._rotor += 1
        return pool[self._rotor % len(pool)]


class SeededRandomPolicy(_GuardMixin):
    """Uniform random choice over the runnable set."""

    def __init__(self, seed: int) -> None:
        super().__init__()
        self.name = "random"
        self.rng = random.Random(seed)

    def choose(self, runnable: Runnable, step: int) -> str:
        if len(runnable) == 1:
            return runnable[0][0]
        return self._guard(runnable, self.rng.choice(runnable))[0]


class PCTPolicy(_GuardMixin):
    """Probabilistic-concurrency-testing priorities with change points."""

    def __init__(self, seed: int, depth: int = 3, horizon: int = 2000) -> None:
        super().__init__()
        self.name = f"pct:{depth}"
        self.rng = random.Random(seed)
        self.depth = depth
        self.horizon = horizon
        n_points = max(0, min(depth - 1, horizon - 1))
        self.change_points = frozenset(self.rng.sample(range(1, horizon), n_points))
        self._prio: Dict[str, int] = {}
        self._floor = 0

    def _priority(self, name: str) -> int:
        if name not in self._prio:
            # First decision sees the whole start-gated thread set at
            # once (name-sorted), so assignment order is deterministic.
            self._prio[name] = self.rng.randrange(1 << 20)
        return self._prio[name]

    def choose(self, runnable: Runnable, step: int) -> str:
        if len(runnable) == 1:
            return runnable[0][0]
        leader = max(runnable, key=lambda r: self._priority(r[0]))
        if step in self.change_points:
            # Demote the leader below everyone seen so far.
            self._floor -= 1
            self._prio[leader[0]] = self._floor
            leader = max(runnable, key=lambda r: self._priority(r[0]))
        return self._guard(runnable, leader)[0]


class BurstPolicy(_GuardMixin):
    """Timeslice emulation: one thread runs ``quantum`` consecutive
    decisions before the slice rotates to the next thread (name order).

    The uniform-random policy switches threads at every yield point —
    maximal interleaving — which lets conjugate ``+``/``-`` twins
    annihilate almost as soon as they meet.  A preemptive interpreter
    does the opposite: each thread owns the core for a long slice and
    drains its own LIFO queue alone.  That burst shape is what once
    sustained the multi-queue conjugate amplification of rubik, so
    ``tests/schedck/test_rubik_livelock.py`` pins its fix under it.
    """

    def __init__(self, seed: int, quantum: int = 100) -> None:
        super().__init__()
        self.name = f"burst:{quantum}"
        self.quantum = quantum
        self.rng = random.Random(seed)
        self._current: Optional[str] = None
        self._left = 0

    def choose(self, runnable: Runnable, step: int) -> str:
        if len(runnable) == 1:
            return runnable[0][0]
        names = [r[0] for r in runnable]
        if self._current not in names or self._left <= 0:
            # Slice expired (or owner left): next runnable thread in
            # name order after the old owner, wrapping — deterministic.
            later = [n for n in names if self._current is not None and n > self._current]
            owner = later[0] if later else names[0]
            self._current = owner
            self._left = self.quantum
        choice = runnable[names.index(self._current)]
        self._left -= 1
        # The guard may override a slice owner stuck at a waiting
        # label (an involuntary context switch); the owner keeps the
        # remainder of its slice, as under a real interpreter.
        return self._guard(runnable, choice)[0]


class AdversarialPolicy(_GuardMixin):
    """Targeted schedules that delay a label- or name-selected victim.

    The victim set is scheduled only when no non-victim is runnable, or
    on every ``relief``-th decision (so the run still terminates);
    choices within a set are seeded-random.
    """

    KINDS = ("delay-plus", "delay-deletes", "starve-quiescence", "starve-worker")

    def __init__(self, kind: str, seed: int, relief: int = 64) -> None:
        super().__init__()
        if kind not in self.KINDS:
            raise ValueError(
                f"unknown adversarial kind {kind!r}; expected one of {self.KINDS}"
            )
        self.name = f"adversarial:{kind}"
        self.kind = kind
        self.rng = random.Random(seed)
        self.relief = relief

    def _is_victim(self, name: str, label: str) -> bool:
        if self.kind == "delay-plus":
            return label == "mem_insert"
        if self.kind == "delay-deletes":
            return label == "mem_remove"
        if self.kind == "starve-quiescence":
            return label == "quiesce_wait"
        return name == "match-0"  # starve-worker

    def choose(self, runnable: Runnable, step: int) -> str:
        if len(runnable) == 1:
            return runnable[0][0]
        preferred = [r for r in runnable if not self._is_victim(*r)]
        pool = runnable if (not preferred or step % self.relief == 0) else preferred
        return self._guard(runnable, self.rng.choice(pool))[0]


def make_policy(spec: str, seed: int):
    """Build a policy from its CLI spec string.

    ``random`` | ``pct`` | ``pct:<depth>`` | ``adversarial:<kind>``
    with kinds ``delay-plus``, ``delay-deletes``, ``starve-quiescence``,
    ``starve-worker``.
    """
    if spec == "random":
        return SeededRandomPolicy(seed)
    if spec == "pct":
        return PCTPolicy(seed)
    if spec.startswith("pct:"):
        return PCTPolicy(seed, depth=int(spec.split(":", 1)[1]))
    if spec == "burst":
        return BurstPolicy(seed)
    if spec.startswith("burst:"):
        return BurstPolicy(seed, quantum=int(spec.split(":", 1)[1]))
    if spec.startswith("adversarial:"):
        return AdversarialPolicy(spec.split(":", 1)[1], seed)
    raise ValueError(f"unknown schedule policy {spec!r}")


#: The default sweep rotation: broad random, preemption-targeted PCT,
#: and the two conjugate-order adversaries.
DEFAULT_POLICIES = (
    "random",
    "pct",
    "adversarial:delay-plus",
    "adversarial:starve-quiescence",
)
