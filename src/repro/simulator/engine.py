"""Trace-driven discrete-event simulation of PSM-E on the Multimax.

Replays the task DAG recorded by the sequential matcher
(:class:`~repro.rete.trace.MatchTrace`) on ``k`` simulated match
processors plus a control process, under the paper's scheduling and
synchronization regime:

* the control process evaluates the RHS (one WM change per
  ``rhs_change_cost`` instructions) and pushes each change's
  constant-test group tasks onto the task queues as soon as the change
  is computed — match pipelines with RHS evaluation (§3.1);
* match processors loop pop → execute → push-children, contending for
  the queue spin locks (one per task queue) and for the hash-table line
  locks (simple or MRSW, §3.2);
* a cycle's match phase ends when its last task completes (TaskCount
  reaching zero); conflict resolution then runs on the control process
  and the next cycle begins.

The replayed DAG is the *sequential* activation set: the paper notes
(Table 4-6 discussion) that a parallel execution can evaluate slightly
different activations; that second-order effect is outside this model.

Determinism: event ordering uses (time, sequence) keys, lock grants are
FIFO by request time, idle processors wake lowest-id first, and queue
selection is round-robin — two runs of the same trace and options give
identical results.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..rete.trace import MatchTrace, TaskRecord
from .locks import SimLock, SimMRSWLine, SpinStats
from .machine import (
    DEFAULT_CONFIG,
    MachineConfig,
    alpha_tasks,
    task_cost,
    task_cost_parts,
)


@dataclass(frozen=True)
class SimOptions:
    """One experimental configuration (a cell of Tables 4-5/4-6/4-8).

    Two extensions go beyond the paper's implemented system:

    * ``hardware_scheduler`` — the hardware task scheduler Gupta
      proposed (the paper: "So far we have not implemented the
      hardware scheduler") — modeled as a zero-contention dispatch
      unit: pushes and pops cost one instruction and never wait;
    * ``overlap_cr`` — footnote 3's first unimplemented optimization:
      conflict resolution overlaps the next cycle's match instead of
      serializing after it.
    """

    n_match: int = 1
    n_queues: int = 1
    lock_scheme: str = "simple"     # 'simple' | 'mrsw'
    pipelined: bool = True          # overlap match with RHS evaluation
    hardware_scheduler: bool = False
    overlap_cr: bool = False

    def __post_init__(self) -> None:
        if self.n_match < 1:
            raise ValueError("need at least one match process")
        if self.n_queues < 1:
            raise ValueError("need at least one task queue")
        if self.lock_scheme not in ("simple", "mrsw"):
            raise ValueError(f"unknown lock scheme {self.lock_scheme!r}")


@dataclass
class SimResult:
    """Aggregate outcome of one simulated run."""

    options: SimOptions
    config: MachineConfig
    match_instr: float = 0.0          # sum of per-cycle match durations
    total_instr: float = 0.0          # wall time incl. RHS + CR
    cycles: int = 0
    tasks_completed: int = 0
    queue_stats: SpinStats = field(default_factory=SpinStats)
    line_left: SpinStats = field(default_factory=SpinStats)
    line_right: SpinStats = field(default_factory=SpinStats)
    requeues: int = 0

    @property
    def match_seconds(self) -> float:
        return self.config.seconds(self.match_instr)

    @property
    def total_seconds(self) -> float:
        return self.config.seconds(self.total_instr)


# Queue entries: ("A", cost, [child tids]) constant-test group task,
# or ("T", tid) a traced two-input/terminal task.
_AlphaEntry = Tuple[str, int, List[int]]
_TaskEntry = Tuple[str, int]


class EncoreSimulator:
    """Deterministic DES replaying one match trace under one option set."""

    def __init__(
        self,
        trace: MatchTrace,
        options: SimOptions,
        config: MachineConfig = DEFAULT_CONFIG,
    ) -> None:
        self.trace = trace
        self.options = options
        self.config = config
        self._children = trace.children_index()
        self._tasks = trace.tasks
        # Event heap of (time, seq, callback).
        self._heap: List[Tuple[float, int, Callable[[float], None]]] = []
        self._seq = 0
        # Task queues and their locks (persist across cycles).
        self._queues: List[List] = [[] for _ in range(options.n_queues)]
        self._qlocks = [
            SimLock(config.spin_period, handoff=config.queue_handoff)
            for _ in range(options.n_queues)
        ]
        # Hash-line locks, created lazily per line id.
        self._line_simple: Dict[int, SimLock] = {}
        self._line_mrsw: Dict[int, SimMRSWLine] = {}
        self._idle: List[int] = []          # parked processor ids (sorted)
        self._push_rr = 0
        self._remaining = 0
        self._cycle_last_finish = 0.0
        self.result = SimResult(options=options, config=config)

    # -- event plumbing ------------------------------------------------------

    def _schedule(self, t: float, fn: Callable[[float], None]) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (t, self._seq, fn))

    def _drain(self) -> None:
        heap = self._heap
        while heap:
            t, _seq, fn = heapq.heappop(heap)
            fn(t)

    # -- queue operations ------------------------------------------------------

    def _push(self, t: float, entry, home: Optional[int] = None) -> float:
        """One queue-lock acquisition + append; returns the pusher's
        time after the push completes.

        Workers push to their *home* queue (tokens they spawn are most
        likely to be picked up by themselves, cache-warm); the control
        process distributes its root tasks round-robin — the threaded
        engine's work-stealing dispatch.  Under the hardware scheduler
        there is no lock and no wait: one instruction hands the token
        to the dispatch unit."""
        if self.options.hardware_scheduler:
            done = t + 1
            self._schedule(done, lambda now, entry=entry: self._append(now, 0, entry))
            return done
        if home is None:
            self._push_rr += 1
            home = self._push_rr
        qi = home % self.options.n_queues
        grant, spins = self._qlocks[qi].request(t, self.config.queue_push)
        self.result.queue_stats.acquisitions += 1
        self.result.queue_stats.spins += spins
        done = grant + self.config.queue_push
        self._schedule(done, lambda now, qi=qi, entry=entry: self._append(now, qi, entry))
        return done

    def _append(self, now: float, qi: int, entry) -> None:
        self._queues[qi].append(entry)
        if self._idle:
            pid = self._idle.pop(0)
            self._schedule(now + self.config.poll_delay, lambda t, pid=pid: self._poll(pid, t))

    # -- processor behaviour ------------------------------------------------------

    def _poll(self, pid: int, t: float) -> None:
        """The match-process main loop, step 1: find a task."""
        if self.options.hardware_scheduler:
            queue = self._queues[0]
            if queue:
                entry = queue.pop()
                self._schedule(t + 1, lambda now, pid=pid, e=entry: self._execute(pid, e, now))
            elif pid not in self._idle:
                self._idle.append(pid)
                self._idle.sort()
            return
        n = self.options.n_queues
        for offset in range(n):
            qi = (pid + offset) % n
            if self._queues[qi]:
                grant, spins = self._qlocks[qi].request(t, self.config.queue_pop)
                self.result.queue_stats.acquisitions += 1
                self.result.queue_stats.spins += spins
                done = grant + self.config.queue_pop
                self._schedule(done, lambda now, pid=pid, qi=qi: self._popped(pid, qi, now))
                return
        if pid not in self._idle:
            self._idle.append(pid)
            self._idle.sort()

    def _popped(self, pid: int, qi: int, t: float) -> None:
        queue = self._queues[qi]
        if not queue:
            # Raced with another processor; rescan.
            self._poll(pid, t)
            return
        entry = queue.pop()
        self._execute(pid, entry, t)

    def _execute(self, pid: int, entry, t: float) -> None:
        if entry[0] == "A":
            _tag, cost, child_tids = entry
            self._finish(pid, t + cost, child_tids)
            return
        tid = entry[1]
        task = self._tasks[tid]
        if task.kind == "term" or task.line < 0:
            self._finish(pid, t + task_cost(task, self.config), self._children[tid])
            return
        if self.options.lock_scheme == "simple":
            self._execute_simple(pid, task, t)
        else:
            self._execute_mrsw(pid, task, t, entry)

    def _execute_simple(self, pid: int, task: TaskRecord, t: float) -> None:
        lock = self._line_simple.get(task.line)
        if lock is None:
            lock = self._line_simple[task.line] = SimLock(
                self.config.spin_period, handoff=self.config.ttas_handoff
            )
        update, scan, build = task_cost_parts(task, self.config)
        hold = update + scan + self.config.line_lock_hold_overhead
        grant, spins = lock.request(t, hold)
        self._line_side_stats(task.side, spins)
        # Output-token construction happens after the line is released.
        self._finish(pid, grant + hold + build, self._children[task.tid])

    def _execute_mrsw(self, pid: int, task: TaskRecord, t: float, entry) -> None:
        cfg = self.config
        line = self._line_mrsw.get(task.line)
        if line is None:
            line = self._line_mrsw[task.line] = SimMRSWLine(
                cfg.spin_period, SpinStats(), SpinStats(), handoff=cfg.ttas_handoff
            )
        guard_before = line.guard.stats.spins
        mod_before = line.mod.stats.spins
        after, admitted = line.try_enter(t, task.side, cfg.mrsw_guard_hold)
        if not admitted:
            self.result.requeues += 1
            self._line_side_requeue(task.side)
            done = self._push(after + cfg.requeue_cost, entry, home=pid)
            self._poll(pid, done)
            return
        update, scan, build = task_cost_parts(task, cfg)
        grant, _spins = line.mod.request(after, update)
        line_done = grant + update + scan
        line.register_exit(line_done, cfg.mrsw_guard_hold)
        end = line_done + build + cfg.mrsw_overhead
        # Two lock passes (guard, then mod) have a floor of two free
        # spins; normalize to the simple scheme's floor of one so the
        # schemes are comparable (the paper's metric is spins before
        # access to the *bucket*).
        raw = (line.guard.stats.spins - guard_before) + (line.mod.stats.spins - mod_before)
        spins = max(1, raw - 1)
        self._line_side_stats(task.side, spins, acquisitions=1)
        self._finish(pid, end, self._children[task.tid])

    def _line_side_stats(self, side: str, spins: int, acquisitions: int = 1) -> None:
        agg = self.result.line_left if side == "L" else self.result.line_right
        agg.acquisitions += acquisitions
        agg.spins += spins

    def _line_side_requeue(self, side: str) -> None:
        agg = self.result.line_left if side == "L" else self.result.line_right
        agg.requeues += 1

    def _finish(self, pid: int, t: float, child_tids: List[int]) -> None:
        """Task body done at ``t``: push children, then look for more work."""
        now = t
        for tid in child_tids:
            now = self._push(now, ("T", tid), home=pid)
        self._remaining -= 1
        if now > self._cycle_last_finish:
            self._cycle_last_finish = now
        if self._remaining < 0:
            raise RuntimeError("simulator accounting bug: remaining < 0")
        self._poll(pid, now)

    # -- the run ------------------------------------------------------------------

    def run(self) -> SimResult:
        cfg = self.config
        opts = self.options
        clock = 0.0
        total_match = 0.0

        for cycle in self.trace.cycles:
            cycle_start = clock
            rhs_end = cycle_start + cfg.rhs_change_cost * len(cycle.changes)
            if not cycle.changes:
                clock = rhs_end + cfg.cr_base + cfg.cr_per_delta * cycle.cs_deltas
                continue

            # Count this cycle's tasks: alpha group tasks + traced tasks.
            groups_per_change = []
            n_traced = 0
            for change in cycle.changes:
                groups = alpha_tasks(change.n_const_tests, len(change.first_level), cfg)
                groups_per_change.append(groups)
                n_traced += self._count_subtree(change.first_level)
            initial_remaining = sum(len(g) for g in groups_per_change) + n_traced
            self._remaining = initial_remaining
            self._cycle_last_finish = cycle_start
            self._idle = list(range(opts.n_match))

            # Control process: compute changes one by one, pushing each
            # change's group tasks as soon as it is ready.  Must run as
            # events interleaved with the match processes — issuing all
            # pushes up front would reserve the queue locks far into the
            # future and starve the workers at cycle start.
            first_release = (
                cycle_start + cfg.rhs_change_cost if opts.pipelined else rhs_end
            )
            match_start = first_release
            work = list(zip(cycle.changes, groups_per_change))

            def control_step(t: float, idx: int = 0) -> None:
                change, groups = work[idx]
                # Distribute the change's first-level tasks round-robin
                # over its constant-test groups.
                assigned: List[List[int]] = [[] for _ in groups]
                for i, tid in enumerate(change.first_level):
                    assigned[i % len(groups)].append(tid)
                now = t
                for (cost, _nkids), kid_list in zip(groups, assigned):
                    now = self._push(now, ("A", cost, kid_list))
                if idx + 1 < len(work):
                    next_release = now + cfg.rhs_change_cost if opts.pipelined else now
                    self._schedule(
                        next_release, lambda tt, i=idx + 1: control_step(tt, i)
                    )

            self._schedule(first_release, control_step)
            self._drain()

            if self._remaining != 0:
                raise RuntimeError(
                    f"cycle {cycle.index}: {self._remaining} tasks never ran"
                )
            match_end = self._cycle_last_finish
            total_match += match_end - match_start
            self.result.tasks_completed += initial_remaining
            cr_cost = cfg.cr_base + cfg.cr_per_delta * cycle.cs_deltas
            if opts.overlap_cr:
                # Footnote 3: conflict resolution overlaps the tail of
                # match — only the part that cannot be hidden behind
                # the match processes' drain remains on the critical
                # path (modeled as half the CR work exposed).
                clock = max(match_end, rhs_end) + cr_cost / 2
            else:
                clock = max(match_end, rhs_end) + cr_cost

        self.result.cycles = len(self.trace.cycles)
        self.result.match_instr = total_match
        self.result.total_instr = clock
        return self.result

    def _count_subtree(self, first_level: List[int]) -> int:
        count = 0
        stack = list(first_level)
        while stack:
            tid = stack.pop()
            count += 1
            stack.extend(self._children[tid])
        return count


def simulate(
    trace: MatchTrace,
    n_match: int,
    n_queues: int = 1,
    lock_scheme: str = "simple",
    pipelined: bool = True,
    config: MachineConfig = DEFAULT_CONFIG,
) -> SimResult:
    """Convenience wrapper: build and run one simulation."""
    options = SimOptions(
        n_match=n_match,
        n_queues=n_queues,
        lock_scheme=lock_scheme,
        pipelined=pipelined,
    )
    return EncoreSimulator(trace, options, config).run()


def uniprocessor_baseline(
    trace: MatchTrace, lock_scheme: str = "simple", config: MachineConfig = DEFAULT_CONFIG
) -> SimResult:
    """The paper's second column: match time with one process and no
    overlap with RHS evaluation (but all parallel-code overheads)."""
    return simulate(
        trace, n_match=1, n_queues=1, lock_scheme=lock_scheme, pipelined=False, config=config
    )


def speedup(trace: MatchTrace, baseline: SimResult, **kw) -> float:
    """Speed-up of configuration ``kw`` relative to ``baseline``."""
    run = simulate(trace, config=baseline.config, **kw)
    return baseline.match_instr / run.match_instr if run.match_instr else float("inf")
