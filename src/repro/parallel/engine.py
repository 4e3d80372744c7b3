"""The threaded parallel match engine — PSM-E's structure in Python.

One *control process* (the caller's thread, i.e. the interpreter) and
``n_workers`` match threads share:

* the compiled Rete network (read-only at match time),
* the global token hash tables wrapped in
  :class:`~repro.parallel.conjugate.ConjugateMemory` (extra-deletes
  lists for out-of-order conjugate pairs),
* one or more task queues with spin locks,
* the ``TaskCount`` termination counter,
* per-line hash-table locks (simple or MRSW).

The control thread pushes one root task per WM change and then waits
for ``TaskCount`` to reach zero, exactly as in §3.2; match threads loop
pop → process → push, with every memory-touching activation bracketed
by its line's lock.  Each batch runs in two phases — every ``-`` change
to quiescence, then every ``+`` change — so no join ever sees both the
old and the new WME of one modify (see :meth:`ParallelMatcher.process_changes`).

**Honesty note on speed**: under CPython's GIL this engine demonstrates
the *correctness* of the synchronization design (identical conflict
sets to the sequential matcher under real interleavings) and yields
real contention measurements, but no wall-clock speed-up.  For measured
multi-core speedup use the multiprocess backend
(:mod:`repro.parallel.mp`, ``engine='mp'``), which replaces the line
locks with shard ownership; for modelled Encore-Multimax speedups use
the trace-driven simulator (:mod:`repro.simulator`).
"""

from __future__ import annotations

import threading
import time
from time import perf_counter
from typing import List, Optional

from ..obs import context as _context
from ..obs import events as _obs
from ..obs import flight as _flight
from ..obs import meter as _meter
from ..obs.watchdog import ProbeSample, StallWatchdog
from ..ops5.wme import WMEChange
from ..rete.matcher import SequentialMatcher
from ..rete.memories import HashMemorySystem
from ..rete.network import ReteNetwork
from ..rete.nodes import Activation, CSDelta, JoinNode, MatchContext, NotNode
from ..rete.stats import MatchStats
from ..rete.token import Token
from .conjugate import ConjugateMemory
from .hooks import thread_exit, yield_point
from .locks import LockStats, make_line_locks, set_holder_tracking
from .taskqueue import TaskCount, TaskQueueSet

_POISON = ("poison",)


class ParallelMatcher:
    """Drop-in matcher for :class:`~repro.ops5.interpreter.Interpreter`.

    Parameters mirror the paper's experimental axes: ``n_workers`` (the
    "k" of "1+k"), ``n_queues`` (1–8), ``lock_scheme`` ('simple' or
    'mrsw') and ``n_lines`` (hash-table size).  Dispatch is work
    stealing: a worker pushes the tasks it spawns to its own queue, the
    control process deals root tasks round-robin, and an idle worker
    pops its home queue first, then steals from its peers.
    """

    #: Conflict-set deltas arrive unordered; the interpreter must use a
    #: count-based conflict set and validate after each batch.
    strict_cs = False

    def __init__(
        self,
        network: ReteNetwork,
        n_workers: int = 2,
        n_queues: int = 1,
        lock_scheme: str = "simple",
        n_lines: int = 256,
        watchdog_s: Optional[float] = None,
        watchdog_dump: Optional[str] = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("need at least one match process")
        self.network = network
        _flight.note_engine("threaded", n_workers)
        self.memory = ConjugateMemory(HashMemorySystem(n_lines=n_lines))
        self.line_locks = make_line_locks(lock_scheme, n_lines)
        self.queues = TaskQueueSet(n_queues)
        self.taskcount = TaskCount()
        self.n_workers = n_workers
        self._ctxs = [
            MatchContext(self.memory, MatchStats(), strict=False) for _ in range(n_workers)
        ]
        self._shutdown = False
        self._failures: List[BaseException] = []
        #: Wall-clock seconds spent inside match, mirroring
        #: ``SequentialMatcher.match_seconds`` so ``--stats`` and the
        #: perf scenarios read every engine the same way.
        self.match_seconds = 0.0
        #: Cumulative tasks fully processed across all workers — the
        #: watchdog's progress signal.  A plain int bumped under the
        #: GIL: lost updates are possible and harmless (it only needs
        #: to *advance* while real work happens).
        self.tasks_done = 0
        self._threads = [
            threading.Thread(target=self._worker, args=(i,), daemon=True, name=f"match-{i}")
            for i in range(n_workers)
        ]
        for t in self._threads:
            t.start()
        self.watchdog: Optional[StallWatchdog] = None
        self._holder_tracking = False
        if watchdog_s:
            # Holder names in the stall bundle cost one current_thread()
            # per acquire; pay it only when someone is watching.
            set_holder_tracking(True)
            self._holder_tracking = True
            self.watchdog = StallWatchdog(
                self._watchdog_probe,
                engine="threaded",
                stall_after_s=watchdog_s,
                dump_path=watchdog_dump,
            ).start()

    # -- control-process side -------------------------------------------------

    def process_changes(self, changes: List[WMEChange]) -> List[CSDelta]:
        """Pipeline the changes to the match processes; wait for quiescence."""
        if self._shutdown:
            raise RuntimeError("matcher already closed")
        match_t0 = perf_counter()
        _flight.record("threaded", "batch", {"changes": len(changes)})
        obs_on = _obs.ENABLED
        meter_on = _meter.ENABLED
        if obs_on:
            batch_t0 = _obs.now()
        # Request-scoped task meta: worker threads do not inherit the
        # control thread's contextvar, so capture the active request's
        # ids here and ride them on every task tuple.  The second slot
        # is the push timestamp the workers turn into queue-wait
        # metering; None whenever neither layer is on, so the disabled
        # path allocates nothing.
        meta = None
        if obs_on or meter_on:
            ids = _context.current_ids()
            t_push = _obs.now() if meter_on else 0
            if ids is not None or t_push:
                meta = (ids, t_push)
        # Per-activation probes (ctx.last_*) are only maintained under
        # `tracing`; flip it with the obs flag so worker node hot-spots
        # carry examined-token counts.  Benign cross-thread write: the
        # flag only gates instrumentation granularity.
        for ctx in self._ctxs:
            ctx.tracing = obs_on
        # Two phases: every delete to quiescence, then every add.  A
        # join that saw a modify's old and new WME at once would
        # multiply tokens at every chain level; the interpreter applies
        # the deltas only after the whole batch, so the split is free.
        if obs_on:
            wait_t0 = _obs.now()
        for sign in (-1, 1):
            for change in changes:
                if change.sign == sign:
                    self.taskcount.increment()
                    self.queues.push(("change", sign, change.wme, meta))
            # The control process becomes idle and waits for the match
            # processes to finish (TaskCount == 0).
            while not self.taskcount.zero:
                if self._failures:
                    break
                yield_point("quiesce_wait", self.taskcount)
                time.sleep(0)
            if self._failures:
                break
        if obs_on:
            t1 = _obs.now()
            _obs.span(
                "phase", "match.quiesce_wait", wait_t0, t1,
                args=_context.tag({"changes": len(changes)}),
            )
            _obs.span(
                "phase", "match.parallel_batch", batch_t0, t1,
                args=_context.tag({"changes": len(changes)}),
            )
        if self._failures:
            failure = self._failures[0]
            _flight.record(
                "threaded", "worker_failure", {"error": repr(failure)}
            )
            _flight.dump_on_error("worker_failure")
            self.close()
            raise RuntimeError("match process failed") from failure
        deltas: List[CSDelta] = []
        for ctx in self._ctxs:
            deltas.extend(ctx.cs_deltas)
            ctx.cs_deltas = []
        if self.memory.pending_deletes:
            raise RuntimeError(
                f"{self.memory.pending_deletes} conjugate deletes left parked"
            )
        self.match_seconds += perf_counter() - match_t0
        return deltas

    def close(self) -> None:
        """Kill the match processes (the control process's end-of-run duty)."""
        if self._shutdown:
            return
        self._shutdown = True
        if self.watchdog is not None:
            self.watchdog.stop()
        if self._holder_tracking:
            set_holder_tracking(False)
        for _ in self._threads:
            self.queues.push(_POISON)
        for t in self._threads:
            t.join(timeout=10.0)

    def __enter__(self) -> "ParallelMatcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _watchdog_probe(self) -> ProbeSample:
        """Cheap point-in-time progress reading for the stall watchdog
        (racy reads throughout — precision is not the point)."""
        queues = [
            (f"queue[{i}]", depth)
            for i, depth in enumerate(self.queues.depths())
        ]
        # TaskCount is queued + in-flight work: it keeps `pending`
        # nonzero during a livelock whose tasks are mid-requeue (the
        # queues themselves can look momentarily empty).
        queues.append(("taskcount", self.taskcount.value))
        holders = dict(self.queues.holders())
        tc_holder = self.taskcount.holder
        if tc_holder is not None:
            holders["taskcount"] = tc_holder
        holders.update(self.line_locks.holders())
        return ProbeSample(
            tasks_done=self.tasks_done,
            queues=queues,
            lock_holders=holders,
            extra={
                "workers_alive": sum(t.is_alive() for t in self._threads),
                "n_workers": self.n_workers,
                "failures": len(self._failures),
                "steals": self.queues.stolen,
            },
        )

    # -- aggregated measurements ----------------------------------------------

    @property
    def stats(self) -> MatchStats:
        merged = MatchStats()
        for ctx in self._ctxs:
            s = ctx.stats
            merged.wme_changes += s.wme_changes
            merged.node_activations += s.node_activations
            merged.constant_tests += s.constant_tests
            merged.alpha_passes += s.alpha_passes
            merged.tokens_emitted += s.tokens_emitted
            merged.cs_changes += s.cs_changes
            merged.opp_examined_left += s.opp_examined_left
            merged.opp_count_left += s.opp_count_left
            merged.opp_examined_right += s.opp_examined_right
            merged.opp_count_right += s.opp_count_right
            merged.same_del_examined_left += s.same_del_examined_left
            merged.same_del_count_left += s.same_del_count_left
            merged.same_del_examined_right += s.same_del_examined_right
            merged.same_del_count_right += s.same_del_count_right
            for kind, n in s.activations_by_kind.items():
                merged.activations_by_kind[kind] = (
                    merged.activations_by_kind.get(kind, 0) + n
                )
        return merged

    def queue_lock_stats(self) -> LockStats:
        return self.queues.lock_stats()

    def line_lock_stats(self) -> LockStats:
        return self.line_locks.stats()

    # -- match-process side -----------------------------------------------------

    def _worker(self, wid: int) -> None:
        ctx = self._ctxs[wid]
        try:
            while True:
                task = self.queues.pop(home=wid)
                if task is None:
                    if self._shutdown:
                        return
                    yield_point("worker_idle", wid)
                    time.sleep(0)
                    continue
                if task[0] == "poison":
                    return
                meta = task[-1]
                if meta is not None and meta[1] and _meter.ENABLED:
                    ids = meta[0]
                    if ids is not None:
                        # Queue-wait attribution: push-to-pop latency,
                        # charged to the request that caused the task.
                        # Requeued tasks accrue each trip (see
                        # _push_children's re-stamp).
                        _meter.add(
                            ids["session"], "queue_wait_s",
                            (_obs.now() - meta[1]) * 1e-9,
                            tenant=ids["tenant"],
                        )
                if _obs.ENABLED:
                    self._run_task_obs(ctx, wid, task)
                elif task[0] == "change":
                    self._do_change(ctx, wid, task)
                else:
                    self._do_activation(ctx, wid, task)
                self.taskcount.decrement()
                self.tasks_done += 1
        except BaseException as exc:  # noqa: BLE001 - reported to control
            self._failures.append(exc)
        finally:
            thread_exit()

    def _run_task_obs(self, ctx: MatchContext, wid: int, task) -> None:
        """Instrumented twin of the worker dispatch: one span per task
        (the Chrome-trace worker timeline) plus per-node hot-spots."""
        t0 = _obs.now()
        ids = task[-1][0] if task[-1] is not None else None
        if task[0] == "change":
            self._do_change(ctx, wid, task)
            _obs.span("task", "wm_change", t0, _obs.now(),
                      args=_context.tag_ids(None, ids))
            return
        act: Activation = task[1]
        n_children = self._do_activation(ctx, wid, task)
        t1 = _obs.now()
        node = act.node
        if n_children is None:
            # MRSW told us to requeue; the task was not processed.
            _obs.count("task.requeued")
            _obs.span("task", "requeue", t0, t1,
                      args=_context.tag_ids({"node": node.node_id}, ids))
            return
        _obs.node_hit(
            node.node_id,
            node.kind,
            t1 - t0,
            ctx.last_opp_examined + ctx.last_same_examined,
            n_children,
        )
        _obs.span("task", node.kind, t0, t1,
                  args=_context.tag_ids({"node": node.node_id}, ids))

    def _push_children(
        self, wid: int, children: List[Activation], meta=None
    ) -> None:
        if meta is not None and meta[1]:
            # Re-stamp the push time so child queue-wait measures this
            # push, not the ancestor's (one tuple per sibling group).
            meta = (meta[0], _obs.now())
        for child in children:
            self.taskcount.increment()
            self.queues.push(("act", child, meta), home=wid)

    def _do_change(self, ctx: MatchContext, wid: int, task) -> None:
        _kind, sign, wme, meta = task
        ctx.stats.wme_changes += 1
        hits, n_tests = self.network.alpha_dispatch(wme)
        ctx.stats.constant_tests += n_tests
        ctx.stats.alpha_passes += len(hits)
        token = Token.single(wme)
        children = [
            Activation(node, side, sign, token)
            for terminal in hits
            for node, side in terminal.successors
        ]
        self._push_children(wid, children, meta)

    def _do_activation(self, ctx: MatchContext, wid: int, task) -> Optional[int]:
        """Process one activation task; returns the number of child
        tasks pushed, or None when MRSW line locking requeued the task
        unprocessed (the observability layer tells these apart)."""
        act: Activation = task[1]
        meta = task[2]
        node = act.node
        if not node.uses_line():
            children = node.activate(ctx, act)
            self._push_children(wid, children, meta)
            return len(children)

        key = node.key_for(act.side, act.token)
        line = self.memory.line_of(node.node_id, key)
        if not self.line_locks.enter(line, act.side):
            # MRSW: tokens from the other side are being processed on
            # this line — put the task back on a queue and move on.
            self.taskcount.increment()
            self.queues.push(task, home=wid)
            return None
        try:
            if isinstance(node, JoinNode):
                self.line_locks.enter_modify(line)
                try:
                    proceed = node.update_memory(ctx, act, key)
                finally:
                    self.line_locks.exit_modify(line)
                children = node.search_opposite(ctx, act, key) if proceed else []
            else:
                # Negated nodes mutate left-entry counts during the
                # search, so the whole activation holds the
                # modification lock.
                self.line_locks.enter_modify(line)
                try:
                    children = node.activate(ctx, act)
                finally:
                    self.line_locks.exit_modify(line)
        finally:
            self.line_locks.exit(line, act.side)
        self._push_children(wid, children, meta)
        return len(children)
