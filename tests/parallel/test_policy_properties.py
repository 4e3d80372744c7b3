"""Property tests for the parallel engines' one placement and one dispatch.

Each half has its own invariants:

* **Placement** (:class:`~repro.parallel.mp.shard.ShardMap`, built
  pre-fork by the mp engine): the interleaved owner map ``line %
  n_workers`` must *partition* — every line exactly one owner, every
  owner in range — for any ``(n_lines, n_workers)``, or a token line
  would be orphaned or double-owned across processes.
* **Dispatch** (:meth:`~repro.parallel.taskqueue.TaskQueueSet.push`,
  work stealing): must conserve work — every pushed task is popped
  exactly once, whoever pushed it, and the steal counter accounts for
  exactly the pops that left their home queue.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.parallel.mp.shard import ShardMap
from repro.parallel.taskqueue import TaskQueueSet

_n_lines = st.integers(min_value=1, max_value=2048)
_n_workers = st.integers(min_value=1, max_value=9)


class TestPlacementPartitions:
    @given(n_lines=_n_lines, n_workers=_n_workers)
    @settings(max_examples=200, deadline=None)
    def test_every_line_exactly_one_owner_in_range(self, n_lines, n_workers):
        shard = ShardMap(n_lines=n_lines, n_workers=n_workers)
        owned = [set(shard.lines_owned(w)) for w in range(n_workers)]
        for line in range(n_lines):
            owner = shard.owner_of_line(line)
            assert 0 <= owner < n_workers
            assert [w for w in range(n_workers) if line in owned[w]] == [owner]
        assert sum(len(o) for o in owned) == n_lines

    @given(n_lines=_n_lines, n_workers=_n_workers)
    @settings(max_examples=100, deadline=None)
    def test_placement_is_pure(self, n_lines, n_workers):
        """Placement is baked into every worker process pre-fork; if it
        were stateful the processes could disagree on ownership."""
        a = ShardMap(n_lines=n_lines, n_workers=n_workers)
        b = ShardMap(n_lines=n_lines, n_workers=n_workers)
        assert [a.owner_of_line(x) for x in range(n_lines)] == [
            b.owner_of_line(x) for x in range(n_lines)
        ]
        assert all(a.owner_of_line(x) == x % n_workers for x in range(n_lines))

    @given(n_lines=_n_lines, n_workers=_n_workers)
    @settings(max_examples=100, deadline=None)
    def test_placements_stay_balanced(self, n_lines, n_workers):
        """Worker loads stay within one line of each other, so
        repartitioning to any worker count never concentrates lines."""
        counts = ShardMap(n_lines=n_lines, n_workers=n_workers).lines_per_worker()
        assert sum(counts) == n_lines
        assert max(counts) - min(counts) <= 1


class TestDispatchConservesWork:
    @given(
        n_queues=st.integers(min_value=1, max_value=5),
        n_workers=st.integers(min_value=1, max_value=4),
        pushers=st.lists(
            st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
            max_size=60,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_no_task_dropped_or_duplicated(self, n_queues, n_workers, pushers):
        """Drive a real TaskQueueSet through an arbitrary push sequence
        (worker pushes go home, control pushes deal round-robin) and a
        stealing drain: every task comes back exactly once, and the
        counters balance."""
        queues = TaskQueueSet(n_queues=n_queues)
        for seq, pusher in enumerate(pushers):
            home = None if pusher is None else pusher % n_workers
            queues.push(("task", seq), home=home)
        popped = []
        for i in range(len(pushers)):
            task = queues.pop(home=i % n_workers)
            assert task is not None, "a pushed task was dropped"
            popped.append(task[1])
        assert sorted(popped) == list(range(len(pushers)))
        assert queues.pushed == queues.popped == len(pushers)
        assert 0 <= queues.stolen <= queues.popped
        assert len(queues) == 0

    @given(
        n_queues=st.integers(min_value=1, max_value=5),
        n_tasks=st.integers(min_value=0, max_value=40),
        home=st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_steal_counter_counts_exactly_the_strays(
        self, n_queues, n_tasks, home
    ):
        """Push everything to one queue, drain from one (possibly
        different) home: the stolen counter must equal the pops that
        came from a non-home queue — no more, no less."""
        queues = TaskQueueSet(n_queues=n_queues)
        victim = home % n_queues
        for i in range(n_tasks):
            queues.push(("task", i), home=victim)
        drain_home = (victim + 1) % n_queues
        for _ in range(n_tasks):
            assert queues.pop(home=drain_home)
        expected = 0 if drain_home == victim else n_tasks
        assert queues.stolen == expected
        assert queues.pushed == queues.popped == n_tasks


class TestHomeForContract:
    @given(
        n_queues=st.integers(min_value=1, max_value=6),
        pushers=st.lists(
            st.one_of(st.none(), st.integers(min_value=0, max_value=8)),
            min_size=1, max_size=40,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_home_always_in_range(self, n_queues, pushers):
        """A worker's push lands on its own queue (mod n_queues); the
        control process's pushes deal every queue in turn."""
        queues = TaskQueueSet(n_queues=n_queues)
        dealt = []
        for pusher in pushers:
            before = queues.depths()
            queues.push("t", home=pusher)
            grown = [i for i, (a, b) in enumerate(zip(before, queues.depths()))
                     if b == a + 1]
            assert len(grown) == 1
            if pusher is None:
                dealt.append(grown[0])
            else:
                assert grown[0] == pusher % n_queues
        assert dealt == [(i + 1) % n_queues for i in range(len(dealt))]
