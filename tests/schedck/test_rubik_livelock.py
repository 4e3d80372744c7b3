"""Regression for the former multi-queue rubik livelock.

The threaded engine once stopped terminating on rubik with multiple
task queues: with LIFO queues and ``n_queues == n_workers`` (every
worker a dedicated home queue) the ``+``/``-`` halves of each modify
streamed apart, a delayed delete half double-counted through every join
level it lagged, and the regenerated work re-split the same way.  The
root cause was running a modify's two halves concurrently at all; the
engine now runs every batch's deletes to quiescence before its adds.

Three ingredients, all pinned, reproduce the old livelock's shape:

* the ``conjugate-storm`` workload — rubik's match-phase shape
  distilled: a deep chain with a width-2 cross product per level,
  modified in one conjugate-heavy batch;
* the ``burst:50`` schedule — timeslice emulation; long per-thread
  runs were what sustained the amplification;
* the alignment ``n_workers=2, n_queues=2``.

Under all three the run must now finish inside the step budget with no
more match work than sequential, at every queue count.

Replay (exits 0):

    python -m repro schedck --workload conjugate-storm --policy burst:50 \
        --workers 2 --queues 2 --max-steps 150000
"""

import pytest

from repro.schedck.runner import EngineConfig, run_schedule
from repro.schedck.workloads import conjugate_storm_case

PINNED_SEED = 0
PINNED_SCHEDULE = "burst:50"
#: Step budget: the run finishes in ~23k steps; the livelocking
#: engine was still amplifying past 230k.
MAX_STEPS = 150_000


def run_pinned(n_queues):
    program, batches = conjugate_storm_case()
    return run_schedule(
        PINNED_SEED,
        config=EngineConfig(n_workers=2, n_queues=n_queues),
        policy_spec=PINNED_SCHEDULE,
        program=program,
        batches=batches,
        max_steps=MAX_STEPS,
    )


@pytest.mark.parametrize("n_queues", [1, 3])
def test_conjugate_storm_completes_without_amplification(n_queues):
    """One shared queue and a steal-only spare queue (off the old
    livelock alignment) both finish untruncated, with every fixpoint
    invariant holding and no more match work than the sequential
    engine."""
    report = run_pinned(n_queues)
    assert not report.truncated, report.format()
    assert report.ok, report.format()
    stats = dict(report.stats)
    assert stats["node_activations.par"] <= stats["node_activations.seq"]
    assert stats["tokens_emitted.par"] <= stats["tokens_emitted.seq"]


def test_alignment_completes_inside_half_the_step_budget():
    """At ``n_queues == n_workers`` — where the old engine exhausted the
    budget with the match work more than doubled — the run now finishes
    in under half the budget, every invariant holding, with no more
    match work than sequential."""
    report = run_pinned(2)
    assert not report.truncated, report.format()
    assert report.ok, report.format()
    assert report.steps < MAX_STEPS // 2, report.format()
    stats = dict(report.stats)
    assert stats["node_activations.par"] <= stats["node_activations.seq"]
    assert stats["tokens_emitted.par"] <= stats["tokens_emitted.seq"]


def test_deletes_first_split_keeps_conjugate_halves_apart():
    """The fix is the batch split, not luck of the schedule: at the
    alignment no add ever meets its conjugate delete in a memory (none
    parked, none annihilated), and the match work is exactly that of
    the one-queue run, so the queue layout no longer matters."""
    aligned = dict(run_pinned(2).stats)
    assert aligned["conjugate.parked"] == 0
    assert aligned["conjugate.annihilated"] == 0
    shared = dict(run_pinned(1).stats)
    for key in ("node_activations.par", "tokens_emitted.par"):
        assert aligned[key] == shared[key], key


def test_livelock_is_deterministic():
    """The pinned run at the old alignment replays byte for byte."""
    assert run_pinned(2).format() == run_pinned(2).format()
