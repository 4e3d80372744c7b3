"""Regression for the former deep-chain divergence.

DESIGN.md ("Known divergences") once recorded a *transient token
blow-up* on deep-chain rules under the threaded engine: when the ``-``
half of an in-flight modify was delayed past the ``+`` half, a join saw
both the old and the new WME at once and multiplied combinations at
every chain level.  The engine now runs every batch's deletes to
quiescence before its adds, so the pinned adversarial schedule below —
delete halves delayed behind add halves, three workers racing on one
queue — must do no more match work than the sequential engine.

Replay: ``python -m repro schedck --workload deep-chain --workers 3
--policy adversarial:delay-deletes``.
"""

from repro.schedck.runner import EngineConfig, run_schedule
from repro.schedck.workloads import deep_chain_case

#: The pinned schedule: delete halves of every modify delayed behind
#: the add halves, three workers racing on one queue.
PINNED_SEED = 0
PINNED_CONFIG = EngineConfig(n_workers=3, n_queues=1)
PINNED_POLICY = "adversarial:delay-deletes"


def run_pinned():
    program, batches = deep_chain_case()
    return run_schedule(
        PINNED_SEED,
        config=PINNED_CONFIG,
        policy_spec=PINNED_POLICY,
        program=program,
        batches=batches,
    )


def test_deep_chain_no_transient_blowup():
    """The parallel engine does no more match work than the sequential
    engine, even with every delete scheduled as late as possible."""
    report = run_pinned()
    stats = dict(report.stats)
    assert stats["node_activations.par"] <= stats["node_activations.seq"]
    assert stats["tokens_emitted.par"] <= stats["tokens_emitted.seq"]


def test_deep_chain_fixpoint_invariants_still_hold():
    """At quiescence the conflict set, the extra-deletes lists and the
    token census all match the sequential oracle."""
    report = run_pinned()
    assert report.ok, report.format()
    assert not report.truncated


def test_report_is_deterministic():
    """The pinned schedule replays byte for byte."""
    assert run_pinned().format() == run_pinned().format()
