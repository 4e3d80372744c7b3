"""Differential schedule runs: sequential oracle vs parallel engine.

:func:`run_schedule` is the unit of everything here: from one seed it
derives a random program + workload (or takes a pinned one), runs the
sequential matcher as the oracle, then replays the same WME batches
through the threaded :class:`~repro.parallel.engine.ParallelMatcher`
under the cooperative scheduler, checking every invariant at every
quiescence point.  The report it returns is deterministic text: the
same seed and configuration produce a byte-identical report, which is
what lets a CI failure line be replayed locally with
``python -m repro schedck --seed N``.

:func:`sweep` fans one seed range out over the engine-configuration
grid (workers × queues × lock scheme) and the policy rotation — the
differential fuzzing loop.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..ops5.parser import parse_program
from ..ops5.wme import WMEChange
from ..parallel.engine import ParallelMatcher
from ..rete.matcher import SequentialMatcher
from ..rete.network import ReteNetwork
from . import progen
from .invariants import (
    Violation,
    check_census,
    check_conflict_set,
    check_quiescence,
    memory_census,
)
from .policies import DEFAULT_POLICIES, make_policy
from .scheduler import CooperativeScheduler, HarnessSession


@dataclass(frozen=True)
class EngineConfig:
    """One point on the paper's experimental axes."""

    n_workers: int = 2
    n_queues: int = 1
    lock_scheme: str = "simple"
    n_lines: int = 64

    def describe(self) -> str:
        return (
            f"1+{self.n_workers}/{self.n_queues}q/"
            f"{self.lock_scheme}/{self.n_lines}l"
        )


#: The acceptance-criteria grid: n_workers × n_queues × lock_scheme.
DEFAULT_GRID: Tuple[EngineConfig, ...] = tuple(
    EngineConfig(n_workers=w, n_queues=q, lock_scheme=s)
    for w in (1, 2, 4)
    for q in (1, 4)
    for s in ("simple", "mrsw")
)


@dataclass
class ScheduleReport:
    """Outcome of one schedule; :meth:`format` is byte-stable per seed."""

    seed: int
    policy: str
    config: EngineConfig
    n_rules: int
    n_changes: int
    n_batches: int
    steps: int
    truncated: bool
    violations: List[Violation] = field(default_factory=list)
    stats: List[Tuple[str, object]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def format(self) -> str:
        lines = [
            f"schedck seed={self.seed} policy={self.policy} "
            f"config={self.config.describe()}",
            f"program: {self.n_rules} rules, {self.n_changes} WM changes "
            f"in {self.n_batches} batches",
            f"schedule: {self.steps} decisions"
            + (" (truncated)" if self.truncated else ""),
        ]
        for key, value in self.stats:
            lines.append(f"  {key} = {value}")
        if self.violations:
            lines.append(f"violations: {len(self.violations)}")
            lines.extend("  " + v.format() for v in self.violations)
        else:
            lines.append("violations: 0")
        return "\n".join(lines)


def _fold_deltas(cs: Counter, deltas) -> None:
    for delta in deltas:
        cs[(delta.production.name, delta.token.key)] += delta.sign


def run_schedule(
    seed: int,
    config: EngineConfig = EngineConfig(),
    policy_spec: str = "random",
    program: Optional[str] = None,
    batches: Optional[List[List[WMEChange]]] = None,
    params: progen.ProgenParams = progen.ProgenParams(),
    max_steps: int = 200_000,
) -> ScheduleReport:
    """Run one seeded schedule differentially; never raises for engine
    misbehaviour — failures come back as report violations."""
    rng = random.Random(seed)
    if program is None:
        program, generated = progen.generate(rng, params)
        if batches is None:
            batches = generated
    elif batches is None:
        raise ValueError("a pinned program needs pinned batches")
    program_ast = parse_program(program)

    # Sequential oracle: per-batch conflict-set and memory snapshots.
    seq_net = ReteNetwork.compile(program_ast)
    seq = SequentialMatcher(seq_net, n_lines=config.n_lines)
    seq_cs: Counter = Counter()
    snapshots = []
    for batch in batches:
        _fold_deltas(seq_cs, seq.process_changes(batch))
        snapshots.append((Counter(seq_cs), memory_census(seq.memory, seq_net)))

    # Parallel run under the cooperative scheduler.
    par_net = ReteNetwork.compile(program_ast)
    policy = make_policy(policy_spec, seed)
    scheduler = CooperativeScheduler(
        policy, expected_threads=config.n_workers + 1, max_steps=max_steps
    )
    violations: List[Violation] = []
    par_cs: Counter = Counter()
    with HarnessSession(scheduler):
        matcher = ParallelMatcher(
            par_net,
            n_workers=config.n_workers,
            n_queues=config.n_queues,
            lock_scheme=config.lock_scheme,
            n_lines=config.n_lines,
        )
        try:
            for bi, batch in enumerate(batches):
                try:
                    _fold_deltas(par_cs, matcher.process_changes(batch))
                except RuntimeError as exc:
                    cause = exc.__cause__
                    detail = str(exc) + (f": {cause!r}" if cause else "")
                    violations.append(Violation("engine_error", bi, detail))
                    break
                violations.extend(check_quiescence(bi, matcher))
                expected_cs, expected_census = snapshots[bi]
                violations.extend(check_conflict_set(bi, par_cs, expected_cs))
                violations.extend(
                    check_census(bi, memory_census(matcher.memory, par_net), expected_census)
                )
                if violations:
                    break
        finally:
            scheduler.deactivate()
            matcher.close()

    par_stats = matcher.stats
    stats = [
        ("node_activations.seq", seq.stats.node_activations),
        ("node_activations.par", par_stats.node_activations),
        ("tokens_emitted.seq", seq.stats.tokens_emitted),
        ("tokens_emitted.par", par_stats.tokens_emitted),
        ("conjugate.parked", matcher.memory.parked_total),
        ("conjugate.annihilated", matcher.memory.annihilations),
        ("line_lock.requeues", matcher.line_lock_stats().requeues),
    ]
    return ScheduleReport(
        seed=seed,
        policy=policy.name,
        config=config,
        n_rules=len(seq_net.productions),
        n_changes=sum(len(b) for b in batches),
        n_batches=len(batches),
        steps=scheduler.steps,
        truncated=scheduler.truncated,
        violations=violations,
        stats=stats,
    )


@dataclass
class SweepResult:
    """Aggregate of a differential fuzz sweep."""

    n_schedules: int
    failures: List[ScheduleReport] = field(default_factory=list)
    truncated: int = 0
    #: Step budget the sweep ran under — part of the replay recipe.
    max_steps: int = 200_000

    @property
    def ok(self) -> bool:
        # A truncated schedule is a liveness failure: the engine never
        # reached quiescence inside the step budget.
        return not self.failures and self.truncated == 0

    def format(self) -> str:
        """Summary where every FAIL is reproducible from its own lines:
        the replay line is the complete ``repro schedck`` invocation
        (seed, policy, full engine config, step budget) — no need to
        reconstruct flags from the packed config string."""
        lines = [
            f"schedck sweep: {self.n_schedules} schedules, "
            f"{len(self.failures)} failing, {self.truncated} truncated"
        ]
        for report in self.failures[:20]:
            first = report.violations[0]
            cfg = report.config
            lines.append(
                f"  FAIL seed={report.seed} policy={report.policy} "
                f"config={cfg.describe()} — {first.format()}"
            )
            lines.append(
                f"    replay: python -m repro schedck"
                f" --seed {report.seed} --policy {report.policy}"
                f" --workers {cfg.n_workers} --queues {cfg.n_queues}"
                f" --locks {cfg.lock_scheme} --lines {cfg.n_lines}"
                f" --max-steps {self.max_steps}"
            )
        if len(self.failures) > 20:
            lines.append(f"  ... and {len(self.failures) - 20} more")
        return "\n".join(lines)


def sweep(
    n_schedules: int,
    base_seed: int = 0,
    configs: Sequence[EngineConfig] = DEFAULT_GRID,
    policies: Sequence[str] = DEFAULT_POLICIES,
    params: progen.ProgenParams = progen.ProgenParams(),
    max_steps: int = 200_000,
    on_report: Optional[Callable[[ScheduleReport], None]] = None,
) -> SweepResult:
    """Run ``n_schedules`` seeds round-robin over configs × policies."""
    result = SweepResult(n_schedules=n_schedules, max_steps=max_steps)
    for i in range(n_schedules):
        seed = base_seed + i
        config = configs[i % len(configs)]
        policy_spec = policies[(i // len(configs)) % len(policies)]
        report = run_schedule(
            seed, config=config, policy_spec=policy_spec,
            params=params, max_steps=max_steps,
        )
        if on_report is not None:
            on_report(report)
        if report.truncated:
            result.truncated += 1
        if not report.ok:
            result.failures.append(report)
    return result
