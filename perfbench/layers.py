"""The program's layers as the traced run sees them, and the per-layer
metrics derived from their spans.

Each layer is timed at its public entry point.  Recognize-act layers
(match, conflict resolution, act) are patched on their classes, so the
same spans appear whether the interpreter runs in a batch run or
inside a serve session.  Only the control process is traced: the mp
match processes do their alpha and beta work out of sight, so on the
mp workloads the matcher span is the whole broadcast, quiesce and
flush round trip.
"""

from __future__ import annotations

from typing import Dict, Iterable

from measure import Tracer
from repro.ops5.conflict import ConflictSet, LexStrategy
from repro.ops5.interpreter import Interpreter
from repro.ops5.rhs import CompiledRHS
from repro.parallel.mp import ProcessMatcher
from repro.rete.matcher import SequentialMatcher
from repro.rete.network import ReteNetwork
from repro.rete.stats import MatchStats

#: Metrics only the serve workload exercises, and only the mp engine; on
#: the other workloads they read 0.
SERVE_ONLY = ("serve.transact_s", "serve.overhead_p50_ms", "serve.busy_retries",
              "protocol.codec_s", "netcache.hit_ratio", "netcache.get_s")
MP_ONLY = ("mp.start_s", "mp.batch_s", "mp.batches", "mp.batch_p50_ms",
           "mp.tasks_forwarded", "mp.forward_ratio", "mp.activation_ratio")

MATCH = "matcher.process_changes"
ROOT = "bench.run"


def patch_recognize_act(tracer: Tracer) -> None:
    """Trace the match, conflict-resolution and act entry points."""
    tracer.patch(Interpreter, "step", "interpreter.step")
    tracer.patch(SequentialMatcher, "process_changes", MATCH)
    tracer.patch(ProcessMatcher, "process_changes", MATCH)
    tracer.patch(ReteNetwork, "alpha_dispatch", "network.alpha_dispatch")
    tracer.patch(LexStrategy, "select", "conflict.select",
                 note=lambda _strategy, cs: len(cs))
    tracer.patch(ConflictSet, "apply", "conflict.apply",
                 note=lambda _cs, _production, _token, sign: sign)
    tracer.patch(CompiledRHS, "execute", "rhs.execute")


def tokens_examined(stats: MatchStats) -> int:
    """Opposite-memory scans plus same-memory delete searches."""
    return (stats.opp_examined_left + stats.opp_examined_right
            + stats.same_del_examined_left + stats.same_del_examined_right)


def merge_stats(all_stats: Iterable[MatchStats]) -> MatchStats:
    merged = MatchStats()
    for stats in all_stats:
        for name in ("node_activations", "tokens_emitted", "opp_examined_left",
                     "opp_examined_right", "same_del_examined_left",
                     "same_del_examined_right"):
            setattr(merged, name, getattr(merged, name) + getattr(stats, name))
    return merged


def recognize_act_metrics(tracer: Tracer, stats: MatchStats,
                          mp: bool = False) -> Dict[str, float]:
    """Match, conflict, act and interpreter metrics of one traced run."""
    total, self_s = tracer.total_s, tracer.self_s
    selects = [s[5] for s in tracer.named("conflict.select")]
    inserts = sum(1 for s in tracer.named("conflict.apply") if s[5] > 0)
    steps = {s[0] for s in tracer.named("interpreter.step")}
    firings = sum(1 for s in tracer.named("rhs.execute") if s[4] in steps)
    examined = tokens_examined(stats)
    return {
        "parser.parse_s": total["parser.parse"],
        "network.compile_s": total["network.compile"],
        "network.alpha_s": total["network.alpha_dispatch"],
        "matcher.match_s": total[MATCH],
        # Under mp the control process's matcher span is IPC and
        # waiting, not beta work.
        "matcher.beta_self_s": 0.0 if mp else self_s[MATCH],
        "matcher.node_activations": stats.node_activations,
        "matcher.tokens_examined": examined,
        "matcher.join_yield": stats.tokens_emitted / examined if examined else 0.0,
        "conflict.select_s": total["conflict.select"],
        "conflict.apply_s": total["conflict.apply"],
        "conflict.cs_size_mean": sum(selects) / len(selects) if selects else 0.0,
        "conflict.fire_ratio": firings / inserts if inserts else 0.0,
        "rhs.act_s": total["rhs.execute"],
        "interpreter.self_s": self_s["interpreter.step"],
        "interpreter.unaccounted_s": self_s[ROOT],
    }
