"""The batch workloads: one program run from startup to halt, repeated.

A repetition parses and compiles the program and builds the
interpreter (its set-up, including the mp fork), then runs the
recognize-act loop to the end, timing every ``Interpreter.step`` call.
Correctness is checked after the timing: each run's firings, output
and final working memory are serialised, and the bytes must equal the
sequential oracle's.
"""

from __future__ import annotations

import gc
import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Dict, List, Optional

from layers import (MATCH, MP_ONLY, ROOT, SERVE_ONLY, patch_recognize_act,
                    recognize_act_metrics)
from measure import (NO_TRACE, Tracer, another_rep, peak_rss_mb, tail, unit_minima,
                     workers_peak_kb)
from repro.harness.workloads import program_source
from repro.ops5.interpreter import Interpreter
from repro.ops5.parser import parse_program
from repro.parallel.mp import ProcessMatcher
from repro.rete.network import ReteNetwork
from repro.rete.stats import MatchStats

#: sha256 of the sequential engine's serialised run of each program at
#: bench size (firings, output and final working memory).  The inputs
#: do not depend on the seed, so one digest serves every seed.
DIGESTS = json.loads((Path(__file__).parent / "digests.json").read_text())


@dataclass(frozen=True)
class Batch:
    program: str  # a repro.harness.workloads program name
    engine: str
    engine_opts: Optional[dict] = None


BATCHES = {
    "weaver-seq": Batch("weaver", "sequential"),
    "weaver-mp2": Batch("weaver", "mp", {"n_workers": 2}),
    "rubik-mp2": Batch("rubik", "mp", {"n_workers": 2}),
}


@dataclass
class Rep:
    setup_s: float
    run_s: float
    startup_s: float  # Interpreter.startup, the run's first unit
    steps: Dict[int, float]  # cycle -> seconds in Interpreter.step
    record: bytes
    stats: MatchStats
    ipc: Dict[str, int]
    workers_kb: int


def run_record(firings, interp: Interpreter) -> bytes:
    """A run's firings, output and final working memory, serialised."""
    doc = {
        "firings": [[f.cycle, f.production, list(f.timetags)] for f in firings],
        "output": interp.output,
        "wm": sorted([w.timetag, w.klass, [list(a) for a in w.attrs]]
                     for w in interp.wm),
    }
    return json.dumps(doc, separators=(",", ":"), sort_keys=True).encode()


def digest(record: bytes) -> str:
    return hashlib.sha256(record).hexdigest()


def run_once(batch: Batch, source: str, tracer=NO_TRACE) -> Rep:
    """Set up from program text, then run to the end."""
    gc.collect()
    interp = None
    try:
        tracer.patch(ProcessMatcher, "__init__", "mp.start")
        started = perf_counter()
        with tracer.span("parser.parse"):
            program = parse_program(source)
        with tracer.span("network.compile"):
            network = ReteNetwork.compile(program)
        interp = Interpreter(program, network=network, engine=batch.engine,
                             engine_opts=batch.engine_opts)
        setup_s = perf_counter() - started
        patch_recognize_act(tracer)
        steps: Dict[int, float] = {}
        firings = []
        started = perf_counter()
        with tracer.span(ROOT):
            interp.startup()
            startup_s = perf_counter() - started
            while True:
                t0 = perf_counter()
                firing = interp.step()
                took = perf_counter() - t0
                if firing is None:
                    break
                steps[firing.cycle] = took
                firings.append(firing)
        run_s = perf_counter() - started
    finally:
        tracer.unpatch()
        workers_kb = workers_peak_kb()
        if interp is not None:
            interp.close()
    return Rep(setup_s, run_s, startup_s, steps, run_record(firings, interp), interp.stats,
               getattr(interp.matcher, "ipc_counters", {}), workers_kb)


def failed_runs(batch: Batch, records: Counter, oracle: Optional[bytes]) -> int:
    """Runs whose record (counted per distinct record) differs from the
    reference: the committed digest for the sequential engine, the
    sequential replay's bytes for any other engine."""
    if oracle is None:
        expected = DIGESTS[batch.program]
        return sum(n for r, n in records.items() if digest(r) != expected)
    return sum(n for r, n in records.items() if r != oracle)


def mp_metrics(tracer: Tracer, rep: Rep, sequential: MatchStats) -> Dict[str, float]:
    """The mp layer as the control process sees it: the fork, one
    matcher round trip per batch, and the workers' IPC counters."""
    batches = tracer.durations(MATCH)
    forwarded = rep.ipc["tasks_forwarded"]
    return {
        "mp.start_s": tracer.total_s["mp.start"],
        "mp.batch_s": sum(batches),
        "mp.batches": len(batches),
        "mp.batch_p50_ms": median(batches) * 1e3,
        "mp.tasks_forwarded": forwarded,
        "mp.forward_ratio": forwarded / rep.ipc["tasks_local"],
        "mp.activation_ratio": rep.stats.node_activations / sequential.node_activations,
    }


def measure(name: str, seconds: float, trace: bool) -> dict:
    batch = BATCHES[name]
    source = program_source(batch.program)
    # Each repetition folds into running per-cycle minima and a count
    # per distinct run record, so the benchmark's own bookkeeping does
    # not grow with the repetition count and inflate peak_rss_mb.
    reps: List[Rep] = []
    best: Dict[int, float] = {}
    records: Counter = Counter()
    fastest_traced = None
    started = perf_counter()
    while another_rep(started, seconds, len(reps)):
        rep = run_once(batch, source)
        best = unit_minima([best, rep.steps])
        records[rep.record] += 1
        rep.steps = rep.record = None
        reps.append(rep)
        if trace:
            tracer = Tracer()
            rep = run_once(batch, source, tracer)
            records[rep.record] += 1
            if fastest_traced is None or rep.run_s < fastest_traced[0].run_s:
                fastest_traced = (rep, tracer)
    # Before the oracle replay, whose memories would count too.
    rss_mb = peak_rss_mb(max(r.workers_kb for r in reps))

    oracle = oracle_stats = None
    if batch.engine != "sequential":
        replay = run_once(Batch(batch.program, "sequential"), source)
        oracle, oracle_stats = replay.record, replay.stats
    failed = failed_runs(batch, records, oracle)

    latencies = list(best.values())
    tail_s, tail_p = tail(latencies)
    result = {
        "attempted": sum(records.values()),
        "failed": failed,
        "metrics": {
            "setup_s": min(r.setup_s for r in reps),
            "run_s": min(r.startup_s for r in reps) + sum(latencies),
            "latency_p50_ms": median(latencies) * 1e3,
            "latency_tail_ms": tail_s * 1e3,
            "peak_rss_mb": rss_mb,
        },
        "notes": {
            "setup_s": f"minimum of {len(reps)} set-ups",
            "run_s": f"sum of per-unit minima (startup, {len(latencies)} cycles) "
                     f"over {len(reps)} runs",
            "latency_p50_ms": f"median of {len(latencies)} per-cycle minima "
                              f"over {len(reps)} runs",
            "latency_tail_ms": f"p{tail_p:.2f} of {len(latencies)} per-cycle "
                               "minima, 10 beyond",
            "peak_rss_mb": "this process plus its match processes",
        },
    }
    if trace:
        rep, tracer = fastest_traced
        mp = batch.engine == "mp"
        layer = recognize_act_metrics(tracer, rep.stats, mp)
        layer.update({
            "trace.run_s": rep.run_s,
            "trace.overhead_ratio": rep.run_s / min(r.run_s for r in reps) - 1.0,
        })
        layer.update(dict.fromkeys(SERVE_ONLY, 0.0))
        layer.update(mp_metrics(tracer, rep, oracle_stats) if mp
                     else dict.fromkeys(MP_ONLY, 0.0))
        result["layer"] = layer
        result["spans"] = tracer.spans
    return result
