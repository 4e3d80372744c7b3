"""The declarative scenario registry driving ``repro bench``.

Each :class:`Scenario` names one measured workload — a paper-table
contrast, a simulated parallel sweep, the threaded engine, or a
service-layer burst — and declares every metric it produces as a
:class:`MetricSpec`: the unit, which direction is *better*, and the
noise tolerances the compare engine applies (see docs/PERF.md).

Two metric families, deliberately separated:

* ``stable=True`` metrics are deterministic functions of the tree —
  simulated Multimax instruction counts, speed-ups, spin counts,
  activation totals.  They carry near-zero tolerances and are the
  cross-machine regression gate (CI compares them against a committed
  seed artifact).
* wall-clock metrics (seconds, txn/s, latency) are host-dependent and
  noisy; they carry generous relative tolerances plus the MAD-based
  noise band, and are only compared between runs on comparable hosts.

The ``smoke`` suite is sized to finish in a few seconds (small weaver
grid, a 3-session service burst); ``full`` adds the paper-table
workloads at the ``repro.harness`` bench sizes.
"""

from __future__ import annotations

import asyncio
import os
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, Optional, Tuple

#: Suite names scenarios may claim membership of.
SUITES = ("smoke", "full")

#: Default tolerance for deterministic (simulator-derived) metrics:
#: wide enough to absorb float formatting, far below any real change.
STABLE_REL_TOL = 1e-3


@dataclass(frozen=True)
class MetricSpec:
    """Declaration of one metric a scenario emits."""

    name: str
    unit: str
    direction: str  # "lower" | "higher" is better
    rel_tol: float
    abs_tol: float = 0.0
    stable: bool = False
    headline: bool = False

    def __post_init__(self) -> None:
        if self.direction not in ("lower", "higher"):
            raise ValueError(f"bad direction {self.direction!r} for {self.name}")
        if self.rel_tol < 0 or self.abs_tol < 0:
            raise ValueError(f"negative tolerance for {self.name}")


@dataclass
class RepResult:
    """What one repetition of a scenario produced."""

    metrics: Dict[str, float]
    #: Compiled network of the run, for node→production attribution in
    #: the captured hot-spot profile (None when not applicable).
    network: object = None


@dataclass(frozen=True)
class Scenario:
    """One registered workload: measurement callable plus metric specs."""

    scenario_id: str
    title: str
    suites: Tuple[str, ...]
    specs: Tuple[MetricSpec, ...]
    run: Callable[[], RepResult] = field(repr=False, default=None)
    #: Capture an obs hot-spot profile in a dedicated extra repetition.
    profiled: bool = True
    #: Fixed repetition count overriding the runner's ``--repeat``
    #: (None = use the runner's).  Stable-only scenarios always run once.
    repeat: Optional[int] = None
    #: Host check run before any repetition: returns ``None`` to
    #: proceed or a human-readable reason string, in which case the
    #: runner records ``{"skipped": reason, "metrics": {}}`` instead of
    #: measuring (e.g. the mp speedup curve on a <4-core host).  The
    #: compare engine treats a skipped side's metrics as added/removed,
    #: which never gates.
    precondition: Optional[Callable[[], Optional[str]]] = field(
        repr=False, default=None
    )

    @property
    def stable_only(self) -> bool:
        return all(spec.stable for spec in self.specs)

    def spec(self, name: str) -> Optional[MetricSpec]:
        for spec in self.specs:
            if spec.name == name:
                return spec
        return None


# ---------------------------------------------------------------------------
# Workload helpers
# ---------------------------------------------------------------------------

#: Smoke-suite weaver sizing: ~0.1 s of match per run — large enough to
#: time, small enough that warm-up + repetitions stay interactive.
_SMOKE_WEAVER = dict(grid=5, n_nets=1)


def _smoke_source() -> str:
    from ..programs import weaver

    return weaver.source(**_SMOKE_WEAVER)


def _run_match(source: str, memory: str):
    """One sequential run; returns ``(match_seconds, stats, network)``."""
    from ..ops5.interpreter import Interpreter

    interp = Interpreter(source, memory=memory)
    interp.run(max_cycles=50000)
    return interp.matcher.match_seconds, interp.stats, interp.network


def _match_weaver() -> RepResult:
    source = _smoke_source()
    hash_s, stats, network = _run_match(source, "hash")
    linear_s, _stats, _net = _run_match(source, "linear")
    return RepResult(
        metrics={
            "match_hash_s": hash_s,
            "match_linear_s": linear_s,
            "linear_hash_ratio": linear_s / hash_s if hash_s else 0.0,
            "activations": float(stats.node_activations),
            "wm_changes": float(stats.wme_changes),
        },
        network=network,
    )


def _sim_weaver() -> RepResult:
    from ..ops5.interpreter import Interpreter
    from ..rete.trace import TraceRecorder
    from ..simulator.engine import simulate

    recorder = TraceRecorder()
    interp = Interpreter(_smoke_source(), recorder=recorder)
    interp.run(max_cycles=50000)
    trace = recorder.trace

    def base(scheme: str):
        return simulate(trace, n_match=1, n_queues=1, lock_scheme=scheme,
                        pipelined=False)

    simple_base = base("simple")
    mrsw_base = base("mrsw")
    s_3_1 = simulate(trace, n_match=3, n_queues=1, lock_scheme="simple")
    s_7_8 = simulate(trace, n_match=7, n_queues=8, lock_scheme="simple")
    m_7_8 = simulate(trace, n_match=7, n_queues=8, lock_scheme="mrsw")
    s_7_1 = simulate(trace, n_match=7, n_queues=1, lock_scheme="simple")
    return RepResult(
        metrics={
            "uniproc_minstr": simple_base.match_instr / 1e6,
            "speedup_1p3_1q": simple_base.match_instr / s_3_1.match_instr,
            "speedup_1p7_8q": simple_base.match_instr / s_7_8.match_instr,
            "speedup_mrsw_1p7_8q": mrsw_base.match_instr / m_7_8.match_instr,
            "queue_spins_1p7_1q": s_7_1.queue_stats.mean_spins,
            "line_spins_1p7_8q": s_7_8.line_left.mean_spins,
        },
        network=interp.network,
    )


def _parallel_weaver() -> RepResult:
    from ..ops5.interpreter import Interpreter
    from ..ops5.parser import parse_program
    from ..parallel.engine import ParallelMatcher
    from ..rete.network import ReteNetwork

    program = parse_program(_smoke_source())
    network = ReteNetwork.compile(program)
    matcher = ParallelMatcher(network, n_workers=2, n_queues=2,
                              lock_scheme="simple")
    interp = Interpreter(program, matcher=matcher, network=network)
    started = perf_counter()
    try:
        interp.run(max_cycles=50000)
    finally:
        interp.close()
    return RepResult(
        metrics={"wall_s": perf_counter() - started},
        network=network,
    )


#: Worker counts of the mp speedup curve — the 1/2/4/8 ladder the
#: paper's speedup tables climb (its 16-CPU Multimax going up in
#: doublings); 1 worker is the self-baseline the ratios divide by.
_MP_WORKER_LADDER = (1, 2, 4, 8)

#: Cores needed before the curve means anything: with fewer than 4 the
#: 4- and 8-worker points just measure oversubscription.
_MP_MIN_CPUS = 4


def _mp_precondition() -> Optional[str]:
    from ..engines import mp_supported

    if not mp_supported():
        return "mp engine unavailable (no 'fork' start method)"
    cpus = os.cpu_count() or 1
    if cpus < _MP_MIN_CPUS:
        return f"host has {cpus} CPU(s); speedup curve needs >= {_MP_MIN_CPUS}"
    return None


def _mp_speedup(source: str) -> RepResult:
    """Match seconds at each rung of the worker ladder, plus ratios.

    Times ``ProcessMatcher.match_seconds`` (dispatch to merge), the
    multiprocess analogue of the quantity the paper's speedup tables
    report — conflict resolution and RHS evaluation stay sequential in
    the control process and are excluded, exactly as in the paper.
    """
    from ..ops5.interpreter import Interpreter
    from ..ops5.parser import parse_program
    from ..parallel.mp import ProcessMatcher
    from ..rete.network import ReteNetwork

    program = parse_program(source)
    network = ReteNetwork.compile(program)
    walls: Dict[int, float] = {}
    for n_workers in _MP_WORKER_LADDER:
        matcher = ProcessMatcher(network, n_workers=n_workers)
        interp = Interpreter(program, matcher=matcher, network=network)
        try:
            interp.run(max_cycles=50000)
        finally:
            interp.close()
        walls[n_workers] = matcher.match_seconds
    base = walls[1] or 1e-9
    metrics = {f"wall_{n}w_s": walls[n] for n in _MP_WORKER_LADDER}
    for n in _MP_WORKER_LADDER[1:]:
        metrics[f"speedup_{n}w"] = base / walls[n] if walls[n] else 0.0
    return RepResult(metrics=metrics, network=network)


def _mp_weaver() -> RepResult:
    return _mp_speedup(_smoke_source())


def _mp_tourney() -> RepResult:
    from ..programs import tourney

    return _mp_speedup(tourney.source(n_teams=8, n_rounds=12))


def _fabric_mp() -> RepResult:
    """Trace-fabric cost and health: a 2-worker mp run with the obs
    bus ON, worker spans shipped over the pipes and stitched into one
    multi-process Chrome trace, an (untrippable) stall watchdog riding
    along.  The fabric counters — ship batches, shipped spans, stitch
    orphans, trace schema problems, watchdog trips — are deterministic
    functions of the run and feed the stable gate; the wall clock is
    the human-readable cost headline.  Manages the bus itself, so it
    must not share a process-wide bus epoch with the profiler
    (``profiled=False``).
    """
    from ..obs import events as _events
    from ..obs.export import validate_chrome_trace
    from ..ops5.interpreter import Interpreter
    from ..ops5.parser import parse_program
    from ..parallel.mp import ProcessMatcher
    from ..rete.network import ReteNetwork

    program = parse_program(_smoke_source())
    network = ReteNetwork.compile(program)
    _events.reset()
    _events.enable()
    started = perf_counter()
    try:
        matcher = ProcessMatcher(network, n_workers=2, watchdog_s=600.0)
        interp = Interpreter(program, matcher=matcher, network=network)
        try:
            interp.run(max_cycles=50000)
            doc, orphans = matcher.obs_stitched_trace()
            trips = matcher.watchdog.trips if matcher.watchdog else 0
            ship_batches = float(matcher.fabric.ship_batches)
            shipped_spans = float(matcher.fabric.shipped_spans)
        finally:
            interp.close()
    finally:
        _events.disable()
        _events.reset()
    wall = perf_counter() - started
    return RepResult(
        metrics={
            "wall_s": wall,
            "ship_batches": ship_batches,
            "shipped_spans": shipped_spans,
            "stitch_orphans": float(orphans),
            "trace_problems": float(len(validate_chrome_trace(doc))),
            "watchdog_trips": float(trips),
        },
        network=network,
    )


def _serve_loadgen() -> RepResult:
    from ..serve.loadgen import run_loadgen

    report = asyncio.run(
        run_loadgen(scenario="blocks", sessions=3, transactions=6, spawn=True)
    )
    wall = report.wall_seconds or 1e-9
    return RepResult(
        metrics={
            "txn_s": report.txns_ok / wall,
            "p95_ms": report.latency.get("p95_ms", 0.0),
            "errors": float(report.errors),
            "busy_retries": float(report.busy_retries),
        }
    )


#: Sizing for the corgi-adversarial contrast: large enough that eager
#: Rete pays a visibly super-linear bill (~10^4..10^5 derived tokens),
#: small enough for the smoke budget.
_ADV_CROSS = dict(n_items=110, n_churn=40)
_ADV_DEEP = dict(n_per_level=13, n_churn=6)

_ADV_CROSS_SOURCE = """
(p needle
  (stage ^step cross)
  (item ^id <x>)
  (item ^id { <y> > <x> })
  (probe ^a <x> ^b <y>)
  -->
  (halt))
"""

_ADV_DEEP_SOURCE = (
    "(p chain (c0 ^a 1) (c1 ^a 1) (c2 ^a 1) - (blocker) --> (halt))"
)


def _adv_cross_batches(n_items: int, n_churn: int):
    """Stage + N items against a forever-empty probe slot, then churn:
    delete/re-add one item per round.  Eager Rete rebuilds ~N pair
    tokens per round; an unlinked lazy engine does O(1)."""
    from ..ops5.wme import WMEChange, WorkingMemory

    wm = WorkingMemory()
    batches = [[WMEChange(1, wm.add("stage", {"step": "cross"}))]
               + [WMEChange(1, wm.add("item", {"id": i}))
                  for i in range(n_items)]]
    victim = None
    for round_no in range(n_churn):
        if victim is not None:
            wm.remove(victim)
        old = victim
        victim = wm.add("item", {"id": round_no % n_items})
        batch = [WMEChange(1, victim)]
        if old is not None:
            batch.insert(0, WMEChange(-1, old))
        batches.append(batch)
    return batches


def _adv_deep_batches(n_per_level: int, n_churn: int):
    """A same-value 3-chain behind a constant blocker: Rete derives
    ~N^3 prefixes that the not-node then discards; a gate-hoisting
    engine prunes at depth 0.  Churn re-adds a c0 each round."""
    from ..ops5.wme import WMEChange, WorkingMemory

    wm = WorkingMemory()
    first = [WMEChange(1, wm.add("blocker", {}))]
    for _ in range(n_per_level):
        for level in range(3):
            first.append(WMEChange(1, wm.add(f"c{level}", {"a": 1})))
    batches = [first]
    victim = None
    for _ in range(n_churn):
        batch = []
        if victim is not None:
            wm.remove(victim)
            batch.append(WMEChange(-1, victim))
        victim = wm.add("c0", {"a": 1})
        batch.append(WMEChange(1, victim))
        batches.append(batch)
    return batches


def _serve_meter() -> RepResult:
    """Meter overhead gate: the identical service burst run twice —
    plain, then with per-session/per-tenant metering on and the
    sessions split across two tenants.  The headline is the wall-clock
    ratio (metering is O(1) counter bumps per unit of work, so the
    ratio should sit inside the noise band); the stable metrics pin
    down that the metered run actually metered — every transaction
    landed in a tenant account and the Prometheus exposition parses
    clean."""
    from ..obs import meter as _meter
    from ..obs.export import validate_prometheus
    from ..serve.loadgen import run_loadgen

    kwargs = dict(scenario="blocks", sessions=3, transactions=6, spawn=True)
    try:
        plain = asyncio.run(run_loadgen(**kwargs))
        metered = asyncio.run(run_loadgen(tenants=2, meter=True, **kwargs))
    finally:
        # The spawned server enables the module-global meter; leave the
        # process clean for whatever scenario runs next.
        _meter.disable()
    plain_wall = plain.wall_seconds or 1e-9
    metered_wall = metered.wall_seconds or 1e-9
    tenant_accounts = metered.meter.get("tenants", {})
    meter_txns = sum(
        a.get("counters", {}).get("txns", 0) for a in tenant_accounts.values()
    )
    prom_problems = len(validate_prometheus(metered.prometheus))
    return RepResult(
        metrics={
            "plain_wall_s": plain_wall,
            "metered_wall_s": metered_wall,
            "meter_overhead_x": metered_wall / plain_wall,
            "meter_txns": float(meter_txns),
            "meter_errors": float(
                plain.errors + metered.errors + prom_problems
            ),
        }
    )


def _corgi_adversarial() -> RepResult:
    """Headline contrast: sequential (eager) Rete vs the corgi lazy
    engine on adversarial cross-product / blocked-chain loads, driven
    at the matcher layer so both engines see identical WMEChange
    batches.  Token counts are deterministic and feed the stable gate;
    the wall seconds and speedups are the human-readable headline."""
    from ..corgi.engine import CorgiMatcher
    from ..ops5.parser import parse_program
    from ..rete.matcher import SequentialMatcher
    from ..rete.network import ReteNetwork

    cases = (
        ("cross", _ADV_CROSS_SOURCE, _adv_cross_batches(**_ADV_CROSS)),
        ("deep", _ADV_DEEP_SOURCE, _adv_deep_batches(**_ADV_DEEP)),
    )
    metrics: Dict[str, float] = {}
    network = None
    for name, source, batches in cases:
        program = parse_program(source)
        for eng, factory in (("rete", SequentialMatcher),
                             ("corgi", CorgiMatcher)):
            net = ReteNetwork.compile(program)
            matcher = factory(net)
            started = perf_counter()
            for batch in batches:
                matcher.process_changes(batch)
            metrics[f"{name}_{eng}_s"] = perf_counter() - started
            metrics[f"{name}_{eng}_tokens"] = float(
                matcher.stats.tokens_emitted)
            if name == "cross" and eng == "rete":
                network = net
        metrics[f"{name}_speedup"] = (
            metrics[f"{name}_rete_s"]
            / max(metrics[f"{name}_corgi_s"], 1e-9)
        )
    return RepResult(metrics=metrics, network=network)


# -- full-suite workloads (paper bench sizes; minutes, not seconds) ---------


def _full_uniproc() -> RepResult:
    """Table 4-1/4-4 contrast at bench sizes, measured fresh (no memo)."""
    from ..harness.workloads import program_source

    metrics: Dict[str, float] = {}
    network = None
    for prog in ("weaver", "rubik", "tourney"):
        source = program_source(prog)
        vs2_s, _stats, network = _run_match(source, "hash")
        vs1_s, _stats, _net = _run_match(source, "linear")
        metrics[f"{prog}_vs1_s"] = vs1_s
        metrics[f"{prog}_vs2_s"] = vs2_s
        metrics[f"{prog}_vs1_vs2"] = vs1_s / vs2_s if vs2_s else 0.0
    return RepResult(metrics=metrics, network=network)


def _full_sim_sweeps() -> RepResult:
    """Endpoint speed-ups/spins of Tables 4-5..4-9 at bench sizes."""
    from ..harness.workloads import sim, speedup

    metrics: Dict[str, float] = {}
    for prog in ("weaver", "rubik", "tourney"):
        metrics[f"{prog}_speedup_1p13_1q"] = speedup(
            prog, n_match=13, n_queues=1, lock_scheme="simple")
        metrics[f"{prog}_speedup_1p13_8q"] = speedup(
            prog, n_match=13, n_queues=8, lock_scheme="simple")
        metrics[f"{prog}_speedup_mrsw_1p13_8q"] = speedup(
            prog, n_match=13, n_queues=8, lock_scheme="mrsw")
        metrics[f"{prog}_queue_spins_1p13_1q"] = sim(
            prog, n_match=13, n_queues=1,
            lock_scheme="simple").queue_stats.mean_spins
    return RepResult(metrics=metrics)


def _full_serve_throughput() -> RepResult:
    from ..serve.loadgen import run_loadgen

    metrics: Dict[str, float] = {}
    for scenario, sessions in (("blocks", 4), ("tourney", 12)):
        report = asyncio.run(
            run_loadgen(scenario=scenario, sessions=sessions,
                        transactions=15, spawn=True)
        )
        wall = report.wall_seconds or 1e-9
        metrics[f"{scenario}_x{sessions}_txn_s"] = report.txns_ok / wall
        metrics[f"{scenario}_x{sessions}_p95_ms"] = report.latency.get(
            "p95_ms", 0.0)
        metrics[f"{scenario}_x{sessions}_errors"] = float(report.errors)
    return RepResult(metrics=metrics)


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------


def _wall(name: str, unit: str = "s", direction: str = "lower",
          rel_tol: float = 0.6, headline: bool = False) -> MetricSpec:
    return MetricSpec(name, unit, direction, rel_tol, headline=headline)


def _stable(name: str, unit: str, direction: str,
            headline: bool = False) -> MetricSpec:
    return MetricSpec(name, unit, direction, STABLE_REL_TOL,
                      stable=True, headline=headline)


SCENARIOS: Dict[str, Scenario] = {}


def _register(scenario: Scenario) -> Scenario:
    if scenario.scenario_id in SCENARIOS:
        raise ValueError(f"duplicate scenario {scenario.scenario_id!r}")
    names = [s.name for s in scenario.specs]
    if len(names) != len(set(names)):
        raise ValueError(f"duplicate metric in {scenario.scenario_id!r}")
    unknown = set(scenario.suites) - set(SUITES)
    if unknown:
        raise ValueError(f"unknown suites {unknown} in {scenario.scenario_id!r}")
    SCENARIOS[scenario.scenario_id] = scenario
    return scenario


_register(Scenario(
    scenario_id="match-weaver",
    title="Sequential match, weaver 5x5 grid: hash vs linear memories",
    suites=("smoke", "full"),
    specs=(
        _wall("match_hash_s", headline=True),
        _wall("match_linear_s"),
        MetricSpec("linear_hash_ratio", "x", "higher", 0.6),
        _stable("activations", "count", "lower"),
        _stable("wm_changes", "count", "lower"),
    ),
    run=_match_weaver,
))

_register(Scenario(
    scenario_id="sim-weaver",
    title="Simulated Multimax sweep, weaver 5x5: k procs x queues x locks",
    suites=("smoke", "full"),
    specs=(
        _stable("uniproc_minstr", "Minstr", "lower"),
        _stable("speedup_1p3_1q", "x", "higher"),
        _stable("speedup_1p7_8q", "x", "higher", headline=True),
        _stable("speedup_mrsw_1p7_8q", "x", "higher"),
        _stable("queue_spins_1p7_1q", "spins", "lower"),
        _stable("line_spins_1p7_8q", "spins", "lower"),
    ),
    run=_sim_weaver,
))

_register(Scenario(
    scenario_id="parallel-weaver",
    title="Threaded parallel engine, weaver 5x5, 2 workers / 2 queues",
    suites=("smoke", "full"),
    specs=(
        MetricSpec("wall_s", "s", "lower", 0.75, headline=True),
    ),
    run=_parallel_weaver,
))

def _mp_specs() -> Tuple[MetricSpec, ...]:
    """The speedup-curve metric block, shared by both mp scenarios.

    Everything lives in the wall-clock family (host-dependent by
    definition — the curve's whole point is how many CPUs the host
    gives us), so none of it feeds the cross-machine stable gate.
    """
    specs = [_wall(f"wall_{n}w_s") for n in _MP_WORKER_LADDER]
    for n in _MP_WORKER_LADDER[1:]:
        specs.append(MetricSpec(f"speedup_{n}w", "x", "higher", 0.5,
                                headline=(n == 4)))
    return tuple(specs)


_register(Scenario(
    scenario_id="mp-speedup-weaver",
    title="Multiprocess match speedup curve, weaver 5x5, 1/2/4/8 workers",
    suites=("smoke", "full"),
    specs=_mp_specs(),
    run=_mp_weaver,
    profiled=False,
    repeat=1,
    precondition=_mp_precondition,
))

_register(Scenario(
    scenario_id="mp-speedup-tourney",
    title="Multiprocess match speedup curve, tourney 8x12, 1/2/4/8 workers",
    suites=("full",),
    specs=_mp_specs(),
    run=_mp_tourney,
    profiled=False,
    repeat=1,
    precondition=_mp_precondition,
))

_register(Scenario(
    scenario_id="fabric-mp",
    title="Trace fabric: 2-worker mp run, bus on, stitched Chrome trace",
    suites=("smoke", "full"),
    specs=(
        _wall("wall_s", headline=True),
        _stable("ship_batches", "count", "lower"),
        _stable("shipped_spans", "count", "lower"),
        _stable("stitch_orphans", "count", "lower"),
        _stable("trace_problems", "count", "lower"),
        _stable("watchdog_trips", "count", "lower"),
    ),
    run=_fabric_mp,
    profiled=False,
    repeat=1,
    precondition=_mp_precondition,
))

_register(Scenario(
    scenario_id="serve-loadgen",
    title="Service layer: 3 sessions x 6 transactions, blocks scenario",
    suites=("smoke", "full"),
    specs=(
        MetricSpec("txn_s", "txn/s", "higher", 0.6, headline=True),
        MetricSpec("p95_ms", "ms", "lower", 1.5),
        MetricSpec("errors", "count", "lower", 0.0, stable=True),
        MetricSpec("busy_retries", "count", "lower", 0.0, abs_tol=20.0),
    ),
    run=_serve_loadgen,
    profiled=False,
))

_register(Scenario(
    scenario_id="serve-meter",
    title="Meter overhead: plain vs metered 2-tenant service burst",
    suites=("smoke", "full"),
    specs=(
        _wall("plain_wall_s"),
        _wall("metered_wall_s"),
        MetricSpec("meter_overhead_x", "x", "lower", 0.6, headline=True),
        _stable("meter_txns", "count", "higher"),
        _stable("meter_errors", "count", "lower"),
    ),
    run=_serve_meter,
    profiled=False,
))

_register(Scenario(
    scenario_id="corgi-adversarial",
    title="Lazy corgi vs eager Rete on cross-product / blocked-chain loads",
    suites=("smoke", "full"),
    specs=tuple(
        spec
        for case in ("cross", "deep")
        for spec in (
            _wall(f"{case}_rete_s"),
            _wall(f"{case}_corgi_s"),
            MetricSpec(f"{case}_speedup", "x", "higher", 0.6,
                       headline=(case == "cross")),
            _stable(f"{case}_rete_tokens", "count", "lower"),
            _stable(f"{case}_corgi_tokens", "count", "lower"),
        )
    ),
    run=_corgi_adversarial,
    profiled=False,
))

_register(Scenario(
    scenario_id="tables-uniproc",
    title="Tables 4-1/4-4 contrast at harness bench sizes",
    suites=("full",),
    specs=tuple(
        spec
        for prog in ("weaver", "rubik", "tourney")
        for spec in (
            _wall(f"{prog}_vs1_s", rel_tol=0.5),
            _wall(f"{prog}_vs2_s", rel_tol=0.5,
                  headline=(prog == "tourney")),
            MetricSpec(f"{prog}_vs1_vs2", "x", "higher", 0.5),
        )
    ),
    run=_full_uniproc,
    repeat=1,
))

_register(Scenario(
    scenario_id="sim-sweeps",
    title="Tables 4-5..4-9 endpoints at harness bench sizes",
    suites=("full",),
    specs=tuple(
        spec
        for prog in ("weaver", "rubik", "tourney")
        for spec in (
            _stable(f"{prog}_speedup_1p13_1q", "x", "higher"),
            _stable(f"{prog}_speedup_1p13_8q", "x", "higher",
                    headline=(prog == "rubik")),
            _stable(f"{prog}_speedup_mrsw_1p13_8q", "x", "higher"),
            _stable(f"{prog}_queue_spins_1p13_1q", "spins", "lower"),
        )
    ),
    run=_full_sim_sweeps,
    profiled=False,
))

_register(Scenario(
    scenario_id="serve-throughput",
    title="Service throughput at scale points (blocks x4, tourney x12)",
    suites=("full",),
    specs=tuple(
        spec
        for scenario, sessions in (("blocks", 4), ("tourney", 12))
        for spec in (
            MetricSpec(f"{scenario}_x{sessions}_txn_s", "txn/s", "higher", 0.6),
            MetricSpec(f"{scenario}_x{sessions}_p95_ms", "ms", "lower", 1.5),
            MetricSpec(f"{scenario}_x{sessions}_errors", "count", "lower",
                       0.0, stable=True),
        )
    ),
    run=_full_serve_throughput,
    profiled=False,
    repeat=1,
))


def select(suite: Optional[str] = None,
           scenario_ids: Optional[Tuple[str, ...]] = None) -> Dict[str, Scenario]:
    """Scenarios for one suite name (``"all"`` = everything) or an
    explicit id list; raises ``ValueError`` for unknown names."""
    if scenario_ids:
        unknown = [sid for sid in scenario_ids if sid not in SCENARIOS]
        if unknown:
            raise ValueError(
                f"unknown scenarios {unknown}; available: {sorted(SCENARIOS)}"
            )
        return {sid: SCENARIOS[sid] for sid in scenario_ids}
    if suite == "all":
        return dict(SCENARIOS)
    if suite not in SUITES:
        raise ValueError(
            f"unknown suite {suite!r}; expected one of {SUITES + ('all',)}"
        )
    return {
        sid: sc for sid, sc in SCENARIOS.items() if suite in sc.suites
    }
