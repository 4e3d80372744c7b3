"""The serve-mix workload: a closed loop against an in-process server.

Each of ``CONNECTIONS`` client connections replays short sessions back
to back (open, transactions, close), alternating blocks and tourney
traffic built by :func:`repro.serve.traffic.build` from the seed.  Every
transaction resumes the state the one before it left, so the loop is
closed: a connection sends its next request only when the last one
has been answered.

Sessions are sized so that the timed work is the same in every
repetition and never degenerates: a tourney session ends with the
transaction that halts its program (later transactions would be
no-ops), and a blocks session stops after ``BLOCKS_TXNS`` transactions
(its working memory grows by about 3.4 elements per transaction).
"""

from __future__ import annotations

import asyncio
import gc
import random
from collections import defaultdict
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter
from typing import Dict, List, Tuple

from layers import MP_ONLY, ROOT, merge_stats, patch_recognize_act, recognize_act_metrics
from measure import NO_TRACE, Tracer, another_rep, peak_rss_mb, tail, unit_minima
from repro.rete.network import ReteNetwork
from repro.serve import netcache as netcache_module
from repro.serve import protocol
from repro.serve import server as server_module
from repro.serve.loadgen import MAX_BUSY_RETRIES, SessionRun, verify_runs
from repro.serve.netcache import NetworkCache
from repro.serve.server import ReproServer
from repro.serve.session import SessionCore
from repro.serve.traffic import Traffic, build

CONNECTIONS = 2
SESSIONS_PER_CONNECTION = 48
#: ``(teams, rounds)`` of every tourney the traffic generator can build.
TOURNEY_SHAPES = [(teams, rounds) for teams in (6, 8, 10, 12) for rounds in (2, 3, 4)]
BLOCKS_TXNS = 12
#: Tourney traffic is built this long, then cut at the halting transaction.
TOURNEY_TXNS = 40
#: Working memory no planned session exceeds.
WM_BOUND = 64


@dataclass
class Planned:
    index: int  # the session index the traffic was built for
    traffic: Traffic
    messages: List[dict]  # transact requests, without the session id


def replay(traffic: Traffic, cache: NetworkCache) -> List[Tuple[str, int]]:
    """``(outcome, working-memory size)`` of each transaction, replayed
    sequentially on a session core."""
    entry, _cached = cache.get(traffic.program)
    core = SessionCore("plan", entry)
    try:
        out = []
        for txn in traffic.txns:
            result = core.transact(list(txn.ops), max_cycles=txn.max_cycles)
            out.append((result.outcome, result.wm_size))
        return out
    finally:
        core.close()


def tourney_shape(traffic: Traffic) -> Tuple[int, int]:
    """``(teams, rounds)`` of a tourney stream: the roster it ingests
    and the round limit of its control element."""
    ops = [op for txn in traffic.txns for op in txn.ops]
    teams = sum(op.klass == "roster" for op in ops)
    rounds = next(dict(op.attrs)["max"] for op in ops if op.klass == "tourney")
    return teams, rounds


def plan(seed: int) -> List[List[Planned]]:
    """Per connection, its sessions in order, from the seed.

    The seed picks each blocks session's episodes and the order of the
    tourney sessions, but every seed plays each tourney shape the same
    number of times: tourney work grows steeply with the team count, so
    letting the seed pick shapes would make one seed's stream twice as
    long as another's.
    """
    shapes = TOURNEY_SHAPES * (CONNECTIONS * SESSIONS_PER_CONNECTION
                               // (2 * len(TOURNEY_SHAPES)))
    random.Random(seed).shuffle(shapes)
    cache = NetworkCache()
    conns: List[List[Planned]] = [[] for _ in range(CONNECTIONS)]
    index = 0  # the next session index to build traffic for
    for j in range(SESSIONS_PER_CONNECTION):
        for c in range(CONNECTIONS):
            if (j + c) % 2 == 0:
                traffic = build("blocks", index, BLOCKS_TXNS, seed)
            else:
                shape = shapes.pop()
                traffic = build("tourney", index, TOURNEY_TXNS, seed)
                while tourney_shape(traffic) != shape:
                    index += 1
                    traffic = build("tourney", index, TOURNEY_TXNS, seed)
                outcomes = [o for o, _wm in replay(traffic, cache)]
                if "halted" in outcomes:
                    del traffic.txns[outcomes.index("halted") + 1:]
            messages = [
                {"type": "transact", "ops": protocol.ops_to_wire(list(t.ops)),
                 "max_cycles": t.max_cycles}
                for t in traffic.txns
            ]
            conns[c].append(Planned(index, traffic, messages))
            index += 1
    return conns


@dataclass
class StreamRep:
    setup_s: float = 0.0
    run_s: float = 0.0
    latencies: Dict[tuple, float] = field(default_factory=dict)  # (c, j, t)
    sessions: Dict[tuple, float] = field(default_factory=dict)  # (c, j)
    firings: Dict[int, list] = field(default_factory=dict)  # index -> wire
    session_ids: Dict[tuple, str] = field(default_factory=dict)  # (c, j)
    attempted: int = 0
    failed: int = 0
    busy_retries: int = 0
    errors: List[str] = field(default_factory=list)
    netcache: Tuple[int, int] = (0, 0)  # hits, misses


class _Conn:
    """One client connection, one request in flight."""

    def __init__(self, reader, writer) -> None:
        self.reader, self.writer = reader, writer

    async def request(self, msg: dict) -> dict:
        self.writer.write(protocol.encode(msg))
        await self.writer.drain()
        line = await self.reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return protocol.decode_line(line)

    async def open(self, program: str, rep: StreamRep):
        resp = await self.request({"type": "open", "program": program})
        if not resp.get("ok"):
            rep.errors.append(f"open: {resp.get('error')}")
            return None
        return resp["session"]

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()


async def _drive(conn: _Conn, c: int, sessions: List[Planned], first_sid, rep: StreamRep):
    for j, planned in enumerate(sessions):
        session_started = perf_counter()
        sid = first_sid if j == 0 else await conn.open(planned.traffic.program, rep)
        rep.attempted += len(planned.messages)
        if sid is None:
            rep.failed += len(planned.messages)
            continue
        rep.session_ids[(c, j)] = sid
        fired = rep.firings[planned.index] = []
        for t, message in enumerate(planned.messages):
            msg = dict(message, session=sid)
            for _attempt in range(MAX_BUSY_RETRIES + 1):
                started = perf_counter()
                resp = await conn.request(msg)
                took = perf_counter() - started
                error = resp.get("error") or {}
                if error.get("code") != "busy":
                    break
                rep.busy_retries += 1
                await asyncio.sleep(error.get("retry_after_ms", 50) / 1e3)
            if not resp.get("ok") or resp["outcome"] == "deadline":
                rep.failed += 1
                rep.errors.append(f"session {planned.index} txn {t}: "
                                  f"{error or resp['outcome']}")
                continue
            rep.latencies[(c, j, t)] = took
            fired.extend(resp["firings"])
        resp = await conn.request({"type": "close", "session": sid})
        if not resp.get("ok"):
            rep.errors.append(f"close: {resp.get('error')}")
        rep.sessions[(c, j)] = perf_counter() - session_started


async def _stream(conns_plan: List[List[Planned]], tracer) -> StreamRep:
    """One repetition on a fresh server: its set-up is server start to
    the first (cold, compiling) open of each program."""
    rep = StreamRep()
    gc.collect()
    started = perf_counter()
    server = ReproServer()
    tracer.patch(server.netcache, "get", "netcache.get")
    host, port = await server.start()
    conns = []
    try:
        for _sessions in conns_plan:
            conns.append(_Conn(*await asyncio.open_connection(host, port)))
        first = await asyncio.gather(*(
            conn.open(sessions[0].traffic.program, rep)
            for conn, sessions in zip(conns, conns_plan)
        ))
        rep.setup_s = perf_counter() - started
        started = perf_counter()
        with tracer.span(ROOT):
            await asyncio.gather(*(
                _drive(conn, c, sessions, sid, rep)
                for c, (conn, sessions, sid) in enumerate(zip(conns, conns_plan, first))
            ))
        rep.run_s = perf_counter() - started
    finally:
        for conn in conns:
            await conn.close()
        await server.shutdown()
    rep.netcache = (server.netcache.hits, server.netcache.misses)
    return rep


def _traced_stream(conns_plan) -> Tuple[StreamRep, Tracer, list]:
    tracer = Tracer()
    stats: list = []
    try:
        tracer.patch(netcache_module, "parse_program", "parser.parse")
        tracer.patch(ReteNetwork, "compile", "network.compile")
        for module in (protocol, server_module):
            tracer.patch(module, "encode", "protocol.encode")
            tracer.patch(module, "decode_line", "protocol.decode")
        tracer.patch(SessionCore, "transact", "serve.transact",
                     note=lambda core, *_a, **_k: core.session_id)
        tracer.patch(SessionCore, "close", "serve.close",
                     note=lambda core: stats.append(core.interp.stats))
        patch_recognize_act(tracer)
        rep = asyncio.run(_stream(conns_plan, tracer))
    finally:
        tracer.unpatch()
    return rep, tracer, stats


def serve_metrics(rep: StreamRep, tracer: Tracer) -> Dict[str, float]:
    """Client latency minus the server's ``SessionCore.transact`` time,
    paired per transaction (a session's transactions run in order)."""
    core_s = defaultdict(list)
    for span in tracer.named("serve.transact"):
        core_s[span[5]].append(span[3] - span[2])
    overheads = [
        took - core_s[rep.session_ids[(c, j)]][t]
        for (c, j, t), took in rep.latencies.items()
    ]
    hits, misses = rep.netcache
    total = tracer.total_s
    return {
        "serve.transact_s": total["serve.transact"],
        "serve.overhead_p50_ms": median(overheads) * 1e3,
        "serve.busy_retries": rep.busy_retries,
        "protocol.codec_s": total["protocol.encode"] + total["protocol.decode"],
        "netcache.hit_ratio": hits / (hits + misses),
        "netcache.get_s": total["netcache.get"],
    }


def verified_mismatches(firings: Dict[int, list], conns_plan) -> int:
    """Sessions of one repetition whose firings differ from a sequential
    replay, through the load generator's verifier."""
    runs = [SessionRun(index=p.index, traffic=p.traffic, firings=firings.get(p.index, []))
            for sessions in conns_plan for p in sessions]
    _ok, mismatches = verify_runs(runs)
    return len(mismatches)


def measure(seconds: float, trace: bool, seed: int) -> dict:
    conns_plan = plan(seed)
    n_sessions = sum(len(s) for s in conns_plan)
    # As for the batch workloads, each repetition folds into running
    # per-unit minima, and its firings are compared with the first
    # repetition's (verified at the end) and dropped, so the benchmark's
    # own bookkeeping does not grow with the repetition count.
    setups: List[float] = []
    walls: List[float] = []
    best_txn: Dict[tuple, float] = {}
    best_session: Dict[tuple, float] = {}
    first: Dict[int, list] = {}
    attempted = failed = 0
    errors: List[str] = []
    fastest_traced = None

    def settle(rep: StreamRep) -> None:
        nonlocal attempted, failed
        if not first:
            first.update(rep.firings)
        else:
            failed += sum(rep.firings.get(i) != f for i, f in first.items())
        rep.firings = {}
        attempted += rep.attempted + n_sessions
        failed += rep.failed
        errors.extend(rep.errors)

    started = perf_counter()
    while another_rep(started, seconds, len(setups)):
        rep = asyncio.run(_stream(conns_plan, NO_TRACE))
        settle(rep)
        setups.append(rep.setup_s)
        walls.append(rep.run_s)
        best_txn = unit_minima([best_txn, rep.latencies])
        best_session = unit_minima([best_session, rep.sessions])
        if trace:
            rep, tracer, stats = _traced_stream(conns_plan)
            settle(rep)
            if fastest_traced is None or rep.run_s < fastest_traced[0].run_s:
                fastest_traced = (rep, tracer, stats)
    rss_mb = peak_rss_mb(0)
    failed += verified_mismatches(first, conns_plan)

    # The stream's wall time from per-session minima: each connection
    # runs its sessions back to back, and the stream ends with the
    # slower connection.
    run_s = max(sum(s for (c, _j), s in best_session.items() if c == conn)
                for conn in range(CONNECTIONS))
    latencies = list(best_txn.values())
    tail_s, tail_p = tail(latencies)
    result = {
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:5],
        "metrics": {
            "setup_s": min(setups),
            "run_s": run_s,
            "latency_p50_ms": median(latencies) * 1e3,
            "latency_tail_ms": tail_s * 1e3,
            "peak_rss_mb": rss_mb,
        },
        "notes": {
            "setup_s": f"minimum of {len(setups)} server starts to both cold opens",
            "run_s": f"slower connection's sum of per-session minima, {n_sessions} "
                     f"sessions over {len(setups)} streams",
            "latency_p50_ms": f"median of {len(latencies)} per-transaction "
                              f"minima over {len(setups)} streams",
            "latency_tail_ms": f"p{tail_p:.2f} of {len(latencies)} per-transaction "
                               "minima, 10 beyond",
            "peak_rss_mb": "this process",
        },
    }
    if trace:
        rep, tracer, stats = fastest_traced
        layer = recognize_act_metrics(tracer, merge_stats(stats))
        layer.update(serve_metrics(rep, tracer))
        layer.update({
            "trace.run_s": rep.run_s,
            "trace.overhead_ratio": rep.run_s / min(walls) - 1.0,
        })
        layer.update(dict.fromkeys(MP_ONLY, 0.0))
        result["layer"] = layer
        result["spans"] = tracer.spans
    return result
