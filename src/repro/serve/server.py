"""The asyncio production-rule server.

One TCP listener; line-delimited JSON requests (see :mod:`protocol`).
Each connection's read loop *stages* requests synchronously — parse,
validate, enqueue onto the target session's bounded inbox — then
finishes each response in its own task, so one connection can carry
many sessions concurrently while per-session transaction order is
preserved (staging happens in arrival order, before any await).

Shutdown is graceful: the listener closes, every session drains its
queued transactions, engines release, then connections close.  A
``shutdown`` request triggers the same path remotely, which is how the
CI smoke job stops the server it started.
"""

from __future__ import annotations

import asyncio
from time import perf_counter
from typing import Any, Dict, Optional, Tuple

from ..engines import ENGINE_NAMES, mp_supported
from ..obs import context as obs_context
from ..obs import events as obs_events
from ..obs import meter as obs_meter
from ..obs import profile as obs_profile
from ..obs.export import prometheus_text
from ..ops5.errors import Ops5Error
from ..ops5.interpreter import TransactionError
from .limits import BudgetError, ServiceLimits
from .metrics import ServerMetrics
from .netcache import NetworkCache
from .protocol import (
    E_BAD_REQUEST,
    E_BUDGET,
    E_BUSY,
    E_INTERNAL,
    E_PARSE,
    E_SESSION_LIMIT,
    E_SHUTTING_DOWN,
    E_TXN,
    E_UNKNOWN_SESSION,
    MAX_LINE_BYTES,
    ProtocolError,
    decode_line,
    encode,
    error_response,
    firings_to_wire,
    ok_response,
    ops_from_wire,
)
from .session import Busy, Session, SessionCore


class ReproServer:
    """Hosts many sessions over shared compiled networks."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        limits: Optional[ServiceLimits] = None,
        mode: str = "compiled",
        meter: bool = False,
        slo: Optional[list] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.limits = (limits or ServiceLimits()).validate()
        self.netcache = NetworkCache(mode=mode)
        self.metrics = ServerMetrics()
        self.sessions: Dict[str, Session] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: set = set()
        self._next_session = 1
        self._draining = False
        self._stop: Optional[asyncio.Event] = None
        #: Fabric collectors of closed mp sessions, kept so a loadgen
        #: run can stitch one trace covering every session's workers
        #: after shutdown — (session_id, FabricCollector) pairs.
        self.retired_fabric: list = []
        self.meter_enabled = meter
        if meter:
            # Metering is process-global (the engines report into the
            # same module the sessions register with); a fresh epoch per
            # server keeps counters scoped to this server's lifetime.
            obs_meter.enable(slo)

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and listen; returns the actual (host, port)."""
        self._stop = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_conn, self.host, self.port, limit=MAX_LINE_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.host, self.port

    async def serve_forever(self) -> None:
        """Serve until :meth:`shutdown` runs (locally or via request)."""
        assert self._stop is not None, "call start() first"
        await self._stop.wait()
        await self.shutdown()

    def request_shutdown(self) -> None:
        if self._stop is not None:
            self._stop.set()

    async def shutdown(self, drain: bool = True) -> None:
        """Stop listening, drain every session, release engines."""
        if self._draining:
            return
        self._draining = True
        if self._stop is not None:
            self._stop.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for session in list(self.sessions.values()):
            if drain:
                await session.drain()
            else:
                session.closing = True
                session.core.close()
            self._retire_fabric(session)
            self.metrics.sessions_closed += 1
        self.sessions.clear()
        # Reap connection handlers: clients that already hung up finish
        # on their own; anything still parked on a read gets cancelled.
        if self._conn_tasks:
            _done, pending = await asyncio.wait(self._conn_tasks, timeout=1.0)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)

    def preload(self, source: str) -> str:
        """Warm the network cache with a program; returns its key."""
        entry, _cached = self.netcache.get(source)
        return entry.key

    # -- connection handling -----------------------------------------------

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.metrics.connections += 1
        conn_task = asyncio.current_task()
        if conn_task is not None:
            self._conn_tasks.add(conn_task)
            conn_task.add_done_callback(self._conn_tasks.discard)
        write_lock = asyncio.Lock()
        tasks = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, ConnectionError):
                    break  # over-long line or peer reset
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.ensure_future(
                    self._serve_one(line, writer, write_lock)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
                # Yield so the staged request (everything up to its
                # first await) runs before the next line is read.
                await asyncio.sleep(0)
        finally:
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_one(
        self, line: bytes, writer: asyncio.StreamWriter, write_lock: asyncio.Lock
    ) -> None:
        req_id: Any = None
        self.metrics.requests += 1
        try:
            msg = decode_line(line)
            req_id = msg.get("id")
            response = await self._dispatch(msg)
        except ProtocolError as exc:
            self.metrics.errors += 1
            response = error_response(
                req_id, exc.code, str(exc), retry_after_ms=exc.retry_after_ms
            )
        except Exception as exc:  # keep the server alive on engine bugs
            self.metrics.errors += 1
            response = error_response(req_id, E_INTERNAL, f"{type(exc).__name__}: {exc}")
        async with write_lock:
            try:
                writer.write(encode(response))
                await writer.drain()
            except (ConnectionError, OSError):
                pass  # client went away; nothing to tell it

    # -- request dispatch --------------------------------------------------

    async def _dispatch(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        req_id = msg.get("id")
        rtype = msg.get("type")
        if rtype == "transact":
            # Stage synchronously (ordering!), then await completion.
            start = perf_counter()
            obs_on = obs_events.ENABLED
            t0 = obs_events.now() if obs_on else 0
            fut, ctx = self._stage_transact(msg)
            try:
                result = await fut
            except BudgetError as exc:
                raise ProtocolError(E_BUDGET, str(exc))
            except TransactionError as exc:
                raise ProtocolError(E_TXN, str(exc))
            finally:
                if obs_on:
                    # The serve-verb span: the root of the request's
                    # causal chain in a stitched trace, and groupable
                    # by session in Perfetto queries.
                    outcome = (
                        "error" if fut.cancelled() or fut.exception()
                        else fut.result().outcome
                    )
                    obs_events.span(
                        "serve", "transact", t0, obs_events.now(),
                        args=dict(ctx.ids(), outcome=outcome),
                    )
            self.metrics.cycles += result.cycles
            self.metrics.firings += len(result.firings)
            self.metrics.transactions += 1
            self.metrics.latency.record(perf_counter() - start)
            return ok_response(
                req_id,
                outcome=result.outcome,
                cycles=result.cycles,
                total_cycles=result.total_cycles,
                firings=firings_to_wire(result.firings),
                output=result.output,
                created=result.created,
                wm_size=result.wm_size,
            )
        if rtype == "open":
            return self._handle_open(msg)
        if rtype == "stats":
            return self._handle_stats(msg)
        if rtype == "profile":
            return self._handle_profile(msg)
        if rtype == "dump":
            return self._handle_dump(msg)
        if rtype == "meter":
            return self._handle_meter(msg)
        if rtype == "close":
            return await self._handle_close(msg)
        if rtype == "ping":
            return ok_response(req_id, pong=True)
        if rtype == "shutdown":
            self.request_shutdown()
            return ok_response(req_id, shutting_down=True)
        raise ProtocolError(E_BAD_REQUEST, f"unknown request type {rtype!r}")

    def _session_for(self, msg: Dict[str, Any]) -> Session:
        sid = msg.get("session")
        session = self.sessions.get(sid)
        if session is None or session.closing:
            raise ProtocolError(E_UNKNOWN_SESSION, f"no session {sid!r}")
        return session

    def _stage_transact(
        self, msg: Dict[str, Any]
    ) -> Tuple["asyncio.Future", obs_context.RequestContext]:
        if self._draining:
            raise ProtocolError(E_SHUTTING_DOWN, "server is draining")
        session = self._session_for(msg)
        ops = ops_from_wire(msg.get("ops"))
        max_cycles = msg.get("max_cycles")
        if max_cycles is not None and (
            isinstance(max_cycles, bool) or not isinstance(max_cycles, int)
        ):
            raise ProtocolError(E_BAD_REQUEST, "max_cycles must be an integer")
        deadline_ms = msg.get("deadline_ms")
        if deadline_ms is not None and not isinstance(deadline_ms, (int, float)):
            raise ProtocolError(E_BAD_REQUEST, "deadline_ms must be a number")
        # Every transact gets a request context; the session worker
        # activates it around the transaction so spans and meter
        # counters attribute to this request end to end.
        ctx = obs_context.new_request(
            session_id=session.session_id, tenant=session.core.tenant
        )
        try:
            return session.submit(ops, max_cycles, deadline_ms, ctx=ctx), ctx
        except Busy as exc:
            self.metrics.rejected_busy += 1
            raise ProtocolError(
                E_BUSY, str(exc), retry_after_ms=exc.retry_after_ms
            ) from None

    def _handle_open(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        req_id = msg.get("id")
        if self._draining:
            raise ProtocolError(E_SHUTTING_DOWN, "server is draining")
        source = msg.get("program")
        if not isinstance(source, str) or not source.strip():
            raise ProtocolError(E_BAD_REQUEST, "open requires a program text")
        strategy = msg.get("strategy", "lex")
        if strategy not in ("lex", "mea"):
            raise ProtocolError(E_BAD_REQUEST, f"unknown strategy {strategy!r}")
        engine = msg.get("engine", "sequential")
        if engine not in ENGINE_NAMES:
            raise ProtocolError(
                E_BAD_REQUEST,
                f"unknown engine {engine!r}; expected one of "
                f"{', '.join(ENGINE_NAMES)}",
            )
        workers = msg.get("workers", 2)
        if not isinstance(workers, int) or not 1 <= workers <= 16:
            raise ProtocolError(
                E_BAD_REQUEST, "workers must be an integer in 1..16"
            )
        tenant = msg.get("tenant", "default")
        if not isinstance(tenant, str) or not tenant:
            raise ProtocolError(
                E_BAD_REQUEST, "tenant must be a non-empty string"
            )
        if engine == "mp" and not mp_supported():
            raise ProtocolError(
                E_BAD_REQUEST,
                "engine 'mp' needs the 'fork' start method, which this "
                "host lacks; use 'threaded' or 'sequential'",
            )
        # Only the worker-pool engines take n_workers; sequential and
        # corgi are single-threaded by design.
        engine_opts: Optional[Dict[str, Any]] = None
        if engine in ("threaded", "mp"):
            engine_opts = {"n_workers": workers}
        if len(self.sessions) >= self.limits.max_sessions:
            self.metrics.rejected_busy += 1
            raise ProtocolError(
                E_SESSION_LIMIT,
                f"session table full ({self.limits.max_sessions})",
                retry_after_ms=self.limits.retry_after_ms,
            )
        try:
            entry, cached = self.netcache.get(source)
        except Ops5Error as exc:
            raise ProtocolError(E_PARSE, str(exc)) from None
        sid = f"s{self._next_session}"
        self._next_session += 1
        core = SessionCore(
            sid, entry, limits=self.limits, strategy=strategy,
            engine=engine, engine_opts=engine_opts, tenant=tenant,
        )
        session = Session(core)
        session.start()
        self.sessions[sid] = session
        self.metrics.sessions_opened += 1
        return ok_response(req_id, session=sid, cached=cached, key=entry.key)

    def _retire_fabric(self, session: Session) -> None:
        """Keep a closed mp session's fabric collector so one stitched
        trace can still cover its workers after the engine is gone."""
        if session.core.engine != "mp":
            return
        fabric = getattr(session.core.interp.matcher, "fabric", None)
        if fabric is not None and fabric.lanes:
            self.retired_fabric.append((session.session_id, fabric))

    async def _handle_close(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        session = self._session_for(msg)
        self.sessions.pop(session.session_id, None)
        drained = await session.drain()
        self._retire_fabric(session)
        self.metrics.sessions_closed += 1
        return ok_response(
            msg.get("id"), closed=session.session_id, drained=drained
        )

    def _handle_stats(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        req_id = msg.get("id")
        fmt = msg.get("format", "json")
        if fmt not in ("json", "prometheus"):
            raise ProtocolError(E_BAD_REQUEST, f"unknown stats format {fmt!r}")
        sid = msg.get("session")
        if sid is not None:
            session = self._session_for(msg)
            return ok_response(req_id, session=sid, stats=session.snapshot())
        if fmt == "prometheus":
            text = prometheus_text(
                self.metrics.snapshot(),
                sessions={
                    s.session_id: s.snapshot() for s in self.sessions.values()
                },
                netcache=self.netcache.stats(),
                obs={
                    "enabled": obs_events.enabled(),
                    "dropped_events": obs_events.dropped_total(),
                },
                meter=obs_meter.snapshot() if obs_meter.ENABLED else None,
            )
            return ok_response(req_id, format="prometheus", body=text)
        return ok_response(
            req_id,
            server=self.metrics.snapshot(),
            netcache=self.netcache.stats(),
            sessions={s.session_id: s.snapshot() for s in self.sessions.values()},
        )

    def _handle_dump(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        """Flight-recorder snapshot of this server process: the
        always-on ring of recent engine events (every session's engines
        feed it), for diagnosing a live server without restarting it
        with tracing on."""
        from ..obs import flight as obs_flight

        doc = obs_flight.snapshot("serve dump")
        return ok_response(
            msg.get("id"),
            flight=doc,
            obs_enabled=obs_events.enabled(),
            dropped_events=obs_events.dropped_total(),
        )

    def _handle_meter(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        """The metering snapshot: per-session and per-tenant counters,
        latency histograms with exemplars, and SLO burn rates
        (:func:`repro.obs.meter.snapshot`).  Answered even when
        metering is off — ``enabled: false`` with empty account maps —
        so scrapers need no capability probe."""
        return ok_response(
            msg.get("id"),
            enabled=obs_meter.ENABLED,
            meter=obs_meter.snapshot(),
        )

    def _handle_profile(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        """Live engine profiles: per-session match statistics, and —
        when :mod:`repro.obs` is enabled in this process — the global
        hot-spot profile built from the current event-bus snapshot."""
        req_id = msg.get("id")
        sid = msg.get("session")
        if sid is not None:
            session = self._session_for(msg)
            return ok_response(req_id, session=sid, profile=session.profile())
        payload: Dict[str, Any] = {
            "sessions": {
                s.session_id: s.profile() for s in self.sessions.values()
            },
            "netcache": self.netcache.stats(),
            "obs_enabled": obs_events.enabled(),
        }
        if obs_events.enabled():
            payload["obs"] = obs_profile.to_json(
                obs_profile.build(obs_events.snapshot())
            )
        return ok_response(req_id, **payload)
