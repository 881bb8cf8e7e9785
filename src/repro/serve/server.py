"""The asyncio front door: ``repro-race serve``.

One :class:`RaceServer` accepts many concurrent clients over TCP or a
Unix socket, parses newline-delimited JSON frames
(:mod:`repro.serve.protocol`), plans submissions through the engine's
planner (static discharge + within-request dedup), and routes the
resulting jobs through the :class:`~repro.serve.jobs.JobManager` onto a
thread worker pool that shares the process-wide hot state
(:class:`~repro.serve.state.HotState`).

Why threads and not processes: the daemon's entire point is that the
ArgStore, the SMT query cache, and the lowered CFAs stay *in memory*
across requests.  Worker threads share them directly (each hot context
carries a lock; each thread has its own incremental SMT session); a
process pool would re-serialize the state per job, which is exactly the
CLI's cold-start problem again.

Graceful drain: on SIGTERM/SIGINT the server stops accepting work (new
submissions are answered ``RETRYABLE``), queued jobs fail
``RETRYABLE``, in-flight jobs run to completion and their results are
delivered, then the qcache warm tier is flushed and the sockets close
(each portfolio job has already saved the win-rate book).
"""

from __future__ import annotations

import asyncio
import signal
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Any

from ..engine.events import EventLog
from ..engine.planner import BatchItem, plan
from .jobs import ClientBudget, JobManager, RequestTracker, _row
from .protocol import (
    PROTOCOL,
    ErrorCode,
    ProtocolError,
    decode_frame,
    encode_frame,
    error_frame,
    validate_submit,
)
from .state import HotState

__all__ = ["RaceServer", "ServeConfig"]


@dataclass
class ServeConfig:
    """Daemon configuration (the ``serve`` subcommand's flags)."""

    socket: str | None = None  # Unix socket path; None -> TCP
    host: str = "127.0.0.1"
    port: int = 7734
    cache_dir: str | None = ".repro-cache"
    workers: int = 2
    memory_mb: float = 512.0
    qcache_flush_every: int = 256
    #: Server-side caps; a client's hello may lower but never raise them.
    max_client_jobs: int = 4
    solver_quota_s: float | None = None
    events: str | None = None
    prefilter: bool = True


class _Client:
    """One connection's send queue, identity, and budget."""

    _ids = iter(range(1, 1 << 30))

    def __init__(self, writer: asyncio.StreamWriter, config: ServeConfig):
        self.writer = writer
        self.name = f"client-{next(self._ids)}"
        self.budget = ClientBudget(
            max_jobs=config.max_client_jobs,
            solver_quota_s=config.solver_quota_s,
        )
        self.closed = False

    def send(self, frame: dict[str, Any]) -> None:
        """Queue one frame; silently drops once the peer is gone (jobs
        it subscribed to may finish after it disconnects)."""
        if self.closed or self.writer.is_closing():
            return
        try:
            self.writer.write(encode_frame(frame))
        except (ConnectionError, RuntimeError):
            self.closed = True

    def apply_hello(self, frame: dict[str, Any], config: ServeConfig) -> None:
        name = frame.get("client")
        if isinstance(name, str) and name:
            self.name = name[:80]
        max_jobs = frame.get("max_jobs")
        if isinstance(max_jobs, int) and 1 <= max_jobs:
            self.budget.max_jobs = min(max_jobs, config.max_client_jobs)
        quota = frame.get("solver_quota_s")
        if isinstance(quota, (int, float)) and quota >= 0:
            cap = config.solver_quota_s
            self.budget.solver_quota_s = (
                float(quota) if cap is None else min(float(quota), cap)
            )


class RaceServer:
    """The serve daemon: asyncio acceptor + worker pool + hot state."""

    def __init__(self, config: ServeConfig | None = None):
        self.config = config or ServeConfig()
        self.events = EventLog(self.config.events)
        self.hot = HotState(
            cache_dir=self.config.cache_dir,
            memory_mb=self.config.memory_mb,
            qcache_flush_every=self.config.qcache_flush_every,
            events=self.events,
        )
        self.executor = ThreadPoolExecutor(
            max_workers=max(1, self.config.workers),
            thread_name_prefix="repro-serve",
        )
        self.loop: asyncio.AbstractEventLoop | None = None
        self.manager: JobManager | None = None
        self._server: asyncio.AbstractServer | None = None
        self._drained = asyncio.Event()
        self.draining = False
        self._t0 = time.perf_counter()
        self._requests = 0
        self._live_trackers: set[RequestTracker] = set()

    def _tracker_done(self, tracker: RequestTracker) -> None:
        self._live_trackers.discard(tracker)

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        self.loop = asyncio.get_running_loop()
        self.manager = JobManager(
            hot=self.hot,
            executor=self.executor,
            loop=self.loop,
            events=self.events,
        )
        if self.config.socket is not None:
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=self.config.socket
            )
            where = self.config.socket
        else:
            self._server = await asyncio.start_server(
                self._handle_connection,
                host=self.config.host,
                port=self.config.port,
            )
            sock = self._server.sockets[0].getsockname()
            self.config.port = sock[1]  # resolve port=0 for tests
            where = f"{self.config.host}:{self.config.port}"
        self.events.emit(
            "serve_started",
            address=where,
            workers=self.config.workers,
            cache=self.config.cache_dir or "",
        )

    async def drain(self) -> None:
        """Graceful shutdown: finish in-flight, refuse the rest, flush."""
        if self.draining:
            await self._drained.wait()
            return
        self.draining = True
        assert self.manager is not None
        self.manager.draining = True
        if self._server is not None:
            self._server.close()
        in_flight = self.manager.drain()
        self.events.emit(
            "serve_draining",
            in_flight=len(in_flight),
            retryable=self.manager.counters["retryable"],
        )
        if in_flight:
            await asyncio.get_running_loop().run_in_executor(
                None, partial(_wait_all, in_flight)
            )
        # The futures' done-callbacks re-enter the loop via
        # call_soon_threadsafe; wait for every live request to deliver
        # its terminal frame before tearing the pool down.
        loop = asyncio.get_running_loop()
        deadline = loop.time() + 10.0
        while self._live_trackers and loop.time() < deadline:
            await asyncio.sleep(0.01)
        await asyncio.sleep(0.05)  # let transports flush result frames
        self.executor.shutdown(wait=True)
        self.hot.flush()
        self.events.emit("serve_stopped", **self.stats())
        if self._server is not None:
            await self._server.wait_closed()
        self._drained.set()

    async def serve_forever(self) -> None:
        """Run until SIGTERM/SIGINT, then drain gracefully."""
        await self.start()
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError):
                pass  # non-POSIX event loop
        await stop.wait()
        await self.drain()

    def stats(self) -> dict[str, Any]:
        out = {
            "uptime_s": round(time.perf_counter() - self._t0, 3),
            "requests": self._requests,
            **(self.manager.stats() if self.manager is not None else {}),
        }
        hot = self.hot.stats()
        out["evictions"] = hot.pop("evictions")
        out["hot"] = hot
        return out

    # -- connection handling --------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        client = _Client(writer, self.config)
        client.send(
            {
                "frame": "hello",
                "protocol": PROTOCOL,
                "server": "repro-race",
                "max_jobs": client.budget.max_jobs,
                "solver_quota_s": client.budget.solver_quota_s,
            }
        )
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionError, asyncio.IncompleteReadError):
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                await self._dispatch(client, line)
                await _drain_writer(writer)
        finally:
            client.closed = True
            try:
                writer.close()
            except Exception:
                pass

    async def _dispatch(self, client: _Client, line: bytes) -> None:
        try:
            frame = decode_frame(line)
        except ProtocolError as exc:
            client.send(error_frame(exc.code, exc.message))
            return
        op = frame.get("op")
        request_id = frame.get("id")
        if op == "hello":
            client.apply_hello(frame, self.config)
            client.send(
                {
                    "frame": "hello",
                    "protocol": PROTOCOL,
                    "server": "repro-race",
                    "id": request_id,
                    "client": client.name,
                    "max_jobs": client.budget.max_jobs,
                    "solver_quota_s": client.budget.solver_quota_s,
                }
            )
        elif op == "ping":
            client.send({"frame": "pong", "id": request_id})
        elif op == "stats":
            client.send(
                {
                    "frame": "stats",
                    "id": request_id,
                    **self.stats(),
                    "budget": client.budget.to_obj(),
                }
            )
        elif op == "submit":
            await self._handle_submit(client, frame)
        else:
            client.send(
                error_frame(
                    ErrorCode.BAD_FRAME,
                    f"unknown op {op!r}",
                    request_id if isinstance(request_id, str) else None,
                )
            )

    async def _handle_submit(
        self, client: _Client, frame: dict[str, Any]
    ) -> None:
        try:
            req = validate_submit(frame)
        except ProtocolError as exc:
            client.send(
                error_frame(
                    exc.code,
                    exc.message,
                    frame.get("id")
                    if isinstance(frame.get("id"), str)
                    else None,
                )
            )
            return
        request_id = req["id"]
        if self.draining:
            client.send(
                error_frame(
                    ErrorCode.RETRYABLE,
                    "server draining; resubmit to a live server",
                    request_id,
                )
            )
            return
        self._requests += 1

        items = [
            BatchItem(
                model=item["model"],
                source=item["source"],
                thread=item["thread"],
                variables=(
                    tuple(item["variables"])
                    if item["variables"] is not None
                    else None
                ),
            )
            for item in req["items"]
        ]
        options = dict(req["options"])
        if req["mode"] == "portfolio":
            options["portfolio"] = True

        # Plan on the worker pool: lowering and static classification are
        # CPU work that must not stall the acceptor.
        assert self.loop is not None and self.manager is not None
        try:
            the_plan = await self.loop.run_in_executor(
                self.executor,
                partial(
                    plan,
                    items,
                    options=options,
                    events=self.events,
                    prefilter=self.config.prefilter,
                ),
            )
        except SyntaxError as exc:
            client.send(
                error_frame(
                    ErrorCode.PARSE_ERROR, str(exc), request_id
                )
            )
            return
        except ValueError as exc:
            client.send(
                error_frame(
                    ErrorCode.BAD_REQUEST, str(exc), request_id
                )
            )
            return
        except Exception as exc:  # planner bug: fail the request, not the server
            client.send(
                error_frame(
                    ErrorCode.INTERNAL,
                    f"{type(exc).__name__}: {exc}",
                    request_id,
                )
            )
            return

        if self.draining:  # drain began while planning
            client.send(
                error_frame(
                    ErrorCode.RETRYABLE,
                    "server draining; resubmit to a live server",
                    request_id,
                )
            )
            return

        n_deduped_within = sum(
            len(j.aliases) - 1 for j in the_plan.jobs
        )
        # Ack strictly precedes every row-bearing frame: a fully static
        # or fully cached request may otherwise finish during routing.
        client.send(
            {
                "frame": "ack",
                "id": request_id,
                "queries": len(the_plan.order),
                "jobs": len(the_plan.jobs),
                "static": len(the_plan.done),
                "deduped": n_deduped_within,
            }
        )
        tracker = RequestTracker(
            request_id=request_id,
            send=client.send,
            order=the_plan.order,
            stream=req["stream"],
            counts={
                "jobs": len(the_plan.jobs),
                "static": len(the_plan.done),
                "deduped": n_deduped_within,
            },
            budget=client.budget,
            on_done=self._tracker_done,
        )
        self._live_trackers.add(tracker)
        for done in the_plan.done:
            tracker.add_row(
                (done.model, done.variable),
                _row(done.model, done.variable, done),
            )
        for job in the_plan.jobs:
            self.manager.submit_planned_job(job, tracker, client.budget)
        tracker.maybe_finish()


def _wait_all(futures) -> None:
    for future in futures:
        try:
            future.result()
        except Exception:
            pass


async def _drain_writer(writer: asyncio.StreamWriter) -> None:
    try:
        await writer.drain()
    except (ConnectionError, RuntimeError):
        pass
