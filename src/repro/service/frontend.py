"""The NDJSON request front-end shared by the advisory server and the gateway.

:class:`RequestFrontend` owns a listener's connections: binding, the
HELLO banner, the read loop with its line limit and idle/drain timeouts,
decoding (one clean error line for malformed or oversized input),
shedding new OPENs past the admission watermark, the in-flight count and
teardown.  Whatever answers the requests plugs in by composition: a
``dispatch(request, owned)`` coroutine returning ``(raw, reply)`` — a
reply line to relay byte-for-byte, or ``None`` to encode ``reply`` — the
HELLO fields, the ``counters`` object the loop counts into, and
``on_disconnect(owned)``, which decides the fate of the sessions a
vanished connection still owned.

Requests on one connection are served in order and each reply is drained
before the next read, so a slow reader backpressures only itself.
"""

from __future__ import annotations

import asyncio
import os
import time
from typing import (
    TYPE_CHECKING, Any, Awaitable, Callable, Dict, Optional, Set, Tuple,
)

from repro.service import protocol
from repro.service.overload import AdmissionGuard
from repro.service.protocol import (
    ErrorReply, HelloReply, OpenRequest, ProtocolError, Reply, Request,
    StatsRequest,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.trace import Tracer

_LINE_TOO_LONG = protocol.encode_reply(
    ErrorReply(0, protocol.E_BAD_REQUEST, "request line too long")
)


def open_trace(
    tracer: Optional["Tracer"], session_id: str, requested: Optional[str]
) -> Optional[str]:
    """The trace id a session being opened joins, or ``None`` (unsampled).

    An id on the request is adopted verbatim: the hop upstream already
    made the sampling call, and every hop must agree.  Otherwise one is
    minted from the session id — so a resume re-derives it — and
    head-sampled against this tracer's seed.
    """
    if tracer is None:
        return None
    if requested is not None:
        return requested
    trace_id = tracer.new_trace_id(session_id)
    return trace_id if tracer.sampled(trace_id) else None


def unknown_session(request: Request) -> ErrorReply:
    """The reply to a request naming a session nobody holds."""
    return ErrorReply(
        request.id, protocol.E_UNKNOWN_SESSION,
        f"unknown session {request.session!r}",
    )


def stats_format_error(request: StatsRequest) -> Optional[ErrorReply]:
    """The rejection of a server-level STATS in an undefined format."""
    if request.format is None or request.format == "prometheus":
        return None
    return ErrorReply(
        request.id, protocol.E_BAD_REQUEST,
        f"unknown stats format {request.format!r} "
        "(only 'prometheus' is defined)",
    )


class RequestFrontend:
    """One listener's connection handling (see module docstring).

    ``name`` (``"server"`` / ``"gateway"``) words the shed reply.  Given
    a ``tracer`` and ``trace_of(request, reply)`` resolving a request's
    trace id, traced requests also record ``<name>.admission`` and
    ``<name>.reply_relay`` spans.
    """

    def __init__(
        self,
        name: str,
        dispatch: Callable[
            [Request, Set[str]], Awaitable[Tuple[Optional[bytes], Reply]]
        ],
        *,
        hello: HelloReply,
        counters: Any,
        on_disconnect: Callable[[Set[str]], None],
        overload: AdmissionGuard,
        max_line_bytes: int,
        idle_timeout_s: Optional[float],
        request_timeout_s: Optional[float],
        tracer: Optional["Tracer"] = None,
        trace_of: Optional[Callable[[Request, Reply], Optional[str]]] = None,
    ) -> None:
        self.name = name
        self.dispatch = dispatch
        self.counters = counters
        self.on_disconnect = on_disconnect
        self.overload = overload
        self.max_line_bytes = max_line_bytes
        self.idle_timeout_s = idle_timeout_s
        self.request_timeout_s = request_timeout_s
        self.tracer = tracer if trace_of is not None else None
        self.trace_of = trace_of
        self.started_at = time.monotonic()
        self._hello = protocol.encode_reply(hello)
        #: The task serving each live connection, until its teardown.
        self._handlers: Set[asyncio.Task] = set()

    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> asyncio.AbstractServer:
        """Bind and start serving; returns the listening asyncio server."""
        return await asyncio.start_server(
            self.handle_connection, host, port, limit=self.max_line_bytes,
        )

    async def aclose(self) -> None:
        """Sever every client connection: cancel each handler and wait out
        its teardown (which flushes and closes the socket), so none is
        left to run its ``finally`` on a closed loop."""
        handlers = list(self._handlers)
        for task in handlers:
            task.cancel()
        await asyncio.gather(*handlers, return_exceptions=True)

    def identity(self) -> Dict[str, Any]:
        """The identity fields every server-level STATS reply carries."""
        return {
            "protocol": protocol.PROTOCOL_VERSION,
            "proto_version": protocol.PROTOCOL_VERSION,
            "uptime_s": round(time.monotonic() - self.started_at, 3),
            "pid": os.getpid(),
        }

    def shed_reply(self, request: Request) -> Optional[ErrorReply]:
        """The ``E_OVERLOAD`` reply shedding ``request``, or ``None``.

        Only brand-new OPENs are sheddable: resumes recover work already
        accepted, and OBSERVE/STATS/CLOSE act on admitted sessions.  A
        shed counts as an ``overload_rejections`` (backoff), not an error.
        """
        if not isinstance(request, OpenRequest) or request.resume is not None:
            return None
        if not self.overload.shed_open():
            return None
        self.counters.overload_rejections += 1
        retry_after = self.overload.policy.shed_retry_after_s
        return ErrorReply(
            request.id, protocol.E_OVERLOAD,
            f"{self.name} overloaded; retry in {retry_after:g}s",
            retry_after_s=retry_after,
        )

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        counters = self.counters
        counters.connections_opened += 1
        owned: Set[str] = set()
        self._handlers.add(asyncio.current_task())
        try:
            writer.write(self._hello)
            await self._drain(writer)
            while True:
                try:
                    line = await asyncio.wait_for(
                        reader.readline(), self.idle_timeout_s
                    )
                except (asyncio.LimitOverrunError, ValueError):
                    # Overflow poisons framing: answer once, then hang up.
                    counters.errors += 1
                    writer.write(_LINE_TOO_LONG)
                    await self._drain(writer)
                    break
                if not line:
                    break
                stripped = line.strip()
                if stripped:
                    await self._serve(stripped, owned, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass
        except (asyncio.TimeoutError, TimeoutError):
            counters.timeouts += 1  # idle past the limit, or a stuck drain
        except asyncio.CancelledError:
            # Swallowed, not re-raised: handlers are only cancelled at
            # teardown, and 3.11's streams done-callback calls
            # task.exception() on cancelled handler tasks, printing
            # tracebacks for an orderly exit.
            pass
        finally:
            self._handlers.discard(asyncio.current_task())
            self.on_disconnect(owned)
            counters.connections_closed += 1
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _drain(self, writer: asyncio.StreamWriter) -> None:
        # A reader that stops consuming must not wedge its handler.
        await asyncio.wait_for(writer.drain(), self.request_timeout_s)

    async def _serve(
        self, line: bytes, owned: Set[str], writer: asyncio.StreamWriter
    ) -> None:
        """Decode, admit, dispatch and answer one request line."""
        try:
            request = protocol.decode_request(line)
        except ProtocolError as exc:
            self.counters.errors += 1
            writer.write(
                protocol.encode_reply(ErrorReply(0, exc.code, str(exc)))
            )
            await self._drain(writer)
            return
        tracer = self.tracer
        t_admit = time.perf_counter() if tracer is not None else 0.0
        shed = self.shed_reply(request)
        if shed is not None:
            writer.write(protocol.encode_reply(shed))
            await self._drain(writer)
            return
        # In flight from decode to drained reply: the interval the
        # admission watermark measures.
        self.overload.begin()
        try:
            t_begin = time.perf_counter() if tracer is not None else 0.0
            raw, reply = await self.dispatch(request, owned)
            # An OPEN's trace id only exists after dispatch, so both
            # connection-level spans resolve it here.
            trace_id = (
                self.trace_of(request, reply) if tracer is not None else None
            )
            if trace_id is not None:
                tracer.record(
                    trace_id, f"{self.name}.admission",
                    t_admit, t_begin - t_admit,
                )
            t_relay = time.perf_counter() if trace_id is not None else 0.0
            writer.write(
                raw if raw is not None else protocol.encode_reply(reply)
            )
            await self._drain(writer)
            if trace_id is not None:
                tracer.record(
                    trace_id, f"{self.name}.reply_relay",
                    t_relay, time.perf_counter() - t_relay,
                )
        finally:
            self.overload.end()
