"""Clients for the advisory service: asyncio and blocking-socket flavours.

Both speak the :mod:`repro.service.protocol` NDJSON wire format, validate
the server's HELLO banner (protocol version), auto-number request ids, and
turn ``ok: false`` replies into :class:`ServiceError`.

:class:`AsyncServiceClient` is what the replay load generator uses — many
of them share one event loop.  :class:`ServiceClient` is a plain blocking
wrapper for scripts, examples, and interactive use.
:class:`ResilientAsyncClient` layers a :class:`RetryPolicy` on top:
transparent reconnect with bounded exponential backoff, session resume
from the server's detached table or checkpoint directory, and a journal
replay fallback that re-derives the session from scratch — asserting
bit-identical advice either way.
"""

from __future__ import annotations

import asyncio
import random
import socket
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Type, TypeVar

from repro.service import protocol
from repro.service.protocol import (
    CloseReply,
    CloseRequest,
    ErrorReply,
    HelloReply,
    ObserveReply,
    ObserveRequest,
    OpenReply,
    OpenRequest,
    ProtocolError,
    Reply,
    Request,
    StatsReply,
    StatsRequest,
)
from repro.service.session import PrefetchAdvice

R = TypeVar("R", bound=Reply)


class ServiceError(Exception):
    """The server answered with an error reply.

    ``retry_after_s`` carries the server's backoff hint when the reply
    had one (quota and overload rejections); ``None`` otherwise.
    """

    def __init__(
        self,
        code: str,
        message: str,
        *,
        retry_after_s: Optional[float] = None,
    ) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        self.retry_after_s = retry_after_s


def _expect(reply: Reply, reply_type: Type[R]) -> R:
    if isinstance(reply, ErrorReply):
        raise ServiceError(
            reply.error, reply.message, retry_after_s=reply.retry_after_s
        )
    if not isinstance(reply, reply_type):
        raise ProtocolError(
            f"expected {reply_type.__name__}, got {type(reply).__name__}"
        )
    return reply


def _check_hello(reply: Reply) -> HelloReply:
    hello = _expect(reply, HelloReply)
    if not (
        protocol.MIN_PROTOCOL_VERSION
        <= hello.protocol
        <= protocol.PROTOCOL_VERSION
    ):
        raise ProtocolError(
            f"server speaks protocol v{hello.protocol}, client speaks "
            f"v{protocol.MIN_PROTOCOL_VERSION}..v{protocol.PROTOCOL_VERSION}",
            code=protocol.E_BAD_VERSION,
        )
    return hello


class AsyncServiceClient:
    """One connection to the service, usable from an event loop."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        hello: HelloReply,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self.hello = hello
        self._next_id = 1

    @classmethod
    async def connect(
        cls,
        host: str = "127.0.0.1",
        port: int = 7199,
        *,
        timeout: Optional[float] = None,
    ) -> "AsyncServiceClient":
        """Connect and consume the HELLO banner.

        ``timeout`` bounds the whole handshake (TCP connect + banner), so a
        listener that accepts but never speaks cannot hang the caller.
        """
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(
                host, port, limit=protocol.MAX_LINE_BYTES
            ),
            timeout,
        )
        try:
            line = await asyncio.wait_for(reader.readline(), timeout)
        except (asyncio.TimeoutError, TimeoutError):
            writer.close()
            raise TimeoutError(
                f"no HELLO from {host}:{port} within {timeout}s"
            ) from None
        hello = _check_hello(protocol.decode_reply(line))
        return cls(reader, writer, hello)

    async def _rpc(self, request: Request, reply_type: Type[R]) -> R:
        self._writer.write(protocol.encode_request(request))
        await self._writer.drain()
        line = await self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return _expect(protocol.decode_reply(line), reply_type)

    def _take_id(self) -> int:
        request_id = self._next_id
        self._next_id += 1
        return request_id

    async def open_session(
        self,
        *,
        policy: str = "tree",
        cache_size: int = 1024,
        params: Optional[Dict[str, float]] = None,
        policy_kwargs: Optional[Dict[str, Any]] = None,
        model: Optional[str] = None,
        resume: Optional[str] = None,
        tenant: Optional[str] = None,
        trace: Optional[str] = None,
    ) -> OpenReply:
        """Create (or resume) a session; returns the full OPEN reply.

        ``model`` names a registry snapshot (``NAME`` or ``NAME@VERSION``)
        to start the session from; ``resume`` names a previous session id
        to re-open from the server's detached table or checkpoint
        directory.  ``tenant`` opens the session under a configured tenant
        (shared base model, per-tenant quotas); quota rejections surface
        as :class:`ServiceError` with code ``quota_exceeded``.  ``trace``
        rides a client-minted trace id on the OPEN so server-side spans
        join the caller's trace; the reply echoes the id the server bound
        (its own, head-sampled, when the client sent none).  The reply
        carries ``period`` (how many observations the session already
        holds), ``resumed``, and ``degraded``.
        """
        return await self._rpc(
            OpenRequest(
                id=self._take_id(), policy=policy, cache_size=cache_size,
                params=params, policy_kwargs=dict(policy_kwargs or {}),
                model=model, resume=resume, tenant=tenant, trace=trace,
            ),
            OpenReply,
        )

    async def open(self, **kwargs: Any) -> str:
        """Create a session; returns its server-assigned id.

        Same keywords as :meth:`open_session`, which also exposes the
        resume/degraded metadata of the reply.
        """
        return (await self.open_session(**kwargs)).session

    async def observe(
        self, session: str, block: int, *, seq: Optional[int] = None
    ) -> PrefetchAdvice:
        """Fold one reference; ``seq`` (the 0-based observation index)
        arms the server's duplicate detection for at-most-once folding
        under retries."""
        reply = await self._rpc(
            ObserveRequest(id=self._take_id(), session=session, block=block,
                           seq=seq),
            ObserveReply,
        )
        return reply.advice

    async def stats(self, session: str) -> Dict[str, Any]:
        reply = await self._rpc(
            StatsRequest(id=self._take_id(), session=session), StatsReply
        )
        return reply.stats

    async def server_stats(
        self, *, format: Optional[str] = None
    ) -> Dict[str, Any]:
        """Server-level snapshot: worker identity plus full metrics.

        Against a fleet gateway the same call returns fleet totals with a
        ``per_worker`` breakdown.  ``format="prometheus"`` adds an
        ``exposition`` key holding the metrics rendered in Prometheus
        text format.
        """
        reply = await self._rpc(
            StatsRequest(id=self._take_id(), session=None, format=format),
            StatsReply,
        )
        return reply.stats

    async def close_session(self, session: str) -> Dict[str, Any]:
        reply = await self._rpc(
            CloseRequest(id=self._take_id(), session=session), CloseReply
        )
        return reply.stats

    async def aclose(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass

    async def __aenter__(self) -> "AsyncServiceClient":
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.aclose()


class ServiceClient:
    """Blocking client over a plain socket (scripts and examples)."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._file = sock.makefile("rwb")
        self._next_id = 1
        self.hello: HelloReply = _check_hello(
            protocol.decode_reply(self._file.readline())
        )

    @classmethod
    def connect(
        cls,
        host: str = "127.0.0.1",
        port: int = 7199,
        *,
        timeout: Optional[float] = 30.0,
    ) -> "ServiceClient":
        sock = socket.create_connection((host, port), timeout=timeout)
        # create_connection's timeout guards the connect; re-arm it
        # explicitly so every later recv/send is bounded too — a server
        # that accepts and then hangs must not wedge the caller forever.
        sock.settimeout(timeout)
        try:
            return cls(sock)
        except BaseException:
            sock.close()  # a silent or garbled HELLO must not leak it
            raise

    def _rpc(self, request: Request, reply_type: Type[R]) -> R:
        try:
            self._file.write(protocol.encode_request(request))
            self._file.flush()
            line = self._file.readline()
        except socket.timeout:
            raise TimeoutError(
                f"no reply to {request.cmd!r} within "
                f"{self._sock.gettimeout()}s"
            ) from None
        if not line:
            raise ConnectionError("server closed the connection")
        return _expect(protocol.decode_reply(line), reply_type)

    def _take_id(self) -> int:
        request_id = self._next_id
        self._next_id += 1
        return request_id

    def open(
        self,
        *,
        policy: str = "tree",
        cache_size: int = 1024,
        params: Optional[Dict[str, float]] = None,
        policy_kwargs: Optional[Dict[str, Any]] = None,
        model: Optional[str] = None,
        tenant: Optional[str] = None,
    ) -> str:
        reply = self._rpc(
            OpenRequest(
                id=self._take_id(), policy=policy, cache_size=cache_size,
                params=params, policy_kwargs=dict(policy_kwargs or {}),
                model=model, tenant=tenant,
            ),
            OpenReply,
        )
        return reply.session

    def observe(self, session: str, block: int) -> PrefetchAdvice:
        reply = self._rpc(
            ObserveRequest(id=self._take_id(), session=session, block=block),
            ObserveReply,
        )
        return reply.advice

    def stats(self, session: str) -> Dict[str, Any]:
        reply = self._rpc(
            StatsRequest(id=self._take_id(), session=session), StatsReply
        )
        return reply.stats

    def server_stats(
        self, *, format: Optional[str] = None
    ) -> Dict[str, Any]:
        """Server-level snapshot (see ``AsyncServiceClient.server_stats``)."""
        reply = self._rpc(
            StatsRequest(id=self._take_id(), session=None, format=format),
            StatsReply,
        )
        return reply.stats

    def close_session(self, session: str) -> Dict[str, Any]:
        reply = self._rpc(
            CloseRequest(id=self._take_id(), session=session), CloseReply
        )
        return reply.stats

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


# --------------------------------------------------------------- resilience


class ResumeParityError(Exception):
    """A resumed/replayed session disagreed with the recorded advice.

    This is the one failure retrying cannot fix: the server state is not
    the one our journal was folded into, so continuing would silently
    serve advice from a different history.
    """


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with jitter, plus two deadlines.

    ``per_rpc_timeout_s`` bounds each individual attempt (connect,
    handshake, or one request/reply round trip); ``overall_deadline_s``
    bounds the whole retry loop for one logical call, reconnects and
    backoff sleeps included.  ``seed`` pins the jitter for reproducible
    tests; leave ``None`` for real deployments.
    """

    max_attempts: int = 5
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    jitter: float = 0.1
    per_rpc_timeout_s: Optional[float] = 10.0
    overall_deadline_s: Optional[float] = 60.0
    seed: Optional[int] = None

    def delay_s(self, attempt: int, rng: random.Random) -> float:
        """Backoff before retry ``attempt`` (0-based): ``base * 2**attempt``
        capped at ``max_delay_s``, spread by ``±jitter`` to avoid retry
        stampedes when many clients lose the same server."""
        delay = min(self.base_delay_s * (2.0 ** attempt), self.max_delay_s)
        if self.jitter:
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return max(delay, 0.0)


#: Transport failures worth retrying.  ServiceError is deliberately absent:
#: the server answered, so the connection works and the error is semantic.
#: ProtocolError IS retryable here: an undecodable line means the byte
#: stream is corrupt (truncation, garbage injection), and the fix is the
#: same as for a reset — reconnect and resume.
_RETRYABLE = (ConnectionError, TimeoutError, asyncio.TimeoutError,
              asyncio.IncompleteReadError, EOFError, OSError, ProtocolError)

#: Backstop on consecutive E_OVERLOAD waits when the policy has no overall
#: deadline to bound them (overload waits do not consume retry attempts).
_MAX_OVERLOAD_WAITS = 64


class ResilientAsyncClient:
    """One logical advisory session that survives transport failures.

    Wraps :class:`AsyncServiceClient` with a :class:`RetryPolicy` and a
    client-side journal of every folded reference.  On a connection
    failure it reconnects with backoff and re-opens the session in the
    cheapest way that preserves decision parity:

    1. ``OPEN resume=<old id>`` — the server restores the session from its
       detached table or checkpoint directory; only the journal tail past
       the restored period is replayed.
    2. Cold restart — a fresh OPEN with the original parameters and a full
       journal replay.  Session determinism makes this exact, just slower.

    Every replayed observation is checked against the advice recorded the
    first time; any mismatch raises :class:`ResumeParityError`.  Duplicate
    folding of the reference that was in flight when the connection died
    is prevented by the protocol-v3 ``seq`` field: the server answers a
    repeat of the last folded observation from cache.

    The journal lives in client memory for the life of the session, which
    is the right trade for replay/benchmark traces; advice objects are
    kept alongside for the parity check.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7199,
        *,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.retry = retry if retry is not None else RetryPolicy()
        self._rng = random.Random(self.retry.seed)
        self._client: Optional[AsyncServiceClient] = None
        self._open_kwargs: Optional[Dict[str, Any]] = None
        self._session_id: Optional[str] = None
        self._journal: List[Any] = []
        self._advices: List[PrefetchAdvice] = []
        self._force_cold = False
        self.degraded = False
        #: Trace id the server bound to this session (None = unsampled).
        #: Carried on every resume / cold restart so the session's spans
        #: keep one lineage across reconnects and gateway failovers.
        self.trace: Optional[str] = None
        # resilience telemetry, summed into the replay report
        self.retries = 0
        self.resumes = 0
        self.cold_restarts = 0
        self.overload_backoffs = 0

    # ------------------------------------------------------------ plumbing

    @property
    def session_id(self) -> Optional[str]:
        return self._session_id

    @property
    def observations(self) -> int:
        return len(self._journal)

    async def _teardown(self) -> None:
        client, self._client = self._client, None
        if client is not None:
            try:
                await client.aclose()
            except OSError:
                pass

    async def _ensure_session(self) -> AsyncServiceClient:
        timeout = self.retry.per_rpc_timeout_s
        if self._client is None:
            self._client = await AsyncServiceClient.connect(
                self.host, self.port, timeout=timeout
            )
            if self._open_kwargs is not None:
                await self._reopen(self._client)
        return self._client

    async def _reopen(self, client: AsyncServiceClient) -> None:
        """Re-establish the logical session on a fresh connection."""
        timeout = self.retry.per_rpc_timeout_s
        reply: Optional[OpenReply] = None
        if self._session_id is not None and not self._force_cold:
            try:
                # Carry the tenant on the resume so a fresh worker (whose
                # evicted-session table is empty) can rebind the restored
                # session to its shared base and quota accounting.
                reply = await asyncio.wait_for(
                    client.open_session(
                        resume=self._session_id,
                        tenant=(self._open_kwargs or {}).get("tenant"),
                        trace=self.trace,
                    ),
                    timeout,
                )
                self.resumes += 1
            except ServiceError:
                reply = None  # nothing to resume from; fall back to cold
        if reply is None:
            kwargs = dict(self._open_kwargs)
            if self.trace is not None:
                # Keep the original lineage even across a cold restart:
                # the rebuilt session is the same logical request path.
                kwargs["trace"] = self.trace
            reply = await asyncio.wait_for(
                client.open_session(**kwargs), timeout
            )
            if self._journal:
                self.cold_restarts += 1
        self._force_cold = False
        self._session_id = reply.session
        if reply.trace is not None:
            self.trace = reply.trace
        self.degraded = self.degraded or reply.degraded
        folded = len(self._journal)
        if reply.period > folded + 1:
            raise ResumeParityError(
                f"server resumed at period {reply.period} but the journal "
                f"only holds {folded} observations"
            )
        # Replay the tail the restored state has not seen.  (period may be
        # folded+1: the server folded the in-flight reference before the
        # reply was lost; the seq field dedups it on the next observe.)
        for index in range(min(reply.period, folded), folded):
            advice = await asyncio.wait_for(
                client.observe(reply.session, self._journal[index], seq=index),
                timeout,
            )
            if advice != self._advices[index]:
                raise ResumeParityError(
                    f"replayed observation {index} "
                    f"(block {self._journal[index]!r}) returned different "
                    "advice than the original session"
                )

    async def _call(self, label: str, fn: Any) -> Any:
        """Run ``await fn(client)`` with reconnect-and-retry semantics."""
        policy = self.retry
        loop = asyncio.get_running_loop()
        started = loop.time()
        last_exc: Optional[BaseException] = None
        attempt = 0
        overload_waits = 0
        while attempt < policy.max_attempts:
            if (
                policy.overall_deadline_s is not None
                and loop.time() - started > policy.overall_deadline_s
            ):
                raise TimeoutError(
                    f"{label}: overall deadline "
                    f"({policy.overall_deadline_s}s) exceeded"
                ) from last_exc
            try:
                client = await self._ensure_session()
                return await asyncio.wait_for(
                    fn(client), policy.per_rpc_timeout_s
                )
            except ResumeParityError:
                raise
            except ServiceError as exc:
                if exc.code == protocol.E_OVERLOAD:
                    # Backoff-not-fault: the server is healthy, just full.
                    # Honor its retry_after_s hint, keep the connection,
                    # and do not consume a retry attempt — only the
                    # overall deadline bounds how long we wait for
                    # admission (with a wait-count backstop when no
                    # deadline is configured).
                    self.overload_backoffs += 1
                    overload_waits += 1
                    if (
                        policy.overall_deadline_s is None
                        and overload_waits >= _MAX_OVERLOAD_WAITS
                    ):
                        raise
                    last_exc = exc
                    if self._session_id is None:
                        # The OPEN itself was shed; drop the half-built
                        # connection so the next pass re-runs the open.
                        await self._teardown()
                    delay = exc.retry_after_s
                    if delay is None or delay <= 0:
                        delay = policy.delay_s(
                            min(overload_waits - 1, 8), self._rng
                        )
                    await asyncio.sleep(delay)
                    continue
                if exc.code != protocol.E_SEQ:
                    raise
                # Our idea of the period diverged from the server's (e.g. a
                # stale checkpoint was resumed under our id by someone
                # else).  Rebuild from the journal, which is ground truth.
                last_exc = exc
                self._force_cold = True
            except _RETRYABLE as exc:
                last_exc = exc
            self.retries += 1
            await self._teardown()
            await asyncio.sleep(policy.delay_s(attempt, self._rng))
            attempt += 1
        raise ConnectionError(
            f"{label} failed after {policy.max_attempts} attempts"
        ) from last_exc

    # ------------------------------------------------------------- session

    async def open(self, **open_kwargs: Any) -> str:
        """Open the logical session; keywords as
        :meth:`AsyncServiceClient.open_session` (minus ``resume``)."""
        if self._open_kwargs is not None:
            raise ServiceError(
                protocol.E_BAD_REQUEST,
                "ResilientAsyncClient manages a single session; "
                "open() may only be called once",
            )
        self._open_kwargs = dict(open_kwargs)

        async def _open(client: AsyncServiceClient) -> str:
            # _ensure_session already (re)opened the session as a side
            # effect of the stored kwargs; nothing more to send.
            assert self._session_id is not None
            return self._session_id

        return await self._call("open", _open)

    async def observe(self, block: Any) -> PrefetchAdvice:
        """Fold one reference, surviving resets/timeouts in the middle."""
        if self._open_kwargs is None:
            raise ServiceError(protocol.E_BAD_REQUEST,
                               "no session: call open() first")
        seq = len(self._journal)

        async def _observe(client: AsyncServiceClient) -> PrefetchAdvice:
            return await client.observe(self._session_id, block, seq=seq)

        advice = await self._call(f"observe[{seq}]", _observe)
        self._journal.append(block)
        self._advices.append(advice)
        return advice

    async def stats(self) -> Dict[str, Any]:
        async def _stats(client: AsyncServiceClient) -> Dict[str, Any]:
            return await client.stats(self._session_id)

        return await self._call("stats", _stats)

    async def close_session(self) -> Dict[str, Any]:
        async def _close(client: AsyncServiceClient) -> Dict[str, Any]:
            return await client.close_session(self._session_id)

        stats = await self._call("close", _close)
        self._open_kwargs = None
        self._session_id = None
        return stats

    async def aclose(self) -> None:
        await self._teardown()

    async def __aenter__(self) -> "ResilientAsyncClient":
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.aclose()
