"""The served workloads: ``fleet-cad-tree`` and ``serve-tenant-churn``.

This process is the one load generator.  It opens at most ``nproc``
connections, runs closed loops (each connection sends its next request
only after the previous reply), and starts the served tiers as their own
processes with ``repro fleet`` / ``repro serve``.

* ``fleet-cad-tree``: client -> gateway -> worker -> engine.  Each
  connection replays its own seeded ``cad`` stream; one session is one
  lap of that stream from a cold start, so the mix is the same in every
  part of a run.
* ``serve-tenant-churn``: every event is a session.  Each session
  connects, OPENs under a tenant whose base model the store loads,
  observes a short stream, CLOSEs and disconnects.  No gateway.

Reply lines are kept and checked after the timed region: every session
is replayed in-process and its advice digests compared.
"""

from __future__ import annotations

import asyncio
import json
import os
import statistics
import time
from array import array
from typing import Any, Dict, List, Optional, Tuple

import host
import layers
import tiers
from offline import (CACHE_BLOCKS, digest_line, new_simulator,
                     reference_lines, stream)

FLEET_LAP_REFS = 500
#: Warm-up session length on the fleet (one per connection).
WARM_UP_REFS = 100
CHURN_SESSION_REFS = 40
CHURN_POOL = 64
CHURN_BASE_REFS = 10_000
TENANT = "t0"
BASE_MODEL = "base"


def nproc() -> int:
    return os.cpu_count() or 1


class _Session:
    """What one session saw: its reply lines and round-trip times."""

    __slots__ = ("stream", "sid", "lines", "open_s", "close_s", "connect_s",
                 "complete", "trace", "t_begin")

    def __init__(self, stream_index: int, trace: Optional[str]) -> None:
        self.stream = stream_index
        self.sid = ""
        self.lines: List[bytes] = []
        self.open_s = 0.0
        self.close_s = 0.0
        self.connect_s = 0.0
        self.complete = False
        self.trace = trace
        self.t_begin = time.perf_counter()


class _Conn:
    """One connection's tallies for the run."""

    def __init__(self) -> None:
        self.sessions: List[_Session] = []
        self.observe_s = array("d")
        self.replied_at = array("d")
        self.t_end = 0.0
        self.client_errors = 0
        self.spans: List[layers.Span] = []


async def _connect(port: int):
    from repro.service import protocol

    reader, writer = await asyncio.open_connection(
        "127.0.0.1", port, limit=protocol.MAX_LINE_BYTES)
    hello = await reader.readline()
    if b'"ok":true' not in hello:
        writer.close()
        raise ConnectionError(f"bad HELLO: {hello!r}")
    return reader, writer


async def _close_conn(writer) -> None:
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionResetError, BrokenPipeError):
        pass


async def _rpc(reader, writer, line: bytes) -> bytes:
    writer.write(line)
    reply = await reader.readline()
    if not reply:
        raise ConnectionError("server closed the connection")
    return reply


class ServedWorkload:
    """Shared machinery; subclasses say what a session looks like."""

    name = ""
    tier_kind = ""

    def __init__(self, seed: int, root: str, work: str) -> None:
        self.seed = seed
        self.root = root
        self.work = work
        self.conns = nproc()
        self.tier: Optional[tiers.Tier] = None
        self.traced = False
        self.setups = 0

    # ------------------------------------------------------------ tiers

    def _tier_argv(self, trace_dir: Optional[str]) -> List[str]:
        raise NotImplementedError

    def start_tier(self, trace_dir: Optional[str] = None) -> None:
        self.setups += 1
        log = os.path.join(self.work, f"{self.tier_kind}-{self.setups}.log")
        self.tier = tiers.start(self.tier_kind, self._tier_argv(trace_dir),
                                self.root, log, self.expected_workers())
        self.traced = trace_dir is not None

    def expected_workers(self) -> int:
        return 0

    def teardown(self) -> None:
        if self.tier is not None:
            tier, self.tier = self.tier, None
            tier.stop()

    # --------------------------------------------------------- sessions

    def _open_line(self, request_id: int, trace: Optional[str]) -> bytes:
        raise NotImplementedError

    async def _conn_loop(self, index: int, deadline: Optional[float],
                         conn: _Conn):
        raise NotImplementedError

    async def _timed_loop(self, index: int, deadline: Optional[float],
                          conn: _Conn):
        try:
            await self._conn_loop(index, deadline, conn)
        finally:
            conn.t_end = time.perf_counter()

    def _trace_id(self, conn: int, session: int) -> Optional[str]:
        if not self.traced:
            return None
        from repro.obs.trace import derive_trace_id

        return derive_trace_id(self.seed, f"c{conn}:s{session}")

    async def _session(self, reader, writer, conn: _Conn, sess: _Session,
                       blocks: List[int], deadline: Optional[float]) -> None:
        """OPEN, observe ``blocks`` (stopping at ``deadline``), CLOSE."""
        from repro.service import protocol
        from repro.service.protocol import (
            CloseReply, CloseRequest, ObserveRequest, OpenReply)

        clock = time.perf_counter
        await self._turn()
        try:
            t0 = clock()
            reply = protocol.decode_reply(await _rpc(
                reader, writer, self._open_line(1, sess.trace)))
            sess.open_s = clock() - t0
        finally:
            self._done()
        if not isinstance(reply, OpenReply):
            raise ConnectionError(f"OPEN refused: {reply}")
        sid = sess.sid = reply.session
        encode = protocol.encode_request
        observe_s = conn.observe_s
        replied_at = conn.replied_at
        lines = sess.lines
        spans = conn.spans if sess.trace is not None else None
        request_id = 2
        for block in blocks:
            if deadline is not None and clock() >= deadline:
                break
            line = encode(ObserveRequest(request_id, sid, block))
            request_id += 1
            await self._turn()
            try:
                ts = clock()
                writer.write(line)
                reply_line = await reader.readline()
                te = clock()
            finally:
                self._done()
            observe_s.append(te - ts)
            replied_at.append(te)
            if spans is not None:
                spans.append(layers.Span(sess.trace, "client.rpc", ts, te))
            if b'"ok":true' not in reply_line:
                conn.client_errors += 1
            lines.append(reply_line)
        await self._turn()
        try:
            t1 = clock()
            reply = protocol.decode_reply(await _rpc(
                reader, writer, encode(CloseRequest(request_id, sid))))
            sess.close_s = clock() - t1
        finally:
            self._done()
        if not isinstance(reply, CloseReply):
            raise ConnectionError(f"CLOSE refused: {reply}")
        sess.complete = len(lines) == len(blocks)

    async def _turn(self) -> None:
        """Wait while a host-speed probe runs, then count a request in."""
        if not self._gate.is_set():
            await self._gate.wait()
        self._inflight += 1

    def _done(self) -> None:
        self._inflight -= 1
        if self._inflight == 0:
            self._drained.set()

    async def _probe_loop(self, track: host.SpeedTrack,
                          deadline: float) -> None:
        """About once per window: stop issuing, let in-flight requests
        finish, time the host probe with the CPU to itself, resume."""
        while True:
            await asyncio.sleep(host.WINDOW_S)
            if time.perf_counter() >= deadline:
                return
            self._gate.clear()
            if self._inflight:
                self._drained.clear()
                await self._drained.wait()
            track.probe()
            self._gate.set()

    async def _drive(self, seconds: Optional[float]
                     ) -> Tuple[host.SpeedTrack, List[_Conn]]:
        """Run every connection until ``seconds`` pass; ``None`` runs one
        whole session per connection (the warm-up)."""
        self._gate = asyncio.Event()
        self._gate.set()
        self._drained = asyncio.Event()
        self._inflight = 0
        conns = [_Conn() for _ in range(self.conns)]
        track = host.SpeedTrack()
        track.probe()
        t_start = time.perf_counter()
        deadline = None if seconds is None else t_start + seconds
        loops = [self._timed_loop(i, deadline, c)
                 for i, c in enumerate(conns)]
        prober = (asyncio.ensure_future(self._probe_loop(track, deadline))
                  if deadline is not None else None)
        try:
            results = await asyncio.gather(*loops, return_exceptions=True)
        finally:
            if prober is not None:
                prober.cancel()
                await asyncio.gather(prober, return_exceptions=True)
        self._gate.set()
        track.probe()
        for conn, result in zip(conns, results):
            if isinstance(result, BaseException):
                if not isinstance(result, (ConnectionError, OSError)):
                    raise result
                conn.client_errors += 1
        return track, conns

    # ----------------------------------------------------------- stats

    async def _server_stats(self) -> Dict[str, Any]:
        from repro.service import protocol
        from repro.service.protocol import StatsRequest

        reader, writer = await _connect(self.tier.port)
        try:
            reply = protocol.decode_reply(await _rpc(
                reader, writer,
                protocol.encode_request(StatsRequest(1))))
        finally:
            await _close_conn(writer)
        return reply.stats

    def server_stats(self) -> Dict[str, Any]:
        return asyncio.run(self._server_stats())

    def _server_failures(self, stats: Dict[str, Any]) -> int:
        raise NotImplementedError

    def _tier_pids(self) -> Dict[str, int]:
        raise NotImplementedError

    def layout(self) -> Dict[str, Any]:
        """Every process by role; raises if two roles share a process."""
        procs = {"loadgen": os.getpid(), **self._tier_pids()}
        pids = list(procs.values())
        if len(set(pids)) != len(pids):
            raise RuntimeError(f"roles share a process: {procs}")
        for role, pid in procs.items():
            if not host.alive(pid):
                raise RuntimeError(f"{role} (pid {pid}) is not running")
        cpus = {role: host.status_field(pid, "Cpus_allowed_list")
                for role, pid in procs.items()}
        return {"processes": procs, "cpus_allowed": cpus,
                **self._layout_extra()}

    def _layout_extra(self) -> Dict[str, Any]:
        return {}

    # --------------------------------------------------------- measure

    def run_window(self, seconds: float) -> Dict[str, Any]:
        """Drive the tier for ``seconds``; CPU is read from ``/proc``."""
        pids = self._tier_pids()
        me = os.getpid()
        cpu0 = {role: host.cpu_seconds(pid) for role, pid in pids.items()}
        cpu0["loadgen"] = host.cpu_seconds(me)
        track, conns = asyncio.run(self._drive(seconds))
        cpu = {role: host.cpu_seconds(pid) - cpu0[role]
               for role, pid in pids.items()}
        cpu["loadgen"] = host.cpu_seconds(me) - cpu0["loadgen"]
        refs = sum(len(s.lines) for c in conns for s in c.sessions)
        replied = [t for c in conns for t in c.replied_at]
        observe = [x for c in conns for x in c.observe_s]
        complete = [s for c in conns for s in c.sessions if s.complete]
        begun = [s.t_begin for s in complete]

        def per_window(values: List[float]) -> float:
            return track.duration(begun, values)

        return {
            "conns": conns, "cpu": cpu, "refs": refs, "track": track,
            "refs_per_s": track.rate(replied),
            "raw_refs_per_s": refs / (track.started[-1] - track.resumed[0]),
            "sessions_per_s": sum(_session_rate(c, track) for c in conns),
            "sessions": len(complete),
            "observe_p50": track.duration(replied, observe),
            "open_p50": per_window([s.open_s for s in complete]),
            "close_p50": per_window([s.close_s for s in complete]),
            "connect_p50": _median([s.connect_s for s in complete]),
            "observe": host.quantiles(observe),
            "open": host.quantiles([s.open_s for s in complete]),
            "close": host.quantiles([s.close_s for s in complete]),
            "client_errors": sum(c.client_errors for c in conns),
        }

    def check(self, conns: List[_Conn]) -> Tuple[int, List[str], Dict]:
        """Replay every session in-process and compare advice digests.

        Returns (mismatched sessions, messages, codec timing): decoding
        the run's own replies here doubles as the client codec timing.
        """
        from repro.service import protocol
        from repro.service.protocol import ObserveReply, ObserveRequest

        refs = self._reference()
        mismatched, messages = 0, []
        decode_s = encode_s = 0.0
        count = 0
        clock = time.perf_counter
        for conn in conns:
            for sess in conn.sessions:
                want = refs[sess.stream]
                blocks = self._blocks(sess.stream)
                for i, line in enumerate(sess.lines):
                    t0 = clock()
                    reply = protocol.decode_reply(line)
                    t1 = clock()
                    protocol.encode_request(
                        ObserveRequest(i + 2, sess.sid, blocks[i]))
                    encode_s += clock() - t1
                    decode_s += t1 - t0
                    count += 1
                    ok = isinstance(reply, ObserveReply)
                    if ok:
                        a = reply.advice
                        ok = digest_line(a.block, a.outcome, a.stall_ms,
                                         a.prefetch) == want[i]
                    if not ok:
                        mismatched += 1
                        messages.append(
                            f"stream {sess.stream} ref {i}: {line[:200]!r} "
                            f"!= {want[i][:200]!r}")
                        break
        codec_us = 1e6 * (encode_s + decode_s) / max(1, count)
        return mismatched, messages[:5], {"codec_us_per_ref": codec_us}

    def _reference(self) -> Dict[int, List[str]]:
        raise NotImplementedError

    def _blocks(self, stream_index: int) -> List[int]:
        raise NotImplementedError

    def measure(self, seconds: float) -> Dict[str, Any]:
        window = self.run_window(seconds)
        stats = self.server_stats()
        rss = sum(host.peak_rss_mb(pid) for pid in self._tier_pids().values())
        layout = self.layout()
        mismatched, messages, _ = self.check(window["conns"])
        server_failed = self._server_failures(stats)
        metrics = {
            "refs_per_s": window["refs_per_s"],
            "observe_p50_ms": 1e3 * window["observe_p50"],
            "sessions_per_s": window["sessions_per_s"],
            "open_p50_ms": 1e3 * window["open_p50"],
            "close_p50_ms": 1e3 * window["close_p50"],
            "rss_mb": rss,
        }
        record = {
            "layout": layout,
            "raw_refs_per_s": window["raw_refs_per_s"],
            "raw_observe_p50_ms": 1e3 * window["observe"]["p50"],
            "host_factor": window["track"].mean_factor(),
            "observe_p99_ms": 1e3 * window["observe"]["p99"],
            "observe_samples": window["observe"]["n"],
            "open_p99_ms": 1e3 * window["open"]["p99"],
            "close_p99_ms": 1e3 * window["close"]["p99"],
            "session_samples": window["open"]["n"],
            "server_failures": server_failed,
            "client_errors": window["client_errors"],
            "mismatched_sessions": mismatched,
        }
        attempted = window["refs"] + 2 * sum(
            len(c.sessions) for c in window["conns"])
        failed = window["client_errors"] + server_failed + mismatched
        return {"metrics": metrics, "record": record,
                "attempted": attempted, "failed": failed,
                "errors": messages}

    # ----------------------------------------------------- traced runs

    def measure_layers(self, seconds: float) -> Dict[str, Any]:
        """Untraced half for CPU, then a traced tier for spans."""
        plain = self.run_window(seconds / 2)
        stats = self.server_stats()
        failed = plain["client_errors"] + self._server_failures(stats)
        mismatched, messages, codec = self.check(plain["conns"])
        layer = self._cpu_layers(plain, stats)
        layer["client.codec_us"] = codec["codec_us_per_ref"]
        layout = self.layout()
        self.teardown()

        trace_dir = os.path.join(self.work, "trace")
        self.start_tier(trace_dir)
        self.warm_up()
        traced = self.run_window(seconds / 2)
        stats = self.server_stats()
        failed += traced["client_errors"] + self._server_failures(stats)
        bad, more, _ = self.check(traced["conns"])
        mismatched += bad
        messages += more
        self.teardown()  # SIGTERM drains the tier and flushes its spans
        from repro.obs.trace import read_spans

        records = list(read_spans(trace_dir))
        layer.update(self._span_layers(traced, records))
        layer["obs.tracing_overhead_share"] = (
            1.0 - traced["refs_per_s"] / plain["refs_per_s"])
        attempted = plain["refs"] + traced["refs"]
        return {"metrics": layer,
                "record": {"layout": layout,
                           "untraced_refs_per_s": plain["refs_per_s"],
                           "traced_refs_per_s": traced["refs_per_s"],
                           "untraced_host_factor":
                               plain["track"].mean_factor(),
                           "traced_host_factor":
                               traced["track"].mean_factor(),
                           "spans_read": len(records)},
                "attempted": attempted, "failed": failed + mismatched,
                "errors": messages}

    def _cpu_layers(self, window, stats) -> Dict[str, float]:
        raise NotImplementedError

    def _span_layers(self, window, records) -> Dict[str, float]:
        raise NotImplementedError

    def warm_up(self) -> None:
        _, conns = asyncio.run(self._drive(None))
        errors = sum(c.client_errors for c in conns)
        if errors:
            raise RuntimeError(f"{errors} client error(s) during warm-up")


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _session_rate(conn: _Conn, track: host.SpeedTrack) -> float:
    """Sessions per second of one connection: complete sessions over the
    reference-host time they took, each from its start to the start of
    the next, probe pauses left out.

    Timed rather than counted in a window, so one session more or less
    does not quantise the rate."""
    cycles = []
    sessions = conn.sessions
    for i, sess in enumerate(sessions):
        if not sess.complete:
            continue
        end = sessions[i + 1].t_begin if i + 1 < len(sessions) else conn.t_end
        cycles.append(track.active(sess.t_begin, end))
    return len(cycles) / sum(cycles) if cycles else 0.0


# ------------------------------------------------------------------ fleet


class FleetWorkload(ServedWorkload):
    name = "fleet-cad-tree"
    tier_kind = "fleet"

    def __init__(self, seed: int, root: str, work: str) -> None:
        super().__init__(seed, root, work)
        self.workers = max(1, nproc() - 1)
        self.streams: List[List[int]] = []

    def expected_workers(self) -> int:
        return self.workers

    def setup(self) -> None:
        self.streams = [
            stream("cad", FLEET_LAP_REFS, 1_000_003 * self.seed + 100 + c)
            for c in range(self.conns)
        ]
        self.start_tier()
        self.warm_up()

    def _tier_argv(self, trace_dir: Optional[str]) -> List[str]:
        argv = ["--workers", str(self.workers)]
        if trace_dir is not None:
            argv += ["--trace-dir", trace_dir]
        return argv

    def _open_line(self, request_id: int, trace: Optional[str]) -> bytes:
        from repro.service import protocol
        from repro.service.protocol import OpenRequest

        return protocol.encode_request(OpenRequest(
            request_id, policy="tree", cache_size=CACHE_BLOCKS, trace=trace))

    async def _conn_loop(self, index: int, deadline: Optional[float],
                         conn: _Conn):
        reader, writer = await _connect(self.tier.port)
        try:
            n = 0
            while True:
                sess = _Session(index, self._trace_id(index, n))
                conn.sessions.append(sess)
                blocks = self.streams[index]
                if deadline is None:
                    blocks = blocks[:WARM_UP_REFS]
                await self._session(reader, writer, conn, sess, blocks,
                                    deadline)
                n += 1
                if deadline is None or time.perf_counter() >= deadline:
                    break
        finally:
            await _close_conn(writer)

    def _tier_pids(self) -> Dict[str, int]:
        pids = {"gateway": self.tier.pid}
        for worker_id, pid in sorted(self.tier.workers.items()):
            pids[f"worker.{worker_id}"] = pid
        return pids

    def _layout_extra(self) -> Dict[str, Any]:
        return {"workers": self.workers,
                "workers_reason": f"max(1, nproc - 1) with nproc={nproc()}",
                "connections": self.conns}

    def _server_failures(self, stats: Dict[str, Any]) -> int:
        if stats.get("pid") != self.tier.pid:
            raise RuntimeError(
                f"gateway STATS pid {stats.get('pid')} is not the fleet "
                f"process {self.tier.pid}")
        fleet, gateway = stats["fleet"], stats["gateway"]
        return (fleet["errors"] + fleet["timeouts"]
                + fleet["overload_rejections"] + gateway["errors"]
                + gateway["overload_rejections"] + gateway["sessions_lost"])

    def _reference(self) -> Dict[int, List[str]]:
        return {c: reference_lines(blocks)
                for c, blocks in enumerate(self.streams)}

    def _blocks(self, stream_index: int) -> List[int]:
        return self.streams[stream_index]

    def _cpu_layers(self, window, stats) -> Dict[str, float]:
        refs = window["refs"]
        cpu = window["cpu"]
        workers = sum(v for k, v in cpu.items() if k.startswith("worker."))
        return {
            "loadgen.cpu_us_per_ref": 1e6 * cpu["loadgen"] / refs,
            "gateway.cpu_us_per_ref": 1e6 * cpu["gateway"] / refs,
            "worker.cpu_us_per_ref": 1e6 * workers / refs,
        }

    def _span_layers(self, window, records) -> Dict[str, float]:
        spans = [layers.span_from_record(r) for r in records]
        spans += [s for c in window["conns"] for s in c.spans]
        folded = layers.fold(spans)
        # Parts of the gateway's own time on an OBSERVE; the ring lookup
        # happens on OPEN only and is reported per OPEN below.
        parts = ("gateway.admission", "gateway.journal_append",
                 "gateway.reply_relay")
        rows: Dict[str, List[float]] = {k: [] for k in (
            "client.rpc", "wire", "gateway.self", "gateway.worker_rpc",
            "worker.predictor_step", "worker.plumbing", *parts)}
        for f in folded:
            if f.span.name != "client.rpc":
                continue
            row = {k: 0.0 for k in rows}
            row["client.rpc"] = f.span.end - f.span.start
            row["wire"] = f.self_s
            for j in f.children:
                child = folded[j]
                name = child.span.name
                if name in parts:
                    row[name] += child.self_s
                    row["gateway.self"] += child.self_s
                elif name == "gateway.worker_rpc":
                    row[name] += child.span.end - child.span.start
                    row["worker.plumbing"] += child.self_s
                    for k in child.children:
                        grand = folded[k]
                        if grand.span.name == "worker.predictor_step":
                            row["worker.predictor_step"] += (
                                grand.span.end - grand.span.start)
            for k, v in row.items():
                rows[k].append(v)
        us = {k: 1e6 * _median(v) for k, v in rows.items()}
        return {
            "client.rpc_us": us["client.rpc"],
            "gateway.self_us": us["gateway.self"],
            "gateway.admission_us": us["gateway.admission"],
            "gateway.ring_lookup_us": 1e6 * _median(
                [f.span.end - f.span.start for f in folded
                 if f.span.name == "gateway.ring_lookup"]),
            "gateway.journal_append_us": us["gateway.journal_append"],
            "gateway.reply_relay_us": us["gateway.reply_relay"],
            "gateway.worker_rpc_us": us["gateway.worker_rpc"],
            "worker.predictor_step_us": us["worker.predictor_step"],
            "worker.plumbing_us": us["worker.plumbing"],
            "wire.loadgen_gateway_us": us["wire"],
        }


# ------------------------------------------------------------------ churn


class ChurnWorkload(ServedWorkload):
    name = "serve-tenant-churn"
    tier_kind = "serve"

    def __init__(self, seed: int, root: str, work: str) -> None:
        super().__init__(seed, root, work)
        self.pool: List[List[int]] = []
        self.store_dir = ""
        self.config_path = ""

    def setup(self) -> None:
        """Streams, base-model training and store save, tier, warm-up."""
        from repro.service.session import PrefetchSession
        from repro.store import ModelStore, model_snapshot

        base_blocks = stream("cad", CHURN_BASE_REFS,
                             1_000_003 * self.seed + 200)
        flat = stream("cad", CHURN_POOL * CHURN_SESSION_REFS,
                      1_000_003 * self.seed + 201)
        self.pool = [flat[i * CHURN_SESSION_REFS:(i + 1) * CHURN_SESSION_REFS]
                     for i in range(CHURN_POOL)]
        session = PrefetchSession(policy="tree", cache_size=CACHE_BLOCKS)
        for block in base_blocks:
            session.observe(block)
        snapshot = model_snapshot(session.simulator.policy.model(), base=True)
        self.store_dir = os.path.join(self.work, f"store-{self.setups + 1}")
        ModelStore(self.store_dir).save(BASE_MODEL, snapshot)
        self.config_path = os.path.join(self.work,
                                        f"tenants-{self.setups + 1}.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump({"tenants": {TENANT: {"model": BASE_MODEL}}}, fh)
        self.start_tier()
        self.warm_up()

    def _tier_argv(self, trace_dir: Optional[str]) -> List[str]:
        argv = ["--store", self.store_dir, "--tenant-config", self.config_path]
        if trace_dir is not None:
            argv += ["--trace-dir", trace_dir]
        return argv

    def _open_line(self, request_id: int, trace: Optional[str]) -> bytes:
        from repro.service import protocol
        from repro.service.protocol import OpenRequest

        return protocol.encode_request(OpenRequest(
            request_id, policy="tree", cache_size=CACHE_BLOCKS,
            tenant=TENANT, trace=trace))

    async def _conn_loop(self, index: int, deadline: Optional[float],
                         conn: _Conn):
        n = 0
        while True:
            stream_index = (n * self.conns + index) % CHURN_POOL
            sess = _Session(stream_index, self._trace_id(index, n))
            conn.sessions.append(sess)
            await self._turn()
            try:
                t0 = time.perf_counter()
                reader, writer = await _connect(self.tier.port)
                sess.connect_s = time.perf_counter() - t0
            finally:
                self._done()
            try:
                await self._session(reader, writer, conn, sess,
                                    self.pool[stream_index], None)
            finally:
                await _close_conn(writer)
            n += 1
            if deadline is None or time.perf_counter() >= deadline:
                break

    def _tier_pids(self) -> Dict[str, int]:
        return {"server": self.tier.pid}

    def _layout_extra(self) -> Dict[str, Any]:
        return {"workers": 0, "workers_reason": "bare repro serve, no fleet",
                "connections": self.conns}

    def _server_failures(self, stats: Dict[str, Any]) -> int:
        if stats.get("pid") != self.tier.pid:
            raise RuntimeError(
                f"server STATS pid {stats.get('pid')} is not the serve "
                f"process {self.tier.pid}")
        m = stats["metrics"]
        return m["errors"] + m["timeouts"] + m["overload_rejections"]

    def _base_tree(self):
        from repro.core.tree import PrefetchTree
        from repro.store import ModelStore
        from repro.store.models import extract_model_state

        _, meta, items = extract_model_state(
            ModelStore(self.store_dir).load(BASE_MODEL))
        tree = PrefetchTree()
        tree.restore_state(meta, items)
        return tree

    def _replay(self, base, blocks: List[int]) -> Tuple[List[str], int]:
        """A tenant session over ``blocks`` as the engine alone runs it: a
        cold Simulator whose tree is an overlay on the base."""
        from repro.tenancy.overlay import OverlayTree

        sim = new_simulator()
        overlay = OverlayTree(base, base_ref={"tenant": TENANT,
                                              "model": f"{BASE_MODEL}@1"})
        sim.policy.replace_model(overlay)
        lines = []
        for block in blocks:
            r = sim.step(block)
            lines.append(digest_line(r.block, r.outcome, r.stall_ms,
                                     r.decisions))
        return lines, overlay.delta_items()

    def _reference(self) -> Dict[int, List[str]]:
        base = self._base_tree()
        return {i: self._replay(base, blocks)[0]
                for i, blocks in enumerate(self.pool)}

    def _blocks(self, stream_index: int) -> List[int]:
        return self.pool[stream_index]

    def _cpu_layers(self, window, stats) -> Dict[str, float]:
        from repro.store import ModelStore

        refs = window["refs"]
        cpu = window["cpu"]
        base = self._base_tree()
        deltas = [self._replay(base, blocks)[1] for blocks in self.pool]
        loads = []
        for _ in range(5):
            t0 = time.perf_counter()
            ModelStore(self.store_dir).load(BASE_MODEL)
            loads.append(time.perf_counter() - t0)
        tenants = stats.get("tenants", {})
        return {
            "server.cpu_us_per_ref": 1e6 * cpu["server"] / refs,
            "server.cpu_ms_per_session":
                1e3 * cpu["server"] / window["sessions"],
            "loadgen.cpu_us_per_ref": 1e6 * cpu["loadgen"] / refs,
            "client.connect_ms": 1e3 * window["connect_p50"],
            "tenancy.delta_items_per_session": statistics.mean(deltas),
            "tenancy.base_bytes": float(
                tenants.get(TENANT, {}).get("model_bytes", 0)),
            "store.model_load_ms": 1e3 * statistics.median(loads),
        }

    def _span_layers(self, window, records) -> Dict[str, float]:
        opens = [float(r["dur_us"]) for r in records
                 if r.get("span") == "worker.open"]
        return {"worker.open_us": _median(opens)}
