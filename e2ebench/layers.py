"""Per-layer time from outside the program: span folding and engine timers.

Two sources, both kept in the benchmark's own files:

* **Span folding.**  The serving tiers write NDJSON spans with
  ``--trace-dir``; the load generator keeps its own ``client.*`` spans in
  memory.  All of them carry ``perf_counter`` readings, which on Linux
  come from one system-wide monotonic clock, so spans of one trace nest
  by time across processes.  A span's *self time* is its duration minus
  the part of it that its child spans cover.
* **Engine timers.**  On the offline workload the public calls of one
  live ``Simulator`` (and the public functions of
  ``repro.core.costbenefit``) are wrapped to accumulate self time per
  layer.  Every replaced attribute is put back afterwards.
"""

from __future__ import annotations

import inspect
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional

#: Span start times are written rounded to the microsecond, so a child
#: may appear to end up to a microsecond after its parent.
NEST_TOLERANCE_S = 1e-6


class Span(NamedTuple):
    trace: str
    name: str
    start: float
    end: float


class Folded(NamedTuple):
    span: Span
    self_s: float
    children: List[int]


def span_from_record(record: Dict[str, Any]) -> Span:
    start = float(record["ts"])
    return Span(str(record["trace"]), str(record["span"]), start,
                start + float(record["dur_us"]) * 1e-6)


def fold(spans: Iterable[Span]) -> List[Folded]:
    """Nest the spans of each trace by time and compute their self time.

    A span's parent is the shortest span of the same trace that contains
    it; its self time is its duration minus the union of its children's
    intervals.
    """
    by_trace: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        by_trace[span.trace].append(span)
    out: List[Folded] = []
    for trace_spans in by_trace.values():
        trace_spans.sort(key=lambda s: (s.start, -(s.end - s.start)))
        children: List[List[int]] = [[] for _ in trace_spans]
        stack: List[int] = []
        for i, span in enumerate(trace_spans):
            limit = span.end - NEST_TOLERANCE_S
            while stack and trace_spans[stack[-1]].end < limit:
                stack.pop()
            if stack:
                children[stack[-1]].append(i)
            stack.append(i)
        base = len(out)
        for i, span in enumerate(trace_spans):
            covered = 0.0
            cursor = span.start
            for j in children[i]:
                lo = max(trace_spans[j].start, cursor)
                hi = min(trace_spans[j].end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out.append(Folded(span, max(0.0, span.end - span.start - covered),
                              [base + j for j in children[i]]))
    return out


def check_fold() -> None:
    """Fold hand-built spans whose answer is known; raise if it is wrong.

    Times are in units of 10 us, well above the nesting tolerance.
    """
    us = 1e-5
    spans = [
        Span("a", "client.rpc", 0 * us, 100 * us),
        Span("a", "gateway.admission", 10 * us, 15 * us),
        Span("a", "gateway.worker_rpc", 20 * us, 80 * us),
        Span("a", "worker.predictor_step", 30 * us, 60 * us),
        Span("a", "gateway.journal_append", 81 * us, 83 * us),
        Span("a", "gateway.reply_relay", 85 * us, 90 * us),
        # Another trace at the same times must not be counted as a child.
        Span("b", "client.rpc", 0 * us, 100 * us),
        # Overlapping children are covered once.
        Span("c", "parent", 0 * us, 10 * us),
        Span("c", "x", 1 * us, 4 * us),
        Span("c", "y", 3 * us, 6 * us),
        # A child whose rounded end passes its parent's by under 1 us.
        Span("d", "parent", 0 * us, 10 * us),
        Span("d", "child", 2 * us, 10 * us + 5e-7),
    ]
    want = {
        ("a", "client.rpc"): 28.0, ("a", "gateway.admission"): 5.0,
        ("a", "gateway.worker_rpc"): 30.0,
        ("a", "worker.predictor_step"): 30.0,
        ("a", "gateway.journal_append"): 2.0,
        ("a", "gateway.reply_relay"): 5.0,
        ("b", "client.rpc"): 100.0,
        ("c", "parent"): 5.0, ("c", "x"): 3.0, ("c", "y"): 3.0,
        ("d", "parent"): 2.0, ("d", "child"): 8.05,
    }
    got = {(f.span.trace, f.span.name): f.self_s / us for f in fold(spans)}
    for key, value in want.items():
        if abs(got.get(key, -1.0) - value) > 1e-6:
            raise AssertionError(
                f"span fold self-check failed for {key}: "
                f"got {got.get(key)}, want {value}"
            )


# ------------------------------------------------------------ engine timers


class LayerTimer:
    """Accumulates self time and call counts of wrapped callables."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self._stack: List[float] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter

        def timed(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                inner = stack.pop()
                self_s[name] += elapsed - inner
                calls[name] += 1
                if stack:
                    stack[-1] += elapsed

        return timed


#: Instance attributes wrapped on each live Simulator: (owner path, method,
#: layer).
_SIM_METHODS = (
    ("", "step", "sim.step"),
    ("policy", "observe", "policies.observe"),
    ("policy", "prefetch_round", "policies.prefetch_round"),
    ("cache", "reference", "cache.reference"),
    ("cache", "reclaim_for_demand", "cache.reclaim"),
    ("cache", "try_reclaim_for_prefetch", "cache.reclaim"),
    ("cache.profiler", "record", "cache.ghost_record"),
)


def _owner(sim: Any, path: str) -> Any:
    obj = sim
    for part in filter(None, path.split(".")):
        obj = getattr(obj, part)
    return obj


def wrap_simulator(sim: Any, timer: LayerTimer) -> None:
    """Time the public calls of one live Simulator (instance attributes)."""
    for path, method, layer in _SIM_METHODS:
        owner = _owner(sim, path)
        setattr(owner, method, timer.wrap(layer, getattr(owner, method)))


def unwrap_simulator(sim: Any) -> None:
    for path, method, _ in _SIM_METHODS:
        owner = _owner(sim, path)
        if method in vars(owner):
            delattr(owner, method)


class ModulePatch:
    """Wrap every public function of a module; restore them all on exit."""

    def __init__(self, module: Any, layer: str, timer: LayerTimer) -> None:
        self.module = module
        self.layer = layer
        self.timer = timer
        self.saved: Dict[str, Callable] = {}

    def __enter__(self) -> "ModulePatch":
        for name, fn in vars(self.module).items():
            if (not name.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ == self.module.__name__):
                self.saved[name] = fn
        for name, fn in self.saved.items():
            setattr(self.module, name, self.timer.wrap(self.layer, fn))
        return self

    def __exit__(self, *exc: Optional[BaseException]) -> None:
        for name, fn in self.saved.items():
            setattr(self.module, name, fn)
        leftover = [n for n, fn in self.saved.items()
                    if getattr(self.module, n) is not fn]
        if leftover:
            raise RuntimeError(
                f"{self.module.__name__}: attributes not restored: {leftover}"
            )
