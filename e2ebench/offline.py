"""``sim-cad-tree``: the paper's own workload, engine only.

One in-process ``Simulator`` runs the ``tree`` policy with
``PAPER_PARAMS`` over a seeded ``cad`` stream, lap after lap, each lap
from a cold start.  A lap is short next to a run, so every part of the
run sees the same mix; per-reference cost grows with the tree, and a
single long stream would make the rate depend on how far a run got.

This module imports nothing from ``repro.service`` or ``repro.cluster``.
"""

from __future__ import annotations

import hashlib
import os
import statistics
import time
from array import array
from typing import Any, Dict, List, Sequence

import host
import layers

SIM_LAP_REFS = 4000
CACHE_BLOCKS = 1024

ENGINE_LAYERS = (
    "sim.step", "policies.observe", "policies.prefetch_round",
    "core.costbenefit", "cache.reference", "cache.reclaim",
    "cache.ghost_record",
)


def digest_line(block: Any, outcome: str, stall_ms: float,
                decisions: Sequence[Any]) -> str:
    """One reference's advice as text; floats by ``repr``."""
    prefetch = ";".join(
        f"{d.block},{d.probability!r},{d.depth},{d.tag}" for d in decisions
    )
    return f"{block}|{outcome}|{stall_ms!r}|{prefetch}"


def stream(name: str, refs: int, seed: int) -> List[int]:
    from repro.traces.synthetic import make_trace

    return [int(b) for b in make_trace(name, refs, seed=seed).blocks]


def new_simulator():
    from repro.params import PAPER_PARAMS
    from repro.policies.registry import make_policy
    from repro.sim.engine import Simulator

    return Simulator(PAPER_PARAMS, make_policy("tree"), CACHE_BLOCKS)


def reference_lines(blocks: Sequence[int]) -> List[str]:
    """The advice digest of a cold ``tree`` Simulator over ``blocks``."""
    sim = new_simulator()
    out = []
    for block in blocks:
        r = sim.step(block)
        out.append(digest_line(r.block, r.outcome, r.stall_ms, r.decisions))
    return out


class SimWorkload:
    name = "sim-cad-tree"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.blocks: List[int] = []
        self.lap_digest = ""

    # ------------------------------------------------------------ setup

    def setup(self) -> None:
        """Generate the stream and run one warm-up lap."""
        self.blocks = stream("cad", SIM_LAP_REFS, 1_000_003 * self.seed + 1)
        self.lap_digest = self._digest(self._lap(None)[0])

    def teardown(self) -> None:
        pass

    # ---------------------------------------------------------- measure

    def _lap(self, timer):
        """One cold-start lap; returns (results, open_s, close_s, lap_s,
        per-step times, stats, sim)."""
        blocks = self.blocks
        clock = time.perf_counter
        steps = array("d", bytes(8 * len(blocks)))
        t0 = clock()
        sim = new_simulator()
        if timer is not None:
            layers.wrap_simulator(sim, timer)
        t1 = clock()
        step = sim.step
        results = [None] * len(blocks)
        for i, block in enumerate(blocks):
            ts = clock()
            results[i] = step(block)
            steps[i] = clock() - ts
        t2 = clock()
        stats = sim.finalize()
        t3 = clock()
        if timer is not None:
            layers.unwrap_simulator(sim)
        return results, t1 - t0, t3 - t2, t3 - t0, steps, stats, sim

    @staticmethod
    def _digest(results) -> str:
        h = hashlib.blake2b(digest_size=16)
        for r in results:
            h.update(digest_line(r.block, r.outcome, r.stall_ms,
                                 r.decisions).encode())
            h.update(b"\n")
        return h.hexdigest()

    def _laps(self, seconds: float, timer=None) -> Dict[str, Any]:
        deadline = time.perf_counter() + seconds
        steps = host.Histogram()
        opens: List[float] = []
        closes: List[float] = []
        laps: List[float] = []
        lap_steps: List[float] = []
        begun: List[float] = []
        digests = set()
        last = None
        track = host.SpeedTrack()
        track.probe()
        while time.perf_counter() < deadline:
            if time.perf_counter() - track.resumed[-1] >= host.WINDOW_S:
                track.probe()
            begun.append(time.perf_counter())
            results, o, c, t, s, stats, sim = self._lap(timer)
            steps.add_all(s)
            lap_steps.append(statistics.median(s))
            opens.append(o)
            closes.append(c)
            laps.append(t)
            digests.add(self._digest(results))
            last = (stats, sim)
        track.probe()
        # Reference-host seconds spent inside laps.
        lap_s = sum(track.active(b, b + t) for b, t in zip(begun, laps))
        refs = len(laps) * len(self.blocks)
        return {"steps": steps, "opens": opens, "closes": closes,
                "laps": laps, "lap_steps": lap_steps, "begun": begun,
                "digests": digests, "last": last, "track": track,
                "refs": refs, "refs_per_s": refs / lap_s,
                "sessions_per_s": len(laps) / lap_s,
                "raw_refs_per_s": refs / sum(laps)}

    def measure(self, seconds: float) -> Dict[str, Any]:
        cpu0 = host.cpu_seconds(os.getpid())
        run = self._laps(seconds)
        cpu = host.cpu_seconds(os.getpid()) - cpu0
        laps = len(run["opens"])
        failed = sum(1 for d in run["digests"] if d != self.lap_digest)
        step_q = run["steps"].summary()

        def per_window(values: List[float]) -> float:
            return run["track"].duration(run["begun"], values)

        metrics = {
            "refs_per_s": run["refs_per_s"],
            "observe_p50_ms": 1e3 * per_window(run["lap_steps"]),
            "sessions_per_s": run["sessions_per_s"],
            "open_p50_ms": 1e3 * per_window(run["opens"]),
            "close_p50_ms": 1e3 * per_window(run["closes"]),
            "rss_mb": host.peak_rss_mb(os.getpid()),
        }
        record = {
            "laps": laps,
            "lap_refs": len(self.blocks),
            "lap_digest": self.lap_digest,
            "distinct_lap_digests": len(run["digests"]),
            "raw_refs_per_s": run["raw_refs_per_s"],
            "raw_observe_p50_ms": 1e3 * step_q["p50"],
            "host_factor": run["track"].mean_factor(),
            "observe_p99_ms": 1e3 * step_q["p99"],
            "observe_samples": step_q["n"],
            "cpu_us_per_ref": 1e6 * cpu / max(1, run["refs"]),
        }
        return {"metrics": metrics, "record": record,
                "attempted": run["refs"], "failed": failed,
                "errors": [f"lap digest {d} != {self.lap_digest}"
                           for d in run["digests"] if d != self.lap_digest]}

    def measure_layers(self, seconds: float) -> Dict[str, Any]:
        """Untraced half, then the same laps with engine timers."""
        from repro.core import costbenefit

        plain = self._laps(seconds / 2)
        timer = layers.LayerTimer()
        with layers.ModulePatch(costbenefit, "core.costbenefit", timer):
            traced = self._laps(seconds / 2, timer)
        refs = traced["refs"]
        per_ref = {
            f"{layer}_us": 1e6 * timer.self_s[layer] / refs
            for layer in ENGINE_LAYERS
        }
        stats, sim = traced["last"]
        candidates = (stats.prefetches_issued + stats.candidates_already_cached
                      + stats.candidates_rejected_cost
                      + stats.candidates_no_capacity)
        plain_rate = plain["refs_per_s"]
        traced_rate = traced["refs_per_s"]
        metrics = dict(per_ref)
        metrics.update({
            "core.costbenefit_calls_per_ref":
                timer.calls["core.costbenefit"] / refs,
            "core.tree_nodes": float(sim.policy.model_items()),
            "engine.candidates_per_ref": candidates / stats.accesses,
            "engine.issued_share": stats.prefetches_issued / candidates,
            "engine.rejected_cost_share":
                stats.candidates_rejected_cost / candidates,
            "engine.prefetch_used_share":
                stats.prefetch_hits / stats.prefetches_issued,
            "obs.tracing_overhead_share": 1.0 - traced_rate / plain_rate,
        })
        bad = [d for d in plain["digests"] | traced["digests"]
               if d != self.lap_digest]
        return {"metrics": metrics,
                "record": {"untraced_refs_per_s": plain_rate,
                           "traced_refs_per_s": traced_rate,
                           "traced_host_factor":
                               traced["track"].mean_factor(),
                           "traced_laps": len(traced["opens"])},
                "attempted": plain["refs"] + refs, "failed": len(bad),
                "errors": [f"lap digest {d} != {self.lap_digest}"
                           for d in bad]}

    def layout(self) -> Dict[str, Any]:
        return {"processes": {"simulator": os.getpid()},
                "workers": 0, "workers_reason": "offline: no served tier"}
