"""Performance microbenchmarks for the core data structures.

These are conventional pytest-benchmark timings (multiple rounds) for the
hot paths that bound whole-trace simulation throughput: LZ-tree updates,
stack-distance profiling, candidate enumeration, and the end-to-end
simulator step.  They exist so a performance regression in the substrate
shows up as a number, not as a mysteriously slow Figure 6.
"""

import random

from repro.cache.ghost import StackDistanceProfiler
from repro.core.tree import PrefetchTree
from repro.params import PAPER_PARAMS
from repro.policies.registry import make_policy
from repro.sim.engine import Simulator
from repro.traces.synthetic import make_trace


def _mixed_blocks(n=20_000, universe=4_000, seed=0):
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        if rng.random() < 0.5:
            start = rng.randrange(universe)
            out.extend(range(start, start + rng.randrange(2, 16)))
        else:
            out.append(rng.randrange(universe))
    return out[:n]


def test_perf_tree_record(benchmark):
    blocks = _mixed_blocks()

    def build():
        tree = PrefetchTree()
        tree.record_all(blocks)
        return tree.node_count

    nodes = benchmark(build)
    assert nodes > 0


def test_perf_tree_record_bounded(benchmark):
    blocks = _mixed_blocks()

    def build():
        tree = PrefetchTree(max_nodes=4096)
        tree.record_all(blocks)
        return tree.node_count

    nodes = benchmark(build)
    assert nodes <= 4096


def test_perf_stack_distance_profiler(benchmark):
    blocks = _mixed_blocks()

    def profile():
        p = StackDistanceProfiler(max_depth=2048)
        for b in blocks:
            p.record(b)
        return p.references

    refs = benchmark(profile)
    assert refs == len(blocks)


def test_perf_simulator_tree_policy(benchmark, ctx):
    """End-to-end simulator throughput on the CAD workload."""
    blocks = ctx.trace("cad").as_list()[:20_000]

    def run():
        sim = Simulator(PAPER_PARAMS, make_policy("tree"), 1024)
        return sim.run(blocks).misses

    misses = benchmark.pedantic(run, rounds=3, iterations=1)
    assert misses > 0


def test_perf_simulator_no_prefetch(benchmark, ctx):
    blocks = ctx.trace("cad").as_list()[:20_000]

    def run():
        sim = Simulator(PAPER_PARAMS, make_policy("no-prefetch"), 1024)
        return sim.run(blocks).misses

    misses = benchmark.pedantic(run, rounds=3, iterations=1)
    assert misses > 0


def test_perf_trace_generation(benchmark):
    trace = benchmark.pedantic(
        lambda: make_trace("snake", num_references=20_000, seed=7),
        rounds=3,
        iterations=1,
    )
    assert len(trace) == 20_000


def test_perf_tree_cad_lap(benchmark):
    """One cold-start ``tree`` lap over a 4000-reference cad stream.

    The same lap as the ``sim-cad-tree`` workload of ``e2ebench``: most
    periods start at the hub root, so the cost of depth-1 candidate
    selection there shows directly.
    """
    blocks = make_trace("cad", num_references=4_000, seed=1_000_004).as_list()

    def lap():
        sim = Simulator(PAPER_PARAMS, make_policy("tree"), 1024)
        for block in blocks:
            sim.step(block)
        return sim.finalize().accesses

    refs = benchmark.pedantic(lap, rounds=5, iterations=1)
    assert refs == len(blocks)
