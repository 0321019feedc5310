"""Depth-1 selection from the hot-child index equals the full scan.

``TreePolicy`` reads a hub node's cached above-floor children
(``PrefetchTree.children_above``) and takes the period's cost-benefit
scalars from one shared computation.  The oracle here is the selection
it replaced: every relevant child scanned, the depth-1 saving and the
profitability floor recomputed from the stand-alone :mod:`costbenefit`
functions.  Both run side by side over the same stream and must return
equal :class:`StepResult`\\ s at every step, floats compared by ``repr``.
"""

import dataclasses

import pytest

from repro.core import costbenefit
from repro.core.tree import HOT_FLOOR
from repro.params import PAPER_PARAMS
from repro.policies.registry import make_policy
from repro.policies.tree import TreePolicy
from repro.policies.tree_filtered import TreeFilteredPolicy
from repro.policies.tree_lvc import TreeLvcPolicy
from repro.policies.tree_next_limit import TreeNextLimitPolicy
from repro.service.session import PrefetchSession
from repro.sim.engine import Simulator
from repro.store import restore_session, snapshot_session
from repro.store.codec import decode_snapshot, encode_snapshot
from repro.traces.synthetic import make_trace

CACHE = 256
REFS = 2000
BUDGET = 300


class ScanDepth1:
    """Depth-1 selection as a full ``iter_relevant_children`` scan."""

    def _depth1_candidates(self, scalars, t_driver):
        cur = self.tree.current
        weight = cur.weight
        if weight <= 0 or not cur.has_children():
            return []
        params = self.engine.params
        s = self.engine.s
        saved = costbenefit.delta_t_pf(params, 1, s)
        if saved <= 0.0:
            return []
        floor = max(
            self.min_probability,
            costbenefit.min_profitable_probability(params, s),
        )
        ranked = []
        for block, child in self.tree.iter_relevant_children(cur):
            p = child.weight / weight
            if p <= floor:
                continue
            net = p * saved - (1.0 - p) * params.t_driver
            ranked.append((net, p, 1.0, 1, block))
        ranked.sort(key=lambda item: -item[0])
        del ranked[self.max_candidates:]
        return ranked


class ScanTreePolicy(ScanDepth1, TreePolicy):
    pass


class ScanTreeLvcPolicy(ScanDepth1, TreeLvcPolicy):
    pass


class ScanTreeNextLimitPolicy(ScanDepth1, TreeNextLimitPolicy):
    pass


class ScanTreeFilteredPolicy(ScanDepth1, TreeFilteredPolicy):
    pass


ORACLES = {
    "tree": ScanTreePolicy,
    "tree-lvc": ScanTreeLvcPolicy,
    "tree-next-limit": ScanTreeNextLimitPolicy,
    "tree-filtered": ScanTreeFilteredPolicy,
}


def _params(t_cpu):
    return dataclasses.replace(PAPER_PARAMS, t_cpu=t_cpu)


def _kwargs(budget):
    return {} if budget is None else {"max_tree_nodes": budget}


def _oracle_steps(name, blocks, t_cpu, budget):
    sim = Simulator(_params(t_cpu), ORACLES[name](**_kwargs(budget)), CACHE)
    return [repr(sim.step(block)) for block in blocks]


def _assert_same(got, want):
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"step {i + 1} differs"


def _check(name, trace, t_cpu, budget, seed=1):
    blocks = make_trace(trace, REFS, seed=seed).as_list()
    policy = make_policy(name, **_kwargs(budget))
    sim = Simulator(_params(t_cpu), policy, CACHE)
    got = []
    hot_reads = 0
    for block in blocks:
        got.append(repr(sim.step(block)))
        hot_reads += sim.policy.tree.root.hot is not None
    _assert_same(got, _oracle_steps(name, blocks, t_cpu, budget))
    return sim, hot_reads


@pytest.mark.parametrize("budget", [None, BUDGET])
@pytest.mark.parametrize("t_cpu", [50.0, 5.0])
@pytest.mark.parametrize("trace", ["cad", "cello", "snake", "sitar"])
def test_tree_matches_scan(trace, t_cpu, budget):
    sim, hot_reads = _check("tree", trace, t_cpu, budget)
    if budget is not None:
        assert sim.policy.tree.stats.nodes_evicted > 0
    if t_cpu == 50.0 and trace == "cad":
        # The paper's constants keep the floor above the index's cut, so
        # the root's selection ran from the index.
        assert costbenefit.min_profitable_probability(
            PAPER_PARAMS, 0.0
        ) >= HOT_FLOOR
        assert hot_reads > 0


@pytest.mark.parametrize("budget", [None, BUDGET])
@pytest.mark.parametrize("trace", ["cad", "cello"])
@pytest.mark.parametrize(
    "name", ["tree-lvc", "tree-next-limit", "tree-filtered"]
)
def test_subclasses_match_scan(name, trace, budget):
    _check(name, trace, 50.0, budget)


@pytest.mark.parametrize("budget", [None, BUDGET])
@pytest.mark.parametrize("name", sorted(ORACLES))
def test_matches_scan_across_snapshot_restore(name, budget):
    """A session snapshotted and restored mid-stream (so every derived
    index starts empty) still matches the scan that never stopped."""
    blocks = make_trace("cad", REFS, seed=2).as_list()
    half = len(blocks) // 2
    session = PrefetchSession(
        policy=name, cache_size=CACHE, params=_params(50.0),
        policy_kwargs=_kwargs(budget),
    )
    got = [repr(session.simulator.step(block)) for block in blocks[:half]]
    data = encode_snapshot(snapshot_session(session))
    resumed = restore_session(decode_snapshot(data))
    assert resumed.simulator.policy.tree.root.hot is None
    got += [repr(resumed.simulator.step(block)) for block in blocks[half:]]
    _assert_same(got, _oracle_steps(name, blocks, 50.0, budget))
