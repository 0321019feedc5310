"""The hot-child cache answers exactly what the full scan answers.

Two trees take the same random accesses, LRU evictions and
snapshot/restore round trips.  After every access one tree is asked
through ``children_above`` (which reads the ``hot`` cache at hub nodes)
and its twin through ``iter_relevant_children``; filtered by the floor,
both must name the same children in the same order.  The cache is
derived state, so the twins' snapshots must stay identical.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.costbenefit import min_profitable_probability
from repro.core.tree import HOT_FLOOR, PrefetchTree
from repro.params import PAPER_PARAMS

RESTORE = -1

#: A few hot blocks among many cold ones, so the root becomes a hub
#: (more than HEAVY_ACTIVATION children) with children above HOT_FLOOR.
blocks = st.one_of(st.integers(0, 5), st.integers(0, 160))
ops = st.lists(
    st.one_of(blocks, blocks, blocks, blocks, st.just(RESTORE)),
    min_size=50, max_size=900,
)
floors = st.sampled_from([
    HOT_FLOOR,
    min_profitable_probability(PAPER_PARAMS, 0.0),
    0.2,
    HOT_FLOOR / 2,  # below the cut: the scan answers
])


def _above(node, pairs, floor):
    weight = node.weight
    return [
        (block, child.weight) for block, child in pairs
        if child.weight / weight > floor
    ]


def _round_trip(tree):
    meta, items = json.loads(json.dumps(tree.snapshot_state()))
    tree.restore_state(meta, items)


@given(ops, st.sampled_from([None, 40, 150]), floors)
@settings(max_examples=120, deadline=None)
def test_children_above_matches_scan(seq, budget, floor):
    cached = PrefetchTree(max_nodes=budget)
    scanned = PrefetchTree(max_nodes=budget)
    for op in seq:
        if op == RESTORE:
            _round_trip(cached)
            _round_trip(scanned)
            continue
        cached.record_access(op)
        scanned.record_access(op)
        for c_node, s_node in ((cached.current, scanned.current),
                               (cached.root, scanned.root)):
            if c_node.weight <= 0:
                continue
            got = _above(c_node, cached.children_above(c_node, floor), floor)
            want = _above(s_node, scanned.iter_relevant_children(s_node),
                          floor)
            assert got == want
    cached.check_invariants()
    assert cached.snapshot_state() == scanned.snapshot_state()


def _check_root(tree, floor=HOT_FLOOR):
    root = tree.root
    got = _above(root, tree.children_above(root, floor), floor)
    want = _above(root, tree.iter_relevant_children(root), floor)
    assert got == want
    return [block for block, _ in got]


def test_hub_root_reads_the_cache():
    """At a hub, floors at or above the cut are answered from ``hot``;
    the increment that lifts a child to exactly 1/32 drops it, and the
    rebuild takes the child in."""
    tree = PrefetchTree()
    for block in range(208):
        tree.record_access(block)  # 208 one-block substrings at the root
    for i in range(10):
        tree.record_access(0)
        tree.record_access(1000 + i)  # substring (0 x): root child 0 grows
    root = tree.root
    hot = tree.children_above(root, HOT_FLOOR)
    assert root.hot is hot
    assert [block for block, _ in hot] == [0]  # 11 of 218
    assert tree.children_above(root, HOT_FLOOR / 2) is not hot
    for i in range(5):
        tree.record_access(5)
        tree.record_access(2000 + i)
    assert root.hot is hot  # child 5 at 6 of 223: below 1/32
    tree.record_access(5)  # 7 of 224: exactly 1/32
    assert root.hot is None
    assert _check_root(tree) == [0]  # at the cut is not above it
    tree.record_access(2005)
    tree.record_access(5)  # 8 of 225
    assert _check_root(tree) == [0, 5]


def test_eviction_drops_a_hot_child():
    """A hot child that goes stale and is evicted leaves the cache."""
    tree = PrefetchTree(max_nodes=80)
    tree.record_access(0)
    for i in range(10):
        tree.record_access(0)
        tree.record_access(1000 + i)  # child 0 at 11, with 10 children
    for block in range(1, 79):
        tree.record_access(block)  # 79 root children: a hub
    assert _check_root(tree) == [0]  # 11 of 89
    # The next substring overflows the budget; 0 is the stalest node
    # left after its own children went.
    tree.record_access(79)
    assert 0 not in tree.root.children
    assert _check_root(tree) == []


def test_heavy_rebuild_order_reaches_the_cache():
    """A ``heavy`` rebuild restores child-map order; the cache follows."""
    tree = PrefetchTree()
    tree.record_access(1)  # child 1 first in the child map
    tree.record_access(2)
    for i in range(60):
        tree.record_access(2)
        tree.record_access(10_000 + i)
    for block in range(3, 1101):
        tree.record_access(block)
    _check_root(tree)  # heavy built above 1/1024 of 1160: child 2 only
    serial = 20_000
    for hot_block in [1] * 37 + [2, 1] * 600:
        tree.record_access(hot_block)
        tree.record_access(serial)  # child 1 joins heavy after child 2
        serial += 1
        _check_root(tree)
    assert list(tree.root.heavy)[:2] == [1, 2]  # rebuilt in map order
    assert _check_root(tree) == [1, 2]
