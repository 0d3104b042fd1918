"""Property-based tests of the hop-class schedules.

These drive the class/card bookkeeping of PHop/NHop/Pbc/Nbc along random
minimal walks with random class choices inside the allowed window, and
assert the deadlock-freedom invariants:

* the class sequence is non-decreasing,
* the class strictly increases across the scheme's "counted" hops
  (every hop for PHop, negative hops for NHop),
* the class never exceeds the budget,
* bonus cards never go negative.

The retry-stability test at the end covers all algorithms: a blocked
header's retry must not offer more than its first attempt did.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.generator import generate_block_fault_pattern, pattern_from_nodes
from repro.faults.pattern import FaultPattern
from repro.routing.duato import DuatoXY
from repro.routing.hop_based import Nbc, NHop, Pbc, PHop
from repro.routing.registry import ALGORITHM_NAMES, make_algorithm
from repro.simulator.message import Message
from repro.topology.directions import NORTH
from repro.topology.mesh import Mesh2D

MESH = Mesh2D(10)
FAULT_FREE = FaultPattern.fault_free(MESH)


def walk_classes(alg_cls, src, dst, seed):
    alg = alg_cls()
    alg.prepare(MESH, FAULT_FREE, 24)
    msg = Message(0, src, dst, 4, created=0)
    alg.new_message(msg)
    rng = random.Random(seed)
    node = src
    trace = []
    while node != dst:
        tiers = alg.candidate_tiers(msg, node)
        tier = tiers[-1] if len(tiers) > 1 else tiers[0]  # the class tier
        direction, vcs = tier[rng.randrange(len(tier))]
        vc = vcs[rng.randrange(len(vcs))]
        cards_before = msg.cards
        alg.on_vc_allocated(msg, node, direction, vc)
        trace.append(
            (alg.budget.class_of[vc], cards_before, msg.cards,
             MESH.checkerboard_label(node))
        )
        node = MESH.neighbor(node, direction)
    return alg, msg, trace


pairs = st.tuples(
    st.integers(0, MESH.n_nodes - 1), st.integers(0, MESH.n_nodes - 1)
).filter(lambda p: p[0] != p[1])


@given(pair=pairs, seed=st.integers(0, 10_000))
@settings(max_examples=120)
def test_phop_schedule(pair, seed):
    src, dst = pair
    alg, msg, trace = walk_classes(PHop, src, dst, seed)
    classes = [t[0] for t in trace]
    # strictly increasing every hop, starting at 0, within budget
    assert classes[0] == 0
    assert all(b > a for a, b in zip(classes, classes[1:]))
    assert classes[-1] <= alg.budget.max_class
    assert msg.cards == 0
    assert alg.class_caps == 0


@given(pair=pairs, seed=st.integers(0, 10_000))
@settings(max_examples=120)
def test_pbc_schedule(pair, seed):
    src, dst = pair
    alg, msg, trace = walk_classes(Pbc, src, dst, seed)
    classes = [t[0] for t in trace]
    assert all(b > a for a, b in zip(classes, classes[1:]))
    assert classes[-1] <= alg.budget.max_class
    assert all(cards_after >= 0 for _, _, cards_after, _ in trace)
    # cards spent = total class jump beyond the minimum schedule
    spent = trace[0][1] - trace[-1][2]
    assert spent == classes[-1] - (len(classes) - 1)
    assert alg.class_caps == 0


@given(pair=pairs, seed=st.integers(0, 10_000))
@settings(max_examples=120)
def test_nhop_schedule(pair, seed):
    src, dst = pair
    alg, msg, trace = walk_classes(NHop, src, dst, seed)
    classes = [t[0] for t in trace]
    # non-decreasing always; strict increase across negative hops
    for (c1, _, _, label1), (c2, _, _, _) in zip(trace, trace[1:]):
        assert c2 >= c1
    for (c1, _, _, _), (c2, _, _, label2) in zip(trace, trace[1:]):
        pass
    # negative hops (from label-1 nodes) force strict increase
    for i in range(1, len(trace)):
        if trace[i][3] == 1:  # this hop leaves a label-1 node: negative
            assert trace[i][0] > trace[i - 1][0] or trace[i][0] >= trace[i - 1][0]
    # exact final class: required negative hops along a minimal path
    assert msg.neg_hops == alg.required_negative_hops(src, dst)
    assert classes[-1] <= alg.budget.max_class
    assert alg.class_caps == 0


@given(pair=pairs, seed=st.integers(0, 10_000))
@settings(max_examples=120)
def test_nbc_schedule(pair, seed):
    src, dst = pair
    alg, msg, trace = walk_classes(Nbc, src, dst, seed)
    classes = [t[0] for t in trace]
    for c1, c2 in zip(classes, classes[1:]):
        assert c2 >= c1
    assert classes[-1] <= alg.budget.max_class
    assert all(cards_after >= 0 for _, _, cards_after, _ in trace)
    assert msg.neg_hops == alg.required_negative_hops(src, dst)
    assert alg.class_caps == 0


@given(pair=pairs, seed=st.integers(0, 10_000))
@settings(max_examples=60)
def test_nhop_strict_increase_on_negative_hops(pair, seed):
    """The sharpened invariant: class after a negative hop is strictly
    above the class used before it."""
    src, dst = pair
    _, _, trace = walk_classes(NHop, src, dst, seed)
    for i in range(1, len(trace)):
        label_of_hop_source = trace[i][3]
        if label_of_hop_source == 1:
            assert trace[i][0] > trace[i - 1][0]


# ----------------------------------------------------------------------
# Retry stability: what the engine's blocked-header skip rests on.
# ----------------------------------------------------------------------
#: Every Message field the routing layer reads or writes.
ROUTING_FIELDS = (
    "hops", "counted_hops", "neg_hops", "cls", "cards", "misroutes",
    "ring", "ring_orient_cw", "ring_class", "ring_entry_dist", "extra",
)


def routing_state(msg):
    return tuple(getattr(msg, name) for name in ROUTING_FIELDS)


def candidate_pairs(tiers):
    return {(d, vc) for tier in tiers for d, vcs in tier for vc in vcs}


@pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
@given(
    seed=st.integers(0, 10_000),
    width=st.integers(4, 6),
    height=st.integers(4, 6),
    n_faults=st.sampled_from([0, 2, 4, 6]),
)
@settings(max_examples=15, deadline=None)
def test_retry_never_widens_candidates(algorithm, seed, width, height, n_faults):
    """A blocked header's retry at the same node offers a subset of its
    first attempt's output VCs, counts the same class caps, and leaves
    the message's routing state where the first attempt put it.

    The engine skips a blocked header's retries until its router frees
    an output VC, replaying the first failed attempt instead; that is
    only exact while these three hold.  A random walk visits fault-ring
    entry, transit, chain-end reversal and exit states along the way.
    """
    rng = random.Random(seed)
    mesh = Mesh2D(width, height)
    faults = generate_block_fault_pattern(mesh, n_faults, rng)
    alg = make_algorithm(algorithm)
    alg.prepare(mesh, faults, 24)
    src, dst = rng.sample(faults.healthy_nodes, 2)
    msg = Message(0, src, dst, 4, created=0)
    alg.new_message(msg)
    node = src
    for _ in range(4 * mesh.diameter):
        if node == dst:
            break
        caps = alg.class_caps
        first = alg.candidate_tiers(msg, node)
        first_caps = alg.class_caps - caps
        after_first = routing_state(msg)
        caps = alg.class_caps
        second = alg.candidate_tiers(msg, node)
        assert candidate_pairs(second) <= candidate_pairs(first)
        assert alg.class_caps - caps == first_caps
        assert routing_state(msg) == after_first
        third = alg.candidate_tiers(msg, node)
        assert routing_state(msg) == after_first
        assert candidate_pairs(third) == candidate_pairs(second)
        # A tier may offer no VC at all (the nbc class tier of a message
        # with negative bonus cards on an odd-diameter mesh).
        offered = [sorted(candidate_pairs([tier])) for tier in third]
        offered = [choices for choices in offered if choices]
        if not offered:
            break
        tier = offered[rng.randrange(len(offered))]
        direction, vc = tier[rng.randrange(len(tier))]
        alg.on_vc_allocated(msg, node, direction, vc)
        node = mesh.neighbor(node, direction)


@pytest.mark.xfail(
    strict=True,
    reason="duato's first attempt enters the f-ring from its second tier, "
    "so a retry offers only the ring VC (ROADMAP item 6)",
)
def test_duato_retry_keeps_class_one_vcs():
    """(2,2)->(4,4) with (3,2) faulty: the XY hop is dead, so duato offers
    class I north plus the ring VC.  The first call records ring entry,
    and a retry then fails ``_may_exit_ring`` and drops class I."""
    mesh = Mesh2D(6)
    faults = pattern_from_nodes(mesh, {mesh.node_id(3, 2)})
    alg = DuatoXY()
    alg.prepare(mesh, faults, 24)
    node = mesh.node_id(2, 2)
    msg = Message(0, node, mesh.node_id(4, 4), 4, created=0)
    alg.new_message(msg)
    first = alg.candidate_tiers(msg, node)
    assert first == [
        [(NORTH, alg.budget.adaptive_vcs)],
        [(NORTH, (alg.budget.ring_vcs[msg.ring_class],))],
    ]
    assert alg.candidate_tiers(msg, node) == first
