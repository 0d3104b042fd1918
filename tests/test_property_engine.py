"""Property-based end-to-end tests: random configurations must conserve
messages and keep the fabric invariants."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.generator import generate_block_fault_pattern
from repro.faults.pattern import FaultPattern
from repro.routing.registry import ALGORITHM_NAMES, make_algorithm
from repro.simulator.config import SimConfig
from repro.simulator.engine import Simulation
from repro.topology.directions import LOCAL
from repro.topology.mesh import Mesh2D
from test_engine_conservation import conservation_balance

configs = st.fixed_dictionaries(
    {
        "algorithm": st.sampled_from(ALGORITHM_NAMES),
        "message_length": st.sampled_from([1, 2, 5, 12]),
        "buffer_depth": st.sampled_from([1, 2, 3]),
        "injection_rate": st.sampled_from([0.0, 0.002, 0.01, 0.04]),
        "seed": st.integers(0, 999),
        "n_faults": st.sampled_from([0, 0, 3, 6]),
        "injection_vcs": st.sampled_from([1, 2]),
    }
)


@given(params=configs)
@settings(max_examples=25, deadline=None)
def test_random_configuration_is_consistent(params):
    mesh = Mesh2D(6)
    n_faults = params.pop("n_faults")
    algorithm = params.pop("algorithm")
    faults = (
        generate_block_fault_pattern(mesh, n_faults, random.Random(params["seed"]))
        if n_faults
        else FaultPattern.fault_free(mesh)
    )
    cfg = SimConfig(
        width=6,
        vcs_per_channel=24,
        cycles=600,
        warmup=100,
        on_deadlock="drain",
        deadlock_timeout=300,
        **params,
    )
    sim = Simulation(cfg, make_algorithm(algorithm), faults=faults)
    sim.run()
    sim.check_invariants()
    assert conservation_balance(sim) == 0
    # Throughput accounting is internally consistent: every delivered
    # message contributed at least its tail flit to the measured count
    # (messages straddling the warmup boundary contribute fewer than
    # message_length flits).
    r = sim.result
    assert r.delivered <= r.delivered_flits
    if params["injection_rate"] > 0:
        assert sim.total_generated > 0


@given(
    seed=st.integers(0, 500),
    burst=st.integers(1, 25),
    length=st.sampled_from([1, 3, 9]),
)
@settings(max_examples=20, deadline=None)
def test_burst_always_fully_drains(seed, burst, length):
    """Any burst of messages on a healthy mesh is eventually delivered
    in full (deadlock-free scheme, no background traffic)."""
    cfg = SimConfig(
        width=6,
        vcs_per_channel=24,
        message_length=length,
        injection_rate=0.0,
        cycles=4000,
        warmup=0,
        seed=seed,
    )
    sim = Simulation(cfg, make_algorithm("nbc"))
    rng = random.Random(seed)
    for _ in range(burst):
        src, dst = rng.sample(range(36), 2)
        sim.submit_message(src, dst)
    sim.run()
    assert sim.total_delivered == burst
    assert sim.flits_in_network() == 0
    assert sim.messages_pending() == 0


step_configs = st.fixed_dictionaries(
    {
        "algorithm": st.sampled_from(ALGORITHM_NAMES),
        "width": st.integers(4, 6),
        "height": st.integers(4, 6),
        "message_length": st.sampled_from([1, 3, 8]),
        "buffer_depth": st.sampled_from([1, 2]),
        "injection_rate": st.sampled_from([0.02, 0.06, 0.15]),
        "seed": st.integers(0, 999),
        "n_faults": st.sampled_from([0, 2, 4]),
        "injection_vcs": st.sampled_from([1, 2]),
        "on_deadlock": st.sampled_from(["drain", "count"]),
    }
)


@given(params=step_configs)
@settings(max_examples=12, deadline=None)
def test_invariants_hold_after_every_cycle(params):
    """Credit, ownership and busy-set invariants and message conservation
    hold after *every* cycle, not just at the end of a run — including
    across watchdog drains (short timeout) and hop-cap drains."""
    mesh = Mesh2D(params["width"], params["height"])
    n_faults = params.pop("n_faults")
    algorithm = params.pop("algorithm")
    faults = (
        generate_block_fault_pattern(mesh, n_faults, random.Random(params["seed"]))
        if n_faults
        else FaultPattern.fault_free(mesh)
    )
    cfg = SimConfig(
        vcs_per_channel=24,
        cycles=150,
        warmup=20,
        deadlock_timeout=30,
        max_hops_factor=2,
        **params,
    )
    sim = Simulation(cfg, make_algorithm(algorithm), faults=faults)
    for _ in range(cfg.cycles):
        sim.step()
        sim.check_invariants()
        assert conservation_balance(sim) == 0, f"cycle {sim.cycle}"
    assert sim.cycle == cfg.cycles


#: Message fields a probing ``candidate_tiers`` call may write.
RING_FIELDS = ("ring", "ring_orient_cw", "ring_class", "ring_entry_dist")


@pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
@given(
    width=st.integers(4, 6),
    height=st.integers(4, 6),
    n_faults=st.sampled_from([2, 4, 6]),
    message_length=st.sampled_from([3, 8]),
    injection_rate=st.sampled_from([0.06, 0.15]),
    seed=st.integers(0, 999),
)
@settings(max_examples=5, deadline=None)
def test_skipped_headers_could_not_be_granted(
    algorithm, width, height, n_faults, message_length, injection_rate, seed
):
    """After every cycle, a waiting header whose router has freed no
    output VC since its last failed attempt (so the route phase will skip
    it) finds every candidate output VC of a fresh attempt owned."""
    mesh = Mesh2D(width, height)
    faults = generate_block_fault_pattern(mesh, n_faults, random.Random(seed))
    cfg = SimConfig(
        width=width,
        height=height,
        vcs_per_channel=24,
        message_length=message_length,
        buffer_depth=2,
        injection_rate=injection_rate,
        cycles=150,
        warmup=0,
        on_deadlock="drain",
        deadlock_timeout=60,
        seed=seed,
    )
    alg = make_algorithm(algorithm)
    sim = Simulation(cfg, alg, faults=faults)
    eject = [[(LOCAL, range(cfg.vcs_per_channel))]]
    for _ in range(cfg.cycles):
        sim.step()
        for invc, wait in sim._needs_routing.items():
            if wait is None or wait[0] != sim._releases[invc.node]:
                continue
            msg, node = invc.msg, invc.node
            saved = [getattr(msg, name) for name in RING_FIELDS]
            caps = alg.class_caps
            tiers = eject if node == msg.dst else alg.candidate_tiers(msg, node)
            alg.class_caps = caps
            for name, value in zip(RING_FIELDS, saved):
                setattr(msg, name, value)
            for tier in tiers:
                for direction, vcs in tier:
                    for vc in vcs:
                        assert sim.output_vc(node, direction, vc).owner is not None, (
                            f"cycle {sim.cycle}: message {msg.id} at node "
                            f"{node} skipped while ({direction}, {vc}) is free"
                        )
