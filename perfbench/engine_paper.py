"""Workload ``engine_paper``: the engine alone at the paper's configuration.

Direct ``Simulation(...).run()`` on a 10x10 mesh with 24 VCs and
100-flit messages, the regime of every paper-profile run; no store, no
pool, no evaluator.  Four cases per round:

* ``sat0``   duato-nbc, fault-free, 0.41 flits/node/cycle (near saturation)
* ``light0`` duato-nbc, fault-free, 0.11 (light load)
* ``ring10`` nhop, 10 faulty nodes in seed-drawn block faults, 0.41
* ``over0``  fully-adaptive, fault-free, 1.0 (overload: misrouting and
  the drain-recovery watchdog)

Runs are shortened to ``CYCLES`` (the paper runs 30k) so one round fits
in a few seconds; a run cycles through the cases for ``--seconds`` (at
least three rounds) and reports a median round, built from each case's
median host time and scaled to the reference host speed measured by a
kernel interleaved with the cases.  Every round re-simulates identical inputs, so each case's
result digest must repeat exactly.

Run as a script, this module is the set-up probe: a fresh interpreter
that imports the engine's layers and constructs the four simulations,
printing the time it took.
"""

from __future__ import annotations

import itertools
import json
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

CASES = (
    # name, algorithm, faulty nodes, offered load (flits/node/cycle)
    ("sat0", "duato-nbc", 0, 0.41),
    ("light0", "duato-nbc", 0, 0.11),
    ("ring10", "nhop", 10, 0.41),
    ("over0", "fully-adaptive", 0, 1.0),
)
WIDTH = 10
VCS = 24
MESSAGE_LENGTH = 100
CYCLES = 3000
WARMUP = 1000
MIN_ROUNDS = 3
SETUP_PROBES = 11


def build_inputs(seed: int) -> list[dict]:
    """The four cases' configs and fault patterns, all drawn from *seed*."""
    from repro.core.evaluator import deadlock_policy
    from repro.faults.generator import generate_block_fault_pattern
    from repro.faults.pattern import FaultPattern
    from repro.routing.registry import make_algorithm
    from repro.simulator.config import SimConfig
    from repro.topology.mesh import Mesh2D

    mesh = Mesh2D(WIDTH, WIDTH)
    inputs = []
    for name, algorithm, n_faults, load in CASES:
        if n_faults:
            faults = generate_block_fault_pattern(
                mesh, n_faults, random.Random(f"{seed}/{name}/faults")
            )
        else:
            faults = FaultPattern.fault_free(mesh)
        config = SimConfig(
            width=WIDTH,
            vcs_per_channel=VCS,
            message_length=MESSAGE_LENGTH,
            injection_rate=load / MESSAGE_LENGTH,
            cycles=CYCLES,
            warmup=WARMUP,
            seed=random.Random(f"{seed}/{name}/run").getrandbits(32),
            on_deadlock=deadlock_policy(make_algorithm(algorithm), faults),
        )
        inputs.append({"name": name, "algorithm": algorithm,
                       "faults": faults, "config": config})
    return inputs


def construct(case: dict):
    from repro.routing.registry import make_algorithm
    from repro.simulator.engine import Simulation

    return Simulation(case["config"], make_algorithm(case["algorithm"]),
                      case["faults"])


def run_case(case: dict) -> dict:
    """Construct and run one case; times, counts and the result payload."""
    from repro.util.serialization import result_to_dict

    clock = time.perf_counter
    t0 = clock()
    sim = construct(case)
    t1 = clock()
    result = sim.run()
    t2 = clock()
    payload = result_to_dict(result)
    return {
        "sim": sim,
        "payload": payload,
        "construct_s": t1 - t0,
        "run_s": t2 - t1,
        "cycles": sim.cycle,
        "delivered": sim.total_delivered,
        "flits": sim.total_delivered * case["config"].message_length,
        "drained": sim.total_dropped,
    }


def check_case(run, case: dict, out: dict, expected: dict, pins: dict,
               engine_version: int) -> None:
    """Count one operation: pin-free checks, repeatability, the pin."""
    from perfbench import oracle
    from perfbench.common import DEFAULT_SEED

    name = case["name"]
    problems = oracle.engine_checks(out["sim"], out["payload"])
    got = oracle.digest(out["payload"])
    first = expected.setdefault(name, got)
    if got != first:
        problems.append("result differs from this run's first round")
    if run.seed == DEFAULT_SEED:
        status = oracle.check_pin(pins, engine_version, run.seed,
                                  f"engine_paper/{name}", got)
        run.notes.setdefault("pins", {})[name] = status
        if status == oracle.MISMATCH:
            problems.append("result digest differs from the pin")
    run.op(not problems, f"{name}: {'; '.join(problems)}")


def setup_seconds(run) -> float:
    """Median over fresh interpreters of import + four constructions."""
    from perfbench.common import child_env, median, python

    env = child_env(run.root, run.tmpdir("child-tmp"))
    values = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [python(), str(Path(__file__).resolve()), str(run.seed)],
            cwd=run.root, env=env, capture_output=True, text=True,
            timeout=120,
        )
        if run.op(proc.returncode == 0, f"setup probe: {proc.stderr[-300:]}"):
            values.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return median(values) if values else float("nan")


def main(run) -> None:
    from perfbench import oracle
    from perfbench.common import median
    from repro.simulator.engine import ENGINE_VERSION

    inputs = build_inputs(run.seed)
    pins = oracle.load_pins()
    expected: dict[str, str] = {}
    if run.trace:
        traced(run, inputs, pins, expected, ENGINE_VERSION)
        return
    setup = setup_seconds(run)
    # Per case, the host seconds of each of its runs; the metric is a
    # round's cycles (or flits) over the sum of the per-case medians.
    # Before every case the fixed reference kernel runs once: this
    # host's speed swings by up to 2x within minutes, and the rates are
    # reported scaled to the reference host (common.HostSpeed).
    times: dict[str, list[float]] = {c["name"]: [] for c in inputs}
    work: dict[str, tuple[int, int]] = {}
    deadline = time.perf_counter() + run.seconds
    for i in itertools.count():
        case = inputs[i % len(inputs)]
        run.speed.sample()
        out = run_case(case)
        check_case(run, case, out, expected, pins, ENGINE_VERSION)
        times[case["name"]].append(out["run_s"])
        work[case["name"]] = (out["cycles"], out["flits"])
        if i + 1 >= MIN_ROUNDS * len(inputs) and time.perf_counter() > deadline:
            break
    rounds = min(len(t) for t in times.values())
    host = sum(median(t) for t in times.values())
    run.notes["run_s"] = times
    run.metric("setup_s", setup, "s", samples=SETUP_PROBES)
    run.host_metric("op_ms", 1000 * host, "ms", samples=rounds)
    run.host_metric("work_per_s", sum(c for c, _ in work.values()) / host,
                    "1/s", rate=True, samples=rounds)
    run.metric("peak_rss_mb",
               resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
               "MB")
    slowdown = run.speed.slowdown()
    run.detail("sim_flits_per_s",
               slowdown * sum(f for _, f in work.values()) / host, "1/s",
               samples=rounds)


def traced(run, inputs, pins, expected, engine_version) -> None:
    """Two untraced rounds, then the same round traced and profiled."""
    from perfbench import engine_probe
    from perfbench.common import child_env, import_seconds, median
    from perfbench.tracing import Tracer, self_times

    run.speed.sample()
    per_case: dict[str, list[float]] = {c["name"]: [] for c in inputs}
    untraced_wall = []
    for _ in range(2):
        outs = [run_case(case) for case in inputs]
        for case, out in zip(inputs, outs):
            check_case(run, case, out, expected, pins, engine_version)
            per_case[case["name"]].append(out["cycles"] / out["run_s"])
        untraced_wall.append(sum(o["construct_s"] + o["run_s"] for o in outs))

    tracer = Tracer(run.run_id, run.out_dir)
    engine_probe.install(tracer)
    try:
        with tracer.span("engine_paper.round"):
            outs = [run_case(case) for case in inputs]
    finally:
        tracer.restore()
    for case, out in zip(inputs, outs):
        # Tracing and profiling must not change a single statistic.
        check_case(run, case, out, expected, pins, engine_version)
    traced_wall = sum(o["construct_s"] + o["run_s"] for o in outs)
    spans = list(tracer.spans)
    tracer.flush()

    run.notes["self_s"] = self_times(spans)
    engine_probe.report(run, spans, traced_wall)
    env = child_env(run.root, run.tmpdir("child-tmp"))
    run.metric("import_s", import_seconds(run, env, "repro.simulator.engine"),
               "s")
    run.metric("trace_overhead_ratio", traced_wall / median(untraced_wall),
               "ratio")
    run.speed.sample()
    run.metric("host.ref_ms", run.speed.kernel_ms(), "ms")
    for name, values in per_case.items():
        run.detail(f"simulator.cycles_per_s.{name}", median(values), "1/s",
                   samples=len(values))
    delivered = sum(o["delivered"] for o in outs)
    drained = sum(o["drained"] for o in outs)
    run.detail("simulator.delivered_msgs", delivered, "count")
    run.detail("simulator.drained_msgs", drained, "count")
    run.detail("simulator.useful_ratio", delivered / (delivered + drained),
               "ratio")


def _probe(seed: int) -> None:
    t0 = time.perf_counter()
    inputs = build_inputs(seed)
    for case in inputs:
        construct(case)
    print(json.dumps(time.perf_counter() - t0))


if __name__ == "__main__":
    _probe(int(sys.argv[1]))
