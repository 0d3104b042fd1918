"""Workload ``figure_quick``: regenerate Figure 4 the way a user does.

Runs, as a subprocess from the checkout root::

    python -m repro.experiments fig4 --profile quick \\
        --algorithms nhop duato-nbc fully-adaptive --workers 2 \\
        --store <empty dir> --seed <seed> --out <dir>

That covers interpreter import, the figure driver, the evaluator, store
writes, the engine in a two-process pool, metrics and rendering.  Three
algorithms on two workers expose the per-algorithm fan-out imbalance.
``--out`` adds the ``faults_quick.json`` dump the oracle checks.

A cold run takes most of a minute, so a run makes at least one and
repeats while ``--seconds`` has not elapsed.  After each cold run the
same command runs again against the now-full store; its output must be
byte-equal.

Run as a script, this module is the set-up probe: a fresh interpreter
that imports the store layer and opens an empty ``ResultStore``.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from pathlib import Path

ALGORITHMS = ("nhop", "duato-nbc", "fully-adaptive")
WORKERS = 2
TIMEOUT_S = 160
SETUP_PROBES = 15
IMPORT_PROBES = 3
OUTPUT = "faults_quick.json"


def command(python: str, seed: int, store: Path, out: Path) -> list[str]:
    return [
        python, "-m", "repro.experiments", "fig4", "--profile", "quick",
        "--algorithms", *ALGORITHMS, "--workers", str(WORKERS),
        "--store", str(store), "--seed", str(seed), "--out", str(out),
    ]


def _stdout_body(text: str) -> str:
    """Standard output without the wall-clock and saved-path lines."""
    return "\n".join(
        line for line in text.splitlines()
        if not line.startswith(("[total ", "[saved "))
    )


def payload_problems(data: bytes) -> list[str]:
    """Pin-free checks on a ``faults_quick.json`` payload."""
    try:
        payload = json.loads(data)
    except ValueError as exc:
        return [f"{OUTPUT} is not JSON: {exc}"]
    problems = []
    if payload.get("fault_counts") != [0, 5, 10]:
        problems.append("unexpected fault counts")
    for field in ("throughput", "latency", "dropped"):
        series = payload.get(field, {})
        if sorted(series) != sorted(ALGORITHMS):
            problems.append(f"{field}: algorithms {sorted(series)}")
            continue
        for alg, values in series.items():
            if len(values) != 3 or not all(
                isinstance(v, (int, float)) and math.isfinite(v) and v >= 0
                for v in values
            ):
                problems.append(f"{field}[{alg}] = {values!r}")
    for alg, values in payload.get("throughput", {}).items():
        if not all(0 < v <= 1 for v in values):
            problems.append(f"throughput[{alg}] outside (0, 1]")
    return problems


def cold_and_warm(run, env, pins, engine_version, tag: str,
                  traced_cmd=None) -> dict:
    """One cold run into an empty store, then the warm rerun; all checked.

    With *traced_cmd* (a function of store and out dirs), the cold run
    is the traced twin instead of the plain command.
    """
    from perfbench import oracle
    from perfbench.common import DEFAULT_SEED, python, run_timed
    from repro.store import ResultStore

    store = run.tmpdir(f"{tag}-store")
    out = run.tmpdir(f"{tag}-out")
    cmd = (traced_cmd or (lambda s, o: command(python(), run.seed, s, o)))(
        store, out
    )
    cold = run_timed(cmd, cwd=run.root, env=env, timeout=TIMEOUT_S,
                     sample_rss=True)
    data = (out / OUTPUT).read_bytes() if (out / OUTPUT).exists() else b""
    problems = []
    if cold["timed_out"]:
        problems.append("timed out")
    if cold["returncode"] != 0:
        problems.append(f"exit {cold['returncode']}: {cold['stderr'][-300:]}")
    problems += payload_problems(data)
    if run.seed == DEFAULT_SEED and traced_cmd is None:
        status = oracle.check_pin(pins, engine_version, run.seed,
                                  f"figure_quick/{OUTPUT}",
                                  oracle.digest_bytes(data))
        run.notes.setdefault("pins", {})[OUTPUT] = status
        if status == oracle.MISMATCH:
            problems.append(f"{OUTPUT} digest differs from the pin")
    run.op(not problems, f"{tag} cold: {'; '.join(problems)}")

    warm = run_timed(command(python(), run.seed, store, out), cwd=run.root,
                     env=env, timeout=TIMEOUT_S)
    warm_problems = []
    if warm["returncode"] != 0:
        warm_problems.append(f"exit {warm['returncode']}")
    if (out / OUTPUT).read_bytes() != data:
        warm_problems.append(f"{OUTPUT} differs from the cold run's")
    if _stdout_body(warm["stdout"]) != _stdout_body(cold["stdout"]):
        warm_problems.append("figure text differs from the cold run's")
    run.op(not warm_problems, f"{tag} warm: {'; '.join(warm_problems)}")
    return {"cold": cold, "warm": warm, "data": data,
            "runs": len(ResultStore(store))}


def main(run) -> None:
    from perfbench import oracle
    from perfbench.common import child_env, median, probe_median, python
    from repro.simulator.engine import ENGINE_VERSION

    env = child_env(run.root, run.tmpdir("child-tmp"))
    pins = oracle.load_pins()
    if run.trace:
        traced(run, env, pins, ENGINE_VERSION)
        return
    colds, peaks, runs = [], [], []
    deadline = time.perf_counter() + run.seconds
    while not colds or time.perf_counter() < deadline:
        res = cold_and_warm(run, env, pins, ENGINE_VERSION, f"c{len(colds)}")
        colds.append(res["cold"]["wall_s"])
        peaks.append(res["cold"]["peak_rss_mb"])
        runs.append(res["runs"])
    # Probed after the figure rather than before: a short probe right
    # after both cores were busy runs up to twice as fast on this host as
    # one after a mostly idle spell, so a fixed position keeps it steady.
    probe = [python(), str(Path(__file__).resolve()),
             str(run.tmpdir("setup-stores"))]
    setup = probe_median(run, env, probe, SETUP_PROBES, "setup probe")
    run.metric("setup_s", setup, "s", samples=SETUP_PROBES)
    run.metric("op_ms", 1000 * median(colds), "ms", samples=len(colds))
    run.metric("work_per_s", median(r / c for r, c in zip(runs, colds)),
               "1/s", samples=len(colds))
    run.metric("peak_rss_mb", median(peaks), "MB", samples=len(peaks))


def traced(run, env, pins, engine_version) -> None:
    """Untraced cold run, traced twin, warm rerun; per-layer metrics."""
    from perfbench import engine_probe
    from perfbench.common import import_seconds, python, run_timed
    from perfbench.tracing import counts, read_spans, self_times, total_times

    run.speed.sample()
    import_s = import_seconds(run, env, "repro.experiments.cli",
                              IMPORT_PROBES)
    plain = cold_and_warm(run, env, pins, engine_version, "untraced")
    spans_dir = run.tmpdir("spans")
    twin = Path(__file__).with_name("figure_trace.py")

    def traced_cmd(store, out):
        return [python(), str(twin), str(spans_dir), run.run_id, "--",
                *command(python(), run.seed, store, out)[3:]]

    twin_res = cold_and_warm(run, env, pins, engine_version, "traced",
                             traced_cmd=traced_cmd)
    run.op(twin_res["data"] == plain["data"],
           f"traced twin's {OUTPUT} differs from the untraced run's")
    # The warm rerun against the traced twin's full store, traced too,
    # so the store's hit path shows in the spans.
    warm_dir = run.tmpdir("spans-warm")
    warm_cmd = [python(), str(twin), str(warm_dir), run.run_id, "--",
                *command(python(), run.seed, run.tmpdir("traced-store"),
                         run.tmpdir("traced-out"))[3:]]
    warm_traced = run_timed(warm_cmd, cwd=run.root, env=env, timeout=TIMEOUT_S)
    run.op(warm_traced["returncode"] == 0, "traced warm rerun failed")

    spans = read_spans(spans_dir)
    all_spans = spans + read_spans(warm_dir)
    for path in list(spans_dir.glob("*.jsonl")) + list(warm_dir.glob("*.jsonl")):
        path.replace(run.out_dir / f"{path.parent.name}-{path.name}")
    totals = total_times(spans)
    run.notes["self_s"] = self_times(spans)
    all_totals = total_times(all_spans)
    n_all = counts(all_spans)
    wall_t = twin_res["cold"]["wall_s"]
    engine_probe.report(run, spans, WORKERS * wall_t)
    run.metric("import_s", import_s, "s", samples=IMPORT_PROBES)
    run.metric("trace_overhead_ratio", wall_t / plain["cold"]["wall_s"],
               "ratio")
    run.speed.sample()
    run.metric("host.ref_ms", run.speed.kernel_ms(), "ms")

    jobs: dict[int, float] = {}
    for s in spans:
        if s["name"] == "experiments.job":
            jobs[s["pid"]] = max(jobs.get(s["pid"], 0.0), s["end"])
    hits = sum(1 for s in all_spans
               if s["name"] == "store.get" and s.get("attrs", {}).get("hit"))
    d = run.detail
    d("experiments.job_imbalance_s",
      max(jobs.values()) - min(jobs.values()) if jobs else 0.0, "s",
      samples=len(jobs))
    d("metrics.aggregate_s", totals.get("metrics.aggregate", 0.0), "s")
    d("experiments.render_s", totals.get("experiments.render", 0.0), "s")
    d("store.put_s", all_totals.get("store.put", 0.0), "s",
      samples=n_all.get("store.put", 0))
    d("store.get_s", all_totals.get("store.get", 0.0), "s",
      samples=n_all.get("store.get", 0))
    d("store.hits", hits, "count")
    d("store.misses", n_all.get("store.get", 0) - hits, "count")
    d("experiments.warm_rerun_s", plain["warm"]["wall_s"], "s")


def _probe(parent: str) -> None:
    t0 = time.perf_counter()
    from repro.store import ResultStore

    ResultStore(Path(parent) / f"store-{os.getpid()}")
    print(json.dumps(time.perf_counter() - t0))


if __name__ == "__main__":
    _probe(sys.argv[1])
