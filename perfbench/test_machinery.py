"""Self-tests of the benchmark's own machinery.

    python3 -m pytest perfbench/test_machinery.py

They check that the oracle catches a perturbed result, that open-loop
timing from the due time exposes a server stall in the requests queued
behind it, that the percentile helper refuses a p99 it cannot support
while the serving schedule always draws enough queries for one, that
host-speed scaling goes the right way, that a result line must hold
exactly the metrics BENCHMARK.json lists, and that span self time
subtracts overlapping children once.
"""

from __future__ import annotations

import json
import socketserver
import sys
import threading
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import engine_paper, figure_quick, oracle, serve_http  # noqa: E402
from perfbench.common import (  # noqa: E402
    DEFAULT_SEED, REFERENCE_KERNEL_MS, Run, TooFewSamples, percentile,
)
from perfbench.run import manifest_problems  # noqa: E402
from perfbench.tracing import self_times  # noqa: E402


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------
@pytest.fixture
def tiny_case():
    from repro.faults.pattern import FaultPattern
    from repro.simulator.config import SimConfig
    from repro.topology.mesh import Mesh2D

    return {
        "name": "tiny",
        "algorithm": "duato-nbc",
        "faults": FaultPattern.fault_free(Mesh2D(4, 4)),
        "config": SimConfig(width=4, vcs_per_channel=24, message_length=8,
                            injection_rate=0.02, cycles=400, warmup=100,
                            seed=5),
    }


def _checked(tmp_path, case, out, pins):
    run = Run(tmp_path, "engine_paper", DEFAULT_SEED, 1, False)
    engine_paper.check_case(run, case, out, {}, pins, 2)
    return run


def test_engine_oracle_passes_then_flags_one_perturbed_field(tmp_path,
                                                              tiny_case):
    out = engine_paper.run_case(tiny_case)
    pins = {"2": {str(DEFAULT_SEED): {
        "engine_paper/tiny": oracle.digest(out["payload"])}}}
    run = _checked(tmp_path, tiny_case, out, pins)
    assert run.failures == [] and run.notes["pins"]["tiny"] == oracle.PINNED

    out["payload"]["latency_max"] += 1
    run = _checked(tmp_path, tiny_case, out, pins)
    assert len(run.failures) == 1 and "pin" in run.failures[0]


def test_pin_of_another_engine_version_reports_unpinned(tmp_path, tiny_case):
    out = engine_paper.run_case(tiny_case)
    pins = {"1": {str(DEFAULT_SEED): {"engine_paper/tiny": "0" * 64}}}
    run = _checked(tmp_path, tiny_case, out, pins)
    assert run.failures == []
    assert run.notes["pins"]["tiny"] == oracle.UNPINNED


def test_conservation_check_catches_a_lost_message(tiny_case):
    out = engine_paper.run_case(tiny_case)
    assert oracle.engine_checks(out["sim"], out["payload"]) == []
    out["sim"].total_delivered += 1
    assert any("conservation" in p
               for p in oracle.engine_checks(out["sim"], out["payload"]))


def test_figure_payload_check_flags_a_perturbed_value():
    payload = {
        "fault_counts": [0, 5, 10],
        "throughput": {a: [0.25, 0.2, 0.15] for a in figure_quick.ALGORITHMS},
        "latency": {a: [90.0, 100.0, 110.0] for a in figure_quick.ALGORITHMS},
        "dropped": {a: [0.0, 3.0, 7.0] for a in figure_quick.ALGORITHMS},
    }
    assert figure_quick.payload_problems(json.dumps(payload).encode()) == []
    payload["throughput"]["nhop"][1] = float("nan")
    assert figure_quick.payload_problems(json.dumps(payload).encode())


# ----------------------------------------------------------------------
# Open-loop timing
# ----------------------------------------------------------------------
class _StubHandler(socketserver.StreamRequestHandler):
    stall_on = 20
    seen = 0

    def handle(self) -> None:
        while self.rfile.readline() not in (b"\r\n", b""):
            pass
        cls = type(self)
        cls.seen += 1
        if cls.seen == cls.stall_on:
            time.sleep(0.1)
        body = b"{}"
        self.wfile.write(
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n"
            b"Connection: close\r\n\r\n" + body
        )


def test_server_stall_shows_in_later_requests_from_due_latency():
    # Single-threaded stub: while it stalls, every later request waits.
    server = socketserver.TCPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        inputs = [("nhop", 0.01, "store")]
        # 100 requests due every 5 ms; request 20 stalls the server 100 ms.
        events = [(0.005 * i, "query", 0) for i in range(100)]
        records = serve_http.drive(server.server_address[1], events, inputs,
                                   [])
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert all(r["status"] == 200 for r in records)
    lat = [1000 * (r["done"] - r["due"]) for r in records]
    # Requests due during the stall wait for it: their latency, counted
    # from when they were due, carries the remaining stall time.
    stalled = [x for x in lat[20:35] if x > 30]
    assert len(stalled) >= 8, lat[15:40]
    assert max(lat) >= 90
    assert max(lat[:15]) < 30 and max(lat[-20:]) < 30
    late = [1000 * (r["sent"] - r["due"]) for r in records]
    assert max(late) > 30  # the generator ran late while clients waited


def test_schedule_draws_a_fixed_number_of_queries_so_p99_never_refuses():
    inputs = serve_http.queries()
    for seed in range(20):
        events = serve_http.schedule(seed, "fixed", 200.0, 1100, inputs,
                                     0.5, 3)
        lat = [e[0] for e in events if e[1] == "query"]
        assert len(lat) == 1100
        percentile(lat, 99)
    assert events == serve_http.schedule(19, "fixed", 200.0, 1100, inputs,
                                         0.5, 3)
    tiers = {inputs[e[2]][2] for e in events if e[1] == "query"}
    assert tiers == set(serve_http.TIERS)


def test_segments_keep_every_event_and_rebase_each_to_zero():
    inputs = serve_http.queries()
    events = serve_http.schedule(1, "fixed", 200.0, 500, inputs, 0.5, 3)
    parts = serve_http.segments(events, 4)
    assert sum(len(p) for p in parts) == len(events)
    span = events[-1][0] / 4
    for part in parts:
        assert part and all(0 <= due <= span + 1e-9 for due, _, _ in part)


# ----------------------------------------------------------------------
# Statistics and spans
# ----------------------------------------------------------------------
def test_percentile_refuses_p99_on_too_few_samples():
    with pytest.raises(TooFewSamples):
        percentile(range(999), 99)
    assert percentile(range(1000), 99) == pytest.approx(989.01)
    with pytest.raises(TooFewSamples):
        percentile(range(19), 50)
    assert percentile(range(20), 50) == pytest.approx(9.5)


def test_host_metric_scales_to_the_reference_host_and_keeps_the_raw(tmp_path):
    run = Run(tmp_path, "engine_paper", 1, 1, False)
    run.speed.samples_ms = [1.5 * REFERENCE_KERNEL_MS, 2.5 * REFERENCE_KERNEL_MS]
    run.host_metric("work_per_s", 1000.0, "1/s", rate=True)
    run.host_metric("op_ms", 40.0, "ms")
    # The host ran the kernel twice as slowly as the reference host.
    assert run.metrics["work_per_s"]["value"] == pytest.approx(2000.0)
    assert run.metrics["op_ms"]["value"] == pytest.approx(20.0)
    assert run.raw == {"work_per_s": 1000.0, "op_ms": 40.0}


def test_result_line_must_hold_exactly_the_manifest_metrics(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "end_to_end": [{"name": "op_ms", "unit": "ms"},
                       {"name": "setup_s", "unit": "s"}],
        "per_layer": [{"name": "import_s", "unit": "s"}],
    }))
    full = {"op_ms": {"value": 1.0, "unit": "ms"},
            "setup_s": {"value": 2.0, "unit": "s"}}
    assert manifest_problems(tmp_path, False, full) == []
    assert manifest_problems(tmp_path, True, {"import_s": {
        "value": 0.1, "unit": "s"}}) == []
    assert manifest_problems(tmp_path, False, {"op_ms": full["op_ms"]}) == [
        "metric setup_s missing"]
    extra = dict(full, import_s={"value": 0.1, "unit": "s"})
    assert manifest_problems(tmp_path, False, extra) == [
        "metric import_s is not in BENCHMARK.json"]
    wrong = dict(full, op_ms={"value": 1.0, "unit": "s"})
    assert manifest_problems(tmp_path, False, wrong) == [
        "metric op_ms in s, not ms"]


def test_self_time_subtracts_overlapping_children_once():
    spans = [
        {"name": "parent", "id": "1", "parent": None, "start": 0.0, "end": 10.0},
        {"name": "child", "id": "2", "parent": "1", "start": 1.0, "end": 4.0},
        {"name": "child", "id": "3", "parent": "1", "start": 3.0, "end": 6.0},
        {"name": "grandchild", "id": "4", "parent": "2", "start": 2.0,
         "end": 3.0},
    ]
    st = self_times(spans)
    assert st["parent"] == pytest.approx(5.0)
    assert st["child"] == pytest.approx(2.0 + 3.0)
    assert st["grandchild"] == pytest.approx(1.0)
