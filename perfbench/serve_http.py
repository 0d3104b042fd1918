"""Workload ``serve_http``: ``/query`` over HTTP under an open-loop load.

The server is ``python -m repro.serve api`` in a subprocess over a small
campaign built at set-up (6x6 mesh, 4-flit messages, two algorithms,
three grid rates).  The engine does no work while serving: transport,
the single resolver thread and head-of-line blocking behind
``/reliability`` do all of it.

Load is an open loop of independent users: arrival times are drawn from
the seed (exponential gaps) at a fixed offered rate, and each request is
timed from when it was due, so a stall shows in the latency of every
request queued behind it.  At most ``CLIENTS`` connections are in flight
(the host has two cores).  The mix is store-, surrogate- and model-tier
``/query`` requests in equal shares plus a periodic heavy ``POST
/reliability`` on a 10x10 mesh.  A closed loop follows: ``CLIENTS``
connections each send the next query as soon as the last one was
answered, and the completions per second give the capacity,
``work_per_s``.

The offered rate, the tier mix and the ``/reliability`` cadence are
assumptions (the repository documents no serving traffic); README.md
says so and why.  The ``/reliability`` request uses the server's
default of 1000 trials.

Every answer (tier and value) must equal in-process
``Resolver.resolve`` on the same campaign, and every ``/reliability``
body must equal in-process ``reliability.estimate``.
"""

from __future__ import annotations

import json
import random
import re
import socket
import statistics
import subprocess
import threading
import time
from pathlib import Path
from urllib.parse import urlencode

clock = time.perf_counter

ALGORITHMS = ("nhop", "duato-nbc")
GRID_RATES = (0.005, 0.01, 0.02)
TIERS = ("store", "surrogate", "model")
CLIENTS = 2
SETUPS = 5
# Assumed traffic, not measured from users (see README.md): at 200
# queries/s the resolver thread is mostly idle (a resolve takes 10-150 us).
FIXED_RATE = 200.0
FIXED_MIN_QUERIES = 2400  # a p99 with 24 samples beyond it
# The server's default trial count: 60-90 ms on the reference host, so
# one every 0.5 s holds the resolver thread 12-18% of the time.
RELIABILITY = {"width": 10, "failure_rate": 0.05, "trials": 1000}
RELIABILITY_EVERY_S = 0.5
# Closed loop: bursts of queries back to back; the median burst's
# completions per second is the capacity.
CAPACITY_BURSTS = 10
CAPACITY_BURST = 500
# Traced run: a query-only window whose server-side spans are read back.
WINDOW_QUERIES = 400
OVERHEAD_PAIRS = 5
REQUEST_TIMEOUT_S = 10.0
RESOLVE_PASSES = 100


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def campaign_spec(seed: int):
    from repro.campaigns.spec import CampaignSpec
    from repro.simulator.config import SimConfig

    cseed = random.Random(f"{seed}/campaign").getrandbits(31)
    return CampaignSpec(
        name="bench-serve",
        algorithms=ALGORITHMS,
        config=SimConfig(width=6, vcs_per_channel=24, message_length=4,
                         cycles=300, warmup=100, seed=cseed,
                         on_deadlock="drain"),
        rates=GRID_RATES,
        repeats=2,
        seed=cseed,
    )


def queries() -> list[tuple[str, float, str]]:
    """(algorithm, rate, expected tier) for every distinct query."""
    mids = [(a + b) / 2 for a, b in zip(GRID_RATES, GRID_RATES[1:])]
    out = []
    for alg in ALGORITHMS:
        out += [(alg, r, "store") for r in GRID_RATES]
        out += [(alg, r, "surrogate") for r in mids]
        out.append((alg, GRID_RATES[0] / 2, "model"))
    return out


def reliability_bodies(seed: int) -> list[dict]:
    rng = random.Random(f"{seed}/reliability")
    return [dict(RELIABILITY, seed=rng.getrandbits(16)) for _ in range(3)]


def pick_query(rng: random.Random, inputs) -> int:
    """An input index: the tier uniformly, then a query of that tier."""
    tier = TIERS[rng.randrange(len(TIERS))]
    return rng.choice([i for i, q in enumerate(inputs) if q[2] == tier])


def schedule(seed: int, tag: str, rate: float | None, n_queries: int,
             inputs, reliability_every: float | None = None,
             n_bodies: int = 0) -> list[tuple[float, str, int]]:
    """Seed-drawn arrivals: (due offset, kind, input index).

    Exactly *n_queries* queries with exponential gaps at *rate*, or all
    due at once when *rate* is None (a closed loop); a ``/reliability``
    request every *reliability_every* seconds while queries arrive.
    """
    rng = random.Random(f"{seed}/{tag}")
    events = []
    t = 0.0
    for _ in range(n_queries):
        if rate is not None:
            t += rng.expovariate(rate)
        events.append((t, "query", pick_query(rng, inputs)))
    if reliability_every:
        k = 0
        due = reliability_every / 2
        while due < t:
            events.append((due, "reliability", k % n_bodies))
            k += 1
            due += reliability_every
    events.sort()
    return events


def segments(events, n: int) -> list[list[tuple[float, str, int]]]:
    """*events* cut into *n* spans of equal duration, each re-based to 0."""
    end = events[-1][0]
    out: list[list[tuple[float, str, int]]] = [[] for _ in range(n)]
    for due, kind, index in events:
        k = min(int(n * due / end), n - 1)
        out[k].append((due - k * end / n, kind, index))
    return out


# ----------------------------------------------------------------------
# HTTP
# ----------------------------------------------------------------------
def http(port: int, method: str, path: str, body: dict | None = None,
         timeout: float = REQUEST_TIMEOUT_S,
         request_id: str | None = None) -> tuple[int, bytes]:
    """One request on a fresh connection (the server closes after each)."""
    data = json.dumps(body).encode() if body is not None else b""
    rid = f"x-request-id: {request_id}\r\n" if request_id else ""
    head = (f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n{rid}"
            f"Content-Length: {len(data)}\r\nConnection: close\r\n\r\n")
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
        s.sendall(head.encode("ascii") + data)
        chunks = []
        while True:
            chunk = s.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks)
    status_line, _, rest = raw.partition(b"\r\n")
    _, _, payload = rest.partition(b"\r\n\r\n")
    return int(status_line.split()[1]), payload


def query_path(alg: str, rate: float) -> str:
    return "/query?" + urlencode({"algorithm": alg, "rate": repr(rate)})


def drive(port: int, events, inputs, bodies, tracer=None,
          id_prefix: str | None = None) -> list[dict]:
    """Send *events* on schedule from ``CLIENTS`` threads; one record each.

    A record holds the due, sent and done times (seconds from the start),
    the kind and the checked outcome.  Latency is ``done - due``.  With
    *id_prefix*, event *i* carries ``x-request-id: <id_prefix><i>``.
    """
    records: list[dict | None] = [None] * len(events)
    lock = threading.Lock()
    cursor = [0]
    t0 = clock() + 0.05

    def worker() -> None:
        while True:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if i >= len(events):
                return
            due, kind, index = events[i]
            delay = t0 + due - clock()
            if delay > 0:
                time.sleep(delay)
            rid = f"{id_prefix}{i}" if id_prefix is not None else None
            sent = clock() - t0
            try:
                if tracer is not None:
                    with tracer.span(f"client.{kind}"):
                        status, payload = _send(port, kind, index, inputs,
                                                bodies, rid)
                else:
                    status, payload = _send(port, kind, index, inputs, bodies,
                                            rid)
                error = None
            except (OSError, ValueError, IndexError) as exc:
                # Refused, timed out, or not an HTTP response at all.
                status, payload, error = 0, b"", f"{type(exc).__name__}: {exc}"
            records[i] = {
                "due": due, "sent": sent, "done": clock() - t0, "kind": kind,
                "index": index, "status": status, "payload": payload,
                "error": error,
            }

    threads = [threading.Thread(target=worker) for _ in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return records


def _send(port, kind, index, inputs, bodies, request_id=None):
    if kind == "query":
        alg, rate, _ = inputs[index]
        return http(port, "GET", query_path(alg, rate), request_id=request_id)
    return http(port, "POST", "/reliability", bodies[index],
                request_id=request_id)


def check(run, records, expected_answers, expected_reliability) -> None:
    """One operation per request: status 200 and the in-process answer."""
    for r in records:
        if r["error"] is not None or r["status"] != 200:
            run.op(False, f"{r['kind']} -> {r['status']} {r['error'] or ''}")
            continue
        try:
            payload = json.loads(r["payload"])
        except ValueError:
            run.op(False, f"{r['kind']}: body is not JSON")
            continue
        if r["kind"] == "query":
            ok = payload.get("answer") == expected_answers[r["index"]]
        else:
            ok = payload == expected_reliability[r["index"]]
        run.op(ok, f"{r['kind']} #{r['index']}: differs from in-process")


# ----------------------------------------------------------------------
# Server lifecycle
# ----------------------------------------------------------------------
def start_server(run, env, campaign_dir: Path) -> tuple[subprocess.Popen, int]:
    from perfbench.common import python, stop_process

    proc = subprocess.Popen(
        [python(), "-m", "repro.serve", "api", str(campaign_dir),
         "--port", "0"],
        cwd=run.root, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    # The server announces "serving campaign ... on http://host:port".
    first: list[str] = []
    reader = threading.Thread(
        target=lambda: first.append(proc.stderr.readline()), daemon=True
    )
    reader.start()
    reader.join(30)
    line = first[0] if first else ""
    match = re.search(r":(\d+)\s*$", line)
    if match is None:
        stop_process(proc)
        raise RuntimeError(f"server did not start: {line!r}")
    # Keep stderr drained so a chatty server can never block on it.
    threading.Thread(target=proc.stderr.read, daemon=True).start()
    port = int(match.group(1))
    deadline = clock() + 30
    while True:
        try:
            if http(port, "GET", "/healthz", timeout=2)[0] == 200:
                return proc, port
        except OSError:
            pass
        if clock() > deadline:
            stop_process(proc)
            raise RuntimeError("server never became healthy")
        time.sleep(0.01)


def setup_once(run, env, k: int, tracer=None):
    """Build the campaign, start the server, warm each tier; timed parts."""
    from contextlib import nullcontext

    from repro.campaigns.db import CampaignDB
    from repro.campaigns.shard import run_campaign

    def span(name):
        return tracer.span(name) if tracer is not None else nullcontext()

    t0 = clock()
    with span("campaigns.build"):
        db = CampaignDB(campaign_spec(run.seed), run.tmpdir(f"campaign-{k}"))
        db.save()
        run_campaign(db)
    t1 = clock()
    with span("serve.startup"):
        proc, port = start_server(run, env, db.root)
    t2 = clock()
    inputs = queries()
    for tier in ("store", "surrogate", "model"):
        alg, rate, _ = next(q for q in inputs if q[2] == tier)
        status, payload = http(port, "GET", query_path(alg, rate))
        ok = status == 200 and json.loads(payload)["answer"]["tier"] == tier
        run.op(ok, f"set-up {tier} query -> {status}")
    t3 = clock()
    return {"db": db, "proc": proc, "port": port, "build_s": t1 - t0,
            "startup_s": t2 - t1, "total_s": t3 - t0}


def expected(db, seed: int):
    """In-process answers for every distinct input (the oracle)."""
    from repro.serve import reliability
    from repro.serve.resolver import Query, Resolver

    resolver = Resolver(db)
    answers = []
    for alg, rate, tier in queries():
        answer = resolver.resolve(Query(alg, rate))
        if answer.tier != tier:
            raise RuntimeError(f"{alg}@{rate} resolved from {answer.tier}")
        answers.append(json.loads(json.dumps(answer.to_dict())))
    bodies = reliability_bodies(seed)
    estimates = [
        json.loads(json.dumps(reliability.estimate(
            b["width"], failure_rate=b["failure_rate"], trials=b["trials"],
            seed=b["seed"]).to_dict()))
        for b in bodies
    ]
    return resolver, answers, bodies, estimates


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def latencies_ms(records, kind: str) -> list[float]:
    return [1000 * (r["done"] - r["due"]) for r in records if r["kind"] == kind]


def hol_blocked_share(records) -> float:
    """Share of queries in flight while a ``/reliability`` request was.

    Records of different segments (``drive`` calls) never overlap.
    """
    blocked = 0
    for seg in {r.get("segment") for r in records}:
        part = [r for r in records if r.get("segment") == seg]
        rel = [(r["sent"], r["done"]) for r in part
               if r["kind"] == "reliability"]
        blocked += sum(
            1 for r in part if r["kind"] == "query"
            and any(r["due"] < d and s < r["done"] for s, d in rel)
        )
    queries = sum(1 for r in records if r["kind"] == "query")
    return blocked / queries if queries else 0.0


def burst_wall_s(records) -> float:
    return max(r["done"] for r in records) - min(r["sent"] for r in records)


def capacity_rps(records) -> float:
    """Completions per second of one closed-loop burst."""
    return len(records) / burst_wall_s(records)


def server_p50_us(before: dict, after: dict) -> float:
    """Median of the server's own latency histogram over one phase.

    Bucket counts are differenced, then the median is interpolated
    linearly inside its bucket (``/metrics`` keeps no raw samples).  The
    buckets are about 3x wide (100, 300, 1000, 3000 us), so a change
    that stays inside one bucket moves this figure only through the
    bucket counts; ``serve.transport_us`` uses the per-request spans.
    """
    b = before["serve.http.latency_us"]
    a = after["serve.http.latency_us"]
    counts = [x - y for x, y in zip(a["counts"], b["counts"])]
    bounds = [0] + a["bounds"]
    half = sum(counts) / 2
    seen = 0
    for i, c in enumerate(counts):
        if c and seen + c >= half:
            lo, hi = bounds[i], bounds[min(i + 1, len(bounds) - 1)]
            return lo + (hi - lo) * (half - seen) / c
        seen += c
    return float("nan")


def metrics_snapshot(port: int) -> dict:
    status, payload = http(port, "GET", "/metrics")
    if status != 200:
        raise RuntimeError(f"/metrics -> {status}")
    return json.loads(payload)


def server_span_us(run, port: int, request_id: str) -> float | None:
    """Duration of the server's ``http.request`` span for one request."""
    status, payload = http(port, "GET", "/trace?" + urlencode(
        {"request": request_id}))
    spans = [sp for sp in json.loads(payload).get("spans", [])
             if sp["name"] == "http.request"] if status == 200 else []
    if not run.op(len(spans) == 1,
                  f"/trace {request_id}: {status}, {len(spans)} spans"):
        return None
    return 1e6 * (spans[0]["end"] - spans[0]["start"])


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def main(run) -> None:
    from perfbench import engine_probe
    from perfbench.common import (
        child_env, median, percentile, stop_process, vm_hwm_mb,
    )
    from perfbench.tracing import Tracer

    env = child_env(run.root, run.tmpdir("child-tmp"))
    tracer = None
    if run.trace:
        run.speed.sample()
        tracer = Tracer(run.run_id, run.out_dir)
        engine_probe.install(tracer)
    setups, procs = [], []
    try:
        try:
            for k in range(SETUPS):
                s = setup_once(run, env, k, tracer)
                procs.append(s["proc"])
                setups.append(s)
                if k < SETUPS - 1:
                    stop_process(s["proc"])
        finally:
            if tracer is not None:
                tracer.restore()
        live = setups[-1]
        port = live["port"]
        resolver, answers, bodies, estimates = expected(live["db"], run.seed)
        inputs = queries()

        def burst(tag, traced=False):
            events = schedule(run.seed, tag, None, CAPACITY_BURST, inputs)
            records = drive(port, events, inputs, bodies,
                            tracer if traced else None)
            check(run, records, answers, estimates)
            return records

        # The fixed-rate phase, in segments with a closed-loop burst after
        # each, so both sample the host across the whole run.
        n_fixed = max(FIXED_MIN_QUERIES, int(0.6 * run.seconds * FIXED_RATE))
        events = schedule(run.seed, "fixed", FIXED_RATE, n_fixed, inputs,
                          RELIABILITY_EVERY_S, len(bodies))
        records, rates = [], []
        for k, segment in enumerate(segments(events, CAPACITY_BURSTS)):
            part = drive(port, segment, inputs, bodies)
            for r in part:
                r["segment"] = k
            records += part
            rates.append(capacity_rps(burst(f"capacity{k}")))
        check(run, records, answers, estimates)
        q_lat = latencies_ms(records, "query")
        run.notes["query_ms_deciles"] = statistics.quantiles(q_lat, n=10)
        run.notes["capacity_rps"] = rates
        if not run.trace:
            run.metric("setup_s", median([s["total_s"] for s in setups]), "s",
                       samples=SETUPS)
            run.metric("op_ms", percentile(q_lat, 50), "ms",
                       samples=len(q_lat))
            run.metric("work_per_s", median(rates), "1/s",
                       samples=len(rates))
            run.metric("peak_rss_mb", vm_hwm_mb(live["proc"].pid), "MB")
            run.detail("query_p99_ms", percentile(q_lat, 99), "ms",
                       samples=len(q_lat))
            r_lat = latencies_ms(records, "reliability")
            run.detail("reliability_p50_ms", percentile(r_lat, 50), "ms",
                       samples=len(r_lat))
            return
        # A query-only window: /metrics around it counts /query alone,
        # and each request's server span is read back by its id.
        window = schedule(run.seed, "window", FIXED_RATE, WINDOW_QUERIES,
                          inputs)
        before = metrics_snapshot(port)
        w_records = drive(port, window, inputs, bodies, id_prefix="pb-")
        after = metrics_snapshot(port)
        check(run, w_records, answers, estimates)
        server_us = [server_span_us(run, port, f"pb-{i}")
                     for i in range(len(w_records))]
        # Tracing overhead: the same closed-loop burst, alternately
        # untraced and traced (client spans; the server is not traced).
        walls = {False: [], True: []}
        for k in range(OVERHEAD_PAIRS):
            for traced in (False, True):
                walls[traced].append(burst_wall_s(burst(f"overhead{k}",
                                                        traced)))
    finally:
        for proc in procs:
            stop_process(proc)
    per_layer(run, tracer, setups, resolver, records, w_records, server_us,
              before, after, bodies, walls)


def per_layer(run, tracer, setups, resolver, records, w_records, server_us,
              before, after, bodies, walls) -> None:
    from perfbench import engine_probe
    from perfbench.common import child_env, import_seconds, median, percentile
    from perfbench.tracing import self_times
    from repro.serve import reliability
    from repro.serve.resolver import Query

    resolve_us: dict[str, list[float]] = {}
    inputs = queries()
    for _ in range(RESOLVE_PASSES):
        for alg, rate, tier in inputs:
            with tracer.span("serve.resolve", tier=tier) as span:
                resolver.resolve(Query(alg, rate))
            resolve_us.setdefault(tier, []).append(
                1e6 * (span["end"] - span["start"]))
    rel_s = []
    b = bodies[0]
    for _ in range(3):
        with tracer.span("serve.reliability.estimate") as span:
            reliability.estimate(b["width"], failure_rate=b["failure_rate"],
                                 trials=b["trials"], seed=b["seed"])
        rel_s.append(span["end"] - span["start"])
    spans = list(tracer.spans)
    run.notes["self_s"] = self_times(spans)
    tracer.flush()
    engine_probe.report(run, spans, sum(s["build_s"] for s in setups))
    env = child_env(run.root, run.tmpdir("child-tmp"))
    run.metric("import_s", import_seconds(run, env, "repro.serve.api"), "s")
    run.metric("trace_overhead_ratio",
               median(walls[True]) / median(walls[False]), "ratio",
               samples=OVERHEAD_PAIRS)
    run.speed.sample()
    run.metric("host.ref_ms", run.speed.kernel_ms(), "ms")

    client_us = [1e6 * (r["done"] - r["sent"]) for r in w_records]
    server_us = [x for x in server_us if x is not None]
    late = [1000 * (r["sent"] - r["due"]) for r in records]
    d = run.detail
    for tier, values in resolve_us.items():
        d(f"serve.resolve_us.{tier}", median(values), "us",
          samples=len(values))
    d("serve.http_us.p50", server_p50_us(before, after), "us",
      samples=len(w_records))
    run.notes["window_p50_us"] = {"client": percentile(client_us, 50),
                                  "server_span": percentile(server_us, 50)}
    d("serve.transport_us",
      percentile(client_us, 50) - percentile(server_us, 50), "us",
      samples=len(server_us))
    d("serve.reliability_s", median(rel_s), "s", samples=len(rel_s))
    d("serve.hol_blocked_share", hol_blocked_share(records), "ratio")
    d("serve.startup_s", median([s["startup_s"] for s in setups]), "s",
      samples=len(setups))
    d("campaigns.build_s", median([s["build_s"] for s in setups]), "s",
      samples=len(setups))
    d("generator.late_ms.p99", percentile(late, 99), "ms", samples=len(late))
