"""HTTP serving (`repro.serve.api`): real socket round-trips against a
QueryServer running on a background asyncio loop, stdlib client only."""

import asyncio
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.evaluator import ENGINE_VERSION
from repro.serve.api import QueryServer


@pytest.fixture(scope="module")
def server(serve_campaign):
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    srv = QueryServer(serve_campaign)  # port=0: bind a free port
    asyncio.run_coroutine_threadsafe(srv.start(), loop).result(timeout=30)
    yield srv
    asyncio.run_coroutine_threadsafe(srv.stop(), loop).result(timeout=30)
    loop.call_soon_threadsafe(loop.stop)
    thread.join(timeout=30)
    loop.close()


def _request(server, path, body=None, method=None):
    """Return (status, decoded-JSON) for one request, errors included."""
    req = urllib.request.Request(
        f"http://127.0.0.1:{server.port}{path}",
        data=None if body is None else json.dumps(body).encode(),
        headers={} if body is None else {"Content-Type": "application/json"},
        method=method,
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestEndpoints:
    def test_healthz(self, server):
        status, payload = _request(server, "/healthz")
        assert status == 200
        assert payload == {
            "ok": True,
            "campaign": "serve-test",
            "engine_version": ENGINE_VERSION,
        }

    def test_query_get_on_grid_is_store_tier(self, server):
        status, payload = _request(
            server, "/query?algorithm=nhop&rate=0.01"
        )
        assert status == 200
        assert payload["answer"]["tier"] == "store"
        assert payload["answer"]["engine_version"] == ENGINE_VERSION
        assert payload["query"]["metric"] == "latency"

    def test_query_post_body_overrides_query_string(self, server):
        status, payload = _request(
            server,
            "/query?algorithm=nhop&rate=0.01",
            body={"rate": 0.015},
        )
        assert status == 200
        assert payload["query"]["rate"] == 0.015
        assert payload["answer"]["tier"] == "surrogate"

    def test_query_unresolved_is_422_with_refusals(self, server):
        status, payload = _request(
            server, "/query?algorithm=nhop&rate=0.9&metric=throughput"
        )
        assert status == 422
        assert payload["error"] == "unresolved"
        assert set(payload["refusals"]) == {
            "store", "surrogate", "model", "simulation",
        }

    def test_query_missing_rate_is_400(self, server):
        status, payload = _request(server, "/query?algorithm=nhop")
        assert status == 400
        assert "rate" in payload["error"]

    def test_query_bad_metric_is_400(self, server):
        status, payload = _request(
            server, "/query?algorithm=nhop&rate=0.01&metric=flux"
        )
        assert status == 400
        assert "unknown metric" in payload["error"]

    def test_reliability_post(self, server):
        status, payload = _request(
            server,
            "/reliability",
            body={
                "width": 6, "failure_rate": 0.1,
                "trials": 100, "seed": 11,
            },
        )
        assert status == 200
        assert payload["trials"] == 100
        assert 0.0 <= payload["ci_low"] <= payload["p_connected"]
        assert payload["p_connected"] <= payload["ci_high"] <= 1.0
        assert payload["engine_version"] == ENGINE_VERSION

    @pytest.mark.parametrize("body, message", [
        ({"width": 6, "failure_rate": 2.0}, "failure_rate"),
        ({"width": 6, "failure_rate": -0.1}, "failure_rate"),
        ({"width": 6, "failure_rate": "nan"}, "failure_rate"),
        ({"width": 0, "failure_rate": 0.1}, "width"),
        ({"width": 1, "failure_rate": 0.1}, "width"),
        ({"width": 6, "height": -3, "failure_rate": 0.1}, "height"),
        ({"width": 6, "failure_rate": 0.1, "trials": 0}, "trials"),
        ({"width": 6, "failure_rate": 0.1, "trials": -5}, "trials"),
    ])
    def test_reliability_out_of_range_is_400(self, server, body, message):
        status, payload = _request(server, "/reliability", body=body)
        assert status == 400
        assert message in payload["error"]

    def test_reliability_rejects_get(self, server):
        status, payload = _request(
            server, "/reliability?width=6&failure_rate=0.1"
        )
        assert status == 405

    def test_metrics_exposes_serve_counters(self, server):
        # At least the queries above have been counted by now.
        status, snapshot = _request(server, "/metrics")
        assert status == 200
        assert snapshot["serve.queries"]["type"] == "counter"
        assert snapshot["serve.queries"]["value"] >= 1
        assert snapshot["serve.tier.store"]["value"] >= 1
        assert snapshot["serve.latency_us"]["type"] == "histogram"

    def test_unknown_path_is_404(self, server):
        status, payload = _request(server, "/nope")
        assert status == 404
        assert "/nope" in payload["error"]

    def test_malformed_body_is_400(self, server):
        req = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/query",
            data=b"not json",
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=30)
        assert err.value.code == 400


def _request_raw(server, path, body=None, headers=None, method=None):
    """Like ``_request`` but also returns the response headers."""
    extra = dict(headers or {})
    if body is not None:
        extra.setdefault("Content-Type", "application/json")
    req = urllib.request.Request(
        f"http://127.0.0.1:{server.port}{path}",
        data=None if body is None else json.dumps(body).encode(),
        headers=extra,
        method=method,
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read()), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


class TestRequestIds:
    def test_client_request_id_is_echoed(self, server):
        status, payload, headers = _request_raw(
            server, "/query?algorithm=nhop&rate=0.01",
            headers={"x-request-id": "trace-42.a_b"},
        )
        assert status == 200
        assert headers["x-request-id"] == "trace-42.a_b"

    def test_server_assigns_id_when_absent(self, server):
        status, _, headers = _request_raw(server, "/healthz")
        assert status == 200
        assert headers["x-request-id"].startswith("req-")

    def test_invalid_client_id_is_replaced(self, server):
        status, _, headers = _request_raw(
            server, "/healthz",
            headers={"x-request-id": "bad id with spaces!"},
        )
        assert status == 200
        assert headers["x-request-id"].startswith("req-")

    def test_reliability_response_carries_id(self, server):
        status, _, headers = _request_raw(
            server, "/reliability",
            body={"width": 6, "failure_rate": 0.1, "trials": 50},
            headers={"x-request-id": "rel-1"},
        )
        assert status == 200
        assert headers["x-request-id"] == "rel-1"

    def test_error_responses_carry_an_id(self, server):
        status, _, headers = _request_raw(server, "/nope")
        assert status == 404
        assert headers["x-request-id"]


class TestHttpMetrics:
    def test_per_request_counters_visible_in_metrics(self, server):
        status, payload, _ = _request_raw(
            server, "/query?algorithm=nhop&rate=0.01"
        )
        assert status == 200
        tier = payload["answer"]["tier"]
        _, snapshot, _ = _request_raw(server, "/metrics")
        assert snapshot["serve.http.requests"]["value"] >= 2
        assert snapshot["serve.http.status.200"]["value"] >= 1
        assert snapshot["serve.http.latency_us"]["type"] == "histogram"
        assert snapshot[f"serve.http.query.tier.{tier}"]["value"] >= 1

    def test_status_counters_split_by_code(self, server):
        _request_raw(server, "/nope")
        _, snapshot, _ = _request_raw(server, "/metrics")
        assert snapshot["serve.http.status.404"]["value"] >= 1


@pytest.fixture(scope="module")
def sim_server(serve_campaign):
    """A second server with the bounded-simulation fallback enabled."""
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    srv = QueryServer(serve_campaign, simulate=True)
    asyncio.run_coroutine_threadsafe(srv.start(), loop).result(timeout=30)
    yield srv
    asyncio.run_coroutine_threadsafe(srv.stop(), loop).result(timeout=30)
    loop.call_soon_threadsafe(loop.stop)
    thread.join(timeout=30)
    loop.close()


class TestTraces:
    """PR 10 acceptance: a /query that falls through to the bounded-
    simulation tier yields ONE merged trace — HTTP request -> tier
    cascade -> engine run — retrievable by request id."""

    def test_simulation_fallback_produces_one_merged_trace(self, sim_server):
        # n_faults=1 is off the campaign grid (0 and 2 only), so the
        # store/surrogate/model tiers refuse and simulation answers.
        status, payload, _ = _request_raw(
            sim_server,
            "/query?algorithm=nhop&rate=0.01&n_faults=1",
            headers={"x-request-id": "trace-e2e-1"},
        )
        assert status == 200
        assert payload["answer"]["tier"] == "simulation"

        status, trace, _ = _request_raw(
            sim_server, "/trace?request=trace-e2e-1"
        )
        assert status == 200
        assert trace["merge_digest"]
        spans = trace["spans"]
        assert all(s["trace_id"] == trace["trace_id"] for s in spans)
        by_name = {s["name"]: s for s in spans}

        root = by_name["http.request"]
        assert root["parent_id"] is None
        assert root["attrs"]["status"] == 200

        sim_tier = by_name["tier.simulation"]
        assert sim_tier["parent_id"] == root["span_id"]
        assert sim_tier["attrs"]["outcome"] == "answered"
        for tier in ("tier.store", "tier.surrogate", "tier.model"):
            assert by_name[tier]["parent_id"] == root["span_id"]
            assert by_name[tier]["attrs"]["outcome"] == "refused"

        engine = by_name["engine.run"]
        assert engine["parent_id"] == sim_tier["span_id"]
        assert engine["attrs"]["n_runs"] >= 1
        assert engine["attrs"]["cycles"] > 0

    def test_trace_id_is_recomputable_from_request_id(self, sim_server):
        from repro.obs.spans import trace_id_from

        _, trace, _ = _request_raw(sim_server, "/trace?request=trace-e2e-1")
        assert trace["trace_id"] == trace_id_from("serve", "trace-e2e-1")
        _, same, _ = _request_raw(
            sim_server, f"/trace?trace={trace['trace_id']}"
        )
        assert same["spans"] == trace["spans"]

    def test_trace_without_selector_is_400(self, sim_server):
        status, payload, _ = _request_raw(sim_server, "/trace")
        assert status == 400
        assert "request" in payload["error"]

    def test_trace_rejects_post(self, sim_server):
        status, _, _ = _request_raw(
            sim_server, "/trace?request=x", body={}, method="POST"
        )
        assert status == 405

    def test_unknown_request_yields_empty_trace(self, sim_server):
        status, trace, _ = _request_raw(
            sim_server, "/trace?request=never-seen"
        )
        assert status == 200
        assert trace["spans"] == []
