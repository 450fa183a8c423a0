"""The live service layer: config validation, HTTP routing, and one
full in-process boot → poll → sweep → shutdown session."""

import asyncio
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.controlplane.http import (
    MAX_BODY_BYTES,
    MAX_HEADERS,
    _route,
    start_http_server,
)
from repro.controlplane.service import (
    LiveControlPlane,
    ServeConfig,
    SweepManager,
)
from repro.errors import ConfigurationError


class TestServeConfigValidation:
    """Satellite of the RunnerConfig window checks: the serve-mode
    window length (and friends) get named ConfigurationErrors."""

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"window_s": 0.0}, "window_s"),
            ({"window_s": -2.0}, "window_s"),
            ({"window_s": float("nan")}, "window_s"),
            ({"arrival_rate": 0.0}, "arrival_rate"),
            ({"trace_cycle": 0}, "trace_cycle"),
            ({"dilation": 0.0}, "dilation"),
            ({"max_windows": 0}, "max_windows"),
            ({"retrain_every": -1}, "retrain_every"),
            ({"history_limit": 0}, "history_limit"),
            ({"port": 70000}, "port"),
        ],
    )
    def test_named_configuration_errors(self, kwargs, match):
        with pytest.raises(ConfigurationError, match=match):
            ServeConfig(**kwargs)

    def test_defaults_are_valid(self):
        cfg = ServeConfig()
        assert cfg.scenario == "fanout-feed"
        assert cfg.policy == "PCS"


class _StubPlane:
    """The duck-typed surface the router needs, without a simulation."""

    def __init__(self):
        self.sweeps = SweepManager()
        self.shutdowns = 0

    def status_payload(self):
        return {"status": "running"}

    def metrics_text(self):
        return "pcs_up 1\n"

    def request_shutdown(self):
        self.shutdowns += 1


def _parse(raw: bytes):
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, body


class TestRouting:
    def setup_method(self):
        self.plane = _StubPlane()

    def _req(self, method, path, body=b""):
        return _parse(_route(self.plane, method, path, body))

    def test_status(self):
        status, body = self._req("GET", "/status")
        assert status == 200
        assert json.loads(body) == {"status": "running"}

    def test_metrics(self):
        status, body = self._req("GET", "/metrics")
        assert status == 200
        assert b"pcs_up 1" in body

    def test_scenarios_catalog(self):
        status, body = self._req("GET", "/scenarios")
        assert status == 200
        names = [s["name"] for s in json.loads(body)["scenarios"]]
        assert "fanout-feed" in names and "nutch-search" in names

    def test_unknown_route_404(self):
        status, body = self._req("GET", "/nope")
        assert status == 404
        assert b"/status" in body  # the error lists the routes

    def test_wrong_method_405(self):
        assert self._req("POST", "/status")[0] == 405
        assert self._req("GET", "/shutdown")[0] == 405

    def test_shutdown_flips_event(self):
        status, _ = self._req("POST", "/shutdown")
        assert status == 200
        assert self.plane.shutdowns == 1

    def test_sweep_bad_json_400(self):
        status, body = self._req("POST", "/sweeps", b"{nope")
        assert status == 400
        assert b"JSON" in body

    def test_sweep_unknown_key_400(self):
        status, body = self._req(
            "POST", "/sweeps", json.dumps({"bogus": 1}).encode()
        )
        assert status == 400
        assert b"bogus" in body

    def test_sweep_unknown_backend_400_names_known_ones(self):
        status, body = self._req(
            "POST", "/sweeps", json.dumps({"backend": "thread"}).encode()
        )
        assert status == 400
        message = json.loads(body)["error"]
        for name in ("thread", "serial", "process", "distributed"):
            assert name in message
        assert self.plane.sweeps.summary() == []

    def test_sweep_unknown_id_404(self):
        assert self._req("POST", "/sweeps/sweep-99/stop")[0] == 404

    def test_sweeps_listing_empty(self):
        status, body = self._req("GET", "/sweeps")
        assert status == 200
        assert json.loads(body) == {"sweeps": []}


def _raw_exchange(plane, request: bytes) -> bytes:
    """Send ``request`` verbatim to a freshly bound server and return
    everything it answers before closing the connection."""

    async def exchange():
        server = await start_http_server(plane, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(request)
            await writer.drain()
            response = await asyncio.wait_for(reader.read(), timeout=10)
            writer.close()
            await writer.wait_closed()
            return response
        finally:
            server.close()
            await server.wait_closed()

    return asyncio.run(exchange())


class TestRawRequests:
    """The request parser over a real socket: malformed headers get a
    JSON error with the right status, never a silently closed socket."""

    def _post(self, length: str, body: bytes = b""):
        request = (
            f"POST /policy HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {length}\r\n\r\n"
        ).encode("latin-1") + body
        return _parse(_raw_exchange(_StubPlane(), request))

    def test_well_formed_request_is_served(self):
        request = b"GET /status HTTP/1.1\r\nHost: x\r\n\r\n"
        status, body = _parse(_raw_exchange(_StubPlane(), request))
        assert status == 200
        assert json.loads(body) == {"status": "running"}

    @pytest.mark.parametrize("length", ["abc", "1.5", "0x10"])
    def test_non_integer_content_length_400(self, length):
        status, body = self._post(length)
        assert status == 400
        assert b"Content-Length" in body

    def test_negative_content_length_400(self):
        status, body = self._post("-5", b"12345")
        assert status == 400
        assert b"Content-Length" in body

    def test_oversized_body_413(self):
        status, body = self._post(str(MAX_BODY_BYTES + 1))
        assert status == 413
        assert b"too large" in body

    def test_malformed_request_line_400(self):
        status, _ = _parse(_raw_exchange(_StubPlane(), b"GARBAGE\r\n\r\n"))
        assert status == 400

    @staticmethod
    def _get_with_headers(headers: bytes):
        request = b"GET /status HTTP/1.1\r\n" + headers + b"\r\n"
        return _parse(_raw_exchange(_StubPlane(), request))

    def test_overlong_header_line_431(self):
        # Past asyncio's 64 KiB StreamReader limit, readline raises
        # ValueError; the client still gets a named answer.
        status, body = self._get_with_headers(
            b"X-Long: " + b"a" * (70 * 1024) + b"\r\n"
        )
        assert status == 431
        assert b"too long" in body

    def test_too_many_headers_431(self):
        status, body = self._get_with_headers(
            b"".join(b"X-H%d: v\r\n" % i for i in range(MAX_HEADERS + 1))
        )
        assert status == 431
        assert str(MAX_HEADERS).encode() in body

    def test_header_count_at_limit_is_served(self):
        status, _ = self._get_with_headers(
            b"".join(b"X-H%d: v\r\n" % i for i in range(MAX_HEADERS))
        )
        assert status == 200


class TestSweepManager:
    def test_runs_a_grid_to_done(self):
        manager = SweepManager()
        job = manager.start({
            "scenario": "fanout-feed",
            "policies": ["Basic"],
            "rates": [20.0],
            "seeds": [0],
            "intervals": 2,
            "warmup_intervals": 0,
            "window_s": 4.0,
            "scale": 0.2,
            "n_nodes": 6,
        })
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            state = manager.get(job["id"])
            if state["status"] != "running":
                break
            time.sleep(0.1)
        assert state["status"] == "done"
        assert state["done"] == state["total"] == 1
        assert len(state["results"]) == 1
        assert "Basic" in state["results"][0]

    def test_distributed_without_spool_rejected(self):
        with pytest.raises(ConfigurationError, match="spool"):
            SweepManager().start({"backend": "distributed"})

    def test_stop_unknown_job(self):
        with pytest.raises(KeyError):
            SweepManager().stop("sweep-1")

    def test_failure_is_surfaced_not_raised(self):
        manager = SweepManager()
        # 2 nodes cannot host the full Nutch topology -> CapacityError
        # inside the sweep, reported on the job, never thrown at HTTP.
        job = manager.start({
            "scenario": "nutch-search",
            "policies": ["Basic"],
            "rates": [20.0],
            "intervals": 2,
            "warmup_intervals": 0,
            "n_nodes": 2,
        })
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            state = manager.get(job["id"])
            if state["status"] != "running":
                break
            time.sleep(0.1)
        assert state["status"] == "failed"
        assert "error" in state


class TestLiveSession:
    """One real session on an ephemeral port: boot, poll /status and
    /metrics until the loop decides, then a clean shutdown."""

    CONFIG = ServeConfig(
        scenario="fanout-feed", policy="PCS", arrival_rate=25.0,
        window_s=4.0, seed=0, trace_profile="burst", trace_cycle=4,
        port=0, dilation=400.0, n_profiling_conditions=6, scale=0.2,
        n_nodes=6,
    )

    def _boot(self):
        plane = LiveControlPlane(self.CONFIG)
        thread = threading.Thread(
            target=lambda: asyncio.run(plane.run()), daemon=True
        )
        thread.start()
        assert plane.ready.wait(30), "HTTP surface never bound"
        return plane, thread

    def _get(self, plane, path):
        url = f"http://127.0.0.1:{plane.bound_port}{path}"
        with urllib.request.urlopen(url, timeout=10) as resp:
            return resp.read().decode()

    def _post(self, plane, path):
        url = f"http://127.0.0.1:{plane.bound_port}{path}"
        req = urllib.request.Request(url, data=b"", method="POST")
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.read().decode()

    def test_boot_poll_decide_shutdown(self):
        plane, thread = self._boot()
        try:
            deadline = time.monotonic() + 90
            status = {}
            while time.monotonic() < deadline:
                status = json.loads(self._get(plane, "/status"))
                if status.get("loop", {}).get("n_decisions", 0) >= 1:
                    break
                time.sleep(0.25)
            assert status["status"] == "running"
            assert status["loop"]["n_decisions"] >= 1
            assert status["loop"]["n_requests"] > 0
            metrics = self._get(plane, "/metrics")
            assert "pcs_window_p99_seconds" in metrics
            assert "pcs_decisions_total" in metrics
        finally:
            self._post(plane, "/shutdown")
            thread.join(30)
        assert not thread.is_alive()
        assert plane.status in ("stopped", "drained")
