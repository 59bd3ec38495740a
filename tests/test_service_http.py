"""Over-the-wire tests for the wrangling service (ISSUE 6 tentpole).

Boots a real :class:`~repro.service.server.WranglingServer` on an ephemeral
port inside a background thread, then drives it three ways — the typed
:class:`~repro.service.client.ServiceClient`, raw HTTP edge cases (bad
routes, bad payloads, wrong methods), and the ``python -m repro.service``
CLI invoked in-process — so every front end exercises the same wire format
the docs promise.
"""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

from repro.service.api import (
    EvaluateRequest,
    ExplainRequest,
    JobStatus,
    RunRequest,
    SimulateRequest,
)
from repro.service.cli import main as cli_main
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import RateLimiter
from repro.service.server import WranglingServer
from repro.service.session import SessionStore

#: Small enough for fast rounds, big enough for real matches/repairs.
TINY = {"entities": 40, "sources": 2, "noise": 0.1, "missing": 0.05, "seed": 5}


class ServerHarness:
    """A WranglingServer on port 0, running in its own event-loop thread."""

    def __init__(self, store: SessionStore, *,
                 rate_limiter: RateLimiter | None = None):
        self.server = WranglingServer(store, port=0, rate_limiter=rate_limiter)
        self.address: tuple[str, int] | None = None
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._shutdown: asyncio.Event | None = None
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()), daemon=True)

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        await self.server.start()
        self.address = self.server.address
        self._ready.set()
        await self._shutdown.wait()
        await self.server.stop()

    def start(self) -> str:
        self._thread.start()
        assert self._ready.wait(timeout=15), "server failed to start"
        host, port = self.address
        return f"http://{host}:{port}"

    def stop(self) -> None:
        assert self._loop is not None and self._shutdown is not None
        self._loop.call_soon_threadsafe(self._shutdown.set)
        self._thread.join(timeout=15)


@pytest.fixture(scope="module")
def service_url(tmp_path_factory):
    store = SessionStore(str(tmp_path_factory.mktemp("checkpoints")))
    harness = ServerHarness(store)
    yield harness.start()
    harness.stop()


@pytest.fixture(scope="module")
def client(service_url):
    return ServiceClient(service_url)


@pytest.fixture(scope="module")
def live_session(client):
    """One bootstrapped session shared by the read-mostly tests."""
    info = client.create_session(dict(TINY), name="http-shared")
    metrics = client.perform(info["session_id"], RunRequest(phase="bootstrap"))
    assert metrics["phase"] == "bootstrap"
    return info["session_id"]


class TestClientRoundTrips:
    def test_health(self, client):
        payload = client.health()
        assert payload["status"] == "ok"
        assert payload["sessions"] >= 0

    def test_create_run_and_info(self, client, live_session):
        info = client.session(live_session)
        assert info["session_id"] == live_session
        assert info["name"] == "http-shared"
        assert info["last_phase"] == "bootstrap"
        assert info["rows"] > 0
        assert any(s["session_id"] == live_session for s in client.sessions())

    def test_result_rows_respects_limit(self, client, live_session):
        payload = client.result(live_session, limit=3)
        assert len(payload["rows"]) == 3
        assert payload["total"] >= 3
        row = payload["rows"][0]
        assert set(row) == {"row_key", "values"}

    def test_feedback_round_over_the_wire(self, client, live_session):
        before = client.session(live_session)["requests_served"]
        metrics = client.perform(
            live_session, SimulateRequest(budget=5, strategy="random"))
        assert metrics["phase"].startswith("feedback")
        assert metrics["session_id"] == live_session
        assert client.session(live_session)["requests_served"] == before + 1

    def test_evaluate_and_explain(self, client, live_session):
        quality = client.perform(live_session, EvaluateRequest())
        assert 0.0 <= quality["overall"] <= 1.0
        row_key = client.result(live_session, limit=1)["rows"][0]["row_key"]
        explained = client.perform(live_session, ExplainRequest(row=row_key))
        assert explained["tree"]["kind"]
        assert explained["text"]

    def test_job_records_are_pollable(self, client, live_session):
        record = client.submit(live_session, EvaluateRequest())
        finished = client.wait(record.job_id, timeout=120)
        assert finished.status == JobStatus.DONE
        assert finished.session_id == live_session
        assert any(job.job_id == record.job_id
                   for job in client.jobs(live_session))

    def test_checkpoint_then_restore_is_identical(self, client):
        info = client.create_session(dict(TINY, seed=11), name="http-restore")
        sid = info["session_id"]
        client.perform(sid, RunRequest(phase="bootstrap"))
        client.perform(sid, SimulateRequest(budget=4))
        saved = client.checkpoint(sid)
        assert saved["bytes"] > 0 and saved["sha256"]
        frozen = client.result(sid)

        # Mutate past the checkpoint, then rewind.
        client.perform(sid, SimulateRequest(budget=4))
        restored = client.restore(sid)
        assert restored["session_id"] == sid
        assert client.result(sid) == frozen
        client.drop(sid)

    def test_drop_removes_session(self, client):
        sid = client.create_session(dict(TINY, entities=20))["session_id"]
        client.drop(sid)
        with pytest.raises(ServiceError) as excinfo:
            client.session(sid)
        assert excinfo.value.status == 404


class TestWireEdgeCases:
    def test_unknown_session_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.session("no-such-session")
        assert excinfo.value.status == 404

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_wrong_method_is_405(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("PUT", "/health")
        assert excinfo.value.status == 405

    def test_unknown_config_field_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.create_session(dict(TINY), config={"bogus_knob": 1})
        assert excinfo.value.status == 400
        assert "bogus_knob" in str(excinfo.value)

    def test_unknown_request_kind_is_400(self, client, live_session):
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", f"/sessions/{live_session}/jobs",
                            {"kind": "frobnicate", "request": {}})
        assert excinfo.value.status == 400

    def test_invalid_json_body_is_400(self, service_url):
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            service_url + "/sessions", data=b"{not json",
            method="POST", headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        with excinfo.value as error:  # the error is the open response
            assert error.code == 400

    def test_malformed_content_length_is_400(self, service_url, client):
        import socket
        from urllib.parse import urlsplit

        address = urlsplit(service_url)
        for declared in ("abc", "-5"):
            request = (
                f"POST /sessions HTTP/1.1\r\nHost: {address.netloc}\r\n"
                f"Content-Length: {declared}\r\n\r\n"
            )
            with socket.create_connection((address.hostname, address.port), timeout=30) as sock:
                sock.sendall(request.encode("latin-1"))
                with sock.makefile("rb") as reply:
                    status_line = reply.readline().decode("latin-1")
                    assert status_line.split()[1:2] == ["400"], (declared, status_line)
                    headers = {}
                    for line in iter(reply.readline, b"\r\n"):
                        name, _, value = line.decode("latin-1").partition(":")
                        headers[name.strip().lower()] = value.strip()
                    body = json.loads(reply.read(int(headers["content-length"])))
            assert "Content-Length" in body["error"]
        # The server survived both: a fresh connection is still served.
        assert client.health()["status"] == "ok"

    def test_rate_limited_tenant_gets_429(self, tmp_path):
        store = SessionStore(str(tmp_path))
        # One token, effectively never refilled: the second submission trips.
        harness = ServerHarness(
            store, rate_limiter=RateLimiter(rate=0.000_1, burst=1))
        url = harness.start()
        try:
            limited = ServiceClient(url, tenant="limited")
            sid = limited.create_session(dict(TINY, entities=20))["session_id"]
            limited.submit(sid, EvaluateRequest())
            with pytest.raises(ServiceError) as excinfo:
                limited.submit(sid, EvaluateRequest())
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after > 0
            # Buckets are per tenant: another tenant is not starved.
            other = ServiceClient(url, tenant="other")
            assert other.submit(sid, EvaluateRequest()).job_id
        finally:
            harness.stop()


class TestCliAgainstLiveServer:
    """``python -m repro.service`` commands, invoked in-process."""

    def _run(self, capsys, *argv: str):
        assert cli_main(list(argv)) == 0
        return capsys.readouterr().out

    def test_status_create_run_feedback_flow(self, service_url, capsys):
        out = self._run(capsys, "status", "--url", service_url)
        assert json.loads(out)["health"]["status"] == "ok"

        out = self._run(capsys, "create", "--url", service_url,
                        "--entities", "40", "--seed", "7", "--name", "cli-run")
        sid = json.loads(out)["session_id"]

        out = self._run(capsys, "run", "--url", service_url, sid)
        assert json.loads(out)["phase"] == "bootstrap"

        out = self._run(capsys, "feedback", "--url", service_url, sid,
                        "--simulate", "4", "--strategy", "random")
        assert json.loads(out)["phase"].startswith("feedback")

        out = self._run(capsys, "result", "--url", service_url, sid,
                        "--limit", "2")
        payload = json.loads(out)
        assert len(payload["rows"]) == 2

        out = self._run(capsys, "explain", "--url", service_url, sid,
                        payload["rows"][0]["row_key"])
        assert out.strip()  # rendered lineage text

        out = self._run(capsys, "checkpoint", "--url", service_url, sid)
        assert json.loads(out)["bytes"] > 0

        out = self._run(capsys, "restore", "--url", service_url, sid)
        assert json.loads(out)["session_id"] == sid

        out = self._run(capsys, "jobs", "--url", service_url,
                        "--session", sid)
        jobs = json.loads(out)
        assert jobs and all(job["session_id"] == sid for job in jobs)

    def test_feedback_without_input_is_an_error(self, service_url, capsys):
        code = cli_main(["feedback", "--url", service_url, "some-session"])
        assert code == 2
        assert "feedback needs" in capsys.readouterr().err
