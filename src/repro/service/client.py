"""A stdlib HTTP client for the wrangling service.

Speaks the same typed objects as the in-process API: requests go out as
their ``as_dict`` payloads, job records come back as
:class:`~repro.service.api.JobRecord` — so moving a driver loop from
in-process to over-the-wire is a one-line change (``session.feedback(req)``
becomes ``client.perform(session_id, req)``).
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any

from repro.service.api import JobRecord, JobStatus

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(Exception):
    """An HTTP-level failure, carrying the status and decoded payload."""

    def __init__(self, status: int, payload: dict[str, Any]):
        super().__init__(f"HTTP {status}: {payload.get('error', payload)}")
        self.status = status
        self.payload = payload

    @property
    def retry_after(self) -> float | None:
        """Backoff hint on 429 responses (None otherwise)."""
        value = self.payload.get("retry_after")
        return None if value is None else float(value)


class ServiceClient:
    """One tenant's view of a running wrangling service."""

    def __init__(self, base_url: str, *, tenant: str = "public",
                 timeout: float = 60.0):
        self.base_url = base_url.rstrip("/")
        self.tenant = tenant
        self.timeout = timeout

    # -- transport ------------------------------------------------------------

    def _request(self, method: str, path: str,
                 payload: dict[str, Any] | None = None) -> dict[str, Any]:
        data = None if payload is None else json.dumps(payload).encode("utf-8")
        request = urllib.request.Request(
            self.base_url + path,
            data=data,
            method=method,
            headers={"Content-Type": "application/json", "X-Tenant": self.tenant},
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            # The error doubles as the response: close it, or its socket
            # stays open until garbage collection.
            with exc:
                try:
                    body = json.loads(exc.read().decode("utf-8"))
                except Exception:  # non-JSON error body
                    body = {"error": str(exc)}
            raise ServiceError(exc.code, body) from None

    # -- sessions -------------------------------------------------------------

    def health(self) -> dict[str, Any]:
        return self._request("GET", "/health")

    def create_session(self, scenario: dict[str, Any] | None = None, *,
                       name: str | None = None,
                       config: dict[str, Any] | None = None,
                       session_id: str | None = None) -> dict[str, Any]:
        """Create a session; ``scenario`` holds SynthConfig fields."""
        return self._request("POST", "/sessions", {
            "scenario": scenario, "name": name,
            "config": config, "session_id": session_id,
        })

    def sessions(self) -> list[dict[str, Any]]:
        return self._request("GET", "/sessions")["sessions"]

    def session(self, session_id: str) -> dict[str, Any]:
        return self._request("GET", f"/sessions/{session_id}")

    def drop(self, session_id: str) -> None:
        self._request("DELETE", f"/sessions/{session_id}")

    def result(self, session_id: str, *, limit: int | None = None) -> dict[str, Any]:
        suffix = "" if limit is None else f"?limit={limit}"
        return self._request("GET", f"/sessions/{session_id}/result{suffix}")

    # -- jobs -----------------------------------------------------------------

    def submit(self, session_id: str, request) -> JobRecord:
        """Enqueue a typed request (``202``); returns the pending record."""
        payload = {"kind": request.kind, "request": request.as_dict()}
        return JobRecord.from_dict(
            self._request("POST", f"/sessions/{session_id}/jobs", payload))

    def job(self, job_id: str) -> JobRecord:
        return JobRecord.from_dict(self._request("GET", f"/jobs/{job_id}"))

    def jobs(self, session_id: str | None = None) -> list[JobRecord]:
        suffix = "" if session_id is None else f"?session_id={session_id}"
        return [JobRecord.from_dict(entry)
                for entry in self._request("GET", f"/jobs{suffix}")["jobs"]]

    def cancel(self, job_id: str) -> bool:
        return bool(self._request("POST", f"/jobs/{job_id}/cancel")["cancelled"])

    def wait(self, job_id: str, *, timeout: float = 300.0,
             poll_interval: float = 0.05) -> JobRecord:
        """Poll until the job is terminal (``TimeoutError`` otherwise)."""
        deadline = time.monotonic() + timeout
        interval = poll_interval
        while True:
            record = self.job(job_id)
            if record.finished:
                return record
            if time.monotonic() >= deadline:
                raise TimeoutError(f"job {job_id} still {record.status} after {timeout}s")
            time.sleep(interval)
            interval = min(interval * 1.5, 1.0)

    def perform(self, session_id: str, request, *,
                timeout: float = 300.0) -> dict[str, Any] | None:
        """Submit, wait, and return the result payload (raises on failure)."""
        record = self.wait(self.submit(session_id, request).job_id, timeout=timeout)
        if record.status == JobStatus.FAILED:
            raise RuntimeError(f"job {record.job_id} failed: {record.error}")
        if record.status == JobStatus.CANCELLED:
            raise RuntimeError(f"job {record.job_id} was cancelled")
        return record.result

    # -- persistence ----------------------------------------------------------

    def checkpoint(self, session_id: str, *, path: str | None = None,
                   timeout: float = 300.0) -> dict[str, Any] | None:
        """Checkpoint through the job queue (ordered after in-flight rounds)."""
        payload = {"path": path}
        record = JobRecord.from_dict(
            self._request("POST", f"/sessions/{session_id}/checkpoint", payload))
        finished = self.wait(record.job_id, timeout=timeout)
        if finished.status != JobStatus.DONE:
            raise RuntimeError(
                f"checkpoint job {finished.job_id} {finished.status}: {finished.error}")
        return finished.result

    def restore(self, session_id: str, *, path: str | None = None) -> dict[str, Any]:
        """Replace the live session with its checkpointed state."""
        return self._request("POST", f"/sessions/{session_id}/restore", {"path": path})
