"""The HTTP front end of the wrangling service (stdlib only).

A deliberately small JSON-over-HTTP/1.1 layer on ``asyncio.start_server``
— no web framework, because the container bakes in nothing beyond the
standard library and the service API is already fully typed: every handler
is a codec between HTTP and :mod:`repro.service.api` objects, with the
actual work running on the :class:`~repro.service.jobs.JobQueue`.

Routes
------
- ``GET    /health``                        liveness + session/job counts
- ``GET    /sessions``                      list sessions
- ``POST   /sessions``                      create a (scenario-backed) session
- ``GET    /sessions/{id}``                 session info
- ``DELETE /sessions/{id}``                 drop a session
- ``GET    /sessions/{id}/result``          browse the result (``?limit=N``)
- ``POST   /sessions/{id}/jobs``            submit a typed request (``202``)
- ``POST   /sessions/{id}/checkpoint``      enqueue a checkpoint job
- ``POST   /sessions/{id}/restore``         restore from the checkpoint file
- ``GET    /jobs``                          list jobs (``?session_id=``)
- ``GET    /jobs/{id}``                     poll one job
- ``POST   /jobs/{id}/cancel``              cancel a pending job

Tenancy for rate limiting comes from the ``X-Tenant`` header (default
``public``). Rate-limited submissions answer ``429`` with ``Retry-After``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro.service.api import CheckpointRequest, request_from_dict
from repro.service.jobs import JobQueue, RateLimiter, RateLimitExceeded
from repro.service.session import SessionStore
from repro.wrangler.config import WranglerConfig

__all__ = ["WranglingServer", "run_server"]

_MAX_BODY = 32 * 1024 * 1024

_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


class _HttpError(Exception):
    def __init__(self, status: int, message: str, *, headers: dict[str, str] | None = None):
        super().__init__(message)
        self.status = status
        self.headers = headers or {}


def _wrangler_config(payload: dict[str, Any] | None) -> WranglerConfig | None:
    """A WranglerConfig from the scalar fields of a JSON payload.

    Component sub-configs are not exposed over HTTP (they carry callables
    and domain objects); the session-level knobs are.
    """
    if not payload:
        return None
    scalars = {
        f.name for f in dataclasses.fields(WranglerConfig) if f.type in ("int", "bool")
    }
    unknown = set(payload) - scalars
    if unknown:
        raise _HttpError(
            400, f"unknown config fields: {', '.join(sorted(unknown))}; "
                 f"supported: {', '.join(sorted(scalars))}")
    return WranglerConfig(**payload)


class WranglingServer:
    """One listening socket, one :class:`SessionStore`, one job queue."""

    def __init__(self, store: SessionStore | None = None, *,
                 host: str = "127.0.0.1", port: int = 8765, workers: int = 2,
                 rate_limiter: RateLimiter | None = None):
        self.store = store if store is not None else SessionStore()
        self.host = host
        self.port = port
        self.queue = JobQueue(self.store, workers=workers, rate_limiter=rate_limiter)
        self._server: asyncio.AbstractServer | None = None

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — resolves ``port=0`` to the real port."""
        if self._server is None:
            return (self.host, self.port)
        sock = self._server.sockets[0]
        return sock.getsockname()[:2]

    async def start(self) -> tuple[str, int]:
        """Bind the socket and spawn the worker pool."""
        await self.queue.start()
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port)
        return self.address

    async def stop(self) -> None:
        """Close the socket and drain the workers."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.queue.stop()

    async def serve_forever(self) -> None:
        """Run until cancelled (the CLI's ``serve`` command)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await self.stop()

    # -- HTTP plumbing --------------------------------------------------------

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _HttpError as exc:
                    await self._write_response(
                        writer, exc.status, {"error": str(exc)}, exc.headers)
                    break
                if request is None:
                    break
                method, target, body = request
                status, payload, headers = self._dispatch(method, target, body)
                await self._write_response(writer, status, payload, headers)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        try:
            request_line = await reader.readline()
        except (ValueError, ConnectionError):
            return None
        if not request_line.strip():
            return None
        try:
            method, target, _version = request_line.decode("latin-1").split()
        except ValueError:
            raise _HttpError(400, "malformed request line") from None
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        declared = headers.get("content-length", "0") or "0"
        try:
            length = int(declared)
        except ValueError:
            raise _HttpError(400, f"malformed Content-Length {declared!r}") from None
        if length < 0:
            raise _HttpError(400, f"negative Content-Length {length}")
        if length > _MAX_BODY:
            raise _HttpError(400, f"body too large ({length} bytes)")
        raw = await reader.readexactly(length) if length else b""
        body: dict[str, Any] = {}
        if raw:
            try:
                body = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise _HttpError(400, f"invalid JSON body: {exc}") from None
            if not isinstance(body, dict):
                raise _HttpError(400, "JSON body must be an object")
        body.setdefault("_tenant", headers.get("x-tenant", "public"))
        return method.upper(), target, body

    async def _write_response(self, writer: asyncio.StreamWriter, status: int,
                              payload: Any, headers: dict[str, str]) -> None:
        data = json.dumps(payload).encode("utf-8")
        lines = [
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'OK')}",
            "Content-Type: application/json",
            f"Content-Length: {len(data)}",
            "Connection: keep-alive",
        ]
        lines.extend(f"{name}: {value}" for name, value in headers.items())
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + data)
        await writer.drain()

    # -- routing --------------------------------------------------------------

    def _dispatch(self, method: str, target: str, body: dict[str, Any]):
        try:
            status, payload = self._route(method, target, body)
            return status, payload, {}
        except _HttpError as exc:
            return exc.status, {"error": str(exc)}, exc.headers
        except RateLimitExceeded as exc:
            return (429, {"error": str(exc), "retry_after": exc.retry_after},
                    {"Retry-After": f"{exc.retry_after:.3f}"})
        except KeyError as exc:
            return 404, {"error": str(exc.args[0]) if exc.args else "not found"}, {}
        except FileNotFoundError as exc:
            return 404, {"error": str(exc)}, {}
        except (ValueError, TypeError) as exc:
            return 400, {"error": str(exc)}, {}
        except Exception as exc:  # noqa: BLE001 — the server must answer
            return 500, {"error": f"{type(exc).__name__}: {exc}"}, {}

    def _route(self, method: str, target: str, body: dict[str, Any]):
        split = urlsplit(target)
        parts = [part for part in split.path.split("/") if part]
        query = {name: values[-1] for name, values in parse_qs(split.query).items()}
        tenant = str(body.pop("_tenant", "public"))

        if parts == ["health"]:
            self._expect(method, "GET")
            return 200, {"status": "ok", "sessions": len(self.store),
                         "jobs": len(self.queue.list())}

        if parts == ["sessions"]:
            if method == "GET":
                return 200, {"sessions": self.store.list()}
            self._expect(method, "POST")
            return 200, self._create_session(body)

        if len(parts) >= 2 and parts[0] == "sessions":
            session_id = parts[1]
            rest = parts[2:]
            if not rest:
                if method == "DELETE":
                    self.store.get(session_id)
                    self.store.drop(session_id)
                    return 200, {"dropped": session_id}
                self._expect(method, "GET")
                return 200, self.store.get(session_id).info()
            if rest == ["result"]:
                self._expect(method, "GET")
                limit = int(query["limit"]) if "limit" in query else None
                return 200, self.store.get(session_id).result_rows(limit=limit)
            if rest == ["jobs"]:
                self._expect(method, "POST")
                return 202, self._submit(session_id, body, tenant)
            if rest == ["query"]:
                self._expect(method, "POST")
                body = {"kind": "query", "request": body}
                return 202, self._submit(session_id, body, tenant)
            if rest == ["checkpoint"]:
                self._expect(method, "POST")
                body = {"kind": "checkpoint", "request": {"path": body.get("path")}}
                return 202, self._submit(session_id, body, tenant)
            if rest == ["restore"]:
                self._expect(method, "POST")
                session = self.store.restore(session_id, body.get("path"))
                return 200, session.info()

        if parts == ["jobs"]:
            self._expect(method, "GET")
            jobs = self.queue.list(query.get("session_id"))
            return 200, {"jobs": [job.as_dict() for job in jobs]}

        if len(parts) == 2 and parts[0] == "jobs":
            self._expect(method, "GET")
            return 200, self.queue.get(parts[1]).as_dict()

        if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "cancel":
            self._expect(method, "POST")
            return 200, {"job_id": parts[1], "cancelled": self.queue.cancel(parts[1])}

        raise _HttpError(404, f"no route for {method} {split.path}")

    @staticmethod
    def _expect(method: str, expected: str) -> None:
        if method != expected:
            raise _HttpError(405, f"method {method} not allowed (use {expected})")

    # -- handlers -------------------------------------------------------------

    def _create_session(self, body: dict[str, Any]) -> dict[str, Any]:
        scenario = body.get("scenario")
        if scenario is not None and not isinstance(scenario, dict):
            raise _HttpError(400, "scenario must be an object of SynthConfig fields")
        session = self.store.create(
            scenario,
            config=_wrangler_config(body.get("config")),
            name=body.get("name"),
            session_id=body.get("session_id"),
        )
        return session.info()

    def _submit(self, session_id: str, body: dict[str, Any],
                tenant: str) -> dict[str, Any]:
        kind = body.get("kind")
        if not kind:
            raise _HttpError(400, "job submission needs a request 'kind'")
        request = request_from_dict(str(kind), body.get("request", {}))
        if isinstance(request, CheckpointRequest) and request.path is None:
            request = CheckpointRequest(path=self.store.checkpoint_path(session_id))
        job = self.queue.submit(session_id, request, tenant=tenant)
        return job.as_dict()


def run_server(store: SessionStore | None = None, *, host: str = "127.0.0.1",
               port: int = 8765, workers: int = 2,
               rate_limiter: RateLimiter | None = None) -> None:
    """Blocking entry point (the CLI's ``serve`` command)."""

    async def _main() -> None:
        server = WranglingServer(store, host=host, port=port, workers=workers,
                                 rate_limiter=rate_limiter)
        bound_host, bound_port = await server.start()
        print(f"wrangling service listening on http://{bound_host}:{bound_port}")
        await server.serve_forever()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
