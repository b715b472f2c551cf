"""Stdlib HTTP client for the compilation service.

:class:`ServiceClient` speaks the versioned wire format of
:mod:`repro.service.wire` over one kept-alive ``http.client`` connection — no
dependencies beyond the standard library, symmetric with the server.  Error
envelopes come back as :class:`ServiceClientError` carrying the structured
``code``/``message``/``detail`` triple, never a remote traceback; so does
every transport failure (``unreachable`` and ``timeout`` with status 0,
``invalid_response`` with the status the unreadable body came with).

.. code-block:: python

    client = ServiceClient("http://127.0.0.1:8731", token="dev-token")
    response = client.compile(scop, config, machine="Intel1")
    response.result.schedule     # a full CompilationResult, bit-identical
    response.cache               # "miss", "memory" or "store"

    job = client.submit(scop, config)
    done = client.wait(job["id"])
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.parse
from dataclasses import dataclass
from typing import Any, Mapping

from ..machine.machine import MachineModel
from ..model.scop import Scop
from ..pipeline.result import CompilationResult
from ..scheduler.config import SchedulerConfig
from .wire import encode_compile_request, decode_result

__all__ = ["ServiceClient", "ServiceClientError", "CompileResponse"]


class ServiceClientError(Exception):
    """A structured error reported by the service (or a transport failure)."""

    def __init__(self, status: int, code: str, message: str, detail: str | None = None):
        super().__init__(f"[{status}/{code}] {message}" + (f": {detail}" if detail else ""))
        self.status = status
        self.code = code
        self.message = message
        self.detail = detail


@dataclass(frozen=True)
class CompileResponse:
    """A decoded compile response: the result plus its cache provenance."""

    result: CompilationResult
    cache: str | None
    fingerprint: str | None


class ServiceClient:
    """A small synchronous client of one compilation server.

    Requests share one connection (a lock serialises threads sharing the
    client).  When the server has closed it in the meantime the request is
    sent once more on a fresh one: compiles are content-addressed, so a
    resend cannot change an answer.
    """

    def __init__(self, base_url: str, token: str | None = None, timeout: float = 60.0):
        self.base_url = base_url.rstrip("/")
        self.token = token
        self.timeout = timeout
        self._url = urllib.parse.urlsplit(self.base_url)
        self._connection: http.client.HTTPConnection | None = None
        self._lock = threading.Lock()

    def close(self) -> None:
        """Close the kept-alive connection (the next request opens a new one)."""
        with self._lock:
            self._drop_connection()

    # ------------------------------------------------------------------ #
    # Transport
    # ------------------------------------------------------------------ #
    def _request(self, method: str, path: str, payload: Mapping[str, Any] | None = None) -> dict:
        headers = {"Content-Type": "application/json"}
        if self.token is not None:
            headers["Authorization"] = f"Bearer {self.token}"
        body = json.dumps(payload).encode("utf-8") if payload is not None else None
        try:
            with self._lock:
                status, reason, raw = self._exchange(method, self._url.path + path, body, headers)
        except TimeoutError as error:
            raise ServiceClientError(0, "timeout", "the service did not answer in time", str(error))
        except (OSError, http.client.HTTPException) as error:
            raise ServiceClientError(
                0, "unreachable", "cannot reach the service", f"{type(error).__name__}: {error}"
            )
        try:
            document = json.loads(raw.decode("utf-8"))
        except ValueError as error:  # UnicodeDecodeError, JSONDecodeError
            if status >= 400:
                raise ServiceClientError(status, "http_error", reason)
            raise ServiceClientError(
                status, "invalid_response", "the response body is not JSON", str(error)
            )
        if status >= 400:
            envelope = document.get("error", {}) if isinstance(document, dict) else {}
            raise ServiceClientError(
                status,
                str(envelope.get("code", "http_error")),
                str(envelope.get("message", reason)),
                envelope.get("detail"),
            )
        return document

    def _exchange(
        self, method: str, path: str, body: bytes | None, headers: Mapping[str, str]
    ) -> tuple[int, str, bytes]:
        """One request and its whole response on the kept connection (lock held)."""
        reused = self._connection is not None
        if not reused:
            factory = (
                http.client.HTTPSConnection
                if self._url.scheme == "https"
                else http.client.HTTPConnection
            )
            self._connection = factory(self._url.hostname, self._url.port, timeout=self.timeout)
        try:
            self._connection.request(method, path, body=body, headers=headers)
            response = self._connection.getresponse()
            raw = response.read()
        except (ConnectionError, http.client.RemoteDisconnected):
            self._drop_connection()
            if reused:  # closed by the server while idle: once more, afresh
                return self._exchange(method, path, body, headers)
            raise
        except (OSError, http.client.HTTPException):
            self._drop_connection()
            raise
        if response.will_close:
            self._drop_connection()
        return response.status, response.reason, raw

    def _drop_connection(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    # ------------------------------------------------------------------ #
    # Endpoints
    # ------------------------------------------------------------------ #
    def healthz(self) -> dict:
        return self._request("GET", "/v1/healthz")

    def stats(self) -> dict:
        return self._request("GET", "/v1/stats")

    def compile(
        self,
        scop: Scop,
        config: SchedulerConfig | None = None,
        machine: MachineModel | str | None = None,
        parameter_values: Mapping[str, int] | None = None,
        label: str | None = None,
    ) -> CompileResponse:
        """One-shot compilation; the server answers from its caches when it can."""
        payload = encode_compile_request(scop, config, machine, parameter_values, label)
        response = self._request("POST", "/v1/compile", payload)
        return CompileResponse(
            result=decode_result(response),
            cache=response.get("cache"),
            fingerprint=response.get("fingerprint"),
        )

    def submit(
        self,
        scop: Scop,
        config: SchedulerConfig | None = None,
        machine: MachineModel | str | None = None,
        parameter_values: Mapping[str, int] | None = None,
        label: str | None = None,
    ) -> dict:
        """Submit an asynchronous compile; returns the job description."""
        payload = encode_compile_request(scop, config, machine, parameter_values, label)
        return self._request("POST", "/v1/jobs", payload)["job"]

    def job(self, job_id: str) -> dict:
        """The current job description (with ``result`` once done)."""
        return self._request("GET", f"/v1/jobs/{job_id}")

    def wait(
        self, job_id: str, poll_interval: float = 0.05, timeout: float = 120.0
    ) -> dict:
        """Poll a job until it finishes; raises on job failure or timeout."""
        deadline = time.monotonic() + timeout
        while True:
            response = self.job(job_id)
            state = response["job"]["state"]
            if state == "done":
                return response
            if state == "failed":
                error = response["job"].get("error", {})
                raise ServiceClientError(
                    500,
                    str(error.get("code", "compile_failed")),
                    str(error.get("message", "job failed")),
                )
            if time.monotonic() >= deadline:
                raise ServiceClientError(0, "timeout", f"job {job_id} still {state!r}")
            time.sleep(poll_interval)

    def wait_result(self, job_id: str, **kwargs: Any) -> CompilationResult:
        """Wait for a job and decode its result."""
        return decode_result(self.wait(job_id, **kwargs))

    def result(self, fingerprint: str) -> CompileResponse:
        """Fetch a stored result by its content fingerprint."""
        response = self._request("GET", f"/v1/results/{fingerprint}")
        return CompileResponse(
            result=decode_result(response),
            cache=response.get("cache"),
            fingerprint=response.get("fingerprint"),
        )
