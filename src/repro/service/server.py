"""The compilation server: an HTTP/JSON front door over :class:`Session`.

Layering (mirroring the auth/capability + route-error shape of production
HTTP services):

* :class:`ServiceAuth` — token-based authentication with per-route
  *capability* checks (``compile``, ``read``, ``admin``).  Unknown or missing
  tokens are a 401, a known token lacking the route's capability is a 403.
* :func:`with_route_errors` — every route handler runs inside one wrapper
  that turns :class:`ServiceError`/:class:`WireError`, a configuration the
  compile refuses and an exhausted ``node_limit`` into structured
  ``{"error": {"code", "message", "detail"}}`` envelopes and anything else
  into an opaque 500; tracebacks never reach a client.
* :class:`CompileService` — the routes' business logic against one shared
  :class:`Session` (optionally backed by a persistent
  :class:`~repro.service.store.ResultStore`) and a :class:`JobManager` worker
  pool for asynchronous submissions with per-stage progress.
* :class:`CompilationServer` — stdlib ``ThreadingHTTPServer`` wiring; no
  dependencies outside the standard library.

Endpoints (JSON unless noted)::

    GET  /v1/healthz              liveness (unauthenticated)
    POST /v1/compile              one-shot compile, cache-aware      [compile]
    POST /v1/jobs                 submit an asynchronous compile     [compile]
    GET  /v1/jobs/{id}            job state, progress, result        [read]
    GET  /v1/results/{fp}         stored result by fingerprint       [read]
    GET  /v1/metrics              Prometheus text exposition         [read]
    GET  /v1/stats                session + store + job counters     [admin]

A cached result is kept as JSON text (:class:`~repro.pipeline.result.CachedResult`)
and a response splices an envelope around it (:class:`~repro.service.wire.ResultEnvelope`):
a hit never rebuilds a :class:`CompilationResult`, a dictionary or the text.
``/v1/compile`` also remembers, per body digest, what the body resolved to
(:class:`RequestMemo`), so a repeated body is not decoded or fingerprinted
again — after authentication, which the memo never replaces.

Observability: every request and every asynchronous job records one span on
the session tracer (``service.request`` / ``service.job``, tagged with the
cache origin when the route compiled something), ``/v1/metrics`` renders the
:class:`~repro.obs.MetricsRegistry` of the service (requests by route/status,
the request memo, jobs), of the session (compiles by cache origin, its other
events) and of the store — every event counted once, where it happens, and
``/v1/stats`` reading the same counters — ``trace_dir=`` writes one
Perfetto-loadable Chrome trace per actually-compiled request, and
``access_log=True`` emits one structured JSON line per request to stderr
(method, path, status, duration, cache origin, and on the compile route
whether the request memo recognised the body) — off by default.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import re
import socket
import sys
import threading
import time
import uuid
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Mapping

from ..ilp.engine import EngineLimitError
from ..machine.machine import MachineModel
from ..obs import MetricsRegistry, ledger
from ..pipeline.result import CompilationJob
from ..pipeline.session import CacheAddress, Session
from ..scheduler.errors import ConfigurationError
from ..scheduler.strategies import pluto_style
from .wire import WIRE_VERSION, ResultEnvelope, WireError, decode_compile_request

__all__ = [
    "CAPABILITIES",
    "ServiceAuth",
    "ServiceError",
    "CompileService",
    "CompilationServer",
    "JobManager",
    "RequestMemo",
    "with_route_errors",
]

#: The capability vocabulary checked per route.
CAPABILITIES = ("compile", "read", "admin")

#: Largest request body the server reads.  A compile request is one SCoP, one
#: configuration and one machine model as JSON — kilobytes; anything past this
#: is refused with 413 before a byte of it is read.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Bodies ``/v1/compile`` recognises by digest, and the deep size past which an
#: address is not remembered (five hashes, the label and the parameter values
#: make about 1.5 KiB): together the memo's worst case, 256 x 4 KiB = 1 MiB.
REQUEST_MEMO_ENTRIES = 256
REQUEST_MEMO_ADDRESS_BYTES = 4096

#: Error code of a compile whose branch & bound exhausted ``node_limit``: 422
#: on the synchronous route, the ``failed`` job's code on the asynchronous one.
NODE_LIMIT_EXCEEDED = "node_limit_exceeded"

#: The states of an asynchronous job, in lifecycle order.
JOB_STATES = ("queued", "running", "done", "failed")


class ServiceError(Exception):
    """An error the service reports as a structured envelope, not a traceback."""

    def __init__(self, status: int, code: str, message: str, detail: str | None = None):
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message
        self.detail = detail

    def envelope(self) -> dict:
        error: dict[str, Any] = {"code": self.code, "message": self.message}
        if self.detail is not None:
            error["detail"] = self.detail
        return {"error": error}


# --------------------------------------------------------------------------- #
# Authentication / capabilities
# --------------------------------------------------------------------------- #
class ServiceAuth:
    """Static token -> capability-set authentication.

    ``tokens`` maps bearer tokens to iterables of capability names.  An empty
    mapping means the server runs *open* (every request gets every
    capability) — the mode used by local examples; anything shared should
    configure tokens, e.g. via :meth:`from_spec`.
    """

    def __init__(self, tokens: Mapping[str, Any] | None = None):
        self.tokens: dict[str, frozenset[str]] = {}
        for token, capabilities in (tokens or {}).items():
            if isinstance(capabilities, str):
                capabilities = capabilities.split(",")
            capability_set = frozenset(c.strip() for c in capabilities if str(c).strip())
            unknown = capability_set - set(CAPABILITIES)
            if unknown:
                raise ValueError(
                    f"unknown capabilities {sorted(unknown)}; known: {list(CAPABILITIES)}"
                )
            self.tokens[str(token)] = capability_set

    @classmethod
    def from_spec(cls, spec: str | None) -> "ServiceAuth":
        """Parse ``"token=cap1,cap2;token2=cap"`` (the CLI/env format)."""
        tokens: dict[str, str] = {}
        for chunk in (spec or "").split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            if "=" not in chunk:
                raise ValueError(f"bad token spec {chunk!r}; expected token=cap1,cap2")
            token, _, capabilities = chunk.partition("=")
            tokens[token.strip()] = capabilities
        return cls(tokens)

    @property
    def open(self) -> bool:
        return not self.tokens

    def authenticate(self, token: str | None) -> frozenset[str]:
        """The capability set of *token*; raises 401 for unknown/missing tokens."""
        if self.open:
            return frozenset(CAPABILITIES)
        if token is None:
            raise ServiceError(
                401,
                "unauthorized",
                "authentication required",
                "send 'Authorization: Bearer <token>' or an 'X-API-Token' header",
            )
        capabilities = self.tokens.get(token)
        if capabilities is None:
            raise ServiceError(401, "unauthorized", "unknown token")
        return capabilities

    def require_capability(self, capabilities: frozenset[str], needed: str) -> None:
        """Raise 403 unless *needed* is among the authenticated capabilities."""
        if needed not in capabilities:
            raise ServiceError(
                403,
                "forbidden",
                f"token lacks the {needed!r} capability",
                f"granted: {sorted(capabilities)}",
            )


def with_route_errors(handler: Callable[..., tuple[int, Any]]) -> Callable[..., tuple[int, Any]]:
    """Run a route handler under the structured-error contract.

    :class:`ServiceError` keeps its status and envelope, :class:`WireError`
    becomes a 400 with the wire code, a configuration the compile finds
    malformed (:class:`ConfigurationError`: a directive naming an unknown
    statement, ...) is a 400 ``invalid_config``, a compile that ran out of the
    request's ``node_limit`` is a 422 ``node_limit_exceeded`` (the client
    chose the limit; the message names it), and any other exception becomes
    an opaque 500 ``internal`` envelope — clients never see a traceback.
    """

    @functools.wraps(handler)
    def wrapped(*args: Any, **kwargs: Any) -> tuple[int, Any]:
        try:
            return handler(*args, **kwargs)
        except ServiceError as error:
            return error.status, error.envelope()
        except WireError as error:
            return 400, ServiceError(400, error.code, error.message, error.detail).envelope()
        except ConfigurationError as error:
            return 400, ServiceError(400, "invalid_config", str(error)).envelope()
        except EngineLimitError as error:
            return 422, ServiceError(422, NODE_LIMIT_EXCEEDED, str(error)).envelope()
        except Exception as error:  # the wrapper is the traceback firewall
            return (
                500,
                ServiceError(
                    500, "internal", "internal server error", f"{type(error).__name__}: {error}"
                ).envelope(),
            )

    return wrapped


# --------------------------------------------------------------------------- #
# Asynchronous jobs
# --------------------------------------------------------------------------- #
@dataclass
class Job:
    """One asynchronous compilation and its observable lifecycle."""

    id: str
    kernel: str
    label: str
    state: str = "queued"  # one of JOB_STATES: queued -> running -> done | failed
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    #: The job's work-ledger scope, open around its compile.
    work: dict = field(default_factory=dict)
    result_text: str | None = None
    origin: str | None = None
    fingerprint: str | None = None
    error: dict | None = None

    def describe(self) -> dict:
        description: dict[str, Any] = {
            "id": self.id,
            "kernel": self.kernel,
            "label": self.label,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            # Per-stage progress: the ``stage.<name>`` seconds the pipeline
            # counts as each stage finishes, read live off the job's scope
            # (a copy: the job's thread may be counting into it).
            "progress": [
                {"stage": name.removeprefix("stage."), "seconds": seconds}
                for name, seconds in self.work.copy().items()
                if name.startswith("stage.")
            ],
        }
        if self.error is not None:
            description["error"] = self.error
        if self.state == "done":
            description["cache"] = self.origin
            description["fingerprint"] = self.fingerprint
        return description


class JobManager:
    """A bounded worker pool compiling submitted jobs asynchronously.

    A job opens a work-ledger scope around its compile; per-stage progress is
    the ``stage.<name>`` seconds the pipeline counts into it.  Submissions and
    terminal states are counted into *metrics* (``repro_jobs_total{state}``).
    """

    def __init__(
        self,
        session: Session,
        metrics: MetricsRegistry,
        workers: int = 2,
        *,
        trace_path: Callable[[str], str | None] | None = None,
    ):
        self.session = session
        self._pool = ThreadPoolExecutor(max_workers=max(1, workers), thread_name_prefix="repro-job")
        self._jobs: dict[str, Job] = {}
        self._lock = threading.Lock()
        self._counter = itertools.count(1)
        #: ``trace_path(kernel)`` names the Chrome-trace file a job's compile
        #: should write (``None`` disables per-job traces).
        self._trace_path = trace_path
        jobs = metrics.counter(
            "repro_jobs_total", "Asynchronous jobs submitted, and finished by terminal state."
        )
        self._submitted = jobs.labels(state="submitted")
        self._done = jobs.labels(state="done")
        self._failed = jobs.labels(state="failed")

    def submit(self, request: CompilationJob) -> Job:
        config = request.config if request.config is not None else pluto_style()
        job = Job(
            id=f"job-{next(self._counter)}-{uuid.uuid4().hex[:8]}",
            kernel=request.scop.name,
            label=request.label or config.name,  # what the session will call it
        )
        with self._lock:
            self._jobs[job.id] = job
        self._submitted.inc()
        self._pool.submit(self._run, job, request)
        return job

    def _run(self, job: Job, request: CompilationJob) -> None:
        job.state = "running"
        job.started_at = time.time()
        tracer = self.session.tracer
        try:
            with ledger() as job.work, tracer.span(
                "service.job", category="service", job=job.id, kernel=job.kernel
            ) as span:
                outcome = self.session.compile_text(
                    request.scop,
                    request.config,
                    request.machine,
                    request.parameter_values,
                    request.label,
                    trace=self._trace_path(job.kernel) if self._trace_path else None,
                )
                job.result_text = outcome.text
                job.origin = outcome.origin
                job.fingerprint = outcome.address.fingerprint
                # Counted before the state flips: whoever sees the job done
                # sees it counted.
                self._done.inc()
                job.state = "done"
                span.set("cache", outcome.origin)
        except Exception as error:
            if isinstance(error, EngineLimitError):
                job.error = {"code": NODE_LIMIT_EXCEEDED, "message": str(error)}
            elif isinstance(error, ConfigurationError):
                job.error = {"code": "invalid_config", "message": str(error)}
            else:
                job.error = {"code": "compile_failed", "message": f"{type(error).__name__}: {error}"}
            self._failed.inc()
            job.state = "failed"
        finally:
            job.finished_at = time.time()

    def get(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError(404, "job_not_found", f"no job {job_id!r}")
        return job

    def stats(self) -> dict:
        with self._lock:
            states: dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
        return {
            "submitted": self._submitted.value,
            "completed": self._done.value,
            "failed": self._failed.value,
            "states": states,
        }

    def shutdown(self) -> None:
        self._pool.shutdown(wait=False, cancel_futures=True)


# --------------------------------------------------------------------------- #
# Request recognition
# --------------------------------------------------------------------------- #
def _deep_size(value: Any) -> int:
    size = sys.getsizeof(value)
    if isinstance(value, tuple):
        size += sum(_deep_size(item) for item in value)
    return size


class RequestMemo:
    """Bounded LRU from the SHA-1 of a compile body to what it resolved to.

    Identical bytes decode to the identical request, so a body seen before
    need not be parsed, decoded and fingerprinted again: its
    :class:`~repro.pipeline.session.CacheAddress` leads straight to the cache
    entry.  Whether the address still holds is the session's call
    (:meth:`Session.recall_text`); the memo is not keyed on the caller and is
    only consulted for an authenticated one.  Hits, misses and evictions are
    counted into *metrics* (``repro_request_memo_events_total{event}``).
    """

    def __init__(self, metrics: MetricsRegistry) -> None:
        self._addresses: OrderedDict[bytes, CacheAddress] = OrderedDict()
        self._lock = threading.Lock()
        events = metrics.counter(
            "repro_request_memo_events_total", "Request memo of /v1/compile, by event."
        )
        self._hits = events.labels(event="hits")
        self._misses = events.labels(event="misses")
        self._evictions = events.labels(event="evictions")

    def recall(self, digest: bytes, session: Session) -> tuple[CacheAddress, str] | None:
        """The address and cached text of a body seen before, or ``None``
        (new body, session settings changed since, entry no longer cached)."""
        with self._lock:
            address = self._addresses.get(digest)
            if address is not None:
                self._addresses.move_to_end(digest)
        text = session.recall_text(address) if address is not None else None
        (self._hits if text is not None else self._misses).inc()
        return (address, text) if text is not None else None

    def put(self, digest: bytes, address: CacheAddress) -> None:
        if _deep_size(address) > REQUEST_MEMO_ADDRESS_BYTES:
            return
        with self._lock:
            self._addresses[digest] = address
            self._addresses.move_to_end(digest)
            while len(self._addresses) > REQUEST_MEMO_ENTRIES:
                self._addresses.popitem(last=False)
                self._evictions.inc()

    def stats(self) -> dict:
        return {
            "hits": self._hits.value,
            "misses": self._misses.value,
            "evictions": self._evictions.value,
            "entries": len(self._addresses),
        }


# --------------------------------------------------------------------------- #
# The service (route logic, HTTP-free and unit-testable)
# --------------------------------------------------------------------------- #
class CompileService:
    """Business logic of the routes, independent of the HTTP plumbing."""

    def __init__(
        self,
        machine: MachineModel | str | None = None,
        *,
        store=None,
        auth: ServiceAuth | None = None,
        job_workers: int = 2,
        session: Session | None = None,
        access_log: bool = False,
        trace_dir: str | None = None,
    ):
        if session is not None and (store is not None or machine is not None):
            # The session already decided both; either one would be ignored.
            raise ValueError("pass store= and machine= to the Session, not beside session=")
        self.session = session if session is not None else Session(machine, store=store)
        self.store = self.session.store
        self.auth = auth if auth is not None else ServiceAuth()
        #: Request/job spans land on the session tracer (a no-op unless the
        #: session was built with one).
        self.tracer = self.session.tracer
        self.access_log = access_log
        self.trace_dir = trace_dir
        if trace_dir is not None:
            os.makedirs(trace_dir, exist_ok=True)
        self._trace_counter = itertools.count(1)
        #: The service's own counters (requests, the request memo, jobs) and
        #: the four state gauges read at scrape time; ``/v1/metrics`` renders
        #: it, then the session's and the store's registries.
        self.metrics = MetricsRegistry()
        self._requests = self.metrics.counter(
            "repro_requests_total", "HTTP requests served, by route and status."
        )
        self._request_seconds = self.metrics.histogram(
            "repro_request_seconds", "Request wall-clock latency in seconds, by route."
        )
        job_states = self.metrics.gauge(
            "repro_jobs_current", "Jobs currently known to the manager, by state."
        )
        self._job_states = {state: job_states.labels(state=state) for state in JOB_STATES}
        self._cached_results = self.metrics.gauge(
            "repro_session_cached_results", "Results held in the in-memory session cache."
        )
        self._memo_entries = self.metrics.gauge(
            "repro_request_memo_entries", "Bodies the request memo of /v1/compile holds."
        )
        self._uptime = self.metrics.gauge(
            "repro_uptime_seconds", "Seconds since the service started."
        )
        self.request_memo = RequestMemo(self.metrics)
        self.jobs = JobManager(
            self.session,
            self.metrics,
            workers=job_workers,
            trace_path=self.trace_path if trace_dir is not None else None,
        )
        self.started_at = time.time()

    # -- observability ---------------------------------------------------- #
    def trace_path(self, kernel: str) -> str | None:
        """A fresh Chrome-trace filename under ``trace_dir`` (or ``None``)."""
        if self.trace_dir is None:
            return None
        safe = re.sub(r"[^A-Za-z0-9._-]+", "_", kernel) or "kernel"
        return os.path.join(self.trace_dir, f"{safe}-{next(self._trace_counter)}.json")

    def observe_request(self, route: str, status: int, seconds: float) -> None:
        """Record one served request in the metrics registry."""
        self._requests.labels(route=route, status=str(status)).inc()
        self._request_seconds.labels(route=route).observe(seconds)

    def render_metrics(self) -> str:
        """The service's, the session's and the store's registries in
        Prometheus text format, after setting the four state gauges."""
        self._uptime.set(time.time() - self.started_at)
        self._cached_results.set(self.session.cached_results)
        self._memo_entries.set(self.request_memo.stats()["entries"])
        states = self.jobs.stats()["states"]
        for state, gauge in self._job_states.items():
            gauge.set(states.get(state, 0))
        registries = [self.metrics, self.session.metrics]
        if self.store is not None:
            registries.append(self.store.metrics)
        return "".join(registry.render_prometheus() for registry in registries)

    # -- routes ---------------------------------------------------------- #
    @with_route_errors
    def handle_healthz(self, token: str | None) -> tuple[int, dict]:
        return 200, {
            "status": "ok",
            "wire_version": WIRE_VERSION,
            "uptime_seconds": time.time() - self.started_at,
        }

    @with_route_errors
    def handle_compile(self, token: str | None, body: bytes) -> tuple[int, ResultEnvelope]:
        capabilities = self.auth.authenticate(token)
        self.auth.require_capability(capabilities, "compile")
        digest = hashlib.sha1(body).digest()
        recalled = self.request_memo.recall(digest, self.session)
        if recalled is not None:
            address, text = recalled
            origin = "memory"
        else:
            request = decode_compile_request(_parse_json(body))
            text, origin, address = self.session.compile_text(
                request.scop,
                request.config,
                request.machine,
                request.parameter_values,
                request.label,
                trace=self.trace_path(request.scop.name),
            )
            self.request_memo.put(digest, address)
        return 200, ResultEnvelope(
            text, memo=recalled is not None, cache=origin, fingerprint=address.fingerprint
        )

    @with_route_errors
    def handle_submit_job(self, token: str | None, body: bytes) -> tuple[int, dict]:
        capabilities = self.auth.authenticate(token)
        self.auth.require_capability(capabilities, "compile")
        request = decode_compile_request(_parse_json(body))
        job = self.jobs.submit(request)
        return 202, {"wire_version": WIRE_VERSION, "job": job.describe()}

    @with_route_errors
    def handle_job_status(self, token: str | None, job_id: str) -> tuple[int, Any]:
        capabilities = self.auth.authenticate(token)
        self.auth.require_capability(capabilities, "read")
        job = self.jobs.get(job_id)
        if job.state == "done" and job.result_text is not None:
            return 200, ResultEnvelope(job.result_text, job=job.describe())
        return 200, {"wire_version": WIRE_VERSION, "job": job.describe()}

    @with_route_errors
    def handle_result(self, token: str | None, fingerprint: str) -> tuple[int, ResultEnvelope]:
        capabilities = self.auth.authenticate(token)
        self.auth.require_capability(capabilities, "read")
        if self.store is None:
            raise ServiceError(
                404, "no_store", "this server has no persistent result store attached"
            )
        stored = self.store.fetch(fingerprint)
        if stored is None:
            raise ServiceError(
                404, "result_not_found", f"no stored result for fingerprint {fingerprint!r}"
            )
        return 200, ResultEnvelope(stored.text, cache="store", fingerprint=fingerprint)

    @with_route_errors
    def handle_metrics(self, token: str | None) -> tuple[int, Any]:
        """Prometheus text exposition of the service metrics (``read``).

        Returns the rendered text body (a ``str``); the HTTP adapter serves
        it with the text-format content type.  Error envelopes from the
        wrapper stay JSON like every other route.
        """
        capabilities = self.auth.authenticate(token)
        self.auth.require_capability(capabilities, "read")
        return 200, self.render_metrics()

    @with_route_errors
    def handle_stats(self, token: str | None) -> tuple[int, dict]:
        capabilities = self.auth.authenticate(token)
        self.auth.require_capability(capabilities, "admin")
        return 200, {
            "wire_version": WIRE_VERSION,
            "session": self.session.statistics,
            "cached_results": self.session.cached_results,
            "store": self.store.stats() if self.store is not None else None,
            "request_memo": self.request_memo.stats(),
            "jobs": self.jobs.stats(),
            "uptime_seconds": time.time() - self.started_at,
        }

    def shutdown(self) -> None:
        self.jobs.shutdown()


def _parse_json(body: bytes) -> Any:
    try:
        return json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ServiceError(400, "invalid_json", "request body is not valid JSON", str(error))


# --------------------------------------------------------------------------- #
# HTTP plumbing
# --------------------------------------------------------------------------- #
class _ServiceHTTPRequestHandler(BaseHTTPRequestHandler):
    """Thin HTTP adapter: routing, body parsing, token extraction."""

    service: CompileService  # injected by CompilationServer via subclassing
    protocol_version = "HTTP/1.1"
    #: Buffer the response and let ``handle_one_request`` flush it once.
    #: Unbuffered, headers and body leave as two small segments, and on a
    #: kept-alive connection the second waits out the client's delayed ACK
    #: (Nagle): 40 ms a request.
    wbufsize = 64 * 1024

    # -- helpers --------------------------------------------------------- #
    def _token(self) -> str | None:
        authorization = self.headers.get("Authorization", "")
        if authorization.startswith("Bearer "):
            return authorization[len("Bearer ") :].strip()
        return self.headers.get("X-API-Token")

    def _read_body(self) -> bytes:
        header = (self.headers.get("Content-Length") or "0").strip()
        try:
            length = int(header) if header.isascii() and header.isdigit() else -1
        except ValueError:  # more digits than int() converts
            length = -1
        if length < 0 or length > MAX_BODY_BYTES:
            # The body stays unread (its extent is unknown or refused), so
            # nothing after it on this connection can be parsed as a request.
            self.close_connection = True
            if length < 0:
                raise ServiceError(
                    400,
                    "invalid_content_length",
                    "Content-Length must be a non-negative integer",
                    f"got {header!r}",
                )
            raise ServiceError(
                413,
                "body_too_large",
                f"request body exceeds {MAX_BODY_BYTES} bytes",
                f"Content-Length: {length}",
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ServiceError(400, "empty_body", "request body is empty")
        return raw

    def _respond(self, status: int, document: Any) -> None:
        """Send *document*: a ``str`` as text (the metrics exposition), a
        :class:`ResultEnvelope` or a dictionary as JSON."""
        if isinstance(document, str):
            content_type, text = "text/plain; version=0.0.4; charset=utf-8", document
        elif isinstance(document, ResultEnvelope):
            content_type, text = "application/json", document.to_json()
        else:
            content_type, text = "application/json", json.dumps(document)
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # the opt-in structured access log in _dispatch replaces this

    def _dispatch(self, route: str, respond: Callable[[], tuple[int, Any]]) -> None:
        """Serve one routed request: span, response, metrics, access log.

        ``route`` is the route *template* (``/v1/jobs/{id}``, not the actual
        path), keeping the metric label cardinality bounded.
        """
        service = self.service
        start = time.perf_counter()
        with service.tracer.span(
            "service.request", category="service", method=self.command, route=route
        ) as span:
            status, document = respond()
            envelope = document if isinstance(document, ResultEnvelope) else None
            cache = envelope.cache if envelope is not None else None
            span.set("status", status)
            if cache is not None:
                span.set("cache", cache)
        self._respond(status, document)
        seconds = time.perf_counter() - start
        service.observe_request(route, status, seconds)
        if service.access_log:
            record = {
                "time": time.time(),
                "client": self.client_address[0],
                "method": self.command,
                "path": self.path,
                "route": route,
                "status": status,
                "duration_ms": round(seconds * 1e3, 3),
            }
            if cache is not None:
                record["cache"] = cache
            if envelope is not None and envelope.memo is not None:
                record["memo"] = envelope.memo
            sys.stderr.write(json.dumps(record) + "\n")

    def _with_body(
        self, handler: Callable[[str | None, bytes], tuple[int, Any]], token: str | None
    ) -> tuple[int, Any]:
        try:
            body = self._read_body()
        except ServiceError as error:
            return error.status, error.envelope()
        return handler(token, body)

    # -- routing --------------------------------------------------------- #
    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        token = self._token()
        path = self.path.split("?", 1)[0].rstrip("/")
        service = self.service
        if path == "/v1/healthz":
            self._dispatch("/v1/healthz", lambda: service.handle_healthz(token))
        elif path == "/v1/metrics":
            self._dispatch("/v1/metrics", lambda: service.handle_metrics(token))
        elif path == "/v1/stats":
            self._dispatch("/v1/stats", lambda: service.handle_stats(token))
        elif path.startswith("/v1/jobs/"):
            job_id = path[len("/v1/jobs/") :]
            self._dispatch("/v1/jobs/{id}", lambda: service.handle_job_status(token, job_id))
        elif path.startswith("/v1/results/"):
            fingerprint = path[len("/v1/results/") :]
            self._dispatch(
                "/v1/results/{fingerprint}",
                lambda: service.handle_result(token, fingerprint),
            )
        else:
            self._dispatch(
                "unmatched",
                lambda: (404, ServiceError(404, "not_found", f"no route GET {path}").envelope()),
            )

    def do_POST(self) -> None:  # noqa: N802 (stdlib naming)
        token = self._token()
        path = self.path.split("?", 1)[0].rstrip("/")
        service = self.service
        if path == "/v1/compile":
            self._dispatch(
                "/v1/compile", lambda: self._with_body(service.handle_compile, token)
            )
        elif path == "/v1/jobs":
            self._dispatch(
                "/v1/jobs", lambda: self._with_body(service.handle_submit_job, token)
            )
        else:
            self._dispatch(
                "unmatched",
                lambda: (404, ServiceError(404, "not_found", f"no route POST {path}").envelope()),
            )


class _TrackingHTTPServer(ThreadingHTTPServer):
    """Knows its open connections, so that shutting down ends them.

    Clients keep their connection alive between requests; a handler thread
    parked on an idle one would otherwise outlive ``shutdown()`` and go on
    answering for a service that is gone.
    """

    daemon_threads = True

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()

    def process_request_thread(self, request: socket.socket, client_address: Any) -> None:
        with self._connections_lock:
            self._connections.add(request)
        try:
            super().process_request_thread(request, client_address)
        finally:
            with self._connections_lock:
                self._connections.discard(request)

    def handle_error(self, request: socket.socket, client_address: Any) -> None:
        # A peer (or close_connections) ending a connection is not a fault of
        # the server: no traceback on stderr for it.
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)

    def close_connections(self) -> None:
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # the peer closed it first


class CompilationServer:
    """A threaded HTTP compilation server around one :class:`CompileService`.

    ``port=0`` binds an ephemeral port (tests); :meth:`start_in_thread` runs
    the accept loop on a daemon thread and returns immediately.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        machine: MachineModel | str | None = None,
        store=None,
        auth: ServiceAuth | None = None,
        job_workers: int = 2,
        session: Session | None = None,
        access_log: bool = False,
        trace_dir: str | None = None,
    ):
        self.service = CompileService(
            machine,
            store=store,
            auth=auth,
            job_workers=job_workers,
            session=session,
            access_log=access_log,
            trace_dir=trace_dir,
        )
        service = self.service

        class Handler(_ServiceHTTPRequestHandler):
            pass

        Handler.service = service
        self.httpd = _TrackingHTTPServer((host, port), Handler)
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        host, port = self.httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def serve_forever(self) -> None:
        self.httpd.serve_forever()

    def start_in_thread(self) -> threading.Thread:
        thread = threading.Thread(target=self.serve_forever, daemon=True, name="repro-service")
        thread.start()
        self._thread = thread
        return thread

    def shutdown(self) -> None:
        self.service.shutdown()
        self.httpd.shutdown()
        self.httpd.server_close()
        self.httpd.close_connections()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
