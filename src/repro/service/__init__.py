"""Scheduling as a service: a compilation server over :mod:`repro.pipeline`.

The scheduler is deterministic — a compilation result is a pure function of
the ``(scop, config, machine)`` content fingerprints — so results are
perfectly shareable across clients, processes and restarts.  This package
promotes the in-process :class:`~repro.pipeline.Session` into that shared
service:

* :mod:`repro.service.store` — persistent, fingerprint-keyed result store
  (SQLite + TTL + schema versioning, with an in-memory LRU front);
* :mod:`repro.service.wire` — versioned JSON wire format with explicit
  error codes;
* :mod:`repro.service.server` — stdlib HTTP front door with token/capability
  auth, structured error envelopes and async jobs with per-stage progress;
* :mod:`repro.service.client` — stdlib ``http.client`` client on one kept-alive
  connection;
* ``python -m repro.service`` — serve / compile / stats command line.

.. code-block:: python

    from repro.service import CompilationServer, ServiceClient, SqliteResultStore

    server = CompilationServer(store=SqliteResultStore("results.sqlite"))
    server.start_in_thread()
    client = ServiceClient(server.url)
    response = client.compile(scop, config, machine="Intel1")
"""

from .client import CompileResponse, ServiceClient, ServiceClientError
from .server import (
    CAPABILITIES,
    CompilationServer,
    CompileService,
    JobManager,
    ServiceAuth,
    ServiceError,
    with_route_errors,
)
from .store import ResultStore, SqliteResultStore
from .wire import WIRE_VERSION, WireError, decode_compile_request, encode_compile_request

__all__ = [
    "CAPABILITIES",
    "WIRE_VERSION",
    "CompilationServer",
    "CompileResponse",
    "CompileService",
    "JobManager",
    "ResultStore",
    "ServiceAuth",
    "ServiceClient",
    "ServiceClientError",
    "ServiceError",
    "SqliteResultStore",
    "WireError",
    "decode_compile_request",
    "encode_compile_request",
    "with_route_errors",
]
