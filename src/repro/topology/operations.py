"""Topology-neutral cost models of service operations.

A :class:`RequestType` describes one interaction of an emulated service:
CPU demands at the entry tier and the worker tiers, the database queries
it issues, and the message sizes on every hop.  A :class:`QuerySpec`
describes one unit of backend work.  Historically these dataclasses were
defined by the RUBiS catalogue (:mod:`repro.topology.requests`); the
generic tier engine reads them through role-neutral aliases
(``frontend_cpu``, ``worker_cpu``, ...) so any scenario catalogue can
reuse the same cost vocabulary.

The legacy field names (``httpd_cpu``, ``app_cpu``) are kept because the
RUBiS catalogue and its tests use them; they map onto the tier roles as

======================  =======================================
field                    role-neutral meaning
======================  =======================================
``httpd_cpu``            frontend CPU to parse/proxy a request
``httpd_reply_cpu``      frontend CPU to relay the reply
``app_cpu``              worker CPU for business logic
``app_per_query_cpu``    worker CPU per downstream reply
``app_reply_cpu``        worker CPU to render the reply
``app_request_bytes``    bytes of the frontend->worker (or
                         worker->worker chain) request
``app_reply_bytes``      bytes of the worker's reply upstream
======================  =======================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class QuerySpec:
    """One unit of backend work issued by a worker tier."""

    name: str
    #: CPU consumed on the backend node, seconds.
    db_cpu: float = 0.0012
    #: Dispatch latency before the connection thread picks the query up
    #: (protocol handling, connection scheduling); observed by the tracer
    #: as part of the worker->backend interaction.
    dispatch_delay: float = 0.040
    #: Engine-time of the query (buffer pool, row access) while holding a
    #: backend-engine slot; observed as backend-internal latency.
    engine_delay: float = 0.025
    #: Result-set size in bytes.
    reply_bytes: int = 8_000
    #: Query text size in bytes.
    query_bytes: int = 220
    #: Whether the query touches the ``items`` table (the Database_Lock
    #: fault of Section 5.4.2 injects extra lock wait on those).
    touches_items: bool = False


@dataclass(frozen=True)
class RequestType:
    """One service interaction (one URL of the emulated site)."""

    name: str
    #: CPU on the frontend tier to parse the request and proxy it.
    httpd_cpu: float = 0.0015
    #: CPU on a worker tier for business logic (excluding per-reply
    #: parsing, accounted separately).
    app_cpu: float = 0.005
    #: CPU on a worker tier per downstream reply processed.
    app_per_query_cpu: float = 0.00025
    #: CPU on a worker tier to render the reply.
    app_reply_cpu: float = 0.0005
    #: CPU on the frontend tier to relay the response to the client.
    httpd_reply_cpu: float = 0.0005
    #: Backend queries issued, in order.
    queries: Tuple[QuerySpec, ...] = ()
    #: Message sizes (bytes).
    request_bytes: int = 420
    app_request_bytes: int = 600
    app_reply_bytes: int = 18_000
    reply_bytes: int = 22_000
    #: True for read-write interactions.
    writes: bool = False

    # -- role-neutral aliases (what the generic tier engine reads) ---------

    @property
    def frontend_cpu(self) -> float:
        return self.httpd_cpu

    @property
    def frontend_reply_cpu(self) -> float:
        return self.httpd_reply_cpu

    @property
    def worker_cpu(self) -> float:
        return self.app_cpu

    @property
    def worker_per_reply_cpu(self) -> float:
        return self.app_per_query_cpu

    @property
    def worker_reply_cpu(self) -> float:
        return self.app_reply_cpu

    @property
    def worker_request_bytes(self) -> int:
        return self.app_request_bytes

    @property
    def worker_reply_bytes(self) -> int:
        return self.app_reply_bytes

    @property
    def query_count(self) -> int:
        return len(self.queries)

    def total_db_engine_time(self) -> float:
        return sum(q.engine_delay + q.db_cpu for q in self.queries)
