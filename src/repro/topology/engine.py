"""The generic service-tier engine: one interpreter for every topology.

Three role interpreters cover the worker-pool shapes the paper's
deployment exhibits (and that the kernel-level context identifier can
distinguish):

* :class:`FrontendTier` -- Apache-prefork style: single-threaded worker
  processes, one request per client connection, synchronous proxying to
  exactly one downstream tier over per-worker persistent connections.
* :class:`WorkerTier` -- JBoss style: one process owning a bounded thread
  pool; requests queue for a free thread (visible to the tracer as
  upstream->worker interaction latency), then issue downstream calls
  following the tier's pattern: ``sequential`` per-query round trips,
  ``chain`` forwarding to the next worker tier, ``fanout`` scatter/gather
  across several backends, or ``cache_aside`` with a configurable hit
  ratio against a cache tier backed by a store tier.
* :class:`BackendTier` -- MySQL style: a dedicated kernel thread per
  connection, queries contending for bounded engine slots; congestion
  surfaces as worker->backend interaction latency, execution time as
  backend-internal latency.

A tier with ``replicas > 1`` is instantiated once per replica node;
upstream tiers pick a replica round robin when they open a persistent
connection (:class:`ReplicaRouter` -- a virtual L4 load balancer).

Interpreting the RUBiS :class:`~repro.topology.spec.TierSpec` triple with
this engine reproduces the original hand-written ``httpd.py`` /
``appserver.py`` / ``database.py`` tiers byte for byte: same RNG stream
names and draw order, same kernel activities, same event ordering.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Generator, List, Optional, Tuple

from ..services.faults import FaultConfig
from ..sim.kernel import Environment, Event, Resource
from ..sim.network import Endpoint, Network
from ..sim.node import ExecutionEntity, Node
from ..sim.randomness import RandomStreams
from .groundtruth import GroundTruthRecorder, TracedRequest
from .spec import TierSpec


class ReplicaRouter:
    """Round-robin address selection over each tier's replicas.

    Stands in for an L4 load balancer: upstream tiers ask for the next
    address of a tier when they establish a persistent connection, which
    spreads their workers across replicas without any per-request device
    in the data path (nothing extra shows up in the traces).
    """

    def __init__(self) -> None:
        self._addresses: Dict[str, List[Tuple[str, int]]] = {}
        self._cursor: Dict[str, int] = {}

    def register(self, tier_name: str, addresses: List[Tuple[str, int]]) -> None:
        self._addresses[tier_name] = list(addresses)
        self._cursor[tier_name] = 0

    def next_address(self, tier_name: str) -> Tuple[str, int]:
        addresses = self._addresses.get(tier_name)
        if not addresses:
            raise KeyError(f"no tier registered under {tier_name!r}")
        index = self._cursor[tier_name]
        self._cursor[tier_name] = (index + 1) % len(addresses)
        return addresses[index]


class _TierBase:
    """Listener plus lazy persistent downstream connections (one per worker)."""

    def __init__(
        self,
        env: Environment,
        node: Node,
        network: Network,
        ground_truth: GroundTruthRecorder,
        rng: RandomStreams,
        spec: TierSpec,
        router: ReplicaRouter,
        faults: Optional[FaultConfig] = None,
    ) -> None:
        self.env = env
        self.node = node
        self.network = network
        self.ground_truth = ground_truth
        self.rng = rng
        self.spec = spec
        self.router = router
        self.faults = faults or FaultConfig.none()
        self.streams = spec.streams
        self.listener = network.listen(node, node.ip, spec.port)
        self._down_endpoints: Dict[Tuple[ExecutionEntity, str], Endpoint] = {}

    def _accept_loop(self) -> Generator[Event, None, None]:
        while True:
            endpoint = yield self.listener.accept()
            self.env.process(self._serve_connection(endpoint))

    def _serve_connection(self, endpoint: Endpoint):  # pragma: no cover - abstract
        raise NotImplementedError

    def _downstream_endpoint(self, entity: ExecutionEntity, tier_name: str) -> Endpoint:
        """The entity's persistent connection to (one replica of) a tier."""
        key = (entity, tier_name)
        endpoint = self._down_endpoints.get(key)
        if endpoint is None:
            ip, port = self.router.next_address(tier_name)
            connection = self.network.connect(self.node, ip, port)
            endpoint = connection.client
            self._down_endpoints[key] = endpoint
        return endpoint


class FrontendTier(_TierBase):
    """Prefork worker processes proxying to one downstream tier."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.worker_pool = Resource(self.env, self.spec.workers)
        self._idle_workers: Deque[ExecutionEntity] = deque(
            self.node.new_process(self.spec.program) for _ in range(self.spec.workers)
        )
        self.requests_served = 0
        self.env.process(self._accept_loop())

    def _serve_connection(self, endpoint: Endpoint) -> Generator[Event, None, None]:
        """Serve one client connection (one request per connection)."""
        message = yield from endpoint.wait_data()
        request: Optional[TracedRequest] = message.payload
        if request is None:
            return
        grant = yield self.worker_pool.request()
        worker = self._idle_workers.popleft()
        try:
            yield from self._handle_request(endpoint, worker, message, request)
        finally:
            self._idle_workers.append(worker)
            self.worker_pool.release(grant)

    def _handle_request(
        self,
        endpoint: Endpoint,
        worker: ExecutionEntity,
        message,
        request: TracedRequest,
    ) -> Generator[Event, None, None]:
        operation = request.request_type
        scale = self.spec.cpu_scale

        # The worker reads the request: the kernel logs the RECEIVE that
        # the classifier will turn into the BEGIN of this causal path.
        endpoint.read(worker, message)
        self.ground_truth.note_context(request, worker)
        self.ground_truth.note_start(request, self.node.local_time())

        parse_cpu = self.rng.lognormal_like(
            f"{self.streams}.parse", operation.frontend_cpu * scale
        )
        yield from self.node.compute(parse_cpu + self.node.tracing_overhead(3))

        # Proxy downstream on this worker's persistent connection.
        down = self._downstream_endpoint(worker, self.spec.downstream[0])
        down.send(
            worker, operation.worker_request_bytes, request.request_id, request
        )
        reply = yield from down.recv(worker)
        del reply

        relay_cpu = self.rng.lognormal_like(
            f"{self.streams}.relay", operation.frontend_reply_cpu * scale
        )
        yield from self.node.compute(relay_cpu + self.node.tracing_overhead(3))

        # Write the response back to the client: the END of the causal path.
        endpoint.send(worker, operation.reply_bytes, request.request_id, request)
        self.ground_truth.note_end(request, self.node.local_time())
        self.requests_served += 1


class WorkerTier(_TierBase):
    """One process with a bounded thread pool and a downstream call pattern."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.process = self.node.new_process(self.spec.program)
        self.thread_pool = Resource(self.env, self.spec.workers)
        self._idle_threads: Deque[ExecutionEntity] = deque(
            self.node.new_thread(self.process) for _ in range(self.spec.workers)
        )
        self.requests_served = 0
        self.env.process(self._accept_loop())

    @property
    def max_threads(self) -> int:
        return self.spec.workers

    def _serve_connection(self, endpoint: Endpoint) -> Generator[Event, None, None]:
        """Handle the stream of requests on one persistent upstream connection.

        The upstream worker on the other end is synchronous, so requests
        on one connection are strictly sequential.
        """
        while True:
            message = yield from endpoint.wait_data()
            yield from self._handle_request(endpoint, message)

    def _handle_request(self, endpoint: Endpoint, message) -> Generator[Event, None, None]:
        request: Optional[TracedRequest] = message.payload
        if request is None:
            return
        operation = request.request_type
        scale = self.spec.cpu_scale

        # Wait for a free pool thread; under high load this wait dominates
        # and surfaces as upstream->worker interaction latency.
        grant = yield self.thread_pool.request()
        thread = self._idle_threads.popleft()
        try:
            endpoint.read(thread, message)
            self.ground_truth.note_context(request, thread)

            business_cpu = self.rng.lognormal_like(
                f"{self.streams}.business", operation.worker_cpu * scale
            )
            yield from self.node.compute(business_cpu + self.node.tracing_overhead(3))

            if self.faults.ejb_delay is not None and self.spec.delay_fault_target:
                # Abnormal case 1: a random delay inside the business logic.
                yield self.env.timeout(self.faults.ejb_delay.sample(self.rng))

            yield from self._call_downstream(thread, request, operation)

            render_cpu = self.rng.lognormal_like(
                f"{self.streams}.render", operation.worker_reply_cpu * scale
            )
            yield from self.node.compute(render_cpu + self.node.tracing_overhead(1))

            endpoint.send(
                thread, operation.worker_reply_bytes, request.request_id, request
            )
            self.requests_served += 1
        finally:
            self._idle_threads.append(thread)
            self.thread_pool.release(grant)

    # -- downstream call patterns -------------------------------------------

    def _call_downstream(
        self, thread: ExecutionEntity, request: TracedRequest, operation
    ) -> Generator[Event, None, None]:
        pattern = self.spec.pattern
        if pattern == "sequential":
            yield from self._sequential(thread, request, operation)
        elif pattern == "chain":
            yield from self._chain(thread, request, operation)
        elif pattern == "fanout":
            yield from self._fanout(thread, request, operation)
        elif pattern == "cache_aside":
            yield from self._cache_aside(thread, request, operation)
        else:  # pragma: no cover - specs validate the pattern eagerly
            raise ValueError(f"unknown call pattern {pattern!r}")

    def _parse_reply(self, thread: ExecutionEntity, operation) -> Generator[Event, None, None]:
        parse_cpu = self.rng.lognormal_like(
            f"{self.streams}.query_parse",
            operation.worker_per_reply_cpu * self.spec.cpu_scale,
        )
        yield from self.node.compute(parse_cpu + self.node.tracing_overhead(2))

    def _query_round_trip(
        self, thread: ExecutionEntity, target: str, request: TracedRequest, query, operation
    ) -> Generator[Event, None, None]:
        endpoint = self._downstream_endpoint(thread, target)
        endpoint.send(thread, query.query_bytes, request.request_id, (request, query))
        reply = yield from endpoint.recv(thread)
        del reply
        yield from self._parse_reply(thread, operation)

    def _sequential(self, thread, request, operation) -> Generator[Event, None, None]:
        """Per-query round trips, queries routed over the downstream tiers."""
        targets = self.spec.downstream
        for index, query in enumerate(operation.queries):
            target = targets[index % len(targets)]
            yield from self._query_round_trip(thread, target, request, query, operation)

    def _chain(self, thread, request, operation) -> Generator[Event, None, None]:
        """Forward the whole request to the next worker tier and wait."""
        endpoint = self._downstream_endpoint(thread, self.spec.downstream[0])
        endpoint.send(
            thread, operation.worker_request_bytes, request.request_id, request
        )
        reply = yield from endpoint.recv(thread)
        del reply
        yield from self._parse_reply(thread, operation)

    def _fanout(self, thread, request, operation) -> Generator[Event, None, None]:
        """Scatter the operation's queries across all downstream tiers, then join.

        Sub-requests go out back to back before any reply is read, so the
        backends work in parallel; the join happens in arrival order of
        the scatter (the aggregator reads replies from each branch in
        turn, like a synchronous gather loop).
        """
        targets = self.spec.downstream
        batches: List[List] = [[] for _ in targets]
        for index, query in enumerate(operation.queries):
            batches[index % len(targets)].append(query)
        scattered: List[Endpoint] = []
        for target, batch in zip(targets, batches):
            if not batch:
                continue
            work = tuple(batch)
            endpoint = self._downstream_endpoint(thread, target)
            endpoint.send(
                thread,
                sum(query.query_bytes for query in work),
                request.request_id,
                (request, work),
            )
            scattered.append(endpoint)
        for endpoint in scattered:
            reply = yield from endpoint.recv(thread)
            del reply
            yield from self._parse_reply(thread, operation)

    def _cache_aside(self, thread, request, operation) -> Generator[Event, None, None]:
        """Cache-aside reads: hit -> cache only, miss -> cache lookup + store.

        The hit/miss decision is drawn once per request from the tier's
        own RNG stream, so the hit ratio is an independent knob of the
        scenario (and reproducible under the experiment seed).
        """
        cache_tier, store_tier = self.spec.downstream
        hit = (
            self.rng.uniform(f"{self.streams}.cache_hit", 0.0, 1.0)
            <= self.spec.cache_hit_ratio
        )
        if hit:
            for query in operation.queries:
                yield from self._query_round_trip(
                    thread, cache_tier, request, query, operation
                )
            return
        # Miss: the lookup still costs a (cheap) cache round trip, then
        # every query goes to the backing store.
        if operation.queries:
            yield from self._query_round_trip(
                thread, cache_tier, request, operation.queries[0], operation
            )
        for query in operation.queries:
            yield from self._query_round_trip(
                thread, store_tier, request, query, operation
            )


class BackendTier(_TierBase):
    """Per-connection threads contending for bounded engine slots."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.process = self.node.new_process(self.spec.program)
        self.engine = Resource(self.env, self.spec.workers)
        self.queries_served = 0
        self.noise_queries_served = 0
        self.env.process(self._accept_loop())

    def _serve_connection(self, endpoint: Endpoint) -> Generator[Event, None, None]:
        """Dedicated per-connection thread: handle queries sequentially."""
        thread = self.node.new_thread(self.process)
        while True:
            message = yield from endpoint.wait_data()
            yield from self._handle_query(endpoint, thread, message)

    def _handle_query(
        self, endpoint: Endpoint, thread: ExecutionEntity, message
    ) -> Generator[Event, None, None]:
        request, work = message.payload
        queries = work if isinstance(work, tuple) else (work,)
        scale = self.spec.service_scale

        # Connection/protocol dispatch before the thread reads the query;
        # seen by the tracer as part of the worker -> backend interaction.
        dispatch = self.rng.lognormal_like(
            f"{self.streams}.dispatch", queries[0].dispatch_delay * scale
        )
        if dispatch > 0:
            yield self.env.timeout(dispatch)

        # Wait for an engine slot (InnoDB-style concurrency ticket).
        # Congestion here also delays the read below, i.e. it is charged
        # to the interaction, matching how a loaded backend looks from
        # outside.
        grant = yield self.engine.request()
        try:
            endpoint.read(thread, message)
            self.ground_truth.note_context(request, thread)

            for query in queries:
                cpu = self.rng.lognormal_like(f"{self.streams}.cpu", query.db_cpu * scale)
                yield from self.node.compute(cpu + self.node.tracing_overhead(2))

                engine_delay = self.rng.lognormal_like(
                    f"{self.streams}.engine", query.engine_delay * scale
                )
                if (
                    self.faults.database_lock is not None
                    and query.touches_items
                    and request is not None
                ):
                    # Abnormal case 2: the items table is locked; queries
                    # that touch it wait for the lock holding their slot.
                    engine_delay += self.faults.database_lock.sample(self.rng)
                if engine_delay > 0:
                    yield self.env.timeout(engine_delay)
        finally:
            self.engine.release(grant)

        request_id = request.request_id if request is not None else None
        endpoint.send(
            thread,
            sum(query.reply_bytes for query in queries),
            request_id,
            (request, work),
        )
        if request is None:
            self.noise_queries_served += len(queries)
        else:
            self.queries_served += len(queries)


ROLE_ENGINES = {
    "frontend": FrontendTier,
    "worker": WorkerTier,
    "backend": BackendTier,
}


class TierGroup:
    """All replicas of one tier plus their aggregate counters."""

    def __init__(self, spec: TierSpec) -> None:
        self.spec = spec
        self.replicas: List[_TierBase] = []

    @property
    def primary(self) -> _TierBase:
        return self.replicas[0]

    @property
    def nodes(self) -> List[Node]:
        return [replica.node for replica in self.replicas]

    @property
    def requests_served(self) -> int:
        return sum(getattr(replica, "requests_served", 0) for replica in self.replicas)

    @property
    def queries_served(self) -> int:
        return sum(getattr(replica, "queries_served", 0) for replica in self.replicas)
