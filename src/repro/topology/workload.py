"""Workload emulators: sessions, arrival processes and ramp stages.

The closed-loop emulator mirrors the RUBiS client emulator the paper
drives its experiments with: a configurable number of concurrent client
sessions, each alternating exponentially-distributed think times with
requests drawn from a workload mix, across three stages -- up ramp,
runtime session and down ramp.

Two further drivers open new workload shapes on the same topologies:
open-loop Poisson arrivals (request rate independent of response times,
the assumption behind most queueing analysis) and bursty on/off phases
(flash-crowd style load).  All three collect the same client-side
metrics the overhead figures use: completed requests, throughput and
mean response time over the runtime window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from ..sim.kernel import Environment, Event
from ..sim.network import Network
from ..sim.node import Node
from ..sim.randomness import RandomStreams
from .groundtruth import GroundTruthRecorder


@dataclass(frozen=True)
class WorkloadStages:
    """Durations of the three emulation stages, in seconds."""

    up_ramp: float = 2.0
    runtime: float = 10.0
    down_ramp: float = 1.0

    def __post_init__(self) -> None:
        # Infinite stages never end and NaN fails every comparison, so
        # finiteness is checked first.
        if not (math.isfinite(self.runtime) and self.runtime > 0):
            raise ValueError(f"runtime must be positive and finite, got {self.runtime:g}")
        for name in ("up_ramp", "down_ramp"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be non-negative and finite, got {value:g}")

    @property
    def new_request_deadline(self) -> float:
        """No new requests are issued after the runtime session ends."""
        return self.up_ramp + self.runtime

    @property
    def measurement_window(self) -> Tuple[float, float]:
        """The window throughput and response times are reported over."""
        return (self.up_ramp, self.up_ramp + self.runtime)


@dataclass
class CompletedRequest:
    """Client-side record of one completed request."""

    request_id: int
    request_type: str
    issued_at: float
    completed_at: float

    @property
    def response_time(self) -> float:
        return self.completed_at - self.issued_at


@dataclass
class ClientMetrics:
    """Client-perceived performance of one run."""

    completed: List[CompletedRequest] = field(default_factory=list)
    stages: WorkloadStages = field(default_factory=WorkloadStages)

    def record(self, completed: CompletedRequest) -> None:
        self.completed.append(completed)

    @property
    def completed_count(self) -> int:
        return len(self.completed)

    def in_window(self) -> List[CompletedRequest]:
        start, end = self.stages.measurement_window
        return [r for r in self.completed if start <= r.completed_at <= end]

    def throughput(self) -> float:
        """Completed requests per second during the runtime window."""
        start, end = self.stages.measurement_window
        duration = max(end - start, 1e-9)
        return len(self.in_window()) / duration

    def mean_response_time(self) -> float:
        """Mean response time (seconds) of requests completed in the window."""
        window = self.in_window()
        if not window:
            return 0.0
        return sum(r.response_time for r in window) / len(window)

    def response_time_percentile(self, percentile: float) -> float:
        window = sorted(r.response_time for r in self.in_window())
        if not window:
            return 0.0
        rank = min(len(window) - 1, max(0, int(round(percentile / 100.0 * (len(window) - 1)))))
        return window[rank]

    def per_type_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for record in self.completed:
            counts[record.request_type] = counts.get(record.request_type, 0) + 1
        return counts


class _EmulatorBase:
    """Shared plumbing: issue one request against the frontend, record it."""

    def __init__(
        self,
        env: Environment,
        network: Network,
        client_nodes: Sequence[Node],
        frontend_ip: str,
        frontend_port: int,
        ground_truth: GroundTruthRecorder,
        rng: RandomStreams,
        mix: Sequence[Tuple[object, float]],
        stages: Optional[WorkloadStages] = None,
    ) -> None:
        if not client_nodes:
            raise ValueError("at least one client node is required")
        self.env = env
        self.network = network
        self.client_nodes = list(client_nodes)
        self.frontend_ip = frontend_ip
        self.frontend_port = frontend_port
        self.ground_truth = ground_truth
        self.rng = rng
        self.mix = list(mix)
        self.stages = stages or WorkloadStages()
        self.metrics = ClientMetrics(stages=self.stages)
        self.issued = 0

    def _issue_request(self, node: Node, request_type) -> Generator[Event, None, None]:
        request = self.ground_truth.new_request(request_type, issued_at=self.env.now)
        self.issued += 1
        connection = self.network.connect(node, self.frontend_ip, self.frontend_port)
        issued_at = self.env.now
        connection.client.send(
            None, request_type.request_bytes, request.request_id, request
        )
        reply = yield from connection.client.wait_data()
        del reply  # client nodes are untraced; nothing to log
        self.metrics.record(
            CompletedRequest(
                request_id=request.request_id,
                request_type=request_type.name,
                issued_at=issued_at,
                completed_at=self.env.now,
            )
        )


class ClientEmulator(_EmulatorBase):
    """Closed loop: ``num_clients`` concurrent think-time sessions."""

    def __init__(
        self,
        env: Environment,
        network: Network,
        client_nodes: Sequence[Node],
        frontend_ip: str,
        frontend_port: int,
        ground_truth: GroundTruthRecorder,
        rng: RandomStreams,
        mix: Sequence[Tuple[object, float]],
        num_clients: int,
        think_time: float = 5.5,
        stages: Optional[WorkloadStages] = None,
    ) -> None:
        if num_clients <= 0:
            raise ValueError("num_clients must be positive")
        super().__init__(
            env, network, client_nodes, frontend_ip, frontend_port,
            ground_truth, rng, mix, stages,
        )
        self.num_clients = num_clients
        self.think_time = think_time

    def start(self) -> None:
        """Launch every client session (staggered across the up ramp)."""
        for index in range(self.num_clients):
            start_delay = self.stages.up_ramp * index / max(1, self.num_clients)
            self.env.process(self._session(index, start_delay))

    # -- internals ---------------------------------------------------------------

    def _session(self, index: int, start_delay: float) -> Generator[Event, None, None]:
        yield self.env.timeout(start_delay)
        node = self.client_nodes[index % len(self.client_nodes)]
        deadline = self.stages.new_request_deadline
        stream = f"client.think.{index % 64}"
        while True:
            think = self.rng.exponential(stream, self.think_time)
            yield self.env.timeout(think)
            if self.env.now >= deadline:
                return
            request_type = self.rng.weighted_choice("client.mix", self.mix)
            yield from self._issue_request(node, request_type)
            if self.env.now >= deadline:
                return


class OpenLoopEmulator(_EmulatorBase):
    """Open loop: Poisson arrivals at ``arrival_rate`` requests/s.

    Every arrival runs as its own one-shot session, so slow responses do
    not throttle the offered load -- the defining property of open-loop
    traffic, and the regime where queues actually blow up.
    """

    def __init__(
        self,
        env: Environment,
        network: Network,
        client_nodes: Sequence[Node],
        frontend_ip: str,
        frontend_port: int,
        ground_truth: GroundTruthRecorder,
        rng: RandomStreams,
        mix: Sequence[Tuple[object, float]],
        arrival_rate: float,
        stages: Optional[WorkloadStages] = None,
    ) -> None:
        if arrival_rate <= 0:
            raise ValueError("arrival_rate must be positive")
        super().__init__(
            env, network, client_nodes, frontend_ip, frontend_port,
            ground_truth, rng, mix, stages,
        )
        self.arrival_rate = arrival_rate

    def start(self) -> None:
        self.env.process(self._arrivals())

    def _arrivals(self) -> Generator[Event, None, None]:
        deadline = self.stages.new_request_deadline
        mean_gap = 1.0 / self.arrival_rate
        index = 0
        while True:
            yield self.env.timeout(self.rng.exponential("client.arrivals", mean_gap))
            if self.env.now >= deadline:
                return
            request_type = self.rng.weighted_choice("client.mix", self.mix)
            node = self.client_nodes[index % len(self.client_nodes)]
            self.env.process(self._issue_request(node, request_type))
            index += 1


class BurstyEmulator(_EmulatorBase):
    """On/off phases: ``on_time`` s of Poisson arrivals, ``off_time`` s idle.

    Models flash-crowd style load; the off phases let engine state drain,
    which is what makes this shape interesting for the streaming
    correlator's watermark eviction.
    """

    def __init__(
        self,
        env: Environment,
        network: Network,
        client_nodes: Sequence[Node],
        frontend_ip: str,
        frontend_port: int,
        ground_truth: GroundTruthRecorder,
        rng: RandomStreams,
        mix: Sequence[Tuple[object, float]],
        arrival_rate: float,
        on_time: float = 1.0,
        off_time: float = 1.0,
        stages: Optional[WorkloadStages] = None,
    ) -> None:
        if arrival_rate <= 0:
            raise ValueError("arrival_rate must be positive")
        if on_time <= 0:
            raise ValueError("on_time must be positive")
        super().__init__(
            env, network, client_nodes, frontend_ip, frontend_port,
            ground_truth, rng, mix, stages,
        )
        self.arrival_rate = arrival_rate
        self.on_time = on_time
        self.off_time = off_time
        self.bursts = 0

    def start(self) -> None:
        self.env.process(self._phases())

    def _phases(self) -> Generator[Event, None, None]:
        deadline = self.stages.new_request_deadline
        mean_gap = 1.0 / self.arrival_rate
        index = 0
        while self.env.now < deadline:
            self.bursts += 1
            phase_end = min(self.env.now + self.on_time, deadline)
            while True:
                gap = self.rng.exponential("client.burst", mean_gap)
                if self.env.now + gap >= phase_end:
                    yield self.env.timeout(max(0.0, phase_end - self.env.now))
                    break
                yield self.env.timeout(gap)
                request_type = self.rng.weighted_choice("client.mix", self.mix)
                node = self.client_nodes[index % len(self.client_nodes)]
                self.env.process(self._issue_request(node, request_type))
                index += 1
            if self.env.now >= deadline:
                return
            yield self.env.timeout(self.off_time)


def make_emulator(
    spec,
    env: Environment,
    network: Network,
    client_nodes: Sequence[Node],
    frontend_ip: str,
    frontend_port: int,
    ground_truth: GroundTruthRecorder,
    rng: RandomStreams,
    mix: Sequence[Tuple[object, float]],
):
    """Build the emulator matching a :class:`~repro.topology.spec.WorkloadSpec`."""
    common = dict(
        env=env,
        network=network,
        client_nodes=client_nodes,
        frontend_ip=frontend_ip,
        frontend_port=frontend_port,
        ground_truth=ground_truth,
        rng=rng,
        mix=mix,
        stages=spec.stages,
    )
    if spec.kind == "closed":
        return ClientEmulator(
            num_clients=spec.clients, think_time=spec.think_time, **common
        )
    if spec.kind == "open":
        return OpenLoopEmulator(arrival_rate=spec.arrival_rate, **common)
    if spec.kind == "bursty":
        return BurstyEmulator(
            arrival_rate=spec.arrival_rate,
            on_time=spec.on_time,
            off_time=spec.off_time,
            **common,
        )
    raise ValueError(f"unknown workload kind {spec.kind!r}")
