"""The simulated TCP_TRACE probe.

The paper's instrumentation is a SystemTap module that hooks
``tcp_sendmsg`` and ``tcp_recvmsg`` and logs one record per call with the
process context and the connection identifier.  Our cluster is simulated,
so the probe hooks the simulated socket layer instead
(:mod:`repro.sim.network` calls :meth:`TcpTraceProbe.log_send` /
:meth:`log_receive`), but it produces records in the *same* textual format
and with the same semantics:

* the timestamp is the **local** clock of the node, including its skew;
* the context identifier is the process/thread that performed the call;
* the message identifier is the connection 4-tuple plus the byte count of
  this call (which, due to segmentation, may be only part of a logical
  message);
* an optional ``#rid=`` annotation carries the ground-truth request id.
  It is written for the accuracy evaluation only; the tracer never parses
  it into anything the algorithm uses.

The probe also models the instrumentation overhead: each logged record
costs :attr:`overhead_per_activity` seconds of CPU on the observed node,
which the tiers account for when they compute.  This is what the
enable/disable comparison of Fig. 12 and Fig. 13 measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..core.log_format import RawRecord, format_record
from .node import ExecutionEntity, Node

#: Default probe cost per logged activity, in CPU-seconds.  SystemTap
#: probes cost a few microseconds each; we use a slightly conservative
#: value so the overhead is visible but small, matching the <=3.7 %
#: throughput impact the paper reports.
DEFAULT_PROBE_OVERHEAD = 25e-6


@dataclass
class TcpTraceProbe:
    """Per-node activity logger (the TCP_TRACE module)."""

    node: Node
    overhead_per_activity: float = DEFAULT_PROBE_OVERHEAD
    records: List[RawRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.node.probe = self
        self.node.traced = True

    # -- logging hooks -------------------------------------------------------

    def log_send(
        self,
        entity: ExecutionEntity,
        src_ip: str,
        src_port: int,
        dst_ip: str,
        dst_port: int,
        size: int,
        request_id: Optional[int] = None,
    ) -> RawRecord:
        """Record one ``tcp_sendmsg`` call."""
        record = RawRecord(
            timestamp=self.node.local_time(),
            hostname=entity.hostname,
            program=entity.program,
            pid=entity.pid,
            tid=entity.tid,
            direction="SEND",
            src_ip=src_ip,
            src_port=src_port,
            dst_ip=dst_ip,
            dst_port=dst_port,
            size=size,
            request_id=request_id,
        )
        self.records.append(record)
        return record

    def log_receive(
        self,
        entity: ExecutionEntity,
        src_ip: str,
        src_port: int,
        dst_ip: str,
        dst_port: int,
        size: int,
        request_id: Optional[int] = None,
    ) -> RawRecord:
        """Record one ``tcp_recvmsg`` call.

        ``src`` is always the *sender* of the bytes (the remote peer), just
        as in the paper's record format, so SEND and RECEIVE records of the
        same message share one connection 4-tuple.
        """
        record = RawRecord(
            timestamp=self.node.local_time(),
            hostname=entity.hostname,
            program=entity.program,
            pid=entity.pid,
            tid=entity.tid,
            direction="RECEIVE",
            src_ip=src_ip,
            src_port=src_port,
            dst_ip=dst_ip,
            dst_port=dst_port,
            size=size,
            request_id=request_id,
        )
        self.records.append(record)
        return record

    # -- export ----------------------------------------------------------------

    def lines(self) -> List[str]:
        """The node's trace file, one TCP_TRACE line per record."""
        return [format_record(record) for record in self.records]

    def record_count(self) -> int:
        return len(self.records)

    def clear(self) -> None:
        self.records.clear()


class TraceCollector:
    """Gathers the per-node probes of one deployment."""

    def __init__(self) -> None:
        self._probes: List[TcpTraceProbe] = []

    def attach(
        self, node: Node, overhead_per_activity: float = DEFAULT_PROBE_OVERHEAD
    ) -> TcpTraceProbe:
        """Install a probe on ``node`` and track it."""
        probe = TcpTraceProbe(node=node, overhead_per_activity=overhead_per_activity)
        self._probes.append(probe)
        return probe

    @property
    def probes(self) -> List[TcpTraceProbe]:
        return list(self._probes)

    def records_by_node(self) -> dict:
        """Mapping hostname -> list of raw records (gathered log files)."""
        return {probe.node.hostname: list(probe.records) for probe in self._probes}

    def all_records(self) -> List[RawRecord]:
        records: List[RawRecord] = []
        for probe in self._probes:
            records.extend(probe.records)
        return records

    def total_records(self) -> int:
        return sum(len(probe.records) for probe in self._probes)
