"""Noise-traffic generators (Section 4.3 and Section 5.3.3).

Two kinds of noise coexist with the traced service on its nodes:

* **Attribute-filterable noise** -- interactive ``ssh`` / ``rlogin``
  sessions between the traced nodes and an external host.  Their kernel
  activities carry the ``sshd`` / ``rlogind`` program names and can be
  dropped by the attribute filter of the classifier.
* **Non-filterable noise** -- a MySQL command-line client on an *untraced*
  machine querying the same ``mysqld`` that serves the application tier.
  The database-side activities carry the ``mysqld`` program name and the
  database's own IP/port, so no attribute can remove them; only the
  ``is_noise`` test of the ranker (no matching SEND anywhere) discards
  them.  Fig. 14 measures the cost of doing so.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Optional

from ..sim.kernel import Environment, Event
from ..sim.network import Network
from ..sim.node import Node
from ..sim.randomness import RandomStreams

if TYPE_CHECKING:  # the topology layer builds on this module
    from ..topology.operations import QuerySpec


@dataclass
class NoiseConfig:
    """Noise levels for one run.  All zero by default (clean environment)."""

    #: new interactive ssh/rlogin message exchanges per second per traced node
    ssh_rate: float = 0.0
    #: queries per second issued by the external MySQL command-line client
    mysql_client_rate: float = 0.0
    #: bytes per interactive message
    ssh_bytes: int = 160
    #: bytes per noise query / reply
    mysql_query_bytes: int = 240
    mysql_reply_bytes: int = 900
    #: service demand of one noise query at the database (kept light so the
    #: noise perturbs the correlator, not the service under test)
    mysql_engine_delay: float = 0.002
    mysql_db_cpu: float = 0.0003

    @property
    def enabled(self) -> bool:
        return self.ssh_rate > 0 or self.mysql_client_rate > 0

    @classmethod
    def quiet(cls) -> "NoiseConfig":
        return cls()

    @classmethod
    def paper_noise(cls, scale: float = 1.0) -> "NoiseConfig":
        """Roughly the paper's Section 5.3.3 environment, scaled.

        The paper injects about 200 K MySQL-client activities during a
        ~10-minute run (~300/s) plus interactive ssh/rlogin traffic.
        """
        return cls(ssh_rate=4.0 * scale, mysql_client_rate=150.0 * scale)


class SshNoiseGenerator:
    """Interactive ssh/rlogin chatter originating on a traced node.

    The traced-node side runs under the ``sshd`` / ``rlogind`` program
    name; the peer is an external workstation that is not traced.  Each
    exchange is one small send and one small receive on the traced node.
    """

    def __init__(
        self,
        env: Environment,
        network: Network,
        traced_node: Node,
        external_node: Node,
        config: NoiseConfig,
        rng: RandomStreams,
        program: str = "sshd",
        stop_at: Optional[float] = None,
    ) -> None:
        self.env = env
        self.network = network
        self.traced_node = traced_node
        self.external_node = external_node
        self.config = config
        self.rng = rng
        self.program = program
        self.stop_at = stop_at
        self.exchanges = 0

    def start(self) -> None:
        if self.config.ssh_rate <= 0:
            return
        self.env.process(self._run())

    def _run(self) -> Generator[Event, None, None]:
        # The interactive daemon on the traced node; every exchange reuses
        # this entity, like a long-lived sshd session process.
        daemon = self.traced_node.new_process(self.program)
        # A long-lived TCP connection from the external workstation.
        listener_port = 22 if self.program == "sshd" else 513
        listener = self.network.listener_for(self.traced_node.ip, listener_port)
        if listener is None:
            listener = self.network.listen(self.traced_node, self.traced_node.ip, listener_port)
        connection = self.network.connect(
            self.external_node, self.traced_node.ip, listener_port
        )
        server_side = connection.server
        mean_gap = 1.0 / self.config.ssh_rate
        stream = f"noise.ssh.{self.traced_node.hostname}.{self.program}"
        while self.stop_at is None or self.env.now < self.stop_at:
            yield self.env.timeout(self.rng.exponential(stream, mean_gap))
            if self.stop_at is not None and self.env.now >= self.stop_at:
                break
            # keystroke from the external side (untraced), echo from the daemon
            connection.client.send(None, self.config.ssh_bytes)
            message = yield from server_side.wait_data()
            server_side.read(daemon, message)
            server_side.send(daemon, self.config.ssh_bytes)
            self.exchanges += 1


class MysqlClientNoiseGenerator:
    """An external ``mysql`` command-line client hammering the shared database.

    The client host is untraced, so only the database side of the traffic
    appears in the logs -- under the ``mysqld`` program name and the
    database's own address, which defeats attribute filtering.  ``query``
    is the backend work item every noise query carries (the deployment
    sizes it from ``config``).
    """

    def __init__(
        self,
        env: Environment,
        network: Network,
        external_node: Node,
        db_ip: str,
        db_port: int,
        config: NoiseConfig,
        rng: RandomStreams,
        query: QuerySpec,
        stop_at: Optional[float] = None,
        sessions: int = 4,
    ) -> None:
        self.env = env
        self.network = network
        self.external_node = external_node
        self.db_ip = db_ip
        self.db_port = db_port
        self.config = config
        self.rng = rng
        self.query = query
        self.stop_at = stop_at
        self.sessions = max(1, sessions)
        self.queries_issued = 0

    def start(self) -> None:
        if self.config.mysql_client_rate <= 0:
            return
        for index in range(self.sessions):
            self.env.process(self._session(index))

    def _session(self, index: int) -> Generator[Event, None, None]:
        connection = self.network.connect(self.external_node, self.db_ip, self.db_port)
        client_side = connection.client
        per_session_rate = self.config.mysql_client_rate / self.sessions
        mean_gap = 1.0 / per_session_rate
        stream = f"noise.mysql.{index}"
        query = self.query
        while self.stop_at is None or self.env.now < self.stop_at:
            yield self.env.timeout(self.rng.exponential(stream, mean_gap))
            if self.stop_at is not None and self.env.now >= self.stop_at:
                break
            # payload shape matches what the database tier expects:
            # (request-or-None, QuerySpec); None marks it as noise.
            client_side.send(
                None, self.config.mysql_query_bytes, request_id=None, payload=(None, query)
            )
            reply = yield from client_side.wait_data()
            del reply  # the external client is untraced; nothing to log
            self.queries_issued += 1
