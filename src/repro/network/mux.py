"""Per-device, per-query demultiplexing of network deliveries.

The opportunistic network (:mod:`repro.network.opnet`) registers **one**
handler per device — the right model for a physical radio, but a latent
single-query assumption once several Edgelet queries execute
concurrently over one shared device population: whichever execution
attached last would swallow every delivery, including messages belonging
to another query (or to a *finished* one whose stragglers are still in
flight).

:class:`QueryMux` turns each device's single radio handler into a
routing table keyed by the ``query`` message header.  Executions never
talk to the mux directly; they receive a :class:`QueryEndpoint` — an
opnet-compatible facade (``send``/``attach``/``is_dead``/``simulator``)
scoped to one ``query_id`` that

* stamps ``headers["query"]`` on every outbound message, and
* registers inbound handlers in the mux's routing table instead of
  overwriting the device's radio handler.

Messages whose query has been detached (the execution completed) are
*dropped at the mux* and counted in ``net.mux_unrouted`` — stale
cross-query traffic can therefore never contaminate a later execution.
Messages without a ``query`` header fall back to the device's sole
registered route when exactly one exists, which keeps single-query
paths bit-for-bit compatible.

Layering: this module sits next to the opnet, strictly below
``repro.core`` (enforced by ``tools/check_layering.py``).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.network.messages import Message

__all__ = ["QUERY_HEADER", "QueryEndpoint", "QueryMux"]

Handler = Callable[[Message], None]

#: Transport-level header naming the query an application message
#: belongs to.  Stamped by :meth:`QueryEndpoint.send`; opaque to the
#: network and never part of the sealed payload.
QUERY_HEADER = "query"


class QueryMux:
    """Routes each device's deliveries to per-query handlers.

    Args:
        network: the underlying :class:`~repro.network.opnet.
            OpportunisticNetwork` (or any object with the same
            ``send``/``attach``/``is_dead``/``simulator``/``telemetry``
            surface).
        telemetry: defaults to the network's instance.
    """

    def __init__(self, network: Any, telemetry: Any = None):
        self.network = network
        self.simulator = network.simulator
        if telemetry is None:
            telemetry = network.telemetry
        self.telemetry = telemetry
        # device_id -> query_id -> handler
        self._routes: dict[str, dict[str, Handler]] = {}
        self._radio_attached: set[str] = set()
        self.unrouted = 0
        self._m_unrouted: dict[str, Any] = {}

    # -- endpoint factory ---------------------------------------------------

    def endpoint(self, query_id: str) -> "QueryEndpoint":
        """An opnet-compatible facade scoped to ``query_id``."""
        return QueryEndpoint(self, query_id)

    # -- registration -------------------------------------------------------

    def attach(self, device_id: str, query_id: str, handler: Handler) -> None:
        """Route ``device_id``'s deliveries for ``query_id`` to ``handler``."""
        routes = self._routes.setdefault(device_id, {})
        routes[query_id] = handler
        if device_id not in self._radio_attached:
            self._radio_attached.add(device_id)
            self.network.attach(device_id, self._make_radio(device_id))

    def detach_query(self, query_id: str) -> None:
        """Remove every route of a (finished) query.

        Subsequent deliveries addressed to it are dropped and counted —
        the isolation fence auditing that no straggler ever reaches a
        later execution's handlers.
        """
        for routes in self._routes.values():
            routes.pop(query_id, None)

    # -- dispatch -----------------------------------------------------------

    def _make_radio(self, device_id: str) -> Handler:
        def dispatch(message: Message) -> None:
            routes = self._routes.get(device_id, {})
            query_id = message.headers.get(QUERY_HEADER)
            handler = None
            if query_id is not None:
                handler = routes.get(query_id)
            elif len(routes) == 1:
                # legacy traffic without a query header: a device serving
                # exactly one query behaves like the pre-mux network
                handler = next(iter(routes.values()))
            if handler is None:
                self._drop(message, query_id)
                return
            handler(message)

        return dispatch

    def _drop(self, message: Message, query_id: str | None) -> None:
        self.unrouted += 1
        label = query_id if query_id is not None else "<none>"
        counter = self._m_unrouted.get(label)
        if counter is None:
            counter = self._m_unrouted[label] = self.telemetry.metrics.counter(
                "net.mux_unrouted", query=label
            )
        counter.inc()


class QueryEndpoint:
    """One query's view of the shared network.

    Drop-in for the :class:`~repro.network.opnet.OpportunisticNetwork`
    from the execution runtime's (and the reliable transport's) point of
    view.  Deliberately does **not** expose ``stats`` — transport-level
    statistics belong either to the shared network or to a per-query
    :class:`~repro.network.reliable.ReliableTransport` layered on top.
    """

    def __init__(self, mux: QueryMux, query_id: str):
        self.mux = mux
        self.query_id = query_id
        self.simulator = mux.simulator
        self.telemetry = mux.telemetry

    def send(self, message: Message) -> None:
        """Stamp the query header and hand off to the shared network."""
        message.headers.setdefault(QUERY_HEADER, self.query_id)
        self.mux.network.send(message)

    def attach(self, device_id: str, handler: Handler) -> None:
        """Register this query's handler for one device."""
        self.mux.attach(device_id, self.query_id, handler)

    def detach(self) -> None:
        """Remove every route of this query (execution finished)."""
        self.mux.detach_query(self.query_id)

    # opnet surface the reliable transport and role runtimes consult
    def is_dead(self, device_id: str) -> bool:
        return self.mux.network.is_dead(device_id)

    def is_online(self, device_id: str) -> bool:
        return self.mux.network.is_online(device_id)
