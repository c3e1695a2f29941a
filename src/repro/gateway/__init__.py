"""The network gateway: federated serving as an actual asyncio service.

The paper's setting is a federation of *autonomous, remote* databases
reached over a network — so the serving stack has to be network-real,
not an in-process object.  This package puts the
:class:`~repro.serving.frontend.FederationFrontend` behind a TCP
service with the properties a gateway under heavy traffic needs:

* :mod:`repro.gateway.protocol` — a versioned JSON-lines wire protocol
  carrying the frozen :class:`~repro.federation.service.SearchRequest`
  / :class:`~repro.federation.service.FederatedResponse` dataclasses
  plus ``partial`` / ``overload`` / ``error`` frames;
* :class:`GatewayServer` — an asyncio server, one protocol object per
  connection, with a *bounded* admission FIFO (a full one sheds
  immediately with an
  :class:`~repro.gateway.protocol.Overload` frame, it never buffers
  unboundedly), client-supplied deadlines propagated down to the
  per-backend fan-out, and streamed delivery: the first merged hits
  flush as a :class:`~repro.gateway.protocol.PartialResults` frame as
  soon as the fastest backends answer;
* :class:`GatewayClient` — connection pooling and pipelined requests
  (many in flight per connection, demultiplexed by request id); it is
  the client that drives a remote ``repro serve``.

The package times nothing itself: ``python3 bench/run.py --workload
serve_heavy`` drives a gateway with an open loop of Poisson arrivals.
"""

from repro.gateway.client import GatewayClient, GatewayError, GatewayReply
from repro.gateway.protocol import (
    ErrorFrame,
    Overload,
    PartialResults,
    ProtocolError,
    RequestFrame,
    ResponseFrame,
)
from repro.gateway.server import GatewayServer, GatewayStats

__all__ = [
    "ErrorFrame",
    "GatewayClient",
    "GatewayError",
    "GatewayReply",
    "GatewayServer",
    "GatewayStats",
    "Overload",
    "PartialResults",
    "ProtocolError",
    "RequestFrame",
    "ResponseFrame",
]
