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
  (many in flight per connection, demultiplexed by request id);
* :mod:`repro.gateway.loadgen` — an open-loop Poisson load generator
  sweeping offered QPS and writing p50/p95/p99 latency, shed rate, and
  the measured saturation QPS into ``BENCH_serving_load.json``
  (``repro serve`` / ``repro load-bench`` on the CLI).
"""

from repro.gateway.client import GatewayClient, GatewayError, GatewayReply
from repro.gateway.loadgen import (
    LoadBenchReport,
    format_load_bench,
    frontend_from_servers,
    run_load_bench,
    write_load_bench,
)
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
    "LoadBenchReport",
    "Overload",
    "PartialResults",
    "ProtocolError",
    "RequestFrame",
    "ResponseFrame",
    "format_load_bench",
    "frontend_from_servers",
    "run_load_bench",
    "write_load_bench",
]
