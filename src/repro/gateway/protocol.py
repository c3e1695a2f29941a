"""The gateway wire protocol: versioned JSON-lines frames over TCP.

One frame per line, UTF-8 JSON, newline-terminated.  Every frame
carries the protocol version (``"v": 1``) and a ``"type"``; frames
belonging to a request carry its client-chosen ``"id"`` so responses
can be pipelined out of order over one connection.  The frame types:

======== ==============================================================
type     meaning
======== ==============================================================
hello    server banner on connect: protocol id, federation size
request  one :class:`~repro.federation.service.SearchRequest`
partial  early merged hits, streamed while slow backends are pending
response the final :class:`~repro.federation.service.FederatedResponse`
overload the request was *shed* (queue full / deadline already spent)
error    the request failed (bad frame, backend misconfiguration, ...)
======== ==============================================================

A request terminates in exactly one of ``response`` / ``overload`` /
``error``, preceded by zero or more ``partial`` frames.  Frames are
plain JSON so any client can speak the protocol; this module is the
reference codec, round-tripping the frozen dataclasses exactly
(rankings, merged results, per-backend timings and all).

Version discipline: ``v`` is bumped on breaking changes; a decoder
receiving a frame from a different major version raises
:class:`ProtocolError` rather than guessing.  Additive optional keys do
*not* bump the version: the ``routing`` key — on request frames a topic
restriction (``{"topics": [...], "min_confidence": ...}``), on response
frames the router's decision (``{"mode", "topics", "confidence",
"candidates", "fell_back", "reason"}``) — was added after v1 shipped,
is omitted when absent/None, and is ignored by pre-routing decoders, so
old and new peers interoperate on v1 unchanged.

Frame bound: one frame line is at most :data:`MAX_FRAME_BYTES` (4 MiB)
— room for every hit of a large federation, where asyncio's default
64 KiB line limit is not.  The server and the client both read with
that bound.  A longer line cannot be re-framed: the server answers it
with a ``protocol`` error frame and hangs up, and the client treats it
as a lost connection.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from repro.classify.router import RequestRouting, RoutingDecision
from repro.dbselect.base import DatabaseRanking, RankedDatabase
from repro.dbselect.merge import MergedResult
from repro.federation.service import FederatedResponse, SearchRequest

__all__ = [
    "PROTOCOL",
    "PROTOCOL_VERSION",
    "ErrorFrame",
    "Hello",
    "Overload",
    "PartialResults",
    "ProtocolError",
    "RequestFrame",
    "ResponseFrame",
    "decode_frame",
    "encode_frame",
]

#: Protocol identifier, sent in the hello banner.
PROTOCOL = "repro-gateway/1"

#: Wire major version; decoders reject frames from other versions.
PROTOCOL_VERSION = 1

#: Hard bound on one frame line, the stream limit both ends read with;
#: a peer exceeding it is misbehaving.
MAX_FRAME_BYTES = 4 * 1024 * 1024


class ProtocolError(ValueError):
    """A frame that cannot be decoded (bad JSON, type, or version)."""


@dataclass(frozen=True)
class Hello:
    """Server banner, sent once per connection before any response."""

    protocol: str
    databases: int


@dataclass(frozen=True)
class RequestFrame:
    """One federated query plus the id its answer frames will carry."""

    request_id: str
    request: SearchRequest


@dataclass(frozen=True)
class PartialResults:
    """Early merged hits: the fastest backends' answers, streamed.

    ``searched`` lists the backends already merged into ``results``;
    ``pending`` the selected backends still outstanding (each will
    either improve the final frame or land in its ``dropped``).
    ``sequence`` counts partials within the request, from 1.
    """

    request_id: str
    sequence: int
    results: tuple[MergedResult, ...]
    searched: tuple[str, ...]
    pending: tuple[str, ...]


@dataclass(frozen=True)
class ResponseFrame:
    """The final answer: a full :class:`FederatedResponse`."""

    request_id: str
    response: FederatedResponse


@dataclass(frozen=True)
class Overload:
    """The request was shed instead of queued.

    ``reason`` is ``"queue_full"`` (admission queue at capacity) or
    ``"deadline_expired"`` (the client deadline was already spent by
    the time a worker picked the request up).  ``retry_after`` is the
    server's backoff hint in seconds.
    """

    request_id: str
    reason: str
    queue_depth: int
    capacity: int
    retry_after: float


@dataclass(frozen=True)
class ErrorFrame:
    """The request failed; ``code`` is machine-readable."""

    request_id: str
    code: str
    message: str


Frame = Hello | RequestFrame | PartialResults | ResponseFrame | Overload | ErrorFrame


# -- payload codecs for the frozen dataclasses ----------------------------


def _request_payload(request: SearchRequest) -> dict[str, object]:
    row: dict[str, object] = {
        "query": request.query,
        "n": request.n,
        "docs_per_database": request.docs_per_database,
        "deadline": request.deadline,
        "databases_per_query": request.databases_per_query,
    }
    if request.routing is not None:
        row["routing"] = {
            "topics": list(request.routing.topics),
            "min_confidence": request.routing.min_confidence,
        }
    return row


def _names(payload: object, what: str) -> tuple[str, ...]:
    """A JSON array as a tuple of names (a bare string is not an array)."""
    if not isinstance(payload, list):
        raise ProtocolError(f"{what} must be a JSON array")
    return tuple(str(name) for name in payload)


def _request_routing_from(payload: object) -> RequestRouting | None:
    if payload is None:
        return None
    if not isinstance(payload, dict):
        raise ProtocolError("request routing must be a JSON object")
    return RequestRouting(
        topics=_names(payload.get("topics", []), "routing topics"),
        min_confidence=payload.get("min_confidence"),
    )


def _is_number(value: object, kinds: type | tuple[type, ...]) -> bool:
    """``isinstance``, except that JSON ``true`` / ``false`` are not numbers."""
    return isinstance(value, kinds) and not isinstance(value, bool)


def _request_from(payload: dict[str, object]) -> SearchRequest:
    """Decode and type-check a request: nothing malformed reaches the engine.

    :class:`SearchRequest` checks ranges (positive ``n``, positive
    ``deadline``); the wire adds the types JSON does not guarantee.
    """
    try:
        query = payload["query"]
        if not isinstance(query, str):
            raise ProtocolError(f"invalid request payload: query must be a string, got {query!r}")
        for key in ("n", "docs_per_database", "databases_per_query"):
            value = payload.get(key)
            if value is not None and not _is_number(value, int):  # 2.5 would be served
                raise ProtocolError(
                    f"invalid request payload: {key} must be an integer, got {value!r}"
                )
        deadline = payload.get("deadline")
        # NaN passes every range check and then never expires
        # (``elapsed >= nan`` is false): it would disable the deadline.
        if deadline is not None and not (
            _is_number(deadline, (int, float)) and math.isfinite(deadline)  # type: ignore[arg-type]
        ):
            raise ProtocolError(
                f"invalid request payload: deadline must be a finite number, got {deadline!r}"
            )
        return SearchRequest(
            query=query,
            n=payload.get("n", 10),  # type: ignore[arg-type]
            docs_per_database=payload.get("docs_per_database", 10),  # type: ignore[arg-type]
            deadline=deadline,  # type: ignore[arg-type]
            databases_per_query=payload.get("databases_per_query"),  # type: ignore[arg-type]
            routing=_request_routing_from(payload.get("routing")),
        )
    except ProtocolError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid request payload: {exc}") from exc


def _results_payload(results: tuple[MergedResult, ...]) -> list[list[object]]:
    return [[r.doc_id, r.database, r.score] for r in results]


def _results_from(payload: object) -> tuple[MergedResult, ...]:
    return tuple(
        MergedResult(doc_id=str(doc_id), database=str(database), score=float(score))
        for doc_id, database, score in payload  # type: ignore[union-attr]
    )


def _response_payload(response: FederatedResponse) -> dict[str, object]:
    row: dict[str, object] = {
        "query": response.query,
        "ranking": [[e.name, e.score] for e in response.ranking.entries],
        "searched": list(response.searched),
        "results": _results_payload(response.results),
        "dropped": list(response.dropped),
        "timings": dict(response.timings),
    }
    if response.routing is not None:
        decision = response.routing
        row["routing"] = {
            "mode": decision.mode,
            "topics": list(decision.topics),
            "confidence": decision.confidence,
            "candidates": decision.candidates,
            "fell_back": decision.fell_back,
            "reason": decision.reason,
        }
    return row


def _routing_decision_from(payload: object) -> RoutingDecision | None:
    if payload is None:
        return None
    if not isinstance(payload, dict):
        raise ProtocolError("response routing must be a JSON object")
    return RoutingDecision(
        mode=str(payload.get("mode", "broadcast")),
        topics=_names(payload.get("topics", []), "routing topics"),
        confidence=float(payload.get("confidence", 0.0)),
        candidates=int(payload.get("candidates", 0)),
        fell_back=bool(payload.get("fell_back", False)),
        reason=str(payload.get("reason", "")),
    )


def _response_from(payload: dict[str, object]) -> FederatedResponse:
    ranking = DatabaseRanking(
        query=str(payload["query"]),
        entries=tuple(
            RankedDatabase(name=str(name), score=float(score))
            for name, score in payload["ranking"]  # type: ignore[union-attr]
        ),
    )
    return FederatedResponse(
        query=str(payload["query"]),
        ranking=ranking,
        searched=_names(payload["searched"], "searched"),
        results=_results_from(payload["results"]),
        dropped=_names(payload.get("dropped", []), "dropped"),
        timings={
            str(name): float(seconds)
            for name, seconds in payload.get("timings", {}).items()  # type: ignore[union-attr]
        },
        routing=_routing_decision_from(payload.get("routing")),
    )


# -- frame codec -----------------------------------------------------------


def encode_frame(frame: Frame) -> bytes:
    """One frame as a newline-terminated JSON line."""
    row: dict[str, object] = {"v": PROTOCOL_VERSION}
    if isinstance(frame, Hello):
        row.update(type="hello", protocol=frame.protocol, databases=frame.databases)
    elif isinstance(frame, RequestFrame):
        row.update(
            type="request",
            id=frame.request_id,
            request=_request_payload(frame.request),
        )
    elif isinstance(frame, PartialResults):
        row.update(
            type="partial",
            id=frame.request_id,
            seq=frame.sequence,
            results=_results_payload(frame.results),
            searched=list(frame.searched),
            pending=list(frame.pending),
        )
    elif isinstance(frame, ResponseFrame):
        row.update(
            type="response",
            id=frame.request_id,
            response=_response_payload(frame.response),
        )
    elif isinstance(frame, Overload):
        row.update(
            type="overload",
            id=frame.request_id,
            reason=frame.reason,
            queue_depth=frame.queue_depth,
            capacity=frame.capacity,
            retry_after=frame.retry_after,
        )
    elif isinstance(frame, ErrorFrame):
        row.update(type="error", id=frame.request_id, code=frame.code, message=frame.message)
    else:
        raise ProtocolError(f"cannot encode frame of type {type(frame).__name__}")
    return (json.dumps(row, separators=(",", ":")) + "\n").encode("utf-8")


def decode_frame(line: bytes) -> Frame:
    """Decode one received line into its typed frame.

    Raises :class:`ProtocolError` — and nothing else, whatever the bytes
    — on malformed JSON, an unknown frame type, a missing id, a
    different protocol version, or a field of the wrong JSON type.  A
    connection handler relies on that: any other exception would end it
    without a reply.
    """
    try:
        return _decode(line)
    except ProtocolError:
        raise
    except (
        ArithmeticError,  # int(1e999), float(10**400)
        AttributeError,  # a list where an object was expected
        LookupError,
        RecursionError,  # thousands of nested brackets, inside json.loads
        TypeError,
        ValueError,
    ) as exc:
        raise ProtocolError(f"malformed frame: {type(exc).__name__}: {exc}") from exc


def _decode(line: bytes) -> Frame:
    # The field conversions here and in the payload codecs (``int()``,
    # ``float()``, unpacking, ``.items()``) raise what they raise on a
    # value of the wrong shape; ``decode_frame`` translates.
    try:
        row = json.loads(line)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame is not valid JSON: {exc}") from exc
    if not isinstance(row, dict):
        raise ProtocolError("frame must be a JSON object")
    version = row.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version!r} (this side speaks {PROTOCOL_VERSION})"
        )
    kind = row.get("type")
    if kind == "hello":
        return Hello(protocol=str(row.get("protocol", "")), databases=int(row.get("databases", 0)))
    request_id = row.get("id")
    if not isinstance(request_id, str) or not request_id:
        raise ProtocolError(f"{kind!r} frame is missing its request id")
    if kind == "request":
        payload = row.get("request")
        if not isinstance(payload, dict) or "query" not in payload:
            raise ProtocolError("request frame is missing its request payload")
        return RequestFrame(request_id=request_id, request=_request_from(payload))
    if kind == "partial":
        return PartialResults(
            request_id=request_id,
            sequence=int(row.get("seq", 0)),
            results=_results_from(row.get("results", [])),
            searched=_names(row.get("searched", []), "searched"),
            pending=_names(row.get("pending", []), "pending"),
        )
    if kind == "response":
        payload = row.get("response")
        if not isinstance(payload, dict):
            raise ProtocolError("response frame is missing its response payload")
        return ResponseFrame(request_id=request_id, response=_response_from(payload))
    if kind == "overload":
        return Overload(
            request_id=request_id,
            reason=str(row.get("reason", "queue_full")),
            queue_depth=int(row.get("queue_depth", 0)),
            capacity=int(row.get("capacity", 0)),
            retry_after=float(row.get("retry_after", 0.0)),
        )
    if kind == "error":
        return ErrorFrame(
            request_id=request_id,
            code=str(row.get("code", "unknown")),
            message=str(row.get("message", "")),
        )
    raise ProtocolError(f"unknown frame type {kind!r}")
