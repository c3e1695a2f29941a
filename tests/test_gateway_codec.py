"""Property tests (hypothesis) for the gateway wire codec.

The codec is the one place the system parses bytes a stranger wrote.
Two laws: whatever arrives, :func:`decode_frame` returns a frame or
raises :class:`ProtocolError` — any other exception would end a
gateway connection handler without a reply — and every frame this side
can build survives ``encode`` → ``decode`` unchanged.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classify import RequestRouting, RoutingDecision
from repro.dbselect.base import DatabaseRanking, RankedDatabase
from repro.dbselect.merge import MergedResult
from repro.federation import SearchRequest
from repro.federation.service import FederatedResponse
from repro.gateway.protocol import (
    ErrorFrame,
    Frame,
    Hello,
    Overload,
    PartialResults,
    ProtocolError,
    RequestFrame,
    ResponseFrame,
    decode_frame,
    encode_frame,
)

# -- arbitrary input ---------------------------------------------------------

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()  # NaN and the infinities included: json.loads accepts them
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)

#: Every key any frame type or nested payload reads: values of the
#: wrong JSON type under the *right* key are what reaches the decoder's
#: conversions (random keys are ignored before any of them runs).
FRAME_KEYS = (
    "protocol databases request response seq results searched pending reason "
    "queue_depth capacity retry_after code message"
).split()
PAYLOAD_KEYS = (
    "query n docs_per_database deadline databases_per_query routing ranking "
    "searched results dropped timings topics min_confidence mode confidence "
    "candidates fell_back reason"
).split()

payloads = st.dictionaries(
    st.sampled_from(PAYLOAD_KEYS),
    json_values | st.dictionaries(st.sampled_from(PAYLOAD_KEYS), json_values, max_size=3),
    max_size=6,
)
frame_shaped = st.builds(
    lambda kind, fields: {"v": 1, "type": kind, "id": "r1", **fields},
    st.sampled_from(["hello", "request", "partial", "response", "overload", "error", "?"]),
    st.dictionaries(st.sampled_from(FRAME_KEYS), json_values | payloads, max_size=5),
)


def decode_or_protocol_error(line: bytes) -> None:
    try:
        frame = decode_frame(line)
    except ProtocolError:
        return
    assert isinstance(frame, Frame)
    if isinstance(frame, RequestFrame):
        # What is accepted is what the engine can serve as it stands.
        request = frame.request
        assert isinstance(request.query, str)
        for count in (request.n, request.docs_per_database):
            assert type(count) is int and count > 0
        assert request.databases_per_query is None or type(request.databases_per_query) is int
        assert request.deadline is None or (
            type(request.deadline) in (int, float)
            and math.isfinite(request.deadline)
            and request.deadline > 0
        )


def _request_line(**fields: object) -> bytes:
    payload = {"query": "x", **fields}
    return json.dumps({"v": 1, "type": "request", "id": "r1", "request": payload}).encode()


class TestDecodeNeverRaisesAnythingElse:
    @pytest.mark.parametrize(
        "line",
        [
            # Each of these once ended a connection handler with no reply.
            b'{"v":1,"type":"hello","databases":"x"}',
            b'{"v":1,"type":"partial","id":"r1","seq":"x"}',
            b'{"v":1,"type":"overload","id":"r1","queue_depth":[]}',
            b'{"v":1,"type":"overload","id":"r1","queue_depth":1e999}',
            b'{"v":1,"type":"partial","id":"r1","searched":7}',
            b'{"v":1,"type":"partial","id":"r1","searched":"db-a"}',
            b'{"v":1,"type":"response","id":"r1","response":{"query":"q","ranking":[],'
            b'"searched":[],"results":[],"timings":[1]}}',
            b"[" * 5000,
            # And these were accepted, and served or failed deep in the engine.
            _request_line(n=2.5),
            _request_line(n=True),
            _request_line(docs_per_database="3"),
            _request_line(databases_per_query=1.0),
            _request_line(deadline=float("nan")),
            _request_line(deadline=float("inf")),
            _request_line(deadline=True),
            _request_line(deadline="1"),
            _request_line(query=5),
            _request_line(routing={"topics": "energy"}),
            _request_line(routing={"min_confidence": True}),
            _request_line(routing={"topics": [1, None]}),
            b'{"v":1,"type":"partial","id":"r1","searched":[1]}',
        ],
    )
    def test_known_killers_are_protocol_errors(self, line):
        with pytest.raises(ProtocolError):
            decode_frame(line)

    def test_integer_deadline_is_a_number(self):
        frame = decode_frame(_request_line(deadline=2, n=3))
        assert frame.request.deadline == 2 and frame.request.n == 3

    @given(st.binary(max_size=400))
    def test_arbitrary_bytes(self, line):
        decode_or_protocol_error(line)

    @given(json_values)
    def test_arbitrary_json_values(self, value):
        decode_or_protocol_error(json.dumps(value).encode())

    @settings(max_examples=200)
    @given(frame_shaped)
    def test_frame_shaped_objects_with_arbitrary_fields(self, row):
        decode_or_protocol_error(json.dumps(row).encode())


# -- generated frames ----------------------------------------------------------

names = st.text(max_size=8)
ids = st.text(min_size=1, max_size=8)
name_tuples = st.lists(names, max_size=4).map(tuple)
counts = st.integers(min_value=0, max_value=2**40)
# Equality is the law under test, and NaN is not equal to itself.
scores = st.floats(allow_nan=False)
unit_floats = st.floats(min_value=0.0, max_value=1.0)
merged_results = st.lists(
    st.builds(MergedResult, doc_id=names, database=names, score=scores), max_size=4
).map(tuple)

search_requests = st.builds(
    SearchRequest,
    query=st.text(max_size=20),
    n=st.integers(min_value=1, max_value=10**6),
    docs_per_database=st.integers(min_value=1, max_value=10**6),
    deadline=st.none()
    | st.floats(min_value=0.0, exclude_min=True, allow_infinity=False, allow_nan=False),
    databases_per_query=st.none() | st.integers(min_value=1, max_value=10**6),
    routing=st.none()
    | st.builds(
        RequestRouting, topics=name_tuples, min_confidence=st.none() | unit_floats
    ),
)


@st.composite
def federated_responses(draw):
    query = draw(st.text(max_size=20))
    entries = draw(
        st.lists(st.builds(RankedDatabase, name=names, score=scores), max_size=4)
    )
    return FederatedResponse(
        query=query,
        ranking=DatabaseRanking(query=query, entries=tuple(entries)),
        searched=draw(name_tuples),
        results=draw(merged_results),
        dropped=draw(name_tuples),
        timings=draw(st.dictionaries(names, scores, max_size=4)),
        routing=draw(
            st.none()
            | st.builds(
                RoutingDecision,
                mode=st.sampled_from(["routed", "broadcast"]),
                topics=name_tuples,
                confidence=scores,
                candidates=counts,
                fell_back=st.booleans(),
                reason=names,
            )
        ),
    )


frames = st.one_of(
    st.builds(Hello, protocol=names, databases=counts),
    st.builds(RequestFrame, request_id=ids, request=search_requests),
    st.builds(
        PartialResults,
        request_id=ids,
        sequence=counts,
        results=merged_results,
        searched=name_tuples,
        pending=name_tuples,
    ),
    st.builds(ResponseFrame, request_id=ids, response=federated_responses()),
    st.builds(
        Overload,
        request_id=ids,
        reason=names,
        queue_depth=counts,
        capacity=counts,
        retry_after=scores,
    ),
    st.builds(ErrorFrame, request_id=ids, code=names, message=names),
)


class TestRoundTrip:
    @settings(max_examples=300)
    @given(frames)
    def test_decode_inverts_encode(self, frame):
        line = encode_frame(frame)
        assert line.endswith(b"\n") and line.count(b"\n") == 1
        assert decode_frame(line) == frame
