"""Unit tests for repro.gateway (protocol, server, client)."""

from __future__ import annotations

import asyncio
import dataclasses
import json
import logging
import threading
import time

import pytest

from repro.federation import SearchRequest, build_skewed_partition
from repro.federation.service import FederatedResponse
from repro.dbselect.base import DatabaseRanking, RankedDatabase
from repro.dbselect.merge import MergedResult
from repro.gateway import GatewayClient, GatewayError, GatewayServer
from repro.gateway.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL,
    PROTOCOL_VERSION,
    ErrorFrame,
    Hello,
    Overload,
    PartialResults,
    ProtocolError,
    RequestFrame,
    ResponseFrame,
    decode_frame,
    encode_frame,
)
from repro.index import DatabaseServer
from repro.federation.testbed import build_synthetic_federation, queries_from_models
from repro.obs import SimulatedClock, TraceRecorder
from repro.serving import LatencyInjected, frontend_from_servers
from repro.synth import wsj88_like
from tests.test_serving import ComputingServer


@pytest.fixture(scope="module")
def servers() -> dict[str, DatabaseServer]:
    corpus = wsj88_like().build(seed=11, scale=0.04)
    parts = build_skewed_partition(corpus, num_databases=3, seed=7)
    return {part.name: DatabaseServer(part) for part in parts}


@pytest.fixture(scope="module")
def models(servers):
    return {name: server.actual_language_model() for name, server in servers.items()}


@pytest.fixture(scope="module")
def queries(models) -> list[str]:
    return queries_from_models(models, 6)


def slowed_federation(servers, delay: float, which: str | None = None):
    """Copy of ``servers`` with one (or every) backend latency-injected."""
    slowed = dict(servers)
    if which is None:
        for name in slowed:
            slowed[name] = LatencyInjected(servers[name], delay=delay)
    else:
        slowed[which] = LatencyInjected(servers[which], delay=delay)
    return slowed


class TestProtocol:
    def sample_response(self) -> FederatedResponse:
        ranking = DatabaseRanking(
            query="market",
            entries=(
                RankedDatabase(name="db-a", score=0.8),
                RankedDatabase(name="db-b", score=0.3),
            ),
        )
        return FederatedResponse(
            query="market",
            ranking=ranking,
            searched=("db-a", "db-b"),
            results=(
                MergedResult(doc_id="d1", database="db-a", score=2.5),
                MergedResult(doc_id="d2", database="db-b", score=1.25),
            ),
            dropped=("db-c",),
            timings={"db-a": 0.01, "db-b": 0.02},
        )

    @pytest.mark.parametrize(
        "frame",
        [
            Hello(protocol=PROTOCOL, databases=3),
            RequestFrame(
                request_id="r1",
                request=SearchRequest(
                    query="oil market", n=5, docs_per_database=7,
                    deadline=0.25, databases_per_query=2,
                ),
            ),
            PartialResults(
                request_id="r2",
                sequence=1,
                results=(MergedResult(doc_id="d9", database="db-a", score=3.0),),
                searched=("db-a",),
                pending=("db-b", "db-c"),
            ),
            Overload(
                request_id="r3", reason="queue_full",
                queue_depth=4, capacity=4, retry_after=0.05,
            ),
            ErrorFrame(request_id="r4", code="TypeError", message="boom"),
        ],
    )
    def test_round_trip(self, frame):
        assert decode_frame(encode_frame(frame)) == frame

    def test_response_round_trip(self):
        frame = ResponseFrame(request_id="r5", response=self.sample_response())
        assert decode_frame(encode_frame(frame)) == frame

    def test_routing_request_round_trip(self):
        from repro.classify import RequestRouting

        frame = RequestFrame(
            request_id="r6",
            request=SearchRequest(
                query="oil market",
                routing=RequestRouting(topics=("energy",), min_confidence=0.5),
            ),
        )
        assert decode_frame(encode_frame(frame)) == frame

    def test_routing_response_round_trip(self):
        from dataclasses import replace

        from repro.classify import RoutingDecision

        response = replace(
            self.sample_response(),
            routing=RoutingDecision(
                mode="routed",
                topics=("energy",),
                confidence=0.8,
                candidates=2,
            ),
        )
        frame = ResponseFrame(request_id="r7", response=response)
        assert decode_frame(encode_frame(frame)) == frame

    def test_routing_absent_keeps_wire_format_unchanged(self):
        # Old clients must see byte-identical frames: a request or
        # response without routing carries no "routing" key at all.
        request_line = encode_frame(
            RequestFrame(request_id="r8", request=SearchRequest(query="x"))
        )
        assert b"routing" not in request_line
        response_line = encode_frame(
            ResponseFrame(request_id="r9", response=self.sample_response())
        )
        assert b"routing" not in response_line

    def test_malformed_routing_rejected(self):
        line = (
            b'{"v": 1, "type": "request", "id": "r1", '
            b'"request": {"query": "x", "routing": "energy"}}\n'
        )
        with pytest.raises(ProtocolError, match="routing"):
            decode_frame(line)

    def test_frames_are_json_lines(self):
        line = encode_frame(Hello(protocol=PROTOCOL, databases=2))
        assert line.endswith(b"\n")
        row = json.loads(line)
        assert row["v"] == PROTOCOL_VERSION
        assert row["type"] == "hello"

    @pytest.mark.parametrize(
        "line, match",
        [
            (b"not json\n", "not valid JSON"),
            (b"[1, 2]\n", "JSON object"),
            (b'{"v": 99, "type": "hello"}\n', "version"),
            (b'{"v": 1, "type": "telepathy", "id": "r1"}\n', "unknown frame type"),
            (b'{"v": 1, "type": "partial"}\n', "missing its request id"),
            (b'{"v": 1, "type": "request", "id": "r1"}\n', "request payload"),
            (
                b'{"v": 1, "type": "request", "id": "r1", "request": {"query": "x", "n": 0}}\n',
                "invalid request payload",
            ),
            (b'{"v": 1, "type": "response", "id": "r1"}\n', "response payload"),
        ],
    )
    def test_malformed_frames_rejected(self, line, match):
        with pytest.raises(ProtocolError, match=match):
            decode_frame(line)


class TestGatewayEndToEnd:
    """Server + client over a real localhost socket."""

    def test_search_round_trip_matches_direct(self, servers, queries):
        async def run():
            with frontend_from_servers(servers) as frontend:
                direct = frontend.search(SearchRequest(query=queries[0], n=5))
                async with GatewayServer(frontend) as server:
                    host, port = server.address
                    async with GatewayClient(host, port) as client:
                        assert client.databases == len(servers)
                        reply = await client.search(SearchRequest(query=queries[0], n=5))
            return direct, reply

        direct, reply = asyncio.run(run())
        assert reply.ok and reply.response is not None
        assert reply.response.query == direct.query
        assert reply.response.searched == direct.searched
        assert [r.doc_id for r in reply.response.results] == [
            r.doc_id for r in direct.results
        ]

    def test_response_over_64_kib_round_trips(self):
        # asyncio's default line limit is 64 KiB; a frame of every hit of
        # four databases is larger, and must arrive whole.
        servers = build_synthetic_federation(4, 0.2)

        async def run():
            with frontend_from_servers(servers) as frontend:
                request = SearchRequest(
                    query=queries_from_models(frontend.service.models, 1)[0],
                    n=3000,
                    docs_per_database=3000,
                    databases_per_query=4,
                )
                direct = frontend.search(request)
                async with GatewayServer(frontend) as server:
                    async with GatewayClient(*server.address) as client:
                        reply = await client.search(request)
            return direct, reply

        direct, reply = asyncio.run(run())
        assert reply.ok
        frame = encode_frame(ResponseFrame(request_id="r1", response=reply.response))
        assert 64 * 1024 < len(frame) <= MAX_FRAME_BYTES
        assert reply.response.results == direct.results
        assert reply.response.searched == direct.searched

    def test_in_process_federation_is_served_without_a_thread(self, servers, queries):
        requests = [
            SearchRequest(query=queries[i % len(queries)], n=5) for i in range(50)
        ]
        before = set(threading.enumerate())

        async def run():
            with frontend_from_servers(servers) as frontend:
                oracle = [frontend.service.search(request) for request in requests]
                async with GatewayServer(frontend) as server:
                    async with GatewayClient(*server.address) as client:
                        replies = await asyncio.gather(
                            *(client.search(request) for request in requests)
                        )
                    started = sorted(
                        thread.name for thread in set(threading.enumerate()) - before
                    )
                    return oracle, replies, server.stats, started

        oracle, replies, stats, started = asyncio.run(run())
        assert stats.completed == 50 and stats.shed == stats.errors == 0
        # Nothing waits, so nothing streams and no thread is handed to.
        assert stats.streamed_partials == 0
        assert all(reply.ok and reply.partials == () for reply in replies)
        assert not [
            name for name in started if name.startswith(("serving-fanout", "gateway-exec"))
        ]
        for reply, serial in zip(replies, oracle):
            assert reply.response.searched == serial.searched
            assert reply.response.dropped == serial.dropped == ()
            assert [(r.database, r.doc_id) for r in reply.response.results] == [
                (r.database, r.doc_id) for r in serial.results
            ]

    def test_mixed_federation_streams_one_partial_before_the_wait(
        self, servers, models, queries
    ):
        slow_name = sorted(servers)[0]
        mixed = slowed_federation(servers, delay=0.3, which=slow_name)

        async def run():
            with frontend_from_servers(mixed, models=models) as frontend:
                async with GatewayServer(frontend) as server:
                    async with GatewayClient(*server.address) as client:
                        full = await client.search(SearchRequest(query=queries[0]))
                        cut = await client.search(
                            SearchRequest(query=queries[0], deadline=0.1)
                        )
                    return full, cut

        full, cut = asyncio.run(run())
        assert full.ok and cut.ok
        selected = tuple(full.response.ranking.top(len(mixed)))
        in_process = tuple(name for name in selected if name != slow_name)
        # One wait, so one partial: everything computed here, flushed
        # before the slow backend is waited out.
        assert len(full.partials) == 1
        assert full.partials[0].searched == in_process
        assert full.partials[0].pending == (slow_name,)
        assert full.first_partial_after < full.elapsed / 2
        assert full.response.searched == selected
        assert full.response.dropped == ()
        # Under a deadline the slow backend alone is dropped.
        assert cut.response.dropped == (slow_name,)
        assert cut.response.searched == in_process
        assert cut.response.results == cut.partials[0].results

    def test_streaming_first_partial_beats_full_response(self, servers, models, queries):
        slow_name = sorted(servers)[0]
        slowed = slowed_federation(servers, delay=0.3, which=slow_name)

        async def run():
            with frontend_from_servers(slowed, models=models) as frontend:
                async with GatewayServer(frontend) as server:
                    async with GatewayClient(*server.address) as client:
                        reply = await client.search(SearchRequest(query=queries[0]))
                    return reply, server.stats.streamed_partials

        reply, streamed = asyncio.run(run())
        assert reply.ok
        assert reply.partials, "fast backends should have streamed a partial"
        assert streamed >= len(reply.partials) > 0
        # The acceptance criterion: first hits land well before the
        # slow backend lets the final response finish.
        assert reply.elapsed >= 0.28
        assert reply.first_partial_after is not None
        assert reply.first_partial_after < reply.elapsed / 2
        first = reply.partials[0]
        assert first.sequence == 1
        assert slow_name in first.pending
        assert slow_name not in first.searched

    def test_deadline_propagates_to_fanout(self, servers, models, queries):
        slow_name = sorted(servers)[0]
        slowed = slowed_federation(servers, delay=0.6, which=slow_name)

        async def run():
            with frontend_from_servers(slowed, models=models) as frontend:
                async with GatewayServer(frontend) as server:
                    async with GatewayClient(*server.address) as client:
                        started = time.perf_counter()
                        reply = await client.search(
                            SearchRequest(query=queries[0], deadline=0.15)
                        )
                        return reply, time.perf_counter() - started

        reply, elapsed = asyncio.run(run())
        assert reply.ok and reply.response is not None
        assert slow_name in reply.response.dropped
        assert elapsed < 0.55  # did not wait out the slow backend

    def test_overload_sheds_then_recovers(self, servers, models, queries):
        slowed = slowed_federation(servers, delay=0.1)

        async def run():
            with frontend_from_servers(slowed, models=models) as frontend:
                server = GatewayServer(frontend, queue_limit=1, concurrency=1)
                async with server:
                    async with GatewayClient(*server.address, pool_size=1) as client:
                        replies = await asyncio.gather(
                            *(
                                client.search(SearchRequest(query=queries[i % len(queries)]))
                                for i in range(10)
                            )
                        )
                        # The queue has drained: the gateway accepts again.
                        after = await client.search(SearchRequest(query=queries[0]))
                    return replies, after, server.stats

        replies, after, stats = asyncio.run(run())
        shed = [r for r in replies if r.status == "overload"]
        served = [r for r in replies if r.ok]
        assert shed, "flooding a queue of 1 must shed"
        assert served, "the gateway still serves while shedding"
        assert all(r.overload.reason == "queue_full" for r in shed)
        assert all(r.overload.capacity == 1 for r in shed)
        assert all(r.overload.retry_after > 0 for r in shed)
        # Bounded admission, observable: the high-water mark never
        # exceeds the configured limit no matter the offered burst, and
        # served latency stays bounded (queue x service, not burst x).
        assert stats.max_queue_depth <= 1
        assert max(r.elapsed for r in served) < 2.0
        assert stats.shed_queue_full == len(shed)
        assert after.ok, "once drained, requests are accepted again"

    def test_flood_over_in_process_federation_is_bounded(self, servers, queries):
        flood = 200
        burst = b"".join(
            encode_frame(
                RequestFrame(
                    request_id=f"flood-{i}",
                    request=SearchRequest(query=queries[i % len(queries)]),
                )
            )
            for i in range(flood)
        )

        async def run():
            with frontend_from_servers(servers) as frontend:
                server = GatewayServer(frontend, queue_limit=2, concurrency=1)
                async with server:
                    reader, writer = await asyncio.open_connection(*server.address)
                    await reader.readline()  # hello banner
                    writer.write(burst)  # pipelined: nothing is awaited in between
                    frames = [decode_frame(await reader.readline()) for _ in range(flood)]
                    writer.close()
                    await writer.wait_closed()
                    during = dataclasses.replace(server.stats)
                    async with GatewayClient(*server.address) as client:
                        after = await client.search(SearchRequest(query=queries[0]))
                    return frames, during, after

        frames, stats, after = asyncio.run(run())
        # Every request ends in exactly one response or overload frame.
        assert sorted(frame.request_id for frame in frames) == sorted(
            f"flood-{i}" for i in range(flood)
        )
        served = [frame for frame in frames if isinstance(frame, ResponseFrame)]
        shed = [frame for frame in frames if isinstance(frame, Overload)]
        assert served and len(served) + len(shed) == flood
        assert all(frame.reason == "queue_full" for frame in shed)
        assert stats.accepted == stats.completed == len(served)
        assert stats.accepted + stats.shed_queue_full == flood
        assert stats.max_queue_depth == 2
        assert stats.errors == stats.streamed_partials == 0
        # Searches run on the loop thread here, and the loop still gets a
        # turn before each one: what was shed is told so at once, not
        # after the searches queued ahead of it have been computed.
        assert isinstance(frames[0], Overload)
        assert after.ok, "once drained, requests are accepted again"

    def test_queue_wait_consumes_deadline(self, servers, models, queries):
        slowed = slowed_federation(servers, delay=0.25)

        async def run():
            with frontend_from_servers(slowed, models=models) as frontend:
                server = GatewayServer(frontend, queue_limit=4, concurrency=1)
                async with server:
                    async with GatewayClient(*server.address, pool_size=1) as client:
                        blocker = asyncio.create_task(
                            client.search(SearchRequest(query=queries[0]))
                        )
                        await asyncio.sleep(0.02)  # let the blocker occupy the worker
                        starved = await client.search(
                            SearchRequest(query=queries[1], deadline=0.05)
                        )
                        await blocker
                    return starved, server.stats

        starved, stats = asyncio.run(run())
        assert starved.status == "overload"
        assert starved.overload.reason == "deadline_expired"
        assert stats.shed_deadline >= 1

    def test_queue_wait_sheds_on_the_recorder_clock(self, servers, models, queries):
        # In-process backends: each search runs on the loop thread and
        # costs 0.25 simulated seconds, so the request admitted beside
        # the first waits exactly its 0.75 s and is shed unsearched.
        clock = SimulatedClock()
        costly = {
            name: ComputingServer(server, clock, cost=0.25) for name, server in servers.items()
        }
        recorder = TraceRecorder(clock=clock)

        async def run():
            with frontend_from_servers(costly, models=models, recorder=recorder) as frontend:
                server = GatewayServer(frontend, queue_limit=4)
                async with server:
                    async with GatewayClient(*server.address, pool_size=1) as client:
                        first, starved = await asyncio.gather(
                            client.search(SearchRequest(query=queries[0])),
                            client.search(SearchRequest(query=queries[1], deadline=0.5)),
                        )
                    return first, starved, server.stats

        first, starved, stats = asyncio.run(run())
        assert first.ok and first.response.dropped == ()
        assert first.response.timings == {name: 0.25 for name in servers}
        assert starved.status == "overload"
        assert starved.overload == Overload(
            request_id=starved.overload.request_id,
            reason="deadline_expired",
            queue_depth=0,
            capacity=4,
            retry_after=0.05,
        )
        assert stats.completed == stats.shed_deadline == 1
        assert [costly[name].engine.calls for name in sorted(servers)] == [1, 1, 1]
        assert clock.now == 0.75
        queue_wait = recorder.metrics.timer("gateway.queue_wait")
        assert (queue_wait.count, queue_wait.min, queue_wait.max) == (2, 0.0, 0.75)

    def test_a_request_shed_for_its_deadline_frees_the_next(self, servers, models, queries):
        slowed = slowed_federation(servers, delay=0.2)

        async def run():
            with frontend_from_servers(slowed, models=models) as frontend:
                server = GatewayServer(frontend, queue_limit=4, concurrency=1)
                async with server:
                    async with GatewayClient(*server.address, pool_size=1) as client:
                        blocker = asyncio.create_task(
                            client.search(SearchRequest(query=queries[0]))
                        )
                        await asyncio.sleep(0.02)  # let the blocker take the only slot
                        starved = asyncio.create_task(
                            client.search(SearchRequest(query=queries[1], deadline=0.05))
                        )
                        await asyncio.sleep(0.01)
                        behind = await asyncio.wait_for(
                            client.search(SearchRequest(query=queries[2])), timeout=5.0
                        )
                        return await blocker, await starved, behind

        blocker, starved, behind = asyncio.run(run())
        assert blocker.ok and behind.ok
        assert starved.status == "overload"
        assert starved.overload.reason == "deadline_expired"

    def test_protocol_error_gets_error_frame(self, servers):
        async def run():
            with frontend_from_servers(servers) as frontend:
                async with GatewayServer(frontend) as server:
                    reader, writer = await asyncio.open_connection(*server.address)
                    await reader.readline()  # hello banner
                    writer.write(b"this is not a frame\n")
                    await writer.drain()
                    reply = decode_frame(await reader.readline())
                    writer.close()
                    await writer.wait_closed()
                    return reply, server.stats.errors

        reply, errors = asyncio.run(run())
        assert isinstance(reply, ErrorFrame)
        assert reply.code == "protocol"
        assert errors >= 1

    def test_malformed_input_never_kills_a_connection_handler(self, servers, queries):
        # Each of these once ended _handle_connection with an unhandled
        # exception and no reply: a conversion deep in the decoder, the
        # JSON parser's recursion limit, the stream reader's line limit
        # (the frame bound).
        killers = [
            b'{"v":1,"type":"hello","databases":"x"}\n',
            b"[" * 5000 + b"\n",
            b'{"v":1,"type":"request","id":"big","request":{"query":"'
            + b"x" * MAX_FRAME_BYTES
            + b'"}}\n',
        ]

        async def run():
            with frontend_from_servers(servers) as frontend:
                async with GatewayServer(frontend) as server:
                    reader, writer = await asyncio.open_connection(*server.address)
                    await reader.readline()  # hello banner
                    replies = []
                    for line in killers:
                        writer.write(line)
                        await writer.drain()
                        replies.append(decode_frame(await reader.readline()))
                    # The over-limit line cannot be re-framed: one error, then EOF.
                    assert await reader.read() == b""
                    writer.close()
                    await writer.wait_closed()
                    errors = server.stats.errors
                    async with GatewayClient(*server.address) as client:
                        after = await client.search(SearchRequest(query=queries[0]))
                    return replies, errors, after, server.stats

        replies, errors, after, stats = asyncio.run(run())
        assert [type(reply) for reply in replies] == [ErrorFrame] * 3
        assert [reply.code for reply in replies] == ["protocol"] * 3
        assert "too long" in replies[2].message
        assert errors == 3
        assert after.ok and after.response is not None
        assert stats.completed == 1 and stats.accepted == 1

    def test_request_written_a_byte_at_a_time_is_answered_once(self, servers, queries):
        line = encode_frame(
            RequestFrame(request_id="drip", request=SearchRequest(query=queries[0], n=5))
        )

        async def run():
            with frontend_from_servers(servers) as frontend:
                async with GatewayServer(frontend) as server:
                    reader, writer = await asyncio.open_connection(*server.address)
                    await reader.readline()  # hello banner
                    for byte in line:
                        writer.write(bytes([byte]))
                        await writer.drain()
                        await asyncio.sleep(0)  # let the server read each byte alone
                    reply = decode_frame(await reader.readline())
                    writer.write_eof()
                    rest = await reader.read()
                    writer.close()
                    await writer.wait_closed()
                    return reply, rest, server.stats

        reply, rest, stats = asyncio.run(run())
        assert isinstance(reply, ResponseFrame) and reply.request_id == "drip"
        assert rest == b""
        assert stats.accepted == stats.completed == 1 and stats.errors == 0

    def test_a_peer_that_stops_reading_stops_being_read(self, servers):
        async def run():
            with frontend_from_servers(servers) as frontend:
                async with GatewayServer(frontend) as server:
                    reader, writer = await asyncio.open_connection(*server.address)
                    await reader.readline()  # hello banner
                    (connection,) = server._connections
                    transport = connection.transport
                    reading = [transport.is_reading()]
                    connection.pause_writing()
                    reading.append(transport.is_reading())
                    connection.resume_writing()
                    reading.append(transport.is_reading())
                    writer.close()
                    await writer.wait_closed()
                    return reading

        assert asyncio.run(run()) == [True, False, True]

    def test_stop_closes_connected_clients(self, servers, caplog):
        async def run():
            with frontend_from_servers(servers) as frontend:
                server = GatewayServer(frontend)
                await server.start()
                reader, writer = await asyncio.open_connection(*server.address)
                await reader.readline()  # hello banner
                await server.stop()
                try:
                    return await asyncio.wait_for(reader.read(), timeout=1.0)
                finally:
                    writer.close()

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            tail = asyncio.run(run())
        assert tail == b"", "the client saw EOF once the gateway stopped"
        assert [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR] == []

    def test_client_rejects_wrong_banner(self):
        async def run():
            async def impostor(reader, writer):
                writer.write(b'{"v": 1, "type": "hello", "protocol": "imap/4"}\n')
                await writer.drain()

            server = await asyncio.start_server(impostor, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                with pytest.raises(GatewayError, match="imap/4"):
                    async with GatewayClient("127.0.0.1", port):
                        pass
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(run())

    def test_client_connect_refused(self):
        async def run():
            with pytest.raises(GatewayError, match="cannot connect"):
                async with GatewayClient("127.0.0.1", 1):  # nothing listens there
                    pass

        asyncio.run(run())

    def test_server_validates_configuration(self, servers):
        with frontend_from_servers(servers) as frontend:
            with pytest.raises(ValueError, match="queue_limit"):
                GatewayServer(frontend, queue_limit=0)
            with pytest.raises(ValueError, match="concurrency"):
                GatewayServer(frontend, concurrency=0)
        with pytest.raises(ValueError, match="pool_size"):
            GatewayClient("127.0.0.1", 9, pool_size=0)


class TestFrontendFromServers:
    def test_rejects_non_evaluable_without_models(self, servers):
        class QueryOnly:
            def __init__(self, inner):
                self._inner = inner

            def run_query(self, query, max_docs=10):
                return self._inner.run_query(query, max_docs=max_docs)

        wrapped = {name: QueryOnly(server) for name, server in servers.items()}
        with pytest.raises(TypeError, match="not evaluable"):
            frontend_from_servers(wrapped)

    def test_explicit_models_bypass_evaluability(self, servers):
        models = {
            name: server.actual_language_model() for name, server in servers.items()
        }
        wrapped = {
            name: LatencyInjected(server, delay=0.0) for name, server in servers.items()
        }
        with frontend_from_servers(wrapped, models=models) as frontend:
            assert frontend.search(SearchRequest(query="the market")).results is not None


class TestLoadBench:
    def test_overload_sheds_bounded_not_collapse(self, servers, models, queries):
        """At far-beyond-saturation offered load the gateway sheds, keeps
        the queue bounded, and still serves cleanly at low rates."""
        slowed = slowed_federation(servers, delay=0.05)

        async def run():
            with frontend_from_servers(slowed, models=models) as frontend:
                server = GatewayServer(frontend, queue_limit=4, concurrency=2)
                async with server:
                    async with GatewayClient(*server.address, pool_size=2) as client:

                        async def calm_phase():
                            replies = []
                            for i in range(3):
                                request = SearchRequest(query=queries[i % len(queries)])
                                replies.append(await client.search(request))
                            return replies

                        calm = await calm_phase()
                        storm = await asyncio.gather(
                            *(
                                client.search(SearchRequest(query=queries[i % len(queries)]))
                                for i in range(40)
                            )
                        )
                        # Not a collapse: once the storm passes, a calm
                        # rate is served cleanly again.
                        after = await calm_phase()
                    return calm, storm, after, server.stats

        calm, storm, after, stats = asyncio.run(run())
        assert all(r.ok for r in calm)
        shed = [r for r in storm if r.status == "overload"]
        served = [r for r in storm if r.ok]
        assert len(shed) + len(served) == len(storm)
        assert len(shed) / len(storm) > 0.2
        assert served, "the gateway still serves while shedding"
        # Bounded admission: depth never exceeded the limit, and served
        # latency stayed bounded (queue x service, not offered-rate x).
        assert stats.max_queue_depth <= 4
        assert max(r.elapsed for r in served) < 2.0
        assert all(r.ok for r in after)
