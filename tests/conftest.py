"""Shared fixtures: tiny, fast corpora and servers.

Everything here is deliberately small — unit tests should run in
milliseconds.  Statistical-shape tests that need more data build their
own corpora at module scope.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.corpus import Corpus, Document
from repro.index import DatabaseServer
from repro.synth import cacm_like


@pytest.fixture(scope="session")
def tree():
    """``tree(root)``: recursive listing — file bytes, ``None`` for directories."""
    return lambda root: {
        str(path.relative_to(root)): path.read_bytes() if path.is_file() else None
        for path in root.rglob("*")
    }


@pytest.fixture
def thread_starts(monkeypatch) -> list[str]:
    """Names of the threads started while the test runs."""
    started: list[str] = []
    real_start = threading.Thread.start

    def counting_start(thread):
        started.append(thread.name)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    return started


@pytest.fixture
def tiny_docs() -> list[Document]:
    """Six hand-written documents with known term statistics."""
    texts = {
        "d1": "Apple pie recipes use apple and sugar.",
        "d2": "The apple orchard grows apples every autumn.",
        "d3": "Bears eat honey and sometimes apples.",
        "d4": "Honey production depends on healthy bees.",
        "d5": "Bees pollinate the apple orchard in spring.",
        "d6": "Sugar prices rose while honey prices fell.",
    }
    return [Document(doc_id=doc_id, text=text) for doc_id, text in texts.items()]


@pytest.fixture
def tiny_corpus(tiny_docs) -> Corpus:
    return Corpus(tiny_docs, name="tiny")


@pytest.fixture
def tiny_server(tiny_corpus) -> DatabaseServer:
    return DatabaseServer(tiny_corpus)


@pytest.fixture(scope="session")
def small_synthetic_server() -> DatabaseServer:
    """A ~600-document synthetic database shared across the session."""
    corpus = cacm_like().build(seed=11, scale=0.2)
    return DatabaseServer(corpus)


@pytest.fixture(scope="session")
def serve_in_process():
    """``serve_in_process(*argv)``: what ``repro serve *argv`` serves, in process.

    Builds the frontend the ``serve`` command builds from ``argv``,
    serves it with a :class:`~repro.gateway.GatewayServer` on an
    ephemeral port, and sends it four queries drawn from its models
    through a :class:`~repro.gateway.GatewayClient`.  Returns the
    (closed) frontend and the replies.
    """
    from repro.cli import build_parser
    from repro.cli.federation import _gateway_frontend
    from repro.federation import SearchRequest
    from repro.gateway import GatewayClient, GatewayServer
    from repro.serving import queries_from_models

    def serve(*argv: str):
        args = build_parser().parse_args(["serve", *argv])
        frontend, _ = _gateway_frontend(args)
        queries = queries_from_models(frontend.service.models, 4)

        async def run():
            server = GatewayServer(
                frontend, queue_limit=args.queue_limit, concurrency=args.concurrency
            )
            async with server, GatewayClient(*server.address) as client:
                return await asyncio.gather(
                    *(client.search(SearchRequest(query=query)) for query in queries)
                )

        with frontend:
            return frontend, asyncio.run(run())

    return serve
