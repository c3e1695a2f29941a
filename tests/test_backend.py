"""Unit tests for the repro.backend protocol layer."""

from __future__ import annotations

import pytest

from repro.backend import (
    CooperativeDatabase,
    EvaluableDatabase,
    HitCountingDatabase,
    RetrievableDatabase,
    SearchableDatabase,
    may_wait,
    require_searchable,
)
from repro.corpus import Document
from repro.sampling.transport import ResilientDatabase, UnreliableServer
from repro.serving import LatencyInjected
from repro.starts.servers import HonestServer, UncooperativeServer


class QueryOnly:
    """The narrowest conceivable backend: run_query and nothing else."""

    def run_query(self, query: str, max_docs: int = 10) -> list[Document]:
        return []


class NotADatabase:
    pass


class TestProtocolConformance:
    def test_database_server_satisfies_every_tier(self, tiny_server):
        assert isinstance(tiny_server, SearchableDatabase)
        assert isinstance(tiny_server, HitCountingDatabase)
        assert isinstance(tiny_server, RetrievableDatabase)
        assert isinstance(tiny_server, EvaluableDatabase)

    def test_database_server_is_not_cooperative(self, tiny_server):
        # STARTS exports come from the wrappers in repro.starts.servers,
        # not from the raw server.
        assert not isinstance(tiny_server, CooperativeDatabase)

    def test_starts_wrappers_are_cooperative(self, tiny_server):
        assert isinstance(HonestServer(tiny_server), CooperativeDatabase)
        # Even a server that *refuses* satisfies the protocol — refusal
        # is a runtime behaviour, not a missing member.
        assert isinstance(UncooperativeServer(tiny_server), CooperativeDatabase)

    def test_transport_wrappers_stay_searchable(self, tiny_server):
        wrapped = ResilientDatabase(UnreliableServer(tiny_server, transient_rate=0.5))
        assert isinstance(wrapped, SearchableDatabase)
        # The wrapper hides ground truth and the engine: it is *only*
        # the paper's minimal query surface.
        assert not isinstance(wrapped, EvaluableDatabase)
        assert not isinstance(wrapped, RetrievableDatabase)

    def test_minimal_object_is_searchable(self):
        assert isinstance(QueryOnly(), SearchableDatabase)

    def test_non_database_is_nothing(self):
        assert not isinstance(NotADatabase(), SearchableDatabase)


class TestRequireSearchable:
    def test_returns_conforming_object(self, tiny_server):
        assert require_searchable(tiny_server) is tiny_server

    def test_raises_naming_offender_and_member(self):
        with pytest.raises(TypeError) as excinfo:
            require_searchable(NotADatabase(), name="acm")
        message = str(excinfo.value)
        assert "'acm'" in message
        assert "NotADatabase" in message
        assert "run_query" in message

    def test_label_falls_back_to_type_name(self):
        with pytest.raises(TypeError, match="NotADatabase"):
            require_searchable(NotADatabase())


class TestMayWait:
    def test_in_process_index_computes(self, tiny_server):
        assert not may_wait(tiny_server)

    def test_every_wrapper_may_wait_without_saying_so(self, tiny_server):
        # None of them forwards attributes, so wrapping an in-process
        # index hides the declaration and the fan-out pools it.
        assert may_wait(LatencyInjected(tiny_server, delay=0.0))
        assert may_wait(UnreliableServer(tiny_server, transient_rate=0.5))
        assert may_wait(ResilientDatabase(UnreliableServer(tiny_server)))
        assert may_wait(HonestServer(tiny_server))

    def test_absent_or_untrue_declaration_may_wait(self):
        assert may_wait(QueryOnly())

        class Hedging(QueryOnly):
            computes_in_process = "probably"

        assert may_wait(Hedging())
