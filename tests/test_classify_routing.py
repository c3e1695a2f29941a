"""Topic-aware routing: the router's decisions, the serving pin, persistence.

Three layers:

* :class:`TopicRouter` unit behaviour on hand-built classifications —
  every fallback reason, ranked-order preservation, explicit topic
  requests;
* the acceptance pin — on a topically skewed federation, routed
  serving searches measurably fewer databases per query than broadcast
  without losing topical precision;
* persistence — save/load round-trip and warm-started routing through
  :meth:`FederationFrontend.from_store`.
"""

from __future__ import annotations

import json

import pytest

from repro.classify import (
    ClassifyParameters,
    QueryProbeClassifier,
    RequestRouting,
    TopicRouter,
    build_probe_set,
    load_router,
    save_router,
)
from repro.classify.classifier import DatabaseClassification, TopicScore
from repro.classify.persist import CLASSIFICATIONS_FILE
from repro.dbselect.base import finish_ranking
from repro.federation.service import FederatedSearchService, SearchRequest
from repro.federation.testbed import build_skewed_partition, skewed_world, topical_queries
from repro.index import DatabaseServer
from repro.serving.frontend import FederationFrontend
from repro.store import ShardedModelStore
from repro.synth.profiles import PROFILES_BY_NAME


def _classification(name: str, *topics: str) -> DatabaseClassification:
    scores = tuple(
        TopicScore(topic=topic, coverage=10.0, specificity=0.5) for topic in topics
    )
    return DatabaseClassification(
        database=name,
        scores=scores,
        assigned=topics,
        confidence=0.5 if topics else 0.0,
        probes_issued=4,
    )


@pytest.fixture
def hand_router() -> TopicRouter:
    return TopicRouter(
        {
            "dbA": _classification("dbA", "sports"),
            "dbB": _classification("dbB", "finance"),
            "dbC": _classification("dbC"),
        },
        {"sports": {"football": 1.0}, "finance": {"stock": 1.0}},
        min_confidence=0.25,
    )


RANKING = finish_ranking("q", {"dbA": 0.3, "dbB": 0.5, "dbC": 0.4})


class TestRouterDecisions:
    def test_routed_query_restricts_to_topic_members(self, hand_router):
        selected, decision = hand_router.route("football season", RANKING, 2)
        assert selected == ("dbA",)
        assert decision.mode == "routed"
        assert decision.topics == ("sports",)
        assert not decision.fell_back

    def test_ranking_order_is_preserved(self, hand_router):
        # Both topics match with equal weight: candidates are dbA+dbB,
        # and the selector's order (dbB before dbA) must survive.
        selected, decision = hand_router.route("football stock", RANKING, 2)
        assert selected == ("dbB", "dbA")
        assert decision.mode == "routed"
        assert set(decision.topics) == {"sports", "finance"}

    def test_no_topic_match_broadcasts(self, hand_router):
        selected, decision = hand_router.route("zebra xylophone", RANKING, 2)
        assert selected == ("dbB", "dbC")
        assert decision.fell_back and decision.reason == "no_topic_match"

    def test_low_confidence_broadcasts(self, hand_router):
        # Two topics split the matched weight evenly: confidence 0.5,
        # below a floor of 0.9.
        selected, decision = hand_router.route(
            "football stock",
            RANKING,
            2,
            requested=RequestRouting(min_confidence=0.9),
        )
        assert selected == ("dbB", "dbC")
        assert decision.fell_back and decision.reason == "low_confidence"
        assert decision.confidence == pytest.approx(0.5)

    def test_requested_topics_skip_matching(self, hand_router):
        selected, decision = hand_router.route(
            "anything at all",
            RANKING,
            2,
            requested=RequestRouting(topics=("finance",)),
        )
        assert selected == ("dbB",)
        assert decision.confidence == 1.0

    def test_unknown_requested_topic_falls_back(self, hand_router):
        selected, decision = hand_router.route(
            "anything", RANKING, 2, requested=RequestRouting(topics=("cooking",))
        )
        assert selected == ("dbB", "dbC")
        assert decision.fell_back and decision.reason == "no_candidates"

    def test_service_without_router_reports_no_router(self):
        space = PROFILES_BY_NAME["cacm"]().build(seed=0, scale=0.05)
        parts = build_skewed_partition(space, num_databases=2, seed=0)
        service = FederatedSearchService(
            {part.name: DatabaseServer(part) for part in parts},
            databases_per_query=2,
        )
        service.use_models(
            {
                part.name: DatabaseServer(part).actual_language_model()
                for part in parts
            }
        )
        response = service.search(
            SearchRequest(query="system", routing=RequestRouting(topics=("x",)))
        )
        assert response.routing is not None
        assert response.routing.reason == "no_router"


@pytest.fixture(scope="module")
def world():
    corpus = PROFILES_BY_NAME["wsj88"]().build(seed=0, scale=0.02)
    return skewed_world(corpus, num_databases=4, seed=0)


@pytest.fixture(scope="module")
def federation(world):
    """Skewed wsj88 federation + classified router, shared by the pins."""
    parts, servers = list(world.parts), world.servers
    models = {name: server.actual_language_model() for name, server in servers.items()}
    space = PROFILES_BY_NAME["wsj88"]().topic_space(seed=0, scale=0.02)
    probe_set = build_probe_set(space, seed=0)
    classifier = QueryProbeClassifier(probe_set, ClassifyParameters())
    router = TopicRouter.from_probes(probe_set, classifier.classify_all(servers))
    return parts, servers, models, router


class TestRoutedServingPin:
    def test_routed_fanout_beats_broadcast_at_matched_quality(self, world, federation):
        parts, servers, models, router = federation
        broadcast = FederatedSearchService(servers, databases_per_query=3)
        broadcast.use_models(models)
        routed = FederatedSearchService(servers, databases_per_query=3, router=router)
        routed.use_models(models)

        queries = topical_queries(parts)
        assert queries
        fanout = {"broadcast": 0, "routed": 0}
        precision = {"broadcast": 0.0, "routed": 0.0}
        for query in queries:
            relevant = {
                name
                for name, count in world.relevant_counts(query.topic).items()
                if count > 0
            }
            for label, service in (("broadcast", broadcast), ("routed", routed)):
                response = service.search(SearchRequest(query=query.text, n=10))
                fanout[label] += len(response.searched)
                hits = [r for r in response.results if r.database in relevant]
                precision[label] += len(hits) / max(len(response.results), 1)

        # The acceptance pin: measurably fewer databases searched per
        # query, at no topical-precision cost.
        assert fanout["routed"] < fanout["broadcast"]
        assert precision["routed"] >= precision["broadcast"] - 1e-9

    def test_routed_response_reports_decisions(self, federation):
        parts, servers, models, router = federation
        service = FederatedSearchService(servers, databases_per_query=3, router=router)
        service.use_models(models)
        query = topical_queries(parts)[0]
        response = service.search(SearchRequest(query=query.text))
        assert response.routing is not None
        assert response.routing.mode in ("routed", "broadcast")
        if response.routing.mode == "routed":
            assert len(response.searched) <= response.routing.candidates


class TestPersistence:
    def test_round_trip_preserves_everything(self, federation, tmp_path):
        _, _, _, router = federation
        save_router(router, tmp_path)
        loaded = load_router(tmp_path)
        assert loaded is not None
        assert loaded.to_payload() == router.to_payload()

    def test_missing_file_loads_as_none(self, tmp_path):
        assert load_router(tmp_path) is None

    def test_unknown_schema_loads_as_none(self, tmp_path):
        (tmp_path / CLASSIFICATIONS_FILE).write_text(
            json.dumps({"schema": "repro-classify/99"})
        )
        assert load_router(tmp_path) is None

    def test_corrupt_file_raises(self, tmp_path):
        (tmp_path / CLASSIFICATIONS_FILE).write_text("{not json")
        with pytest.raises(ValueError):
            load_router(tmp_path)

    def test_from_store_warm_starts_routing(self, federation, tmp_path):
        parts, servers, models, router = federation
        service = FederatedSearchService(servers, databases_per_query=3)
        service.use_models(models)
        store = ShardedModelStore(tmp_path / "store")
        service.save_models(store)
        save_router(router, store)

        fresh = FederatedSearchService(servers, databases_per_query=3)
        with FederationFrontend.from_store(fresh, store) as frontend:
            assert frontend.service.router is not None
            query = topical_queries(parts)[0]
            response = frontend.search(SearchRequest(query=query.text))
            assert response.routing is not None

    def test_from_store_without_classifications_broadcasts(
        self, federation, tmp_path
    ):
        parts, servers, models, _ = federation
        service = FederatedSearchService(servers, databases_per_query=3)
        service.use_models(models)
        store = ShardedModelStore(tmp_path / "store")
        service.save_models(store)

        fresh = FederatedSearchService(servers, databases_per_query=3)
        with FederationFrontend.from_store(fresh, store) as frontend:
            assert frontend.service.router is None
            response = frontend.search(SearchRequest(query="anything"))
            assert response.routing is None
