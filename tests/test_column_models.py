"""Models nobody changes are columns: index exports and sampler snapshots.

An index's actual model (:meth:`InvertedIndex.language_model`) is a view
of the index's own term table and df / ctf columns, and a sampler
snapshot keeps narrow df / ctf arrays over a prefix of the live model's
term table.  Either must answer every read exactly as a model held in
dicts does, and a mutation must copy a view out rather than reach into
the index.
"""

from __future__ import annotations

import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sampling.result as result_module
from repro.corpus import Corpus, Document
from repro.index import DatabaseServer, InvertedIndex
from repro.lm import LanguageModel, dumps_language_model, pack_language_model, rdiff
from repro.lm.model import ColumnCounts, narrow
from repro.sampling import (
    AnyOf,
    MaxDocuments,
    QueryBasedSampler,
    RandomFromOther,
    RdiffConvergence,
    SamplerConfig,
)
from repro.sampling.result import Snapshot, snapshot_rdiff
from repro.synth import cacm_like

words = st.text(alphabet="abcdefghij", min_size=1, max_size=6)
#: df and how far ctf exceeds it; wide enough for 1-, 2- and 4-byte columns.
counts = st.tuples(
    st.integers(min_value=0, max_value=70_000), st.integers(min_value=0, max_value=70_000)
)
tables = st.dictionaries(words, counts, max_size=30)
documents = st.lists(st.lists(words, max_size=8), max_size=4)
mutations = st.lists(
    st.one_of(
        st.tuples(st.just("term"), words, counts),
        st.tuples(st.just("document"), st.lists(words, max_size=8)),
        st.tuples(st.just("documents"), documents),
    ),
    min_size=1,
    max_size=5,
)


def frozen_and_twin(table: dict[str, tuple[int, int]]) -> tuple[LanguageModel, LanguageModel]:
    """The same counts as a column view and, by ``add_term``, in dicts."""
    terms = list(table)
    dfs = np.array([df for df, _ in table.values()], dtype=np.int64)
    ctfs = np.array([df + extra for df, extra in table.values()], dtype=np.int64)
    frozen = LanguageModel.over_columns(
        "m",
        {term: row for row, term in enumerate(terms)},
        narrow(dfs),
        narrow(ctfs),
        documents_seen=7,
        tokens_seen=int(ctfs.sum()),
        total_ctf=int(ctfs.sum()),
    )
    twin = LanguageModel(name="m")
    for (df, extra), term in zip(table.values(), terms):
        twin.add_term(term, df=df, ctf=df + extra)
    twin.documents_seen = 7
    twin.tokens_seen = int(ctfs.sum())
    return frozen, twin


def reads(model: LanguageModel, probes: list[str]) -> dict[str, object]:
    """Every read a caller can make of ``model``."""
    size = len(model)
    return {
        "df": [model.df(term) for term in probes],
        "ctf": [model.ctf(term) for term in probes],
        "avg_tf": [model.avg_tf(term) for term in probes],
        "stats": [model.stats(term) for term in probes],
        "in": [term in model for term in probes],
        "len": size,
        "iter": list(model),
        "vocabulary": model.vocabulary,
        "terms_since": [model.terms_since(start) for start in range(size + 2)],
        "top_terms": [
            model.top_terms(k, key) for key in ("df", "ctf", "avg_tf") for k in (0, 1, 3, size)
        ],
        "items": list(model.items()),
        "total_ctf": model.total_ctf,
        "seen": (model.name, model.documents_seen, model.tokens_seen),
        "dumps": dumps_language_model(model),
        "pack": pack_language_model(model),
    }


def mutate(model: LanguageModel, steps) -> None:
    for kind, *arguments in steps:
        if kind == "term":
            term, (df, extra) = arguments
            model.add_term(term, df=df, ctf=df + extra)
        elif kind == "document":
            model.add_document(arguments[0])
        else:
            model.add_documents(arguments[0])


class TestFrozenModelReadsLikeDicts:
    @settings(max_examples=150, deadline=None)
    @given(tables, st.lists(words, max_size=5))
    def test_every_read_equals_the_dict_twin(self, table, absent):
        frozen, twin = frozen_and_twin(table)
        assert type(frozen._df) is ColumnCounts
        probes = list(table) + absent
        assert reads(frozen, probes) == reads(twin, probes)

    @settings(max_examples=150, deadline=None)
    @given(tables, mutations)
    def test_mutating_equals_mutating_the_twin_and_leaves_the_columns(self, table, steps):
        frozen, twin = frozen_and_twin(table)
        ids = frozen._df._ids
        columns = (frozen._df._column, frozen._ctf._column)
        before = (dict(ids), [column.copy() for column in columns])
        mutate(frozen, steps)
        mutate(twin, steps)
        assert type(frozen._df) is dict
        probes = list(twin) + ["zzz"]
        assert reads(frozen, probes) == reads(twin, probes)
        assert ids == before[0] and list(ids) == list(before[0])
        for column, saved in zip(columns, before[1]):
            np.testing.assert_array_equal(column, saved)

    def test_copy_and_merge_hold_dicts(self):
        frozen, twin = frozen_and_twin({"apple": (2, 3), "pear": (1, 0)})
        duplicate = frozen.copy()
        assert type(duplicate._df) is dict and type(frozen._df) is ColumnCounts
        assert dumps_language_model(duplicate) == dumps_language_model(twin)
        merged = frozen.merge(twin)
        assert merged.df("apple") == 4 and merged.ctf("apple") == 10


def index_of(texts: list[str]) -> InvertedIndex:
    return InvertedIndex(
        Corpus([Document(doc_id=f"d{i}", text=text) for i, text in enumerate(texts)], name="db")
    )


class TestIndexExport:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(words, max_size=12).map(" ".join), min_size=1, max_size=12))
    def test_view_equals_the_index_statistics(self, texts):
        index = index_of(texts)
        actual = index.language_model()
        twin = LanguageModel(name=actual.name)
        for term in index.vocabulary:
            twin.add_term(term, df=index.df(term), ctf=index.ctf(term))
        twin.documents_seen = index.num_documents
        twin.tokens_seen = index.total_terms
        probes = list(index.vocabulary) + ["zzzz"]
        assert reads(actual, probes) == reads(twin, probes)

    def test_each_export_is_an_independent_model(self, tiny_server):
        first = tiny_server.actual_language_model()
        second = tiny_server.actual_language_model()
        assert first is not second
        expected = dumps_language_model(second)
        term = next(iter(second))
        indexed = tiny_server.index.df(term)
        first.add_document([term, "novel"])
        assert first.df(term) == indexed + 1 and tiny_server.index.df(term) == indexed
        assert first.df("novel") == 1 and "novel" not in tiny_server.index
        assert dumps_language_model(second) == expected
        assert dumps_language_model(tiny_server.actual_language_model()) == expected

    def test_export_allocates_the_same_few_bytes_at_any_vocabulary_size(self):
        small = index_of(["apple pie", "honey bees"])
        large = cacm_like().build(seed=5, scale=0.2)
        large_index = InvertedIndex(large)
        assert large_index.vocabulary_size > 100 * small.vocabulary_size
        allocated = []
        for index in (small, large_index):
            index.language_model()  # anything lazily made once is made now
            tracemalloc.start()
            try:
                model = index.language_model()
                allocated.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert len(model) == index.vocabulary_size
        assert max(allocated) < 4096
        assert abs(allocated[1] - allocated[0]) < 512

    def test_a_pickled_view_carries_neither_corpus_nor_index(self, small_synthetic_server):
        actual = small_synthetic_server.actual_language_model()
        payload = pickle.dumps(actual, pickle.HIGHEST_PROTOCOL)
        assert b"InvertedIndex" not in payload and b"Corpus" not in payload
        text = small_synthetic_server.index.corpus.text_bytes(0)
        assert text[:40] not in payload
        restored = pickle.loads(payload)
        assert type(restored._df) is ColumnCounts
        assert dumps_language_model(restored) == dumps_language_model(actual)


class TestSnapshotColumns:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(documents, min_size=1, max_size=4))
    def test_a_snapshot_is_the_model_as_it_was(self, batches):
        model = LanguageModel(name="learned")
        taken = []
        for batch in batches:
            model.add_documents(batch)
            taken.append((Snapshot(len(taken), 0, model), model.copy()))
        for snapshot, expected in taken:
            rebuilt = snapshot.model
            assert list(rebuilt) == list(expected)
            assert dumps_language_model(rebuilt) == dumps_language_model(expected)
            assert (rebuilt.documents_seen, rebuilt.tokens_seen, rebuilt.total_ctf) == (
                expected.documents_seen,
                expected.tokens_seen,
                expected.total_ctf,
            )
        for (first, first_model), (second, second_model) in zip(taken, taken[1:]):
            for metric in ("df", "ctf", "avg_tf"):
                assert snapshot_rdiff(first, second, metric) == rdiff(
                    first_model, second_model, metric=metric
                )

    def test_columns_are_narrow_and_the_model_is_built_per_access(self, small_synthetic_server):
        run = QueryBasedSampler(
            small_synthetic_server,
            bootstrap=RandomFromOther(small_synthetic_server.actual_language_model()),
            stopping=MaxDocuments(120),
            seed=3,
        ).run()
        last = run.snapshots[-1]
        assert last.df.dtype.itemsize == 1 and last.ctf.dtype.itemsize <= 2
        assert not last.df.flags.writeable
        assert last.model is not last.model
        assert dumps_language_model(last.model) == dumps_language_model(run.model)
        # Every snapshot of the run reads a prefix of the live model's terms.
        assert all(s.shares_terms_with(last) for s in run.snapshots)

    def test_a_restored_snapshot_joins_by_term(self, small_synthetic_server):
        def sampler():
            return QueryBasedSampler(
                small_synthetic_server,
                bootstrap=RandomFromOther(small_synthetic_server.actual_language_model()),
                seed=4,
            )

        first = sampler()
        first.run(MaxDocuments(120))
        resumed = sampler()
        resumed.load_state_dict(first.state_dict())
        run = resumed.run(MaxDocuments(200))
        assert not run.snapshots[0].shares_terms_with(run.snapshots[-1])
        for a, b in zip(run.snapshots, run.snapshots[1:]):
            for metric in ("df", "avg_tf"):
                assert snapshot_rdiff(a, b, metric) == rdiff(a.model, b.model, metric=metric)


class TestRdiffConvergenceCost:
    def test_each_snapshot_pair_is_computed_once(self, small_synthetic_server, monkeypatch):
        calls = []
        real = result_module.snapshot_rdiff

        def counting(first, second, metric="df"):
            calls.append((first.documents_examined, second.documents_examined))
            return real(first, second, metric)

        monkeypatch.setattr(result_module, "snapshot_rdiff", counting)
        sampler = QueryBasedSampler(
            small_synthetic_server,
            bootstrap=RandomFromOther(small_synthetic_server.actual_language_model()),
            stopping=AnyOf([MaxDocuments(300), RdiffConvergence(threshold=1e-9)]),
            config=SamplerConfig(snapshot_interval=50),
            seed=1,
        )
        sampler.run()
        pairs = list(zip(sampler.snapshots, sampler.snapshots[1:]))
        spans = [(a.documents_examined, b.documents_examined) for a, b in pairs]
        assert len(pairs) == 5
        # MaxDocuments ends the run before the last pair is asked for.
        assert calls == spans[:-1]
        state = sampler._state
        assert state.recent_rdiffs(5) == [rdiff(a.model, b.model) for a, b in pairs]
        assert calls == spans


def test_learn_models_keeps_no_documents(monkeypatch, tiny_corpus):
    import repro.federation.service as service_module
    from repro.federation import FederatedSearchService

    configs = []
    real_pool = service_module.SamplingPool

    def recording_pool(servers, factory, *, config, **kwargs):
        configs.append(config)
        return real_pool(servers, factory, config=config, **kwargs)

    monkeypatch.setattr(service_module, "SamplingPool", recording_pool)
    servers = {"a": DatabaseServer(tiny_corpus)}
    service = FederatedSearchService(servers)
    service.learn_models(
        lambda name: RandomFromOther(servers[name].actual_language_model()), total_documents=3
    )
    assert [config.keep_documents for config in configs] == [False]
    assert service.models["a"].documents_seen == 3


@pytest.mark.parametrize("metric", ["df", "ctf", "avg_tf"])
def test_snapshot_values_match_the_model_metric(metric):
    model = LanguageModel()
    model.add_term("zero", df=0, ctf=0)
    model.add_documents([["a", "a", "b"], ["b", "c"]])
    snapshot = Snapshot(2, 1, model)
    getter = getattr(model, metric)
    assert snapshot.values(metric).tolist() == [float(getter(t)) for t in snapshot.terms()]
