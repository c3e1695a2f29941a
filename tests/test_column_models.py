"""Models nobody changes are columns: index exports, store reads, snapshots.

An index's actual model (:meth:`InvertedIndex.language_model`) is a view
of the index's own term table and df / ctf columns; a model read from
its file is a view of the file's sorted terms and columns, and a model
a forked sampler hands back a view of its terms and two columns; a
sampler snapshot keeps narrow df / ctf arrays over a prefix of the live
model's term table.  Each must answer every read exactly as a model
held in dicts does, and a mutation must copy a view out rather than
reach into the index or the file.
"""

from __future__ import annotations

import inspect
import os
import pickle
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.lm.io as io_module
import repro.lm.model as model_module
import repro.sampling.result as result_module
import repro.sampling.sampler as sampler_module
from repro.corpus import Corpus, Document
from repro.federation import FederatedSearchService
from repro.index import DatabaseServer, InvertedIndex
from repro.lm import (
    LanguageModel,
    dumps_language_model,
    pack_language_model,
    rdiff,
    unpack_language_model,
)
from repro.lm.model import ColumnCounts, TermRows, narrow
from repro.sampling import (
    AnyOf,
    MaxDocuments,
    QueryBasedSampler,
    RandomFromOther,
    RdiffConvergence,
    SamplerConfig,
    SamplingPool,
)
from repro.sampling.result import Snapshot, snapshot_rdiff
from repro.federation.testbed import build_synthetic_federation
from repro.store import ModelStore, ShardedModelStore
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
    frozen, twin = over_list_and_twin(table)
    terms = list(table)
    return LanguageModel.over_columns(
        "m",
        {term: row for row, term in enumerate(terms)},
        frozen._df.column,
        frozen._ctf.column,
        documents_seen=7,
        tokens_seen=frozen.tokens_seen,
        total_ctf=frozen.total_ctf,
    ), twin


def over_list_and_twin(
    table: dict[str, tuple[int, int]],
) -> tuple[LanguageModel, LanguageModel]:
    """As :func:`frozen_and_twin`, the view over a term list (a forked sampler's hand-back)."""
    terms = list(table)
    dfs = np.array([df for df, _ in table.values()], dtype=np.int64)
    ctfs = np.array([df + extra for df, extra in table.values()], dtype=np.int64)
    frozen = LanguageModel.over_columns(
        "m",
        terms,
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
        ids = frozen._df.table.rows
        columns = (frozen._df.column, frozen._ctf.column)
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


#: Counts on every side of 2**8, 2**16 and 2**32, so that a file's
#: columns take every width; ``2**61`` stays within the 63 bits a file holds.
wide_counts = st.tuples(
    st.sampled_from([0, 1, 255, 256, 65_535, 65_536, 2**32 - 1, 2**32, 2**61]),
    st.sampled_from([0, 1, 300, 2**32]),
)
# Terms of one to three letters make a term table of odd length as often
# as not, so that the columns after it start at odd offsets.
wide_tables = st.dictionaries(
    st.text(alphabet="abcé", min_size=1, max_size=3), wide_counts, max_size=12
)


def in_sorted_order(table: dict[str, tuple[int, int]]) -> dict[str, tuple[int, int]]:
    return dict(sorted(table.items()))


def _raise(*args, **kwargs):
    raise AssertionError("called while re-packing a column view")


class TestSharedRowNumbers:
    def test_a_looked_up_view_maps_its_rows_to_the_shared_ints(self, monkeypatch):
        monkeypatch.setattr(model_module, "_ROW_NUMBERS", [])
        small = TermRows([f"s{row}" for row in range(400)])
        large = TermRows([f"l{row}" for row in range(900)])
        assert small.rows == dict(zip(small, range(400)))
        assert large.rows == dict(zip(large, range(900)))
        # The longer list kept the shorter one's ints: a row past 256 is
        # one object in both tables.
        assert small.rows["s300"] is large.rows["l300"]
        assert len(model_module._ROW_NUMBERS) == 900

    def test_tables_built_on_many_threads_are_exact(self, monkeypatch):
        monkeypatch.setattr(model_module, "_ROW_NUMBERS", [])
        sizes = [300, 5000, 1200, 8000, 40, 3000, 700, 6500] * 2
        tables = [TermRows([f"t{size}-{row}" for row in range(size)]) for size in sizes]
        threads = [threading.Thread(target=lambda table=table: table.rows) for table in tables]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        for table in tables:
            assert table.rows == dict(zip(table, range(len(table))))


class TestStoreReadModels:
    """A model read from its file is a view over the file's sorted terms and columns."""

    @settings(max_examples=150, deadline=None)
    @given(tables | wide_tables, st.lists(words, max_size=5))
    def test_a_loaded_model_reads_like_its_dict_twin(self, table, absent):
        _, twin = frozen_and_twin(in_sorted_order(table))
        loaded = unpack_language_model(pack_language_model(twin))
        assert type(loaded._df) is ColumnCounts and loaded._df.table.is_sorted
        assert list(loaded) == sorted(table)
        probes = list(table) + absent
        expected = reads(twin, probes)
        assert reads(loaded, probes) == expected
        duplicate = loaded.copy()
        assert type(duplicate._df) is dict and reads(duplicate, probes) == expected
        restored = pickle.loads(pickle.dumps(loaded, pickle.HIGHEST_PROTOCOL))
        assert type(restored._df) is ColumnCounts and reads(restored, probes) == expected

    @settings(max_examples=150, deadline=None)
    @given(tables | wide_tables, mutations)
    def test_the_first_mutation_thaws_the_view_and_leaves_the_file(self, table, steps):
        _, twin = frozen_and_twin(in_sorted_order(table))
        data = pack_language_model(twin)
        kept = bytes(data)
        loaded = unpack_language_model(data)
        columns = [loaded._df.column.copy(), loaded._ctf.column.copy()]
        mutate(loaded, steps)
        assert type(loaded._df) is dict
        untouched = unpack_language_model(data)
        for view, column in zip((untouched._df, untouched._ctf), columns):
            np.testing.assert_array_equal(view.column, column)
        mutate(twin, steps)
        probes = list(twin) + ["zzz"]
        assert reads(loaded, probes) == reads(twin, probes)
        assert data == kept

    @settings(max_examples=150, deadline=None)
    @given(tables | wide_tables)
    def test_repacking_sorts_nothing_and_looks_nothing_up(self, table):
        _, twin = frozen_and_twin(in_sorted_order(table))
        data, text = pack_language_model(twin), dumps_language_model(twin)
        loaded = unpack_language_model(data)
        with pytest.MonkeyPatch.context() as patch:
            for module in (io_module, model_module):
                patch.setattr(module, "sorted", _raise, raising=False)
            for name in ("__getitem__", "get", "__contains__"):
                patch.setattr(ColumnCounts, name, _raise)
            patch.setattr(TermRows, "rows", property(_raise))
            assert pack_language_model(loaded) == data
            assert dumps_language_model(loaded) == text
        assert loaded._df.table._rows is None

    @settings(max_examples=150, deadline=None)
    @given(tables | wide_tables)
    def test_a_view_in_insertion_order_packs_by_gathering_its_columns(self, table):
        handed_back, twin = over_list_and_twin(table)
        data, text = pack_language_model(twin), dumps_language_model(twin)
        with pytest.MonkeyPatch.context() as patch:
            for name in ("__getitem__", "get", "__contains__"):
                patch.setattr(ColumnCounts, name, _raise)
            patch.setattr(TermRows, "rows", property(_raise))
            assert pack_language_model(handed_back) == data
            assert dumps_language_model(handed_back) == text
        assert list(handed_back) == list(twin)

    @pytest.mark.parametrize(("count", "column"), [(2**8, "<u2"), (2**16, "<u4"), (2**32, "<u8")])
    def test_wide_columns_at_odd_offsets_read(self, count, column):
        # "abc" is a 3-byte term table: both columns start at odd offsets.
        twin = LanguageModel(name="odd")
        twin.add_term("abc", df=count, ctf=count + 1)
        data = pack_language_model(twin)
        header = data.split(b"\n", 1)[0].decode("ascii")
        assert f"term_bytes=3 df={column} ctf={column}" in header
        loaded = unpack_language_model(data)
        assert (loaded.df("abc"), loaded.ctf("abc"), "abc" in loaded) == (count, count + 1, True)
        assert reads(loaded, ["abc", "x"]) == reads(twin, ["abc", "x"])

    @pytest.mark.parametrize(
        ("blob", "whitespace_free"),
        [
            ("a\nb\x1fc", False),  # ASCII whitespace past the space character
            ("a\tb\nc", False),
            ("é\xa0x\nz", False),  # non-ASCII whitespace, in a non-ASCII table
            ("a\u2028b\nc", False),
            ("ü\u3000\nz", False),
            ("a\x85\nz", False),
            ("é\nü\nœ", True),
            ("a\nb\nc", True),
        ],
    )
    def test_a_term_table_holds_no_whitespace_but_its_newlines(self, blob, whitespace_free):
        terms = blob.encode("utf-8")
        count = blob.count("\n") + 1
        data = (
            f"#language-model/2 name=x documents_seen=1 tokens_seen=1 terms={count} "
            f"term_bytes={len(terms)} df=<u1 ctf=<u1\n"
        ).encode("ascii") + terms + bytes([1] * 2 * count)
        if whitespace_free:
            assert list(unpack_language_model(data)) == blob.split("\n")
        else:
            with pytest.raises(ValueError, match="whitespace-free terms"):
                unpack_language_model(data)

    def test_a_mutated_store_model_leaves_its_file(self, tmp_path):
        store = ModelStore(tmp_path / "store")
        _, twin = frozen_and_twin({"apple": (2, 3), "pear": (1, 4)})
        store.save({"db": twin})
        path = store.root / store.read_manifest().models["db"].file
        before = path.read_bytes()
        loaded = store.load_model("db")
        loaded.add_document(["apple", "quince"])
        assert loaded.df("apple") == 3 and loaded.df("quince") == 1
        assert path.read_bytes() == before and store.verify() == []
        assert dumps_language_model(store.load_model("db")) == dumps_language_model(twin)

    def test_verify_builds_no_term_table(self, tmp_path, monkeypatch):
        servers = build_synthetic_federation(8, 0.05, seed=5)
        store = ShardedModelStore(tmp_path / "store", 4)
        store.save({name: server.actual_language_model() for name, server in servers.items()})
        loaded = []
        real_load = ModelStore.load_model

        def keeping(self, name, manifest=None):
            loaded.append(real_load(self, name, manifest))
            return loaded[-1]

        monkeypatch.setattr(ModelStore, "load_model", keeping)
        source, first = inspect.getsourcelines(TermRows.rows.fget)
        table_line = first + next(
            number for number, line in enumerate(source) if "dict(zip(" in line
        )
        tracemalloc.start()
        try:
            assert store.verify() == []
            built = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.Filter(True, model_module.__file__, lineno=table_line)]
            )
        finally:
            tracemalloc.stop()
        assert len(loaded) == 8
        assert all(type(model._df) is ColumnCounts for model in loaded)
        assert all(model._df.table._rows is None for model in loaded)
        assert sum(stat.size for stat in built.statistics("lineno")) == 0
        # The probe sees a table when one is built.
        tracemalloc.start()
        try:
            assert "zzz" not in loaded[0]
            built = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.Filter(True, model_module.__file__, lineno=table_line)]
            )
        finally:
            tracemalloc.stop()
        assert sum(stat.size for stat in built.statistics("lineno")) > 0


def use_cpus(monkeypatch, count: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


class TestLearnKeepsOnlyModels:
    def test_forked_models_arrive_as_views_in_insertion_order(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        servers = build_synthetic_federation(4, 0.05, seed=5)
        models = {name: server.actual_language_model() for name, server in servers.items()}
        service = FederatedSearchService(servers)
        service.learn_models(lambda name: RandomFromOther(models[name]), 160, seed=3)
        handed_back = [m for m in service.models.values() if type(m._df) is ColumnCounts]
        assert len(handed_back) == 2  # db1 and db3 were sampled in the child
        for model in handed_back:
            assert not model._df.table.is_sorted and model._df.table._rows is None
            assert list(model) != sorted(model)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_learn_models_takes_no_snapshot(self, monkeypatch, tmp_path, cpus):
        # Appended to a file, so that a forked child's snapshots count too.
        taken = tmp_path / "snapshots"

        class Counted(Snapshot):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                with open(taken, "a", encoding="ascii") as log:
                    log.write(f"{os.getpid()}\n")
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(sampler_module, "Snapshot", Counted)
        use_cpus(monkeypatch, cpus)
        servers = build_synthetic_federation(3, 0.05, seed=5)
        models = {name: server.actual_language_model() for name, server in servers.items()}
        factory = lambda name: RandomFromOther(models[name])  # noqa: E731
        FederatedSearchService(servers).learn_models(factory, 360, seed=2)
        assert not taken.exists()
        # The serial referee keeps every snapshot: 50, 100 and the end, per database.
        runs = SamplingPool(servers, factory, seed=2).run(360).runs
        assert [len(run.snapshots) for run in runs.values()] == [3, 3, 3]
        assert len(taken.read_text(encoding="ascii").split()) == 9
