"""A store written before model files were columnar keeps working.

Until schema ``repro-store/2`` a shard held one *text-format* file per
model (``dumps_language_model``) under a ``repro-store/1`` manifest.
The layout is composed here from what is still public — the text
serialization, its sha256, the manifest and ``fleet.json`` fields — and
must load, verify, serve, take updates (a shard then holds files of
both kinds) and migrate, with nothing rewritten that was not asked for.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from urllib.parse import quote

import pytest

from repro.cli import main
from repro.federation import (
    FederatedSearchService,
    SearchRequest,
    build_skewed_partition,
    queries_from_models,
)
from repro.index import DatabaseServer
from repro.lm import LanguageModel, dumps_language_model, pack_language_model
from repro.serving import FederationFrontend
from repro.store import ModelStore, ShardedModelStore, shard_of
from repro.synth import wsj88_like

TEXT_HEADER = b"#language-model name="
COLUMNS_HEADER = b"#language-model/2 name="


def write_old_shard(root: Path, models: dict[str, LanguageModel], epoch: int) -> None:
    """One ``repro-store/1`` shard directory: text model files + manifest."""
    (root / "models").mkdir(parents=True)
    entries = {}
    for name, model in models.items():
        data = dumps_language_model(model).encode("utf-8")
        digest = hashlib.sha256(data).hexdigest()
        file = f"models/{quote(name, safe='')}-{digest[:12]}.lm"
        (root / file).write_bytes(data)
        entries[name] = {
            "file": file,
            "sha256": digest,
            "terms": len(model),
            "documents_seen": model.documents_seen,
            "tokens_seen": model.tokens_seen,
        }
    manifest = {"schema": "repro-store/1", "model_epoch": epoch, "models": entries}
    (root / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def write_old_store(
    root: Path, models: dict[str, LanguageModel], num_shards: int, epoch: int
) -> ShardedModelStore:
    """The sharded layout as it was written under ``repro-store/1``."""
    by_shard: dict[str, dict[str, LanguageModel]] = {}
    for name, model in models.items():
        by_shard.setdefault(f"{shard_of(name, num_shards):02d}", {})[name] = model
    for shard_id, members in by_shard.items():
        write_old_shard(root / "shards" / shard_id, members, epoch)
    fleet = {
        "schema": "repro-fleet-store/1",
        "num_shards": num_shards,
        "model_epoch": epoch,
        "shards": {
            shard_id: {"models": len(members), "model_epoch": epoch}
            for shard_id, members in by_shard.items()
        },
    }
    (root / "fleet.json").write_text(json.dumps(fleet, indent=2, sort_keys=True) + "\n")
    return ShardedModelStore(root)


def model_files(store: ShardedModelStore) -> dict[str, bytes]:
    """Every referenced model file's bytes, keyed by shard-relative path."""
    files = {}
    for shard_id in store.shard_ids():
        shard = store.shard(shard_id)
        for entry in shard.read_manifest().models.values():
            files[f"{shard_id}/{entry.file}"] = (shard.root / entry.file).read_bytes()
    return files


def dump_all(store) -> dict[str, str]:
    return {name: dumps_language_model(model) for name, model in store.iter_models()}


@pytest.fixture(scope="module")
def servers() -> dict[str, DatabaseServer]:
    corpus = wsj88_like().build(seed=23, scale=0.06)
    parts = build_skewed_partition(corpus, num_databases=3, seed=5)
    return {part.name: DatabaseServer(part) for part in parts}


@pytest.fixture(scope="module")
def models(servers) -> dict[str, LanguageModel]:
    return {name: server.actual_language_model() for name, server in servers.items()}


def assert_same_answers(left: FederationFrontend, right: FederationFrontend, queries) -> None:
    for query in queries:
        request = SearchRequest(query=query, n=5)
        served, expected = left.search(request), right.search(request)
        assert served.ranking.entries == expected.ranking.entries
        assert served.results == expected.results


class TestOldStoreReads:
    def test_loads_iterates_and_verifies(self, models, tmp_path):
        store = write_old_store(tmp_path / "old", models, num_shards=2, epoch=4)
        expected = {name: dumps_language_model(model) for name, model in models.items()}
        assert store.verify() == []
        assert store.model_epoch() == 4
        assert store.model_names() == sorted(models)
        assert {n: dumps_language_model(m) for n, m in store.load().items()} == expected
        assert dump_all(store) == expected
        assert all(data.startswith(TEXT_HEADER) for data in model_files(store).values())

    def test_a_tampered_text_file_still_fails_its_checksum(self, models, tmp_path):
        store = write_old_store(tmp_path / "old", models, num_shards=2, epoch=1)
        name = sorted(models)[0]
        shard = store.shard_for(name)
        path = shard.root / shard.read_manifest().models[name].file
        path.write_bytes(path.read_bytes() + b"extra 1 1\n")
        problems = store.verify()
        assert len(problems) == 1 and "checksum mismatch" in problems[0]

    def test_warm_start_serves_like_the_models_in_memory(self, servers, models, tmp_path):
        store = write_old_store(tmp_path / "old", models, num_shards=2, epoch=4)
        reference_service = FederatedSearchService(servers, databases_per_query=2)
        reference_service.use_models(models)
        cold = FederatedSearchService(servers, databases_per_query=2)
        with FederationFrontend.from_store(cold, store) as warm:
            with FederationFrontend(reference_service) as reference:
                assert_same_answers(warm, reference, queries_from_models(models, 6))


class TestOldStoreTakesUpdates:
    def test_a_shard_may_hold_both_kinds(self, servers, models, tmp_path):
        # One shard, so the updated model and the untouched ones are neighbours.
        store = write_old_store(tmp_path / "old", models, num_shards=1, epoch=4)
        before = model_files(store)
        target, donor = sorted(models)[:2]
        queries = queries_from_models(models, 6)

        cold = FederatedSearchService(servers, databases_per_query=2)
        with FederationFrontend.from_store(cold, store) as frontend:
            store.update({target: models[donor]})
            after = model_files(store)
            shard = store.shard("00")
            manifest_text = shard.manifest_path.read_text()
            assert json.loads(manifest_text)["schema"] == "repro-store/2"
            entries = shard.read_manifest().models
            new_file = f"00/{entries[target].file}"
            # The one model written is a columnar file ...
            assert after[new_file] == pack_language_model(models[donor])
            assert after[new_file].startswith(COLUMNS_HEADER)
            # ... the others are the text files they were, byte for byte,
            # and the superseded text file has been pruned.
            untouched = {path: data for path, data in after.items() if path != new_file}
            assert len(untouched) == len(models) - 1
            assert all(before[path] == data for path, data in untouched.items())
            assert all(data.startswith(TEXT_HEADER) for data in untouched.values())
            assert store.orphans() == []
            assert store.verify() == []
            assert dump_all(store) == {
                name: dumps_language_model(models[donor] if name == target else model)
                for name, model in models.items()
            }

            assert list(frontend.refresh_from_store()) == sorted(models)
            fresh_service = FederatedSearchService(servers, databases_per_query=2)
            with FederationFrontend.from_store(fresh_service, store) as fresh:
                assert_same_answers(frontend, fresh, queries)


class TestOldStoreMigrates:
    @pytest.mark.parametrize("layout", ["sharded", "flat"])
    def test_migrated_files_equal_a_direct_save(self, models, tmp_path, capsys, layout):
        if layout == "sharded":
            write_old_store(tmp_path / "old", models, num_shards=2, epoch=6)
        else:  # the pre-sharding directory: one shard standing alone
            write_old_shard(tmp_path / "old", models, epoch=6)
        assert main(["fleet", "migrate", str(tmp_path / "old"), str(tmp_path / "new"),
                     "--num-shards", "3"]) == 0
        assert "migrated 3 models" in capsys.readouterr().out

        migrated = ShardedModelStore(tmp_path / "new")
        direct = ShardedModelStore(tmp_path / "direct", num_shards=3)
        direct.save(models, model_epoch=6)
        assert migrated.model_epoch() == 6
        assert migrated.verify() == []
        assert model_files(migrated) == model_files(direct)
        assert all(data.startswith(COLUMNS_HEADER) for data in model_files(migrated).values())
        # The source was only read.
        source = ModelStore(tmp_path / "old") if layout == "flat" else ShardedModelStore(
            tmp_path / "old"
        )
        assert dump_all(source) == {n: dumps_language_model(m) for n, m in models.items()}
        assert source.verify() == []
