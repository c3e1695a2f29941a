"""Unit tests for repro.store: atomic writes and the durable model store."""

from __future__ import annotations

import json
import os

import pytest

import repro.store.model_store as model_store_module
from repro.lm import LanguageModel, dumps_language_model
from repro.obs import TraceRecorder
from repro.store import (
    ModelStore,
    StoreIntegrityError,
    atomic_write_bytes,
    atomic_write_text,
)


def build_model(name: str, docs: list[list[str]]) -> LanguageModel:
    model = LanguageModel(name=name)
    for tokens in docs:
        model.add_document(tokens)
    return model


@pytest.fixture
def models() -> dict[str, LanguageModel]:
    return {
        "newsdb": build_model("newsdb", [["apple", "market"], ["market", "bond"]]),
        "scidb": build_model("scidb", [["algorithm", "graph", "graph"]]),
    }


def assert_same_model(left: LanguageModel, right: LanguageModel) -> None:
    assert dumps_language_model(left) == dumps_language_model(right)


class TestAtomicWrite:
    def test_creates_and_overwrites(self, tmp_path):
        target = tmp_path / "file.txt"
        atomic_write_text(target, "one")
        assert target.read_text() == "one"
        atomic_write_text(target, "two")
        assert target.read_text() == "two"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file.txt"]

    def test_bytes_round_trip(self, tmp_path):
        target = tmp_path / "blob.bin"
        payload = bytes(range(256))
        atomic_write_bytes(target, payload)
        assert target.read_bytes() == payload

    def test_mode_and_errors_are_those_open_gives(self, tmp_path):
        plain = tmp_path / "plain.txt"
        plain.write_text("x")
        target = tmp_path / "file.txt"
        atomic_write_text(target, "x")
        assert target.stat().st_mode == plain.stat().st_mode
        missing = tmp_path / "absent" / "file.txt"
        with pytest.raises(FileNotFoundError) as caught:
            atomic_write_text(missing, "x")
        assert caught.value.filename == str(missing)

    def test_failed_write_leaves_target_intact(self, tmp_path, monkeypatch):
        target = tmp_path / "file.txt"
        atomic_write_text(target, "old content")

        def explode(src, dst):
            raise OSError("simulated crash during publish")

        monkeypatch.setattr(os, "replace", explode)
        with pytest.raises(OSError, match="simulated crash"):
            atomic_write_text(target, "new content")
        monkeypatch.undo()
        # The target still holds the old bytes and the temp file is gone.
        assert target.read_text() == "old content"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file.txt"]

    def test_failed_write_never_creates_target(self, tmp_path, monkeypatch):
        target = tmp_path / "never.txt"

        def explode(src, dst):
            raise OSError("simulated crash during publish")

        monkeypatch.setattr(os, "replace", explode)
        with pytest.raises(OSError):
            atomic_write_text(target, "content")
        monkeypatch.undo()
        assert list(tmp_path.iterdir()) == []


class TestModelStoreRoundTrip:
    def test_save_load_preserves_everything(self, tmp_path, models):
        store = ModelStore(tmp_path / "store")
        store.save(models, model_epoch=3)
        loaded = store.load()
        assert set(loaded) == set(models)
        for name, model in models.items():
            assert_same_model(loaded[name], model)
            assert loaded[name].documents_seen == model.documents_seen
            assert loaded[name].tokens_seen == model.tokens_seen

    def test_manifest_records_epoch_and_statistics(self, tmp_path, models):
        store = ModelStore(tmp_path / "store")
        store.save(models, model_epoch=7)
        manifest = store.read_manifest()
        assert manifest.model_epoch == 7
        assert set(manifest.models) == {"newsdb", "scidb"}
        entry = manifest.models["newsdb"]
        assert entry.terms == len(models["newsdb"])
        assert entry.documents_seen == models["newsdb"].documents_seen
        assert entry.tokens_seen == models["newsdb"].tokens_seen

    def test_awkward_install_names_become_safe_filenames(self, tmp_path):
        models = {
            "db with spaces": build_model("db with spaces", [["apple"]]),
            "slash/and=eq": build_model("slash/and=eq", [["pear"]]),
            "ünïcode": build_model("ünïcode", [["grape"]]),
        }
        store = ModelStore(tmp_path / "store")
        store.save(models)
        # Every model file is a single path component under models/.
        for entry in store.read_manifest().models.values():
            directory, filename = entry.file.split("/", 1)
            assert directory == "models"
            assert "/" not in filename
        loaded = store.load()
        assert set(loaded) == set(models)
        for name in models:
            assert_same_model(loaded[name], models[name])

    def test_exists_and_missing_manifest(self, tmp_path):
        store = ModelStore(tmp_path / "store")
        assert not store.exists()
        with pytest.raises(FileNotFoundError):
            store.read_manifest()
        with pytest.raises(FileNotFoundError):
            store.load()

    def test_refuses_empty_model_set(self, tmp_path):
        with pytest.raises(ValueError, match="empty model set"):
            ModelStore(tmp_path / "store").save({})

    def test_save_validates_before_touching_disk(self, tmp_path, models):
        root = tmp_path / "store"
        store = ModelStore(root)
        store.save(models, model_epoch=1)
        bad = dict(models)
        bad["broken"] = build_model("broken", [["has space"]])
        with pytest.raises(ValueError, match="whitespace"):
            store.save(bad, model_epoch=2)
        # The previous store is untouched — same epoch, same models.
        assert store.read_manifest().model_epoch == 1
        assert store.verify() == []

    def test_recorder_counts_writes_and_reads(self, tmp_path, models):
        recorder = TraceRecorder()
        store = ModelStore(tmp_path / "store", recorder=recorder)
        store.save(models)
        store.load()
        metrics = recorder.metrics
        assert metrics.counter("store.models_written").value == len(models)
        assert metrics.counter("store.models_read").value == len(models)
        assert metrics.counter("store.bytes_written").value > 0
        assert {span.name for span in recorder.spans} >= {"store_save", "store_load"}


class TestModelStoreIntegrity:
    def test_tampered_model_fails_checksum(self, tmp_path, models):
        store = ModelStore(tmp_path / "store")
        store.save(models)
        entry = store.read_manifest().models["newsdb"]
        path = store.root / entry.file
        path.write_text(path.read_text() + "zzz 1 1\n")
        with pytest.raises(StoreIntegrityError, match="checksum mismatch"):
            store.load_model("newsdb")
        problems = store.verify()
        assert len(problems) == 1 and "newsdb" in problems[0]

    def test_missing_referenced_file(self, tmp_path, models):
        store = ModelStore(tmp_path / "store")
        store.save(models)
        entry = store.read_manifest().models["scidb"]
        (store.root / entry.file).unlink()
        with pytest.raises(StoreIntegrityError, match="missing"):
            store.load()
        assert store.verify() != []

    def test_unknown_model_name(self, tmp_path, models):
        store = ModelStore(tmp_path / "store")
        store.save(models)
        with pytest.raises(KeyError):
            store.load_model("nope")

    def test_corrupt_manifest_json(self, tmp_path, models):
        store = ModelStore(tmp_path / "store")
        store.save(models)
        store.manifest_path.write_text("{not json")
        with pytest.raises(StoreIntegrityError, match="not valid JSON"):
            store.read_manifest()
        assert store.verify() != []

    def test_unsupported_schema(self, tmp_path, models):
        store = ModelStore(tmp_path / "store")
        store.save(models)
        data = json.loads(store.manifest_path.read_text())
        data["schema"] = "repro-store/999"
        store.manifest_path.write_text(json.dumps(data))
        with pytest.raises(StoreIntegrityError, match="unsupported store schema"):
            store.read_manifest()


class TestCrashDuringSave:
    """Kill the writer between files; the published store must survive."""

    @pytest.mark.parametrize("crash_at_write", [1, 2, 3])
    def test_crash_leaves_previous_store_intact(
        self, tmp_path, models, monkeypatch, crash_at_write
    ):
        store = ModelStore(tmp_path / "store")
        store.save(models, model_epoch=1)
        before = {name: dumps_language_model(m) for name, m in store.load().items()}

        updated = {
            name: build_model(name, [["fresh", "tokens", name]]) for name in models
        }
        calls = {"n": 0}
        real_write = model_store_module.atomic_write_text
        real_write_bytes = model_store_module.atomic_write_bytes

        def crashing_write(path, content):
            # A save writes len(models) model files then the manifest;
            # die before the crash_at_write-th write lands.
            calls["n"] += 1
            if calls["n"] == crash_at_write:
                raise OSError("simulated crash mid-save")
            (real_write_bytes if isinstance(content, bytes) else real_write)(path, content)

        monkeypatch.setattr(model_store_module, "atomic_write_text", crashing_write)
        monkeypatch.setattr(model_store_module, "atomic_write_bytes", crashing_write)
        with pytest.raises(OSError, match="simulated crash"):
            store.save(updated, model_epoch=2)
        monkeypatch.undo()

        # The old manifest and every model it references are intact.
        manifest = store.read_manifest()
        assert manifest.model_epoch == 1
        assert store.verify() == []
        after = {name: dumps_language_model(m) for name, m in store.load().items()}
        assert after == before

    def test_crash_before_manifest_orphans_new_files(
        self, tmp_path, models, monkeypatch
    ):
        store = ModelStore(tmp_path / "store")
        store.save({"newsdb": models["newsdb"]}, model_epoch=1)

        calls = {"n": 0}
        real_write = model_store_module.atomic_write_text
        real_write_bytes = model_store_module.atomic_write_bytes

        def crash_at_manifest(path, content):
            calls["n"] += 1
            if calls["n"] > len(models):  # model files land, manifest does not
                raise OSError("simulated crash before manifest publish")
            (real_write_bytes if isinstance(content, bytes) else real_write)(path, content)

        monkeypatch.setattr(model_store_module, "atomic_write_text", crash_at_manifest)
        monkeypatch.setattr(model_store_module, "atomic_write_bytes", crash_at_manifest)
        with pytest.raises(OSError, match="before manifest"):
            store.save(models, model_epoch=2)
        monkeypatch.undo()

        # The manifest never references a half-written set: it still
        # names only the old model, which still verifies; the new file
        # is an orphan, and a later successful save reclaims it.
        manifest = store.read_manifest()
        assert manifest.model_epoch == 1
        assert set(manifest.models) == {"newsdb"}
        assert store.verify() == []
        assert store.orphans() != []
        store.save(models, model_epoch=2)
        assert store.orphans() == []
        assert set(store.read_manifest().models) == set(models)


class TestOrphans:
    def test_stray_file_reported(self, tmp_path, models):
        store = ModelStore(tmp_path / "store")
        store.save(models)
        (store.root / "models" / "stray.lm").write_text("junk")
        assert store.orphans() == ["models/stray.lm"]
        assert store.verify() == []  # orphans are harmless

    def test_no_models_directory(self, tmp_path):
        assert ModelStore(tmp_path / "nowhere").orphans() == []
