"""Unit tests for the sharded model store (repro.store.sharded).

The contract under test: a sharded store holds exactly the models a
single :class:`ModelStore` directory would (same models, same epochs,
bit-identical files) while adding shard-level selectivity — a crash at
*any* write during a sharded save leaves every shard's manifest and
referenced models intact, extending the per-shard kill-anywhere
guarantee — and a flat directory written before sharding is refused
untouched, with ``fleet migrate`` as the only way in.
"""

from __future__ import annotations

import re
import shutil
import threading

import pytest

import repro.store.model_store as model_store_module
import repro.store.sharded as sharded_module
from repro.federation import FederatedSearchService
from repro.lm import LanguageModel, dumps_language_model
from repro.obs import TraceRecorder
from repro.store import (
    FLEET_MANIFEST_NAME,
    ModelStore,
    ShardedModelStore,
    StoreIntegrityError,
    shard_of,
)
from repro.store.sharded import FLEET_SCHEMA


def build_model(name: str, docs: list[list[str]]) -> LanguageModel:
    model = LanguageModel(name=name)
    for tokens in docs:
        model.add_document(tokens)
    return model


def build_fleet(count: int, tag: str = "v1") -> dict[str, LanguageModel]:
    return {
        f"db{i:03d}": build_model(f"db{i:03d}", [[tag, "term", f"t{i}", f"t{i}"]])
        for i in range(count)
    }


def dump_all(store) -> dict[str, str]:
    return {name: dumps_language_model(model) for name, model in store.iter_models()}


def shard_epochs(store) -> dict[str, int]:
    """Each published shard's epoch, read off its own manifest."""
    return {s: store.shard(s).model_epoch() for s in store.shard_ids()}


class TestShardOf:
    def test_stable_and_in_range(self):
        for name in ["wsj88", "ap89", "cacm", "db with spaces", "ünïcode"]:
            first = shard_of(name, 16)
            assert 0 <= first < 16
            assert shard_of(name, 16) == first  # deterministic

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            shard_of("x", 0)

    def test_spreads_names(self):
        # 64 names over 8 shards should not all collapse to one bucket.
        buckets = {shard_of(f"db{i:03d}", 8) for i in range(64)}
        assert len(buckets) > 4


class TestRoundTrip:
    def test_save_load_round_trip(self, tmp_path):
        fleet = build_fleet(12)
        store = ShardedModelStore(tmp_path / "store", num_shards=4)
        store.save(fleet, model_epoch=3)
        assert store.model_epoch() == 3
        assert store.model_names() == sorted(fleet)
        loaded = store.load()
        for name in fleet:
            assert dumps_language_model(loaded[name]) == dumps_language_model(fleet[name])

    def test_selective_load_touches_one_shard(self, tmp_path):
        fleet = build_fleet(12)
        store = ShardedModelStore(tmp_path / "store", num_shards=4)
        store.save(fleet)
        model = store.load_model("db003")
        assert dumps_language_model(model) == dumps_language_model(fleet["db003"])
        with pytest.raises(KeyError):
            store.load_model("not-there")

    def test_iter_models_streams_sorted(self, tmp_path):
        fleet = build_fleet(10)
        store = ShardedModelStore(tmp_path / "store", num_shards=4)
        store.save(fleet)
        names = [name for name, _ in store.iter_models()]
        assert sorted(names) == sorted(fleet)

    def test_empty_save_rejected(self, tmp_path):
        store = ShardedModelStore(tmp_path / "store", num_shards=4)
        with pytest.raises(ValueError):
            store.save({})
        with pytest.raises(ValueError):
            store.update({})

    def test_full_save_prunes_departed_shards(self, tmp_path):
        store = ShardedModelStore(tmp_path / "store", num_shards=8)
        store.save(build_fleet(20), model_epoch=1)
        # Save a much smaller fleet: shards the new content does not
        # occupy disappear and the fleet manifest never mentions them.
        small = {"db000": build_model("db000", [["only", "one"]])}
        store.save(small, model_epoch=2)
        assert store.model_names() == ["db000"]
        assert store.verify() == []
        listed = set(store.shard_ids())
        on_disk = {p.name for p in (store.root / "shards").iterdir() if p.is_dir()}
        assert on_disk == listed


class TestUpdate:
    def test_update_rewrites_only_affected_shards(self, tmp_path):
        fleet = build_fleet(16)
        store = ShardedModelStore(tmp_path / "store", num_shards=4)
        store.save(fleet, model_epoch=1)
        before = shard_epochs(store)

        fresh = {"db005": build_model("db005", [["fresh", "content"]])}
        store.update(fresh)

        after = shard_epochs(store)
        touched = store.shard_id(shard_of("db005", store.num_shards))
        assert after[touched] == 2  # default: one past the fleet epoch
        for shard_id, epoch in before.items():
            if shard_id != touched:
                assert after[shard_id] == epoch  # untouched shards did not move
        # The untouched names are still all present.
        assert store.model_names() == sorted(fleet)
        assert dumps_language_model(store.load_model("db005")) == dumps_language_model(
            fresh["db005"]
        )
        assert store.model_epoch() == 2
        assert store.verify() == []

    def test_update_can_add_new_names(self, tmp_path):
        store = ShardedModelStore(tmp_path / "store", num_shards=4)
        store.save(build_fleet(4), model_epoch=1)
        store.update({"newdb": build_model("newdb", [["brand", "new"]])}, model_epoch=5)
        assert "newdb" in store.model_names()
        assert store.model_epoch() == 5

    def test_update_writes_the_models_it_was_given(self, tmp_path, monkeypatch):
        """Neighbours in the touched shard are carried, not rewritten."""
        import json

        fleet = build_fleet(5)
        store = ShardedModelStore(tmp_path / "store", num_shards=1)
        store.save(fleet, model_epoch=1)
        shard = store.shard_for("db002")
        before = shard.read_manifest()
        raw_before = json.loads(shard.manifest_path.read_text())["models"]
        stats_before = {
            name: (shard.root / entry.file).stat() for name, entry in before.models.items()
        }

        # Not one neighbour's file may even be opened.
        real_load = ModelStore.load_model

        def refusing_load(self, name, manifest=None):
            raise AssertionError(f"update read {name!r} back")

        monkeypatch.setattr(ModelStore, "load_model", refusing_load)
        recorder = TraceRecorder()
        fresh = {"db002": build_model("db002", [["fresh", "content"]])}
        ShardedModelStore(store.root, recorder=recorder).update(fresh)
        monkeypatch.setattr(ModelStore, "load_model", real_load)

        assert recorder.metrics.counter("store.models_written").value == 1
        after = shard.read_manifest()
        raw_after = json.loads(shard.manifest_path.read_text())["models"]
        assert after.model_epoch == 2
        for name in sorted(set(fleet) - set(fresh)):
            assert raw_after[name] == raw_before[name]
            stat = (shard.root / after.models[name].file).stat()
            assert (stat.st_ino, stat.st_mtime_ns) == (
                stats_before[name].st_ino, stats_before[name].st_mtime_ns
            )
        assert after.models["db002"] != before.models["db002"]
        # The superseded generation of the updated model is pruned.
        assert not (shard.root / before.models["db002"].file).exists()
        assert store.orphans() == []
        assert store.verify() == []
        assert dump_all(store) == {
            name: dumps_language_model(model) for name, model in {**fleet, **fresh}.items()
        }

    def test_update_does_not_vouch_for_a_corrupt_neighbour(self, tmp_path):
        store = ShardedModelStore(tmp_path / "store", num_shards=1)
        store.save(build_fleet(3), model_epoch=1)
        shard = store.shard_for("db000")
        victim = shard.root / shard.read_manifest().models["db001"].file
        victim.write_text(victim.read_text() + "tampered\n")
        store.update({"db000": build_model("db000", [["fresh"]])})
        assert [problem for problem in store.verify() if "db001" in problem]
        with pytest.raises(StoreIntegrityError, match="checksum mismatch"):
            store.load_model("db001")
        assert store.load_model("db002") is not None


class TestShardCount:
    def test_shard_count_read_back_from_disk(self, tmp_path):
        ShardedModelStore(tmp_path / "store", num_shards=4).save(build_fleet(6))
        reopened = ShardedModelStore(tmp_path / "store")
        assert reopened.num_shards == 4

    def test_mismatched_shard_count_rejected(self, tmp_path):
        ShardedModelStore(tmp_path / "store", num_shards=4).save(build_fleet(6))
        with pytest.raises(StoreIntegrityError, match="fixed at creation"):
            _ = ShardedModelStore(tmp_path / "store", num_shards=8).num_shards

    def test_invalid_construction(self, tmp_path):
        with pytest.raises(ValueError):
            ShardedModelStore(tmp_path, num_shards=0)


class TestProtocolAndOpen:
    def test_flat_store_protocol_surface(self, tmp_path):
        store = ModelStore(tmp_path / "flat")
        fleet = build_fleet(3)
        store.save(fleet, model_epoch=2)
        assert store.model_names() == sorted(fleet)
        assert store.model_epoch() == 2
        assert [name for name, _ in store.iter_models()] == sorted(fleet)


class TestMigration:
    def test_migration_is_bit_identical(self, tmp_path):
        fleet = build_fleet(10)
        flat = ModelStore(tmp_path / "flat")
        flat.save(fleet, model_epoch=7)
        flat_bytes = {
            entry.file.split("/")[-1]: (flat.root / entry.file).read_bytes()
            for entry in flat.read_manifest().models.values()
        }

        sharded = ShardedModelStore.migrate(flat, tmp_path / "sharded", num_shards=4)
        assert sharded.model_epoch() == 7  # epoch carries over
        assert sharded.model_names() == sorted(fleet)
        assert sharded.verify() == []
        assert dump_all(sharded) == dump_all(flat)
        # The canonical serialization makes migrated files byte-for-byte
        # identical to the flat originals.
        sharded_bytes = {}
        for shard_id in sharded.shard_ids():
            shard = sharded.shard(shard_id)
            for entry in shard.read_manifest().models.values():
                sharded_bytes[entry.file.split("/")[-1]] = (shard.root / entry.file).read_bytes()
        assert sharded_bytes == flat_bytes

    def test_migration_refuses_existing_target(self, tmp_path):
        flat = ModelStore(tmp_path / "flat")
        flat.save(build_fleet(2))
        ShardedModelStore(tmp_path / "sharded", num_shards=2).save(build_fleet(2))
        with pytest.raises(StoreIntegrityError, match="existing store"):
            ShardedModelStore.migrate(flat, tmp_path / "sharded")

    def test_migration_leaves_source_untouched(self, tmp_path):
        flat = ModelStore(tmp_path / "flat")
        flat.save(build_fleet(4), model_epoch=2)
        before = dump_all(flat)
        ShardedModelStore.migrate(flat, tmp_path / "sharded", num_shards=2)
        assert dump_all(flat) == before
        assert flat.model_epoch() == 2


class TestFlatDirectoryRefused:
    """A bare ``ModelStore`` directory is never read as, or written beside."""

    ENTRIES = {
        "save": lambda store: store.save(build_fleet(1)),
        "update": lambda store: store.update(build_fleet(1)),
        "load": lambda store: store.load(),
        "load_model": lambda store: store.load_model("db000"),
        "iter_models": lambda store: list(store.iter_models()),
        "model_names": lambda store: store.model_names(),
        "model_epoch": lambda store: store.model_epoch(),
        "shard_epochs": shard_epochs,
        "num_shards": lambda store: store.num_shards,
        "exists": lambda store: store.exists(),
        "orphans": lambda store: store.orphans(),
        "prune_orphans": lambda store: store.prune_orphans(),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_every_entry_raises_and_writes_nothing(self, tmp_path, tree, entry):
        ModelStore(tmp_path / "flat").save(build_fleet(4), model_epoch=3)
        (tmp_path / "flat" / "models" / "stray.lm").write_text("junk")
        before = tree(tmp_path)
        store = ShardedModelStore(tmp_path / "flat", num_shards=4)
        with pytest.raises(StoreIntegrityError, match="repro fleet migrate SRC DEST"):
            self.ENTRIES[entry](store)
        assert any("repro fleet migrate" in problem for problem in store.verify())
        assert tree(tmp_path) == before
        # The flat models are all still there for the migration to read.
        assert ModelStore(tmp_path / "flat").model_names() == sorted(build_fleet(4))


class TestCrashDuringShardedSave:
    """Kill-anywhere injection: every shard must stay internally intact."""

    def _crash_at(self, monkeypatch, crash_at_write: int):
        """Crash the ``crash_at_write``-th atomic write, wherever it lands.

        Patches both the shard-level writers (model files + shard
        manifests) and the fleet-level writer (``fleet.json``) with one
        shared, lock-guarded counter — shard saves run on a thread
        pool, so the counter must be race-free for the kill point to
        be exact.
        """
        lock = threading.Lock()
        calls = {"n": 0}
        real_write = model_store_module.atomic_write_text
        real_write_bytes = model_store_module.atomic_write_bytes

        def crashing_write(path, content):
            with lock:
                calls["n"] += 1
                # A killed process writes nothing further — fail this
                # write *and every later one* (queued shard saves on
                # the pool would otherwise keep landing writes).
                if calls["n"] >= crash_at_write:
                    raise OSError("simulated crash mid-save")
            (real_write_bytes if isinstance(content, bytes) else real_write)(path, content)

        monkeypatch.setattr(model_store_module, "atomic_write_text", crashing_write)
        monkeypatch.setattr(model_store_module, "atomic_write_bytes", crashing_write)
        monkeypatch.setattr(sharded_module, "atomic_write_text", crashing_write)
        return calls

    # A full save of db000..db005 over 3 shards makes exactly 9
    # writes: 6 model files, 3 shard manifests.
    @pytest.mark.parametrize("crash_at_write", range(1, 10))
    def test_kill_anywhere_leaves_every_shard_intact(
        self, tmp_path, monkeypatch, crash_at_write
    ):
        fleet = build_fleet(6)
        monkeypatch.setattr(sharded_module, "_SAVE_WORKERS", 1)
        store = ShardedModelStore(tmp_path / "store", num_shards=3)
        store.save(fleet, model_epoch=1)
        before = dump_all(store)

        updated = build_fleet(6, tag="v2")
        self._crash_at(monkeypatch, crash_at_write)
        with pytest.raises(OSError, match="simulated crash"):
            store.save(updated, model_epoch=2)
        monkeypatch.undo()

        # Every shard's manifest parses and every referenced model
        # passes its checksum — the acceptance criterion.  A shard is
        # either wholly old or wholly new (epoch 1 or 2), never torn.
        survivor = ShardedModelStore(tmp_path / "store")
        assert survivor.verify() == []
        for shard_id, epoch in shard_epochs(survivor).items():
            assert epoch in (1, 2)
        # Each model is readable and matches one of the two generations.
        for name, text in dump_all(survivor).items():
            assert text in (before[name], dumps_language_model(updated[name]))

    # An update of db000 and db001 (one shard each, of three) makes
    # exactly 4 writes: 2 model files, 2 shard manifests.
    @pytest.mark.parametrize("crash_at_write", range(1, 5))
    def test_kill_anywhere_during_update_leaves_every_shard_intact(
        self, tmp_path, monkeypatch, crash_at_write
    ):
        fleet = build_fleet(6)
        monkeypatch.setattr(sharded_module, "_SAVE_WORKERS", 1)
        store = ShardedModelStore(tmp_path / "store", num_shards=3)
        store.save(fleet, model_epoch=1)
        before = dump_all(store)
        names = ["db000", "db001"]
        assert len({store.shard_for(name).root for name in names}) == 2

        updated = {name: build_fleet(6, tag="v2")[name] for name in names}
        calls = self._crash_at(monkeypatch, crash_at_write)
        with pytest.raises(OSError, match="simulated crash"):
            store.update(updated, model_epoch=2)
        monkeypatch.undo()
        assert calls["n"] >= crash_at_write

        # No model is lost and every one is a whole generation: the
        # updated names old or new, every neighbour exactly as it was.
        survivor = ShardedModelStore(tmp_path / "store")
        assert survivor.verify() == []
        after = dump_all(survivor)
        assert sorted(after) == sorted(fleet)
        for name, text in after.items():
            if name in updated:
                assert text in (before[name], dumps_language_model(updated[name]))
            else:
                assert text == before[name]
        # A retry converges on exactly the updated fleet.
        survivor.update(updated, model_epoch=2)
        assert survivor.verify() == [] and survivor.orphans() == []
        assert dump_all(survivor) == {
            **before, **{n: dumps_language_model(m) for n, m in updated.items()}
        }

    def test_update_makes_the_writes_it_says(self, tmp_path, monkeypatch):
        """The count the kill-anywhere range above is built on."""
        monkeypatch.setattr(sharded_module, "_SAVE_WORKERS", 1)
        store = ShardedModelStore(tmp_path / "store", num_shards=3)
        store.save(build_fleet(6), model_epoch=1)
        calls = self._crash_at(monkeypatch, crash_at_write=10**6)
        tagged = build_fleet(6, tag="v2")
        store.update({name: tagged[name] for name in ["db000", "db001"]})
        assert calls["n"] == 4

    # A 3-shard store holding db000 (shard 2) is given db001, which
    # hashes to the unoccupied shard 1: by an update, or by a full save
    # that also rewrites db000.
    OPENING_WRITES = {
        "update": lambda store, new: store.update({"db001": new["db001"]}, model_epoch=2),
        "save": lambda store, new: store.save(new, model_epoch=2),
    }

    @pytest.mark.parametrize("operation", sorted(OPENING_WRITES))
    def test_a_write_killed_opening_a_shard_hides_no_durable_model(
        self, tmp_path, monkeypatch, tiny_server, operation
    ):
        """Every reader lists exactly the models ``load_model`` can read."""
        names = ["db000", "db001"]
        new = {name: build_model(name, [["v2", name]]) for name in names}
        write = self.OPENING_WRITES[operation]

        def fresh_store(root) -> ShardedModelStore:
            store = ShardedModelStore(root, num_shards=3)
            store.save({"db000": build_model("db000", [["v1"]])}, model_epoch=1)
            assert [shard_of(name, 3) for name in names] == [2, 1]
            return store

        # Count the writes the operation makes, then kill it at each one.
        store = fresh_store(tmp_path / "count")
        calls = self._crash_at(monkeypatch, crash_at_write=10**6)
        write(store, new)
        writes = calls["n"]
        monkeypatch.undo()
        assert writes >= 2

        for crash_at_write in range(1, writes + 1):
            root = tmp_path / f"kill-{crash_at_write}"
            store = fresh_store(root)
            monkeypatch.setattr(sharded_module, "_SAVE_WORKERS", 1)
            self._crash_at(monkeypatch, crash_at_write)
            with pytest.raises(OSError, match="simulated crash"):
                write(store, new)
            monkeypatch.undo()

            survivor = ShardedModelStore(root)
            readable = []
            for name in names:
                try:
                    survivor.load_model(name)
                except KeyError:
                    continue
                readable.append(name)
            assert survivor.verify() == [], crash_at_write
            assert survivor.model_names() == readable, crash_at_write
            assert sorted(survivor.load()) == readable, crash_at_write
            assert survivor.model_epoch() == max(
                survivor.shard_for(name).model_epoch() for name in readable
            ), crash_at_write
            missing = sorted(set(names) - set(readable))
            service = FederatedSearchService(dict.fromkeys(names, tiny_server))
            if missing:
                with pytest.raises(ValueError, match=re.escape(str(missing))):
                    service.load_models(survivor)
                service = FederatedSearchService(dict.fromkeys(readable, tiny_server))
            service.load_models(survivor)
            assert sorted(service.models) == readable

    def test_a_prune_killed_part_way_lists_no_half_deleted_shard(self, tmp_path, monkeypatch):
        store = ShardedModelStore(tmp_path / "store", num_shards=3)
        store.save(build_fleet(6), model_epoch=1)
        small = {"db000": build_model("db000", [["only", "one"]])}
        real_rmtree = shutil.rmtree

        def killed_rmtree(path, ignore_errors=False):
            real_rmtree(path / "models")  # the model files go, then the process dies
            raise OSError("simulated crash mid-prune")

        monkeypatch.setattr(shutil, "rmtree", killed_rmtree)
        with pytest.raises(OSError, match="simulated crash"):
            store.save(small, model_epoch=2)
        monkeypatch.undo()

        survivor = ShardedModelStore(store.root)
        assert survivor.verify() == []
        assert "db000" in survivor.model_names()
        assert sorted(survivor.load()) == survivor.model_names()
        # A retried save finishes the prune.
        survivor.save(small, model_epoch=2)
        assert survivor.model_names() == ["db000"]
        assert [p.name for p in (store.root / "shards").iterdir()] == survivor.shard_ids()

    def test_crash_mid_save_then_retry_converges(self, tmp_path, monkeypatch):
        fleet = build_fleet(6)
        monkeypatch.setattr(sharded_module, "_SAVE_WORKERS", 1)
        store = ShardedModelStore(tmp_path / "store", num_shards=3)
        store.save(fleet, model_epoch=1)
        updated = build_fleet(6, tag="v2")

        self._crash_at(monkeypatch, 5)
        with pytest.raises(OSError):
            store.save(updated, model_epoch=2)
        monkeypatch.undo()

        # A retried save completes and the store is exactly the new set.
        store.save(updated, model_epoch=2)
        assert store.verify() == []
        assert store.orphans() == []
        assert store.model_epoch() == 2
        assert dump_all(store) == {
            name: dumps_language_model(model) for name, model in updated.items()
        }


class TestFleetManifestWrittenOnce:
    """``fleet.json`` pins the shard count at creation; nothing rewrites it."""

    def test_save_and_update_leave_it_untouched(self, tmp_path):
        store = ShardedModelStore(tmp_path / "store", num_shards=3)
        store.save(build_fleet(1), model_epoch=1)
        path = store.fleet_manifest_path

        def state():
            stat = path.stat()
            return path.read_bytes(), stat.st_ino, stat.st_mtime_ns

        before = state()
        store.save(build_fleet(6, tag="v2"), model_epoch=2)  # opens two shards
        store.update({"newdb": build_model("newdb", [["brand", "new"]])})
        store.save(build_fleet(1, tag="v3"), model_epoch=4)  # prunes two shards
        assert state() == before
        assert store.model_names() == ["db000"] and store.verify() == []
        assert path.read_text() == (
            f'{{\n  "num_shards": 3,\n  "schema": "{FLEET_SCHEMA}"\n}}\n'
        )

    def test_migration_writes_it_first_and_once(self, tmp_path, monkeypatch):
        flat = ModelStore(tmp_path / "flat")
        flat.save(build_fleet(6), model_epoch=3)
        written = []

        def recording(real):
            def write(path, content):
                written.append(path.name)
                real(path, content)

            return write

        for module, writer in [
            (model_store_module, "atomic_write_text"),
            (model_store_module, "atomic_write_bytes"),
            (sharded_module, "atomic_write_text"),
        ]:
            monkeypatch.setattr(module, writer, recording(getattr(module, writer)))
        ShardedModelStore.migrate(flat, tmp_path / "sharded", num_shards=3)
        assert written[0] == FLEET_MANIFEST_NAME
        assert written.count(FLEET_MANIFEST_NAME) == 1
        assert len(written) == 1 + 6 + 3  # fleet.json, model files, shard manifests


class TestInspection:
    def test_orphans_and_prune_per_shard(self, tmp_path):
        store = ShardedModelStore(tmp_path / "store", num_shards=2)
        store.save(build_fleet(4))
        shard_id = store.shard_ids()[0]
        stray = store.root / "shards" / shard_id / "models" / "stray.lm"
        stray.write_text("junk")
        assert store.orphans() == [f"shards/{shard_id}/models/stray.lm"]
        assert store.verify() == []  # orphans are harmless
        removed = store.prune_orphans()
        assert removed == [f"shards/{shard_id}/models/stray.lm"]
        assert not stray.exists()
        assert store.orphans() == []

    def test_misplaced_model_detected(self, tmp_path):
        fleet = build_fleet(6)
        store = ShardedModelStore(tmp_path / "store", num_shards=3)
        store.save(fleet)
        # Force a model into the wrong shard: save it into some shard
        # it does not hash to.
        name = "db000"
        home = store.shard_id(shard_of(name, store.num_shards))
        wrong = next(s for s in store.shard_ids() if s != home)
        wrong_shard = store.shard(wrong)
        merged = wrong_shard.load()
        merged[name] = fleet[name]
        wrong_shard.save(merged)
        problems = store.verify()
        assert any("misplaced" in p for p in problems)

    def test_corrupt_shard_model_reported_with_shard_prefix(self, tmp_path):
        store = ShardedModelStore(tmp_path / "store", num_shards=2)
        store.save(build_fleet(4))
        shard_id = store.shard_ids()[0]
        shard = store.shard(shard_id)
        entry = next(iter(shard.read_manifest().models.values()))
        (shard.root / entry.file).write_text("corrupted")
        problems = store.verify()
        assert problems and all(p.startswith(f"shard {shard_id}:") for p in problems)

    def test_missing_fleet_manifest(self, tmp_path):
        store = ShardedModelStore(tmp_path / "nowhere")
        assert not store.exists()
        assert store.verify() != []
        with pytest.raises(FileNotFoundError):
            store.read_fleet_manifest()

    def test_bad_fleet_schema_rejected(self, tmp_path):
        store = ShardedModelStore(tmp_path / "store", num_shards=2)
        store.save(build_fleet(2))
        path = store.fleet_manifest_path
        data = path.read_text().replace(FLEET_SCHEMA, "repro-fleet-store/99")
        path.write_text(data)
        with pytest.raises(StoreIntegrityError, match="unsupported fleet schema"):
            store.read_fleet_manifest()

    def test_recorder_sees_fleet_spans(self, tmp_path):
        recorder = TraceRecorder()
        store = ShardedModelStore(tmp_path / "store", num_shards=2, recorder=recorder)
        store.save(build_fleet(4))
        names = [span.name for span in recorder.spans]
        assert "fleet_save" in names
        assert recorder.metrics.counter("store.shards_written").value >= 1


def test_fleet_manifest_file_name_constant(tmp_path):
    store = ShardedModelStore(tmp_path / "store", num_shards=2)
    store.save(build_fleet(2))
    assert (store.root / FLEET_MANIFEST_NAME).is_file()


class TestMigratingAnEmptyStore:
    """A source holding no model is refused before the target is touched."""

    def test_a_fleet_without_shards_is_refused_and_nothing_written(self, tmp_path):
        # fleet.json alone: what a first save killed before any shard leaves.
        source = ShardedModelStore(tmp_path / "source", num_shards=2)
        source._establish()
        target = tmp_path / "target"
        with pytest.raises(ValueError, match="no models"):
            ShardedModelStore.migrate(source, target, num_shards=4)
        assert not target.exists()
        # Nothing half-made stands in the way of a retry once there is a model.
        source.save(build_fleet(2))
        migrated = ShardedModelStore.migrate(source, target, num_shards=4)
        assert migrated.model_names() == sorted(build_fleet(2))
        assert migrated.verify() == []

    def test_cli_refuses_an_empty_flat_store(self, tmp_path, capsys):
        from repro.cli import main

        flat = tmp_path / "flat"
        flat.mkdir()
        (flat / "manifest.json").write_text(
            '{"model_epoch": 3, "models": {}, "schema": "repro-store/2"}\n'
        )
        assert ModelStore(flat).exists() and ModelStore(flat).model_names() == []
        assert main(["fleet", "migrate", str(flat), str(tmp_path / "new")]) == 1
        assert "no models" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()

    def test_saving_no_shard_starts_no_pool(self, tmp_path):
        store = ShardedModelStore(tmp_path / "store", num_shards=2)
        store._save_shards({}, model_epoch=0)
        assert not (tmp_path / "store" / "shards").exists()
