"""``verify()`` reports store damage; it does not die of it.

A manifest is a file a crash, a disk or an editor may have damaged.
Whatever it holds, the two manifest parsers raise
:class:`StoreIntegrityError` and nothing else, the fleet-level
``verify()`` returns one problem line per damaged shard and goes on to
the next, and ``repro store DIR --verify`` says ``corrupt store
manifest`` with exit 1 instead of a traceback.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.lm import LanguageModel
from repro.store import ShardedModelStore, StoreIntegrityError
from repro.store.model_store import StoreManifest
from repro.store.sharded import FleetManifest


def build_fleet(count: int) -> dict[str, LanguageModel]:
    fleet = {}
    for i in range(count):
        model = LanguageModel(name=f"db{i:03d}")
        model.add_document(["term", f"t{i}", f"t{i}"])
        fleet[model.name] = model
    return fleet


@pytest.fixture
def store(tmp_path) -> ShardedModelStore:
    store = ShardedModelStore(tmp_path / "store", num_shards=3)
    store.save(build_fleet(9), model_epoch=2)
    assert len(store.shard_ids()) == 3
    return store


def edit_json(path, **fields) -> None:
    data = json.loads(path.read_text())
    data.update(fields)
    path.write_text(json.dumps(data))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=5,
)
_ENTRY_KEYS = ["file", "sha256", "terms", "documents_seen", "tokens_seen", "models", "model_epoch"]
_entries = json_values | st.dictionaries(st.sampled_from(_ENTRY_KEYS), json_values, max_size=6)
_tables = json_values | st.dictionaries(st.text(max_size=4), _entries, max_size=3)


class TestManifestParsersRaiseIntegrityErrorsOnly:
    @settings(max_examples=300, deadline=None)
    @given(
        st.dictionaries(
            st.sampled_from(["schema", "model_epoch", "models"]), json_values | _tables, max_size=3
        ),
        st.sampled_from(["repro-store/1", "repro-store/2", None]),
    )
    @example({"model_epoch": float("inf"), "models": {}}, "repro-store/2")  # json reads Infinity
    @example({"models": {"a": dict.fromkeys(_ENTRY_KEYS, float("inf"))}}, "repro-store/2")
    def test_shard_manifest(self, data, schema):
        if schema is not None:
            data = dict(data, schema=schema)
        try:
            manifest = StoreManifest.from_dict(data, "manifest.json")
        except StoreIntegrityError as error:
            assert "manifest.json" in str(error)
            return
        assert isinstance(manifest.model_epoch, int)

    @settings(max_examples=300, deadline=None)
    @given(
        st.dictionaries(
            st.sampled_from(["schema", "num_shards", "model_epoch", "shards"]),
            json_values | _tables,
            max_size=4,
        ),
        st.booleans(),
    )
    @example({"num_shards": float("inf")}, True)
    @example({"num_shards": 2, "shards": {"00": {"models": 1, "model_epoch": float("inf")}}}, True)
    def test_fleet_manifest(self, data, right_schema):
        if right_schema:
            data = dict(data, schema="repro-fleet-store/1")
        try:
            manifest = FleetManifest.from_dict(data, "fleet.json")
        except StoreIntegrityError as error:
            assert "fleet.json" in str(error)
            return
        assert manifest.num_shards > 0

    @pytest.mark.parametrize("schema", ["repro-store/1", "repro-store/2"])
    def test_both_schemas_are_read_and_the_current_one_written(self, schema):
        manifest = StoreManifest.from_dict(
            {"schema": schema, "model_epoch": 3, "models": {}}, "manifest.json"
        )
        assert manifest.as_dict()["schema"] == "repro-store/2"


class TestVerifyReportsDamage:
    def test_one_line_per_unreadable_shard_manifest_and_the_rest_is_checked(self, store):
        first, second, third = store.shard_ids()
        store.shard(first).manifest_path.write_text("{ torn")
        edit_json(store.shard(second).manifest_path, model_epoch=None)
        victim = store.shard(third)
        entry = next(iter(victim.read_manifest().models.values()))
        (victim.root / entry.file).write_bytes(b"junk")

        problems = store.verify()
        assert len(problems) == 3
        assert problems[0].startswith(f"shard {first}: ") and "not valid JSON" in problems[0]
        assert problems[1].startswith(f"shard {second}: ") and "model_epoch" in problems[1]
        assert problems[2].startswith(f"shard {third}: ") and "checksum mismatch" in problems[2]

    @pytest.mark.parametrize("epoch", [None, "x", [1], {"a": 1}])
    def test_a_malformed_epoch_in_a_shard_manifest(self, store, epoch, capsys):
        shard_id = store.shard_ids()[1]
        edit_json(store.shard(shard_id).manifest_path, model_epoch=epoch)
        problems = store.verify()
        assert len(problems) == 1 and problems[0].startswith(f"shard {shard_id}: ")
        with pytest.raises(StoreIntegrityError, match="model_epoch"):
            store.load()
        assert main(["store", str(store.root), "--verify"]) == 1
        assert "corrupt store manifest: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "damage",
        [{"num_shards": None}, {"num_shards": "x"}, {"num_shards": [1, 2]}, {"num_shards": 0},
         {"num_shards": "many"}],
    )
    def test_a_malformed_fleet_manifest(self, store, damage, capsys):
        edit_json(store.fleet_manifest_path, **damage)
        problems = store.verify()
        assert len(problems) == 1 and "fleet.json" in problems[0]
        with pytest.raises(StoreIntegrityError, match="fleet.json"):
            store.load()
        assert main(["store", str(store.root), "--verify"]) == 1
        assert "corrupt store manifest: " in capsys.readouterr().err

    def test_an_unparseable_shard_manifest_at_the_command_line(self, store, capsys):
        store.shard(store.shard_ids()[0]).manifest_path.write_text("{ torn")
        assert main(["store", str(store.root), "--verify"]) == 1
        assert "corrupt store manifest: " in capsys.readouterr().err
