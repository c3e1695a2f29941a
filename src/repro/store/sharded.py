"""The model store every consumer opens: hash-bucketed, durable shards.

A single manifest over a whole fleet is a serialization point at the
ROADMAP's north-star scale (tens of thousands of databases): every save
rewrites one giant file, every load parses it, and two workers
refreshing different databases contend on the same unit.
:class:`ShardedModelStore` splits the fleet into hash-bucketed shards;
it is the one layout every consumer reads and writes, at any fleet size:

.. code-block:: text

    store/
      fleet.json               # the shard count, written once at creation
      shards/
        00/                    # each shard is a complete ModelStore
          manifest.json
          models/wsj88-1f6d22c91a04.lm
        01/
          ...

Every shard directory is a full :class:`ModelStore` — same checksummed
manifest, same atomic-write ordering, same crash-safety proof — so the
per-shard durability argument is inherited rather than re-made.  The
fleet manifest (``fleet.json``) holds only the shard count, which fixes
the name → shard hash for the store's lifetime: it is written once,
before the first shard, and never again.  The shards themselves are the
store's one truth — its shard list is the shard directories on disk
that hold a published manifest (:meth:`ShardedModelStore.shard_ids`),
and its epoch is the newest of theirs — so no second table can fall
behind them.

Crash-safety contract: shard saves are individually atomic (a killed
save leaves that shard's previous manifest and model set intact — the
:class:`ModelStore` guarantee), and a shard is listed from the moment
its manifest is published.  A crash mid-save can therefore leave a *mix
of generations across shards* — each shard internally consistent and
verifiable — never a torn shard, and never a durable model that the
listing omits.  Per-shard epochs (``store.shard(s).model_epoch()``,
read off each shard's own manifest) let readers detect exactly which
shards moved, which is what the serving layer's per-shard invalidation
keys on.

Reads are selective by construction: :meth:`load_model` touches one
shard, :meth:`iter_models` streams one shard manifest at a time, and
nothing ever materialises a whole-fleet dict unless :meth:`load` (the
small-fleet convenience) is explicitly asked to.

A directory written before sharding (``manifest.json``, no
``fleet.json``) is refused by every entry point, before anything is
written; ``repro fleet migrate`` re-homes it.  There is no
convert-on-open: opening a store to read it must never write.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Mapping

from repro.lm.model import LanguageModel
from repro.obs.trace import NULL_RECORDER, Recorder
from repro.store.model_store import ModelStore, StoreIntegrityError
from repro.utils.atomic import atomic_write_text

__all__ = [
    "FLEET_MANIFEST_NAME",
    "FLEET_SCHEMA",
    "FleetManifest",
    "ShardedModelStore",
    "shard_of",
]

#: Fleet-manifest schema identifier, bumped on breaking changes.
FLEET_SCHEMA = "repro-fleet-store/2"

#: Schemas still read: ``/1`` also carried a per-shard table and a
#: fleet epoch, both ignored now that the shards are read directly.
_READABLE_FLEET_SCHEMAS = (FLEET_SCHEMA, "repro-fleet-store/1")

#: The fleet manifest's filename (the sharded store's entry point).
FLEET_MANIFEST_NAME = "fleet.json"

_SHARDS_DIR = "shards"
_DEFAULT_SHARDS = 16

#: Thread-pool bound for concurrent per-shard saves.  Measured against a
#: serial loop (``tests/shard_save_pool.py``: every fsync kept, sides
#: alternating, medians of 5, 2,000-term models, ms pooled vs serial):
#: 8 models / 4 shards 11.9 vs 14.1, 64 / 16 58 vs 85, 64 / 64 76 vs
#: 114, 512 / 64 409 vs 743 — the fsyncs overlap, so the pool stays.
_SAVE_WORKERS = 8


def shard_of(name: str, num_shards: int) -> int:
    """The shard index a database name hashes to (stable across runs).

    Uses SHA-256 rather than :func:`hash` so the assignment is
    identical across processes, platforms, and Python releases — a
    model written by one worker must be findable by every other.
    """
    if num_shards <= 0:
        raise ValueError("num_shards must be positive")
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % num_shards


@dataclass(frozen=True)
class FleetManifest:
    """The sharded store's fixed header: the shard count, nothing else."""

    schema: str
    num_shards: int

    def as_dict(self) -> dict[str, object]:
        """Plain-dict form for JSON emission."""
        return {"schema": self.schema, "num_shards": self.num_shards}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], source: str) -> "FleetManifest":
        """Parse a fleet manifest dict, validating the schema id."""
        schema = data.get("schema")
        if schema not in _READABLE_FLEET_SCHEMAS:
            raise StoreIntegrityError(
                f"{source}: unsupported fleet schema {schema!r} (expected {FLEET_SCHEMA!r})"
            )
        try:
            num_shards = int(data["num_shards"])
        except (KeyError, TypeError, ValueError, OverflowError) as error:
            raise StoreIntegrityError(f"{source}: malformed fleet manifest: {error}") from error
        if num_shards <= 0:
            raise StoreIntegrityError(f"{source}: num_shards must be positive")
        return cls(schema=FLEET_SCHEMA, num_shards=num_shards)


class ShardedModelStore:
    """Hash-bucketed shards of :class:`ModelStore`, saved concurrently.

    Parameters
    ----------
    root:
        The store directory (created on first :meth:`save`).
    num_shards:
        Shard count for a *new* store; for an existing store the count
        is read from ``fleet.json`` and this parameter, if given, must
        agree (the name → shard hash is fixed at creation).
    recorder:
        Observability sink: ``store_save`` / ``store_load`` spans from
        the underlying shards plus fleet-level ``fleet_save`` spans and
        ``store.shards_written`` counters.
    """

    def __init__(
        self,
        root: str | Path,
        num_shards: int | None = None,
        *,
        recorder: Recorder = NULL_RECORDER,
    ) -> None:
        if num_shards is not None and num_shards <= 0:
            raise ValueError("num_shards must be positive")
        self.root = Path(root)
        self.recorder = recorder
        self._requested_shards = num_shards
        self._num_shards: int | None = None

    # -- layout ------------------------------------------------------------

    @property
    def fleet_manifest_path(self) -> Path:
        """Path of ``fleet.json`` (the sharded store's entry point)."""
        return self.root / FLEET_MANIFEST_NAME

    def exists(self) -> bool:
        """Whether a published fleet manifest is present.

        Every read and write asks this first, so raising here on a flat
        directory keeps it from being read as an empty fleet, or written
        beside (a new ``fleet.json`` would hide its models).
        """
        if self.fleet_manifest_path.is_file():
            return True
        if ModelStore(self.root).exists():
            raise StoreIntegrityError(
                f"{self.root}: flat store written before sharding; "
                "run `repro fleet migrate SRC DEST`"
            )
        return False

    @property
    def num_shards(self) -> int:
        """The store's shard count (fixed at creation)."""
        if self._num_shards is None:
            if self.exists():
                on_disk = self.read_fleet_manifest().num_shards
                if self._requested_shards is not None and self._requested_shards != on_disk:
                    raise StoreIntegrityError(
                        f"{self.root}: store has {on_disk} shards but "
                        f"{self._requested_shards} were requested — the name→shard "
                        "hash is fixed at creation (migrate to change it)"
                    )
                self._num_shards = on_disk
            else:
                self._num_shards = self._requested_shards or _DEFAULT_SHARDS
        return self._num_shards

    def shard_id(self, index: int) -> str:
        """The directory name of shard ``index`` (zero-padded decimal)."""
        width = max(2, len(str(self.num_shards - 1)))
        return f"{index:0{width}d}"

    def shard_for(self, name: str) -> ModelStore:
        """The shard store a database name hashes to."""
        return self.shard(self.shard_id(shard_of(name, self.num_shards)))

    def shard(self, shard_id: str) -> ModelStore:
        """The shard store for a shard directory name."""
        return ModelStore(self.root / _SHARDS_DIR / shard_id, recorder=self.recorder)

    def shard_ids(self) -> list[str]:
        """The shard directories holding a published manifest, sorted.

        The store's one listing: every read goes through it.  It parses
        ``fleet.json`` on each call, so a damaged one is reported by
        every reader rather than hidden behind the cached shard count.
        """
        self.read_fleet_manifest()
        shards_dir = self.root / _SHARDS_DIR
        if not shards_dir.is_dir():
            return []
        return sorted(
            path.name
            for path in shards_dir.iterdir()
            if path.is_dir() and ModelStore(path).exists()
        )

    # -- fleet manifest ----------------------------------------------------

    def read_fleet_manifest(self) -> FleetManifest:
        """Parse the published fleet manifest."""
        source = str(self.fleet_manifest_path)
        if not self.exists():
            raise FileNotFoundError(f"no fleet manifest at {source}")
        try:
            data = json.loads(self.fleet_manifest_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as error:
            raise StoreIntegrityError(
                f"{source}: fleet manifest is not valid JSON: {error}"
            ) from error
        if not isinstance(data, dict):
            raise StoreIntegrityError(f"{source}: fleet manifest is not a JSON object")
        return FleetManifest.from_dict(data, source)

    def _establish(self) -> None:
        """Pin the shard count on disk before any shard data exists.

        Writing ``fleet.json`` *first* means a crash between shard
        writes can never leave shard directories whose hash base is
        unknowable — the shard count is durable before the first model
        byte lands.  Nothing rewrites it afterwards.
        """
        if not self.exists():
            self.root.mkdir(parents=True, exist_ok=True)
            fleet = FleetManifest(schema=FLEET_SCHEMA, num_shards=self.num_shards)
            atomic_write_text(
                self.fleet_manifest_path,
                json.dumps(fleet.as_dict(), indent=2, sort_keys=True) + "\n",
            )

    # -- writing -----------------------------------------------------------

    def _partition(
        self, models: Mapping[str, LanguageModel]
    ) -> dict[str, dict[str, LanguageModel]]:
        by_shard: dict[str, dict[str, LanguageModel]] = {}
        for name, model in models.items():
            shard_id = self.shard_id(shard_of(name, self.num_shards))
            by_shard.setdefault(shard_id, {})[name] = model
        return by_shard

    def _save_shards(
        self,
        by_shard: Mapping[str, Mapping[str, LanguageModel]],
        model_epoch: int,
        *,
        fold: bool = False,
    ) -> None:
        """Write every listed shard, concurrently, each one atomically.

        A shard's models replace its content (:meth:`ModelStore.save`)
        or, with ``fold``, join it (:meth:`ModelStore.update`).
        """

        def save_one(shard_id: str) -> None:
            shard = self.shard(shard_id)
            write = shard.update if fold else shard.save
            write(dict(by_shard[shard_id]), model_epoch=model_epoch)
            self.recorder.count("store.shards_written")

        if len(by_shard) <= 1:
            for shard_id in by_shard:
                save_one(shard_id)
            return
        with ThreadPoolExecutor(
            max_workers=min(_SAVE_WORKERS, len(by_shard)),
            thread_name_prefix="shard-save",
        ) as pool:
            # list() propagates the first failure instead of discarding it.
            list(pool.map(save_one, sorted(by_shard)))

    def save(self, models: Mapping[str, LanguageModel], *, model_epoch: int = 0) -> None:
        """Persist ``models`` as the fleet's full content.

        Shards are written concurrently (each one crash-safe on its
        own), then shard directories the new content does not occupy
        are pruned (best effort).  A crash mid-save leaves every shard
        internally consistent; a mix of old- and new-generation shards
        is possible and detectable from each shard's ``model_epoch()``
        — a shard the new content no longer occupies keeps its old
        models listed until a save prunes it.
        """
        if not models:
            raise ValueError("refusing to save an empty model set")
        with self.recorder.span(
            "fleet_save", store=str(self.root), models=len(models), model_epoch=model_epoch
        ) as span:
            self._establish()
            by_shard = self._partition(models)
            self._save_shards(by_shard, model_epoch)
            self._prune_shards(keep=set(by_shard))
            span.set(shards=len(by_shard))

    def update(
        self, models: Mapping[str, LanguageModel], *, model_epoch: int | None = None
    ) -> None:
        """Fold ``models`` into the fleet, writing only what was given.

        The fleet-scale write path: a refresh worker that re-sampled a
        handful of databases writes those models' files and the
        manifests of the shards their names hash to
        (:meth:`ModelStore.update`) — no other model file, in those
        shards or any other, is even opened.  Affected shards move to
        ``model_epoch`` (default: one past the store's
        :meth:`model_epoch`).
        """
        if not models:
            raise ValueError("refusing to update with an empty model set")
        self._establish()
        if model_epoch is None:
            model_epoch = self.model_epoch() + 1
        with self.recorder.span(
            "fleet_update", store=str(self.root), models=len(models), model_epoch=model_epoch
        ) as span:
            by_shard = self._partition(models)
            self._save_shards(by_shard, model_epoch, fold=True)
            span.set(shards=len(by_shard))

    def _prune_shards(self, keep: set[str]) -> None:
        """Drop shard directories a full save left unoccupied (best effort).

        A shard's manifest goes first, so a prune killed part-way leaves
        an unlisted directory, never a listed shard missing model files.
        """
        shards_dir = self.root / _SHARDS_DIR
        if not shards_dir.is_dir():
            return
        for path in shards_dir.iterdir():
            if path.is_dir() and path.name not in keep:
                ModelStore(path).manifest_path.unlink(missing_ok=True)
                shutil.rmtree(path, ignore_errors=True)

    # -- reading -----------------------------------------------------------

    def load_model(self, name: str) -> LanguageModel:
        """Load one model by install name — touches exactly one shard."""
        shard = self.shard_for(name)
        if not shard.exists():
            raise KeyError(f"model {name!r} is not in the store (shard {shard.root.name})")
        return shard.load_model(name)

    def load(self) -> dict[str, LanguageModel]:
        """Load the full fleet (small-fleet convenience; prefer iteration)."""
        with self.recorder.span("store_load", store=str(self.root)) as span:
            models = dict(self.iter_models())
            span.set(models=len(models))
        return models

    def iter_models(self) -> Iterator[tuple[str, LanguageModel]]:
        """Stream every ``(name, model)`` pair, one shard at a time.

        Holds one shard's manifest and one model in memory at any
        moment — the whole-fleet dict never exists.
        """
        for shard_id in self.shard_ids():
            shard = self.shard(shard_id)
            manifest = shard.read_manifest()
            for name in sorted(manifest.models):
                yield name, shard.load_model(name, manifest)

    def model_names(self) -> list[str]:
        """Sorted install names across every shard."""
        names: list[str] = []
        for shard_id in self.shard_ids():
            names.extend(self.shard(shard_id).model_names())
        return sorted(names)

    def model_epoch(self) -> int:
        """The newest epoch any shard was saved at (0 with no shards)."""
        return max((self.shard(s).model_epoch() for s in self.shard_ids()), default=0)

    # -- inspection --------------------------------------------------------

    def verify(self) -> list[str]:
        """Integrity problems across the fleet (empty = healthy).

        Checks every shard's manifest and checksums (the per-shard
        :meth:`ModelStore.verify`), plus the fleet-level invariant the
        flat store cannot have: every model must live in the shard its
        name hashes to, or selective loads would miss it.
        """
        problems: list[str] = []
        try:
            shard_ids = self.shard_ids()
        except (FileNotFoundError, StoreIntegrityError) as error:
            return [str(error)]
        for shard_id in shard_ids:
            shard = self.shard(shard_id)
            problems.extend(f"shard {shard_id}: {problem}" for problem in shard.verify())
            try:
                names = shard.model_names()
            except StoreIntegrityError:
                continue  # an unreadable manifest: shard.verify() has said so
            for name in names:
                expected = self.shard_id(shard_of(name, self.num_shards))
                if expected != shard_id:
                    problems.append(
                        f"shard {shard_id}: model {name!r} is misplaced "
                        f"(hashes to shard {expected})"
                    )
        return problems

    def orphans(self) -> list[str]:
        """Unreferenced model files across every shard (crash leftovers)."""
        orphans: list[str] = []
        for shard_id in self.shard_ids():
            orphans.extend(
                f"{_SHARDS_DIR}/{shard_id}/{relative}"
                for relative in self.shard(shard_id).orphans()
            )
        return sorted(orphans)

    def prune_orphans(self) -> list[str]:
        """Delete unreferenced model files in every shard."""
        removed: list[str] = []
        for shard_id in self.shard_ids():
            removed.extend(
                f"{_SHARDS_DIR}/{shard_id}/{relative}"
                for relative in self.shard(shard_id).prune_orphans()
            )
        return sorted(removed)

    # -- migration ---------------------------------------------------------

    @classmethod
    def migrate(
        cls,
        source: ModelStore | ShardedModelStore,
        root: str | Path,
        num_shards: int = _DEFAULT_SHARDS,
        *,
        recorder: Recorder = NULL_RECORDER,
    ) -> "ShardedModelStore":
        """Re-home a store's content into a new sharded layout.

        ``source`` is a flat directory written before sharding, or a
        sharded store whose shard count is to change.  Models are read
        out of it (checksum-verified) and written shard by shard; the
        stored ``model_epoch`` carries over, so a service warm-started
        off the migrated store sees exactly the epoch it would have seen
        off the source.  The source is read-only throughout.  Model
        files are bit-identical across the migration: the model-file
        format is canonical (sorted vocabulary, derived column widths),
        so load + re-save reproduces the exact bytes, as the migration
        tests pin; a source model still held as a text-format file
        comes out as the columnar file a direct save would write.

        The source is read in full before the target is touched, so a
        source that holds no model (``ValueError``, as :meth:`save`
        refuses an empty set) or fails its checksums leaves nothing
        behind, and the migration can be retried.
        """
        target = cls(root, num_shards, recorder=recorder)
        if target.exists():
            raise StoreIntegrityError(f"{target.root}: refusing to migrate onto an existing store")
        epoch = source.model_epoch()
        with recorder.span(
            "fleet_migrate", source=str(source.root), target=str(target.root)
        ) as span:
            # The whole fleet is held at once so each shard is saved
            # exactly once; migration is a one-time, offline op.
            models = dict(source.iter_models())
            if not models:
                raise ValueError(f"{source.root}: refusing to migrate a store with no models")
            target._establish()
            by_shard = target._partition(models)
            target._save_shards(by_shard, epoch)
            span.set(models=len(models), shards=len(by_shard))
        return target

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardedModelStore(root={str(self.root)!r})"
