"""One shard of the model store: the unit of atomicity.

A federation's learned language models are *accumulated state* —
hundreds of sampling queries per database — so they are persisted
durably.  :class:`ModelStore` is the directory saved as one unit;
:class:`~repro.store.sharded.ShardedModelStore`, the store consumers
open, is a set of them under ``shards/`` (one standing alone predates
sharding: ``repro fleet migrate`` is the only reader of those).

.. code-block:: text

    shards/00/
      manifest.json              # the only entry point; published last
      models/
        wsj88-1f6d22c91a04.lm    # one model file per database (header +
        ap89-8c1b04773e52.lm     # term table + df and ctf columns, see
                                 # repro.lm.io), named by a content fingerprint

``manifest.json`` maps each install name (the federation's database
name) to its model file, a SHA-256 checksum of the file's bytes, the
``model_epoch`` the set was saved at, and summary statistics.  Writes
are crash-safe by construction:

1. every model file is written atomically (temp file + ``os.replace``
   with fsync, :mod:`repro.utils.atomic`) to a filename that embeds a
   fingerprint of its content, so a new save never touches the files
   the published manifest references;
2. the manifest is written atomically *after* every model file it
   references is durable;
3. only then are superseded model generations pruned (best effort).

A crash at any point therefore leaves the previous manifest (and the
complete model set it references) fully intact; at worst some new,
unreferenced model files are orphaned, which :meth:`ModelStore.orphans`
reports and the next successful :meth:`ModelStore.save` prunes.

:meth:`ModelStore.update` is the same three steps for a *part* of the
set: it writes the models it is given and publishes a manifest that
carries every other entry verbatim, so replacing one model of a shard
costs one model file and one manifest, whatever else the shard holds.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Mapping
from urllib.parse import quote

from repro.lm.io import pack_language_model, unpack_language_model
from repro.lm.model import LanguageModel
from repro.obs.trace import NULL_RECORDER, Recorder
from repro.utils.atomic import atomic_write_bytes, atomic_write_text

__all__ = ["ModelEntry", "ModelStore", "StoreIntegrityError", "StoreManifest"]

#: Manifest schema identifier written; ``/2`` says the model files may be
#: columnar (``/1`` stores hold text-format files only).
STORE_SCHEMA = "repro-store/2"
#: Schemas read.  A model file says itself which format it is in, so a
#: ``/1`` manifest needs no translation — and a shard updated since may
#: reference files of both kinds.
_READABLE_SCHEMAS = ("repro-store/1", STORE_SCHEMA)

_MANIFEST_NAME = "manifest.json"
_MODELS_DIR = "models"


class StoreIntegrityError(ValueError):
    """A store file is missing, corrupt, or fails its checksum."""


@dataclass(frozen=True)
class ModelEntry:
    """One model's manifest record."""

    file: str
    sha256: str
    terms: int
    documents_seen: int
    tokens_seen: int


@dataclass(frozen=True)
class StoreManifest:
    """The store's table of contents, keyed by install name."""

    schema: str
    model_epoch: int
    models: dict[str, ModelEntry]

    def as_dict(self) -> dict[str, object]:
        """Plain-dict form for JSON emission."""
        return {
            "schema": self.schema,
            "model_epoch": self.model_epoch,
            "models": {
                name: {
                    "file": entry.file,
                    "sha256": entry.sha256,
                    "terms": entry.terms,
                    "documents_seen": entry.documents_seen,
                    "tokens_seen": entry.tokens_seen,
                }
                for name, entry in sorted(self.models.items())
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], source: str) -> "StoreManifest":
        """Parse a manifest dict, validating the schema id."""
        schema = data.get("schema")
        if schema not in _READABLE_SCHEMAS:
            raise StoreIntegrityError(
                f"{source}: unsupported store schema {schema!r} (expected {STORE_SCHEMA!r})"
            )
        raw_models = data.get("models")
        if not isinstance(raw_models, dict):
            raise StoreIntegrityError(f"{source}: manifest has no models table")
        try:
            model_epoch = int(data.get("model_epoch", 0))
        except (TypeError, ValueError, OverflowError) as error:
            raise StoreIntegrityError(f"{source}: malformed model_epoch: {error}") from error
        models: dict[str, ModelEntry] = {}
        for name, raw in raw_models.items():
            try:
                models[name] = ModelEntry(
                    file=str(raw["file"]),
                    sha256=str(raw["sha256"]),
                    terms=int(raw["terms"]),
                    documents_seen=int(raw["documents_seen"]),
                    tokens_seen=int(raw["tokens_seen"]),
                )
            except (KeyError, TypeError, ValueError, OverflowError) as error:
                raise StoreIntegrityError(
                    f"{source}: malformed manifest entry for {name!r}: {error}"
                ) from error
        return cls(schema=STORE_SCHEMA, model_epoch=model_epoch, models=models)


def _checksum(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _model_filename(name: str, sha256: str) -> str:
    # Percent-escaping keeps any install name (slashes, spaces, unicode)
    # a single safe path component, collision-free by injectivity.  The
    # content fingerprint makes each save generation a fresh filename,
    # so overwriting a store never touches the files its published
    # manifest references (same content → same name → idempotent).
    return f"{_MODELS_DIR}/{quote(name, safe='')}-{sha256[:12]}.lm"


class ModelStore:
    """A directory holding one shard's model set, saved as a unit.

    Parameters
    ----------
    root:
        The store directory (created on first :meth:`save`).
    recorder:
        Observability sink: ``store_save`` / ``store_load`` spans plus
        ``store.models_written`` / ``store.models_read`` /
        ``store.bytes_written`` counters.
    """

    def __init__(self, root: str | Path, recorder: Recorder = NULL_RECORDER) -> None:
        self.root = Path(root)
        self.recorder = recorder

    @property
    def manifest_path(self) -> Path:
        """Path of the manifest file (the store's single entry point)."""
        return self.root / _MANIFEST_NAME

    def exists(self) -> bool:
        """Whether a published manifest is present."""
        return self.manifest_path.is_file()

    # -- writing -----------------------------------------------------------

    def save(
        self, models: Mapping[str, LanguageModel], *, model_epoch: int = 0
    ) -> StoreManifest:
        """Persist ``models`` as one durable unit; returns the manifest.

        All model files are serialized, validated, and made durable
        before the manifest referencing them is published, so a crash
        anywhere in this method leaves the previous manifest (if any)
        and its complete model set intact.
        """
        return self._publish(models, {}, model_epoch)

    def update(
        self, models: Mapping[str, LanguageModel], *, model_epoch: int
    ) -> StoreManifest:
        """Fold ``models`` into the published set; returns the manifest.

        Writes the given models' files and a manifest that carries every
        other entry as it stands — same order and same crash-safety as
        :meth:`save`.  The other models' files are not opened, so the
        cost is that of the models given, not of the set; a corrupt
        neighbour is :meth:`verify`'s and :meth:`load_model`'s to
        report, as it is between updates.
        """
        published = self.read_manifest().models if self.exists() else {}
        carried = {
            name: entry for name, entry in published.items() if name not in models
        }
        return self._publish(models, carried, model_epoch)

    def _publish(
        self,
        models: Mapping[str, LanguageModel],
        carried: Mapping[str, ModelEntry],
        model_epoch: int,
    ) -> StoreManifest:
        """Write ``models``, publish them beside ``carried``, then prune."""
        if not models:
            raise ValueError("refusing to save an empty model set")
        with self.recorder.span(
            "store_save", store=str(self.root), models=len(models), model_epoch=model_epoch
        ) as span:
            # Serialize (and thereby validate) everything before the
            # first byte lands on disk.
            serialized = {
                name: pack_language_model(model) for name, model in models.items()
            }
            self.root.mkdir(parents=True, exist_ok=True)
            (self.root / _MODELS_DIR).mkdir(exist_ok=True)
            entries = dict(carried)
            bytes_written = 0
            for name in sorted(serialized):
                data = serialized[name]
                digest = _checksum(data)
                filename = _model_filename(name, digest)
                atomic_write_bytes(self.root / filename, data)
                model = models[name]
                entries[name] = ModelEntry(
                    file=filename,
                    sha256=digest,
                    terms=len(model),
                    documents_seen=model.documents_seen,
                    tokens_seen=model.tokens_seen,
                )
                bytes_written += len(data)
                self.recorder.count("store.models_written")
            manifest = StoreManifest(
                schema=STORE_SCHEMA, model_epoch=model_epoch, models=entries
            )
            atomic_write_text(
                self.manifest_path,
                json.dumps(manifest.as_dict(), indent=2, sort_keys=True) + "\n",
            )
            # The new manifest is durable; superseded generations (and
            # any orphans a crashed save left) are safe to drop now.
            self._prune({entry.file for entry in entries.values()})
            self.recorder.count("store.bytes_written", bytes_written)
            span.set(bytes_written=bytes_written)
        return manifest

    def _prune(self, referenced: set[str]) -> None:
        """Remove model files the just-published manifest does not use."""
        models_dir = self.root / _MODELS_DIR
        for path in models_dir.iterdir():
            if path.is_file() and f"{_MODELS_DIR}/{path.name}" not in referenced:
                with contextlib.suppress(OSError):
                    path.unlink()

    # -- reading -----------------------------------------------------------

    def read_manifest(self) -> StoreManifest:
        """Parse the published manifest."""
        source = str(self.manifest_path)
        if not self.exists():
            raise FileNotFoundError(f"no model store manifest at {source}")
        try:
            data = json.loads(self.manifest_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as error:
            raise StoreIntegrityError(f"{source}: manifest is not valid JSON: {error}") from error
        if not isinstance(data, dict):
            raise StoreIntegrityError(f"{source}: manifest is not a JSON object")
        return StoreManifest.from_dict(data, source)

    def load_model(self, name: str, manifest: StoreManifest | None = None) -> LanguageModel:
        """Load one model by install name, verifying its checksum."""
        manifest = manifest or self.read_manifest()
        if name not in manifest.models:
            raise KeyError(f"model {name!r} is not in the store manifest")
        entry = manifest.models[name]
        path = self.root / entry.file
        try:
            data = path.read_bytes()
        except FileNotFoundError as error:
            raise StoreIntegrityError(
                f"{path}: referenced by the manifest but missing"
            ) from error
        digest = _checksum(data)
        if digest != entry.sha256:
            raise StoreIntegrityError(
                f"{path}: checksum mismatch (manifest {entry.sha256[:12]}…, "
                f"file {digest[:12]}…) — the file is corrupt or was modified"
            )
        model = unpack_language_model(data, default_name=name, source=str(path))
        self.recorder.count("store.models_read")
        return model

    def load(self) -> dict[str, LanguageModel]:
        """Load the full model set, verifying every checksum."""
        with self.recorder.span("store_load", store=str(self.root)) as span:
            manifest = self.read_manifest()
            models = {
                name: self.load_model(name, manifest) for name in sorted(manifest.models)
            }
            span.set(models=len(models), model_epoch=manifest.model_epoch)
        return models

    def iter_models(self) -> Iterator[tuple[str, LanguageModel]]:
        """Stream ``(name, model)`` pairs in sorted name order.

        Checksums are verified per model as it is yielded; only one
        model is materialised at a time (the manifest itself is small).
        """
        manifest = self.read_manifest()
        for name in sorted(manifest.models):
            yield name, self.load_model(name, manifest)

    def model_names(self) -> list[str]:
        """Sorted install names of every stored model."""
        return sorted(self.read_manifest().models)

    def model_epoch(self) -> int:
        """The epoch the published manifest was saved at."""
        return self.read_manifest().model_epoch

    # -- inspection --------------------------------------------------------

    def verify(self) -> list[str]:
        """Integrity problems with the published store (empty = healthy)."""
        problems: list[str] = []
        try:
            manifest = self.read_manifest()
        except (FileNotFoundError, StoreIntegrityError) as error:
            return [str(error)]
        for name in sorted(manifest.models):
            try:
                self.load_model(name, manifest)
            except (StoreIntegrityError, ValueError) as error:
                problems.append(f"{name}: {error}")
        return problems

    def orphans(self) -> list[str]:
        """Model files on disk that the manifest does not reference.

        Orphans are harmless (a crash between model writes and the
        manifest publish leaves them behind) but worth surfacing.
        """
        models_dir = self.root / _MODELS_DIR
        if not models_dir.is_dir():
            return []
        referenced = set()
        if self.exists():
            referenced = {entry.file for entry in self.read_manifest().models.values()}
        return sorted(
            f"{_MODELS_DIR}/{path.name}"
            for path in models_dir.iterdir()
            if path.is_file() and f"{_MODELS_DIR}/{path.name}" not in referenced
        )

    def prune_orphans(self) -> list[str]:
        """Delete unreferenced model files; returns what was removed.

        Only files :meth:`orphans` reports are touched — everything the
        published manifest references stays exactly as it is.  Callers
        that cannot tolerate deleting anything from an unhealthy store
        should :meth:`verify` first (the CLI's ``--prune`` does).
        """
        removed = []
        for relative in self.orphans():
            with contextlib.suppress(OSError):
                (self.root / relative).unlink()
                removed.append(relative)
        return removed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ModelStore(root={str(self.root)!r})"
