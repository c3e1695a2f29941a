"""Durable, crash-safe persistence for learned language models.

The paper's premise is that a learned language model is *accumulated
state* — hundreds of sampling queries per database — so this package
makes that state durable:

* :mod:`repro.utils.atomic` (re-exported here) — the write primitive:
  temp file + fsync + :func:`os.replace`, so every artifact on disk is
  either the old version or the new one, never a torn mixture;
* :class:`ShardedModelStore` — *the* model store, the only layout any
  consumer opens: hash-bucketed shard directories, listed by what is on
  disk, behind a ``fleet.json`` written once to pin the shard count,
  with selective loads and concurrent saves;
* :class:`ModelStore` — one shard of it: a model set behind a
  checksummed ``manifest.json``, saved as one atomic unit.  One on its
  own predates sharding; :class:`ShardedModelStore` refuses it and
  ``repro fleet migrate`` re-homes it;
* :class:`SamplerCheckpointer` — checkpoint/resume for a sampling run,
  bit-identical to an uninterrupted run.
"""

from repro.store.checkpoint import CheckpointMismatchError, SamplerCheckpointer
from repro.store.model_store import (
    ModelEntry,
    ModelStore,
    StoreIntegrityError,
    StoreManifest,
)
from repro.store.sharded import (
    FLEET_MANIFEST_NAME,
    FleetManifest,
    ShardedModelStore,
    shard_of,
)
from repro.utils.atomic import atomic_write_bytes, atomic_write_text, fsync_directory

__all__ = [
    "CheckpointMismatchError",
    "FLEET_MANIFEST_NAME",
    "FleetManifest",
    "ModelEntry",
    "ModelStore",
    "SamplerCheckpointer",
    "ShardedModelStore",
    "StoreIntegrityError",
    "StoreManifest",
    "atomic_write_bytes",
    "atomic_write_text",
    "fsync_directory",
    "shard_of",
]
