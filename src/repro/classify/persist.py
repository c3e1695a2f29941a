"""Durable persistence of classifications beside a model store.

Classification is an acquisition-time activity (it costs probe queries
against live databases), so its output is persisted the same way
learned language models are: a JSON document,
``classifications.json``, written atomically into the *root* of the
model store directory, beside the store's ``fleet.json``.  A serving
process warm-starting from the store
(:meth:`~repro.serving.frontend.FederationFrontend.from_store`) picks
the router up in the same breath as the models and routes topically
from the very first query.

The schema is versioned (``repro-classify/1``); an unknown schema
loads as "no router" rather than failing the serving boot —
classification data is an optimization, never a boot dependency.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.classify.router import TopicRouter
from repro.store.sharded import ShardedModelStore
from repro.text.analyzer import Analyzer
from repro.utils.atomic import atomic_write_text

__all__ = [
    "CLASSIFICATIONS_FILE",
    "CLASSIFY_SCHEMA",
    "load_router",
    "save_router",
]

#: File name of the persisted classification set, in the store root.
CLASSIFICATIONS_FILE = "classifications.json"

#: Schema identifier stamped into the file.
CLASSIFY_SCHEMA = "repro-classify/1"


def _root_of(store: ShardedModelStore | str | Path) -> Path:
    if isinstance(store, (str, Path)):
        return Path(store)
    return store.root


def save_router(router: TopicRouter, store: ShardedModelStore | str | Path) -> Path:
    """Persist ``router`` beside the models of ``store``; returns the path.

    The write is atomic (temp file + rename) so a crashed save leaves
    any previous classification set intact.
    """
    root = _root_of(store)
    root.mkdir(parents=True, exist_ok=True)
    path = root / CLASSIFICATIONS_FILE
    payload = {"schema": CLASSIFY_SCHEMA, **router.to_payload()}
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True))
    return path


def load_router(
    store: ShardedModelStore | str | Path, *, analyzer: Analyzer | None = None
) -> TopicRouter | None:
    """The router persisted beside ``store``'s models, or ``None``.

    Returns ``None`` when no classification file exists or its schema
    is not one this code understands — the caller serves broadcast,
    exactly as if no classification had ever run.  Raises
    :class:`ValueError` only on a file that *claims* the right schema
    but cannot be parsed (that is corruption, not absence).
    """
    path = _root_of(store) / CLASSIFICATIONS_FILE
    if not path.is_file():
        return None
    try:
        payload = json.loads(path.read_text("utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"corrupt classification file at {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("schema") != CLASSIFY_SCHEMA:
        return None
    try:
        return TopicRouter.from_payload(payload, analyzer=analyzer)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"corrupt classification file at {path}: {exc}") from exc
