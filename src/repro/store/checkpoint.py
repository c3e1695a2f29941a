"""Durable checkpoint/resume for sampling runs.

A sampling run is accumulated, paid-for state — every query against a
remote database costs time and money — so :class:`SamplerCheckpointer`
persists a resumable snapshot at safe boundaries: it plugs into
:meth:`repro.sampling.sampler.QueryBasedSampler.run` (the
``checkpoint=`` parameter, behind ``repro sample --checkpoint`` and the
fleet's refresh jobs) and writes the sampler's full
:meth:`~repro.sampling.sampler.QueryBasedSampler.state_dict` every K
completed queries.

It writes one JSON file through the atomic temp-file +
``os.replace`` layer (:mod:`repro.utils.atomic`), so a crash at any
instant leaves either the previous checkpoint or the new one — never a
torn file.  Resume is **bit-identical**: the snapshot captures the
exact RNG state and every counter the run loop consults, so a killed
and resumed run serializes to the same bytes as an uninterrupted one.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.obs.trace import NULL_RECORDER, Recorder
from repro.utils.atomic import atomic_write_text

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.sampling.sampler import QueryBasedSampler

__all__ = ["CheckpointMismatchError", "SamplerCheckpointer"]

#: Checkpoint-file schema identifier, bumped on breaking changes.
SAMPLER_CHECKPOINT_SCHEMA = "repro-checkpoint/1"


class CheckpointMismatchError(ValueError):
    """A checkpoint cannot resume into the given sampler."""


def _write_json(path: Path, payload: dict[str, Any]) -> int:
    text = json.dumps(payload, sort_keys=True)
    atomic_write_text(path, text)
    return len(text)


def _read_json(path: Path, expected_schema: str) -> dict[str, Any]:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise CheckpointMismatchError(
            f"{path}: checkpoint is not valid JSON: {error}"
        ) from error
    if not isinstance(payload, dict) or payload.get("schema") != expected_schema:
        raise CheckpointMismatchError(
            f"{path}: not a {expected_schema!r} checkpoint "
            f"(schema {payload.get('schema')!r})"
            if isinstance(payload, dict)
            else f"{path}: checkpoint is not a JSON object"
        )
    return payload


class SamplerCheckpointer:
    """Persists one sampler's resumable state every K queries.

    Parameters
    ----------
    directory:
        Checkpoint directory (created on first save); holds one
        ``sampler.json``.
    every_queries:
        Cadence for :meth:`maybe_save` — persist when this many new
        queries completed since the last save.  The run-final save is
        unconditional.
    recorder:
        Observability sink: one ``checkpoint_save`` span per write and
        a ``store.checkpoints_written`` counter.

    Usage::

        checkpointer = SamplerCheckpointer(directory, every_queries=10)
        checkpointer.resume(sampler)           # no-op on a fresh directory
        run = sampler.run(checkpoint=checkpointer)
    """

    FILENAME = "sampler.json"

    def __init__(
        self,
        directory: str | Path,
        every_queries: int = 10,
        recorder: Recorder = NULL_RECORDER,
    ) -> None:
        if every_queries <= 0:
            raise ValueError("every_queries must be positive")
        self.directory = Path(directory)
        self.every_queries = every_queries
        self.recorder = recorder
        self._saved_at_queries: int | None = None

    @property
    def path(self) -> Path:
        """The checkpoint file."""
        return self.directory / self.FILENAME

    def has_checkpoint(self) -> bool:
        """Whether a previous run left a checkpoint to resume from."""
        return self.path.is_file()

    def maybe_save(self, sampler: "QueryBasedSampler") -> None:
        """Persist if ``every_queries`` new queries completed since."""
        last = self._saved_at_queries if self._saved_at_queries is not None else 0
        if sampler.queries_run - last >= self.every_queries:
            self.save(sampler)

    def save(self, sampler: "QueryBasedSampler") -> None:
        """Persist the sampler's full resumable state atomically."""
        with self.recorder.span(
            "checkpoint_save", database=sampler.name, queries_run=sampler.queries_run
        ) as span:
            self.directory.mkdir(parents=True, exist_ok=True)
            payload = {"schema": SAMPLER_CHECKPOINT_SCHEMA, **sampler.state_dict()}
            size = _write_json(self.path, payload)
            span.set(bytes_written=size)
        self.recorder.count("store.checkpoints_written")
        self._saved_at_queries = sampler.queries_run

    def resume(self, sampler: "QueryBasedSampler") -> bool:
        """Restore the saved state into ``sampler`` if one exists.

        Returns ``True`` when a checkpoint was restored.  The sampler
        must match the checkpointed construction (name, seed, config,
        selector types) or ``ValueError`` is raised — resuming under
        different parameters would silently diverge.
        """
        if not self.has_checkpoint():
            return False
        payload = _read_json(self.path, SAMPLER_CHECKPOINT_SCHEMA)
        sampler.load_state_dict(payload)
        self._saved_at_queries = sampler.queries_run
        self.recorder.event(
            "checkpoint_resumed",
            database=sampler.name,
            queries_run=sampler.queries_run,
            documents_examined=sampler.documents_examined,
        )
        return True
