"""Checkpoint/resume tests: killed runs resume bit-identically.

The acceptance bar for the persistence layer: interrupting a
checkpointed sampling run at an arbitrary query boundary and resuming
in a *fresh process* (modelled by a freshly constructed sampler)
produces a language model bit-identical — same serialized bytes — to an
uninterrupted run.
"""

from __future__ import annotations

import json

import pytest

from repro.lm import dumps_language_model
from repro.sampling import MaxDocuments, QueryBasedSampler, RandomFromOther, SamplerConfig
from repro.store import CheckpointMismatchError, SamplerCheckpointer


class SimulatedCrash(RuntimeError):
    """Raised by the crashing checkpointer to model a killed process."""


class CrashingSamplerCheckpointer(SamplerCheckpointer):
    """Dies on the Nth save attempt — the last N-1 checkpoints are durable."""

    def __init__(self, directory, every_queries, crash_on_save):
        super().__init__(directory, every_queries=every_queries)
        self.crash_on_save = crash_on_save
        self.saves_attempted = 0

    def save(self, sampler):
        self.saves_attempted += 1
        if self.saves_attempted >= self.crash_on_save:
            raise SimulatedCrash(f"killed at save #{self.saves_attempted}")
        super().save(sampler)


def make_sampler(server, seed: int = 7) -> QueryBasedSampler:
    return QueryBasedSampler(
        server,
        bootstrap=RandomFromOther(server.actual_language_model()),
        config=SamplerConfig(snapshot_interval=25),
        seed=seed,
    )


class TestSamplerCheckpointer:
    def test_fresh_directory_resumes_nothing(self, tmp_path, small_synthetic_server):
        checkpointer = SamplerCheckpointer(tmp_path / "ckpt")
        assert not checkpointer.has_checkpoint()
        assert checkpointer.resume(make_sampler(small_synthetic_server)) is False

    def test_cadence(self, tmp_path, small_synthetic_server):
        saves = []

        class CountingCheckpointer(SamplerCheckpointer):
            def save(self, sampler):
                saves.append(sampler.queries_run)
                super().save(sampler)

        checkpointer = CountingCheckpointer(tmp_path / "ckpt", every_queries=5)
        sampler = make_sampler(small_synthetic_server)
        sampler.run(MaxDocuments(80), checkpoint=checkpointer)
        # Periodic saves land every >= 5 queries; the final save is
        # unconditional (and may repeat the last periodic count).
        assert saves[-1] == sampler.queries_run
        periodic = saves[:-1]
        assert periodic, "an 80-document run must checkpoint at least once"
        assert all(b - a >= 5 for a, b in zip(periodic, periodic[1:]))

    @pytest.mark.parametrize("crash_on_save", [1, 2, 3])
    def test_killed_run_resumes_bit_identical(
        self, tmp_path, small_synthetic_server, crash_on_save
    ):
        budget = MaxDocuments(120)
        reference = make_sampler(small_synthetic_server)
        reference.run(budget)
        reference_bytes = dumps_language_model(reference.model)

        crashing = CrashingSamplerCheckpointer(
            tmp_path / "ckpt", every_queries=4, crash_on_save=crash_on_save
        )
        victim = make_sampler(small_synthetic_server)
        with pytest.raises(SimulatedCrash):
            victim.run(budget, checkpoint=crashing)

        # A fresh process: new sampler, new checkpointer, same directory.
        survivor = make_sampler(small_synthetic_server)
        checkpointer = SamplerCheckpointer(tmp_path / "ckpt", every_queries=4)
        resumed = checkpointer.resume(survivor)
        # crash_on_save=1 kills the first write: nothing durable, the
        # rerun starts from scratch — and must still match.
        assert resumed == (crash_on_save > 1)
        if resumed:
            assert 0 < survivor.documents_examined < 120
        survivor.run(budget, checkpoint=checkpointer)

        assert dumps_language_model(survivor.model) == reference_bytes
        assert survivor.queries_run == reference.queries_run
        assert survivor.documents_examined == reference.documents_examined == 120
        # The entire resumable state matches, not just the model.
        assert survivor.state_dict() == reference.state_dict()

    def test_checkpointing_does_not_perturb_the_run(
        self, tmp_path, small_synthetic_server
    ):
        plain = make_sampler(small_synthetic_server)
        plain.run(MaxDocuments(90))
        observed = make_sampler(small_synthetic_server)
        observed.run(
            MaxDocuments(90),
            checkpoint=SamplerCheckpointer(tmp_path / "ckpt", every_queries=3),
        )
        assert dumps_language_model(observed.model) == dumps_language_model(plain.model)

    def test_resume_rejects_mismatched_construction(
        self, tmp_path, small_synthetic_server
    ):
        checkpointer = SamplerCheckpointer(tmp_path / "ckpt")
        sampler = make_sampler(small_synthetic_server, seed=7)
        sampler.run(MaxDocuments(40), checkpoint=checkpointer)
        other = make_sampler(small_synthetic_server, seed=8)
        with pytest.raises(ValueError, match="seed"):
            SamplerCheckpointer(tmp_path / "ckpt").resume(other)

    def test_resume_rejects_foreign_file(self, tmp_path, small_synthetic_server):
        directory = tmp_path / "ckpt"
        directory.mkdir()
        (directory / SamplerCheckpointer.FILENAME).write_text(
            json.dumps({"schema": "something-else/1"})
        )
        with pytest.raises(CheckpointMismatchError, match="schema"):
            SamplerCheckpointer(directory).resume(make_sampler(small_synthetic_server))

    def test_rejects_bad_cadence(self, tmp_path):
        with pytest.raises(ValueError, match="every_queries"):
            SamplerCheckpointer(tmp_path, every_queries=0)
