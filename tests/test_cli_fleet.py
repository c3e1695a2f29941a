"""End-to-end CLI tests for the fleet lifecycle: migrate, status, workers.

The crash leg runs in a real subprocess: ``--crash-after-jobs`` kills a
worker with ``os._exit`` while it holds a job lease (no cleanup, like
SIGKILL mid-job), and the rerun must wait out the lease, finish the
round exactly once, and leave every shard verifiable — the PR's
acceptance criterion, exercised through the operator entry points.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


def _write_corpus(directory: Path, name: str, profile: str, seed: int) -> Path:
    """A small named corpus file with collision-free doc ids."""
    raw = directory / f"raw-{name}.jsonl"
    assert main(["generate", "--profile", profile, "--scale", "0.03", "--seed",
                 str(seed), "-o", str(raw)]) == 0
    path = directory / f"{name}.jsonl"
    with raw.open() as src, path.open("w") as dst:
        for index, line in enumerate(src):
            record = json.loads(line)
            record["doc_id"] = f"{name}-{index}"
            dst.write(json.dumps(record) + "\n")
    return path


@pytest.fixture(scope="module")
def fleet_dir(tmp_path_factory) -> Path:
    """Three corpora and a flat store of their learned models."""
    directory = tmp_path_factory.mktemp("clifleet")
    for name, profile, seed in (
        ("newsdb", "wsj88", 1), ("scidb", "cacm", 2), ("webdb", "cacm", 3)
    ):
        _write_corpus(directory, name, profile, seed)
    corpora = [str(directory / f"{n}.jsonl") for n in ("newsdb", "scidb", "webdb")]
    main(["federate", *corpora, "--query", "market court", "--sample-docs", "40",
          "--save-models", str(directory / "flat")])
    assert (directory / "flat" / "manifest.json").is_file()
    return directory


def corpora_args(directory: Path) -> list[str]:
    return [str(directory / f"{n}.jsonl") for n in ("newsdb", "scidb", "webdb")]


def run_cli(argv: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


class TestMigrateAndStatus:
    def test_migrate_then_status(self, fleet_dir, tmp_path, capsys):
        sharded = str(tmp_path / "sharded")
        assert main(["fleet", "migrate", str(fleet_dir / "flat"), sharded,
                     "--num-shards", "4"]) == 0
        out = capsys.readouterr().out
        assert "migrated 3 models" in out
        assert main(["fleet", "status", sharded,
                     "--queue", str(tmp_path / "q")]) == 0
        out = capsys.readouterr().out
        assert "Sharded model store" in out
        assert "4 shards, 3 models" in out
        assert "pending=0" in out
        assert main(["store", sharded, "--verify"]) == 0
        assert "store ok" in capsys.readouterr().out

    def test_migrate_refuses_existing_target(self, fleet_dir, tmp_path, capsys):
        sharded = str(tmp_path / "sharded")
        assert main(["fleet", "migrate", str(fleet_dir / "flat"), sharded]) == 0
        capsys.readouterr()
        assert main(["fleet", "migrate", str(fleet_dir / "flat"), sharded]) == 1
        assert "migration failed" in capsys.readouterr().err

    def test_migrate_missing_source(self, tmp_path, capsys):
        assert main(["fleet", "migrate", str(tmp_path / "nope"),
                     str(tmp_path / "out")]) == 2
        assert "no model store" in capsys.readouterr().err

    def test_status_flat_store_hints_migration(self, fleet_dir, capsys):
        assert main(["fleet", "status", str(fleet_dir / "flat")]) == 0
        out = capsys.readouterr().out
        assert "flat model store" in out
        assert "repro fleet migrate" in out


class TestRunWorkers:
    def test_fresh_fleet_drains_without_refreshing(self, fleet_dir, tmp_path, capsys):
        sharded = str(tmp_path / "sharded")
        assert main(["fleet", "migrate", str(fleet_dir / "flat"), sharded,
                     "--num-shards", "4"]) == 0
        capsys.readouterr()
        assert main(["fleet", "run-workers", *corpora_args(fleet_dir),
                     "--models", sharded, "--queue", str(tmp_path / "q"),
                     "--workers", "2", "--refresh-docs", "40"]) == 0
        out = capsys.readouterr().out
        assert "drained: 3 jobs completed, 0 attempts failed" in out
        assert "0 models refreshed" in out
        # Every job reached done; the store is untouched (epoch 1).
        assert main(["fleet", "status", sharded, "--queue",
                     str(tmp_path / "q")]) == 0
        out = capsys.readouterr().out
        assert "done=3" in out and "epoch 1" in out

    def test_missing_store_model_rejected(self, fleet_dir, tmp_path, capsys):
        from repro.store import ModelStore

        flat = ModelStore(fleet_dir / "flat")
        partial = {name: model for name, model in flat.iter_models()
                   if name != "webdb"}
        ModelStore(tmp_path / "partial").save(partial)
        assert main(["fleet", "run-workers", *corpora_args(fleet_dir),
                     "--models", str(tmp_path / "partial"),
                     "--queue", str(tmp_path / "q")]) == 2
        assert "missing models" in capsys.readouterr().err

    def test_crash_mid_lease_then_resume_exactly_once(self, fleet_dir, tmp_path,
                                                      capsys):
        # Drift one database after its model was learned, so the round
        # has real refresh work to lose in the crash.
        _write_corpus(fleet_dir, "newsdb", "cacm", 77)
        try:
            sharded = str(tmp_path / "sharded")
            assert main(["fleet", "migrate", str(fleet_dir / "flat"), sharded,
                         "--num-shards", "4"]) == 0
            capsys.readouterr()
            queue = str(tmp_path / "q")
            crashed = run_cli(["fleet", "run-workers", *corpora_args(fleet_dir),
                               "--models", sharded, "--queue", queue,
                               "--workers", "1", "--lease-seconds", "2",
                               "--refresh-docs", "40",
                               "--crash-after-jobs", "1"])
            assert crashed.returncode == 3
            assert "simulated crash holding the lease" in crashed.stderr
            states = [json.loads(p.read_text())["state"]
                      for p in Path(queue, "jobs").glob("*.json")]
            assert sorted(states) == ["done", "leased", "pending"]

            # The rerun waits out the dead worker's lease and finishes
            # the round; nothing done is re-run.
            assert main(["fleet", "run-workers", *corpora_args(fleet_dir),
                         "--models", sharded, "--queue", queue,
                         "--workers", "1", "--lease-seconds", "2",
                         "--refresh-docs", "40"]) == 0
            out = capsys.readouterr().out
            assert "drained: 2 jobs completed" in out

            jobs = {json.loads(p.read_text())["database"]: json.loads(p.read_text())
                    for p in Path(queue, "jobs").glob("*.json")}
            assert all(job["state"] == "done" for job in jobs.values())
            # Only the drifted database was refreshed, whichever run did
            # it (install happens before completion, so a pre-crash
            # refresh survives).
            refreshed = {name for name, job in jobs.items()
                         if job["result"]["refreshed"]}
            assert refreshed == {"newsdb"}
            # Exactly one job (the one whose lease died) needed a second
            # attempt; the pre-crash completion was not repeated.
            attempts = sorted(job["attempts"] for job in jobs.values())
            assert attempts == [1, 1, 2]
            # The refreshed model landed in its shard and every shard
            # still verifies.
            assert main(["store", sharded, "--verify"]) == 0
            assert "store ok" in capsys.readouterr().out
        finally:
            _write_corpus(fleet_dir, "newsdb", "wsj88", 1)


class TestServingFromStore:
    def test_load_bench_models_flag(self, fleet_dir, tmp_path):
        sharded = str(tmp_path / "sharded")
        assert main(["fleet", "migrate", str(fleet_dir / "flat"), sharded]) == 0
        report = tmp_path / "load.json"
        assert main(["load-bench", *corpora_args(fleet_dir),
                     "--models", sharded, "--qps", "20", "--duration", "0.3",
                     "--queries", "4", "-o", str(report)]) == 0
        assert json.loads(report.read_text())["schema"] == "repro-serving-load/1"

    def test_load_bench_models_must_cover_federation(self, fleet_dir, tmp_path,
                                                     capsys):
        from repro.store import ModelStore

        flat = ModelStore(fleet_dir / "flat")
        partial = {name: model for name, model in flat.iter_models()
                   if name != "webdb"}
        ModelStore(tmp_path / "partial").save(partial)
        assert main(["load-bench", *corpora_args(fleet_dir),
                     "--models", str(tmp_path / "partial"),
                     "--qps", "20", "--duration", "0.3", "--queries", "4",
                     "-o", str(tmp_path / "load.json")]) == 2
        assert "missing models" in capsys.readouterr().err

    def test_federate_warm_starts_from_sharded_store(self, fleet_dir, tmp_path,
                                                     capsys):
        sharded = str(tmp_path / "sharded")
        assert main(["fleet", "migrate", str(fleet_dir / "flat"), sharded]) == 0
        capsys.readouterr()
        main(["federate", *corpora_args(fleet_dir), "--query", "market court",
              "--models", sharded])
        assert "warm-started 3 models" in capsys.readouterr().out
