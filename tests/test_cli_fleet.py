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
from repro.store import ModelStore, ShardedModelStore

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
    """Three corpora and a store of their learned models."""
    directory = tmp_path_factory.mktemp("clifleet")
    for name, profile, seed in (
        ("newsdb", "wsj88", 1), ("scidb", "cacm", 2), ("webdb", "cacm", 3)
    ):
        _write_corpus(directory, name, profile, seed)
    corpora = [str(directory / f"{n}.jsonl") for n in ("newsdb", "scidb", "webdb")]
    main(["federate", *corpora, "--query", "market court", "--sample-docs", "40",
          "--save-models", str(directory / "store")])
    assert (directory / "store" / "fleet.json").is_file()
    return directory


def corpora_args(directory: Path) -> list[str]:
    return [str(directory / f"{n}.jsonl") for n in ("newsdb", "scidb", "webdb")]


def stored_models(fleet_dir: Path, *, without: str | None = None):
    return {name: model
            for name, model in ShardedModelStore(fleet_dir / "store").iter_models()
            if name != without}


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
        assert main(["fleet", "migrate", str(fleet_dir / "store"), sharded,
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
        assert main(["fleet", "migrate", str(fleet_dir / "store"), sharded]) == 0
        capsys.readouterr()
        assert main(["fleet", "migrate", str(fleet_dir / "store"), sharded]) == 1
        assert "migration failed" in capsys.readouterr().err

    def test_migrate_missing_source(self, tmp_path, capsys):
        assert main(["fleet", "migrate", str(tmp_path / "nope"),
                     str(tmp_path / "out")]) == 2
        assert "no model store" in capsys.readouterr().err

    def test_status_flat_store_hints_migration(self, fleet_dir, tmp_path, capsys):
        ModelStore(tmp_path / "flat").save(stored_models(fleet_dir))
        assert main(["fleet", "status", str(tmp_path / "flat")]) == 2
        err = capsys.readouterr().err
        assert "flat store written before sharding" in err
        assert "repro fleet migrate" in err

    def test_migrate_carries_the_persisted_router(self, fleet_dir, tmp_path, capsys):
        flat, sharded = tmp_path / "flat", tmp_path / "sharded"
        ModelStore(flat).save(stored_models(fleet_dir))
        assert main(["classify", "probe", *corpora_args(fleet_dir),
                     "--save-router", str(flat)]) == 0
        assert main(["fleet", "migrate", str(flat), str(sharded),
                     "--num-shards", "4"]) == 0
        assert (json.loads((sharded / "classifications.json").read_text())
                == json.loads((flat / "classifications.json").read_text()))
        capsys.readouterr()
        # The migrated store warm-starts routing, not only the models
        # (federate's exit code reflects the query's results, not the store).
        main(["federate", *corpora_args(fleet_dir), "--query", "market court",
              "--models", str(sharded), "--route-topics"])
        assert "topic routing over" in capsys.readouterr().out


class TestLegacyFlatDirectory:
    """A directory written before sharding (a bare ``ModelStore``).

    Every entry point but ``fleet migrate`` refuses it, pointing at that
    command, without creating or changing a single file in it; once
    migrated, the same entry points accept the result.
    """

    @pytest.fixture()
    def flat(self, fleet_dir, tmp_path) -> Path:
        ModelStore(tmp_path / "flat").save(stored_models(fleet_dir), model_epoch=1)
        return tmp_path / "flat"

    @pytest.mark.parametrize("entry", ["store", "fleet status", "federate --models",
                                       "federate --save-models", "fleet run-workers"])
    def test_cli_refuses_it_until_migrated(self, entry, flat, fleet_dir, tree,
                                           tmp_path, capsys):
        def run(store):
            corpora, store = corpora_args(fleet_dir), str(store)
            federate = ["federate", *corpora, "--query", "market court"]
            argv, accepted = {
                "store": (["store", store, "--verify"], "store ok"),
                "fleet status": (["fleet", "status", store], "3 models"),
                "federate --models": ([*federate, "--models", store],
                                      "warm-started 3 models"),
                "federate --save-models": (
                    [*federate, "--sample-docs", "40", "--save-models", store],
                    "saved 3 models"),
                "fleet run-workers": (
                    ["fleet", "run-workers", *corpora, "--models", store, "--queue",
                     str(tmp_path / "q"), "--refresh-docs", "40"],
                    "drained: 3 jobs completed"),
            }[entry]
            return main(argv), accepted

        before = tree(flat)
        assert run(flat)[0] == 2
        assert "repro fleet migrate" in capsys.readouterr().err
        assert tree(flat) == before

        sharded = tmp_path / "sharded"
        assert main(["fleet", "migrate", str(flat), str(sharded),
                     "--num-shards", "4"]) == 0
        assert tree(flat) == before  # migration only reads its source
        code, accepted = run(sharded)  # federate exits 1 on "no results"
        assert code in (0, 1) and accepted in capsys.readouterr().out

    def test_library_refuses_it_until_migrated(self, flat, fleet_dir, tree, tmp_path):
        from repro.corpus import read_jsonl
        from repro.federation import FederatedSearchService
        from repro.index import DatabaseServer
        from repro.lm import dumps_language_model
        from repro.serving import FederationFrontend
        from repro.store import StoreIntegrityError

        servers = {}
        for path in corpora_args(fleet_dir):
            corpus = read_jsonl(path)
            servers[corpus.name] = DatabaseServer(corpus)
        service = FederatedSearchService(servers)
        before = tree(flat)
        with pytest.raises(StoreIntegrityError, match="repro fleet migrate"):
            service.load_models(flat)
        with pytest.raises(StoreIntegrityError, match="repro fleet migrate"):
            FederationFrontend.from_store(service, str(flat))
        assert tree(flat) == before
        assert not service.models

        def dumped(models):
            return {name: dumps_language_model(model) for name, model in models}

        sharded = ShardedModelStore.migrate(
            ModelStore(flat), tmp_path / "sharded", num_shards=4)
        expected = dumped(ModelStore(flat).iter_models())
        service.load_models(sharded.root)
        assert dumped(service.models.items()) == expected
        with FederationFrontend.from_store(service, sharded) as frontend:
            assert frontend.refresh_from_store() == ()
            assert dumped(frontend.service.models.items()) == expected


class TestRunWorkers:
    def test_fresh_fleet_drains_without_refreshing(self, fleet_dir, tmp_path, capsys):
        sharded = str(tmp_path / "sharded")
        assert main(["fleet", "migrate", str(fleet_dir / "store"), sharded,
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

    def test_file_corpora_drain_on_the_main_thread(self, fleet_dir, tmp_path,
                                                   capsys, thread_starts):
        """The CLI's wrapping handler forwards the runner's declaration:
        in-process indexes start no worker thread at any ``--workers``."""
        sharded = str(tmp_path / "sharded")
        assert main(["fleet", "migrate", str(fleet_dir / "store"), sharded,
                     "--num-shards", "4"]) == 0
        assert main(["fleet", "run-workers", *corpora_args(fleet_dir),
                     "--models", sharded, "--queue", str(tmp_path / "q"),
                     "--workers", "4", "--refresh-docs", "40"]) == 0
        assert "drained: 3 jobs completed" in capsys.readouterr().out
        assert [name for name in thread_starts if name.startswith("worker-")] == []

    def test_missing_store_model_rejected(self, fleet_dir, tmp_path, capsys):
        ShardedModelStore(tmp_path / "partial").save(
            stored_models(fleet_dir, without="webdb"))
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
            assert main(["fleet", "migrate", str(fleet_dir / "store"), sharded,
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
        report = tmp_path / "load.json"
        assert main(["load-bench", *corpora_args(fleet_dir),
                     "--models", str(fleet_dir / "store"), "--qps", "20", "--duration", "0.3",
                     "--queries", "4", "-o", str(report)]) == 0
        assert json.loads(report.read_text())["schema"] == "repro-serving-load/1"

    def test_load_bench_models_must_cover_federation(self, fleet_dir, tmp_path,
                                                     capsys):
        ShardedModelStore(tmp_path / "partial").save(
            stored_models(fleet_dir, without="webdb"))
        assert main(["load-bench", *corpora_args(fleet_dir),
                     "--models", str(tmp_path / "partial"),
                     "--qps", "20", "--duration", "0.3", "--queries", "4",
                     "-o", str(tmp_path / "load.json")]) == 2
        assert "missing models" in capsys.readouterr().err

    def test_federate_warm_starts_from_sharded_store(self, fleet_dir, capsys):
        main(["federate", *corpora_args(fleet_dir), "--query", "market court",
              "--models", str(fleet_dir / "store")])
        assert "warm-started 3 models" in capsys.readouterr().out
