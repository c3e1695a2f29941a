"""End-to-end CLI tests for persistence: --checkpoint, --models, `repro store`.

The crash leg runs in a real subprocess: ``--crash-after-queries`` kills
the sampler with ``os._exit`` (no cleanup, like SIGKILL at a query
boundary), and the resumed in-process run must produce a model file
bit-identical to an uninterrupted run — the PR's acceptance criterion,
exercised through the same entry points an operator would use.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("clistore") / "corpus.jsonl"
    main(["generate", "--profile", "cacm", "--scale", "0.05", "--seed", "9",
          "-o", str(path)])
    return path


@pytest.fixture(scope="module")
def two_corpora(tmp_path_factory) -> list[Path]:
    import json

    directory = tmp_path_factory.mktemp("clifed")
    paths = []
    for name, profile, seed in (("newsdb", "wsj88", 1), ("scidb", "cacm", 2)):
        raw = directory / f"raw-{name}.jsonl"
        main(["generate", "--profile", profile, "--scale", "0.03", "--seed",
              str(seed), "-o", str(raw)])
        path = directory / f"{name}.jsonl"
        with raw.open() as src, path.open("w") as dst:
            for index, line in enumerate(src):
                record = json.loads(line)
                record["doc_id"] = f"{name}-{index}"
                dst.write(json.dumps(record) + "\n")
        paths.append(path)
    return paths


@pytest.fixture(scope="module")
def frequent_term(two_corpora) -> str:
    from repro.corpus import read_jsonl
    from repro.index import DatabaseServer

    server = DatabaseServer(read_jsonl(two_corpora[0]))
    return server.actual_language_model().top_terms(1, "ctf")[0].term


def run_cli(argv: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


class TestSampleCheckpoint:
    def test_crash_then_resume_is_bit_identical(self, corpus, tmp_path, capsys):
        base = ["sample", str(corpus), "--max-docs", "60", "--seed", "4",
                "--checkpoint-every", "3"]

        full = tmp_path / "full.lm"
        assert main([*base, "-o", str(full),
                     "--checkpoint", str(tmp_path / "ck-full")]) == 0
        capsys.readouterr()

        # Kill the run mid-flight at a query boundary (real subprocess:
        # os._exit skips every cleanup path, like SIGKILL).
        resumed = tmp_path / "resumed.lm"
        crash_args = [*base, "-o", str(resumed),
                      "--checkpoint", str(tmp_path / "ck"),
                      "--crash-after-queries", "8"]
        crashed = run_cli(crash_args)
        assert crashed.returncode == 3
        assert "simulated crash after 8 queries" in crashed.stderr
        assert not resumed.exists()

        # Re-run the same command without the crash flag: it resumes
        # from the last durable checkpoint and finishes the job.
        assert main([*base, "-o", str(resumed),
                     "--checkpoint", str(tmp_path / "ck")]) == 0
        out = capsys.readouterr().out
        assert "resumed from checkpoint:" in out
        assert resumed.read_bytes() == full.read_bytes()

    def test_completed_checkpoint_reruns_as_noop(self, corpus, tmp_path, capsys):
        base = ["sample", str(corpus), "--max-docs", "40", "--seed", "4",
                "--checkpoint", str(tmp_path / "ck"), "-o",
                str(tmp_path / "model.lm")]
        assert main(base) == 0
        first = capsys.readouterr().out
        assert main(base) == 0
        second = capsys.readouterr().out
        assert "resumed from checkpoint: 40 documents" in second
        # No new sampling work: both runs report the same totals.
        assert first.splitlines()[-1] == second.splitlines()[-1]

    def test_mismatched_resume_rejected(self, corpus, tmp_path, capsys):
        checkpoint = str(tmp_path / "ck")
        assert main(["sample", str(corpus), "--max-docs", "30", "--seed", "4",
                     "--checkpoint", checkpoint,
                     "-o", str(tmp_path / "a.lm")]) == 0
        capsys.readouterr()
        code = main(["sample", str(corpus), "--max-docs", "30", "--seed", "5",
                     "--checkpoint", checkpoint, "-o", str(tmp_path / "b.lm")])
        assert code == 2
        assert "cannot resume" in capsys.readouterr().err

    def test_bad_checkpoint_every_rejected(self, corpus, tmp_path, capsys):
        code = main(["sample", str(corpus), "--checkpoint", str(tmp_path / "ck"),
                     "--checkpoint-every", "0", "-o", str(tmp_path / "m.lm")])
        assert code == 2
        assert "--checkpoint-every" in capsys.readouterr().err


class TestFederateStore:
    def test_save_then_warm_start(self, two_corpora, frequent_term, tmp_path, capsys):
        store = str(tmp_path / "store")
        argv = [str(p) for p in two_corpora]
        assert main(["federate", *argv, "--query", frequent_term, "--sample-docs",
                     "40", "--save-models", store]) == 0
        cold = capsys.readouterr().out
        assert f"saved 2 models to {store}" in cold

        assert main(["federate", *argv, "--query", frequent_term,
                     "--models", store]) == 0
        warm = capsys.readouterr().out
        assert "warm-started 2 models from" in warm
        # Same models → same ranking and results (each output's first
        # line is its own status: "saved ..." vs "warm-started ...").
        assert warm.splitlines()[1:] == cold.splitlines()[1:]

    def test_warm_start_missing_database_fails(self, two_corpora, frequent_term,
                                               corpus, tmp_path, capsys):
        store = str(tmp_path / "store")
        argv = [str(p) for p in two_corpora]
        assert main(["federate", *argv, "--query", frequent_term, "--sample-docs",
                     "40", "--save-models", store]) == 0
        capsys.readouterr()
        code = main(["federate", str(two_corpora[0]), str(corpus),
                     "--query", frequent_term, "--models", store])
        assert code == 2
        assert "missing models" in capsys.readouterr().err


class TestStoreCommand:
    @pytest.fixture()
    def populated_store(self, two_corpora, frequent_term, tmp_path, capsys) -> str:
        store = str(tmp_path / "store")
        assert main(["federate", *[str(p) for p in two_corpora], "--query",
                     frequent_term, "--sample-docs", "40", "--save-models",
                     store]) == 0
        capsys.readouterr()
        return store

    def test_lists_manifest(self, populated_store, capsys):
        assert main(["store", populated_store]) == 0
        out = capsys.readouterr().out
        assert "Model store" in out
        assert "newsdb" in out and "scidb" in out

    def test_verify_healthy(self, populated_store, capsys):
        assert main(["store", populated_store, "--verify"]) == 0
        assert "store ok" in capsys.readouterr().out

    def test_verify_detects_corruption(self, populated_store, capsys):
        path = next(Path(populated_store).glob("shards/*/models/*.lm"))
        path.write_bytes(path.read_bytes() + b"extra 1 1\n")
        assert main(["store", populated_store, "--verify"]) == 1
        assert "INTEGRITY" in capsys.readouterr().err

    def test_missing_store(self, tmp_path, capsys):
        assert main(["store", str(tmp_path / "nope")]) == 2
        assert "no model store" in capsys.readouterr().err


def stray_file(store: str) -> Path:
    """An unreferenced path inside the store's first occupied shard."""
    shard = min(path for path in Path(store, "shards").iterdir() if path.is_dir())
    return shard / "models" / "stray.lm"


class TestStorePrune:
    @pytest.fixture()
    def populated_store(self, two_corpora, frequent_term, tmp_path, capsys) -> str:
        store = str(tmp_path / "store")
        assert main(["federate", *[str(p) for p in two_corpora], "--query",
                     frequent_term, "--sample-docs", "40", "--save-models",
                     store]) == 0
        capsys.readouterr()
        return store

    def test_prune_removes_orphans(self, populated_store, capsys):
        stray = stray_file(populated_store)
        stray.write_text("junk")
        assert main(["store", populated_store, "--prune"]) == 0
        out = capsys.readouterr().out
        assert f"pruned 1 orphan files: {stray.relative_to(populated_store)}" in out
        assert not stray.exists()
        # A second prune finds nothing.
        assert main(["store", populated_store, "--prune"]) == 0
        assert "nothing to prune" in capsys.readouterr().out

    def test_prune_refuses_unverified_store(self, populated_store, capsys):
        stray = stray_file(populated_store)
        path = next(Path(populated_store).glob("shards/*/models/*.lm"))
        path.write_bytes(path.read_bytes() + b"extra 1 1\n")
        stray.write_text("junk")
        assert main(["store", populated_store, "--prune"]) == 1
        err = capsys.readouterr().err
        assert "INTEGRITY" in err
        assert "refusing to prune" in err
        # Nothing was deleted, the orphan included.
        assert stray.exists()

    def test_prune_sharded_store(self, populated_store, tmp_path, capsys):
        sharded = str(tmp_path / "sharded")
        assert main(["fleet", "migrate", populated_store, sharded,
                     "--num-shards", "4"]) == 0
        capsys.readouterr()
        stray = stray_file(sharded)
        stray.write_text("junk")
        assert main(["store", sharded, "--prune"]) == 0
        assert str(stray.relative_to(sharded)) in capsys.readouterr().out
        assert not stray.exists()
