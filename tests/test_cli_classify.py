"""Tests for `repro classify` and the `--route-topics` serving flags."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.classify.persist import CLASSIFICATIONS_FILE


class TestClassifyProbe:
    def test_synthetic_federation_classifies(self, capsys):
        code = main(["classify", "probe", "--synthetic", "3", "--scale", "0.02"])
        output = capsys.readouterr().out
        assert code == 0
        assert "Classification over" in output
        assert "db0" in output and "db2" in output

    def test_save_router_persists_classifications(self, tmp_path, capsys):
        store = tmp_path / "store"
        code = main(
            ["classify", "probe", "--synthetic", "3", "--scale", "0.02",
             "--save-router", str(store)]
        )
        assert code == 0
        assert "saved classifications" in capsys.readouterr().out
        payload = json.loads((store / CLASSIFICATIONS_FILE).read_text())
        assert payload["schema"] == "repro-classify/1"
        assert set(payload["classifications"]) == {"db0", "db1", "db2"}

    def test_rejects_single_corpus(self, tmp_path, capsys):
        corpus = tmp_path / "only.jsonl"
        main(["generate", "--profile", "cacm", "--scale", "0.05", "-o", str(corpus)])
        code = main(["classify", "probe", str(corpus)])
        assert code == 2
        assert "at least two" in capsys.readouterr().err
        assert main(["classify", "probe", "--synthetic", "1"]) == 2
        assert "--synthetic" in capsys.readouterr().err


class TestClassifyBench:
    def test_writes_report_and_prints_tables(self, tmp_path, capsys):
        out = tmp_path / "BENCH_classify.json"
        code = main(
            ["classify", "bench", "--scale", "0.02", "--seeds", "0",
             "--budgets", "1", "4", "-o", str(out)]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "accuracy vs probe budget" in output
        assert "Routed vs broadcast" in output
        payload = json.loads(out.read_text())
        assert payload["schema"] == "repro-classify-bench/1"
        assert [row["budget"] for row in payload["accuracy_vs_budget"]] == [1, 4]
        routing = payload["routing"]
        assert (
            routing["routed_databases_per_query"]
            <= routing["broadcast_databases_per_query"]
        )

    def test_validates_inputs(self, capsys):
        assert main(["classify", "bench", "--databases", "1"]) == 2
        assert "databases" in capsys.readouterr().err
        assert main(["classify", "bench", "--budgets", "0"]) == 2
        assert "budgets" in capsys.readouterr().err


class TestRouteTopicsFlags:
    def test_load_bench_serves_routed_queries(self, tmp_path):
        report = tmp_path / "load.json"
        code = main(
            ["load-bench", "--synthetic", "4", "--scale", "0.02", "--route-topics",
             "--qps", "20", "--duration", "0.3", "--queries", "4", "-o", str(report)]
        )
        assert code == 0
        levels = json.loads(report.read_text())["levels"]
        assert sum(level["completed"] for level in levels) > 0

    def test_federate_files_need_persisted_classifications(self, tmp_path, capsys):
        corpora = []
        for name, seed in (("a", 1), ("b", 2)):
            raw = tmp_path / f"raw-{name}.jsonl"
            main(["generate", "--profile", "cacm", "--scale", "0.05",
                  "--seed", str(seed), "-o", str(raw)])
            renamed = tmp_path / f"{name}.jsonl"
            with raw.open() as src, renamed.open("w") as dst:
                for index, line in enumerate(src):
                    record = json.loads(line)
                    record["doc_id"] = f"{name}-{index}"
                    dst.write(json.dumps(record) + "\n")
            corpora.append(str(renamed))
        code = main(
            ["federate", *corpora, "--query", "system", "--route-topics"]
        )
        assert code == 2
        assert "persisted classifications" in capsys.readouterr().err
