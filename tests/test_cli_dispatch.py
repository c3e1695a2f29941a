"""The CLI's dispatch and usage-error contract, read off the parser itself.

Every leaf command carries its ``run`` handler and answers ``--help``;
a command line with an out-of-range flag exits 2 before any corpus is
read or generated.
"""

from __future__ import annotations

import argparse
import importlib

import pytest

from repro.cli import build_parser, main

LEAF_COMMANDS = [
    "generate", "stats", "search", "sample", "compare", "summarize", "estimate-size",
    "federate", "store", "serve", "load-bench",
    "fleet status", "fleet migrate", "fleet run-workers",
    "classify probe", "classify bench", "scenarios list", "scenarios bench",
    "experiments", "trace",
]  # fmt: skip


def leaves(parser: argparse.ArgumentParser, path: tuple[str, ...] = ()):
    """``(command path, parser)`` for every parser without sub-commands."""
    groups = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not groups:
        yield path, parser
    for group in groups:
        for name, child in group.choices.items():
            yield from leaves(child, (*path, name))


class TestDispatch:
    def test_the_leaf_commands(self):
        assert [" ".join(path) for path, _ in leaves(build_parser())] == LEAF_COMMANDS

    @pytest.mark.parametrize("command", LEAF_COMMANDS)
    def test_every_leaf_has_a_run_handler(self, command):
        run = dict(leaves(build_parser()))[tuple(command.split())].get_default("run")
        group, name = run.args  # the group module is imported when the command runs
        assert callable(getattr(importlib.import_module(f"repro.cli.{group}"), name))

    @pytest.mark.parametrize("command", LEAF_COMMANDS)
    def test_every_leaf_answers_help(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([*command.split(), "--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: repro {command}")


class TestFlagsFailFast:
    @pytest.fixture()
    def no_federation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a federation was built before the flags were checked")

        monkeypatch.setattr("repro.serving.bench.build_synthetic_federation", refuse)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["serve", "--queue-limit", "0"], "--queue-limit and --concurrency"),
            (["serve", "--concurrency", "0"], "--queue-limit and --concurrency"),
            (["serve", "--slow-backend", "-1"], "--slow-backend"),
            (["load-bench", "--slow-backend", "-1"], "--slow-backend"),
            (["load-bench", "--duration", "0"], "--duration"),
        ],
    )
    def test_before_a_synthetic_federation_is_built(self, argv, message, no_federation,
                                                     capsys):
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    def test_before_a_corpus_file_is_read(self, tmp_path, capsys):
        missing = [str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")]
        assert main(["serve", *missing, "--concurrency", "0"]) == 2
        assert "must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["federate", "a.jsonl", "b.jsonl", "--query", "x", "--databases-per-query", "0"],
             "--databases-per-query"),
            (["federate", "a.jsonl", "b.jsonl", "--query", "x", "-n", "0"], "-n"),
            (["federate", "a.jsonl", "b.jsonl", "--query", "x", "--sample-docs", "0"],
             "--sample-docs"),
            (["federate", "a.jsonl", "b.jsonl", "--query", "x", "--sample-docs", "-5"],
             "--sample-docs"),
            (["sample", "a.jsonl", "-o", "a.lm", "--max-docs", "0"], "--max-docs"),
            (["sample", "a.jsonl", "-o", "a.lm", "--docs-per-query", "0"], "--docs-per-query"),
            (["search", "a.jsonl", "x", "-n", "0"], "-n"),
            (["estimate-size", "a.jsonl", "--sample-docs", "0"], "--sample-docs"),
            (["summarize", "a.lm", "-k", "0"], "-k"),
        ],
    )
    def test_before_a_corpus_or_model_file_is_read(self, argv, flag, tmp_path, monkeypatch,
                                                    capsys):
        monkeypatch.chdir(tmp_path)  # none of the files named exists
        assert main(argv) == 2
        assert capsys.readouterr().err == f"{flag} must be positive\n"


class TestBadInputIsAUsageError:
    """A value the library rejects while the federation or its frontend is
    built exits 2 with the library's message, not with a traceback."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["serve", "--synthetic", "2", "--scale", "0.01", "--workers", "0"],
             "max_workers must be positive"),
            (["serve", "--synthetic", "2", "--scale", "0.01", "--databases-per-query", "0"],
             "databases_per_query must be positive"),
            (["serve", "--synthetic", "2", "--scale", "0"], "scale must be positive, got 0.0"),
            (["load-bench", "--scale", "0"], "scale must be positive, got 0.0"),
            (["fleet", "run-workers", "--models", "m", "--queue", "q", "--scale", "0"],
             "scale must be positive, got 0.0"),
            (["classify", "probe", "--scale", "0"], "scale must be positive, got 0.0"),
        ],
    )
    def test_an_out_of_range_value(self, argv, message, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        assert capsys.readouterr().err == f"{message}\n"

    @pytest.mark.parametrize(
        "command",
        [
            ["federate", "--query", "x"],
            ["serve"],
            ["fleet", "run-workers", "--models", "m", "--queue", "q"],
            ["classify", "probe"],
        ],
    )
    def test_a_malformed_corpus_file(self, command, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.jsonl").write_text('{"doc_id": "a", "text": "hello"}\nnot json\n')
        (tmp_path / "good.jsonl").write_text('{"doc_id": "b", "text": "hello"}\n')
        assert main([*command, "bad.jsonl", "good.jsonl"]) == 2
        assert capsys.readouterr().err.startswith("bad.jsonl:2: invalid JSON: ")
