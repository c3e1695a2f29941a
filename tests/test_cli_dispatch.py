"""The CLI's dispatch and usage-error contract, read off the parser itself.

Every leaf command carries its ``run`` handler and answers ``--help``;
a command line with an out-of-range flag exits 2 before any corpus is
read or generated, and so does one naming a missing input file.
"""

from __future__ import annotations

import argparse
import importlib

import pytest

from repro.cli import build_parser, main

LEAF_COMMANDS = [
    "generate", "stats", "search", "sample", "compare", "summarize", "estimate-size",
    "federate", "store", "serve",
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


@pytest.fixture()
def no_federation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a federation was built before the flags were checked")

    monkeypatch.setattr("repro.serving.bench.build_synthetic_federation", refuse)


class TestFlagsFailFast:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["serve", "--queue-limit", "0"], "--queue-limit must be positive"),
            (["serve", "--concurrency", "0"], "--concurrency must be positive"),
            (["serve", "--slow-backend", "-1"], "--slow-backend"),
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
            (["fleet", "run-workers", "a.jsonl", "b.jsonl", "--models", "m", "--queue", "q",
              "--refresh-docs", "0"], "--refresh-docs"),
            (["fleet", "run-workers", "a.jsonl", "b.jsonl", "--models", "m", "--queue", "q",
              "--budget", "0"], "--budget"),
            (["fleet", "run-workers", "a.jsonl", "b.jsonl", "--models", "m", "--queue", "q",
              "--budget", "-1"], "--budget"),
        ],
    )
    def test_before_a_corpus_or_model_file_is_read(self, argv, flag, tmp_path, monkeypatch,
                                                    capsys):
        monkeypatch.chdir(tmp_path)  # none of the files named exists
        assert main(argv) == 2
        assert capsys.readouterr().err == f"{flag} must be positive\n"


    @pytest.mark.parametrize("flag", ["--lease-seconds", "--timeout"])
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_fleet_times_are_finite_and_positive(self, flag, value, tmp_path, monkeypatch,
                                                 capsys):
        monkeypatch.chdir(tmp_path)  # none of the files named exists
        argv = ["fleet", "run-workers", "a.jsonl", "b.jsonl", "--models", "m",
                "--queue", "q", flag, value]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"{flag} must be finite and positive\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "value, message",
        [
            ("-1", "scale must be positive, got -1.0"),
            ("0", "scale must be positive, got 0.0"),
            ("nan", "scale must be finite, got nan"),
            ("inf", "scale must be finite, got inf"),
            ("-inf", "scale must be finite, got -inf"),
        ],
    )
    def test_generate_scale_is_finite_and_positive(self, value, message, tmp_path,
                                                   monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        argv = ["generate", "--profile", "cacm", f"--scale={value}", "-o", "c.jsonl"]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"{message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["classify", "bench", "--scale", "0"], "scale must be positive, got 0.0"),
            (["classify", "bench", "--scale", "nan"], "scale must be finite, got nan"),
            (["scenarios", "bench", "--scale", "nan"], "scale must be finite, got nan"),
            (["experiments", "--scale", "-1"], "scale must be positive, got -1.0"),
            (["experiments", "--scale", "inf"], "scale must be finite, got inf"),
        ],
    )
    def test_study_scale_is_finite_and_positive(self, argv, message, tmp_path, monkeypatch,
                                                capsys):
        monkeypatch.chdir(tmp_path)  # where a report would land
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"{message}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "value, message",
        [("inf", "scale must be finite, got inf"), ("nan", "scale must be finite, got nan")],
    )
    def test_synthetic_scale_is_finite(self, value, message, capsys):
        assert main(["serve", "--synthetic", "4", "--scale", value]) == 2
        assert capsys.readouterr().err == f"{message}\n"

    def test_every_synthetic_database_gets_documents(self, capsys):
        assert main(["serve", "--synthetic", "60", "--scale", "0.004"]) == 2
        assert capsys.readouterr().err.startswith(
            "60 databases requested but only 19 received documents"
        )


class TestBadInputIsAUsageError:
    """A value refused by the parser or by the library while the federation
    or its frontend is built exits 2 with one line, not with a traceback."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["serve", "--synthetic", "2", "--scale", "0.01", "--workers", "0"],
             "--workers must be positive"),
            (["serve", "--synthetic", "2", "--scale", "0.01", "--databases-per-query", "0"],
             "--databases-per-query must be positive"),
            (["serve", "--synthetic", "2", "--scale", "0"], "scale must be positive, got 0.0"),
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

    @pytest.mark.parametrize(
        "argv",
        [
            ["summarize", "missing.lm"],
            ["compare", "missing.lm", "missing.jsonl"],
            ["stats", "missing.jsonl"],
            ["sample", "missing.jsonl", "-o", "out.lm"],
            ["search", "missing.jsonl", "x"],
            ["estimate-size", "missing.jsonl"],
            ["federate", "missing.jsonl", "other.jsonl", "--query", "x"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_a_missing_input_file(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", f"[Errno 2] No such file or directory: {argv[1]!r}\n"
        )
        assert list(tmp_path.iterdir()) == []


# Flags whose domain holds 0; every other numeric flag refuses it.
ZERO_ALLOWED = {
    "--seed", "--seeds", "--port", "--slow-backend", "--max-retries", "--fault-rate",
    "--min-df", "--crash-after-jobs", "--tau-coverage", "--tau-specificity",
}  # fmt: skip


def numeric_flags():
    """``(command path, flag, argv filler)`` for every option with a ``type``.

    The filler supplies each required positional and option a dummy path
    (one for ``nargs="+"``), so the flag's value is all that can fail.
    """
    for path, parser in leaves(build_parser()):
        filler = []
        for action in parser._actions:
            if not action.option_strings:
                if action.nargs not in ("*", "?"):
                    filler.append(f"{action.dest}.dummy")
            elif action.required:
                filler += [action.option_strings[0], f"{action.dest}.dummy"]
        for action in parser._actions:
            if action.type is not None:
                yield path, action.option_strings[0], filler


def out_of_domain_cases():
    for path, flag, filler in numeric_flags():
        argv = [*path, *filler, flag]
        for value in ("nan", "inf", "-1", "0"):
            if value != "0" or flag not in ZERO_ALLOWED:
                yield pytest.param([*argv, value], flag, id=" ".join([*path, flag, value]))
        if flag == "--port":
            yield pytest.param([*argv, "65536"], flag, id=" ".join([*path, flag, "65536"]))


class TestEveryNumericFlagHasADomain:
    def test_the_walk_covers_every_numeric_flag(self):
        assert len(list(numeric_flags())) == 54
        assert {flag for _, flag, _ in numeric_flags()} >= ZERO_ALLOWED

    @pytest.mark.parametrize("argv, flag", out_of_domain_cases())
    def test_a_value_outside_it_is_one_line_and_exit_2(self, argv, flag, no_federation,
                                                        tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # none of the dummy paths exists
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.endswith("\n")
        assert err.startswith(f"{flag} must be " if flag != "--scale" else "scale must be ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param([*path, *filler, flag, "0"], id=" ".join([*path, flag]))
            for path, flag, filler in numeric_flags()
            if flag in ZERO_ALLOWED
        ],
    )
    def test_zero_is_in_the_domain_of_the_allowed_flags(self, argv):
        build_parser().parse_args(argv)
