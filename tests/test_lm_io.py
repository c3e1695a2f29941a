"""Unit tests for repro.lm.io (serialization)."""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lm import (
    LanguageModel,
    dumps_language_model,
    load_language_model,
    loads_language_model,
    save_language_model,
)


@pytest.fixture
def model() -> LanguageModel:
    built = LanguageModel(name="serialized")
    built.add_document(["apple", "apple", "banana"])
    built.add_document(["cherry"])
    return built


class TestRoundTrip:
    def test_statistics_preserved(self, tmp_path, model):
        path = tmp_path / "model.lm"
        save_language_model(model, path)
        loaded = load_language_model(path)
        assert set(loaded) == set(model)
        for term in model:
            assert loaded.df(term) == model.df(term)
            assert loaded.ctf(term) == model.ctf(term)

    def test_counters_preserved(self, tmp_path, model):
        path = tmp_path / "model.lm"
        save_language_model(model, path)
        loaded = load_language_model(path)
        assert loaded.documents_seen == 2
        assert loaded.tokens_seen == 4
        assert loaded.name == "serialized"

    def test_terms_sorted_in_file(self, tmp_path, model):
        path = tmp_path / "model.lm"
        save_language_model(model, path)
        lines = path.read_text().splitlines()[1:]
        terms = [line.split()[0] for line in lines]
        assert terms == sorted(terms)

    def test_empty_model(self, tmp_path):
        path = tmp_path / "empty.lm"
        save_language_model(LanguageModel(name="empty"), path)
        loaded = load_language_model(path)
        assert len(loaded) == 0


class TestHeaderEscaping:
    """Names with spaces or ``=`` used to corrupt the header round trip."""

    @pytest.mark.parametrize(
        "name",
        [
            "two words",
            "key=value",
            "spaces and = signs",
            "tab\tname",
            "newline\nname",
            "ünïcode-dätabase",
            "",
        ],
    )
    def test_awkward_names_round_trip(self, tmp_path, name):
        model = LanguageModel(name=name)
        model.add_document(["apple", "banana"])
        path = tmp_path / "model.lm"
        save_language_model(model, path)
        loaded = load_language_model(path)
        assert loaded.name == name
        assert loaded.documents_seen == 1
        assert loaded.tokens_seen == 2

    def test_escaped_name_does_not_break_other_fields(self, tmp_path):
        model = LanguageModel(name="documents_seen=999 tokens_seen=999")
        model.add_document(["apple"])
        path = tmp_path / "model.lm"
        save_language_model(model, path)
        loaded = load_language_model(path)
        assert loaded.name == "documents_seen=999 tokens_seen=999"
        assert loaded.documents_seen == 1
        assert loaded.tokens_seen == 1


class TestRoundTripEdgeCases:
    def test_unicode_terms(self, tmp_path):
        model = LanguageModel(name="unicode")
        for term in ["café", "naïve", "日本語", "résumé", "παράδειγμα"]:
            model.add_term(term, df=2, ctf=5)
        path = tmp_path / "model.lm"
        save_language_model(model, path)
        loaded = load_language_model(path)
        assert set(loaded) == set(model)
        for term in model:
            assert loaded.df(term) == 2
            assert loaded.ctf(term) == 5

    def test_large_counts(self, tmp_path):
        model = LanguageModel(name="large")
        model.add_term("common", df=10**12, ctf=10**15)
        model.documents_seen = 10**12
        model.tokens_seen = 10**15
        path = tmp_path / "model.lm"
        save_language_model(model, path)
        loaded = load_language_model(path)
        assert loaded.df("common") == 10**12
        assert loaded.ctf("common") == 10**15
        assert loaded.documents_seen == 10**12
        assert loaded.tokens_seen == 10**15

    def test_dumps_loads_matches_file_round_trip(self, tmp_path, model):
        path = tmp_path / "model.lm"
        save_language_model(model, path)
        assert path.read_text(encoding="utf-8") == dumps_language_model(model)
        from_text = loads_language_model(dumps_language_model(model))
        assert dumps_language_model(from_text) == dumps_language_model(model)


class TestCrashSafety:
    """A failed or killed save never corrupts the target path."""

    @pytest.mark.parametrize("bad_term", ["has space", "tab\tterm", ""])
    def test_invalid_term_fails_without_touching_disk(self, tmp_path, bad_term):
        good = LanguageModel(name="good")
        good.add_document(["apple"])
        path = tmp_path / "model.lm"
        save_language_model(good, path)
        original = path.read_text()

        bad = LanguageModel(name="bad")
        bad.add_term("apple", df=1, ctf=1)
        bad._df[bad_term] = 1  # no public API produces such terms
        bad._ctf[bad_term] = 1
        with pytest.raises(ValueError, match="whitespace"):
            save_language_model(bad, path)
        # The previous file is byte-identical; no temp files linger.
        assert path.read_text() == original
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.lm"]

    def test_kill_during_publish_leaves_old_file(self, tmp_path, model, monkeypatch):
        path = tmp_path / "model.lm"
        save_language_model(model, path)
        original = path.read_bytes()

        def explode(src, dst):
            raise OSError("simulated crash")

        monkeypatch.setattr(os, "replace", explode)
        bigger = model.copy()
        bigger.add_document(["durian"])
        with pytest.raises(OSError, match="simulated crash"):
            save_language_model(bigger, path)
        monkeypatch.undo()
        assert path.read_bytes() == original
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.lm"]


# Terms must be non-empty and whitespace-free (the serializer's
# documented contract); everything else, including unicode, must survive.
_terms = st.text(min_size=1, max_size=12).filter(
    lambda t: not any(ch.isspace() for ch in t)
)
_counts = st.tuples(
    st.integers(min_value=1, max_value=10**12),
    st.integers(min_value=0, max_value=10**12),
).map(lambda pair: (pair[0], pair[0] + pair[1]))  # df <= ctf, the model invariant
_tables = st.dictionaries(_terms, _counts, max_size=30)


class TestRoundTripProperties:
    @settings(max_examples=60, deadline=None)
    @given(name=st.text(max_size=20), table=_tables)
    def test_any_model_round_trips(self, name, table):
        model = LanguageModel(name=name)
        for term, (df, ctf) in table.items():
            model.add_term(term, df=df, ctf=ctf)
        model.documents_seen = sum(df for df, _ in table.values())
        model.tokens_seen = sum(ctf for _, ctf in table.values())

        loaded = loads_language_model(dumps_language_model(model))
        assert loaded.name == name
        assert set(loaded) == set(model)
        for term in model:
            assert loaded.df(term) == model.df(term)
            assert loaded.ctf(term) == model.ctf(term)
        assert loaded.documents_seen == model.documents_seen
        assert loaded.tokens_seen == model.tokens_seen
        # Serialization is canonical: a round trip is a fixed point.
        assert dumps_language_model(loaded) == dumps_language_model(model)


class TestErrorHandling:
    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.lm"
        path.write_text("apple 1 2\n")
        with pytest.raises(ValueError, match="header"):
            load_language_model(path)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.lm"
        path.write_text("#language-model name=x documents_seen=0 tokens_seen=0\napple 1\n")
        with pytest.raises(ValueError, match=":2"):
            load_language_model(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_language_model(tmp_path / "nope.lm")


class TestBulkParseMatchesLineByLine:
    """What the text reader makes of input ``dumps_language_model`` never writes.

    There is one parser, line by line (the bulk parse these cases once
    refereed is gone): each body comes out as the model below, in this
    term order, or as this located error.
    """

    HEADER = "#language-model name=x documents_seen=3 tokens_seen=9\n"

    CASES = {
        # regular
        "apple 1 2\nbanana 2 2\n": [("apple", 1, 2), ("banana", 2, 2)],
        # no terms at all
        "": [],
        # a repeated term accumulates
        "apple 1 2\napple 2 3\nbanana 1 1\n": [("apple", 3, 5), ("banana", 1, 1)],
        # blank and padded lines
        "apple 1 2\n\n  banana 2 2  \n": [("apple", 1, 2), ("banana", 2, 2)],
        # CRLF
        "apple 1 2\r\nbanana 2 2\r\n": [("apple", 1, 2), ("banana", 2, 2)],
        # a line boundary that is not \n
        "apple 1 2\x0cbanana 2 2\n": [("apple", 1, 2), ("banana", 2, 2)],
        # 2 + 4 fields: six in all, still wrong
        "apple 1\nbanana 2 2 7\n": "f:2: expected 'term df ctf', got 'apple 1'",
        # a NUL field, a NUL term
        "apple 1 2 \0\n5 6\n": "f:2: expected 'term df ctf', got 'apple 1 2 \\x00'",
        "\0 1 2\nbanana 2 2\n": [("\0", 1, 2), ("banana", 2, 2)],
        # df > ctf, negative, not an integer
        "apple 3 2\n": "df (3) cannot exceed ctf (2) for 'apple'",
        "apple -1 2\n": "df and ctf must be non-negative",
        "apple one 2\n": "invalid literal for int() with base 10: 'one'",
        # wider than int64
        f"apple 1 {2**70}\n": [("apple", 1, 2**70)],
        # numeric terms keep file order
        "7 1 8\n2 3 4\n": [("7", 1, 8), ("2", 3, 4)],
    }

    @pytest.mark.parametrize("body", CASES)
    def test_same_model_or_same_error(self, body):
        expected = self.CASES[body]
        if isinstance(expected, str):
            with pytest.raises(ValueError) as caught:
                loads_language_model(self.HEADER + body, source="f")
            assert str(caught.value) == expected
        else:
            model = loads_language_model(self.HEADER + body, source="f")
            assert [(s.term, s.df, s.ctf) for s in model.items()] == expected
            assert model.total_ctf == sum(ctf for _, _, ctf in expected)
            assert (model.documents_seen, model.tokens_seen) == (3, 9)

    @pytest.mark.parametrize("bad_term", [" apple", "apple\n", "ap\u2003ple"])
    def test_whitespace_at_either_end_is_still_rejected(self, bad_term):
        bad = LanguageModel.from_statistics("bad", ["pear", bad_term], [1, 1], [1, 1])
        with pytest.raises(ValueError, match="whitespace"):
            dumps_language_model(bad)
