"""The model file: ``pack_language_model`` / ``unpack_language_model``.

The model store keeps each model as a header, a term table and two
integer columns (:mod:`repro.lm.io`).  Two laws, as for the gateway
codec: every model the writer accepts survives ``pack`` → ``unpack``
with canonical bytes, and whatever bytes reach the reader — it sits
behind a checksum, but ``repro summarize FILE`` hands it any file —
it returns a model that keeps :meth:`LanguageModel.from_statistics`'
invariants or raises ``ValueError``, never anything else.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.lm import (
    LanguageModel,
    dumps_language_model,
    load_language_model,
    pack_language_model,
    save_language_model,
    unpack_language_model,
)

_terms = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Z", "Cc")), min_size=1, max_size=8
).filter(lambda term: not any(ch.isspace() for ch in term))

# Column maxima on every side of 2**8, 2**16 and 2**32: all four widths.
_magnitudes = st.sampled_from([0, 1, 200, 255, 256, 65_535, 65_536, 2**32 - 1, 2**32, 2**61])
_counts = st.tuples(
    st.integers(min_value=0, max_value=3) | _magnitudes,
    st.integers(min_value=0, max_value=3) | _magnitudes,
).map(lambda pair: (pair[0], pair[0] + pair[1]))  # df <= ctf; df = 0 included
_tables = st.dictionaries(_terms, _counts, max_size=12)
_names = st.text(max_size=12) | st.sampled_from(["a b", "k=v", "line\nbreak", "ünï/cödé", ""])


def build(name: str, table: dict[str, tuple[int, int]], order=None) -> LanguageModel:
    model = LanguageModel(name=name)
    for term in order or table:
        df, ctf = table[term]
        model.add_term(term, df=df, ctf=ctf)
    model.documents_seen = max((df for df, _ in table.values()), default=0)
    model.tokens_seen = sum(ctf for _, ctf in table.values())
    return model


def header_of(data: bytes) -> dict[str, str]:
    line = data.split(b"\n", 1)[0].decode("ascii")
    return dict(part.split("=", 1) for part in line.split()[1:])


def assert_model_invariants(model: LanguageModel) -> None:
    terms = list(model)
    assert len(set(terms)) == len(terms)
    for stats in model.items():
        assert 0 <= stats.df <= stats.ctf
    assert model.total_ctf == sum(stats.ctf for stats in model.items())


def unpack_or_value_error(data: bytes) -> None:
    try:
        model = unpack_language_model(data, source="some/file.lm")
    except ValueError as error:
        if data.startswith(b"#language-model/"):
            assert "some/file.lm" in str(error)
        return
    assert_model_invariants(model)
    # What was accepted can be written again.
    pack_language_model(model)


class TestRoundTrip:
    @settings(max_examples=120, deadline=None)
    @given(name=_names, table=_tables, shuffle=st.randoms(use_true_random=False))
    @example(name="empty", table={}, shuffle=random.Random(0))
    @example(name="zero", table={"never": (0, 0), "once": (1, 1)}, shuffle=random.Random(0))
    @example(  # Σ ctf past 2**63: the total is not an int64 sum
        name="sum", table={term: (1, 2**62) for term in "abc"}, shuffle=random.Random(0)
    )
    def test_any_model_round_trips_to_the_same_bytes(self, name, table, shuffle):
        model = build(name, table)
        data = pack_language_model(model)
        loaded = unpack_language_model(data)

        assert loaded.name == name
        assert (loaded.documents_seen, loaded.tokens_seen) == (
            model.documents_seen,
            model.tokens_seen,
        )
        assert dumps_language_model(loaded) == dumps_language_model(model)
        assert loaded.total_ctf == model.total_ctf
        # The file lists terms sorted, and so does the model read from it.
        assert list(loaded) == sorted(table)
        # Canonical: a fixed point of load + re-save, whatever order the
        # terms entered the model in.
        assert pack_language_model(loaded) == data
        order = list(table)
        shuffle.shuffle(order)
        assert pack_language_model(build(name, table, order)) == data

    @pytest.mark.parametrize(
        ("largest", "width"),
        [(0, "<u1"), (255, "<u1"), (256, "<u2"), (65_535, "<u2"), (65_536, "<u4"),
         (2**32 - 1, "<u4"), (2**32, "<u8"), (2**63 - 1, "<u8")],
    )
    def test_each_column_is_as_narrow_as_its_largest_value_allows(self, largest, width):
        model = build("w", {"big": (1, largest), "small": (0, 1)} if largest else {"none": (0, 0)})
        data = pack_language_model(model)
        fields = header_of(data)
        assert fields["ctf"] == width
        assert fields["df"] == "<u1"  # widths are per column: df stays narrow
        loaded = unpack_language_model(data)
        assert dumps_language_model(loaded) == dumps_language_model(model)

    def test_layout_is_header_terms_df_ctf(self):
        model = build("layout", {"bear": (3, 3), "apple": (12, 300)})
        data = pack_language_model(model)
        header, payload = data.split(b"\n", 1)
        assert header == (
            b"#language-model/2 name=layout documents_seen=12 tokens_seen=303 "
            b"terms=2 term_bytes=10 df=<u1 ctf=<u2"
        )
        assert payload == b"apple\nbear" + bytes([12, 3]) + (300).to_bytes(2, "little") + (
            3
        ).to_bytes(2, "little")

    def test_a_count_past_63_bits_is_refused(self):
        model = build("huge", {"x": (1, 2**63)})
        with pytest.raises(ValueError, match="63 bits"):
            pack_language_model(model)

    @pytest.mark.parametrize("bad_term", ["", " ", "two words", "tab\tbed", "line\n", "\x1c", "ap ple"])
    def test_unwritable_terms_are_refused_before_any_byte(self, bad_term):
        bad = LanguageModel.from_statistics("bad", ["pear", bad_term], [1, 1], [1, 1])
        with pytest.raises(ValueError, match="whitespace"):
            pack_language_model(bad)


class TestEitherKindLoads:
    def test_load_language_model_reads_a_model_file(self, tmp_path):
        model = build("stored", {"apple": (2, 5), "日本語": (1, 1)})
        path = tmp_path / "stored-0123456789ab.lm"
        path.write_bytes(pack_language_model(model))
        loaded = load_language_model(path)
        assert loaded.name == "stored"
        assert dumps_language_model(loaded) == dumps_language_model(model)

    def test_text_files_still_load_through_the_same_reader(self, tmp_path):
        model = build("texty", {"apple": (2, 5)})
        path = tmp_path / "texty.lm"
        save_language_model(model, path)
        assert path.read_bytes().startswith(b"#language-model name=")
        assert dumps_language_model(load_language_model(path)) == dumps_language_model(model)
        assert dumps_language_model(
            unpack_language_model(dumps_language_model(model).encode("utf-8"))
        ) == dumps_language_model(model)


_VALID = pack_language_model(
    build("valid name", {"apple": (12, 300), "bear": (3, 3), "café": (1, 70_000), "zed": (0, 0)})
)


def _with_field(data: bytes, key: str, value: str | None) -> bytes:
    """``data`` with one header field replaced (``None``: removed)."""
    header, payload = data.split(b"\n", 1)
    parts = header.decode("ascii").split()
    kept = [part for part in parts[1:] if not part.startswith(key + "=")]
    if value is not None:
        kept.append(f"{key}={value}")
    return " ".join([parts[0], *kept]).encode("ascii") + b"\n" + payload


class TestReaderRaisesValueErrorOnly:
    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=120))
    @example(b"")
    @example(b"#language-model/2 ")
    @example(b"#language-model/2 \n")
    @example(b"#language-model/2 terms=0 term_bytes=0 df=<u1 ctf=<u1\n")  # no name
    @example(b"#language-model/2 name=x documents_seen=0 tokens_seen=0 terms=0 term_bytes=0 df=<u1 ctf=<u1")
    @example(b"\xff\xfe not utf-8")
    @example(b"#language-model/3 name=x documents_seen=0 tokens_seen=0\n")
    def test_arbitrary_bytes(self, data):
        unpack_or_value_error(data)
        unpack_or_value_error(b"#language-model/2 " + data)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=len(_VALID)))
    def test_truncations(self, length):
        if length == len(_VALID):
            unpack_language_model(_VALID)
        elif length == len("#language-model"):
            # The bare header word is the text format's empty model.
            assert len(unpack_language_model(_VALID[:length])) == 0
        else:
            with pytest.raises(ValueError, match="some/file.lm"):
                unpack_language_model(_VALID[:length], source="some/file.lm")

    @settings(max_examples=400, deadline=None)
    @given(st.integers(min_value=0, max_value=len(_VALID) - 1), st.integers(0, 255))
    def test_single_byte_edits(self, position, byte):
        edited = bytearray(_VALID)
        edited[position] = byte
        unpack_or_value_error(bytes(edited))

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(
            ["name", "documents_seen", "tokens_seen", "terms", "term_bytes", "df", "ctf"]
        ),
        st.none()
        | st.sampled_from(
            ["", "x", "-1", "1.5", "0", "3", "4", "5", "99", "9" * 5000, "<u1", "<u2", "<u4",
             "<u8", ">u2", "<i2", "<u3", "<f8", "u2", "<U2", "%ff%fe", "1e3"]
        )
        | st.integers().map(str),
    )
    def test_header_field_edits(self, key, value):
        unpack_or_value_error(_with_field(_VALID, key, value))

    @pytest.mark.parametrize("key", ["name", "documents_seen", "tokens_seen", "terms", "term_bytes", "df", "ctf"])
    def test_every_field_is_required(self, key):
        with pytest.raises(ValueError, match="malformed model file"):
            unpack_language_model(_with_field(_VALID, key, None))

    def test_a_term_table_that_is_not_utf8(self):
        data = pack_language_model(build("x", {"ab": (1, 1)})).replace(b"\nab", b"\n\xff\xfe")
        with pytest.raises(ValueError, match="malformed model file"):
            unpack_language_model(data)

    @pytest.mark.parametrize("blob", [b"a\n\nb", b"a b\nc", b"a\nb\n", b"\na\nb", b"a\rb\nc", b"a\nb\x1cc"])
    def test_a_term_table_that_splits_into_other_terms(self, blob):
        data = (
            f"#language-model/2 name=x documents_seen=1 tokens_seen=1 terms=3 "
            f"term_bytes={len(blob)} df=<u1 ctf=<u1\n"
        ).encode("ascii") + blob + bytes([1, 1, 1, 1, 1, 1])
        with pytest.raises(ValueError, match="whitespace-free terms"):
            unpack_language_model(data)

    def test_model_invariants_are_checked_on_the_columns(self):
        def packed(terms: bytes, df: list[int], ctf: list[int]) -> bytes:
            return (
                f"#language-model/2 name=x documents_seen=1 tokens_seen=1 terms={len(df)} "
                f"term_bytes={len(terms)} df=<u1 ctf=<u1\n"
            ).encode("ascii") + terms + bytes(df) + bytes(ctf)

        with pytest.raises(ValueError, match="cannot exceed ctf"):
            unpack_language_model(packed(b"a\nb", [1, 3], [1, 2]))
        with pytest.raises(ValueError, match="distinct"):
            unpack_language_model(packed(b"a\na", [1, 1], [1, 1]))
        # u8 values past int64 are not counts from_statistics can hold.
        data = (
            b"#language-model/2 name=x documents_seen=1 tokens_seen=1 terms=1 "
            b"term_bytes=1 df=<u8 ctf=<u8\na" + b"\xff" * 16
        )
        with pytest.raises(ValueError, match="non-negative"):
            unpack_language_model(data)
