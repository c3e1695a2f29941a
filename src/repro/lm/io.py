"""Language model serialization: the text interchange format and the model file.

**The text format** is simple and diffable, in the spirit of the Lemur
toolkit's collection-statistics files — what ``repro sample -o``
writes, what checkpoints embed, and what every equality test compares:

.. code-block:: text

    #language-model name=wsj88 documents_seen=300 tokens_seen=45210
    apple 12 31
    bear 3 3

One header line, then one ``term df ctf`` line per term, sorted by term
for determinism.  Header fields are whitespace-separated, so the model
name is percent-escaped on write (a name containing a space or ``=``
would otherwise corrupt the header) and unescaped on read.

**The model file** is what the model store keeps
(:func:`pack_language_model`): the same content as three columns, so
that writing and reading it are a handful of C-level passes instead of
a formatted and re-parsed line per term:

.. code-block:: text

    #language-model/2 name=wsj88 documents_seen=300 tokens_seen=45210 terms=2 term_bytes=10 df=<u1 ctf=<u1
    apple\nbear<df: 2 x u1><ctf: 2 x u1>

One ASCII header line, the sorted terms joined by ``"\n"`` (UTF-8,
``term_bytes`` long), then the ``df`` and the ``ctf`` column as
little-endian unsigned integers, each of the narrowest width (``<u1``,
``<u2``, ``<u4``, ``<u8``) that holds the column's largest value — df is
bounded by the documents seen and ctf by the tokens seen, so a sampled
model's columns are usually one and two bytes wide.  The bytes are a
function of the model's content alone (sorted terms, widths derived,
no padding), so load + re-save reproduces them exactly.  Nothing
separates the parts: the header says how long each is, and a reader
refuses a file whose length disagrees.

:func:`unpack_language_model` (and so :func:`load_language_model`) reads
either kind, told apart by the header; there is one writer per kind and
no option choosing between them.  A model file is read as a column
view (:meth:`~repro.lm.model.LanguageModel.over_columns`) of its own
sorted terms and columns: no dict is built until something looks a term
up, and writing the model back writes those columns as they are.  A
text file is read into dicts, as every model that grows is held.

Writes are **crash-safe**: the entire model is serialized and validated
in memory first, then published with an atomic temp-file +
:func:`os.replace` (:mod:`repro.utils.atomic`).  A validation error or
a crash mid-write never leaves a corrupt or partial file at the target
path.
"""

from __future__ import annotations

import operator
from itertools import islice
from pathlib import Path
from typing import Any, Iterable
from urllib.parse import quote, unquote

import numpy as np

from repro.lm.model import ColumnCounts, LanguageModel
from repro.utils.atomic import atomic_write_text

__all__ = [
    "dumps_language_model",
    "load_language_model",
    "loads_language_model",
    "pack_language_model",
    "save_language_model",
    "unpack_language_model",
]

_HEADER_PREFIX = "#language-model"
#: First bytes of any versioned file (the text format has a space here) ...
_VERSIONED_PREFIX = f"{_HEADER_PREFIX}/".encode("ascii")
#: ... and of the one version there is, the model file.
_COLUMNS_PREFIX = _VERSIONED_PREFIX + b"2 "
#: Column types a model file may declare, narrowest first.
_COLUMN_TYPES = ("<u1", "<u2", "<u4", "<u8")
#: The largest count a model file holds (``2**63 - 1``, an int64's largest).
_LARGEST_COUNT = int(np.iinfo(np.int64).max)
#: The ASCII characters ``str.split()`` splits on, but the newline.
_ASCII_SPACES = tuple(ch for ch in map(chr, range(128)) if ch.isspace() and ch != "\n")


def _in_file_order(model: LanguageModel) -> tuple[list[str], Any, Any]:
    """The model's terms sorted, and its df and ctf values in that order.

    A model held in dicts is sorted and looked up term by term (two
    iterators of ints).  A column view gathers each column with one
    ``take`` over its sorted terms' rows, and a view of a model file
    takes its columns as they are: their rows are sorted already (two
    unsigned arrays).  ``ValueError`` if a term cannot be written:
    terms containing whitespace are rejected (no analyzer in this
    library produces them), as is the empty term, since both formats
    delimit terms by whitespace.
    """
    df, ctf = model._df, model._ctf
    if isinstance(df, ColumnCounts) and isinstance(ctf, ColumnCounts):
        terms, rows = df.table.sorted_rows()
        df_values, ctf_values = df.column, ctf.column
        if rows is not None:
            df_values, ctf_values = df_values.take(rows), ctf_values.take(rows)
    else:
        terms = sorted(df)
        df_values, ctf_values = map(df.__getitem__, terms), map(ctf.__getitem__, terms)
    # The concatenation screens the whole vocabulary: it holds no
    # whitespace exactly when no term does; sorted, an empty term comes
    # first.  The per-term loop only names the offender.
    joined = "".join(terms)
    if (terms and not terms[0]) or "\n" in joined or _holds_other_whitespace(joined):
        for term in terms:
            if not term or any(ch.isspace() for ch in term):
                raise ValueError(
                    f"term {term!r} is empty or contains whitespace and cannot be serialized"
                )
    return terms, df_values, ctf_values


def _holds_other_whitespace(text: str) -> bool:
    """Whether ``text`` holds a whitespace character other than ``"\\n"``.

    ASCII text is searched for each of its few such characters (a
    ``memchr`` each); any other drops its newlines and splits once.
    """
    if text.isascii():
        return any(space in text for space in _ASCII_SPACES)
    joined = text.replace("\n", "")
    return bool(joined) and joined.split(None, 1) != [joined]


def _header_fields(model: LanguageModel) -> str:
    """The header fields both formats share (the name percent-escaped)."""
    return (
        f"name={quote(model.name, safe='')} "
        f"documents_seen={model.documents_seen} tokens_seen={model.tokens_seen}"
    )


def dumps_language_model(model: LanguageModel) -> str:
    """Serialize ``model`` to the text format above, validating first.

    Every term is checked *before* any output is produced
    (:func:`_in_file_order`), so a model that cannot be serialized fails
    without side effects.  The model name is percent-escaped, so any
    name — spaces, ``=``, newlines — round-trips intact.
    """
    terms, df, ctf = _in_file_order(model)
    if isinstance(df, np.ndarray):
        df, ctf = df.tolist(), ctf.tolist()
    lines = [f"{_HEADER_PREFIX} {_header_fields(model)}"]
    lines.extend(map("{} {} {}".format, terms, df, ctf))
    return "\n".join(lines) + "\n"


def _column(values: Iterable[int] | np.ndarray, count: int) -> tuple[str, bytes]:
    """``count`` counts as ``(type, bytes)``, narrowest type that fits."""
    if isinstance(values, np.ndarray):
        largest = int(values.max()) if values.size else 0
        if largest > _LARGEST_COUNT:
            raise ValueError(f"a count does not fit 63 bits: {largest}")
    else:
        try:
            values = np.fromiter(values, dtype=np.int64, count=count)
        except OverflowError as error:
            raise ValueError(f"a count does not fit 63 bits: {error}") from error
        if values.size and int(values.min()) < 0:
            raise ValueError("df and ctf must be non-negative")
        largest = int(values.max()) if values.size else 0
    column_type = next(t for t in _COLUMN_TYPES if largest <= np.iinfo(t).max)
    return column_type, values.astype(column_type).tobytes()


def pack_language_model(model: LanguageModel) -> bytes:
    """Serialize ``model`` to the model-file format above, validating first.

    The same refusals as :func:`dumps_language_model`, before any byte
    exists; in addition a count must fit 63 bits, the range the reader
    accepts.  A column view's columns are gathered by rows (a model read
    from a model file writes its own columns back): no per-term lookup.
    """
    terms, df, ctf = _in_file_order(model)
    blob = "\n".join(terms).encode("utf-8")
    df_type, df_bytes = _column(df, len(terms))
    ctf_type, ctf_bytes = _column(ctf, len(terms))
    fields = (
        f"{_header_fields(model)} "
        f"terms={len(terms)} term_bytes={len(blob)} df={df_type} ctf={ctf_type}\n"
    )
    return b"".join((_COLUMNS_PREFIX, fields.encode("ascii"), blob, df_bytes, ctf_bytes))


def save_language_model(model: LanguageModel, path: str | Path) -> None:
    """Write ``model`` to ``path`` atomically (temp file + rename).

    The serialization is fully built and validated in memory before the
    filesystem is touched; see :func:`dumps_language_model`.
    """
    atomic_write_text(path, dumps_language_model(model))


def _parse_lines(name: str, body: list[str], source: str) -> LanguageModel:
    """Parse term lines one at a time, locating any error.

    Blank lines are skipped and a repeated term accumulates.
    """
    model = LanguageModel(name=name)
    for line_number, line in enumerate(body, start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"{source}:{line_number}: expected 'term df ctf', got {line!r}")
        term, df_text, ctf_text = parts
        model.add_term(term, df=int(df_text), ctf=int(ctf_text))
    return model


def loads_language_model(
    text: str, default_name: str = "lm", source: str = "<string>"
) -> LanguageModel:
    """Parse a model from serialized ``text`` (see :func:`dumps_language_model`).

    ``source`` labels error messages (a file path when called from
    :func:`load_language_model`); ``default_name`` is used when the
    header carries no ``name=`` field.
    """
    lines = text.splitlines()
    header = lines[0] if lines else ""
    if not header.startswith(_HEADER_PREFIX):
        raise ValueError(f"{source}: missing language-model header")
    fields = dict(
        part.split("=", 1) for part in header[len(_HEADER_PREFIX) :].split() if "=" in part
    )
    name = unquote(fields["name"]) if "name" in fields else default_name
    model = _parse_lines(name, lines[1:], source)
    model.documents_seen = int(fields.get("documents_seen", 0))
    model.tokens_seen = int(fields.get("tokens_seen", 0))
    return model


def _unpack_columns(data: bytes, source: str) -> LanguageModel:
    """Parse a model file into a column view; every way it can be malformed is a ``ValueError``.

    The model reads the file's own terms and (aligned copies of) its two
    columns; its term → row table is built on the first lookup, so a
    model that is only verified or written back never builds one.
    """
    header, newline, payload = data.partition(b"\n")
    try:
        if not data.startswith(_COLUMNS_PREFIX):
            raise ValueError("only version /2 of the format is known")
        fields = dict(
            part.split("=", 1)
            for part in header[len(_COLUMNS_PREFIX) :].decode("ascii").split()
        )
        count, term_bytes = int(fields["terms"]), int(fields["term_bytes"])
        df_type, ctf_type = fields["df"], fields["ctf"]
        if df_type not in _COLUMN_TYPES or ctf_type not in _COLUMN_TYPES:
            raise ValueError(f"unknown column type in df={df_type} ctf={ctf_type}")
        df_bytes = count * np.dtype(df_type).itemsize
        ctf_bytes = count * np.dtype(ctf_type).itemsize
        if (
            not newline
            or count < 0
            or term_bytes < 0
            or len(payload) != term_bytes + df_bytes + ctf_bytes
        ):
            raise ValueError(
                f"header declares {count} terms in {term_bytes} bytes with "
                f"{df_type}/{ctf_type} columns, but {len(payload)} bytes follow it"
            )
        text = payload[:term_bytes].decode("utf-8")
        terms = text.split("\n") if text else []
        # No term may be empty (no newline at either end or doubled), and
        # none may hold whitespace of another kind.
        if (
            len(terms) != count
            or (text and (text[0] == "\n" or text[-1] == "\n" or "\n\n" in text))
            or _holds_other_whitespace(text)
        ):
            raise ValueError(f"term table does not hold {count} whitespace-free terms")
        # Strictly increasing terms are distinct, and their rows are in
        # the order a writer wants; a file in any other order is read as
        # it stands, in its own term order.
        is_sorted = all(map(operator.lt, terms, islice(terms, 1, None)))
        if not is_sorted and len(set(terms)) != count:
            raise ValueError("terms must be distinct")
        # Copied out of the file: aligned, so memoryview indexing works,
        # and holding none of the file's other bytes.
        df = np.frombuffer(payload, dtype=df_type, count=count, offset=term_bytes).copy()
        ctf = np.frombuffer(
            payload, dtype=ctf_type, count=count, offset=term_bytes + df_bytes
        ).copy()
        for column in (df, ctf):
            if column.dtype.itemsize == 8 and count and int(column.max()) > _LARGEST_COUNT:
                raise ValueError("df and ctf must be non-negative 63-bit counts")
            column.flags.writeable = False
        if count and (df > ctf).any():
            bad = int(np.argmax(df > ctf))
            raise ValueError(
                f"df ({int(df[bad])}) cannot exceed ctf ({int(ctf[bad])}) for {terms[bad]!r}"
            )
        if count and int(ctf.max()) > _LARGEST_COUNT // count:
            # uint64 addition wraps; a column that could reach 2**63 is
            # summed in Python integers instead.
            total_ctf = sum(ctf.tolist())
        else:
            total_ctf = int(ctf.sum())
        model = LanguageModel.over_columns(
            unquote(fields["name"]),
            terms,
            df,
            ctf,
            documents_seen=int(fields["documents_seen"]),
            tokens_seen=int(fields["tokens_seen"]),
            total_ctf=total_ctf,
            is_sorted=is_sorted,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as error:
        raise ValueError(f"{source}: malformed model file: {error}") from error
    return model


def unpack_language_model(
    data: bytes, default_name: str = "lm", source: str = "<bytes>"
) -> LanguageModel:
    """Parse a model from the bytes of a file of either format.

    A model file (:func:`pack_language_model`; any other ``/N`` after
    the header word is refused) is read column by column; anything else
    is decoded and handed to :func:`loads_language_model`,
    so files written in the text format — by ``repro sample -o``, or by
    a model store before the store kept columns — load as they always
    did.  Raises ``ValueError`` (and nothing else) for malformed input.
    """
    if data.startswith(_VERSIONED_PREFIX):
        return _unpack_columns(data, source)
    return loads_language_model(data.decode("utf-8"), default_name=default_name, source=source)


def load_language_model(path: str | Path) -> LanguageModel:
    """Read a language model from a file of either format.

    Files written by :func:`save_language_model` and the model files
    of a model store both load (``repro compare`` / ``summarize`` take
    either).
    """
    path = Path(path)
    return unpack_language_model(path.read_bytes(), default_name=path.stem, source=str(path))
