"""Tokenization and case folding.

The paper's databases are full-text IR systems; their index terms are
lower-cased words.  The tokenizer here is deliberately simple and
deterministic: maximal runs of ASCII letters and digits, lower-cased.
Indexing keeps every token, numbers included, so the *actual* language
model is faithful to the raw text.  The paper's rule for candidate
*query* terms (3+ characters, not a number; Section 4.4) lives in
:mod:`repro.sampling.selection`, stated in ``str`` methods that decide
what :data:`TOKEN_PATTERN` and :data:`NUMERIC_PATTERN` define.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator

#: A token: one maximal run of ASCII letters and digits.
TOKEN_PATTERN = re.compile(r"[A-Za-z0-9]+")
#: A number: digits only.  Always applied with ``fullmatch`` — ``$`` would
#: also accept a trailing newline.
NUMERIC_PATTERN = re.compile(r"[0-9]+")


def _byte_table() -> bytes:
    """A 256-entry translate table isolating ``[A-Za-z0-9]+`` runs.

    Every byte outside the ASCII alphanumerics maps to a space, so
    ``bytes.translate(table).split()`` yields exactly the token runs of
    :data:`TOKEN_PATTERN`; the table also folds ``A-Z`` to ``a-z`` in
    the same pass.
    """
    table = bytearray(b" " * 256)
    for code in range(128):
        char = chr(code)
        if char.isalnum():
            table[code] = ord(char.lower())
    return bytes(table)


_FOLD_TABLE = _byte_table()


def tokenize(text: str) -> list[str]:
    """Tokenize ``text`` into lower-cased word/number runs."""
    return Tokenizer().tokenize(text)


@dataclass(frozen=True)
class Tokenizer:
    """Tokenizer for ``[A-Za-z0-9]+`` runs, folded to lower case (every
    system in the paper case-folds)."""

    def iter_tokens(self, text: str) -> Iterator[str]:
        """Yield tokens of ``text`` one at a time.

        The regex statement of what a token is; :meth:`tokenize` and
        :meth:`token_bytes` are tested against it.
        """
        for match in TOKEN_PATTERN.finditer(text):
            yield match.group(0).lower()

    def tokenize(self, text: str) -> list[str]:
        """Return the list of tokens of ``text``.

        Produces exactly the tokens of :meth:`iter_tokens` — the regex
        reference it is tested against — without a regex and without a
        call per token: the ``encode`` / ``translate`` pass of
        :meth:`token_bytes` finds the runs and folds their case in one
        table lookup per byte, one ``decode`` and one ``split`` turn
        them into strings.  The hot path of document ingestion and
        query analysis.
        """
        return text.encode("ascii", "replace").translate(_FOLD_TABLE).decode("ascii").split()

    def raw_tokens(self, text: str) -> list[str]:
        """The token runs of ``text`` before case folding."""
        return TOKEN_PATTERN.findall(text)

    def token_bytes(self, text: str) -> list[bytes]:
        """The token runs of ``text`` as ASCII byte strings, case-folded.

        The bulk-ingestion counterpart of :meth:`raw_tokens`: one
        ``encode`` / ``translate`` / ``split`` pipeline, all C-level,
        instead of a regex scan.  Token boundaries are identical to
        :data:`TOKEN_PATTERN` — the translate table maps every
        non-alphanumeric byte to a space, and non-ASCII characters
        (token boundaries to the ASCII-only pattern) encode to ``"?"``,
        also a boundary.  Case folding happens in the same table, so
        ``token.decode("ascii")`` on each result equals the
        corresponding :meth:`raw_tokens` token, lower-cased.
        """
        return text.encode("ascii", "replace").translate(_FOLD_TABLE).split()

    @staticmethod
    def is_numeric(token: str) -> bool:
        """True if ``token`` consists solely of digits."""
        return bool(NUMERIC_PATTERN.fullmatch(token))

    @staticmethod
    def is_word(token: str) -> bool:
        """True if ``token`` is a single well-formed token (no spaces/punct)."""
        match = TOKEN_PATTERN.fullmatch(token)
        return match is not None
