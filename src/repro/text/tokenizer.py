"""Tokenization and case folding.

The paper's databases are full-text IR systems; their index terms are
lower-cased words.  The tokenizer here is deliberately simple and
deterministic: maximal runs of ASCII letters and digits, lower-cased,
with optional filters for minimum length and purely numeric tokens.

The same class serves two roles with different settings:

* indexing a database (keep everything, including numbers, so the
  *actual* language model is faithful to the raw text), and
* screening candidate *query* terms, where the paper requires terms of
  3+ characters that are not numbers (Section 4.4) — that rule lives in
  :mod:`repro.sampling.selection`, stated in ``str`` methods that
  decide what :data:`TOKEN_PATTERN` and :data:`NUMERIC_PATTERN` define.
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


def _byte_table(lowercase: bool) -> bytes:
    """A 256-entry translate table isolating ``[A-Za-z0-9]+`` runs.

    Every byte outside the ASCII alphanumerics maps to a space, so
    ``bytes.translate(table).split()`` yields exactly the token runs of
    :data:`TOKEN_PATTERN`; with ``lowercase`` the table also folds
    ``A-Z`` to ``a-z`` in the same pass.
    """
    table = bytearray(b" " * 256)
    for code in range(128):
        char = chr(code)
        if char.isalnum():
            table[code] = ord(char.lower()) if lowercase else code
    return bytes(table)


_FOLD_TABLE = _byte_table(lowercase=True)
_PLAIN_TABLE = _byte_table(lowercase=False)


def tokenize(text: str) -> list[str]:
    """Tokenize ``text`` with default settings (lowercase word/number runs)."""
    return Tokenizer().tokenize(text)


@dataclass(frozen=True)
class Tokenizer:
    """Configurable tokenizer for ``[A-Za-z0-9]+`` runs.

    Parameters
    ----------
    lowercase:
        Fold tokens to lower case (on by default; every system in the
        paper case-folds).
    min_length:
        Drop tokens shorter than this many characters.
    drop_numeric:
        Drop tokens consisting solely of digits.
    """

    lowercase: bool = True
    min_length: int = 1
    drop_numeric: bool = False

    def iter_tokens(self, text: str) -> Iterator[str]:
        """Yield tokens of ``text`` one at a time.

        The regex statement of what a token is; :meth:`tokenize` and
        :meth:`token_bytes` are tested against it.
        """
        for match in TOKEN_PATTERN.finditer(text):
            token = match.group(0)
            if self.lowercase:
                token = token.lower()
            if len(token) < self.min_length:
                continue
            if self.drop_numeric and NUMERIC_PATTERN.fullmatch(token):
                continue
            yield token

    def tokenize(self, text: str) -> list[str]:
        """Return the list of tokens of ``text``.

        Produces exactly the tokens of :meth:`iter_tokens` — the regex
        reference it is tested against — without a regex and without a
        call per token: the ``encode`` / ``translate`` pass of
        :meth:`token_bytes` finds the runs and folds their case in one
        table lookup per byte, one ``decode`` and one ``split`` turn
        them into strings, then the bulk filters apply.  The hot path
        of document ingestion and query analysis.
        """
        table = _FOLD_TABLE if self.lowercase else _PLAIN_TABLE
        tokens = text.encode("ascii", "replace").translate(table).decode("ascii").split()
        if self.min_length > 1:
            min_length = self.min_length
            tokens = [token for token in tokens if len(token) >= min_length]
        if self.drop_numeric:
            numeric = NUMERIC_PATTERN.fullmatch
            tokens = [token for token in tokens if not numeric(token)]
        return tokens

    def raw_tokens(self, text: str) -> list[str]:
        """The unnormalized token runs of ``text`` (no case folding or filters).

        Batch consumers (the index builder) pair this with
        :meth:`normalize` so each *distinct* raw token is normalized
        once instead of once per occurrence.
        """
        return TOKEN_PATTERN.findall(text)

    def token_bytes(self, text: str) -> list[bytes]:
        """The token runs of ``text`` as ASCII byte strings, case-folded.

        The bulk-ingestion counterpart of :meth:`raw_tokens`: one
        ``encode`` / ``translate`` / ``split`` pipeline, all C-level,
        instead of a regex scan.  Token boundaries are identical to
        :data:`TOKEN_PATTERN` — the translate table maps every
        non-alphanumeric byte to a space, and non-ASCII characters
        (token boundaries to the ASCII-only pattern) encode to ``"?"``,
        also a boundary.  Case folding (when ``lowercase`` is set)
        happens in the same table, so ``token.decode("ascii")`` on each
        result equals the corresponding :meth:`raw_tokens` token after
        the lowercase step of :meth:`normalize`.  Length and numeric
        filters still apply downstream via :meth:`normalize`.
        """
        table = _FOLD_TABLE if self.lowercase else _PLAIN_TABLE
        return text.encode("ascii", "replace").translate(table).split()

    def normalize(self, token: str) -> str | None:
        """Apply this tokenizer's per-token normalization and filters.

        Exactly the per-token step of :meth:`iter_tokens` for a token
        already produced by :meth:`raw_tokens`; ``None`` if the token is
        filtered out (too short, or numeric under ``drop_numeric``).
        """
        if self.lowercase:
            token = token.lower()
        if len(token) < self.min_length:
            return None
        if self.drop_numeric and NUMERIC_PATTERN.fullmatch(token):
            return None
        return token

    @staticmethod
    def is_numeric(token: str) -> bool:
        """True if ``token`` consists solely of digits."""
        return bool(NUMERIC_PATTERN.fullmatch(token))

    @staticmethod
    def is_word(token: str) -> bool:
        """True if ``token`` is a single well-formed token (no spaces/punct)."""
        match = TOKEN_PATTERN.fullmatch(token)
        return match is not None
