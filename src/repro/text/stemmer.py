"""The Porter stemming algorithm.

A faithful implementation of M. F. Porter's 1980 suffix-stripping
algorithm ("An algorithm for suffix stripping", *Program* 14(3)).  The
paper's databases index stemmed terms, and the evaluation protocol stems
the learned vocabulary before comparing it to the actual one (Section
4.1), so the stemmer is load-bearing for every metric in the repo.

The implementation follows the original paper's five steps.  Notation:
a *consonant* (c) is a letter other than a, e, i, o, u, and other than y
preceded by a consonant; anything else is a *vowel* (v).  Every word has
the form ``[C](VC){m}[V]`` where ``m`` is the word's *measure*.
"""

from __future__ import annotations

from functools import lru_cache

_VOWELS = frozenset("aeiou")


class PorterStemmer:
    """Stateless Porter stemmer; use :meth:`stem` or the module function."""

    def stem(self, word: str) -> str:
        """Return the Porter stem of ``word`` (lower-cased first)."""
        word = word.lower()
        if len(word) <= 2:
            return word
        word = self._step1a(word)
        word = self._step1b(word)
        word = self._step1c(word)
        word = self._step2(word)
        word = self._step3(word)
        word = self._step4(word)
        word = self._step5a(word)
        word = self._step5b(word)
        return word

    # -- character classification ------------------------------------------

    @staticmethod
    def _is_consonant(word: str, i: int) -> bool:
        ch = word[i]
        if ch in _VOWELS:
            return False
        if ch == "y":
            return i == 0 or not PorterStemmer._is_consonant(word, i - 1)
        return True

    @classmethod
    def _measure(cls, stem: str) -> int:
        """The m in [C](VC){m}[V]: the number of VC sequences."""
        m = 0
        previous_was_vowel = False
        for i in range(len(stem)):
            is_cons = cls._is_consonant(stem, i)
            if is_cons and previous_was_vowel:
                m += 1
            previous_was_vowel = not is_cons
        return m

    @classmethod
    def _contains_vowel(cls, stem: str) -> bool:
        return any(not cls._is_consonant(stem, i) for i in range(len(stem)))

    @classmethod
    def _ends_double_consonant(cls, word: str) -> bool:
        return (
            len(word) >= 2
            and word[-1] == word[-2]
            and cls._is_consonant(word, len(word) - 1)
        )

    @classmethod
    def _ends_cvc(cls, word: str) -> bool:
        """consonant-vowel-consonant ending where the final consonant
        is not w, x, or y — the *o* condition of the original paper."""
        if len(word) < 3:
            return False
        return (
            cls._is_consonant(word, len(word) - 3)
            and not cls._is_consonant(word, len(word) - 2)
            and cls._is_consonant(word, len(word) - 1)
            and word[-1] not in "wxy"
        )

    # -- steps --------------------------------------------------------------

    def _step1a(self, word: str) -> str:
        if word.endswith("sses"):
            return word[:-2]
        if word.endswith("ies"):
            return word[:-2]
        if word.endswith("ss"):
            return word
        if word.endswith("s"):
            return word[:-1]
        return word

    def _step1b(self, word: str) -> str:
        if word.endswith("eed"):
            stem = word[:-3]
            if self._measure(stem) > 0:
                return word[:-1]
            return word
        flag = False
        if word.endswith("ed") and self._contains_vowel(word[:-2]):
            word = word[:-2]
            flag = True
        elif word.endswith("ing") and self._contains_vowel(word[:-3]):
            word = word[:-3]
            flag = True
        if flag:
            if word.endswith(("at", "bl", "iz")):
                return word + "e"
            if self._ends_double_consonant(word) and word[-1] not in "lsz":
                return word[:-1]
            if self._measure(word) == 1 and self._ends_cvc(word):
                return word + "e"
        return word

    def _step1c(self, word: str) -> str:
        if word.endswith("y") and self._contains_vowel(word[:-1]):
            return word[:-1] + "i"
        return word

    _STEP2_RULES = (
        ("ational", "ate"),
        ("tional", "tion"),
        ("enci", "ence"),
        ("anci", "ance"),
        ("izer", "ize"),
        ("abli", "able"),
        ("alli", "al"),
        ("entli", "ent"),
        ("eli", "e"),
        ("ousli", "ous"),
        ("ization", "ize"),
        ("ation", "ate"),
        ("ator", "ate"),
        ("alism", "al"),
        ("iveness", "ive"),
        ("fulness", "ful"),
        ("ousness", "ous"),
        ("aliti", "al"),
        ("iviti", "ive"),
        ("biliti", "ble"),
    )

    def _step2(self, word: str) -> str:
        for suffix, replacement in self._STEP2_RULES:
            if word.endswith(suffix):
                stem = word[: len(word) - len(suffix)]
                if self._measure(stem) > 0:
                    return stem + replacement
                return word
        return word

    _STEP3_RULES = (
        ("icate", "ic"),
        ("ative", ""),
        ("alize", "al"),
        ("iciti", "ic"),
        ("ical", "ic"),
        ("ful", ""),
        ("ness", ""),
    )

    def _step3(self, word: str) -> str:
        for suffix, replacement in self._STEP3_RULES:
            if word.endswith(suffix):
                stem = word[: len(word) - len(suffix)]
                if self._measure(stem) > 0:
                    return stem + replacement
                return word
        return word

    _STEP4_SUFFIXES = (
        "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
        "ment", "ent", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
    )

    def _step4(self, word: str) -> str:
        if word.endswith("ion"):
            stem = word[:-3]
            if stem.endswith(("s", "t")) and self._measure(stem) > 1:
                return stem
            # fall through to plain suffixes only if "ion" itself is not
            # matched by a longer suffix below ("ation" handled in step 2)
        for suffix in self._STEP4_SUFFIXES:
            if word.endswith(suffix):
                stem = word[: len(word) - len(suffix)]
                if self._measure(stem) > 1:
                    return stem
                return word
        return word

    def _step5a(self, word: str) -> str:
        if word.endswith("e"):
            stem = word[:-1]
            m = self._measure(stem)
            if m > 1:
                return stem
            if m == 1 and not self._ends_cvc(stem):
                return stem
        return word

    def _step5b(self, word: str) -> str:
        if word.endswith("ll") and self._measure(word) > 1:
            return word[:-1]
        return word


_DEFAULT = PorterStemmer()


# The largest build in the repo (the testbed's trec123 at scale 1) stems
# 68,243 distinct tokens; 2**17 holds them, ~7.5 MB at ~57 B an entry.
@lru_cache(maxsize=131_072)
def stem(word: str) -> str:
    """Stem ``word`` with a shared default :class:`PorterStemmer`.

    Memoized: corpora contain each distinct word many times, and the
    stemmer is by far the hottest function during indexing.
    """
    return _DEFAULT.stem(word)
