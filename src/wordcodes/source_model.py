"""Memoryless source model and basic word/profile arithmetic.

A source emits symbols 1..m independently with fixed probabilities.  Words are
tuples of symbol indices; the profile of a word counts how often each symbol
occurs, so all words sharing a profile have the same probability.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InputError

# A word is a tuple of 1-based symbol indices; a profile is a tuple of counts.
Word = tuple[int, ...]
Profile = tuple[int, ...]

PROB_SUM_TOL = 1e-12

# Glyphs used for default symbol labels and for output digits (arity <= 36).
DIGIT_GLYPHS = string.digits + string.ascii_uppercase
DEFAULT_LABELS = string.ascii_lowercase


def _parse_prob(text: str) -> tuple[float, str]:
    """Parse one probability given as a decimal string or a ratio like '2/5'."""
    s = text.strip()
    try:
        value = float(Fraction(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"cannot parse probability {text!r}") from exc
    return value, s


@dataclass(frozen=True)
class SourceModel:
    """An i.i.d. source over m symbols together with an output arity n.

    `probs` are stored as binary64 floats; the original spellings are kept in
    `prob_labels` so files written from this model round-trip byte for byte.
    `d[i]` is -log_n(p[i]), the output-digit cost of symbol i+1; it is the
    coefficient vector of the linear form used throughout the constructions.
    """

    probs: tuple[float, ...]
    arity: int
    labels: tuple[str, ...] = ()
    prob_labels: tuple[str, ...] = ()
    d: tuple[float, ...] = field(init=False, repr=False)
    _index: dict[str, int] = field(init=False, repr=False, compare=False)
    # probs padded at index 0, so that symbol i reads entry i
    _symbol_probs: tuple[float, ...] = field(
        init=False, repr=False, compare=False
    )
    # (separator, symbol -> label table, label -> symbol table), or None
    _byte_tables: tuple[str, bytes, bytes] | None = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.arity < 2:
            raise InputError(f"arity must be >= 2, got {self.arity}")
        if self.arity > len(DIGIT_GLYPHS):
            raise InputError(f"arity must be <= {len(DIGIT_GLYPHS)}, got {self.arity}")
        if len(self.probs) < 2:
            raise InputError("a source needs at least 2 symbols")
        for p in self.probs:
            if not (0.0 < p < 1.0):
                raise InputError(f"probabilities must lie in (0, 1), got {p}")
        if abs(math.fsum(self.probs) - 1.0) > PROB_SUM_TOL:
            raise InputError(f"probabilities sum to {math.fsum(self.probs)!r}, not 1")
        if not self.labels:
            if len(self.probs) > len(DEFAULT_LABELS):
                raise InputError("provide labels explicitly for more than 26 symbols")
            object.__setattr__(
                self, "labels", tuple(DEFAULT_LABELS[: len(self.probs)])
            )
        if len(self.labels) != len(self.probs):
            raise InputError("labels and probs must have the same length")
        if len(set(self.labels)) != len(self.labels):
            raise InputError("symbol labels must be distinct")
        if not self.prob_labels:
            object.__setattr__(
                self, "prob_labels", tuple(repr(p) for p in self.probs)
            )
        ln = math.log(self.arity)
        object.__setattr__(
            self, "d", tuple(-math.log(p) / ln for p in self.probs)
        )
        object.__setattr__(
            self, "_index", {s: i for i, s in enumerate(self.labels, 1)}
        )
        object.__setattr__(self, "_symbol_probs", (0.0, *self.probs))
        object.__setattr__(self, "_byte_tables", _label_tables(self.labels))

    @property
    def m(self) -> int:
        return len(self.probs)

    def index_of(self, label: str) -> int:
        try:
            return self._index[label]
        except (KeyError, TypeError):
            raise InputError(f"unknown symbol {label!r}") from None

    def word_from_text(self, text: str) -> Word:
        try:
            return tuple(map(self._index.__getitem__, text))
        except (KeyError, TypeError):
            # the per-symbol path raises InputError naming the bad symbol
            return tuple(map(self.index_of, text))

    def words_from_texts(self, texts: list[str]) -> list[Word]:
        """`word_from_text` of each text, in C-level passes.

        With single-character ASCII labels, all texts are read in one
        `bytes.translate` over their join (see `texts_from_words`): any
        character that is no label becomes the separator, so a bad text
        splits into too many words and sends every text to
        `word_from_text` instead, as other labels are.
        """
        tables = self._byte_tables
        if tables is not None:
            sep, _, to_symbols = tables
            try:
                joined = sep.join(texts).encode("ascii")
            except (TypeError, UnicodeEncodeError):
                pass
            else:
                words = joined.translate(to_symbols).split(b"\0")
                if len(words) == len(texts):
                    return list(map(tuple, words))
        return list(map(self.word_from_text, texts))

    def word_to_text(self, word: Word) -> str:
        """The labels of the word's symbols, joined.  A symbol that is not
        an integer in 1..m raises InputError naming it, as `index_of` does
        for a label."""
        labels = self.labels
        for symbol in word:
            if not (isinstance(symbol, int) and 1 <= symbol <= len(labels)):
                raise InputError(
                    f"symbol {symbol!r} outside 1..{len(labels)}"
                )
        return "".join(labels[i - 1] for i in word)

    def texts_from_words(self, words: Sequence[Word]) -> list[str] | None:
        """The text of each word in one `bytes.translate` over their join.

        Needs labels of one ASCII character each and one ASCII character
        left over as the separator.  Symbols are joined as bytes around
        byte 0, and every byte that is no symbol 1..m becomes the
        separator.  Returns None where this does not apply: other labels,
        no words, or a word that is not a sequence of symbols 1..m (it is
        no bytes, or it splits into more than one text).
        """
        tables = self._byte_tables
        if tables is None:
            return None
        sep, to_labels, _ = tables
        try:
            joined = b"\0".join(map(bytes, words))
        except (TypeError, ValueError):
            return None
        texts = joined.translate(to_labels).decode("ascii").split(sep)
        return texts if len(texts) == len(words) else None


def _label_tables(labels: tuple[str, ...]) -> tuple[str, bytes, bytes] | None:
    """Translation tables between symbols and single-character ASCII labels.

    Returns (separator, symbol -> label, label -> symbol), or None unless
    every label is one ASCII character and one ASCII character is left for
    the separator.  Symbol byte 0 and every byte above m map to the
    separator, and the separator and every non-label byte map to 0.
    """
    if not all(len(s) == 1 and s < "\x80" for s in labels):
        return None
    spare = [c for c in map(chr, range(128)) if c not in labels]
    if not spare:
        return None
    sep = spare[0]
    to_labels = bytearray(ord(sep) for _ in range(256))
    to_symbols = bytearray(256)
    for i, label in enumerate(labels, 1):
        to_labels[i] = ord(label)
        to_symbols[ord(label)] = i
    return sep, bytes(to_labels), bytes(to_symbols)


def make_model(probs, arity: int, labels=None) -> SourceModel:
    """Build a SourceModel from floats, Fractions, or decimal/ratio strings."""
    values: list[float] = []
    spellings: list[str] = []
    for p in probs:
        if isinstance(p, str):
            v, s = _parse_prob(p)
        elif isinstance(p, Fraction):
            v, s = float(p), str(p)
        else:
            v, s = float(p), repr(float(p))
        values.append(v)
        spellings.append(s)
    return SourceModel(
        probs=tuple(values),
        arity=arity,
        labels=tuple(labels) if labels else (),
        prob_labels=tuple(spellings),
    )


def entropy(model: SourceModel) -> float:
    """Source entropy in bits per symbol."""
    return -math.fsum(p * math.log2(p) for p in model.probs)


def word_probability(model: SourceModel, word: Word) -> float:
    """Probability of a word under the i.i.d. source; the empty word has p=1.

    Symbols must lie in 1..m.
    """
    return word_probabilities(model, (word,))[0]


def word_probabilities(
    model: SourceModel, words: Iterable[Word]
) -> list[float]:
    """`word_probability` of each word: its symbols' probabilities
    multiplied left to right from 1.0."""
    probs = model._symbol_probs
    out = []
    append = out.append
    for word in words:
        p = 1.0
        for i in word:
            p *= probs[i]
        append(p)
    return out


def profile_of(word: Word, m: int) -> Profile:
    """Count occurrences of each symbol 1..m in `word`."""
    counts = [0] * m
    for i in word:
        if not 1 <= i <= m:
            raise InputError(f"symbol index {i} out of range 1..{m}")
        counts[i - 1] += 1
    return tuple(counts)


def profile_probability(model: SourceModel, profile: Profile) -> float:
    """Probability of any single word having the given profile."""
    p = 1.0
    for count, pi in zip(profile, model.probs):
        p *= pi**count
    return p


def linear_form(model: SourceModel, profile: Profile) -> float:
    """Sum of profile counts weighted by d[i] = -log_n p_i.

    Equals -log_n of the probability of any word with this profile, so the
    fractional part of this value decides threshold-set membership.
    """
    if len(profile) != model.m:
        raise InputError(
            f"profile has {len(profile)} coordinates, model has {model.m} symbols"
        )
    return math.fsum(k * di for k, di in zip(profile, model.d))
