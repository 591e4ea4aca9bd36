"""Code books: finished word-to-codeword maps with validation."""

from __future__ import annotations

import math
from array import array
from collections import Counter, deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, islice, product, repeat
from operator import eq, getitem, gt, sub
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import ValidationError
from .source_model import (
    DIGIT_GLYPHS,
    SourceModel,
    Word,
    word_probabilities,
    word_probability,
)

COMPLETENESS_TOL = 1e-9
PROB_CONSISTENCY_TOL = 1e-9


def kraft_of_counts(counts: Mapping[int, int], arity: int) -> Fraction:
    """Exact Kraft sum of a {codeword length: number of codewords} table.

    One big-integer numerator over arity^(longest length), so the cost is
    one `Fraction` however many codewords share each length.
    """
    top = max(counts, default=0)
    return Fraction(
        sum(c * arity ** (top - length) for length, c in counts.items()),
        arity**top,
    )


def format_digits(value: int, arity: int, width: int) -> str:
    """Render `value` as a fixed-width base-`arity` digit string: the
    range-checked form of `digit_run` for one value."""
    if value < 0 or value >= arity**width:
        raise ValidationError(
            f"value {value} does not fit in {width} base-{arity} digits"
        )
    return digit_run(value, value + 1, arity, width)[0]


def digit_run(start: int, stop: int, arity: int, width: int) -> list[str]:
    """The fixed-width base-`arity` digit strings of every value in
    range(start, stop), unchecked.

    The caller has made sure that 0 <= start and stop <= arity**width, as
    `canonical_codewords` does once per run of equal lengths.
    """
    if arity == 2 and width:
        return list(map(format, range(start, stop), repeat(f"0{width}b")))
    return [_base_digits(v, arity, width) for v in range(start, stop)]


def _base_digits(value: int, arity: int, width: int) -> str:
    digits = []
    for _ in range(width):
        value, r = divmod(value, arity)
        digits.append(DIGIT_GLYPHS[r])
    return "".join(reversed(digits))


def fixed_codewords(arity: int, width: int) -> Iterator[str]:
    """All width-digit strings in increasing order, built lazily.

    The i-th string is `format_digits(i, arity, width)`; zipped with k
    entries, only the first k strings are built.
    """
    return map("".join, product(DIGIT_GLYPHS[:arity], repeat=width))


@dataclass(frozen=True, slots=True)
class CodeEntry:
    word: Word
    codeword: str
    probability: float

    @property
    def length(self) -> int:
        return len(self.codeword)


def code_entries(
    words: Sequence[Word],
    codewords: Iterable[str],
    probabilities: Iterable[float],
) -> tuple[CodeEntry, ...]:
    """`tuple(map(CodeEntry, words, codewords, probabilities))`, built in
    C-level passes: the entries are allocated, then each field is stored
    through its slot, so no `__init__` runs per entry (it would store the
    same three fields).  `codewords` and `probabilities` may run longer
    than `words`; their extra items are not read.
    """
    entries = tuple(map(object.__new__, repeat(CodeEntry, len(words))))
    for name, values in (
        ("word", words),
        ("codeword", codewords),
        ("probability", probabilities),
    ):
        deque(map(getattr(CodeEntry, name).__set__, entries, values), 0)
    return entries


@dataclass(frozen=True)
class CodeBook:
    """A prefix-free, complete map from source words to output digit strings.

    `kind` is "vv" (variable word, variable codeword), "vf" (variable word,
    fixed codeword length), or "block" (fixed word, fixed codeword).
    The map is held as three parallel columns, stored as tuples: row i
    maps `words[i]` to `codewords[i]`, and `probabilities[i]` is that
    word's probability.  `provenance` records how the book was
    constructed; everything in it must be JSON-serializable and
    deterministic.
    """

    model: SourceModel
    kind: str
    words: tuple[Word, ...]
    codewords: tuple[str, ...]
    probabilities: tuple[float, ...]
    provenance: dict = field(default_factory=dict, hash=False)

    def __post_init__(self) -> None:
        # a column may be given as any iterable; a tuple is kept as it is
        for name in ("words", "codewords", "probabilities"):
            object.__setattr__(self, name, tuple(getattr(self, name)))

    @property
    def entries(self) -> tuple[CodeEntry, ...]:
        """The rows as `CodeEntry`s, built from the columns on each read."""
        return tuple(
            map(CodeEntry, self.words, self.codewords, self.probabilities)
        )

    def kraft_exact(self) -> Fraction:
        """Kraft sum of the codeword lengths, in exact rational arithmetic."""
        return kraft_of_counts(
            Counter(map(len, self.codewords)), self.model.arity
        )


def _assert_prefix_free(items: Sequence, what: str) -> None:
    """Raise ValidationError for the first duplicate, or item that starts
    with another, among `items` (words or codewords), naming both; the
    library's one prefix test.  The empty word starts every word."""
    # In sorted order every item that starts with `a` directly follows `a`
    # (anything sorting between `a` and an extension of `a` starts with
    # `a` too), so comparing neighbours finds every duplicate and extension.
    ordered = sorted(items)
    # b[:len(a)] of each neighbour pair (a, b), compared with a
    heads = map(
        getitem, islice(ordered, 1, None), map(slice, map(len, ordered))
    )
    if not any(map(eq, heads, ordered)):
        return
    for a, b in zip(ordered, ordered[1:]):
        if b[: len(a)] == a:
            if len(b) == len(a):
                raise ValidationError(f"duplicate {what} {a!r}")
            raise ValidationError(f"{what} {b!r} extends shorter {what} {a!r}")


def _symbols_in_range(
    words: Iterable[Word], m: int, keys: list[bytes] | None = None
) -> bool:
    """Whether every symbol of every word is an integer in 1..m.

    `keys`, the words as `_word_keys` gives them, are read instead of the
    words where there are some.
    """
    symbols = chain.from_iterable(words)
    try:
        if m < 256:
            joined = bytes(symbols) if keys is None else b"".join(keys)
            return not joined.translate(None, bytes(range(1, m + 1)))
        codes = array("q", symbols)
    except (TypeError, ValueError, OverflowError):
        return False
    return not codes or (min(codes) >= 1 and max(codes) <= m)


def _word_keys(words: Sequence, m: int) -> list[bytes] | None:
    """Each word as one `bytes`, sorted, or None where that cannot stand
    in for the words.

    A key is the word's symbols as bytes, for m < 256 and words that are
    tuples of integers in 0..255.  Those keys are equal, and sort, exactly
    as the tuples do, so the range and prefix passes of `_validate` can
    read them in place of the words.
    """
    if m >= 256 or not all(map(isinstance, words, repeat(tuple))):
        return None
    try:
        return sorted(map(bytes, words))
    except (TypeError, ValueError):
        return None


def _has_prefix_pair(ordered: list) -> bool:
    """Whether some item of a sorted list of `bytes`, or of `str`, starts
    with another (or equals it).  The neighbour test of
    `_assert_prefix_free`, made with `startswith` rather than with a slice
    per neighbour."""
    starts = type(ordered[0]).startswith
    return any(map(starts, islice(ordered, 1, None), ordered))


def validate_codebook(book: CodeBook) -> None:
    """Check the structural contract every emitted book must satisfy.

    Input words nonempty, over the symbols 1..m, prefix-free and complete;
    codewords nonempty, prefix-free and drawn from the digit alphabet;
    probabilities within COMPLETENESS_TOL of summing to 1; stored
    probabilities consistent with the model; and Kraft sum at most 1 in
    exact arithmetic.  Fresh VF and VV books store the probabilities
    their enumerator carried, so the model check here is the one check of
    those products that does not come from the walk.
    """
    _validate(book, against_model=True)


def _validate(book: CodeBook, against_model: bool) -> None:
    """The checks of `validate_codebook`.

    against_model=False skips comparing each stored probability with the
    model, for the book loader, which has just computed each one from it.

    For m < 256 each word becomes one `bytes` key (`_word_keys`), read by
    the symbol-range pass and by a prefix pass over the sorted keys;
    codewords take the same prefix pass as strings.  Where a pass finds a
    fault, or a word has no key, the one-entry-at-a-time and tuple-slice
    checks run and raise the message naming the fault.
    """
    if book.kind not in ("vv", "vf", "block"):
        raise ValidationError(f"unknown book kind {book.kind!r}")
    words, codewords = book.words, book.codewords
    if not words:
        raise ValidationError("a code book needs at least one entry")
    if not len(words) == len(codewords) == len(book.probabilities):
        raise ValidationError(
            f"a code book's columns differ in length: {len(words)} words, "
            f"{len(codewords)} codewords, "
            f"{len(book.probabilities)} probabilities"
        )
    keys = _word_keys(words, book.model.m)
    passed = _entries_pass(book, words, keys, codewords, against_model)
    if not passed:
        _check_each_entry(book, against_model)
    if keys is None or _has_prefix_pair(keys):
        _assert_prefix_free(words, "input word")
    # the codewords are all strings once the entry passes have read them
    if not passed or _has_prefix_pair(sorted(codewords)):
        _assert_prefix_free(codewords, "codeword")
    total = math.fsum(book.probabilities)
    if abs(total - 1.0) > COMPLETENESS_TOL:
        raise ValidationError(
            f"word probabilities sum to {total!r}; the set is not complete"
        )
    if book.kind in ("vf", "block"):
        lengths = set(map(len, codewords))
        if len(lengths) != 1:
            raise ValidationError(
                f"{book.kind} books need uniform codeword length, got {lengths}"
            )
    if book.kind == "block":
        word_lengths = set(map(len, words))
        if len(word_lengths) != 1:
            raise ValidationError(
                f"block books need uniform word length, got {word_lengths}"
            )
    if book.kraft_exact() > 1:
        raise ValidationError(
            f"Kraft sum {book.kraft_exact()} exceeds 1; not decodable"
        )


def _entries_pass(
    book: CodeBook,
    words: Sequence[Word],
    keys: list[bytes] | None,
    codewords: Sequence[str],
    against_model: bool,
) -> bool:
    """The per-entry checks of `_validate`, each a C-level pass over all
    rows: no empty word or codeword, symbols in 1..m, digits in base n,
    and (against_model) every stored probability within
    PROB_CONSISTENCY_TOL of the model's.  False means some entry fails
    one, or a field has a type the passes cannot read."""
    model = book.model
    try:
        ok = (
            all(words)
            and all(codewords)
            and _symbols_in_range(words, model.m, keys)
            and not "".join(codewords)
            .encode("ascii", "replace")
            .translate(None, DIGIT_GLYPHS[: model.arity].encode("ascii"))
        )
        if ok and against_model:
            drift = map(
                abs,
                map(sub, word_probabilities(model, words), book.probabilities),
            )
            ok = not any(map(gt, drift, repeat(PROB_CONSISTENCY_TOL)))
    except TypeError:
        return False
    return ok


def _check_each_entry(book: CodeBook, against_model: bool) -> None:
    """The per-entry checks of `_validate`, one row at a time, raising
    for the first row that fails one."""
    m, n = book.model.m, book.model.arity
    glyphs = set(DIGIT_GLYPHS[:n])
    for word, codeword, probability in zip(
        book.words, book.codewords, book.probabilities
    ):
        if not word:
            raise ValidationError("the empty word cannot be a code word")
        if not _symbols_in_range((word,), m):
            raise ValidationError(f"word {word!r} uses symbols outside 1..{m}")
        if not codeword:
            raise ValidationError(f"word {word!r} has an empty codeword")
        if not set(codeword) <= glyphs:
            raise ValidationError(
                f"codeword {codeword!r} uses digits outside base {n}"
            )
        if not against_model:
            continue
        expect = word_probability(book.model, word)
        if abs(expect - probability) > PROB_CONSISTENCY_TOL:
            raise ValidationError(
                f"stored probability {probability!r} for word {word!r} "
                f"disagrees with the model ({expect!r})"
            )
