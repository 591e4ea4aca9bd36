"""Code books: finished word-to-codeword maps with validation."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Iterator, Mapping

from .errors import ValidationError
from .source_model import DIGIT_GLYPHS, SourceModel, Word, word_probability

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
    """Render `value` as a fixed-width base-`arity` digit string."""
    if value < 0 or value >= arity**width:
        raise ValidationError(
            f"value {value} does not fit in {width} base-{arity} digits"
        )
    if arity == 2 and width:
        return format(value, f"0{width}b")
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


@dataclass(frozen=True)
class CodeEntry:
    word: Word
    codeword: str
    probability: float

    @property
    def length(self) -> int:
        return len(self.codeword)


@dataclass(frozen=True)
class CodeBook:
    """A prefix-free, complete map from source words to output digit strings.

    `kind` is "vv" (variable word, variable codeword), "vf" (variable word,
    fixed codeword length), or "block" (fixed word, fixed codeword).
    `provenance` records how the book was constructed; everything in it must
    be JSON-serializable and deterministic.
    """

    model: SourceModel
    kind: str
    entries: tuple[CodeEntry, ...]
    provenance: dict = field(default_factory=dict, hash=False)

    def kraft_exact(self) -> Fraction:
        """Kraft sum of the codeword lengths, in exact rational arithmetic."""
        return kraft_of_counts(
            Counter(len(e.codeword) for e in self.entries), self.model.arity
        )

    def max_word_length(self) -> int:
        return max(len(e.word) for e in self.entries)

    def words(self) -> list[Word]:
        return [e.word for e in self.entries]


def _assert_prefix_free(items: list, what: str) -> None:
    # In sorted order every item that starts with `a` directly follows `a`
    # (anything sorting between `a` and an extension of `a` starts with
    # `a` too), so comparing neighbours finds every duplicate and extension.
    ordered = sorted(items)
    for a, b in zip(ordered, ordered[1:]):
        if b[: len(a)] == a:
            if len(b) == len(a):
                raise ValidationError(f"duplicate {what} {a!r}")
            raise ValidationError(f"{what} {b!r} extends shorter {what} {a!r}")


def validate_codebook(book: CodeBook, tol: float = COMPLETENESS_TOL) -> None:
    """Check the structural contract every emitted book must satisfy.

    Input words prefix-free and complete, codewords prefix-free and drawn
    from the digit alphabet, stored probabilities consistent with the model,
    and Kraft sum at most 1 in exact arithmetic.
    """
    if book.kind not in ("vv", "vf", "block"):
        raise ValidationError(f"unknown book kind {book.kind!r}")
    if not book.entries:
        raise ValidationError("a code book needs at least one entry")
    n = book.model.arity
    glyphs = set(DIGIT_GLYPHS[:n])
    for e in book.entries:
        if not e.word:
            raise ValidationError("the empty word cannot be a code word")
        if not e.codeword:
            raise ValidationError(f"word {e.word!r} has an empty codeword")
        if not set(e.codeword) <= glyphs:
            raise ValidationError(
                f"codeword {e.codeword!r} uses digits outside base {n}"
            )
        expect = word_probability(book.model, e.word)
        if abs(expect - e.probability) > PROB_CONSISTENCY_TOL:
            raise ValidationError(
                f"stored probability {e.probability!r} for word {e.word!r} "
                f"disagrees with the model ({expect!r})"
            )
    _assert_prefix_free([e.word for e in book.entries], "input word")
    _assert_prefix_free([e.codeword for e in book.entries], "codeword")
    total = math.fsum(e.probability for e in book.entries)
    if abs(total - 1.0) > tol:
        raise ValidationError(
            f"word probabilities sum to {total!r}; the set is not complete"
        )
    if book.kind in ("vf", "block"):
        lengths = {len(e.codeword) for e in book.entries}
        if len(lengths) != 1:
            raise ValidationError(
                f"{book.kind} books need uniform codeword length, got {lengths}"
            )
    if book.kind == "block":
        word_lengths = {len(e.word) for e in book.entries}
        if len(word_lengths) != 1:
            raise ValidationError(
                f"block books need uniform word length, got {word_lengths}"
            )
    if book.kraft_exact() > 1:
        raise ValidationError(
            f"Kraft sum {book.kraft_exact()} exceeds 1; not decodable"
        )
