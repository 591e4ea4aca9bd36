"""The book layer against plain per-entry references.

Exact Kraft sums, the prefix check, the book file writer and the book
metrics each have a direct per-entry definition, kept here as the
reference: one `Fraction` per codeword, every prefix of every item looked
up in a set, `json.dumps` of the whole payload, and one linear form per
entry.  The library must agree with them exactly, byte for byte where it
writes text.
"""

from __future__ import annotations

import json
import random
from itertools import islice
from fractions import Fraction

import pytest

from wordcodes.analysis import code_metrics, metrics_from_classes
from wordcodes.codebook import (
    CodeBook,
    CodeEntry,
    _assert_prefix_free,
    fixed_codewords,
    format_digits,
    validate_codebook,
)
from wordcodes.errors import ValidationError
from wordcodes.serialization import book_from_json, book_to_json
from wordcodes.source_model import (
    DIGIT_GLYPHS,
    linear_form,
    make_model,
    profile_of,
    word_probability,
)
from wordcodes.vf_construct import construct_block, construct_vf
from wordcodes.vv_construct import canonical_codewords, kraft_sum

# -- references ------------------------------------------------------------


def reference_kraft(lengths, arity: int) -> Fraction:
    return sum(
        (Fraction(1, arity**length) for length in lengths), start=Fraction(0)
    )


def reference_prefix_free(items: list) -> bool:
    seen = set(items)
    if len(seen) != len(items):
        return False
    return not any(
        it[:cut] in seen for it in items for cut in range(1, len(it))
    )


def reference_book_json(book: CodeBook) -> str:
    model = book.model
    payload = {
        "format": "wordcodes-book/1",
        "alphabet": list(model.labels),
        "arity": model.arity,
        "kind": book.kind,
        "probs": list(model.prob_labels),
        "provenance": book.provenance,
        "words": [
            {"symbols": model.word_to_text(e.word), "codeword": e.codeword}
            for e in book.entries
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def reference_digits(value: int, arity: int, width: int) -> str:
    digits = []
    for _ in range(width):
        value, r = divmod(value, arity)
        digits.append(DIGIT_GLYPHS[r])
    return "".join(reversed(digits))


def reference_metrics(book: CodeBook):
    model = book.model
    rows = [
        (
            e.probability,
            len(e.word),
            len(e.codeword),
            linear_form(model, profile_of(e.word, model.m)),
        )
        for e in book.entries
    ]
    kraft = reference_kraft([len(e.codeword) for e in book.entries], model.arity)
    return metrics_from_classes(model, rows, kraft, word_count=len(rows))


def _prefix_free(items: list) -> bool:
    try:
        _assert_prefix_free(items, "item")
    except ValidationError:
        return False
    return True


# -- books -----------------------------------------------------------------


def _books(make_random_book):
    rng = random.Random(20070)
    books = [
        make_random_book(rng, lengths)
        for lengths in ("rounded", "stretched")
        for _ in range(12)
    ]
    binary = make_model(["0.4", "0.6"], 2)
    ternary_source = make_model(["0.2", "0.3", "0.5"], 2)
    ternary_output = make_model(["0.4", "0.6"], 3)
    books += [construct_vf(binary, L).book for L in (1, 3, 6, 9)]
    books += [construct_vf(ternary_source, L).book for L in (2, 5, 7)]
    books += [construct_vf(ternary_output, L).book for L in (1, 2, 4, 6)]
    books += [
        construct_block(3, 2, 5, 8).book,
        construct_block(2, 3, 5, 4).book,
        construct_block(5, 3, 2, 3).book,
    ]
    # non-ASCII and JSON-escaped single-character labels
    labelled = make_model(["1/3", "2/3"], 2, labels=["é", '"'])
    books.append(construct_vf(labelled, 5).book)
    escaped = make_model(["0.5", "0.5"], 3, labels=["ж", "\\"])
    books.append(construct_vf(escaped, 4).book)
    # an empty provenance
    books.append(
        CodeBook(
            model=binary,
            kind="vv",
            entries=(
                CodeEntry(word=(1,), codeword="0", probability=0.4),
                CodeEntry(word=(2,), codeword="1", probability=0.6),
            ),
            provenance={},
        )
    )
    return books


def test_book_layer_matches_per_entry_references(make_random_book):
    books = _books(make_random_book)
    assert {b.model.arity for b in books} == {2, 3}
    assert {b.kind for b in books} == {"vv", "vf", "block"}
    for book in books:
        n = book.model.arity
        lengths = [len(e.codeword) for e in book.entries]
        assert book.kraft_exact() == reference_kraft(lengths, n)
        assert kraft_sum(lengths, n) == reference_kraft(lengths, n)
        for items in (
            [e.word for e in book.entries],
            [e.codeword for e in book.entries],
        ):
            assert _prefix_free(items) == reference_prefix_free(items)
        text = book_to_json(book)
        assert text == reference_book_json(book)
        assert book_to_json(book_from_json(text)) == text
        assert code_metrics(book) == reference_metrics(book)


def test_book_writer_matches_json_dumps_without_entries(binary_model):
    for provenance in ({}, {"mode": "x", "cap_history": [[4, 0.5]]}):
        book = CodeBook(
            model=binary_model, kind="vv", entries=(), provenance=provenance
        )
        assert book_to_json(book) == reference_book_json(book)


def test_kraft_sum_matches_per_entry_fractions():
    rng = random.Random(5)
    assert kraft_sum([], 2) == 0
    for _ in range(300):
        arity = rng.randint(2, 7)
        lengths = [rng.randint(0, 30) for _ in range(rng.randint(1, 40))]
        assert kraft_sum(lengths, arity) == reference_kraft(lengths, arity)


def test_prefix_check_matches_slice_reference_on_random_lists():
    rng = random.Random(11)
    for _ in range(2000):
        items = [
            "".join(rng.choice("01") for _ in range(rng.randint(1, 4)))
            for _ in range(rng.randint(1, 6))
        ]
        assert _prefix_free(items) == reference_prefix_free(items)
        words = [tuple(map(int, it)) for it in items]
        assert _prefix_free(words) == reference_prefix_free(words)


def test_digit_strings_match_the_divmod_reference():
    for arity in range(2, len(DIGIT_GLYPHS) + 1):
        for width in (1, 2, 3):
            values = range(min(arity**width, 200))
            expect = [reference_digits(v, arity, width) for v in values]
            assert [format_digits(v, arity, width) for v in values] == expect
            codewords = islice(fixed_codewords(arity, width), len(values))
            assert list(codewords) == expect
    assert format_digits(0, 2, 0) == ""
    assert list(islice(fixed_codewords(2, 16), 5)) == [
        reference_digits(v, 2, 16) for v in range(5)
    ]
    assert canonical_codewords([1, 2, 3, 3], 2) == ["0", "10", "110", "111"]
    with pytest.raises(ValidationError):
        format_digits(8, 2, 3)
    assert len(list(fixed_codewords(3, 4))) == 3**4


# -- violations ------------------------------------------------------------

WORD_CLASH = r"duplicate input word|input word .* extends shorter input word"
CODEWORD_CLASH = r"duplicate codeword|codeword .* extends shorter codeword"


def _with_entry(book: CodeBook, index: int, entry: CodeEntry) -> CodeBook:
    entries = list(book.entries)
    entries[index] = entry
    return CodeBook(
        model=book.model, kind=book.kind, entries=tuple(entries),
        provenance={},
    )


def _clashes(book: CodeBook, key) -> list[tuple[int, CodeEntry]]:
    """(index to overwrite, entry to clash with) pairs.

    The overwritten entry sits first, in the middle and last in entry
    order; it clashes with its neighbour in entry order and with the
    entries whose `key` sorts first and last.
    """
    entries = book.entries
    last = len(entries) - 1
    ends = [min(entries, key=key), max(entries, key=key)]
    out = []
    for at in (0, last // 2, last):
        for other in [entries[at - 1] if at else entries[1], *ends]:
            if other is not entries[at]:
                out.append((at, other))
    return out


@pytest.mark.parametrize("extend", [False, True], ids=["duplicate", "prefix"])
def test_word_clash_raises_wherever_it_sits(make_random_book, extend):
    books = [
        construct_vf(make_model(["0.4", "0.6"], 2), 6).book,
        make_random_book(random.Random(3), "rounded"),
    ]
    for book in books:
        validate_codebook(book)
        model = book.model
        for at, other in _clashes(book, key=lambda e: e.word):
            word = other.word + (1,) if extend else other.word
            bad = _with_entry(
                book,
                at,
                CodeEntry(
                    word=word,
                    codeword=book.entries[at].codeword,
                    probability=word_probability(model, word),
                ),
            )
            with pytest.raises(ValidationError, match=WORD_CLASH):
                validate_codebook(bad)


@pytest.mark.parametrize("extend", [False, True], ids=["duplicate", "prefix"])
def test_codeword_clash_raises_wherever_it_sits(make_random_book, extend):
    books = [
        construct_vf(make_model(["0.4", "0.6"], 2), 6).book,
        make_random_book(random.Random(3), "rounded"),
    ]
    for book in books:
        for at, other in _clashes(book, key=lambda e: e.codeword):
            codeword = other.codeword + "0" if extend else other.codeword
            entry = book.entries[at]
            bad = _with_entry(
                book,
                at,
                CodeEntry(
                    word=entry.word,
                    codeword=codeword,
                    probability=entry.probability,
                ),
            )
            with pytest.raises(ValidationError, match=CODEWORD_CLASH):
                validate_codebook(bad)
