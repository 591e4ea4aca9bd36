"""The book layer against plain per-entry references.

Exact Kraft sums, the prefix check, the book file writer and the book
metrics each have a direct per-entry definition, kept here as the
reference: one `Fraction` per codeword, every prefix of every item looked
up in a set, `json.dumps` of the whole payload, and one linear form per
entry.  The library must agree with them exactly, byte for byte where it
writes text.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import math
import random
import re
import tracemalloc
from collections import Counter
from decimal import Decimal
from itertools import islice
from fractions import Fraction

import pytest

from conftest import book_from_entries, entries_of, reference_read_book
from wordcodes.analysis import code_metrics, metrics_from_classes
from wordcodes.codebook import (
    CodeBook,
    CodeEntry,
    _assert_prefix_free,
    code_entries,
    digit_run,
    fixed_codewords,
    format_digits,
    kraft_of_counts,
    validate_codebook,
)
from wordcodes.errors import InputError, ValidationError
from wordcodes.serialization import book_from_json, book_to_json
from wordcodes.source_model import (
    DIGIT_GLYPHS,
    linear_form,
    make_model,
    profile_of,
    word_probabilities,
    word_probability,
)
from wordcodes.vf_construct import construct_block, construct_vf
from wordcodes.vv_construct import canonical_codewords, construct_vv

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
            {"symbols": model.word_to_text(word), "codeword": codeword}
            for word, codeword in zip(book.words, book.codewords)
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
            probability,
            len(word),
            len(codeword),
            linear_form(model, profile_of(word, model.m)),
        )
        for word, codeword, probability in zip(
            book.words, book.codewords, book.probabilities
        )
    ]
    kraft = reference_kraft(list(map(len, book.codewords)), model.arity)
    return metrics_from_classes(
        model, *map(list, zip(*rows)), kraft, word_count=len(rows)
    )


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
    # labels that JSON leaves alone, though not alphanumeric, and digits
    plain = make_model(["0.4", "0.6"], 2, labels=["-", " "])
    books.append(construct_vf(plain, 6).book)
    digits = make_model(["0.2", "0.3", "0.5"], 2, labels=["1", "2", "0"])
    books.append(construct_vf(digits, 5).book)
    # codewords that hold letters
    books.append(construct_vf(make_model(["0.4", "0.6"], 36), 2).book)
    # an empty provenance
    books.append(
        book_from_entries(
            binary,
            "vv",
            (
                CodeEntry(word=(1,), codeword="0", probability=0.4),
                CodeEntry(word=(2,), codeword="1", probability=0.6),
            ),
            {},
        )
    )
    return books


def test_book_layer_matches_per_entry_references(make_random_book):
    books = _books(make_random_book)
    assert {b.model.arity for b in books} == {2, 3, 36}
    assert {b.kind for b in books} == {"vv", "vf", "block"}
    for book in books:
        n = book.model.arity
        lengths = list(map(len, book.codewords))
        assert book.kraft_exact() == reference_kraft(lengths, n)
        assert kraft_of_counts(Counter(lengths), n) == reference_kraft(
            lengths, n
        )
        for items in (list(book.words), list(book.codewords)):
            assert _prefix_free(items) == reference_prefix_free(items)
        text = book_to_json(book)
        assert text == reference_book_json(book)
        assert book_to_json(book_from_json(text)) == text
        assert code_metrics(book) == reference_metrics(book)


def test_book_writer_matches_json_dumps_without_entries(binary_model):
    for provenance in ({}, {"mode": "x", "cap_history": [[4, 0.5]]}):
        book = book_from_entries(binary_model, "vv", (), provenance)
        assert book_to_json(book) == reference_book_json(book)


def test_book_writer_quotes_a_codeword_column_that_needs_it(binary_model):
    """The writer quotes each column that JSON would escape, and only that
    one: an unvalidated book whose codewords hold a quote and a backslash
    is written as `json.dumps` writes it, beside texts that need no
    escaping and beside texts that do."""
    rows = dict(words=((1,), (2,)), probabilities=(0.4, 0.6))
    quoted = make_model(["0.4", "0.6"], 2, labels=['"', "\n"])
    for model in (binary_model, quoted):
        book = CodeBook(model, "vv", codewords=('0"', "\\1"), **rows)
        assert book_to_json(book) == reference_book_json(book)


def test_book_writer_refuses_columns_of_different_lengths(binary_model):
    """The writer zips the columns, so it checks their lengths first: a
    book of 3 words and 16 codewords is refused with validation's own
    message, not written as a 3-row file.  A book of one row and one of
    none are written as `json.dumps` writes them."""
    book = construct_vf(binary_model, 5).book
    short = CodeBook(
        book.model,
        book.kind,
        book.words[:3],
        book.codewords[:16],
        book.probabilities[:16],
        book.provenance,
    )
    for check in (book_to_json, validate_codebook):
        with pytest.raises(ValidationError) as caught:
            check(short)
        assert str(caught.value) == (
            "a code book's columns differ in length: 3 words, 16 codewords, "
            "16 probabilities"
        )
    for column in ("words", "codewords", "probabilities"):
        cut = dataclasses.replace(book, **{column: getattr(book, column)[:1]})
        with pytest.raises(ValidationError, match="columns differ in length"):
            book_to_json(cut)
    one = book_from_entries(
        binary_model,
        "vv",
        (CodeEntry(word=(1, 2), codeword="0", probability=0.24),),
        {"mode": "one row"},
    )
    for written in (one, book_from_entries(binary_model, "vv", ())):
        assert book_to_json(written) == reference_book_json(written)


def reference_load_book(text: str) -> CodeBook:
    """The loader's per-row reference: the rows read one at a time
    (`reference_read_book`), then `validate_codebook`."""
    book = reference_read_book(text)
    validate_codebook(book)
    return book


def _loaded(load, text: str):
    """The book `load` reads from `text`, or its error's type and text."""
    try:
        return load(text)
    except (InputError, ValidationError) as exc:
        return type(exc).__name__, str(exc)


def _foreign(model, candidates: str) -> str:
    """The first of `candidates` that is no label of `model`."""
    return next(c for c in candidates if c not in model.labels)


# each edits the rows of a book file: (rows, rng, model) -> None
ROW_EDITS = {
    "duplicated row": lambda rows, rng, model: rows.insert(
        rng.randrange(len(rows) + 1), dict(rng.choice(rows))
    ),
    "word extends another": lambda rows, rng, model: rows[0].update(
        symbols=rows[-1]["symbols"] + model.labels[0]
    ),
    "foreign label in the last row": lambda rows, rng, model: rows[-1].update(
        symbols=rows[-1]["symbols"] + _foreign(model, "zyx")
    ),
    "empty symbols": lambda rows, rng, model: rng.choice(rows).update(
        symbols=""
    ),
    "separator in symbols": lambda rows, rng, model: rng.choice(rows).update(
        symbols=model.labels[0]
        + (model._byte_tables or ("\x00",))[0]
        + model.labels[-1]
    ),
    "non-ASCII symbol": lambda rows, rng, model: rng.choice(rows).update(
        symbols=model.labels[0] + _foreign(model, "\u00fc\u0436\u00e9")
    ),
    "non-string codeword": lambda rows, rng, model: rng.choice(rows).update(
        codeword=7
    ),
}


def test_the_loaders_byte_path_matches_the_per_row_reference(
    make_random_book,
):
    """The loader splits the word texts into `bytes` once and validates
    those same `bytes`; on every test book and two codec-size VF books it
    loads what a one-row-at-a-time reader validated by `validate_codebook`
    loads, and on hand-edited files it raises the same error, type and
    message."""
    big = [
        construct_vf(make_model(["0.4", "0.6"], 2), 12).book,
        construct_vf(make_model(["0.2", "0.3", "0.5"], 2), 12).book,
    ]
    for book in big:
        texts = list(map(book.model.word_to_text, book.words))
        assert book.model._symbol_bytes(texts) is not None
    rng = random.Random(1207)
    for book in _books(make_random_book) + big:
        text = book_to_json(book)
        loaded = book_from_json(text)
        assert loaded == reference_load_book(text) == book
        payload = json.loads(text)
        for name, edit in ROW_EDITS.items():
            bad = json.loads(text)
            edit(bad["words"], rng, book.model)
            assert bad != payload, name
            bad_text = json.dumps(bad, indent=2)
            got = _loaded(book_from_json, bad_text)
            assert isinstance(got, tuple), name
            assert got == _loaded(reference_load_book, bad_text), name


def test_only_the_loader_skips_the_model_probability_check(binary_model):
    entries = (
        CodeEntry(word=(1,), codeword="0", probability=0.4),
        CodeEntry(word=(2,), codeword="1", probability=0.6),
    )
    book = book_from_entries(binary_model, "vv", entries)
    validate_codebook(book)
    text = book_to_json(book)
    # a book built in code with a stored probability off the model
    skewed = book_from_entries(
        book.model,
        book.kind,
        (dataclasses.replace(entries[0], probability=0.5), entries[1]),
        book.provenance,
    )
    with pytest.raises(ValidationError, match="disagrees with the model"):
        validate_codebook(skewed)
    # the loader recomputes every probability from the model itself
    loaded = book_from_json(text)
    assert list(loaded.probabilities) == [0.4, 0.6]
    with pytest.raises(ValidationError, match="extends shorter codeword"):
        book_from_json(text.replace('"codeword": "1"', '"codeword": "01"'))


# -- the book's columns ----------------------------------------------------


def test_a_book_holds_three_columns_and_no_entries():
    """No field stores a row object: the rows are the three columns."""
    fields = dataclasses.fields(CodeBook)
    names = [f.name for f in fields if f.init]
    assert names == [
        "model", "kind", "words", "codewords", "probabilities", "provenance",
    ]
    # the one other field is the codec's parse state, derived from the
    # columns: no row object, and no part of equality, hash or repr
    (state,) = [f for f in fields if not f.init]
    assert (state.name, state.compare, state.hash, state.repr) == (
        "_parse", False, False, False,
    )
    # and no view that builds row objects from the columns
    assert not hasattr(CodeBook, "entries")


def test_entries_are_the_rows_of_the_columns(make_random_book):
    books = _books(make_random_book)
    books.append(construct_vv(make_model(["0.2", "0.8"], 2), T=5).book)
    for book in books:
        columns = (book.words, book.codewords, book.probabilities)
        assert all(type(column) is tuple for column in columns)
        assert code_entries(*columns) == tuple(map(CodeEntry, *columns))
    # lists and iterators given for the columns are stored as tuples
    listed = CodeBook(
        books[0].model,
        books[0].kind,
        list(books[0].words),
        iter(books[0].codewords),
        list(books[0].probabilities),
        books[0].provenance,
    )
    assert listed == books[0]


def test_fresh_books_reload_equal():
    books = [
        construct_vf(make_model(["0.4", "0.6"], 2), 12).book,
        construct_vf(make_model(["0.2", "0.3", "0.5"], 2), 10).book,
        construct_vv(make_model(["0.2", "0.8"], 2), T=11).book,
    ]
    assert [len(book.words) for book in books] == [2492, 393, 32772]
    for book in books:
        assert book_from_json(book_to_json(book)) == book


def test_block_books_reload_equal():
    """A block book stores the left-to-right product of its symbols'
    probabilities, as the loader computes it, so it reloads equal: for
    (1/3)^5 that is one ulp away from float(1/243)."""
    book = construct_block(3, 2, 5, 8).book
    text = book_to_json(book)
    loaded = book_from_json(text)
    assert loaded == book
    assert book_to_json(loaded) == text
    assert set(book.probabilities) == {0.004115226337448559}
    assert float(Fraction(1, 243)) == 0.00411522633744856


# -- shared probability objects --------------------------------------------


def _shared_books():
    """Fresh VF, threshold VV (Huffman and canonical) and explicit VV
    books, each beside its reloaded copy."""
    binary = make_model(["0.4", "0.6"], 2)
    words = [tuple(1 + (i >> k & 1) for k in range(4)) for i in range(16)]
    fresh = [
        construct_vf(binary, 12).book,
        construct_vf(make_model(["0.2", "0.3", "0.5"], 2), 10).book,
        construct_vv(make_model(["0.2", "0.8"], 2), T=10).book,
        construct_vv(
            make_model(["0.2", "0.8"], 2), T=8, assignment="canonical"
        ).book,
        construct_vv(binary, first_words=words, second_words=words).book,
    ]
    return fresh + [book_from_json(book_to_json(book)) for book in fresh]


def test_built_and_loaded_books_hold_one_float_per_value():
    """Books the library builds or loads hold one float object per
    distinct probability value, and each value is the model's product for
    its word, `repr` for `repr`; sharing changes no file byte."""
    for book in _shared_books():
        probs = book.probabilities
        assert len(set(map(id, probs))) == len(set(probs)) < len(probs)
        assert list(map(repr, probs)) == list(
            map(repr, word_probabilities(book.model, book.words))
        )
        text = book_to_json(book)
        assert book_from_json(text) == book
        assert book_to_json(book_from_json(text)) == text


def _loader_peak_ratio(text: str) -> float:
    """The `tracemalloc` peak of `book_from_json(text)` over the size of
    the book it returns."""
    book_from_json(text)  # lazy set-up, outside the trace
    # a full collection empties the tuple and float free lists, which
    # would otherwise serve part of the book without a traced allocation
    gc.collect()
    tracemalloc.start()
    try:
        book = book_from_json(text)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert book.words
    return peak / retained


def test_the_loader_peaks_below_twice_the_book_it_returns():
    """The loader frees each parsed row once its columns are read, and
    shares equal probabilities, so its peak stays within twice the book
    it keeps.  A loader that kept the parsed rows to the end and one float
    per row would read about 2.3."""
    for book in (
        construct_vf(make_model(["0.4", "0.6"], 2), 12).book,
        construct_vv(make_model(["0.2", "0.8"], 2), T=10).book,
    ):
        ratio = _loader_peak_ratio(book_to_json(book))
        assert ratio <= 2, (book.kind, len(book.words), ratio)


def test_books_built_by_hand_keep_their_probability_objects(binary_model):
    """A book keeps the probability objects it is given, equal or not,
    and validation names each odd one as it did: 1 and -0.0 disagree with
    the model, and a list or a `Decimal`, even one equal to its float, is
    no number."""
    one, minus_zero, listed = 1, -0.0, [0.4]
    twins = [float("0.6"), float("0.6")]
    book = CodeBook(
        binary_model, "vv", [(1,), (2,)], ["0", "1"], [one, twins[0]]
    )
    assert book.probabilities[0] is one and book.probabilities[1] is twins[0]
    kept = CodeBook(
        binary_model, "vv", [(1,), (2,)], ["0", "1"], twins
    ).probabilities
    assert kept[0] is twins[0] and kept[1] is twins[1]
    cases = [
        (one, "stored probability 1 for word (1,) disagrees with the model "
              "(0.4)"),
        (minus_zero, "stored probability -0.0 for word (1,) disagrees with "
                     "the model (0.4)"),
        (listed, "stored probability [0.4] for word (1,) is not a number"),
        (Decimal(0.4), "stored probability Decimal('0.40000000000000002220"
                       "446049250313080847263336181640625') for word (1,) "
                       "is not a number"),
    ]
    for value, message in cases:
        book = CodeBook(
            binary_model, "vv", [(1,), (2,)], ["0", "1"], [value, 0.6]
        )
        assert book.probabilities[0] is value
        with pytest.raises(ValidationError) as caught:
            validate_codebook(book)
        assert str(caught.value) == message
    # a Fraction equal to its word's probability passes, as it did
    half = make_model(["1/2", "1/2"], 2)
    exact = [Fraction(1, 2)] * 2
    validate_codebook(CodeBook(half, "block", [(1,), (2,)], ["0", "1"], exact))


def test_the_model_check_refuses_nan_and_keeps_its_tolerance(binary_model):
    """A NaN stored probability disagrees with the model, as an infinite
    one does; a probability nudged by far less than PROB_CONSISTENCY_TOL
    still passes."""
    book = construct_vf(binary_model, 4).book
    first = book.probabilities[0]
    for value in (math.nan, math.inf):
        bad = dataclasses.replace(
            book, probabilities=(value,) + book.probabilities[1:]
        )
        with pytest.raises(ValidationError) as caught:
            validate_codebook(bad)
        assert str(caught.value) == (
            f"stored probability {value!r} for word {book.words[0]!r} "
            f"disagrees with the model ({first!r})"
        )
    nudged = dataclasses.replace(
        book, probabilities=(first + 1e-12,) + book.probabilities[1:]
    )
    assert nudged.probabilities != book.probabilities
    validate_codebook(nudged)


def test_validation_rejects_columns_of_different_lengths(binary_model):
    book = book_from_entries(
        binary_model,
        "vv",
        (
            CodeEntry(word=(1,), codeword="0", probability=0.4),
            CodeEntry(word=(2,), codeword="1", probability=0.6),
        ),
    )
    validate_codebook(book)
    for column in ("words", "codewords", "probabilities"):
        short = dataclasses.replace(
            book, **{column: getattr(book, column)[:1]}
        )
        with pytest.raises(ValidationError, match="columns differ in length"):
            validate_codebook(short)


def test_kraft_sum_matches_per_entry_fractions():
    rng = random.Random(5)
    assert kraft_of_counts(Counter(), 2) == 0
    for _ in range(300):
        arity = rng.randint(2, 7)
        lengths = [rng.randint(0, 30) for _ in range(rng.randint(1, 40))]
        assert kraft_of_counts(Counter(lengths), arity) == reference_kraft(
            lengths, arity
        )


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


def test_digit_runs_match_the_divmod_reference():
    rng = random.Random(5)
    for arity in (2, 3, 5, 36):
        for width in (0, 1, 4, 9):
            space = arity**width
            start = rng.randrange(space)
            stop = min(space, start + rng.randint(1, 50))
            assert digit_run(start, stop, arity, width) == [
                reference_digits(v, arity, width) for v in range(start, stop)
            ]
            assert digit_run(space - 1, space, arity, width) == [
                reference_digits(space - 1, arity, width)
            ]


# -- violations ------------------------------------------------------------

WORD_CLASH = r"duplicate input word|input word .* extends shorter input word"
CODEWORD_CLASH = r"duplicate codeword|codeword .* extends shorter codeword"


def _with_entry(book: CodeBook, index: int, entry: CodeEntry) -> CodeBook:
    entries = entries_of(book)
    entries[index] = entry
    return book_from_entries(book.model, book.kind, entries)


def _clashes(book: CodeBook, key) -> list[tuple[int, CodeEntry]]:
    """(index to overwrite, entry to clash with) pairs.

    The overwritten entry sits first, in the middle and last in entry
    order; it clashes with its neighbour in entry order and with the
    entries whose `key` sorts first and last.
    """
    entries = entries_of(book)
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
                    codeword=book.codewords[at],
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
            bad = _with_entry(
                book,
                at,
                CodeEntry(
                    word=book.words[at],
                    codeword=codeword,
                    probability=book.probabilities[at],
                ),
            )
            with pytest.raises(ValidationError, match=CODEWORD_CLASH):
                validate_codebook(bad)


# -- symbols and per-entry faults ------------------------------------------


@pytest.mark.parametrize(
    "word, probability",
    [
        ((0,), 0.6),  # reads as symbol 2 through probs[-1]: it used to pass
        ((2, 3), 0.6),  # symbol m + 1
        ((1.5,), 0.6),  # not an integer
        ((2.0,), 0.6),  # equal to symbol 2, but no symbol
        (("b",), 0.6),  # a label, not a symbol index
    ],
    ids=["zero", "m+1", "fraction", "float", "label"],
)
def test_validation_rejects_symbols_outside_the_alphabet(
    binary_model, word, probability
):
    book = book_from_entries(
        binary_model,
        "vv",
        (
            CodeEntry(word=(1,), codeword="0", probability=0.4),
            CodeEntry(word=word, codeword="1", probability=probability),
        ),
    )
    message = rf"word {re.escape(repr(word))} uses symbols outside 1\.\.2"
    with pytest.raises(ValidationError, match=message):
        validate_codebook(book)


def reference_entry_fault(book: CodeBook) -> str | None:
    """The first per-entry fault in entry order, checked entry by entry."""
    model = book.model
    glyphs = set(DIGIT_GLYPHS[: model.arity])
    for e in entries_of(book):
        if type(e.word) is not tuple:
            return f"word {e.word!r} is not a tuple"
        if not e.word:
            return "the empty word cannot be a code word"
        if not all(type(s) is int and 1 <= s <= model.m for s in e.word):
            return f"word {e.word!r} uses symbols outside 1..{model.m}"
        if type(e.codeword) is not str:
            return f"codeword {e.codeword!r} of word {e.word!r} is not a string"
        if not e.codeword:
            return f"word {e.word!r} has an empty codeword"
        if not set(e.codeword) <= glyphs:
            return (
                f"codeword {e.codeword!r} uses digits outside base "
                f"{model.arity}"
            )
        if type(e.probability) is not float:
            return (
                f"stored probability {e.probability!r} for word {e.word!r} "
                "is not a number"
            )
        expect = word_probability(model, e.word)
        if not abs(expect - e.probability) <= 1e-9:  # NaN is within none
            return (
                f"stored probability {e.probability!r} for word {e.word!r} "
                f"disagrees with the model ({expect!r})"
            )
    return None


def _faulty(entry: CodeEntry, fault: str, arity: int) -> CodeEntry:
    if fault == "empty word":
        return dataclasses.replace(entry, word=())
    if fault == "symbol":
        return dataclasses.replace(entry, word=entry.word + (0,))
    if fault == "empty codeword":
        return dataclasses.replace(entry, codeword="")
    if fault == "digit":
        return dataclasses.replace(entry, codeword=DIGIT_GLYPHS[arity])
    if fault == "list word":
        return dataclasses.replace(entry, word=list(entry.word))
    if fault == "int codeword":
        return dataclasses.replace(entry, codeword=1)
    if fault == "tuple codeword":
        return dataclasses.replace(entry, codeword=(DIGIT_GLYPHS[0],))
    if fault == "text probability":
        return dataclasses.replace(entry, probability=repr(entry.probability))
    if fault == "no probability":
        return dataclasses.replace(entry, probability=None)
    if fault == "nan probability":
        return dataclasses.replace(entry, probability=math.nan)
    if fault == "inf probability":
        return dataclasses.replace(entry, probability=math.inf)
    return dataclasses.replace(entry, probability=entry.probability + 0.01)


def test_validation_names_the_first_faulty_entry(make_random_book):
    """The passes over all entries, and the one-by-one check they fall
    back on, report what a one-by-one reference reports: the first
    faulty entry in entry order, with its first fault.  A field of the
    wrong type is a fault too, named as a `ValidationError`, and a NaN
    probability, within no distance of the model's, disagrees with it."""
    faults = [
        "empty word", "symbol", "empty codeword", "digit", "probability",
        "list word", "int codeword", "tuple codeword", "text probability",
        "no probability", "nan probability", "inf probability",
    ]
    rng = random.Random(404)
    books = [make_random_book(rng, "rounded") for _ in range(6)]
    books.append(construct_vf(make_model(["0.2", "0.3", "0.5"], 3), 4).book)
    for book in books:
        validate_codebook(book)
        for _ in range(12):
            entries = entries_of(book)
            for at in rng.sample(range(len(entries)), 2):
                fault = rng.choice(faults)
                entries[at] = _faulty(entries[at], fault, book.model.arity)
            bad = book_from_entries(
                book.model, book.kind, entries, book.provenance
            )
            expect = reference_entry_fault(bad)
            with pytest.raises(ValidationError) as caught:
                validate_codebook(bad)
            assert str(caught.value) == expect


def test_validation_refuses_a_book_of_list_words(binary_model):
    """Words that are all lists pass every check a list can take, but a
    book's words are tuples, as in explicit word lists."""
    book = CodeBook(binary_model, "vv", [[1], [2]], ["0", "1"], [0.4, 0.6])
    with pytest.raises(ValidationError, match=r"word \[1\] is not a tuple"):
        validate_codebook(book)


def reference_row_error(model, rows) -> str | None:
    """The loader's error for the first bad row, reading rows one by one."""
    try:
        for row in rows:
            symbols, codeword = row["symbols"], row["codeword"]
            if not (isinstance(symbols, str) and isinstance(codeword, str)):
                return f"malformed code book file: row {row!r}"
            model.word_from_text(symbols)
    except (KeyError, TypeError) as exc:
        return f"malformed code book file: {exc}"
    except InputError as exc:
        return str(exc)
    return None


def test_loader_names_the_first_bad_row():
    """The loader reads rows in passes over all of them; with bad rows
    anywhere it reports what a one-row-at-a-time reader reports."""
    edits = [
        lambda row: row.update(symbols=row["symbols"] + "x"),
        lambda row: row.pop("codeword"),
        lambda row: row.pop("symbols"),
        lambda row: row.update(codeword=7),
        lambda row: row.update(symbols=None),
    ]
    rng = random.Random(77)
    book = construct_vf(make_model(["0.4", "0.6"], 2), 7).book
    payload = json.loads(book_to_json(book))
    seen = set()
    for _ in range(60):
        bad = json.loads(json.dumps(payload))
        rows = bad["words"]
        for at in rng.sample(range(len(rows)), 2):
            rng.choice(edits)(rows[at])
        if rng.random() < 0.2:
            rows[rng.randrange(len(rows))] = ["not", "an", "object"]
        expect = reference_row_error(book.model, rows)
        with pytest.raises(InputError) as caught:
            book_from_json(json.dumps(bad))
        assert str(caught.value) == expect
        seen.add(expect.split(":")[0].split(" ")[0])
    assert seen == {"malformed", "unknown"}


def test_validation_reads_symbols_above_255():
    """Sources with more than 255 symbols take the range check that does
    not go through bytes: symbol m passes, m + 1 and 0 do not."""
    m = 300
    model = make_model(
        [Fraction(1, m)] * m, 36, labels=[chr(0x100 + i) for i in range(m)]
    )
    entries = tuple(
        CodeEntry(word=(i,), codeword=format_digits(i - 1, 36, 2),
                  probability=1 / m)
        for i in range(1, m + 1)
    )
    book = book_from_entries(model, "vv", entries)
    validate_codebook(book)
    assert book_from_json(book_to_json(book)) == book
    for symbol in (m + 1, 0, 2**70):
        bad = _with_entry(
            book, m - 1, dataclasses.replace(entries[-1], word=(symbol,))
        )
        with pytest.raises(ValidationError, match="outside 1..300"):
            validate_codebook(bad)


# -- label rows: one translate over all words, or one join per word ---------


def _label_books():
    """(name, book) for each kind of labels, with the text path it takes."""
    books = [
        ("default", construct_vf(make_model(["0.4", "0.6"], 2), 9).book),
        ("default m=3", construct_vf(make_model(["0.2", "0.3", "0.5"], 2), 6).book),
        # the escaped quote and backslash, and NUL, so the separator moves
        ("custom ASCII", construct_vf(
            make_model(["0.2", "0.3", "0.5"], 3, labels=['"', "\\", "\x00"]), 5
        ).book),
        ("non-ASCII", construct_vf(
            make_model(["1/3", "2/3"], 2, labels=["é", "ж"]), 6
        ).book),
    ]
    m = 300
    model = make_model(
        [Fraction(1, m)] * m, 36, labels=[chr(0x100 + i) for i in range(m)]
    )
    entries = tuple(
        CodeEntry(word=(i,), codeword=format_digits(i - 1, 36, 2),
                  probability=1 / m)
        for i in range(1, m + 1)
    )
    books.append(("300 symbols", book_from_entries(model, "vv", entries)))
    return books


def test_label_rows_match_the_per_word_path():
    bulk = set()
    for name, book in _label_books():
        model = book.model
        words = list(book.words)
        texts = model.texts_from_words(words)
        if texts is not None:
            bulk.add(name)
            assert texts == list(map(model.word_to_text, words)), name
        text = book_to_json(book)
        assert text == reference_book_json(book), name
        loaded = book_from_json(text)
        assert (loaded.words, loaded.codewords, loaded.probabilities) == (
            book.words, book.codewords, book.probabilities
        ), name
        assert book_to_json(loaded) == text, name
        texts = list(map(model.word_to_text, words))
        assert list(map(model.word_from_text, texts)) == words, name
        keys = model._symbol_bytes(texts)
        assert keys is None or list(map(tuple, keys)) == words, name
    assert bulk == {"default", "default m=3", "custom ASCII"}


def test_bulk_texts_fall_back_on_words_outside_the_alphabet(binary_model):
    model = binary_model
    good = [(1, 2), (2,), (1, 1, 2)]
    assert model.texts_from_words(good) == ["ab", "b", "aab"]
    assert model.texts_from_words([]) is None
    for bad in [(0,), (3,), (1, 255), (256,), (-1,), ("a",), 2]:
        for at in range(len(good) + 1):
            words = good[:at] + [bad] + good[at:]
            assert model.texts_from_words(words) is None, (bad, at)


@pytest.mark.parametrize("labels", [None, ["é", "ж"]], ids=["ASCII", "other"])
@pytest.mark.parametrize("symbol", [0, -1])
def test_book_writer_rejects_a_symbol_outside_the_alphabet(labels, symbol):
    """A book that skipped validation is not written with symbol 0 or -1
    read as the last label: the per-word text raises, naming the symbol."""
    model = make_model(["0.4", "0.6"], 2, labels=labels)
    book = book_from_entries(
        model,
        "vv",
        (
            CodeEntry(word=(1,), codeword="0", probability=0.4),
            CodeEntry(word=(symbol, 2), codeword="1", probability=0.6),
        ),
    )
    with pytest.raises(InputError, match=rf"symbol {symbol} outside 1\.\.2"):
        book_to_json(book)
    with pytest.raises(ValidationError, match="uses symbols outside 1..2"):
        validate_codebook(book)


def test_bulk_words_fall_back_to_the_per_text_error(binary_model, reference_book):
    """`_symbol_bytes` reads good texts in one pass and refuses a bad one;
    the loader then reads text by text, naming the first bad symbol."""
    model = binary_model
    assert model._symbol_bytes(["ab", "", "b"]) == [b"\x01\x02", b"", b"\x02"]
    assert model._symbol_bytes([]) is None
    data = json.loads(book_to_json(reference_book))
    sep = model._byte_tables[0]
    for bad, shown in [("c", "'c'"), ("é", "'é'"), (sep, repr(sep)), (" ", "' '")]:
        for texts in (["a" + bad], ["ab", bad + "b", "a"], [bad]):
            assert model._symbol_bytes(texts) is None
            data["words"] = [{"codeword": "0", "symbols": t} for t in texts]
            with pytest.raises(InputError) as caught:
                book_from_json(json.dumps(data))
            assert str(caught.value) == f"unknown symbol {shown}"
