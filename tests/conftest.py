"""Shared fixtures: reference models, hand-checked code books, a seeded
generator of random complete prefix codes used by the metric and identity
property tests, and a reference node classifier for the lattice walks.

`book_from_entries` is the one way the tests build a book from rows they
write by hand, and `entries_of` the one way they read a book's rows to edit
them: a book holds only its three columns.  `reference_read_book` reads a
book file row by row, the reference for the loader's column passes."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from typing import Iterable

import pytest

from wordcodes.codebook import CodeBook, CodeEntry, validate_codebook
from wordcodes.errors import InputError
from wordcodes.source_model import (
    SourceModel,
    Word,
    linear_form,
    make_model,
    profile_of,
    word_probability,
)
from wordcodes.vf_construct import construct_block, construct_vf
from wordcodes.vv_construct import (
    assign_codewords,
    construct_vv,
    floor_form,
    huffman_lengths,
)
from wordcodes.word_sets import FIRST, SECOND, EmptyRule

# First and second word sets of the four-word binary reference code used
# throughout the suite: the merge of these two complete sets yields
# {a, ba, bba, bbb} with an average delay of 1.96 input symbols.
REFERENCE_M1 = ["a", "baa", "bab", "bba", "bbb"]
REFERENCE_M2 = ["ab", "ba", "bbb", "bba", "aab", "aaa"]


@pytest.fixture(scope="session")
def member_classifier():
    """Build a node classifier that asks each rule's `member` per profile.

    The reference for `word_sets.NodeClassifier`, and the way to walk
    rules that cannot decide by the linear form alone.  It answers as the
    library's classifier does: (form, FIRST/SECOND flags).
    """

    def build(model: SourceModel, first_rule, second_rule=EmptyRule()):
        def classify(k):
            first, second = first_rule.member(k), second_rule.member(k)
            return linear_form(model, k), FIRST * first | SECOND * second

        return classify

    return build


@pytest.fixture(scope="session")
def binary_model() -> SourceModel:
    return make_model(["0.4", "0.6"], 2)


@pytest.fixture(scope="session")
def ternary_model() -> SourceModel:
    return make_model(["0.2", "0.3", "0.5"], 2)


@pytest.fixture(scope="session")
def reference_result(binary_model):
    m1 = [binary_model.word_from_text(w) for w in REFERENCE_M1]
    m2 = [binary_model.word_from_text(w) for w in REFERENCE_M2]
    return construct_vv(binary_model, first_words=m1, second_words=m2)


@pytest.fixture(scope="session")
def reference_book(reference_result) -> CodeBook:
    assert reference_result.book is not None
    return reference_result.book


@pytest.fixture(scope="session")
def vf3_book(binary_model) -> CodeBook:
    return construct_vf(binary_model, 3).book


@pytest.fixture(scope="session")
def block_book() -> CodeBook:
    return construct_block(3, 2, 5, 8).book


def book_from_entries(
    model: SourceModel,
    kind: str,
    entries: Iterable[CodeEntry],
    provenance: dict | None = None,
) -> CodeBook:
    """The book whose rows are `entries`, in order: the tests write rows
    as `CodeEntry`s, and the book holds them as its three columns."""
    entries = list(entries)
    return CodeBook(
        model=model,
        kind=kind,
        words=[e.word for e in entries],
        codewords=[e.codeword for e in entries],
        probabilities=[e.probability for e in entries],
        provenance={} if provenance is None else provenance,
    )


def entries_of(book: CodeBook) -> list[CodeEntry]:
    """The rows of `book` as `CodeEntry`s, in order: the inverse of
    `book_from_entries`, for the tests that edit rows."""
    return list(
        map(CodeEntry, book.words, book.codewords, book.probabilities)
    )


def reference_read_book(text: str) -> CodeBook:
    """The book a book file holds, its rows read one at a time: each word
    by `word_from_text`, each probability by `word_probability`.  Not
    validated; a row whose fields are not strings raises the loader's
    InputError."""
    data = json.loads(text)
    model = make_model(data["probs"], data["arity"], labels=data["alphabet"])
    words, codewords = [], []
    for row in data["words"]:
        symbols, codeword = row["symbols"], row["codeword"]
        if not (isinstance(symbols, str) and isinstance(codeword, str)):
            raise InputError(f"malformed code book file: row {row!r}")
        words.append(model.word_from_text(symbols))
        codewords.append(codeword)
    return CodeBook(
        model=model,
        kind=data["kind"],
        words=words,
        codewords=codewords,
        probabilities=[word_probability(model, w) for w in words],
        provenance=dict(data.get("provenance", {})),
    )


def _random_model(rng: random.Random) -> SourceModel:
    m = rng.choice([2, 3, 4])
    n = rng.choice([2, 3])
    weights = [rng.randint(1, 20) for _ in range(m)]
    total = sum(weights)
    return make_model([Fraction(w, total) for w in weights], n)


def _random_complete_words(
    rng: random.Random, m: int, max_depth: int = 8
) -> list[Word]:
    """Leaves of a random full m-ary trie: prefix-free and complete."""
    words: list[Word] = [(i,) for i in range(1, m + 1)]
    for _ in range(rng.randrange(10)):
        expandable = [w for w in words if len(w) < max_depth]
        if not expandable or len(words) >= 40:
            break
        w = expandable[rng.randrange(len(expandable))]
        words.remove(w)
        words.extend(w + (i,) for i in range(1, m + 1))
    words.sort()
    return words


def _rounded_up_length(model: SourceModel, w: Word) -> int:
    """Smallest integer length >= -log_n p(w), at least 1.

    Such lengths always satisfy the Kraft inequality and keep every
    per-word excess inside [0, 1)."""
    form = linear_form(model, profile_of(w, model.m))
    fl = floor_form(form)
    length = fl if abs(form - fl) <= 1e-9 else fl + 1
    return max(1, length)


def huffman_entries(
    model: SourceModel, words: list[Word], probs: list[float]
) -> list[CodeEntry]:
    """The entries of a Huffman book over `words`: `huffman_lengths` over
    their probabilities in lexicographic word order, as a built book takes
    them, then `assign_codewords`."""
    order = sorted(range(len(words)), key=words.__getitem__)
    words = [words[i] for i in order]
    probs = [probs[i] for i in order]
    return assign_codewords(
        model, words, probs, huffman_lengths(probs, model.arity)
    )


def _random_book(rng: random.Random, lengths: str) -> CodeBook:
    model = _random_model(rng)
    words = _random_complete_words(rng, model.m)
    probs = [word_probability(model, w) for w in words]
    if lengths == "rounded":
        entries = assign_codewords(
            model,
            words,
            probs,
            [_rounded_up_length(model, w) for w in words],
        )
    elif lengths == "stretched":
        # Huffman lengths with random extra digits: still Kraft-feasible,
        # but the per-word excess may leave [-1, 1].
        base = huffman_entries(model, words, probs)
        entries = assign_codewords(
            model,
            [e.word for e in base],
            [e.probability for e in base],
            [len(e.codeword) + rng.choice([0, 0, 1, 2]) for e in base],
        )
    else:
        raise ValueError(f"unknown length mode {lengths!r}")
    book = book_from_entries(
        model, "vv", entries, {"mode": "random-test", "lengths": lengths}
    )
    validate_codebook(book)
    return book


@pytest.fixture(scope="session")
def make_random_book():
    """Factory: make_random_book(rng, lengths='rounded'|'stretched')."""
    return _random_book
