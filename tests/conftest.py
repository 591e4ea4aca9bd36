"""Shared fixtures: reference models, hand-checked code books, a seeded
generator of random complete prefix codes used by the metric and identity
property tests, and a reference node classifier for the lattice walks.

`book_from_entries` is the one way the tests build a book from rows they
write by hand."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable

import pytest

from wordcodes.codebook import CodeBook, CodeEntry, validate_codebook
from wordcodes.source_model import (
    SourceModel,
    Word,
    linear_form,
    make_model,
    profile_of,
    word_probability,
)
from wordcodes.vf_construct import construct_block, construct_vf
from wordcodes.vv_construct import assign_codewords, construct_vv, floor_form
from wordcodes.word_sets import EmptyRule

# First and second word sets of the four-word binary reference code used
# throughout the suite: the merge of these two complete sets yields
# {a, ba, bba, bbb} with an average delay of 1.96 input symbols.
REFERENCE_M1 = ["a", "baa", "bab", "bba", "bbb"]
REFERENCE_M2 = ["ab", "ba", "bbb", "bba", "aab", "aaa"]


@pytest.fixture(scope="session")
def member_classifier():
    """Build a node classifier that asks each rule's `member` per profile.

    The reference for `word_sets.NodeClassifier`, and the way to walk
    rules that cannot decide by the linear form alone.
    """

    def build(model: SourceModel, first_rule, second_rule=EmptyRule()):
        def classify(k):
            return (
                linear_form(model, k),
                first_rule.member(k),
                second_rule.member(k),
            )

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


def _random_book(rng: random.Random, lengths: str) -> CodeBook:
    model = _random_model(rng)
    words = _random_complete_words(rng, model.m)
    if lengths == "rounded":
        items = [
            (w, word_probability(model, w), _rounded_up_length(model, w))
            for w in words
        ]
        entries = assign_codewords(model, items, "canonical")
    elif lengths == "stretched":
        # Huffman lengths with random extra digits: still Kraft-feasible,
        # but the per-word excess may leave [-1, 1].
        items = [(w, word_probability(model, w), 0) for w in words]
        base = assign_codewords(model, items, "huffman")
        grown = [
            (e.word, e.probability, len(e.codeword) + rng.choice([0, 0, 1, 2]))
            for e in base
        ]
        entries = assign_codewords(model, grown, "canonical")
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
