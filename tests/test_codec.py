"""Streaming encode/decode and the digit-flip synchronization experiment."""

from __future__ import annotations

import dataclasses
import hashlib
import random

import pytest

from conftest import book_from_entries
from wordcodes.codec import (
    Encoder,
    decode_message,
    decode_words,
    encode_message,
    sample_symbols,
    sync_error_experiment,
)
from wordcodes.errors import DecodeError, InputError, ValidationError


def test_roundtrip_variable_to_variable(binary_model, reference_book):
    rng = random.Random(101)
    message = sample_symbols(binary_model, rng, 2000)
    digits, pads = encode_message(reference_book, message)
    assert decode_message(reference_book, digits, pads) == message


def test_roundtrip_variable_to_fixed(binary_model, vf3_book):
    rng = random.Random(102)
    message = sample_symbols(binary_model, rng, 2000)
    digits, pads = encode_message(vf3_book, message)
    assert len(digits) % 3 == 0
    assert decode_message(vf3_book, digits, pads) == message


def test_roundtrip_block(block_book):
    rng = random.Random(103)
    message = sample_symbols(block_book.model, rng, 2002)
    digits, pads = encode_message(block_book, message)
    assert pads == 3  # 2002 symbols need 3 more to fill the last 5-block
    assert decode_message(block_book, digits, pads) == message


def test_encoder_emits_exactly_at_word_boundaries(reference_book):
    enc = Encoder(reference_book)
    assert enc.feed(2) == ""
    assert enc.feed(1) == "10"
    assert enc.feed(1) == "0"
    assert enc.feed(2) == ""
    assert enc.feed(2) == ""
    assert enc.feed(2) == "111"
    assert enc.max_pending == 3


def test_encoder_buffer_never_exceeds_longest_word(binary_model, reference_book):
    rng = random.Random(104)
    enc = Encoder(reference_book)
    for s in sample_symbols(binary_model, rng, 5000):
        enc.feed(s)
    enc.finish()
    assert enc.max_pending <= max(len(e.word) for e in reference_book.entries)


def test_finish_pads_with_the_most_probable_symbol(reference_book):
    digits, pads = encode_message(reference_book, [2])
    assert (digits, pads) == ("111", 2)
    assert decode_message(reference_book, "111", 2) == [2]


def test_finish_without_padding_rejects_partial_words(reference_book):
    enc = Encoder(reference_book)
    enc.feed(2)
    with pytest.raises(InputError):
        enc.finish(pad=False)
    assert Encoder(reference_book).finish() == ("", 0)


def test_feed_rejects_symbols_outside_the_alphabet(reference_book):
    enc = Encoder(reference_book)
    clean = enc.encode([2, 1, 2, 2, 1])
    # out of range, not a number, and unhashable
    for bad in (0, 3, 1.5, None, "a", (1,), [1]):
        with pytest.raises(InputError, match="outside the alphabet"):
            enc.feed(bad)
        with pytest.raises(InputError, match="outside the alphabet"):
            enc.encode([2, 2, bad])
        assert enc.encode([2, 1, 2, 2, 1]) == clean
        enc.feed(2)
        with pytest.raises(InputError, match="outside the alphabet"):
            enc.feed(bad)
        assert enc.feed(1) == "10"  # the rejected feed left word "2" open
    # bools and integral floats are symbols, as they always were
    assert enc.encode([True, 2.0, 1.0, 2, 2, 2]) == enc.encode([1, 2, 1, 2, 2, 2])


def test_strict_decode_rejects_damaged_streams(
    reference_book, vf3_book, make_random_book
):
    with pytest.raises(DecodeError, match="position 0: '111'"):
        decode_words(vf3_book, "111")  # unassigned chunk
    with pytest.raises(DecodeError, match="position 3: '0'"):
        decode_words(vf3_book, "0000")  # not a multiple of the chunk size
    with pytest.raises(DecodeError, match="position 0: '1'"):
        decode_words(reference_book, "1")  # ends inside a codeword
    with pytest.raises(DecodeError, match="position 1: '11'"):
        decode_words(reference_book, "011")  # ends inside the second codeword
    assert decode_words(reference_book, "") == []
    # Codewords 0, 10, 11, 12, 200, 2010, ...: Kraft sum 43693/59049 < 1,
    # so the codeword trie has dead branches, "21" among them.
    book = make_random_book(random.Random(0), "stretched")
    assert book.kraft_exact() < 1
    assert decode_words(book, "012") == [(2, 3, 3), (3,)]
    with pytest.raises(DecodeError, match="position 3: '21'"):
        decode_words(book, "01221")


def test_codec_tries_reject_books_that_are_not_prefix_free(reference_book):
    """Books that skipped validate_codebook still meet the tries' own prefix
    checks, whichever of the two clashing entries comes first, and the
    encoder's completeness check."""
    a, ba, bba, bbb = reference_book.entries  # words 1, 21, 221, 222
    model, kind = reference_book.model, reference_book.kind
    cases = [
        (Encoder, dataclasses.replace(bbb, word=(2, 2))),
        (lambda book: decode_words(book, ""), dataclasses.replace(bbb, codeword="11")),
    ]
    for build, clash in cases:
        for pair in ((bba, clash), (clash, bba)):
            book = book_from_entries(model, kind, (a, ba, *pair))
            with pytest.raises(ValidationError, match="are not prefix-free"):
                build(book)
    incomplete = book_from_entries(model, kind, (a, ba, bba))
    with pytest.raises(ValidationError, match="greedy parsing would dead-end"):
        Encoder(incomplete)


def test_one_encoder_encodes_messages_in_a_row(binary_model, reference_book):
    rng = random.Random(105)
    messages = [
        sample_symbols(binary_model, rng, 300),
        [2],  # ends inside a word: padded to "111" with 2 pad symbols
        sample_symbols(binary_model, rng, 500),
    ]
    enc = Encoder(reference_book)
    results = [enc.encode(message) for message in messages]
    assert results[1] == ("111", 2)
    assert results == [encode_message(reference_book, m) for m in messages]


def test_encoder_starts_clean_after_a_failed_encode(reference_book):
    fresh = Encoder(reference_book).encode([1])
    assert fresh == ("0", 0)
    # a message ending inside a word without padding, and a bad symbol
    # after a word prefix, both raise mid-word
    for message, pad in (([2], False), ([2, 7], True)):
        enc = Encoder(reference_book)
        with pytest.raises(InputError):
            enc.encode(message, pad=pad)
        assert enc.encode([1]) == fresh


class _FeedReference:
    """The per-symbol encoder that the one-loop walk replaced: one feed call
    per symbol, the pending count and `max_pending` updated per symbol.  Its
    alphabet test is `symbol in range(1, m + 1)`, so 1.5, None and "a" are
    rejected like 0 and m + 1, and True and 1.0 are symbol 1."""

    def __init__(self, book):
        self.m = book.model.m
        self.root: dict = {}
        for e in book.entries:
            node = self.root
            for s in e.word[:-1]:
                node = node.setdefault(s, {})
            node[e.word[-1]] = e.codeword
        self.node = self.root
        self.pending = 0
        self.max_pending = 0
        probs = book.model.probs
        self.pad_symbol = max(range(self.m), key=lambda i: probs[i]) + 1

    def feed(self, symbol):
        if symbol not in range(1, self.m + 1):
            raise InputError(f"symbol {symbol!r} outside the alphabet")
        nxt = self.node[symbol]
        self.pending += 1
        self.max_pending = max(self.max_pending, self.pending)
        if isinstance(nxt, str):
            self.node = self.root
            self.pending = 0
            return nxt
        self.node = nxt
        return ""

    def finish(self, pad=True):
        if self.pending == 0:
            return "", 0
        if not pad:
            raise InputError("message ends inside a word")
        pads = 0
        digits = ""
        while self.pending:
            digits = self.feed(self.pad_symbol)
            pads += 1
        return digits, pads

    def encode(self, symbols, pad=True):
        try:
            parts = [self.feed(s) for s in symbols]
            tail, pads = self.finish(pad)
        except InputError:
            self.node = self.root
            self.pending = 0
            raise
        return "".join(parts) + tail, pads


def _outcome(call, *args):
    try:
        return call(*args)
    except InputError:
        return "InputError"


def _run_against_reference(book, ops):
    """Apply (op, argument, pad) steps to a fresh Encoder and a fresh
    reference, comparing every result and the state each step leaves."""
    enc, ref = Encoder(book), _FeedReference(book)
    for op, arg, pad in ops:
        if op == "feed":
            got, want = _outcome(enc.feed, arg), _outcome(ref.feed, arg)
        elif op == "finish":
            got, want = _outcome(enc.finish, pad), _outcome(ref.finish, pad)
        else:
            got = _outcome(enc.encode, arg, pad)
            want = _outcome(ref.encode, arg, pad)
        assert got == want, (book.kind, op, arg, pad)
        assert enc.max_pending == ref.max_pending, (book.kind, op, arg, pad)
        # the open word: its trie node (the two tries are equal dicts) and
        # its buffered symbol count
        assert (enc._node, enc._pending) == (ref.node, ref.pending)


def test_encode_loop_matches_the_per_symbol_feed_reference(
    reference_book, vf3_book, block_book, make_random_book
):
    stretched = make_random_book(random.Random(0), "stretched")
    assert stretched.model.m == 3 and stretched.model.arity == 3
    rng = random.Random(106)
    for book in (reference_book, vf3_book, block_book, stretched):
        m = book.model.m
        bad_symbols = (0, m + 1, 1.5, None, "a")
        # each message on a fresh encoder, so a partial word can set
        # max_pending, then again after the previous message
        messages = []
        for length in (0, 1, 2, 7, 50, 400):
            message = sample_symbols(book.model, rng, length)
            messages += [(message, True), (message, False)]
            for bad in bad_symbols:
                for where in sorted({0, length // 2, length}):
                    damaged = message[:where] + [bad] + message[where:]
                    messages.append((damaged, True))
        for message, pad in messages:
            _run_against_reference(book, [("encode", message, pad)])
        _run_against_reference(book, [("encode", *case) for case in messages])
        # feed calls interleaved with encode on one instance
        ops = []
        for _ in range(300):
            roll = rng.random()
            if roll < 0.6:
                ops.append(("feed", rng.randint(1, m), None))
            elif roll < 0.7:
                ops.append(("feed", rng.choice(bad_symbols), None))
            elif roll < 0.85:
                message = sample_symbols(book.model, rng, rng.randrange(12))
                if rng.random() < 0.3:
                    message.insert(rng.randrange(len(message) + 1),
                                   rng.choice(bad_symbols))
                ops.append(("encode", message, rng.random() < 0.7))
            else:
                ops.append(("finish", None, rng.random() < 0.5))
        _run_against_reference(book, ops)


def test_decode_message_cannot_trim_more_than_it_decoded(reference_book):
    with pytest.raises(DecodeError):
        decode_message(reference_book, "0", pad_count=2)


def test_decode_message_rejects_a_negative_pad_count(vf3_book):
    digits, pads = encode_message(vf3_book, [1, 2, 2, 1, 2])
    assert pads == 2
    with pytest.raises(InputError):
        decode_message(vf3_book, digits, pad_count=-3)


def test_sample_symbols_match_the_model_frequencies(binary_model, ternary_model):
    for model in (binary_model, ternary_model):
        rng = random.Random(123)
        draws = sample_symbols(model, rng, 10_000)
        assert all(1 <= s <= model.m for s in draws)
        for i, p in enumerate(model.probs, start=1):
            freq = draws.count(i) / len(draws)
            assert abs(freq - p) <= 0.02


def test_uniform_length_codes_confine_damage_to_one_word(vf3_book):
    report = sync_error_experiment(vf3_book, trials=100, message_len=200, seed=7)
    assert report.kind == "vf"
    assert report.single_word_fraction == 1.0
    assert report.mean_affected == 1.0
    assert report.max_affected == 1
    assert report.histogram == {1: 100}
    assert len(report.records) == 100
    assert all(t.original_words == t.decoded_words for t in report.records)


def test_variable_length_codes_report_damage_spread(reference_book):
    report = sync_error_experiment(
        reference_book, trials=100, message_len=200, seed=7
    )
    assert report.kind == "vv"
    assert report.trials == 100
    assert sum(report.histogram.values()) == 100
    assert min(report.histogram) >= 1
    assert report.max_affected >= 1
    assert report.mean_affected >= 1.0


def test_sync_experiment_is_deterministic_per_seed(vf3_book):
    a = sync_error_experiment(vf3_book, trials=20, message_len=50, seed=42)
    b = sync_error_experiment(vf3_book, trials=20, message_len=50, seed=42)
    assert a.histogram == b.histogram
    assert [t.position for t in a.records] == [t.position for t in b.records]


def test_sync_experiment_reports_are_pinned(
    reference_book, vf3_book, make_random_book
):
    """Reports recorded from the two-decoder codec, before the decode loops
    were merged: any change in what the tolerant decoder returns, or in the
    order of the RNG draws, moves at least one of these values."""
    stretched = make_random_book(random.Random(0), "stretched")
    assert stretched.kraft_exact() < 1  # flips can reach dead branches
    expected = [
        (reference_book, {1: 74, 2: 97, 3: 23, 4: 4, 5: 2}, 1.815, 5, 0.37,
         "58fecfbe24782a6efff5d71795fbbad6d2f89d83bb069bd82e2340fce087412b"),
        (vf3_book, {1: 200}, 1.0, 1, 1.0,
         "0acc2252f03281aaa1158a04611f5a93b323f3fe8e77fa406cf6c6e93e86bd67"),
        (stretched, {1: 135, 2: 47, 3: 13, 4: 4, 6: 1}, 1.45, 6, 0.675,
         "57913269c497353707570d7524bd7d45ce85ecf2876fd034066a24c7477b99e9"),
    ]
    for book, histogram, mean, worst, single, records_sha in expected:
        report = sync_error_experiment(book, trials=200, message_len=200, seed=11)
        assert report.histogram == histogram
        assert report.mean_affected == mean
        assert report.max_affected == worst
        assert report.single_word_fraction == single
        rows = repr([dataclasses.astuple(t) for t in report.records])
        assert hashlib.sha256(rows.encode()).hexdigest() == records_sha


def test_sync_experiment_validates_arguments(vf3_book):
    with pytest.raises(InputError):
        sync_error_experiment(vf3_book, trials=0)
    with pytest.raises(InputError):
        sync_error_experiment(vf3_book, message_len=0)
