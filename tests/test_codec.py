"""Streaming encode/decode and the digit-flip synchronization experiment."""

from __future__ import annotations

import dataclasses
import hashlib
import random
import sys
import tracemalloc
from itertools import accumulate, chain

import pytest

from conftest import book_from_entries, entries_of, huffman_entries
from wordcodes import codec
from wordcodes.codebook import CodeEntry, fixed_codewords, validate_codebook
from wordcodes.codec import (
    Encoder,
    _chunk_width,
    _decoder,
    decode_message,
    decode_words,
    encode_message,
    sample_symbols,
    sync_error_experiment,
)
from wordcodes.errors import DecodeError, InputError, ValidationError
from wordcodes.serialization import book_to_json
from wordcodes.source_model import DIGIT_GLYPHS, make_model, word_probability
from wordcodes.vf_construct import construct_vf
from wordcodes.vv_construct import (
    assign_codewords,
    canonical_codewords,
    construct_vv,
    huffman_lengths,
)


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
    assert enc.max_pending <= max(map(len, reference_book.words))


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
    a, ba, bba, bbb = entries_of(reference_book)  # words 1, 21, 221, 222
    model, kind = reference_book.model, reference_book.kind
    cases = [
        (Encoder, dataclasses.replace(bbb, word=(2, 2))),
        (lambda book: decode_words(book, ""), dataclasses.replace(bbb, codeword="11")),
    ]
    for build, clash in cases:
        for pair in ((bba, clash), (clash, bba)):
            book = book_from_entries(model, kind, (a, ba, *pair))
            # a failed check leaves no parse state, so every call raises
            for _ in range(2):
                with pytest.raises(ValidationError, match="are not prefix-free"):
                    build(book)
    incomplete = book_from_entries(model, kind, (a, ba, bba))
    for build in (Encoder, lambda book: encode_message(book, [1])) * 2:
        with pytest.raises(ValidationError, match="greedy parsing would dead-end"):
            build(incomplete)
    # the decoding half of the parse state does not read the word set
    assert decode_words(incomplete, "0") == [(1,)]


def _chained_book(rng, probs, chain, drop):
    """A prefix-free word set grown by a few random leaf splits, then one
    chain of `chain` splits, each of a child of the last; `drop` removes
    the chain's deepest leaf, leaving the set incomplete by a mass that
    may lie far below any float tolerance.  Huffman codewords, so only
    the word set can be at fault."""
    model = make_model(probs, 2)
    m = model.m
    words = [(i,) for i in range(1, m + 1)]
    for _ in range(rng.randrange(8)):
        word = words.pop(rng.randrange(len(words)))
        words += [word + (i,) for i in range(1, m + 1)]
    word = rng.choice(words)
    for _ in range(chain):
        words.remove(word)
        words += [word + (i,) for i in range(1, m + 1)]
        word = word + (rng.randrange(1, m + 1),)
    if drop:
        words.remove(max(words, key=len))
    probs = [word_probability(model, w) for w in words]
    return book_from_entries(model, "vv", huffman_entries(model, words, probs))


def _refuses_as_incomplete(call, *args) -> bool:
    try:
        call(*args)
    except ValidationError as exc:
        return "not complete" in str(exc)
    return False


def test_book_checks_and_codec_refuse_the_same_word_sets():
    """`validate_codebook` refuses a book exactly when the encoder's trie
    check does: seeded sets for m = 2 and 3, with a chain of 0, 10 or 40
    splits, whole or with the deepest leaf dropped."""
    rng = random.Random(26)
    for probs in (["0.5", "0.5"], ["0.2", "0.3", "0.5"]):
        for chain in (0, 10, 40):
            for drop in (False, True):
                for _ in range(4):
                    book = _chained_book(rng, probs, chain, drop)
                    verdicts = [
                        _refuses_as_incomplete(validate_codebook, book),
                        _refuses_as_incomplete(encode_message, book, [1]),
                    ]
                    assert verdicts == [drop, drop], (probs, chain, drop)


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
        for word, codeword in zip(book.words, book.codewords):
            node = self.root
            for s in word[:-1]:
                node = node.setdefault(s, {})
            node[word[-1]] = codeword
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


def test_sample_symbols_refuses_a_negative_count(binary_model):
    """A negative count is an InputError, not an empty draw; 0 draws
    nothing and leaves the generator where it was."""
    rng = random.Random(7)
    for count in (-1, -3):
        with pytest.raises(InputError, match=f"count must be >= 0, got {count}"):
            sample_symbols(binary_model, rng, count)
    assert sample_symbols(binary_model, rng, 0) == []
    assert rng.random() == random.Random(7).random()


@pytest.mark.parametrize(
    "name, call",
    [
        ("count", lambda b: sample_symbols(b.model, random.Random(), 2.5)),
        ("count", lambda b: sample_symbols(b.model, random.Random(), True)),
        ("trials", lambda b: sync_error_experiment(b, trials=2.5)),
        ("trials", lambda b: sync_error_experiment(b, trials=True)),
        ("message_len", lambda b: sync_error_experiment(b, message_len=2.5)),
        ("pad_count", lambda b: decode_message(b, "000001", True)),
        ("pad_count", lambda b: decode_message(b, "000001", 1.0)),
        ("arity", lambda b: huffman_lengths([0.5, 0.5], 2.0)),
        ("arity", lambda b: canonical_codewords([1, 2, 2], 2.0)),
        ("arity", lambda b: canonical_codewords([1, 1], True)),
    ],
    ids=[
        "sample-count-float",
        "sample-count-bool",
        "sync-trials-float",
        "sync-trials-bool",
        "sync-message_len-float",
        "decode-pad_count-bool",
        "decode-pad_count-float",
        "huffman-arity-float",
        "canonical-arity-float",
        "canonical-arity-bool",
    ],
)
def test_codec_and_codeword_counts_are_ints_not_bools(vf3_book, name, call):
    """A count, trial number, message length, pad count or arity given as
    a bool or a float is refused where it is passed, naming the argument:
    not read as 1 (one symbol drawn, one trial run and reported as `True`,
    one symbol trimmed, or the arity 1 that exhausts the codeword space),
    nor failing deep in the call with a bare TypeError."""
    with pytest.raises(InputError, match=f"^{name} must be an int, got "):
        call(vf3_book)


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


# -- chunk tables -------------------------------------------------------------


def _grown_book(rng, probs, arity, rows, stretch=False):
    """A complete word set grown to about `rows` words by splitting random
    leaves, with Huffman codewords; `stretch` lengthens random codewords
    and reassigns them canonically, leaving a Kraft sum below 1."""
    model = make_model(probs, arity)
    m = model.m
    words = [(i,) for i in range(1, m + 1)]
    while len(words) + m - 1 <= rows:
        word = words.pop(rng.randrange(len(words)))
        words += [word + (i,) for i in range(1, m + 1)]
    probs = [word_probability(model, w) for w in words]
    entries = huffman_entries(model, words, probs)
    if stretch:
        entries = assign_codewords(
            model,
            [e.word for e in entries],
            [e.probability for e in entries],
            [len(e.codeword) + rng.choice((0, 0, 1, 2)) for e in entries],
        )
    book = book_from_entries(model, "vv", entries)
    validate_codebook(book)
    return book


@pytest.fixture(scope="module")
def table_books(reference_book, vf3_book, block_book, make_random_book):
    """Books for the table differential: VV Huffman and canonical (Kraft
    below 1, so the decode table meets dead branches), VF, block, m=3 and
    n=3, and the suite's small random books."""
    p28, p46 = make_model(["0.2", "0.8"], 2), make_model(["0.4", "0.6"], 2)
    rng = random.Random(2024)
    books = {
        "vv-huffman": construct_vv(p28, T=8).book,
        "vv-canonical": construct_vv(p28, T=8, assignment="canonical").book,
        "vf": construct_vf(p46, 8).book,
        "m3": _grown_book(rng, ["0.2", "0.3", "0.5"], 2, 150),
        "m3-stretched": _grown_book(rng, ["0.2", "0.3", "0.5"], 2, 150, True),
        "n3": _grown_book(rng, ["0.4", "0.6"], 3, 100),
        "m3-n3-stretched": _grown_book(rng, ["0.1", "0.3", "0.6"], 3, 100, True),
        "reference": reference_book,
        "vf3": vf3_book,
        "block": block_book,
    }
    for seed in range(8):
        for lengths in ("rounded", "stretched"):
            books[f"random-{lengths}-{seed}"] = make_random_book(
                random.Random(seed), lengths
            )
    assert books["vv-canonical"].kraft_exact() < 1
    assert books["m3-n3-stretched"].kraft_exact() < 1
    return books


def _reference_decode(book, digits):
    """Digit-by-digit tolerant decoder over codeword strings: one None for
    each bad chunk of a uniform code; for a general code a dead branch or
    a dangling tail ends the stream with one None."""
    table = dict(zip(book.codewords, book.words))
    lengths = set(map(len, book.codewords))
    if len(lengths) == 1:
        (width,) = lengths
        return [table.get(digits[i : i + width]) for i in range(0, len(digits), width)]
    prefixes = {c[:i] for c in book.codewords for i in range(1, len(c))}
    out, current = [], ""
    for ch in digits:
        current += ch
        if current in table:
            out.append(table[current])
            current = ""
        elif current not in prefixes:
            out.append(None)
            return out
    if current:
        out.append(None)
    return out


def _reference_strict(book, digits):
    words = _reference_decode(book, digits)
    if None not in words:
        return words
    lengths = dict(zip(book.words, map(len, book.codewords)))
    pos = sum(lengths[w] for w in words[: words.index(None)])
    width = max(lengths.values())
    return f"no codeword matches the digits at position {pos}: " + repr(
        digits[pos : pos + width]
    )


def _strict(book, digits):
    try:
        return decode_words(book, digits)
    except DecodeError as exc:
        return str(exc)


def _encoded(coder, symbols, pad=True):
    """(digits, pads), or the InputError's message, and `max_pending`.
    Without padding only the error's type is compared: the reference words
    its message on a partial word more briefly."""
    try:
        result = coder.encode(symbols, pad)
    except InputError as exc:
        result = str(exc) if pad else "InputError"
    return result, coder.max_pending


def _same_as_reference(book, symbols, pad=True, enc=None, ref=None):
    enc = Encoder(book) if enc is None else enc
    ref = _FeedReference(book) if ref is None else ref
    assert _encoded(enc, symbols, pad) == _encoded(ref, symbols, pad), book.kind
    assert (enc._node, enc._pending) == (ref.node, ref.pending)
    return enc


def _encode_table(book):
    """The book's encoder chunk table, None where none is built yet."""
    parse = book._parse.get(codec._WordParse)
    return None if parse is None else parse.table


def _encode_threshold(book):
    m = book.model.m
    return m ** _chunk_width(m, len(book.words))


def _decode_threshold(book):
    n = book.model.arity
    return n ** _chunk_width(n, len(book.words))


def test_encode_tables_match_the_per_symbol_reference(table_books):
    rng = random.Random(7)
    for name, book in table_books.items():
        size = _encode_threshold(book)
        for length in (size - 1, size, size + 1, 3 * size + 5, 2000):
            message = sample_symbols(book.model, rng, length)
            # a copy of the book starts with no parse state
            fresh = dataclasses.replace(book)
            enc = _same_as_reference(fresh, message)
            assert (_encode_table(fresh) is not None) == (length >= size), name
            # a second message on the same encoder, with the table kept
            ref = _FeedReference(fresh)
            ref.max_pending = enc.max_pending
            _same_as_reference(fresh, message[::-1], enc=enc, ref=ref)
            _same_as_reference(book, message, pad=False)
        # runs of one symbol: words short enough that a chunk completes
        # several, so `max_pending` must come from the longest of them
        for symbol in range(1, book.model.m + 1):
            _same_as_reference(book, [symbol] * (3 * size + 2))


def test_encode_tables_keep_bad_symbol_errors_and_state(table_books):
    rng = random.Random(8)
    for name, book in table_books.items():
        m = book.model.m
        size = _encode_threshold(book)
        width = _chunk_width(m, len(book.words))
        message = sample_symbols(book.model, rng, 3 * size + 11)
        clean = Encoder(book).encode(message)
        # the first chunk, mid-stream, and the tail
        spots = {0, width // 2, len(message) // 2, len(message) - 1}
        for bad in (0, m + 1, 300, -1):
            for where in sorted(spots):
                damaged = message[:where] + [bad] + message[where + 1 :]
                enc = _same_as_reference(book, damaged)
                assert (enc._node, enc._pending) == (enc._parse.root, 0)
                assert enc.encode(message) == clean, (name, bad, where)


def test_encode_tables_take_every_input_the_walk_takes(table_books):
    rng = random.Random(9)
    for name, book in table_books.items():
        size = _encode_threshold(book)
        message = sample_symbols(book.model, rng, 2 * size + 3)
        want = _FeedReference(book).encode(message)
        for variant in (tuple(message), bytes(message), bytearray(message)):
            fresh = dataclasses.replace(book)
            assert Encoder(fresh).encode(variant) == want, (name, type(variant))
            assert _encode_table(fresh) is not None
        # a generator is not sized, and 1.0 is no byte: both walk per symbol
        fresh = dataclasses.replace(book)
        enc = Encoder(fresh)
        assert enc.encode(s for s in message) == want
        floats = [1.0 if s == 1 else s for s in message]
        assert enc.encode(floats) == want
        assert _encode_table(fresh) is None
        # True is a byte
        assert enc.encode([True if s == 1 else s for s in message]) == want
        assert _encode_table(fresh) is not None
        # an open word left by feed: this message walks per symbol
        enc = Encoder(book)
        ref = _FeedReference(book)
        assert enc.feed(message[0]) == ref.feed(message[0])
        _same_as_reference(book, message[1:], enc=enc, ref=ref)


def test_encode_tables_skip_alphabets_above_255():
    model = make_model(["1/256"] * 256, 2, labels=[chr(0x100 + i) for i in range(256)])
    book = book_from_entries(
        model,
        "vv",
        (
            CodeEntry((i + 1,), codeword, 1 / 256)
            for i, codeword in enumerate(fixed_codewords(2, 8))
        ),
    )
    message = sample_symbols(model, random.Random(10), 600)
    assert 256 in message
    _same_as_reference(book, message)
    assert _encode_table(book) is None


def test_decode_tables_match_the_per_digit_reference(table_books):
    rng = random.Random(11)
    for name, book in table_books.items():
        glyphs = DIGIT_GLYPHS[: book.model.arity]
        size = _decode_threshold(book)
        digits = ""
        while len(digits) < 4 * size + 40:
            digits += encode_message(book, sample_symbols(book.model, rng, 500))[0]
        streams = [digits[:n] for n in (size - 1, size, size + 1)] + [digits]
        for _ in range(6):
            at = rng.randrange(len(digits))
            flipped = rng.choice([c for c in glyphs if c != digits[at]])
            streams.append(digits[:at] + flipped + digits[at + 1 :])
            streams.append(digits[:at] + rng.choice("x9A ") + digits[at + 1 :])
            streams.append(digits[: len(digits) - rng.randint(1, 5)])
        decode = _decoder(book)
        for stream in streams:
            want = _reference_decode(book, stream)
            assert decode(stream) == want, (name, len(stream))
            assert _decoder(book)(stream) == want, (name, len(stream))
            assert _strict(book, stream) == _reference_strict(book, stream), name


@pytest.fixture(scope="module")
def codec_workload_books():
    """The codec benchmark's books: VV (0.2, 0.8) T=10, VF (0.4, 0.6) L=12."""
    vv = construct_vv(make_model(["0.2", "0.8"], 2), T=10).book
    vf = construct_vf(make_model(["0.4", "0.6"], 2), 12).book
    return vv, vf


@pytest.fixture
def built_tables(monkeypatch):
    """The entry counts of the chunk tables built while the test runs."""
    sizes: list[int] = []
    build = codec._build_table

    def counting(*args):
        table = build(*args)
        sizes.append(len(table))
        return table

    monkeypatch.setattr(codec, "_build_table", counting)
    return sizes


def test_table_width_is_the_largest_power_within_the_rows(codec_workload_books):
    vv, vf = codec_workload_books
    assert (len(vv.words), len(vf.words)) == (4100, 2492)
    assert _chunk_width(2, 4100) == 12 and _chunk_width(2, 2492) == 11
    assert _chunk_width(2, 4096) == 12 and _chunk_width(2, 4095) == 11
    assert _chunk_width(3, 2) == _chunk_width(2, 3) == 1
    assert _chunk_width(3, 27) == 3 and _chunk_width(256, 65535) == 1


def test_no_table_has_more_entries_than_the_book_has_rows(
    table_books, codec_workload_books, built_tables
):
    rng = random.Random(12)
    for book in (*table_books.values(), *codec_workload_books):
        # a copy of the book starts with no parse state
        book = dataclasses.replace(book)
        built_tables.clear()
        message = sample_symbols(book.model, rng, _encode_threshold(book))
        digits, _ = Encoder(book).encode(message)
        digits *= -(-_decode_threshold(book) // len(digits))
        _decoder(book)(digits)
        # uniform codes decode by their codeword dict, with no chunk table
        uniform = len(set(map(len, book.codewords))) == 1
        assert len(built_tables) == 1 + (not uniform)
        assert all(1 <= size <= len(book.words) for size in built_tables)


def test_tables_are_built_once_and_only_for_long_inputs(
    reference_book, codec_workload_books, built_tables
):
    # copies of the books start with no parse state
    vv, vf = map(dataclasses.replace, codec_workload_books)
    rng = random.Random(13)
    for book in (dataclasses.replace(reference_book), vv, vf):
        size = _encode_threshold(book)
        enc = Encoder(book)
        enc.encode(sample_symbols(book.model, rng, size - 1))
        assert built_tables == []
        # one table per book, whichever encoder or call reads it
        enc.encode(sample_symbols(book.model, rng, size))
        Encoder(book).encode(sample_symbols(book.model, rng, 2 * size))
        encode_message(book, sample_symbols(book.model, rng, 2 * size))
        assert len(built_tables) == 1
        built_tables.clear()
    vv = dataclasses.replace(vv)
    size = _decode_threshold(vv)
    digits, pads = encode_message(vv, sample_symbols(vv.model, rng, 3 * size))
    built_tables.clear()
    _decoder(vv)(digits[: size - 1])
    assert built_tables == []
    _decoder(vv)(digits[:size])
    _decoder(vv)(digits)
    decode_message(vv, digits, pads)
    assert built_tables == [4096]
    built_tables.clear()
    # the digit-flip experiment's 1000-symbol messages stay below both
    for book in codec_workload_books:
        sync_error_experiment(
            dataclasses.replace(book), trials=3, message_len=1000, seed=5
        )
    assert built_tables == []


def test_one_book_builds_each_trie_and_table_once(
    codec_workload_books, built_tables, monkeypatch
):
    tries: list[str] = []
    build_trie = codec._build_trie

    def counting(pairs, what):
        tries.append(what)
        return build_trie(pairs, what)

    monkeypatch.setattr(codec, "_build_trie", counting)
    message = sample_symbols(codec_workload_books[0].model, random.Random(14), 20_000)
    for book in map(dataclasses.replace, codec_workload_books):
        uniform = len(set(map(len, book.codewords))) == 1
        for _ in range(3):
            digits, pads = encode_message(book, message)
            assert len(digits) >= _decode_threshold(book)
            assert decode_message(book, digits, pads) == message
            assert Encoder(book).encode(message) == (digits, pads)
            sync_error_experiment(book, trials=2, message_len=50, seed=1)
        # a uniform code decodes by its codeword dict: no trie, no table
        assert tries == ["words"] + ["codewords"] * (not uniform)
        assert len(built_tables) == 2 - uniform
        tries.clear()
        built_tables.clear()


def test_a_replaced_book_parses_by_its_own_columns(codec_workload_books):
    vv = dataclasses.replace(codec_workload_books[0])
    # the same codeword set, mapped to the words in reverse order
    swapped = dataclasses.replace(vv, codewords=vv.codewords[::-1])
    assert swapped._parse == {}
    message = sample_symbols(vv.model, random.Random(15), 20_000)
    digits, pads = encode_message(vv, message)
    assert decode_message(vv, digits, pads) == message
    assert vv._parse and swapped._parse == {}
    want = _FeedReference(swapped).encode(message)
    assert want != (digits, pads)
    assert encode_message(swapped, message) == want
    assert decode_message(swapped, *want) == message
    assert decode_words(swapped, digits) == _reference_decode(swapped, digits)
    # and the first book still parses by its own
    assert encode_message(vv, message) == (digits, pads)
    assert decode_words(vv, digits) == _reference_decode(vv, digits)


def test_codec_use_leaves_equality_hash_repr_and_json_alone(
    reference_book, codec_workload_books
):
    for book in (reference_book, *codec_workload_books):
        book = dataclasses.replace(book)
        untouched = dataclasses.replace(book)
        before = (hash(book), repr(book), book_to_json(book))
        message = sample_symbols(book.model, random.Random(16), 20_000)
        digits, pads = encode_message(book, message)
        assert decode_message(book, digits, pads) == message
        assert book._parse and untouched._parse == {}
        assert (hash(book), repr(book), book_to_json(book)) == before
        assert book == untouched and untouched == book


# -- symbol pieces ------------------------------------------------------------


@pytest.fixture(scope="module")
def piece_books(codec_workload_books):
    """Books for the piece differential: binary VV at T=8 (Huffman, and
    canonical with dead branches) and T=10, a three-symbol base-3 VV, a
    uniform VF book and a 300-symbol book, whose trie stays on words."""
    p28 = make_model(["0.2", "0.8"], 2)
    m300 = make_model(["1/300"] * 300, 2, labels=[chr(0x100 + i) for i in range(300)])
    words = [(i,) for i in range(1, 301)]
    probs = [word_probability(m300, w) for w in words]
    return {
        "vv-t8": construct_vv(p28, T=8).book,
        "vv-t8-canonical": construct_vv(p28, T=8, assignment="canonical").book,
        "vv-t10": codec_workload_books[0],
        "vv-m3-n3": construct_vv(make_model(["0.2", "0.3", "0.5"], 3), T=5).book,
        "vf": construct_vf(make_model(["0.4", "0.6"], 2), 8).book,
        "m300": book_from_entries(
            m300, "vv", huffman_entries(m300, words, probs)
        ),
    }


def _flat_words(book, digits, pads):
    """`decode_message` through the word list: `decode_words`, flattened,
    less `pads` symbols."""
    symbols = list(chain.from_iterable(decode_words(book, digits)))
    assert pads <= len(symbols)
    return symbols[: len(symbols) - pads]


def _decoded(call, *args):
    try:
        return call(*args)
    except DecodeError as exc:
        return str(exc)


def test_decode_message_chains_pieces_into_the_flattened_words(piece_books):
    rng = random.Random(17)
    for name, book in piece_books.items():
        glyphs = DIGIT_GLYPHS[: book.model.arity]
        size = _decode_threshold(book)
        digits = ""
        while len(digits) < 3 * size + 40:
            digits += encode_message(book, sample_symbols(book.model, rng, 2000))[0]
        # clean streams cut at codeword ends on both sides of n^K digits
        lengths = dict(zip(book.words, map(len, book.codewords)))
        ends = list(accumulate(map(lengths.get, decode_words(book, digits))))
        below = max(e for e in ends if e < size)
        above = min(e for e in ends if e > size)
        clean = [digits[:below], digits[:above], digits]
        for stream in clean:
            for pads in range(4):
                want = _flat_words(book, stream, pads)
                assert decode_message(book, stream, pads) == want, (name, pads)
        parse = book._parse[codec._CodewordParse]
        if parse.uniform is None:
            pieces = {type(entry[4]) for entry in parse.table.values()}
            assert pieces == ({bytes} if book.model.m <= 255 else {type(None)})
        bad = [digits[: len(digits) - k] for k in range(1, 6)]
        for _ in range(6):
            at = rng.randrange(len(digits))
            flipped = rng.choice([c for c in glyphs if c != digits[at]])
            bad.append(digits[:at] + flipped + digits[at + 1 :])
            bad.append(digits[:at] + rng.choice("x9A ") + digits[at + 1 :])
        raised = 0
        for stream in bad:
            for pads in range(4):
                got = _decoded(decode_message, book, stream, pads)
                assert got == _decoded(_flat_words, book, stream, pads), name
                raised += type(got) is str
        # every foreign digit raises, on both paths
        assert raised >= 6 * 4, name


def test_decode_message_peak_holds_no_list_of_words(codec_workload_books):
    """The `tracemalloc` peak of a long trie decode: the symbol list, the
    piece list and a 64 KiB margin for the chunk slices and the tail.  A
    list of the stream's 49 560 words (about 450 KB) does not fit in it."""
    vv = codec_workload_books[0]
    message = sample_symbols(vv.model, random.Random(18), 200_000)
    digits, pads = encode_message(vv, message)
    # the first long decode builds the book's table, which then stays
    assert decode_message(vv, digits, pads) == message
    parse = codec._parse_state(vv, codec._CodewordParse)
    pieces, stuck = codec._trie_decode(parse, digits, joined=True)
    assert stuck is None
    words = decode_words(vv, digits)
    tracemalloc.start()
    try:
        symbols = decode_message(vv, digits, pads)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert symbols == message
    bound = sys.getsizeof(symbols) + sys.getsizeof(pieces) + 64 * 1024
    assert peak < bound, (peak, bound)
    assert sys.getsizeof(symbols) + sys.getsizeof(words) > bound
    assert len(words) == 49_560 and len(pieces) < len(words) // 3
