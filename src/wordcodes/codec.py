"""Streaming encoder/decoder for word codes, and a digit-error experiment.

Encoding parses the source stream greedily through a trie over the input
words (the word sets are prefix-free and complete, so the parse never
branches or dead-ends) and emits each word's codeword.  One loop over
locals walks the trie for a whole message; feeding one symbol is the
one-symbol case of the same loop, and a symbol that is no trie key is an
InputError.  Decoding reads fixed-size chunks when every codeword has the
same length, else walks a trie over codewords; one builder makes both
tries.

The synchronization experiment flips one output digit and compares decoded
word sequences: uniform-length codes are structurally confined to one
damaged word, while variable-length codes can lose synchronization for a
stretch that the experiment measures.  It builds its encoder and decoder
once per call.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Iterable

from .codebook import CodeBook
from .errors import DecodeError, InputError, ValidationError
from .source_model import DIGIT_GLYPHS, SourceModel, Word

PAD_TRAILER = "#pad="


def _build_trie(pairs: Iterable[tuple], what: str) -> dict:
    """Trie over (key, value) pairs: key item -> child dict, or value at a leaf."""
    root: dict = {}
    for key, value in pairs:
        node = root
        for item in key[:-1]:
            node = node.setdefault(item, {})
            if not isinstance(node, dict):
                raise ValidationError(f"{what} are not prefix-free")
        last = key[-1]
        if last in node:
            raise ValidationError(f"{what} are not prefix-free")
        node[last] = value
    return root


def _check_parse_complete(book: CodeBook, root: dict) -> None:
    """Every internal node must have all m children or parsing can stall."""
    m = book.model.m
    stack = [root]
    while stack:
        node = stack.pop()
        if len(node) != m:
            raise ValidationError(
                "word set is not complete: greedy parsing would dead-end"
            )
        for child in node.values():
            if isinstance(child, dict):
                stack.append(child)


class Encoder:
    """Greedy streaming encoder.

    Feed symbols one at a time, or a whole message to `encode`; digits come
    out as soon as a word completes.  Both run one trie walk, `_walk`.  The
    number of buffered symbols never exceeds the longest word.  After
    `finish` the encoder is back at the root, ready for the next message.
    """

    def __init__(self, book: CodeBook) -> None:
        self.book = book
        self._root = _build_trie(zip(book.words, book.codewords), "words")
        _check_parse_complete(book, self._root)
        self._node = self._root
        self._pending = 0
        self.max_pending = 0
        maxp = max(range(book.model.m), key=lambda i: book.model.probs[i])
        self._pad_symbol = maxp + 1

    def _walk(self, symbols: Iterable[int]) -> list[str]:
        """Parse `symbols` on from the current node; return the codewords.

        The one per-symbol loop.  `start` counts the symbols read before the
        open word began (negative when it began before this call), so the
        pending count and `max_pending` are settled once per word.  A symbol
        that is no trie key (outside 1..m, or not a number) raises
        InputError with the node and pending count left as they were.
        """
        root = self._root
        node = self._node
        parts: list[str] = []
        append = parts.append
        start = -self._pending
        longest = self.max_pending
        read = 0
        # made before the try, so a message that is not iterable raises its
        # own TypeError rather than a bad-symbol InputError
        numbered = enumerate(symbols, 1)
        try:
            for read, symbol in numbered:
                node = node[symbol]
                if type(node) is str:
                    append(node)
                    if read - start > longest:
                        longest = read - start
                    start = read
                    node = root
        except (KeyError, TypeError):
            # the symbols read before the bad one still count as buffered
            self.max_pending = max(longest, read - 1 - start)
            raise InputError(
                f"symbol {symbol!r} outside the alphabet"
            ) from None
        self._node = node
        self._pending = read - start
        self.max_pending = max(longest, self._pending)
        return parts

    def feed(self, symbol: int) -> str:
        """Read one symbol; returns its word's codeword if it completes one."""
        return "".join(self._walk((symbol,)))

    def finish(self, pad: bool = True) -> tuple[str, int]:
        """Complete any partial word; returns (digits, pad symbol count).

        Pads with the most probable symbol until the buffered prefix becomes
        a word.  With pad=False a partial word is an error instead.
        """
        if self._pending == 0:
            return "", 0
        if not pad:
            raise InputError(
                "message ends inside a word; enable padding or extend it"
            )
        pads = 0
        digits = ""
        while self._pending:
            digits = self.feed(self._pad_symbol)
            pads += 1
        return digits, pads

    def encode(self, symbols: list[int], pad: bool = True) -> tuple[str, int]:
        """Encode a whole message and finish it; returns (digits, pad count).

        On any error the encoder drops the partial word and goes back to
        the root, so the next message starts clean.
        """
        try:
            parts = self._walk(symbols)
            tail, pads = self.finish(pad=pad)
        except BaseException:
            self._node = self._root
            self._pending = 0
            raise
        parts.append(tail)
        return "".join(parts), pads


def encode_message(
    book: CodeBook, symbols: list[int], pad: bool = True
) -> tuple[str, int]:
    """Encode a whole message; returns (digit string, pad symbol count)."""
    return Encoder(book).encode(symbols, pad)


def _decoder(book: CodeBook) -> Callable[[str], list[Word | None]]:
    """Build the decode table once; return a decoder that maps bad units to None.

    For uniform-length codes each bad chunk (a short last one too) is one
    None.  For general codes a dead branch or dangling tail turns the rest
    of the stream into a single None, as a real decoder loses sync.
    """
    lengths = set(map(len, book.codewords))
    if len(lengths) == 1:
        (uniform,) = lengths
        table = dict(zip(book.codewords, book.words))
        return lambda digits: [
            table.get(digits[i : i + uniform]) for i in range(0, len(digits), uniform)
        ]

    root = _build_trie(zip(book.codewords, book.words), "codewords")

    def decode_trie(digits: str) -> list[Word | None]:
        node = root
        out: list[Word | None] = []
        for ch in digits:
            nxt = node.get(ch)
            if nxt is None:
                out.append(None)
                return out
            if isinstance(nxt, tuple):
                out.append(nxt)
                node = root
            else:
                node = nxt
        if node is not root:
            out.append(None)
        return out

    return decode_trie


def decode_words(book: CodeBook, digits: str) -> list[Word]:
    """Strict decode of a digit stream into source words.

    Raises DecodeError, naming the digit position where the first
    undecodable codeword starts, on an impossible digit or when the stream
    ends in the middle of a codeword.
    """
    words = _decoder(book)(digits)
    if None in words:
        lengths = dict(zip(book.words, map(len, book.codewords)))
        bad = words.index(None)
        pos = sum(lengths[w] for w in words[:bad])
        width = max(lengths.values())
        raise DecodeError(
            f"no codeword matches the digits at position {pos}: "
            f"{digits[pos : pos + width]!r}"
        )
    return words


def decode_message(book: CodeBook, digits: str, pad_count: int = 0) -> list[int]:
    """Decode digits to symbols, trimming `pad_count` padding symbols."""
    if pad_count < 0:
        raise InputError(f"pad count must be >= 0, got {pad_count}")
    symbols = list(chain.from_iterable(decode_words(book, digits)))
    if pad_count:
        if pad_count > len(symbols):
            raise DecodeError(
                f"cannot trim {pad_count} padding symbols from "
                f"{len(symbols)} decoded symbols"
            )
        del symbols[len(symbols) - pad_count :]
    return symbols


def sample_symbols(model: SourceModel, rng: random.Random, count: int) -> list[int]:
    """Draw `count` independent symbols with the model's probabilities."""
    cumulative = []
    acc = 0.0
    for p in model.probs:
        acc += p
        cumulative.append(acc)
    cumulative[-1] = 1.0
    draw = rng.random
    bisect_left = bisect.bisect_left
    return [bisect_left(cumulative, draw()) + 1 for _ in range(count)]


@dataclass
class SyncTrial:
    """One digit-flip trial."""

    position: int
    affected_words: int
    original_words: int
    decoded_words: int


@dataclass
class SyncReport:
    """Summary of the digit-flip experiment.

    affected_words counts decoded words that do not line up with the
    original parse (neither in its longest common prefix nor suffix).  For
    uniform-length codes this is 1 for every trial by construction.
    """

    kind: str
    trials: int
    message_len: int
    seed: int
    mean_affected: float
    max_affected: int
    single_word_fraction: float
    histogram: dict[int, int]
    records: list[SyncTrial] = field(repr=False, default_factory=list)


def sync_error_experiment(
    book: CodeBook,
    trials: int = 1000,
    message_len: int = 1000,
    seed: int = 0,
) -> SyncReport:
    """Flip one random output digit per trial and measure the damage.

    Each trial samples a fresh message, encodes it (padded to a word
    boundary), flips one digit, decodes tolerantly, and aligns the decoded
    word sequence with the original by longest common prefix and suffix.
    """
    if trials < 1:
        raise InputError(f"need at least one trial, got {trials}")
    if message_len < 1:
        raise InputError(f"need a nonempty message, got {message_len}")
    rng = random.Random(seed)
    model = book.model
    digit_set = DIGIT_GLYPHS[: model.arity]
    encoder = Encoder(book)
    decode = _decoder(book)
    records: list[SyncTrial] = []
    histogram: dict[int, int] = {}
    for _ in range(trials):
        message = sample_symbols(model, rng, message_len)
        digits, _pads = encoder.encode(message)
        original = decode(digits)
        if any(w is None for w in original):
            raise ValidationError("clean stream failed to decode")
        position = rng.randrange(len(digits))
        if model.arity == 2:
            flipped = "1" if digits[position] == "0" else "0"
        else:
            others = [c for c in digit_set if c != digits[position]]
            flipped = rng.choice(others)
        corrupted = digits[:position] + flipped + digits[position + 1 :]
        decoded = decode(corrupted)

        limit = min(len(original), len(decoded))
        prefix = 0
        while prefix < limit and original[prefix] == decoded[prefix]:
            prefix += 1
        suffix = 0
        while (
            suffix < limit - prefix
            and original[-1 - suffix] is not None
            and original[-1 - suffix] == decoded[-1 - suffix]
        ):
            suffix += 1
        affected = len(decoded) - prefix - suffix
        records.append(
            SyncTrial(
                position=position,
                affected_words=affected,
                original_words=len(original),
                decoded_words=len(decoded),
            )
        )
        histogram[affected] = histogram.get(affected, 0) + 1

    counts = [t.affected_words for t in records]
    return SyncReport(
        kind=book.kind,
        trials=trials,
        message_len=message_len,
        seed=seed,
        mean_affected=sum(counts) / len(counts),
        max_affected=max(counts),
        single_word_fraction=sum(1 for c in counts if c == 1) / len(counts),
        histogram=dict(sorted(histogram.items())),
        records=records,
    )
