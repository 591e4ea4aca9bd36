"""Streaming encoder/decoder for word codes, and a digit-error experiment.

Encoding parses the source stream greedily through a trie over the input
words (the word sets are prefix-free and complete, so the parse never
branches or dead-ends) and emits each word's codeword.  One loop over
locals walks the trie for a whole message; feeding one symbol is the
one-symbol case of the same loop, and a symbol that is no trie key is an
InputError.  Decoding reads fixed-size chunks when every codeword has the
same length, else walks a trie over codewords; one builder makes both
tries.

A long message or digit stream skips most trie steps: one builder,
`_build_table`, maps every K-key chunk that parses from the root to the
words it completes, so one dict lookup reads up to K symbols or digits
(the table-driven decoding of Moffat and Turpin, IEEE Trans. Commun. 45,
1997).  K is the largest width with alphabet^K <= the book's row count, so
a table never holds more entries than the book has rows, and its build,
one trie step per chunk prefix, takes at least alphabet^K steps and at
most twice that.  A table is built only for an input of at least
alphabet^K items: the per-symbol walk of a shorter input takes fewer trie
steps than the build.  Once built, every later input of that book reads
it, however short, so the digit-flip trials on a book that has streamed
encode and decode through its tables.  The per-symbol loop still reads an
open word, the tail shorter than K, and every chunk the table has no
entry for, so bad symbols, dead branches and errors behave exactly as
without tables.

Each table entry of both halves also carries what the words it completes
give, as one joined piece, so one lookup hands the output one item.  An
encoder entry holds their codewords as one `str`; `encode` joins those
pieces, and the codewords the per-symbol loop finishes, into its digits.
A decoder entry holds their symbols as one `bytes` (for alphabets of at
most 255 symbols); `decode_message` chains those pieces, and the few
words the digit loop finishes, into its symbol list, so a trie-decoded
stream never builds its list of words.  The encoder reads a list or tuple
message as `bytes` through one `bytearray`, about twice as fast as
`bytes()` on a list, as measured on CPython 3.11.7 only (3.10, 3.12 and
3.13 were not measured).  One table walk and one digit loop
(`_trie_decode`) serve `decode_words`, the experiment's tolerant decoder
and `decode_message`.  Uniform-length codes decode chunk by chunk into
words, one per codeword, as before.

Each book carries one parse state (`CodeBook._parse`), in two halves
built on first use and then kept: `_WordParse` for encoding (the word
trie, after its prefix and completeness checks, the pad symbol, K and the
chunk table) and `_CodewordParse` for decoding (the codeword dict or
trie, K and the chunk table).  Every `Encoder`, `encode_message`,
`decode_words`, `decode_message` and `sync_error_experiment` call on one
book shares them, so a trie or table is built once per book, not once per
call.  A half whose checks fail is not kept, so each call raises again.

The synchronization experiment flips one output digit and compares decoded
word sequences: uniform-length codes are structurally confined to one
damaged word, while variable-length codes can lose synchronization for a
stretch that the experiment measures.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Iterable, TypeVar

from .codebook import CodeBook
from .errors import DecodeError, InputError, ValidationError, require_int
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


def _chunk_width(alphabet: int, rows: int) -> int:
    """The table width K: the largest K >= 1 with alphabet**K <= rows."""
    width = 1
    while alphabet ** (width + 1) <= rows:
        width += 1
    return width


def _build_table(root: dict, keys: list[tuple], width: int, join=None) -> dict:
    """Chunk table over a trie: one entry per `width`-key chunk that parses.

    `keys` pairs each trie key with its one-key chunk (a 1-byte `bytes` or
    a 1-character `str`); chunks are their concatenations.  A chunk that
    meets a dead branch has no entry.  An entry is (the tuple of values
    completed inside the chunk, keys read up to the end of the last of
    them, the longest of them in keys, the node the chunk ends at, and
    with `join` those values as one piece, `join(values)`, else None).
    The encoder joins its codewords with `"".join`, the decoder the
    symbols of its words with `bytes(chain(*values))`.  When none
    completes, the count is 0 and the walk goes on from that node.  Built
    level by level, each chunk prefix is one trie step.
    """
    # (chunk, node, done, used, longest), from the empty chunk of the
    # chunks' type
    level = [(keys[0][1][:0], root, (), 0, 0)]
    for depth in range(1, width + 1):
        grown = []
        for chunk, node, done, used, longest in level:
            for key, piece in keys:
                child = node.get(key)
                if child is None:
                    continue
                if type(child) is dict:
                    grown.append((chunk + piece, child, done, used, longest))
                else:
                    span = max(longest, depth - used)
                    grown.append((chunk + piece, root, (*done, child), depth, span))
        level = grown
    return {
        chunk: (done, used, longest, node, join(done) if join else None)
        for chunk, node, done, used, longest in level
    }


def _table_walk(
    table: dict, width: int, data, longest: int, joined: bool = False
) -> tuple[list, int, int]:
    """Parse whole words of `data` from the trie root, a chunk at a time.

    Returns the completed values, the number of keys they span and the
    longest word seen (`longest` or more).  With `joined`, each entry that
    completes values gives its one joined piece (codewords as one `str`,
    or symbols as one `bytes`) instead of its values.  A word longer than
    a chunk is finished key by key from the node its chunk ends at, and is
    given as its value.  The walk stops at the start of the word where a
    chunk has no entry, the data ends or a key is no trie key, so the
    caller's per-key loop reads the rest.  Data shorter than a chunk reads
    no entry.
    """
    get = table.get
    out: list = []
    extend = out.extend
    append = out.append
    pos = 0
    stop = len(data) - width
    while pos <= stop:
        entry = get(data[pos : pos + width])
        if entry is None:
            break
        done, used, span, node, piece = entry
        if used:
            if joined:
                append(piece)
            else:
                extend(done)
        else:
            end = pos + width
            try:
                while type(node) is dict:
                    node = node[data[end]]
                    end += 1
            except (KeyError, IndexError):
                break
            append(node)
            used = span = end - pos
        if span > longest:
            longest = span
        pos += used
    return out, pos, longest


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


class _WordParse:
    """The encoding half of a book's parse state.

    `root` is the word trie, its leaves the codewords; `pad_symbol` the
    most probable symbol; `width` the chunk width K over the m symbols;
    `table` the chunk table, None until a message of at least m^K symbols
    needs it; each entry's piece is its codewords joined into one `str`.
    """

    __slots__ = ("root", "pad_symbol", "width", "table")

    def __init__(self, book: CodeBook) -> None:
        model = book.model
        self.root = _build_trie(zip(book.words, book.codewords), "words")
        _check_parse_complete(book, self.root)
        self.pad_symbol = max(range(model.m), key=model.probs.__getitem__) + 1
        self.width = _chunk_width(model.m, len(book.words))
        self.table: dict | None = None


class _CodewordParse:
    """The decoding half of a book's parse state.

    `uniform` is the one codeword length, or None when lengths differ;
    `root` is then the codeword -> word dict, or else the codeword trie,
    its leaves the words.  `glyphs` are the n digits, `width` the chunk
    width K over them and `table` the trie's chunk table, None until a
    stream of at least n^K digits needs it.  `pieces` is True for a trie
    over at most 255 symbols: each table entry then also holds the
    symbols of the words it completes as one `bytes`, so `decode_message`
    chains those pieces into symbols and builds no list of words.
    """

    __slots__ = ("uniform", "root", "glyphs", "width", "table", "pieces")

    def __init__(self, book: CodeBook) -> None:
        lengths = set(map(len, book.codewords))
        pairs = zip(book.codewords, book.words)
        if len(lengths) == 1:
            (self.uniform,) = lengths
            self.root = dict(pairs)
        else:
            self.uniform = None
            self.root = _build_trie(pairs, "codewords")
        self.glyphs = DIGIT_GLYPHS[: book.model.arity]
        self.width = _chunk_width(len(self.glyphs), len(book.words))
        self.table: dict | None = None
        self.pieces = self.uniform is None and book.model.m <= 255


_Half = TypeVar("_Half", _WordParse, _CodewordParse)


def _parse_state(book: CodeBook, half: type[_Half]) -> _Half:
    """The book's `half` of its parse state, built on first use and kept.

    A half whose build raises is not kept, so the next call raises too.
    """
    state = book._parse
    parse = state.get(half)
    if parse is None:
        parse = state[half] = half(book)
    return parse


class Encoder:
    """Greedy streaming encoder.

    Feed symbols one at a time, or a whole message to `encode`; digits come
    out as soon as a word completes.  Both run one trie walk, `_walk`.  The
    number of buffered symbols never exceeds the longest word.  After
    `finish` the encoder is back at the root, ready for the next message.

    The word trie, pad symbol and chunk table are the book's
    (`_WordParse`), shared by every encoder of that book; of its own, an
    encoder holds only its cursor (`_node`, `_pending`) and `max_pending`.

    `encode` reads a message started at the root K symbols per table
    lookup first (see the module docstring): a list, tuple, `bytes` or
    `bytearray` of symbols, when m <= 255 and `bytes()` takes it.  Each
    lookup that completes words gives their codewords as one `str`.  The
    table is built on the book's first message of at least m^K symbols and
    kept; from then on every message of the book reads it, however short.
    `_walk` reads whatever the table does not, so digits, pads,
    `max_pending` and errors are those of the per-symbol walk.
    """

    def __init__(self, book: CodeBook) -> None:
        self.book = book
        self._parse = _parse_state(book, _WordParse)
        self._node = self._parse.root
        self._pending = 0
        self.max_pending = 0

    def _walk(self, symbols: Iterable[int]) -> list[str]:
        """Parse `symbols` on from the current node; return the codewords.

        The one per-symbol loop.  `start` counts the symbols read before the
        open word began (negative when it began before this call), so the
        pending count and `max_pending` are settled once per word.  A symbol
        that is no trie key (outside 1..m, or not a number) raises
        InputError with the node and pending count left as they were.
        """
        root = self._parse.root
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

    def _chunk_walk(self, symbols) -> tuple[list[str], Iterable[int]]:
        """Encode the message's whole words by table, from the root.

        Returns the codeword pieces, one joined `str` per table lookup that
        completes words, and the symbols left for `_walk`: all of them when
        the table does not apply.  A list or tuple becomes `bytes` through
        a `bytearray`, which takes the same values as `bytes()` and raises
        the same errors, in about half the time (measured on CPython 3.11.7
        only).  The book's table is built on its first message of at least
        m^K symbols; once built, every message reads it, however short.
        """
        parse = self._parse
        m = self.book.model.m
        kind = type(symbols)
        if (
            self._node is not parse.root
            or m > 255
            or kind not in (list, tuple, bytes, bytearray)
            or (parse.table is None and len(symbols) < m**parse.width)
        ):
            return [], symbols
        try:
            data = bytes(bytearray(symbols) if kind in (list, tuple) else symbols)
        except (TypeError, ValueError):
            return [], symbols
        if parse.table is None:
            keys = [(s, bytes((s,))) for s in range(1, m + 1)]
            parse.table = _build_table(parse.root, keys, parse.width, "".join)
        parts, used, self.max_pending = _table_walk(
            parse.table, parse.width, data, self.max_pending, joined=True
        )
        return parts, symbols[used:]

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
            digits = self.feed(self._parse.pad_symbol)
            pads += 1
        return digits, pads

    def encode(self, symbols: list[int], pad: bool = True) -> tuple[str, int]:
        """Encode a whole message and finish it; returns (digits, pad count).

        On any error the encoder drops the partial word and goes back to
        the root, so the next message starts clean.
        """
        try:
            parts, rest = self._chunk_walk(symbols)
            parts += self._walk(rest)
            tail, pads = self.finish(pad=pad)
        except BaseException:
            self._node = self._parse.root
            self._pending = 0
            raise
        parts.append(tail)
        return "".join(parts), pads


def encode_message(
    book: CodeBook, symbols: list[int], pad: bool = True
) -> tuple[str, int]:
    """Encode a whole message; returns (digit string, pad symbol count)."""
    return Encoder(book).encode(symbols, pad)


def _uniform_decode(parse: _CodewordParse, digits: str) -> list[Word | None]:
    """The words of fixed-size chunks of `digits`; each bad chunk (a short
    last one too) is one None."""
    root, size = parse.root, parse.uniform
    return [root.get(digits[i : i + size]) for i in range(0, len(digits), size)]


def _trie_decode(parse: _CodewordParse, digits: str, joined=False) -> tuple:
    """Decode `digits` through the codeword trie: one table walk, then the
    digit loop.  Returns (out, stuck).

    A `str` is read K digits per table lookup first (see the module
    docstring): the table is built on the book's first stream of at least
    n^K digits and kept, and from then on every stream of the book reads
    it, however short.  The digit loop reads the rest, from the first
    codeword the table has no entry for, so bad digits and tails decode as
    they do digit by digit.  `out` holds the decoded words; with `joined`
    (which needs `parse.pieces`) each table entry that completes words
    gives its symbol piece in their place, so chained `out` gives the same
    symbols either way.  `stuck` is None when the stream ends on a
    codeword boundary.  At a dead branch or a dangling tail it is (the
    digits the table walk read, the index in `out` of the digit loop's
    first word), which places the codeword that failed.
    """
    root = parse.root
    out: list = []
    used = 0
    if isinstance(digits, str) and (
        parse.table is not None or len(digits) >= len(parse.glyphs) ** parse.width
    ):
        if parse.table is None:
            keys = [(c, c) for c in parse.glyphs]
            join = (lambda words: bytes(chain(*words))) if parse.pieces else None
            parse.table = _build_table(root, keys, parse.width, join)
        out, used, _ = _table_walk(parse.table, parse.width, digits, 0, joined)
        digits = digits[used:]
    first = len(out)
    append = out.append
    node = root
    for ch in digits:
        nxt = node.get(ch)
        if nxt is None:
            return out, (used, first)
        if isinstance(nxt, tuple):
            append(nxt)
            node = root
        else:
            node = nxt
    return out, (None if node is root else (used, first))


def _decoder(book: CodeBook) -> Callable[[str], list[Word | None]]:
    """A decoder over the book's `_CodewordParse` that maps bad units to None.

    For uniform-length codes each bad chunk (a short last one too) is one
    None.  For general codes a dead branch or dangling tail turns the rest
    of the stream into a single None, as a real decoder loses sync.
    """
    parse = _parse_state(book, _CodewordParse)
    if parse.uniform is not None:
        return lambda digits: _uniform_decode(parse, digits)

    def decode_trie(digits: str) -> list[Word | None]:
        out, stuck = _trie_decode(parse, digits)
        if stuck is not None:
            out.append(None)
        return out

    return decode_trie


def _decode_error(book: CodeBook, digits: str, pos: int) -> DecodeError:
    """The error for an undecodable codeword that starts at digit `pos`."""
    width = max(map(len, book.codewords))
    return DecodeError(
        f"no codeword matches the digits at position {pos}: "
        f"{digits[pos : pos + width]!r}"
    )


def _strict_trie_decode(
    book: CodeBook, parse: _CodewordParse, digits: str, joined: bool
) -> list:
    """`_trie_decode`'s `out`, or its failed codeword's DecodeError."""
    out, stuck = _trie_decode(parse, digits, joined)
    if stuck is None:
        return out
    used, first = stuck
    lengths = dict(zip(book.words, map(len, book.codewords)))
    raise _decode_error(book, digits, used + sum(lengths[w] for w in out[first:]))


def decode_words(book: CodeBook, digits: str) -> list[Word]:
    """Strict decode of a digit stream into source words.

    Raises DecodeError, naming the digit position where the first
    undecodable codeword starts, on an impossible digit or when the stream
    ends in the middle of a codeword.
    """
    parse = _parse_state(book, _CodewordParse)
    if parse.uniform is None:
        return _strict_trie_decode(book, parse, digits, False)
    words = _uniform_decode(parse, digits)
    if None in words:
        raise _decode_error(book, digits, words.index(None) * parse.uniform)
    return words


def decode_message(book: CodeBook, digits: str, pad_count: int = 0) -> list[int]:
    """Decode digits to symbols, trimming `pad_count` padding symbols.

    Where the book's decoder table carries symbol pieces (a codeword trie
    over at most 255 symbols), a long stream builds no list of words: the
    table walk gives one `bytes` of symbols per chunk, and one `chain` over
    those pieces and the few words read digit by digit makes the symbol
    list.  Other books flatten `decode_words`.  Errors are those of
    `decode_words`.
    """
    require_int(pad_count=pad_count)
    if pad_count < 0:
        raise InputError(f"pad count must be >= 0, got {pad_count}")
    parse = _parse_state(book, _CodewordParse)
    if parse.pieces:
        pieces = _strict_trie_decode(book, parse, digits, True)
    else:
        pieces = decode_words(book, digits)
    symbols = list(chain.from_iterable(pieces))
    if pad_count:
        if pad_count > len(symbols):
            raise DecodeError(
                f"cannot trim {pad_count} padding symbols from "
                f"{len(symbols)} decoded symbols"
            )
        del symbols[len(symbols) - pad_count :]
    return symbols


def sample_symbols(model: SourceModel, rng: random.Random, count: int) -> list[int]:
    """Draw `count` independent symbols with the model's probabilities;
    raises InputError for a negative count."""
    require_int(count=count)
    if count < 0:
        raise InputError(f"count must be >= 0, got {count}")
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
    require_int(trials=trials, message_len=message_len)
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
