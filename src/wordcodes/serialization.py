"""Code book files: a small deterministic JSON format.

The file stores the source model (labels, arity, probability spellings),
the kind of code, the word-to-codeword map, and the construction's
provenance.  Probabilities are kept as their original decimal or ratio
spellings so a round trip reproduces the model exactly, and serialization
uses sorted keys so equal books produce byte-identical files.
"""

from __future__ import annotations

import json
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from .codebook import CodeBook, _assert_columns_match, _validate, share_equal
# Unused here, but perfbench's tracer wraps validate_codebook in every module
# that imports it, and its self-tests expect to find it in this one.
from .codebook import validate_codebook  # noqa: F401
from .errors import InputError
from .source_model import SourceModel, Word, make_model, word_probabilities

FORMAT_TAG = "wordcodes-book/1"


def book_to_json(book: CodeBook) -> str:
    """The book file: `json.dumps(payload, sort_keys=True, indent=2)` + "\\n".

    The header goes through `json.dumps`; the rows of "words", which sorts
    last, are laid out here in the same bytes, by one `str.join` over one
    flat list of pieces: the header and a separator, then per row its
    codeword, the separator between codeword and text, its text and the
    separator to the next row, and the closing text.  A column goes
    through the C encoder that `json.dumps(str)` calls only where that
    encoder would change the column's join; otherwise its strings are
    written as they are, with their quotes in the separators.  With
    single-character ASCII labels all word texts come from one
    `bytes.translate` (`SourceModel.texts_from_words`); otherwise each text
    is `SourceModel.word_to_text`, which raises InputError for a symbol
    outside 1..m (`validate_codebook` rejects such a book).  A book whose
    columns differ in length is refused with ValidationError, as
    validation refuses it, rather than written as its shortest column.
    """
    _assert_columns_match(book)
    model = book.model
    header = {
        "format": FORMAT_TAG,
        "alphabet": list(model.labels),
        "arity": model.arity,
        "kind": book.kind,
        "probs": list(model.prob_labels),
        "provenance": book.provenance,
        "words": [],
    }
    text = json.dumps(header, sort_keys=True, indent=2)
    if not book.words:
        return text + "\n"
    texts = model.texts_from_words(book.words)
    if texts is None:
        texts = list(map(model.word_to_text, book.words))
    # A column the encoder leaves alone is written as it is, with its
    # quotes in the separators around it; the encoder escapes character by
    # character, so it leaves a column alone iff it leaves its join alone.
    quote = encode_basestring_ascii
    columns, marks = [], []
    for column in (book.codewords, texts):
        joined = "".join(column)
        raw = len(quote(joined)) == len(joined) + 2
        columns.append(column if raw else list(map(quote, column)))
        marks.append('"' if raw else "")
    del joined
    code, symbols = marks
    # (separator, codeword, separator, text) per row, the first separator
    # preceded by the header
    pieces = [
        f'{symbols}\n    }},\n    {{\n      "codeword": {code}',
        None,
        f'{code},\n      "symbols": {symbols}',
        None,
    ] * len(texts)
    pieces[0] = f'{text[:-4]}[\n    {{\n      "codeword": {code}'
    pieces[1::4], pieces[3::4] = columns
    pieces.append(f'{symbols}\n    }}\n  ]\n}}\n')
    return "".join(pieces)


def book_from_json(text: str) -> CodeBook:
    """The code book a book file holds, validated.

    A file that does not parse, or whose fields have the wrong type, is
    an InputError; a book that breaks the book contract is a
    ValidationError.  Every probability is computed from the model, so
    validation skips the model check, and equal probabilities share one
    float object (`share_equal`).  The rows are taken out of the parsed
    file, so `_read_rows` frees them as soon as it has their columns.
    Where the rows were read as `bytes` (`_read_rows`), validation sorts
    those same `bytes` for its range and prefix passes instead of
    rebuilding them from the words.
    """
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"not a code book file: {exc}") from exc
    if not isinstance(data, dict) or data.get("format") != FORMAT_TAG:
        raise InputError(
            f"not a code book file (expected format tag {FORMAT_TAG!r})"
        )
    try:
        arity = data["arity"]
        if not isinstance(arity, int):
            raise InputError(f"malformed code book file: arity {arity!r}")
        provenance = data.get("provenance", {})
        if not isinstance(provenance, dict):
            raise InputError(
                "malformed code book file: provenance is not an object"
            )
        kind = data["kind"]
        if not isinstance(kind, str):
            raise InputError(f"malformed code book file: kind {kind!r}")
        for key in ("alphabet", "probs", "words"):
            if not isinstance(data[key], list):
                raise InputError(
                    f"malformed code book file: {key} is not a list"
                )
        # make_model reads an empty label list as "default labels"
        if len(data["alphabet"]) != len(data["probs"]):
            raise InputError(
                f"malformed code book file: {len(data['alphabet'])} labels "
                f"for {len(data['probs'])} probabilities"
            )
        model = make_model(data["probs"], arity, labels=data["alphabet"])
        words, codewords, keys = _read_rows(model, data.pop("words"))
        book = CodeBook(
            model=model,
            kind=kind,
            words=words,
            codewords=codewords,
            probabilities=share_equal(word_probabilities(model, words)),
            provenance=dict(provenance),
        )
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed code book file: {exc}") from exc
    del data, words, codewords  # the book holds what validation reads
    # every stored probability was just computed from the model
    _validate(book, against_model=False, keys=keys)
    return book


def _read_rows(
    model: SourceModel, rows
) -> tuple[list[Word], list[str], list[bytes] | None]:
    """The words and codewords of the file's "words" rows, in order, and
    each word's symbols as one `bytes`, or None where they were not read
    so.

    Read in C-level passes.  With single-character ASCII labels the texts
    are split into `bytes` by one `bytes.translate` over their join
    (`SourceModel._symbol_bytes`), and each word is the tuple of its
    `bytes`; other labels, or a text with a character that is no label,
    take `SourceModel.word_from_text` per text, which names a bad label.
    Once every text and codeword is a string, a list of rows is emptied,
    so its row objects are freed before the words are built, and the
    texts go once they are split.  If a row is not an object with string
    "symbols" and "codeword", the rows are read again one at a time,
    which raises for the first bad row.
    """
    try:
        texts = list(map(itemgetter("symbols"), rows))
        codewords = list(map(itemgetter("codeword"), rows))
        if all(map(isinstance, chain(texts, codewords), repeat(str))):
            rows.clear()
            keys = model._symbol_bytes(texts)
            if keys is None:
                return list(map(model.word_from_text, texts)), codewords, None
            del texts
            return list(map(tuple, keys)), codewords, keys
    except (KeyError, TypeError):
        pass
    words, codewords = [], []
    for row in rows:
        symbols, codeword = row["symbols"], row["codeword"]
        if not (isinstance(symbols, str) and isinstance(codeword, str)):
            raise InputError(f"malformed code book file: row {row!r}")
        words.append(model.word_from_text(symbols))
        codewords.append(codeword)
    return words, codewords, None


def save_book(book: CodeBook, path: str) -> None:
    """Write the book file to `path`.

    The text is built before the file is opened, so a book the writer
    refuses leaves a file already at `path` as it was.
    """
    text = book_to_json(book)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_book(path: str) -> CodeBook:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InputError(f"not a code book file: {exc}") from exc
    return book_from_json(text)
