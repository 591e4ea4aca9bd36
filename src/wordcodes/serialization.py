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

from .codebook import CodeBook, _validate
# Unused here, but perfbench's tracer wraps validate_codebook in every module
# that imports it, and its self-tests expect to find it in this one.
from .codebook import validate_codebook  # noqa: F401
from .errors import InputError
from .source_model import SourceModel, Word, make_model, word_probabilities

FORMAT_TAG = "wordcodes-book/1"


def book_to_json(book: CodeBook) -> str:
    """The book file: `json.dumps(payload, sort_keys=True, indent=2)` + "\\n".

    The header goes through `json.dumps`; the rows of "words", which sorts
    last, are laid out here around strings quoted by the C encoder that
    `json.dumps(str)` calls, in the same bytes.  With single-character
    ASCII labels all word texts come from one `bytes.translate`
    (`SourceModel.texts_from_words`); otherwise each text is
    `SourceModel.word_to_text`, which raises InputError for a symbol
    outside 1..m (`validate_codebook` rejects such a book).
    """
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
    texts = model.texts_from_words(book.words)
    if texts is None:
        texts = map(model.word_to_text, book.words)
    quote = encode_basestring_ascii
    row = '    {{\n      "codeword": {},\n      "symbols": {}\n    }}'.format
    rows = ",\n".join(
        map(
            row,
            map(quote, book.codewords),
            map(quote, texts),
        )
    )
    words = f"[\n{rows}\n  ]" if rows else "[]"
    return f"{text[:-4]}{words}\n}}\n"


def book_from_json(text: str) -> CodeBook:
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
        provenance = data.get("provenance") or {}
        if not isinstance(provenance, dict):
            raise InputError(
                "malformed code book file: provenance is not an object"
            )
        model = make_model(data["probs"], arity, labels=list(data["alphabet"]))
        words, codewords = _read_rows(model, data["words"])
        book = CodeBook(
            model=model,
            kind=data["kind"],
            words=words,
            codewords=codewords,
            probabilities=word_probabilities(model, words),
            provenance=dict(provenance),
        )
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed code book file: {exc}") from exc
    del data, words, codewords  # the book holds what validation reads
    # every stored probability was just computed from the model
    _validate(book, against_model=False)
    return book


def _read_rows(model: SourceModel, rows) -> tuple[list[Word], list[str]]:
    """The words and codewords of the file's "words" rows, in order.

    Read in C-level passes.  If a row is not an object with string
    "symbols" and "codeword", the rows are read again one at a time, which
    raises for the first bad row.
    """
    try:
        texts = list(map(itemgetter("symbols"), rows))
        codewords = list(map(itemgetter("codeword"), rows))
        if all(map(isinstance, chain(texts, codewords), repeat(str))):
            return model.words_from_texts(texts), codewords
    except (KeyError, TypeError):
        pass
    words, codewords = [], []
    for row in rows:
        symbols, codeword = row["symbols"], row["codeword"]
        if not (isinstance(symbols, str) and isinstance(codeword, str)):
            raise InputError(f"malformed code book file: row {row!r}")
        words.append(model.word_from_text(symbols))
        codewords.append(codeword)
    return words, codewords


def save_book(book: CodeBook, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(book_to_json(book))


def load_book(path: str) -> CodeBook:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InputError(f"not a code book file: {exc}") from exc
    return book_from_json(text)
