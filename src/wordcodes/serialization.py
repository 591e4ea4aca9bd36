"""Code book files: a small deterministic JSON format.

The file stores the source model (labels, arity, probability spellings),
the kind of code, the word-to-codeword map, and the construction's
provenance.  Probabilities are kept as their original decimal or ratio
spellings so a round trip reproduces the model exactly, and serialization
uses sorted keys so equal books produce byte-identical files.
"""

from __future__ import annotations

import json

from .codebook import CodeBook, CodeEntry, _validate
# Unused here, but perfbench's tracer wraps validate_codebook in every module
# that imports it, and its self-tests expect to find it in this one.
from .codebook import validate_codebook  # noqa: F401
from .errors import InputError
from .source_model import make_model, word_probability

FORMAT_TAG = "wordcodes-book/1"


def book_to_json(book: CodeBook) -> str:
    """The book file: `json.dumps(payload, sort_keys=True, indent=2)` + "\\n".

    The header goes through `json.dumps`; the rows of "words", which sorts
    last, are laid out here around C-encoded strings, in the same bytes.
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
    rows = ",\n".join(
        f'    {{\n      "codeword": {json.dumps(e.codeword)},\n'
        f'      "symbols": {json.dumps(model.word_to_text(e.word))}\n    }}'
        for e in book.entries
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
        entries = []
        for row in data["words"]:
            symbols, codeword = row["symbols"], row["codeword"]
            if not (isinstance(symbols, str) and isinstance(codeword, str)):
                raise InputError(f"malformed code book file: row {row!r}")
            word = model.word_from_text(symbols)
            entries.append(
                CodeEntry(
                    word=word,
                    codeword=codeword,
                    probability=word_probability(model, word),
                )
            )
        book = CodeBook(
            model=model,
            kind=data["kind"],
            entries=tuple(entries),
            provenance=dict(provenance),
        )
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed code book file: {exc}") from exc
    # every stored probability was just computed from the model
    _validate(book, against_model=False)
    return book


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
