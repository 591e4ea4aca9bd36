"""Fresh books against the model: carried products, metrics, validation.

A fresh VF or VV book takes each word's probability from the product its
enumerator carried down the walk, and its metrics from the walk's forms
(`analysis.metrics_from_classes`, one row per word).  These tests hold both to the model-side
references: `word_probabilities` bit for bit (`float.hex`), and
`code_metrics(book)`, which rebuilds every profile and form, field for field
(`repr`).  Validation reads words as bytes keys; it must reject every
faulty book with the error a copy of the tuple-and-slice checks raises.
"""

from __future__ import annotations

import dataclasses
import math
import random
import time
from array import array
from fractions import Fraction
from itertools import chain, repeat
from operator import gt, sub

import pytest

from conftest import book_from_entries, entries_of, reference_read_book
from lattice_helpers import word_rows
from wordcodes import cli, vf_construct
from wordcodes.analysis import code_metrics
from wordcodes.codebook import (
    PROB_CONSISTENCY_TOL,
    CodeBook,
    CodeEntry,
    _validate,
    format_digits,
    validate_codebook,
)
from wordcodes.errors import (
    InputError,
    ResourceError,
    ValidationError,
    WordCodesError,
)
from wordcodes.serialization import book_from_json, book_to_json
from wordcodes.source_model import (
    DIGIT_GLYPHS,
    make_model,
    word_probabilities,
    word_probability,
)
from wordcodes.vf_construct import construct_block, construct_vf
from wordcodes.vv_construct import (
    _joint_dp,
    build_threshold_sets,
    construct_vv,
)
from wordcodes.word_sets import (
    EmptyRule,
    NodeClassifier,
    WindowRule,
    enumerate_words,
    lattice_metrics,
)


def _hex(values) -> list[str]:
    return list(map(float.hex, values))


def _random_model(rng: random.Random, m: int, arity: int):
    weights = [rng.randint(1, 20) for _ in range(m)]
    total = sum(weights)
    return make_model([Fraction(w, total) for w in weights], arity)


def _assert_fresh_book(book, metrics) -> None:
    """The book's stored probabilities are the model's products, and its
    metrics are those `code_metrics` rebuilds from the model."""
    words = list(book.words)
    stored = list(book.probabilities)
    assert _hex(stored) == _hex(word_probabilities(book.model, words))
    assert repr(metrics) == repr(code_metrics(book))


# -- carried products -------------------------------------------------------


def _plain(classify):
    """The classifier as a plain callable, as rules a `NodeClassifier`
    cannot hold are walked."""
    return lambda k: classify(k)


def test_both_enumerators_carry_the_model_products():
    """The enumerator, under a `NodeClassifier` and under a plain callable
    (taken classes, boundary splits, the swapped classifier and VF
    windows), hands back one product per word, equal to
    `word_probabilities` bit for bit."""
    rng = random.Random(61)
    seen = set()
    for case in range(12):
        m = (2, 2, 3, 4)[case % 4]
        model = _random_model(rng, m, 2 + case % 2)
        T = rng.randint(3, 5)
        cap = T * T
        set_low, set_high = build_threshold_sets(model, T, cap)
        classify = NodeClassifier(set_low.rule, set_high.rule)
        tables = _joint_dp(model, classify, cap, 10**6)
        classes = [k for _, k, _ in tables.classes]
        taken = set(classes[1:3])
        boundary = (classes[0], 1) if classes else None
        d_max = max(model.d)
        L = math.ceil(d_max) + 2
        window = NodeClassifier(
            WindowRule(model.d, L - d_max, float(L)), EmptyRule()
        )
        walks = [
            (classify, cap, (), None),
            (classify, cap, taken, boundary),
            (classify.second_as_both(), cap, (), None),
            (window, int((L - d_max) / min(model.d)) + 2, (), None),
        ]
        for walk, walk_cap, walk_taken, walk_boundary in walks:
            table = lattice_metrics(
                model, walk, walk_cap, 10**6, walk_taken, walk_boundary
            )
            count = table.word_count
            for drive in (walk, _plain(walk)):
                try:
                    items = enumerate_words(model, drive, table, 20000)
                except ResourceError:
                    # the limit trips on the DP's count, before the walk
                    assert count > 20000
                    seen.add("limit")
                    continue
                assert len(items) == count
                rows = word_rows(items)
                words = [word for word, _, _, _ in rows]
                probs = [p for _, _, _, p in rows]
                assert _hex(probs) == _hex(word_probabilities(model, words))
                seen.add((m, walk_boundary is not None))
    assert {(m, b) for m in (2, 3, 4) for b in (False, True)} <= seen


# -- fresh VF books ---------------------------------------------------------


def test_fresh_vf_books_match_the_model_references():
    """Seeded VF books for m = 2, 3 and 4, below the window (fallback)
    and inside it."""
    rng = random.Random(71)
    seen = set()
    for case in range(12):
        m = 2 + case % 3
        model = _random_model(rng, m, 2 + case % 2)
        d_max = max(model.d)
        floor = max(1, math.ceil(math.log(m, model.arity)))
        for L in range(floor, math.ceil(d_max) + 3):
            result = construct_vf(model, L)
            _assert_fresh_book(result.book, result.metrics)
            seen.add((m, result.fallback))
    assert seen == {(m, f) for m in (2, 3, 4) for f in (False, True)}


# -- fresh VV books ---------------------------------------------------------


def test_fresh_vv_books_match_the_model_references():
    """Seeded VV books on the base, extended and swapped paths, with
    canonical and Huffman codewords; the extended builds take whole
    classes and split one at the boundary."""
    rng = random.Random(5)
    seen = set()
    for _ in range(14):
        m = rng.choice((2, 2, 3, 4))
        weights = [rng.randint(1, 20) for _ in range(m)]
        total = sum(weights)
        model = make_model(
            [Fraction(w, total) for w in weights], rng.choice((2, 3))
        )
        T = rng.randint(2, 6)
        for assignment in ("canonical", "huffman"):
            try:
                result = construct_vv(
                    model, T=T, assignment=assignment, enum_limit=3000
                )
            except WordCodesError:
                continue
            _assert_fresh_book(result.book, result.book_metrics)
            taken = result.provenance["classes_added"] > 1
            split = result.provenance["boundary_words"] is not None
            seen.add((result.path, assignment, taken, split))
    for assignment in ("canonical", "huffman"):
        assert {
            ("base", assignment, False, False),
            ("swapped", assignment, False, False),
            ("extended", assignment, True, True),
        } <= seen


# -- validation: bytes keys against the tuple-and-slice checks --------------


def reference_symbols_in_range(words, m: int) -> bool:
    symbols = chain.from_iterable(words)
    try:
        if m < 256:
            return not bytes(symbols).translate(None, bytes(range(1, m + 1)))
        codes = array("q", symbols)
    except (TypeError, ValueError, OverflowError):
        return False
    return not codes or (min(codes) >= 1 and max(codes) <= m)


def reference_validate(book: CodeBook, against_model: bool) -> None:
    """A frozen copy of the tuple-and-slice validation that the bytes-key
    passes replaced: the symbol range read from the flattened words, and
    prefixes found by slicing each neighbour in the sorted tuples."""
    model = book.model
    m, n = model.m, model.arity
    if book.kind not in ("vv", "vf", "block"):
        raise ValidationError(f"unknown book kind {book.kind!r}")
    if not book.words:
        raise ValidationError("a code book needs at least one entry")
    words = list(book.words)
    codewords = list(book.codewords)
    try:
        ok = (
            all(words)
            and all(codewords)
            and reference_symbols_in_range(words, m)
            and not "".join(codewords)
            .encode("ascii", "replace")
            .translate(None, DIGIT_GLYPHS[:n].encode("ascii"))
        )
        if ok and against_model:
            drift = map(
                abs,
                map(
                    sub,
                    word_probabilities(model, words),
                    book.probabilities,
                ),
            )
            ok = not any(map(gt, drift, repeat(PROB_CONSISTENCY_TOL)))
    except TypeError:
        ok = False
    if not ok:
        glyphs = set(DIGIT_GLYPHS[:n])
        for e in entries_of(book):
            if not e.word:
                raise ValidationError("the empty word cannot be a code word")
            if not reference_symbols_in_range((e.word,), m):
                raise ValidationError(
                    f"word {e.word!r} uses symbols outside 1..{m}"
                )
            if not e.codeword:
                raise ValidationError(f"word {e.word!r} has an empty codeword")
            if not set(e.codeword) <= glyphs:
                raise ValidationError(
                    f"codeword {e.codeword!r} uses digits outside base {n}"
                )
            if not against_model:
                continue
            expect = word_probability(model, e.word)
            if abs(expect - e.probability) > PROB_CONSISTENCY_TOL:
                raise ValidationError(
                    f"stored probability {e.probability!r} for word "
                    f"{e.word!r} disagrees with the model ({expect!r})"
                )
    for items, what in ((words, "input word"), (codewords, "codeword")):
        ordered = sorted(items)
        for a, b in zip(ordered, ordered[1:]):
            if b[: len(a)] == a:
                if len(b) == len(a):
                    raise ValidationError(f"duplicate {what} {a!r}")
                raise ValidationError(
                    f"{what} {b!r} extends shorter {what} {a!r}"
                )
    if book.kind in ("vf", "block"):
        lengths = set(map(len, codewords))
        if len(lengths) != 1:
            raise ValidationError(
                f"{book.kind} books need uniform codeword length, got {lengths}"
            )
    if book.kind == "block":
        word_lengths = set(map(len, words))
        if len(word_lengths) != 1:
            raise ValidationError(
                f"block books need uniform word length, got {word_lengths}"
            )
    kraft = sum(Fraction(1, m ** len(w)) for w in words)
    if kraft != 1:
        raise ValidationError(
            f"the input word set is not complete: its Kraft sum over {m} "
            f"symbols is {kraft}"
        )
    if book.kraft_exact() > 1:
        raise ValidationError(
            f"Kraft sum {book.kraft_exact()} exceeds 1; not decodable"
        )


def _outcome(check, *args):
    try:
        check(*args)
    except Exception as exc:  # noqa: BLE001 - the type is compared
        return type(exc).__name__, str(exc)
    return None


def _books_for_validation():
    """(m, book): fresh VV and VF books for m = 2 and 3, a one-symbol
    book over 300 symbols, and a block book for m = 3."""
    m300 = 300
    wide = make_model(
        [Fraction(1, m300)] * m300,
        36,
        labels=[chr(0x100 + i) for i in range(m300)],
    )
    wide_book = book_from_entries(
        wide,
        "vv",
        (
            CodeEntry(
                word=(i,),
                codeword=format_digits(i - 1, 36, 2),
                probability=1 / m300,
            )
            for i in range(1, m300 + 1)
        ),
    )
    return [
        (2, construct_vv(make_model(["0.2", "0.8"], 2), T=4).book),
        (2, construct_vf(make_model(["0.4", "0.6"], 2), 6).book),
        (3, construct_vf(make_model(["0.2", "0.3", "0.5"], 2), 5).book),
        (3, construct_vv(make_model(["0.2", "0.3", "0.5"], 3), T=3).book),
        (m300, wide_book),
        (3, construct_block(3, 2, 5, 8).book),
    ]


def _fault(rng: random.Random, book: CodeBook, m: int, fault: str):
    entries = entries_of(book)
    at = rng.randrange(len(entries))
    e = entries[at]
    if fault == "duplicate":
        other = entries[(at + 1) % len(entries)]
        entries[at] = dataclasses.replace(e, word=other.word)
    elif fault == "extension":
        other = entries[(at + 1) % len(entries)]
        entries[at] = dataclasses.replace(e, word=other.word + (1,))
    elif fault == "codeword extension":
        other = entries[(at + 1) % len(entries)]
        entries[at] = dataclasses.replace(
            e, codeword=other.codeword + DIGIT_GLYPHS[0]
        )
    elif fault == "empty":
        entries[at] = dataclasses.replace(e, word=())
    elif fault == "codeword length":
        entries[at] = dataclasses.replace(
            e, codeword=e.codeword + DIGIT_GLYPHS[0]
        )
    elif fault == "word length":
        entries[at] = dataclasses.replace(e, word=e.word + (1,))
    else:
        symbol = {
            "0": 0, "m+1": m + 1, "255": 255, "256": 256, "-1": -1,
            "1.5": 1.5, "True": True, "label": "a",
        }[fault]
        word = list(e.word)
        word[rng.randrange(len(word))] = symbol
        entries[at] = dataclasses.replace(e, word=tuple(word))
    return book_from_entries(book.model, book.kind, entries, book.provenance)


FAULTS = [
    "duplicate", "extension", "codeword extension", "empty",
    "0", "m+1", "255", "256", "-1", "1.5", "True", "label",
    "codeword length", "word length",
]


def test_validation_rejects_faulty_books_as_the_tuple_checks_do():
    """Seeded faulty books at m = 2, 3 and 300, of each kind: the
    bytes-key passes and the tuple-and-slice reference give the same
    outcome, error type and message included, with and without the model
    check.  Each faulty book the writer accepts is also written and
    loaded: the loader, which validates the `bytes` it split from the
    file, gives the reference's outcome on the rows read back one at a
    time."""
    rng = random.Random(2718)
    rejected = set()
    reasons = set()
    reloaded = set()
    for m, book in _books_for_validation():
        assert _outcome(_validate, book, True) is None
        for fault in FAULTS:
            for _ in range(3):
                bad = _fault(rng, book, m, fault)
                for against_model in (True, False):
                    got = _outcome(_validate, bad, against_model)
                    assert got == _outcome(
                        reference_validate, bad, against_model
                    ), (m, fault)
                    if got is not None:
                        rejected.add((m, fault))
                        reasons.add(got[1].split(", got")[0])
                # the same book through a file, where the writer keeps the
                # fault: the loader's split `bytes` against the reference
                try:
                    text = book_to_json(bad)
                except InputError:
                    continue
                got = _outcome(book_from_json, text)
                assert got == _outcome(
                    reference_validate, reference_read_book(text), False
                ), (m, fault)
                if got is not None:
                    reloaded.add((m, fault))
    # True reads as symbol 1, and 255 or 256 are in range for m = 300, so
    # those books may pass; a longer codeword or word breaks only a vf or
    # block book; every other fault is caught at every m
    lengths = {"codeword length", "word length"}
    for m in (2, 3, 300):
        for fault in set(FAULTS) - {"True", "255", "256"} - lengths:
            assert (m, fault) in rejected
    assert (2, "256") in rejected and (3, "255") in rejected
    assert {
        "vf books need uniform codeword length",
        "block books need uniform codeword length",
        "block books need uniform word length",
    } <= reasons
    # a symbol outside 1..m stops the writer; the other faults reach the
    # file and are refused by the loader
    for m in (2, 3, 300):
        for fault in ("duplicate", "extension", "codeword extension", "empty"):
            assert (m, fault) in reloaded
    assert (3, "word length") in reloaded and (300, "256") in reloaded


def test_validate_codebook_keeps_the_model_check():
    """A stored probability off the model is caught on fresh books, where
    nothing else recomputes it."""
    book = construct_vf(make_model(["0.4", "0.6"], 2), 5).book
    entries = entries_of(book)
    entries[3] = dataclasses.replace(
        entries[3], probability=entries[3].probability * (1 + 1e-6)
    )
    bad = book_from_entries(book.model, book.kind, entries, book.provenance)
    with pytest.raises(ValidationError, match="disagrees with the model"):
        validate_codebook(bad)


# -- VF walks that cannot finish --------------------------------------------


@pytest.mark.parametrize(
    "args",
    [
        ["--probs", "0.000001,0.999999", "--L", "30"],
        ["--probs", "0.4,0.6", "--arity", "3", "--L", "100000000"],
    ],
    ids=["skewed", "huge-L"],
)
def test_vf_walks_past_the_node_limit_fail_fast(args, capsys):
    start = time.perf_counter()
    code = cli.main(["construct-vf", *args])
    elapsed = time.perf_counter() - start
    assert code == 3
    assert "lattice DP visited more than 4000000 nodes" in capsys.readouterr().err
    assert elapsed < 1.0


def test_the_early_node_limit_error_is_the_walks_error(monkeypatch):
    """Where the early check raises, the walk would raise the same error;
    where the walk fits, the check stays silent, down to the exact node
    count.  Limits below the cap make the early check raise without a
    walk."""
    walks = []

    def counted(*args, **kwargs):
        walks.append(args)
        return lattice_metrics(*args, **kwargs)

    monkeypatch.setattr(vf_construct, "lattice_metrics", counted)
    rng = random.Random(99)
    early = 0
    for case in range(10):
        model = _random_model(rng, 2 + case % 3, 2)
        d_max = max(model.d)
        L = math.ceil(d_max) + rng.randint(0, 3)
        cap = int((L - d_max) / min(model.d)) + 2
        window = NodeClassifier(
            WindowRule(model.d, L - d_max, float(L)), EmptyRule()
        )
        visited = lattice_metrics(model, window, cap, 10**6).visited_nodes
        construct_vf(model, L, node_limit=visited)
        for limit in {visited - 1, cap - 2, cap // 2}:
            if limit >= visited:
                continue
            with pytest.raises(ResourceError) as walk:
                lattice_metrics(model, window, cap, limit)
            del walks[:]
            with pytest.raises(ResourceError) as raised:
                construct_vf(model, L, node_limit=limit)
            assert str(raised.value) == str(walk.value)
            early += not walks
    assert early
