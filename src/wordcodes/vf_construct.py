"""Variable-to-fixed and block code construction.

The variable-to-fixed construction parses the source into words whose
probabilities all lie in [n^-L, n^-(L - max d)), then maps each word to one
of the n^L output strings of length L.  Stopping at the first prefix whose
linear form exceeds L - max(d) guarantees both edges: the form cannot
overshoot L because one symbol adds at most max(d), and it exceeds the left
edge by construction.

Block codes handle the degenerate uniform case: all m^X input blocks of
length X map to distinct output strings of length L, with (X, L) read off
the upper continued-fraction convergents of log_n m so that the redundancy
decays like 1/X^2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import analysis
from .codebook import CodeBook, CodeEntry, fixed_codewords, validate_codebook
from .diophantine import convergents
from .errors import InfeasibleError, InputError, ResourceError, ValidationError
from .source_model import (
    SourceModel,
    Word,
    make_model,
    word_probability,
)
from .word_sets import (
    DEFAULT_ENUM_LIMIT,
    DEFAULT_NODE_LIMIT,
    EmptyRule,
    WindowRule,
    enumerate_words,
    lattice_metrics,
    node_classifier,
)

RATIONAL_LOG_TOL = 1e-12


@dataclass
class VFResult:
    """A constructed code with uniform codeword length L."""

    model: SourceModel
    L: int
    book: CodeBook
    metrics: "analysis.CodeMetrics"
    fallback: bool
    provenance: dict


def construct_vf(
    model: SourceModel,
    L: int,
    enum_limit: int = DEFAULT_ENUM_LIMIT,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> VFResult:
    """Build a code mapping source words to length-L output strings.

    Needs n^L >= m so every single symbol can be assigned a codeword.  When
    L >= max(-log_n p_i) the probability window applies and every word
    probability is at least n^-L; below that the construction degrades to
    the plain symbol-by-symbol map, which stays decodable but loses the
    window guarantee.
    """
    n = model.arity
    if L < 1:
        raise InputError(f"output length must be >= 1, got {L}")
    if enum_limit < 0:
        raise InputError(f"enumeration limit must be >= 0, got {enum_limit}")
    if n**L < model.m:
        raise InfeasibleError(
            f"{n}^{L} codewords cannot cover {model.m} symbols"
        )
    d_max = max(model.d)
    d_min = min(model.d)
    fallback = L < d_max
    if fallback:
        words: list[Word] = [(i,) for i in range(1, model.m + 1)]
        provenance: dict = {
            "mode": "single_symbol",
            "L": L,
            "reason": (
                f"L={L} is below max(-log_n p) = {d_max!r}; the probability "
                "window is empty"
            ),
        }
    else:
        cap = int((L - d_max) / d_min) + 2
        classify = node_classifier(
            WindowRule(model.d, L - d_max, float(L)), EmptyRule()
        )
        table = lattice_metrics(model, classify, cap, node_limit)
        words = [
            w for w, _, _ in enumerate_words(model, classify, cap, enum_limit)
        ]
        if len(words) != table.word_count:
            raise ValidationError(
                f"enumeration found {len(words)} words, DP counted "
                f"{table.word_count}"
            )
        if table.cap_mass != 0.0:
            raise ValidationError(
                "window parse was cut off by the length cap; the window "
                "bounds are inconsistent"
            )
        if abs(table.total_prob - 1.0) > 1e-9:
            raise ValidationError(
                f"window word set is not complete: mass {table.total_prob!r}"
            )
        if len(words) > n**L:
            raise ValidationError(
                "window word set exceeds the codeword space; the window "
                "bounds are inconsistent"
            )
        provenance = {
            "mode": "window",
            "L": L,
            "cap": cap,
            "window_lo": L - d_max,
            "window_hi": float(L),
        }

    by_prob = sorted(
        ((word_probability(model, w), w) for w in words),
        key=lambda pw: (-pw[0], pw[1]),
    )
    entries = tuple(
        CodeEntry(word=w, codeword=cw, probability=p)
        for (p, w), cw in zip(by_prob, fixed_codewords(n, L))
    )
    provenance["word_count"] = len(entries)
    book = CodeBook(
        model=model, kind="vf", entries=entries, provenance=dict(provenance)
    )
    validate_codebook(book)
    metrics = analysis.code_metrics(book)
    return VFResult(
        model=model,
        L=L,
        book=book,
        metrics=metrics,
        fallback=fallback,
        provenance=provenance,
    )


def find_block_parameters(
    input_size: int, arity: int, count: int = 3
) -> list[tuple[int, int]]:
    """Block lengths (X, L) with L/X approaching log_n m from above.

    Reads the upper convergents of the continued fraction of log_n m, so
    each pair satisfies X log_n m <= L <= X log_n m + 1/X and the redundancy
    L/X - log_n m is at most 1/X^2.  When the logarithm is rational the
    exact ratio is repeated at multiples.
    """
    if input_size < 2:
        raise InputError(f"input alphabet needs >= 2 blocks, got {input_size}")
    if arity < 2:
        raise InputError(f"output alphabet needs >= 2 digits, got {arity}")
    if count < 1:
        raise InputError(f"count must be >= 1, got {count}")
    target = math.log(input_size) / math.log(arity)
    pairs: list[tuple[int, int]] = []
    for p, q in convergents(target):
        if p / q < target:
            continue
        if abs(p / q - target) <= RATIONAL_LOG_TOL:
            # exact ratio: every multiple is a valid zero-redundancy block
            return [(q * k, p * k) for k in range(1, count + 1)]
        x, length = q, p
        if not (x * target <= length + 1e-9 and length - 1.0 / x <= x * target + 1e-9):
            continue
        pairs.append((x, length))
        if len(pairs) == count:
            return pairs
    if not pairs:
        raise InfeasibleError(
            "no block parameters found; the logarithm's continued fraction "
            "ran out of precision"
        )
    return pairs


@dataclass
class BlockResult:
    """A constructed code mapping length-X blocks to length-L strings."""

    model: SourceModel
    X: int
    L: int
    book: CodeBook
    metrics: "analysis.CodeMetrics"
    provenance: dict


def construct_block(
    input_size: int,
    arity: int,
    X: int,
    L: int,
    enum_limit: int = DEFAULT_ENUM_LIMIT,
) -> BlockResult:
    """Enumerate all m^X input blocks and map them to length-L strings.

    Models the input as uniform over m symbols; every block has probability
    m^-X, so the code is a complete fixed-to-fixed map.  Needs m^X <= n^L
    (room in the codeword space) and m^X within the enumeration limit.
    """
    if X < 1:
        raise InputError(f"block length must be >= 1, got {X}")
    if L < 1:
        raise InputError(f"output length must be >= 1, got {L}")
    if input_size < 2:
        raise InputError(f"input alphabet needs >= 2 symbols, got {input_size}")
    block_count = input_size**X
    if block_count > arity**L:
        raise InfeasibleError(
            f"{input_size}^{X} blocks do not fit into {arity}^{L} codewords"
        )
    if block_count > enum_limit:
        raise ResourceError(
            f"{input_size}^{X} blocks exceed the enumeration limit {enum_limit}"
        )
    model = make_model([Fraction(1, input_size)] * input_size, arity)
    prob = float(Fraction(1, block_count))
    entries = tuple(
        CodeEntry(word=word, codeword=cw, probability=prob)
        for word, cw in zip(
            itertools.product(range(1, input_size + 1), repeat=X),
            fixed_codewords(arity, L),
        )
    )
    provenance = {
        "mode": "block",
        "X": X,
        "L": L,
        "input_size": input_size,
        "word_count": block_count,
    }
    book = CodeBook(
        model=model, kind="block", entries=entries, provenance=dict(provenance)
    )
    validate_codebook(book)
    metrics = analysis.code_metrics(book)
    return BlockResult(
        model=model,
        X=X,
        L=L,
        book=book,
        metrics=metrics,
        provenance=provenance,
    )
