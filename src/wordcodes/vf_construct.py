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
from dataclasses import dataclass
from fractions import Fraction

from . import analysis
from .codebook import (
    CodeBook,
    fixed_codewords,
    share_equal,
    validate_codebook,
)
from .diophantine import (
    exact_log,
    interval_convergents,
    log_bounds,
    power_fits,
)
from .errors import (
    InfeasibleError, InputError, ResourceError, ValidationError, require_int
)
from .source_model import SourceModel, Word, make_model, word_probability
from .word_sets import (
    DEFAULT_ENUM_LIMIT,
    DEFAULT_NODE_LIMIT,
    FIRST,
    EmptyRule,
    NodeClassifier,
    WindowRule,
    enumerate_words,
    lattice_metrics,
    node_limit_error,
)

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
    window guarantee.  L, enum_limit and node_limit are ints, not bools;
    anything else, or a negative limit, raises InputError.  Inside the
    window the word set is counted by `lattice_metrics` and listed by
    `enumerate_words` from that table, which raises ResourceError above
    `enum_limit` words before it walks.

    Rows are sorted by each word's float probability, descending, with
    ties in lexicographic order, and take the length-L strings in
    increasing order.  That float is the left-to-right product of the
    symbol probabilities, so words of one profile class, equal in exact
    arithmetic, can differ in the last bits: their order within the class
    follows rounding.  The classes stay contiguous.
    """
    n = model.arity
    require_int(L=L, enum_limit=enum_limit, node_limit=node_limit)
    if L < 1:
        raise InputError(f"output length must be >= 1, got {L}")
    if enum_limit < 0:
        raise InputError(f"enumeration limit must be >= 0, got {enum_limit}")
    if node_limit < 0:
        raise InputError(f"node limit must be >= 0, got {node_limit}")
    # n**L is never built: L may be far too large for it
    if not power_fits(model.m, 1, n, L):
        raise InfeasibleError(
            f"{n}^{L} codewords cannot cover {model.m} symbols"
        )
    d_max = max(model.d)
    d_min = min(model.d)
    fallback = L < d_max
    if fallback:
        words: list[Word] = [(i,) for i in range(1, model.m + 1)]
        # the one-symbol word (i,) has probability p_i and form d_i
        probs = list(model.probs)
        forms = list(model.d)
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
        classify = NodeClassifier(
            WindowRule(model.d, L - d_max, float(L)), EmptyRule()
        )
        _check_walk_fits(model, classify, cap, node_limit)
        table = lattice_metrics(model, classify, cap, node_limit)
        found = enumerate_words(model, classify, table, enum_limit)
        words, forms = found.words, found.forms
        # one float object per value, for the book and the metrics alike
        probs = share_equal(found.probs)
        del found
        if table.cap_mass != 0.0:
            raise ValidationError(
                "window parse was cut off by the length cap; the window "
                "bounds are inconsistent"
            )
        if not power_fits(len(words), 1, n, L):
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

    # Descending probability, ties in lexicographic order: the words come
    # lexicographic, and a stable sort keeps that order among equal keys.
    order = sorted(range(len(words)), key=probs.__getitem__, reverse=True)
    provenance["word_count"] = len(words)
    book = CodeBook(
        model=model,
        kind="vf",
        words=map(words.__getitem__, order),
        codewords=itertools.islice(fixed_codewords(n, L), len(words)),
        probabilities=map(probs.__getitem__, order),
        provenance=dict(provenance),
    )
    del order
    # the rows in the walk's order: the sums do not depend on it
    metrics = analysis.metrics_from_classes(
        model,
        probs,
        list(map(len, words)),
        [L] * len(words),
        forms,
        book.kraft_exact(),
        len(words),
    )
    # the walk's lists go before validation builds its word keys
    del probs, forms, words
    validate_codebook(book)
    return VFResult(
        model=model,
        L=L,
        book=book,
        metrics=metrics,
        fallback=fallback,
        provenance=provenance,
    )


def _check_walk_fits(
    model: SourceModel, classify: NodeClassifier, cap: int, node_limit: int
) -> None:
    """Raise the walk's node-limit ResourceError before a window walk that
    would raise it.

    The path that repeats the most likely symbol has forms k * min(d),
    rising with its length k, and it stops at the first form the window
    admits.  If its node at level `node_limit` is still below the window
    (and below the cap), the path is alive on every level up to there, so
    the walk visits more than `node_limit` nodes.  One classification
    decides it, however long the walk would be.
    """
    if cap <= node_limit:
        return
    ray = [0] * model.m
    ray[model.d.index(min(model.d))] = node_limit
    form, flags = classify(tuple(ray))
    if not flags & FIRST and form <= classify.first_rule.hi:
        raise node_limit_error("lattice DP", node_limit, cap)


def find_block_parameters(
    input_size: int, arity: int, count: int = 3
) -> list[tuple[int, int]]:
    """Block lengths (X, L) with L/X approaching log_n m from above.

    Reads the upper convergents of the continued fraction of log_n m, so
    each pair satisfies X log_n m <= L < X log_n m + 1/X and the redundancy
    L/X - log_n m is below 1/X^2.  An irrational logarithm is expanded from
    50-digit bounds, and only the convergents both bounds share are used,
    so fewer than `count` pairs may come back.  When the logarithm is
    rational (m**q == n**p, checked in integers), its exact ratio follows
    at every multiple.  The pairs for `count` are always the first `count`
    pairs for any larger count.  input_size, arity and count are ints, not
    bools; anything else raises InputError.
    """
    require_int(input_size=input_size, arity=arity, count=count)
    if input_size < 2:
        raise InputError(f"input alphabet needs >= 2 blocks, got {input_size}")
    if arity < 2:
        raise InputError(f"output alphabet needs >= 2 digits, got {arity}")
    if count < 1:
        raise InputError(f"count must be >= 1, got {count}")
    exact = exact_log(input_size, arity)
    if exact is None:
        lo, hi = log_bounds(input_size, arity)
    else:
        lo = hi = exact
    pairs: list[tuple[int, int]] = []
    for index, (p, q) in enumerate(interval_convergents(lo, hi)):
        if Fraction(p, q) == exact:
            # exact ratio: every multiple is a zero-redundancy block
            pairs += [(q * k, p * k) for k in range(1, count - len(pairs) + 1)]
            return pairs
        # convergents alternate around the logarithm, odd ones above it
        if index % 2:
            pairs.append((q, p))
            if len(pairs) == count:
                return pairs
    if not pairs:
        raise InfeasibleError(
            "no block parameters found; the logarithm's continued fraction "
            "ran out of precision"
        )
    return pairs


def _power_exceeds(base: int, exp: int, bound: int) -> bool:
    """Whether base**exp > bound, for base >= 2, in O(log bound) steps."""
    value = 1
    for _ in range(exp):
        value *= base
        if value > bound:
            return True
    return False


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
    input_size, arity, X, L and enum_limit are ints, not bools; anything
    else raises InputError.
    """
    require_int(
        input_size=input_size, arity=arity, X=X, L=L, enum_limit=enum_limit
    )
    if X < 1:
        raise InputError(f"block length must be >= 1, got {X}")
    if L < 1:
        raise InputError(f"output length must be >= 1, got {L}")
    if input_size < 2:
        raise InputError(f"input alphabet needs >= 2 symbols, got {input_size}")
    if arity < 2:
        raise InputError(f"output alphabet needs >= 2 digits, got {arity}")
    if enum_limit < 0:
        raise InputError(f"enumeration limit must be >= 0, got {enum_limit}")
    # both limits are checked before m^X or n^L is built: either may be huge
    if not power_fits(input_size, X, arity, L):
        raise InfeasibleError(
            f"{input_size}^{X} blocks do not fit into {arity}^{L} codewords"
        )
    if _power_exceeds(input_size, X, enum_limit):
        raise ResourceError(
            f"{input_size}^{X} blocks exceed the enumeration limit {enum_limit}"
        )
    block_count = input_size**X
    model = make_model([Fraction(1, input_size)] * input_size, arity)
    # the left-to-right product a loaded book computes, the same for every
    # block, so a saved book reloads equal
    prob = word_probability(model, (1,) * X)
    provenance = {
        "mode": "block",
        "X": X,
        "L": L,
        "input_size": input_size,
        "word_count": block_count,
    }
    book = CodeBook(
        model=model,
        kind="block",
        words=itertools.product(range(1, input_size + 1), repeat=X),
        codewords=itertools.islice(fixed_codewords(arity, L), block_count),
        probabilities=itertools.repeat(prob, block_count),
        provenance=dict(provenance),
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
