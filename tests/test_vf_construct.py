"""Uniform-output-length codes and equiprobable block codes."""

from __future__ import annotations

import hashlib
import math
import time
from operator import mul

import pytest

from wordcodes import word_sets
from wordcodes.errors import InfeasibleError, InputError, ResourceError
from wordcodes.source_model import make_model, word_probability
from wordcodes.vf_construct import (
    construct_block,
    construct_vf,
    find_block_parameters,
)
from wordcodes.vv_construct import construct_vv

LOG2_3 = math.log2(3.0)


def test_window_code_for_reference_binary_source(binary_model, vf3_book):
    words = sorted(map(binary_model.word_to_text, vf3_book.words))
    assert words == ["aa", "ab", "ba", "bba", "bbb"]
    assert all(len(codeword) == 3 for codeword in vf3_book.codewords)
    # codewords are handed out in decreasing-probability order
    table = list(
        zip(map(binary_model.word_to_text, vf3_book.words), vf3_book.codewords)
    )
    assert table == [
        ("ab", "000"),
        ("ba", "001"),
        ("bbb", "010"),
        ("aa", "011"),
        ("bba", "100"),
    ]
    nbar = math.fsum(
        map(mul, vf3_book.probabilities, map(len, vf3_book.words))
    )
    assert nbar == pytest.approx(2.36, abs=1e-9)


def test_vf_rows_follow_the_float_product_order(binary_model):
    """Rows are sorted by the float left-to-right product, descending, with
    lexicographic ties, so the order inside a profile class follows
    rounding.  The (0.4, 0.6) L=12 book, which the codec benchmark streams
    through, pins that order by a sha256 of its words."""
    book = construct_vf(binary_model, 12).book
    words, probs = book.words, book.probabilities
    assert len(words) == 2492
    assert list(probs) == [
        math.prod(binary_model.probs[s - 1] for s in w) for w in words
    ]
    for i in range(len(words) - 1):
        assert probs[i] > probs[i + 1] or (
            probs[i] == probs[i + 1] and words[i] < words[i + 1]
        )
    # profile classes stay contiguous, but some are not in lexicographic
    # order: their floats differ in the last bits
    profiles = [(len(w), w.count(1)) for w in words]
    runs = [p for i, p in enumerate(profiles) if i == 0 or p != profiles[i - 1]]
    assert len(runs) == len(set(profiles))
    assert any(
        a > b and pa == pb
        for a, b, pa, pb in zip(words, words[1:], profiles, profiles[1:])
    )
    text = "\n".join(binary_model.word_to_text(w) for w in words)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "8253a72819709fe86e16250bf9e578bd6201bf322f49e9b5458db1b44b866e0e"
    )


@pytest.mark.parametrize("L", list(range(2, 11)))
def test_window_codes_keep_probabilities_inside_the_window(binary_model, L):
    result = construct_vf(binary_model, L)
    assert not result.fallback
    book = result.book
    n = binary_model.arity
    p_min = min(binary_model.probs)
    assert len(book.words) <= n**L
    for probability in book.probabilities:
        assert probability >= n**-L - 1e-12
        assert probability < n**-L / p_min + 1e-12
    met = result.metrics
    bound = -math.log(p_min, n) / met.avg_delay
    assert met.redundancy <= bound + 1e-12


def test_fallback_below_the_window_threshold(ternary_model):
    result = construct_vf(ternary_model, 2)
    assert result.fallback
    assert result.provenance["mode"] == "single_symbol"
    book = result.book
    table = list(
        zip(map(ternary_model.word_to_text, book.words), book.codewords)
    )
    assert table == [("c", "00"), ("b", "01"), ("a", "10")]
    # the map stays decodable even though the probability floor is lost
    assert result.book.kraft_exact() <= 1
    met = result.metrics
    assert met.redundancy <= -math.log2(0.2) / met.avg_delay + 1e-12


def test_vf_requires_room_for_every_symbol(ternary_model):
    with pytest.raises(InfeasibleError):
        construct_vf(ternary_model, 1)
    with pytest.raises(InputError):
        construct_vf(ternary_model, 0)


def test_vf_rejects_a_negative_enumeration_limit(binary_model):
    with pytest.raises(InputError, match="enumeration limit"):
        construct_vf(binary_model, 3, enum_limit=-1)
    assert construct_vf(binary_model, 3, enum_limit=5).book is not None


def test_vf_rejects_a_negative_node_limit(binary_model):
    """A negative node limit is bad input, refused before any walk, not a
    walk that stops at once."""
    for limit in (-1, -5):
        with pytest.raises(
            InputError, match=f"^node limit must be >= 0, got {limit}$"
        ):
            construct_vf(binary_model, 8, node_limit=limit)


def test_vf_metrics_delta_matches_unassigned_codewords(binary_model, vf3_book):
    # 5 words in an 8-codeword space: Kraft slack is exactly 3/8
    met = construct_vf(binary_model, 3).metrics
    assert met.kraft_defect == pytest.approx(3.0 / 8.0, abs=1e-15)
    assert vf3_book.kraft_exact() == pytest.approx(5.0 / 8.0)


def test_block_parameters_for_ternary_input():
    assert find_block_parameters(3, 2) == [(1, 2), (5, 8), (41, 65)]


def test_block_parameters_exact_when_log_is_rational():
    assert find_block_parameters(4, 2) == [(1, 2), (2, 4), (3, 6)]


def test_block_parameters_are_prefix_stable_and_genuine():
    """Count c gives the first c pairs of any larger count, and every pair
    has room (m^X <= n^L) and redundancy below 1/X^2, checked in integers."""
    for m, n in ((3, 2), (4, 2), (32, 8), (2, 3), (5, 3), (10, 2), (6, 4)):
        pairs = find_block_parameters(m, n, count=40)
        for count in range(1, 41):
            assert find_block_parameters(m, n, count=count) == pairs[:count]
        for X, L in pairs:
            if X <= 400:
                assert m**X <= n**L
                # L - X log_n m < 1/X  <=>  n^(L X - 1) < m^(X^2)
                assert n ** (L * X - 1) < m ** (X * X)


def test_block_parameters_keep_convergents_past_float_precision():
    # 301994/190537 is within 1e-12 of float log2(3); it used to count as
    # the exact ratio and replace all six earlier pairs with its multiples
    seven = find_block_parameters(3, 2, count=7)
    assert seven == [
        (1, 2), (5, 8), (41, 65), (306, 485), (15601, 24727),
        (79335, 125743), (190537, 301994),
    ]
    # the irrational logarithm has finitely many certified convergents
    assert len(find_block_parameters(3, 2, count=10**5)) < 100
    # an exact ratio repeats at its multiples, after the earlier pairs
    assert find_block_parameters(32, 8, count=3) == [(1, 2), (3, 5), (6, 10)]


def test_block_limits_are_checked_before_building_powers():
    start = time.perf_counter()
    with pytest.raises(InfeasibleError):
        construct_block(3, 2, 10**10, 10**10)
    with pytest.raises(ResourceError):
        construct_block(3, 2, 10**10, 2 * 10**10)
    with pytest.raises(ResourceError):
        construct_block(4, 2, 10**10, 2 * 10**10)
    assert time.perf_counter() - start < 1.0


def test_vf_trips_the_enumeration_limit_before_enumerating(monkeypatch):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("the word set was enumerated")

    # the enumerator checks the limit before it classifies any node
    monkeypatch.setattr(word_sets.NodeKeys, "node", no_enumeration)
    model = make_model(["0.4", "0.6"], 2)
    with pytest.raises(ResourceError, match="enumeration limit of 100$"):
        construct_vf(model, 12, enum_limit=100)


def test_block_parameters_validate_arguments():
    with pytest.raises(InputError):
        find_block_parameters(1, 2)
    with pytest.raises(InputError):
        find_block_parameters(3, 2, count=0)


def _p46():
    return make_model(["0.4", "0.6"], 2)


@pytest.mark.parametrize(
    "name, call",
    [
        ("L", lambda: construct_vf(make_model(["0.4", "0.6"], 2), True)),
        ("L", lambda: construct_vf(make_model(["0.4", "0.6"], 2), 3.5)),
        ("X", lambda: construct_block(3, 2, True, 2)),
        ("X", lambda: construct_block(3, 2, 2.0, 4)),
        ("L", lambda: construct_block(3, 2, 1, True)),
        ("count", lambda: find_block_parameters(3, 2, count=1.5)),
        ("count", lambda: find_block_parameters(3, 2, count=True)),
        ("arity", lambda: make_model(["0.4", "0.6"], 2.0)),
        ("input_size", lambda: construct_block(3.0, 2, 2, 4)),
        ("arity", lambda: construct_block(3, 2.0, 2, 4)),
        ("enum_limit", lambda: construct_block(3, 2, 2, 4, enum_limit=2.5)),
        ("input_size", lambda: find_block_parameters(3.0, 2)),
        ("arity", lambda: find_block_parameters(3, 2.0)),
        ("enum_limit", lambda: construct_vf(_p46(), 3, enum_limit=2.5)),
        ("enum_limit", lambda: construct_vf(_p46(), 3, enum_limit=True)),
        ("node_limit", lambda: construct_vf(_p46(), 3, node_limit=True)),
        ("enum_limit", lambda: construct_vv(_p46(), T=4, enum_limit=2.5)),
        ("node_limit", lambda: construct_vv(_p46(), T=4, node_limit=2.5)),
    ],
    ids=[
        "vf-L-bool",
        "vf-L-float",
        "block-X-bool",
        "block-X-float",
        "block-L-bool",
        "count-float",
        "count-bool",
        "model-arity-float",
        "block-input_size-float",
        "block-arity-float",
        "block-enum_limit-float",
        "pairs-input_size-float",
        "pairs-arity-float",
        "vf-enum_limit-float",
        "vf-enum_limit-bool",
        "vf-node_limit-bool",
        "vv-enum_limit-float",
        "vv-node_limit-float",
    ],
)
def test_lengths_and_counts_are_ints_not_bools(name, call):
    """As T and cap of `construct_vv`: a length, count, alphabet size or
    limit given as a bool or a float is refused where it is passed, not
    stored in provenance, read as a limit, or failing deep in a build with
    a bare TypeError or AttributeError."""
    with pytest.raises(InputError, match=f"^{name} must be an int, got "):
        call()


def test_block_code_single_symbol_blocks():
    result = construct_block(3, 2, 1, 2)
    table = list(zip(result.book.words, result.book.codewords))
    assert table == [((1,), "00"), ((2,), "01"), ((3,), "10")]
    assert result.metrics.redundancy == pytest.approx(2.0 - LOG2_3, abs=1e-12)


def test_block_code_five_symbol_blocks(block_book):
    assert len(block_book.words) == 3**5
    assert all(len(word) == 5 for word in block_book.words)
    assert all(len(codeword) == 8 for codeword in block_book.codewords)
    assert len(set(block_book.codewords)) == 3**5
    assert all(
        probability == pytest.approx(3.0**-5, rel=1e-12)
        for probability in block_book.probabilities
    )


def test_block_redundancy_matches_closed_form(block_book):
    from wordcodes.analysis import code_metrics

    met = code_metrics(block_book)
    assert met.redundancy == pytest.approx(8.0 / 5.0 - LOG2_3, rel=1e-9)
    assert met.avg_delay == pytest.approx(5.0, abs=1e-12)


def test_block_code_resource_and_feasibility_limits():
    with pytest.raises(InfeasibleError):
        construct_block(3, 2, 2, 3)  # 9 blocks, 8 codewords
    with pytest.raises(ResourceError):
        construct_block(3, 2, 41, 65)  # 3^41 blocks cannot be enumerated
    with pytest.raises(ResourceError):
        construct_block(3, 2, 5, 8, enum_limit=100)
    # a negative limit is bad input, as for `construct_vf` and `construct_vv`
    with pytest.raises(InputError, match="limit must be >= 0, got -1"):
        construct_block(3, 2, 2, 4, enum_limit=-1)


def test_vf_words_probabilities_match_model(binary_model, vf3_book):
    for word, probability in zip(vf3_book.words, vf3_book.probabilities):
        assert probability == pytest.approx(
            word_probability(binary_model, word), rel=1e-12
        )
