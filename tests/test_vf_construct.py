"""Uniform-output-length codes and equiprobable block codes."""

from __future__ import annotations

import math

import pytest

from wordcodes.errors import InfeasibleError, InputError, ResourceError
from wordcodes.source_model import word_probability
from wordcodes.vf_construct import (
    construct_block,
    construct_vf,
    find_block_parameters,
)

LOG2_3 = math.log2(3.0)


def test_window_code_for_reference_binary_source(binary_model, vf3_book):
    words = sorted(
        binary_model.word_to_text(e.word) for e in vf3_book.entries
    )
    assert words == ["aa", "ab", "ba", "bba", "bbb"]
    assert all(len(e.codeword) == 3 for e in vf3_book.entries)
    # codewords are handed out in decreasing-probability order
    table = [
        (binary_model.word_to_text(e.word), e.codeword)
        for e in vf3_book.entries
    ]
    assert table == [
        ("ab", "000"),
        ("ba", "001"),
        ("bbb", "010"),
        ("aa", "011"),
        ("bba", "100"),
    ]
    nbar = math.fsum(e.probability * len(e.word) for e in vf3_book.entries)
    assert nbar == pytest.approx(2.36, abs=1e-9)


@pytest.mark.parametrize("L", list(range(2, 11)))
def test_window_codes_keep_probabilities_inside_the_window(binary_model, L):
    result = construct_vf(binary_model, L)
    assert not result.fallback
    book = result.book
    n = binary_model.arity
    p_min = min(binary_model.probs)
    assert len(book.entries) <= n**L
    for e in book.entries:
        assert e.probability >= n**-L - 1e-12
        assert e.probability < n**-L / p_min + 1e-12
    met = result.metrics
    bound = -math.log(p_min, n) / met.avg_delay
    assert met.redundancy <= bound + 1e-12


def test_fallback_below_the_window_threshold(ternary_model):
    result = construct_vf(ternary_model, 2)
    assert result.fallback
    assert result.provenance["mode"] == "single_symbol"
    table = [
        (ternary_model.word_to_text(e.word), e.codeword)
        for e in result.book.entries
    ]
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


def test_vf_metrics_delta_matches_unassigned_codewords(binary_model, vf3_book):
    # 5 words in an 8-codeword space: Kraft slack is exactly 3/8
    met = construct_vf(binary_model, 3).metrics
    assert met.kraft_defect == pytest.approx(3.0 / 8.0, abs=1e-15)
    assert vf3_book.kraft_exact() == pytest.approx(5.0 / 8.0)


def test_block_parameters_for_ternary_input():
    assert find_block_parameters(3, 2) == [(1, 2), (5, 8), (41, 65)]


def test_block_parameters_exact_when_log_is_rational():
    assert find_block_parameters(4, 2) == [(1, 2), (2, 4), (3, 6)]


def test_block_parameters_validate_arguments():
    with pytest.raises(InputError):
        find_block_parameters(1, 2)
    with pytest.raises(InputError):
        find_block_parameters(3, 2, count=0)


def test_block_code_single_symbol_blocks():
    result = construct_block(3, 2, 1, 2)
    table = [(e.word, e.codeword) for e in result.book.entries]
    assert table == [((1,), "00"), ((2,), "01"), ((3,), "10")]
    assert result.metrics.redundancy == pytest.approx(2.0 - LOG2_3, abs=1e-12)


def test_block_code_five_symbol_blocks(block_book):
    assert len(block_book.entries) == 3**5
    assert all(len(e.word) == 5 for e in block_book.entries)
    assert all(len(e.codeword) == 8 for e in block_book.entries)
    assert len({e.codeword for e in block_book.entries}) == 3**5
    assert all(
        e.probability == pytest.approx(3.0**-5, rel=1e-12)
        for e in block_book.entries
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


def test_vf_words_probabilities_match_model(binary_model, vf3_book):
    for e in vf3_book.entries:
        assert e.probability == pytest.approx(
            word_probability(binary_model, e.word), rel=1e-12
        )
