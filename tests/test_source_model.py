"""Source model: probability parsing, digit costs, profiles, linear forms."""

from __future__ import annotations

import itertools
import math
import random

import pytest

from wordcodes.errors import InputError
from wordcodes.source_model import (
    entropy,
    linear_form,
    make_model,
    profile_of,
    profile_probability,
    word_probability,
)


def test_make_model_accepts_decimals_ratios_and_fractions():
    model = make_model(["0.5", "1/4", "0.25"], 2)
    assert model.probs == (0.5, 0.25, 0.25)
    assert model.prob_labels == ("0.5", "1/4", "0.25")
    assert model.labels == ("a", "b", "c")


def test_probabilities_must_sum_to_one():
    with pytest.raises(InputError):
        make_model(["0.5", "0.6"], 2)


def test_probabilities_must_be_strictly_inside_unit_interval():
    with pytest.raises(InputError):
        make_model(["1.0", "0.0"], 2)


def test_arity_bounds_are_enforced():
    with pytest.raises(InputError):
        make_model(["0.4", "0.6"], 1)
    with pytest.raises(InputError):
        make_model(["0.4", "0.6"], 37)


def test_single_symbol_sources_are_rejected():
    with pytest.raises(InputError):
        make_model(["1.0"], 2)


def test_entropy_of_reference_source(binary_model):
    assert binary_model.probs == (0.4, 0.6)
    assert entropy(binary_model) == pytest.approx(
        0.9709505944546686, abs=1e-15
    )


def test_digit_costs_match_negated_base_n_logs(binary_model):
    assert binary_model.d[0] == pytest.approx(1.3219280948873622, abs=1e-15)
    assert binary_model.d[1] == pytest.approx(0.7369655941662062, abs=1e-15)


def test_word_probability_multiplies_symbol_probabilities(binary_model):
    word = binary_model.word_from_text("abba")
    assert word_probability(binary_model, word) == pytest.approx(
        0.4 * 0.6 * 0.6 * 0.4
    )
    assert word_probability(binary_model, ()) == 1.0


def test_profile_counts_symbol_occurrences(binary_model):
    assert profile_of(binary_model.word_from_text("babb"), 2) == (1, 3)
    assert profile_of((), 2) == (0, 0)


def test_profile_rejects_out_of_range_symbols():
    with pytest.raises(InputError):
        profile_of((1, 3), 2)


def test_profile_probability_agrees_with_word_probability(ternary_model):
    word = ternary_model.word_from_text("cabc")
    profile = profile_of(word, ternary_model.m)
    assert profile_probability(ternary_model, profile) == pytest.approx(
        word_probability(ternary_model, word), rel=1e-12
    )


def test_linear_form_is_additive_over_concatenation(ternary_model):
    rng = random.Random(11)
    m = ternary_model.m
    for _ in range(50):
        a = tuple(rng.randint(1, m) for _ in range(rng.randint(0, 8)))
        b = tuple(rng.randint(1, m) for _ in range(rng.randint(0, 8)))
        fa = linear_form(ternary_model, profile_of(a, m))
        fb = linear_form(ternary_model, profile_of(b, m))
        fab = linear_form(ternary_model, profile_of(a + b, m))
        assert fab == pytest.approx(fa + fb, abs=1e-9)


def test_linear_form_is_the_probability_exponent(binary_model):
    rng = random.Random(7)
    for _ in range(50):
        w = tuple(rng.randint(1, 2) for _ in range(rng.randint(1, 10)))
        form = linear_form(binary_model, profile_of(w, 2))
        assert 2.0**-form == pytest.approx(
            word_probability(binary_model, w), rel=1e-9
        )


def test_linear_form_checks_profile_dimension(binary_model):
    with pytest.raises(InputError):
        linear_form(binary_model, (1, 2, 3))


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
def test_fixed_length_words_carry_unit_total_probability(ternary_model, r):
    total = math.fsum(
        word_probability(ternary_model, w)
        for w in itertools.product((1, 2, 3), repeat=r)
    )
    assert total == pytest.approx(1.0, abs=1e-9)


def test_word_text_round_trip(ternary_model):
    word = ternary_model.word_from_text("cabcc")
    assert ternary_model.word_to_text(word) == "cabcc"
    assert word == (3, 1, 2, 3, 3)


@pytest.mark.parametrize("labels", [["x1", "y1"], ["ab", "c"], ["", "b"], ["a", 1]])
def test_labels_are_one_character_each(labels):
    """Word texts read one character per symbol, so a longer or empty label
    would build a book that saves but cannot be read back."""
    with pytest.raises(InputError, match="labels must be one character each"):
        make_model(["0.4", "0.6"], 2, labels=labels)


def test_unknown_symbol_label_raises(binary_model):
    with pytest.raises(InputError):
        binary_model.word_from_text("abx")


@pytest.mark.parametrize("symbol", [0, -1, 3, 1.5, "a"])
def test_word_to_text_rejects_symbols_outside_the_alphabet(symbol):
    """Labels are not indexed from the end: (0, 1, -1) once read 'baa'."""
    model = make_model(["0.4", "0.6"], 2)
    assert model.word_to_text((2, 1, 1)) == "baa"
    with pytest.raises(InputError, match=rf"symbol {symbol!r} outside 1\.\.2"):
        model.word_to_text((1, symbol, 2))
    with pytest.raises(InputError, match=r"symbol 0 outside 1\.\.2"):
        model.word_to_text((0, 1, -1))
