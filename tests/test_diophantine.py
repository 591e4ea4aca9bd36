"""Continued fractions, best rational approximations, and shift searches."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import islice

import pytest

from wordcodes.diophantine import (
    best_approx_denominators,
    denominator_of_rational_form,
    dist_to_int,
    find_shift,
    frac,
    interval_convergents,
)
from wordcodes.errors import InfeasibleError, InputError
from wordcodes.source_model import make_model

LOG2_3 = math.log2(3.0)


def test_frac_and_dist_to_int_basics():
    assert frac(2.25) == 0.25
    assert frac(-0.25) == 0.75
    assert dist_to_int(2.25) == 0.25
    assert dist_to_int(2.75) == 0.25
    assert dist_to_int(3.0) == 0.0


def _convergents(x):
    """The convergents of the float x, expanded exactly."""
    return interval_convergents(Fraction(x), Fraction(x))


def test_convergents_of_log2_3_match_known_table():
    got = list(islice(_convergents(LOG2_3), 7))
    assert got == [(1, 1), (2, 1), (3, 2), (8, 5), (19, 12), (65, 41), (84, 53)]


def test_convergents_satisfy_inverse_square_error_bound():
    rng = random.Random(3)
    for _ in range(10):
        x = rng.uniform(0.1, 3.0)
        if dist_to_int(x) < 1e-6:
            continue
        for p, q in islice(_convergents(x), 10):
            assert abs(x - p / q) < 1.0 / (q * q) + 1e-15


def test_best_denominators_for_reference_exponent(binary_model):
    x = binary_model.d[1]  # -log2(0.6)
    assert best_approx_denominators(x, 50) == [1, 3, 4, 19]
    assert best_approx_denominators(x, 2000) == [1, 3, 4, 19, 422, 1707]


def _rational_source_exponents():
    """The exponents -log_n p_i of seeded sources with rational
    probabilities, at arity 3, 8 and 32."""
    rng = random.Random(19)
    for n in (3, 8, 32):
        for _ in range(4):
            weights = [rng.randint(1, 9) for _ in range(rng.choice([2, 3]))]
            probs = [Fraction(w, sum(weights)) for w in weights]
            yield from make_model(probs, n).d


def test_best_denominators_match_brute_force_scan():
    rng = random.Random(17)
    samples = [rng.uniform(0.05, 4.0) for _ in range(20)]
    for x in [*samples, *_rational_source_exponents()]:
        if dist_to_int(x) < 1e-7:
            continue
        q_max = 10_000
        expected = []
        best = float("inf")
        for q in range(1, q_max + 1):
            err = dist_to_int(q * x)
            if err < best:
                expected.append(q)
                best = err
        assert best_approx_denominators(x, q_max) == expected
    # Next to a rational the float scan and the convergents part: x is
    # -log_32 0.5, the float just below 0.2, and 25*x rounds to exactly 5.0,
    # so the scan also keeps 25, which is no convergent denominator of x.
    x = 0.19999999999999998
    assert dist_to_int(25 * x) == 0.0
    assert best_approx_denominators(x, 100) == [1, 5]


def test_best_denominators_reject_near_integers():
    with pytest.raises(InputError):
        best_approx_denominators(3.0, 100)


def test_consecutive_denominators_bracket_integers_from_both_sides():
    """For consecutive best denominators (T~, T), one fractional part sits
    just above an integer and the other just below, both within 1/T."""
    rng = random.Random(5)
    samples = [0.7369655941662062, LOG2_3] + [
        rng.uniform(0.1, 2.0) for _ in range(5)
    ]
    for x in samples:
        if dist_to_int(x) < 1e-6:
            continue
        denoms = best_approx_denominators(x, 3000)
        for t_prev, t in zip(denoms, denoms[1:]):
            bound = 1.0 / t + 1e-12
            low_high = frac(t_prev * x) <= bound and 1.0 - frac(t * x) <= bound
            high_low = 1.0 - frac(t_prev * x) <= bound and frac(t * x) <= bound
            assert low_high or high_low, (x, t_prev, t)


def test_find_shift_lands_inside_both_windows(binary_model):
    for t in (1, 3, 4, 19):
        bound = 2.0 / t
        for profile in [(0, 0), (1, 0), (5, 2), (3, 7)]:
            shift, f = find_shift(binary_model, profile, t, side="low")
            assert 0 <= shift < t
            assert f <= bound + 1e-12
            shift, f = find_shift(binary_model, profile, t, side="high")
            assert 0 <= shift < t
            assert 1.0 - f <= bound + 1e-12


def test_find_shift_validates_arguments(binary_model):
    with pytest.raises(InputError):
        find_shift(binary_model, (0, 0), 4, side="middle")
    with pytest.raises(InputError):
        find_shift(binary_model, (0, 0), 0)


def test_find_shift_fails_when_last_exponent_is_integral():
    # With d = (1, 1) every shift moves the form by a whole digit, so the
    # fractional part never approaches 1 from below.
    model = make_model(["0.5", "0.5"], 2)
    with pytest.raises(InfeasibleError):
        find_shift(model, (1, 0), 8, side="high")


def test_rational_form_denominator_detection():
    model = make_model(["0.5", "0.25", "0.25"], 2)
    assert denominator_of_rational_form(list(model.d)) == 1
    irrational = make_model(["0.4", "0.6"], 2)
    assert denominator_of_rational_form(list(irrational.d)) is None
