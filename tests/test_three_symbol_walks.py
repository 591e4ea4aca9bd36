"""The unpacked three-symbol push of the keyed walk against slicing.

For three symbols `_push` builds a profile's children from its unpacked
counts.  The reference below is the slicing push it replaced, which four or
more symbols still run.  The forms the keyed walk yields are checked
against the `fsum` over `map(mul, k, d)` of the slicing code.  Keys, key order,
counts and every float must match; floats are compared by `float.hex`, so
bit for bit.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from operator import mul

import pytest

from lattice_helpers import profiles_of_length
from wordcodes.source_model import linear_form, make_model
from wordcodes.word_sets import (
    FIRST,
    SECOND,
    EmptyRule,
    ThresholdHighRule,
    ThresholdLowRule,
    WindowRule,
    _push,
    keyed_levels,
    node_classifier,
)


def slicing_push(src, probs):
    """`_push` as the dict walk wrote it for every source."""
    dst = {}
    for k, (c, mass) in src.items():
        for i, p in enumerate(probs):
            child = k[:i] + (k[i] + 1,) + k[i + 1 :]
            if child in dst:
                oc, om = dst[child]
                dst[child] = (oc + c, om + mass * p)
            else:
                dst[child] = (c, mass * p)
    return dst


def _parents(front):
    """A front's entries as the (profile, count, mass) parents `_push`
    takes, in the front's order."""
    return [(k, c, mass) for k, (c, mass) in front.items()]


def _front_record(front):
    """Keys in order, counts, and masses as hex strings."""
    return [(k, c, mass.hex()) for k, (c, mass) in front.items()]


def _random_model(rng, m):
    weights = [rng.randint(1, 20) for _ in range(m)]
    total = sum(weights)
    return make_model([Fraction(w, total) for w in weights], rng.choice([2, 3]))


def _random_front(rng, m, level):
    """Some profiles of one level, inserted in a shuffled order, with
    big-integer counts and masses spread over many binades."""
    profiles = list(profiles_of_length(level, m))
    rng.shuffle(profiles)
    keep = profiles[: rng.randint(1, len(profiles))]
    return {
        k: (rng.randint(1, 10**30), rng.random() * 2.0 ** -rng.randint(0, 900))
        for k in keep
    }


class SlicedProfile(tuple):
    """A profile that counts how often it is indexed or sliced."""

    indexed = 0

    def __getitem__(self, key):
        SlicedProfile.indexed += 1
        return tuple.__getitem__(self, key)


@pytest.mark.parametrize("m", [3, 4, 5])
def test_push_matches_the_slicing_push_key_for_key(m):
    rng = random.Random(300 + m)
    for _ in range(40):
        probs = _random_model(rng, m).probs
        front = _random_front(rng, m, rng.randint(0, 7 if m == 3 else 4))
        expect = slicing_push(front, probs)
        assert _front_record(_push(_parents(front), probs)) == _front_record(
            expect
        )
    # several levels on, keeping a seeded part of each front, as the DPs do
    for _ in range(5):
        probs = _random_model(rng, m).probs
        front = got = {(0,) * m: (1, 1.0)}
        for _ in range(12 if m == 3 else 6):
            front = slicing_push(front, probs)
            got = _push(_parents(got), probs)
            assert _front_record(got) == _front_record(front)
            front = got = {
                k: v for k, v in front.items() if rng.random() < 0.8
            }


def test_only_three_symbols_skip_the_slicing_push():
    for m in (3, 4, 5):
        probs = _random_model(random.Random(m), m).probs
        SlicedProfile.indexed = 0
        src = {SlicedProfile((1,) * m): (3, 0.25)}
        assert _front_record(_push(_parents(src), probs)) == _front_record(
            slicing_push({(1,) * m: (3, 0.25)}, probs)
        )
        assert (SlicedProfile.indexed == 0) == (m == 3)


def _rule_pairs(d):
    return [
        (ThresholdLowRule(d, 0.3), ThresholdHighRule(d, 0.3)),
        (ThresholdHighRule(d, 0.3), ThresholdLowRule(d, 0.3)),
        (ThresholdLowRule(d, 0.3, tol=1e-9), ThresholdHighRule(d, 1.5)),
        (WindowRule(d, 2.0, 2.0 + max(d)), EmptyRule()),
    ]


@pytest.mark.parametrize("m", [3, 4, 5])
def test_classifier_form_is_the_slicing_fsum_bit_for_bit(m):
    """Every node the keyed walk yields carries the slicing code's form,
    and the flags the two rules' `admits` give it."""
    rng = random.Random(700 + m)
    for _ in range(4):
        model = _random_model(rng, m)
        for first, second in _rule_pairs(model.d):
            top = {3: 14, 4: 8, 5: 6}[m]
            classify = node_classifier(first, second)
            for view in keyed_levels(model, classify, 1):
                profiles = []
                for i in view.ids:
                    k, got = view.node(i)
                    form = math.fsum(map(mul, k, model.d))
                    assert form.hex() == linear_form(model, k).hex()
                    assert got.hex() == form.hex()
                    flags = FIRST * first.admits(form)
                    flags |= SECOND * second.admits(form)
                    assert view.flags[i] == flags
                    assert view.id_of(k) == i
                    profiles.append(k)
                level = list(profiles_of_length(view.level, m))
                assert sorted(profiles) == level
                if view.level < top:
                    view.next.append(view.states[0])
