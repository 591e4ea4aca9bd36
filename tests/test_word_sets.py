"""Profile-set rules, the stopping-lattice DP, enumeration, and wedge merge."""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction

import pytest

from lattice_helpers import table_rows, word_rows
from wordcodes.codebook import kraft_of_counts
from wordcodes.errors import InputError, ResourceError, ValidationError
from wordcodes.serialization import book_to_json
from wordcodes.source_model import make_model, profile_of, word_probability
from wordcodes.vv_construct import (
    _knockout_masses,
    build_threshold_sets,
    construct_vv,
)
from wordcodes.word_sets import (
    DEFAULT_ENUM_LIMIT,
    SECOND,
    THRESHOLD_TOL,
    EmptyRule,
    NodeClassifier,
    ProfileSet,
    Rule,
    ThresholdHighRule,
    ThresholdLowRule,
    WindowRule,
    enumerate_words,
    is_prefix_free,
    lattice_metrics,
    sentinel_runs,
    snapped_frac,
    wedge,
)


@dataclass(frozen=True)
class ExplicitProfilesRule(Rule):
    """Membership by an explicit set of profiles.

    No walk can decide it by the linear form, so the tests walk it through
    the `member_classifier` fixture.
    """

    profiles: frozenset

    def member(self, profile) -> bool:
        return profile in self.profiles


@dataclass
class CoverageReport:
    """Outcome of sampling last-coordinate shift coverage for a profile set."""

    ok: bool
    checked: int
    T: int
    counterexample: tuple | None = None


def check_shift_coverage(
    model,
    pset: ProfileSet,
    T: int,
    s_values: tuple[int, ...] = (1, 2),
    samples: int = 50,
    seed: int = 0,
    last_max: int | None = None,
) -> CoverageReport:
    """Sample profiles and verify each admits a member within T shifts.

    For each s in `s_values`, draws `samples` random profiles whose first
    m-1 coordinates sum to s*T^2 and checks that some shift k' in [0, T) of
    the last coordinate lands in the set.  This is the reachability property
    the threshold construction relies on for bounded stopping delays.
    """
    if T < 1:
        raise InputError(f"T must be >= 1, got {T}")
    rng = random.Random(seed)
    m = model.m
    hi = last_max if last_max is not None else 3 * T * T
    checked = 0
    for s in s_values:
        total = s * T * T
        for _ in range(samples):
            if m == 2:
                head = (total,)
            else:
                cuts = sorted(rng.sample(range(total + m - 2), m - 2))
                bounds = [-1, *cuts, total + m - 2]
                head = tuple(
                    bounds[j + 1] - bounds[j] - 1 for j in range(m - 1)
                )
            k_last = rng.randrange(hi + 1)
            checked += 1
            found = False
            for shift in range(T):
                if pset.member(head + (k_last + shift,)):
                    found = True
                    break
            if not found:
                return CoverageReport(
                    ok=False,
                    checked=checked,
                    T=T,
                    counterexample=head + (k_last,),
                )
    return CoverageReport(ok=True, checked=checked, T=T)

def test_snapped_frac_pulls_values_just_below_integers_to_zero():
    assert snapped_frac(2.3) == pytest.approx(0.3)
    assert snapped_frac(3.0 - 1e-15) == 0.0
    assert snapped_frac(5.0) == 0.0


def test_threshold_rules_classify_reference_profiles(binary_model):
    low = ThresholdLowRule(binary_model.d, 0.5)
    high = ThresholdHighRule(binary_model.d, 0.5)
    # fractional parts of the linear form: (1,0)->0.32, (0,1)->0.74,
    # (1,1)->0.06, (0,2)->0.47, (2,1)->0.38, (1,2)->0.80, (0,3)->0.21,
    # (3,0)->0.97, (2,0)->0.64
    assert low.member((1, 0)) and not high.member((1, 0))
    assert high.member((0, 1)) and not low.member((0, 1))
    assert low.member((1, 1))
    assert low.member((0, 2))
    assert low.member((2, 1))
    assert high.member((1, 2)) and not low.member((1, 2))
    assert low.member((0, 3))
    assert high.member((3, 0))
    assert high.member((2, 0))
    assert not low.member((0, 0)) and not high.member((0, 0))


def _enumerated(model, classify, cap, limit):
    """The words of the DP's table of the walk under `classify` and `cap`."""
    table = lattice_metrics(model, classify, cap)
    return enumerate_words(model, classify, table, limit)


def test_explicit_profile_sets_reproduce_reference_word_sets(
    binary_model, member_classifier
):
    first = ExplicitProfilesRule(frozenset({(1, 0)}))
    classify = member_classifier(binary_model, first)
    words = word_rows(_enumerated(binary_model, classify, 3, 100))
    texts = [binary_model.word_to_text(w) for w, _, _, _ in words]
    assert texts == ["a", "baa", "bab", "bba", "bbb"]

    second = ExplicitProfilesRule(frozenset({(1, 1)}))
    classify = member_classifier(binary_model, second)
    words = word_rows(_enumerated(binary_model, classify, 3, 100))
    texts = [binary_model.word_to_text(w) for w, _, _, _ in words]
    assert sorted(texts) == ["aaa", "aab", "ab", "ba", "bba", "bbb"]


def test_lattice_metrics_agree_with_enumeration(binary_model, ternary_model):
    rng = random.Random(23)
    for model in (binary_model, ternary_model):
        for _ in range(6):
            t = rng.randint(2, 6)
            cap = rng.randint(4, 9)
            rule = rng.choice(
                [
                    ThresholdLowRule(model.d, 2.0 / t),
                    ThresholdHighRule(model.d, 2.0 / t),
                ]
            )
            classify = NodeClassifier(rule, EmptyRule())
            table = lattice_metrics(model, classify, cap)
            words = [
                w
                for w, _, _, _ in word_rows(
                    enumerate_words(model, classify, table, DEFAULT_ENUM_LIMIT)
                )
            ]
            assert words is not None
            assert len(words) == table.word_count
            assert is_prefix_free(words)
            mass = math.fsum(word_probability(model, w) for w in words)
            assert mass == pytest.approx(math.fsum(table.masses), abs=1e-12)
            assert mass == pytest.approx(1.0, abs=1e-9)
            avg = math.fsum(
                len(w) * word_probability(model, w) for w in words
            )
            rows = table_rows(table)
            avg_length = math.fsum(sum(k) * p for k, _, p, _, _ in rows)
            max_length = max(sum(k) for k, count, _, _, _ in rows if count)
            assert avg == pytest.approx(avg_length, abs=1e-12)
            assert max(len(w) for w in words) == max_length


def _walk_case_models(rng: random.Random):
    for m, n in itertools.product((2, 3), (2, 3)):
        for _ in range(3):
            weights = [rng.randint(1, 9) for _ in range(m)]
            total = sum(weights)
            yield make_model([Fraction(w, total) for w in weights], n)


def test_walks_under_node_classifier_match_member_reference(
    member_classifier,
):
    """Both walks, driven by `admits`, against a classifier that asks
    `member` per profile: one set (threshold or window) and the two
    threshold sets of the VV construction, with some classes taken.  The
    stopping DP's table under the reference equals its table under the
    node classifier field by field, so both classification entry points of
    the keyed walk agree on the three-symbol models."""
    rng = random.Random(61)
    walks = 0
    for model in _walk_case_models(rng):
        t = rng.randint(2, 6)
        low = ThresholdLowRule(model.d, 2.0 / t)
        high = ThresholdHighRule(model.d, 2.0 / t)
        d_max = max(model.d)
        L = math.ceil(d_max) + rng.randint(0, 2)
        window = WindowRule(model.d, L - d_max, float(L))
        window_cap = int((L - d_max) / min(model.d)) + 2
        cap = rng.randint(4, 8)
        second_only = [
            k
            for k in itertools.product(range(cap), repeat=model.m)
            if 0 < sum(k) < cap and high.member(k) and not low.member(k)
        ]
        taken = set(rng.sample(second_only, min(3, len(second_only))))
        cases = [
            (low, EmptyRule(), cap, ()),
            (high, EmptyRule(), cap, ()),
            (window, EmptyRule(), window_cap, ()),
            (low, high, cap, ()),
            (low, high, cap, taken),
        ]
        for first, second, walk_cap, walk_taken in cases:
            classify = NodeClassifier(first, second)
            reference = member_classifier(model, first, second)
            table = lattice_metrics(
                model, classify, walk_cap, taken=walk_taken
            )
            expect = lattice_metrics(
                model, reference, walk_cap, taken=walk_taken
            )
            found = word_rows(
                enumerate_words(model, classify, table, DEFAULT_ENUM_LIMIT)
            )
            assert found == word_rows(
                enumerate_words(model, reference, expect, DEFAULT_ENUM_LIMIT)
            )
            assert table_rows(table) == table_rows(expect)
            assert table.word_count == expect.word_count
            assert math.fsum(table.masses) == math.fsum(expect.masses)
            assert table.cap_mass == expect.cap_mass
            assert table.visited_nodes == expect.visited_nodes
            assert len(found) == table.word_count
            # the words' forms and extra digits, class by class
            by_class = Counter(
                (profile_of(w, model.m), form, extra)
                for w, form, extra, _ in found
            )
            expected = Counter()
            for k, count, _, form, extra in table_rows(table):
                expected[k, form, bool(extra)] += count
            assert by_class == +expected
            mass = math.fsum(word_probability(model, w) for w, _, _, _ in found)
            assert mass == pytest.approx(math.fsum(table.masses), abs=1e-12)
            assert mass == pytest.approx(1.0, abs=1e-9)
            walks += 1
    assert walks == 60


def test_node_classifier_rejects_rules_it_cannot_walk(binary_model,
                                                      ternary_model):
    low = ThresholdLowRule(binary_model.d, 0.5)
    with pytest.raises(InputError):
        NodeClassifier(low, ExplicitProfilesRule(frozenset({(1, 0)})))
    with pytest.raises(InputError):
        NodeClassifier(low, ThresholdHighRule(ternary_model.d, 0.5))
    with pytest.raises(InputError):
        NodeClassifier(EmptyRule(), EmptyRule())


def test_level_tables_refuse_sources_of_more_than_two_symbols(ternary_model):
    classify = NodeClassifier(ThresholdLowRule(ternary_model.d, 0.5), EmptyRule())
    message = "^level tables are for two-symbol sources$"
    with pytest.raises(InputError, match=message):
        classify.level(1)
    # no level is kept, so the next call raises again
    with pytest.raises(InputError, match=message):
        classify.level(0)


def test_window_rule_edges_are_half_open():
    rule = WindowRule((1.0, 2.0), 3.0, 5.0)
    left = rule.lo + THRESHOLD_TOL
    right = rule.hi + THRESHOLD_TOL
    assert not rule.admits(left)
    assert rule.admits(math.nextafter(left, math.inf))
    assert rule.admits(right)
    assert not rule.admits(math.nextafter(right, math.inf))


def test_cap_alone_stops_every_path(binary_model, member_classifier):
    classify = member_classifier(binary_model, EmptyRule())
    table = lattice_metrics(binary_model, classify, 5)
    words = word_rows(
        enumerate_words(binary_model, classify, table, DEFAULT_ENUM_LIMIT)
    )
    assert table.word_count == len(words) == 2**5
    assert all(len(w) == 5 and extra for w, _, extra, _ in words)
    assert table.cap_mass == pytest.approx(1.0, abs=1e-12)
    assert math.fsum(table.masses) == pytest.approx(1.0, abs=1e-12)


def test_member_empty_profile_is_rejected():
    with pytest.raises(ValidationError):
        ProfileSet(2, 3, ExplicitProfilesRule(frozenset({(0, 0)})))


def test_enumeration_limit_is_enforced(binary_model, member_classifier):
    """The limit trips on the table's count, before any node is
    classified."""
    classify = member_classifier(binary_model, EmptyRule())
    table = lattice_metrics(binary_model, classify, 12)
    calls = []

    def counted(k):
        calls.append(k)
        return classify(k)

    with pytest.raises(ResourceError, match="enumeration limit of 100$"):
        enumerate_words(binary_model, counted, table, 100)
    assert not calls


def test_enumeration_lists_only_the_table_it_is_given():
    """The enumerator checks its walk against the table.  On (0.4, 0.6)
    with width 0.2 and cap 12, one second-set class taken and one word of
    another stopping: a word count one off, a quota one off, a quota
    removed, and a quota at a second-set class that no clean path reaches
    each raise, and the untouched table gives its words."""
    model = make_model(["0.4", "0.6"], 2)
    classify = NodeClassifier(
        ThresholdLowRule(model.d, 0.2), ThresholdHighRule(model.d, 0.2)
    )
    cap = 12
    whole, unreached = {}, []
    for level in range(1, cap):
        for a, flags in enumerate(classify.level(level)):
            if flags != SECOND:
                continue
            k = (a, level - a)
            table = lattice_metrics(model, classify, cap, taken={k})
            clean = dict(zip(table.profiles, table.counts)).get(k, 0)
            if clean:
                whole[k] = clean
            else:
                unreached.append(k)
    split = next(k for k, clean in whole.items() if clean > 1)
    taken = next(k for k in whole if k != split)
    table = lattice_metrics(
        model, classify, cap, taken={taken}, boundary=(split, 1)
    )
    assert table.second_stops == {taken: whole[taken], split: 1}
    words = enumerate_words(model, classify, table, table.word_count)
    assert len(words) == table.word_count
    tampered = [
        replace(table, word_count=table.word_count + 1),
        replace(table, word_count=table.word_count - 1),
        replace(table, second_stops={**table.second_stops, unreached[0]: 1}),
    ]
    for k, j in table.second_stops.items():
        others = {q: i for q, i in table.second_stops.items() if q != k}
        tampered += [
            replace(table, second_stops={**others, k: j + 1}),
            replace(table, second_stops={**others, k: j - 1}),
            replace(table, second_stops=others),
        ]
    for bad in tampered:
        with pytest.raises(
            ValidationError,
            match="^enumerated word count disagrees with the lattice DP$",
        ):
            enumerate_words(model, classify, bad, DEFAULT_ENUM_LIMIT)
    again = enumerate_words(model, classify, table, DEFAULT_ENUM_LIMIT)
    assert word_rows(again) == word_rows(words)


def test_the_dp_refuses_a_split_larger_than_its_class():
    """On (0.4, 0.6) with T = 4 and cap 16 the class (0, 1) has one clean
    word: the DP refuses to stop 6 of them, so no table, and no
    enumeration, exists for that split.  The builds there are unchanged:
    the boundary stops the one word, in both assignments."""
    model = make_model(["0.4", "0.6"], 2)
    low, high = build_threshold_sets(model, 4, 16)
    classify = NodeClassifier(low.rule, high.rule)
    with pytest.raises(
        ValidationError, match="^boundary class smaller than its split$"
    ):
        lattice_metrics(model, classify, 16, boundary=((0, 1), 6))
    table = lattice_metrics(model, classify, 16, boundary=((0, 1), 1))
    assert table.second_stops == {(0, 1): 1}
    digests = {
        "huffman": "382d75093bfc9dd742df754e14cf8f7b"
        "d19349a82d9dfed03268f06e41634fb9",
        "canonical": "10bef9efb5eac4bb887c7708869f46fe"
        "e3f3e6514078b2a1cbabb13403a50e5e",
    }
    for assignment, digest in digests.items():
        result = construct_vv(model, T=4, cap=16, assignment=assignment)
        assert result.provenance["boundary_profile"] == [0, 1]
        assert result.provenance["boundary_words"] == 1
        text = book_to_json(result.book)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_node_limit_is_enforced(ternary_model, member_classifier):
    classify = member_classifier(ternary_model, EmptyRule())
    with pytest.raises(ResourceError):
        lattice_metrics(ternary_model, classify, 200, node_limit=1000)


@pytest.mark.parametrize("cap", [0, -1])
def test_walks_reject_a_cap_below_one(
    binary_model, ternary_model, member_classifier, cap
):
    """A cap below 1 would stop no path: the forward DP and the knockout
    sweep, the walk over `NodeKeys` that takes a cap of its own, reject it
    before they start, on the flat and the keyed walk alike.  (The
    enumerator walks under the cap of a DP table.)  The node limit of 10
    keeps a walk that does start short."""
    message = f"cap must be >= 1, got {cap}"
    for model in (binary_model, ternary_model):
        low = ThresholdLowRule(model.d, 0.3)
        for classify in (
            NodeClassifier(low, EmptyRule()),
            member_classifier(model, low),
        ):
            with pytest.raises(InputError, match=message):
                lattice_metrics(model, classify, cap)
            with pytest.raises(InputError, match=message):
                _knockout_masses(model, classify, cap, {(1,) * model.m}, 10)


def test_profile_set_validates_construction():
    with pytest.raises(InputError):
        ProfileSet(1, 3, EmptyRule())
    with pytest.raises(InputError):
        ProfileSet(2, 0, EmptyRule())
    pset = ProfileSet(2, 3, EmptyRule())
    with pytest.raises(InputError):
        pset.member((1, 2, 3))


def test_wedge_merges_reference_sets(binary_model):
    m1 = [binary_model.word_from_text(w) for w in
          ["a", "baa", "bab", "bba", "bbb"]]
    m2 = [binary_model.word_from_text(w) for w in
          ["ab", "ba", "bbb", "bba", "aab", "aaa"]]
    merged = wedge(m1, m2)
    assert [binary_model.word_to_text(w) for w in merged] == [
        "a", "ba", "bba", "bbb",
    ]
    assert kraft_of_counts(Counter(map(len, merged)), 2) == 1


def test_wedge_is_commutative_associative_idempotent():
    rng = random.Random(29)

    def random_trie() -> list:
        words = [(1,), (2,)]
        for _ in range(rng.randrange(6)):
            w = words[rng.randrange(len(words))]
            if len(w) >= 6:
                continue
            words.remove(w)
            words.extend([w + (1,), w + (2,)])
        return sorted(words)

    for _ in range(20):
        a, b, c = random_trie(), random_trie(), random_trie()
        assert wedge(a, b) == wedge(b, a)
        assert wedge(a, a) == sorted(set(a))
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))
        union = set(a) | set(b)
        # the union words with no proper prefix in the union
        assert wedge(a, b) == sorted(
            w
            for w in union
            if all(w[:cut] not in union for cut in range(len(w)))
        )
        merged = wedge(a, b)
        assert is_prefix_free(merged)
        assert kraft_of_counts(Counter(map(len, merged)), 2) == 1


def test_prefix_remainder_mass_never_exceeds_one(binary_model):
    """For a prefix-free set M and any proper prefix A' of its words, the
    words continuing A' inside M themselves form a prefix-free set, so
    their conditional mass is at most 1."""
    m1 = [binary_model.word_from_text(w) for w in
          ["a", "baa", "bab", "bba", "bbb"]]
    prefixes = {w[:cut] for w in m1 for cut in range(1, len(w))}
    for prefix in prefixes:
        mass = math.fsum(
            word_probability(binary_model, w[len(prefix):])
            for w in m1
            if w[: len(prefix)] == prefix and len(w) > len(prefix)
        )
        assert mass <= 1.0 + 1e-12


def test_sentinel_runs_have_unit_mass_and_known_average(binary_model):
    words, tail = sentinel_runs(binary_model, count=1, max_len=60)
    assert is_prefix_free(words)
    # every word is a run of the sentinel 'b' closed by one 'a'
    assert all(set(w[:-1]) <= {2} and w[-1] == 1 for w in words)
    mass = math.fsum(word_probability(binary_model, w) for w in words)
    assert abs(mass - 1.0) <= 1e-6
    assert mass + tail == pytest.approx(1.0, abs=1e-9)
    avg = math.fsum(len(w) * word_probability(binary_model, w) for w in words)
    assert avg == pytest.approx(1.0 / 0.4, abs=1e-4)


def test_sentinel_words_split_uniquely_into_single_run_factors(binary_model):
    rng = random.Random(31)
    for _ in range(100):
        d = rng.randint(1, 5)
        runs = [rng.randint(0, 6) for _ in range(d)]
        word = ()
        for j in runs:
            word += (2,) * j + (1,)
        # profile count of non-sentinel letters recovers D
        assert profile_of(word, 2)[0] == d
        # splitting after each non-sentinel letter recovers the factors
        factors = []
        start = 0
        for i, s in enumerate(word):
            if s == 1:
                factors.append(word[start : i + 1])
                start = i + 1
        assert len(factors) == d
        assert tuple(x for f in factors for x in f) == word
        assert all(f[-1] == 1 and set(f[:-1]) <= {2} for f in factors)


def test_sentinel_runs_validate_arguments(binary_model):
    with pytest.raises(InputError):
        sentinel_runs(binary_model, count=-1, max_len=10)
    with pytest.raises(InputError):
        sentinel_runs(binary_model, count=5, max_len=3)
    words, tail = sentinel_runs(binary_model, count=0, max_len=10)
    assert words == [()]
    assert tail == 0.0


def test_shift_coverage_sampler_accepts_threshold_set(binary_model):
    t = 4
    pset = ProfileSet(2, 10**6, ThresholdLowRule(binary_model.d, 2.0 / t))
    report = check_shift_coverage(binary_model, pset, t, samples=25)
    assert report.ok, report.counterexample
    assert report.checked == 50


def test_shift_coverage_sampler_reports_counterexamples(binary_model):
    pset = ProfileSet(2, 10**6, EmptyRule())
    report = check_shift_coverage(binary_model, pset, 3, samples=5)
    assert not report.ok
    assert report.counterexample is not None
