"""Variable-to-variable construction: lengths, Huffman/canonical codewords,
the Kraft merge, the lattice pipeline, and parameter selection."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest

from wordcodes.analysis import code_metrics, scaling_experiment
from wordcodes.errors import (
    InfeasibleError,
    InputError,
    ResourceError,
    ValidationError,
)
from wordcodes.source_model import (
    linear_form,
    make_model,
    profile_of,
    word_probability,
)
from wordcodes.word_sets import (
    DEFAULT_NODE_LIMIT,
    THRESHOLD_TOL,
    UnionRule,
    lattice_metrics,
    node_classifier,
)
from wordcodes.vv_construct import (
    _joint_dp,
    _profiles_of_length,
    assign_codewords,
    build_threshold_sets,
    canonical_codewords,
    choose_cap,
    code_length_for,
    construct_vv,
    floor_form,
    huffman_lengths,
    kraft_sum,
    merge_to_kraft,
    threshold_parameter_candidates,
)


def test_floor_form_snaps_values_just_below_integers():
    assert floor_form(2.3) == 2
    assert floor_form(3.0 - 1e-15) == 3
    assert floor_form(3.0) == 3
    assert floor_form(-0.2) == -1


def test_code_length_never_drops_below_one():
    assert code_length_for(0.3, in_second=False) == 1
    assert code_length_for(0.3, in_second=True) == 1
    assert code_length_for(2.8, in_second=False) == 2
    assert code_length_for(2.8, in_second=True) == 3


def test_kraft_sum_is_exact():
    assert kraft_sum([1, 2, 3, 3], 2) == Fraction(1)
    assert kraft_sum([1, 3, 2, 3, 3], 2) == Fraction(9, 8)
    assert kraft_sum([1, 1, 1], 3) == Fraction(1)


def _brute_force_optimal_cost(probs, arity, max_len=5):
    best = float("inf")
    k = len(probs)
    for lengths in itertools.product(range(1, max_len + 1), repeat=k):
        if kraft_sum(lengths, arity) > 1:
            continue
        cost = sum(p * length for p, length in zip(probs, lengths))
        best = min(best, cost)
    return best


def test_huffman_lengths_are_optimal_against_brute_force():
    rng = random.Random(41)
    for _ in range(20):
        k = rng.randint(2, 4)
        arity = rng.choice([2, 3])
        weights = [rng.randint(1, 9) for _ in range(k)]
        total = sum(weights)
        probs = [w / total for w in weights]
        lengths = huffman_lengths(probs, arity)
        assert kraft_sum(lengths, arity) <= 1
        cost = sum(p * length for p, length in zip(probs, lengths))
        assert cost == pytest.approx(
            _brute_force_optimal_cost(probs, arity), abs=1e-12
        )


def test_huffman_lengths_known_cases():
    assert huffman_lengths([0.6, 0.4], 2) == [1, 1]
    assert huffman_lengths([0.5, 0.25, 0.25], 2) == [1, 2, 2]
    assert huffman_lengths([1.0], 2) == [1]
    # quaternary input over a ternary output alphabet needs a dummy leaf
    assert huffman_lengths([0.4, 0.3, 0.2, 0.1], 3) == [1, 1, 2, 2]


def test_canonical_codewords_are_prefix_free_and_lexicographic():
    codes = canonical_codewords([1, 2, 3, 3], 2)
    assert codes == ["0", "10", "110", "111"]
    codes = canonical_codewords([1, 1, 2, 2], 3)
    assert codes == ["0", "1", "20", "21"]


def test_canonical_codewords_reject_infeasible_lengths():
    with pytest.raises(InfeasibleError):
        canonical_codewords([1, 1, 1], 2)


def test_assign_codewords_huffman_relabels_reference_words(binary_model):
    words = [binary_model.word_from_text(w) for w in
             ["a", "ba", "bba", "bbb"]]
    items = [
        (w, word_probability(binary_model, w), 9)  # lengths ignored
        for w in words
    ]
    entries = assign_codewords(binary_model, items, "huffman")
    table = {
        binary_model.word_to_text(e.word): e.codeword for e in entries
    }
    assert table == {"a": "0", "ba": "10", "bba": "110", "bbb": "111"}


def test_assign_codewords_canonical_keeps_given_lengths(binary_model):
    words = [binary_model.word_from_text(w) for w in
             ["a", "ba", "bba", "bbb"]]
    lengths = {"a": 1, "ba": 3, "bba": 3, "bbb": 3}
    items = [
        (
            w,
            word_probability(binary_model, w),
            lengths[binary_model.word_to_text(w)],
        )
        for w in words
    ]
    entries = assign_codewords(binary_model, items, "canonical")
    got = {
        binary_model.word_to_text(e.word): len(e.codeword) for e in entries
    }
    assert got == lengths


def test_assign_codewords_rejects_unknown_mode(binary_model):
    with pytest.raises(InputError):
        assign_codewords(binary_model, [((1,), 0.4, 1)], "optimal")


def test_threshold_sets_use_width_two_over_t(binary_model):
    low, high = build_threshold_sets(binary_model, 4, cap=16)
    assert low.member((1, 0)) and not high.member((1, 0))
    assert high.member((1, 2)) and not low.member((1, 2))
    # the cap is a member of both regardless of the rule
    assert low.member((16, 0)) and high.member((16, 0))
    with pytest.raises(InputError):
        build_threshold_sets(binary_model, 0, cap=16)


def test_threshold_parameter_below_one_is_an_input_error(binary_model):
    for T in (0, -3):
        with pytest.raises(InputError):
            choose_cap(binary_model, T)
        with pytest.raises(InputError):
            construct_vv(binary_model, T=T)
        with pytest.raises(InputError):
            scaling_experiment(binary_model, t_list=[T])


def test_threshold_width_must_be_finite_and_positive(binary_model):
    for theta in (0.0, -1.0, -0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(InputError, match="threshold width"):
            build_threshold_sets(binary_model, 4, cap=16, theta=theta)
        with pytest.raises(InputError, match="threshold width"):
            construct_vv(binary_model, T=4, theta=theta)
    # widths of 1 or more stay legal: 2/T is already 2 at T=1
    low, high = build_threshold_sets(binary_model, 4, cap=16, theta=1.0)
    assert low.member((1, 0)) and high.member((1, 0))
    assert construct_vv(binary_model, T=4, theta=5.0).book is not None


def test_negative_enumeration_limit_is_an_input_error(binary_model):
    with pytest.raises(InputError, match="enumeration limit"):
        construct_vv(binary_model, T=4, enum_limit=-1)
    with pytest.raises(InputError, match="enumeration limit"):
        construct_vv(binary_model, first_words=[(1,), (2,)], enum_limit=-1)


def test_merge_reproduces_reference_trace(binary_model, reference_result):
    result = reference_result
    assert result.path == "extended"
    assert result.trace.k0 == 2
    assert [binary_model.word_to_text(w) for w in result.trace.nontrivial] == [
        "ba"
    ]
    assert result.provenance["kraft_first"] == "9/8"
    assert result.provenance["kraft_second"] == "5/8"
    assert result.provenance["kraft_merged"] == "7/8"
    # final merge lengths before codeword assignment: 1/2 + 3 * 1/8
    assert result.provenance["kraft_final"] == "7/8"


def test_merge_steps_shrink_kraft_by_bounded_amounts(binary_model):
    m1 = [binary_model.word_from_text(w) for w in
          ["a", "baa", "bab", "bba", "bbb"]]
    m2 = [binary_model.word_from_text(w) for w in
          ["ab", "ba", "bbb", "bba", "aab", "aaa"]]
    _, trace, report = merge_to_kraft(binary_model, m1, m2)
    n = binary_model.arity
    g_prev = report["kraft_first"]
    for step in trace.steps:
        assert step.kraft_after <= g_prev
        drop = float(g_prev - step.kraft_after)
        p = word_probability(binary_model, step.word)
        assert drop <= n * p + 1e-12
        g_prev = step.kraft_after
    assert g_prev <= 1


def test_merge_base_path_when_first_set_is_feasible(binary_model):
    first = [binary_model.word_from_text(w) for w in ["a", "b"]]
    pairs, trace, report = merge_to_kraft(binary_model, first, [])
    assert trace.path == "base"
    assert report["kraft_second"] is None
    assert [(binary_model.word_to_text(w), l) for w, l in pairs] == [
        ("a", 1),
        ("b", 1),
    ]


def test_second_set_lengths_always_satisfy_kraft(make_random_book):
    """Incremented lengths never overfill: each term n^(-floor(f)-1) is at
    most the word's probability, so any prefix-free second set is a valid
    fallback and the merge always has a feasible outcome."""
    rng = random.Random(43)
    for _ in range(25):
        book = make_random_book(rng, "rounded")
        model = book.model
        words = [e.word for e in book.entries]
        lengths = [
            code_length_for(
                linear_form(model, profile_of(w, model.m)), True
            )
            for w in words
        ]
        assert kraft_sum(lengths, model.arity) <= 1


def test_pipeline_collapses_to_alphabet_code_at_t4(binary_model):
    result = construct_vv(binary_model, T=4, assignment="canonical")
    assert result.path == "extended"
    assert result.cap == 16
    book = result.book
    assert book is not None
    table = {binary_model.word_to_text(e.word): e.codeword for e in book.entries}
    assert table == {"a": "0", "b": "1"}
    assert result.dp_metrics.avg_delay == pytest.approx(1.0, abs=1e-12)
    assert result.dp_metrics.redundancy == pytest.approx(
        0.02904940554533139, abs=1e-12
    )


def test_dp_metrics_match_book_metrics_for_canonical_assignment(binary_model):
    for t in (1, 3, 4):
        result = construct_vv(binary_model, T=t, assignment="canonical")
        assert result.book is not None
        book_met = code_metrics(result.book)
        dp_met = result.dp_metrics
        assert dp_met.word_count == book_met.word_count
        assert dp_met.kraft_exact == book_met.kraft_exact
        assert dp_met.avg_delay == pytest.approx(
            book_met.avg_delay, abs=1e-12
        )
        assert dp_met.avg_code_length == pytest.approx(
            book_met.avg_code_length, abs=1e-12
        )
        assert dp_met.redundancy == pytest.approx(
            book_met.redundancy, abs=1e-12
        )
        assert dp_met.sum_p_eps == pytest.approx(
            book_met.sum_p_eps, abs=1e-12
        )


def test_canonical_constructions_keep_unit_excess(binary_model):
    for t in (1, 3, 4):
        result = construct_vv(binary_model, T=t, assignment="canonical")
        met = code_metrics(result.book)
        assert met.eps_all_within_one
        # threshold-rule words (all of them here) stay within 2/T
        if t >= 3:
            assert met.eps_max_abs <= 2.0 / t + 1e-12


def test_huffman_assignment_never_beats_canonical_on_average(binary_model):
    for t in (3, 4):
        canonical = construct_vv(binary_model, T=t, assignment="canonical")
        huffman = construct_vv(binary_model, T=t, assignment="huffman")
        c_met = code_metrics(canonical.book)
        h_met = code_metrics(huffman.book)
        assert h_met.avg_code_length <= c_met.avg_code_length + 1e-12


def test_swapped_path_at_t19_metrics_grade(binary_model):
    result = construct_vv(
        binary_model, T=19, grade="metrics", assignment="canonical"
    )
    assert result.path == "swapped"
    assert result.cap == 361
    assert result.book is None
    met = result.dp_metrics
    assert met.avg_delay == pytest.approx(11.686687193700186, rel=1e-9)
    assert met.redundancy == pytest.approx(0.00514821067947747, rel=1e-9)
    assert met.kraft_exact <= 1
    assert met.total_prob == pytest.approx(1.0, abs=1e-9)


def test_codec_grade_rejects_unenumerable_explicit_t(binary_model):
    with pytest.raises(ResourceError):
        construct_vv(binary_model, T=19, grade="codec")


def test_auto_selection_picks_largest_enumerable_candidate(binary_model):
    result = construct_vv(binary_model)  # grade codec, T auto
    assert result.T == 4
    assert result.book is not None
    info = result.provenance["t_selection"]
    assert info["case"] == "irrational"
    assert info["candidates"] == [1, 3, 4, 19]
    assert info["source_symbol"] == "b"


def test_auto_selection_at_metrics_grade_prefers_first_above_four(
    binary_model,
):
    result = construct_vv(binary_model, T="auto", grade="metrics")
    assert result.T == 19


def test_threshold_candidates_for_rational_source():
    model = make_model(["0.5", "0.25", "0.25"], 2)
    info = threshold_parameter_candidates(model)
    assert info["case"] == "rational"
    assert info["q"] == 1
    assert info["candidates"] == [5, 10, 20, 40]


def test_choose_cap_meets_mass_target(binary_model):
    cap, set_low, set_high, tables, history = choose_cap(binary_model, 4)
    assert cap == history[-1][0]
    hard = max(16, math.ceil(8 * 4**3 * math.log(4)))
    assert 16 <= cap <= hard
    worst = history[-1][1]
    assert worst <= 1.0 / 16 or cap == hard
    assert set_low.cap == set_high.cap == cap


def test_explicit_mode_validates_word_lists(binary_model):
    a = binary_model.word_from_text("a")
    b = binary_model.word_from_text("b")
    ab = binary_model.word_from_text("ab")
    with pytest.raises(ValidationError):
        construct_vv(binary_model, first_words=[a, a, b])
    with pytest.raises(ValidationError):
        construct_vv(binary_model, first_words=[a, ab, b])
    with pytest.raises(ValidationError):
        construct_vv(binary_model, first_words=[a])  # incomplete
    with pytest.raises(InputError):
        construct_vv(binary_model, second_words=[a, b])


def test_unknown_grade_and_assignment_are_rejected(binary_model):
    with pytest.raises(InputError):
        construct_vv(binary_model, grade="fast")
    with pytest.raises(InputError):
        construct_vv(binary_model, assignment="optimal")


def test_reference_book_carries_expected_entries(binary_model, reference_book):
    table = {
        binary_model.word_to_text(e.word): e.codeword
        for e in reference_book.entries
    }
    assert table == {"a": "0", "ba": "10", "bba": "110", "bbb": "111"}
    assert reference_book.kind == "vv"
    assert reference_book.kraft_exact() == 1
    probs = {
        binary_model.word_to_text(e.word): e.probability
        for e in reference_book.entries
    }
    assert probs["ba"] == pytest.approx(0.24, abs=1e-15)


def test_word_information_equals_entropy_times_delay_on_complete_books(
    binary_model, reference_book
):
    # For a complete prefix-free word set, the expected information content
    # of one word equals entropy times expected word length.
    lhs = -math.fsum(
        e.probability * math.log2(e.probability)
        for e in reference_book.entries
    )
    nbar = math.fsum(
        e.probability * len(e.word) for e in reference_book.entries
    )
    h = 0.9709505944546686
    assert lhs == pytest.approx(h * nbar, abs=1e-9)


def test_construction_lengths_follow_membership_rule(binary_model):
    m2 = {binary_model.word_from_text(w) for w in
          ["ab", "ba", "bbb", "bba", "aab", "aaa"]}
    for text, expected in [("a", 1), ("ba", 3), ("bba", 3), ("bbb", 3),
                           ("baa", 3), ("bab", 2)]:
        w = binary_model.word_from_text(text)
        form = linear_form(binary_model, profile_of(w, 2))
        assert code_length_for(form, w in m2) == expected


def _threshold_cases():
    """(model, T) pairs for checking the lattice sweeps against the rules.

    Seeded random sources with m and n in {2, 3} and T in 3..8, plus sources
    whose exponents are rational.  At n=2 those hit integers exactly; at
    n=32 and n=8 their exponents are inexact in binary64, so some forms land
    within THRESHOLD_TOL below an integer (snapped) or just above one.
    """
    cases = [
        (make_model(["0.25", "0.75"], 2), 4),
        (make_model(["0.5", "0.25", "0.25"], 2), 5),
        (make_model(["0.25", "0.75"], 32), 6),
        (make_model(["0.5", "0.25", "0.25"], 32), 5),
        (make_model(["0.5", "0.25", "0.25"], 8), 3),
    ]
    rng = random.Random(2)
    for _ in range(12):
        m = rng.choice([2, 3])
        n = rng.choice([2, 3])
        T = rng.randint(3, 8)
        weights = [rng.randint(1, 9) for _ in range(m)]
        total = sum(weights)
        cases.append((make_model([Fraction(w, total) for w in weights], n), T))
    return cases


def test_node_classifier_agrees_with_profile_set_membership():
    snapped = 0
    for model, T in _threshold_cases():
        cap = T * T
        set_low, set_high = build_threshold_sets(model, T, cap)
        classify = node_classifier(set_low.rule, set_high.rule)
        for level in range(1, cap + 1):
            for k in _profiles_of_length(level, model.m):
                form, low, high = classify(k)
                assert form == linear_form(model, k)
                assert (level == cap or low) == set_low.member(k)
                assert (level == cap or high) == set_high.member(k)
                snapped += form - math.floor(form) >= 1.0 - THRESHOLD_TOL
    assert snapped


def test_joint_dp_kraft_merged_matches_union_sweep(member_classifier):
    paths = set()
    for model, T in _threshold_cases():
        cap = T * T
        set_low, set_high = build_threshold_sets(model, T, cap)
        tables = _joint_dp(model, set_low, set_high, DEFAULT_NODE_LIMIT)
        union = member_classifier(
            model, UnionRule((set_low.rule, set_high.rule))
        )
        union_stops = lattice_metrics(model, union, cap).stops
        reference = sum(
            (
                Fraction(count, model.arity ** code_length_for(
                    linear_form(model, k), set_high.member(k)
                ))
                for k, (count, *_) in union_stops.items()
            ),
            start=Fraction(0),
        )
        assert tables.kraft_merged == reference
        assert sorted(tables.classes) == sorted(
            (linear_form(model, k), k, count)
            for k, (count, *_) in union_stops.items()
            if set_high.member(k) and not set_low.member(k)
        )
        result = construct_vv(
            model, T=T, cap=cap, grade="metrics", enum_limit=0
        )
        paths.add(result.path)
        if result.path != "base":
            assert result.provenance["kraft_merged"] == str(reference)
    assert {"extended", "swapped"} <= paths


def test_joint_and_final_dps_stop_at_the_node_limit(binary_model):
    cap = 36
    set_low, set_high = build_threshold_sets(binary_model, 6, cap)
    classify = node_classifier(set_low.rule, set_high.rule)
    # levels 1..36 hold 702 nodes in all, so a limit of 703 never trips
    assert _joint_dp(binary_model, set_low, set_high, 703).kraft_first > 0
    assert lattice_metrics(binary_model, classify, cap, 703).word_count > 0
    with pytest.raises(ResourceError, match="joint lattice DP"):
        _joint_dp(binary_model, set_low, set_high, 40)
    with pytest.raises(ResourceError, match="^lattice DP"):
        lattice_metrics(binary_model, classify, cap, 40)
