"""Variable-to-variable construction: lengths, Huffman/canonical codewords,
the Kraft merge, the lattice pipeline, and parameter selection."""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
import re
from collections import Counter
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

import pytest

from conftest import entries_of, huffman_entries
from lattice_helpers import profiles_of_length
from wordcodes.analysis import code_metrics, scaling_experiment
from wordcodes.codebook import (
    _assert_prefix_free,
    format_digits,
    kraft_of_counts,
)
from wordcodes.errors import (
    InfeasibleError,
    InputError,
    ResourceError,
    ValidationError,
)
from wordcodes.serialization import book_to_json
from wordcodes.source_model import (
    linear_form,
    make_model,
    profile_of,
    word_probability,
)
from wordcodes.word_sets import (
    DEFAULT_NODE_LIMIT,
    DEFAULT_T_MAX,
    FIRST,
    SECOND,
    THRESHOLD_TOL,
    NodeClassifier,
    Rule,
    enumerate_words,
    is_prefix_free,
    lattice_metrics,
    sentinel_runs,
    wedge,
)
from wordcodes.vv_construct import (
    MergeStep,
    MergeTrace,
    _joint_dp,
    _merge_path,
    assign_codewords,
    build_threshold_sets,
    canonical_codewords,
    choose_cap,
    code_length_for,
    construct_vv,
    floor_form,
    huffman_lengths,
    merge_to_kraft,
    threshold_parameter_candidates,
)


@dataclass(frozen=True)
class UnionRule(Rule):
    """Membership in any of `rules`: the union of the low and high sets,
    walked through the `member_classifier` fixture."""

    rules: tuple[Rule, ...]

    def member(self, profile) -> bool:
        return any(r.member(profile) for r in self.rules)


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
    assert kraft_of_counts(Counter([1, 2, 3, 3]), 2) == Fraction(1)
    assert kraft_of_counts(Counter([1, 3, 2, 3, 3]), 2) == Fraction(9, 8)
    assert kraft_of_counts(Counter([1, 1, 1]), 3) == Fraction(1)


def _brute_force_optimal_cost(probs, arity, max_len=5):
    best = float("inf")
    k = len(probs)
    for lengths in itertools.product(range(1, max_len + 1), repeat=k):
        if kraft_of_counts(Counter(lengths), arity) > 1:
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
        assert kraft_of_counts(Counter(lengths), arity) <= 1
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


def reference_huffman_lengths(probs, arity):
    """The heap construction: pop the `arity` lightest (weight, creation)
    nodes, push their `fsum`, and read the depths off the finished tree."""
    import heapq

    k = len(probs)
    if k == 1:
        return [1]
    dummies = (arity - 1 - (k - 1) % (arity - 1)) % (arity - 1)
    heap = [(p, i) for i, p in enumerate(probs)]
    heap += [(0.0, k + j) for j in range(dummies)]
    heapq.heapify(heap)
    children = {}
    next_id = k + dummies
    while len(heap) > 1:
        group = [heapq.heappop(heap) for _ in range(arity)]
        children[next_id] = [node for _, node in group]
        heapq.heappush(heap, (math.fsum(w for w, _ in group), next_id))
        next_id += 1
    depth = [0] * k
    stack = [(heap[0][1], 0)]
    while stack:
        node, d = stack.pop()
        if node < k:
            depth[node] = d
        elif node in children:
            stack.extend((c, d + 1) for c in children[node])
    return depth


def reference_assign_codewords(model, items, assignment):
    """Huffman over the words sorted by (-probability, word), then
    canonical codewords over the entries sorted by (length, word)."""
    if assignment == "huffman":
        by_prob = sorted(items, key=lambda it: (-it[1], it[0]))
        lengths = reference_huffman_lengths([p for _, p, _ in by_prob], model.arity)
        items = [(w, p, n) for (w, p, _), n in zip(by_prob, lengths)]
    ordered = sorted(items, key=lambda it: (it[2], it[0]))
    codewords = canonical_codewords([n for _, _, n in ordered], model.arity)
    return [(w, c, p) for (w, p, _), c in zip(ordered, codewords)]


def _tied_weights(rng, k):
    """k weights with many exact ties: dyadic values, repeated randoms and
    a few zeros, in shuffled order."""
    pool = [2.0**-j for j in range(1, 12)] + [rng.random() for _ in range(4)]
    weights = [rng.choice(pool) for _ in range(k)]
    if k > 3:
        weights[rng.randrange(k)] = 0.0
    rng.shuffle(weights)
    return weights


def test_two_queue_huffman_equals_the_heap_construction():
    rng = random.Random(1976)
    for arity in (2, 3, 4, 5):
        for k in range(1, 301):
            weights = _tied_weights(rng, k)
            assert huffman_lengths(weights, arity) == (
                reference_huffman_lengths(weights, arity)
            ), (arity, k)


def test_assign_codewords_equals_the_sorting_reference():
    rng = random.Random(1952)
    for arity in (2, 3, 4, 5):
        model = make_model(["0.2", "0.3", "0.5"], arity)
        for k in (1, 2, 3, 7, 40, 150, 300):
            words = set()
            while len(words) < k:
                words.add(tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 8))))
            weights = _tied_weights(rng, k)
            words = list(words)
            rng.shuffle(words)
            lengths = huffman_lengths(weights, arity)
            items = list(zip(words, weights, lengths))
            for assignment, entries in (
                ("huffman", huffman_entries(model, words, weights)),
                ("canonical", assign_codewords(model, words, weights, lengths)),
            ):
                got = [(e.word, e.codeword, e.probability) for e in entries]
                assert got == reference_assign_codewords(
                    model, items, assignment
                ), (arity, k, assignment)


@pytest.mark.parametrize("arity", [1, 0, -2])
def test_huffman_lengths_reject_arity_below_two(arity):
    with pytest.raises(InputError, match="arity must be >= 2"):
        huffman_lengths([0.5, 0.25, 0.25], arity)
    with pytest.raises(InputError, match="arity must be >= 2"):
        huffman_lengths([1.0], arity)


def test_canonical_codewords_are_prefix_free_and_lexicographic():
    codes = canonical_codewords([1, 2, 3, 3], 2)
    assert codes == ["0", "10", "110", "111"]
    codes = canonical_codewords([1, 1, 2, 2], 3)
    assert codes == ["0", "1", "20", "21"]


def test_canonical_codewords_reject_infeasible_lengths():
    with pytest.raises(InfeasibleError):
        canonical_codewords([1, 1, 1], 2)


def per_word_canonical_codewords(lengths, arity):
    """`canonical_codewords` as it was written, one check per word."""
    out = []
    code = 0
    prev = 0
    for length in lengths:
        if length < prev:
            raise InputError("lengths must be sorted in non-decreasing order")
        code *= arity ** (length - prev)
        if code >= arity**length:
            raise InfeasibleError(
                "codeword space exhausted; lengths violate the Kraft inequality"
            )
        out.append(format_digits(code, arity, length))
        code += 1
        prev = length
    return out


def _canonical_outcome(fn, lengths, arity):
    try:
        return fn(lengths, arity)
    except (InputError, InfeasibleError) as exc:
        return type(exc), str(exc)


def test_canonical_codewords_match_the_per_word_loop():
    """Seeded Kraft-feasible, Kraft-violating, unsorted and empty length
    lists, at arity 2 to 5: the same codewords or the same error."""
    rng = random.Random(41)
    seen = set()
    for arity in range(2, 6):
        for _ in range(60):
            probs = [rng.random() + 1e-3 for _ in range(rng.randint(1, 60))]
            lengths = sorted(huffman_lengths(probs, arity))
            cases = [lengths, [0] + lengths, []]
            grown = [n + rng.choice([0, 0, 1, 2]) for n in lengths]
            cases.append(sorted(grown))
            shrunk = [max(0, n - rng.choice([0, 1])) for n in lengths]
            cases.append(sorted(shrunk))
            shuffled = lengths[:]
            rng.shuffle(shuffled)
            cases.append(shuffled)
            # a violation after an unsorted step, and the other way round
            cases.append(lengths[:1] * (arity + 1) + [0])
            cases.append([2, 1] + [2] * (arity * arity + 1))
            for case in cases:
                expect = _canonical_outcome(
                    per_word_canonical_codewords, case, arity
                )
                got = _canonical_outcome(canonical_codewords, case, arity)
                assert got == expect
                seen.add(expect[0] if isinstance(expect, tuple) else list)
    assert seen == {list, InputError, InfeasibleError}


def test_assign_codewords_huffman_relabels_reference_words(binary_model):
    words = [binary_model.word_from_text(w) for w in
             ["a", "ba", "bba", "bbb"]]
    probs = [word_probability(binary_model, w) for w in words]
    entries = huffman_entries(binary_model, words, probs)
    table = {
        binary_model.word_to_text(e.word): e.codeword for e in entries
    }
    assert table == {"a": "0", "ba": "10", "bba": "110", "bbb": "111"}


def test_huffman_ties_follow_word_order_not_construction_lengths():
    """Equal probabilities can carry different construction lengths on
    explicit word lists: here a and b (second-set words, one digit more)
    and cc (first set only) have p = 1/4.  A Huffman book breaks its ties
    over the words in lexicographic order, not in the (construction
    length, word) order a canonical book takes, which would put cc before
    a and b and give a and b the one-digit codewords.  The book is the
    one the library gave when this test was added."""
    model = make_model(["0.25", "0.25", "0.5"], 3)
    words = [model.word_from_text(t) for t in ["a", "b", "ca", "cb", "cc"]]
    second = [model.word_from_text(t) for t in ["cca", "ccb", "ccc"]]
    result = construct_vv(
        model, first_words=words, second_words=words[:4] + second
    )
    assert result.provenance["path"] == "base"
    book = result.book
    table = dict(zip(map(model.word_to_text, book.words), book.codewords))
    assert table == {"b": "0", "cc": "1", "a": "20", "ca": "21", "cb": "22"}
    probs = [word_probability(model, w) for w in words]
    assert entries_of(book) == huffman_entries(model, words, probs)
    canonical = construct_vv(
        model,
        first_words=words,
        second_words=words[:4] + second,
        assignment="canonical",
    ).book
    assert dict(
        zip(map(model.word_to_text, canonical.words), canonical.codewords)
    ) == {"cc": "0", "a": "10", "b": "11", "ca": "12", "cb": "20"}


def test_assign_codewords_canonical_keeps_given_lengths(binary_model):
    words = [binary_model.word_from_text(w) for w in
             ["a", "ba", "bba", "bbb"]]
    lengths = {"a": 1, "ba": 3, "bba": 3, "bbb": 3}
    entries = assign_codewords(
        binary_model,
        words,
        [word_probability(binary_model, w) for w in words],
        [lengths[binary_model.word_to_text(w)] for w in words],
    )
    got = {
        binary_model.word_to_text(e.word): len(e.codeword) for e in entries
    }
    assert got == lengths


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
    for theta in (
        0.0, -1.0, -0.0, math.nan, math.inf, -math.inf,
        # an int or a float, not a bool: True would build a book whose
        # provenance says "theta": true, a Fraction one the writer refuses
        True, Fraction(1, 2), Decimal("0.5"), "0.1", 1j, [0.1],
    ):
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


def test_negative_node_limit_is_an_input_error(binary_model):
    """Refused before the cap's up-front node check, in every mode."""
    for limit in (-1, -5):
        message = f"^node limit must be >= 0, got {limit}$"
        with pytest.raises(InputError, match=message):
            construct_vv(binary_model, T=4, node_limit=limit)
        with pytest.raises(InputError, match=message):
            construct_vv(binary_model, node_limit=limit)
        with pytest.raises(InputError, match=message):
            construct_vv(
                binary_model, first_words=[(1,), (2,)], node_limit=limit
            )


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


def test_merge_path_takes_a_kraft_sum_of_exactly_one():
    """A Kraft sum of exactly 1 is feasible for each of the three sets, in
    their order of preference: the first set, the merge, the second set."""
    one, over = Fraction(1), Fraction(2**20 + 1, 2**20)
    assert _merge_path(one, over, over) == "base"
    assert _merge_path(one, one, None) == "base"
    assert _merge_path(over, one, over) == "extended"
    assert _merge_path(over, one, None) == "extended"
    assert _merge_path(over, over, one) == "swapped"
    for second in (over, None):
        with pytest.raises(InfeasibleError, match="neither the first set"):
            _merge_path(over, over, second)


# -- the word-level merge against its frozen quadratic reference ------------


def reference_merge_to_kraft(model, first_words, second_words):
    """The word-level merge as it was before it became the one-word-per-class
    case of the class scan: after each added word it rebuilds the merged
    set and its exact Kraft sum, so a merge costs O(k0 * N).  Frozen here
    as the reference for the merge's pairs, trace and Kraft report."""
    n = model.arity
    second_set = set(second_words)

    def length_of(w):
        form = linear_form(model, profile_of(w, model.m))
        return code_length_for(form, w in second_set)

    def kraft(words):
        return kraft_of_counts(Counter(map(length_of, words)), n)

    kraft_first = kraft(first_words)
    kraft_second = kraft(second_words) if second_words else None
    merged_all = wedge(first_words, second_words)
    kraft_merged = kraft(merged_all)
    report = {
        "kraft_first": kraft_first,
        "kraft_second": kraft_second,
        "kraft_merged": kraft_merged,
    }

    if kraft_first <= 1:
        final = sorted(first_words)
        return (
            [(w, length_of(w)) for w in final],
            MergeTrace(path="base"),
            report,
        )

    if kraft_merged <= 1:
        order = sorted(
            second_words,
            key=lambda w: (-word_probability(model, w), w),
        )
        union = set(first_words)
        added = []
        trace = MergeTrace(path="extended")
        for idx, w in enumerate(order, start=1):
            entered = w not in union and not any(
                w[:cut] in union for cut in range(1, len(w))
            )
            union.add(w)
            added.append(w)
            current = wedge(first_words, added)
            g = kraft(current)
            if entered:
                trace.nontrivial.append(w)
            trace.steps.append(
                MergeStep(
                    profile=profile_of(w, model.m),
                    word=w,
                    added=1,
                    entered=entered,
                    kraft_after=g,
                )
            )
            if g <= 1:
                trace.k0 = idx
                final = wedge(first_words, added)
                return [(w, length_of(w)) for w in final], trace, report
        raise ValidationError(
            "merge consumed the whole second set without crossing Kraft 1, "
            "yet the full merge was feasible; inputs are inconsistent"
        )

    if kraft_second is not None and kraft_second <= 1:
        final = sorted(second_words)
        return (
            [(w, length_of(w)) for w in final],
            MergeTrace(path="swapped", k0=0),
            report,
        )

    raise InfeasibleError(
        "neither the first set, nor the merge, nor the second set satisfies "
        "the Kraft inequality with the assigned lengths"
    )


def _random_tree_words(rng, model, size, weighted=True):
    """Leaves of a random complete m-ary trie grown to at least `size`
    leaves, each step splitting a leaf picked at random, by probability
    when `weighted`; returned in random order."""
    leaves, probs = [()], [1.0]
    while len(leaves) < size:
        if weighted:
            i = rng.choices(range(len(leaves)), weights=probs)[0]
        else:
            i = rng.randrange(len(leaves))
        w, p = leaves.pop(i), probs.pop(i)
        leaves += [w + (s,) for s in range(1, model.m + 1)]
        probs += [p * q for q in model.probs]
    rng.shuffle(leaves)
    return leaves


def _merge_outcome(merge, model, first, second):
    try:
        return repr(merge(model, first, second))
    except InfeasibleError as exc:
        return f"InfeasibleError: {exc}"


def test_merge_to_kraft_equals_the_frozen_reference():
    """Seeded valid pairs of complete prefix-free lists: two to four
    symbols, two or three digits, equiprobable sources, words in both
    lists, an empty second list, and long two-symbol merges with k0 of
    100 or more."""
    rng = random.Random(15)
    seen = set()
    cases = []
    for _ in range(400):
        m = rng.choice((2, 3, 4))
        equal = rng.random() < 0.2
        weights = [1] * m if equal else [rng.randint(1, 20) for _ in range(m)]
        model = make_model(
            [Fraction(w, sum(weights)) for w in weights], rng.choice((2, 3))
        )
        top = rng.choice((12, 40))
        first = _random_tree_words(rng, model, rng.randint(1, top))
        second = (
            _random_tree_words(rng, model, rng.randint(1, top))
            if rng.random() < 0.95
            else []
        )
        cases.append((model, first, second, equal))
    while sum(1 for c in cases if len(c[1]) > 250) < 12:
        weights = [rng.randint(1, 20) for _ in range(2)]
        model = make_model([Fraction(w, sum(weights)) for w in weights], 2)
        first = _random_tree_words(rng, model, rng.randint(250, 400))
        second = _random_tree_words(rng, model, rng.randint(250, 400))
        cases.append((model, first, second, False))
    for model, first, second, equal in cases:
        expected = _merge_outcome(
            reference_merge_to_kraft, model, first, second
        )
        assert _merge_outcome(merge_to_kraft, model, first, second) == expected
        if expected.startswith("InfeasibleError"):
            continue
        _, trace, _ = merge_to_kraft(model, first, second)
        seen.add(trace.path)
        if trace.path == "extended":
            seen.add(("m", model.m))
            seen.add(("arity", model.arity))
            if equal:
                seen.add("equiprobable")
            if set(first) & set(second):
                seen.add("shared words")
            if trace.k0 >= 100:
                seen.add("k0 >= 100")
    assert seen >= {
        "base",
        "extended",
        "swapped",
        ("m", 2),
        ("m", 3),
        ("m", 4),
        ("arity", 2),
        ("arity", 3),
        "equiprobable",
        "shared words",
        "k0 >= 100",
    }


def test_merge_to_kraft_rejects_duplicates_and_extensions(binary_model):
    """Each list must be prefix-free and free of duplicates: otherwise its
    Kraft sum would count a word and its extension both."""
    a, b, ab = ((1,), (2,), (1, 2))
    valid = [a, b]
    for faulty, what in (([a, a, b], "duplicate"), ([a, ab, b], "extends")):
        with pytest.raises(ValidationError, match=f"{what}.*first word"):
            merge_to_kraft(binary_model, faulty, valid)
        with pytest.raises(ValidationError, match=f"{what}.*second word"):
            merge_to_kraft(binary_model, valid, faulty)


def test_a_long_word_merge_is_fast():
    """About 2 000 words per list with k0 of 100 or more merge in well
    under a second; the quadratic reference takes several."""
    import time

    rng = random.Random(3)
    model = make_model([Fraction(8, 27), Fraction(19, 27)], 2)
    first = _random_tree_words(rng, model, 2000)
    second = _random_tree_words(rng, model, 2000)
    start = time.perf_counter()
    _, trace, _ = merge_to_kraft(model, first, second)
    elapsed = time.perf_counter() - start
    assert trace.path == "extended" and trace.k0 >= 100
    assert elapsed < 1.0


# -- one tie-break: the word merge against the lattice ----------------------


def _profile_probabilities_tie(weights, cap):
    """Whether two profiles of at most `cap` symbols share one exact
    probability under the symbol weights."""
    probs = [Fraction(w, sum(weights)) for w in weights]
    seen = set()
    for length in range(1, cap + 1):
        for combo in itertools.combinations_with_replacement(probs, length):
            p = math.prod(combo)
            if p in seen:
                return True
            seen.add(p)
    return False


def test_word_and_lattice_merges_differ_only_where_profiles_tie():
    """The threshold build, and the explicit build of its own low and high
    word sets at the same cap, give one book on every seeded source where
    no two profiles share a word probability.  The merges differ only in
    their order: (form, profile) for lattice classes and (-p, word) for
    words, so where profiles tie some book differs."""
    rng = random.Random(2)
    built = agreed = 0
    tied_differ = False
    for _ in range(300):
        m = rng.choice((2, 3, 4))
        weights = [rng.randint(1, 6) for _ in range(m)]
        model = make_model(
            [Fraction(w, sum(weights)) for w in weights], rng.choice((2, 3))
        )
        T = rng.randint(2, 6)
        cap = rng.randint(2, {2: 12, 3: 7, 4: 5}[m])
        low, high = build_threshold_sets(model, T, cap)
        classify = NodeClassifier(low.rule, high.rule)
        try:
            first, second = (
                enumerate_words(
                    model, walk, lattice_metrics(model, walk, cap), 400
                ).words
                for walk in (classify, classify.second_as_both())
            )
        except ResourceError:
            continue
        outcomes = []
        for how in (
            {"first_words": first, "second_words": second},
            {"T": T, "cap": cap},
        ):
            try:
                result = construct_vv(
                    model, assignment="canonical", enum_limit=400, **how
                )
            except InfeasibleError:
                outcomes.append("infeasible")
                continue
            book = result.book
            outcomes.append(
                (result.path, list(zip(book.words, book.codewords)))
            )
        built += 1
        if outcomes[0] == outcomes[1]:
            agreed += 1
        elif _profile_probabilities_tie(weights, cap):
            tied_differ = True
        else:
            pytest.fail(f"untied source {weights}, n={model.arity} differs")
    assert built >= 250 and agreed < built and tied_differ


def test_second_set_lengths_always_satisfy_kraft(make_random_book):
    """Incremented lengths never overfill: each term n^(-floor(f)-1) is at
    most the word's probability, so any prefix-free second set is a valid
    fallback and the merge always has a feasible outcome."""
    rng = random.Random(43)
    for _ in range(25):
        book = make_random_book(rng, "rounded")
        model = book.model
        words = list(book.words)
        lengths = [
            code_length_for(
                linear_form(model, profile_of(w, model.m)), True
            )
            for w in words
        ]
        assert kraft_of_counts(Counter(lengths), model.arity) <= 1


def test_pipeline_collapses_to_alphabet_code_at_t4(binary_model):
    result = construct_vv(binary_model, T=4, assignment="canonical")
    assert result.path == "extended"
    assert result.cap == 16
    book = result.book
    assert book is not None
    texts = map(binary_model.word_to_text, book.words)
    assert dict(zip(texts, book.codewords)) == {"a": "0", "b": "1"}
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


def test_auto_cap_doubles_to_the_fixed_cap_build():
    """At T=4 on (19/20, 1/20), arity 3, the cap mass at 16 misses the
    target 1/16, so the cap doubles once; the build equals the one with
    cap=32 in all but `cap_history`."""
    model = make_model(["19/20", "1/20"], 3)
    auto = construct_vv(model, T=4)
    fixed = construct_vv(model, T=4, cap=32)
    assert auto.provenance["cap_history"] == [
        [16, 0.1341106192567706],
        [32, 0.0009290112705286409],
    ]
    assert (auto.path, auto.cap, auto.provenance["word_count"]) == (
        "base", 32, 5778
    )
    for column in ("words", "codewords", "probabilities"):
        assert getattr(auto.book, column) == getattr(fixed.book, column)
    assert auto.dp_metrics == fixed.dp_metrics
    del auto.provenance["cap_history"], fixed.provenance["cap_history"]
    assert auto.provenance == fixed.provenance


def test_explicit_mode_validates_word_lists(binary_model):
    a = binary_model.word_from_text("a")
    b = binary_model.word_from_text("b")
    ab = binary_model.word_from_text("ab")
    with pytest.raises(ValidationError, match=r"duplicate first word \(1,\)"):
        construct_vv(binary_model, first_words=[a, a, b])
    with pytest.raises(
        ValidationError, match=r"first word \(1, 2\) extends shorter first"
    ):
        construct_vv(binary_model, first_words=[a, ab, b])
    with pytest.raises(ValidationError, match="not complete"):
        construct_vv(binary_model, first_words=[a])  # incomplete
    # a, ba, ..., b^39 a miss only b^40, of probability 2^-40: the word
    # lengths' Kraft sum is below 1, however small the probability missed
    halves = make_model(["0.5", "0.5"], 2)
    runs = sentinel_runs(halves, 1, 40)[0]
    with pytest.raises(
        ValidationError,
        match="first word set is not complete: its Kraft sum over 2 "
        "symbols is 1099511627775/1099511627776",
    ):
        construct_vv(halves, first_words=runs)
    with pytest.raises(ValidationError, match="second word set is not"):
        construct_vv(halves, first_words=[a, b], second_words=runs)
    with pytest.raises(InputError):
        construct_vv(binary_model, second_words=[a, b])
    # symbols must be integers in 1..m, in either list
    for faulty in ([a, ("x",)], [a, (3,)], [a, (1.0,)]):
        with pytest.raises(ValidationError, match="outside the alphabet"):
            construct_vv(binary_model, first_words=faulty)
        with pytest.raises(ValidationError, match="second word list uses"):
            construct_vv(binary_model, first_words=[a, b], second_words=faulty)
    with pytest.raises(ValidationError, match="empty word"):
        construct_vv(binary_model, first_words=[(), a, b])
    # words are tuples, in either list
    with pytest.raises(ValidationError, match=r"first word \[1\] is not a"):
        construct_vv(binary_model, first_words=[[1], [2]])
    with pytest.raises(ValidationError, match=r"second word \[2\] is not a"):
        construct_vv(binary_model, first_words=[a, b], second_words=[a, [2]])


def test_explicit_word_lists_take_no_threshold_options(binary_model):
    """T, cap, theta and t_max shape threshold builds only; with word lists
    they would go unused, so any of them set is refused."""
    words = {"first_words": [(1,), (2,)]}
    for options, named in (
        ({"T": 3}, "T"),
        ({"cap": 4}, "cap"),
        ({"theta": 0.1}, "theta"),
        ({"t_max": 0}, "t_max"),
        ({"T": 3, "cap": "auto", "theta": 0.0}, "T, theta"),
    ):
        with pytest.raises(InputError, match=f"take no {named}$"):
            construct_vv(binary_model, **options, **words)
    defaults = {"T": "auto", "cap": "auto", "theta": None, "t_max": 50}
    assert construct_vv(binary_model, **defaults, **words).path == "base"


def test_t_max_is_refused_where_no_automatic_t_reads_it(binary_model):
    """Only the automatic T reads t_max: with an int T it would go unused,
    so a value other than the default is refused, and the default builds
    as before."""
    for t_max in (0, 4, 60):
        with pytest.raises(InputError, match="^t_max applies only to T='auto'"):
            construct_vv(binary_model, T=4, t_max=t_max)
    fixed = construct_vv(binary_model, T=4, t_max=DEFAULT_T_MAX)
    assert fixed.provenance == construct_vv(binary_model, T=4).provenance
    # the automatic T reads it: no candidate above t_max=4
    auto = construct_vv(binary_model, t_max=4)
    assert auto.provenance["t_selection"]["candidates"] == [1, 3, 4]
    assert auto.T == 4


@pytest.mark.parametrize("t_max", [True, 2.5, "5", None])
def test_t_max_must_be_an_int(binary_model, t_max):
    """A bool or a float would build a ladder quietly (T=1 here), and a
    str or None would fail deep in a comparison: every public call that
    reads t_max refuses them by name."""
    text = f"t_max must be an int, got {t_max!r}"
    for call in (construct_vv, scaling_experiment):
        with pytest.raises(InputError, match=f"^{re.escape(text)}$"):
            call(binary_model, t_max=t_max)
    with pytest.raises(InputError, match=f"^{re.escape(text)}$"):
        threshold_parameter_candidates(binary_model, t_max)


def test_the_empty_word_is_a_prefix_of_every_word(binary_model):
    """One prefix rule: the empty word starts every word, in the prefix
    test, in `wedge`, and so in the Kraft sum of the full merge."""
    a, b = (1,), (2,)
    assert not is_prefix_free([(), a])
    with pytest.raises(ValidationError, match=r"word \(1,\) extends shorter"):
        _assert_prefix_free([(), a], "word")
    assert wedge([()], [a, b]) == wedge([a, b], [()]) == [()]
    _, _, report = merge_to_kraft(binary_model, [a, b], [()])
    assert report["kraft_merged"] == Fraction(1, 2)


def test_unknown_grade_and_assignment_are_rejected(binary_model):
    with pytest.raises(InputError):
        construct_vv(binary_model, grade="fast")
    with pytest.raises(InputError):
        construct_vv(binary_model, assignment="optimal")
    # T and cap are "auto" or an int: no rounding, no bools, no strings
    for name, kwargs in [
        ("T", {"T": 2.5}),
        ("T", {"T": True}),
        ("T", {"T": "x"}),
        ("cap", {"T": 4, "cap": 16.7}),
        ("cap", {"T": 4, "cap": False}),
        ("cap", {"cap": "x"}),
    ]:
        with pytest.raises(InputError, match=f"^{name} must be"):
            construct_vv(binary_model, **kwargs)


def test_reference_book_carries_expected_entries(binary_model, reference_book):
    texts = list(map(binary_model.word_to_text, reference_book.words))
    table = dict(zip(texts, reference_book.codewords))
    assert table == {"a": "0", "ba": "10", "bba": "110", "bbb": "111"}
    assert reference_book.kind == "vv"
    assert reference_book.kraft_exact() == 1
    probs = dict(zip(texts, reference_book.probabilities))
    assert probs["ba"] == pytest.approx(0.24, abs=1e-15)


def test_word_information_equals_entropy_times_delay_on_complete_books(
    binary_model, reference_book
):
    # For a complete prefix-free word set, the expected information content
    # of one word equals entropy times expected word length.
    probabilities = reference_book.probabilities
    lhs = -math.fsum(p * math.log2(p) for p in probabilities)
    nbar = math.fsum(
        p * len(word) for word, p in zip(reference_book.words, probabilities)
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
        classify = NodeClassifier(set_low.rule, set_high.rule)
        for level in range(1, cap + 1):
            for k in profiles_of_length(level, model.m):
                form, flags = classify(k)
                assert form == linear_form(model, k)
                low, high = bool(flags & FIRST), bool(flags & SECOND)
                assert (level == cap or low) == set_low.member(k)
                assert (level == cap or high) == set_high.member(k)
                snapped += form - math.floor(form) >= 1.0 - THRESHOLD_TOL
    assert snapped


def test_joint_dp_kraft_merged_matches_union_sweep(member_classifier):
    paths = set()
    for model, T in _threshold_cases():
        cap = T * T
        set_low, set_high = build_threshold_sets(model, T, cap)
        classify = NodeClassifier(set_low.rule, set_high.rule)
        tables = _joint_dp(model, classify, cap, DEFAULT_NODE_LIMIT)
        union = member_classifier(
            model, UnionRule((set_low.rule, set_high.rule))
        )
        union_table = lattice_metrics(model, union, cap)
        # the union is the first set, so every stop is clean: one row per
        # profile
        union_stops = list(zip(union_table.profiles, union_table.counts))
        assert len(dict(union_stops)) == len(union_stops)
        reference = sum(
            (
                Fraction(count, model.arity ** code_length_for(
                    linear_form(model, k), set_high.member(k)
                ))
                for k, count in union_stops
            ),
            start=Fraction(0),
        )
        assert tables.kraft_merged == reference
        assert sorted(tables.classes) == sorted(
            (linear_form(model, k), k, count)
            for k, count in union_stops
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
    classify = NodeClassifier(set_low.rule, set_high.rule)
    # levels 1..36 hold 702 nodes in all, so a limit of 703 never trips
    assert _joint_dp(binary_model, classify, cap, 703).kraft_first > 0
    assert lattice_metrics(binary_model, classify, cap, 703).word_count > 0
    with pytest.raises(ResourceError, match="joint lattice DP"):
        _joint_dp(binary_model, classify, cap, 40)
    with pytest.raises(ResourceError, match="^lattice DP"):
        lattice_metrics(binary_model, classify, cap, 40)


# -- early rejection of oversize auto-T candidates ---------------------------


def _reference_auto(model, enum_limit, t_max, built):
    """Auto T at codec grade, the long way: build each candidate at grade
    "metrics" and keep the first, from the largest, whose word set fits.
    `built` caches the metrics builds by (model, T)."""
    info = threshold_parameter_candidates(model, t_max)
    for t in reversed(info["candidates"]):
        if (model, t) not in built:
            try:
                built[model, t] = construct_vv(
                    model, T=t, grade="metrics", enum_limit=0
                )
            except ResourceError as exc:
                built[model, t] = exc
        result = built[model, t]
        if isinstance(result, ResourceError):
            continue
        if result.provenance["word_count"] <= enum_limit:
            return construct_vv(
                model, T=t, grade="metrics", enum_limit=enum_limit
            ), info
    return None, info


def _differential_sources():
    rng = random.Random(35)
    sources = [
        make_model(["0.1", "0.9"], 2),
        make_model(["0.4", "0.6"], 2),
        make_model(["0.2", "0.3", "0.5"], 2),
        make_model(["0.4", "0.6"], 3),
    ]
    for _ in range(4):
        a = rng.randint(5, 95)
        sources.append(make_model([f"{a}/100", f"{100 - a}/100"], 2))
    for _ in range(3):
        a = rng.randint(5, 45)
        b = rng.randint(5, 95 - a)
        sources.append(
            make_model([f"{a}/100", f"{b}/100", f"{100 - a - b}/100"], 2)
        )
    return sources


def test_codec_auto_rejection_equals_building_every_candidate():
    built = {}
    for model in _differential_sources():
        # keeps every metrics-grade reference build well under a second
        t_max = 20 if model.m == 2 else 8
        for limit in (0, 1, 2, 30, 10**6):
            expect, info = _reference_auto(model, limit, t_max, built)
            if expect is None:
                with pytest.raises(ResourceError, match="no candidate"):
                    construct_vv(model, enum_limit=limit, t_max=t_max)
                continue
            got = construct_vv(model, enum_limit=limit, t_max=t_max)
            assert got.T == expect.T
            assert got.provenance == {
                **expect.provenance, "grade": "codec", "t_selection": info
            }
            book = dataclasses.replace(
                expect.book,
                provenance={**expect.book.provenance, "grade": "codec"},
            )
            assert book_to_json(got.book) == book_to_json(book)


def test_metrics_grade_never_rejects_in_the_joint_dp(binary_model):
    result = construct_vv(binary_model, T=19, grade="metrics", enum_limit=0)
    assert result.provenance["word_count"] > 10**89
    *_, history = choose_cap(binary_model, 19)
    assert result.provenance["cap_history"] == [list(h) for h in history]


def test_t19_joint_dp_stops_within_forty_levels(binary_model, monkeypatch):
    import wordcodes.word_sets as ws

    deepest = []
    real = ws.flat_levels

    def counting(*args, **kwargs):
        deepest.append(0)
        for view in real(*args, **kwargs):
            deepest[-1] = view.level
            yield view

    monkeypatch.setattr(ws, "flat_levels", counting)
    with pytest.raises(ResourceError, match="more than 1000000 words"):
        construct_vv(binary_model, T=19)
    assert deepest == [35]
    deepest.clear()
    assert construct_vv(binary_model).T == 4
    # T=19 (cap 361) stops at level 35; T=4 runs its joint DP to the end
    assert deepest[0] == 35


def test_rejected_candidates_are_logged_not_recorded(binary_model, caplog):
    quiet = construct_vv(binary_model)
    with caplog.at_level("DEBUG", logger="wordcodes.vv_construct"):
        loud = construct_vv(binary_model)
    records = [
        r for r in caplog.records if r.name == "wordcodes.vv_construct"
    ]
    assert [r.levelname for r in records] == ["DEBUG"]
    message = records[0].getMessage()
    assert "T=19" in message
    assert "more than 1000000 words" in message
    assert "level 35 of cap 361" in message
    assert loud.provenance == quiet.provenance
    assert book_to_json(loud.book) == book_to_json(quiet.book)


def test_every_rejection_reason_is_named(binary_model, caplog):
    with caplog.at_level("DEBUG", logger="wordcodes.vv_construct"):
        with pytest.raises(ResourceError) as info:
            construct_vv(binary_model, enum_limit=1)
    text = str(info.value)
    for t in (19, 4, 3, 1):
        assert f"T={t}: more than 1 words" in text
    assert len(caplog.records) == 4
    caplog.clear()
    # 1000 nodes: T=19 (cap 361) trips the node limit, T=4 (cap 16) fits
    with caplog.at_level("DEBUG", logger="wordcodes.vv_construct"):
        result = construct_vv(binary_model, node_limit=1000)
    assert result.T == 4
    messages = [r.getMessage() for r in caplog.records]
    assert len(messages) == 1 and "T=19" in messages[0]
    assert "more than 1000 lattice nodes" in messages[0]


def test_final_word_count_rejection_is_logged(caplog):
    # at T=13 the merged set fits in 20 words and the final one has 2.9e32
    model = make_model(["0.1", "0.9"], 2)
    with caplog.at_level("DEBUG", logger="wordcodes.vv_construct"):
        result = construct_vv(model, enum_limit=20, t_max=13)
    assert result.T == 6
    reasons = [r.getMessage() for r in caplog.records]
    assert len(reasons) == 2
    assert reasons[0].startswith(
        "auto T: rejected T=13: word set of 2892113928776"
    )
    assert reasons[0].endswith(" words exceeds the enumeration limit of 20")
    assert reasons[1] == (
        "auto T: rejected T=7: word set of 26 words exceeds the enumeration "
        "limit of 20"
    )


def test_oversize_candidates_cost_little():
    import time

    start = time.perf_counter()
    result = construct_vv(make_model(["0.1", "0.9"], 2))
    assert result.T == 7 and result.provenance["word_count"] == 26
    assert time.perf_counter() - start < 5.0


def test_int_t_codec_build_over_the_final_limit_classifies_no_node(
    monkeypatch,
):
    """The merged set of T=7 fits in 20 words, its final set has 26: the
    enumerator's count check refuses it before it classifies a node, and
    the refusal propagates as raised."""
    import wordcodes.word_sets as ws

    model = make_model(["0.1", "0.9"], 2)
    calls = []
    real = ws.NodeKeys.node

    def counting(self, key):
        calls.append(key)
        return real(self, key)

    monkeypatch.setattr(ws.NodeKeys, "node", counting)
    text = "word set of 26 words exceeds the enumeration limit of 20"
    with pytest.raises(ResourceError, match=f"^{text}$"):
        construct_vv(model, T=7, enum_limit=20)
    assert calls == []
    # the same build enumerates at the limit of 26, and classifies nodes
    assert len(construct_vv(model, T=7, enum_limit=26).book.words) == 26
    assert calls


def test_auto_failure_text_names_each_candidate_once(binary_model, caplog):
    """Each rejected candidate is `T=<t>: ` and the full refusal of the
    int-T build, in the aggregate text and in its DEBUG line alike: here
    the node limit for T=19 and the joint DP's early exit for the rest."""
    limits = {"enum_limit": 1, "node_limit": 1000}
    failures = []
    for t in (19, 4, 3, 1):
        with pytest.raises(ResourceError) as info:
            construct_vv(binary_model, T=t, **limits)
        failures.append(f"T={t}: {info.value}")
    assert "more than 1000 lattice nodes" in failures[0]
    assert all("at level" in failure for failure in failures[1:])
    with caplog.at_level("DEBUG", logger="wordcodes.vv_construct"):
        with pytest.raises(ResourceError) as info:
            construct_vv(binary_model, **limits)
    text = str(info.value)
    assert text == (
        "no candidate threshold parameter yields an enumerable word set: "
        + "; ".join(failures)
    )
    for t in (19, 4, 3, 1):
        assert text.count(f"T={t}: ") == 1
    assert [r.getMessage() for r in caplog.records] == [
        f"auto T: rejected {failure}" for failure in failures
    ]
