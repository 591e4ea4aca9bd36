"""The lattice walks against references, field by field.

The forward DPs take the flat kernel for a two-symbol source driven by a
`NodeClassifier`, and the dict walk for any other callable; wrapping the
classifier in a plain function therefore runs the same rules through the
dict walk.  The word enumerator and the knockout sweep are one body for
every source, so they are checked against frozen copies of the walks they
replaced: the per-node enumerator that slices each child profile out of
its parent, and the backward sweep over every node of the lattice.  Every
mass is finite and at least +0.0, so float equality below is equality bit
for bit.
"""

from __future__ import annotations

import itertools
import math
import random
import re
import time
from fractions import Fraction

import pytest

from lattice_helpers import profiles_of_length
from wordcodes import vv_construct, word_sets
from wordcodes.errors import ResourceError, ValidationError
from wordcodes.source_model import linear_form, make_model
from wordcodes.vv_construct import (
    _joint_dp,
    _knockout_masses,
    build_threshold_sets,
    code_length_for,
    construct_vv,
)
from wordcodes.word_sets import (
    SECOND,
    EmptyRule,
    ThresholdHighRule,
    ThresholdLowRule,
    NodeClassifier,
    WindowRule,
    lattice_metrics,
)

NODE_LIMIT = 10**6


def _dict_walk(classify):
    """The same classification as a plain callable: the walks' dict path."""
    return lambda k: classify(k)


def reference_enumeration(
    model, classify, cap, limit, taken, boundary, probabilities
):
    """The per-node enumerator over profile tuples, as it was before the
    keyed walk: each child profile sliced out of its parent, each distinct
    profile classified once, every path stopped at the cap.  Returns its
    (word, form, extra digit) list and appends the carried products to
    `probabilities`."""
    m = model.m
    symbol_probs = model._symbol_probs
    seen = {}
    boundary_profile, boundary_left = boundary if boundary else (None, 0)
    out = []
    # frame: [word, profile, crossed, next symbol index, probability]
    stack = [[(), (0,) * m, False, 0, 1.0]]
    while stack:
        frame = stack[-1]
        word, profile, crossed, sym, p = frame
        if sym >= m:
            stack.pop()
            continue
        frame[3] = sym + 1
        child_word = word + (sym + 1,)
        child_p = p * symbol_probs[sym + 1]
        child = profile[:sym] + (profile[sym] + 1,) + profile[sym + 1 :]
        at_cap = len(child_word) == cap
        try:
            form, first, second = seen[child]
        except KeyError:
            form, first, second = seen[child] = classify(child)
        second = (second or at_cap) and not crossed
        if not (first or at_cap):
            if not second:
                stack.append([child_word, child, crossed, 0, child_p])
                continue
            if child not in taken:
                if child != boundary_profile or not boundary_left:
                    stack.append([child_word, child, True, 0, child_p])
                    continue
                boundary_left -= 1
        out.append((child_word, form, second))
        probabilities.append(child_p)
        if len(out) > limit:
            raise ResourceError(
                f"word set exceeds the enumeration limit of {limit}"
            )
    return out


def reference_knockout_masses(model, classify, cap, targets):
    """The backward knockout sweep over every node up to the cap, as it was
    before the sweep walked only the nodes the targets reach."""
    n = model.arity
    m = model.m
    exp = int(cap * max(model.d)) + 3
    stop_values = [n ** (exp - length) for length in range(exp + 1)]
    by_level = {}
    for k in targets:
        by_level.setdefault(sum(k), []).append(k)
    result = {}
    nxt = {}
    for level in range(cap, 0, -1):
        cur = {}
        for k in profiles_of_length(level, m):
            form, low, _ = classify(k)
            if low or level == cap:
                cur[k] = stop_values[code_length_for(form, False)]
            else:
                cur[k] = sum(
                    nxt[k[:i] + (k[i] + 1,) + k[i + 1 :]] for i in range(m)
                )
        for k in by_level.get(level, ()):
            result[k] = cur[k]
        nxt = cur
    return result, n**exp


def _outcome(fn, *args, **kwargs):
    """A comparable record of a call: its result's fields, or its error."""
    try:
        result = fn(*args, **kwargs)
    except (ResourceError, ValidationError) as exc:
        return ("error", type(exc).__name__, str(exc))
    if isinstance(result, word_sets.LatticeTable):
        return (
            result.stops,
            result.word_count,
            result.total_prob,
            result.cap_mass,
            result.visited_nodes,
        )
    if isinstance(result, vv_construct._JointTables):
        return (
            result.kraft_first,
            result.kraft_second,
            result.kraft_merged,
            result.cap_mass_first,
            result.cap_mass_second,
            result.classes,
        )
    return result


def _two_symbol_sources():
    """(model, T): a seeded two-symbol source per T in 3..12, arity 2 and 3."""
    rng = random.Random(808)
    for T in range(3, 13):
        w = rng.randint(1, 19)
        probs = [Fraction(w, 20), Fraction(20 - w, 20)]
        yield make_model(probs, 2 + T % 2), T


def _many_symbol_sources():
    """(model, T): seeded three- and four-symbol sources, arity 2 and 3."""
    rng = random.Random(910)
    for m, T in [(3, 3), (3, 4), (3, 5), (3, 6), (4, 3), (4, 4)]:
        weights = [rng.randint(1, 9) for _ in range(m)]
        total = sum(weights)
        probs = [Fraction(w, total) for w in weights]
        yield make_model(probs, 2 + T % 2), T


def _taken_and_boundary(rng, classes, classify, cap):
    """Some of the joint DP's classes taken, and a split of another one.

    Two second-set nodes one level above the cap join the taken ones: clean
    paths rarely get that deep, and a walk must then pass them by.  So does
    a profile off the lattice, whose int key, were it not checked, would
    name a class that is not taken.
    """
    deep = [
        k
        for k in profiles_of_length(cap - 1, len(classify.d))
        if classify(k)[1:] == (False, True)
    ]
    taken = set(rng.sample(deep, min(len(deep), 2)))
    if len(classes) < 2:
        return taken, None
    picked = rng.sample(classes, min(len(classes), 4))
    _, k, count = picked[0]
    taken |= {p for _, p, _ in picked[1:]}
    for _, q, _ in classes:
        if q not in taken and q != k and q[1]:
            taken.add((q[0] + cap + 1, q[1] - 1, *q[2:]))
            break
    return taken, (k, rng.randint(1, count + 1))


def test_flat_kernel_matches_the_dict_walk_field_by_field():
    rng = random.Random(9)
    seen = set()
    for model, T in _two_symbol_sources():
        for index, cap in enumerate((T * T, 2 * T * T, T * T + 7)):
            set_low, set_high = build_threshold_sets(model, T, cap)
            classify = NodeClassifier(set_low.rule, set_high.rule)
            tables = _joint_dp(model, classify, cap, NODE_LIMIT)
            assert _outcome(lambda: tables) == _outcome(
                _joint_dp, model, _dict_walk(classify), cap, NODE_LIMIT
            )
            targets = {k for _, k, _ in tables.classes}
            if targets:
                found = _knockout_masses(
                    model, classify, cap, targets, NODE_LIMIT
                )
                assert found == reference_knockout_masses(
                    model, classify, cap, targets
                )
                assert set(found[0]) == targets
            taken, boundary = _taken_and_boundary(
                rng, tables.classes, classify, cap
            )
            # the split walk, and one of the others in turn
            walks = [
                (classify, taken, boundary),
                [
                    (classify, (), None),
                    (classify, taken, None),
                    (classify.second_as_both(), (), None),
                ][index],
            ]
            for walk_classify, walk_taken, walk_boundary in walks:
                found = _outcome(
                    lattice_metrics, model, walk_classify, cap, NODE_LIMIT,
                    walk_taken, walk_boundary,
                )
                assert found == _outcome(
                    lattice_metrics, model, _dict_walk(walk_classify), cap,
                    NODE_LIMIT, walk_taken, walk_boundary,
                )
                seen.add(found[0] if found[0] == "error" else "table")
                if found[0] != "error":
                    # the cap mass: every path the cap alone stops, crossed
                    # ones included
                    cap_stops = [
                        (m_c, m_x)
                        for k, (_, m_c, _, m_x, form, _) in found[0].items()
                        if sum(k) == cap
                        and not walk_classify.first_rule.admits(form)
                    ]
                    assert found[3] == pytest.approx(
                        math.fsum(map(sum, cap_stops)), rel=1e-12, abs=0
                    )
                    if any(m_x for _, m_x in cap_stops):
                        seen.add("crossed at the cap")
            seen.add("cap mass" if tables.cap_mass_first else "no cap mass")
            seen.add("classes" if targets else "no classes")
    assert seen == {"table", "error", "cap mass", "no cap mass", "classes",
                    "no classes", "crossed at the cap"}


def test_knockout_sweep_matches_the_full_lattice_reference():
    """Two-, three- and four-symbol sources: the joint DP's classes as
    targets, plus seeded nodes of any kind (low-set nodes, nodes at the
    cap, nodes no class reaches)."""
    rng = random.Random(31)
    seen = set()
    for model, T in [*_two_symbol_sources(), *_many_symbol_sources()]:
        cap = T * T
        set_low, set_high = build_threshold_sets(model, T, cap)
        classify = NodeClassifier(set_low.rule, set_high.rule)
        tables = _joint_dp(model, classify, cap, NODE_LIMIT)
        targets = {k for _, k, _ in tables.classes}
        for level in [*rng.sample(range(1, cap), 2), cap]:
            profiles = list(profiles_of_length(level, model.m))
            targets |= set(rng.sample(profiles, 2))
        found = _knockout_masses(model, classify, cap, targets, NODE_LIMIT)
        assert found == reference_knockout_masses(
            model, classify, cap, targets
        )
        assert set(found[0]) == targets
        seen |= {model.m} | {classify(k)[1] for k in targets}
    assert seen == {2, 3, 4, False, True}


def test_the_knockout_sweep_counts_the_nodes_it_visits():
    """(0.2, 0.4, 0.4), T=7, cap 98: an extended build, whose knockout sweep
    over the full lattice would visit C(101, 3) nodes.  The sweep visits
    only what paths from the classes reach, and counts those against the
    node limit."""
    model = make_model(["0.2", "0.4", "0.4"], 2)
    cap = 98
    expect = construct_vv(model, T=7, cap=cap, grade="metrics", enum_limit=0)
    assert expect.path == "extended"
    for limit in (math.comb(cap + 3, 3) - 1, 1000):
        found = construct_vv(
            model, T=7, cap=cap, grade="metrics", enum_limit=0,
            node_limit=limit,
        )
        assert found.provenance == expect.provenance
        assert repr(found.dp_metrics) == repr(expect.dp_metrics)
    set_low, set_high = build_threshold_sets(model, 7, cap)
    classify = NodeClassifier(set_low.rule, set_high.rule)
    tables = _joint_dp(model, classify, cap, NODE_LIMIT)
    targets = {k for _, k, _ in tables.classes}
    visited = []

    def counting(k):
        visited.append(k)
        return tables.classify(k)

    found = _knockout_masses(model, counting, cap, targets, NODE_LIMIT)
    sweep = len(visited)
    assert sweep == len(set(visited)) < 1000
    assert _knockout_masses(model, tables.classify, cap, targets, sweep) == found
    message = str(word_sets.node_limit_error("knockout sweep", sweep - 1, cap))
    assert message.startswith("knockout sweep visited more than")
    with pytest.raises(ResourceError, match=re.escape(message)):
        _knockout_masses(model, tables.classify, cap, targets, sweep - 1)


def test_the_knockout_sweep_costs_less_than_the_joint_dp():
    """(0.4, 0.6), T=41, cap 841: an extended build whose sweep visits about
    276k nodes.  Its CPU time stays below 1.1 times that of the joint DP of
    the same build, best of two runs each; timing both in one process
    cancels most of the machine's own speed.  A sweep that slices profile
    tuples and keeps sets of them took 1.24-1.55 times the joint DP."""
    model = make_model(["0.4", "0.6"], 2)
    cap = 841
    set_low, set_high = build_threshold_sets(model, 41, cap)
    joint, sweep = [], []
    for _ in range(2):
        start = time.process_time()
        classify = NodeClassifier(set_low.rule, set_high.rule)
        tables = _joint_dp(model, classify, cap, NODE_LIMIT)
        joint.append(time.process_time() - start)
        targets = {k for _, k, _ in tables.classes}
        start = time.process_time()
        _knockout_masses(model, tables.classify, cap, targets, NODE_LIMIT)
        sweep.append(time.process_time() - start)
    assert min(sweep) < 1.1 * min(joint), (joint, sweep)


def test_flat_kernel_matches_the_dict_walk_on_window_rules():
    for model, _ in _two_symbol_sources():
        d_max = max(model.d)
        for L in range(math.ceil(d_max), math.ceil(d_max) + 6):
            cap = int((L - d_max) / min(model.d)) + 2
            classify = NodeClassifier(
                WindowRule(model.d, L - d_max, float(L)), EmptyRule()
            )
            assert _outcome(lattice_metrics, model, classify, cap) == _outcome(
                lattice_metrics, model, _dict_walk(classify), cap
            )


def test_flat_kernel_trips_the_node_limit_where_the_dict_walk_does():
    """Node limits, and enumeration limits on the joint DP: both walks
    raise the same error, a WordLimitError at the same level, or neither.
    The merged set of T=8 at cap 64 passes 0..8 words at levels 2..6."""
    model = make_model(["0.4", "0.6"], 2)
    tripped = 0
    word_limit_levels = set()
    for T, limits, enum_limits in [
        (6, (1, 2, 3, 10, 40, 100, 300, 700, 702, 703, 10**4), (0, 1, 2)),
        (8, (10, 100, 10**4), range(10)),
    ]:
        cap = T * T
        set_low, set_high = build_threshold_sets(model, T, cap)
        classify = NodeClassifier(set_low.rule, set_high.rule)
        for limit in limits:
            for enum_limit in (None, *enum_limits):
                joint = _outcome(
                    _joint_dp, model, classify, cap, limit, enum_limit
                )
                assert joint == _outcome(
                    _joint_dp, model, _dict_walk(classify), cap, limit,
                    enum_limit,
                )
                if joint[:2] == ("error", "WordLimitError"):
                    level = re.search(r"at level (\d+) ", joint[2])[1]
                    word_limit_levels.add((T, int(level)))
                elif T == 6 and enum_limit is None:
                    tripped += joint[0] == "error"
            final = _outcome(lattice_metrics, model, classify, cap, limit)
            assert final == _outcome(
                lattice_metrics, model, _dict_walk(classify), cap, limit
            )
            tripped += T == 6 and final[0] == "error"
    assert 0 < tripped < 22
    # T=6 trips at level 1 only, T=8 at each of levels 2..6
    assert len(word_limit_levels) == 6


def _rule_pairs(d):
    low = ThresholdLowRule(d, 0.3)
    high = ThresholdHighRule(d, 0.3)
    wide = ThresholdHighRule(d, 1.5)
    window = WindowRule(d, 2.0, 2.0 + max(d))
    return [
        (low, high),
        (high, low),
        (high, high),
        (low, wide),
        (high, window),
        (low, EmptyRule()),
        (window, EmptyRule()),
    ]


def _snapping_sources():
    """Sources whose exponents are inexact at n=8 and n=32, so some forms
    land within THRESHOLD_TOL of an integer, plus seeded random ones."""
    yield make_model(["0.25", "0.75"], 32)
    yield make_model(["0.5", "0.25", "0.25"], 32)
    yield make_model(["0.5", "0.25", "0.25"], 8)
    yield make_model(["0.5", "0.25", "0.125", "0.125"], 32)
    yield make_model(["0.5", "0.25", "0.125", "0.125"], 8)
    rng = random.Random(4)
    for m in (2, 3, 3, 4, 4):
        weights = [rng.randint(1, 9) for _ in range(m)]
        total = sum(weights)
        probs = [Fraction(w, total) for w in weights]
        yield make_model(probs, rng.choice([2, 3]))


def test_node_classifier_agrees_with_each_rule_on_every_node():
    """`NodeClassifier` and the level table share one fractional part per
    node between two threshold rules; each must still answer what each
    rule's `admits` answers, snapped forms included."""
    snapped = 0
    for model in _snapping_sources():
        top = {2: 40, 3: 14, 4: 9}[model.m]
        for first, second in _rule_pairs(model.d):
            classify = NodeClassifier(first, second)
            for level in range(1, top + 1):
                flags = classify.level(level) if model.m == 2 else None
                for k in profiles_of_length(level, model.m):
                    form = linear_form(model, k)
                    expect = (form, first.admits(form), second.admits(form))
                    assert classify(k) == expect
                    if flags is not None:
                        assert flags[k[0]] == expect[1] + 2 * expect[2]
                    snapped += form - math.floor(form) >= 1.0 - word_sets.THRESHOLD_TOL
    assert snapped


def test_second_as_both_equals_a_fresh_classifier():
    model = make_model(["0.25", "0.75"], 32)
    low = ThresholdLowRule(model.d, 2 / 7)
    high = ThresholdHighRule(model.d, 2 / 7)
    classify = NodeClassifier(low, high)
    classify.level(30)
    both = classify.second_as_both()
    fresh = NodeClassifier(high, high)
    for level in range(1, 41):
        assert both.level(level) == fresh.level(level)
    for k in itertools.product(range(12), repeat=2):
        assert both(k) == fresh(k)


def test_each_build_classifies_its_own_lattice(monkeypatch):
    """No level table outlives its build: a second identical build
    classifies exactly as many nodes as the first, each at most once."""
    classified = []
    make_flag = word_sets._flag_function

    def counting_flag_function(first, second):
        flag = make_flag(first, second)

        def counted(form):
            classified[-1] += 1
            return flag(form)

        return counted

    monkeypatch.setattr(word_sets, "_flag_function", counting_flag_function)
    model = make_model(["0.2", "0.8"], 2)
    for _ in range(2):
        classified.append(0)
        result = construct_vv(model, T=12, grade="metrics", enum_limit=0)
    cap = result.cap
    assert result.path == "extended"
    assert classified[0] == classified[1] > 0
    assert classified[0] <= (cap + 1) * (cap + 2) // 2


@pytest.mark.parametrize("p, T", [("0.3", 3), ("0.3", 8), ("0.2", 12)])
def test_builds_agree_with_the_dict_walk_end_to_end(monkeypatch, p, T):
    """A whole build on the flat kernel and on the dict walk, on the base
    and the extended path: the same provenance and metrics."""
    model = make_model([p, str(1 - float(p))], 2)
    flat = construct_vv(model, T=T, grade="metrics", enum_limit=0)
    def plain_classifier(first, second):
        return _dict_walk(word_sets.NodeClassifier(first, second))

    monkeypatch.setattr(vv_construct, "NodeClassifier", plain_classifier)
    dict_walk = construct_vv(model, T=T, grade="metrics", enum_limit=0)
    assert flat.provenance == dict_walk.provenance
    assert repr(flat.dp_metrics) == repr(dict_walk.dp_metrics)


def test_shared_threshold_flag_matches_admits_at_the_snapping_edge():
    """A form whose fractional part is exactly 1 - THRESHOLD_TOL snaps to
    the integer below; its float neighbours fall either side.  The shared
    flag of two threshold rules must answer what each rule's `admits`
    answers at all three."""
    tol = word_sets.THRESHOLD_TOL
    edges = [
        k + (1.0 - tol)
        for k in range(0, 40)
        if (k + (1.0 - tol)) - math.floor(k + (1.0 - tol)) == 1.0 - tol
    ]
    assert 0.0 + (1.0 - tol) in edges
    d = (0.5, 1.5)
    rules = [ThresholdLowRule(d, 0.3), ThresholdHighRule(d, 0.3)]
    snapped = unsnapped = 0
    for edge in edges:
        below, above = math.nextafter(edge, 0.0), math.nextafter(edge, 99.0)
        for form in (below, edge, above):
            for first, second in itertools.product(rules, repeat=2):
                flag = word_sets._flag_function(first, second)(form)
                assert flag == first.admits(form) + 2 * second.admits(form)
            snapped += form == edge
            unsnapped += form < edge
    assert snapped == len(edges) and unsnapped == len(edges)


def _enumeration(
    enumerate_words, model, classify, cap, limit, taken=(), boundary=None
):
    """An enumeration as a comparable record: the repr of its list (so
    forms are compared bit for bit and extra digits as bools) and its
    carried products as hex strings, or its error."""
    probs = []
    found = _outcome(
        enumerate_words, model, classify, cap, limit, taken, boundary, probs
    )
    if found[0] == "error":
        return found
    return repr(found), [p.hex() for p in probs]


def _checked_enumeration(*args):
    """`enumerate_words`' record, after checking it equals the reference's."""
    found = _enumeration(word_sets.enumerate_words, *args)
    assert found == _enumeration(reference_enumeration, *args)
    return found


def test_enumeration_matches_the_per_node_reference():
    """The one enumerator against the per-node reference on two-, three-
    and four-symbol sources: taken classes, boundary splits (some larger
    than their class), the swapped classifier, VF windows, and a limit
    that trips on both or on neither."""
    rng = random.Random(23)
    limit = 3000
    seen = set()
    for model, T in [*_two_symbol_sources(), *_many_symbol_sources()]:
        cap = T * T
        set_low, set_high = build_threshold_sets(model, T, cap)
        classify = NodeClassifier(set_low.rule, set_high.rule)
        tables = _joint_dp(model, classify, cap, NODE_LIMIT)
        taken, boundary = _taken_and_boundary(
            rng, tables.classes, classify, cap
        )
        for walk_classify, walk_taken, walk_boundary in [
            (classify, (), None),
            (classify, taken, None),
            (classify, taken, boundary),
            (classify.second_as_both(), (), None),
        ]:
            found = _checked_enumeration(
                model, walk_classify, cap, limit, walk_taken, walk_boundary
            )
            seen.add("words" if found[0] != "error" else "limit")
            if walk_boundary and found[0] != "error":
                seen.add(("boundary", model.m))
            if walk_taken and found[0] != "error":
                seen.add(("taken", model.m))
        d_max = max(model.d)
        for L in range(math.ceil(d_max), math.ceil(d_max) + 6):
            cap = int((L - d_max) / min(model.d)) + 2
            window = NodeClassifier(
                WindowRule(model.d, L - d_max, float(L)), EmptyRule()
            )
            if _checked_enumeration(model, window, cap, limit)[0] != "error":
                seen.add(("window", model.m))
    assert seen == {"words", "limit"} | {
        (what, m)
        for what in ("boundary", "taken", "window")
        for m in (2, 3, 4)
    }


def test_enumeration_trips_the_limit_where_the_reference_does():
    model = make_model(["0.4", "0.6"], 2)
    L = 9
    cap = int((L - max(model.d)) / min(model.d)) + 2
    window = NodeClassifier(
        WindowRule(model.d, L - max(model.d), float(L)), EmptyRule()
    )
    count = len(word_sets.enumerate_words(model, window, cap, 10**6))
    assert count > 100
    for limit in (0, 1, 50, count - 1, count, count + 1):
        found = _checked_enumeration(model, window, cap, limit)
        assert (found[0] == "error") == (limit < count)


def test_enumeration_of_a_sparse_window_is_fast():
    """p = (0.001, 0.999), L = 14: a cap of 2 796 levels with about two
    live nodes each.  The walk visits only those nodes."""
    model = make_model(["0.001", "0.999"], 2)
    L = 14
    d_max = max(model.d)
    cap = int((L - d_max) / min(model.d)) + 2
    assert cap == 2796
    window = NodeClassifier(
        WindowRule(model.d, L - d_max, float(L)), EmptyRule()
    )
    start = time.perf_counter()
    words = word_sets.enumerate_words(model, window, cap, 10**6)
    assert time.perf_counter() - start < 1.0
    assert len(words) == 2796


def test_enumeration_splits_a_class_where_the_reference_does():
    """Boundary splits j = 1 and j = c - 1 of second-set nodes that c >= 2
    clean words reach: the first j stop, the others cross.  Such classes
    need T >= 10, so the walks run under a cap of 12 (at most 4096
    words)."""
    splits = 0
    for model, T in _two_symbol_sources():
        if T < 10:
            continue
        cap = 12
        set_low, set_high = build_threshold_sets(model, T, cap)
        classify = NodeClassifier(set_low.rule, set_high.rule)
        for level in range(2, cap):
            flags = classify.level(level)
            for a in range(level + 1):
                k = (a, level - a)
                if flags[a] != SECOND:
                    continue
                table = lattice_metrics(model, classify, cap, taken={k})
                clean = table.stops.get(k, (0,))[0]
                for j in sorted({1, clean - 1} - {0}) if clean > 1 else ():
                    split = (k, j)
                    _checked_enumeration(model, classify, cap, 5000, (), split)
                    splits += 1
    assert splits >= 10
