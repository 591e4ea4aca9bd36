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
from dataclasses import replace
from fractions import Fraction

import pytest

from lattice_helpers import (
    profiles_of_length,
    reference_stops,
    stop_rows,
    table_rows,
    word_rows,
)
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
    FIRST,
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


def reference_enumeration(model, classify, cap, limit, taken, boundary, count):
    """The per-node enumerator over profile tuples, as it was before the
    keyed walk: each child profile sliced out of its parent, each distinct
    profile classified once, every path stopped at the cap.  Returns its
    (word, form, extra digit, carried product) list.  A walk that passes
    `limit` words stops there, so its refusal names `count`, the DP's word
    count, which it cannot reach itself (up to 8e30 words here)."""
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
            form, flags = seen[child]
        except KeyError:
            form, flags = seen[child] = classify(child)
        first = flags & FIRST
        second = (flags >= SECOND or at_cap) and not crossed
        if not (first or at_cap):
            if not second:
                stack.append([child_word, child, crossed, 0, child_p])
                continue
            if child not in taken:
                if child != boundary_profile or not boundary_left:
                    stack.append([child_word, child, True, 0, child_p])
                    continue
                boundary_left -= 1
        out.append((child_word, form, second, child_p))
        if len(out) > limit:
            raise ResourceError(
                f"word set of {count} words exceeds the enumeration limit of "
                f"{limit}"
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
            form, flags = classify(k)
            if flags & FIRST or level == cap:
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
            table_rows(result),
            result.word_count,
            math.fsum(result.masses),
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
        if classify(k)[1] == SECOND
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
                        (mass, extra)
                        for k, _, mass, form, extra in found[0]
                        if sum(k) == cap
                        and not walk_classify.first_rule.admits(form)
                    ]
                    assert found[3] == pytest.approx(
                        math.fsum(mass for mass, _ in cap_stops),
                        rel=1e-12, abs=0,
                    )
                    # a clean stop at the cap takes the extra digit, a
                    # crossed one does not
                    if any(mass for mass, extra in cap_stops if not extra):
                        seen.add("crossed at the cap")
            seen.add("cap mass" if tables.cap_mass_first else "no cap mass")
            seen.add("classes" if targets else "no classes")
    assert seen == {"table", "error", "cap mass", "no cap mass", "classes",
                    "no classes", "crossed at the cap"}


def test_the_row_table_matches_the_per_stop_reference():
    """Seeded two-, three- and four-symbol sources, with some classes taken
    and a split of another, or with none: the rows of `lattice_metrics`,
    in order, are those of the per-profile reference table (its clean and
    crossed stops, each where its count is nonzero), and so are its cap
    mass, visited nodes and word count."""
    rng = random.Random(47)
    seen = set()
    for model, T in [*_two_symbol_sources(), *_many_symbol_sources()]:
        cap = T * T
        set_low, set_high = build_threshold_sets(model, T, cap)
        classify = NodeClassifier(set_low.rule, set_high.rule)
        tables = _joint_dp(model, classify, cap, NODE_LIMIT)
        taken, boundary = _taken_and_boundary(
            rng, tables.classes, classify, cap
        )
        for walk_taken, walk_boundary in [((), None), (taken, boundary)]:
            args = (
                model, classify, cap, NODE_LIMIT, walk_taken, walk_boundary
            )
            try:
                stops, cap_mass, visited = reference_stops(*args)
            except ValidationError as exc:
                with pytest.raises(ValidationError, match=str(exc)):
                    lattice_metrics(*args)
                seen.add("error")
                continue
            table = lattice_metrics(*args)
            rows = table_rows(table)
            assert rows == stop_rows(stops)
            assert table.cap_mass == cap_mass
            assert table.visited_nodes == visited
            assert table.word_count == sum(table.counts)
            seen.add(model.m)
            if any(c_x for _, _, c_x, _, _, _ in stops.values()):
                seen.add("crossed")
            if walk_boundary is not None:
                seen.add("split")
    assert seen == {2, 3, 4, "crossed", "split", "error"}


def test_knockout_sweep_matches_the_full_lattice_reference():
    """Two-, three- and four-symbol sources, and the sparse (0.001, 0.999)
    at T=11, where paths reach nearly every node up to the cap: the joint
    DP's classes as targets, plus seeded nodes of any kind (low-set nodes,
    nodes at the cap, nodes no class reaches)."""
    rng = random.Random(31)
    seen = set()
    sparse = (make_model(["0.001", "0.999"], 2), 11)
    for model, T in [
        *_two_symbol_sources(), *_many_symbol_sources(), sparse
    ]:
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
        seen |= {model.m} | {bool(classify(k)[1] & FIRST) for k in targets}
    assert seen == {2, 3, 4, False, True}


def test_the_knockout_sweep_counts_the_nodes_it_visits():
    """(0.2, 0.4, 0.4), T=7, cap 98: an extended build, whose knockout sweep
    over the full lattice would visit C(101, 3) nodes.  The sweep visits
    only what paths from the classes reach, and counts those against the
    node limit: 110 of them, and 2 622 on the sparse (0.001, 0.999) at
    T=11, cap 121."""
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
    sparse = make_model(["0.001", "0.999"], 2)
    cases = [(model, 7, cap, 110), (sparse, 11, 121, 2622)]
    for model, T, cap, count in cases:
        set_low, set_high = build_threshold_sets(model, T, cap)
        classify = NodeClassifier(set_low.rule, set_high.rule)
        tables = _joint_dp(model, classify, cap, NODE_LIMIT)
        targets = {k for _, k, _ in tables.classes}
        visited = []

        def counting(k):
            visited.append(k)
            return tables.classify(k)

        found = _knockout_masses(model, counting, cap, targets, NODE_LIMIT)
        sweep = len(visited)
        assert sweep == len(set(visited)) == count
        assert found == reference_knockout_masses(
            model, classify, cap, targets
        )
        assert (
            _knockout_masses(model, tables.classify, cap, targets, sweep)
            == found
        )
        message = str(
            word_sets.node_limit_error("knockout sweep", sweep - 1, cap)
        )
        assert message.startswith("knockout sweep visited more than")
        with pytest.raises(ResourceError, match=re.escape(message)):
            _knockout_masses(model, tables.classify, cap, targets, sweep - 1)


def test_the_knockout_sweep_visits_no_more_nodes_than_the_joint_dp(
    monkeypatch,
):
    """(0.4, 0.6), T=41, cap 841: the clock-free half of the guard below.
    The joint DP's nodes are counted through `level_views` (276 321 of
    them); the sweep, given that count as its node limit, does not raise,
    since it visits only what paths from the classes reach (276 123)."""
    model = make_model(["0.4", "0.6"], 2)
    cap = 841
    set_low, set_high = build_threshold_sets(model, 41, cap)
    visited = []
    real = vv_construct.level_views

    def counting(*args, **kwargs):
        visited.append(0)
        for view in real(*args, **kwargs):
            visited[-1] += len(view.ids)
            yield view

    monkeypatch.setattr(vv_construct, "level_views", counting)
    classify = NodeClassifier(set_low.rule, set_high.rule)
    tables = _joint_dp(model, classify, cap, NODE_LIMIT)
    (joint,) = visited
    assert 250_000 < joint < NODE_LIMIT
    targets = {k for _, k, _ in tables.classes}
    _knockout_masses(model, tables.classify, cap, targets, joint)


def test_the_knockout_sweep_costs_less_than_the_joint_dp():
    """(0.4, 0.6), T=41, cap 841: an extended build whose sweep visits about
    276k nodes.  Its CPU time stays below 1.1 times that of the joint DP of
    the same build, best of three runs each; timing both in one process
    cancels most of the machine's own speed, and the runs alternate which
    walk goes first, so a drift in that speed favours neither.  A sweep
    that slices profile tuples and keeps sets of them took 1.24-1.55 times
    the joint DP."""
    model = make_model(["0.4", "0.6"], 2)
    cap = 841
    set_low, set_high = build_threshold_sets(model, 41, cap)
    built = {}

    def joint():
        classify = NodeClassifier(set_low.rule, set_high.rule)
        built["tables"] = _joint_dp(model, classify, cap, NODE_LIMIT)

    def sweep():
        tables = built["tables"]
        targets = {k for _, k, _ in tables.classes}
        _knockout_masses(model, tables.classify, cap, targets, NODE_LIMIT)

    # the sweep reads the classes of the latest joint DP, the same each time
    times = {joint: [], sweep: []}
    for order in [(joint, sweep), (sweep, joint), (joint, sweep)]:
        for walk in order:
            start = time.process_time()
            walk()
            times[walk].append(time.process_time() - start)
    joint, sweep = times[joint], times[sweep]
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
    raise the same error, an early word-limit refusal at the same level, or
    neither.
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
                early = joint[0] == "error" and re.search(
                    r"at level (\d+) of cap", joint[2]
                )
                if early:
                    word_limit_levels.add((T, int(early[1])))
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
                    flag = first.admits(form) + 2 * second.admits(form)
                    assert classify(k) == (form, flag)
                    if flags is not None:
                        assert flags[k[0]] == flag
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


def _enumeration(enumerate_words, *args):
    """An enumeration as a comparable record: the repr of its rows (so
    forms and carried products are compared bit for bit and extra digits
    as bools) and their number, or its error.  The reference returns a
    list of rows, the library a `WordTable`, whose zipped columns are its
    rows."""
    found = _outcome(enumerate_words, *args)
    if isinstance(found, word_sets.WordTable):
        found = word_rows(found)
    elif found[0] == "error":
        return found
    return repr(found), len(found)


def _checked_enumeration(model, classify, cap, limit, taken=(), boundary=None):
    """`enumerate_words`' record over the DP's table, after checking it
    equals the reference's, that it has the DP's word count of rows or
    trips the limit where that count exceeds the limit, and that a tripped
    limit classified no node.  A boundary split larger than its class has
    no table: the DP refuses it, and the record is ("refused", message)."""
    try:
        table = lattice_metrics(
            model, classify, cap, NODE_LIMIT, taken, boundary
        )
    except ValidationError as exc:
        assert str(exc) == "boundary class smaller than its split"
        k, j = boundary
        whole = lattice_metrics(model, classify, cap, NODE_LIMIT, {*taken, k})
        assert j > dict(zip(whole.profiles, whole.counts)).get(k, 0)
        return "refused", str(exc)
    calls = []

    def counted(k):
        calls.append(k)
        return classify(k)

    found = _enumeration(word_sets.enumerate_words, model, counted, table, limit)
    assert found == _enumeration(
        reference_enumeration, model, classify, cap, limit, taken, boundary,
        table.word_count,
    )
    assert (found[0] == "error") == (table.word_count > limit)
    assert found[0] == "error" or found[1] == table.word_count
    assert found[0] != "error" or not calls
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
            if found[0] == "refused":
                seen.add("refused")
                continue
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
    assert seen == {"words", "limit", "refused"} | {
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
    table = lattice_metrics(model, window, cap)
    count = len(word_sets.enumerate_words(model, window, table, 10**6))
    assert count > 100
    for limit in (0, 1, 50, count - 1, count, count + 1):
        found = _checked_enumeration(model, window, cap, limit)
        assert (found[0] == "error") == (limit < count)


def test_enumeration_of_a_sparse_window_is_fast():
    """p = (0.001, 0.999), L = 14: a cap of 2 796 levels with about two
    live nodes each.  The walk visits only those nodes.  Its table comes
    from the dict walk, which also visits only the live nodes (the flat
    one, equal to it, runs every level out in full), and only the
    enumeration is timed."""
    model = make_model(["0.001", "0.999"], 2)
    L = 14
    d_max = max(model.d)
    cap = int((L - d_max) / min(model.d)) + 2
    assert cap == 2796
    window = NodeClassifier(
        WindowRule(model.d, L - d_max, float(L)), EmptyRule()
    )
    table = lattice_metrics(model, _dict_walk(window), cap)
    start = time.perf_counter()
    words = word_sets.enumerate_words(model, window, table, 10**6)
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
                # a taken class stops only clean paths: its one row, if any
                clean = dict(zip(table.profiles, table.counts)).get(k, 0)
                for j in sorted({1, clean - 1} - {0}) if clean > 1 else ():
                    split = (k, j)
                    _checked_enumeration(model, classify, cap, 5000, (), split)
                    splits += 1
    assert splits >= 10


def _quota_rows(model, words, second_stops):
    """The indices of the words that stop at a taken or boundary class."""
    symbols = range(1, model.m + 1)
    return [
        i
        for i, word in enumerate(words)
        if tuple(map(word.count, symbols)) in second_stops
    ]


def _copied_rows(model, classify, words, quota_rows):
    """The indices of rows that a walk sharing subtrees must copy, each
    with whether its shared node was crossed.

    A row is copied when one of its word's proper prefixes reaches a node
    that an earlier row's different prefix reached first, with the same
    prefix product (multiplied left to right from 1.0) and the same crossed
    state: that earlier subtree is complete by then.  A clean node counts
    only where its first row comes after the last quota stop, since clean
    paths consult the quotas until then."""
    last_quota = max(quota_rows, default=-1)
    probs = model._symbol_probs
    flags_of = {}
    first = {}
    copied = {}
    for i, word in enumerate(words):
        profile = [0] * model.m
        p, crossed = 1.0, False
        for depth, symbol in enumerate(word[:-1], 1):
            profile[symbol - 1] += 1
            p *= probs[symbol]
            k = tuple(profile)
            if k not in flags_of:
                flags_of[k] = classify(k)[1]
            # a clean path crosses every second-set node it runs on through
            crossed = crossed or flags_of[k] == SECOND
            prefix, row = first.setdefault((k, p, crossed), (word[:depth], i))
            if prefix != word[:depth] and (crossed or row > last_quota):
                copied[i] = crossed
                break
    return copied


def test_clean_subtrees_are_shared_once_the_quotas_run_out():
    """One class taken and one split, on the two-symbol sources with
    T >= 10 under a cap of 12.  Where both quotas run out partway through
    the walk and clean subtrees repeat after the last quota stop, the walk
    copies them; its rows are still the per-node reference's."""
    shared = 0
    for model, T in _two_symbol_sources():
        if T < 10:
            continue
        cap = 12
        set_low, set_high = build_threshold_sets(model, T, cap)
        classify = NodeClassifier(set_low.rule, set_high.rule)
        clean = {}
        for level in range(2, cap):
            for a, flags in enumerate(classify.level(level)):
                k = (a, level - a)
                if flags == SECOND:
                    table = lattice_metrics(model, classify, cap, taken={k})
                    if k in table.second_stops:
                        clean[k] = table.second_stops[k]
        for taken, split in itertools.permutations(clean, 2):
            for j in sorted({1, clean[split] - 1} - {0}):
                found = _checked_enumeration(
                    model, classify, cap, 5000, {taken}, (split, j)
                )
                if found[0] == "refused":
                    continue
                table = lattice_metrics(
                    model, classify, cap, taken={taken}, boundary=(split, j)
                )
                words = word_sets.enumerate_words(
                    model, classify, table, 5000
                ).words
                stops = _quota_rows(model, words, table.second_stops)
                copied = _copied_rows(model, classify, words, stops)
                shared += (
                    len(table.second_stops) == 2
                    and max(stops) < len(words) - 1
                    and any(not crossed for crossed in copied.values())
                )
    assert shared >= 10


def _permuted_word_build(monkeypatch):
    """(3, 1, 2, 4)/10, n=3, T=6, cap 5, where permuted words differ in
    their floats: the model, classifier and final table of its build."""
    model = make_model(["0.3", "0.1", "0.2", "0.4"], 3)
    finals = []

    def recording(model, classify, table, limit):
        finals.append((classify, table))
        return word_sets.enumerate_words(model, classify, table, limit)

    monkeypatch.setattr(vv_construct, "enumerate_words", recording)
    result = construct_vv(model, T=6, cap=5)
    assert result.provenance["boundary_profile"] == [1, 2, 1, 0]
    assert result.provenance["boundary_words"] == 1
    ((classify, table),) = finals
    return model, classify, table


def test_enumeration_keeps_apart_permuted_words_with_other_floats(
    monkeypatch,
):
    """Words of one profile class can carry different probability floats,
    so a node reached with another prefix product roots another subtree.
    On the final table of the (3, 1, 2, 4)/10 build, with six taken classes
    and the boundary (1, 2, 1, 0) split at 1 of its words, the rows are the
    per-node reference's, and some of them are copies."""
    model, classify, table = _permuted_word_build(monkeypatch)
    boundary = ((1, 2, 1, 0), 1)
    taken = set(table.second_stops) - {boundary[0]}
    assert len(taken) == 6 and table.second_stops[boundary[0]] == 1
    found = _checked_enumeration(
        model, classify, table.cap, table.word_count, taken, boundary
    )
    assert found[1] == table.word_count == 64
    out = word_sets.enumerate_words(model, classify, table, table.word_count)
    floats = {}
    for word, p in zip(out.words, out.probs):
        floats.setdefault(tuple(map(word.count, (1, 2, 3, 4))), set()).add(p)
    assert max(map(len, floats.values())) > 1
    stops = _quota_rows(model, out.words, table.second_stops)
    assert _copied_rows(model, classify, out.words, stops)


def test_a_surplus_word_inside_a_copied_subtree_is_refused(monkeypatch):
    """A table that counts i words, where the walk's row i lies in a copied
    subtree: the walk raises the count ValidationError right after that
    copy, having classified only nodes on the paths of rows 0..i, as the
    per-node walk would by its row i.  On VF windows over two and three
    symbols, and on the (3, 1, 2, 4)/10 build's table with its quotas."""
    tables = [_permuted_word_build(monkeypatch)]
    for probs, L in [(["0.4", "0.6"], 9), (["0.2", "0.3", "0.5"], 8)]:
        model = make_model(probs, 2)
        d_max = max(model.d)
        cap = int((L - d_max) / min(model.d)) + 2
        window = NodeClassifier(
            WindowRule(model.d, L - d_max, float(L)), EmptyRule()
        )
        tables.append((model, window, lattice_metrics(model, window, cap)))
    for model, classify, table in tables:
        words = word_sets.enumerate_words(
            model, classify, table, table.word_count
        ).words
        stops = _quota_rows(model, words, table.second_stops)
        copied = _copied_rows(model, classify, words, stops)
        assert copied
        symbols = range(1, model.m + 1)
        reached = set()
        for i, word in enumerate(words):
            reached.update(
                tuple(map(word[:depth].count, symbols))
                for depth in range(1, len(word) + 1)
            )
            if i not in copied:
                continue
            calls = []

            def counted(k):
                calls.append(k)
                return classify(k)

            with pytest.raises(
                ValidationError,
                match="^enumerated word count disagrees with the lattice DP$",
            ):
                word_sets.enumerate_words(
                    model, counted, replace(table, word_count=i), 10**6
                )
            assert reached.issuperset(calls)
