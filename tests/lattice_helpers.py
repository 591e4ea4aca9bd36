"""Helpers the lattice tests share; not collected as tests."""

from __future__ import annotations

from wordcodes.errors import ValidationError
from wordcodes.source_model import profile_probability
from wordcodes.word_sets import FIRST, SECOND, level_views


def profiles_of_length(total, m):
    """Every profile of m counts summing to `total`, in lexicographic order."""
    if m == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in profiles_of_length(total - first, m - 1):
            yield (first,) + rest


def table_rows(table):
    """A `LatticeTable`'s rows, as (profile, count, mass, form, extra)."""
    return list(
        zip(table.profiles, table.counts, table.masses, table.forms,
            table.extra)
    )


def word_rows(found):
    """A `WordTable`'s rows, as (word, form, extra digit as a bool,
    probability), after checking that its four columns hold one entry per
    word."""
    columns = (found.words, found.forms, found.extra, found.probs)
    assert [len(column) for column in columns] == [len(found)] * 4
    return list(
        zip(found.words, found.forms, map(bool, found.extra), found.probs)
    )


def reference_stops(model, classify, cap, node_limit, taken=(), boundary=None):
    """The stopping DP of `lattice_metrics` as it kept its stops before they
    became rows: one entry per stopping profile, (clean count, clean mass,
    crossed count, crossed mass, form, second), where `second` says whether
    the profile is in the second set or at the cap.

    Node by node over `word_sets.level_views`, with one branch per routing
    flag where the library routes a level with masks.  Entries are filed
    in row order: level by level, the taken and boundary classes first, by
    profile, then the other stops in visiting order.  Returns the entries,
    the cap mass and the number of nodes visited.
    """
    boundary_profile, boundary_words = boundary if boundary else (None, 0)
    marked = sorted({*taken, boundary_profile} - {None})
    stops = {}
    cap_mass = 0.0
    visited = 0
    walk = level_views(model, classify, 2, cap, node_limit, "lattice DP")
    for view in walk:
        (cc, mc), (cx, mx) = view.states
        size = len(view.flags)
        clean = ([0] * size, [0.0] * size)
        crossed = ([0] * size, [0.0] * size)
        route = view.routing(cap)
        visited += len(view.ids)
        # clean (count, mass) a taken or boundary class sends on
        sent = {}
        for k in marked:
            i = view.id_of(k) if sum(k) == view.level else None
            if i is None or route[i] != SECOND or not cc[i]:
                continue
            form = view.node(i)[1]
            if k in taken:
                stops[k] = (cc[i], mc[i], 0, 0.0, form, True)
                sent[i] = (0, 0.0)
            else:
                if cc[i] < boundary_words:
                    raise ValidationError(
                        "boundary class smaller than its split"
                    )
                stop_m = boundary_words * profile_probability(model, k)
                stops[k] = (boundary_words, stop_m, 0, 0.0, form, True)
                sent[i] = (cc[i] - boundary_words, mc[i] - stop_m)
        for i in view.ids:
            flag = route[i]
            if flag & FIRST:
                k, form = view.node(i)
                stops[k] = (cc[i], mc[i], cx[i], mx[i], form, flag > FIRST)
                if not view.flags[i] & FIRST:
                    cap_mass += mc[i] + mx[i]
            elif flag == SECOND:
                c, m = sent.get(i, (cc[i], mc[i]))
                crossed[0][i] = cx[i] + c
                crossed[1][i] = mx[i] + m if c else mx[i]
            else:
                clean[0][i], clean[1][i] = cc[i], mc[i]
                crossed[0][i], crossed[1][i] = cx[i], mx[i]
        view.next += [clean, crossed]
    return stops, cap_mass, visited


def stop_rows(stops):
    """The rows of a `reference_stops` table: per profile, in filing order,
    its clean row, then its crossed row, each where its count is nonzero."""
    rows = []
    for k, (c_c, m_c, c_x, m_x, form, second) in stops.items():
        if c_c:
            rows.append((k, c_c, m_c, form, second))
        if c_x:
            rows.append((k, c_x, m_x, form, False))
    return rows
