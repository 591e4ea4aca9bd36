"""Variable-to-variable code construction.

The construction builds two stopping sets on the profile lattice: a "low" set
of profiles whose linear form sits just above an integer and a "high" set
sitting just below one.  Words stopped by the low set get codeword length
floor(-log_n p), words stopped by the high set get one digit more; both have
per-word redundancy bounded by the threshold width.  The low set alone
usually violates the Kraft inequality, so its word set is merged with the
high set's words, added in decreasing probability order, until the Kraft sum
first drops to 1 or below.

Small word sets are handled explicitly, word by word.  Large ones never get
enumerated: all accounting runs on the profile lattice with exact big-integer
word counts per profile, and the merge adds whole profile classes at a time,
splitting only the class where the Kraft sum crosses 1.

Three sweeps cover the lattice.  A joint forward DP over both sets yields
the Kraft sums of each set and of their full merge, the cap masses that
size the cap, and the profile classes the merge may add.  A backward
knockout sweep gives the Kraft mass each added word removes.  The final
word set is the one every code family shares: `word_sets.lattice_metrics`
gives its stops, hence its exact Kraft sum and metrics, with the merge's
chosen classes and boundary split passed in, and `word_sets.enumerate_words`
lists it when it is small enough for a book.  On the swapped path the high
set is both sets.  Every sweep classifies a node once, through
`word_sets.node_classifier` over the two threshold rules (the cap is simply
the last level).  The knockout sweep keeps two levels at a time; for two
symbols each level is a plain list indexed by the first count.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Sequence

from . import analysis
from .codebook import (
    CodeBook,
    CodeEntry,
    format_digits,
    kraft_of_counts,
    validate_codebook,
)
from .diophantine import (
    best_approx_denominators,
    denominator_of_rational_form,
)
from .errors import InfeasibleError, InputError, ResourceError, ValidationError
from .source_model import (
    Profile,
    SourceModel,
    Word,
    linear_form,
    profile_of,
    word_probability,
)
from .word_sets import (
    DEFAULT_ENUM_LIMIT,
    DEFAULT_NODE_LIMIT,
    THRESHOLD_TOL,
    LatticeTable,
    NodeClassifier,
    ProfileSet,
    ThresholdHighRule,
    ThresholdLowRule,
    completeness_defect,
    enumerate_words,
    is_prefix_free,
    lattice_levels,
    lattice_metrics,
    node_classifier,
    wedge,
)

DEFAULT_T_MAX = 50


def floor_form(x: float, tol: float = THRESHOLD_TOL) -> int:
    """Integer part of a linear-form value, snapping near-integers upward."""
    fl = math.floor(x)
    if x - fl >= 1.0 - tol:
        fl += 1
    return int(fl)


def code_length_for(form: float, in_second: bool) -> int:
    """Codeword length for a word with the given linear-form value.

    floor(-log_n p) for words of the low set, one more for words of the high
    set; clamped to 1 because an empty codeword is never assignable.
    """
    length = floor_form(form) + (1 if in_second else 0)
    return max(1, length)


def kraft_sum(lengths: Sequence[int], arity: int) -> Fraction:
    """Exact Kraft sum of codeword lengths."""
    return kraft_of_counts(Counter(lengths), arity)


def build_threshold_sets(
    model: SourceModel, T: int, cap: int, theta: float | None = None
) -> tuple[ProfileSet, ProfileSet]:
    """Low and high stopping sets with threshold 2/T (or an explicit theta).

    Both are unioned with the hard cap at `cap`, so the induced word sets are
    complete regardless of how sparse the threshold hits are.  An explicit
    theta must be finite and positive; widths of 1 or more are legal (2/T
    itself is 2 at T=1).
    """
    if T < 1:
        raise InputError(f"T must be >= 1, got {T}")
    if cap < 1:
        raise InputError(f"cap must be >= 1, got {cap}")
    if theta is not None and not (math.isfinite(theta) and theta > 0):
        raise InputError(
            f"threshold width must be a finite number > 0, got {theta!r}"
        )
    width = 2.0 / T if theta is None else theta
    low = ProfileSet(model.m, cap, ThresholdLowRule(model.d, width))
    high = ProfileSet(model.m, cap, ThresholdHighRule(model.d, width))
    return low, high


def huffman_lengths(probs: Sequence[float], arity: int) -> list[int]:
    """Codeword lengths of an optimal prefix code over `arity` digits.

    Pads with zero-weight dummies so every merge takes exactly `arity` nodes.
    Ties break on lowest weight first, then earliest creation, which makes
    the result independent of hash ordering.
    """
    import heapq

    k = len(probs)
    if k == 0:
        raise InputError("cannot build a code for zero words")
    if k == 1:
        return [1]
    dummies = (arity - 1 - (k - 1) % (arity - 1)) % (arity - 1)
    heap: list[tuple[float, int]] = [(p, i) for i, p in enumerate(probs)]
    heap += [(0.0, k + j) for j in range(dummies)]
    heapq.heapify(heap)
    children: dict[int, list[int]] = {}
    next_id = k + dummies
    while len(heap) > 1:
        group = [heapq.heappop(heap) for _ in range(arity)]
        children[next_id] = [node for _, node in group]
        heapq.heappush(heap, (math.fsum(w for w, _ in group), next_id))
        next_id += 1
    root = heap[0][1]
    depth = [0] * k
    stack = [(root, 0)]
    while stack:
        node, d = stack.pop()
        if node < k:
            depth[node] = d
        elif node in children:
            stack.extend((c, d + 1) for c in children[node])
    return depth


def canonical_codewords(lengths: Sequence[int], arity: int) -> list[str]:
    """Numerically increasing codewords for non-decreasing lengths.

    The classic canonical allocation: each codeword is the previous one plus
    one, left-shifted to the next length.  Raises when the lengths violate
    the Kraft inequality and the digits run out.
    """
    out: list[str] = []
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


def assign_codewords(
    model: SourceModel,
    items: list[tuple[Word, float, int]],
    assignment: str,
) -> list[CodeEntry]:
    """Turn (word, probability, construction length) triples into entries.

    "canonical" keeps the construction lengths; "huffman" replaces them with
    optimal lengths for the word probabilities.  Codewords are allocated
    canonically over entries sorted by (length, word) either way.
    """
    n = model.arity
    if assignment == "huffman":
        by_prob = sorted(items, key=lambda it: (-it[1], it[0]))
        lengths = huffman_lengths([p for _, p, _ in by_prob], n)
        items = [
            (w, p, length) for (w, p, _), length in zip(by_prob, lengths)
        ]
    elif assignment != "canonical":
        raise InputError(f"unknown assignment {assignment!r}")
    ordered = sorted(items, key=lambda it: (it[2], it[0]))
    codewords = canonical_codewords([length for _, _, length in ordered], n)
    return [
        CodeEntry(word=w, codeword=cw, probability=p)
        for (w, p, _), cw in zip(ordered, codewords)
    ]


@dataclass
class MergeStep:
    """One extension step of the Kraft merge."""

    profile: Profile
    word: Word | None  # set for word-level merges, None for class-level
    added: int  # words added in this step
    entered: bool  # whether the addition grew the merged set
    kraft_after: Fraction


@dataclass
class MergeTrace:
    """How the merge reached a Kraft-feasible word set.

    path is "base" (first set already feasible), "extended" (second set's
    words added until the Kraft sum crossed 1), or "swapped" (second set
    taken whole).  For word-level merges `k0` counts consumed words of the
    second set and `nontrivial` lists the ones that actually entered.
    """

    path: str
    steps: list[MergeStep] = field(default_factory=list)
    k0: int | None = None
    nontrivial: list[Word] = field(default_factory=list)
    boundary_profile: Profile | None = None
    boundary_words: int | None = None


def merge_to_kraft(
    model: SourceModel,
    first_words: list[Word],
    second_words: list[Word],
) -> tuple[list[tuple[Word, int]], MergeTrace, dict[str, Fraction | None]]:
    """Word-level Kraft merge of two explicit word sets.

    Lengths follow the construction rule, with membership in the second set
    deciding the extra digit.  Returns the final (word, length) list in
    lexicographic order, the trace, and the Kraft sums of both inputs and of
    their full merge.
    """
    n = model.arity
    second_set = set(second_words)

    def length_of(w: Word) -> int:
        form = linear_form(model, profile_of(w, model.m))
        return code_length_for(form, w in second_set)

    kraft_first = kraft_sum([length_of(w) for w in first_words], n)
    kraft_second = (
        kraft_sum([length_of(w) for w in second_words], n)
        if second_words
        else None
    )
    merged_all = wedge(first_words, second_words)
    kraft_merged = kraft_sum([length_of(w) for w in merged_all], n)
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
        added: list[Word] = []
        trace = MergeTrace(path="extended")
        for idx, w in enumerate(order, start=1):
            entered = w not in union and not any(
                w[:cut] in union for cut in range(1, len(w))
            )
            union.add(w)
            added.append(w)
            current = wedge(first_words, added)
            g = kraft_sum([length_of(x) for x in current], n)
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


def _profiles_of_length(total: int, m: int) -> Iterator[Profile]:
    if m == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _profiles_of_length(total - first, m - 1):
            yield (first,) + rest


@dataclass
class _JointTables:
    """Forward DP over both stopping sets at once.

    Paths are "clean" until they reach a member of either set.  The Kraft
    sums of the first set, the second set and their full merge (the stops
    of the clean paths, which are the paths alive in the union of both
    sets) are exact.  The cap masses are what `choose_cap` sizes the cap
    by.  `classes` lists (form, profile, clean count) for every profile in
    the second set but not the first that clean paths reach: the words that
    would join the merged set if that profile's class were added.
    """

    kraft_first: Fraction
    kraft_second: Fraction
    kraft_merged: Fraction
    cap_mass_first: float
    cap_mass_second: float
    classes: list[tuple[float, Profile, int]]


def _joint_dp(
    model: SourceModel,
    set_low: ProfileSet,
    set_high: ProfileSet,
    node_limit: int,
) -> _JointTables:
    if set_low.cap != set_high.cap:
        raise InputError("both stopping sets must share one cap")
    cap = set_low.cap
    classify = node_classifier(set_low.rule, set_high.rule)

    # {codeword length: word count} of each word set, for its Kraft sum
    acc_first: Counter[int] = Counter()
    acc_second: Counter[int] = Counter()
    acc_merged: Counter[int] = Counter()
    cap_mass_first = 0.0
    cap_mass_second = 0.0
    classes: list[tuple[float, Profile, int]] = []

    # fronts: paths that have hit neither set, only the first, only the second
    walk = lattice_levels(
        ({(0,) * model.m: (1, 1.0)}, {}, {}), model.probs, cap, node_limit,
        "joint lattice DP",
    )
    for level, (in_clean, in_first, in_second), keys, fronts in walk:
        clean, only_first, only_second = fronts
        at_cap = level == cap
        for k in keys:
            c_c, m_c = in_clean.get(k, (0, 0.0))
            c_1, m_1 = in_first.get(k, (0, 0.0))
            c_2, m_2 = in_second.get(k, (0, 0.0))
            form, low, high = classify(k)
            b1 = at_cap or low
            b2 = at_cap or high
            if not (b1 or b2):
                if c_c:
                    clean[k] = (c_c, m_c)
                if c_1:
                    only_first[k] = (c_1, m_1)
                if c_2:
                    only_second[k] = (c_2, m_2)
                continue
            if b1:
                if c_c:
                    length = code_length_for(form, b2)
                    acc_first[length] += c_c
                    acc_merged[length] += c_c
                if c_2:
                    acc_first[code_length_for(form, False)] += c_2
                if at_cap and not low:
                    cap_mass_first += m_c + m_2
            else:
                # second-only member: clean paths would stop here if these
                # words were added to the merged set
                if c_c or c_2:
                    only_second[k] = (c_c + c_2, m_c + m_2)
                if c_c:
                    acc_merged[code_length_for(form, True)] += c_c
                    classes.append((form, k, c_c))
            if b2:
                if c_c or c_1:
                    acc_second[code_length_for(form, True)] += c_c + c_1
                    if at_cap and not high:
                        cap_mass_second += m_c + m_1
            elif c_c or c_1:
                only_first[k] = (c_c + c_1, m_c + m_1)
    return _JointTables(
        kraft_first=kraft_of_counts(acc_first, model.arity),
        kraft_second=kraft_of_counts(acc_second, model.arity),
        kraft_merged=kraft_of_counts(acc_merged, model.arity),
        cap_mass_first=cap_mass_first,
        cap_mass_second=cap_mass_second,
        classes=classes,
    )


def _knockout_masses(
    model: SourceModel,
    classify: NodeClassifier,
    cap: int,
    targets: set[Profile],
    node_limit: int,
) -> dict[Profile, Fraction]:
    """Kraft mass removed per word when a profile's words join the merged set.

    For a profile k outside the low set, W(k) is the Kraft sum over all
    first-low-set stops of paths continuing from k, at floor lengths.  Adding
    one word ending at k knocks exactly those continuation words out.
    Computed for every target profile in a single backward sweep over the
    lattice, with exact integer arithmetic scaled by n^E.  Each level holds
    one value per node: its stop value when it is in the low set, else W;
    the level above reads its children from it.  Two symbols index a level
    by the first count, so (a, L - a) has children a + 1 and a one level on;
    the general dict walk over tuple keys takes about 3.7 times as long on a
    two-symbol T=28 extended build.
    """
    n = model.arity
    m = model.m
    if math.comb(cap + m, m) > node_limit:
        raise ResourceError(
            f"backward sweep needs the full lattice up to {cap}, "
            f"exceeding {node_limit} nodes"
        )
    exp = int(cap * max(model.d)) + 3
    stop_values = [n ** (exp - length) for length in range(exp + 1)]
    by_level: dict[int, list[Profile]] = {}
    for k in targets:
        by_level.setdefault(sum(k), []).append(k)

    result: dict[Profile, int] = {}
    if m == 2:
        nxt: list[int] = []
        for level in range(cap, 0, -1):
            cur: list[int] = []
            for a in range(level + 1):
                form, low, _ = classify((a, level - a))
                if low or level == cap:
                    cur.append(stop_values[code_length_for(form, False)])
                else:
                    cur.append(nxt[a + 1] + nxt[a])
            for k in by_level.get(level, ()):
                result[k] = cur[k[0]]
            nxt = cur
    else:
        nxt_d: dict[Profile, int] = {}
        for level in range(cap, 0, -1):
            cur_d: dict[Profile, int] = {}
            for k in _profiles_of_length(level, m):
                form, low, _ = classify(k)
                if low or level == cap:
                    cur_d[k] = stop_values[code_length_for(form, False)]
                else:
                    cur_d[k] = sum(
                        nxt_d[k[:i] + (k[i] + 1,) + k[i + 1 :]]
                        for i in range(m)
                    )
            for k in by_level.get(level, ()):
                result[k] = cur_d[k]
            nxt_d = cur_d
    denom = n**exp
    return {k: Fraction(v, denom) for k, v in result.items()}


def _class_scan(
    model: SourceModel,
    kraft_first: Fraction,
    knockouts: dict[Profile, Fraction],
    classes: list[tuple[float, Profile, int]],
) -> tuple[set[Profile], tuple[Profile, int] | None, Fraction, list[MergeStep]]:
    """Add whole profile classes until the Kraft sum first reaches 1.

    Classes arrive sorted by decreasing word probability.  The class where
    the sum crosses 1 is split exactly: j words of it are enough, with j
    computed in exact rational arithmetic.
    """
    n = model.arity
    g = kraft_first
    chosen: set[Profile] = set()
    steps: list[MergeStep] = []
    for form, k, count in classes:
        length = code_length_for(form, True)
        delta = Fraction(1, n**length) - knockouts[k]
        g_class = g + count * delta
        if g_class <= 1:
            if delta >= 0:
                raise ValidationError(
                    "Kraft sum crossed 1 on a non-decreasing step"
                )
            j = math.ceil((g - 1) / (-delta))
            g_final = g + j * delta
            steps.append(
                MergeStep(
                    profile=k,
                    word=None,
                    added=j,
                    entered=True,
                    kraft_after=g_final,
                )
            )
            return chosen, (k, j), g_final, steps
        g = g_class
        chosen.add(k)
        steps.append(
            MergeStep(
                profile=k, word=None, added=count, entered=True, kraft_after=g
            )
        )
    raise ValidationError(
        "class scan exhausted the second set without reaching Kraft 1"
    )


def threshold_parameter_candidates(
    model: SourceModel, t_max: int = DEFAULT_T_MAX
) -> dict:
    """Candidate threshold parameters T for a source.

    When every exponent -log_n p_i is rational the linear form hits integers
    exactly; any T with threshold 2/T below the hit spacing works, so the
    candidates are doublings of a small multiple of the common denominator.
    Otherwise T runs over the best-approximation denominators of one
    irrational exponent, preferring the last symbol's.
    """
    q = denominator_of_rational_form(list(model.d))
    if q is not None:
        base = q * max(1, math.ceil(5 / q))
        candidates = []
        t = base
        while t <= max(t_max, base):
            candidates.append(t)
            t *= 2
        return {
            "case": "rational",
            "q": q,
            "candidates": candidates,
            "source_symbol": None,
        }
    idx = model.m - 1
    if denominator_of_rational_form([model.d[idx]]) is not None:
        idx = next(
            i
            for i, di in enumerate(model.d)
            if denominator_of_rational_form([di]) is None
        )
    candidates = best_approx_denominators(model.d[idx], t_max)
    return {
        "case": "irrational",
        "q": None,
        "candidates": candidates,
        "source_symbol": model.labels[idx],
    }


def choose_cap(
    model: SourceModel,
    T: int,
    theta: float | None = None,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> tuple[int, ProfileSet, ProfileSet, _JointTables, list[tuple[int, float]]]:
    """Pick the hard stopping cap by doubling until the cap mass is small.

    Starts at T^2 and doubles until the probability of a word being stopped
    by the cap rather than a threshold set drops to T^-2, or the budget
    ceil(8 T^3 ln T) is reached.  Returns the lattice tables of the last
    trial so the caller need not recompute them.
    """
    if T < 1:
        raise InputError(f"T must be >= 1, got {T}")
    hard = max(T * T, math.ceil(8 * T**3 * math.log(T)) if T >= 2 else 0)
    target = 1.0 / (T * T)
    cap = T * T
    history: list[tuple[int, float]] = []
    while True:
        if math.comb(cap + model.m, model.m) > node_limit:
            raise ResourceError(
                f"cap {cap} needs more than {node_limit} lattice nodes"
            )
        set_low, set_high = build_threshold_sets(model, T, cap, theta)
        tables = _joint_dp(model, set_low, set_high, node_limit)
        worst = max(tables.cap_mass_first, tables.cap_mass_second)
        history.append((cap, worst))
        if worst <= target or cap >= hard:
            return cap, set_low, set_high, tables, history
        cap = min(2 * cap, hard)


def _final_classes(
    table: LatticeTable, arity: int
) -> tuple[list[tuple[float, int, int, float]], Fraction]:
    """Metric rows of the final word set, and its exact Kraft sum.

    One (mass, word length, codeword length, linear form) row per stop
    class.  Clean stops take the length rule with the stop's second-set
    flag; crossed stops always take the floor length.
    """
    rows: list[tuple[float, int, int, float]] = []
    by_length: Counter[int] = Counter()
    for k in sorted(table.stops):
        c_c, m_c, c_x, m_x, form, second = table.stops[k]
        for count, mass, extra in ((c_c, m_c, second), (c_x, m_x, False)):
            if count:
                length = code_length_for(form, extra)
                by_length[length] += count
                rows.append((mass, sum(k), length, form))
    return rows, kraft_of_counts(by_length, arity)


@dataclass
class VVResult:
    """A constructed variable-to-variable code.

    `dp_metrics` always reflects the construction lengths, computed exactly
    on the profile lattice.  `book` (and `book_metrics`) are present when the
    word set was small enough to enumerate; with the "huffman" assignment the
    book's lengths are optimal for the word probabilities and its metrics can
    beat the construction's.
    """

    model: SourceModel
    T: int | None
    cap: int | None
    theta: float | None
    grade: str
    path: str
    book: CodeBook | None
    dp_metrics: "analysis.CodeMetrics"
    book_metrics: "analysis.CodeMetrics | None"
    trace: MergeTrace
    provenance: dict


def _pipeline(
    model: SourceModel,
    T: int,
    cap: int | str,
    theta: float | None,
    grade: str,
    assignment: str,
    enum_limit: int,
    node_limit: int,
) -> VVResult:
    n = model.arity
    if cap == "auto":
        cap_val, set_low, set_high, tables, history = choose_cap(
            model, T, theta, node_limit
        )
    else:
        cap_val = int(cap)
        set_low, set_high = build_threshold_sets(model, T, cap_val, theta)
        tables = _joint_dp(model, set_low, set_high, node_limit)
        history = [
            (cap_val, max(tables.cap_mass_first, tables.cap_mass_second))
        ]

    classify = node_classifier(set_low.rule, set_high.rule)
    kraft_first = tables.kraft_first
    kraft_second = tables.kraft_second
    kraft_merged: Fraction | None = None
    g_final: Fraction | None = None
    steps: list[MergeStep] = []
    chosen: set[Profile] = set()
    boundary: tuple[Profile, int] | None = None

    if kraft_first <= 1:
        path = "base"
        expected_kraft = kraft_first
    else:
        kraft_merged = tables.kraft_merged
        if kraft_merged <= 1:
            classes = sorted(tables.classes)
            targets = {k for _, k, _ in classes}
            knockouts = _knockout_masses(
                model, classify, cap_val, targets, node_limit
            )
            full = kraft_first + sum(
                count
                * (
                    Fraction(1, n ** code_length_for(form, True))
                    - knockouts[k]
                )
                for form, k, count in classes
            )
            if full != kraft_merged:
                raise ValidationError(
                    "lattice merge bookkeeping is inconsistent: adding every "
                    "class does not reproduce the merged Kraft sum"
                )
            chosen, boundary, g_final, steps = _class_scan(
                model, kraft_first, knockouts, classes
            )
            path = "extended"
            expected_kraft = g_final
        elif kraft_second <= 1:
            path = "swapped"
            # the high set stops every path, and every stop is clean
            classify = node_classifier(set_high.rule, set_high.rule)
            expected_kraft = kraft_second
        else:
            raise InfeasibleError(
                "neither threshold word set satisfies the Kraft inequality, "
                "in either merge order"
            )

    final = lattice_metrics(
        model, classify, cap_val, node_limit, chosen, boundary
    )
    stop_rows, kraft_final = _final_classes(final, n)
    if kraft_final != expected_kraft:
        raise ValidationError(
            "final word set Kraft sum disagrees with the merge accounting"
        )
    if abs(final.total_prob - 1.0) > 1e-6:
        raise ValidationError(
            f"final word set is not complete: mass {final.total_prob!r}"
        )

    dp_metrics = analysis.metrics_from_classes(
        model,
        stop_rows,
        kraft_exact=kraft_final,
        word_count=final.word_count,
    )

    provenance = {
        "mode": "thresholds",
        "T": T,
        "cap": cap_val,
        "theta": theta if theta is not None else 2.0 / T,
        "path": path,
        "grade": grade,
        "assignment": assignment,
        "word_count": final.word_count,
        "kraft_first": str(kraft_first),
        "kraft_second": str(kraft_second),
        "kraft_merged": None if kraft_merged is None else str(kraft_merged),
        "kraft_final": str(kraft_final),
        "classes_added": len(chosen) + (1 if boundary else 0),
        "boundary_profile": list(boundary[0]) if boundary else None,
        "boundary_words": boundary[1] if boundary else None,
        "cap_history": [[c, mass] for c, mass in history],
    }

    book = None
    book_metrics = None
    if final.word_count <= enum_limit:
        items = enumerate_words(
            model, classify, cap_val, enum_limit, chosen, boundary
        )
        if len(items) != final.word_count:
            raise ValidationError(
                "enumerated word count disagrees with the lattice DP"
            )
        # rewritten in place, so the triples are never held twice
        for i, (w, form, extra) in enumerate(items):
            length = code_length_for(form, extra)
            items[i] = (w, word_probability(model, w), length)
        entries = assign_codewords(model, items, assignment)
        book = CodeBook(
            model=model,
            kind="vv",
            entries=tuple(entries),
            provenance=dict(provenance),
        )
        validate_codebook(book)
        book_metrics = analysis.code_metrics(book)

    trace = MergeTrace(
        path=path,
        steps=steps,
        k0=len(chosen) + (1 if boundary else 0) if path == "extended" else None,
        boundary_profile=boundary[0] if boundary else None,
        boundary_words=boundary[1] if boundary else None,
    )
    return VVResult(
        model=model,
        T=T,
        cap=cap_val,
        theta=theta,
        grade=grade,
        path=path,
        book=book,
        dp_metrics=dp_metrics,
        book_metrics=book_metrics,
        trace=trace,
        provenance=provenance,
    )


def _validate_word_list(
    model: SourceModel, words: list[Word], what: str
) -> None:
    if not words:
        raise InputError(f"the {what} word list is empty")
    if len(set(words)) != len(words):
        raise ValidationError(f"the {what} word list has duplicates")
    for w in words:
        if not w:
            raise ValidationError(f"the {what} word list contains an empty word")
        if any(s < 1 or s > model.m for s in w):
            raise ValidationError(
                f"the {what} word list uses symbols outside the alphabet"
            )
    if not is_prefix_free(words):
        raise ValidationError(f"the {what} word set is not prefix-free")
    defect = completeness_defect(model, words)
    if defect > 1e-9:
        raise ValidationError(
            f"the {what} word set is not complete: defect {defect!r}"
        )


def _explicit(
    model: SourceModel,
    first_words: list[Word],
    second_words: list[Word],
    grade: str,
    assignment: str,
    enum_limit: int,
) -> VVResult:
    _validate_word_list(model, first_words, "first")
    if second_words:
        _validate_word_list(model, second_words, "second")
    if len(first_words) > enum_limit or len(second_words) > enum_limit:
        raise ResourceError(f"explicit word lists exceed {enum_limit} words")

    final_pairs, trace, report = merge_to_kraft(
        model, first_words, second_words
    )
    final_words = [w for w, _ in final_pairs]
    defect = completeness_defect(model, final_words)
    if defect > 1e-9:
        raise ValidationError(
            f"merged word set lost completeness: defect {defect!r}"
        )

    rows = [
        (
            word_probability(model, w),
            len(w),
            length,
            linear_form(model, profile_of(w, model.m)),
        )
        for w, length in final_pairs
    ]
    kraft_exact = kraft_sum([length for _, length in final_pairs], model.arity)
    dp_metrics = analysis.metrics_from_classes(
        model, rows, kraft_exact=kraft_exact, word_count=len(final_pairs)
    )

    provenance = {
        "mode": "explicit",
        "path": trace.path,
        "grade": grade,
        "assignment": assignment,
        "word_count": len(final_pairs),
        "kraft_first": str(report["kraft_first"]),
        "kraft_second": (
            None
            if report["kraft_second"] is None
            else str(report["kraft_second"])
        ),
        "kraft_merged": str(report["kraft_merged"]),
        "kraft_final": str(kraft_exact),
        "k0": trace.k0,
        "nontrivial_words": [
            model.word_to_text(w) for w in trace.nontrivial
        ],
    }

    items = [
        (w, word_probability(model, w), length) for w, length in final_pairs
    ]
    entries = assign_codewords(model, items, assignment)
    book = CodeBook(
        model=model, kind="vv", entries=tuple(entries), provenance=dict(provenance)
    )
    validate_codebook(book)
    book_metrics = analysis.code_metrics(book)

    return VVResult(
        model=model,
        T=None,
        cap=None,
        theta=None,
        grade=grade,
        path=trace.path,
        book=book,
        dp_metrics=dp_metrics,
        book_metrics=book_metrics,
        trace=trace,
        provenance=provenance,
    )


def construct_vv(
    model: SourceModel,
    T: int | str = "auto",
    cap: int | str = "auto",
    theta: float | None = None,
    grade: str = "codec",
    assignment: str = "huffman",
    first_words: list[Word] | None = None,
    second_words: list[Word] | None = None,
    enum_limit: int = DEFAULT_ENUM_LIMIT,
    node_limit: int = DEFAULT_NODE_LIMIT,
    t_max: int = DEFAULT_T_MAX,
) -> VVResult:
    """Construct a variable-to-variable code for a memoryless source.

    With explicit word lists the merge runs word by word and the result
    always carries a code book.  Otherwise the stopping sets come from the
    near-integer thresholds at parameter T ("auto" picks it from the
    source's exponents: at grade "codec" the largest candidate whose word
    set still enumerates, at grade "metrics" the first candidate above 4,
    where the two threshold sets cannot overlap).  The cap ("auto": doubling
    until the cap mass falls below T^-2) bounds word length in every case.

    grade "metrics" skips nothing structural; it only tolerates word sets
    too large to enumerate, returning lattice-level metrics without a book.
    """
    if grade not in ("codec", "metrics"):
        raise InputError(f"unknown grade {grade!r}")
    if assignment not in ("huffman", "canonical"):
        raise InputError(f"unknown assignment {assignment!r}")
    if enum_limit < 0:
        raise InputError(f"enumeration limit must be >= 0, got {enum_limit}")

    if first_words is not None or second_words is not None:
        if first_words is None:
            raise InputError(
                "a second word list was given without a first one"
            )
        return _explicit(
            model,
            list(first_words),
            list(second_words or []),
            grade,
            assignment,
            enum_limit,
        )

    def build(t: int) -> VVResult:
        return _pipeline(
            model, t, cap, theta, grade, assignment, enum_limit, node_limit
        )

    if T == "auto":
        info = threshold_parameter_candidates(model, t_max)
        candidates = info["candidates"]
        if grade == "metrics":
            above = [t for t in candidates if t > 4]
            result = build(above[0] if above else candidates[-1])
            result.provenance["t_selection"] = info
            return result
        failures: list[str] = []
        for choice in reversed(candidates):
            try:
                result = build(choice)
            except ResourceError as exc:
                failures.append(f"T={choice}: {exc}")
                continue
            if result.book is not None:
                result.provenance["t_selection"] = info
                return result
            failures.append(
                f"T={choice}: {result.provenance['word_count']} words"
            )
        raise ResourceError(
            "no candidate threshold parameter yields an enumerable word "
            "set: " + "; ".join(failures)
        )

    choice = int(T)
    result = build(choice)
    if grade == "codec" and result.book is None:
        raise ResourceError(
            f"the word set at T={choice} has "
            f"{result.provenance['word_count']} words, above the "
            f"enumeration limit {enum_limit}"
        )
    return result
