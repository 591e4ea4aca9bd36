"""Variable-to-variable code construction.

The construction builds two stopping sets on the profile lattice: a "low" set
of profiles whose linear form sits just above an integer and a "high" set
sitting just below one.  Words stopped by the low set get codeword length
floor(-log_n p), words stopped by the high set get one digit more; both have
per-word redundancy bounded by the threshold width.  The low set alone
usually violates the Kraft inequality, so its word set is merged with the
high set's words, added in decreasing probability order, until the Kraft sum
first drops to 1 or below.

Threshold word sets never get enumerated for the merge: all accounting
runs on the profile lattice with exact big-integer word counts per profile,
and the merge adds whole profile classes at a time, splitting only the class
where the Kraft sum crosses 1.  Explicit word lists take the same class
merge, with one word per class.  Every build that emits a book ends in one
tail: codewords, the book, its metrics from the words' columns, validation.

Three sweeps cover the lattice.  A joint forward DP over both sets yields
the Kraft sums of each set and of their full merge, the cap masses that
size the cap, and the profile classes the merge may add.  A backward
knockout sweep gives the Kraft mass each added word removes.  The final
word set is the one every code family shares: `word_sets.lattice_metrics`
gives its stops, hence its exact Kraft sum and metrics, with the merge's
chosen classes and boundary split passed in, and `word_sets.enumerate_words`
lists it when it is small enough for a book.  On the swapped path the high
set is both sets.  A build that must emit a book (grade "codec") gives up
inside the joint DP once the merged set's words pass the enumeration limit,
since no final word set has fewer.

One `word_sets.NodeClassifier` over the two threshold rules serves a whole
build (the cap is simply the last level): the cap trials, the knockout
sweep, the final DP and the enumeration.  For two symbols it keeps a level
table, one byte of flags per node, so the forward sweeps classify each node
once per build.  The joint DP, like the final one, is one body over
`word_sets.level_views` (flat per-level lists for two symbols, key-ordered
ones over dicts of profile tuples otherwise) and routes a level's paths
with masks of the node flags.  The knockout sweep is one body for every
source, over the int node keys the enumerator uses (`word_sets.NodeKeys`):
it visits only the nodes that paths from the addable classes reach before
the low set or the cap, and the merge check adds its exact masses as
integers scaled by n^E.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, groupby, repeat
from operator import attrgetter, itemgetter
from typing import Sequence

from . import analysis
from .codebook import (
    COMPLETENESS_TOL,
    CodeBook,
    CodeEntry,
    _assert_prefix_free,
    _symbols_in_range,
    code_entries,
    digit_run,
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
    DEFAULT_T_MAX,
    FIRST,
    IN_NEITHER,
    NOT_FIRST,
    NOT_SECOND,
    ONLY_FIRST,
    ONLY_SECOND,
    SECOND,
    THRESHOLD_TOL,
    LatticeTable,
    NodeClassifier,
    NodeKeys,
    ProfileSet,
    ThresholdHighRule,
    ThresholdLowRule,
    completeness_defect,
    enumerate_words,
    flat_carry,
    lattice_metrics,
    level_views,
    node_limit_error,
    wedge,
)

log = logging.getLogger(__name__)

# How far the final lattice table's word mass, a float sum of class masses
# that the forward DP carried level by level, may drift from 1 before the
# final word set counts as incomplete.
FINAL_MASS_TOL = 1e-6


def floor_form(x: float) -> int:
    """Integer part of a linear-form value, snapping values within
    THRESHOLD_TOL below an integer upward."""
    fl = math.floor(x)
    if x - fl >= 1.0 - THRESHOLD_TOL:
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
    The two-queue construction (J. van Leeuwen, "On the construction of
    Huffman trees", ICALP 1976): the leaves wait in one queue, sorted by
    weight, and merged nodes join a second queue in the order they are
    made, which is also by weight, since a merge weighs at least as much as
    each node it takes.  Every merge takes the `arity` lightest queue heads,
    a leaf first on equal weight; the leaf queue keeps input order among
    equal weights, with the dummies after every leaf.  So the nodes merge
    exactly as from a heap keyed by (weight, creation order), and ties never
    depend on hash ordering.  Each merge weighs the `math.fsum` of its nodes,
    and depths follow parent pointers from the root down.
    """
    if arity < 2:
        raise InputError(f"arity must be >= 2, got {arity}")
    k = len(probs)
    if k == 0:
        raise InputError("cannot build a code for zero words")
    if k == 1:
        return [1]
    dummies = (arity - 1 - (k - 1) % (arity - 1)) % (arity - 1)
    weights = [*probs, *repeat(0.0, dummies)]
    leaves = sorted(range(len(weights)), key=weights.__getitem__)
    leaf_w = list(map(weights.__getitem__, leaves))
    n_leaves = len(leaves)
    merges = (n_leaves - 1) // (arity - 1)
    # parent merge of each leaf (by queue position) and of each merge
    leaf_parent = [0] * n_leaves
    merge_parent = [0] * merges
    merge_w: list[float] = []
    fsum = math.fsum
    i = j = 0
    for node in range(merges):
        group = []
        for _ in range(arity):
            if i < n_leaves and (j == node or leaf_w[i] <= merge_w[j]):
                group.append(leaf_w[i])
                leaf_parent[i] = node
                i += 1
            else:
                group.append(merge_w[j])
                merge_parent[j] = node
                j += 1
        merge_w.append(fsum(group))
    depth = [0] * merges
    for node in range(merges - 2, -1, -1):
        depth[node] = depth[merge_parent[node]] + 1
    lengths = [0] * k
    for pos, leaf in enumerate(leaves):
        if leaf < k:
            lengths[leaf] = depth[leaf_parent[pos]] + 1
    return lengths


def canonical_codewords(lengths: Sequence[int], arity: int) -> list[str]:
    """Numerically increasing codewords for non-decreasing lengths.

    The classic canonical allocation: each codeword is the previous one plus
    one, left-shifted to the next length.  Each run of equal lengths is one
    range of codes, checked against the codeword space once.  Raises when
    the lengths violate the Kraft inequality and the digits run out.
    """
    out: list[str] = []
    code = 0
    prev = 0
    for length, run in groupby(lengths):
        if length < prev:
            raise InputError("lengths must be sorted in non-decreasing order")
        code *= arity ** (length - prev)
        end = code + sum(1 for _ in run)
        if end > arity**length:
            raise InfeasibleError(
                "codeword space exhausted; lengths violate the Kraft inequality"
            )
        out += digit_run(code, end, arity, length)
        code = end
        prev = length
    return out


def assign_codewords(
    model: SourceModel,
    items: list[tuple[Word, float, int]],
    assignment: str,
    code_lengths: list[int] | None = None,
) -> list[CodeEntry]:
    """Turn (word, probability, construction length) triples into entries.

    "canonical" keeps the construction lengths; "huffman" replaces them with
    optimal lengths for the word probabilities, computed over the words in
    lexicographic order.  Codewords are allocated canonically over entries
    sorted by (length, word) either way: a stable sort by length of the
    entries in word order.  Given a list as `code_lengths`, it receives
    each word's codeword length, in lexicographic word order.
    """
    n = model.arity
    if assignment not in ("huffman", "canonical"):
        raise InputError(f"unknown assignment {assignment!r}")
    by_word = sorted(items, key=itemgetter(0))
    if assignment == "huffman":
        probs = list(map(itemgetter(1), by_word))
        lengths = huffman_lengths(probs, n)
        by_word = list(zip(map(itemgetter(0), by_word), probs, lengths))
    if code_lengths is not None:
        code_lengths[:] = map(itemgetter(2), by_word)
    ordered = sorted(by_word, key=itemgetter(2))
    codewords = canonical_codewords(list(map(itemgetter(2), ordered)), n)
    return list(
        code_entries(
            list(map(itemgetter(0), ordered)),
            codewords,
            map(itemgetter(1), ordered),
        )
    )


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


def _merge_path(
    first: Fraction, merged: Fraction, second: Fraction | None
) -> str:
    """The merge path that the Kraft sums of the first set, the full merge
    and the second set decide, the same for explicit word lists and
    threshold sets: the first set if it is feasible, else the merge if it
    is, else the second set (None when there is none).  Raises
    InfeasibleError when none of the three is."""
    if first <= 1:
        return "base"
    if merged <= 1:
        return "extended"
    if second is not None and second <= 1:
        return "swapped"
    raise InfeasibleError(
        "neither the first set, nor the merge, nor the second set "
        "satisfies the Kraft inequality with the assigned lengths"
    )


def merge_to_kraft(
    model: SourceModel,
    first_words: list[Word],
    second_words: list[Word],
) -> tuple[list[tuple[Word, int]], MergeTrace, dict[str, Fraction | None]]:
    """Word-level Kraft merge of two explicit word sets.

    Lengths follow the construction rule, with membership in the second set
    deciding the extra digit.  Returns the final (word, length) list in
    lexicographic order, the trace, and the Kraft sums of both inputs and of
    their full merge.  Raises ValidationError unless each list is
    prefix-free and free of duplicates.

    The extended path is `_class_scan` with one word per class.  The only
    rule that differs from the lattice merge is the order: second-set words
    go by (-p, word), p the word's float probability; lattice classes go by
    (form, profile), and a split class gives its words lexicographically.
    So the two agree unless two profiles share a probability, or the floats
    of a split class's words are out of lexicographic order.

    A word enters the merged set iff neither it nor a proper prefix of it
    is in the union so far; it then adds n^-L(w) and knocks out the first
    words that extend w.  No earlier word can have removed one of those (a
    prefix of w would keep w out, an extension of w comes later), so every
    step is fixed before the scan, exact in integers scaled by n^E.
    """
    _assert_prefix_free(first_words, "first word")
    _assert_prefix_free(second_words, "second word")
    n = model.arity
    second_set = set(second_words)
    length_of = {
        w: code_length_for(
            linear_form(model, profile_of(w, model.m)), w in second_set
        )
        for w in {*first_words, *second_words}
    }

    def kraft(words: list[Word]) -> Fraction:
        return kraft_sum(list(map(length_of.__getitem__, words)), n)

    kraft_first = kraft(first_words)
    kraft_second = kraft(second_words) if second_words else None
    kraft_merged = kraft(wedge(first_words, second_words))
    report = {
        "kraft_first": kraft_first,
        "kraft_second": kraft_second,
        "kraft_merged": kraft_merged,
    }

    path = _merge_path(kraft_first, kraft_merged, kraft_second)
    if path == "base":
        final, trace = sorted(first_words), MergeTrace(path="base")
    elif path == "extended":
        classes = sorted(
            (-word_probability(model, w), w, 1) for w in second_words
        )
        exp = max(length_of.values())
        ordered_first = sorted(first_words)
        union = set(first_words)
        entered: set[Word] = set()
        deltas: dict[Word, int] = {}
        for _, w, _ in classes:
            deltas[w] = 0
            if w not in union and not any(
                w[:cut] in union for cut in range(1, len(w))
            ):
                entered.add(w)
                # the first words that extend w, a run in sorted order
                lo = bisect_left(ordered_first, w)
                hi = bisect_left(ordered_first, w + (model.m + 1,), lo)
                deltas[w] = n ** (exp - length_of[w]) - sum(
                    n ** (exp - length_of[u]) for u in ordered_first[lo:hi]
                )
            union.add(w)
        _, _, _, scanned = _class_scan(
            kraft_first, kraft_merged, deltas, n**exp, classes
        )
        added = [w for _, w, _ in classes[: len(scanned)]]
        trace = MergeTrace(
            path="extended",
            steps=[
                MergeStep(
                    profile_of(w, model.m), w, 1, w in entered, step.kraft_after
                )
                for w, step in zip(added, scanned)
            ],
            k0=len(added),
            nontrivial=[w for w in added if w in entered],
        )
        final = wedge(first_words, added)
    else:
        final, trace = sorted(second_words), MergeTrace(path="swapped", k0=0)
    return [(w, length_of[w]) for w in final], trace, report


@dataclass
class _JointTables:
    """Forward DP over both stopping sets at once.

    Paths are "clean" until they reach a member of either set.  The Kraft
    sums of the first set, the second set and their full merge (the stops
    of the clean paths, which are the paths alive in the union of both
    sets) are exact.  The cap masses are what `choose_cap` sizes the cap
    by.  `classes` lists (form, profile, clean count) for every profile in
    the second set but not the first that clean paths reach: the words that
    would join the merged set if that profile's class were added, sorted
    by form, that is by decreasing word probability.  `classify` is the
    node classifier the DP ran on; the later sweeps of the same build reuse
    it, and with it its level table.
    """

    kraft_first: Fraction
    kraft_second: Fraction
    kraft_merged: Fraction
    cap_mass_first: float
    cap_mass_second: float
    classes: list[tuple[float, Profile, int]]
    classify: NodeClassifier = field(compare=False, repr=False)


class WordLimitError(ResourceError):
    """A codec-grade build's word set has more than `limit` words.

    The joint DP raises it once the merged set's stops so far outnumber
    `limit`, at lattice `level` of cap `cap`.  Every final word set stops
    each path at or after its first node in the first set, the second set
    or the cap, so it has at least as many words as the merged set, and
    more at any larger cap.
    """

    def __init__(self, limit: int, level: int, cap: int) -> None:
        super().__init__(
            f"more than {limit} words: the merged word set passes the "
            f"enumeration limit at level {level} of cap {cap}"
        )
        self.limit = limit
        self.level = level
        self.cap = cap


def _joint_dp(
    model: SourceModel,
    classify: NodeClassifier,
    cap: int,
    node_limit: int,
    enum_limit: int | None = None,
) -> _JointTables:
    """The joint DP of the low and high rules of `classify` under the hard
    cap `cap`.  With an `enum_limit`, raises WordLimitError after the first
    level where the merged set has more stops than that.

    One body over `word_sets.level_views`: paths are routed a level at a
    time with 0/1 masks of the routing flags, and only nodes of either set
    are handled one by one, for the Kraft counts and the classes.  The cap
    masses read the real flags of the cap level, in visiting order.
    """
    # {codeword length: word count} of each word set, for its Kraft sum
    acc_first: Counter[int] = Counter()
    acc_second: Counter[int] = Counter()
    acc_merged: Counter[int] = Counter()
    merged = 0  # words of the merged set so far
    cap_mass_first = 0.0
    cap_mass_second = 0.0
    classes: list[tuple[float, Profile, int]] = []

    # states: paths that have hit neither set, only the first, only the second
    walk = level_views(
        model, classify, 3, cap, node_limit, "joint lattice DP"
    )
    for view in walk:
        clean, only_first, only_second = view.states
        (cc, mc), (c1, m1), (c2, m2) = clean, only_first, only_second
        ids, flags = view.ids, view.flags
        route = view.routing(cap)
        mask = route.translate
        view.next += [
            flat_carry(clean, mask(IN_NEITHER)),
            flat_carry(only_first, mask(NOT_SECOND), clean, mask(ONLY_FIRST)),
            flat_carry(
                only_second, mask(NOT_FIRST), clean, mask(ONLY_SECOND)
            ),
        ]
        for i in compress(ids, map(route.__getitem__, ids)):
            flag = route[i]
            c_c, c_1, c_2 = cc[i], c1[i], c2[i]
            k, form = view.node(i)
            if flag & FIRST:
                if c_c:
                    length = code_length_for(form, flag > FIRST)
                    acc_first[length] += c_c
                    acc_merged[length] += c_c
                    merged += c_c
                if c_2:
                    acc_first[code_length_for(form, False)] += c_2
                if not flags[i] & FIRST:  # a node the cap alone stops
                    cap_mass_first += mc[i] + m2[i]
            elif c_c:
                # second-only member: clean paths would stop here if these
                # words were added to the merged set
                acc_merged[code_length_for(form, True)] += c_c
                merged += c_c
                classes.append((form, k, c_c))
            if flag & SECOND and (c_c or c_1):
                acc_second[code_length_for(form, True)] += c_c + c_1
                if not flags[i] & SECOND:
                    cap_mass_second += mc[i] + m1[i]
        if enum_limit is not None and merged > enum_limit:
            raise WordLimitError(enum_limit, view.level, cap)
    classes.sort()
    return _JointTables(
        kraft_first=kraft_of_counts(acc_first, model.arity),
        kraft_second=kraft_of_counts(acc_second, model.arity),
        kraft_merged=kraft_of_counts(acc_merged, model.arity),
        cap_mass_first=cap_mass_first,
        cap_mass_second=cap_mass_second,
        classes=classes,
        classify=classify,
    )


def _knockout_masses(
    model: SourceModel,
    classify: NodeClassifier,
    cap: int,
    targets: set[Profile],
    node_limit: int,
) -> tuple[dict[Profile, int], int]:
    """Kraft mass removed per word when a profile's words join the merged set.

    For a profile k outside the low set, W(k) is the Kraft sum over all
    first-low-set stops of paths continuing from k, at floor lengths.  Adding
    one word ending at k knocks exactly those continuation words out.
    Computed for every target profile at once, with exact integer arithmetic
    scaled by n^E; returns the scaled values of the targets and the scale
    n^E.

    One body for every source, over the int node keys of
    `word_sets.NodeKeys`, where the low set and the cap are one FIRST flag.
    A forward pass collects, level by level, the nodes that paths from the
    targets reach before that flag stops them, each classified once; a
    backward pass gives each of them its stop value when it stops, else the
    sum of its m children's values.  The sums are exact integers, so no
    visiting order changes a value.  Raises ResourceError once the forward
    pass has visited more than `node_limit` nodes.
    """
    n = model.arity
    exp = int(cap * max(model.d)) + 3
    keys = NodeKeys(model.m, cap, classify)
    by_level: dict[int, set[int]] = {}
    for k in targets:
        by_level.setdefault(sum(k), set()).add(keys.key_of(k))
    value: dict[int, int] = {}
    # each node a path runs on from, level by level
    going: list[int] = []
    live: set[int] = set()
    visited = 0
    for level in range(1, cap + 1):
        live |= by_level.pop(level, set())
        if not live and not by_level:
            break
        visited += len(live)
        if visited > node_limit:
            raise node_limit_error("knockout sweep", node_limit, cap)
        reached: set[int] = set()
        for key in live:
            flags, form = keys.node(key)
            if flags & FIRST:
                value[key] = n ** (exp - code_length_for(form, False))
            else:
                going.append(key)
                reached.update(keys.children(key))
        live = reached
    for key in reversed(going):
        value[key] = sum(map(value.__getitem__, keys.children(key)))
    return {k: value[keys.key_of(k)] for k in targets}, n**exp


def _class_scan(
    kraft_first: Fraction,
    kraft_merged: Fraction,
    deltas: dict[Profile, int],
    scale: int,
    classes: list[tuple[float, Profile, int]],
) -> tuple[set[Profile], tuple[Profile, int] | None, Fraction, list[MergeStep]]:
    """Add whole classes until the Kraft sum first reaches 1.

    Classes arrive as (order key, class, word count), in the merge's order,
    by decreasing word probability: (form, profile) for lattice classes,
    (-p, word) for the one-word classes of `merge_to_kraft`, whose class is
    a word (a tuple, like a profile).
    Adding one word of class k changes the Kraft sum by deltas[k] / scale.
    The class where the sum crosses 1 is split exactly: j words of it are
    enough, with j computed in exact rational arithmetic.  Raises
    ValidationError unless adding every class gives `kraft_merged`.
    """
    added_all = sum(count * deltas[k] for _, k, count in classes)
    if kraft_first + Fraction(added_all, scale) != kraft_merged:
        raise ValidationError(
            "merge bookkeeping is inconsistent: adding every class does not "
            "reproduce the merged Kraft sum"
        )
    g = kraft_first
    chosen: set[Profile] = set()
    steps: list[MergeStep] = []
    for _, k, count in classes:
        delta = Fraction(deltas[k], scale)
        g_class = g + count * delta
        if g_class <= 1:
            if delta >= 0:
                raise ValidationError(
                    "Kraft sum crossed 1 on a non-decreasing step"
                )
            j = math.ceil((g - 1) / (-delta))
            g_final = g + j * delta
            steps.append(MergeStep(k, None, j, True, g_final))
            return chosen, (k, j), g_final, steps
        g = g_class
        chosen.add(k)
        steps.append(MergeStep(k, None, count, True, g))
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
    enum_limit: int | None = None,
) -> tuple[int, ProfileSet, ProfileSet, _JointTables, list[tuple[int, float]]]:
    """Pick the hard stopping cap by doubling until the cap mass is small.

    Starts at T^2 and doubles until the probability of a word being stopped
    by the cap rather than a threshold set drops to T^-2, or the budget
    ceil(8 T^3 ln T) is reached.  Every trial runs on one node classifier,
    built before the first, since the threshold rules do not depend on the
    cap, so each lattice level is classified once however often the cap
    doubles.  Returns the stopping sets at the chosen cap and the lattice
    tables of the last trial, so the caller need not recompute them.

    With an `enum_limit` (codec-grade builds), a trial raises WordLimitError
    as soon as its merged word set has more words than that: the word set
    at this cap, or at any larger one, could not be enumerated either.
    """
    cap = T * T
    set_low, set_high = build_threshold_sets(model, T, cap, theta)
    classify = NodeClassifier(set_low.rule, set_high.rule)
    hard = max(cap, math.ceil(8 * T**3 * math.log(T)) if T >= 2 else 0)
    target = 1.0 / cap
    history: list[tuple[int, float]] = []
    while True:
        if math.comb(cap + model.m, model.m) > node_limit:
            raise ResourceError(
                f"cap {cap} needs more than {node_limit} lattice nodes"
            )
        tables = _joint_dp(model, classify, cap, node_limit, enum_limit)
        worst = max(tables.cap_mass_first, tables.cap_mass_second)
        history.append((cap, worst))
        if worst <= target or cap >= hard:
            set_low, set_high = build_threshold_sets(model, T, cap, theta)
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


def _fresh_book(
    model: SourceModel, assignment: str, provenance: dict, columns: list
) -> tuple[CodeBook, "analysis.CodeMetrics"]:
    """Codewords, book, metrics and validation: the tail of every build.

    `columns` holds the words in lexicographic order, their probabilities,
    linear forms and construction lengths.  The tail empties it, so the
    walk's lists are gone before validation builds its word keys; the
    metrics are `analysis.word_metrics` over them, equal to
    `code_metrics(book)`.  The book's columns are read off the entries
    `assign_codewords` returns.
    """
    words, probs, forms, lengths = columns
    columns.clear()
    # `code_lengths` lines up with the words, in lexicographic order
    code_lengths: list[int] = []
    entries = assign_codewords(
        model, list(zip(words, probs, lengths)), assignment, code_lengths
    )
    book = CodeBook(
        model,
        "vv",
        map(attrgetter("word"), entries),
        map(attrgetter("codeword"), entries),
        map(attrgetter("probability"), entries),
        dict(provenance),
    )
    metrics = analysis.word_metrics(
        model,
        probs,
        list(map(len, words)),
        code_lengths,
        forms,
        book.kraft_exact(),
    )
    del words, probs, forms, lengths, code_lengths, entries
    validate_codebook(book)
    return book, metrics


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
    # a codec-grade word set past the limit is rejected in the joint DP
    limit = enum_limit if grade == "codec" else None
    if cap == "auto":
        cap_val, _, _, tables, history = choose_cap(
            model, T, theta, node_limit, limit
        )
    else:
        cap_val = cap
        set_low, set_high = build_threshold_sets(model, T, cap_val, theta)
        classify = NodeClassifier(set_low.rule, set_high.rule)
        tables = _joint_dp(model, classify, cap_val, node_limit, limit)
        history = [
            (cap_val, max(tables.cap_mass_first, tables.cap_mass_second))
        ]

    classify = tables.classify
    kraft_first = tables.kraft_first
    kraft_second = tables.kraft_second
    steps: list[MergeStep] = []
    chosen: set[Profile] = set()
    boundary: tuple[Profile, int] | None = None

    path = _merge_path(kraft_first, tables.kraft_merged, kraft_second)
    if path == "base":
        expected_kraft = kraft_first
    elif path == "extended":
        classes = tables.classes
        targets = {k for _, k, _ in classes}
        knockouts, scale = _knockout_masses(
            model, classify, cap_val, targets, node_limit
        )
        # one word of class k adds n^-length and knocks out W(k), both
        # scaled by `scale`, a power of n at least n^length
        deltas = {
            k: scale // n ** code_length_for(form, True) - knockouts[k]
            for form, k, _ in classes
        }
        chosen, boundary, expected_kraft, steps = _class_scan(
            kraft_first, tables.kraft_merged, deltas, scale, classes
        )
    else:
        # the high set stops every path, and every stop is clean
        classify = classify.second_as_both()
        expected_kraft = kraft_second

    final = lattice_metrics(
        model, classify, cap_val, node_limit, chosen, boundary
    )
    stop_rows, kraft_final = _final_classes(final, n)
    if kraft_final != expected_kraft:
        raise ValidationError(
            "final word set Kraft sum disagrees with the merge accounting"
        )
    if abs(final.total_prob - 1.0) > FINAL_MASS_TOL:
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
        "kraft_merged": None if path == "base" else str(tables.kraft_merged),
        "kraft_final": str(kraft_final),
        "classes_added": len(chosen) + (1 if boundary else 0),
        "boundary_profile": list(boundary[0]) if boundary else None,
        "boundary_words": boundary[1] if boundary else None,
        "cap_history": [[c, mass] for c, mass in history],
    }

    book = None
    book_metrics = None
    if final.word_count <= enum_limit:
        probs: list[float] = []
        items = enumerate_words(
            model, classify, cap_val, enum_limit, chosen, boundary, probs
        )
        if len(items) != final.word_count:
            raise ValidationError(
                "enumerated word count disagrees with the lattice DP"
            )
        keys = list(map(itemgetter(1, 2), items))  # (form, extra digit)
        # one length per distinct key, not one per word
        length_of = {key: code_length_for(*key) for key in set(keys)}
        # the words come in lexicographic order, with their probabilities
        # and forms
        columns = [
            list(map(itemgetter(0), items)),
            probs,
            list(map(itemgetter(1), items)),
            list(map(length_of.__getitem__, keys)),
        ]
        del items, probs, keys
        book, book_metrics = _fresh_book(
            model, assignment, provenance, columns
        )

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
    if not all(words):
        raise ValidationError(f"the {what} word list contains an empty word")
    if not _symbols_in_range(words, model.m):
        raise ValidationError(
            f"the {what} word list uses symbols outside the alphabet"
        )
    for word in words:
        if not isinstance(word, tuple):
            raise ValidationError(f"the {what} word {word!r} is not a tuple")
    _assert_prefix_free(words, f"{what} word")
    defect = completeness_defect(model, words)
    if defect > COMPLETENESS_TOL:
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
    words = list(map(itemgetter(0), final_pairs))
    lengths = list(map(itemgetter(1), final_pairs))
    probs = [word_probability(model, w) for w in words]
    forms = [linear_form(model, profile_of(w, model.m)) for w in words]
    defect = abs(1.0 - math.fsum(probs))
    if defect > COMPLETENESS_TOL:
        raise ValidationError(
            f"merged word set lost completeness: defect {defect!r}"
        )

    kraft_exact = kraft_sum(lengths, model.arity)
    dp_metrics = analysis.metrics_from_classes(
        model,
        list(zip(probs, map(len, words), lengths, forms)),
        kraft_exact=kraft_exact,
        word_count=len(words),
    )

    provenance = {
        "mode": "explicit",
        "path": trace.path,
        "grade": grade,
        "assignment": assignment,
        "word_count": len(words),
        **{key: None if v is None else str(v) for key, v in report.items()},
        "kraft_final": str(kraft_exact),
        "k0": trace.k0,
        "nontrivial_words": [
            model.word_to_text(w) for w in trace.nontrivial
        ],
    }

    columns = [words, probs, forms, lengths]
    del final_pairs, words, probs, forms, lengths
    book, book_metrics = _fresh_book(model, assignment, provenance, columns)

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

    With explicit word lists the merge takes one word per class and the
    result always carries a code book; T, cap and theta do not apply, and
    setting any of them raises InputError.  Otherwise the stopping sets
    come from the near-integer thresholds at parameter T ("auto" picks it
    from the source's exponents: at grade "codec" the largest candidate
    whose word set still enumerates, at grade "metrics" the first candidate
    above 4, where the two threshold sets cannot overlap).  The cap
    ("auto": doubling until the cap mass falls below T^-2) bounds word
    length in every case.  T and cap are "auto" or an int (not a bool);
    anything else raises InputError.

    At grade "codec" a word set of more than `enum_limit` words is rejected
    inside the joint DP, as soon as the merged set passes the limit, so an
    oversize auto candidate costs a few lattice levels, not a full build.
    Each rejected candidate is logged at DEBUG on the
    `wordcodes.vv_construct` logger, with its reason; nothing of it enters
    `provenance`.

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
        given = {"T": T != "auto", "cap": cap != "auto", "theta": theta is not None}
        ignored = [name for name in given if given[name]]
        if ignored:
            raise InputError(f"explicit word lists take no {', '.join(ignored)}")
        return _explicit(
            model,
            list(first_words),
            list(second_words or []),
            grade,
            assignment,
            enum_limit,
        )

    for name, value in (("T", T), ("cap", cap)):
        if value != "auto" and (
            not isinstance(value, int) or isinstance(value, bool)
        ):
            raise InputError(f"{name} must be 'auto' or an int, got {value!r}")

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
            except WordLimitError as exc:
                reason, why = f"more than {exc.limit} words", str(exc)
            except ResourceError as exc:
                reason = why = str(exc)
            else:
                if result.book is not None:
                    result.provenance["t_selection"] = info
                    return result
                count = result.provenance["word_count"]
                reason = f"{count} words"
                why = f"{reason}, above the enumeration limit {enum_limit}"
            failures.append(f"T={choice}: {reason}")
            log.debug("auto T: rejected T=%d: %s", choice, why)
        raise ResourceError(
            "no candidate threshold parameter yields an enumerable word "
            "set: " + "; ".join(failures)
        )

    choice = T
    try:
        result = build(choice)
    except WordLimitError as exc:
        raise ResourceError(f"the word set at T={choice} has {exc}") from exc
    if grade == "codec" and result.book is None:
        raise ResourceError(
            f"the word set at T={choice} has "
            f"{result.provenance['word_count']} words, above the "
            f"enumeration limit {enum_limit}"
        )
    return result
