"""Word sets defined by stopping rules on the profile lattice.

A profile set picks out symbol-count vectors; the word set it induces contains
every word whose FIRST prefix with a member profile is the word itself.  Words
therefore depend on the path taken through the lattice, not only on the final
profile, and the enumeration-free accounting below is a dynamic program over
lattice nodes that tracks, per profile, how many paths are still alive and how
many stop there.

Every walk carries a hard cap: profiles of that total length always stop,
which forces every infinite symbol stream to stop and makes the word set
complete (probabilities sum to 1).

Both code families walk the lattice the same way.  `node_classifier` turns
two rules into one classification per node: its linear form and whether the
first and the second set hold it.  `lattice_metrics` (the forward stopping
DP) and `enumerate_words` (the word-by-word enumerator) are the only walks;
the first set stops every path, and a path that reaches the second set stops
there only where the caller says so (the classes a Kraft merge takes) and
otherwise crosses it and runs on.  VF codes pass an empty second set.
`ProfileSet` keeps profile membership as a plain predicate, for checks and
tests; no walk calls it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Collection, Iterator, Sequence

from .errors import InputError, ResourceError, ValidationError
from .source_model import (
    Profile,
    SourceModel,
    Word,
    profile_probability,
    word_probability,
)

THRESHOLD_TOL = 1e-12
DEFAULT_ENUM_LIMIT = 10**6
DEFAULT_NODE_LIMIT = 4 * 10**6


def snapped_frac(x: float, tol: float = THRESHOLD_TOL) -> float:
    """Fractional part with values within `tol` of 1 snapped to 0.

    Exact integer values of a linear form often land just below an integer in
    binary64; snapping keeps them on the 'low side' where they belong.
    """
    f = x - math.floor(x)
    return 0.0 if f >= 1.0 - tol else f


class Rule:
    """Membership rule for profiles; subclasses must be pure and cheap.

    Rules that look at a profile only through its linear form also answer
    `admits(form)`, and only those can drive a lattice walk.
    """

    def member(self, profile: Profile) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class EmptyRule(Rule):
    """No profile is a member; the cap alone stops every word."""

    def member(self, profile: Profile) -> bool:
        return False

    def admits(self, form: float) -> bool:
        return False


@dataclass(frozen=True)
class ThresholdLowRule(Rule):
    """Nonzero profiles whose linear form sits just above an integer."""

    d: tuple[float, ...]
    theta: float
    tol: float = THRESHOLD_TOL

    def member(self, profile: Profile) -> bool:
        if not any(profile):
            return False
        return self.admits(math.fsum(k * di for k, di in zip(profile, self.d)))

    def admits(self, form: float) -> bool:
        """Membership of a nonzero profile whose linear form is `form`."""
        return snapped_frac(form, self.tol) <= self.theta + self.tol


@dataclass(frozen=True)
class ThresholdHighRule(Rule):
    """Nonzero profiles whose linear form sits just below an integer."""

    d: tuple[float, ...]
    theta: float
    tol: float = THRESHOLD_TOL

    def member(self, profile: Profile) -> bool:
        if not any(profile):
            return False
        return self.admits(math.fsum(k * di for k, di in zip(profile, self.d)))

    def admits(self, form: float) -> bool:
        """Membership of a nonzero profile whose linear form is `form`."""
        return 1.0 - snapped_frac(form, self.tol) <= self.theta + self.tol


@dataclass(frozen=True)
class ExplicitProfilesRule(Rule):
    """Membership by explicit list of profiles."""

    profiles: frozenset[Profile]

    def member(self, profile: Profile) -> bool:
        return profile in self.profiles


@dataclass(frozen=True)
class WindowRule(Rule):
    """Profiles whose linear form lies in the half-open window (lo, hi].

    Used by the fixed-output-length construction: lo = L - max(d), hi = L.
    A parse can never jump over the window because one symbol advances the
    form by at most max(d), so only the left edge decides stopping.
    """

    d: tuple[float, ...]
    lo: float
    hi: float
    tol: float = THRESHOLD_TOL

    def member(self, profile: Profile) -> bool:
        return self.admits(math.fsum(k * di for k, di in zip(profile, self.d)))

    def admits(self, form: float) -> bool:
        """Membership of a profile whose linear form is `form`."""
        return self.lo + self.tol < form <= self.hi + self.tol


@dataclass(frozen=True)
class UnionRule(Rule):
    rules: tuple[Rule, ...]

    def member(self, profile: Profile) -> bool:
        return any(r.member(profile) for r in self.rules)


@dataclass(frozen=True)
class ProfileSet:
    """A membership rule plus a hard cap at which every profile is a member."""

    m: int
    cap: int
    rule: Rule

    def __post_init__(self) -> None:
        if self.m < 2:
            raise InputError("profile sets need at least 2 symbol coordinates")
        if self.cap < 1:
            raise InputError(f"cap must be >= 1, got {self.cap}")
        if self.rule.member((0,) * self.m):
            raise ValidationError(
                "the empty profile is a member; the empty word would be a "
                "code word"
            )

    def member(self, profile: Profile) -> bool:
        if len(profile) != self.m:
            raise InputError(
                f"profile has {len(profile)} coordinates, expected {self.m}"
            )
        return sum(profile) == self.cap or self.rule.member(profile)


NodeClassifier = Callable[[Profile], tuple[float, bool, bool]]


def node_classifier(first_rule: Rule, second_rule: Rule) -> NodeClassifier:
    """One classification per lattice node: profile -> (form, first, second).

    `form` is exactly `linear_form` of the profile, and `first` and `second`
    are what the two rules' `admits` answer for it; both rules must decide
    by the linear form alone, over one source (`EmptyRule` fits any).  The
    walks never classify the empty profile, and they apply the hard cap
    themselves, since they know each node's level.  For two symbols the
    form is one IEEE addition, which is correctly rounded just as
    `math.fsum` is, so it gives the same float; three or more symbols keep
    `fsum`.

    Going through `admits` keeps each rule's test in one place, at a cost:
    inlining the threshold tests instead made the benchmark's lattice
    workload about 13 % faster (2-core x86-64, Python 3.11).
    """
    rules = (first_rule, second_rule)
    sources = {getattr(rule, "d", None) for rule in rules} - {None}
    if len(sources) != 1 or not all(hasattr(rule, "admits") for rule in rules):
        raise InputError(
            "the node classifier needs two rules that decide by the linear "
            "form of one source"
        )
    (d,) = sources
    first_admits, second_admits = first_rule.admits, second_rule.admits
    fsum = math.fsum
    d0, d1 = d[0], d[1]
    two = len(d) == 2

    def classify(k: Profile) -> tuple[float, bool, bool]:
        if two:
            form = k[0] * d0 + k[1] * d1
        else:
            form = fsum(c * di for c, di in zip(k, d))
        return form, first_admits(form), second_admits(form)

    return classify


Front = dict[Profile, tuple[int, float]]


def _push(src: Front, probs: Sequence[float]) -> Front:
    """Extend every alive (count, mass) entry by each symbol, one level on."""
    dst: Front = {}
    for k, (c, mass) in src.items():
        for i, p in enumerate(probs):
            child = k[:i] + (k[i] + 1,) + k[i + 1 :]
            if child in dst:
                oc, om = dst[child]
                dst[child] = (oc + c, om + mass * p)
            else:
                dst[child] = (c, mass * p)
    return dst


def lattice_levels(
    fronts: tuple[Front, ...],
    probs: Sequence[float],
    cap: int,
    node_limit: int,
    what: str,
) -> Iterator[tuple[int, list[Front], Collection[Profile], tuple[Front, ...]]]:
    """The level-by-level forward walk that every stopping DP runs on.

    `fronts` hold the alive paths at the origin, {profile: (count, mass)},
    one front per path state.  Each level pushes every front one symbol on
    and yields (level, incoming fronts, keys, next fronts): `keys` holds
    every profile an incoming front reaches, and the caller routes each of
    them, stopping its paths or filing them into the next fronts, which
    start empty.  The walk ends once every front is empty.

    A lone front is its own key set, in push order; several fronts are
    keyed by `set(a) | set(b) | ...`.  The visiting order, and with it every
    float sum the DPs make, is therefore fixed.  Raises ValidationError when
    paths are alive at the cap and ResourceError once more than
    `node_limit` nodes have been visited; `what` names the DP in both.
    """
    visited = 0
    level = 0
    while any(fronts):
        if level >= cap:
            raise ValidationError(
                f"{what}: paths alive beyond the cap; the cap must stop "
                "every profile"
            )
        incoming = [_push(front, probs) for front in fronts]
        level += 1
        keys: Collection[Profile] = incoming[0]
        if len(incoming) > 1:
            keys = set(keys)
            for front in incoming[1:]:
                keys = keys | set(front)
        visited += len(keys)
        if visited > node_limit:
            raise ResourceError(
                f"{what} visited more than {node_limit} nodes (cap={cap}); "
                "raise node_limit or lower the cap"
            )
        fronts = tuple({} for _ in fronts)
        yield level, incoming, keys, fronts


Stop = tuple[int, float, int, float, float, bool]


@dataclass
class LatticeTable:
    """Per-profile stopping counts and probability masses from the DP.

    `stops` maps each stopping profile to (clean count, clean mass, crossed
    count, crossed mass, form, second): crossed paths reached the second
    set before they stopped, clean ones did not, and `second` says whether
    the profile is in the second set or at the cap.  Counts are exact big
    integers; masses are binary64.  `cap_mass` is the mass of words stopped
    by the hard cap alone (their profiles are not in the first set), the
    quantity used to size the cap adaptively.
    """

    stops: dict[Profile, Stop]
    word_count: int
    total_prob: float
    cap_mass: float
    visited_nodes: int


def lattice_metrics(
    model: SourceModel,
    classify: NodeClassifier,
    cap: int,
    node_limit: int = DEFAULT_NODE_LIMIT,
    taken: Collection[Profile] = (),
    boundary: tuple[Profile, int] | None = None,
) -> LatticeTable:
    """The forward stopping DP: every stop of the word set, by profile.

    A node in the first set, or at the cap, stops every path reaching it.  A
    clean path reaching a node of the second set stops there only if the
    node is `taken`, or is the `boundary` profile (profile, j), where its
    first j words stop; every other such path crosses and runs on.  Raises
    ResourceError when the walk visits more than `node_limit` nodes.
    """
    boundary_profile, boundary_words = boundary if boundary else (None, 0)
    stops: dict[Profile, Stop] = {}
    cap_mass = 0.0
    visited = 0
    walk = lattice_levels(
        ({(0,) * model.m: (1, 1.0)}, {}), model.probs, cap, node_limit,
        "lattice DP",
    )
    for level, (in_clean, in_crossed), keys, (clean, crossed) in walk:
        visited += len(keys)
        at_cap = level == cap
        for k in keys:
            c_c, m_c = in_clean.get(k, (0, 0.0))
            c_x, m_x = in_crossed.get(k, (0, 0.0))
            form, first, second = classify(k)
            second = second or at_cap
            if first or at_cap:
                stops[k] = (c_c, m_c, c_x, m_x, form, second)
                if not first:
                    cap_mass += m_c + m_x
                continue
            if c_x:
                crossed[k] = (c_x, m_x)
            if not c_c:
                continue
            if not second:
                clean[k] = (c_c, m_c)
                continue
            if k in taken:
                stops[k] = (c_c, m_c, 0, 0.0, form, True)
                continue
            if k == boundary_profile:
                if c_c < boundary_words:
                    raise ValidationError(
                        "boundary class smaller than its split"
                    )
                stop_m = boundary_words * profile_probability(model, k)
                stops[k] = (boundary_words, stop_m, 0, 0.0, form, True)
                c_c -= boundary_words
                m_c -= stop_m
                if not c_c:
                    continue
            oc, om = crossed.get(k, (0, 0.0))
            crossed[k] = (oc + c_c, om + m_c)
    return LatticeTable(
        stops=stops,
        word_count=sum(s[0] + s[2] for s in stops.values()),
        total_prob=math.fsum(s[1] + s[3] for s in stops.values()),
        cap_mass=cap_mass,
        visited_nodes=visited,
    )


def enumerate_words(
    model: SourceModel,
    classify: NodeClassifier,
    cap: int,
    limit: int,
    taken: Collection[Profile] = (),
    boundary: tuple[Profile, int] | None = None,
) -> list[tuple[Word, float, bool]]:
    """The word set of `lattice_metrics`, word by word, in lexicographic order.

    Returns (word, form, extra_digit) per word: `extra_digit` is set for a
    clean stop in the second set or at the cap, where the construction
    length gets one digit more.  At the boundary profile the
    lexicographically first j clean words stop.  Iterative, so the cap,
    which bounds the depth, can exceed the interpreter recursion limit.
    """
    m = model.m
    boundary_profile, boundary_left = boundary if boundary else (None, 0)
    out: list[tuple[Word, float, bool]] = []
    # frame: [word, profile, crossed, next symbol index]
    stack: list[list] = [[(), (0,) * m, False, 0]]
    while stack:
        frame = stack[-1]
        word, profile, crossed, sym = frame
        if sym >= m:
            stack.pop()
            continue
        frame[3] = sym + 1
        child_word = word + (sym + 1,)  # symbols are 1-based
        child = profile[:sym] + (profile[sym] + 1,) + profile[sym + 1 :]
        at_cap = len(child_word) == cap
        form, first, second = classify(child)
        second = (second or at_cap) and not crossed
        if not (first or at_cap):
            if not second:
                stack.append([child_word, child, crossed, 0])
                continue
            if child not in taken:
                if child != boundary_profile or not boundary_left:
                    stack.append([child_word, child, True, 0])
                    continue
                boundary_left -= 1
        out.append((child_word, form, second))
        if len(out) > limit:
            raise ResourceError(
                f"word set exceeds the enumeration limit of {limit}"
            )
    return out


def is_prefix_free(words: list[Word]) -> bool:
    """True when no word is a proper prefix of another."""
    wordset = set(words)
    if len(wordset) != len(words):
        return False
    for w in words:
        for cut in range(1, len(w)):
            if w[:cut] in wordset:
                return False
    return True


def completeness_defect(model: SourceModel, words: list[Word]) -> float:
    """|1 - sum of word probabilities|; zero for complete prefix-free sets."""
    return abs(1.0 - math.fsum(word_probability(model, w) for w in words))


def wedge(words_a: list[Word], words_b: list[Word]) -> list[Word]:
    """Merge two word sets, dropping words that extend another union word.

    Keeps exactly the union words with no proper nonempty prefix in the
    union.  The result is prefix-free, and complete whenever either input
    was.  Commutative, associative, idempotent; output in lexicographic
    order.
    """
    union = set(words_a) | set(words_b)
    kept = [
        w
        for w in union
        if not any(w[:cut] in union for cut in range(1, len(w)))
    ]
    kept.sort()
    return kept


def sentinel_runs(
    model: SourceModel, count: int, max_len: int
) -> tuple[list[Word], float]:
    """Words with exactly `count` non-sentinel letters, ending with one.

    The sentinel is the model's last symbol; each word is `count` runs of
    sentinels each closed by a non-sentinel letter.  Truncated at `max_len`
    symbols; returns (words, estimated probability mass of the truncated
    tail).  The full family is prefix-free with total probability 1 and
    average length count / (1 - p_sentinel).
    """
    if count < 0:
        raise InputError(f"count must be >= 0, got {count}")
    if count == 0:
        return [()], 0.0
    if max_len < count:
        raise InputError(f"max_len={max_len} cannot fit {count} runs")
    m = model.m
    sentinel = m
    markers = list(range(1, m))
    words: list[Word] = []

    def _runs(left: int, budget: int, prefix: Word) -> None:
        for j in range(budget + 1):
            run = prefix + (sentinel,) * j
            for x in markers:
                w = run + (x,)
                if left == 1:
                    words.append(w)
                else:
                    _runs(left - 1, budget - j, w)

    _runs(count, max_len - count, ())
    words.sort()
    p_s = model.probs[-1]
    tail = 0.0
    term_scale = (1.0 - p_s) ** count
    for r in range(max_len + 1, max_len + 20_000):
        term = math.comb(r - 1, count - 1) * term_scale * p_s ** (r - count)
        tail += term
        if term < 1e-300:
            break
    return words, tail


@dataclass
class CoverageReport:
    """Outcome of sampling last-coordinate shift coverage for a profile set."""

    ok: bool
    checked: int
    T: int
    counterexample: Profile | None = None


def check_shift_coverage(
    model: SourceModel,
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
