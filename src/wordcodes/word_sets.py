"""Word sets defined by stopping rules on the profile lattice.

A profile set picks out symbol-count vectors; the word set it induces contains
every word whose FIRST prefix with a member profile is the word itself.  Words
therefore depend on the path taken through the lattice, not only on the final
profile, and the enumeration-free accounting below is a dynamic program over
lattice nodes that tracks, per profile, how many paths are still alive and how
many stop there.

Every profile set carries a hard cap: profiles of that total length are always
members, which forces every infinite symbol stream to stop and makes the word
set complete (probabilities sum to 1).
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
    """Membership rule for profiles; subclasses must be pure and cheap."""

    def member(self, profile: Profile) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class EmptyRule(Rule):
    """No profile is a member; the cap alone stops every word."""

    def member(self, profile: Profile) -> bool:
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
        f = math.fsum(k * di for k, di in zip(profile, self.d))
        return self.lo + self.tol < f <= self.hi + self.tol


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

    def member(self, profile: Profile) -> bool:
        if len(profile) != self.m:
            raise InputError(
                f"profile has {len(profile)} coordinates, expected {self.m}"
            )
        return sum(profile) == self.cap or self.rule.member(profile)


NodeClassifier = Callable[[Profile], tuple[float, bool, bool]]


def threshold_classifier(
    set_low: ProfileSet, set_high: ProfileSet
) -> NodeClassifier:
    """One classification per lattice node: profile -> (form, low, high).

    `form` is exactly `linear_form` of the profile, and `low` and `high` are
    what the two sets' threshold rules answer for a nonzero profile, through
    the rules' own `admits`.  The hard cap is left to the lattice sweeps,
    which know each node's level.  For two symbols the form is one IEEE
    addition, which is correctly rounded just as `math.fsum` is, so it gives
    the same float; three or more symbols keep `fsum`.

    Going through `admits` keeps the threshold test in one place, at a
    cost: inlining it instead made the benchmark's lattice workload about
    13 % faster (2-core x86-64, Python 3.11).
    """
    lo, hi = set_low.rule, set_high.rule
    if not (
        isinstance(lo, ThresholdLowRule)
        and isinstance(hi, ThresholdHighRule)
        and lo.d == hi.d
    ):
        raise InputError(
            "the node classifier needs a low and a high threshold rule "
            "over one source"
        )
    lo_admits, hi_admits = lo.admits, hi.admits
    fsum = math.fsum
    d = lo.d
    d0, d1 = d[0], d[1]
    two = len(d) == 2

    def classify(k: Profile) -> tuple[float, bool, bool]:
        if two:
            form = k[0] * d0 + k[1] * d1
        else:
            form = fsum(c * di for c, di in zip(k, d))
        return form, lo_admits(form), hi_admits(form)

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


@dataclass
class LatticeTable:
    """Per-profile stopping counts and probability masses from the DP.

    `stops` maps each stopping profile to (number of words, probability mass).
    Counts are exact big integers; masses are binary64.  `cap_mass` is the
    mass of words stopped by the hard cap alone (their profiles are members
    only through the cap), the quantity used to size the cap adaptively.
    """

    stops: dict[Profile, tuple[int, float]]
    word_count: int
    total_prob: float
    avg_length: float
    max_length: int
    cap_mass: float
    visited_nodes: int


def lattice_metrics(
    model: SourceModel,
    pset: ProfileSet,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> LatticeTable:
    """Run the stopping DP for one profile set.

    Member nodes absorb the paths reaching them as stopped words; the rest
    stay alive.  Raises ResourceError when the walk visits more than
    `node_limit` nodes in total.
    """
    origin: Profile = (0,) * model.m
    if pset.member(origin):
        raise ValidationError(
            "the empty profile is a member; the empty word would be a code word"
        )
    stops: dict[Profile, tuple[int, float]] = {}
    cap_mass = 0.0
    visited = 0
    walk = lattice_levels(
        ({origin: (1, 1.0)},), model.probs, pset.cap, node_limit, "lattice DP"
    )
    for level, (incoming,), keys, (alive,) in walk:
        visited += len(keys)
        for k in keys:
            if pset.member(k):
                stops[k] = incoming[k]
                if level == pset.cap and not pset.rule.member(k):
                    cap_mass += incoming[k][1]
            else:
                alive[k] = incoming[k]
    word_count = sum(c for c, _ in stops.values())
    total_prob = math.fsum(mass for _, mass in stops.values())
    avg_length = math.fsum(sum(k) * mass for k, (_, mass) in stops.items())
    max_length = max((sum(k) for k, (c, _) in stops.items() if c), default=0)
    return LatticeTable(
        stops=stops,
        word_count=word_count,
        total_prob=total_prob,
        avg_length=avg_length,
        max_length=max_length,
        cap_mass=cap_mass,
        visited_nodes=visited,
    )


def enumerate_words(
    model: SourceModel, pset: ProfileSet, limit: int
) -> list[Word]:
    """Depth-first enumeration of the word set, in lexicographic order.

    Walks the symbol tree, emitting a word at the first member profile on
    each branch.  Iterative so the cap, which bounds the depth, can exceed
    the interpreter recursion limit.
    """
    m = model.m
    out: list[Word] = []
    origin: Profile = (0,) * m
    if pset.member(origin):
        raise ValidationError(
            "the empty profile is a member; the empty word would be a code word"
        )
    stack: list[list] = [[origin, (), 1]]
    while stack:
        top = stack[-1]
        k, w, i = top
        if i > m:
            stack.pop()
            continue
        top[2] = i + 1
        child = k[: i - 1] + (k[i - 1] + 1,) + k[i:]
        cw = w + (i,)
        if pset.member(child):
            out.append(cw)
            if len(out) > limit:
                raise ResourceError(
                    f"word set exceeds the enumeration limit of {limit}"
                )
        else:
            if len(cw) >= pset.cap:
                raise ValidationError(
                    "paths alive beyond the cap; the cap must stop every profile"
                )
            stack.append([child, cw, 1])
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
