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
from dataclasses import dataclass, field
from typing import Callable

from .errors import InputError, ResourceError, ValidationError
from .source_model import (
    Profile,
    SourceModel,
    Word,
    linear_form,
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

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class EmptyRule(Rule):
    """No profile is a member; the cap alone stops every word."""

    def member(self, profile: Profile) -> bool:
        return False

    def describe(self) -> str:
        return "empty"


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

    def describe(self) -> str:
        return f"frac<= {self.theta:.6g}"


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

    def describe(self) -> str:
        return f"1-frac<= {self.theta:.6g}"


@dataclass(frozen=True)
class ExplicitProfilesRule(Rule):
    """Membership by explicit list of profiles."""

    profiles: frozenset[Profile]

    def member(self, profile: Profile) -> bool:
        return profile in self.profiles

    def describe(self) -> str:
        return f"explicit({len(self.profiles)} profiles)"


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

    def describe(self) -> str:
        return f"form in ({self.lo:.6g}, {self.hi:.6g}]"


@dataclass(frozen=True)
class UnionRule(Rule):
    rules: tuple[Rule, ...]

    def member(self, profile: Profile) -> bool:
        return any(r.member(profile) for r in self.rules)

    def describe(self) -> str:
        return " | ".join(r.describe() for r in self.rules)


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

    def describe(self) -> str:
        return f"{self.rule.describe()} | cap={self.cap}"


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

    Processes the lattice level by level: a node's incoming paths come from
    its m predecessors, member nodes absorb them as stopped words, the rest
    stay alive.  Raises ResourceError when the alive front exceeds
    `node_limit` visited nodes in total.
    """
    m = model.m
    origin: Profile = (0,) * m
    if pset.member(origin):
        raise ValidationError(
            "the empty profile is a member; the empty word would be a code word"
        )
    probs = model.probs
    alive_count: dict[Profile, int] = {origin: 1}
    alive_mass: dict[Profile, float] = {origin: 1.0}
    stops: dict[Profile, tuple[int, float]] = {}
    cap_mass = 0.0
    visited = 0
    level = 0
    while alive_count:
        if level >= pset.cap:
            raise ValidationError(
                "paths alive beyond the cap; the cap must stop every profile"
            )
        next_count: dict[Profile, int] = {}
        next_mass: dict[Profile, float] = {}
        for k, c in alive_count.items():
            mass = alive_mass[k]
            for i in range(m):
                child = k[:i] + (k[i] + 1,) + k[i + 1 :]
                if child in next_count:
                    next_count[child] += c
                    next_mass[child] += mass * probs[i]
                else:
                    next_count[child] = c
                    next_mass[child] = mass * probs[i]
        visited += len(next_count)
        if visited > node_limit:
            raise ResourceError(
                f"lattice DP visited more than {node_limit} nodes "
                f"(cap={pset.cap}); raise node_limit or lower the cap"
            )
        level += 1
        alive_count = {}
        alive_mass = {}
        for k, c in next_count.items():
            if pset.member(k):
                old_c, old_m = stops.get(k, (0, 0.0))
                stops[k] = (old_c + c, old_m + next_mass[k])
                if sum(k) == pset.cap and not pset.rule.member(k):
                    cap_mass += next_mass[k]
            else:
                alive_count[k] = c
                alive_mass[k] = next_mass[k]
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


@dataclass
class WordSet:
    """A word set induced by a profile set, with DP accounting attached.

    `words` holds the explicit word list in lexicographic order when the set
    is small enough to enumerate, else None (metrics grade).
    """

    model: SourceModel
    pset: ProfileSet
    table: LatticeTable
    words: list[Word] | None = None

    @property
    def grade(self) -> str:
        return "explicit" if self.words is not None else "metrics"

    @property
    def word_count(self) -> int:
        return self.table.word_count

    @property
    def total_prob(self) -> float:
        return self.table.total_prob

    @property
    def avg_length(self) -> float:
        return self.table.avg_length

    @property
    def max_length(self) -> int:
        return self.table.max_length


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


def build_word_set(
    model: SourceModel,
    pset: ProfileSet,
    enum_limit: int = DEFAULT_ENUM_LIMIT,
    node_limit: int = DEFAULT_NODE_LIMIT,
    enumerate: bool | None = None,
) -> WordSet:
    """Construct the word set for a profile set.

    Always runs the lattice DP; additionally enumerates the words when their
    exact count fits under `enum_limit` (or as forced by `enumerate`).
    """
    table = lattice_metrics(model, pset, node_limit=node_limit)
    words: list[Word] | None = None
    want = table.word_count <= enum_limit if enumerate is None else enumerate
    if want:
        words = enumerate_words(model, pset, limit=enum_limit)
        if len(words) != table.word_count:
            raise ValidationError(
                f"enumeration found {len(words)} words, DP counted "
                f"{table.word_count}"
            )
    return WordSet(model=model, pset=pset, table=table, words=words)


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
