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

Both code families walk the lattice the same way.  `NodeClassifier` turns
two rules into one classification per node: its linear form and one byte of
FIRST/SECOND flags, saying whether the first and the second set hold it.
`lattice_metrics` (the forward stopping DP) and `enumerate_words` (the
word-by-word enumerator) are the only walks; the first set stops every path,
and a path that reaches the second set stops there only where the caller
says so (the classes a Kraft merge takes) and otherwise crosses it and runs
on.  VF codes pass an empty second set.  The DP's table is the one
description of a word set: it holds its cap and how many clean words stop
at each such class, and the enumerator lists that table's words, stopping
clean paths by those quotas, and checks its count against the table's.
`ProfileSet` keeps profile membership as a plain predicate, for checks and
tests; no walk calls it.

A `FormRule` decides a profile by its linear form alone, and writes
`member` once over its subclass's `admits(form)`; `ThresholdRule` adds,
for the two threshold rules, that the empty profile is never a member.
Every word set obeys one prefix rule, the neighbour scan of
`codebook._assert_prefix_free`, under which the empty word is a prefix of
every word.

The forward DPs walk level by level, and both lattice drivers yield the
same view of a level (`LevelView`): node ids in visiting order, each path
state's incoming (counts, masses) lists aligned to those ids, one byte of
FIRST/SECOND flags per node, and a node's profile and form on demand.
Two-symbol sources under a `NodeClassifier` take `flat_levels`, where a
node's id is its first count; every other case takes `keyed_levels`, where
it is the node's position in the dict walk's key order.  Both visit the same
nodes in the same order, so `lattice_metrics` (and the joint DP of
`vv_construct`) is written once over the view: it routes a level's paths
with 0/1 masks (`flat_carry`) and handles only stop nodes one by one,
returning its stops as parallel row columns (`LatticeTable`).  For
three symbols `_push` unpacks a profile (a, b, c) and builds its children
from the counts, rather than slicing the tuple; the keys, the order and
every float are those of the slicing code, which four or more symbols keep.

The walks that follow paths rather than levels, the enumerator here and the
knockout sweep of `vv_construct`, share one node key, `NodeKeys`: the
mixed-radix int `sum(k_i * (cap + 1) ** i)` of a profile k, its children
one step each, and a node's (form, flags), with every node at the cap in
both sets.  The enumerator is one depth-first walk for every source over
those keys, and visits only the nodes its words pass through.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from functools import cache, reduce
from itertools import chain, compress, repeat
from operator import add, itemgetter, mul, or_, sub
from typing import Callable, Collection, Iterable, Iterator, Sequence

from .codebook import _assert_prefix_free
from .errors import InputError, ResourceError, ValidationError
from .source_model import (
    Profile,
    SourceModel,
    Word,
    profile_probability,
)

THRESHOLD_TOL = 1e-12
DEFAULT_ENUM_LIMIT = 10**6
DEFAULT_NODE_LIMIT = 4 * 10**6
DEFAULT_T_MAX = 50


def snapped_frac(x: float) -> float:
    """Fractional part with values within THRESHOLD_TOL of 1 snapped to 0.

    Exact integer values of a linear form often land just below an integer in
    binary64; snapping keeps them on the 'low side' where they belong.
    """
    f = x - math.floor(x)
    return 0.0 if f >= 1.0 - THRESHOLD_TOL else f


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
class FormRule(Rule):
    """A rule that decides a profile by its linear form over the costs `d`:
    a subclass answers `admits(form)`, and `member` asks it."""

    d: tuple[float, ...]

    def member(self, profile: Profile) -> bool:
        return self.admits(math.fsum(map(mul, profile, self.d)))


@dataclass(frozen=True)
class ThresholdRule(FormRule):
    """A threshold of width `theta` on the snapped fractional part of the
    form, widened by THRESHOLD_TOL; the empty profile is never a member."""

    theta: float

    def member(self, profile: Profile) -> bool:
        return any(profile) and super().member(profile)


@dataclass(frozen=True)
class ThresholdLowRule(ThresholdRule):
    """Nonzero profiles whose linear form sits just above an integer."""

    def admits(self, form: float) -> bool:
        """Membership of a nonzero profile whose linear form is `form`."""
        return snapped_frac(form) <= self.theta + THRESHOLD_TOL


@dataclass(frozen=True)
class ThresholdHighRule(ThresholdRule):
    """Nonzero profiles whose linear form sits just below an integer."""

    def admits(self, form: float) -> bool:
        """Membership of a nonzero profile whose linear form is `form`."""
        return 1.0 - snapped_frac(form) <= self.theta + THRESHOLD_TOL


@dataclass(frozen=True)
class WindowRule(FormRule):
    """Profiles whose linear form lies in the half-open window (lo, hi].

    Used by the fixed-output-length construction: lo = L - max(d), hi = L.
    A parse can never jump over the window because one symbol advances the
    form by at most max(d), so only the left edge decides stopping.  Both
    edges are shifted up by THRESHOLD_TOL.
    """

    lo: float
    hi: float

    def admits(self, form: float) -> bool:
        """Membership of a profile whose linear form is `form`."""
        return self.lo + THRESHOLD_TOL < form <= self.hi + THRESHOLD_TOL


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


# A node's flags: FIRST when the first rule admits it, SECOND when the
# second does.
FIRST, SECOND = 1, 2


def _mask(*flags: int) -> bytes:
    """A `bytes.translate` table mapping the given flags to 1, others to 0."""
    return bytes(int(i in flags) for i in range(256))


# Masks for the levels of `NodeClassifier.level`: `level.translate(mask)` is
# 1 on the nodes the mask names and 0 elsewhere, so `map(mul, values,
# mask)` keeps their values and zeroes the rest.
IN_NEITHER = _mask(0)
ONLY_FIRST = _mask(FIRST)
ONLY_SECOND = _mask(SECOND)
IN_FIRST = _mask(FIRST, FIRST | SECOND)
NOT_FIRST = _mask(0, SECOND)
NOT_SECOND = _mask(0, FIRST)
_SECOND_AS_BOTH = bytes(3 * (i >> 1) if i < 4 else 0 for i in range(256))


def _flag_function(
    first_rule: Rule, second_rule: Rule
) -> Callable[[float], int]:
    """form -> its flags under the two rules.

    Two threshold rules share the snapped fractional part of the form; the
    tests are `ThresholdLowRule.admits` and `ThresholdHighRule.admits`
    written out on it.  Any other pair asks each rule's `admits`.
    """
    threshold_types = {ThresholdLowRule, ThresholdHighRule}
    if {type(first_rule), type(second_rule)} <= threshold_types:
        floor = math.floor
        one_minus_tol = 1.0 - THRESHOLD_TOL
        bound1 = first_rule.theta + THRESHOLD_TOL
        bound2 = second_rule.theta + THRESHOLD_TOL
        low1 = type(first_rule) is ThresholdLowRule
        low2 = type(second_rule) is ThresholdLowRule

        def flag(form: float) -> int:
            f = form - floor(form)
            if f >= one_minus_tol:
                f = 0.0
            g = 1.0 - f
            return ((f if low1 else g) <= bound1) + 2 * (
                (f if low2 else g) <= bound2
            )

        return flag
    first_admits, second_admits = first_rule.admits, second_rule.admits

    def flag(form: float) -> int:
        return first_admits(form) + 2 * second_admits(form)

    return flag


class NodeClassifier:
    """One classification per lattice node: profile -> (form, flags).

    `form` is exactly `linear_form` of the profile, the `math.fsum` of its
    products k_i * d_i, and `flags` is its FIRST/SECOND byte: FIRST where
    the first rule's `admits` holds, SECOND where the second's does; `flag`
    maps a form to its flags.  Every classifier a walk takes answers in
    this one shape.  The walks never classify the empty profile, and they
    apply the hard cap themselves, since they know each node's level.  Both
    rules must decide by the linear form of one source (`EmptyRule` fits
    any source); raises InputError otherwise.

    For two symbols the classifier also holds a level table: `level(L)` is
    one byte of flags (FIRST, SECOND) per node (a, L - a), indexed by the
    first count a.  Each form there is one IEEE addition, which is
    correctly rounded just as `math.fsum` is, so it gives the same float.
    Each level is classified once, when a walk first asks for it, and kept
    as long as the classifier, so the forward DPs of one build (the cap
    trials, the final DP) read the same table; no table outlives its
    classifier.  The enumerator and the knockout sweep call the classifier
    per node they reach.  At cap 784 the table holds about 0.3 MB.
    """

    def __init__(self, first_rule: Rule, second_rule: Rule) -> None:
        rules = (first_rule, second_rule)
        sources = {getattr(rule, "d", None) for rule in rules} - {None}
        if len(sources) != 1 or not all(
            hasattr(rule, "admits") for rule in rules
        ):
            raise InputError(
                "the node classifier needs two rules that decide by the "
                "linear form of one source"
            )
        (self.d,) = sources
        self.first_rule = first_rule
        self.second_rule = second_rule
        self.flag = _flag_function(first_rule, second_rule)
        self._levels: list[bytes] = []

    def __call__(self, k: Profile) -> tuple[float, int]:
        form = math.fsum(map(mul, k, self.d))
        return form, self.flag(form)

    def level(self, level: int) -> bytes:
        """Flags of the nodes (a, level - a), a = 0..level; two symbols."""
        levels = self._levels
        if len(levels) <= level:
            if len(self.d) != 2:
                raise InputError("level tables are for two-symbol sources")
            d0, d1 = self.d
            flag = self.flag
            for n in range(len(levels), level + 1):
                forms = map(
                    add,
                    map(mul, range(n + 1), repeat(d0)),
                    map(mul, range(n, -1, -1), repeat(d1)),
                )
                levels.append(bytes(map(flag, forms)))
        return levels[level]

    def second_as_both(self) -> NodeClassifier:
        """The classifier with this second rule as both its rules.

        It starts from this classifier's level table, with every level
        classified so far translated rather than classified again.
        """
        both = NodeClassifier(self.second_rule, self.second_rule)
        both._levels = [lv.translate(_SECOND_AS_BOTH) for lv in self._levels]
        return both


Front = dict[Profile, tuple[int, float]]
FlatFront = tuple[list[int], list[float]]


def _push(
    parents: Iterable[tuple[Profile, int, float]], probs: Sequence[float]
) -> Front:
    """Extend every alive (profile, count, mass) parent by each symbol.

    The order contract every push keeps, and every DP over the fronts
    relies on: each parent's children come in symbol order, parents come
    in the order given, `dst` holds its keys in the order they are first
    reached, and a child reached from several parents adds their
    `mass * p` terms left to right in that order.  The cap masses of
    `choose_cap`, and with them `cap_history`, are float sums over these
    fronts, so a push that broke any of this would change a build's
    provenance.

    Three symbols unpack each parent (a, b, c) and build its children
    directly: the same keys, order and sums as slicing, which four or more
    symbols keep.
    """
    dst: Front = {}
    if len(probs) == 3:
        p0, p1, p2 = probs
        get = dst.get
        for (a, b, c), n, mass in parents:
            k = (a + 1, b, c)
            o = get(k)
            if o is None:
                dst[k] = (n, mass * p0)
            else:
                dst[k] = (o[0] + n, o[1] + mass * p0)
            k = (a, b + 1, c)
            o = get(k)
            if o is None:
                dst[k] = (n, mass * p1)
            else:
                dst[k] = (o[0] + n, o[1] + mass * p1)
            k = (a, b, c + 1)
            o = get(k)
            if o is None:
                dst[k] = (n, mass * p2)
            else:
                dst[k] = (o[0] + n, o[1] + mass * p2)
        return dst
    for k, c, mass in parents:
        for i, p in enumerate(probs):
            child = k[:i] + (k[i] + 1,) + k[i + 1 :]
            if child in dst:
                oc, om = dst[child]
                dst[child] = (oc + c, om + mass * p)
            else:
                dst[child] = (c, mass * p)
    return dst


def _flat_push(front: FlatFront, p0: float, p1: float) -> FlatFront:
    """`_push` for two symbols: node a of a level has parents a - 1 and a."""
    counts, masses = front
    return (
        list(map(add, chain((0,), counts), chain(counts, (0,)))),
        list(
            map(
                add,
                map(mul, chain((0.0,), masses), repeat(p0)),
                map(mul, chain(masses, (0.0,)), repeat(p1)),
            )
        ),
    )


def flat_carry(
    front: FlatFront,
    keep: bytes,
    joining: FlatFront | None = None,
    joins: bytes = b"",
) -> FlatFront:
    """The paths of `front` where the mask `keep` is 1, plus those of
    `joining` where `joins` is 1, as the next level's lists of one state.

    A masked-out value becomes 0 or 0.0, and adding 0.0 changes no float,
    so each mass is the same one- or two-term sum a per-node walk makes.
    """
    counts, masses = front
    if joining is None:
        return list(map(mul, counts, keep)), list(map(mul, masses, keep))
    j_counts, j_masses = joining
    return (
        list(map(add, map(mul, counts, keep), map(mul, j_counts, joins))),
        list(map(add, map(mul, masses, keep), map(mul, j_masses, joins))),
    )


@dataclass
class LevelView:
    """One level of a forward walk, as both lattice drivers yield it.

    `ids` lists the nodes some path reaches, in visiting order.  `states`
    holds each path state's incoming (counts, masses) and `flags` each
    node's FIRST/SECOND byte, both indexed by node id, with 0 and 0.0 where
    no path of a state arrives.  `node(i)` gives node i's (profile, form),
    and `id_of(k)` the id of profile k, or None where the level has no
    such node.  The caller appends each state's next (counts, masses),
    indexed the same way, to `next`; the walk carries on from the nonzero
    counts.
    """

    level: int
    ids: Sequence[int]
    states: list[FlatFront]
    flags: bytes
    node: Callable[[int], tuple[Profile, float]]
    id_of: Callable[[Profile], int | None]
    next: list[FlatFront] = field(default_factory=list)

    def routing(self, cap: int) -> bytes:
        """The flags a DP routes paths by: `flags` below the cap, and
        FIRST | SECOND on every node at the cap, where every path stops."""
        if self.level < cap:
            return self.flags
        return bytes((FIRST | SECOND,)) * len(self.flags)


def level_views(
    model: SourceModel,
    classify: NodeClassifier,
    states: int,
    cap: int,
    node_limit: int,
    what: str,
) -> Iterator[LevelView]:
    """The forward walk of `states` path states, one `LevelView` a level.

    Every path starts in the first state, at the origin.  Two-symbol
    sources under a `NodeClassifier` take `flat_levels`, every other case
    `keyed_levels`; both visit the same nodes in the same order, so a DP
    written over the view gives the same counts and floats on either.  The
    walk ends once no path is alive.  Raises InputError for a cap below 1,
    before any walk starts; ValidationError when paths are alive beyond
    the cap; ResourceError once more than `node_limit` nodes have been
    visited.  `what` names the DP in both.
    """
    if cap < 1:
        raise InputError(f"cap must be >= 1, got {cap}")
    flat = model.m == 2 and isinstance(classify, NodeClassifier)
    walk = flat_levels if flat else keyed_levels
    visited = 0
    for view in walk(model, classify, states):
        if view.level > cap:
            raise ValidationError(
                f"{what}: paths alive beyond the cap; the cap must stop "
                "every profile"
            )
        visited += len(view.ids)
        if visited > node_limit:
            raise node_limit_error(what, node_limit, cap)
        yield view


def node_limit_error(what: str, node_limit: int, cap: int) -> ResourceError:
    """The error of a walk `what` that visited more than `node_limit`
    nodes below `cap`."""
    return ResourceError(
        f"{what} visited more than {node_limit} nodes (cap={cap}); "
        "raise node_limit or lower the cap"
    )


def keyed_levels(
    model: SourceModel,
    classify: Callable[[Profile], tuple[float, int]],
    states: int,
) -> Iterator[LevelView]:
    """The walk over dicts of profile tuples, for every other case.

    Each level pushes every state's alive paths one symbol on (`_push`)
    and keys the level by `set(f0) | set(f1) | ...` over the pushed fronts;
    a node's id is its position in that key order.  The next level pushes
    the alive entries of the caller's lists in id order, so each push sees
    its parents in key order.  With the order contract of `_push` (children
    in symbol order per parent, parents in key order, keys in first-seen
    order, masses summed left to right) the visiting order, and with it
    every float sum a DP makes, is fixed.  A state with no paths is
    zero-filled rather than looked up.  The pushed dicts are dropped as
    soon as a level's lists are aligned, so they are gone while the
    caller's DP runs on the level.

    A `NodeClassifier`'s forms are computed a level at a time, the `fsum`
    of each node's products as in the classifier itself, and mapped to
    flags by its `flag`; any other classifier is called once per node and
    answers (form, flags) as a `NodeClassifier` does.
    On 3 000-node levels (x86-64, Python 3.11) a level's forms and flags
    cost about 460 ns a node, a call per node about 840 ns.
    """
    probs = model.probs
    if isinstance(classify, NodeClassifier):
        flag, fsum = classify.flag, math.fsum

        def classified(keys: list[Profile]) -> tuple[list[float], bytes]:
            # each node's form is the fsum of its products, in symbol order
            products = zip(
                *(
                    map(mul, map(itemgetter(j), keys), repeat(dj))
                    for j, dj in enumerate(classify.d)
                )
            )
            forms = list(map(fsum, products))
            return forms, bytes(map(flag, forms))

    else:

        def classified(keys: list[Profile]) -> tuple[list[float], bytes]:
            forms, flags = zip(*map(classify, keys))
            return list(forms), bytes(flags)

    def aligned(front: Front, keys: list[Profile]) -> FlatFront:
        # a pushed front's (counts, masses), looked up in key order
        pairs = list(map(front.get, keys, repeat((0, 0.0))))
        return list(map(itemgetter(0), pairs)), list(map(itemgetter(1), pairs))

    alive: list[Iterable] = [[((0,) * model.m, 1, 1.0)]]
    alive += [() for _ in range(states - 1)]
    level = 0
    while True:
        incoming = [_push(parents, probs) for parents in alive]
        del alive
        if not any(incoming):
            return
        level += 1
        keys = list(reduce(or_, map(set, incoming)))
        zeros = ([0] * len(keys), [0.0] * len(keys))
        columns = [aligned(f, keys) if f else zeros for f in incoming]
        # the pushed dicts go before the caller's DP runs on the level
        del incoming
        forms, flags = classified(keys)
        # the id dict is built on the level's first `id_of`
        index = cache(lambda keys=keys: dict(zip(keys, range(len(keys)))))
        view = LevelView(
            level,
            range(len(keys)),
            columns,
            flags,
            lambda i, keys=keys, forms=forms: (keys[i], forms[i]),
            lambda k, index=index: index().get(k),
        )
        yield view
        alive = [
            compress(zip(keys, counts, masses), counts)
            for counts, masses in view.next
        ]


def _visit_order(orders: list[list[int]], level: int) -> list[int]:
    """The order in which `keyed_levels` visits a level, as first counts.

    `orders` holds each front's profiles one level up, in filing order.  The
    pushes and the key set are rebuilt from real profile tuples exactly as
    `keyed_levels` builds them (children a + 1 then a in first-seen order,
    a dict of the tuples, then `set(f0) | set(f1) | ...`), so the set
    iterates in the same order.
    """
    pushed = []
    for order in orders:
        # children a + 1 then a of each profile, deduplicated on the ints
        firsts = [0] * (2 * len(order))
        firsts[::2] = map(add, order, repeat(1))
        firsts[1::2] = order
        unique = dict.fromkeys(firsts)
        profiles = zip(unique, map(sub, repeat(level), unique))
        pushed.append(dict.fromkeys(profiles))
    return list(map(itemgetter(0), reduce(or_, map(set, pushed))))


def flat_levels(
    model: SourceModel, classify: NodeClassifier, states: int
) -> Iterator[LevelView]:
    """The walk for two symbols under a `NodeClassifier`, on flat lists.

    Node (a, L - a) has id a, and each state's lists hold L + 1 entries,
    so a node's parents one level up are ids a - 1 and a: its mass is
    `m[a - 1] * p0 + m[a] * p1`, the same float `_push` gives, since IEEE
    addition commutes.  Flags come from the classifier's level table, and
    a form is computed only when `node` asks for it.  `ids` replays the
    keyed walk's visiting order (`_visit_order`); only the DPs' running
    sums over the cap level depend on it.
    """
    p0, p1 = model.probs
    d0, d1 = model.d
    fronts: list[FlatFront] = [([1], [1.0])] + [([0], [0.0])] * (states - 1)
    orders: list[list[int]] = [[0]] + [[] for _ in range(states - 1)]
    level = 0
    while any(orders):
        level += 1
        zeros = ([0] * (level + 1), [0.0] * (level + 1))
        incoming = [
            _flat_push(front, p0, p1) if order else zeros
            for front, order in zip(fronts, orders)
        ]
        order = _visit_order(orders, level)

        def node(a: int, level: int = level) -> tuple[Profile, float]:
            return (a, level - a), a * d0 + (level - a) * d1

        def id_of(k: Profile, level: int = level) -> int | None:
            on_level = len(k) == 2 and 0 <= k[0] <= level == k[0] + k[1]
            return k[0] if on_level else None

        view = LevelView(
            level, order, incoming, classify.level(level), node, id_of
        )
        yield view
        fronts = view.next
        orders = [
            list(compress(order, map(counts.__getitem__, order)))
            for counts, _ in fronts
        ]


@dataclass
class LatticeTable:
    """The stops of the forward DP, as parallel row columns.

    One row per stop class with a nonzero count: the clean paths stopping
    at a profile (which reached no second-set node before) and the crossed
    ones (which ran on through one) are kept apart, the clean row first.
    Rows come level by level; on each level the taken and boundary classes
    come first, by profile, then every other stop in visiting order.  Row
    i holds `profiles[i]`, its number of words `counts[i]` (an exact big
    integer), their mass `masses[i]` and linear form `forms[i]` (binary64,
    in `array('d')`), and `extra[i]`, 1 where its words take the extra
    digit: clean stops in the second set or at the cap.  `word_count` is
    the sum of the counts, `cap_mass` the mass of words stopped by the hard
    cap alone (their profiles are not in the first set), the quantity used
    to size the cap adaptively, and `visited_nodes` the nodes the walk
    visited.  `cap` is the hard cap the walk ran under, and `second_stops`
    maps each taken or boundary class to the number of its clean words
    that stop there: the quotas `enumerate_words` stops clean paths by.
    """

    profiles: list[Profile]
    counts: list[int]
    masses: array
    forms: array
    extra: bytearray
    word_count: int
    cap_mass: float
    visited_nodes: int
    cap: int
    second_stops: dict[Profile, int]


def lattice_metrics(
    model: SourceModel,
    classify: NodeClassifier,
    cap: int,
    node_limit: int = DEFAULT_NODE_LIMIT,
    taken: Collection[Profile] = (),
    boundary: tuple[Profile, int] | None = None,
) -> LatticeTable:
    """The forward stopping DP: every stop class of the word set, as rows.

    A node in the first set, or at the cap, stops every path reaching it.  A
    clean path reaching a node of the second set stops there only if the
    node is `taken`, or is the `boundary` profile (profile, j), where its
    first j words stop; every other such path crosses and runs on.  Raises
    ResourceError when the walk visits more than `node_limit` nodes.

    One body over `level_views`: paths are routed a level at a time with
    0/1 masks of the routing flags, and only stop nodes and the taken and
    boundary classes are handled one by one, each appending its clean and
    crossed rows to the `LatticeTable` columns; no per-profile record is
    kept.  The cap mass reads the real flags of the cap level, in visiting
    order.
    """
    boundary_profile, boundary_words = boundary if boundary else (None, 0)
    marked: dict[int, list[Profile]] = {}
    for k in sorted({*taken, boundary_profile} - {None}):
        marked.setdefault(sum(k), []).append(k)
    profiles: list[Profile] = []
    counts: list[int] = []
    masses, forms, extra = array("d"), array("d"), bytearray()
    second_stops: dict[Profile, int] = {}

    def stop(k: Profile, count: int, mass: float, form: float, digit: bool):
        profiles.append(k)
        counts.append(count)
        masses.append(mass)
        forms.append(form)
        extra.append(digit)

    cap_mass = 0.0
    visited = 0
    for view in level_views(model, classify, 2, cap, node_limit, "lattice DP"):
        clean, crossed = view.states
        (cc, mc), (cx, mx) = clean, crossed
        ids, flags = view.ids, view.flags
        visited += len(ids)
        route = view.routing(cap)
        mask = route.translate
        n_cx, n_mx = flat_carry(
            crossed, mask(NOT_FIRST), clean, mask(ONLY_SECOND)
        )
        for k in marked.get(view.level, ()):
            i = view.id_of(k)
            if i is None or route[i] != SECOND or not cc[i]:
                continue
            c_c, m_c = cc[i], mc[i]
            form = view.node(i)[1]
            if k in taken:
                stop(k, c_c, m_c, form, True)
                second_stops[k] = c_c
                c_c = 0
            else:
                if c_c < boundary_words:
                    raise ValidationError(
                        "boundary class smaller than its split"
                    )
                stop_m = boundary_words * profile_probability(model, k)
                if boundary_words:
                    stop(k, boundary_words, stop_m, form, True)
                    second_stops[k] = boundary_words
                c_c -= boundary_words
                m_c -= stop_m
            n_cx[i] = cx[i] + c_c
            n_mx[i] = mx[i] + m_c if c_c else mx[i]
        view.next += [flat_carry(clean, mask(IN_NEITHER)), (n_cx, n_mx)]
        for i in compress(ids, map(mask(IN_FIRST).__getitem__, ids)):
            k, form = view.node(i)
            if cc[i]:
                stop(k, cc[i], mc[i], form, route[i] > FIRST)
            if cx[i]:
                stop(k, cx[i], mx[i], form, False)
            if not flags[i] & FIRST:  # a node the cap alone stops
                cap_mass += mc[i] + mx[i]
    return LatticeTable(
        profiles, counts, masses, forms, extra, sum(counts), cap_mass,
        visited, cap, second_stops,
    )


class NodeKeys:
    """The int keys of the nodes of one walk under a hard cap.

    The key of the node with profile k is `sum(k_i * (cap + 1) ** i)`, so
    the key of the child one symbol i further is the parent's plus
    `steps[i]`.  `node(key)` classifies the node as `classify` does, as
    (form, flags), except that every node at the cap is in both sets, so a
    path stops there and a clean stop takes the extra digit.  Raises
    InputError for a cap below 1.
    """

    def __init__(self, m: int, cap: int, classify: NodeClassifier) -> None:
        if cap < 1:
            raise InputError(f"cap must be >= 1, got {cap}")
        self.m, self.cap, self.radix, self.classify = m, cap, cap + 1, classify
        self.steps = [self.radix**i for i in range(m)]

    def key_of(self, k: Profile) -> int | None:
        """The key of profile k, or None where no walk under the cap
        reaches k (and its key could name another profile)."""
        on_lattice = len(k) == self.m and min(k) >= 0 and sum(k) <= self.cap
        return sum(map(mul, k, self.steps)) if on_lattice else None

    def children(self, key: int) -> list[int]:
        """The keys one symbol further, symbol 1 first."""
        return [key + step for step in self.steps]

    def node(self, key: int) -> tuple[float, int]:
        """(form, flags) of a node other than the origin."""
        k = tuple([key // step % self.radix for step in self.steps])
        form, flags = self.classify(k)
        return form, (FIRST | SECOND if sum(k) == self.cap else flags)


@dataclass
class WordTable:
    """The words of a walk, as parallel row columns, in lexicographic order.

    Row i holds the word `words[i]`, its linear form `forms[i]`, `extra[i]`,
    1 where the word takes the extra digit (a clean stop in the second set
    or at the cap), and its probability `probs[i]`.  `len()` is the number
    of words.
    """

    words: list[Word]
    forms: list[float]
    extra: bytearray
    probs: list[float]

    def __len__(self) -> int:
        return len(self.words)


def enumerate_words(
    model: SourceModel, classify: NodeClassifier, table: LatticeTable, limit: int
) -> WordTable:
    """The words of a `lattice_metrics` table, in lexicographic order.

    `classify` is the classifier the table was built under.  Returns the
    words as a `WordTable`: one append per column and word, and no record
    per word.  A word's extra digit is set for a clean stop in the second
    set or at the cap, where the construction length gets one digit more.
    Iterative, so the cap, which bounds the depth, can exceed the
    interpreter recursion limit.  Raises ResourceError, naming the count,
    before any node is classified, when the table counts more than `limit`
    words: the one refusal of an oversized word set for every fresh VF and
    codec-grade VV book.  Raises ValidationError when the walk finds more
    words than the table counts (as soon as it does), fewer, or leaves a
    second-set quota unused.

    One depth-first walk for every source and classifier, under the
    table's cap, over (word, key, crossed, probability) frames keyed by
    `NodeKeys`, symbol 1 popped first; `classify` is called once per
    distinct profile reached, and the cap stops every path.  A clean path
    at a second-set node stops there while that class's quota in
    `table.second_stops` lasts, so a boundary class stops its
    lexicographically first words, and otherwise crosses and runs on.

    Each frame carries its word's prefix product, multiplied left to right
    from 1.0 as `word_probability` multiplies, so the probability is the
    same float: fresh VF and VV books take their probabilities from there,
    and their metrics from these forms.
    """
    count = table.word_count
    if count > limit:
        raise ResourceError(
            f"word set of {count} words exceeds the enumeration limit of "
            f"{limit}"
        )
    keys = NodeKeys(model.m, table.cap, classify)
    # key -> clean words still to stop at that second-set class
    quota = {keys.key_of(k): j for k, j in table.second_stops.items()}
    # key -> (form, flags), one classification per distinct profile; the
    # origin is in neither set
    nodes: dict[int, tuple[float, int]] = {0: (0.0, 0)}
    # each frame's children, pushed last symbol first; the walk adds the
    # steps itself, since a `children` call per frame made the `build`
    # benchmark's round about 10 % slower
    children = [((i + 1,), keys.steps[i], p) for i, p in enumerate(model.probs)]
    children.reverse()
    out = WordTable([], [], bytearray(), [])
    words = out.words
    add_word, add_form = words.append, out.forms.append
    add_extra, add_prob = out.extra.append, out.probs.append
    stack: list[tuple[Word, int, bool, float]] = [((), 0, False, 1.0)]
    pop, push = stack.pop, stack.append
    disagrees = "enumerated word count disagrees with the lattice DP"
    while stack:
        word, key, crossed, p = pop()
        form, flags = nodes.get(key) or nodes.setdefault(key, keys.node(key))
        # a clean path at a second-set node stops there, with the extra
        # digit, while its class's quota lasts
        if flags == SECOND and not crossed:
            left = quota.get(key)
            if left:
                quota[key] = left - 1
                flags = FIRST | SECOND
            else:
                crossed = True
        if flags & FIRST:
            add_word(word)
            add_form(form)
            add_extra(flags > FIRST and not crossed)
            add_prob(p)
            if len(words) > count:
                raise ValidationError(disagrees)
            continue
        for symbol, step, p_s in children:
            push((word + symbol, key + step, crossed, p * p_s))
    if len(words) < count or any(quota.values()):
        raise ValidationError(disagrees)
    return out


def is_prefix_free(words: list[Word]) -> bool:
    """True when no word equals or starts with another; the empty word
    starts every word.  The neighbour scan of `codebook._assert_prefix_free`,
    which the book checks run."""
    try:
        _assert_prefix_free(words, "word")
    except ValidationError:
        return False
    return True


def wedge(words_a: list[Word], words_b: list[Word]) -> list[Word]:
    """Merge two word sets, dropping words that extend another union word.

    Keeps exactly the union words with no proper prefix in the union.  The
    result is prefix-free, and complete whenever either input was.
    Commutative, associative, idempotent; output in lexicographic order.

    One pass over the sorted union: in sorted order the words that start
    with a word `u` come right after `u`, so a word has a proper prefix in
    the union iff it starts with the last word kept.
    """
    kept: list[Word] = []
    for w in sorted(set(words_a) | set(words_b)):
        if not kept or w[: len(kept[-1])] != kept[-1]:
            kept.append(w)
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

