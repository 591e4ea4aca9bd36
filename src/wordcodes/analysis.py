"""Redundancy and delay metrics for word codes.

All quantities reduce to sums over stop classes (mass, word length, codeword
length, linear form), so the same accounting serves explicit code books and
lattice-level constructions whose word sets are never enumerated.  The
central per-word quantity is eps = codeword length + log_n(word probability):
the redundancy is E[p eps] / E[p N], an exact rearrangement ties
E[p eps] ln n to the Kraft defect plus E[p eta(eps)] with
eta(x) = n^-x - 1 + x ln n, and quadratic bounds on eta sandwich the
redundancy from both sides.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import astuple, dataclass
from fractions import Fraction
from itertools import repeat
from operator import attrgetter, itemgetter, mul, sub
from typing import Callable, Iterable, Iterator, Sequence

from .codebook import CodeBook
from .diophantine import dist_to_int
from .errors import InputError
from .source_model import SourceModel, entropy, linear_form, profile_of
from .word_sets import DEFAULT_NODE_LIMIT, DEFAULT_T_MAX

EPS_WITHIN_ONE_TOL = 1e-12

SCALING_CSV_HEADER = (
    "T,T2,avg_delay,max_delay,redundancy,r_times_nbar_5_3,r_times_nbar"
)


@dataclass(frozen=True)
class CodeMetrics:
    """Exact and aggregate properties of one code.

    avg_delay is the expected word length (source letters consumed per
    codeword), redundancy the expected excess output digits per source
    letter.  kraft_defect is 1 minus the exact Kraft sum.  The bound fields
    sandwich the redundancy; upper_bound is None when some |eps| exceeds 1
    and the quadratic upper estimate does not apply.
    """

    word_count: int
    total_prob: float
    avg_delay: float
    max_delay: int
    avg_code_length: float
    entropy_bits: float
    redundancy: float
    kraft_exact: Fraction
    kraft_defect: float
    eps_max_abs: float
    eps_all_within_one: bool
    sum_p_eps: float
    sum_p_eps_sq: float
    sum_p_eps_clamped_sq: float
    sum_p_eta: float
    sum_p_int_dist_sq: float
    identity_residual: float
    lower_bound: float
    upper_bound: float | None
    distance_lower_bound: float


def metrics_from_classes(
    model: SourceModel,
    classes: Iterable[tuple[float, int, int, float]],
    kraft_exact: Fraction,
    word_count: int,
) -> CodeMetrics:
    """Metrics from (mass, word length, codeword length, linear form) rows.

    A row may describe one word or a whole class of equal-probability words;
    only the combined mass matters.
    """
    rows = list(classes)
    masses, word_lengths, code_lengths, forms = (
        list(map(itemgetter(i), rows)) for i in range(4)
    )
    del rows
    return _column_metrics(
        model, masses, word_lengths, code_lengths, forms,
        kraft_exact, word_count, repeated=False,
    )


def _map_once(
    fn: Callable[[float], float], values: list[float]
) -> Iterator[float]:
    """`map(fn, values)`, calling `fn` once per distinct value."""
    table = {v: fn(v) for v in set(values)}
    return map(table.__getitem__, values)


def _column_metrics(
    model: SourceModel,
    masses: Sequence[float],
    word_lengths: list[int],
    code_lengths: list[int],
    forms: list[float],
    kraft_exact: Fraction,
    word_count: int,
    repeated: bool,
) -> CodeMetrics:
    """The metrics of rows given as four columns.

    Each sum is one `math.fsum` over per-row terms, the same IEEE operations
    as the row-by-row expressions in the field descriptions.  A book's word
    rows (`repeated`) repeat each class's eps and form: their eps column is
    built once, and the eta, clamped eps^2 and distance^2 factors are
    computed once per distinct value (`_map_once`).  Class rows rarely
    repeat a value; they keep no per-row eps column and map every row.
    """
    if not masses:
        raise InputError("cannot compute metrics for an empty code")
    n = model.arity
    ln_n = math.log(n)
    fsum = math.fsum
    per_value = _map_once if repeated else map
    eps_column = list(map(sub, code_lengths, forms)) if repeated else None

    def eps() -> Iterable[float]:
        if eps_column is not None:
            return eps_column
        return map(sub, code_lengths, forms)

    total = fsum(masses)
    nbar = fsum(map(mul, masses, word_lengths))
    lbar = fsum(map(mul, masses, code_lengths))
    max_delay = max(word_lengths)

    eps_max = max(map(abs, eps()))
    sum_p_eps = fsum(map(mul, masses, eps()))
    sum_p_eps_sq = fsum(map(mul, map(mul, masses, eps()), eps()))
    sum_p_eps_cl_sq = fsum(
        map(mul, masses, per_value(_clamped_sq, eps()))
    )
    sum_p_eta = fsum(
        map(mul, masses, per_value(lambda e: n**-e - 1.0 + e * ln_n, eps()))
    )
    sum_p_dist_sq = fsum(map(mul, masses, per_value(_int_dist_sq, forms)))

    defect = float(1 - kraft_exact)
    redundancy = sum_p_eps / nbar
    identity_residual = abs(sum_p_eps * ln_n - (defect + sum_p_eta))
    lower = (defect / ln_n + ln_n / (2.0 * n) * sum_p_eps_cl_sq) / nbar
    within_one = eps_max <= 1.0 + EPS_WITHIN_ONE_TOL
    upper = (
        (defect / ln_n + n * ln_n / 2.0 * sum_p_eps_sq) / nbar
        if within_one
        else None
    )
    distance_lower = (ln_n / (2.0 * n)) * sum_p_dist_sq / nbar

    return CodeMetrics(
        word_count=word_count,
        total_prob=total,
        avg_delay=nbar,
        max_delay=max_delay,
        avg_code_length=lbar,
        entropy_bits=entropy(model),
        redundancy=redundancy,
        kraft_exact=kraft_exact,
        kraft_defect=defect,
        eps_max_abs=eps_max,
        eps_all_within_one=within_one,
        sum_p_eps=sum_p_eps,
        sum_p_eps_sq=sum_p_eps_sq,
        sum_p_eps_clamped_sq=sum_p_eps_cl_sq,
        sum_p_eta=sum_p_eta,
        sum_p_int_dist_sq=sum_p_dist_sq,
        identity_residual=identity_residual,
        lower_bound=lower,
        upper_bound=upper,
        distance_lower_bound=distance_lower,
    )


def _clamped_sq(e: float) -> float:
    return min(1.0, max(-1.0, e)) ** 2


def _int_dist_sq(form: float) -> float:
    return dist_to_int(form) ** 2


def word_metrics(
    model: SourceModel,
    probabilities: Sequence[float],
    word_lengths: list[int],
    code_lengths: list[int],
    forms: list[float],
    kraft_exact: Fraction,
) -> CodeMetrics:
    """Metrics of a code book given as four per-word columns, in any one
    row order: every sum is a `math.fsum`, correctly rounded whatever the
    order, so the columns of a book's words give `code_metrics(book)`
    field for field.  Fresh VF and VV books pass the probabilities and
    forms their enumerator computed."""
    return _column_metrics(
        model,
        probabilities,
        word_lengths,
        code_lengths,
        forms,
        kraft_exact,
        len(probabilities),
        repeated=True,
    )


def code_metrics(book: CodeBook) -> CodeMetrics:
    """Metrics of an explicit code book, one row per word.

    Rebuilds every word's profile and linear form from the model: the path
    for loaded, explicit and block books.  Fresh VF and VV books take
    `word_metrics` over the forms their enumerator already computed.
    """
    model = book.model
    words = book.words
    word_lengths = list(map(len, words))
    symbols = range(1, model.m + 1)
    # each word's profile, tuple(map(word.count, symbols))
    profiles = list(
        map(tuple, map(map, map(attrgetter("count"), words), repeat(symbols)))
    )
    if sum(map(sum, profiles)) != sum(word_lengths):
        # some symbol is outside 1..m: profile_of names it
        for word in words:
            profile_of(word, model.m)
    form_of = {k: linear_form(model, k) for k in set(profiles)}
    forms = list(map(form_of.__getitem__, profiles))
    del profiles
    return word_metrics(
        model,
        book.probabilities,
        word_lengths,
        list(map(len, book.codewords)),
        forms,
        book.kraft_exact(),
    )


@dataclass(frozen=True)
class ScalingRow:
    """One redundancy-scaling measurement."""

    T: int
    cap: int
    avg_delay: float
    max_delay: int
    redundancy: float
    r_times_nbar_5_3: float
    r_times_nbar: float


@dataclass(frozen=True)
class ScalingResult:
    """Scaling rows, the fitted log-log slope, and a CSV rendering."""

    rows: tuple[ScalingRow, ...]
    slope: float | None
    csv_text: str


def _scaling_csv(rows: Sequence[ScalingRow]) -> str:
    lines = [",".join(map(repr, astuple(r))) for r in rows]
    return "\n".join([SCALING_CSV_HEADER, *lines]) + "\n"


def scaling_slope(rows: Sequence[ScalingRow]) -> float | None:
    """Least-squares slope of log redundancy against log average delay.

    Rows with zero redundancy (exact codes) carry no scaling information and
    are excluded; with fewer than two usable distinct delays there is no fit.
    """
    points = [
        (math.log(r.avg_delay), math.log(r.redundancy))
        for r in rows
        if r.redundancy > 0.0 and r.avg_delay > 0.0
    ]
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    if len(points) < 2 or max(xs) == min(xs):
        return None
    return statistics.linear_regression(xs, ys).slope


def scaling_experiment(
    model: SourceModel,
    t_list: Sequence[int] | None = None,
    t_max: int = DEFAULT_T_MAX,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> ScalingResult:
    """Construct codes over a ladder of threshold parameters and fit a slope.

    By default the ladder is the candidate list for the source (denominators
    of best rational approximations, or multiples of the common denominator
    for rational sources), capped at t_max.
    """
    from . import vv_construct

    if t_list is None:
        info = vv_construct.threshold_parameter_candidates(model, t_max)
        t_list = info["candidates"]
    if not t_list:
        raise InputError("no threshold parameters to scan")
    rows = []
    for t in t_list:
        result = vv_construct.construct_vv(
            model,
            T=t,
            grade="metrics",
            assignment="canonical",
            node_limit=node_limit,
        )
        met = result.dp_metrics
        rows.append(
            ScalingRow(
                T=t,
                cap=result.cap,
                avg_delay=met.avg_delay,
                max_delay=met.max_delay,
                redundancy=met.redundancy,
                r_times_nbar_5_3=met.redundancy * met.avg_delay ** (5.0 / 3.0),
                r_times_nbar=met.redundancy * met.avg_delay,
            )
        )
    rows_t = tuple(rows)
    return ScalingResult(
        rows=rows_t, slope=scaling_slope(rows_t), csv_text=_scaling_csv(rows_t)
    )
