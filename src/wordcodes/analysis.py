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
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .codebook import CodeBook
from .diophantine import dist_to_int
from .errors import InputError
from .source_model import SourceModel, entropy, linear_form, profile_of

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
    if not rows:
        raise InputError("cannot compute metrics for an empty code")
    n = model.arity
    ln_n = math.log(n)

    total = math.fsum(mass for mass, _, _, _ in rows)
    nbar = math.fsum(mass * wl for mass, wl, _, _ in rows)
    lbar = math.fsum(mass * cl for mass, _, cl, _ in rows)
    max_delay = max(wl for _, wl, _, _ in rows)

    eps_rows = [(mass, cl - form) for mass, _, cl, form in rows]
    eps_max = max(abs(e) for _, e in eps_rows)
    sum_p_eps = math.fsum(mass * e for mass, e in eps_rows)
    sum_p_eps_sq = math.fsum(mass * e * e for mass, e in eps_rows)
    sum_p_eps_cl_sq = math.fsum(
        mass * min(1.0, max(-1.0, e)) ** 2 for mass, e in eps_rows
    )
    sum_p_eta = math.fsum(
        mass * (n**-e - 1.0 + e * ln_n) for mass, e in eps_rows
    )
    sum_p_dist_sq = math.fsum(
        mass * dist_to_int(form) ** 2 for mass, _, _, form in rows
    )

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


def code_metrics(book: CodeBook) -> CodeMetrics:
    """Metrics of an explicit code book."""
    model = book.model
    forms: dict = {}
    rows = []
    for entry in book.entries:
        profile = profile_of(entry.word, model.m)
        form = forms.get(profile)
        if form is None:
            form = forms[profile] = linear_form(model, profile)
        rows.append(
            (entry.probability, len(entry.word), len(entry.codeword), form)
        )
    return metrics_from_classes(
        model, rows, kraft_exact=book.kraft_exact(), word_count=len(rows)
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
    lines = [SCALING_CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.T},{r.cap},{r.avg_delay!r},{r.max_delay},"
            f"{r.redundancy!r},{r.r_times_nbar_5_3!r},{r.r_times_nbar!r}"
        )
    return "\n".join(lines) + "\n"


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
    t_max: int = 50,
    node_limit: int | None = None,
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
    kwargs = {}
    if node_limit is not None:
        kwargs["node_limit"] = node_limit
    rows = []
    for t in t_list:
        result = vv_construct.construct_vv(
            model, T=t, grade="metrics", assignment="canonical", **kwargs
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
