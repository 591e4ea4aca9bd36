"""Redundancy metrics, the exact defect identity, and scaling experiments."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from conftest import book_from_entries
from wordcodes import analysis
from wordcodes.analysis import (
    SCALING_CSV_HEADER,
    ScalingRow,
    code_metrics,
    metrics_from_classes,
    scaling_experiment,
    scaling_slope,
)
from wordcodes.codebook import CodeEntry, validate_codebook
from wordcodes.errors import InputError
from wordcodes.source_model import entropy, linear_form, make_model, profile_of
from wordcodes.vf_construct import construct_vf
from wordcodes.vv_construct import construct_vv


def test_single_letter_code_redundancy_is_one_minus_entropy(binary_model):
    book = book_from_entries(
        binary_model,
        "vv",
        (
            CodeEntry(word=(1,), codeword="0", probability=0.4),
            CodeEntry(word=(2,), codeword="1", probability=0.6),
        ),
        {},
    )
    validate_codebook(book)
    met = code_metrics(book)
    assert met.avg_delay == 1.0
    assert met.avg_code_length == 1.0
    assert met.kraft_exact == Fraction(1)
    assert met.kraft_defect == 0.0
    assert met.redundancy == pytest.approx(
        1.0 - entropy(binary_model), abs=1e-12
    )


def test_defect_identity_holds_on_standard_books(
    reference_book, vf3_book, block_book
):
    for book in (reference_book, vf3_book, block_book):
        met = code_metrics(book)
        assert met.identity_residual <= 1e-9


def test_bounds_sandwich_the_redundancy(reference_book, vf3_book, block_book):
    for book in (reference_book, vf3_book, block_book):
        met = code_metrics(book)
        assert met.kraft_defect >= 0.0
        assert 0.0 <= met.distance_lower_bound <= met.lower_bound + 1e-15
        assert met.lower_bound <= met.redundancy + 1e-12
        if met.eps_all_within_one:
            assert met.upper_bound is not None
            assert met.redundancy <= met.upper_bound + 1e-12
        else:
            assert met.upper_bound is None


def test_metrics_reject_an_empty_code(binary_model):
    with pytest.raises(InputError):
        metrics_from_classes(binary_model, [], Fraction(1), 0)


def test_class_rows_may_pool_equal_probability_words(binary_model, vf3_book):
    from wordcodes.source_model import linear_form, profile_of

    # pooling equal-profile words into one mass row changes nothing
    met_full = code_metrics(vf3_book)
    pooled: dict[tuple[int, int, float], float] = {}
    for e in vf3_book.entries:
        form = linear_form(binary_model, profile_of(e.word, binary_model.m))
        key = (len(e.word), len(e.codeword), form)
        pooled[key] = pooled.get(key, 0.0) + e.probability
    rows = [(mass, wl, cl, form) for (wl, cl, form), mass in pooled.items()]
    met_pooled = metrics_from_classes(
        binary_model, rows, vf3_book.kraft_exact(), len(vf3_book.entries)
    )
    assert met_pooled.avg_delay == pytest.approx(met_full.avg_delay, abs=1e-12)
    assert met_pooled.redundancy == pytest.approx(
        met_full.redundancy, abs=1e-12
    )
    assert met_pooled.kraft_defect == met_full.kraft_defect


def test_scaling_needs_delay_spread_for_a_slope(binary_model):
    result = scaling_experiment(binary_model, t_list=[1, 3, 4])
    assert [r.T for r in result.rows] == [1, 3, 4]
    assert all(r.avg_delay == pytest.approx(1.0, abs=1e-12) for r in result.rows)
    assert result.slope is None


def test_scaling_csv_layout(binary_model):
    result = scaling_experiment(binary_model, t_list=[1, 4])
    lines = result.csv_text.splitlines()
    assert lines[0] == SCALING_CSV_HEADER
    assert len(lines) == 3
    for line, row in zip(lines[1:], result.rows):
        fields = line.split(",")
        assert len(fields) == 7
        assert fields[0] == str(row.T)
        assert fields[1] == str(row.cap)
        assert float(fields[2]) == row.avg_delay
        assert float(fields[4]) == row.redundancy
    assert result.csv_text.endswith("\n")


def _row(T: int, nbar: float, red: float) -> ScalingRow:
    return ScalingRow(
        T=T,
        cap=T * T,
        avg_delay=nbar,
        max_delay=int(nbar) + 1,
        redundancy=red,
        r_times_nbar_5_3=red * nbar ** (5.0 / 3.0),
        r_times_nbar=red * nbar,
    )


def test_slope_fit_ignores_exact_zero_redundancy_rows():
    rows = [_row(1, 1.0, 0.5), _row(2, 10.0, 0.05), _row(3, 100.0, 0.0)]
    slope = scaling_slope(rows)
    assert slope == pytest.approx(-1.0, abs=1e-12)


def test_slope_fit_needs_two_usable_points():
    assert scaling_slope([_row(1, 1.0, 0.5)]) is None
    assert scaling_slope([_row(1, 1.0, 0.5), _row(2, 2.0, 0.0)]) is None
    assert scaling_slope([_row(1, 2.0, 0.5), _row(2, 2.0, 0.25)]) is None


# -- the column sums against the row-by-row reference -----------------------


def reference_metrics_from_classes(model, classes, kraft_exact, word_count):
    """`metrics_from_classes` as one generator pass per sum over the rows:
    the form the column sums must reproduce, float for float."""
    from wordcodes.analysis import EPS_WITHIN_ONE_TOL, CodeMetrics
    from wordcodes.diophantine import dist_to_int

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


def _book_rows(book):
    model = book.model
    return [
        (
            e.probability,
            len(e.word),
            len(e.codeword),
            linear_form(model, profile_of(e.word, model.m)),
        )
        for e in book.entries
    ]


def _seeded_row_sets(model):
    """Rows with negative eps, |eps| > 1, repeated rows and a single row."""
    rng = random.Random(1291)
    for size in (1, 2, 7, 40, 300):
        rows = []
        for _ in range(size):
            wl = rng.randint(1, 30)
            form = rng.uniform(0.0, 2.0 * wl)
            # eps = cl - form anywhere in about [-3, 3]
            cl = max(0, round(form + rng.uniform(-3.0, 3.0)))
            rows.append((rng.random() / size, wl, cl, form))
        yield rows
        # every row repeated, in a shuffled order
        twice = rows * 2
        rng.shuffle(twice)
        yield twice
    yield [(1.0, 3, 2, 2.0)]  # eps exactly 0
    yield [(0.5, 1, 0, 2.5), (0.5, 1, 5, 2.5)]  # eps -2.5 and 2.5


def test_column_sums_match_the_row_reference_on_seeded_rows(binary_model):
    seen = set()
    for model in (binary_model, make_model(["0.2", "0.3", "0.5"], 3)):
        for rows in _seeded_row_sets(model):
            kraft = Fraction(len(rows), 2 ** len(rows))
            got = metrics_from_classes(model, rows, kraft, len(rows))
            expect = reference_metrics_from_classes(
                model, rows, kraft, len(rows)
            )
            assert repr(got) == repr(expect)
            eps = [cl - form for _, _, cl, form in rows]
            seen.add("negative" if min(eps) < 0 else "nonnegative")
            seen.add("wide" if max(map(abs, eps)) > 1 else "within one")
            seen.add("single" if len(rows) == 1 else "many")
    assert seen == {"negative", "nonnegative", "wide", "within one",
                    "single", "many"}


def _small_benchmark_books():
    """The books the benchmark's small-size build and codec ops emit."""
    p46 = make_model(["0.4", "0.6"], 2)
    p28 = make_model(["0.2", "0.8"], 2)
    p235 = make_model(["0.2", "0.3", "0.5"], 2)
    yield construct_vv(p28, T=8).book
    yield construct_vv(p46).book
    for model in (p46, p235):
        for L in range(2, 11):
            yield construct_vf(model, L).book


def test_book_metrics_match_the_row_reference_on_benchmark_books():
    """`code_metrics` (columns, factors once per distinct value) and
    `metrics_from_classes` (rows) against the row reference, by repr."""
    books = 0
    for book in _small_benchmark_books():
        rows = _book_rows(book)
        kraft = book.kraft_exact()
        expect = repr(
            reference_metrics_from_classes(book.model, rows, kraft, len(rows))
        )
        assert repr(code_metrics(book)) == expect
        assert repr(
            metrics_from_classes(book.model, rows, kraft, len(rows))
        ) == expect
        books += 1
    assert books == 20


def test_lattice_metrics_rows_match_the_row_reference(monkeypatch):
    """The class rows of metrics-grade builds (the benchmark's small-size
    lattice ops, and a T=10 build with 764 classes) give the reference's
    metrics, by repr."""
    compute = analysis.metrics_from_classes
    calls = []

    def checked(model, classes, kraft_exact, word_count):
        rows = list(classes)
        got = compute(model, rows, kraft_exact, word_count)
        expect = reference_metrics_from_classes(
            model, rows, kraft_exact, word_count
        )
        assert repr(got) == repr(expect)
        calls.append(len(rows))
        return got

    monkeypatch.setattr(analysis, "metrics_from_classes", checked)
    p46 = make_model(["0.4", "0.6"], 2)
    scaling_experiment(p46, [1, 3, 4])
    construct_vv(make_model(["0.2", "0.8"], 2), T=8, grade="metrics")
    construct_vv(make_model(["0.2", "0.3", "0.5"], 2), T=4, grade="metrics")
    construct_vv(make_model(["0.3", "0.7"], 2), T=10, grade="metrics")
    assert len(calls) == 6 and max(calls) == 764


def test_code_metrics_names_a_symbol_outside_the_alphabet(binary_model):
    entries = (
        CodeEntry(word=(1,), codeword="0", probability=0.4),
        CodeEntry(word=(2, 3), codeword="1", probability=0.6),
    )
    book = book_from_entries(binary_model, "vv", entries)
    with pytest.raises(InputError, match="symbol index 3 out of range 1..2"):
        code_metrics(book)
