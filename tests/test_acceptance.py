"""Acceptance suite: one test per shipping criterion.

Each test pins the agreed tolerances and prints one pass/fail line under
`pytest -v`.  Criteria that aggregate many cases (random code books, ladders
of parameters) keep their case counts and seeds fixed so reruns are
reproducible.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import pytest

from wordcodes.analysis import code_metrics, scaling_experiment
from wordcodes.cli import main
from wordcodes.codec import (
    decode_message,
    encode_message,
    sample_symbols,
    sync_error_experiment,
)
from wordcodes.codebook import validate_codebook
from wordcodes.diophantine import best_approx_denominators, find_shift
from wordcodes.serialization import load_book
from wordcodes.source_model import word_probability
from wordcodes.vf_construct import (
    construct_block,
    construct_vf,
    find_block_parameters,
)
from wordcodes.vv_construct import construct_vv, threshold_parameter_candidates
from wordcodes.word_sets import is_prefix_free, sentinel_runs

LOG2_3 = math.log2(3.0)

REFERENCE_M1 = ["a", "baa", "bab", "bba", "bbb"]
REFERENCE_M2 = ["ab", "ba", "bbb", "bba", "aab", "aaa"]


def test_criterion_01_worked_example_code(binary_model):
    start = time.perf_counter()
    m1 = [binary_model.word_from_text(w) for w in REFERENCE_M1]
    m2 = [binary_model.word_from_text(w) for w in REFERENCE_M2]
    result = construct_vv(binary_model, first_words=m1, second_words=m2)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0

    book = result.book
    assert book is not None
    mapping = dict(
        zip(map(binary_model.word_to_text, book.words), book.codewords)
    )
    assert mapping == {"a": "0", "ba": "10", "bba": "110", "bbb": "111"}
    assert sorted(len(c) for c in mapping.values()) == [1, 2, 3, 3]

    met = result.book_metrics
    assert met is not None
    assert met.avg_delay == pytest.approx(1.96, abs=1e-9)
    assert met.max_delay == 3
    assert met.redundancy == pytest.approx(0.029049, abs=5e-4)

    prov = result.provenance
    assert Fraction(prov["kraft_first"]) == Fraction(9, 8)
    assert Fraction(prov["kraft_second"]) == Fraction(5, 8)
    assert Fraction(prov["kraft_merged"]) == Fraction(7, 8)
    assert book.kraft_exact() == 1


def test_criterion_02_defect_identity_reference_and_random(
    reference_book, make_random_book
):
    start = time.perf_counter()
    assert code_metrics(reference_book).identity_residual <= 1e-9
    rng = random.Random(1002)
    for i in range(100):
        mode = "rounded" if i % 2 == 0 else "stretched"
        book = make_random_book(rng, mode)
        assert code_metrics(book).identity_residual <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0


def test_criterion_03_quadratic_bounds_sandwich_redundancy(make_random_book):
    rng = random.Random(1003)
    sandwiched = 0
    for i in range(200):
        mode = "rounded" if i % 2 == 0 else "stretched"
        met = code_metrics(make_random_book(rng, mode))
        assert met.distance_lower_bound <= met.redundancy + 1e-12
        assert met.lower_bound <= met.redundancy + 1e-12
        if met.eps_all_within_one:
            assert met.upper_bound is not None
            assert met.redundancy <= met.upper_bound + 1e-12
            sandwiched += 1
        else:
            assert met.upper_bound is None
    assert sandwiched >= 100  # every rounded-length book has all |eps| <= 1


def test_criterion_04_emitted_books_are_sound_and_round_trip(
    reference_book, vf3_book, block_book
):
    for book, seed in ((reference_book, 104), (vf3_book, 204), (block_book, 304)):
        validate_codebook(book)
        assert abs(math.fsum(book.probabilities) - 1.0) <= 1e-9
        assert is_prefix_free(list(book.words))
        assert is_prefix_free(list(book.codewords))
        assert book.kraft_exact() <= 1  # exact rational: defect >= 0

        rng = random.Random(seed)
        message = sample_symbols(book.model, rng, 100_000)
        digits, pads = encode_message(book, message)
        assert decode_message(book, digits, pads) == message


def test_criterion_05_uniform_output_codes_hit_the_window(
    binary_model, ternary_model
):
    fallback_cells = []
    for name, model in (("binary", binary_model), ("ternary", ternary_model)):
        n = model.arity
        p_min = min(model.probs)
        d_max = max(model.d)
        for L in range(2, 17):
            result = construct_vf(model, L)
            book = result.book
            met = result.metrics
            assert len(book.words) <= n**L
            assert met.redundancy <= -math.log(p_min, n) / met.avg_delay + 1e-12
            if L < d_max:
                # no complete prefix-free set can keep every word above
                # n^-L here; the construction falls back to single symbols
                fallback_cells.append((name, L))
                assert result.fallback
                assert result.provenance["mode"] == "single_symbol"
                assert min(book.probabilities) < n**-L
            else:
                assert not result.fallback
                for probability in book.probabilities:
                    assert probability >= n**-L - 1e-12
            if name == "binary" and L == 3:
                words = sorted(map(model.word_to_text, book.words))
                assert words == ["aa", "ab", "ba", "bba", "bbb"]
                assert met.avg_delay == pytest.approx(2.36, abs=1e-9)
    assert fallback_cells == [("ternary", 2)]


def test_criterion_06_block_codes_meet_the_inverse_square_bound():
    pairs = find_block_parameters(3, 2)
    assert pairs == [(1, 2), (5, 8), (41, 65)]
    for X, L in pairs[:2]:
        met = construct_block(3, 2, X, L).metrics
        closed_form = L / X - LOG2_3
        assert met.redundancy == pytest.approx(closed_form, rel=1e-9, abs=1e-12)
        assert met.redundancy * X * X <= 1.0 + 1e-9
    # 3^41 blocks cannot be enumerated; equiprobable blocks make the
    # closed form exact, as verified on the two enumerable pairs above
    X, L = pairs[2]
    assert (L / X - LOG2_3) * X * X <= 1.0 + 1e-9


def test_criterion_07_redundancy_scaling_slope(binary_model):
    ladder = threshold_parameter_candidates(binary_model)["candidates"]
    assert ladder[:4] == [1, 3, 4, 19]
    start = time.perf_counter()
    result = scaling_experiment(binary_model, t_list=ladder[:4])
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    assert len(result.rows) == 4
    for row in result.rows:
        print(
            f"T={row.T} N̄={row.avg_delay:.6g} R={row.redundancy:.6g} "
            f"R*N̄^(5/3)={row.r_times_nbar_5_3:.6g}"
        )
    assert result.slope is not None
    assert result.slope <= -1.0


def test_criterion_08_shift_search_lands_within_two_over_t(binary_model):
    denominators = best_approx_denominators(-math.log2(0.6), 2000)
    assert denominators[:6] == [1, 3, 4, 19, 422, 1707]
    rng = random.Random(1008)
    for T in denominators[:6]:
        bound = 2.0 / T + 1e-12
        for _ in range(100):
            profile = (rng.randrange(300), rng.randrange(300))
            shift, f = find_shift(binary_model, profile, T, side="low")
            assert 0 <= shift < T
            assert f <= bound
            shift, f = find_shift(binary_model, profile, T, side="high")
            assert 0 <= shift < T
            assert 1.0 - f <= bound


def test_criterion_09_sentinel_run_mass_and_length(binary_model):
    for D in (1, 2, 3):
        words, _tail = sentinel_runs(binary_model, D, 60)
        mass = math.fsum(word_probability(binary_model, w) for w in words)
        assert abs(mass - 1.0) <= 1e-6
        avg = math.fsum(
            word_probability(binary_model, w) * len(w) for w in words
        )
        assert abs(avg - D / 0.4) <= 1e-4


def test_criterion_10_single_digit_flip_damage(reference_book, vf3_book):
    report = sync_error_experiment(
        vf3_book, trials=1000, message_len=1000, seed=0
    )
    assert report.single_word_fraction == 1.0
    assert report.histogram == {1: 1000}

    # variable-length codes lose synchronization for a stretch; reported
    # without a pass bound
    vv = sync_error_experiment(reference_book, trials=200, message_len=500, seed=0)
    assert sum(vv.histogram.values()) == 200
    print(
        f"vv damage: mean={vv.mean_affected:.3f} "
        f"max={vv.max_affected} histogram={vv.histogram}"
    )


def test_criterion_11_cli_outputs_are_deterministic(tmp_path, capsys):
    def run(*args: str) -> None:
        assert main(list(args)) == 0

    outputs = {}
    for tag in ("one", "two"):
        vv = tmp_path / f"vv-{tag}.json"
        vf = tmp_path / f"vf-{tag}.json"
        sync = tmp_path / f"sync-{tag}.json"
        csv = tmp_path / f"scaling-{tag}.csv"
        sj = tmp_path / f"scaling-{tag}.json"
        run("construct-vv", "--probs", "0.4,0.6",
            "--m1", ",".join(REFERENCE_M1), "--m2", ",".join(REFERENCE_M2),
            "--out", str(vv))
        run("construct-vf", "--probs", "0.4,0.6", "--L", "3", "--out", str(vf))
        run("experiment", "sync", "--book", str(vf), "--trials", "50",
            "--message-len", "100", "--seed", "3", "--json", str(sync))
        run("experiment", "scaling", "--probs", "0.4,0.6",
            "--t-list", "1,3,4", "--csv", str(csv), "--json", str(sj))
        outputs[tag] = [p.read_bytes() for p in (vv, vf, sync, csv, sj)]
    capsys.readouterr()
    assert outputs["one"] == outputs["two"]
    assert load_book(str(tmp_path / "vv-one.json")).kind == "vv"
