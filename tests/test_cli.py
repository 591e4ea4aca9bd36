"""Code book files and the command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import wordcodes
from wordcodes.cli import main
from wordcodes.errors import InputError, ValidationError
from wordcodes.serialization import (
    FORMAT_TAG,
    book_from_json,
    book_to_json,
    load_book,
    save_book,
)

REFERENCE_ARGS = ["--probs", "0.4,0.6"]
REFERENCE_M1 = "a,baa,bab,bba,bbb"
REFERENCE_M2 = "ab,ba,bbb,bba,aab,aaa"


def test_book_json_round_trip_is_byte_identical(reference_book, vf3_book):
    for book in (reference_book, vf3_book):
        text = book_to_json(book)
        loaded = book_from_json(text)
        assert book_to_json(loaded) == text
        assert loaded.kind == book.kind
        assert [e.word for e in loaded.entries] == [
            e.word for e in book.entries
        ]
        assert [e.codeword for e in loaded.entries] == [
            e.codeword for e in book.entries
        ]


def test_book_json_rejects_malformed_input(reference_book):
    with pytest.raises(InputError):
        book_from_json("this is not json")
    with pytest.raises(InputError):
        book_from_json(json.dumps({"format": "something-else"}))
    payload = json.loads(book_to_json(reference_book))
    del payload["words"]
    with pytest.raises(InputError):
        book_from_json(json.dumps(payload))
    for text in _malformed_books(reference_book):
        with pytest.raises(InputError):
            book_from_json(text)


def _malformed_books(book):
    """Book files that parse as JSON but carry fields of the wrong type."""
    good = json.loads(book_to_json(book))
    edits = [
        lambda p: p.update(arity=2.5),
        lambda p: p["words"][0].update(codeword=5),
        lambda p: p["words"][0].update(codeword=["0"]),
        lambda p: p.update(provenance="x"),
        lambda p: p["words"][0].update(symbols=list(p["words"][0]["symbols"])),
    ]
    for edit in edits:
        payload = json.loads(json.dumps(good))
        edit(payload)
        yield json.dumps(payload)


def test_book_json_validates_the_reloaded_code(reference_book):
    payload = json.loads(book_to_json(reference_book))
    assert payload["format"] == FORMAT_TAG
    payload["words"][0]["codeword"] = payload["words"][1]["codeword"]
    with pytest.raises(ValidationError):
        book_from_json(json.dumps(payload))


def test_save_and_load_round_trip(tmp_path, vf3_book):
    path = tmp_path / "book.json"
    save_book(vf3_book, str(path))
    loaded = load_book(str(path))
    assert book_to_json(loaded) == book_to_json(vf3_book)


def test_cli_construct_vv_explicit_sets(tmp_path, capsys):
    out = tmp_path / "vv.json"
    code = main(
        ["construct-vv", *REFERENCE_ARGS, "--m1", REFERENCE_M1,
         "--m2", REFERENCE_M2, "--out", str(out)]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "kind=vv path=extended" in printed
    assert "words=4" in printed
    assert "N̄=1.96" in printed
    assert "R=0.0290" in printed
    assert f"saved={out}" in printed
    book = load_book(str(out))
    words = sorted(book.model.word_to_text(e.word) for e in book.entries)
    assert words == ["a", "ba", "bba", "bbb"]
    # threshold options have no effect on explicit sets, so they are refused
    for flag, value in (("--T", "3"), ("--cap", "4"), ("--accuracy", "0.1")):
        code = main(["construct-vv", *REFERENCE_ARGS, "--m1", "a,b", flag,
                     value])
        assert code == 2
        assert "explicit word lists take no" in capsys.readouterr().err


def test_cli_construct_vf_reports_mode_and_metrics(tmp_path, capsys):
    out = tmp_path / "vf.json"
    code = main(["construct-vf", *REFERENCE_ARGS, "--L", "3", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "kind=vf mode=window L=3" in printed
    assert "N̄=2.36" in printed
    assert "delta=0.375" in printed
    assert load_book(str(out)).kind == "vf"


def test_cli_encode_decode_round_trip(tmp_path, capsys):
    book_path = tmp_path / "vf.json"
    assert main(["construct-vf", *REFERENCE_ARGS, "--L", "3",
                 "--out", str(book_path)]) == 0
    message = tmp_path / "message.txt"
    message.write_text("ab\nbab\n", encoding="utf-8")
    digits = tmp_path / "digits.txt"
    assert main(["encode", "--book", str(book_path), "--in", str(message),
                 "--out", str(digits)]) == 0
    assert digits.read_text(encoding="utf-8") == "000001010\n#pad=2\n"
    decoded = tmp_path / "decoded.txt"
    assert main(["decode", "--book", str(book_path), "--in", str(digits),
                 "--out", str(decoded)]) == 0
    assert decoded.read_text(encoding="utf-8") == "abbab\n"
    capsys.readouterr()


def test_cli_decode_skips_comment_lines(tmp_path, capsys):
    book_path = tmp_path / "vf.json"
    assert main(["construct-vf", *REFERENCE_ARGS, "--L", "3",
                 "--out", str(book_path)]) == 0
    digits = tmp_path / "digits.txt"
    digits.write_text("# produced by hand\n000\n001\n", encoding="utf-8")
    out = tmp_path / "decoded.txt"
    assert main(["decode", "--book", str(book_path), "--in", str(digits),
                 "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == "abba\n"
    capsys.readouterr()


def test_cli_encode_and_decode_reject_malformed_input_files(tmp_path, capsys):
    book_path = tmp_path / "vf.json"
    assert main(["construct-vf", *REFERENCE_ARGS, "--L", "3",
                 "--out", str(book_path)]) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.txt"
    out = tmp_path / "out.txt"
    runs = [
        ("decode", f"000001010\n{trailer}\n".encode("utf-8"))
        for trailer in ["#pad=x", "#pad=-3", "#pad=", "#pad=1.5"]
    ]
    # A trailer is valid only once, as the last non-comment line.
    runs += [("decode", b"000\n#pad=1\n001\n#pad=0\n"),
             ("decode", b"000\n#pad=1\n001\n"),
             ("decode", b"000\n#pad=1\n#pad=1\n")]
    not_utf8 = "a\xe9".encode("latin-1")
    runs += [("encode", not_utf8), ("decode", not_utf8)]
    for command, payload in runs:
        bad.write_bytes(payload)
        assert main([command, "--book", str(book_path), "--in", str(bad),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


def test_cli_rejects_bad_integer_arguments(capsys):
    runs = [
        ["construct-vv", *REFERENCE_ARGS, "--T", "abc"],
        ["construct-vv", *REFERENCE_ARGS, "--T", "4", "--cap", "x"],
        ["construct-vv", *REFERENCE_ARGS, "--T", "0"],
        ["construct-vv", *REFERENCE_ARGS, "--T", "-2", "--cap", "16"],
        ["experiment", "scaling", *REFERENCE_ARGS, "--t-list", "3,x"],
        ["experiment", "scaling", *REFERENCE_ARGS, "--t-list", "0"],
        ["construct-vv", *REFERENCE_ARGS, "--T", "4", "--enum-limit", "-1"],
    ]
    for argv in runs:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


def test_cli_block_pair_index_fails_fast_and_names_the_flag(capsys):
    # the 100000th pair of log2(3) does not exist; before, a float-precision
    # convergent counted as an exact ratio and 3**X with X ~ 1.9e10 was built
    start = time.perf_counter()
    assert main(["construct-block", "--input-size", "3",
                 "--pair-index", "100000"]) == 3
    assert main(["construct-block", "--input-size", "4",
                 "--pair-index", "100000"]) == 3
    assert time.perf_counter() - start < 1.0
    capsys.readouterr()
    for flag in ("--pair-index", "--list-pairs"):
        assert main(["construct-block", "--input-size", "3", flag, "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and flag in err
    # a flag the command would ignore is an error naming it
    for flag, argv in [
        ("--X", ["--X", "5"]),
        ("--L", ["--L", "8"]),
        ("--pair-index", ["--X", "5", "--L", "8", "--pair-index", "0"]),
        ("--X, --L", ["--list-pairs", "2", "--X", "5", "--L", "8"]),
    ]:
        assert main(["construct-block", "--input-size", "3", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and flag in captured.err


def test_cli_encode_no_pad_fails_inside_a_word(tmp_path, capsys):
    book_path = tmp_path / "vf.json"
    assert main(["construct-vf", *REFERENCE_ARGS, "--L", "3",
                 "--out", str(book_path)]) == 0
    message = tmp_path / "message.txt"
    message.write_text("b\n", encoding="utf-8")
    code = main(["encode", "--book", str(book_path), "--in", str(message),
                 "--no-pad"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_cli_analyze_prints_metric_tokens(tmp_path, capsys):
    book_path = tmp_path / "vf.json"
    assert main(["construct-vf", *REFERENCE_ARGS, "--L", "3",
                 "--out", str(book_path)]) == 0
    capsys.readouterr()
    assert main(["analyze", "--book", str(book_path)]) == 0
    printed = capsys.readouterr().out
    for token in ("kind=vf", "words=5", "N̄=2.36", "N=3", "R=0.3002",
                  "delta=0.375", "lower=", "upper=", "identity_residual="):
        assert token in printed


def test_cli_scaling_writes_csv(tmp_path, capsys):
    csv_path = tmp_path / "scaling.csv"
    code = main(["experiment", "scaling", *REFERENCE_ARGS,
                 "--t-list", "1,3,4", "--csv", str(csv_path)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "slope=n/a" in printed
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == (
        "T,T2,avg_delay,max_delay,redundancy,r_times_nbar_5_3,r_times_nbar"
    )
    assert len(lines) == 4
    assert lines[1].startswith("1,")
    # --t-max sets the auto ladder, so it is an error next to --t-list
    code = main(["experiment", "scaling", *REFERENCE_ARGS,
                 "--t-list", "1,3,4", "--t-max", "5"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "--t-max" in captured.err
    # without --t-list the ladder is the source's candidates up to --t-max;
    # the JSON rows carry the CSV's columns under its header names
    json_path = tmp_path / "scaling.json"
    code = main(["experiment", "scaling", *REFERENCE_ARGS, "--t-max", "4",
                 "--csv", str(csv_path), "--json", str(json_path)])
    assert code == 0
    assert [line.split()[0] for line in capsys.readouterr().out.splitlines()
            if line.startswith("T=")] == ["T=1", "T=3", "T=4"]
    header, *lines = csv_path.read_text(encoding="utf-8").splitlines()
    rows = json.loads(json_path.read_text(encoding="utf-8"))["rows"]
    assert [
        [repr(row[name]) for name in header.split(",")] for row in rows
    ] == [line.split(",") for line in lines]


def test_python_m_wordcodes_runs_the_cli(capsys):
    """`python -m wordcodes` prints what `cli.main` prints and exits with
    its code."""
    args = ["construct-block", "--input-size", "3", "--list-pairs", "3"]
    code = main(args)
    src = str(Path(wordcodes.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run(
        [sys.executable, "-m", "wordcodes", *args],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (run.returncode, run.stdout) == (code, capsys.readouterr().out)


def test_cli_sync_writes_json_summary(tmp_path, capsys):
    book_path = tmp_path / "vf.json"
    assert main(["construct-vf", *REFERENCE_ARGS, "--L", "3",
                 "--out", str(book_path)]) == 0
    json_path = tmp_path / "sync.json"
    code = main(["experiment", "sync", "--book", str(book_path),
                 "--trials", "50", "--message-len", "100", "--seed", "1",
                 "--json", str(json_path)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "single_word_fraction=1.0000" in printed
    payload = json.loads(json_path.read_text(encoding="utf-8"))
    assert payload["kind"] == "vf"
    assert payload["trials"] == 50
    assert payload["single_word_fraction"] == 1.0
    assert payload["histogram"] == {"1": 50}


def test_cli_block_list_pairs(capsys):
    code = main(["construct-block", "--input-size", "3", "--list-pairs", "3"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "X=1 L=2 r_bound=1",
        "X=5 L=8 r_bound=0.04",
        "X=41 L=65 r_bound=0.000594884",
    ]


def test_cli_exit_codes(tmp_path, capsys, reference_book):
    # malformed input values
    assert main(["construct-vv", "--probs", "0.4,0.5"]) == 2
    # well-formed but unsatisfiable requests
    assert main(["construct-vf", "--probs", "0.2,0.3,0.5", "--L", "1"]) == 3
    assert main(["construct-block", "--input-size", "3",
                 "--X", "41", "--L", "65"]) == 3
    # file problems
    assert main(["analyze", "--book", str(tmp_path / "missing.json")]) == 4
    garbage = tmp_path / "garbage.json"
    garbage.write_text("junk\n", encoding="utf-8")
    assert main(["analyze", "--book", str(garbage)]) == 2
    for text in _malformed_books(reference_book):
        garbage.write_text(text, encoding="utf-8")
        assert main(["analyze", "--book", str(garbage)]) == 2
    capsys.readouterr()


def test_cli_analyze_rejects_undecodable_and_deeply_nested_books(
    tmp_path, capsys, reference_book
):
    path = tmp_path / "book.json"
    not_utf8 = book_to_json(reference_book).replace('"a"', '"\xe9"')
    path.write_bytes(not_utf8.encode("latin-1"))
    with pytest.raises(InputError):
        load_book(str(path))
    assert main(["analyze", "--book", str(path)]) == 2
    path.write_text("[" * 200000, encoding="utf-8")
    with pytest.raises(InputError):
        load_book(str(path))
    assert main(["analyze", "--book", str(path)]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_cli_metrics_grade_has_no_book_to_save(tmp_path, capsys):
    out = tmp_path / "never.json"
    code = main(["construct-vv", *REFERENCE_ARGS, "--T", "19",
                 "--grade", "metrics", "--out", str(out)])
    assert code == 2
    assert not out.exists()
    capsys.readouterr()


def test_cli_rejects_bad_threshold_widths(capsys):
    for width in ("-1", "nan", "0", "inf"):
        argv = ["construct-vv", *REFERENCE_ARGS, "--T", "4", "--accuracy", width]
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
    # a width of 1 or more is legal
    assert main(["construct-vv", *REFERENCE_ARGS, "--T", "4",
                 "--accuracy", "1"]) == 0
    capsys.readouterr()
