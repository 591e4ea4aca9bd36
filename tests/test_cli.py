"""Code book files and the command-line interface."""

from __future__ import annotations

import dataclasses
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import wordcodes
from wordcodes.cli import main
from wordcodes.codec import PAD_TRAILER, decode_message
from wordcodes.codebook import CodeBook
from wordcodes.analysis import scaling_experiment
from wordcodes.diophantine import best_approx_denominators
from wordcodes.errors import InputError, ResourceError, ValidationError
from wordcodes.serialization import (
    FORMAT_TAG,
    book_from_json,
    book_to_json,
    load_book,
    save_book,
)
from wordcodes.source_model import make_model, word_probabilities
from wordcodes.vf_construct import construct_block, find_block_parameters
from wordcodes.vv_construct import construct_vv, huffman_lengths
from wordcodes.word_sets import sentinel_runs

REFERENCE_ARGS = ["--probs", "0.4,0.6"]
REFERENCE_M1 = "a,baa,bab,bba,bbb"
REFERENCE_M2 = "ab,ba,bbb,bba,aab,aaa"


def test_book_json_round_trip_is_byte_identical(reference_book, vf3_book):
    for book in (reference_book, vf3_book):
        text = book_to_json(book)
        loaded = book_from_json(text)
        assert book_to_json(loaded) == text
        assert loaded.kind == book.kind
        assert loaded.words == book.words
        assert loaded.codewords == book.codewords


def test_book_json_rejects_malformed_input(reference_book):
    with pytest.raises(InputError):
        book_from_json("this is not json")
    with pytest.raises(InputError):
        book_from_json(json.dumps({"format": "something-else"}))
    payload = json.loads(book_to_json(reference_book))
    del payload["provenance"]
    assert book_from_json(json.dumps(payload)).provenance == {}
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
        # a provenance that is present must be an object, even a falsy one
        lambda p: p.update(provenance=[]),
        lambda p: p.update(provenance=0),
        lambda p: p.update(provenance=""),
        lambda p: p.update(provenance=False),
        lambda p: p.update(provenance=None),
        # a string is not split into labels, nor into probabilities
        lambda p: p.update(alphabet="".join(p["alphabet"])),
        lambda p: p.update(probs=p["probs"][0]),
        lambda p: p.update(probs=dict.fromkeys(p["probs"])),
        # labels are one character each
        lambda p: p.update(alphabet=["x1", "y1"]),
        # one label per probability: an empty alphabet is not the default
        lambda p: p.update(alphabet=[]),
        # a kind is a string, and the rows are a list, even an empty one
        lambda p: p.update(kind=5),
        lambda p: p.update(kind=None),
        lambda p: p.update(kind=["vv"]),
        lambda p: p.update(words={}),
        lambda p: p.update(words=""),
    ]
    for edit in edits:
        payload = json.loads(json.dumps(good))
        edit(payload)
        yield json.dumps(payload)


def _incomplete_book():
    """The words a, ba, bba, ..., b^39 a on (0.5, 0.5), each coded by its
    own letters as binary digits, written from the columns: prefix-free
    words and codewords, but the words miss the message b^40, so their
    length Kraft sum is 1 - 2^-40 and the set is not complete."""
    model = make_model(["0.5", "0.5"], 2)
    words = sentinel_runs(model, 1, 40)[0]
    codewords = ["".join(str(s - 1) for s in w) for w in words]
    return CodeBook(
        model, "vv", words, codewords, word_probabilities(model, words)
    )


def test_book_json_validates_the_reloaded_code(reference_book):
    payload = json.loads(book_to_json(reference_book))
    assert payload["format"] == FORMAT_TAG
    payload["words"][0]["codeword"] = payload["words"][1]["codeword"]
    with pytest.raises(ValidationError):
        book_from_json(json.dumps(payload))
    with pytest.raises(ValidationError, match="input word set is not complete"):
        book_from_json(book_to_json(_incomplete_book()))


def test_save_and_load_round_trip(tmp_path, vf3_book):
    path = tmp_path / "book.json"
    save_book(vf3_book, str(path))
    loaded = load_book(str(path))
    assert book_to_json(loaded) == book_to_json(vf3_book)


def test_a_failed_save_leaves_the_old_file_alone(tmp_path, vf3_book):
    """The writer runs before the file is opened: a book it refuses, for a
    symbol outside 1..m or a provenance JSON cannot encode, leaves the
    file saved before it byte for byte."""
    path = tmp_path / "book.json"
    save_book(vf3_book, str(path))
    saved = path.read_bytes()
    outside = dataclasses.replace(
        vf3_book, words=((0, *vf3_book.words[0][1:]), *vf3_book.words[1:])
    )
    unencodable = dataclasses.replace(vf3_book, provenance={"x": {1, 2}})
    for book, error in ((outside, InputError), (unencodable, TypeError)):
        with pytest.raises(error):
            save_book(book, str(path))
        assert path.read_bytes() == saved


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
    words = sorted(map(book.model.word_to_text, book.words))
    assert words == ["a", "ba", "bba", "bbb"]
    # threshold options have no effect on explicit sets, so they are refused
    for flag, value in (("--T", "3"), ("--cap", "4"), ("--accuracy", "0.1")):
        code = main(["construct-vv", *REFERENCE_ARGS, "--m1", "a,b", flag,
                     value])
        assert code == 2
        assert "explicit word lists take no" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["", ","], ids=["empty", "comma"])
@pytest.mark.parametrize(
    "flag, message",
    [
        ("--m1", "the first word list is empty"),
        ("--m2", "a second word list was given without a first one"),
    ],
    ids=["m1", "m2"],
)
def test_cli_empty_word_lists_are_refused(flag, message, value, capsys):
    """An empty --m1 or --m2 is a word list with no words, not a flag left
    out: it exits 2 rather than running the automatic build."""
    code = main(["construct-vv", *REFERENCE_ARGS, flag, value])
    captured = capsys.readouterr()
    assert code == 2
    assert message in captured.err
    assert "kind=vv" not in captured.out


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


@pytest.mark.parametrize(
    "args, labels, weights",
    [
        (["--probs", "0.2,0.8", "--T", "8"], "ab", (0.2, 0.8)),
        (["--probs", "0.2,0.8", "--labels", "αβ", "--T", "8"], "αβ", (0.2, 0.8)),
        (["--probs", "0.2,0.3,0.5", "--arity", "3", "--T", "5"], "abc",
         (0.2, 0.3, 0.5)),
    ],
)
def test_cli_decode_writes_the_text_the_per_symbol_labels_give(
    tmp_path, capsys, args, labels, weights
):
    book_path = tmp_path / "vv.json"
    assert main(["construct-vv", *args, "--out", str(book_path)]) == 0
    text = "".join(random.Random(21).choices(labels, weights, k=30_000))
    message = tmp_path / "message.txt"
    message.write_text(
        "\n".join(text[i : i + 80] for i in range(0, len(text), 80)) + "\n",
        encoding="utf-8",
    )
    digits = tmp_path / "digits.txt"
    decoded = tmp_path / "decoded.txt"
    assert main(["encode", "--book", str(book_path), "--in", str(message),
                 "--out", str(digits)]) == 0
    assert main(["decode", "--book", str(book_path), "--in", str(digits),
                 "--out", str(decoded)]) == 0
    # the per-symbol path: each decoded symbol's label, one at a time
    book = load_book(str(book_path))
    lines = digits.read_text(encoding="utf-8").splitlines()
    pads = [int(x[len(PAD_TRAILER) :]) for x in lines if x.startswith(PAD_TRAILER)]
    body = "".join(x for x in lines if not x.startswith(PAD_TRAILER))
    symbols = decode_message(book, body, sum(pads))
    want = "".join(book.model.word_to_text((s,)) for s in symbols) + "\n"
    assert decoded.read_text(encoding="utf-8") == want == text + "\n"
    assert (book.model.texts_from_words([symbols]) is None) == (labels == "αβ")
    capsys.readouterr()


def test_cli_encode_keeps_whitespace_that_is_a_label(tmp_path, capsys):
    book_path = tmp_path / "vv.json"
    assert main(["construct-vv", "--probs", "0.2,0.3,0.5", "--labels", "a b",
                 "--T", "3", "--out", str(book_path)]) == 0
    message = tmp_path / "message.txt"
    message.write_text("a b a  bb\n", encoding="utf-8")
    digits = tmp_path / "digits.txt"
    assert main(["encode", "--book", str(book_path), "--in", str(message),
                 "--out", str(digits)]) == 0
    decoded = tmp_path / "decoded.txt"
    assert main(["decode", "--book", str(book_path), "--in", str(digits),
                 "--out", str(decoded)]) == 0
    # the newline is no label, so it still separates
    assert decoded.read_text(encoding="utf-8") == "a b a  bb\n"
    capsys.readouterr()


def test_cli_encode_drops_whitespace_that_is_no_label(tmp_path, capsys):
    book_path = tmp_path / "vf.json"
    assert main(["construct-vf", *REFERENCE_ARGS, "--L", "3",
                 "--out", str(book_path)]) == 0
    text = " ab\t\r\nba\x0b\x0cb\u00a0a\u2003bb\u3000a \n"
    outputs = []
    for name, body in (("spaced", text), ("bare", "".join(text.split()))):
        message = tmp_path / f"{name}.txt"
        message.write_text(body, encoding="utf-8", newline="")
        digits = tmp_path / f"{name}.digits"
        assert main(["encode", "--book", str(book_path), "--in", str(message),
                     "--out", str(digits)]) == 0
        outputs.append(digits.read_bytes())
    assert outputs[0] == outputs[1]
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
    # a saved block book reads back with every metric line it was built
    # with, the rounding-noise residual included
    block_path = tmp_path / "block.json"
    assert main(["construct-block", "--input-size", "3", "--pair-index", "1",
                 "--out", str(block_path)]) == 0
    header, *built, saved = capsys.readouterr().out.splitlines()
    assert (header, saved) == ("kind=block X=5 L=8", f"saved={block_path}")
    assert main(["analyze", "--book", str(block_path)]) == 0
    kind, *loaded = capsys.readouterr().out.splitlines()
    assert kind == "kind=block" and "words=243" in loaded
    assert loaded == built
    assert loaded[-1].startswith("identity_residual=")


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
    # README's ladder: T=19's delay differs from the rest, so a slope is fit
    code = main(["experiment", "scaling", *REFERENCE_ARGS,
                 "--t-list", "1,3,4,19"])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[-1] == "slope=-1.0689"
    # --t-max sets the auto ladder, so it is an error next to --t-list
    code = main(["experiment", "scaling", *REFERENCE_ARGS,
                 "--t-list", "1,3,4", "--t-max", "5"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "--t-max" in captured.err
    # a --t-max below 1 is refused under its own name, for irrational and
    # rational sources alike
    for source in (REFERENCE_ARGS, ["--probs", "0.5,0.25,0.25"]):
        for t_max in ("0", "-3"):
            code = main(["experiment", "scaling", *source, "--t-max", t_max])
            assert code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"t_max must be >= 1, got {t_max}" in captured.err
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


def _readme_walkthrough() -> tuple[str, str]:
    """The ```sh block under "## CLI walkthrough" in README.md, and the
    output it shows for its first command: the `# ` lines under that
    command, up to `# ...`, without their `# `."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split(
        "\n## CLI walkthrough\n", 1
    )[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = iter(block.splitlines())
    line = next(lines)
    while line.startswith("#"):  # comments before the first command
        line = next(lines)
    while line.endswith("\\"):  # the first command's continued lines
        line = next(lines)
    shown = []
    for line in lines:
        if line == "# ...":
            break
        assert line.startswith("# "), line
        shown.append(line[2:] + "\n")
    return block, "".join(shown)


def test_readme_cli_walkthrough_runs_as_written(tmp_path):
    """The README's CLI walkthrough runs under `bash -e`, in an empty
    directory, with `wordcodes` as `python -m wordcodes` on this
    checkout's source: it exits 0, its first command prints what the
    README shows, and the decoded message is the message plus a
    newline."""
    block, shown = _readme_walkthrough()
    assert shown.startswith("kind=vv")
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "wordcodes"
    shim.write_text(
        f'#!/bin/sh\nexec "{sys.executable}" -m wordcodes "$@"\n',
        encoding="utf-8",
    )
    shim.chmod(0o755)
    src = str(Path(wordcodes.__file__).parents[1])
    env = {
        **os.environ,
        "PYTHONPATH": src,
        "PATH": f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}",
    }
    work = tmp_path / "work"
    work.mkdir()
    run = subprocess.run(
        ["bash", "-e", "-c", block],
        cwd=work, capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    # the first command is the first to print
    assert run.stdout.startswith(shown), run.stdout
    message = (work / "message.txt").read_text(encoding="utf-8")
    assert message
    assert (work / "roundtrip.txt").read_text(encoding="utf-8") == (
        message + "\n"
    )


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
    # a word set that misses a message, as word lists and as a book file
    # that parses but breaks the book contract
    incomplete = _incomplete_book()
    m1 = ",".join(map(incomplete.model.word_to_text, incomplete.words))
    assert main(["construct-vv", "--probs", "0.5,0.5", "--m1", m1]) == 3
    save_book(incomplete, str(garbage))
    assert main(["analyze", "--book", str(garbage)]) == 3
    # a kind and rows of the right type that break the book contract
    for edit in ({"kind": "xyz"}, {"words": []}):
        payload = {**json.loads(book_to_json(reference_book)), **edit}
        garbage.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["analyze", "--book", str(garbage)]) == 3
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err and not captured.out


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


_REFERENCE_MODEL = make_model(["0.4", "0.6"], 2)
_TWENTY_SEVEN_SYMBOLS = ",".join(["1/27"] * 27)


@pytest.mark.parametrize(
    "call, error, argv, code, text",
    [
        (lambda: construct_vv(_REFERENCE_MODEL, first_words=[(1,), (2,)],
                              enum_limit=1),
         ResourceError,
         ["construct-vv", *REFERENCE_ARGS, "--m1", "a,b", "--enum-limit", "1"],
         3, "explicit word lists exceed 1 words"),
        (lambda: find_block_parameters(3, 1), InputError,
         ["construct-block", "--input-size", "3", "--arity", "1",
          "--list-pairs", "1"],
         2, "output alphabet needs >= 2 digits, got 1"),
        (lambda: construct_block(3, 1, 1, 2), InputError,
         ["construct-block", "--input-size", "3", "--arity", "1",
          "--X", "1", "--L", "2"],
         2, "output alphabet needs >= 2 digits, got 1"),
        (lambda: scaling_experiment(_REFERENCE_MODEL, t_list=[]), InputError,
         ["experiment", "scaling", *REFERENCE_ARGS, "--t-list", ","],
         2, "no threshold parameters to scan"),
        (lambda: best_approx_denominators(0.3, 0), InputError, None, None,
         "q_max must be >= 1, got 0"),
        (lambda: make_model(["1/27"] * 27, 2), InputError,
         ["construct-vv", "--probs", _TWENTY_SEVEN_SYMBOLS],
         2, "provide labels explicitly for more than 26 symbols"),
        (lambda: construct_vv(_REFERENCE_MODEL, T=4, cap=0), InputError,
         ["construct-vv", *REFERENCE_ARGS, "--T", "4", "--cap", "0"],
         2, "cap must be >= 1, got 0"),
        (lambda: huffman_lengths([], 2), InputError, None, None,
         "cannot build a code for zero words"),
    ],
)
def test_public_input_checks_name_the_bad_value(
    capsys, call, error, argv, code, text
):
    """Input checks of the public calls: the exact refusal, and, where the
    command line reaches the check, its exit code and its one error line."""
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == text
    if argv is not None:
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.err == f"error: {text}\n"
        assert "Traceback" not in captured.err


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
