"""Seeded fuzzing of the three entry points that read outside input.

The book loader, the decoder and the command line get truncated, wrongly
typed and adversarial input from a seeded `random.Random`.  The only
errors allowed out are the documented ones: `InputError` and
`ValidationError` from the loader, `InputError` and `DecodeError` from the
decoder, and exit codes 2, 3 and 4 (or 0) from `cli.main`.  Anything else,
a bare `ValueError` or `IndexError` say, fails the test with the input
that raised it.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

import pytest

from wordcodes import cli
from wordcodes.codec import decode_message
from wordcodes.errors import DecodeError, InputError, ValidationError
from wordcodes.serialization import book_from_json, book_to_json
from wordcodes.source_model import make_model
from wordcodes.vf_construct import construct_vf
from wordcodes.vv_construct import construct_vv


@pytest.fixture(scope="module")
def books():
    return [
        construct_vf(make_model(["0.4", "0.6"], 2), 5).book,
        construct_vf(make_model(["0.2", "0.3", "0.5"], 3), 3).book,
        construct_vv(make_model(["0.2", "0.8"], 2), T=5).book,
        construct_vf(make_model(["1/3", "2/3"], 2, labels=["é", '"']), 4).book,
    ]


# values a mutated field may take: wrong types, empty, out of range
JUNK = [None, 0, -1, 2.5, True, "", "x", [], {}, [1, 2], {"a": 1}, "2"]


def _mutate_row(rng: random.Random, rows: list, model) -> None:
    at = rng.randrange(len(rows))
    row = rows[at]
    if not isinstance(row, dict):
        return
    roll = rng.random()
    if roll < 0.1:
        rows[at] = rng.choice(JUNK)
    elif roll < 0.2:
        row.pop(rng.choice(["symbols", "codeword"]), None)
    elif roll < 0.35:
        row[rng.choice(["symbols", "codeword"])] = rng.choice(JUNK)
    elif roll < 0.5:
        row["codeword"] = rng.choice(["", "0", "9", "01x", "0" * 40])
    else:
        # a text holding a character no label has: ASCII, non-ASCII, the
        # bulk reader's separator, or nothing at all
        sep = model._byte_tables[0] if model._byte_tables else "\x00"
        bad = rng.choice(["z", " ", "é", "☃", sep, "\x7f", "aa"])
        text = row.get("symbols")
        text = text if isinstance(text, str) else ""
        cut = rng.randint(0, len(text))
        row["symbols"] = rng.choice(
            [text[:cut] + bad + text[cut:], "", bad, text + text]
        )


def _mutate_header(rng: random.Random, data: dict) -> None:
    key = rng.choice(
        ["arity", "probs", "alphabet", "kind", "provenance", "words", "format"]
    )
    if rng.random() < 0.2:
        data.pop(key, None)
        return
    data[key] = rng.choice(
        JUNK
        + {
            "arity": [1, 3, 37, 2**70],
            "probs": [["0.5"], ["x", "y"], ["0.4", "0.6", "0"], "0.4,0.6"],
            "alphabet": [["a"], ["a", "a"], "ab", [1, 2], ["ab", "c"]],
            "kind": ["vv", "vf", "zz"],
            "provenance": [[], "x"],
            "words": ["x", [[]], [None]],
            "format": ["wordcodes-book/2"],
        }[key]
    )


def test_book_loader_raises_only_documented_errors(books):
    rng = random.Random(2007)
    texts = [book_to_json(book) for book in books]
    for case in range(1500):
        i = rng.randrange(len(books))
        text = texts[i]
        roll = rng.random()
        if roll < 0.25:
            bad = text[: rng.randrange(len(text))]
        else:
            data = json.loads(text)
            for _ in range(rng.randint(1, 3)):
                if rng.random() < 0.7:
                    _mutate_row(rng, data["words"], books[i].model)
                else:
                    _mutate_header(rng, data)
                if not isinstance(data.get("words"), list) or not data["words"]:
                    break
            bad = json.dumps(data)
        try:
            book_from_json(bad)
        except (InputError, ValidationError):
            pass
        except Exception as exc:  # pragma: no cover - reported below
            pytest.fail(f"case {case}: {type(exc).__name__}: {exc}\n{bad[:2000]}")


def test_decoder_raises_only_documented_errors(books):
    rng = random.Random(1948)
    for case in range(1000):
        book = rng.choice(books)
        n = book.model.arity
        glyphs = "0123456789"[:n] * 8 + "29a #\n"
        digits = "".join(rng.choice(glyphs) for _ in range(rng.randint(0, 60)))
        if rng.random() < 0.5:
            digits = "".join(c for c in digits if c < str(n))
        pad = rng.randint(-3, 12)
        try:
            decode_message(book, digits, pad)
        except (InputError, DecodeError):
            pass
        except Exception as exc:  # pragma: no cover - reported below
            pytest.fail(f"case {case}: {type(exc).__name__}: {exc} {digits!r} {pad}")


def _cli_files(tmp_path, books) -> dict:
    good = tmp_path / "book.json"
    good.write_text(book_to_json(books[0]), encoding="utf-8")
    other = tmp_path / "book3.json"
    other.write_text(book_to_json(books[1]), encoding="utf-8")
    broken = tmp_path / "broken.json"
    broken.write_text(book_to_json(books[0])[:300], encoding="utf-8")
    latin = tmp_path / "latin.txt"
    latin.write_bytes(b"ab\xe9\xff")
    files = {
        "book": [good, other, broken, latin, tmp_path / "missing.json", tmp_path],
        "message": ["abba", "abz", "", "ab\nba", "a" * 50],
        "digits": [
            "0101", "0101\n#pad=1", "#pad=1\n0101", "012", "01\n#pad=x",
            "0110\n#pad=" + "9" * 5000, "01\n#pad=1\n#pad=2", "", "1111111",
        ],
    }
    paths = {"book": [str(p) for p in files["book"]]}
    for kind in ("message", "digits"):
        paths[kind] = [str(latin), str(tmp_path / "missing.txt")]
        for j, text in enumerate(files[kind]):
            path = tmp_path / f"{kind}{j}.txt"
            path.write_text(text, encoding="utf-8")
            paths[kind].append(str(path))
    return paths


# flag -> values for each subcommand; values stay small so that every
# construction the fuzzer asks for finishes in milliseconds
MODEL_FLAGS = {
    "--probs": ["0.4,0.6", "0.1,0.9", "0.2,0.3,0.5", "0.5,0.6", "x", "1",
                "0.4,0.6,0", ",", "1/3,2/3", "-0.4,1.4"],
    "--arity": ["2", "3", "1", "0", "37", "x", "-2"],
    "--labels": ["ab", "abc", "aa", "é\"", "a", ""],
}
COMMANDS = {
    "construct-vv": {
        **MODEL_FLAGS,
        "--T": ["auto", "1", "3", "4", "7", "0", "-3", "x", "9" * 5000],
        "--cap": ["auto", "1", "4", "16", "0", "-1", "x"],
        "--accuracy": ["0.1", "0", "-1", "5", "nan", "inf", "x"],
        "--grade": ["codec", "metrics", "x"],
        "--assignment": ["huffman", "canonical", "x"],
        "--m1": ["a,b", "a,ba,bb", "a,a", "z", "a", ","],
        "--m2": ["a,b", "ab,b,aa", "b"],
        "--enum-limit": ["-1", "0", "2", "30", "x"],
        "--out": ["OUT"],
    },
    "construct-vf": {**MODEL_FLAGS, "--L": ["-1", "0", "1", "3", "6", "x"],
                     "--out": ["OUT"]},
    "construct-block": {
        "--input-size": ["2", "3", "1", "0", "x"],
        "--arity": ["2", "3", "1", "x"],
        "--X": ["1", "2", "3", "0", "-1"],
        "--L": ["1", "2", "4", "0", "-2"],
        "--pair-index": ["0", "1", "-1", "100"],
        "--list-pairs": ["0", "2", "-1"],
        "--out": ["OUT"],
    },
    "analyze": {"--book": ["BOOK"]},
    "encode": {"--book": ["BOOK"], "--in": ["message"], "--out": ["OUT"],
               "--no-pad": [None]},
    "decode": {"--book": ["BOOK"], "--in": ["digits"], "--out": ["OUT"]},
    "experiment scaling": {
        **MODEL_FLAGS,
        "--t-list": ["1,3", "4", "0", "x", "1,,3", "-2"],
        "--t-max": ["1", "4", "6", "-1", "0"],
        "--csv": ["OUT"],
        "--json": ["OUT"],
    },
    "experiment sync": {
        "--book": ["BOOK"],
        "--trials": ["0", "2", "-1", "x"],
        "--message-len": ["0", "10", "-5"],
        "--seed": ["0", "7", "x"],
        "--json": ["OUT"],
    },
}


def _argv(rng: random.Random, paths: dict, out: str) -> list[str]:
    command = rng.choice(list(COMMANDS))
    flags = COMMANDS[command]
    argv = command.split()
    for flag, values in flags.items():
        # required-looking flags are usually there, the rest half the time
        if rng.random() < (0.9 if flag in ("--probs", "--book", "--in", "--L",
                                           "--input-size") else 0.4):
            argv.append(flag)
            value = rng.choice(values)
            if value == "BOOK":
                # mostly the good book, so that the command gets further
                value = rng.choice(paths["book"][:1] * 4 + paths["book"])
            elif value in ("message", "digits"):
                value = rng.choice(paths[value])
            elif value == "OUT":
                value = rng.choice([out, paths["book"][-1] + "/no/such/dir"])
            if value is not None:
                argv.append(value)
    # the defaults (a ladder up to T=19, 1000 trials of 1000 symbols) are
    # slow; keep the fuzzer fast
    if command == "experiment scaling" and "--t-list" not in argv:
        argv += ["--t-list", "1,3"]
    if command == "experiment sync":
        for flag in ("--trials", "--message-len"):
            if flag not in argv:
                argv += [flag, "10"]
    if rng.random() < 0.1:
        argv.insert(rng.randrange(len(argv) + 1), rng.choice(["--zz", "-", "x"]))
    return argv


def test_cli_exits_only_with_documented_codes(tmp_path, books):
    rng = random.Random(1807)
    paths = _cli_files(tmp_path, books)
    out = str(tmp_path / "out.txt")
    codes = set()
    for case in range(600):
        argv = _argv(rng, paths, out)
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
        except Exception as exc:  # pragma: no cover - reported below
            pytest.fail(f"case {case}: {type(exc).__name__}: {exc}\n{argv!r}"[:3000])
        assert code in (0, 2, 3, 4), (case, argv, code)
        codes.add(code)
    assert codes == {0, 2, 3, 4}
