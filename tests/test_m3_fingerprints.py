"""Pinned outputs of seeded three-symbol threshold builds, on every path.

The perfbench goldens hold one full-size three-symbol build, on the
swapped path.  These cases cover the base, swapped and extended merge
paths (the extended one runs the knockout sweep) and both codeword
assignments, plus a few four-symbol builds, which take the generic
slicing walks.  Each case pins the provenance JSON, `repr` of
`dp_metrics` and the sha256 of the book JSON.

The fingerprints in `data/m3_fingerprints.json` were recorded before the
three-symbol walks were unrolled; record them again only from a tree whose
outputs are known to be right:

    PYTHONPATH=src python3 tests/test_m3_fingerprints.py
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from wordcodes.serialization import book_to_json
from wordcodes.source_model import make_model
from wordcodes.vv_construct import construct_vv

DATA = Path(__file__).parent / "data" / "m3_fingerprints.json"

# (weights, arity, T, assignment, expected merge path or None)
CASES = [
    ((4, 10, 13), 2, 3, "huffman", "base"),
    ((12, 1, 4), 3, 6, "huffman", "base"),
    ((19, 6, 1), 2, 4, "huffman", "base"),
    ((6, 4, 20), 3, 4, "huffman", "base"),
    ((5, 2, 10), 3, 3, "canonical", "base"),
    ((13, 13, 14), 2, 7, "huffman", "swapped"),
    ((17, 19, 5), 2, 3, "huffman", "swapped"),
    ((16, 4, 16), 2, 7, "huffman", "swapped"),
    ((20, 19, 5), 2, 8, "huffman", "swapped"),
    ((12, 12, 13), 2, 7, "canonical", "swapped"),
    ((3, 15, 10), 2, 4, "huffman", "swapped"),
    ((2, 4, 4), 2, 7, "huffman", "extended"),
    ((13, 20, 7), 3, 4, "huffman", "extended"),
    ((12, 12, 4), 3, 7, "huffman", "extended"),
    ((2, 7, 6), 3, 6, "huffman", "extended"),
    ((2, 2, 1), 3, 5, "canonical", "extended"),
    ((11, 11, 3), 3, 5, "huffman", "extended"),
    ((17, 13, 4), 3, 4, "huffman", "extended"),
    ((17, 14, 14), 2, 5, "huffman", "extended"),
    # auto T rejects the larger candidates inside the joint DP
    ((2, 3, 5), 3, "auto", "huffman", "base"),
    ((3, 5, 4, 8), 2, 3, "huffman", None),
    ((1, 2, 3, 4), 2, 4, "huffman", None),
    ((2, 3, 5, 7, 11), 3, 3, "huffman", None),
]


def _case_id(case) -> str:
    weights, arity, T, assignment, _ = case
    return f"{'-'.join(map(str, weights))}_n{arity}_T{T}_{assignment}"


def fingerprint(case) -> dict:
    weights, arity, T, assignment, _ = case
    total = sum(weights)
    model = make_model([Fraction(w, total) for w in weights], arity)
    result = construct_vv(model, T=T, assignment=assignment)
    book_json = book_to_json(result.book)
    return {
        "provenance": json.dumps(result.provenance, sort_keys=True),
        "dp_metrics": repr(result.dp_metrics),
        "book_sha256": hashlib.sha256(book_json.encode("utf-8")).hexdigest(),
    }


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(DATA.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_threshold_build_matches_its_pinned_fingerprint(case, pinned):
    got = fingerprint(case)
    assert got == pinned[_case_id(case)]
    path = case[4]
    if path is not None:
        assert json.loads(got["provenance"])["path"] == path


def test_every_merge_path_is_pinned_for_three_symbols():
    paths = {path for weights, *_, path in CASES if len(weights) == 3}
    assert paths == {"base", "swapped", "extended"}


if __name__ == "__main__":
    DATA.write_text(
        json.dumps(
            {_case_id(case): fingerprint(case) for case in CASES},
            indent=1,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
