"""The benchmark's three workloads, their inputs and their output checks.

Each workload is a list of `Op`s.  An op calls the library through module
attributes looked up at call time (`vv_construct.construct_vv(...)`), so the
tracer's patches apply to it.  Every op comes with a check that returns the
list of mismatches (empty when the output is right):

* seed-independent ops are compared with a fingerprint recorded at the
  reference commit in `golden.json` (book JSON sha256, the exact Kraft
  fraction, `repr` of redundancy and average delay, the full provenance);
* seed-dependent codec ops must round-trip exactly, must equal the output
  of the same call made during set-up, and the VF digit-flip experiment
  must damage exactly one word per trial.
"""

from __future__ import annotations

import bisect
import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import os
import random
from typing import Any, Callable

from wordcodes import analysis, cli, codec, serialization, vf_construct, vv_construct
from wordcodes.source_model import make_model

WORKLOADS = ("lattice", "build", "codec")

# Operating points per size.  "full" is what the benchmark measures;
# "small" runs the same code paths in seconds, for the benchmark's tests.
SIZES = {
    "full": {
        "scaling_t": [1, 3, 4, 19],
        "extended_t": 28,
        "m3_t": 9,
        "book_t": 11,
        "vf_l": range(2, 17),
        "codec_vv_t": 10,
        "codec_vf_l": 12,
        "stream_len": 1_000_000,
        "sync_vf_trials": 40,
        "sync_vv_trials": 10,
        "sync_message_len": 1000,
    },
    "small": {
        "scaling_t": [1, 3, 4],
        "extended_t": 8,
        "m3_t": 4,
        "book_t": 8,
        "vf_l": range(2, 11),
        "codec_vv_t": 8,
        "codec_vf_l": 8,
        "stream_len": 20_000,
        "sync_vf_trials": 4,
        "sync_vv_trials": 2,
        "sync_message_len": 200,
    },
}


def models() -> dict:
    return {
        "p46": make_model(["0.4", "0.6"], 2),
        "p28": make_model(["0.2", "0.8"], 2),
        "p235": make_model(["0.2", "0.3", "0.5"], 2),
    }


@dataclasses.dataclass
class Op:
    """One timed operation, made of one or more steps timed one by one.

    `metric` and `unit` name the figure the report derives from the op's
    median time: seconds per op, or `work` units divided by seconds.
    """

    name: str
    steps: list[Callable[[], Any]]
    check: Callable[[Any], list[str]]
    metric: str
    unit: str = "s"
    work: float = 1.0
    # True: the op's output is the list of its steps' outputs; otherwise
    # the op has one step and its output is that step's.
    collect: bool = False

    def output(self, outs: list) -> Any:
        return outs if self.collect else outs[0]

    def run(self) -> Any:
        return self.output([step() for step in self.steps])


# -- fingerprints -----------------------------------------------------------


def sha256(text: str | bytes) -> str:
    data = text.encode("utf-8") if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


def _plain(obj):
    """JSON round trip, so tuples and lists compare equal to the golden."""
    return json.loads(json.dumps(obj, sort_keys=True))


def _metrics_fp(met) -> dict:
    return {
        "redundancy": repr(met.redundancy),
        "avg_delay": repr(met.avg_delay),
        "kraft": str(met.kraft_exact),
    }


def fingerprint_vv(result) -> dict:
    fp = {
        "provenance": _plain(result.provenance),
        "kraft_final": result.provenance["kraft_final"],
        "dp_metrics": _metrics_fp(result.dp_metrics),
    }
    if result.book is not None:
        fp["book_sha256"] = sha256(serialization.book_to_json(result.book))
        fp["book_metrics"] = _metrics_fp(result.book_metrics)
    return fp


def fingerprint_vf(result) -> dict:
    return {
        "provenance": _plain(result.book.provenance),
        "book_sha256": sha256(serialization.book_to_json(result.book)),
        "metrics": _metrics_fp(result.metrics),
    }


def fingerprint_scaling(result) -> dict:
    return {"csv": result.csv_text, "slope": repr(result.slope)}


def fingerprint_sweep(rows) -> list:
    return [
        {
            "label": label,
            **fingerprint_vf(result),
            "json_sha256": sha256(text),
            "reloaded_sha256": sha256(serialization.book_to_json(reloaded)),
        }
        for label, result, text, reloaded in rows
    ]


def fingerprint_cli(out) -> dict:
    code, stdout, path = out
    with open(path, "rb") as fh:
        data = fh.read()
    return {
        "exit": code,
        "stdout": stdout.replace(path, "<out>"),
        "book_sha256": sha256(data),
    }


FINGERPRINTS = {
    "scaling": fingerprint_scaling,
    "vv_extended": fingerprint_vv,
    "vv_m3": fingerprint_vv,
    "vv_auto": fingerprint_cli,
    "vv_book": fingerprint_vv,
    "vf_sweep": fingerprint_sweep,
    "codec_vv_book": fingerprint_vv,
    "codec_vf_book": fingerprint_vf,
}


def golden_check(golden: dict, key: str) -> Callable[[Any], list[str]]:
    """Check an op's output against its recorded fingerprint."""
    expect = golden.get(key)
    fingerprint = FINGERPRINTS[key]

    def check(result) -> list[str]:
        if expect is None:
            return [f"{key}: no golden recorded"]
        got = fingerprint(result)
        if got == expect:
            return []
        if isinstance(got, dict) and isinstance(expect, dict):
            bad = sorted(k for k in set(got) | set(expect) if got.get(k) != expect.get(k))
            return [f"{key}: differs from golden in {', '.join(bad)}"]
        return [f"{key}: differs from golden"]

    return check


# -- workloads --------------------------------------------------------------


@dataclasses.dataclass
class Context:
    size: str
    seed: int
    golden: dict
    out_dir: str

    @property
    def params(self) -> dict:
        return SIZES[self.size]


def lattice_ops(ctx: Context) -> list[Op]:
    p = ctx.params
    m = models()
    g = ctx.golden
    return [
        Op(
            "scaling",
            [lambda: analysis.scaling_experiment(m["p46"], p["scaling_t"])],
            golden_check(g, "scaling"),
            "scaling_s",
        ),
        Op(
            "vv_extended",
            [lambda: vv_construct.construct_vv(m["p28"], T=p["extended_t"], grade="metrics")],
            golden_check(g, "vv_extended"),
            "vv_extended_s",
        ),
        Op(
            "vv_m3",
            [lambda: vv_construct.construct_vv(m["p235"], T=p["m3_t"], grade="metrics")],
            golden_check(g, "vv_m3"),
            "vv_m3_s",
        ),
    ]


def build_ops(ctx: Context) -> list[Op]:
    p = ctx.params
    m = models()
    g = ctx.golden
    out_path = os.path.join(ctx.out_dir, "auto-book.json")

    def auto():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(
                ["construct-vv", "--probs", "0.4,0.6", "--out", out_path]
            )
        return code, buf.getvalue(), out_path

    def sweep_step(key, L):
        result = vf_construct.construct_vf(m[key], L)
        text = serialization.book_to_json(result.book)
        return f"{key}/L={L}", result, text, serialization.book_from_json(text)

    sweep = [
        functools.partial(sweep_step, key, L) for key in ("p46", "p235") for L in p["vf_l"]
    ]

    return [
        Op("vv_auto", [auto], golden_check(g, "vv_auto"), "vv_auto_s"),
        Op(
            "vv_book",
            [lambda: vv_construct.construct_vv(m["p28"], T=p["book_t"])],
            golden_check(g, "vv_book"),
            "vv_book_s",
        ),
        Op("vf_sweep", sweep, golden_check(g, "vf_sweep"), "vf_sweep_s", collect=True),
    ]


def codec_books(ctx: Context) -> tuple:
    """The two books the codec workload streams through, built at set-up."""
    p = ctx.params
    m = models()
    vv = vv_construct.construct_vv(m["p28"], T=p["codec_vv_t"])
    vf = vf_construct.construct_vf(m["p46"], p["codec_vf_l"])
    return vv, vf


CODEC_BOOK_KEYS = ("codec_vv_book", "codec_vf_book")


def sample_stream(model, rng: random.Random, count: int) -> list[int]:
    """Seeded i.i.d. symbols, drawn by the benchmark, not by the library."""
    cumulative = []
    acc = 0.0
    for prob in model.probs:
        acc += prob
        cumulative.append(acc)
    cumulative[-1] = 1.0
    return [bisect.bisect_left(cumulative, rng.random()) + 1 for _ in range(count)]


def codec_ops(ctx: Context, books: tuple) -> list[Op]:
    """Stream and digit-flip ops; references are taken here, at set-up."""
    p = ctx.params
    vv, vf = books
    rng = random.Random(ctx.seed)
    ops: list[Op] = []
    for tag, book in (("vv", vv.book), ("vf", vf.book)):
        symbols = sample_stream(book.model, rng, p["stream_len"])
        ref = codec.encode_message(book, symbols)

        def enc_check(out, ref=ref, tag=tag):
            return [] if out == ref else [f"{tag} encode: digits differ from set-up"]

        def dec_check(out, symbols=symbols, tag=tag):
            return [] if out == symbols else [f"{tag} decode: no exact round trip"]

        ops.append(
            Op(
                f"{tag}_encode",
                [lambda book=book, symbols=symbols: codec.encode_message(book, symbols)],
                enc_check,
                f"{tag}_encode_sym_per_s",
                "symbols/s",
                len(symbols),
            )
        )
        ops.append(
            Op(
                f"{tag}_decode",
                [lambda book=book, ref=ref: codec.decode_message(book, ref[0], ref[1])],
                dec_check,
                f"{tag}_decode_sym_per_s",
                "symbols/s",
                len(symbols),
            )
        )

    for tag, book, trials, sync_seed in (
        ("vf", vf.book, p["sync_vf_trials"], ctx.seed),
        ("vv", vv.book, p["sync_vv_trials"], ctx.seed + 1),
    ):

        def run(book=book, trials=trials, sync_seed=sync_seed):
            return codec.sync_error_experiment(
                book, trials=trials, message_len=p["sync_message_len"], seed=sync_seed
            )

        ref = run()

        def check(out, ref=ref, tag=tag):
            bad = [] if out == ref else [f"sync {tag}: report differs for the same seed"]
            if tag == "vf" and out.single_word_fraction != 1.0:
                bad.append("sync vf: a flip damaged more than one word")
            return bad

        ops.append(Op(f"sync_{tag}", [run], check, f"sync_{tag}_trials_per_s", "trials/s", trials))
    return ops
