"""Command-line interface.

Subcommands construct codes, analyze saved code books, encode/decode digit
streams, and run the scaling and digit-flip experiments.  Exit codes: 0 on
success, 2 for bad usage or malformed input values, 3 when the request is
well-formed but cannot be satisfied (Kraft-infeasible sets, undecodable
streams, sets too large to enumerate, inconsistent books), 4 for file I/O
problems.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import astuple, fields

from .analysis import SCALING_CSV_HEADER, code_metrics, scaling_experiment
from .codec import (
    PAD_TRAILER,
    decode_message,
    encode_message,
    sync_error_experiment,
)
from .errors import InfeasibleError, InputError, WordCodesError
from .serialization import load_book, save_book
from .source_model import SourceModel, make_model
from .vf_construct import construct_block, construct_vf, find_block_parameters
from .vv_construct import construct_vv
from .word_sets import DEFAULT_ENUM_LIMIT, DEFAULT_T_MAX

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4

DIGIT_WRAP = 76


def _model_from_args(args: argparse.Namespace) -> SourceModel:
    probs = [tok.strip() for tok in args.probs.split(",") if tok.strip()]
    labels = list(args.labels) if getattr(args, "labels", None) else None
    return make_model(probs, args.arity, labels=labels)


def _words_from_arg(model: SourceModel, text: str) -> list:
    return [
        model.word_from_text(tok.strip())
        for tok in text.split(",")
        if tok.strip()
    ]


def _print_metrics(met) -> None:
    print(f"words={met.word_count}")
    print(f"N̄={met.avg_delay:.6g}")
    print(f"N={met.max_delay:d}")
    print(f"R={met.redundancy:.4f}")
    print(f"delta={met.kraft_defect:.6g}")
    print(f"lower={met.lower_bound:.6g}")
    if met.upper_bound is not None:
        print(f"upper={met.upper_bound:.6g}")
    else:
        print("upper=n/a")
    print(f"identity_residual={met.identity_residual:.3g}")


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _save_book(book, path: str) -> None:
    """Save a code book to `path` and report it."""
    save_book(book, path)
    print(f"saved={path}")


def _save_json(payload: dict, path: str) -> None:
    """Write `payload` to `path` as sorted, indented JSON and report it."""
    _write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    print(f"saved={path}")


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise InputError(f"{path} is not UTF-8 text: {exc}") from exc


def _int_arg(text: str, flag: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InputError(f"{flag} takes integers, got {text!r}") from None


def cmd_construct_vv(args: argparse.Namespace) -> int:
    model = _model_from_args(args)
    first = None if args.m1 is None else _words_from_arg(model, args.m1)
    second = None if args.m2 is None else _words_from_arg(model, args.m2)
    T = args.T if args.T == "auto" else _int_arg(args.T, "--T")
    cap = args.cap if args.cap == "auto" else _int_arg(args.cap, "--cap")
    result = construct_vv(
        model,
        T=T,
        cap=cap,
        theta=args.accuracy,
        grade=args.grade,
        assignment=args.assignment,
        first_words=first,
        second_words=second,
        enum_limit=args.enum_limit,
    )
    print(f"kind=vv path={result.path}")
    if result.T is not None:
        print(f"T={result.T} cap={result.cap}")
    met = result.book_metrics if result.book_metrics is not None else result.dp_metrics
    _print_metrics(met)
    if args.out:
        if result.book is None:
            raise InputError(
                "the word set was not enumerated; nothing to save "
                "(use --grade codec)"
            )
        _save_book(result.book, args.out)
    return EXIT_OK


def cmd_construct_vf(args: argparse.Namespace) -> int:
    model = _model_from_args(args)
    result = construct_vf(model, args.L)
    mode = "single_symbol" if result.fallback else "window"
    print(f"kind=vf mode={mode} L={result.L}")
    _print_metrics(result.metrics)
    if args.out:
        _save_book(result.book, args.out)
    return EXIT_OK


def cmd_construct_block(args: argparse.Namespace) -> int:
    for flag, value in (("--pair-index", args.pair_index),
                        ("--list-pairs", args.list_pairs)):
        if value is not None and value < 0:
            raise InputError(f"{flag} must be >= 0, got {value}")
    if args.list_pairs:
        given = {"--X": args.X, "--L": args.L, "--pair-index": args.pair_index,
                 "--out": args.out}
        unread = [flag for flag, value in given.items() if value is not None]
        if unread:
            raise InputError(f"--list-pairs takes no {', '.join(unread)}")
        pairs = find_block_parameters(
            args.input_size, args.arity, count=args.list_pairs
        )
        for x, length in pairs:
            print(f"X={x} L={length} r_bound={1.0 / (x * x):.6g}")
        return EXIT_OK
    if (args.X is None) != (args.L is None):
        flag, other = ("--X", "--L") if args.L is None else ("--L", "--X")
        raise InputError(f"{flag} needs {other}; give both or neither")
    if args.X is not None:
        if args.pair_index is not None:
            raise InputError("--pair-index does not apply with --X and --L")
        x, length = args.X, args.L
    else:
        index = args.pair_index or 0
        pairs = find_block_parameters(
            args.input_size, args.arity, count=index + 1
        )
        if index >= len(pairs):
            raise InfeasibleError(
                f"only {len(pairs)} block parameter pairs are available"
            )
        x, length = pairs[index]
    result = construct_block(args.input_size, args.arity, x, length)
    print(f"kind=block X={result.X} L={result.L}")
    _print_metrics(result.metrics)
    if args.out:
        _save_book(result.book, args.out)
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    book = load_book(args.book)
    met = code_metrics(book)
    print(f"kind={book.kind}")
    _print_metrics(met)
    return EXIT_OK


def cmd_encode(args: argparse.Namespace) -> int:
    book = load_book(args.book)
    text = _read_text(args.infile)
    # whitespace separates symbols, unless the book has it as a label
    spaces = {c for c in set(text) if c.isspace()}.difference(book.model.labels)
    text = text.translate(dict.fromkeys(map(ord, spaces)))
    symbols = list(book.model.word_from_text(text))
    digits, pads = encode_message(book, symbols, pad=not args.no_pad)
    lines = [
        digits[i : i + DIGIT_WRAP] for i in range(0, len(digits), DIGIT_WRAP)
    ]
    out = "\n".join(lines)
    if pads:
        out += f"\n{PAD_TRAILER}{pads}"
    _write_text(args.out, out + "\n")
    return EXIT_OK


def cmd_decode(args: argparse.Namespace) -> int:
    book = load_book(args.book)
    digits = []
    pad_count = None
    for line in _read_text(args.infile).splitlines():
        line = line.strip()
        if line.startswith(PAD_TRAILER):
            if pad_count is not None:
                raise InputError(f"second pad trailer {line!r}")
            count = line[len(PAD_TRAILER) :]
            try:
                pad_count = int(count) if count.isdecimal() else None
            except ValueError:  # more digits than `int` converts
                pad_count = None
            if pad_count is None:
                raise InputError(
                    f"pad trailer {line!r} does not end in a non-negative "
                    "integer"
                )
        elif not line or line.startswith("#"):
            continue
        elif pad_count is not None:
            raise InputError("digits follow the pad trailer; it must come last")
        else:
            digits.append(line)
    symbols = decode_message(book, "".join(digits), pad_count=pad_count or 0)
    # one translate for single-character ASCII labels, else label by label
    texts = book.model.texts_from_words([symbols])
    text = texts[0] if texts is not None else book.model.word_to_text(tuple(symbols))
    _write_text(args.out, text + "\n")
    return EXIT_OK


def cmd_experiment_scaling(args: argparse.Namespace) -> int:
    model = _model_from_args(args)
    t_list = None
    if args.t_list:
        t_list = [
            _int_arg(tok, "--t-list")
            for tok in args.t_list.split(",")
            if tok.strip()
        ]
        if args.t_max is not None:
            raise InputError("--t-max does not apply with --t-list")
    t_max = DEFAULT_T_MAX if args.t_max is None else args.t_max
    result = scaling_experiment(model, t_list=t_list, t_max=t_max)
    for row in result.rows:
        print(
            f"T={row.T} cap={row.cap} N̄={row.avg_delay:.6g} "
            f"N={row.max_delay} R={row.redundancy:.6g} "
            f"r_nbar_5_3={row.r_times_nbar_5_3:.6g}"
        )
    if result.slope is not None:
        print(f"slope={result.slope:.4f}")
    else:
        print("slope=n/a")
    if args.csv:
        _write_text(args.csv, result.csv_text)
        print(f"saved={args.csv}")
    if args.json:
        names = SCALING_CSV_HEADER.split(",")
        payload = {
            "rows": [dict(zip(names, astuple(r))) for r in result.rows],
            "slope": result.slope,
        }
        _save_json(payload, args.json)
    return EXIT_OK


def cmd_experiment_sync(args: argparse.Namespace) -> int:
    book = load_book(args.book)
    report = sync_error_experiment(
        book,
        trials=args.trials,
        message_len=args.message_len,
        seed=args.seed,
    )
    print(
        f"kind={report.kind} trials={report.trials} "
        f"message_len={report.message_len} seed={report.seed}"
    )
    print(f"mean_affected={report.mean_affected:.4f}")
    print(f"max_affected={report.max_affected}")
    print(f"single_word_fraction={report.single_word_fraction:.4f}")
    if args.json:
        payload = {f.name: getattr(report, f.name) for f in fields(report)}
        del payload["records"]
        payload["histogram"] = {str(k): v for k, v in report.histogram.items()}
        _save_json(payload, args.json)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wordcodes",
        description="Construct and analyze word-based variable-length codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--probs",
            required=True,
            help="comma-separated symbol probabilities (decimals or ratios)",
        )
        p.add_argument(
            "--arity", type=int, default=2, help="output alphabet size"
        )
        p.add_argument(
            "--labels", default=None, help="symbol labels, one character each"
        )

    p = sub.add_parser("construct-vv", help="variable-to-variable code")
    add_model_args(p)
    p.add_argument("--T", default="auto", help="threshold parameter or 'auto'")
    p.add_argument("--cap", default="auto", help="hard length cap or 'auto'")
    p.add_argument(
        "--accuracy",
        type=float,
        default=None,
        help="threshold width override (theta), a finite number > 0 "
        "(default 2/T; widths of 1 or more are legal)",
    )
    p.add_argument(
        "--grade",
        choices=("codec", "metrics"),
        default="codec",
        help="codec requires an enumerable word set; metrics does not",
    )
    p.add_argument(
        "--assignment",
        choices=("huffman", "canonical"),
        default="huffman",
        help="codeword length assignment for the emitted book",
    )
    p.add_argument(
        "--m1", default=None, help="explicit first word set, e.g. 'a,ba,bb'"
    )
    p.add_argument(
        "--m2", default=None, help="explicit second word set for the merge"
    )
    p.add_argument(
        "--enum-limit",
        type=int,
        default=DEFAULT_ENUM_LIMIT,
        help="largest word set to enumerate",
    )
    p.add_argument("--out", default=None, help="save the code book here")
    p.set_defaults(func=cmd_construct_vv)

    p = sub.add_parser("construct-vf", help="uniform output length code")
    add_model_args(p)
    p.add_argument("--L", type=int, required=True, help="output length")
    p.add_argument("--out", default=None, help="save the code book here")
    p.set_defaults(func=cmd_construct_vf)

    p = sub.add_parser("construct-block", help="fixed-to-fixed block code")
    p.add_argument(
        "--input-size", type=int, required=True, help="input alphabet size"
    )
    p.add_argument("--arity", type=int, default=2, help="output alphabet size")
    p.add_argument("--X", type=int, default=None, help="input block length")
    p.add_argument("--L", type=int, default=None, help="output length")
    p.add_argument(
        "--pair-index",
        type=int,
        default=None,
        help="use the i-th recommended (X, L) pair instead of explicit --X/--L",
    )
    p.add_argument(
        "--list-pairs",
        type=int,
        default=0,
        metavar="N",
        help="print the first N recommended (X, L) pairs and exit",
    )
    p.add_argument("--out", default=None, help="save the code book here")
    p.set_defaults(func=cmd_construct_block)

    p = sub.add_parser("analyze", help="metrics of a saved code book")
    p.add_argument("--book", required=True, help="code book file")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("encode", help="encode a symbol stream")
    p.add_argument("--book", required=True, help="code book file")
    p.add_argument("--in", dest="infile", required=True, help="message file")
    p.add_argument("--out", default=None, help="digit output file")
    p.add_argument(
        "--no-pad",
        action="store_true",
        help="fail if the message ends inside a word instead of padding",
    )
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode a digit stream")
    p.add_argument("--book", required=True, help="code book file")
    p.add_argument("--in", dest="infile", required=True, help="digit file")
    p.add_argument("--out", default=None, help="message output file")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("experiment", help="redundancy and robustness studies")
    esub = p.add_subparsers(dest="experiment", required=True)

    e = esub.add_parser("scaling", help="redundancy against average delay")
    add_model_args(e)
    e.add_argument(
        "--t-list",
        default=None,
        help="comma-separated threshold parameters (default: auto ladder)",
    )
    e.add_argument(
        "--t-max",
        type=int,
        default=None,
        help="largest auto threshold",
    )
    e.add_argument("--csv", default=None, help="write rows as CSV here")
    e.add_argument("--json", default=None, help="write rows as JSON here")
    e.set_defaults(func=cmd_experiment_scaling)

    e = esub.add_parser("sync", help="single digit flip damage")
    e.add_argument("--book", required=True, help="code book file")
    e.add_argument("--trials", type=int, default=1000)
    e.add_argument("--message-len", type=int, default=1000)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--json", default=None, help="write the summary here")
    e.set_defaults(func=cmd_experiment_sync)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except WordCodesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
