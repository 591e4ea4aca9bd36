"""Benchmark for the wordcodes library: one workload per process.

Run from the repository root:

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 25 --trace 0

With `--trace 0` it times the workload's ops with nothing patched and prints
the end-to-end metrics.  With `--trace 1` it runs every workload's ops once
untraced and once under the span tracer, and prints the per-layer metrics.
Every op's output is checked (see workloads.py).  The last line of standard
output is one JSON object; the lines before it are a readable report.  The
exit code is 0 only when every op matched, else 1; without the library
under src/ it is 1 and nothing is printed to standard output.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import sys
import time
import traceback

T_START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_REPS = 3
# Speed probes (see SpeedProbe): how often one runs during a timed region,
# how many run just before and just after it, and the time one probe takes
# at the reference machine speed.
PROBE_PERIOD_S = 0.05
PROBE_BRACKET = 5
PROBE_REF_S = 0.00075


def _import_library():
    """Import wordcodes from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "wordcodes", "__init__.py")):
        sys.exit(f"perfbench: no wordcodes package under {SRC}")
    sys.path.insert(0, SRC)
    import wordcodes

    where = os.path.dirname(os.path.abspath(wordcodes.__file__))
    if where != os.path.join(SRC, "wordcodes"):
        sys.exit(f"perfbench: imported wordcodes from {where}, not {SRC}")


_import_library()

import tracing  # noqa: E402
import workloads  # noqa: E402
from wordcodes import (  # noqa: E402
    analysis,
    cli,
    codebook,
    codec,
    serialization,
    vf_construct,
    vv_construct,
    word_sets,
)

IMPORT_S = time.perf_counter() - T_START


def load_golden(size: str) -> dict:
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        return json.load(fh)[size]


class Tally:
    """Attempted and failed op counts, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.messages.extend(problems[: max(0, 20 - len(self.messages))])


def run_op(op, tally: Tally, tracer=None, calibrated=False) -> tuple[float, float]:
    """Run one op and check its output.

    Returns its wall time and, when `calibrated`, the same time at the
    reference speed, each step measured under its own SpeedProbe.
    Otherwise the second figure is the wall time.
    """
    gc.collect()
    if tracer is not None:
        span = tracer.begin_op(f"op:{op.name}")
    outs, raw, ref, problems = [], 0.0, 0.0, None
    try:
        for step in op.steps:
            if calibrated:
                with SpeedProbe() as probe:
                    outs.append(step())
                raw += probe.elapsed
                ref += probe.reference_seconds()
            else:
                t0 = time.perf_counter()
                outs.append(step())
                raw += time.perf_counter() - t0
    except Exception:  # a crashing op is a failed op; keep measuring
        problems = [f"{op.name} raised:\n{traceback.format_exc()}"]
    if tracer is not None:
        tracer.end_op(span)
    tally.record(op.check(op.output(outs)) if problems is None else problems)
    return raw, (ref if calibrated else raw)


def build_workload(name: str, ctx, tally: Tally) -> list:
    """Inputs, books and references for one workload (its set-up)."""
    if name == "lattice":
        return workloads.lattice_ops(ctx)
    if name == "build":
        return workloads.build_ops(ctx)
    books = workloads.codec_books(ctx)
    for key, result in zip(workloads.CODEC_BOOK_KEYS, books):
        tally.record(workloads.golden_check(ctx.golden, key)(result))
    return workloads.codec_ops(ctx, books)


def summarize(values: list[float]) -> dict:
    s = sorted(values)
    n = len(s)
    q1, _, q3 = statistics.quantiles(s, n=4, method="inclusive") if n >= 2 else (s[0],) * 3
    out = {"median": statistics.median(s), "q1": q1, "q3": q3, "n": n}
    # The highest percentile with at least ten samples above it.
    if n >= 20:
        out[f"p{100 * (n - 10) // n}"] = s[n - 11]
    return out


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe_loop(n: int = 2000) -> int:
    """Fixed interpreter work (tuple keys, dict updates, int arithmetic).

    The table stays under 200 keys, so the loop's data fits in the fastest
    cache and its time hardly depends on what the library left there.
    """
    table: dict = {}
    total = 0
    for i in range(n):
        key = (i & 15, i % 11)
        table[key] = table.get(key, 0) + (i * 7 ^ i >> 3)
        total += len(table)
    return total


class SpeedProbe:
    """Times a region and samples the machine's speed while it runs.

    The speed of the shared machine this benchmark was tuned on drifts by up
    to a third within seconds to minutes.  So `probe_loop()`, which does not
    touch the library, runs PROBE_BRACKET times just before and just after
    the region and, from a SIGALRM handler, every PROBE_PERIOD_S during it.
    `elapsed` is the region's wall time without the probes' own time, and
    `reference_seconds()` rescales it to the speed at which one probe takes
    PROBE_REF_S, using the median probe time.  A change to the library moves
    the rescaled time as it moves wall time; a slow or fast spell of the
    machine does not.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self.elapsed = 0.0

    def _probe(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        probe_loop()
        took = time.perf_counter() - t0
        self.samples.append(took)
        self.spent += took

    def __enter__(self) -> "SpeedProbe":
        for _ in range(PROBE_BRACKET):
            self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        self.spent = 0.0
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.elapsed = time.perf_counter() - self._start - self.spent
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(PROBE_BRACKET):
            self._probe()

    def reference_seconds(self) -> float:
        return self.elapsed * PROBE_REF_S / statistics.median(self.samples)


def fresh_import() -> None:
    """Import the library afresh, then put the original modules back.

    Times the import in each set-up repetition; the ops keep using the
    modules imported at start-up, which the tracer patches.
    """
    def ours(key):
        return key == "wordcodes" or key.startswith("wordcodes.")

    saved = {k: m for k, m in sys.modules.items() if ours(k)}
    for key in saved:
        del sys.modules[key]
    try:
        importlib.import_module("wordcodes")
    finally:
        for key in [k for k in sys.modules if ours(k)]:
            del sys.modules[key]
        sys.modules.update(saved)


def measure(workload: str, ctx, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Set up SETUP_REPS times, then time rounds of the workload's ops.

    One set-up is a fresh import of the library, the workload's inputs,
    books and references, and a warm-up pass: the same ops at the small
    operating points, enough to finish lazy imports and set-up at a
    fraction of a round's cost.
    """
    small = workloads.Context("small", ctx.seed, load_golden("small"), ctx.out_dir)
    setups = []
    for _ in range(SETUP_REPS):
        ops = None  # free the previous set-up's inputs before building anew
        gc.collect()
        with SpeedProbe() as probe:
            fresh_import()
            ops = build_workload(workload, ctx, tally)
            for op in build_workload(workload, small, tally):
                run_op(op, tally)
        setups.append(probe.reference_seconds())

    order = random.Random(ctx.seed)
    raw: dict[str, list[float]] = {op.name: [] for op in ops}
    ref: dict[str, list[float]] = {op.name: [] for op in ops}
    start = time.perf_counter()
    while True:
        round_ops = list(ops)
        order.shuffle(round_ops)
        for op in round_ops:
            wall, scaled = run_op(op, tally, calibrated=True)
            raw[op.name].append(wall)
            ref[op.name].append(scaled)
        if time.perf_counter() - start >= seconds:
            break

    per_op = {}
    for op in ops:
        stats = summarize(ref[op.name])
        stats["raw_median"] = statistics.median(raw[op.name])
        if op.unit != "s":
            stats = {k: v if k == "n" else op.work / v for k, v in stats.items()}
            # Rates invert the order: the slow quartile is the low rate.
            stats["q1"], stats["q3"] = stats["q3"], stats["q1"]
        per_op[op.metric] = {"unit": op.unit, **stats}
    metrics = {
        "round_s": {
            "value": sum(statistics.median(ref[op.name]) for op in ops),
            "unit": "s",
        },
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MiB"},
    }
    detail = {
        "ops": per_op,
        "setup_reps_s": setups,
        "first_import_s": IMPORT_S,
        "rounds": len(raw[ops[0].name]),
    }
    return metrics, detail


# -- traced run ---------------------------------------------------------------


def _add(key, amount):
    def hook(counts, result):
        counts[key] += amount(result)

    return hook


def _auto_tag(args, kwargs):
    """Tag `construct_vv` calls that choose T themselves."""
    T = args[1] if len(args) > 1 else kwargs.get("T", "auto")
    explicit = kwargs.get("first_words") is not None or kwargs.get("second_words") is not None
    return "auto" if T == "auto" and not explicit else None


def traced_functions() -> list:
    """(module, attribute, span name, on_result, tag) for every traced call.

    Only the functions the per-layer metrics name are wrapped; the other
    public functions (leaf arithmetic such as `linear_form`, and helpers
    such as `huffman_lengths`) stay unwrapped so their cost lands in their
    caller's self time.
    """
    return [
        (word_sets, "lattice_metrics", "word_sets.lattice_metrics",
         _add("word_sets.lattice_metrics.nodes", lambda r: r.visited_nodes), None),
        (word_sets, "enumerate_words", "word_sets.enumerate_words",
         _add("word_sets.enumerate_words.words", len), None),
        (vv_construct, "construct_vv", "vv_construct.construct_vv", None, _auto_tag),
        (vv_construct, "choose_cap", "vv_construct.choose_cap",
         _add("vv_construct.cap_trials", lambda r: len(r[4])), None),
        (vv_construct, "assign_codewords", "vv_construct.assign_codewords", None, None),
        (vf_construct, "construct_vf", "vf_construct.construct_vf", None, None),
        (analysis, "code_metrics", "analysis.code_metrics", None, None),
        (analysis, "metrics_from_classes", "analysis.metrics_from_classes", None, None),
        (codebook, "validate_codebook", "codebook.validate_codebook", None, None),
        (serialization, "book_to_json", "serialization.book_to_json",
         _add("serialization.bytes", lambda r: len(r.encode("utf-8"))), None),
        (serialization, "book_from_json", "serialization.book_from_json", None, None),
        (codec, "encode_message", "codec.encode_message", None, None),
        (codec, "decode_message", "codec.decode_message", None, None),
        (codec, "sample_symbols", "codec.sample_symbols", None, None),
        (codec, "sync_error_experiment", "codec.sync_error_experiment", None, None),
        (cli, "main", "cli.main", None, None),
    ]


COUNTED_METHODS = [
    (word_sets.ProfileSet, "member", "word_sets.ProfileSet.member.calls"),
    (codebook.CodeBook, "kraft_exact", "codebook.CodeBook.kraft_exact.calls"),
    (codec.Encoder, "__init__", "codec.Encoder.init.calls"),
]

COUNT_METRICS = {
    "word_sets.lattice_metrics.nodes": "count",
    "word_sets.ProfileSet.member.calls": "count",
    "word_sets.enumerate_words.words": "count",
    "vv_construct.choose_cap.calls": "count",
    "vv_construct.cap_trials": "count",
    "codebook.CodeBook.kraft_exact.calls": "count",
    "serialization.bytes": "bytes",
    "codec.Encoder.init.calls": "count",
}


def layer_metrics(tracer: tracing.Tracer) -> dict:
    """Per-layer metrics over every traced op."""
    summary = tracer.summary()
    out = {}
    for _, _, name, _, _ in traced_functions():
        out[f"{name}.self_s"] = {
            "value": summary.get(name, {}).get("self_s", 0.0), "unit": "s"
        }
    counts = dict(tracer.counts)
    counts["vv_construct.choose_cap.calls"] = summary.get(
        "vv_construct.choose_cap", {}
    ).get("calls", 0)
    for name, unit in COUNT_METRICS.items():
        out[name] = {"value": counts.get(name, 0), "unit": unit}
    built = kept = 0
    for s in tracer.spans:
        parent = s[tracing.PARENT]
        if (
            s[tracing.NAME] == "vv_construct.choose_cap"
            and parent is not None
            and tracer.spans[parent][tracing.TAG] == "auto"
        ):
            built += 1
        if s[tracing.TAG] == "auto":
            kept += 1
    out["vv_construct.auto_t.useful_ratio"] = {
        "value": kept / built if built else 0.0, "unit": "ratio"
    }
    return out


def traced(workload: str, ctx, tally: Tally) -> tuple[dict, dict]:
    """Every workload's ops once untraced, then once traced."""
    groups = {}
    for name in workloads.WORKLOADS:
        groups[name] = build_workload(name, ctx, tally)
    untraced = {}
    for name, ops in groups.items():
        untraced[name] = sum(run_op(op, tally)[0] for op in ops)
    tracer = tracing.Tracer()
    tracer.install("wordcodes", traced_functions(), COUNTED_METHODS)
    try:
        traced_s = {}
        for name, ops in groups.items():
            traced_s[name] = sum(run_op(op, tally, tracer)[0] for op in ops)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer)
    per_workload = {}
    for name, ops in groups.items():
        names = {op.name for op in ops}
        selfs = tracer.summary(lambda n, names=names: n[3:] in names)
        per_workload[name] = {
            "untraced_s": untraced[name],
            "traced_s": traced_s[name],
            "overhead_s": traced_s[name] - untraced[name],
            "self_s": {k: v["self_s"] for k, v in sorted(selfs.items())},
        }
    path = os.path.join(OUT_DIR, f"spans-{workload}-seed{ctx.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "fields": ["name", "start", "end", "parent", "op", "tag"],
                "spans": tracer.spans,
                "counts": dict(tracer.counts),
            },
            fh,
        )
    return metrics, {"workloads": per_workload, "spans_file": path}


# -- entry point ----------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Run one benchmark invocation and return its result and report."""
    os.makedirs(OUT_DIR, exist_ok=True)
    ctx = workloads.Context(size=size, seed=seed, golden=load_golden(size), out_dir=OUT_DIR)
    tally = Tally()
    env_before = environment()
    if trace:
        metrics, detail = traced(workload, ctx, tally)
    else:
        metrics, detail = measure(workload, ctx, seconds, tally)
    detail["error_rate"] = tally.failed / tally.attempted
    detail["failures"] = tally.messages
    detail["environment"] = {"before": env_before, "after": environment()}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return {"result": result, "detail": detail}


def report_lines(workload: str, out: dict) -> list[str]:
    detail = out["detail"]
    lines = [f"# workload={workload} environment={json.dumps(detail['environment'])}"]
    for name, stat in detail.get("ops", {}).items():
        extra = " ".join(f"{k}={v:.6g}" for k, v in stat.items() if k.startswith("p"))
        lines.append(
            f"{name} [{stat['unit']}] median={stat['median']:.6g} "
            f"q1={stat['q1']:.6g} q3={stat['q3']:.6g} n={stat['n']} {extra} "
            f"raw_median={stat['raw_median']:.6g}"
        )
    if "ops" in detail:
        reps = " ".join(f"{x:.4f}" for x in detail["setup_reps_s"])
        lines.append(
            f"# setup: first import={detail['first_import_s']:.4f}s "
            f"set-ups=[{reps}]s rounds={detail['rounds']}"
        )
    for name, w in detail.get("workloads", {}).items():
        lines.append(
            f"# trace {name}: untraced={w['untraced_s']:.4f}s "
            f"traced={w['traced_s']:.4f}s overhead={w['overhead_s']:.4f}s"
        )
        for span, self_s in w["self_s"].items():
            lines.append(f"#   {span}.self_s={self_s:.6f}")
    res = out["result"]
    lines.append(
        f"error_rate [ratio] {detail['error_rate']:.6g} "
        f"(failed={res['failed']} attempted={res['attempted']})"
    )
    for msg in detail["failures"]:
        lines.append(f"# FAILED: {msg}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    args = parser.parse_args(argv)
    out = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    for line in report_lines(args.workload, out):
        print(line)
    print(json.dumps(out["result"]), flush=True)
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
