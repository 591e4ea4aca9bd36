"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import pytest

import run
import tracing
from wordcodes import codebook, serialization, vf_construct, vv_construct

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)

COUNT_KEYS = [m["name"] for m in BENCHMARK["per_layer"] if m["unit"] != "s"]


@pytest.mark.parametrize("workload", ["lattice", "build", "codec"])
def test_small_run_is_correct_and_prints_every_metric(workload, capsys):
    assert run.main(["--workload", workload, "--seed", "5", "--seconds", "0.1",
                     "--size", "small"]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    assert set(last["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(v["value"] > 0 for v in last["metrics"].values())


def test_traced_run_prints_every_layer_metric_and_counts_repeat():
    first = run.run("codec", seed=5, seconds=0.1, trace=True, size="small")
    second = run.run("codec", seed=6, seconds=0.1, trace=True, size="small")
    for out in (first, second):
        assert out["result"]["correct"]
        assert set(out["result"]["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    for key in COUNT_KEYS:
        assert first["result"]["metrics"][key] == second["result"]["metrics"][key], key
    assert first["result"]["metrics"]["vv_construct.auto_t.useful_ratio"]["value"] == 0.5


def test_tampered_book_counts_as_failed_op(monkeypatch, capsys):
    original = vv_construct.assign_codewords

    def swap_two_codewords(*args, **kwargs):
        entries = original(*args, **kwargs)
        a, b = entries[0], entries[-1]
        entries[0] = dataclasses.replace(a, codeword=b.codeword)
        entries[-1] = dataclasses.replace(b, codeword=a.codeword)
        return entries

    monkeypatch.setattr(vv_construct, "assign_codewords", swap_two_codewords)
    code = run.main(["--workload", "build", "--seed", "5", "--seconds", "0.1",
                     "--size", "small"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert not last["correct"]
    # vv_auto and vv_book are tampered in the warm-up and in each round.
    assert last["failed"] >= 4


def test_self_times_sum_to_parent_span():
    ticks = iter(range(1000))
    tracer = tracing.Tracer(clock=lambda: next(ticks))

    def leaf():
        return 1

    def middle():
        return leaf() + leaf()

    leaf_w = tracer.span_wrapper(leaf, "leaf")
    leaf = leaf_w  # noqa: F811 -- middle() must call the wrapped leaf
    middle_w = tracer.span_wrapper(middle, "middle")
    root = tracer.begin_op("op:test")
    middle_w()
    middle_w()
    tracer.end_op(root)
    selfs = tracer.self_times()
    start, end = tracer.spans[root][tracing.START], tracer.spans[root][tracing.END]
    assert sum(selfs) == end - start
    for idx, span in enumerate(tracer.spans):
        covered = sum(
            s[tracing.END] - s[tracing.START] for s in tracer.spans if s[tracing.PARENT] == idx
        )
        assert selfs[idx] + covered == span[tracing.END] - span[tracing.START]
    assert [s[tracing.NAME] for s in tracer.spans].count("leaf") == 4


def test_install_reaches_from_imports_and_uninstall_restores():
    original = codebook.validate_codebook
    tracer = tracing.Tracer()
    tracer.install(
        "wordcodes",
        [(codebook, "validate_codebook", "codebook.validate_codebook", None, None)],
        [(codebook.CodeBook, "kraft_exact", "kraft")],
    )
    try:
        for mod in (codebook, vv_construct, vf_construct, serialization):
            assert mod.validate_codebook is not original
    finally:
        tracer.uninstall()
    for mod in (codebook, vv_construct, vf_construct, serialization):
        assert mod.validate_codebook is original
    assert "kraft_exact" in vars(codebook.CodeBook)
    assert codebook.CodeBook.kraft_exact.__qualname__ == "CodeBook.kraft_exact"


def test_speed_probe_samples_during_the_region_and_restores_the_signal():
    before = signal.getsignal(signal.SIGALRM)
    with run.SpeedProbe() as probe:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(probe.samples) > 2 * run.PROBE_BRACKET  # some fired inside
    assert 0 < probe.elapsed < 0.3  # the probes' own time is taken out
    assert probe.reference_seconds() == pytest.approx(
        probe.elapsed * run.PROBE_REF_S / statistics.median(probe.samples)
    )
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lattice", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
