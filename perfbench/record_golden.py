"""Record golden.json: the fingerprint of every seed-independent op.

Run from the repository root, only at a commit whose outputs are the
reference (the goldens in this directory come from the library as first
imported, before any optimisation):

    python3 perfbench/record_golden.py
"""

from __future__ import annotations

import json
import os

import run  # sets up the import path for the checkout's src/
import workloads


def record(size: str) -> dict:
    os.makedirs(run.OUT_DIR, exist_ok=True)
    ctx = workloads.Context(size=size, seed=0, golden={}, out_dir=run.OUT_DIR)
    golden = {}
    for op in workloads.lattice_ops(ctx) + workloads.build_ops(ctx):
        golden[op.name] = workloads.FINGERPRINTS[op.name](op.run())
    for key, result in zip(workloads.CODEC_BOOK_KEYS, workloads.codec_books(ctx)):
        golden[key] = workloads.FINGERPRINTS[key](result)
    return golden


def main() -> None:
    data = {size: record(size) for size in workloads.SIZES}
    with open(os.path.join(run.HERE, "golden.json"), "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
