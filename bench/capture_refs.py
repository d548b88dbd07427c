#!/usr/bin/env python3
"""Capture the reference outputs the benchmark checks against.

    python3 bench/capture_refs.py

Run it only on a commit whose outputs are trusted; it rewrites
bench/refs/<workload>.json for every workload (l1_baseline for each seed in
bench/model.json's referenced_seeds).
"""

import json
import os
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
MODEL = json.loads((BENCH / "model.json").read_text())
os.environ.update(MODEL["load_model"]["thread_env"])
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402  (needs chx on sys.path)


def main() -> int:
    workloads.REFS.mkdir(exist_ok=True)
    for name, info in MODEL["workloads"].items():
        refs = {}
        for seed in info.get("referenced_seeds", [0]):
            with tempfile.TemporaryDirectory(dir=BENCH.parent) as tmp:
                for op in workloads.build(name, seed, False, Path(tmp)):
                    out = op.outputs(op.call())
                    bad = op.self_check(out)
                    if bad:
                        raise SystemExit(f"{op.name}: {bad}")
                    refs[op.name] = out
                    print(f"captured {op.name}")
        path = workloads.REFS / f"{name}.json"
        path.write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
