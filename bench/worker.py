"""One fresh workload process.

It imports chx from ``<root>/src`` (the set-up the parent times from its
launch), runs one pass of a workload's calls back to back, optionally under
the tracer, runs the host-speed probe, checks the outputs and writes a JSON
result file.  With ``--setup-only`` it stops after the import, the probe and
reporting library versions.

    python3 bench/worker.py --root . --workload search_mix --seed 1 \
        --launched-ns <monotonic ns> --result out.json [--trace spans.npz] [--smoke]
"""

import time  # first, so nothing else is imported before the clock is
import argparse
import contextlib
import json
import os
import resource
import shutil
import sys
import traceback
from pathlib import Path


def _versions() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def host_probe() -> list:
    """Seconds of each of three runs of a fixed, chx-free kernel: interpreter
    work on small ints and a dict, numpy calls on tables of a few hundred
    entries (verify_identities' kind of work) and complex exp and dot over a
    2**19 table (search_mix's and l1_baseline's).  It measures how fast the
    shared host runs now."""
    import numpy as np

    x = np.arange(1 << 19) * (2 * np.pi / (1 << 19))
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        counts: dict = {}
        for i in range(150_000):
            key = (i * 7919) % 4099
            counts[key] = counts.get(key, 0) + (i & 3)
        for q in range(60, 260):
            e = np.exp((2j * np.pi / q) * np.arange(q))
            for t in range(1, 16):
                np.dot(e ** t, e)
        e = np.exp(1j * x)
        np.dot(e, np.conj(e))
        times.append(time.perf_counter() - t0)
    return times


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--launched-ns", type=int, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", default=None, help="write spans here and trace the pass")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    root = Path(args.root).resolve()
    src = root / "src"
    sys.path.insert(0, str(src))
    import chx

    ready_ns = time.monotonic_ns()
    if Path(chx.__file__).resolve().parent != src / "chx":
        print(f"chx imported from {chx.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = {"setup_s": (ready_ns - args.launched_ns) / 1e9}
    if args.setup_only:
        result["versions"] = _versions()
        result["host_probe_s"] = host_probe()
        Path(args.result).write_text(json.dumps(result))
        return 0

    import workloads

    out_root = Path(args.result).with_suffix(".out")
    ops = workloads.build(args.workload, args.seed, args.smoke, out_root)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
        tracer.install()

    outcomes = []
    c0 = time.process_time()
    t0 = time.perf_counter()
    for op in ops:
        root_span = tracer.span(f"bench.{op.name}") if tracer else contextlib.nullcontext()
        with root_span:
            try:
                outcomes.append((op.call(), None))
            except Exception:  # the op failed; count it and keep going
                outcomes.append((None, traceback.format_exc()))
    wall_s = time.perf_counter() - t0
    cpu_s = time.process_time() - c0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["host_probe_s"] = host_probe()  # after the peak RSS is read: it allocates

    if tracer:
        tracer.uninstall()
        tracer.save(args.trace)
        result["layers"] = tracer.layer_metrics()

    refs = workloads.load_refs(args.workload)
    checks = {}
    for op, (value, error) in zip(ops, outcomes):
        if error is not None:
            print(error, file=sys.stderr)
            checks[op.name] = "mismatch: raised " + error.strip().splitlines()[-1]
        else:
            checks[op.name] = workloads.check(op, value, refs)
    shutil.rmtree(out_root, ignore_errors=True)
    result.update(
        wall_s=wall_s,
        cpu_s=cpu_s,
        peak_rss_mb=peak_rss_mb,
        attempted=len(ops),
        failed=sum(s.startswith("mismatch") for s in checks.values()),
        checks=checks,
    )
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
