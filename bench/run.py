#!/usr/bin/env python3
"""The chx benchmark.

    python3 bench/run.py                      # every workload, end-to-end table
    python3 bench/run.py --workload search_mix --seed 1 --seconds 20 --trace 0

Load model: a closed loop with one client.  Each pass of a workload is a
fresh process (bench/worker.py) with the BLAS/OpenMP pools pinned to one
thread; passes run one at a time, and a run makes as many as fit in
``--seconds`` (at least one).  With ``--trace 0`` the run reports the
end-to-end metrics of BENCHMARK.json: medians over its passes, with the
times scaled from the host's measured speed during the run to a reference
speed (REFERENCE_PROBE_S); with ``--trace 1`` it adds one traced pass and
reports the per-layer metrics, as measured.
bench/model.json records the load model, why each workload was chosen and
which end-to-end metric each layer metric should move.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
stamped with the machine's facts, goes to ``.bench_out/BENCH_<run>.json``
and the traced pass's spans to ``.bench_out/<run>-spans.npz``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
MODEL = json.loads((BENCH / "model.json").read_text())
WORKLOADS = tuple(MODEL["workloads"])
SETUP_SAMPLES = 7
# worker.host_probe()'s mean time per kernel run in the fastest spells of a
# shared 2-vCPU 2.0 GHz Xeon: the host speed that setup_s, wall_s and cpu_s
# are stated at.
REFERENCE_PROBE_S = 0.07
RUN_LIMIT_S = 170.0  # a run must end within 180 s


class BenchError(RuntimeError):
    pass


def metric_specs() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


# -- machine facts -------------------------------------------------------------------


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def _loadavg() -> str | None:
    text = _read("/proc/loadavg")
    return text.strip() if text else None


def _cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return None


def _caches() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for d in sorted(base.glob("index*")):
        level, kind, size = (_read(str(d / f)) for f in ("level", "type", "size"))
        if level and size and kind and kind.strip() != "Instruction":
            out[f"L{level.strip()}"] = size.strip()
    return out


def _mem_total() -> str | None:
    for line in (_read("/proc/meminfo") or "").splitlines():
        if line.startswith("MemTotal:"):
            return line.split(":", 1)[1].strip()
    return None


def _git() -> dict:
    """sha and dirty flag when the checkout is a git repository, plus a
    digest of the program's sources, which exists either way."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    facts = {"sha": None, "dirty": None, "src_sha256": digest.hexdigest()}
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                                  text=True, timeout=30).stdout.strip()

        facts["sha"] = git("rev-parse", "HEAD") or None
        facts["dirty"] = bool(git("status", "--porcelain", "--untracked-files=no"))
    return facts


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "mem_total": _mem_total(),
        "thread_env": MODEL["load_model"]["thread_env"],
        "git": _git(),
    }


# -- worker processes ------------------------------------------------------------------


def worker(workload: str, seed: int, result: Path, deadline: float, *,
           trace: Path | None = None, smoke: bool = False, setup_only: bool = False) -> dict:
    env = dict(os.environ, **MODEL["load_model"]["thread_env"])
    env.pop("PYTHONPATH", None)  # chx comes from this checkout's src/ only
    cmd = [sys.executable, str(BENCH / "worker.py"), "--root", str(ROOT),
           "--workload", workload, "--seed", str(seed), "--result", str(result)]
    cmd += ["--trace", str(trace)] if trace else []
    cmd += ["--smoke"] if smoke else []
    cmd += ["--setup-only"] if setup_only else []
    timeout = max(1.0, deadline - time.monotonic())
    result.unlink(missing_ok=True)
    try:
        proc = subprocess.run(cmd + ["--launched-ns", str(time.monotonic_ns())],
                              env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} pass exceeded the {RUN_LIMIT_S:.0f} s run limit") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not result.is_file():
        raise BenchError(f"{workload} worker exited with code {proc.returncode}")
    out = json.loads(result.read_text())
    result.unlink()
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """One benchmark run: warm-up, measured passes, extra set-up samples and,
    with trace, one traced pass.  Returns the full result record, which keeps
    the times as measured beside the metrics scaled to the reference speed."""
    if workload not in WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    deadline = time.monotonic() + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}" + ("-smoke" if smoke else "")
    scratch = OUT / f"{tag}-{os.getpid()}.json"
    load_start = _loadavg()
    compileall.compile_dir(ROOT / "src", quiet=1)
    warmup = worker(workload, seed, scratch, deadline, setup_only=True)

    passes = []
    t0 = time.monotonic()
    while True:
        start = time.monotonic()
        passes.append(worker(workload, seed, scratch, deadline, smoke=smoke))
        took = time.monotonic() - start
        if time.monotonic() - t0 + took > seconds or time.monotonic() + 2 * took > deadline:
            break
    walls = [p["wall_s"] for p in passes]
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "smoke": smoke, "passes": passes}
    if trace:
        spans = OUT / f"{tag}-spans.npz"
        traced = worker(workload, seed, scratch, deadline, trace=spans, smoke=smoke)
        passes.append(traced)
        metrics = dict(traced.pop("layers"))
        metrics["trace.overhead_s"] = traced["wall_s"] - statistics.median(walls)
        record.update(traced_wall_s=traced["wall_s"], spans_file=str(spans))
    else:
        launches = [warmup, *passes]
        while len(launches) < SETUP_SAMPLES + 1 and time.monotonic() + 5 < deadline:
            launches.append(worker(workload, seed, scratch, deadline, setup_only=True))
        setups = [p["setup_s"] for p in launches[1:]]
        as_measured = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        }
        # The shared host's speed drifts by up to 2x over minutes, in the
        # passes' times and in the probe's alike.  Every launch runs the
        # probe right after its timed part, so its mean over the run tracks
        # the host's speed during the run; the times are scaled by it to the
        # reference speed.  The mean, not the median, because a pass's time
        # is itself an average over the host's fast and slow spells.
        probe_s = statistics.fmean(t for p in launches for t in p["host_probe_s"])
        metrics = {k: v * REFERENCE_PROBE_S / probe_s for k, v in as_measured.items()}
        metrics["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in passes)
        record.update(setup_samples=setups, as_measured=as_measured, host_probe_s=probe_s)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    record.update(
        metrics=metrics,
        attempted=attempted,
        failed=failed,
        fail_frac=failed / attempted,
        stamp={**machine_facts(), "versions": warmup["versions"],
               "loadavg_start": load_start, "loadavg_end": _loadavg()},
    )
    (OUT / f"BENCH_{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def report(record: dict, units: dict) -> dict:
    """Print the run in words and return the contract's result line."""
    missing = set(units) - set(record["metrics"])
    if missing:
        raise BenchError(f"metrics not produced: {sorted(missing)}")
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"passes {len(record['passes'])}  trace {int(record['trace'])}")
    for name, unit in units.items():
        print(f"  {name:40s} {record['metrics'][name]!r} {unit}")
    for name, value in record.get("as_measured", {}).items():
        print(f"  {name + ' as measured':40s} {value!r} s "
              f"(host probe {record['host_probe_s']:.4f} s, reference {REFERENCE_PROBE_S} s)")
    print(f"  {'fail_frac':40s} {record['fail_frac']!r} "
          f"({record['failed']}/{record['attempted']} operations)")
    for i, p in enumerate(record["passes"]):
        for op, status in p["checks"].items():
            print(f"  check pass {i}: {op}: {status}")
    print("stamp " + json.dumps(record["stamp"], sort_keys=True))
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: {"value": record["metrics"][n], "unit": u} for n, u in units.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="chx benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, default=None,
                    help="run one workload (default: every workload, one after another)")
    ap.add_argument("--seed", type=int, default=20260815)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="small inputs, for the bench's own tests")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (ROOT / "src" / "chx" / "__init__.py").is_file():
        print(f"error: no chx sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    e2e, per_layer = metric_specs()
    units = per_layer if args.trace else e2e
    try:
        if args.workload:
            rec = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
            print(json.dumps(report(rec, units)))
            return 0
        lines = {}
        for w in WORKLOADS:
            rec = run_workload(w, args.seed, args.seconds, bool(args.trace), args.smoke)
            lines[w] = report(rec, units)
        print(json.dumps(lines))
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
