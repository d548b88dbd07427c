"""The benchmark's own tests, on its small-input smoke mode.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
MODEL = json.loads((BENCH / "model.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


_runs: dict = {}


def smoke_run(workload: str, trace: int):
    """(result line, full record) of one smoke run, made once per module."""
    if (workload, trace) not in _runs:
        proc = _run("--workload", workload, "--seed", "5", "--seconds", "1",
                    "--trace", str(trace), "--smoke")
        assert proc.returncode == 0, proc.stderr
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        tag = f"{workload}-seed5-trace{trace}-smoke"
        record = json.loads((ROOT / ".bench_out" / f"BENCH_{tag}.json").read_text())
        _runs[workload, trace] = line, record
    return _runs[workload, trace]


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert set(WORKLOADS) == set(MODEL["workloads"])
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    documented = [n for layer in MODEL["layers"] for n in layer["metrics"]]
    assert documented == [m["name"] for m in SPEC["per_layer"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_with_its_unit(workload, trace):
    line, record = smoke_run(workload, trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in specs]
    for m in specs:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and np.isfinite(got["value"])
    assert record["stamp"]["loadavg_start"] and record["stamp"]["versions"]["numpy"]
    if not trace:
        from run import REFERENCE_PROBE_S

        scale = REFERENCE_PROBE_S / record["host_probe_s"]
        for name, measured in record["as_measured"].items():
            assert line["metrics"][name]["value"] == pytest.approx(measured * scale)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_spans_nest_and_self_times_fit_in_wall(workload):
    _, record = smoke_run(workload, 1)
    spans = np.load(record["spans_file"])
    start, end, parent = spans["start_ns"], spans["end_ns"], spans["parent"]
    assert spans["run_id"].item() and len(spans["layers"]) == len(spans["names"])
    assert start.size > 0 and np.all(end >= start)
    child = np.flatnonzero(parent >= 0)
    assert np.all(start[parent[child]] <= start[child])
    assert np.all(end[child] <= end[parent[child]])

    from tracing import self_times_ns

    selfs = self_times_ns(spans)
    assert np.all(selfs >= 0)
    layer_spans = ~np.char.startswith(spans["names"][spans["name_id"]], "bench.")
    assert selfs[layer_spans].sum() / 1e9 <= record["traced_wall_s"]


def test_tracer_patches_every_binding():
    import chx
    from chx import charsum, cli, lfunction, report, verify
    from chx.character import DirichletCharacter
    from tracing import Tracer

    original = lfunction.l1_exact
    tracer = Tracer("test")
    tracer.install()
    try:
        wrapped = lfunction.l1_exact
        assert wrapped is not original
        assert charsum.l1_exact is report.l1_exact is verify.l1_exact is chx.l1_exact is wrapped
        assert cli.sieve_primes is lfunction.sieve_primes is verify.sieve_primes
        assert DirichletCharacter.__call__ is DirichletCharacter.eval
        assert chx.kronecker_character(-4)(3).as_int() == -1
    finally:
        tracer.uninstall()
    assert lfunction.l1_exact is original and charsum.l1_exact is original
    assert tracer.layer_metrics()["character.eval.calls"] == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
