"""Spans around the public functions of each chx module, recorded from the
benchmark's own files.

`Tracer.install` replaces every binding of each traced function -- the
defining module's global, every ``from .x import f`` copy in the other chx
modules, the ``chx`` package namespace and, for methods, every alias in the
class body -- with a wrapper that records one span per call.  Deferred
imports inside chx functions resolve through the defining module, so they
see the wrapper too.  `Tracer.uninstall` puts the originals back.

Spans stay in memory (four flat int64 arrays) and are written out once, at
the end, by `Tracer.save`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time
from array import array
from collections import Counter

import numpy as np


# Hooks read the traced call's positional arguments: chx passes these ones
# positionally everywhere.


def _on_value_table(tr, args, out):
    chi = args[0]
    tr.counts["character.value_table.bytes"] += 16 * chi.modulus
    tr.tabled.add((chi.modulus, chi.components))


def _on_l1_kernel(tr, args, out):
    tr.counts["lfunction.elements"] += args[0].modulus


def _on_l1_batch(tr, args, out):
    tr.counts["lfunction.elements"] += sum(chi.modulus for chi in args[0])


def _on_write(tr, args, out):
    tr.counts["report.write.bytes"] += os.path.getsize(args[0])


def _on_pigeonhole(tr, args, out):
    tr.counts["families.n_buckets"] += out.n_buckets
    tr.counts["families.substituted"] += int(out.substituted)


def _on_pipeline(tr, args, out):
    tr.counts["families.members"] += out.family_size


def _on_sieve(tr, args, out):
    limit = int(args[0])
    tr.maxima["ntheory.sieve_primes.max_limit"] = max(
        tr.maxima.get("ntheory.sieve_primes.max_limit", 0), limit
    )


def _on_check(tr, args, out):
    tr.counts["verify.chars_checked"] += int(out.detail.get("n_characters", 0))


# (module, attribute, span name, hook run after the call with the result).
# "DirichletCharacter.x" names a method; its `__call__` alias of `eval` is
# found by identity like every other binding.
TARGETS = (
    ("character", "DirichletCharacter.value_table", "character.value_table", _on_value_table),
    ("character", "DirichletCharacter.eval", "character.eval", None),
    ("character", "character_from_index", "character.construct", None),
    ("character", "character_from_id", "character.construct", None),
    ("character", "psi_q", "character.construct", None),
    ("character", "product_character", "character.construct", None),
    ("character", "kronecker_character", "character.construct", None),
    ("families", "psi_tilde", "character.construct", None),
    ("lfunction", "l1_exact", "lfunction.l1_exact", _on_l1_kernel),
    ("lfunction", "l1_exact_batch", "lfunction.l1_exact_batch", _on_l1_batch),
    ("lfunction", "gauss_sum", "lfunction.gauss_sum", _on_l1_kernel),
    ("lfunction", "l1_series_oracle", "lfunction.l1_series_oracle", _on_l1_kernel),
    ("lfunction", "l1_truncated_euler", "lfunction.l1_truncated_euler", None),
    ("charsum", "max_partial_sum", "charsum.max_partial_sum", None),
    ("charsum", "half_sum_check", "charsum.half_sum_check", None),
    ("report", "evaluate_character", "report.evaluate_character", None),
    ("report", "write_json", "report.write", _on_write),
    ("report", "write_jsonl", "report.write", _on_write),
    ("report", "write_csv", "report.write", _on_write),
    ("families", "pigeonhole_search", "families.pigeonhole", None),
    ("families", "pigeonhole_with_retry", "families.pigeonhole", _on_pigeonhole),
    ("families", "twisted_family", "families.twisted_family", None),
    ("families", "extremal_pipeline", "families.extremal_pipeline", _on_pipeline),
    ("families", "random_l1_baseline", "families.random_l1_baseline", None),
    ("ntheory", "sieve_primes", "ntheory.sieve_primes", _on_sieve),
    ("ntheory", "factor", "ntheory.factor", None),
    ("moments", "b_coefficient", "moments.b_coefficient", None),
    ("moments", "b_identity_check", "moments.b_identity_check", None),
    ("moments", "b_product_inequality_check", "moments.b_product_inequality_check", None),
    ("moments", "diagonal_terms", "moments.diagonal_terms", None),
    ("moments", "empirical_moment", "moments.empirical_moment", None),
    ("verify", "_check_gauss_modulus", "verify.gauss_modulus", _on_check),
    ("verify", "_check_half_sum", "verify.half_sum_identity", _on_check),
    ("verify", "_check_exact_vs_series", "verify.exact_vs_series", _on_check),
    ("verify", "_check_b_combinatorics", "verify.b_combinatorics", _on_check),
)

# generators: counted per yielded item, their time stays with the caller
YIELD_COUNTERS = (("character", "all_characters", "character.all_characters.yielded"),)

VERIFY_CHECKS = ("gauss_modulus", "half_sum_identity", "exact_vs_series", "b_combinatorics")


class Tracer:
    """In-memory span recorder for one traced workload pass."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.maxima: dict = {}
        self.tabled: set = set()
        self._undo: list = []

    # -- recording -----------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, name: str, fn, hook=None):
        nid = self._id(name)
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tr._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tr._close(i)
            if hook is not None:
                hook(tr, args, out)
            return out

        return traced

    def count_yields(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] += 1
                yield item

        return traced

    # -- patching -------------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        owners = [m for k, m in list(sys.modules.items()) if k == "chx" or k.startswith("chx.")]
        owners.append(sys.modules["chx.character"].DirichletCharacter)
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, key, replacement)
                    self._undo.append((owner, key, original))

    def install(self) -> None:
        for module, attr, name, hook in TARGETS:
            obj = importlib.import_module(f"chx.{module}")
            for part in attr.split("."):
                obj = getattr(obj, part)
            self._replace_everywhere(obj, self.wrap(name, obj, hook))
        for module, attr, name in YIELD_COUNTERS:
            fn = getattr(importlib.import_module(f"chx.{module}"), attr)
            self._replace_everywhere(fn, self.count_yields(name, fn))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- output ----------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        """Write every span: name, layer, start, end, parent, run id."""
        np.savez_compressed(
            path,
            **self.arrays(),
            names=np.array(self.names),
            layers=np.array([n.split(".", 1)[0] for n in self.names]),
            run_id=np.array(self.run_id),
        )

    def layer_metrics(self) -> dict:
        """Per-layer metric values (without trace.overhead_s), from the spans
        and the counters."""
        per_name = span_totals(self.arrays(), self.names)

        def calls(name):
            return per_name.get(name, (0, 0.0, 0.0))[0]

        def self_s(*names):
            return sum(per_name.get(n, (0, 0.0, 0.0))[1] for n in names)

        yielded = self.counts["character.all_characters.yielded"]
        checked = self.counts["verify.chars_checked"]
        m = {
            "character.value_table.calls": calls("character.value_table"),
            "character.value_table.self_s": self_s("character.value_table"),
            "character.value_table.bytes": self.counts["character.value_table.bytes"],
            "character.tables_per_char": calls("character.value_table") / len(self.tabled)
            if self.tabled else 0.0,
            "character.construct.calls": calls("character.construct"),
            "character.construct.self_s": self_s("character.construct"),
            "character.eval.calls": calls("character.eval"),
            "character.eval.self_s": self_s("character.eval"),
            "character.all_characters.yielded": yielded,
        }
        for fn in ("l1_exact", "l1_exact_batch", "gauss_sum", "l1_series_oracle",
                   "l1_truncated_euler"):
            m[f"lfunction.{fn}.calls"] = calls(f"lfunction.{fn}")
            m[f"lfunction.{fn}.self_s"] = self_s(f"lfunction.{fn}")
        m["lfunction.elements"] = self.counts["lfunction.elements"]
        for fn in ("max_partial_sum", "half_sum_check"):
            m[f"charsum.{fn}.calls"] = calls(f"charsum.{fn}")
            m[f"charsum.{fn}.self_s"] = self_s(f"charsum.{fn}")
        m["report.evaluate_character.self_s"] = self_s("report.evaluate_character")
        m["report.write.self_s"] = self_s("report.write")
        m["report.write.bytes"] = self.counts["report.write.bytes"]
        m["families.pigeonhole.self_s"] = self_s("families.pigeonhole")
        m["families.twisted_family.self_s"] = self_s("families.twisted_family")
        for c in ("members", "n_buckets", "substituted"):
            m[f"families.{c}"] = self.counts[f"families.{c}"]
        m["ntheory.sieve_primes.calls"] = calls("ntheory.sieve_primes")
        m["ntheory.sieve_primes.self_s"] = self_s("ntheory.sieve_primes")
        m["ntheory.sieve_primes.max_limit"] = self.maxima.get("ntheory.sieve_primes.max_limit", 0)
        m["ntheory.factor.calls"] = calls("ntheory.factor")
        m["ntheory.factor.self_s"] = self_s("ntheory.factor")
        m["moments.self_s"] = self_s(*(n for n in per_name if n.startswith("moments.")))
        m["moments.b_coefficient.calls"] = calls("moments.b_coefficient")
        for check in VERIFY_CHECKS:
            m[f"verify.{check}.s"] = per_name.get(f"verify.{check}", (0, 0.0, 0.0))[2]
        m["verify.chars_checked"] = checked
        m["verify.useful_ratio"] = checked / yielded if yielded else 0.0
        m["trace.spans"] = len(self.start)
        return m


def self_times_ns(spans: dict) -> np.ndarray:
    """Each span's duration minus the time covered by its direct children."""
    dur = spans["end_ns"] - spans["start_ns"]
    parent = spans["parent"]
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
    return dur - covered


def span_totals(spans: dict, names) -> dict:
    """name -> (calls, self seconds, total seconds)."""
    selfs = self_times_ns(spans)
    dur = spans["end_ns"] - spans["start_ns"]
    k = len(names)
    calls = np.bincount(spans["name_id"], minlength=k)
    self_s = np.bincount(spans["name_id"], weights=selfs, minlength=k) / 1e9
    total_s = np.bincount(spans["name_id"], weights=dur, minlength=k) / 1e9
    return {n: (int(calls[i]), float(self_s[i]), float(total_s[i])) for i, n in enumerate(names)}
