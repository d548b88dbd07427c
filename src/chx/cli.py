"""Command line entry points: evaluate one character, search an extremal
family, or run the verification suites.

Exit codes: 0 success, 1 verification failure, 2 usage error (bad flags or
values), 3 mathematical constraint or resource-cap violation.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from datetime import datetime, timezone
from pathlib import Path

from .character import (
    _check_table_size,
    character_from_id,
    character_from_index,
    kronecker_character,
)
from .errors import ConstraintError, ResourceError
from .families import extremal_pipeline
from .lfunction import check_euler_truncation
# bench/test_bench.py::test_tracer_patches_every_binding asserts cli.sieve_primes
from .ntheory import sieve_primes  # noqa: F401
from .report import (
    RunManifest,
    evaluate_character,
    write_csv,
    write_json,
    write_jsonl,
)
from .verify import SUITE_NAMES, run_suites

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_CONSTRAINT = 3

_MODES = ("orderk", "odd_sum", "even_sum")


def build_parser() -> argparse.ArgumentParser:
    from . import __version__

    ap = argparse.ArgumentParser(
        prog="chx",
        description="exact Dirichlet characters, L(1) values, and "
        "character-sum extremes",
    )
    ap.add_argument("--version", action="version", version=f"chx {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate a single character")
    ev.add_argument("--id", help="canonical character id")
    ev.add_argument("--q", type=int, help="odd prime modulus (with --t)")
    ev.add_argument("--t", type=int, help="index at the least primitive root")
    ev.add_argument("--kronecker", type=int, metavar="D",
                    help="quadratic character of fundamental discriminant D")
    ev.add_argument("--z", type=float, default=None,
                    help="also report the Euler product truncated at z")
    ev.add_argument("--out", default=None, help="directory for record.json")

    se = sub.add_parser("search", help="run an extremal-family search")
    se.add_argument("--mode", required=True, choices=_MODES)
    se.add_argument("--Q", required=True, type=float, help="family height, >= 1e4")
    se.add_argument("--k", required=True, type=int, help="character order")
    se.add_argument("--jobs", type=int, default=1, help="worker processes")
    se.add_argument("--out", default=None,
                    help="directory for manifest.json, records.jsonl, records.csv")

    ve = sub.add_parser("verify", help="run verification suites")
    ve.add_argument("suite", choices=SUITE_NAMES + ("all",))
    ve.add_argument("--out", default=None,
                    help="directory for summary.json and manifest.json")
    return ap


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _manifest(command, params, started, outputs) -> RunManifest:
    from . import __version__

    return RunManifest(
        command=command,
        params=params,
        version=__version__,
        started_at=started,
        finished_at=_utcnow(),
        output_paths={k: str(v) for k, v in outputs.items()},
    )


def _fmt_lv(lv) -> str:
    return f"{lv.value.real:+.10f}{lv.value.imag:+.10f}i  |.|={abs(lv.value):.10f}"


def _out_dir(out) -> Path | None:
    """The --out directory, made before any work is done (None without
    --out); one that cannot be made is a usage error."""
    if not out:
        return None
    try:
        Path(out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"--out {out} cannot be made a directory: {exc.strerror or exc}") from exc
    return Path(out)


def _check_z(z) -> None:
    if z is not None and not 2 <= z <= 2**32:  # 2**32: the prime sieve's limit
        raise ValueError(f"--z must be an Euler truncation in [2, 2**32], got {z:g}")
    if z is not None:
        check_euler_truncation(z)  # exit 3 past the table cap, before any sieve


def _id_modulus(char_id: str) -> int:
    """q of an id "q=<q>;comps=...", read without factoring it (1 when that
    part is malformed: character_from_id refuses the id)."""
    head = re.match(r"q=([1-9][0-9]*);", char_id)
    return int(head[1]) if head else 1


def cmd_eval(args) -> int:
    started = _utcnow()
    _check_z(args.z)
    chosen = [args.id is not None, args.kronecker is not None,
              args.q is not None or args.t is not None]
    if sum(chosen) != 1:
        raise ValueError("choose exactly one of --id, --kronecker, or --q/--t")
    # a modulus past the table cap exits 3 before it is factored to build chi
    # (factor refuses 2**63 and above); --q is checked by evaluate_character
    if args.id is not None:
        _check_table_size(_id_modulus(args.id))
        chi = character_from_id(args.id)
    elif args.kronecker is not None:
        _check_table_size(abs(args.kronecker))
        chi = kronecker_character(args.kronecker)
    else:
        if args.q is None or args.t is None:
            raise ValueError("--q and --t must be given together")
        chi = character_from_index(args.q, args.t)
    outdir = _out_dir(args.out)
    rec = evaluate_character(chi, z=args.z)
    print(f"char      {rec.char_id}")
    print(f"modulus   {rec.modulus}   conductor {rec.conductor}   "
          f"order {rec.order}   parity {rec.parity:+d}")
    print(f"L(1,chi)  {_fmt_lv(rec.L1)}  [{rec.L1.method}]")
    if rec.L1_euler is not None:
        print(f"L1_euler  {_fmt_lv(rec.L1_euler)}  [z={args.z:g}]")
    print(f"M(chi)    {rec.M:.6f} at x = {rec.argmax}   |tau| = {rec.tau_abs:.10f}")
    if rec.ratio_odd is not None:
        print(f"ratios    odd {rec.ratio_odd:.6f}   even {rec.ratio_even:.6f}")
    if outdir:
        write_json(outdir / "record.json", rec.to_json_dict())
        man = _manifest("eval", {"id": rec.char_id, "z": args.z}, started,
                        {"record": outdir / "record.json"})
        write_json(outdir / "manifest.json", man.to_json_dict())
    return EXIT_OK


def cmd_search(args) -> int:
    if not 1e4 <= args.Q < math.inf:
        raise ValueError(f"search requires a finite Q >= 1e4, got {args.Q:g}")
    if args.jobs < 1:
        raise ValueError("--jobs must be >= 1")
    started = _utcnow()
    outdir = _out_dir(args.out)
    res = extremal_pipeline(args.Q, args.k, args.mode, jobs=args.jobs)
    rank = "|L(1,chi)|" if args.mode == "orderk" else "M(chi)"
    print(f"mode {args.mode}  k={args.k}  Q={args.Q:g}  "
          f"members={res.family_size}  ranked by {rank}")
    print(f"e^gamma loglog Q = {res.references['e_gamma_loglog_Q']:.6f}")
    for i, r in enumerate(res.records[:5], 1):
        print(f"{i:2d}. q={r.modulus:<9d} |L1|={abs(r.L1.value):.6f} "
              f"M={r.M:10.2f}  {r.char_id}")
    if outdir:
        paths = {
            "records_jsonl": outdir / "records.jsonl",
            "records_csv": outdir / "records.csv",
        }
        write_jsonl(paths["records_jsonl"], (r.to_json_dict() for r in res.records))
        write_csv(paths["records_csv"], (r.csv_row() for r in res.records))
        params = {"mode": args.mode, "Q": args.Q, "k": args.k, "jobs": args.jobs}
        man = _manifest("search", params, started, paths)
        # the signature cutoff the pigeonhole used (the base family's in the twisted
        # modes) and whether a retry lowered it to get a pair
        family = {"y_used": res.y_used, "substituted": res.substituted}
        write_json(outdir / "manifest.json", {**man.to_json_dict(), "family": family})
    return EXIT_OK


def cmd_verify(args) -> int:
    started = _utcnow()
    outdir = _out_dir(args.out)
    suites = run_suites(args.suite)
    for s in suites:
        for c in s.checks:
            print(f"[{'ok' if c.passed else 'FAIL'}] {s.suite}:{c.name}")
    passed = all(s.passed for s in suites)
    summary = {
        "suite": args.suite,
        "passed": passed,
        "suites": [s.to_json_dict() for s in suites],
    }
    if outdir:
        write_json(outdir / "summary.json", summary)
        man = _manifest("verify", {"suite": args.suite}, started,
                        {"summary": outdir / "summary.json"})
        # per-check wall seconds go in the manifest; the summary stays byte-identical
        seconds = {f"{s.suite}:{c.name}": t
                   for s in suites for c, t in zip(s.checks, s.seconds)}
        write_json(outdir / "manifest.json", {**man.to_json_dict(), "seconds": seconds})
    print(f"verify {args.suite}: {'PASS' if passed else 'FAIL'}")
    return EXIT_OK if passed else EXIT_VERIFY_FAIL


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "eval":
            return cmd_eval(args)
        if args.command == "search":
            return cmd_search(args)
        return cmd_verify(args)
    except (ConstraintError, ResourceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONSTRAINT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
