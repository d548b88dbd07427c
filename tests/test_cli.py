"""CLI subcommands, exit codes, and reproducible run outputs."""

from __future__ import annotations

import json
import math

import pytest

from chx import character, cli, families, lfunction, ntheory
from chx.cli import main


def test_eval_kronecker(capsys):
    assert main(["eval", "--kronecker", "-4"]) == 0
    out = capsys.readouterr().out
    assert "0.7853981634" in out
    assert "M(chi)    1.000000 at x = 1" in out


def test_eval_prime_index(capsys):
    assert main(["eval", "--q", "13", "--t", "4"]) == 0
    out = capsys.readouterr().out
    assert "order 3" in out


def test_eval_bad_index_exit_2(capsys):
    assert main(["eval", "--q", "13", "--t", "13"]) == 2
    assert "error:" in capsys.readouterr().err


def test_eval_selector_conflicts(capsys):
    assert main(["eval", "--kronecker", "-4", "--q", "13", "--t", "1"]) == 2
    assert main(["eval"]) == 2
    assert main(["eval", "--q", "13"]) == 2


def test_eval_writes_record(tmp_path, capsys):
    assert main(["eval", "--id", "q=5;comps=5:1", "--z", "50",
                 "--out", str(tmp_path)]) == 0
    rec = json.loads((tmp_path / "record.json").read_text())
    assert rec["char_id"] == "q=5;comps=5:1"
    assert rec["order"] == 4
    assert rec["L1_euler"]["method"] == "euler_truncated"
    man = json.loads((tmp_path / "manifest.json").read_text())
    assert man["command"] == "eval"


@pytest.mark.parametrize("Q", ["100", "inf", "nan"])
def test_search_small_q_exit_2(Q, capsys):
    assert main(["search", "--mode", "orderk", "--Q", Q, "--k", "2"]) == 2


@pytest.mark.parametrize("argv,flag", [
    (["eval", "--q", "13", "--t", "4", "--z", "inf"], "--z"),
    (["eval", "--q", "13", "--t", "4", "--z", "nan"], "--z"),
    (["eval", "--q", "13", "--t", "4", "--z", "-5"], "--z"),
    (["eval", "--q", "13", "--t", "4", "--z", "1.99"], "--z"),
    (["eval", "--q", "13", "--t", "4", "--z", "0"], "--z"),
    (["eval", "--q", "13", "--t", "4", "--z", str(2**32 + 1)], "--z"),
    (["eval", "--kronecker", "-4", "--z", "-5"], "--z"),
    (["eval", "--kronecker", "-4", "--z", "inf"], "--z"),
    (["eval", "--id", "q=5;comps=5:1", "--z", "nan"], "--z"),
    (["eval", "--q", "13", "--t", "4", "--z", "1e30"], "--z"),
])
def test_bad_float_flag_exit_2(argv, flag, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert flag in err and "Traceback" not in err


@pytest.mark.parametrize("mode,Q", [("orderk", "1e30"), ("even_sum", "1e30"),
                                    ("orderk", str(2**26))])
def test_search_out_of_scale_q_exit_3(mode, Q, capsys, monkeypatch):
    def refuse(limit):
        raise AssertionError(f"sieve_primes({limit}) ran before the scale check")

    for mod in (ntheory, families, lfunction, cli):
        monkeypatch.setattr(mod, "sieve_primes", refuse)
    assert main(["search", "--mode", mode, "--Q", Q, "--k", "2"]) == 3
    err = capsys.readouterr().err
    assert "--Q" in err and "2**26" in err


@pytest.mark.parametrize("argv", [
    ["eval", "--q", "13", "--t", "4", "--z", "4294967296"],
    ["eval", "--kronecker", "-4", "--z", str(2**26 + 1)],
])
def test_huge_z_exit_3(argv, capsys, monkeypatch):
    def refuse(limit):
        raise AssertionError(f"sieve_primes({limit}) ran before the --z check")

    for mod in (ntheory, families, lfunction, cli):
        monkeypatch.setattr(mod, "sieve_primes", refuse)
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "--z" in err and "2**26" in err


@pytest.mark.parametrize("mode", ["orderk", "odd_sum", "even_sum"])
@pytest.mark.parametrize("flag,value", [("--y-mult", "1"), ("--delta", "1"), ("--xi", "3"),
                                        ("--z", "100")])
def test_search_retired_flags_usage_error(mode, flag, value, tmp_path, capsys):
    # each mode fixes its family and its y, z, delta and xi: none is an option
    argv = ["search", "--mode", mode, "--Q", "1e4", "--k", "2", flag, value,
            "--out", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mode", ["odd_sum", "even_sum"])
@pytest.mark.parametrize("k", ["0", "1"])
def test_search_twisted_k_below_2_exit_2(mode, k, capsys):
    assert main(["search", "--mode", mode, "--Q", "1e4", "--k", k]) == 2
    err = capsys.readouterr().err
    assert "integer >= 2" in err and "Traceback" not in err


@pytest.mark.parametrize("mode,k", [("orderk", "97"), ("even_sum", "1000")])
def test_search_empty_family_exit_3(mode, k, tmp_path, capsys):
    # no window prime is 1 mod k, so no pair exists
    argv = ["search", "--mode", mode, "--Q", "1e4", "--k", k, "--out", str(tmp_path)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "0 primes = 1 mod" in err and "Traceback" not in err
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("Q", ["1e4", "1e5"])
def test_search_empty_twist_family_exit_3(Q, tmp_path, capsys):
    # the base pair exists, but no fundamental d up to Q^(1/3) has the signature
    argv = ["search", "--mode", "odd_sum", "--Q", Q, "--k", "2", "--out", str(tmp_path)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert f"empty family: odd_sum at Q={float(Q):g}" in err and "Traceback" not in err
    assert not (tmp_path / "manifest.json").exists()


def test_eval_oversized_composite_refused_before_any_table(tmp_path, capsys, monkeypatch):
    # 8191 * 8209 > 2**26, though each component's own tables are small
    def refuse(*args, **kwargs):
        raise AssertionError("a value table was built before the size check")

    monkeypatch.setattr(character, "_table_rows", refuse)
    argv = ["eval", "--id", "q=67239919;comps=8191:2,8209:2", "--out", str(tmp_path)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "value table of size 67239919 exceeds cap 2**26" in err and "Traceback" not in err
    assert not (tmp_path / "manifest.json").exists()


def test_eval_prime_modulus_past_2_63_exit_3(capsys):
    # q - 1 is past factor's range: the cap check comes before chi's order is asked for
    assert main(["eval", "--q", "9223372036854775837", "--t", "3"]) == 3
    err = capsys.readouterr().err
    assert "value table of size 9223372036854775837 exceeds cap 2**26" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["eval", "--id", "q=9223372036854775837;comps=9223372036854775837:3"],
    ["eval", "--kronecker", "9223372036854775837"],
    ["eval", "--kronecker", "-9223372036854775837"],
    ["eval", "--id", "q=67239919;comps=8191:2,8209:2"],
    ["eval", "--kronecker", "-67108867"],
])
def test_eval_id_and_kronecker_past_the_cap_exit_3_before_factoring(argv, capsys, monkeypatch):
    # factor refuses 2**63 and above: the modulus is checked before it is factored
    def refuse(n):
        raise AssertionError(f"factor({n}) ran before the table-size check")

    for mod in (ntheory, character):
        monkeypatch.setattr(mod, "factor", refuse)
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "exceeds cap 2**26" in err and "Traceback" not in err


@pytest.mark.parametrize("mode,Q", [("even_sum", "1e8"), ("orderk", "3e7"), ("odd_sum", "1e8")])
def test_search_oversized_member_refused_before_evaluating(mode, Q, tmp_path, capsys, monkeypatch):
    # the conductor floor passes, but the largest member's table is over the cap
    def refuse(*args, **kwargs):
        raise AssertionError("a member was evaluated before the table-size check")

    monkeypatch.setattr(families, "evaluate_character", refuse)
    argv = ["search", "--mode", mode, "--Q", Q, "--k", "2", "--out", str(tmp_path)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "2**26" in err and "Traceback" not in err
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("argv,work", [
    (["eval", "--q", "3", "--t", "1"], "evaluate_character"),
    (["search", "--mode", "orderk", "--Q", "1e4", "--k", "2"], "extremal_pipeline"),
    (["verify", "census"], "run_suites"),
])
@pytest.mark.parametrize("out", ["file", "file/x"])
def test_out_that_cannot_be_a_directory_exit_2_before_any_work(argv, work, out, tmp_path, capsys,
                                                               monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the work ran before --out was made")

    monkeypatch.setattr(cli, work, refuse)
    (tmp_path / "file").touch()
    assert main(argv + ["--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert "--out" in err and "Traceback" not in err


def test_search_odd_twist_odd_k_exit_3(capsys):
    assert main(["search", "--mode", "odd_sum", "--Q", "1e4", "--k", "3"]) == 3
    assert "even k" in capsys.readouterr().err


def test_search_unknown_mode_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["search", "--mode", "bogus", "--Q", "1e4", "--k", "2"])
    assert exc.value.code == 2


def test_search_writes_reports(tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["search", "--mode", "orderk", "--Q", "1e4", "--k", "2"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2), "--jobs", "2"]) == 0
    stdout = capsys.readouterr().out
    assert "members=3" in stdout
    # records are byte-identical across runs and pool sizes
    assert (out1 / "records.jsonl").read_bytes() == (out2 / "records.jsonl").read_bytes()
    assert (out1 / "records.csv").read_bytes() == (out2 / "records.csv").read_bytes()
    lines = (out1 / "records.jsonl").read_text().splitlines()
    assert len(lines) == 3
    top = json.loads(lines[0])
    assert top["modulus"] == 14111
    assert "references" in top
    man = json.loads((out1 / "manifest.json").read_text())
    assert man["params"] == {"mode": "orderk", "Q": 1e4, "k": 2, "jobs": 1}
    header = (out1 / "records.csv").read_text().splitlines()[0]
    assert header == "char_id,q,order,parity,M,argmax,L1_abs,ratio_odd,ratio_even"


def test_search_manifest_records_the_lowered_cutoff(tmp_path, capsys):
    # orderk k = 3 at Q = 1e4: y = log Q ~ 9.21 gives no pair, the retry lowers it to 5
    assert main(["search", "--mode", "orderk", "--Q", "1e4", "--k", "3",
                 "--out", str(tmp_path)]) == 0
    man = json.loads((tmp_path / "manifest.json").read_text())
    assert man["family"] == {"y_used": 5.0, "substituted": True}
    assert man["params"] == {"mode": "orderk", "Q": 1e4, "k": 3, "jobs": 1}


def test_search_twisted_mode_defaults(tmp_path, capsys):
    assert main(["search", "--mode", "even_sum", "--Q", "1e4", "--k", "2",
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "records.jsonl").read_text().splitlines()
    assert len(lines) == 2
    rec = json.loads(lines[0])
    assert rec["xi_id"] == "q=3;comps=3:1"
    assert rec["parity"] == 1


def test_verify_moments_suite(tmp_path, capsys):
    assert main(["verify", "moments", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "[ok] moments:quadratic_moments" in out
    assert "verify moments: PASS" in out
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["passed"] is True
    assert summary["suites"][0]["suite"] == "moments"
    # summary carries no timestamps; the manifest does
    assert "started_at" not in summary
    man = json.loads((tmp_path / "manifest.json").read_text())
    assert man["started_at"] and man["finished_at"]


def test_verify_manifest_times_each_check(tmp_path, capsys):
    assert main(["verify", "census", "--out", str(tmp_path)]) == 0
    names = ["census:order_k_census", "census:pair_witness", "census:fundamental_census"]
    seconds = json.loads((tmp_path / "manifest.json").read_text())["seconds"]
    assert sorted(seconds) == sorted(names)  # canonical JSON sorts its keys
    assert all(math.isfinite(t) and t >= 0 for t in seconds.values())
    summary = (tmp_path / "summary.json").read_text()
    assert "seconds" not in summary


def test_verify_unknown_suite_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "everything"])
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "chx 0.1.0" in capsys.readouterr().out
