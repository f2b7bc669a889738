"""CLI contract: parsing, output formats, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mfnear import cli, mmf, oracle
from mfnear.boolfun import TruthTable
from mfnear.gf2 import AffineMap, Gf2Matrix


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def test_formulas_text(capsys):
    rc, out = run_cli(capsys, "formulas", "--two-n", "4")
    assert rc == 0
    assert "896" in out and "13.714246" in out


def test_formulas_two_n_2_emits_zero_near(capsys):
    rc, out = run_cli(capsys, "formulas", "--two-n", "2", "--format", "json")
    assert rc == 0
    data = json.loads(out)
    near = [r for r in data["reports"] if r["label"] == "2n=2 |near(MF)|"]
    assert near[0]["text"] == "0"


def test_formulas_range(capsys):
    rc, out = run_cli(capsys, "formulas", "--two-n", "4..8", "--format", "json")
    assert rc == 0
    labels = {r["label"] for r in json.loads(out)["reports"]}
    assert "2n=8 mfc_upper" in labels and "2n=6 beta" in labels


def test_table_csv(capsys):
    rc, out = run_cli(capsys, "table", "4", "--format", "csv")
    assert rc == 0
    assert "77.864341" in out and "77.865447" in out and "< 0" in out


def test_table_bad_id_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", "9"])
    assert exc.value.code == 2


def test_near_count_identity(capsys):
    rc, out = run_cli(capsys, "near", "--pi", "[0,1,2,3]", "--phi", "0000")
    assert rc == 0
    assert json.loads(out)["count"] == 60


@pytest.mark.parametrize("mode", ["realize", "list"])
def test_near_expansion_past_the_budget_is_a_usage_error(capsys, mode):
    # pi = identity, phi = 0 at 2n = 10 has 2423520 closest bent functions,
    # 2.5 GB as truth tables: refused before any is built, and counted instead
    ident = ("--pi", json.dumps(list(range(32))), "--phi", "0" * 32)
    rc = cli.main(["near", *ident, "--mode", mode])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_USAGE and captured.out == ""
    assert "more than 65536 closest bent functions" in captured.err and "--mode count" in captured.err
    rc, out = run_cli(capsys, "near", *ident, "--mode", "count")
    assert rc == 0 and json.loads(out)["count"] == 2423520


def test_near_brute_list_is_a_usage_error(capsys):
    rc = cli.main(["near", "--pi", "[0,1,2,3]", "--phi", "0000", "--mode", "list", "--brute"])
    assert rc == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "--brute gives --mode count or realize" in captured.err


def test_the_cached_parser_carries_no_state(capsys):
    assert cli.build_parser() is cli.build_parser()
    sample = ("sample", "--kind", "m-size", "--two-n", "4", "--trials", "3")
    rc, out = run_cli(capsys, *sample, "--seed", "5")
    assert rc == 0 and json.loads(out)["seed"] == 5
    rc, out = run_cli(capsys, *sample)
    assert rc == 0 and json.loads(out)["seed"] != 5
    near = ("near", "--pi", "[0,1,2,3]", "--phi", "0000", "--mode", "realize")
    rc, out = run_cli(capsys, *near, "--brute")
    assert rc == 0 and json.loads(out)["mode"] == "brute"
    rc, out = run_cli(capsys, *near)
    assert rc == 0 and "mode" not in json.loads(out)
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", "9"])
    assert exc.value.code == cli.EXIT_USAGE
    rc, out = run_cli(capsys, "table", "1")
    assert rc == 0 and out


def test_near_brute_matches_criterion(capsys):
    rc, out1 = run_cli(
        capsys, "near", "--pi", "[0,1,2,3]", "--phi", "0000", "--mode", "realize"
    )
    rc2, out2 = run_cli(
        capsys, "near", "--pi", "[0,1,2,3]", "--phi", "0000", "--mode", "realize", "--brute"
    )
    assert rc == rc2 == 0
    assert set(json.loads(out1)["realized"]) == set(json.loads(out2)["realized"])


def test_near_list_and_parents(capsys):
    rc, out = run_cli(
        capsys, "near", "--pi", "[0,1,2,3]", "--phi", "0000", "--mode", "list",
        "--parents", "28",
    )
    assert rc == 0
    data = json.loads(out)
    assert len(data["witnesses"]) == 60
    assert data["witnesses"][28]["dim"] == 2
    assert len(data["parents"]) == 24


@pytest.mark.parametrize("index", ["5000", "60", "-1"])
def test_near_parents_out_of_range_usage_error(capsys, index):
    rc = cli.main(["near", "--pi", "[0,1,2,3]", "--phi", "0000", "--mode", "list", "--parents", index])
    assert rc == cli.EXIT_USAGE
    assert "--parents must be a witness index in 0..59" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [["--mode", "count"], ["--mode", "realize", "--brute"]])
def test_near_parents_without_witness_list_usage_error(capsys, extra):
    rc = cli.main(["near", "--pi", "[0,1,2,3]", "--phi", "0000", *extra, "--parents", "5"])
    assert rc == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "--parents needs --mode list or realize" in captured.err


@pytest.mark.parametrize("argv", [
    ["formulas", "--two-n", "2..20", "--format", "json"],
    ["near", "--pi", "[0,1,2,3]", "--phi", "0000", "--mode", "realize", "--brute"],
])
def test_closed_stdout_is_normal_end(capsys, monkeypatch, argv):
    def closed(text):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys.stdout, "write", closed)
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr().err == ""


def test_closed_stdout_pipe_exits_quietly():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("PYTHONUNBUFFERED", None)  # keep output in the buffer the final flush writes
    proc = subprocess.Popen(
        [sys.executable, "-m", "mfnear.cli", "table", "4", "--format", "text"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()  # the reader is gone before the first write
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == cli.EXIT_OK
    assert err == b""


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")


@needs_dev_full
def test_full_disk_on_out_is_a_usage_error(capsys):
    rc = cli.main(["table", "1", "--out", "/dev/full"])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_USAGE and captured.out == ""
    assert captured.err == "cannot write --out /dev/full: No space left on device\n"


@needs_dev_full
def test_full_disk_on_stdout_is_a_usage_error(capsys, monkeypatch):
    with open("/dev/full", "w") as full:
        monkeypatch.setattr(sys, "stdout", full)
        rc = cli.main(["table", "1"])
        monkeypatch.undo()
    assert rc == cli.EXIT_USAGE
    assert capsys.readouterr().err == "cannot write output: No space left on device\n"


@needs_dev_full
@pytest.mark.parametrize("redirect", ["--out", "stdout"])
def test_full_disk_exits_2_in_a_process(redirect):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-m", "mfnear.cli", "table", "1"]
    with open("/dev/full", "w") as full:
        if redirect == "--out":
            proc = subprocess.run([*argv, "--out", "/dev/full"], capture_output=True, env=env, timeout=60)
        else:
            proc = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, env=env, timeout=60)
    want = "cannot write --out /dev/full" if redirect == "--out" else "cannot write output"
    assert proc.returncode == cli.EXIT_USAGE
    assert proc.stderr.decode() == want + ": No space left on device\n"


def test_near_brute_above_2n_8_is_a_usage_error(capsys):
    f = mmf.build_mmf(mmf.MMFunction(mmf.Permutation.identity(5), TruthTable(5, 0)))
    rc = cli.main(["near", "--hex", f.to_hex(), "--two-n", "10", "--brute"])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_USAGE and captured.out == ""
    assert captured.err == "brute scan supports even m <= 8\n"


def test_internal_error_exit_code(capsys, monkeypatch):
    def broken(f):
        raise AssertionError("scan produced a non-bent neighbor")

    monkeypatch.setattr(oracle, "near_brute", broken)
    rc = cli.main(["near", "--pi", "[0,1,2,3]", "--phi", "0000", "--brute"])
    assert rc == cli.EXIT_INTERNAL == 3
    err = capsys.readouterr().err
    assert err == "internal error: AssertionError: scan produced a non-bent neighbor\n"


def test_near_hex_input(capsys):
    rc, out = run_cli(capsys, "near", "--pi", "[0,1,2,3]", "--phi", "0000", "--mode", "realize")
    hex0 = json.loads(out)["realized"][0]
    rc, out = run_cli(capsys, "near", "--hex", hex0, "--two-n", "4", "--brute")
    assert rc == 0
    assert json.loads(out)["count"] == 60  # neighbors of a bent neighbor


@pytest.mark.parametrize("hex_input", ["+356", "f_f0"])
def test_near_hex_rejects_non_hex_digits(capsys, hex_input):
    rc = cli.main(["near", "--hex", hex_input, "--two-n", "4", "--mode", "count"])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_USAGE and captured.out == ""
    assert "not a string of hex digits" in captured.err


def test_near_rejects_non_bijection(capsys):
    rc = cli.main(["near", "--pi", "[0,0,1,2]", "--phi", "0000"])
    assert rc == 2


@pytest.mark.parametrize("pi", ["5", "null", "[[0],[1]]", "[true,false,2,3]", "[0.0,1,2,3]", '"0123"'])
def test_near_rejects_pi_not_int_array(capsys, pi):
    rc = cli.main(["near", "--pi", pi, "--phi", "0000"])
    assert rc == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "--pi must be a JSON array of ints" in captured.err


def _flip_constant(h):
    return AffineMap(h.matrix, h.constant ^ 1, h.domain)


def _flip_matrix(h):
    # flip one entry on a pivot row of the domain, so H' changes on L
    piv = (h.domain.direction.basis[0] & -h.domain.direction.basis[0]).bit_length() - 1
    rows = list(h.matrix.rows)
    rows[piv] ^= 1
    return AffineMap(Gf2Matrix(tuple(rows), h.matrix.width), h.constant, h.domain)


@pytest.mark.parametrize("flip, why", [
    # a constant shift of a dim-2 H' is again a witness, of another U
    (_flip_constant, "formula parent does not realize the same function"),
    (_flip_matrix, "H' is not a witness"),
])
def test_verify_coincidence_reports_a_wrong_parent(capsys, monkeypatch, flip, why):
    def one_wrong_parent(g, w):
        parents = mmf.coincidence_parents(g, w)
        pi2, phi2, h2 = parents[-1]
        parents[-1] = (pi2, phi2, flip(h2))
        return parents

    monkeypatch.setattr(oracle, "coincidence_parents", one_wrong_parent)
    out = oracle.verify_coincidence(trials=2, seed=1)
    assert not out.passed and why in out.witness
    rc = cli.main(["verify", "--suite", "coincidence", "--seed", "1", "--trials", "2"])
    assert rc == cli.EXIT_VERIFY_FAIL == 1
    assert why in json.loads(capsys.readouterr().out)["outcomes"][0]["witness"]


def test_verify_census_deterministic(capsys):
    rc1, out1 = run_cli(capsys, "verify", "--suite", "census", "--seed", "1")
    rc2, out2 = run_cli(capsys, "verify", "--suite", "census", "--seed", "1")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_verify_beta_suite_reports_the_two_coset_bound(capsys):
    rc, out = run_cli(capsys, "verify", "--suite", "beta", "--seed", "1", "--trials", "4")
    assert rc == 0
    outcomes = {o["label"]: o for o in json.loads(out)["outcomes"]}
    bound = outcomes["two-coset-series lower bound"]
    assert bound["status"] == "pass" and bound["work"]["trials"] == 3
    assert all(o["status"] == "pass" for o in outcomes.values())


def test_verify_near_suite(capsys):
    rc, out = run_cli(capsys, "verify", "--suite", "near", "--seed", "3", "--trials", "3")
    assert rc == 0
    data = json.loads(out)
    assert data["outcomes"][0]["status"] == "pass"


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_non_positive_trials_usage_error(capsys, trials):
    rc = cli.main(["verify", "--suite", "near", "--trials", trials, "--seed", "1"])
    assert rc == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "trials must be positive" in captured.err


@pytest.mark.parametrize("spec", ["7", "26", "8..4", "0", "x", "4..x", "..", "22", "24", "20..24"])
def test_formulas_bad_two_n_says_why(capsys, spec):
    rc = cli.main(["formulas", "--two-n", spec])
    assert rc == cli.EXIT_USAGE
    assert f"--two-n {spec}: need even values in 2..20" in capsys.readouterr().err


def test_sample_near_average(capsys):
    rc, out = run_cli(
        capsys, "sample", "--kind", "near-average", "--two-n", "8",
        "--trials", "50", "--seed", "2",
    )
    assert rc == 0
    data = json.loads(out)
    assert data["trials"] == 50 and "target" in data and "z" in data


def test_sample_zero_trials_usage_error(capsys):
    for kind, two_n in (("m-size", "6"), ("near-average", "8")):
        rc = cli.main(["sample", "--kind", kind, "--two-n", two_n, "--trials", "0", "--seed", "1"])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == "" and "trials must be at least 1, got 0" in captured.err


def test_out_dir_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MFNEAR_OUT_DIR", str(tmp_path))
    rc = cli.main(["table", "3", "--format", "csv", "--out", "t3.csv"])
    assert rc == 0
    content = (tmp_path / "t3.csv").read_text()
    assert "1 + 2^-10.349626" in content


@pytest.mark.parametrize("where", ["missing/x.json", "."])
def test_unwritable_out_usage_error(tmp_path, capsys, where):
    # a missing directory, then a directory itself: bad input, not a fault
    target = str(tmp_path / where)
    rc = cli.main(["table", "3", "--out", target])
    err = capsys.readouterr().err
    assert rc == 2 and f"cannot write --out {target}" in err and "internal error" not in err
