"""CLI contract: parsing, output formats, determinism, exit codes."""

import json

import pytest

from mfnear import cli, oracle


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


def test_near_rejects_non_bijection(capsys):
    rc = cli.main(["near", "--pi", "[0,0,1,2]", "--phi", "0000"])
    assert rc == 2


def test_verify_census_deterministic(capsys):
    rc1, out1 = run_cli(capsys, "verify", "--suite", "census", "--seed", "1")
    rc2, out2 = run_cli(capsys, "verify", "--suite", "census", "--seed", "1")
    assert rc1 == rc2 == 0
    assert out1 == out2


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


@pytest.mark.parametrize("spec", ["7", "26", "8..4", "0"])
def test_formulas_bad_two_n_says_why(capsys, spec):
    rc = cli.main(["formulas", "--two-n", spec])
    assert rc == cli.EXIT_USAGE
    assert f"--two-n {spec}: need even values in 2..24" in capsys.readouterr().err


def test_sample_near_average(capsys):
    rc, out = run_cli(
        capsys, "sample", "--kind", "near-average", "--two-n", "8",
        "--trials", "50", "--seed", "2",
    )
    assert rc == 0
    data = json.loads(out)
    assert data["trials"] == 50 and "target" in data and "z" in data


def test_sample_zero_trials_usage_error(capsys):
    rc = cli.main(["sample", "--kind", "m-size", "--two-n", "6", "--trials", "0", "--seed", "1"])
    assert rc == 2


def test_out_dir_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MFNEAR_OUT_DIR", str(tmp_path))
    rc = cli.main(["table", "3", "--format", "csv", "--out", "t3.csv"])
    assert rc == 0
    content = (tmp_path / "t3.csv").read_text()
    assert "1 + 2^-10.349626" in content
