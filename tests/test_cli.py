import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qincompat.cli as cli
from qincompat.qobjects import (
    PovmCollection,
    basis_povm,
    identity_channel,
    projective_from_hermitian,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def run_cli(args, capsys):
    code = cli.main(args)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def write_idpair(tmp_path):
    f = tmp_path / "idpair.json"
    f.write_text(json.dumps(
        {"channels": [identity_channel(2).to_json() for _ in range(2)]}))
    return str(f)


def write_zx(tmp_path):
    f = tmp_path / "zx.json"
    coll = PovmCollection([basis_povm(2), projective_from_hermitian(SX)])
    f.write_text(json.dumps(coll.to_json()))
    return str(f)


def test_robustness_channels_from_file(tmp_path, capsys):
    code, out, _ = run_cli(
        ["robustness", "channels", "--input", write_idpair(tmp_path)], capsys)
    assert code == 0
    rep = json.loads(out)
    assert abs(rep["robustness"] - 1 / 3) < 1e-6
    assert abs(rep["dual"] - 1 / 3) < 1e-6
    assert rep["command"] == "robustness"
    assert "timestamp" in rep
    assert rep["solver_options"]["feas_tol"] > 0
    assert rep["witness"]["kind"] == "channels"
    for key in ("primal_iterations", "dual_iterations"):
        assert type(rep["solver"][key]) is int and rep["solver"][key] > 0


def test_robustness_measurements_from_file(tmp_path, capsys):
    code, out, _ = run_cli(
        ["robustness", "measurements", "--input", write_zx(tmp_path)], capsys)
    assert code == 0
    rep = json.loads(out)
    assert abs(rep["robustness"] - (3 - 2 * np.sqrt(2))) < 1e-6


def test_robustness_pair_from_file(tmp_path, capsys):
    f = tmp_path / "pair.json"
    f.write_text(json.dumps({"povm": basis_povm(2).to_json(),
                             "channel": identity_channel(2).to_json()}))
    code, out, _ = run_cli(["robustness", "pair", "--input", str(f)], capsys)
    assert code == 0
    rep = json.loads(out)
    assert abs(rep["robustness"] - (3 - 2 * np.sqrt(2))) < 1e-6


def test_robustness_compatible_input_reports_zero(tmp_path, capsys):
    from qincompat.qobjects import depolarizing_channel
    f = tmp_path / "compat_pair.json"
    f.write_text(json.dumps(
        {"channels": [depolarizing_channel(2, 0.5).to_json() for _ in range(2)]}))
    code, out, _ = run_cli(["robustness", "channels", "--input", str(f)], capsys)
    assert code == 0
    rep = json.loads(out)
    assert abs(rep["robustness"]) < 1e-6
    assert rep["noise"] is None


def test_compat_channels_verdict(tmp_path, capsys):
    code, out, _ = run_cli(
        ["compat", "channels", "--input", write_idpair(tmp_path)], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["compatible"] is False
    assert rep["margin"] < 0


def test_out_file_written_and_stdout_quiet(tmp_path, capsys):
    dest = tmp_path / "report.json"
    code, out, _ = run_cli(
        ["robustness", "channels", "--input", write_idpair(tmp_path),
         "--out", str(dest)], capsys)
    assert code == 0
    assert out == ""
    rep = json.loads(dest.read_text())
    assert abs(rep["robustness"] - 1 / 3) < 1e-6


@pytest.mark.parametrize("dest", [".", "missing/report.json"])
def test_unwritable_out_exits_one_without_a_traceback(tmp_path, capsys, dest):
    # a directory, and a file in a directory that does not exist
    code, out, err = run_cli(["demo", "bb84", "--out", str(tmp_path / dest)], capsys)
    assert code == 1
    assert out == ""
    assert "--out" in err and "Traceback" not in err


def test_malformed_input_exits_one_and_writes_nothing(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"channels": [{"dim_in": 2,')
    dest = tmp_path / "report.json"
    code, out, err = run_cli(
        ["robustness", "channels", "--input", str(bad), "--out", str(dest)],
        capsys)
    assert code == 1
    assert not dest.exists()
    assert "error" in err


def test_invalid_object_exits_one(tmp_path, capsys):
    # effects that do not sum to the identity
    bad = tmp_path / "badpovm.json"
    povm = basis_povm(2).to_json()
    povm["elements"] = povm["elements"][:1]
    bad.write_text(json.dumps({"kind": "povm_collection", "povms": [povm]}))
    code, _, err = run_cli(
        ["robustness", "measurements", "--input", str(bad)], capsys)
    assert code == 1
    assert "error" in err


def test_missing_file_and_unknown_command(tmp_path, capsys):
    code, _, _ = run_cli(
        ["robustness", "channels", "--input", str(tmp_path / "nope.json")],
        capsys)
    assert code == 1
    code, _, _ = run_cli(["frobnicate"], capsys)
    assert code == 1
    code, _, _ = run_cli(["verify", "theorem9"], capsys)
    assert code == 1
    code, _, _ = run_cli(["--help"], capsys)
    assert code == 0


def test_nan_povm_exits_one_naming_non_finite(tmp_path, capsys):
    coll = PovmCollection([basis_povm(2), projective_from_hermitian(SX)]).to_json()
    coll["povms"][0]["elements"][0]["data"][0] = [float("nan"), 0.0]
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(coll))
    code, out, err = run_cli(
        ["robustness", "measurements", "--input", str(bad)], capsys)
    assert code == 1
    assert out == ""
    assert "non-finite" in err


@pytest.mark.parametrize("where, field, value", [
    ("channel", "dim_in", 2.9), ("channel", "dim_out", True), ("channel", "dim_in", "2"),
    ("matrix", "rows", 4.5), ("matrix", "cols", 4.0), ("effect", "rows", 2.5),
])
def test_non_integer_size_exits_one_naming_the_field(tmp_path, capsys, where, field, value):
    # int() used to truncate these, and compat channels exited 0
    pair = {"povm": basis_povm(2).to_json(), "channel": identity_channel(2).to_json()}
    target = {"channel": pair["channel"], "matrix": pair["channel"]["matrix"],
              "effect": pair["povm"]["elements"][0]}[where]
    target[field] = value
    bad, dest = tmp_path / "bad.json", tmp_path / "report.json"
    if where == "effect":
        bad.write_text(json.dumps(pair))
        argv = ["robustness", "pair"]
    else:
        bad.write_text(json.dumps({"channels": [pair["channel"], identity_channel(2).to_json()]}))
        argv = ["compat", "channels"]
    code, out, err = run_cli(argv + ["--input", str(bad), "--out", str(dest)], capsys)
    assert code == 1
    assert out == "" and not dest.exists()
    assert f"'{field}' must be an integer" in err


def test_documented_input_format(tmp_path, capsys):
    # the Z and Y bases written out by hand in the format of README.md
    f = tmp_path / "zy.json"
    f.write_text("""{"povms": [
      {"elements": [
        {"rows": 2, "cols": 2, "data": [[1, 0], [0, 0], [0, 0], [0, 0]]},
        {"rows": 2, "cols": 2, "data": [[0, 0], [0, 0], [0, 0], [1, 0]]}]},
      {"elements": [
        {"rows": 2, "cols": 2, "data": [[0.5, 0], [0, -0.5], [0, 0.5], [0.5, 0]]},
        {"rows": 2, "cols": 2, "data": [[0.5, 0], [0, 0.5], [0, -0.5], [0.5, 0]]}]}]}
    """)
    code, out, _ = run_cli(["robustness", "measurements", "--input", str(f)], capsys)
    assert code == 0
    assert abs(json.loads(out)["robustness"] - (3 - 2 * np.sqrt(2))) < 1e-6


def test_numerical_breakdown_exits_two(tmp_path, capsys, monkeypatch):
    def breakdown(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(cli, "robustness_channels_primal", breakdown)
    code, _, err = run_cli(
        ["robustness", "channels", "--input", write_idpair(tmp_path)], capsys)
    assert code == 2
    assert "solver failure" in err


def test_unreachable_tolerance_exits_two(tmp_path, capsys):
    code, _, err = run_cli(
        ["robustness", "channels", "--input", write_idpair(tmp_path),
         "--tol-gap", "1e-30"], capsys)
    assert code == 2
    assert "solver failure" in err


@pytest.mark.parametrize("flag", ["--tol-gap", "--tol-feas"])
@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_bad_tolerance_exits_one(tmp_path, capsys, flag, value):
    code, out, err = run_cli(
        ["robustness", "measurements", "--input", write_zx(tmp_path), flag, value], capsys)
    assert code == 1
    assert out == ""
    assert flag in err


@pytest.mark.parametrize("command", [["demo", "cloning"], ["demo", "identity-pair"],
                                     ["verify", "theorem1"]])
@pytest.mark.parametrize("dim", ["0", "1", "-3"])
def test_bad_dim_exits_one(capsys, command, dim):
    code, out, err = run_cli(command + ["--dim", dim], capsys)
    assert code == 1
    assert out == ""
    assert "--dim" in err


@pytest.mark.parametrize("command,flag", [
    (cmd, flag) for cmd in ("robustness", "compat") for flag in ("--dim", "--seed", "--trials")
] + [("demo", "--seed"), ("demo", "--trials")])
def test_flag_the_subcommand_does_not_read_exits_one(tmp_path, capsys, command, flag):
    # robustness and compat read only their input file; a demo is not sampled
    argv = {"robustness": ["robustness", "channels", "--input", write_idpair(tmp_path)],
            "compat": ["compat", "channels", "--input", write_idpair(tmp_path)],
            "demo": ["demo", "bb84"]}[command]
    code, out, err = run_cli(argv + [flag, "3"], capsys)
    assert code == 1
    assert out == ""
    assert flag in err


def test_verify_duality_passes(capsys):
    code, out, _ = run_cli(["verify", "duality", "--trials", "1"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["passed"] is True
    assert rep["suite"] == "duality"
    names = [c["name"] for c in rep["checks"]]
    assert "identity_pair_dim2" in names and "identity_pair_dim3" in names
    assert all(c["pass"] for c in rep["checks"])
    assert all(c["tolerance"] == 1e-6 for c in rep["checks"])


def test_verify_failure_exits_three(capsys, monkeypatch):
    monkeypatch.setattr(cli, "identity_pair_closed_form", lambda d: 0.999)
    code, out, _ = run_cli(["verify", "theorem1", "--trials", "0"], capsys)
    assert code == 3
    rep = json.loads(out)
    assert rep["passed"] is False
    failed = [c for c in rep["checks"] if not c["pass"]]
    assert failed and failed[0]["name"] == "identity_pair_closed_form"


def test_verify_report_deterministic_modulo_timestamp(capsys):
    reports = []
    for _ in range(2):
        code, out, _ = run_cli(
            ["verify", "theorem2", "--trials", "1", "--seed", "5"], capsys)
        assert code == 0
        rep = json.loads(out)
        rep.pop("timestamp")
        reports.append(json.dumps(rep, sort_keys=True))
    assert reports[0] == reports[1]


def test_verify_seed_changes_samples(capsys):
    vals = []
    for seed in ("5", "6"):
        _, out, _ = run_cli(
            ["verify", "theorem1", "--trials", "1", "--seed", seed], capsys)
        rep = json.loads(out)
        vals.append([c["value"] for c in rep["checks"]
                     if c["name"].startswith("random")])
    assert vals[0] != vals[1]


def test_demo_identity_pair(capsys):
    code, out, _ = run_cli(["demo", "identity-pair", "--dim", "2"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert abs(rep["one_plus_robustness"] - 4 / 3) < 1e-6
    assert abs(rep["game_ratio"] - 4 / 3) < 1e-5


def test_demo_bb84(capsys):
    code, out, _ = run_cli(["demo", "bb84"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert abs(rep["success"] - 1.0) < 1e-12
    assert abs(rep["success_random_guess"] - 0.5) < 1e-12
    assert abs(rep["best_compatible"] - (1 + 1 / np.sqrt(2)) / 2) < 1e-6


def test_demo_cloning(capsys):
    code, out, _ = run_cli(["demo", "cloning", "--dim", "2"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert abs(rep["depolarizing_visibility"] - 2 / 3) < 1e-12
    assert rep["marginal_deviation"] < 1e-9
    assert rep["marginals_compatible"] is True


@pytest.mark.parametrize("trials", ["-3", "0"])
def test_verify_appendix_c_needs_a_sampled_game(capsys, trials):
    code, out, err = run_cli(["verify", "appendixC", "--trials", trials], capsys)
    assert code == 1
    assert out == ""
    assert "trials" in err


def test_verify_appendix_c_small(capsys):
    code, out, _ = run_cli(
        ["verify", "appendixC", "--trials", "5", "--seed", "2"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["passed"] is True
    assert rep["detail"]["bound"] == pytest.approx(1.2)
    assert rep["detail"]["max_ratio"] <= 1.2 + 1e-6


def test_import_loads_no_scipy():
    # the package needs numpy alone; importing scipy would double the
    # CLI's start-up time
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, qincompat, qincompat.cli; "
            "print(qincompat.__file__); "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60).stdout.split("\n")
    assert Path(out[0]).resolve().parents[1] == Path(src)
    assert out[1] == "[]"
