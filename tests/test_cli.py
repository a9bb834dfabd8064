import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qincompat.cli as cli
from qincompat import compat, games
from qincompat.compat import assignments
from qincompat.linalg import matrix_from_json
from qincompat.qobjects import (
    Povm,
    PovmCollection,
    basis_povm,
    depolarizing_channel,
    identity_channel,
    projective_from_hermitian,
    qc_channel,
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


def test_robustness_of_a_device_too_large_exits_one_with_one_line(tmp_path, capsys, monkeypatch):
    # the identity pair on C^10: refused before its outcomes are enumerated
    def enumerate_outcomes(counts):
        raise AssertionError("assignments ran")

    monkeypatch.setattr(compat, "assignments", enumerate_outcomes)
    f = tmp_path / "idpair10.json"
    f.write_text(json.dumps({"channels": [identity_channel(10).to_json() for _ in range(2)]}))
    code, out, err = run_cli(["robustness", "channels", "--input", str(f)], capsys)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert "needs 5,218.6 MiB of core arrays, over the limit of 936.0 MiB" in err


def test_robustness_channels_of_mixed_output_dimensions(tmp_path, capsys):
    # the measure-and-record channels of qubit Z and X, the second padded with
    # a zero effect: C^2 -> C^2 next to C^2 -> C^3, the Z/X robustness
    x = projective_from_hermitian(SX)
    f = tmp_path / "mixed.json"
    f.write_text(json.dumps({"channels": [qc_channel(basis_povm(2)).to_json(),
                                          qc_channel(Povm(x.elements + [np.zeros((2, 2))])).to_json()]}))
    code, out, _ = run_cli(["robustness", "channels", "--input", str(f)], capsys)
    assert code == 0
    rep = json.loads(out)
    assert abs(rep["robustness"] - (3 - 2 * np.sqrt(2))) < 1e-6
    joint = rep["mixture_joint"]
    assert (joint["kind"], joint["dim_in"], joint["dims_out"]) == ("joint_channel", 2, [2, 3])
    assert [c["dim_out"] for c in rep["noise"]["channels"]] == [2, 3]


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


def test_compat_measurements_reports_a_parent_with_the_input_marginals(tmp_path, capsys):
    # Z and X at visibility 0.65 < 1/sqrt(2) are compatible; the reported parent,
    # in assignments order (value of Z, value of X), sums to each input effect
    v = 0.65
    coll = PovmCollection([Povm([v * e + (1 - v) * np.eye(2) / 2 for e in p.elements])
                           for p in (basis_povm(2), projective_from_hermitian(SX))])
    f = tmp_path / "zx065.json"
    f.write_text(json.dumps(coll.to_json()))
    code, out, _ = run_cli(["compat", "measurements", "--input", str(f)], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["compatible"] is True
    parent = [matrix_from_json(m) for m in rep["joint"]["elements"]]
    assert len(parent) == 4
    for x, povm in enumerate(coll.povms):
        for i, effect in enumerate(povm.elements):
            got = sum(g for label, g in zip(assignments([2, 2]), parent) if label[x] == i)
            assert np.abs(got - effect).max() < 1e-7


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


def test_deeply_nested_input_exits_one_and_writes_nothing(tmp_path, capsys):
    # nesting past the parser's recursion limit used to escape as a traceback
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000)
    dest = tmp_path / "report.json"
    code, out, err = run_cli(
        ["robustness", "channels", "--input", str(deep), "--out", str(dest)], capsys)
    assert code == 1
    assert out == ""
    assert not dest.exists()
    assert err.startswith("error:") and "nested" in err


def test_non_object_channel_exits_one_naming_the_entry(tmp_path, capsys):
    # Python's TypeError text about string indices used to be the message
    bad, dest = tmp_path / "bad.json", tmp_path / "report.json"
    bad.write_text(json.dumps({"channels": [identity_channel(2).to_json(), "x"]}))
    code, out, err = run_cli(
        ["robustness", "channels", "--input", str(bad), "--out", str(dest)], capsys)
    assert code == 1
    assert out == "" and not dest.exists()
    assert err.startswith("error:") and "channel 1 must be a JSON object" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("target, doc, match", [
    ("channels", [], "input must be a JSON object, got list"),
    ("channels", {"channel": {}}, "input has no field 'channels'"),
    ("channels", {"channels": {"a": 1}}, "input field 'channels' must be a list, got dict"),
    ("pair", {"channel": {}}, "input has no field 'povm'"),
])
def test_malformed_input_layout_exits_one_naming_the_field(tmp_path, capsys, target, doc, match):
    bad, dest = tmp_path / "bad.json", tmp_path / "report.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli(["compat", target, "--input", str(bad), "--out", str(dest)], capsys)
    assert code == 1
    assert out == "" and not dest.exists()
    assert err.startswith("error:") and match in err


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


def test_oversized_matrix_entry_exits_one_without_a_traceback(tmp_path, capsys):
    # a 400-digit integer used to escape float() as an OverflowError
    coll = PovmCollection([basis_povm(2), projective_from_hermitian(SX)]).to_json()
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps(coll).replace("[1.0, 0.0]", "[1" + "0" * 400 + ", 0.0]", 1))
    code, out, err = run_cli(["compat", "measurements", "--input", str(bad)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "too large for a float" in err
    assert "Traceback" not in err


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
] + [("demo", "--seed"), ("demo", "--trials"), ("demo", "--dim")] + [
    (f"verify {suite}", "--dim") for suite in ("theorem2", "prop1", "prop2", "duality")])
def test_flag_the_subcommand_does_not_read_exits_one(tmp_path, capsys, command, flag):
    # robustness and compat read only their input file; a demo is not sampled;
    # bb84 and four of the suites have no dimension to set
    argv = {"robustness": ["robustness", "channels", "--input", write_idpair(tmp_path)],
            "compat": ["compat", "channels", "--input", write_idpair(tmp_path)],
            "demo": ["demo", "bb84"]}.get(command, command.split())
    code, out, err = run_cli(argv + [flag, "3"], capsys)
    assert code == 1
    assert out == ""
    assert flag in err


@pytest.mark.parametrize("suite, trials, inputs", [
    ("theorem1", 0, {"dim", "seed", "trials"}), ("theorem2", 0, {"seed", "trials"}),
    ("prop1", 0, {"seed", "trials"}), ("prop2", 0, {"seed", "trials"}),
    ("appendixC", 1, {"dim", "seed", "trials"}), ("duality", 0, {"seed", "trials"}),
])
def test_verify_report_lists_the_inputs_its_suite_read(capsys, suite, trials, inputs):
    code, out, _ = run_cli(["verify", suite, "--trials", str(trials)], capsys)
    assert code == 0
    rep = json.loads(out)
    assert set(rep) - {"suite", "checks", "passed", "detail", "command", "solver_options",
                       "timestamp"} == inputs


@pytest.mark.parametrize("suite, trials, names, tolerances", [
    ("duality", 1, ["identity_pair_dim2", "identity_pair_dim3", "random_pair_0"], {1e-6}),
    ("prop1", 1, ["collection_0_delta", "collection_1_delta", "max_delta"], {1e-6}),
    ("prop2", 1, ["pair_0_delta", "pair_1_delta", "max_delta"], {1e-6}),
    ("theorem2", 1, ["pair_0_incompatible", "pair_0_game_ratio", "pair_1_incompatible",
                     "pair_1_game_ratio"], {0.0, 1e-5}),
], ids=["duality", "prop1", "prop2", "theorem2"])
def test_verify_duality_passes(capsys, suite, trials, names, tolerances):
    # the delta suites and the sampled pairs of theorem2 run nowhere else
    code, out, _ = run_cli(["verify", suite, "--trials", str(trials)], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["passed"] is True
    assert rep["suite"] == suite
    assert [c["name"] for c in rep["checks"]] == names
    assert all(c["pass"] for c in rep["checks"])
    assert {c["tolerance"] for c in rep["checks"]} == tolerances


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
    for seed in ("5", "5", "6"):
        code, out, _ = run_cli(
            ["verify", "theorem2", "--trials", "1", "--seed", seed], capsys)
        assert code == 0
        rep = json.loads(out)
        rep.pop("timestamp")
        reports.append(rep)
    assert json.dumps(reports[0], sort_keys=True) == json.dumps(reports[1], sort_keys=True)
    # --trials 1 draws one seeded pair next to the fixed one, and the seed moves it
    values = [{c["name"]: c["value"] for c in rep["checks"] if c["name"].startswith("pair_1")}
              for rep in reports[1:]]
    assert len(values[0]) == 2
    assert values[0] != values[1]


def test_cached_parser_serves_every_call_alike(tmp_path, capsys):
    # the parser is built once per process: neither a usage error nor
    # --help leaves anything behind for the next call
    assert cli._parser() is cli._parser()
    assert run_cli(["robustness", "measurements"], capsys)[0] == 1  # no --input
    assert run_cli(["--help"], capsys)[0] == 0
    reports = []
    for _ in range(2):
        code, out, _ = run_cli(
            ["robustness", "measurements", "--input", write_zx(tmp_path)], capsys)
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


def test_negative_seed_exits_one_naming_the_flag(capsys):
    code, out, err = run_cli(["verify", "prop1", "--seed", "-1"], capsys)
    assert code == 1
    assert out == ""
    assert "--seed" in err


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


@pytest.mark.parametrize("command", [["demo", "bb84"], ["verify", "theorem1"]])
def test_stdout_closed_by_its_reader_exits_one_without_a_traceback(command):
    # a pipe whose reader closed before the run: one error line, exit 1
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    r, w = os.pipe()
    os.close(r)
    try:
        out = subprocess.run([sys.executable, "-W", "error", "-m", "qincompat.cli", *command], env=env,
                             stdout=w, stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(w)
    assert out.returncode == 1
    assert out.stderr.splitlines() == ["error: stdout was closed before the report was written"]


@pytest.mark.parametrize("command", [["demo", "cloning", "--dim", "25"],
                                     ["verify", "appendixC", "--dim", "25", "--trials", "1"]])
def test_a_cloner_too_large_is_refused_before_it_is_built(command):
    # the cloner on C^25 is a 15625 x 15625 complex Choi matrix, 3.6 GiB: under
    # a 1.5 GB address-space limit, building it ended in a MemoryError traceback
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    limit = 1536 * 2**20
    out = subprocess.run([sys.executable, "-m", "qincompat.cli", *command], env=env, capture_output=True,
                         text=True, timeout=120,
                         preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert out.returncode == 1
    assert out.stdout == ""
    assert len(out.stderr.splitlines()) == 1
    assert out.stderr.startswith("error: device too large: a solve on it needs ")




@pytest.mark.parametrize("attr, broken, trials, name", [
    # a compatible optimum, halved, falls below the cloning strategy
    ("best_compatible_program", lambda *args, real=games.best_compatible_program: real(*args) / 2, "1",
     "ratio_within_cloning_ratio"),
    # completely depolarizing "cloner" marginals fall far behind the identity
    ("marginal", lambda joint, x: depolarizing_channel(joint.dim_in, 0.0), "5", "cloning_ratio_within_bound"),
], ids=["optimum-below-cloner", "cloner-past-bound"])
def test_verify_appendix_c_reports_a_broken_chain_as_a_failed_check(monkeypatch, capsys, attr, broken, trials, name):
    # a failed link of the chain is a failed check: exit 3 with its report, not an invalid input
    monkeypatch.setattr(games, attr, broken)
    code, out, err = run_cli(["verify", "appendixC", "--trials", trials], capsys)
    assert (code, err) == (3, "")
    rep = json.loads(out)
    assert rep["passed"] is False and "detail" not in rep
    assert [(c["name"], c["pass"]) for c in rep["checks"]] == [("cloning_marginal_deviation", True), (name, False)]
