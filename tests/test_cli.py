"""End-to-end command-line runs over the shipped model files."""

import json
import os
import subprocess
import sys

import pytest

import rockland
from rockland.cli import main

MODELS = os.path.join(os.path.dirname(__file__), os.pardir, "models")


def model(name):
    return os.path.join(MODELS, name + ".model")


def run(args):
    return main(args)


# -- analyze --------------------------------------------------------------------------

def test_analyze_grushin(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert run(["analyze", "--model", model("grushin"),
                "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == "2"
    res = doc["results"]
    assert res["nu"] == [1, 1] and res["q"] == 3
    assert res["N"] == 3 and res["p"] == 1 and res["step"] == 2
    assert all(row["rank"] == 2 for row in res["rank_table"])
    assert "[pass]" in capsys.readouterr().out


def test_analyze_chain_r5(tmp_path):
    out = tmp_path / "r.json"
    assert run(["analyze", "--model", model("chain_r5"),
                "--json", str(out)]) == 0
    res = json.loads(out.read_text())["results"]
    assert res["q"] == 15 and res["N"] == 6 and res["step"] == 5


def test_analyze_detects_rank_deficit(tmp_path):
    """A system that never spans d3 fails the rank check with exit 1."""
    bad = tmp_path / "bad.model"
    bad.write_text("dilation [1,2,3]; field X1 = d1; field X2 = x1*d2; "
                   "operator L = X1^2 + X2^2;")
    assert run(["analyze", "--model", str(bad)]) == 1


# -- lift -----------------------------------------------------------------------------

def test_lift_grushin(tmp_path):
    out = tmp_path / "r.json"
    assert run(["lift", "--model", model("grushin"),
                "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["results"]["dimensions"] == {
        "n": 2, "p": 1, "N": 3, "q": 3, "E": 1, "Q": 4}
    names = [c["name"] for c in doc["checks"]]
    assert "lift_identity_random_polys" in names
    assert "saturable_structure" in names


def test_lift_three_var_step5():
    assert run(["lift", "--model", model("three_var_step5")]) == 0


def test_lift_reports_a_wrong_lifting(tmp_path, monkeypatch,
                                      grushin_bent_lifting):
    """`rockland lift` fails the lift identity of a perturbed lifting."""
    from rockland import cli
    monkeypatch.setattr(cli, "_lifting",
                        lambda *args, **kw: grushin_bent_lifting)
    out = tmp_path / "r.json"
    assert run(["lift", "--model", model("grushin"),
                "--json", str(out)]) == 1
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert checks["lift_identity_random_polys"]["status"] == "fail"


# -- gamma and its gates ---------------------------------------------------------------

def test_gamma_refuses_nu_geq_q(capsys):
    assert run(["gamma", "--model", model("quartic_k2")]) == 2
    err = capsys.readouterr().err
    assert "nu < q" in err and "nu=4" in err and "q=4" in err
    assert run(["gamma", "--model", model("grushin_quartic")]) == 2
    assert "nu < q" in capsys.readouterr().err


def test_gamma_gate_runs_before_lifting(monkeypatch, capsys):
    """The nu < q refusal comes before any lifting or calibration."""
    import rockland.cli as cli

    def forbidden(*args, **kwargs):
        raise AssertionError("lifting or calibration ran before the gate")
    monkeypatch.setattr(cli, "_lifting", forbidden)
    monkeypatch.setattr(cli, "kernel_calibrate", forbidden)
    assert run(["gamma", "--model", model("quartic_k2")]) == 2
    assert "nu < q" in capsys.readouterr().err


def test_gamma_requires_kernel(capsys):
    # k=3 passes the existence gate (nu=4 < q=5) but ships no kernel
    assert run(["gamma", "--model", model("quartic_k3")]) == 2
    assert "kernel" in capsys.readouterr().err


def test_gamma_grushin_values(tmp_path):
    out, csvf = tmp_path / "g.json", tmp_path / "g.csv"
    assert run(["gamma", "--model", model("grushin"), "--at", "1,0;0,0",
                "--json", str(out), "--csv", str(csvf)]) == 0
    doc = json.loads(out.read_text())
    row = doc["results"]["values"][0]
    assert row["gamma"] == pytest.approx(0.41731342, rel=1e-5)
    assert row["error_bound"] < 1e-6
    assert doc["results"]["homogeneity_degree"] == -1
    header = csvf.read_text().splitlines()[0]
    assert header == "x,y,gamma,error_bound,dX1,dX2"


# -- verify ---------------------------------------------------------------------------

def test_verify_grushin(tmp_path):
    out = tmp_path / "v.json"
    assert run(["verify", "--model", model("grushin"),
                "--at", "0.9,0.3;-0.4,0.6", "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    names = [c["name"] for c in doc["checks"]]
    for expected in ("calibration_pole_1", "joint_homogeneity", "symmetry",
                     "left_inverse", "tail_doubling_within_error_bars"):
        assert expected in names
    assert all(c["status"] == "pass" for c in doc["checks"])


def test_verify_rejects_unknown_tolerance(tmp_path, capsys):
    bad = tmp_path / "typo.model"
    with open(model("grushin")) as fh:
        bad.write_text(fh.read() + "tol lft_inverse = 1e-2;\n")
    assert run(["verify", "--model", str(bad)]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "lft_inverse" in err
    assert "left_inverse" in err and "tail_doubling" in err


# -- metric commands --------------------------------------------------------------------

def test_distance_grushin(tmp_path):
    out = tmp_path / "d.json"
    assert run(["distance", "--model", model("grushin"),
                "--at", "0,0;1,0", "--json", str(out)]) == 0
    row = json.loads(out.read_text())["results"]["pairs"][0]
    assert abs(row["upper"] - 1.0) <= 1e-3
    assert row["lower"] <= row["upper"]


def test_ballvol_grushin(tmp_path):
    out, csvf = tmp_path / "b.json", tmp_path / "b.csv"
    assert run(["ballvol", "--model", model("grushin"), "--radius", "1.0",
                "--samples", "80", "--json", str(out),
                "--csv", str(csvf)]) == 0
    res = json.loads(out.read_text())["results"]
    assert res["volume"] > 0
    assert res["confidence_interval"][0] <= res["volume"] \
        <= res["confidence_interval"][1]
    assert len(res["curve"]) == 6
    assert csvf.read_text().splitlines()[0] == \
        "r,volume,ci_lo,ci_hi,hits,samples,seed"


# -- heat -----------------------------------------------------------------------------

def test_heat_quartic(tmp_path):
    out = tmp_path / "h.json"
    assert run(["heat", "--model", model("grushin_quartic"),
                "--json", str(out)]) == 0
    res = json.loads(out.read_text())["results"]
    assert res["extended_dilation"] == [1, 2, 4]
    assert res["t_exponent"] == 4 and res["q_extended"] == 7
    assert res["spatial_positive_pattern"] is True


# -- report ---------------------------------------------------------------------------

def test_report_grushin_full_pipeline(tmp_path):
    out = tmp_path / "rep.json"
    assert run(["report", "--model", model("grushin"),
                "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == "2"
    assert len(doc["checks"]) >= 12
    assert all(c["status"] == "pass" for c in doc["checks"])
    assert set(doc["results"]) == {"analyze", "lift", "heat", "verify"}


GOLDEN_RESULTS = os.path.join(os.path.dirname(__file__), "data",
                              "report_results.json")


@pytest.mark.parametrize("name", ["chain_r5", "three_var_step5", "grushin_quartic",
                                  "monomial_weight", "quartic_k2"])
def test_report_results_match_golden(tmp_path, name):
    """The exact group law, theta, its inverse, the lifted fields and the
    shear stay the strings committed in tests/data/report_results.json, and
    each check keeps its name, status, residual and tolerance; the float
    group-axiom residual is held bitwise."""
    out = tmp_path / "rep.json"
    assert run(["report", "--model", model(name), "--json", str(out)]) == 0
    with open(GOLDEN_RESULTS, encoding="utf-8") as fh:
        golden = json.load(fh)[name]
    doc = json.loads(out.read_text())
    assert doc["results"] == golden["results"]
    assert [{k: c[k] for k in ("name", "status", "residual", "tolerance")}
            for c in doc["checks"]] == golden["checks"]


def test_report_skips_verify_when_gate_fails(tmp_path):
    out = tmp_path / "rep.json"
    assert run(["report", "--model", model("quartic_k2"),
                "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert "skipped" in doc["results"]["verify"]


# -- error handling and report hygiene ---------------------------------------------------

def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.model"
    bad.write_text("dilation [1,2]; field X1 = x1^(1/2)*d1; operator L=X1;")
    assert run(["analyze", "--model", str(bad)]) == 2
    assert "non-integer exponent" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("operator L = 1/0*X1^2 + X2^2;", "zero denominator"),
    ("operator L = X1^2 + X2^2; operator M = X1^2;", "second operator"),
])
def test_operator_error_exit_code(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.model"
    bad.write_text("dilation [1,2]; field X1 = d1; field X2 = x1*d2; " + text)
    assert run(["analyze", "--model", str(bad)]) == 2
    assert message in capsys.readouterr().err


def test_missing_model_exit_code(capsys):
    assert run(["analyze", "--model", "/nonexistent.model"]) == 2
    assert "not found" in capsys.readouterr().err


def test_json_report_key_order(tmp_path):
    out = tmp_path / "r.json"
    run(["analyze", "--model", model("grushin"), "--json", str(out)])
    doc = json.loads(out.read_text())
    assert list(doc) == ["schema_version", "command", "model", "flags",
                         "checks", "results", "artifacts"]
    assert doc["flags"]["defaults"] == {
        "tol": 1e-3, "seed": 0, "samples": 200, "radius": 1.0}


def _subprocess_env():
    """The environment of a fresh interpreter that imports this rockland."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(rockland.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                 if p]))


def test_cli_import_leaves_sympy_out():
    """sympy is a test-only dependency: the package never imports it.  Nor
    does importing it load scipy's optimize, integrate, special or linalg,
    which cost most of a cold start."""
    heavy = ("sympy", "mpmath", "scipy.optimize", "scipy.integrate",
             "scipy.special", "scipy.linalg")
    code = "import sys, rockland.cli; print(sorted(m for m in sys.modules " \
        f"if m.startswith(tuple(h + '.' for h in {heavy!r})) " \
        f"or m in {heavy!r}))"
    out = subprocess.run([sys.executable, "-c", code], env=_subprocess_env(),
                         check=True, capture_output=True, text=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("command, flag, value", [
    ("distance", "--tol", "0"), ("distance", "--tol", "-1e-3"),
    ("distance", "--tol", "nan"), ("distance", "--tol", "inf"),
    ("ballvol", "--samples", "0"), ("ballvol", "--radius", "nan"),
    ("ballvol", "--radius", "inf"), ("ballvol", "--radius", "-1")])
def test_bad_metric_flag_exit_code(command, flag, value):
    """A flag no bisection or sample can use exits 2 naming it; in a
    subprocess, because the bisection used to run forever on --tol 0."""
    out = subprocess.run(
        [sys.executable, "-m", "rockland.cli", command, "--model",
         model("grushin"), f"{flag}={value}"], env=_subprocess_env(),
        capture_output=True, text=True, timeout=60)
    assert out.returncode == 2
    assert flag in out.stderr


@pytest.mark.parametrize("command", ["analyze", "lift", "gamma", "heat",
                                     "ballvol"])
def test_tol_refused_where_unread(tmp_path, capsys, command):
    """A command that reads no --tol exits 2 on one, naming the flag and
    the command, before any work: it used to run as without the flag and
    record the value under the report's flags."""
    out = tmp_path / "r.json"
    assert run([command, "--model", model("grushin"), "--tol", "0.5",
                "--json", str(out)]) == 2
    captured = capsys.readouterr()
    assert f"--tol 0.5: the {command} command" in captured.err
    assert not captured.out and not out.exists()


@pytest.mark.parametrize("command, value", [
    ("gamma", "a,0;0,0"), ("gamma", "nan,0;0,0"), ("gamma", "0,0;inf,0"),
    ("gamma", "1,0,0;0,0"), ("distance", "0,x;0,0"),
    ("distance", "-inf,0;0,0"), ("ballvol", "1,x"), ("ballvol", "nan,0"),
    ("ballvol", "1,0,0")])
def test_bad_at_value_exit_code(command, value):
    """An --at coordinate that is not a finite number, or a point of the
    wrong dimension, exits 2 naming --at and the text given; in a
    subprocess, because a non-finite point used to run on to a failed
    check or an uncaught error."""
    out = subprocess.run(
        [sys.executable, "-m", "rockland.cli", command, "--model",
         model("grushin"), f"--at={value}"], env=_subprocess_env(),
        capture_output=True, text=True, timeout=120)
    assert out.returncode == 2, out.stderr
    assert f"--at {value!r}" in out.stderr, out.stderr


@pytest.mark.parametrize("command", ["gamma", "distance"])
@pytest.mark.parametrize("form", [["--at", "-1,0;0,0"], ["--at=-1,0;0,0"]])
def test_at_value_with_leading_minus(command, form):
    """A point pair that starts with a negative coordinate is read as the
    value of --at, given after a space or after '='."""
    out = subprocess.run(
        [sys.executable, "-m", "rockland.cli", command, "--model",
         model("grushin"), *form], env=_subprocess_env(),
        capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert "[pass]" in out.stdout


def test_repeated_main_matches_fresh_processes(tmp_path):
    """Two reports in one process, with different --at and --seed, write the
    bytes that two fresh processes write: the parser, built once per
    process, carries nothing from one call to the next."""
    runs = [["report", "--model", model("grushin"), "--seed", "3",
             "--at", "0.9,0.3;-0.4,0.6"],
            ["report", "--model", model("grushin"), "--seed", "5"]]
    for k, args in enumerate(runs):
        assert run(args + ["--json", str(tmp_path / f"same{k}.json")]) == 0
    for k, args in enumerate(runs):
        subprocess.run(
            [sys.executable, "-m", "rockland.cli", *args, "--json",
             str(tmp_path / f"fresh{k}.json")], env=_subprocess_env(),
            check=True, capture_output=True, timeout=300)
    for k in range(len(runs)):
        assert (tmp_path / f"same{k}.json").read_bytes() == \
            (tmp_path / f"fresh{k}.json").read_bytes()


@pytest.mark.parametrize("command, flag, target", [
    ("report", "--json", "missing/r.json"), ("analyze", "--csv", "missing/r.csv"),
    ("analyze", "--json", "."), ("heat", "--csv", "h.csv"),
    ("lift", "--csv", "l.csv"), ("analyze", "--model", "models")])
def test_unusable_path_exit_code(tmp_path, command, flag, target):
    """An output path whose directory is missing or that is a directory, a
    CSV table asked of a command that has none, and a model path that is a
    directory exit 2 naming the flag and the path, before any work (in a
    subprocess, because they used to end in a traceback or a silent 0)."""
    (tmp_path / "models").mkdir()
    path = str(tmp_path / target)
    args = ["--model", model("grushin")] if flag != "--model" else []
    out = subprocess.run(
        [sys.executable, "-m", "rockland.cli", command, *args, flag, path],
        env=_subprocess_env(), cwd=tmp_path, capture_output=True, text=True,
        timeout=60)
    assert out.returncode == 2, out.stderr
    assert f"{flag} {path}" in out.stderr, out.stderr
    assert "Traceback" not in out.stderr
    assert not out.stdout
    assert sorted(os.listdir(tmp_path)) == ["models"]
