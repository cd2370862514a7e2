"""CLI subcommands, exit codes, and report determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import helpers
from nodalkit.cli import main
from nodalkit.comb_type import BoundaryType, InteriorType, format_tau_text
from nodalkit.spectral import EigenProblem, Rectangle

TAU16 = (3, 2, 1, 0, 9, 8, 7, 6, 5, 4, 15, 12, 11, 14, 13, 10)


@pytest.fixture
def tau_file(tmp_path):
    f = tmp_path / "example.tau"
    f.write_text(format_tau_text(InteriorType(8, TAU16)))
    return str(f)


@pytest.fixture
def boundary_tau_file(tmp_path):
    f = tmp_path / "bnd.tau"
    f.write_text(format_tau_text(BoundaryType(4, (5, 2, 1, 4, 3, 0))))
    return str(f)


@pytest.fixture
def partition_file(tmp_path):
    f = tmp_path / "circle.json"
    f.write_text(json.dumps(helpers.circle_on_sphere().to_json()))
    return str(f)


@pytest.fixture
def solution_file(tmp_path):
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps(EigenProblem(Rectangle(1, 1), 1 / 16).to_json()))
    sol = tmp_path / "sol.json"
    assert main(["solve", str(prob), "-k", "4", "-o", str(sol)]) == 0
    return str(sol)


def test_types_label(tau_file, capsys):
    assert main(["types", "label", tau_file]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "delta = 1 2 1 3 4 5 6 5 4 3 7 8 7 9 7 3"


def test_types_rotate_check(capsys):
    assert main(["types", "rotate-check", "-p", "4"]) == 0
    assert "0 shift-invariant types among 14" in capsys.readouterr().out
    assert main(["types", "rotate-check", "-p", "1"]) == 0


def test_types_enum(tmp_path):
    out = tmp_path / "enum.json"
    assert main(["types", "enum", "-p", "3", "-o", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["count"] == 5
    assert obj["formatVersion"] == 1


def test_types_words(boundary_tau_file, tmp_path):
    out = tmp_path / "words.json"
    assert main(["types", "words", boundary_tau_file, "-o", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["mTheta"] == [1, 2, 1, 3, 1, 4]
    assert obj["checks"][0]["passed"]


def test_bounds(capsys):
    assert main(["bounds", "sphere", "-k", "3"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["bounds"] == {"cheng": 6, "besson": 5, "nadirashvili": 5,
                             "hhn": 3, "k": 3}
    assert abs(obj["gamma"] - 0.69166) < 1e-4


def test_bounds_bad_surface(capsys):
    assert main(["bounds", "widget", "-k", "1"]) == 2


def test_partition_euler(partition_file, tmp_path):
    out = tmp_path / "rep.json"
    assert main(["partition", "euler", partition_file, "-o", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["checks"][0]["passed"]
    assert obj["stats"]["kappa"] == 2
    assert "inputDigest" in obj


def test_partition_normalize(partition_file, tmp_path):
    out = tmp_path / "norm.json"
    assert main(["partition", "normalize", partition_file, "-o", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["checks"][0]["passed"]
    assert obj["partition"]["formatVersion"] == 1


def test_malformed_input(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["partition", "euler", str(bad)]) == 2
    assert main(["partition", "euler", str(tmp_path / "missing.json")]) == 2


def test_solve_and_report(solution_file, tmp_path):
    obj = json.loads(open(solution_file).read())
    assert obj["formatVersion"] == 1
    assert len(obj["eigenvalues"]) == 4
    rep = tmp_path / "rep.json"
    assert main(["nodal", "report", solution_file, "2", "-o", str(rep)]) == 0
    r = json.loads(rep.read_text())
    assert r["extract"]["kappa"] == 2
    assert all(c["passed"] for c in r["checks"])
    assert main(["nodal", "report", solution_file, "99"]) == 2


def test_solve_deterministic(tmp_path):
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps(EigenProblem(Rectangle(1, 1), 1 / 16).to_json()))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["solve", str(prob), "-k", "3", "-o", str(a)]) == 0
    assert main(["solve", str(prob), "-k", "3", "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def _problem_file(tmp_path, obj):
    f = tmp_path / "prob.json"
    f.write_text(json.dumps(obj))
    return str(f)


def _nodalkit(*argv, optimize=False):
    """Run the CLI in a fresh interpreter; optimize=True strips asserts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(__file__).resolve().parents[1] / "src"),
        env.get("PYTHONPATH")]))
    cmd = [sys.executable] + (["-O"] if optimize else []) + \
        ["-m", "nodalkit.cli"] + list(argv)
    return subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=120)


def _square_with_potential(V):
    doc = EigenProblem(Rectangle(1, 1), 1 / 8).to_json()
    doc["V"] = V
    return doc


@pytest.mark.parametrize("doc", [
    _square_with_potential(V) for V in ("1/(x-0.5)", "9**9**9", "1e400", "x +")
] + [{}, [1], {"domain": 5, "gridStep": 0.125}])
def test_solve_bad_problem_exits_2(tmp_path, capsys, doc):
    assert main(["solve", _problem_file(tmp_path, doc), "-k", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip()) > len("error:")


@pytest.mark.parametrize("doc", [
    {"formatVersion": 1, "domain": {"shape": "Rectangle", "w": 1.0, "h": 1.0},
     "gridStep": 0.125, "bc": "Foo"},
    {"formatVersion": 1, "gridStep": 0.125, "bc": "Dirichlet",
     "domain": {"shape": "MaskedGrid",
                "bitmap": [[1] * 8] * 3 + [[0] * 8] * 2 + [[1] * 8] * 3}},
], ids=["unknown-bc", "two-piece-mask"])
def test_invalid_problem_exits_2_under_optimize(tmp_path, doc):
    r = _nodalkit("solve", _problem_file(tmp_path, doc), "-k", "3",
                  optimize=True)
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error: ")
    assert len(r.stderr.strip()) > len("error:")
    assert r.stdout == ""


def test_solve_repeatable_across_processes(tmp_path):
    # n = 47^2 takes the sparse eigsh path; k = 10 includes degenerate pairs
    prob = _problem_file(tmp_path, EigenProblem(Rectangle(1, 1), 1 / 48).to_json())
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outs:
        r = _nodalkit("solve", prob, "-k", "10", "-o", str(out))
        assert r.returncode == 0, r.stderr
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_plot(solution_file, tmp_path):
    svg = tmp_path / "out.svg"
    assert main(["plot", solution_file, "2", "-o", str(svg)]) == 0
    text = svg.read_text()
    assert text.startswith('<?xml version="1.0"')
    assert 'version="1.1"' in text
    assert "<line" in text   # the nodal line of u_2
    svg2 = tmp_path / "out2.svg"
    assert main(["plot", solution_file, "2", "-o", str(svg2)]) == 0
    assert svg.read_bytes() == svg2.read_bytes()


def test_no_command_shows_help(capsys):
    assert main([]) == 2
