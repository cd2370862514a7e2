"""CLI subcommands, exit codes, and report determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import helpers
from nodalkit import partition
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
    assert "seed" not in obj


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
    # an edge to vertex 5 of a one-vertex partition
    doc = helpers.circle_on_sphere().to_json()
    doc["edges"].append({"ends": [5, 5]})
    doc["rotation"]["5"] = [2, 3]
    bad.write_text(json.dumps(doc))
    assert main(["partition", "euler", str(bad)]) == 2
    # boundary vertices that name a component their boundary edges are not on
    doc = helpers.disk_with_diameter().to_json()
    for v in doc["vertices"]:
        v["component"] = 3
    bad.write_text(json.dumps(doc))
    assert main(["partition", "euler", str(bad)]) == 2
    # no subcommand takes a seed: nothing random runs behind them
    for argv in (["partition", "euler", "p.json"],
                 ["partition", "normalize", "p.json"],
                 ["types", "enum", "-p", "3"], ["types", "label", "t.tau"],
                 ["types", "rotate-check", "-p", "3"],
                 ["types", "words", "t.tau"], ["solve", "p.json"],
                 ["nodal", "report", "s.json", "1"],
                 ["plot", "s.json", "1", "-o", "out.svg"],
                 ["bounds", "sphere"]):
        assert main(argv + ["--seed", "1"]) == 2


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


def _invalid_type_commands(tmp_path):
    crossing = tmp_path / "crossing.tau"
    crossing.write_text("0 1 2 3 4 5\n3 4 5 0 1 2\n")
    even_a = tmp_path / "even_a.tau"
    even_a.write_text("v 1 2 3\n2 3 1 v\n")
    return [("types", "label", str(crossing)), ("types", "words", str(even_a))]


def test_invalid_type_files_exit_2(tmp_path, capsys):
    for argv in _invalid_type_commands(tmp_path):
        assert main(list(argv)) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_invalid_type_files_exit_2_under_optimize(tmp_path):
    for argv in _invalid_type_commands(tmp_path):
        r = _nodalkit(*argv, optimize=True)
        assert r.returncode == 2
        assert r.stderr.startswith("error: ")


def _pinched_mask():
    """The 6x6 square without cells (2, 2) and (3, 3), which touch the rest
    of the mask diagonally at lattice corner (3, 3)."""
    bitmap = [[1] * 6 for _ in range(6)]
    bitmap[2][2] = bitmap[3][3] = 0
    return {"formatVersion": 1, "gridStep": 0.125, "bc": "Dirichlet",
            "domain": {"shape": "MaskedGrid", "bitmap": bitmap}}


@pytest.mark.parametrize("doc", [
    _square_with_potential(V) for V in ("1/(x-0.5)", "9**9**9", "1e400", "x +")
] + [{}, [1], {"domain": 5, "gridStep": 0.125}, _pinched_mask()] + [
    # an overflowing and a capped cell count, both rejected from the lengths
    {"formatVersion": 1, "gridStep": step, "bc": "Dirichlet",
     "domain": {"shape": "Rectangle", "w": w, "h": 1.0}}
    for w, step in ((1e308, 1e-300), (1.0, 1e-4))])
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


def _edited_solution(solution_file, tmp_path, **fields):
    obj = json.loads(open(solution_file).read())
    obj.update(fields)
    f = tmp_path / "edited.json"
    f.write_text(json.dumps(obj))
    return str(f)


def test_null_vectors_exit_2(solution_file, tmp_path, capsys):
    sol = _edited_solution(solution_file, tmp_path, vectors=None)
    assert main(["nodal", "report", sol, "1"]) == 2
    assert "one vector per eigenvalue" in capsys.readouterr().err


def test_fewer_vectors_than_eigenvalues_exit_2(solution_file, tmp_path,
                                              capsys):
    obj = json.loads(open(solution_file).read())
    sol = _edited_solution(solution_file, tmp_path,
                           eigenvalues=obj["eigenvalues"][:3],
                           vectors=obj["vectors"][:2])
    assert main(["nodal", "report", sol, "3"]) == 2
    assert "one vector per eigenvalue" in capsys.readouterr().err


def test_partition_normalize_bridge(tmp_path):
    src = Path(__file__).resolve().parent / "data" / "bridge_833.json"
    out = tmp_path / "norm.json"
    assert main(["partition", "normalize", str(src), "-o", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["checks"][0]["passed"]
    assert obj["before"] == obj["after"]


def test_partition_normalize_traces_once(tmp_path, monkeypatch):
    # nothing to blow up: the result drops the circle's nodal flag and keeps
    # its stats
    src = tmp_path / "p.json"
    src.write_text(json.dumps(helpers.circle_on_sphere().to_json()))
    traced = []
    trace = partition.trace_faces

    def counting(p):
        traced.append(p)
        return trace(p)
    monkeypatch.setattr(partition, "trace_faces", counting)
    out = tmp_path / "norm.json"
    assert main(["partition", "normalize", str(src), "-o", str(out)]) == 0
    assert len(traced) == 1
    obj = json.loads(out.read_text())
    assert obj["before"] == obj["after"] and not obj["partition"]["nodal"]


def test_report_on_non_object_json_exits_2(tmp_path, capsys):
    f = tmp_path / "list.json"
    f.write_text("[1, 2, 3]")
    assert main(["nodal", "report", str(f), "1"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_unwritable_output_exits_2(solution_file, tmp_path, capsys):
    prob = _problem_file(tmp_path, EigenProblem(Rectangle(1, 1), 1 / 8).to_json())
    missing = tmp_path / "missing"
    for argv in (["solve", prob, "-k", "3", "-o", str(missing / "x.json")],
                 ["plot", solution_file, "1", "-o", str(missing / "x.svg")]):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-9"])
def test_solve_rejects_bad_tolerance(tmp_path, capsys, tol):
    prob = _problem_file(tmp_path, EigenProblem(Rectangle(1, 1), 1 / 8).to_json())
    assert main(["solve", prob, "-k", "3", "--tol=" + tol]) == 2
    assert "tolerance" in capsys.readouterr().err


def test_report_on_pinched_mask_exits_2(solution_file, tmp_path, capsys):
    # a solution file of a pinched mask is rejected on reading
    sol = _edited_solution(solution_file, tmp_path, problem=_pinched_mask())
    assert main(["nodal", "report", sol, "1"]) == 2
    assert "lattice corner (3, 3)" in capsys.readouterr().err
