"""CLI subcommands, exit codes, and report determinism."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings, strategies as st

import helpers
from nodalkit import cli, partition, spectral
from nodalkit.cli import main
from nodalkit.comb_type import (BoundaryType, InteriorType, format_tau_text,
                                parse_tau_text)
from nodalkit.errors import InvalidProblem, NodalkitError
from nodalkit.partition import EmbeddedPartition
from nodalkit.spectral import (Disk, EigenProblem, EigenSolution, Rectangle,
                               assemble_operator, solve_eigen)
from nodalkit.surface import SurfaceSpec

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


def test_types_label_and_rotate_check_honour_output(tau_file, tmp_path,
                                                    capsys):
    for argv, text in (
            (["types", "label", tau_file],
             "delta = 1 2 1 3 4 5 6 5 4 3 7 8 7 9 7 3\n"),
            (["types", "rotate-check", "-p", "4"],
             "0 shift-invariant types among 14\n")):
        assert main(argv) == 0
        assert capsys.readouterr().out == text
        out = tmp_path / "out.txt"
        assert main(argv + ["-o", str(out)]) == 0
        assert out.read_text() == text
        assert capsys.readouterr().out == ""
        assert main(argv + ["-o", str(tmp_path / "missing" / "x.txt")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")


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


@pytest.mark.parametrize("argv, message", [
    (["bounds", "genus--1"],
     "InvalidSurface: genus must be >= 0 and an integer, got -1"),
    (["bounds", "genus-x"], "InvalidSurface: cannot parse surface name: "
                            "'genus-x'"),
    (["bounds", "widget"], "InvalidSurface: cannot parse surface name: "
                           "'widget'"),
    (["bounds", "sphere", "-k", "0"],
     "InvalidProblem: k must be >= 1 and an integer, got 0"),
    (["bounds", "moebius"], "UnknownFamily: no classical table row for "
                            "MoebiusStrip")],
    ids=["genus-minus-1", "genus-x", "widget", "k-0", "moebius"])
def test_bounds_bad_input_names_its_kind(capsys, argv, message):
    # bounds reads no file: error: KIND: message, from main
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: %s\n" % message


def test_missing_file_names_its_kind(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["partition", "euler", "missing.json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: missing.json: FileNotFoundError: ")


def test_wrong_kind_of_type_exits_2(tau_file, boundary_tau_file, capsys):
    for argv, message in [
            (["types", "label", boundary_tau_file],
             "labeling needs an interior type"),
            (["types", "words", tau_file],
             "words need a boundary type (arrow row entry)")]:
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: %s: InvalidType: %s\n" % (argv[2], message)


def test_p_beyond_the_cap_exits_2(capsys):
    for group in ("enum", "rotate-check"):
        assert main(["types", group, "-p", "11"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: CapExceeded: ")


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
    text = open(solution_file).read()
    obj = json.loads(text)
    # one line, sorted keys, no spaces, shortest round-trip floats
    assert text == orjson.dumps(obj, option=orjson.OPT_SORT_KEYS).decode() \
        + "\n"
    assert obj["formatVersion"] == 1
    assert len(obj["eigenvalues"]) == 4
    rep = tmp_path / "rep.json"
    assert main(["nodal", "report", solution_file, "2", "-o", str(rep)]) == 0
    r = json.loads(rep.read_text())
    assert rep.read_text() == json.dumps(r, sort_keys=True, indent=2) + "\n"
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
    for w, step in ((1e308, 1e-300), (1.0, 1e-4))] + [
    # a zero length, an empty, a ragged and a non-binary bitmap
    {"formatVersion": 1, "gridStep": 0.125, "bc": "Dirichlet",
     "domain": domain}
    for domain in ({"shape": "Rectangle", "w": 0.0, "h": 1.0},
                   {"shape": "MaskedGrid", "bitmap": []},
                   {"shape": "MaskedGrid", "bitmap": [[1] * 6] * 5 + [[1]]},
                   {"shape": "MaskedGrid", "bitmap": [[1] * 6] * 5 + [[2] * 6]})
] + [
    # bitmap rows that are not lists
    {"formatVersion": 1, "gridStep": 0.125, "bc": "Dirichlet",
     "domain": {"shape": "MaskedGrid", "bitmap": bitmap}}
    for bitmap in ([5], [[1, 1, 1], 7])
])
def test_solve_bad_problem_exits_2(tmp_path, capsys, doc):
    assert main(["solve", _problem_file(tmp_path, doc), "-k", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip()) > len("error:")


@pytest.mark.parametrize("entry", [1.9, 0.7])
def test_fractional_bitmap_exits_2(tmp_path, capsys, entry):
    # int() would read 1.9 as 1 (the full square) and 0.7 as 0 (no cell)
    doc = {"formatVersion": 1, "gridStep": 0.125, "bc": "Dirichlet",
           "domain": {"shape": "MaskedGrid", "bitmap": [[entry] * 8] * 8}}
    message = "bitmap entry must be >= 0 and an integer, got %r" % entry
    with pytest.raises(InvalidProblem, match=message):
        EigenProblem.from_json(doc)
    assert main(["solve", _problem_file(tmp_path, doc), "-k", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


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


def test_plot_requires_output(solution_file, tmp_path, monkeypatch, capsys):
    # the parser requires -o: usage on stderr, and nothing written
    monkeypatch.chdir(tmp_path)
    before = sorted(os.listdir(tmp_path))
    assert main(["plot", solution_file, "2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: nodalkit plot ")
    assert "error: the following arguments are required: -o" in err
    assert sorted(os.listdir(tmp_path)) == before


def test_no_command_shows_help(capsys):
    # a missing subcommand, or a types command without -p, is a usage
    # error: usage and an error line on stderr, nothing on stdout
    for argv, usage in [([], "usage: nodalkit ["),
                        (["types"], "usage: nodalkit types "),
                        (["partition"], "usage: nodalkit partition "),
                        (["types", "enum"], "usage: nodalkit types enum "),
                        (["types", "rotate-check"],
                         "usage: nodalkit types rotate-check ")]:
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(usage)
        assert "error: the following arguments are required" in err


def test_non_utf8_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff")
    for argv in (["solve", str(bad)], ["types", "words", str(bad)]):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(
            "error: %s: UnicodeDecodeError: " % bad)


def test_report_and_plot_build_no_matrix(tmp_path, monkeypatch):
    # solve assembles its operator once; nodal report and plot only map
    # vectors to grid cells, so they never assemble
    calls = []
    assemble = cli.assemble_operator

    def counted(problem):
        calls.append(problem)
        return assemble(problem)
    monkeypatch.setattr(cli, "assemble_operator", counted)
    prob = _problem_file(tmp_path, EigenProblem(Rectangle(1, 1), 1 / 8).to_json())
    sol = str(tmp_path / "sol.json")
    assert main(["solve", prob, "-k", "2", "-o", sol]) == 0
    assert len(calls) == 1
    assert main(["nodal", "report", sol, "2", "-o",
                 str(tmp_path / "rep.json")]) == 0
    assert main(["plot", sol, "2", "-o", str(tmp_path / "out.svg")]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("problem", [
    EigenProblem(Rectangle(1, 1), 1 / 16),
    EigenProblem(Rectangle(2, 1), 1 / 16, spectral.ROBIN, 2.0),
    EigenProblem(Disk(0.5), 1 / 16)], ids=["square", "robin", "disk"])
def test_report_extract_matches_in_process(tmp_path, problem):
    # the extract a report reads from the solution file is the one the
    # assembled operator gives in process
    K = 4
    sol = solve_eigen(assemble_operator(problem), K)
    sol_file = str(tmp_path / "sol.json")
    assert main(["solve", _problem_file(tmp_path, problem.to_json()),
                 "-k", str(K), "-o", sol_file]) == 0
    rep = tmp_path / "rep.json"
    for k in range(1, K + 1):
        assert main(["nodal", "report", sol_file, str(k),
                     "-o", str(rep)]) == 0
        expect = json.dumps(spectral.extract_nodal(sol.field(k)).to_json())
        assert json.loads(rep.read_text())["extract"] == json.loads(expect)


def test_report_and_plot_check_the_potential(solution_file, tmp_path, capsys):
    # the potential is evaluated on the grid although no matrix is built;
    # x = 0.5 is a node of the h = 1/16 square
    problem = dict(json.loads(open(solution_file).read())["problem"],
                   V="1/(x-0.5)")
    sol = _edited_solution(solution_file, tmp_path, problem=problem)
    svg = tmp_path / "out.svg"
    for argv in (["nodal", "report", sol, "1"],
                 ["plot", sol, "1", "-o", str(svg)]):
        assert main(argv) == 2
        assert "fails on the grid" in capsys.readouterr().err
    assert not svg.exists()


def test_report_and_plot_reject_a_disconnected_mask(tmp_path, capsys):
    # the solve accepts a mask in two pieces; extraction refuses it, which
    # is malformed input (exit 2), not a failed check (exit 1)
    bitmap = [[int(1 <= iy <= 8 and (1 <= ix <= 6 or 9 <= ix <= 13))
               for ix in range(16)] for iy in range(10)]
    doc = {"formatVersion": 1, "gridStep": 1 / 16, "bc": "Dirichlet",
           "domain": {"shape": "MaskedGrid", "bitmap": bitmap}}
    sol = str(tmp_path / "sol.json")
    assert main(["solve", _problem_file(tmp_path, doc), "-k", "4",
                 "-o", sol]) == 0
    svg = tmp_path / "out.svg"
    for argv in (["nodal", "report", sol, "2"],
                 ["plot", sol, "2", "-o", str(svg)]):
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.err.startswith("error: ") and "not connected" in out.err
        assert out.out == ""
    assert not svg.exists()


def _edited_solution(solution_file, tmp_path, **fields):
    obj = json.loads(open(solution_file).read())
    obj.update(fields)
    f = tmp_path / "edited.json"
    f.write_text(json.dumps(obj))
    return str(f)


def test_zero_vector_solution_exits_2(solution_file, tmp_path, capsys):
    # an all-zero eigenvector is bad input, not a failed check
    obj = json.loads(open(solution_file).read())
    vectors = [list(v) for v in obj["vectors"]]
    vectors[1] = [0.0] * len(vectors[1])
    sol = _edited_solution(solution_file, tmp_path, vectors=vectors)
    svg = tmp_path / "out.svg"
    for argv in (["nodal", "report", sol, "2"],
                 ["plot", sol, "2", "-o", str(svg)]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: %s: AllZeroField: " % sol)
    assert not svg.exists()


@pytest.mark.parametrize("key", ["clusterRelTol", "residuals"])
def test_solution_without_a_key_solve_writes_exits_2(solution_file, tmp_path,
                                                     capsys, key):
    obj = json.loads(open(solution_file).read())
    del obj[key]
    sol = tmp_path / "partial.json"
    sol.write_text(json.dumps(obj))
    assert main(["nodal", "report", str(sol), "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: %s: InvalidProblem: a solution has no %r key\n" % (
        sol, key)


def test_report_index_out_of_range_exits_2(solution_file, capsys):
    # the solution checks the index: k in 1..K
    for index in ("0", "5"):
        assert main(["nodal", "report", solution_file, index]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: %s: InvalidProblem: " % solution_file)


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


@pytest.mark.parametrize("field, value", [
    ("residuals", [1.0]), ("clusterRelTol", -5), ("clusters", [[1]])])
def test_solution_solve_never_writes_exits_2(solution_file, tmp_path, capsys,
                                             field, value):
    # the K = 4 square's solution with one residual, a negative cluster
    # tolerance, or clusters that stop at 1: EigenSolution.from_json
    # refuses each
    sol = _edited_solution(solution_file, tmp_path, **{field: value})
    svg = tmp_path / "out.svg"
    for argv in (["nodal", "report", sol, "1"],
                 ["plot", sol, "1", "-o", str(svg)]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: %s: InvalidProblem: " % sol)
    assert not svg.exists()


def test_solution_clusters_follow_the_eigenvalues(solution_file, tmp_path,
                                                  capsys):
    # the K = 4 square (lambda = 19.68, 48.81, 48.81, 77.95) has the
    # clusters [[1], [2, 3], [4]]; a file that splits them otherwise, or
    # whose eigenvalues decrease, exits 2
    obj = json.loads(open(solution_file).read())
    for edit in ({"clusters": [[1, 2], [3], [4]]}, {"clusters": [[1]]},
                 {"clusters": [[1.0], [2, 3], [4]]},
                 {"eigenvalues": obj["eigenvalues"][::-1]}):
        sol = _edited_solution(solution_file, tmp_path, **edit)
        assert main(["nodal", "report", sol, "1"]) == 2, edit
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(
            "error: %s: InvalidProblem: " % sol), edit


def _partition_doc(p, **changes):
    doc = p.to_json()
    doc.update(changes)
    return doc


@pytest.mark.parametrize("doc, message", [
    # a circle marker on a nodal loop, and a boundary component listing
    # no edge at all
    (_partition_doc(helpers.circle_on_sphere(), boundaryComponents=[[]],
                    surface=SurfaceSpec.planar_domain(0).to_json()),
     "boundary component 0 is not one non-empty cycle"),
    # the disk with a diameter, its rotation at y reversed: the boundary
    # cycle bounds no face
    (_partition_doc(helpers.disk_with_diameter(),
                    rotation={"0": [0, 4, 3], "1": [2, 1, 5]}),
     "no hole face for boundary component 0"),
], ids=["empty-component", "no-hole-face"])
@pytest.mark.parametrize("command", ["euler", "normalize"])
def test_malformed_boundary_exits_2(tmp_path, capsys, doc, message, command):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["partition", command, str(bad)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: %s: MalformedEmbedding: %s\n" % (bad, message)


def test_non_integer_surface_count_exits_2(tmp_path, capsys):
    # 1.7 is no genus; it is not read as genus 1
    doc = _partition_doc(helpers.circle_on_sphere(),
                         surface={"kind": "ClosedOrientable", "param": 1.7})
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["partition", "euler", str(bad)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == (
        "error: %s: InvalidSurface: genus must be >= 0 and an integer, got "
        "1.7\n" % bad)


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
        assert capsys.readouterr().err.startswith(
            "error: FileNotFoundError: ")


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


def _nan_token_vectors(obj):
    return [[float("nan")] * len(v) for v in obj["vectors"]]


def _null_vector_entry(obj):
    vectors = [list(v) for v in obj["vectors"]]
    vectors[0][3] = None
    return vectors


@pytest.mark.parametrize("field, value, message", [
    # NaN and Infinity are not JSON tokens: the file fails at parse
    ("vectors", _nan_token_vectors, "JSONDecodeError"),
    ("eigenvalues", lambda obj: [float("nan")] + obj["eigenvalues"][1:],
     "JSONDecodeError"),
    ("eigenvalues", lambda obj: obj["eigenvalues"][:-1] + [float("inf")],
     "JSONDecodeError"),
    # null is JSON, but not a number
    ("vectors", _null_vector_entry, "must be finite"),
    ("eigenvalues", lambda obj: [None] + obj["eigenvalues"][1:],
     "must be finite"),
    # a string that spells a number was once read as that number
    ("eigenvalues", lambda obj: [str(v) for v in obj["eigenvalues"]],
     "InvalidProblem: eigenvalues, vector entries and residuals must be "
     "finite real numbers"),
], ids=["nan-vectors", "nan-eigenvalue", "infinity-eigenvalue",
        "null-vector-entry", "null-eigenvalue", "string-eigenvalues"])
def test_non_finite_solution_exits_2(solution_file, tmp_path, capsys, field,
                                     value, message):
    obj = json.loads(open(solution_file).read())
    sol = _edited_solution(solution_file, tmp_path, **{field: value(obj)})
    for argv in (["nodal", "report", sol, "1"],
                 ["plot", sol, "1", "-o", str(tmp_path / "x.svg")]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: %s: " % sol) and message in err


def test_solution_file_round_trip(tmp_path):
    # the disk's vectors hold entries below 1e-4, which orjson spells as
    # plain decimals (0.00001) where json wrote exponents (1e-05)
    problem = EigenProblem(Disk(0.5), 1 / 16)
    prob = _problem_file(tmp_path, problem.to_json())
    out = tmp_path / "sol.json"
    assert main(["solve", prob, "-k", "6", "-o", str(out)]) == 0
    read, _ = cli._parse_solution(out.read_text())
    solved = solve_eigen(assemble_operator(problem), 6)
    assert (np.abs(solved.vectors) < 1e-4).any()
    for name in ("eigenvalues", "residuals", "vectors"):
        a, b = getattr(read, name), getattr(solved, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


_MAX = float(np.finfo(float).max)


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                min_size=1, max_size=20))
@example([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, _MAX, -_MAX])
def test_orjson_floats_read_back_bit_identically(values):
    # solve writes through orjson; the CLI reads through orjson, and the
    # benchmark's vector check through json
    array = np.array(values, float)
    text = orjson.dumps(array, option=orjson.OPT_SERIALIZE_NUMPY)
    for loads in (orjson.loads, json.loads):
        assert np.array(loads(text), float).tobytes() == array.tobytes()


def test_k_below_one_rejected(tmp_path, capsys):
    problem = EigenProblem(Rectangle(1, 1), 1 / 8)
    for K in (0, -2):
        with pytest.raises(InvalidProblem, match=">= 1 and an integer"):
            solve_eigen(assemble_operator(problem), K)
    prob = _problem_file(tmp_path, problem.to_json())
    assert main(["solve", prob, "-k", "0"]) == 2
    assert "K must be >= 1 and an integer" in capsys.readouterr().err


def test_handlers_resolved_when_main_runs(tmp_path, monkeypatch):
    # bench/trace.py rebinds cli.cmd_solve and expects main to call the
    # rebound name
    prob = _problem_file(tmp_path, EigenProblem(Rectangle(1, 1), 1 / 8).to_json())
    calls = []
    solve = cli.cmd_solve

    def wrapper(args):
        calls.append(args.file)
        return solve(args)
    monkeypatch.setattr(cli, "cmd_solve", wrapper)
    assert main(["solve", prob, "-k", "2", "-o", str(tmp_path / "s.json")]) == 0
    assert calls == [prob]


# ---------------------------------------------------------------------------
# every malformed input file exits 2 with "error:", never with a traceback
# ---------------------------------------------------------------------------

def _with_literal(doc, path, literal):
    """JSON text of doc with the value at `path` written as `literal`."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = "<literal>"
    return json.dumps(doc).replace('"<literal>"', literal)


def _malformed_file_commands(tmp_path, solution_file):
    """(id, argv) for inputs that once ended in a traceback and exit 1."""
    circle = helpers.circle_on_sphere().to_json()
    mask = {"formatVersion": 1, "gridStep": 0.125, "bc": "Dirichlet",
            "domain": {"shape": "MaskedGrid", "bitmap": [[1] * 6] * 6}}
    solution = json.loads(open(solution_file).read())
    solution["problem"] = mask
    files = {
        "rotation-list": _with_literal(circle, ["rotation"], "[]"),
        "param-1e400": _with_literal(circle, ["surface", "param"], "1e400"),
        "edge-end-1e400": _with_literal(circle, ["edges", 0, "ends", 0],
                                        "1e400"),
        "deep-nesting": "[" * 100000 + "]" * 100000,
        "bitmap-1e400": _with_literal(mask, ["domain", "bitmap", 2, 3],
                                      "1e400"),
        "solution-bitmap-1e400": _with_literal(
            solution, ["problem", "domain", "bitmap", 2, 3], "1e400"),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    f = {name: str(tmp_path / name) for name in files}
    return [
        ("rotation-list", ["partition", "euler", f["rotation-list"]]),
        ("param-1e400", ["partition", "normalize", f["param-1e400"]]),
        ("edge-end-1e400", ["partition", "euler", f["edge-end-1e400"]]),
        ("deep-nesting", ["partition", "euler", f["deep-nesting"]]),
        ("bitmap-1e400", ["solve", f["bitmap-1e400"], "-k", "3"]),
        ("report-bitmap-1e400",
         ["nodal", "report", f["solution-bitmap-1e400"], "1"]),
        ("plot-bitmap-1e400", ["plot", f["solution-bitmap-1e400"], "1",
                               "-o", str(tmp_path / "out.svg")])]


def test_malformed_files_exit_2(tmp_path, solution_file, capsys):
    for name, argv in _malformed_file_commands(tmp_path, solution_file):
        assert main(argv) == 2, name
        assert capsys.readouterr().err.startswith("error: "), name


def test_malformed_files_exit_2_under_optimize(tmp_path, solution_file):
    # each run re-imports numpy and scipy, so two run at a time
    cases = _malformed_file_commands(tmp_path, solution_file)
    with ThreadPoolExecutor(2) as pool:
        runs = list(pool.map(
            lambda case: _nodalkit(*case[1], optimize=True), cases))
    for (name, _), r in zip(cases, runs):
        assert r.returncode == 2, (name, r.stderr)
        assert r.stderr.startswith("error: "), (name, r.stderr)


# The fuzz sets one field of a known-good small file to a hostile value.
# "<missing>" deletes the field; "<1e400>" is written as the JSON number
# 1e400, which json reads as inf.
_HOSTILE = ["<missing>", None, True, "x", [], {}, float("nan"), float("inf"),
            float("-inf"), "<1e400>", 0, -1, -2.5, 2 ** 64, 10 ** 400]
_HOSTILE_TOKENS = [None, "x", "nan", "inf", "-inf", "1e400", "0", "-1",
                   "-2.5", str(2 ** 64), "9" * 5000]
_FUZZED = {  # subcommand: (argv with the input file as "IN", input kind)
    "partition euler": (["partition", "euler", "IN"], "partition"),
    "partition normalize": (["partition", "normalize", "IN"], "partition"),
    "types label": (["types", "label", "IN"], "type"),
    "types words": (["types", "words", "IN"], "type"),
    "solve": (["solve", "IN", "-k", "3"], "problem"),
    "nodal report": (["nodal", "report", "IN", "2"], "solution"),
    "plot": (["plot", "IN", "2", "-o", "OUT"], "solution"),
}


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """Known-good inputs per kind, and a directory to write mutants to."""
    tmp = tmp_path_factory.mktemp("fuzz")
    problems = [
        {"formatVersion": 1, "gridStep": 0.125, "bc": "Robin", "robinH": 2.0,
         "V": "x*y", "domain": {"shape": "Rectangle", "w": 1.0, "h": 1.0}},
        {"formatVersion": 1, "gridStep": 0.125, "bc": "Dirichlet",
         "domain": {"shape": "MaskedGrid",
                    "bitmap": [[0, 1, 1, 1, 1, 0]] + [[1] * 6] * 4
                    + [[0, 1, 1, 1, 1, 0]]}}]
    solutions = []
    for i, doc in enumerate(problems):
        prob, sol = tmp / ("p%d.json" % i), tmp / ("s%d.json" % i)
        prob.write_text(json.dumps(doc))
        assert main(["solve", str(prob), "-k", "3", "-o", str(sol)]) == 0
        solutions.append(json.loads(sol.read_text()))
    return tmp, {
        "partition": [f().to_json() for f in (helpers.circle_on_sphere,
                                              helpers.disk_with_diameter,
                                              helpers.theta_graph)],
        "type": [format_tau_text(InteriorType(8, TAU16)),
                 format_tau_text(BoundaryType(4, (5, 2, 1, 4, 3, 0)))],
        "problem": problems, "solution": solutions}


def _mutated_json(data, doc):
    doc = json.loads(json.dumps(doc))
    node = doc
    while True:
        key = data.draw(st.sampled_from(
            sorted(node) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        if not (isinstance(child, (dict, list)) and child
                and data.draw(st.booleans())):
            break
        node = child
    value = data.draw(st.sampled_from(_HOSTILE))
    if value == "<missing>":
        del node[key]
    else:
        node[key] = value
    return json.dumps(doc).replace('"<1e400>"', "1e400")


def _mutated_tokens(data, text):
    rows = [line.split() for line in text.splitlines()]
    row = data.draw(st.sampled_from(rows))
    i = data.draw(st.sampled_from(range(len(row))))
    token = data.draw(st.sampled_from(_HOSTILE_TOKENS))
    if token is None:
        del row[i]
    else:
        row[i] = token
    return "\n".join(" ".join(r) for r in rows) + "\n"


@pytest.mark.parametrize("command", list(_FUZZED))
@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(data=st.data())
def test_fuzzed_input_exit_codes(fuzz_inputs, command, data):
    tmp, bases = fuzz_inputs
    argv, kind = _FUZZED[command]
    base = data.draw(st.sampled_from(bases[kind]))
    src = tmp / ("in-" + kind)
    src.write_text(_mutated_tokens(data, base) if kind == "type"
                   else _mutated_json(data, base))
    argv = [{"IN": str(src), "OUT": str(tmp / "out.svg")}.get(a, a)
            for a in argv]
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        # no mutant may ask for a big solve: a valid problem stays within
        # 16 x 16 cells, and -k is 3
        mp.setattr(spectral, "MAX_CELLS", 256)
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ")


_READERS = {"partition": EmbeddedPartition.from_json,
            "problem": EigenProblem.from_json,
            "solution": EigenSolution.from_json}


def _keeps(written, held):
    """Whether the document `written` holds every value of `held`
    unchanged: the same strings and bools, and numbers of the same value
    and kind, except that an int may be written as the float it equals.  A
    potential of null or 0 is no potential, which is written as no "V", and
    a Robin coefficient is read, and written, under Robin conditions only."""
    if isinstance(written, np.ndarray):
        written = written.tolist()
    if isinstance(held, dict):
        return isinstance(written, dict) and all(
            _keeps(written[k], v) if k in written else k == "V" and (
                v is None or type(v) in (int, float) and v == 0)
            or k == "robinH" and written.get("bc") != "Robin"
            for k, v in held.items())
    if isinstance(held, list):
        return isinstance(written, (list, tuple)) \
            and len(written) == len(held) and all(map(_keeps, written, held))
    if type(held) in (int, float):
        return type(written) in (int, float) and written == held \
            and not (type(held) is float and type(written) is int)
    return type(written) is type(held) and written == held


def _rays(text):
    """The token rows of a type's text, with the arrow spelled "0"."""
    return [["0" if tok == "v" else tok for tok in line.split()]
            for line in text.splitlines() if line.strip()]


@pytest.mark.parametrize("kind", ["partition", "type", "problem", "solution"])
@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(data=st.data())
def test_fuzzed_documents_raise_or_read_back(fuzz_inputs, kind, data):
    # the library's four readers on the mutants of the exit-code fuzz: each
    # either raises a NodalkitError, or is read with every value it holds
    # unchanged in to_json(), so no reader coerces, truncates or drops one.
    # One exception is known and not probed here: a string that spells a
    # number inside a solution's eigenvalues, vectors or residuals is read as
    # that number, since each array is decoded by one np.array(value, float)
    _, bases = fuzz_inputs
    base = data.draw(st.sampled_from(bases[kind]))
    if kind == "type":
        text = _mutated_tokens(data, base)
        try:
            t = parse_tau_text(text)
        except NodalkitError:
            return
        assert _rays(format_tau_text(t)) == _rays(text)
        return
    doc = json.loads(_mutated_json(data, base))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "MAX_CELLS", 256)
        try:
            value = _READERS[kind](doc)
        except NodalkitError:
            return
    assert _keeps(value.to_json(), doc), doc


def _edited(doc, path, value):
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


_THETA = helpers.theta_graph().to_json()
_DISK = {"formatVersion": 1, "domain": {"shape": "Disk", "r": 0.5},
         "gridStep": 0.125}
_ROTATION_KEYS = {"plus-1": "+1", "space-1": " 1", "01": "01", "1_0": "1_0",
                  "1.0": "1.0"}


def _rekeyed(key):
    """The theta graph with its rotation at vertex 1 under `key`."""
    doc = json.loads(json.dumps(_THETA))
    doc["rotation"][key] = doc["rotation"].pop("1")
    return doc


def _main_on(tmp_path, kind, doc):
    """main's exit code for the command that reads a `kind` file holding
    doc, and the file's path."""
    f = tmp_path / ("%s.json" % kind)
    f.write_text(json.dumps(doc))
    argv = {"problem": ["solve", str(f)],
            "solution": ["nodal", "report", str(f), "1"],
            "partition": ["partition", "euler", str(f)]}[kind]
    return main(argv), f


@pytest.mark.parametrize("kind, doc, message", [
    # each once raised a Python exception that only a catch-all in the CLI
    # turned into exit 2, or was truncated and accepted
    ("problem", [1], "InvalidProblem: a problem must be a JSON object, got "
                     "[1]"),
    ("solution", {"problem": 7},
     "InvalidProblem: a solution has no 'eigenvalues' key"),
    ("partition", _edited(_THETA, ["surface"], [1]),
     "InvalidSurface: a surface must be a JSON object, got [1]"),
    ("problem", _edited(_DISK, ["domain", "r"], "x"),
     "InvalidProblem: Disk r must be finite and > 0, got 'x'"),
    ("partition", _edited(_THETA, ["vertices", 0, "id"], 0.7),
     "MalformedEmbedding: vertex id must be >= 0 and an integer, got 0.7"),
    ("partition", _edited(_THETA, ["vertices", 1, "nu"], 3.9),
     "MalformedEmbedding: vertex nu must be >= 0 and an integer, got 3.9"),
    ("partition", _edited(_THETA, ["edges", 2, "signature"], 1.5),
     "MalformedEmbedding: edge signature must be >= -1 and an integer, "
     "got 1.5"),
    ("partition", _edited(_THETA, ["edges", 0, "ends"], [0.5, 1.5]),
     "MalformedEmbedding: edge end must be >= 0 and an integer, got 0.5"),
    ("partition", _edited(_THETA, ["nodal"], "false"),
     "MalformedEmbedding: edge boundary flags and the nodal flag must be "
     "true or false"),
    ("partition", _edited(_THETA, ["edges", 1, "boundary"], 0),
     "MalformedEmbedding: edge boundary flags and the nodal flag must be "
     "true or false"),
    ("problem", dict(_DISK, V=True), "InvalidProblem: a potential is an "
                                     "expression or a number, got True"),
    # Python 3.10's ast.parse raises ValueError for a NUL, later ones
    # SyntaxError
    ("problem", dict(_DISK, V="x\u0000"), "InvalidProblem: potential "
     "'x\\x00': source code string cannot contain null bytes"),
    ("problem", dict(_DISK, gridStep="x"),
     "InvalidProblem: grid step must be finite and > 0, got 'x'"),
    ("problem", dict(_DISK, domain={"shape": "Rectangle", "w": 1, "h": 1},
                     bc="Robin", robinH="x"),
     "InvalidProblem: Robin coefficient must be finite and >= 0, got 'x'"),
    ("problem", dict(_DISK, domain={"shape": "MaskedGrid",
                                    "bitmap": [[True] * 8] * 8}),
     "InvalidProblem: bitmap entry must be >= 0 and an integer, got True"),
] + [
    # int() read the first four as vertex 1 (and "1_0" as vertex 10)
    ("partition", _rekeyed(key), "MalformedEmbedding: rotation vertex must "
     "be >= 0 and an integer, got %r" % key)
    for key in _ROTATION_KEYS.values()
], ids=["problem-list", "solution-problem-7", "surface-list", "radius-x",
        "vertex-id-0.7", "nu-3.9", "signature-1.5", "ends-0.5-1.5",
        "nodal-string", "boundary-0", "V-true", "V-nul", "grid-step-x", "robin-x",
        "bitmap-true"] + ["rotation-key-" + k for k in _ROTATION_KEYS])
def test_reader_defects_raise_their_kind(tmp_path, capsys, kind, doc,
                                         message):
    name, text = message.split(": ", 1)
    with pytest.raises(NodalkitError, match="^%s$" % re.escape(text)) as info:
        _READERS[kind](doc)
    assert type(info.value).__name__ == name
    code, f = _main_on(tmp_path, kind, doc)
    out = capsys.readouterr()
    assert code == 2
    assert out.out == "" and out.err == "error: %s: %s\n" % (f, message)


def _version_edits(solution_file):
    solution = json.loads(open(solution_file).read())
    return [("problem", _DISK, "a problem"),
            ("solution", solution, "a solution"),
            ("partition", _THETA, "a partition")]


@pytest.mark.parametrize("version", ["x", 2, 1.0, True, None])
def test_readers_read_only_their_format_version(solution_file, tmp_path,
                                                capsys, version):
    # no reader read formatVersion: "x" was solved as version 1
    for kind, doc, what in _version_edits(solution_file):
        doc = dict(doc, formatVersion=version)
        message = "%s has formatVersion %r, but only 1 is read" % (what,
                                                                   version)
        with pytest.raises(NodalkitError, match="^%s$" % re.escape(message)):
            _READERS[kind](doc)
        assert _main_on(tmp_path, kind, doc)[0] == 2
        assert capsys.readouterr().err.endswith(message + "\n")
    # without formatVersion a document is read as version 1
    for kind, doc, _ in _version_edits(solution_file):
        doc = dict(doc)
        del doc["formatVersion"]
        assert _READERS[kind](doc).to_json()["formatVersion"] == 1


def test_readers_refuse_deep_nesting(tmp_path, capsys):
    # orjson reads JSON of any depth, deeper than repr() can print
    deep = orjson.loads("[" * 100000 + "]" * 100000)
    for kind, reader in _READERS.items():
        with pytest.raises(NodalkitError, match="must be a JSON object"):
            reader(deep)
    with pytest.raises(InvalidProblem, match="must be a JSON object"):
        EigenProblem.from_json(dict(_DISK, domain=deep))
    with pytest.raises(NodalkitError, match="must be JSON arrays"):
        EmbeddedPartition.from_json(dict(_THETA, vertices={"a": deep}))
    # a deep value under a key no reader reads is digested by json.dumps,
    # which exceeds the recursion limit: exit 2 at load
    f = tmp_path / "deep.json"
    f.write_text(json.dumps(_THETA)[:-1] + ', "notes": '
                 + "[" * 100000 + "]" * 100000 + "}")
    assert main(["partition", "euler", str(f)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: %s: RecursionError: " % f)
