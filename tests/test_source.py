"""Source guards: properties of the package's code itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "nodalkit"


def test_no_assert_statements():
    # `python -O` strips assert statements, so a check written as one does
    # not run there; checks on input must raise a NodalkitError instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def _call_sites(is_site):
    """(file, enclosing function, callee) for each call in the package for
    which is_site(callee text) holds."""
    sites = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        funcs = [node for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and is_site(ast.unparse(node.func)):
                owner = max((f for f in funcs
                             if f.lineno <= node.lineno <= f.end_lineno),
                            key=lambda f: f.lineno, default=None)
                sites.append((path.name, owner and owner.name,
                              ast.unparse(node.func)))
    return sites


def _imported_names(module):
    """(file, name) for each `from module import name` in the package."""
    return [(path.name, a.name) for path in sorted(SRC.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom) and node.module == module
            for a in node.names]


def test_one_nodal_domain_labelling_site():
    # nodal domains are labelled in one kernel, which nodal_count,
    # extract_nodal and the law report's member count all go through
    assert "label" not in [name for _, name in
                           _imported_names("scipy.ndimage")]
    sites = _call_sites(lambda f: f.endswith(".label") and "ndimage" in f)
    assert [site[:2] for site in sites] == [("spectral.py", "nodal_counts")]


def test_one_eigensolver():
    # every eigenpair comes from solve_eigen's shift-invert eigsh, and every
    # solve with A - sigma*I from the one factor _shift_factor makes
    solvers = ("eigsh", "eigs", "lobpcg", "eigh", "eigvalsh", "eig",
               "eigvals", "splu", "spilu", "factorized", "spsolve")
    assert [name for module in ("numpy.linalg", "scipy.linalg",
                                "scipy.sparse.linalg")
            for _, name in _imported_names(module) if name in solvers] == []
    sites = _call_sites(lambda f: f.split(".")[-1] in solvers)
    assert sites == [
        ("spectral.py", "_shift_factor", "scipy.sparse.linalg.splu"),
        ("spectral.py", "solve_eigen", "scipy.sparse.linalg.eigsh")]


def test_one_json_parse_site():
    # the CLI parses every JSON file through orjson in _parse_json's parse,
    # which _load calls; nothing else in the package parses JSON
    assert [name for module in ("json", "orjson")
            for _, name in _imported_names(module)
            if name in ("load", "loads")] == []
    sites = _call_sites(lambda f: f.split(".")[-1] in ("load", "loads")
                        and f.split(".")[0] in ("json", "orjson"))
    assert sites == [("cli.py", "parse", "orjson.loads")]


def test_cli_assembles_only_in_solves_loader():
    # nodal report and plot read a solution's grid without building its
    # matrix; only solve, through its loader _operator, assembles
    sites = _call_sites(lambda f: f.split(".")[-1] == "assemble_operator")
    assert [site for site in sites if site[0] == "cli.py"] == [
        ("cli.py", "_operator", "assemble_operator")]
    tree = ast.parse((SRC / "cli.py").read_text())
    users = [f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
             and any(isinstance(node, ast.Name) and node.id == "_operator"
                     for node in ast.walk(f))]
    assert users == ["cmd_solve"]


def test_cli_writes_stdout_only_through_emit():
    # _emit sends a subcommand's text to -o when it is given, so text
    # written to stdout any other way would ignore -o
    tree = ast.parse((SRC / "cli.py").read_text())
    prints = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
              and ast.unparse(node.func) == "print"]
    assert [ast.unparse(node) for node in prints
            if "file=sys.stderr" not in map(ast.unparse, node.keywords)] == []
    assert _call_sites(lambda f: f == "sys.stdout.write") == [
        ("cli.py", "_emit", "sys.stdout.write")]


def test_cli_maps_library_errors_in_main_only():
    # main alone turns every NodalkitError a handler raises into exit 2.
    # _load catches only what reading and parsing text raise, and no handler
    # contains a try: the library raises a NodalkitError for every bad
    # input, so a handler has nothing to translate, and no failure of the
    # library is reported as a failed check
    text = (SRC / "cli.py").read_text()
    tree = ast.parse(text)
    catchers = sorted(f.name for f in ast.walk(tree)
                      if isinstance(f, ast.FunctionDef)
                      for node in ast.walk(f)
                      if isinstance(node, ast.ExceptHandler)
                      and "NodalkitError" in ast.unparse(node.type))
    assert catchers == ["main"]
    load = _function("cli.py", "_load")
    assert [ast.unparse(node.type) for node in ast.walk(load)
            if isinstance(node, ast.ExceptHandler)] == [
        "(OSError, UnicodeDecodeError, orjson.JSONDecodeError, RecursionError)"]
    assert [f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
            and (f.name.startswith("cmd_") or f.name == "_extract_for_index")
            for node in ast.walk(f) if isinstance(node, ast.Try)] == []
    assert "check failed" not in text


def test_src_raises_no_value_error():
    # bad input is a NodalkitError, raised where the library makes the
    # value, so no module raises a bare ValueError of its own
    raises = [(path.name, ast.unparse(node.exc)) for path in SRC.glob("*.py")
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Raise) and node.exc is not None
              and "ValueError" in ast.unparse(node.exc)]
    assert raises == []


def test_user_callables_called_only_in_sampler():
    # fields are evaluated on point arrays: a user callable is called at
    # points only through _sampler's one np.frompyfunc, and every jet
    # derivative comes from one difference stencil (_derivatives)
    assert all("np.vectorize" not in path.read_text()
               for path in SRC.glob("*.py"))
    assert _call_sites(lambda f: f.endswith("frompyfunc")) == [
        ("spectral.py", "_sampler", "np.frompyfunc")]
    tree = ast.parse((SRC / "spectral.py").read_text())
    names = {node.name for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef)}
    assert "_derivatives" in names
    assert names.isdisjoint({"_central_difference", "_jet_rows_interior",
                             "breve"})


def test_one_matching_check_and_one_labeling_sweep():
    # a boundary type is a non-crossing matching with the arrow as ray 0:
    # each type kind's constructor runs the one matching check over all of
    # its rays, and m_theta is the labeling sweep labeling_from_type runs
    tree = ast.parse((SRC / "comb_type.py").read_text())
    assert [node.name for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            and node.name.startswith("validate_")] == []
    checks = [(cls.name, f.name) for cls in tree.body
              if isinstance(cls, ast.ClassDef) for f in cls.body
              if isinstance(f, ast.FunctionDef) for node in ast.walk(f)
              if isinstance(node, ast.Call)
              and ast.unparse(node) == "_matching_problems(self.tau)"]
    assert sorted(checks) == [("BoundaryType", "__post_init__"),
                              ("InteriorType", "__post_init__")]
    assert len(_call_sites(lambda f: f == "_matching_problems")) == 2
    sweeps = [ast.unparse(node) for node in ast.walk(tree)
              if isinstance(node, ast.Call)
              and "_innermost" in ast.unparse(node.func)]
    assert sweeps == ["_innermost(t.tau)"] * 2
    assert sorted(site[1] for site in _call_sites(
        lambda f: f == "_first_encounter")
        if site[1] != "canonical_word") == ["boundary_words",
                                            "labeling_from_type"]
    assert (SRC / "comb_type.py").read_text().count(
        "_first_encounter(_innermost(t.tau))") == 2


def test_nodal_graph_imports_no_private_partition_name():
    # the circle count comes with the partition's stats, so nodal_graph
    # needs none of partition's internals
    assert [name for path, name in _imported_names("partition")
            if path == "nodal_graph.py" and name.startswith("_")] == []


def _function(module, name):
    tree = ast.parse((SRC / module).read_text())
    return next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name)


def test_one_edge_walker_and_one_euler_path():
    # extract_nodal builds every partition edge, the boundary's included,
    # in its one walker loop; _compute_stats gives kappa by one formula and
    # verify_euler picks its relation without naming a surface kind
    extract = _function("spectral.py", "extract_nodal")
    loops = [node for node in ast.walk(extract) if isinstance(node, ast.For)]
    edge_loops = [loop for loop in loops
                  if any(isinstance(node, ast.Call)
                         and ast.unparse(node.func) == "b.edge"
                         for node in ast.walk(loop))]
    assert len(edge_loops) == 1
    walker = edge_loops[0]
    assert any(isinstance(node, ast.While) for node in ast.walk(walker))
    edges = [node for node in ast.walk(extract) if isinstance(node, ast.Call)
             and ast.unparse(node.func) == "b.edge"]
    assert len(edges) == 2 and all(
        any(node is edge for node in ast.walk(walker)) for edge in edges)
    assert "hits" not in {node.id for node in ast.walk(extract)
                          if isinstance(node, ast.Name)}
    stats = _function("partition.py", "_compute_stats")
    assert [ast.unparse(node) for node in ast.walk(stats)
            if isinstance(node, ast.Assign)
            and "kappa" in map(ast.unparse, node.targets)] == [
        "kappa = regions - b0 - max(0, defect) // 2"]
    euler = _function("partition.py", "verify_euler")
    strings = {node.value for node in ast.walk(euler)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert strings.isdisjoint({"ClosedOrientable", "ClosedNonOrientable",
                               "PlanarDomain", "MoebiusStrip"})
    assert sorted(strings - {euler.body[0].value.value}) == ["equality",
                                                             "inequality"]


def test_solution_document_behind_one_module():
    # EigenSolution alone writes and reads the solution document and derives
    # its clusters: a solution is made by solve_eigen or from a document,
    # the CLI names none of the document's keys, and no clusters are passed
    assert sorted(_call_sites(lambda f: f == "EigenSolution")) == [
        ("spectral.py", "from_json", "EigenSolution"),
        ("spectral.py", "solve_eigen", "EigenSolution")]
    tree = ast.parse((SRC / "cli.py").read_text())
    assert [node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and node.value in ("vectors", "clusters")] == []
    spectral = ast.parse((SRC / "spectral.py").read_text())
    cls, = [node for node in ast.walk(spectral)
            if isinstance(node, ast.ClassDef) and node.name == "EigenSolution"]
    assert "clusters" not in [node.target.id for node in cls.body
                              if isinstance(node, ast.AnnAssign)]


def test_readers_only_look_up_keys():
    # a reader checks its JSON object through errors._fields and passes the
    # raw values to the constructors, which check them; so no from_json
    # calls int, float or bool, which would truncate 0.7 to 0 and read
    # "false" as True
    readers = [(path.name, f) for path in sorted(SRC.glob("*.py"))
               for f in ast.walk(ast.parse(path.read_text()))
               if isinstance(f, ast.FunctionDef) and f.name == "from_json"]
    assert sorted(name for name, _ in readers) == [
        "partition.py", "spectral.py", "spectral.py", "surface.py"]
    calls = [(name, [ast.unparse(node.func) for node in ast.walk(f)
                     if isinstance(node, ast.Call)]) for name, f in readers]
    assert [(name, c) for name, cs in calls for c in cs
            if c in ("int", "float", "bool")] == []
    assert all("_fields" in cs for _, cs in calls)


def test_one_implementation_per_value_rule():
    # integers, finite reals and real arrays are each tested by one rule in
    # errors.py (_integer, _real, _real_array); a copy elsewhere would drift
    # from it, as the bitmap's, the clusters' and the signatures' did
    found, names = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {node: f.name for f in ast.walk(tree)
                 if isinstance(f, ast.FunctionDef) for node in ast.walk(f)}
        for node in ast.walk(tree):
            text = ast.unparse(node) if isinstance(node, ast.Attribute) else ""
            if text in ("np.integer", "numbers.Real") \
                    or text.endswith(".dtype.kind"):
                found.append((path.name, owner.get(node), "dtype.kind"
                              if text.endswith(".dtype.kind") else text))
            names.add(getattr(node, "name", getattr(node, "id", None)))
    assert sorted(found) == [("errors.py", "_integer", "np.integer"),
                             ("errors.py", "_real", "numbers.Real"),
                             ("errors.py", "_real_array", "dtype.kind")]
    assert names.isdisjoint({"_placed", "_tolerance"})
    # the exact-int test `type(x) is int` is the rule's fast common case, so
    # it stays in errors.py too; and the bulk form `_integers` is not a rule
    # of its own: whatever its census does not pass goes to `_integer`
    exact = [path.name for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Compare)
             and ast.unparse(node.left).startswith("type(")
             and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
             and "int" in map(ast.unparse, node.comparators)]
    assert set(exact) == {"errors.py"}
    bulk, = [f for f in ast.walk(ast.parse((SRC / "errors.py").read_text()))
             if isinstance(f, ast.FunctionDef) and f.name == "_integers"]
    assert "_integer" in [ast.unparse(node.func) for node in ast.walk(bulk)
                          if isinstance(node, ast.Call)]
