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


def test_one_nodal_domain_labelling_site():
    # nodal domains are labelled in one kernel, which nodal_count,
    # extract_nodal and the law report's member count all go through
    sites = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        funcs = [node for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) \
                    and node.module == "scipy.ndimage" \
                    and any(a.name == "label" for a in node.names):
                sites.append((path.name, "import of label"))
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "label" \
                    and "ndimage" in ast.unparse(node.func.value):
                owner = max((f for f in funcs
                             if f.lineno <= node.lineno <= f.end_lineno),
                            key=lambda f: f.lineno, default=None)
                sites.append((path.name, owner and owner.name))
    assert sites == [("spectral.py", "nodal_counts")]
