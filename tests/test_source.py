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
