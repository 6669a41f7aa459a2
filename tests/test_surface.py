"""The package has no surface that only module tests reach.

Every public top-level function and class in `src/wsdlab/*.py` must be
referenced from some package module, outside its own definition, or from
the acceptance gates.  A reference is an AST name, attribute or import
alias, so a mention in a docstring or comment does not count.
"""

import ast
from pathlib import Path

import wsdlab

PACKAGE = Path(wsdlab.__file__).parent
GATES = Path(__file__).with_name("test_acceptance.py")


def _referenced(nodes) -> set[str]:
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
            elif isinstance(sub, ast.alias):
                out.add(sub.name)
    return out


def test_every_public_definition_has_a_package_or_gate_user():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    gates = _referenced([ast.parse(GATES.read_text(encoding="utf-8"))])
    unused = []
    for module, tree in trees.items():
        elsewhere = gates.union(*(_referenced([other]) for name, other in trees.items()
                                  if name != module))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            here = _referenced([stmt for stmt in tree.body if stmt is not node])
            if node.name not in elsewhere | here:
                unused.append(f"{module}.{node.name}")
    assert unused == [], f"reached only by module tests, or by nothing: {unused}"
