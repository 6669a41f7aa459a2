"""The package has no surface that only module tests reach.

Every public top-level function and class in `src/wsdlab/*.py`, and every
public method and property of those classes, must be referenced from some
package module, outside its own definition, or from the acceptance gates.
A reference is an AST name, attribute or import alias, so a mention in a
docstring or comment does not count.  A method is reached only through an
attribute, so for methods only attributes count: a local variable that
shares a method's name does not keep it alive.

Every default parameter of a public top-level function must also be passed,
by keyword or by position, in some call from another package module or the
gates: a default that no such caller overrides is a constant, or an option
for one caller in its own module.  A call is matched by the name or
attribute it calls, and a *args or **kwargs in it passes every parameter it
could reach.
"""

import ast
from pathlib import Path

import wsdlab

PACKAGE = Path(wsdlab.__file__).parent
GATES = Path(__file__).with_name("test_acceptance.py")


def _referenced(nodes, attributes_only=False) -> set[str]:
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute):
                out.add(sub.attr)
            elif attributes_only:
                continue
            elif isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.alias):
                out.add(sub.name)
    return out


def _public(body, kind):
    return [node for node in body if isinstance(node, kind) and not node.name.startswith("_")]


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _unused(attributes_only: bool, definitions) -> list[str]:
    """`module.label` of every definition that `definitions(tree)` lists, as
    (label, name, the statements outside it), and that nothing references."""
    trees = _trees()
    gates = _referenced([ast.parse(GATES.read_text(encoding="utf-8"))], attributes_only)
    unused = []
    for module, tree in trees.items():
        elsewhere = gates.union(*(_referenced([other], attributes_only)
                                  for name, other in trees.items() if name != module))
        for label, name, outside in definitions(tree):
            if name not in elsewhere | _referenced(outside, attributes_only):
                unused.append(f"{module}.{label}")
    return unused


def _top_level(tree):
    for node in _public(tree.body, (ast.FunctionDef, ast.ClassDef)):
        yield node.name, node.name, [stmt for stmt in tree.body if stmt is not node]


def _methods(tree):
    for cls in _public(tree.body, ast.ClassDef):
        rest = [stmt for stmt in tree.body if stmt is not cls]
        for node in _public(cls.body, ast.FunctionDef):
            yield (f"{cls.name}.{node.name}", node.name,
                   rest + [stmt for stmt in cls.body if stmt is not node])


def test_every_public_definition_has_a_package_or_gate_user():
    unused = _unused(False, _top_level)
    assert unused == [], f"reached only by module tests, or by nothing: {unused}"


def test_every_public_method_has_a_package_or_gate_user():
    unused = _unused(True, _methods)
    assert unused == [], f"reached only by module tests, or by nothing: {unused}"


def _defaults(fn: ast.FunctionDef):
    """(name, position or None for keyword-only) of each defaulted parameter."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    for k, arg in enumerate(positional[first:], start=first):
        yield arg.arg, k
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _passes(call: ast.Call, name: str, position) -> bool:
    """Whether the call sets parameter `name` at `position` (None: keyword-only)."""
    if any(kw.arg in (None, name) for kw in call.keywords):
        return True
    return position is not None and (len(call.args) > position or any(
        isinstance(arg, ast.Starred) for arg in call.args))


def _calls(tree) -> list[tuple[str, ast.Call]]:
    """(the called name or attribute, the call) of every call in the tree."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            out.append((func.id if isinstance(func, ast.Name) else getattr(func, "attr", None),
                        node))
    return out


def test_every_default_parameter_is_passed_by_another_module_or_a_gate():
    trees = _trees()
    calls = {module: _calls(tree) for module, tree in trees.items()}
    gates = _calls(ast.parse(GATES.read_text(encoding="utf-8")))
    constant = []
    for module, tree in trees.items():
        callers = gates + [c for other, found in calls.items() if other != module for c in found]
        for fn in _public(tree.body, ast.FunctionDef):
            for name, position in _defaults(fn):
                if not any(callee == fn.name and _passes(call, name, position)
                           for callee, call in callers):
                    constant.append(f"{module}.{fn.name}.{name}")
    assert constant == [], f"defaults no other module or gate sets: {constant}"
