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

Every record is declared one way, as a `typing.NamedTuple`: no module
imports `dataclasses`, and every class is a named tuple or an exception.  A
named tuple that checks its fields in `__new__` also routes `_make`, which
`_replace` calls, through its constructor, so no path builds a record that
skips the check.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import wsdlab
from wsdlab.maps import CPnPoint
from wsdlab.metgeo import FiniteMetricSample, FlatTorusSpec
from wsdlab.polytope import Polytope
from wsdlab.reduction import LevelSetSpec

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


def _is_named_tuple(cls: ast.ClassDef) -> bool:
    """A class whose base is NamedTuple, or a NamedTuple(...) it subclasses."""
    return any(isinstance(base, ast.Name) and base.id == "NamedTuple"
               or isinstance(base, ast.Call) and getattr(base.func, "id", None) == "NamedTuple"
               for base in cls.bases)


def _members(cls: ast.ClassDef) -> set[str]:
    return ({node.name for node in cls.body if isinstance(node, ast.FunctionDef)}
            | {target.id for node in cls.body if isinstance(node, ast.Assign)
               for target in node.targets if isinstance(target, ast.Name)})


def test_every_record_is_a_named_tuple_that_checks_every_path():
    imports, other, unrouted = [], [], []
    for module, tree in _trees().items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
                    or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"):
                imports.append(module)
            if not isinstance(node, ast.ClassDef):
                continue
            if not _is_named_tuple(node):
                if not all(isinstance(b, ast.Name) and b.id.endswith("Error") for b in node.bases):
                    other.append(f"{module}.{node.name}")
            elif "__new__" in _members(node) and "_make" not in _members(node):
                unrouted.append(f"{module}.{node.name}")
    assert imports == [], f"modules that import dataclasses: {imports}"
    assert other == [], f"classes neither a named tuple nor an exception: {other}"
    assert unrouted == [], f"checking named tuples whose _make skips __new__: {unrouted}"


# each checking record: good fields, one field name, a bad value for it and
# the constructor's message
CHECKING_RECORDS = [
    (Polytope, ([[1, 0], [0, 1], [-1, -1]],), "vertices", ((1, 0), (1, 0)),
     "vertices must be distinct"),
    (LevelSetSpec, (2, 1.0, 0.5), "rho1", -1.0, "rho1 must be positive"),
    (CPnPoint, ([1, 0], 1.0), "lam", 0.0, "lam must be positive and finite"),
    (FiniteMetricSample, (np.zeros((2, 2)),), "dist", np.zeros((2, 3)),
     "dist must be a square matrix"),
    (FlatTorusSpec, (np.eye(2), np.ones(2)), "metric_diag", -np.ones(2),
     "metric weights must be positive"),
]


@pytest.mark.parametrize("cls,good,name,bad,message", CHECKING_RECORDS,
                         ids=[case[0].__name__ for case in CHECKING_RECORDS])
def test_checking_record_rejects_a_bad_field_on_every_path(cls, good, name, bad, message):
    # a record is an immutable tuple: it equals the plain tuple of its fields
    # and unpacks; it hashes like that tuple unless a field is an array
    record = cls(*good)
    assert isinstance(record, tuple) and record == tuple(record)
    with pytest.raises(AttributeError):
        setattr(record, name, bad)
    assert [*record] == [getattr(record, field) for field in cls._fields]
    if any(isinstance(value, np.ndarray) for value in record):
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(tuple(record))
    fields = [bad if field == name else value for field, value in zip(cls._fields, record)]
    for build in (lambda: cls(*fields), lambda: cls(**dict(zip(cls._fields, fields))),
                  lambda: cls._make(fields), lambda: record._replace(**{name: bad})):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message
