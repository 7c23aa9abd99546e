"""The error contract, read from the source: the package raises only FolcalcError subclasses."""

import ast
from pathlib import Path

import folcalc
from folcalc import errors

SOURCES = sorted(Path(folcalc.__file__).parent.glob("*.py"))


def _raises_folcalc_error(node: ast.Raise) -> bool:
    """Whether ``node`` re-raises, or raises a FolcalcError subclass named directly."""
    if node.exc is None:
        return True
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    cls = getattr(errors, exc.id, None) if isinstance(exc, ast.Name) else None
    return isinstance(cls, type) and issubclass(cls, errors.FolcalcError)


def test_every_raise_is_a_folcalc_error_or_a_reraise():
    assert SOURCES
    offenders = [
        f"{path.name}:{node.lineno}: {ast.unparse(node)}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Raise) and not _raises_folcalc_error(node)
    ]
    assert offenders == []


# JSON documents and dense matrices are checked for their shape (an object, a list of rows)
# with messages that describe the format; every other type check goes through
# rationals.require
CONTAINERS = {"dict", "list", "tuple"}


def _hand_written_type_check(node: ast.If) -> bool:
    """Whether ``node`` raises ValidationError under ``not isinstance(...)``, alone or in an ``or``,
    for a type other than a container."""
    test = node.test
    operands = test.values if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.Or) else [test]
    checks = [
        op.operand
        for op in operands
        if isinstance(op, ast.UnaryOp) and isinstance(op.op, ast.Not) and isinstance(op.operand, ast.Call)
        and getattr(op.operand.func, "id", None) == "isinstance"
    ]
    kinds = {name.id for call in checks for name in ast.walk(call.args[-1]) if isinstance(name, ast.Name)}
    raises = any(
        isinstance(stmt, ast.Raise) and "ValidationError" in ast.unparse(stmt) for stmt in node.body
    )
    return raises and bool(kinds - CONTAINERS)


def _type_check_offenders(tree: ast.AST) -> list[str]:
    """``_require*`` definitions and hand-written type checks in ``tree``."""
    return [
        f"{node.lineno}: {node.name if isinstance(node, ast.FunctionDef) else ast.unparse(node.test)}"
        for node in ast.walk(tree)
        if (isinstance(node, ast.FunctionDef) and node.name.startswith("_require"))
        or (isinstance(node, ast.If) and _hand_written_type_check(node))
    ]


def test_argument_types_checked_only_through_require():
    offenders = [
        f"{path.name}:{offender}"
        for path in SOURCES
        if path.name != "rationals.py"
        for offender in _type_check_offenders(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert offenders == []


def test_type_check_rule_finds_hand_written_checks():
    source = '''
def _require_cyclic(t):
    if not isinstance(t, CyclicType):
        raise ValidationError(f"expected CyclicType, got {type(t).__name__}")

def scale(scalar):
    if not isinstance(scalar, (int, Fraction)) or isinstance(scalar, bool):
        raise ValidationError("divisors scale by exact rationals")

def read(obj):
    if not isinstance(obj, dict) or not isinstance(obj.get("edges"), list):
        raise ValidationError("JSON must be an object")
'''
    assert _type_check_offenders(ast.parse(source)) == [
        "2: _require_cyclic",
        "3: not isinstance(t, CyclicType)",
        "7: not isinstance(scalar, (int, Fraction)) or isinstance(scalar, bool)",
    ]
