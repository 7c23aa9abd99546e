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
