"""One loading mechanism for the command line: library modules come through the package.

``folcalc.cli`` imports at module level only; handlers reach a library module as
an attribute of the package (``folcalc.bounds.pipeline``), which loads it on first
use. A function-level import or a ``TYPE_CHECKING`` block would be a second way
to do the same job. ``folcalc.cyclic`` reaches ``folcalc.lattice`` the same
way, so the closed forms at a cyclic point load no lattice code.
"""

import ast
from pathlib import Path

import folcalc.cli
import folcalc.cyclic

TREE = ast.parse(Path(folcalc.cli.__file__).read_text(encoding="utf-8"))
CYCLIC_TREE = ast.parse(Path(folcalc.cyclic.__file__).read_text(encoding="utf-8"))


def _imports_inside_functions(tree: ast.AST) -> list:
    return [
        f"{node.lineno}: {ast.unparse(node)}"
        for scope in ast.walk(tree)
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for node in ast.walk(scope)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]


def _type_checking_blocks(tree: ast.AST) -> list:
    return [
        f"{node.lineno}: {ast.unparse(node.test)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test)
    ]


def test_cli_imports_no_module_inside_a_function():
    assert _imports_inside_functions(TREE) == []


def test_cli_has_no_type_checking_block():
    assert _type_checking_blocks(TREE) == []


def _lattice_imports(tree: ast.AST) -> list:
    return [
        f"{node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and "lattice" in ast.unparse(node)
    ]


def test_cyclic_reaches_lattice_through_the_package():
    assert _lattice_imports(CYCLIC_TREE) == []
    assert _imports_inside_functions(CYCLIC_TREE) == []
    assert _type_checking_blocks(CYCLIC_TREE) == []


def test_the_rules_flag_the_old_patterns():
    old = ast.parse(
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from .bounds import HilbertSamples\n"
        "def _cmd_hj(args):\n"
        "    from . import cyclic as cyclic_mod\n"
        "    return cyclic_mod\n"
    )
    assert _imports_inside_functions(old) == ["5: from . import cyclic as cyclic_mod"]
    assert _type_checking_blocks(old) == ["2: TYPE_CHECKING"]
    assert _lattice_imports(ast.parse("from .lattice import DualGraph, IntersectionProfile")) == [
        "1: from .lattice import DualGraph, IntersectionProfile"
    ]
