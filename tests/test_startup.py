"""Start-up cost: no ``folcalc`` process imports ``dataclasses``, ``inspect`` or ``typing``.

The records derive from ``rationals.Record``, which binds fields without
generated code, so no subcommand pays for decorating classes at import; and
annotations name ``collections.abc`` types and ``X | Y`` unions, so none pays
for ``typing``. ``typing`` is watched under ``python -S``, since ``site`` loads
it on some hosts. The subcommands are those of ``tests/test_imports.py``.
"""

import json
import os
import subprocess
import sys

import pytest

import folcalc
from test_imports import RUNS, main_script

RECORD_MODULES = ["bounds", "contributions", "cyclic", "jouanolou", "lattice", "zariski"]
ALL_MODULES = "import folcalc.cli, " + ", ".join(f"folcalc.{m}" for m in folcalc._SUBMODULES)

SUBCOMMANDS = pytest.mark.parametrize(
    ("argv", "code"), [run[:2] for run in RUNS.values()], ids=[" ".join(run[0]) for run in RUNS.values()]
)


def _watched_modules(code: str, watched: tuple, *options: str) -> list:
    """Which of ``watched`` are loaded after ``code`` runs in a fresh interpreter started with ``options``."""
    src = os.path.dirname(os.path.dirname(folcalc.__file__))
    script = f"{code}\nprint(json.dumps([m for m in {watched!r} if m in sys.modules]))"
    out = subprocess.run(
        [sys.executable, *options, "-c", f"import json, sys\n{script}"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def _heavy_modules(code: str) -> list:
    """Which of ``dataclasses`` and ``inspect`` are loaded after ``code`` runs in a fresh interpreter."""
    return _watched_modules(code, ("dataclasses", "inspect"))


def _typing_loaded(code: str) -> bool:
    """Whether ``typing`` is loaded after ``code`` runs in a fresh ``python -S``."""
    return _watched_modules(code, ("typing",), "-S") == ["typing"]


@SUBCOMMANDS
def test_no_subcommand_imports_dataclasses_or_inspect(tmp_path, argv, code):
    assert _heavy_modules(main_script(tmp_path, argv, code)) == []


def test_record_modules_import_neither():
    assert _heavy_modules("import folcalc.cli, " + ", ".join(f"folcalc.{m}" for m in RECORD_MODULES)) == []


def test_the_check_sees_an_import():
    assert _heavy_modules("import dataclasses") == ["dataclasses", "inspect"]


@SUBCOMMANDS
def test_no_subcommand_imports_typing(tmp_path, argv, code):
    assert not _typing_loaded(main_script(tmp_path, argv, code))


def test_no_module_imports_typing():
    assert not _typing_loaded(ALL_MODULES)


def test_the_typing_check_sees_an_import():
    assert _typing_loaded("import typing")
    assert not _typing_loaded("pass")
