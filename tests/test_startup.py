"""Start-up cost: no ``folcalc`` process imports ``dataclasses`` or ``inspect``.

The records derive from ``rationals.Record``, which binds fields without
generated code, so no subcommand pays for decorating classes at import. The
subcommands are those of ``tests/test_imports.py``.
"""

import json
import os
import subprocess
import sys

import pytest

import folcalc
from test_imports import RUNS

RECORD_MODULES = ["bounds", "contributions", "cyclic", "jouanolou", "lattice", "zariski"]


def _heavy_modules(code: str) -> list:
    """Which of ``dataclasses`` and ``inspect`` are loaded after ``code`` runs in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(folcalc.__file__))
    script = f"{code}\nprint(json.dumps([m for m in ('dataclasses', 'inspect') if m in sys.modules]))"
    out = subprocess.run(
        [sys.executable, "-c", f"import json, sys\n{script}"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    ("argv", "code"), [run[:2] for run in RUNS], ids=[" ".join(run[0]) for run in RUNS]
)
def test_no_subcommand_imports_dataclasses_or_inspect(tmp_path, argv, code):
    samples = tmp_path / "samples.json"
    samples.write_text(json.dumps({"values": {str(m): m * m + 1 for m in range(8)}}))
    argv = [a.format(samples=samples) for a in argv]
    run = (
        "import contextlib, io\nfrom folcalc.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    assert main({argv!r}) == {code}"
    )
    assert _heavy_modules(run) == []


def test_record_modules_import_neither():
    assert _heavy_modules("import folcalc.cli, " + ", ".join(f"folcalc.{m}" for m in RECORD_MODULES)) == []


def test_the_check_sees_an_import():
    assert _heavy_modules("import dataclasses") == ["dataclasses", "inspect"]
